//! Workspace-wide error type.
//!
//! SystemDS distinguishes language-level errors (parse/validate), compiler
//! errors (size propagation, plan generation), and runtime errors
//! (instruction execution, I/O). We mirror that with one enum so errors can
//! flow across crate boundaries without boxing.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, SysDsError>;

/// The error type shared by all `systemds-rs` crates.
#[derive(Debug)]
pub enum SysDsError {
    /// Lexer/parser failures, with 1-based line/column positions.
    Parse {
        line: usize,
        col: usize,
        msg: String,
    },
    /// Semantic validation failures (unknown variables, arity mismatches, ...).
    Validate(String),
    /// Compiler failures (size propagation, operator selection, lop gen).
    Compile(String),
    /// Runtime instruction failures (shape mismatches, singular matrices, ...).
    Runtime(String),
    /// Dimension mismatch in a linear-algebra kernel.
    DimensionMismatch {
        op: &'static str,
        lhs: (usize, usize),
        rhs: (usize, usize),
    },
    /// Index out of bounds on a tensor/matrix/frame access.
    IndexOutOfBounds { msg: String },
    /// Numerical failure (singular system, non-PD matrix, divergence).
    Numerical(String),
    /// Value-type errors in the heterogeneous tensor data model.
    TypeError(String),
    /// I/O failures wrapping `std::io::Error` with file context.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// Malformed external data (CSV cells, metadata files, binary blocks).
    Format(String),
    /// Federated-backend failures (worker died, exchange-constraint breach).
    Federated(String),
    /// A federated site became unreachable: every retry within the deadline
    /// budget failed, so the federated operation is aborted instead of
    /// hanging. `endpoint` identifies the site, `detail` the last transport
    /// error observed.
    FederatedSiteLost { endpoint: String, detail: String },
    /// User script called `stop("...")`.
    Stop(String),
}

impl fmt::Display for SysDsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysDsError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            SysDsError::Validate(msg) => write!(f, "validation error: {msg}"),
            SysDsError::Compile(msg) => write!(f, "compile error: {msg}"),
            SysDsError::Runtime(msg) => write!(f, "runtime error: {msg}"),
            SysDsError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            SysDsError::IndexOutOfBounds { msg } => write!(f, "index out of bounds: {msg}"),
            SysDsError::Numerical(msg) => write!(f, "numerical error: {msg}"),
            SysDsError::TypeError(msg) => write!(f, "type error: {msg}"),
            SysDsError::Io { path, source } => write!(f, "i/o error on '{path}': {source}"),
            SysDsError::Format(msg) => write!(f, "format error: {msg}"),
            SysDsError::Federated(msg) => write!(f, "federated error: {msg}"),
            SysDsError::FederatedSiteLost { endpoint, detail } => {
                write!(f, "federated site '{endpoint}' lost: {detail}")
            }
            SysDsError::Stop(msg) => write!(f, "stop: {msg}"),
        }
    }
}

impl std::error::Error for SysDsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SysDsError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The message of a caught panic's payload, when it is a string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    let owned = || payload.downcast_ref::<String>().map(String::as_str);
    payload.downcast_ref::<&str>().copied().or_else(owned)
}

impl SysDsError {
    /// Wrap an `std::io::Error` with the path that produced it.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        SysDsError::Io {
            path: path.into(),
            source,
        }
    }

    /// Shorthand constructor for runtime errors.
    pub fn runtime(msg: impl Into<String>) -> Self {
        SysDsError::Runtime(msg.into())
    }

    /// Shorthand constructor for malformed-data errors.
    pub fn format(msg: impl Into<String>) -> Self {
        SysDsError::Format(msg.into())
    }

    /// Shorthand constructor for compile errors.
    pub fn compile(msg: impl Into<String>) -> Self {
        SysDsError::Compile(msg.into())
    }

    /// Shorthand constructor for validation errors.
    pub fn validate(msg: impl Into<String>) -> Self {
        SysDsError::Validate(msg.into())
    }

    /// Shorthand constructor for a lost federated site.
    pub fn site_lost(endpoint: impl Into<String>, detail: impl Into<String>) -> Self {
        SysDsError::FederatedSiteLost {
            endpoint: endpoint.into(),
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_error() {
        let e = SysDsError::Parse {
            line: 3,
            col: 7,
            msg: "unexpected ')'".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:7: unexpected ')'");
    }

    #[test]
    fn display_dimension_mismatch() {
        let e = SysDsError::DimensionMismatch {
            op: "%*%",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(e.to_string(), "dimension mismatch in %*%: 2x3 vs 4x5");
    }

    #[test]
    fn io_error_preserves_source() {
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = SysDsError::io("/tmp/x.csv", inner);
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("/tmp/x.csv"));
    }

    #[test]
    fn display_site_lost() {
        let e = SysDsError::site_lost("127.0.0.1:7700", "connection refused");
        assert_eq!(
            e.to_string(),
            "federated site '127.0.0.1:7700' lost: connection refused"
        );
        assert!(matches!(e, SysDsError::FederatedSiteLost { .. }));
    }

    #[test]
    fn shorthand_constructors() {
        assert!(matches!(SysDsError::runtime("x"), SysDsError::Runtime(_)));
        assert!(matches!(SysDsError::compile("x"), SysDsError::Compile(_)));
        assert!(matches!(SysDsError::validate("x"), SysDsError::Validate(_)));
    }
}
