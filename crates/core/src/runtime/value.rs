//! Runtime data values and the symbol table.

use crate::compiler::hop::SizeInfo;
use crate::lineage::item::LineageItem;
use std::sync::Arc;
use sysds_common::hash::FxHashMap;
use sysds_common::{Result, ScalarValue, SysDsError};
use sysds_fed::FederatedMatrix;
use sysds_frame::Frame;
use sysds_tensor::Matrix;

/// A runtime value bound to a DML variable or instruction slot.
#[derive(Debug, Clone)]
pub enum Data {
    /// A matrix behind a buffer-pool-managed handle.
    Matrix(crate::runtime::bufferpool::MatrixHandle),
    Frame(Arc<Frame>),
    Scalar(ScalarValue),
    /// A federated matrix: metadata plus site connections (paper §2.4).
    Federated(Arc<FederatedMatrix>),
    /// Absent value (e.g. uninitialized slot).
    Empty,
}

impl Data {
    /// Wrap a matrix without buffer-pool registration (small/temporary).
    pub fn from_matrix(m: impl Into<Arc<Matrix>>) -> Data {
        Data::Matrix(crate::runtime::bufferpool::MatrixHandle::unmanaged(m))
    }

    /// Wrap a scalar.
    pub fn from_f64(v: f64) -> Data {
        Data::Scalar(ScalarValue::F64(v))
    }

    /// Acquire the matrix (restoring from disk when evicted).
    pub fn as_matrix(&self) -> Result<Arc<Matrix>> {
        match self {
            Data::Matrix(h) => h.acquire(),
            Data::Scalar(s) => {
                // Scalars auto-lift to 1x1 matrices like in DML.
                Ok(Arc::new(Matrix::filled(1, 1, s.as_f64()?)))
            }
            other => Err(SysDsError::runtime(format!(
                "expected matrix, got {}",
                other.kind()
            ))),
        }
    }

    /// The scalar value, if this is a scalar (or 1x1 matrix).
    pub fn as_scalar(&self) -> Result<ScalarValue> {
        match self {
            Data::Scalar(s) => Ok(s.clone()),
            Data::Matrix(h) => {
                let m = h.acquire()?;
                Ok(ScalarValue::F64(m.as_scalar()?))
            }
            other => Err(SysDsError::runtime(format!(
                "expected scalar, got {}",
                other.kind()
            ))),
        }
    }

    /// The frame, if this is a frame.
    pub fn as_frame(&self) -> Result<Arc<Frame>> {
        match self {
            Data::Frame(f) => Ok(f.clone()),
            other => Err(SysDsError::runtime(format!(
                "expected frame, got {}",
                other.kind()
            ))),
        }
    }

    /// The federated matrix, if federated.
    pub fn as_federated(&self) -> Result<Arc<FederatedMatrix>> {
        match self {
            Data::Federated(f) => Ok(f.clone()),
            other => Err(SysDsError::runtime(format!(
                "expected federated matrix, got {}",
                other.kind()
            ))),
        }
    }

    /// Scalar convenience: numeric value.
    pub fn as_f64(&self) -> Result<f64> {
        self.as_scalar()?.as_f64()
    }

    /// Scalar convenience: integer value.
    pub fn as_i64(&self) -> Result<i64> {
        self.as_scalar()?.as_i64()
    }

    /// Scalar convenience: boolean value.
    pub fn as_bool(&self) -> Result<bool> {
        self.as_scalar()?.as_bool()
    }

    /// A short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Data::Matrix(_) => "matrix",
            Data::Frame(_) => "frame",
            Data::Scalar(_) => "scalar",
            Data::Federated(_) => "federated",
            Data::Empty => "empty",
        }
    }

    /// Size information for dynamic recompilation.
    pub fn size_info(&self) -> SizeInfo {
        match self {
            Data::Matrix(h) => match h.shape() {
                Some((r, c)) => SizeInfo::matrix(r, c, h.sparsity()),
                None => SizeInfo::unknown(),
            },
            Data::Frame(f) => SizeInfo::matrix(f.rows(), f.cols(), Some(1.0)),
            Data::Scalar(_) => SizeInfo::scalar(),
            Data::Federated(f) => SizeInfo::matrix(f.rows(), f.cols(), Some(1.0)),
            Data::Empty => SizeInfo::unknown(),
        }
    }
}

/// A symbol-table entry: value plus its lineage (paper §3.1: "lineage
/// DAGs of live variables").
#[derive(Debug, Clone)]
pub struct Entry {
    pub data: Data,
    pub lineage: Option<Arc<LineageItem>>,
}

/// The symbol table of live variables.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    vars: FxHashMap<String, Entry>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Bind a variable.
    pub fn set(&mut self, name: impl Into<String>, data: Data, lineage: Option<Arc<LineageItem>>) {
        self.vars.insert(name.into(), Entry { data, lineage });
    }

    /// Look up a variable.
    pub fn get(&self, name: &str) -> Result<&Entry> {
        self.vars
            .get(name)
            .ok_or_else(|| SysDsError::runtime(format!("undefined variable '{name}'")))
    }

    /// Look up a variable if present.
    pub fn try_get(&self, name: &str) -> Option<&Entry> {
        self.vars.get(name)
    }

    /// Remove a variable.
    pub fn remove(&mut self, name: &str) -> Option<Entry> {
        self.vars.remove(name)
    }

    /// Whether a variable is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    /// Iterate over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Entry)> {
        self.vars.iter()
    }

    /// Variable names.
    pub fn names(&self) -> Vec<String> {
        self.vars.keys().cloned().collect()
    }

    /// Build the size environment for recompilation.
    pub fn size_env(&self) -> crate::compiler::size::SizeEnv {
        let mut env = crate::compiler::size::SizeEnv::default();
        for (name, entry) in &self.vars {
            env.insert(name.clone(), entry.data.size_info());
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let d = Data::Scalar(ScalarValue::F64(2.5));
        assert_eq!(d.as_f64().unwrap(), 2.5);
        assert_eq!(d.as_i64().unwrap(), 2);
        assert!(d.as_bool().unwrap());
        assert_eq!(d.kind(), "scalar");
    }

    #[test]
    fn scalar_lifts_to_matrix() {
        let d = Data::from_f64(3.0);
        let m = d.as_matrix().unwrap();
        assert_eq!(m.shape(), (1, 1));
        assert_eq!(m.get(0, 0), 3.0);
    }

    #[test]
    fn one_by_one_matrix_lowers_to_scalar() {
        let d = Data::from_matrix(Matrix::filled(1, 1, 7.0));
        assert_eq!(d.as_f64().unwrap(), 7.0);
        let big = Data::from_matrix(Matrix::zeros(2, 2));
        assert!(big.as_scalar().is_err());
    }

    #[test]
    fn kind_mismatch_errors() {
        let d = Data::Scalar(ScalarValue::Str("x".into()));
        assert!(d.as_frame().is_err());
        assert!(Data::Empty.as_matrix().is_err());
    }

    #[test]
    fn symbol_table_basics() {
        let mut st = SymbolTable::new();
        st.set("x", Data::from_f64(1.0), None);
        assert!(st.contains("x"));
        assert_eq!(st.get("x").unwrap().data.as_f64().unwrap(), 1.0);
        assert!(st.get("y").is_err());
        st.remove("x");
        assert!(!st.contains("x"));
    }

    #[test]
    fn size_env_reflects_data() {
        let mut st = SymbolTable::new();
        st.set("X", Data::from_matrix(Matrix::zeros(5, 3)), None);
        st.set("s", Data::from_f64(1.0), None);
        let env = st.size_env();
        assert_eq!(env["X"].rows.value(), Some(5));
        assert!(env["s"].scalar);
    }
}
