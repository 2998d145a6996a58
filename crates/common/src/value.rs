//! Value types of the data model (paper §2.4).
//!
//! A frame carries a schema of one [`ValueType`] per column; matrices are
//! always `f64`. Scalars in the DML runtime are represented by
//! [`ScalarValue`].

use crate::error::{Result, SysDsError};
use std::fmt;

/// The value types of frame columns and DML scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Fp64,
    Int64,
    Boolean,
    /// Strings (the paper includes JSON under this type).
    String,
}

impl ValueType {
    /// Whether values of this type are numbers (everything but strings).
    pub fn is_numeric(self) -> bool {
        !matches!(self, ValueType::String)
    }

    /// External name used in `.mtd` metadata and frame schemas.
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Fp64 => "fp64",
            ValueType::Int64 => "int64",
            ValueType::Boolean => "boolean",
            ValueType::String => "string",
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime scalar value as produced and consumed by DML programs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarValue {
    F64(f64),
    I64(i64),
    Bool(bool),
    Str(String),
}

impl ScalarValue {
    /// The value type of this scalar.
    pub fn value_type(&self) -> ValueType {
        match self {
            ScalarValue::F64(_) => ValueType::Fp64,
            ScalarValue::I64(_) => ValueType::Int64,
            ScalarValue::Bool(_) => ValueType::Boolean,
            ScalarValue::Str(_) => ValueType::String,
        }
    }

    /// Coerce to `f64`, following R-like semantics (`TRUE` → 1.0).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            ScalarValue::F64(v) => Ok(*v),
            ScalarValue::I64(v) => Ok(*v as f64),
            ScalarValue::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            ScalarValue::Str(s) => s
                .trim()
                .parse::<f64>()
                .map_err(|_| SysDsError::TypeError(format!("cannot convert '{s}' to double"))),
        }
    }

    /// Coerce to `i64`, truncating doubles like DML's `as.integer`.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            ScalarValue::F64(v) => Ok(*v as i64),
            ScalarValue::I64(v) => Ok(*v),
            ScalarValue::Bool(b) => Ok(*b as i64),
            ScalarValue::Str(s) => s
                .trim()
                .parse::<i64>()
                .or_else(|_| s.trim().parse::<f64>().map(|v| v as i64))
                .map_err(|_| SysDsError::TypeError(format!("cannot convert '{s}' to integer"))),
        }
    }

    /// Coerce to `bool`; numbers are true iff non-zero.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            ScalarValue::F64(v) => Ok(*v != 0.0),
            ScalarValue::I64(v) => Ok(*v != 0),
            ScalarValue::Bool(b) => Ok(*b),
            ScalarValue::Str(s) => match s.trim() {
                "TRUE" | "true" => Ok(true),
                "FALSE" | "false" => Ok(false),
                other => Err(SysDsError::TypeError(format!(
                    "cannot convert '{other}' to boolean"
                ))),
            },
        }
    }

    /// Render for `print()`/`toString()`; integers without decimal point.
    pub fn to_display_string(&self) -> String {
        match self {
            ScalarValue::F64(v) => format_f64(*v),
            ScalarValue::I64(v) => v.to_string(),
            ScalarValue::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            ScalarValue::Str(s) => s.clone(),
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

/// Format a double the way DML's `print` does: integral values without a
/// trailing `.0`, otherwise shortest round-trip representation.
pub fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 && v.is_finite() {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_coercions() {
        assert_eq!(ScalarValue::Str("3.5".into()).as_f64().unwrap(), 3.5);
        assert_eq!(ScalarValue::F64(3.9).as_i64().unwrap(), 3);
        assert_eq!(ScalarValue::Bool(true).as_f64().unwrap(), 1.0);
        assert!(ScalarValue::Str("abc".into()).as_f64().is_err());
        assert!(ScalarValue::F64(0.0).as_bool().is_ok());
        assert!(!ScalarValue::F64(0.0).as_bool().unwrap());
        assert!(ScalarValue::Str("TRUE".into()).as_bool().unwrap());
    }

    #[test]
    fn display_formatting() {
        assert_eq!(ScalarValue::F64(2.0).to_display_string(), "2");
        assert_eq!(ScalarValue::F64(2.5).to_display_string(), "2.5");
        assert_eq!(ScalarValue::Bool(false).to_display_string(), "FALSE");
        assert_eq!(ScalarValue::I64(-7).to_display_string(), "-7");
    }
}
