//! `.mtd` metadata files.
//!
//! SystemDS stores dimensions, sparsity, and format next to each persisted
//! dataset so the compiler can propagate sizes without reading the data
//! (paper §2.3: size propagation needs dims and sparsity up front). We write
//! a minimal JSON object by hand and read it with the workspace's JSON
//! reader ([`sysds_common::json`]).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use sysds_common::json::{self, Value};
use sysds_common::{Result, SysDsError};

/// Dataset metadata persisted beside the data file.
#[derive(Debug, Clone, PartialEq)]
pub struct Metadata {
    pub rows: usize,
    pub cols: usize,
    pub nnz: Option<usize>,
    /// `"csv"`, `"binary"`, or `"frame-csv"`.
    pub format: String,
    pub header: bool,
}

impl Metadata {
    /// Metadata for a matrix.
    pub fn matrix(rows: usize, cols: usize, nnz: usize, format: &str) -> Metadata {
        Metadata {
            rows,
            cols,
            nnz: Some(nnz),
            format: format.into(),
            header: false,
        }
    }

    /// The sparsity implied by `nnz` (1.0 if unknown).
    pub fn sparsity(&self) -> f64 {
        match self.nnz {
            Some(nnz) if self.rows * self.cols > 0 => nnz as f64 / (self.rows * self.cols) as f64,
            _ => 1.0,
        }
    }

    /// The conventional sidecar path: `<data>.mtd`.
    pub fn sidecar_path(data_path: impl AsRef<Path>) -> PathBuf {
        let mut p = data_path.as_ref().as_os_str().to_owned();
        p.push(".mtd");
        PathBuf::from(p)
    }

    /// Serialize as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        write!(s, "\"rows\": {}, \"cols\": {}", self.rows, self.cols).unwrap();
        if let Some(nnz) = self.nnz {
            write!(s, ", \"nnz\": {nnz}").unwrap();
        }
        s.push_str(", \"format\": \"");
        json::escape_into(&mut s, &self.format);
        write!(s, "\", \"header\": {}}}", self.header).unwrap();
        s
    }

    /// Parse a JSON object with at least `rows` and `cols`; unknown keys
    /// are ignored.
    pub fn from_json(text: &str) -> Result<Metadata> {
        let malformed = |what: &str| SysDsError::Format(format!("mtd: {what}"));
        let obj = json::parse(text)
            .filter(|v| matches!(v, Value::Object(_)))
            .ok_or_else(|| malformed("expected a JSON object"))?;
        let size = |key: &str| -> Result<Option<usize>> {
            obj.field(key)
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| malformed(&format!("expected integer {key}, got {v:?}")))
                })
                .transpose()
        };
        let format = match obj.field("format") {
            None => "csv".to_string(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| malformed("format must be a string"))?
                .to_string(),
        };
        Ok(Metadata {
            rows: size("rows")?.ok_or_else(|| malformed("missing rows"))?,
            cols: size("cols")?.ok_or_else(|| malformed("missing cols"))?,
            nnz: size("nnz")?,
            format,
            header: obj
                .field("header")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        })
    }

    /// Write the sidecar file for `data_path`.
    pub fn save(&self, data_path: impl AsRef<Path>) -> Result<()> {
        let p = Self::sidecar_path(data_path);
        fs::write(&p, self.to_json()).map_err(|e| SysDsError::io(p.display().to_string(), e))
    }

    /// Load the sidecar file for `data_path`, or `None` if absent.
    pub fn load(data_path: impl AsRef<Path>) -> Result<Option<Metadata>> {
        let p = Self::sidecar_path(data_path);
        match fs::read_to_string(&p) {
            Ok(text) => Ok(Some(Metadata::from_json(&text)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SysDsError::io(p.display().to_string(), e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let m = Metadata::matrix(100, 10, 250, "csv");
        let back = Metadata::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn sparsity_from_nnz() {
        let m = Metadata::matrix(10, 10, 25, "csv");
        assert!((m.sparsity() - 0.25).abs() < 1e-12);
        let unknown = Metadata { nnz: None, ..m };
        assert_eq!(unknown.sparsity(), 1.0);
    }

    #[test]
    fn parses_reordered_keys_and_unknowns() {
        let m = Metadata::from_json(
            r#"{ "format": "binary", "cols": 3, "rows": 2, "future_key": 7, "header": true }"#,
        )
        .unwrap();
        assert_eq!(m.rows, 2);
        assert_eq!(m.cols, 3);
        assert_eq!(m.format, "binary");
        assert!(m.header);
        assert_eq!(m.nnz, None);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Metadata::from_json("not json").is_err());
        assert!(Metadata::from_json(r#"{"rows": 2}"#).is_err());
        assert!(Metadata::from_json(r#"{"rows": "x", "cols": 1}"#).is_err());
    }

    #[test]
    fn escaped_quotes_keep_the_next_key() {
        let text = r#"{"rows": 2, "cols": 3, "note": "x\", y", "format": "binary"}"#;
        let m = Metadata::from_json(text).unwrap();
        assert_eq!(m.format, "binary");
        let odd = Metadata::matrix(1, 1, 1, "a\"b\\c");
        assert_eq!(Metadata::from_json(&odd.to_json()).unwrap(), odd);
    }

    #[test]
    fn sidecar_save_load() {
        let dir = sysds_common::testing::unique_temp_dir("sysds-io-mtd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join(format!("data-{}.csv", std::process::id()));
        std::fs::write(&data, "1,2\n").unwrap();
        let m = Metadata::matrix(1, 2, 2, "csv");
        m.save(&data).unwrap();
        assert_eq!(Metadata::load(&data).unwrap(), Some(m));
        let missing = dir.join("nonexistent.csv");
        assert_eq!(Metadata::load(missing).unwrap(), None);
    }
}
