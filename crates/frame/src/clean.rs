//! Frame-level data cleaning (paper §3.2): duplicate and invalid rows.
//!
//! Matrix cleaning (imputation, outlier detection, winsorizing) is DML:
//! the `impute*`, `outlier*` and `winsorize*` builtins of `sysds::builtins`.
//! These two stay in Rust because DML has no frame row operations.

use crate::frame::{Frame, FrameColumn};
use sysds_common::Result;

/// Drop duplicate frame rows (exact string-representation match),
/// keeping first occurrences in order.
pub fn dedup(frame: &Frame) -> Result<Frame> {
    let rows = frame.rows();
    let mut seen = std::collections::HashSet::new();
    let mut keep = Vec::new();
    let cols: Vec<Vec<String>> = (0..frame.cols())
        .map(|j| frame.column(j).unwrap().as_strings())
        .collect();
    for i in 0..rows {
        let key: String = cols
            .iter()
            .map(|c| c[i].as_str())
            .collect::<Vec<_>>()
            .join("\u{1}");
        if seen.insert(key) {
            keep.push(i);
        }
    }
    frame.select_rows(&keep)
}

/// Drop frame rows containing any missing value (empty/NA strings or NaN).
pub fn drop_invalid(frame: &Frame) -> Result<Frame> {
    let rows = frame.rows();
    let mut keep = Vec::new();
    'row: for i in 0..rows {
        for j in 0..frame.cols() {
            match frame.column(j)? {
                FrameColumn::F64(v) if v[i].is_nan() => {
                    continue 'row;
                }
                FrameColumn::Str(v) => {
                    let t = v[i].trim();
                    if t.is_empty() || t == "NA" || t == "NaN" {
                        continue 'row;
                    }
                }
                _ => {}
            }
        }
        keep.push(i);
    }
    frame.select_rows(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first() {
        let f = Frame::from_columns(vec![
            ("a".into(), FrameColumn::I64(vec![1, 2, 1, 3])),
            (
                "b".into(),
                FrameColumn::Str(vec!["x".into(), "y".into(), "x".into(), "x".into()]),
            ),
        ])
        .unwrap();
        let d = dedup(&f).unwrap();
        assert_eq!(d.rows(), 3);
        assert_eq!(d.get(0, 0).unwrap().as_i64().unwrap(), 1);
        assert_eq!(d.get(2, 0).unwrap().as_i64().unwrap(), 3);
    }

    #[test]
    fn drop_invalid_removes_missing_rows() {
        let f = Frame::from_columns(vec![
            ("a".into(), FrameColumn::F64(vec![1.0, f64::NAN, 3.0])),
            (
                "b".into(),
                FrameColumn::Str(vec!["x".into(), "y".into(), "NA".into()]),
            ),
        ])
        .unwrap();
        let d = drop_invalid(&f).unwrap();
        assert_eq!(d.rows(), 1);
        assert_eq!(d.get(0, 0).unwrap().as_f64().unwrap(), 1.0);
    }
}
