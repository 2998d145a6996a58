//! The file formats of DML's `read` and `write`, by name.
//!
//! Both statements parse their `format` argument with [`Format::parse`]
//! and go through the same table, so a name is either read and written
//! the same way or rejected by both.

use crate::{binary, csv, formats, FormatDescriptor, Metadata};
use std::path::Path;
use sysds_common::{Result, SysDsError};
use sysds_frame::Frame;
use sysds_tensor::Matrix;

/// A file format `read` and `write` accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Comma-separated text.
    Csv,
    /// Tab-separated text.
    Tsv,
    /// The binary blocked format of [`binary`].
    Binary,
    /// MatrixMarket coordinate text.
    MatrixMarket,
}

impl Format {
    /// The format named `name`: `csv`, `tsv`, `binary`, or `mm` /
    /// `matrixmarket`. Any other name is an error that names it.
    pub fn parse(name: &str) -> Result<Format> {
        match name {
            "csv" => Ok(Format::Csv),
            "tsv" => Ok(Format::Tsv),
            "binary" => Ok(Format::Binary),
            "mm" | "matrixmarket" => Ok(Format::MatrixMarket),
            other => Err(SysDsError::Format(format!(
                "unknown format '{other}' (expected csv, tsv, binary, mm or matrixmarket)"
            ))),
        }
    }

    /// The canonical name, as `parse` accepts it.
    pub fn name(self) -> &'static str {
        match self {
            Format::Csv => "csv",
            Format::Tsv => "tsv",
            Format::Binary => "binary",
            Format::MatrixMarket => "mm",
        }
    }

    /// The text layout of a delimited format, or an error naming `what`
    /// for the others.
    fn text(self, header: bool, what: &str) -> Result<FormatDescriptor> {
        match self {
            Format::Csv => Ok(FormatDescriptor::csv().with_header(header)),
            Format::Tsv => Ok(FormatDescriptor::tsv().with_header(header)),
            Format::Binary | Format::MatrixMarket => Err(SysDsError::Format(format!(
                "a {what} is read and written as csv or tsv, not {}",
                self.name()
            ))),
        }
    }

    /// Read a matrix; `header` skips a first line of delimited text.
    pub fn read_matrix(
        self,
        path: impl AsRef<Path>,
        header: bool,
        threads: usize,
    ) -> Result<Matrix> {
        match self {
            Format::Binary => binary::read_matrix(path),
            Format::MatrixMarket => formats::read_matrix_market(path),
            text => csv::read_matrix(path, &text.text(header, "matrix")?, threads),
        }
    }

    /// Write a matrix and its `.mtd` sidecar.
    pub fn write_matrix(self, path: impl AsRef<Path>, m: &Matrix) -> Result<()> {
        let path = path.as_ref();
        match self {
            Format::Binary => binary::write_matrix(path, m)?,
            Format::MatrixMarket => formats::write_matrix_market(path, m)?,
            text => csv::write_matrix(path, m, &text.text(false, "matrix")?)?,
        }
        Metadata::matrix(m.rows(), m.cols(), m.nnz(), self.name()).save(path)
    }

    /// Read a frame of strings (callers detect the schema).
    pub fn read_frame(self, path: impl AsRef<Path>, header: bool) -> Result<Frame> {
        csv::read_frame(path, &self.text(header, "frame")?)
    }

    /// Write a frame with a header row of its column names.
    pub fn write_frame(self, path: impl AsRef<Path>, frame: &Frame) -> Result<()> {
        csv::write_frame(path, frame, &self.text(true, "frame")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = sysds_common::testing::unique_temp_dir("sysds-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn names_parse_to_one_table() {
        for (name, f) in [
            ("csv", Format::Csv),
            ("tsv", Format::Tsv),
            ("binary", Format::Binary),
            ("mm", Format::MatrixMarket),
            ("matrixmarket", Format::MatrixMarket),
        ] {
            assert_eq!(Format::parse(name).unwrap(), f);
            assert_eq!(Format::parse(f.name()).unwrap(), f);
        }
        let err = Format::parse("parquet").unwrap_err().to_string();
        assert!(err.contains("parquet"), "{err}");
    }

    #[test]
    fn every_format_round_trips_a_matrix() {
        let m = gen::rand_uniform(9, 4, -3.0, 3.0, 0.5, 1201).compact();
        for f in [
            Format::Csv,
            Format::Tsv,
            Format::Binary,
            Format::MatrixMarket,
        ] {
            let p = tmp(&format!("m.{}", f.name()));
            f.write_matrix(&p, &m).unwrap();
            let back = f.read_matrix(&p, false, 2).unwrap();
            assert!(back.approx_eq(&m, 0.0), "{f:?}");
            let meta = Metadata::load(&p).unwrap().unwrap();
            assert_eq!(
                (meta.rows, meta.cols, meta.format.as_str()),
                (9, 4, f.name())
            );
        }
    }

    #[test]
    fn tsv_writes_tabs() {
        let p = tmp("m.tsv");
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        Format::Tsv.write_matrix(&p, &m).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "1\t2\n3\t4\n");
    }

    #[test]
    fn frames_take_text_formats_only() {
        let p = tmp("f.tsv");
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let f = Frame::from_matrix(&m, Some(vec!["a".into(), "b".into()])).unwrap();
        Format::Tsv.write_frame(&p, &f).unwrap();
        assert!(std::fs::read_to_string(&p).unwrap().starts_with("a\tb\n"));
        let back = Format::Tsv.read_frame(&p, true).unwrap();
        assert_eq!(
            (back.rows(), back.names()),
            (2, &["a".to_string(), "b".to_string()][..])
        );
        for other in [Format::Binary, Format::MatrixMarket] {
            let err = other.write_frame(&p, &f).unwrap_err().to_string();
            assert!(err.contains(other.name()), "{err}");
            assert!(other.read_frame(&p, true).is_err());
        }
    }
}
