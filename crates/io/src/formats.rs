//! MatrixMarket coordinate I/O, reached from DML as `read(..., format="mm")`
//! (paper §3.2: "the number of external data formats is virtually
//! unlimited").
//!
//! The parser goes straight into CSR without a dense detour. A file holds
//! a `%%MatrixMarket` banner, optional `%` comments, a `rows cols nnz`
//! size line, then 1-based `row col value` triples (`pattern` entries
//! default to 1.0).

use std::fs;
use std::io::Write as _;
use std::path::Path;
use sysds_common::{Result, SysDsError};
use sysds_tensor::{Matrix, SparseMatrix};

/// Read a MatrixMarket coordinate file into a matrix.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<Matrix> {
    let path = path.as_ref();
    let text =
        fs::read_to_string(path).map_err(|e| SysDsError::io(path.display().to_string(), e))?;
    parse_matrix_market(&text)
}

/// Parse MatrixMarket coordinate text (see [`read_matrix_market`]).
pub fn parse_matrix_market(text: &str) -> Result<Matrix> {
    let mut lines = text.lines();
    let banner = lines
        .next()
        .ok_or_else(|| SysDsError::Format("matrixmarket: empty file".into()))?;
    if !banner.starts_with("%%MatrixMarket") {
        return Err(SysDsError::Format(
            "matrixmarket: missing %%MatrixMarket banner".into(),
        ));
    }
    let lower = banner.to_lowercase();
    if !lower.contains("matrix") || !lower.contains("coordinate") {
        return Err(SysDsError::Format(
            "matrixmarket: only 'matrix coordinate' files are supported".into(),
        ));
    }
    let pattern = lower.contains("pattern");
    let symmetric = lower.contains("symmetric");
    let mut data_lines = lines.filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('%'));
    let size = data_lines
        .next()
        .ok_or_else(|| SysDsError::Format("matrixmarket: missing size line".into()))?;
    let dims: Vec<usize> = size
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| SysDsError::Format(format!("matrixmarket: bad size '{t}'")))
        })
        .collect::<Result<_>>()?;
    let [rows, cols, nnz] = dims.as_slice() else {
        return Err(SysDsError::Format(
            "matrixmarket: size line needs rows cols nnz".into(),
        ));
    };
    let mut triples = Vec::with_capacity(nnz * if symmetric { 2 } else { 1 });
    let mut count = 0usize;
    for line in data_lines {
        let mut t = line.split_whitespace();
        let (Some(r), Some(c)) = (t.next(), t.next()) else {
            return Err(SysDsError::Format(format!(
                "matrixmarket: malformed entry '{line}'"
            )));
        };
        let r: usize = r
            .parse()
            .map_err(|_| SysDsError::Format(format!("matrixmarket: bad row '{r}'")))?;
        let c: usize = c
            .parse()
            .map_err(|_| SysDsError::Format(format!("matrixmarket: bad col '{c}'")))?;
        if r == 0 || c == 0 || r > *rows || c > *cols {
            return Err(SysDsError::Format(format!(
                "matrixmarket: entry ({r},{c}) out of range"
            )));
        }
        let v: f64 = if pattern {
            1.0
        } else {
            let raw = t.next().ok_or_else(|| {
                SysDsError::Format(format!("matrixmarket: missing value in '{line}'"))
            })?;
            raw.parse()
                .map_err(|_| SysDsError::Format(format!("matrixmarket: bad value '{raw}'")))?
        };
        triples.push((r - 1, c - 1, v));
        if symmetric && r != c {
            triples.push((c - 1, r - 1, v));
        }
        count += 1;
    }
    if count != *nnz {
        return Err(SysDsError::Format(format!(
            "matrixmarket: size line declares {nnz} entries, found {count}"
        )));
    }
    Ok(Matrix::Sparse(SparseMatrix::from_triples(*rows, *cols, triples)).compact())
}

/// Write a matrix as MatrixMarket coordinate (general, real).
pub fn write_matrix_market(path: impl AsRef<Path>, m: &Matrix) -> Result<()> {
    let path = path.as_ref();
    let file = fs::File::create(path).map_err(|e| SysDsError::io(path.display().to_string(), e))?;
    let mut w = std::io::BufWriter::new(file);
    let io_err = |e| SysDsError::io(path.display().to_string(), e);
    writeln!(w, "%%MatrixMarket matrix coordinate real general").map_err(io_err)?;
    writeln!(w, "{} {} {}", m.rows(), m.cols(), m.nnz()).map_err(io_err)?;
    for (i, j, v) in m.iter_nonzeros() {
        writeln!(w, "{} {} {}", i + 1, j + 1, v).map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = sysds_common::testing::unique_temp_dir("sysds-formats-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn matrix_market_round_trip() {
        let m = gen::rand_uniform(20, 15, -2.0, 2.0, 0.15, 1103).compact();
        let p = tmp("rt.mtx");
        write_matrix_market(&p, &m).unwrap();
        let back = read_matrix_market(&p).unwrap();
        assert!(back.approx_eq(&m, 1e-12));
    }

    #[test]
    fn matrix_market_parses_symmetric_and_pattern() {
        let sym =
            "%%MatrixMarket matrix coordinate real symmetric\n% comment\n3 3 2\n1 1 5.0\n3 1 2.0\n";
        let m = parse_matrix_market(sym).unwrap();
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(0, 2), 2.0, "mirrored");

        let pat = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = parse_matrix_market(pat).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn matrix_market_rejects_malformed() {
        assert!(parse_matrix_market("").is_err());
        assert!(parse_matrix_market("not a banner\n1 1 0\n").is_err());
        assert!(
            parse_matrix_market("%%MatrixMarket matrix array real general\n1 1\n1.0\n").is_err()
        );
        assert!(parse_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n"
        )
        .is_err());
        assert!(
            parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
                .is_err(),
            "nnz mismatch"
        );
    }
}
