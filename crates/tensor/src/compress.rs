//! Compressed linear algebra (paper §3.4 research direction; modeled on
//! "Compressed Linear Algebra for Large-Scale Machine Learning", VLDB'16,
//! the paper's reference \[20\]).
//!
//! Columns are compressed independently with lightweight, *operable*
//! encodings — linear algebra executes directly on the compressed form:
//!
//! * **DDC** (dense dictionary coding): a dictionary of distinct values
//!   plus one u8/u16 code per row. Low-cardinality columns (categorical,
//!   binned, dummy-coded — exactly what `transformencode` produces)
//!   compress by 4–8×.
//! * **RLE** (run-length encoding): `(value, run)` pairs for sorted or
//!   piecewise-constant columns.
//! * **UC** (uncompressed fallback) for high-cardinality columns.
//!
//! Supported compressed ops: `X %*% v`, `t(X) %*% v`, column sums, scalar
//! multiply (dictionary-only update!), and decompression.

use crate::matrix::{DenseMatrix, Matrix};
use sysds_common::{Result, SysDsError};

/// One compressed column.
#[derive(Debug, Clone)]
pub enum ColumnGroup {
    /// Dictionary + 8-bit codes (≤ 256 distinct values).
    Ddc8 { dict: Vec<f64>, codes: Vec<u8> },
    /// Dictionary + 16-bit codes (≤ 65536 distinct values).
    Ddc16 { dict: Vec<f64>, codes: Vec<u16> },
    /// Run-length encoded `(value, run_length)` pairs.
    Rle { runs: Vec<(f64, u32)> },
    /// Uncompressed fallback.
    Uc { values: Vec<f64> },
}

impl ColumnGroup {
    /// Compress one column, choosing the cheapest encoding.
    pub fn compress(values: &[f64]) -> ColumnGroup {
        let n = values.len();
        // Count runs and distincts in one pass over a sorted copy.
        let mut runs = 1usize;
        for w in values.windows(2) {
            if w[0].to_bits() != w[1].to_bits() {
                runs += 1;
            }
        }
        let mut sorted: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let distinct = sorted.len();

        // Candidate sizes in bytes.
        let uc = n * 8;
        let rle = runs * 12;
        let ddc8 = if distinct <= 256 {
            distinct * 8 + n
        } else {
            usize::MAX
        };
        let ddc16 = if distinct <= 65_536 {
            distinct * 8 + n * 2
        } else {
            usize::MAX
        };

        let best = uc.min(rle).min(ddc8).min(ddc16);
        if best == rle && rle < uc {
            let mut out: Vec<(f64, u32)> = Vec::with_capacity(runs);
            for &v in values {
                match out.last_mut() {
                    Some((last, run)) if last.to_bits() == v.to_bits() && *run < u32::MAX => {
                        *run += 1
                    }
                    _ => out.push((v, 1)),
                }
            }
            return ColumnGroup::Rle { runs: out };
        }
        if best == ddc8 {
            let dict: Vec<f64> = sorted.iter().map(|&b| f64::from_bits(b)).collect();
            let codes = values
                .iter()
                .map(|v| sorted.binary_search(&v.to_bits()).expect("value in dict") as u8)
                .collect();
            return ColumnGroup::Ddc8 { dict, codes };
        }
        if best == ddc16 {
            let dict: Vec<f64> = sorted.iter().map(|&b| f64::from_bits(b)).collect();
            let codes = values
                .iter()
                .map(|v| sorted.binary_search(&v.to_bits()).expect("value in dict") as u16)
                .collect();
            return ColumnGroup::Ddc16 { dict, codes };
        }
        ColumnGroup::Uc {
            values: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnGroup::Ddc8 { codes, .. } => codes.len(),
            ColumnGroup::Ddc16 { codes, .. } => codes.len(),
            ColumnGroup::Rle { runs } => runs.iter().map(|&(_, r)| r as usize).sum(),
            ColumnGroup::Uc { values } => values.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compressed size estimate in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => 24 + dict.len() * 8 + codes.len(),
            ColumnGroup::Ddc16 { dict, codes } => 24 + dict.len() * 8 + codes.len() * 2,
            ColumnGroup::Rle { runs } => 24 + runs.len() * 12,
            ColumnGroup::Uc { values } => 24 + values.len() * 8,
        }
    }

    /// Decompress into a vector.
    pub fn decompress(&self) -> Vec<f64> {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => codes.iter().map(|&c| dict[c as usize]).collect(),
            ColumnGroup::Ddc16 { dict, codes } => codes.iter().map(|&c| dict[c as usize]).collect(),
            ColumnGroup::Rle { runs } => {
                let mut out = Vec::with_capacity(self.len());
                for &(v, r) in runs {
                    out.extend(std::iter::repeat_n(v, r as usize));
                }
                out
            }
            ColumnGroup::Uc { values } => values.clone(),
        }
    }

    /// Dot product with a dense vector of the same length:
    /// `sum_i col[i] * v[i]`. For DDC this groups by code — one multiply
    /// per *distinct* value (the CLA trick).
    pub fn dot(&self, v: &[f64]) -> f64 {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                let mut acc = vec![0.0f64; dict.len()];
                for (i, &c) in codes.iter().enumerate() {
                    acc[c as usize] += v[i];
                }
                acc.iter().zip(dict).map(|(a, d)| a * d).sum()
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                let mut acc = vec![0.0f64; dict.len()];
                for (i, &c) in codes.iter().enumerate() {
                    acc[c as usize] += v[i];
                }
                acc.iter().zip(dict).map(|(a, d)| a * d).sum()
            }
            ColumnGroup::Rle { runs } => {
                let mut acc = 0.0;
                let mut i = 0usize;
                for &(val, r) in runs {
                    if val != 0.0 {
                        let mut s = 0.0;
                        for &x in &v[i..i + r as usize] {
                            s += x;
                        }
                        acc += val * s;
                    }
                    i += r as usize;
                }
                acc
            }
            ColumnGroup::Uc { values } => values.iter().zip(v).map(|(a, b)| a * b).sum(),
        }
    }

    /// Scatter `col * scalar` into an output accumulator (`X %*% v` uses
    /// this per column with `scalar = v[j]`).
    pub fn axpy(&self, scalar: f64, out: &mut [f64]) {
        if scalar == 0.0 {
            return;
        }
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                // Pre-scale the dictionary once, then scatter codes.
                let scaled: Vec<f64> = dict.iter().map(|d| d * scalar).collect();
                for (i, &c) in codes.iter().enumerate() {
                    out[i] += scaled[c as usize];
                }
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                let scaled: Vec<f64> = dict.iter().map(|d| d * scalar).collect();
                for (i, &c) in codes.iter().enumerate() {
                    out[i] += scaled[c as usize];
                }
            }
            ColumnGroup::Rle { runs } => {
                let mut i = 0usize;
                for &(val, r) in runs {
                    let add = val * scalar;
                    if add != 0.0 {
                        for o in &mut out[i..i + r as usize] {
                            *o += add;
                        }
                    }
                    i += r as usize;
                }
            }
            ColumnGroup::Uc { values } => {
                for (o, &x) in out.iter_mut().zip(values) {
                    *o += x * scalar;
                }
            }
        }
    }

    /// Column sum in compressed space.
    pub fn sum(&self) -> f64 {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => {
                let mut counts = vec![0usize; dict.len()];
                for &c in codes {
                    counts[c as usize] += 1;
                }
                counts.iter().zip(dict).map(|(&n, d)| n as f64 * d).sum()
            }
            ColumnGroup::Ddc16 { dict, codes } => {
                let mut counts = vec![0usize; dict.len()];
                for &c in codes {
                    counts[c as usize] += 1;
                }
                counts.iter().zip(dict).map(|(&n, d)| n as f64 * d).sum()
            }
            ColumnGroup::Rle { runs } => runs.iter().map(|&(v, r)| v * r as f64).sum(),
            ColumnGroup::Uc { values } => values.iter().sum(),
        }
    }

    /// Multiply by a scalar — a dictionary-only update for DDC/RLE.
    pub fn scale(&self, s: f64) -> ColumnGroup {
        match self {
            ColumnGroup::Ddc8 { dict, codes } => ColumnGroup::Ddc8 {
                dict: dict.iter().map(|d| d * s).collect(),
                codes: codes.clone(),
            },
            ColumnGroup::Ddc16 { dict, codes } => ColumnGroup::Ddc16 {
                dict: dict.iter().map(|d| d * s).collect(),
                codes: codes.clone(),
            },
            ColumnGroup::Rle { runs } => ColumnGroup::Rle {
                runs: runs.iter().map(|&(v, r)| (v * s, r)).collect(),
            },
            ColumnGroup::Uc { values } => ColumnGroup::Uc {
                values: values.iter().map(|v| v * s).collect(),
            },
        }
    }
}

/// A column-compressed matrix.
#[derive(Debug, Clone)]
pub struct CompressedMatrix {
    rows: usize,
    groups: Vec<ColumnGroup>,
}

impl CompressedMatrix {
    /// Compress a matrix column-by-column.
    #[allow(clippy::needless_range_loop)] // writes a reused scratch column
    pub fn compress(m: &Matrix) -> CompressedMatrix {
        let (rows, cols) = m.shape();
        let d = m.to_dense();
        let mut groups = Vec::with_capacity(cols);
        let mut col = vec![0.0f64; rows];
        for j in 0..cols {
            for i in 0..rows {
                col[i] = d.get(i, j);
            }
            groups.push(ColumnGroup::compress(&col));
        }
        CompressedMatrix { rows, groups }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.groups.len()
    }

    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        32 + self
            .groups
            .iter()
            .map(ColumnGroup::size_bytes)
            .sum::<usize>()
    }

    /// Compression ratio vs dense (`>1` means smaller).
    pub fn compression_ratio(&self) -> f64 {
        let dense = (self.rows * self.cols() * 8).max(1);
        dense as f64 / self.size_bytes() as f64
    }

    /// Encodings used, for diagnostics: `(ddc8, ddc16, rle, uc)` counts.
    pub fn encoding_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for g in &self.groups {
            match g {
                ColumnGroup::Ddc8 { .. } => c.0 += 1,
                ColumnGroup::Ddc16 { .. } => c.1 += 1,
                ColumnGroup::Rle { .. } => c.2 += 1,
                ColumnGroup::Uc { .. } => c.3 += 1,
            }
        }
        c
    }

    /// Decompress back into a dense matrix.
    pub fn decompress(&self) -> Matrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols());
        for (j, g) in self.groups.iter().enumerate() {
            for (i, v) in g.decompress().into_iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Matrix::Dense(out).compact()
    }

    /// `X %*% v` directly on the compressed representation.
    pub fn mat_vec(&self, v: &Matrix) -> Result<Matrix> {
        if v.rows() != self.cols() || v.cols() != 1 {
            return Err(SysDsError::DimensionMismatch {
                op: "compressed %*%",
                lhs: (self.rows, self.cols()),
                rhs: v.shape(),
            });
        }
        let mut out = vec![0.0f64; self.rows];
        for (j, g) in self.groups.iter().enumerate() {
            g.axpy(v.get(j, 0), &mut out);
        }
        Matrix::from_vec(self.rows, 1, out)
    }

    /// `t(X) %*% v` directly on the compressed representation.
    pub fn tmv(&self, v: &Matrix) -> Result<Matrix> {
        if v.rows() != self.rows || v.cols() != 1 {
            return Err(SysDsError::DimensionMismatch {
                op: "compressed t(X)%*%v",
                lhs: (self.rows, self.cols()),
                rhs: v.shape(),
            });
        }
        let dense_v = v.to_vec();
        let out: Vec<f64> = self.groups.iter().map(|g| g.dot(&dense_v)).collect();
        Matrix::from_vec(self.cols(), 1, out)
    }

    /// Column sums without decompression.
    pub fn col_sums(&self) -> Matrix {
        let sums: Vec<f64> = self.groups.iter().map(ColumnGroup::sum).collect();
        Matrix::from_vec(1, self.cols(), sums).expect("shape by construction")
    }

    /// Scalar multiplication — touches only dictionaries/runs.
    pub fn scale(&self, s: f64) -> CompressedMatrix {
        CompressedMatrix {
            rows: self.rows,
            groups: self.groups.iter().map(|g| g.scale(s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gen, matmult, reorg};

    /// Low-cardinality matrix: the transformencode output shape.
    fn categorical(rows: usize, cols: usize, levels: usize, seed: u64) -> Matrix {
        let raw = gen::rand_uniform(rows, cols, 0.0, levels as f64, 1.0, seed);
        let d = raw.to_dense();
        let data = d.values().iter().map(|v| v.floor()).collect();
        Matrix::Dense(DenseMatrix::from_vec(rows, cols, data))
    }

    #[test]
    fn compress_decompress_round_trip() {
        for m in [
            categorical(100, 5, 7, 901),
            gen::rand_uniform(50, 4, -1.0, 1.0, 1.0, 902), // high cardinality → UC
            gen::rand_uniform(60, 6, -1.0, 1.0, 0.1, 903).compact(),
        ] {
            let c = CompressedMatrix::compress(&m);
            assert!(c.decompress().approx_eq(&m, 0.0));
        }
    }

    #[test]
    fn low_cardinality_columns_use_ddc() {
        let m = categorical(1000, 8, 5, 904);
        let c = CompressedMatrix::compress(&m);
        let (ddc8, _, _, uc) = c.encoding_counts();
        assert_eq!(ddc8, 8, "all columns have ≤5 distinct values");
        assert_eq!(uc, 0);
        assert!(
            c.compression_ratio() > 4.0,
            "ratio {}",
            c.compression_ratio()
        );
    }

    #[test]
    fn sorted_column_uses_rle() {
        // A column of long runs compresses best with RLE.
        let mut data = Vec::new();
        for block in 0..10 {
            data.extend(std::iter::repeat_n(block as f64, 100));
        }
        let m = Matrix::from_vec(1000, 1, data).unwrap();
        let c = CompressedMatrix::compress(&m);
        let (_, _, rle, _) = c.encoding_counts();
        assert_eq!(rle, 1);
        assert!(
            c.compression_ratio() > 40.0,
            "ratio {}",
            c.compression_ratio()
        );
        assert!(c.decompress().approx_eq(&m, 0.0));
    }

    #[test]
    fn random_columns_stay_uncompressed() {
        let m = gen::rand_uniform(500, 3, -1.0, 1.0, 1.0, 905);
        let c = CompressedMatrix::compress(&m);
        let (_, _, _, uc) = c.encoding_counts();
        assert_eq!(uc, 3);
        // ratio near 1 (slight overhead)
        assert!(c.compression_ratio() > 0.9 && c.compression_ratio() <= 1.0);
    }

    #[test]
    fn compressed_matvec_matches_dense() {
        let m = categorical(200, 6, 9, 906);
        let v = gen::rand_uniform(6, 1, -1.0, 1.0, 1.0, 907);
        let c = CompressedMatrix::compress(&m);
        let got = c.mat_vec(&v).unwrap();
        let expect = matmult::matmul(&m, &v, 1).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
        assert!(c.mat_vec(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn compressed_tmv_matches_dense() {
        let m = categorical(150, 5, 4, 908);
        let v = gen::rand_uniform(150, 1, -1.0, 1.0, 1.0, 909);
        let c = CompressedMatrix::compress(&m);
        let got = c.tmv(&v).unwrap();
        let expect = matmult::matmul(&reorg::transpose(&m, 1), &v, 1).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
        assert!(c.tmv(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn col_sums_without_decompression() {
        let m = categorical(300, 4, 6, 910);
        let c = CompressedMatrix::compress(&m);
        let got = c.col_sums();
        let expect = crate::kernels::aggregate::aggregate_axis(
            crate::kernels::AggFn::Sum,
            crate::kernels::Direction::Col,
            &m,
        )
        .unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn scale_is_dictionary_only_and_exact() {
        let m = categorical(100, 3, 5, 911);
        let c = CompressedMatrix::compress(&m);
        let scaled = c.scale(2.5);
        let expect = crate::kernels::elementwise::binary_ms(crate::kernels::BinaryOp::Mul, &m, 2.5);
        assert!(scaled.decompress().approx_eq(&expect, 1e-12));
        // same compressed size: only dictionary values changed
        assert_eq!(scaled.size_bytes(), c.size_bytes());
    }

    #[test]
    fn rle_dot_skips_zero_runs() {
        let mut data = vec![0.0; 500];
        data.extend(vec![2.0; 500]);
        let m = Matrix::from_vec(1000, 1, data).unwrap();
        let c = CompressedMatrix::compress(&m);
        let v = Matrix::filled(1000, 1, 1.0);
        assert_eq!(c.tmv(&v).unwrap().get(0, 0), 1000.0);
    }
}
