//! Binary matrix format.
//!
//! A file is a short header followed by the matrix as one block, in the
//! encoding buffer-pool spill files use (the wire protocol reuses it too).
//! Sparse matrices stay sparse on disk and when read back.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "SDSB" | version u32 (2) | block
//! block: kind u8 (0 dense, 1 sparse) | payload
//!   dense payload:  r u64 | c u64 | r*c f64 values (row-major)
//!   sparse payload: r u64 | c u64 | nnz u64 | nnz * (row u64, col u64, value f64)
//! ```
//!
//! Decoding never trusts a header: size arithmetic is checked, values and
//! sparse entries must be present in the input, the allocations a header
//! declares without bytes to back them (sparse row pointers) are capped at
//! [`MAX_DECLARED_BYTES`], and a file must end with its block. Malformed
//! input returns [`SysDsError::Format`] instead of panicking or aborting.

use std::fs;
use std::path::Path;
use sysds_common::{Result, SysDsError};
use sysds_tensor::{DenseMatrix, Matrix, SparseMatrix};

const MAGIC: &[u8; 4] = b"SDSB";
const VERSION: u32 = 2;

/// Cap on an allocation a header declares without the input holding its
/// bytes; equal to the wire protocol's payload limit (16 GiB).
pub const MAX_DECLARED_BYTES: usize = 1 << 34;

fn format_err(msg: &str) -> SysDsError {
    SysDsError::Format(msg.into())
}

/// A read cursor over a byte slice; every read fails with
/// [`SysDsError::Format`] when too few bytes are left.
#[derive(Debug, Clone)]
pub struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor(buf)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(format_err("input truncated"));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` size or index that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| format_err("size exceeds usize"))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| format_err("non-utf8 string"))
    }
}

/// Append a string as a `u32` length followed by its UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Whether `count` items of `size` bytes fit in `limit` bytes.
fn fits(count: usize, size: usize, limit: usize) -> bool {
    count.checked_mul(size).is_some_and(|bytes| bytes <= limit)
}

/// Encode one matrix block (any shape) into a byte buffer, growing it
/// once by the block's size.
pub fn encode_block(m: &Matrix, buf: &mut Vec<u8>) {
    let put = |buf: &mut Vec<u8>, v: usize| buf.extend_from_slice(&(v as u64).to_le_bytes());
    buf.reserve(match m {
        Matrix::Dense(d) => 17 + 8 * d.values().len(),
        Matrix::Sparse(s) => 25 + 24 * s.nnz(),
    });
    match m {
        Matrix::Dense(d) => {
            buf.push(0);
            put(buf, d.rows());
            put(buf, d.cols());
            for &v in d.values() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Matrix::Sparse(s) => {
            buf.push(1);
            put(buf, s.rows());
            put(buf, s.cols());
            put(buf, s.nnz());
            for (i, j, v) in s.iter_nonzeros() {
                put(buf, i);
                put(buf, j);
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Decode one matrix block from a cursor.
pub fn decode_block(buf: &mut Cursor<'_>) -> Result<Matrix> {
    let kind = buf.u8()?;
    let rows = buf.usize()?;
    let cols = buf.usize()?;
    match kind {
        0 => {
            let cells = rows
                .checked_mul(cols)
                .filter(|&c| fits(c, 8, buf.remaining()));
            let bytes = buf.take(cells.ok_or_else(|| format_err("dense block truncated"))? * 8)?;
            let data = bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect();
            Ok(Matrix::Dense(DenseMatrix::from_vec(rows, cols, data)))
        }
        1 => {
            let nnz = buf.usize()?;
            if !fits(nnz, 24, buf.remaining()) {
                return Err(format_err("sparse block truncated"));
            }
            if cols > u32::MAX as usize || !fits(rows, 8, MAX_DECLARED_BYTES) {
                return Err(format_err("sparse block shape too large"));
            }
            let mut triples = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                let (i, j, v) = (buf.usize()?, buf.usize()?, buf.f64()?);
                if i >= rows || j >= cols {
                    return Err(format_err("sparse block index out of range"));
                }
                triples.push((i, j, v));
            }
            Ok(Matrix::Sparse(SparseMatrix::from_triples(
                rows, cols, triples,
            )))
        }
        other => Err(SysDsError::Format(format!("unknown block kind {other}"))),
    }
}

/// Write a matrix as a binary file.
pub fn write_matrix(path: impl AsRef<Path>, m: &Matrix) -> Result<()> {
    let path = path.as_ref();
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&VERSION.to_le_bytes());
    encode_block(m, &mut buf);
    fs::write(path, &buf).map_err(|e| SysDsError::io(path.display().to_string(), e))
}

/// Read a binary matrix file.
pub fn read_matrix(path: impl AsRef<Path>) -> Result<Matrix> {
    let path = path.as_ref();
    let data = fs::read(path).map_err(|e| SysDsError::io(path.display().to_string(), e))?;
    let mut buf = Cursor::new(&data);
    if buf.remaining() < 4 + 4 || buf.take(4)? != MAGIC {
        return Err(format_err("not a SystemDS binary matrix file"));
    }
    let version = buf.u32()?;
    if version != VERSION {
        return Err(SysDsError::Format(format!(
            "unsupported binary version {version}"
        )));
    }
    let m = decode_block(&mut buf)?;
    if buf.remaining() > 0 {
        return Err(format_err("trailing bytes after the matrix"));
    }
    Ok(m.compact())
}

/// Encode a whole matrix into one buffer (used by buffer-pool spilling).
pub fn encode_matrix(m: &Matrix) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_block(m, &mut buf);
    buf
}

/// Decode a whole matrix from one buffer.
pub fn decode_matrix(bytes: &[u8]) -> Result<Matrix> {
    decode_block(&mut Cursor::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = sysds_common::testing::unique_temp_dir("sysds-io-binary-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn dense_round_trip() {
        let m = gen::rand_uniform(100, 37, -10.0, 10.0, 1.0, 111);
        let p = tmp("dense.bin");
        write_matrix(&p, &m).unwrap();
        let back = read_matrix(&p).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn sparse_round_trip() {
        let m = gen::rand_uniform(80, 80, -1.0, 1.0, 0.05, 112).compact();
        assert!(m.is_sparse());
        let p = tmp("sparse.bin");
        write_matrix(&p, &m).unwrap();
        let back = read_matrix(&p).unwrap();
        assert!(back.approx_eq(&m, 0.0));
        assert!(back.is_sparse());
    }

    #[test]
    fn huge_sparse_matrix_stays_sparse() {
        // Its dense size (8 TiB) is far above MAX_DECLARED_BYTES.
        let n = 1 << 20;
        let triples = (0..1000).map(|k| (k * 1031, (k * 7919) % n, k as f64 + 0.5));
        let m = Matrix::Sparse(SparseMatrix::from_triples(n, n, triples.collect()));
        let p = tmp("huge-sparse.bin");
        write_matrix(&p, &m).unwrap();
        assert!(std::fs::metadata(&p).unwrap().len() < 64 * 1024);
        let back = read_matrix(&p).unwrap();
        assert!(back.is_sparse());
        assert_eq!(back.shape(), (n, n));
        assert!(back.iter_nonzeros().eq(m.iter_nonzeros()));
    }

    #[test]
    fn empty_matrix_round_trip() {
        let m = Matrix::zeros(0, 0);
        let p = tmp("empty.bin");
        write_matrix(&p, &m).unwrap();
        let back = read_matrix(&p).unwrap();
        assert_eq!(back.shape(), (0, 0));
    }

    #[test]
    fn corrupted_file_rejected() {
        let p = tmp("corrupt.bin");
        std::fs::write(&p, b"garbage data here").unwrap();
        assert!(read_matrix(&p).is_err());
        std::fs::write(&p, b"SD").unwrap();
        assert!(read_matrix(&p).is_err());
    }

    #[test]
    fn single_buffer_encode_decode() {
        let m = gen::rand_uniform(20, 20, -1.0, 1.0, 0.1, 114).compact();
        let bytes = encode_matrix(&m);
        let back = decode_matrix(&bytes).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    /// A block of `kind` whose header holds the little-endian `fields`.
    fn crafted(kind: u8, fields: &[u64]) -> Vec<u8> {
        let mut b = vec![kind];
        fields
            .iter()
            .for_each(|f| b.extend_from_slice(&f.to_le_bytes()));
        b
    }

    #[test]
    fn crafted_block_headers_are_rejected() {
        for (kind, fields, len) in [
            (0, &[1 << 61, 1][..], 17), // rows * cols * 8 wraps to 0
            (1, &[4, 4, 1 << 61], 25),  // nnz * 24 wraps
            (1, &[1 << 40, 1, 0], 25),  // 8 TiB of row pointers
            (1, &[1, 1 << 40, 0], 25),  // more than u32::MAX columns
        ] {
            let b = crafted(kind, fields);
            assert_eq!(b.len(), len);
            let r = decode_matrix(&b);
            assert!(matches!(r, Err(SysDsError::Format(_))), "{fields:?}: {r:?}");
        }
    }

    #[test]
    fn crafted_file_headers_are_rejected() {
        let file = |version: u32, block: &[u8]| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&version.to_le_bytes());
            b.extend_from_slice(block);
            let p = tmp("crafted.bin");
            std::fs::write(&p, b).unwrap();
            read_matrix(&p)
        };
        let one_cell = [crafted(0, &[1, 1]), 1.0f64.to_le_bytes().to_vec()].concat();
        assert_eq!(file(VERSION, &one_cell).unwrap().get(0, 0), 1.0);
        assert!(file(1, &one_cell).is_err()); // the old tiled format
        assert!(file(VERSION, &[]).is_err()); // no block
        assert!(file(VERSION, &crafted(0, &[1 << 61, 4])).is_err()); // rows * cols overflows
        assert!(file(VERSION, &crafted(0, &[1 << 40, 4])).is_err()); // 32 TiB, no values
        let trailing = [one_cell.as_slice(), &[0]].concat();
        assert!(matches!(
            file(VERSION, &trailing),
            Err(SysDsError::Format(_))
        ));
    }

    #[test]
    fn cursor_reads_fail_past_the_end() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert!(c.u64().is_err() && c.u8().unwrap() == 1 && c.str().is_err());
        let mut s = Vec::new();
        put_str(&mut s, "héllo");
        assert_eq!(Cursor::new(&s).str().unwrap(), "héllo");
    }

    #[test]
    fn truncated_block_rejected() {
        let m = gen::rand_uniform(10, 10, 0.0, 1.0, 1.0, 115);
        let bytes = encode_matrix(&m);
        assert!(decode_matrix(&bytes[..bytes.len() / 2]).is_err());
        assert!(decode_matrix(&[]).is_err());
    }
}
