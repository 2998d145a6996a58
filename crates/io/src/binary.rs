//! Binary matrix format.
//!
//! A file is a short header followed by the matrix as one block, in the
//! encoding buffer-pool spill files use (the wire protocol reuses it too).
//! Sparse matrices stay sparse on disk and when read back. A block streams:
//! [`encode_block`] writes it to any `Write` through one chunk of at most
//! [`CHUNK`] bytes, and [`decode_block`] reads it from a [`Bounded`]
//! reader, so no file, spill or frame holds a second copy of its block.
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
//! sparse entries must fit in the bytes left under the reader's limit (a
//! file's length, a frame's payload length), the allocations a header
//! declares without bytes to back them (sparse row pointers) are capped at
//! [`MAX_DECLARED_BYTES`], decoded cells are kept as they arrive instead of
//! being allocated up front, and a file must end with its block. Malformed
//! input returns [`SysDsError::Format`] instead of panicking or aborting.
//!
//! Byte order is decided here alone: the wire protocol writes its header
//! and fields with the `put_*` helpers and reads them with [`Bounded`], and
//! the CSV number scanner loads its 8-digit words with `le_u64`.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use sysds_common::{Result, SysDsError};
use sysds_tensor::{DenseMatrix, Matrix, SparseMatrix};

const MAGIC: &[u8; 4] = b"SDSB";
const VERSION: u32 = 2;

/// Cap on an allocation a header declares without the input holding its
/// bytes; equal to the wire protocol's payload limit (16 GiB).
pub const MAX_DECLARED_BYTES: usize = 1 << 34;

/// The most bytes a block is encoded or decoded through at a time; also
/// the capacity of the buffered readers and writers blocks stream through.
pub const CHUNK: usize = 1 << 16;

/// A reader bounded by a byte limit. A read that asks for more bytes than
/// are left under the limit fails with [`SysDsError::Format`]; a failure of
/// the inner reader (an early end, a timeout) is [`SysDsError::Io`].
#[derive(Debug)]
pub struct Bounded<R> {
    inner: R,
    left: u64,
}

impl<R: Read> Bounded<R> {
    pub fn new(inner: R, limit: u64) -> Self {
        Bounded { inner, left: limit }
    }

    /// Bytes left under the limit.
    pub fn remaining(&self) -> u64 {
        self.left
    }

    /// Fill `buf` with the next bytes.
    fn fill(&mut self, buf: &mut [u8]) -> Result<()> {
        if buf.len() as u64 > self.left {
            return Err(SysDsError::format("input truncated"));
        }
        self.inner
            .read_exact(buf)
            .map_err(|e| SysDsError::io("input", e))?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut bytes = [0; N];
        self.fill(&mut bytes)?;
        Ok(bytes)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` size or index that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| SysDsError::format("size exceeds usize"))
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.items(len, 1, |b| Ok(b[0]))?;
        String::from_utf8(bytes).map_err(|_| SysDsError::format("non-utf8 string"))
    }

    /// `n` items of `size` bytes each, read in steps of at most [`CHUNK`]
    /// bytes. The vector grows only as the bytes arrive and ends with
    /// capacity `n`, so a count no bytes back allocates little.
    fn items<T>(
        &mut self,
        n: usize,
        size: usize,
        mut item: impl FnMut(&[u8]) -> Result<T>,
    ) -> Result<Vec<T>> {
        if !fits(n, size, self.left) {
            return Err(SysDsError::format("input truncated"));
        }
        let mut out = Vec::new();
        let mut chunk = vec![0; (n * size).min(CHUNK / size * size)];
        while out.len() < n {
            let k = (n - out.len()).min(chunk.len() / size);
            if out.len() == out.capacity() {
                out.reserve_exact(out.len().max(k).min(n - out.len()));
            }
            let bytes = &mut chunk[..k * size];
            self.fill(bytes)?;
            for b in bytes.chunks_exact(size) {
                out.push(item(b)?);
            }
        }
        Ok(out)
    }

    /// Read and drop every byte left under the limit, so a stream stays in
    /// step after a payload that did not decode.
    pub fn skip_rest(&mut self) -> io::Result<()> {
        self.left -= io::copy(&mut (&mut self.inner).take(self.left), &mut io::sink())?;
        match self.left {
            0 => Ok(()),
            _ => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }
}

pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The first 8 bytes of `bytes` as a little-endian `u64`, or `None` when
/// fewer are left. The CSV number scanner reads its digits 8 at a time
/// through this.
#[inline]
pub(crate) fn le_u64(bytes: &[u8]) -> Option<u64> {
    bytes.first_chunk().map(|b| u64::from_le_bytes(*b))
}

/// Append a string as a `u32` length followed by its UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Whether `count` items of `size` bytes fit in `limit` bytes.
fn fits(count: usize, size: usize, limit: u64) -> bool {
    matches!(count.checked_mul(size), Some(bytes) if bytes as u64 <= limit)
}

/// Bytes of `m`'s block encoding.
pub fn block_len(m: &Matrix) -> usize {
    match m {
        Matrix::Dense(d) => 17 + 8 * d.values().len(),
        Matrix::Sparse(s) => 25 + 24 * s.nnz(),
    }
}

/// Write `buf` out when `next` more bytes would take it past a chunk.
fn drain_full(buf: &mut Vec<u8>, next: usize, w: &mut impl Write) -> io::Result<()> {
    if buf.len() + next > CHUNK {
        w.write_all(buf)?;
        buf.clear();
    }
    Ok(())
}

/// Write one matrix block (any shape) to `w` through one chunk of at most
/// [`CHUNK`] bytes.
pub fn encode_block(m: &Matrix, w: &mut impl Write) -> io::Result<()> {
    let mut buf = Vec::with_capacity(block_len(m).min(CHUNK));
    buf.push(m.is_sparse() as u8);
    put_u64(&mut buf, m.rows() as u64);
    put_u64(&mut buf, m.cols() as u64);
    match m {
        Matrix::Dense(d) => {
            for &v in d.values() {
                drain_full(&mut buf, 8, w)?;
                put_f64(&mut buf, v);
            }
        }
        Matrix::Sparse(s) => {
            put_u64(&mut buf, s.nnz() as u64);
            for (i, j, v) in s.iter_nonzeros() {
                drain_full(&mut buf, 24, w)?;
                put_u64(&mut buf, i as u64);
                put_u64(&mut buf, j as u64);
                put_f64(&mut buf, v);
            }
        }
    }
    w.write_all(&buf)
}

/// Decode one matrix block from a bounded reader.
pub fn decode_block(r: &mut Bounded<impl Read>) -> Result<Matrix> {
    let kind = r.u8()?;
    let rows = r.usize()?;
    let cols = r.usize()?;
    match kind {
        0 => {
            let cells = rows
                .checked_mul(cols)
                .filter(|&c| fits(c, 8, r.remaining()))
                .ok_or_else(|| SysDsError::format("dense block truncated"))?;
            let data = r.items(cells, 8, |b| {
                Ok(f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            })?;
            Ok(Matrix::Dense(DenseMatrix::from_vec(rows, cols, data)))
        }
        1 => {
            let nnz = r.usize()?;
            if !fits(nnz, 24, r.remaining()) {
                return Err(SysDsError::format("sparse block truncated"));
            }
            if cols > u32::MAX as usize || !fits(rows, 8, MAX_DECLARED_BYTES as u64) {
                return Err(SysDsError::format("sparse block shape too large"));
            }
            let triples = r.items(nnz, 24, |b| {
                let mut entry = Bounded::new(b, 24);
                let (i, j, v) = (entry.usize()?, entry.usize()?, entry.f64()?);
                if i >= rows || j >= cols {
                    return Err(SysDsError::format("sparse block index out of range"));
                }
                Ok((i, j, v))
            })?;
            let s = SparseMatrix::from_triples(rows, cols, triples);
            Ok(Matrix::Sparse(s))
        }
        other => Err(SysDsError::format(format!("unknown block kind {other}"))),
    }
}

/// Write `head`, then `m`'s block, to a new file through one buffered
/// writer.
pub fn write_file(path: &Path, head: &[u8], m: &Matrix) -> Result<()> {
    let at = |e| SysDsError::io(path.display().to_string(), e);
    let mut w = BufWriter::with_capacity(CHUNK, File::create(path).map_err(at)?);
    (w.write_all(head).and_then(|()| encode_block(m, &mut w)))
        .and_then(|()| w.flush())
        .map_err(at)
}

/// Read a file through one buffered reader bounded by the file's length;
/// `decode` must consume the file whole.
pub fn read_file<T>(
    path: &Path,
    decode: impl FnOnce(&mut Bounded<BufReader<File>>) -> Result<T>,
) -> Result<T> {
    let at = |e| SysDsError::io(path.display().to_string(), e);
    let file = File::open(path).map_err(at)?;
    let len = file.metadata().map_err(at)?.len();
    let mut r = Bounded::new(BufReader::with_capacity(CHUNK, file), len);
    match decode(&mut r) {
        Err(SysDsError::Io { source, .. }) => Err(at(source)),
        Ok(_) if r.remaining() > 0 => Err(SysDsError::format("trailing bytes after the matrix")),
        decoded => decoded,
    }
}

/// Write a matrix as a binary file.
pub fn write_matrix(path: impl AsRef<Path>, m: &Matrix) -> Result<()> {
    let head = [&MAGIC[..], &VERSION.to_le_bytes()].concat();
    write_file(path.as_ref(), &head, m)
}

/// Read a binary matrix file.
pub fn read_matrix(path: impl AsRef<Path>) -> Result<Matrix> {
    let m = read_file(path.as_ref(), |r| {
        if r.remaining() < 4 + 4 || r.array::<4>()? != *MAGIC {
            return Err(SysDsError::format("not a SystemDS binary matrix file"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SysDsError::format(format!(
                "unsupported binary version {version}"
            )));
        }
        decode_block(r)
    })?;
    Ok(m.compact())
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

    fn encode(m: &Matrix) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_block(m, &mut bytes).unwrap();
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<Matrix> {
        decode_block(&mut Bounded::new(bytes, bytes.len() as u64))
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A dense and a sparse matrix whose encodings are pinned below.
    fn golden_matrices() -> [Matrix; 2] {
        [
            Matrix::Dense(DenseMatrix::from_vec(
                2,
                3,
                vec![1.5, -2.0, 0.0, 3.25, 1e300, -0.0],
            )),
            Matrix::Sparse(SparseMatrix::from_triples(
                4,
                5,
                vec![(0, 1, 2.5), (2, 0, -1.0), (3, 4, 7.0)],
            )),
        ]
    }

    /// The blocks of [`golden_matrices`], as the buffered-copy encoder of
    /// format version 2 wrote them.
    const GOLDEN_BLOCKS: [&str; 2] = [
        "0002000000000000000300000000000000000000000000f83f00000000000000c0000000\
         00000000000000000000000a409c7500883ce4377e0000000000000080",
        "0104000000000000000500000000000000030000000000000000000000000000000100\
         000000000000000000000000044002000000000000000000000000000000000000000000\
         f0bf030000000000000004000000000000000000000000001c40",
    ];

    #[test]
    fn golden_spill_and_file_bytes() {
        for (m, block) in golden_matrices().iter().zip(GOLDEN_BLOCKS) {
            assert_eq!(hex(&encode(m)), block);
            assert_eq!(block_len(m) * 2, block.len());
            let p = tmp("golden.bin");
            write_matrix(&p, m).unwrap();
            assert_eq!(
                hex(&std::fs::read(&p).unwrap()),
                format!("5344534202000000{block}")
            );
            write_file(&p, &[], m).unwrap();
            assert_eq!(hex(&std::fs::read(&p).unwrap()), block);
        }
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
    fn blocks_past_a_chunk_round_trip_through_a_buffer() {
        // Dense and sparse blocks of several chunks each, and a small one.
        for m in [
            gen::rand_uniform(300, 70, -1.0, 1.0, 1.0, 113),
            gen::rand_uniform(400, 400, -1.0, 1.0, 0.05, 114).compact(),
            gen::rand_uniform(20, 20, -1.0, 1.0, 0.1, 114).compact(),
        ] {
            let bytes = encode(&m);
            assert_eq!(bytes.len(), block_len(&m));
            let back = decode(&bytes).unwrap();
            assert!(back.approx_eq(&m, 0.0) && back.is_sparse() == m.is_sparse());
        }
    }

    /// A block of `kind` whose header holds the `fields`.
    fn crafted(kind: u8, fields: &[u64]) -> Vec<u8> {
        let mut b = vec![kind];
        fields.iter().for_each(|&f| put_u64(&mut b, f));
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
            let r = decode(&b);
            assert!(matches!(r, Err(SysDsError::Format(_))), "{fields:?}: {r:?}");
        }
    }

    #[test]
    fn crafted_file_headers_are_rejected() {
        let file = |version: u32, block: &[u8]| {
            let mut b = MAGIC.to_vec();
            put_u32(&mut b, version);
            b.extend_from_slice(block);
            let p = tmp("crafted.bin");
            std::fs::write(&p, b).unwrap();
            read_matrix(&p)
        };
        let mut one_cell = crafted(0, &[1, 1]);
        put_f64(&mut one_cell, 1.0);
        assert_eq!(file(VERSION, &one_cell).unwrap().get(0, 0), 1.0);
        assert!(file(1, &one_cell).is_err()); // the old tiled format
        assert!(file(VERSION, &[]).is_err()); // no block
        assert!(file(VERSION, &crafted(0, &[1 << 61, 4])).is_err()); // rows * cols overflows
        let trailing = [one_cell.as_slice(), &[0]].concat();
        assert!(matches!(
            file(VERSION, &trailing),
            Err(SysDsError::Format(_))
        ));
        // 2^30 x 4 cells (32 GiB) and 3 cells declared, 1 held: each fails
        // on the file's length, before the cells are allocated.
        for fields in [[1 << 30, 4], [1, 3]] {
            let block = [crafted(0, &fields).as_slice(), &one_cell[17..]].concat();
            let err = file(VERSION, &block).unwrap_err().to_string();
            assert!(err.contains("dense block truncated"), "{err}");
        }
    }

    #[test]
    fn a_limit_past_the_input_fails_on_read_without_a_huge_alloc() {
        // The limit claims 16 GiB, so 2^30 cells (8 GiB) pass the size
        // check, but the input ends after the header: the read fails on the
        // early end, having allocated at most one chunk of cells.
        let b = crafted(0, &[1 << 30, 1]);
        let r = decode_block(&mut Bounded::new(&b[..], 1 << 34));
        assert!(matches!(r, Err(SysDsError::Io { .. })), "{r:?}");
    }

    #[test]
    fn bounded_reads_fail_past_the_limit() {
        let bytes = [1, 2, 3];
        let mut r = Bounded::new(&bytes[..], 3);
        assert!(r.u64().is_err() && r.u8().unwrap() == 1 && r.str().is_err());
        let mut s = Vec::new();
        put_str(&mut s, "héllo");
        assert_eq!(Bounded::new(&s[..], s.len() as u64).str().unwrap(), "héllo");
        // A limit below the input's length cuts it short; skipping reads
        // the rest of the limit and no further.
        let mut r = Bounded::new(&s[..], 6);
        assert!(matches!(r.str(), Err(SysDsError::Format(_))));
        r.skip_rest().unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(Bounded::new(&bytes[..], 4).skip_rest().is_err());
    }

    #[test]
    fn truncated_block_rejected() {
        let m = gen::rand_uniform(10, 10, 0.0, 1.0, 1.0, 115);
        let bytes = encode(&m);
        assert!(decode(&bytes[..bytes.len() / 2]).is_err());
        assert!(decode(&[]).is_err());
    }
}
