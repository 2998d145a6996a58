//! CSV readers and writers for matrices and frames.
//!
//! Matrix reads are multi-threaded because string-to-double parsing
//! dominates cold-start I/O (paper §4.2). [`read_matrix`] splits the file
//! into `threads` byte ranges; a thread owns the lines that *start* in its
//! range and reads them through a file handle of its own, in blocks of
//! about 1 MiB. Two passes run over the ranges in parallel:
//!
//! 1. Each thread checks UTF-8 on every run of complete lines it owns and
//!    counts the non-blank ones. The running sum of the counts gives each
//!    range its first row, so the output is allocated once, at its final
//!    size.
//! 2. Each thread reads its range again and parses straight into its own
//!    rows, counting non-zeros as it goes, so the dense/sparse choice of
//!    [`Matrix::compact`] needs no rescan of the output
//!    ([`Matrix::from_dense_with_nnz`]).
//!
//! Pass 2 reads each field with the byte-level scanner of
//! [`crate::number`]: blanks, a number parsed straight from the line's
//! bytes (SWAR digits, Clinger's fast path, Eisel-Lemire), blanks, then the
//! delimiter. A field the scanner cannot decide (a quote, a non-ASCII byte,
//! more than 19 significant digits, `inf`/`nan`, an empty field or an NA
//! token) goes to the field parser (`trim`, quote stripping, NA tokens,
//! `str::parse`), as does every field of a read whose delimiter is not
//! ASCII, whose delimiter or quote a number can contain, or whose NA tokens
//! hold a digit. Values, error texts and the rows and columns they name are
//! those of the field parser alone. On an 8000x250 file of uniform [0,1)
//! values (38.5 MB, 2 vCPUs) a 2-thread read takes about 36 ms, of which
//! the counting pass is about 8 ms (21%); it stays, since dropping it would
//! mean growing and copying each range's rows.
//!
//! Peak memory is the output plus one block per thread (a line longer
//! than a block grows that thread's buffer to the line); the file is never
//! held whole. A file whose lines or length change between the two passes
//! is an error. [`parse_matrix`] runs the same range parser over bytes in
//! memory; a path that is not a regular file (a pipe, a procfs file) is
//! read whole once and parsed that way.
//!
//! Lines split as in [`str::lines`], whitespace-only lines are skipped,
//! and the header, when present, is the first non-blank line. Errors name
//! the data row (1-based, counting neither header nor blank lines) and
//! column, and the first bad row in file order is the one reported.

use crate::descriptor::FormatDescriptor;
use crate::number::{self, Scanner};
use std::fmt::Write as _;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use sysds_common::{par, Result, SysDsError};
use sysds_frame::{Frame, FrameColumn};
use sysds_tensor::{DenseMatrix, Matrix};

/// Bytes per read of a byte range.
const BLOCK_BYTES: usize = 1 << 20;

/// Smallest byte range given a thread of its own; smaller files use fewer
/// threads than asked for.
const MIN_RANGE_BYTES: usize = 1 << 16;

/// How a read is cut into byte ranges and blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunking {
    pub block: usize,
    pub min_range: usize,
}

const CHUNKING: Chunking = Chunking {
    block: BLOCK_BYTES,
    min_range: MIN_RANGE_BYTES,
};

/// Read a numeric CSV file into a [`Matrix`] using `threads` parser threads.
///
/// A path that is not a regular file (a pipe, `/dev/stdin`, a procfs file)
/// reports no length and may not be read twice, so it is read whole once
/// and parsed as by [`parse_matrix`].
pub fn read_matrix(
    path: impl AsRef<Path>,
    desc: &FormatDescriptor,
    threads: usize,
) -> Result<Matrix> {
    let path = path.as_ref();
    let io_err = |e| SysDsError::io(path.display().to_string(), e);
    if !fs::metadata(path).map_err(io_err)?.is_file() {
        return parse_matrix(&fs::read(path).map_err(io_err)?, desc, threads);
    }
    read_chunked(Source::File(path), desc, threads, CHUNKING, || {})
}

/// Parse CSV bytes into a matrix, with the range parser of [`read_matrix`].
pub fn parse_matrix(bytes: &[u8], desc: &FormatDescriptor, threads: usize) -> Result<Matrix> {
    read_chunked(Source::Bytes(bytes), desc, threads, CHUNKING, || {})
}

/// [`read_matrix`] (or [`parse_matrix`], for `Source::Bytes`) with explicit
/// chunk sizes, calling `between_passes` after the counting pass.
pub(crate) fn read_chunked(
    src: Source<'_>,
    desc: &FormatDescriptor,
    threads: usize,
    chunking: Chunking,
    between_passes: impl FnOnce(),
) -> Result<Matrix> {
    let len = src.len()?;
    let ranges = if len == 0 {
        Vec::new()
    } else {
        let n = threads.clamp(1, len.div_ceil(chunking.min_range.max(1)));
        DenseMatrix::row_partitions(len, n)
    };
    let block = chunking.block.max(1);

    // Pass 1: count the non-blank lines of every range, keeping the field
    // counts of the first two (the header's and the first data row's).
    let counts = par::map(ranges.clone(), |range| {
        let mut count = 0usize;
        let mut fields = Vec::new();
        scan_range(src, len, range, block, |line| {
            if count < 2 {
                fields.push(split_fields(line, desc.delimiter).count());
            }
            count += 1;
            Ok(())
        })?;
        Ok((count, fields))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    between_passes();

    let skip = usize::from(desc.header);
    let lines: usize = counts.iter().map(|(c, _)| c).sum();
    let rows = lines.saturating_sub(skip);
    if rows == 0 {
        return Matrix::from_vec(0, 0, Vec::new());
    }
    let cols = counts
        .iter()
        .flat_map(|(_, fields)| fields)
        .nth(skip)
        .copied()
        .expect("a data row exists, so its range recorded its field count");

    // Pass 2: each range parses its lines into its own rows. Range `r`
    // holds the non-blank lines `first..first + count` of the file; line
    // `g` is data row `g - skip`.
    let mut out = DenseMatrix::zeros(rows, cols);
    let mut work = Vec::with_capacity(ranges.len());
    let mut rest = out.values_mut();
    let mut first = 0usize;
    for (&range, &(count, _)) in ranges.iter().zip(&counts) {
        let row_lo = first.max(skip) - skip;
        let row_hi = (first + count).max(skip) - skip;
        let (chunk, tail) = rest.split_at_mut((row_hi - row_lo) * cols);
        rest = tail;
        work.push((range, first, count, chunk));
        first += count;
    }
    let scanner = scanner_for(desc);
    let nnz = par::map(work, |(range, first, count, chunk)| {
        let mut seen = 0usize;
        let mut nnz = 0usize;
        let mut rows_out = chunk.chunks_exact_mut(cols);
        scan_range(src, len, range, block, |line| {
            if seen == count {
                return Err(src.changed());
            }
            let g = first + seen;
            seen += 1;
            if g < skip {
                return Ok(());
            }
            let row = rows_out.next().expect("one output row per counted line");
            nnz += parse_row(line, desc, scanner.as_ref(), g - skip, row)?;
            Ok(())
        })?;
        if seen != count {
            return Err(src.changed());
        }
        Ok(nnz)
    })
    .into_iter()
    .sum::<Result<usize>>()?;
    if src.len()? != len {
        return Err(src.changed());
    }

    Ok(Matrix::from_dense_with_nnz(out, nnz))
}

/// Parse one line into `row` (`row.len()` fields); returns its non-zero
/// count. `r` is the 0-based data row, for error messages. Fields the
/// scanner hands back, or all of them without one, go through
/// [`parse_field`].
fn parse_row(
    line: &str,
    desc: &FormatDescriptor,
    scanner: Option<&Scanner>,
    r: usize,
    row: &mut [f64],
) -> Result<usize> {
    let cols = row.len();
    let bytes = line.as_bytes();
    let (mut c, mut start, mut nnz) = (0usize, 0usize, 0usize);
    loop {
        if c == cols {
            return Err(SysDsError::Format(format!(
                "row {} has more than {cols} fields",
                r + 1
            )));
        }
        let (v, end) = match scanner.and_then(|s| s.field(bytes, start)) {
            Some(decided) => decided,
            None => {
                let end = line[start..]
                    .find(desc.delimiter)
                    .map_or(line.len(), |k| start + k);
                (parse_field(&line[start..end], desc, r, c)?, end)
            }
        };
        row[c] = v;
        nnz += usize::from(v != 0.0);
        c += 1;
        if end == line.len() {
            break;
        }
        start = end + desc.delimiter.len_utf8();
    }
    if c != cols {
        return Err(SysDsError::Format(format!(
            "row {} has {c} fields, expected {cols}",
            r + 1
        )));
    }
    Ok(nnz)
}

/// The byte scanner for `desc`'s fields, or `None` to parse every field
/// with [`parse_field`]: when the delimiter is not ASCII, or the delimiter
/// or quote is a byte a number can contain, or an NA token holds a digit
/// (the scanner would read it as a number).
fn scanner_for(desc: &FormatDescriptor) -> Option<Scanner> {
    let numeric = |c: char| c.is_ascii() && number::in_number(c as u8);
    let na_digit = desc
        .na_values
        .iter()
        .any(|na| na.bytes().any(|b| b.is_ascii_digit()));
    (desc.delimiter.is_ascii() && !numeric(desc.delimiter) && !numeric(desc.quote) && !na_digit)
        .then(|| Scanner::new(desc.delimiter as u8))
}

/// Where the bytes of a matrix read come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a> {
    File(&'a Path),
    Bytes(&'a [u8]),
}

impl<'a> Source<'a> {
    fn len(&self) -> Result<usize> {
        match self {
            Source::File(path) => {
                let len = fs::metadata(path)
                    .map_err(|e| SysDsError::io(path.display().to_string(), e))?
                    .len();
                usize::try_from(len).map_err(|_| {
                    SysDsError::Format(format!("csv file {} is too large", path.display()))
                })
            }
            Source::Bytes(bytes) => Ok(bytes.len()),
        }
    }

    fn changed(&self) -> SysDsError {
        let name = match self {
            Source::File(path) => path.display().to_string(),
            Source::Bytes(_) => "buffer".into(),
        };
        SysDsError::Format(format!("csv file {name} changed while it was read"))
    }
}

/// One thread's handle on a [`Source`].
enum Reader<'a> {
    File {
        path: &'a Path,
        file: fs::File,
        buf: Vec<u8>,
    },
    Bytes(&'a [u8]),
}

impl<'a> Reader<'a> {
    fn open(src: Source<'a>) -> Result<Self> {
        Ok(match src {
            Source::File(path) => Reader::File {
                path,
                file: fs::File::open(path)
                    .map_err(|e| SysDsError::io(path.display().to_string(), e))?,
                buf: Vec::new(),
            },
            Source::Bytes(bytes) => Reader::Bytes(bytes),
        })
    }

    /// The `n` bytes at offset `off`. A file that has shrunk below
    /// `off + n` is an I/O error.
    fn read_at(&mut self, off: usize, n: usize) -> Result<&[u8]> {
        match self {
            Reader::File { path, file, buf } => {
                buf.resize(n, 0);
                file.seek(SeekFrom::Start(off as u64))
                    .and_then(|_| file.read_exact(buf))
                    .map_err(|e| SysDsError::io(path.display().to_string(), e))?;
                Ok(buf)
            }
            Reader::Bytes(bytes) => Ok(&bytes[off..off + n]),
        }
    }
}

/// Call `on_line` on each non-blank line that starts in the byte range
/// `lo..hi` of the `len` bytes of `src`, in order; a line starts at offset
/// 0 or right after a `\n`. Each run of complete lines is checked for
/// UTF-8 before any of it is passed on.
fn scan_range(
    src: Source<'_>,
    len: usize,
    (lo, hi): (usize, usize),
    block: usize,
    mut on_line: impl FnMut(&str) -> Result<()>,
) -> Result<()> {
    let mut lines = |run: &[u8]| -> Result<()> {
        let text = std::str::from_utf8(run)
            .map_err(|_| SysDsError::Format("csv file is not valid UTF-8".into()))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .try_for_each(&mut on_line)
    };
    let mut reader = Reader::open(src)?;
    // The line running into `lo` belongs to the previous range: read from
    // `lo - 1` and drop everything through the first `\n`.
    let mut off = lo.saturating_sub(1);
    let mut skipping = lo > 0;
    // The start of a line that runs past the previous block.
    let mut carry: Vec<u8> = Vec::new();
    while off < len {
        let n = block.min(len - off);
        let mut data = reader.read_at(off, n)?;
        // File offset of `data[0]`.
        let mut line_start = off;
        off += n;
        if skipping {
            let Some(i) = data.iter().position(|&b| b == b'\n') else {
                continue;
            };
            skipping = false;
            data = &data[i + 1..];
            line_start += i + 1;
        }
        if !carry.is_empty() {
            let Some(i) = data.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(data);
                continue;
            };
            carry.extend_from_slice(&data[..=i]);
            lines(&carry)?;
            carry.clear();
            data = &data[i + 1..];
            line_start += i + 1;
        }
        if line_start >= hi {
            return Ok(());
        }
        // The last line this range owns starts before `hi`, so it ends at
        // the first `\n` at or after `hi - 1`.
        let limit = hi - line_start;
        let owned_end = data
            .get(limit - 1..)
            .and_then(|tail| tail.iter().position(|&b| b == b'\n'))
            .map(|i| limit + i);
        if let Some(end) = owned_end {
            return lines(&data[..end]);
        }
        let cut = data.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        lines(&data[..cut])?;
        carry.extend_from_slice(&data[cut..]);
        if carry.is_empty() && off >= hi {
            return Ok(());
        }
    }
    // The file's last line, with no `\n` after it.
    lines(&carry)
}

fn parse_field(field: &str, desc: &FormatDescriptor, row: usize, col: usize) -> Result<f64> {
    let t = field.trim().trim_matches(desc.quote);
    if t.is_empty() || desc.na_values.iter().any(|na| na == t) {
        return Ok(f64::NAN);
    }
    t.parse::<f64>().map_err(|_| {
        SysDsError::Format(format!(
            "cannot parse '{t}' as number at row {}, column {}",
            row + 1,
            col + 1
        ))
    })
}

fn split_fields(line: &str, delimiter: char) -> impl Iterator<Item = &str> {
    line.split(delimiter)
}

/// Write a matrix as CSV: integers below 1e15 in magnitude as integers
/// (`-0` as `0`), other values in their shortest round-trip form. Each
/// line is formatted into one buffer; sparse rows are zero-filled into a
/// reused dense row.
pub fn write_matrix(path: impl AsRef<Path>, m: &Matrix, desc: &FormatDescriptor) -> Result<()> {
    let path = path.as_ref();
    let file = fs::File::create(path).map_err(|e| SysDsError::io(path.display().to_string(), e))?;
    let mut w = std::io::BufWriter::new(file);
    let io_err = |e| SysDsError::io(path.display().to_string(), e);
    if desc.header {
        let names: Vec<String> = (1..=m.cols()).map(|j| format!("C{j}")).collect();
        writeln!(w, "{}", names.join(&desc.delimiter.to_string())).map_err(io_err)?;
    }
    let mut line = String::new();
    let mut filled = Vec::new();
    for i in 0..m.rows() {
        let row = match m {
            Matrix::Dense(d) => d.row(i),
            Matrix::Sparse(s) => {
                filled.clear();
                filled.resize(m.cols(), 0.0);
                let (cols, values) = s.row(i);
                for (&j, &v) in cols.iter().zip(values) {
                    filled[j as usize] = v;
                }
                &filled
            }
        };
        line.clear();
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                line.push(desc.delimiter);
            }
            // Writing to a `String` cannot fail.
            let _ = if v == v.trunc() && v.abs() < 1e15 {
                write!(line, "{}", v as i64)
            } else {
                write!(line, "{v}")
            };
        }
        line.push('\n');
        w.write_all(line.as_bytes()).map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

/// Read a CSV file into a [`Frame`] (all columns start as strings; callers
/// apply [`Frame::detect_schema`]). A header row supplies column names.
pub fn read_frame(path: impl AsRef<Path>, desc: &FormatDescriptor) -> Result<Frame> {
    let path = path.as_ref();
    let text =
        fs::read_to_string(path).map_err(|e| SysDsError::io(path.display().to_string(), e))?;
    parse_frame(&text, desc)
}

/// Parse CSV text into a string-typed frame. Unlike the matrix parser,
/// rows are preserved exactly: a line of empty fields is a valid frame row
/// (only the trailing newline's empty segment is dropped).
pub fn parse_frame(text: &str, desc: &FormatDescriptor) -> Result<Frame> {
    let mut all: Vec<&str> = text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .collect();
    if all.last() == Some(&"") {
        all.pop();
    }
    let mut lines = all.into_iter();
    let (names, first_data): (Vec<String>, Option<&str>) = if desc.header {
        match lines.next() {
            Some(h) => (
                split_fields(h, desc.delimiter)
                    .map(|s| s.trim().trim_matches(desc.quote).to_string())
                    .collect(),
                None,
            ),
            None => return Ok(Frame::new()),
        }
    } else {
        match lines.next() {
            Some(first) => {
                let n = split_fields(first, desc.delimiter).count();
                ((1..=n).map(|j| format!("C{j}")).collect(), Some(first))
            }
            None => return Ok(Frame::new()),
        }
    };
    let cols = names.len();
    let mut data: Vec<Vec<String>> = vec![Vec::new(); cols];
    for line in first_data.into_iter().chain(lines) {
        let mut c = 0;
        for field in split_fields(line, desc.delimiter) {
            if c >= cols {
                return Err(SysDsError::Format(format!(
                    "frame row has more than {cols} fields"
                )));
            }
            data[c].push(field.trim().trim_matches(desc.quote).to_string());
            c += 1;
        }
        while c < cols {
            data[c].push(String::new());
            c += 1;
        }
    }
    let mut f = Frame::new();
    for (name, col) in names.into_iter().zip(data) {
        f.push_column(name, FrameColumn::Str(col))?;
    }
    Ok(f)
}

/// Write a frame as CSV with a header row.
pub fn write_frame(path: impl AsRef<Path>, frame: &Frame, desc: &FormatDescriptor) -> Result<()> {
    let path = path.as_ref();
    let file = fs::File::create(path).map_err(|e| SysDsError::io(path.display().to_string(), e))?;
    let mut w = std::io::BufWriter::new(file);
    let io_err = |e| SysDsError::io(path.display().to_string(), e);
    let sep = desc.delimiter.to_string();
    writeln!(w, "{}", frame.names().join(&sep)).map_err(io_err)?;
    let cols: Vec<Vec<String>> = (0..frame.cols())
        .map(|j| frame.column(j).unwrap().as_strings())
        .collect();
    for i in 0..frame.rows() {
        let row: Vec<&str> = cols.iter().map(|c| c[i].as_str()).collect();
        writeln!(w, "{}", row.join(&sep)).map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::kernels::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = sysds_common::testing::unique_temp_dir("sysds-io-csv-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn matrix_round_trip() {
        let m = gen::rand_uniform(50, 7, -5.0, 5.0, 1.0, 101);
        let p = tmp("round.csv");
        let desc = FormatDescriptor::csv();
        write_matrix(&p, &m, &desc).unwrap();
        let back = read_matrix(&p, &desc, 4).unwrap();
        assert!(back.approx_eq(&m, 1e-12));
    }

    #[test]
    fn parallel_parse_equals_serial() {
        let m = gen::rand_uniform(199, 5, 0.0, 1.0, 1.0, 102);
        let p = tmp("par.csv");
        let desc = FormatDescriptor::csv();
        write_matrix(&p, &m, &desc).unwrap();
        let a = read_matrix(&p, &desc, 1).unwrap();
        let b = read_matrix(&p, &desc, 8).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    /// Bytes the writer produced before it formatted into one line buffer.
    #[test]
    fn written_bytes_are_pinned() {
        let dense = Matrix::from_rows(&[
            &[0.0, 1.0, -1.0, 42.0, -0.0, 999_999_999_999_999.0],
            &[
                1e15,
                -1e15,
                999_999_999_999_999.5,
                -999_999_999_999_999.0,
                1.234_567_890_123_456_8e17,
                0.5,
            ],
            &[
                0.1,
                1.0 / 3.0,
                -2.0 / 3.0,
                0.123_456_789_012_345_67,
                -1.234_567_890_123_456_7e-5,
                1e-7,
            ],
            &[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.797_693_134_862_315_7e20,
                -2.5e-9,
                7.0,
            ],
        ])
        .unwrap();
        let triples = vec![(0, 1, 2.5), (2, 0, -3.0), (2, 4, 1e20), (3, 3, 0.25)];
        let sparse = Matrix::Sparse(sysds_tensor::SparseMatrix::from_triples(4, 5, triples));
        let golden = [
            (
                &dense,
                FormatDescriptor::csv(),
                "0,1,-1,42,0,999999999999999\n\
                 1000000000000000,-1000000000000000,999999999999999.5,-999999999999999,123456789012345680,0.5\n\
                 0.1,0.3333333333333333,-0.6666666666666666,0.12345678901234566,-0.000012345678901234568,0.0000001\n\
                 NaN,inf,-inf,179769313486231570000,-0.0000000025,7\n",
            ),
            (
                &sparse,
                FormatDescriptor::csv().with_header(true).with_delimiter(';'),
                "C1;C2;C3;C4;C5\n0;2.5;0;0;0\n0;0;0;0;0\n-3;0;0;0;100000000000000000000\n0;0;0;0.25;0\n",
            ),
        ];
        for (m, desc, want) in golden {
            let p = tmp("golden.csv");
            write_matrix(&p, m, &desc).unwrap();
            assert_eq!(std::fs::read_to_string(&p).unwrap(), want);
            std::fs::remove_file(&p).ok();
        }
        assert!(sparse.is_sparse());
    }

    #[test]
    fn header_skipped() {
        let text = "a,b\n1,2\n3,4\n";
        let m = parse_matrix(
            text.as_bytes(),
            &FormatDescriptor::csv().with_header(true),
            2,
        )
        .unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn na_values_become_nan() {
        let text = "1,NA\n,2\n";
        let m = parse_matrix(text.as_bytes(), &FormatDescriptor::csv(), 1).unwrap();
        assert!(m.get(0, 1).is_nan());
        assert!(m.get(1, 0).is_nan());
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(parse_matrix(b"1,2\n3\n", &FormatDescriptor::csv(), 1).is_err());
        assert!(parse_matrix(b"1,2\n3,4,5\n", &FormatDescriptor::csv(), 2).is_err());
    }

    #[test]
    fn bad_number_reported_with_position() {
        let err = parse_matrix(b"1,2\n3,oops\n", &FormatDescriptor::csv(), 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("oops") && msg.contains("row 2"), "{msg}");
    }

    #[test]
    fn custom_delimiter_and_quotes() {
        let text = "\"1.5\";\"2.5\"\n3;4\n";
        let desc = FormatDescriptor::csv().with_delimiter(';');
        let m = parse_matrix(text.as_bytes(), &desc, 1).unwrap();
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn empty_file_is_zero_matrix() {
        let m = parse_matrix(b"", &FormatDescriptor::csv(), 2).unwrap();
        assert_eq!(m.shape(), (0, 0));
    }

    #[test]
    fn frame_round_trip_with_header() {
        let f = Frame::from_columns(vec![
            ("id".into(), FrameColumn::I64(vec![1, 2])),
            (
                "name".into(),
                FrameColumn::Str(vec!["anna".into(), "bob".into()]),
            ),
        ])
        .unwrap();
        let p = tmp("frame.csv");
        let desc = FormatDescriptor::csv().with_header(true);
        write_frame(&p, &f, &desc).unwrap();
        let back = read_frame(&p, &desc).unwrap().detect_schema();
        assert_eq!(back.names(), f.names());
        assert_eq!(back.get(1, 1).unwrap().to_display_string(), "bob");
        assert_eq!(back.get(0, 0).unwrap().as_i64().unwrap(), 1);
    }

    #[test]
    fn frame_without_header_gets_default_names() {
        let f = parse_frame("1,x\n2,y\n", &FormatDescriptor::csv()).unwrap();
        assert_eq!(f.names(), &["C1".to_string(), "C2".to_string()]);
        assert_eq!(f.rows(), 2);
    }

    #[test]
    fn frame_short_rows_padded() {
        let f = parse_frame("a,b\n1,2\n3\n", &FormatDescriptor::csv().with_header(true)).unwrap();
        assert_eq!(f.rows(), 2);
        assert_eq!(f.get(1, 1).unwrap().to_display_string(), "");
    }

    /// The single-buffer parser the range reader replaced, kept as the
    /// oracle its results must equal bit for bit.
    fn oracle_parse(bytes: &[u8], desc: &FormatDescriptor, threads: usize) -> Result<Matrix> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| SysDsError::Format("csv file is not valid UTF-8".into()))?;
        let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        if desc.header && !lines.is_empty() {
            lines.remove(0);
        }
        let rows = lines.len();
        if rows == 0 {
            return Matrix::from_vec(0, 0, Vec::new());
        }
        let cols = split_fields(lines[0], desc.delimiter).count();
        let mut out = DenseMatrix::zeros(rows, cols);
        let parts = DenseMatrix::row_partitions(rows, threads);
        let lines = &lines;
        let mut rest = out.values_mut();
        let mut first_err: Option<SysDsError> = None;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for &(lo, hi) in &parts {
                let (chunk, tail) = rest.split_at_mut((hi - lo) * cols);
                rest = tail;
                handles.push(s.spawn(move || -> Result<()> {
                    for (r, line) in lines[lo..hi].iter().enumerate() {
                        let mut c = 0usize;
                        for field in split_fields(line, desc.delimiter) {
                            if c >= cols {
                                return Err(SysDsError::Format(format!(
                                    "row {} has more than {cols} fields",
                                    lo + r + 1
                                )));
                            }
                            chunk[r * cols + c] = parse_field(field, desc, lo + r, c)?;
                            c += 1;
                        }
                        if c != cols {
                            return Err(SysDsError::Format(format!(
                                "row {} has {c} fields, expected {cols}",
                                lo + r + 1
                            )));
                        }
                    }
                    Ok(())
                }));
            }
            for h in handles {
                if let Err(e) = h.join().expect("csv parser panicked") {
                    first_err.get_or_insert(e);
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(Matrix::Dense(out).compact())
    }

    /// A result reduced to representation, shape and value bits, or the
    /// error text.
    type Outcome = std::result::Result<(bool, (usize, usize), Vec<u64>), String>;

    fn outcome(r: Result<Matrix>) -> Outcome {
        r.map(|m| {
            let bits = m.to_dense().values().iter().map(|v| v.to_bits()).collect();
            (m.is_sparse(), m.shape(), bits)
        })
        .map_err(|e| e.to_string())
    }

    /// An NA token with a two-byte character, so small blocks split it.
    const NA_MULTIBYTE: &str = "n/ä";

    fn desc_for(header: bool) -> FormatDescriptor {
        let mut desc = FormatDescriptor::csv().with_header(header);
        desc.na_values.push(NA_MULTIBYTE.into());
        desc
    }

    fn awkward_field(g: &mut sysds_common::testing::Gen, zero_pct: u8) -> String {
        if g.int(0..100u8) < zero_pct {
            return g.pick(&["0", " 0 ", "-0", "0.0"]).to_string();
        }
        match g.int(0..40u8) {
            0 => g.pick(&["1.2.3", "x", "ä"]).to_string(),
            1..=3 => g
                .pick(&["NA", "NaN", "", NA_MULTIBYTE, "\"NA\""])
                .to_string(),
            4..=7 => format!("\"{}\"", g.int(-999i64..999)),
            8..=11 => format!("  {}\t", g.int(-50i64..50)),
            _ => format!("{}", g.float(-1e3..1e3)),
        }
    }

    /// A CSV text with a header or not, LF and CRLF line ends, blank and
    /// whitespace-only lines anywhere, quoted fields, NA tokens, maybe no
    /// trailing newline, and now and then a ragged row or a bad number.
    fn awkward_csv(g: &mut sysds_common::testing::Gen) -> (String, bool) {
        const BLANKS: [&str; 6] = ["", " ", "\t", "  \t ", "\u{3000}", " \r"];
        let header = g.bool();
        let cols = g.int(1usize..6);
        let zero_pct = g.pick(&[0u8, 50, 90]);
        let mut lines: Vec<String> = Vec::new();
        if header {
            lines.push(
                (1..=cols)
                    .map(|j| format!("\"c{j}\""))
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        for _ in 0..g.int(0usize..30) {
            let n = match g.int(0..30u8) {
                0 => cols + 1,
                1 => cols - 1,
                _ => cols,
            };
            let fields: Vec<String> = (0..n).map(|_| awkward_field(g, zero_pct)).collect();
            lines.push(fields.join(","));
        }
        for _ in 0..g.int(0usize..8) {
            let at = g.int(0..=lines.len());
            lines.insert(at, g.pick(&BLANKS).to_string());
        }
        let mut text = String::new();
        for (k, line) in lines.iter().enumerate() {
            text.push_str(line);
            if k + 1 < lines.len() || g.bool() {
                text.push_str(if g.bool() { "\r\n" } else { "\n" });
            }
        }
        (text, header)
    }

    sysds_common::property! {
        #![cases(96)]
        g;

        #[test]
        fn range_reader_equals_single_buffer_parser(input in awkward_csv(g)) {
            let (text, header) = input;
            let desc = desc_for(header);
            let expect = outcome(oracle_parse(text.as_bytes(), &desc, 1));
            let p = tmp("awkward.csv");
            std::fs::write(&p, &text).unwrap();
            for threads in [1, 2, 3, 8] {
                for block in [1, 2, 3, 5, 16, BLOCK_BYTES] {
                    let chunking = Chunking { block, min_range: 1 };
                    for src in [Source::File(&p), Source::Bytes(text.as_bytes())] {
                        let got = outcome(read_chunked(src, &desc, threads, chunking, || {}));
                        assert_eq!(got, expect, "threads {threads}, block {block}, {src:?}");
                    }
                }
            }
            assert_eq!(outcome(read_matrix(&p, &desc, 2)), expect);
            assert_eq!(outcome(parse_matrix(text.as_bytes(), &desc, 2)), expect);
            std::fs::remove_file(&p).ok();
        }
    }

    /// A field that the number scanner decides, hands back, or must not
    /// misread: long and short mantissas, exponents, blanks of every kind
    /// around a number, quotes, NA tokens, `inf`/`nan`, and now and then a
    /// bad number.
    fn scanner_field(g: &mut sysds_common::testing::Gen) -> String {
        const BLANKS: [&str; 8] = ["", " ", "\t", "\u{b}", "\u{c}", "\r", "\u{a0}", "\u{3000}"];
        let number = match g.int(0..40u8) {
            0..=7 => format!("{:e}", f64::from_bits(g.seed() % 0x7FF0_0000_0000_0000)),
            8..=15 => format!("{}", g.float(0.0..1.0)),
            16..=21 => format!("{}", g.int(-1_000_000i64..1_000_000)),
            22..=29 => {
                let n = g.int(1usize..=24);
                let e = g.int(-330i32..=330);
                let lead = g.pick(&["", "-", "+", "0.", "-."]);
                format!("{lead}{}e{e}", g.string("0-9", n..=n))
            }
            30..=33 => g
                .pick(&[
                    "0", "-0", "+.5", "7.", "1E5", "00012", "1e400", "-1e-400", "5e-324",
                ])
                .to_string(),
            34..=37 => g
                .pick(&[
                    "inf",
                    "-Infinity",
                    "nan",
                    "NaN",
                    "NA",
                    "",
                    "\"3\"",
                    "\"\"-1.5\"",
                    "-999",
                    "n/ä",
                ])
                .to_string(),
            _ => g
                .pick(&[
                    "1 2", "1e", "+", ".", "1.2.3", "x", "ä", "١", "1_0", "0x1", "-",
                ])
                .to_string(),
        };
        format!("{}{number}{}", g.pick(&BLANKS), g.pick(&BLANKS))
    }

    /// Lines of one field count joined by a delimiter the scanner takes or
    /// one it cannot (`.`, `·`), with or without an NA token that holds a
    /// digit.
    fn scanner_csv(g: &mut sysds_common::testing::Gen) -> (String, FormatDescriptor) {
        let delimiter = g.pick(&[',', ';', '\t', '|', '.', '·']);
        let mut desc = FormatDescriptor::csv().with_delimiter(delimiter);
        desc.na_values.push(NA_MULTIBYTE.into());
        if g.bool() {
            desc.na_values.push("-999".into());
        }
        let cols = g.int(1usize..5);
        let sep = delimiter.to_string();
        let text = (0..g.int(1usize..12))
            .map(|_| {
                (0..cols)
                    .map(|_| scanner_field(g))
                    .collect::<Vec<_>>()
                    .join(&sep)
                    + "\n"
            })
            .collect();
        (text, desc)
    }

    sysds_common::property! {
        #![cases(256)]
        g;

        #[test]
        fn scanned_fields_read_as_the_field_parser_does(input in scanner_csv(g)) {
            let (text, desc) = input;
            let expect = outcome(oracle_parse(text.as_bytes(), &desc, 1));
            for threads in [1, 2] {
                let chunking = Chunking { block: 7, min_range: 1 };
                let got = read_chunked(Source::Bytes(text.as_bytes()), &desc, threads, chunking, || {});
                assert_eq!(outcome(got), expect, "{text:?}, threads {threads}");
            }
        }
    }

    #[test]
    fn sparse_choice_matches_compact_at_its_edges() {
        let desc = FormatDescriptor::csv();
        // 64 cells is the smallest sparse shape; 25 and 26 non-zeros of 64
        // sit either side of the 0.4 threshold.
        for (rows, cols) in [(16, 4), (8, 8), (21, 3), (9, 7)] {
            for nnz in [0, 25, 26, rows * cols] {
                let text: String = (0..rows)
                    .map(|i| {
                        let row: Vec<&str> = (0..cols)
                            .map(|j| if i * cols + j < nnz { "1" } else { "0" })
                            .collect();
                        row.join(",") + "\n"
                    })
                    .collect();
                let expect = outcome(oracle_parse(text.as_bytes(), &desc, 1));
                let got = outcome(parse_matrix(text.as_bytes(), &desc, 2));
                assert_eq!(got, expect, "{rows}x{cols}, {nnz} non-zeros");
            }
        }
    }

    #[test]
    fn invalid_utf8_reported_for_every_chunking() {
        let desc = FormatDescriptor::csv();
        for bad in [
            &b"1,2\n3,\xff\n5,6\n"[..],
            b"1,oops\n3,4\n\xc3",
            b"\xe2\x82\n1,2\n",
        ] {
            let expect = outcome(oracle_parse(bad, &desc, 1));
            assert_eq!(
                expect,
                Err("format error: csv file is not valid UTF-8".into())
            );
            for threads in [1, 2, 3, 8] {
                for block in [1, 2, 3, 64] {
                    let chunking = Chunking {
                        block,
                        min_range: 1,
                    };
                    let got = read_chunked(Source::Bytes(bad), &desc, threads, chunking, || {});
                    assert_eq!(outcome(got), expect, "threads {threads}, block {block}");
                }
            }
        }
    }

    #[test]
    fn file_changed_between_passes_is_an_error() {
        let p = tmp("changed.csv");
        let desc = FormatDescriptor::csv();
        let text = "12\n34\n56\n";
        let chunking = Chunking {
            block: 4,
            min_range: 1,
        };
        for threads in [1, 2, 3] {
            std::fs::write(&p, text).unwrap();
            let m = read_chunked(Source::File(&p), &desc, threads, chunking, || {}).unwrap();
            assert_eq!(m.to_dense().values(), &[12.0, 34.0, 56.0]);
            // Appended, same length with one more line, and truncated.
            for (changed, named) in [
                ("12\n34\n56\n78\n", true),
                ("12\n34\n5\n6", true),
                ("12\n", false),
            ] {
                std::fs::write(&p, text).unwrap();
                let write = || std::fs::write(&p, changed).unwrap();
                let err = read_chunked(Source::File(&p), &desc, threads, chunking, write)
                    .expect_err("a changed file must not read");
                let msg = err.to_string();
                assert!(!named || msg.contains("changed while it was read"), "{msg}");
            }
        }
        std::fs::remove_file(&p).ok();
    }

    /// A pipe reports no length; it is read whole, like a regular file.
    #[cfg(unix)]
    #[test]
    fn fifo_reads_like_a_regular_file() {
        let p = tmp("fifo.csv");
        let made = std::process::Command::new("mkfifo").arg(&p).status();
        assert!(made.expect("mkfifo runs").success(), "mkfifo failed");
        let text = "a,b\r\n1,2\r\n\r\n3,NA\r\n5,6";
        let desc = FormatDescriptor::csv().with_header(true);
        // Opening the write end blocks until the reader opens the pipe. The
        // writer is joined only after the check: a reader that never opens
        // the pipe fails the check instead of hanging the test.
        let writer = {
            let p = p.clone();
            std::thread::spawn(move || std::fs::write(&p, text).unwrap())
        };
        let got = outcome(read_matrix(&p, &desc, 4));
        assert_eq!(got, outcome(oracle_parse(text.as_bytes(), &desc, 1)));
        assert!(matches!(&got, Ok((_, (3, 2), _))), "{got:?}");
        writer.join().unwrap();
        std::fs::remove_file(&p).ok();
    }
}
