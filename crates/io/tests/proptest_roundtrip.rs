//! Property tests: every matrix survives CSV and binary round trips, for
//! arbitrary shapes, sparsity, and parser thread counts.

use sysds_common::property;
use sysds_io::{binary, FormatDescriptor};
use sysds_tensor::kernels::gen;
use sysds_tensor::Matrix;

fn tmpfile(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = sysds_common::testing::unique_temp_dir("sysds-io-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}-{case}", std::process::id()))
}

property! {
    #![cases(24)]
    g;

    #[test]
    fn csv_round_trip(
        rows in g.int(1usize..60),
        cols in g.int(1usize..20),
        sparsity in g.pick(&[1.0, 0.3, 0.05]),
        threads in g.int(1usize..8),
        seed in g.seed(),
    ) {
        let m = gen::rand_uniform(rows, cols, -1e6, 1e6, sparsity, seed).compact();
        let p = tmpfile("csv", seed);
        let desc = FormatDescriptor::csv();
        sysds_io::csv::write_matrix(&p, &m, &desc).unwrap();
        let back = sysds_io::csv::read_matrix(&p, &desc, threads).unwrap();
        std::fs::remove_file(&p).ok();
        assert!(back.approx_eq(&m, 1e-9));
    }

    #[test]
    fn binary_round_trip(
        rows in g.int(1usize..80),
        cols in g.int(1usize..30),
        sparsity in g.pick(&[1.0, 0.1]),
        seed in g.seed(),
    ) {
        let m = gen::rand_uniform(rows, cols, -1.0, 1.0, sparsity, seed).compact();
        let p = tmpfile("bin", seed);
        sysds_io::binary::write_matrix(&p, &m).unwrap();
        let back = sysds_io::binary::read_matrix(&p).unwrap();
        std::fs::remove_file(&p).ok();
        // binary is exact
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn block_encode_decode_exact(
        rows in g.int(1usize..50),
        cols in g.int(1usize..50),
        sparsity in g.pick(&[1.0, 0.08]),
        seed in g.seed(),
    ) {
        let m = gen::rand_uniform(rows, cols, -1.0, 1.0, sparsity, seed).compact();
        let mut bytes = Vec::new();
        binary::encode_block(&m, &mut bytes).unwrap();
        assert_eq!(bytes.len(), binary::block_len(&m));
        let mut r = binary::Bounded::new(bytes.as_slice(), bytes.len() as u64);
        let back = binary::decode_block(&mut r).unwrap();
        assert!(back.approx_eq(&m, 0.0) && r.remaining() == 0);
        assert_eq!(back.is_sparse(), m.is_sparse());
    }

    #[test]
    fn metadata_round_trip(rows in g.int(0usize..1_000_000), cols in g.int(0usize..10_000), nnz in g.int(0usize..100_000)) {
        let m = sysds_io::Metadata::matrix(rows, cols, nnz, "csv");
        let back = sysds_io::Metadata::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn frame_csv_round_trip_strings(
        cells in g.vec(1..40, |g| g.string("a-zA-Z0-9_.", 0..=12)),
        cols in g.int(1usize..4),
    ) {
        check_frame_csv_round_trip(cells, cols);
    }

    #[test]
    fn compressed_matrix_round_trip(
        rows in g.int(1usize..120),
        cols in g.int(1usize..8),
        levels in g.int(1usize..12),
        seed in g.seed(),
    ) {
        // quantized data → mixture of DDC and RLE encodings
        let raw = gen::rand_uniform(rows, cols, 0.0, levels as f64, 1.0, seed);
        let d = raw.to_dense();
        let data: Vec<f64> = d.values().iter().map(|v| v.floor()).collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let c = sysds_tensor::CompressedMatrix::compress(&m);
        assert!(c.decompress().approx_eq(&m, 0.0));
        // compressed ops agree with dense ops
        let v = gen::rand_uniform(cols, 1, -1.0, 1.0, 1.0, seed ^ 7);
        let got = c.mat_vec(&v).unwrap();
        let expect = sysds_tensor::kernels::matmult::matmul(&m, &v, 1).unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }
}

/// Write `cells`, padded to a `cols`-wide rectangle, as a string frame with
/// a header, and check that it reads back unchanged.
fn check_frame_csv_round_trip(cells: Vec<String>, cols: usize) {
    // pad to a rectangle
    let rows = cells.len().div_ceil(cols);
    let mut padded = cells.clone();
    padded.resize(rows * cols, String::new());
    let mut frame = sysds_frame::Frame::new();
    for j in 0..cols {
        let col: Vec<String> = (0..rows).map(|i| padded[i * cols + j].clone()).collect();
        frame
            .push_column(format!("c{j}"), sysds_frame::FrameColumn::Str(col))
            .unwrap();
    }
    let p = tmpfile("frame", cells.len() as u64 * 31 + cols as u64);
    let desc = FormatDescriptor::csv().with_header(true);
    sysds_io::csv::write_frame(&p, &frame, &desc).unwrap();
    let back = sysds_io::csv::read_frame(&p, &desc).unwrap();
    std::fs::remove_file(&p).ok();
    assert_eq!(back.rows(), frame.rows());
    assert_eq!(back.cols(), frame.cols());
    for i in 0..rows {
        for j in 0..cols {
            assert_eq!(
                back.get(i, j).unwrap().to_display_string(),
                frame.get(i, j).unwrap().to_display_string()
            );
        }
    }
}

/// A one-cell frame holding the empty string once failed the round trip.
#[test]
fn frame_csv_round_trip_regression_single_empty_cell() {
    check_frame_csv_round_trip(vec![String::new()], 1);
}
