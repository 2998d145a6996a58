//! Property tests for the framed wire protocol: every request kind, an
//! `Exec` of every row of the federated instruction table, and every
//! response survive serialize → deserialize exactly (including empty and
//! large matrices), whether parsed from a buffer or read off a stream as
//! a site reads it, and truncated or corrupted frames are rejected instead
//! of being half-decoded.

use sysds_common::property;
use sysds_fed::ops::{FedOperand, FedResult, OperandKind, OPS};
use sysds_fed::{FedRequest, FedResponse};
use sysds_net::wire;
use sysds_tensor::kernels::gen;
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::Matrix;

/// A matrix of the given shape — empty when either dimension is 0, dense
/// or sparse otherwise depending on `sparsity`.
fn matrix_for(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Matrix {
    if rows == 0 || cols == 0 {
        Matrix::zeros(rows, cols)
    } else {
        gen::rand_uniform(rows, cols, -1e6, 1e6, sparsity, seed).compact()
    }
}

/// Exact structural equality via the derived debug representation: f64
/// formatting is shortest-round-trip, so equal strings mean bitwise-equal
/// values, shapes, and dense/sparse representation.
fn same_request(a: &FedRequest, b: &FedRequest) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn same_response(a: &FedResponse, b: &FedResponse) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Decode a request frame as a site reads it off its stream: the header,
/// then the payload. Also returns how many bytes were left unread.
fn read_streamed(bytes: &[u8]) -> std::io::Result<sysds_common::Result<(FedRequest, usize)>> {
    let mut stream = bytes;
    let header = match wire::read_header(&mut stream)? {
        Ok(header) => header,
        Err(e) => return Ok(Err(e)),
    };
    let req = wire::read_request(&mut stream, &header)?;
    Ok(req.map(|req| (req, stream.len())))
}

/// One instance of every request kind from the generated ingredients:
/// `Put`, `Remove`, `Ping`, `Shutdown`, and an `Exec` of every row of the
/// federated instruction table for each site-variable count it takes.
fn all_requests(var: String, m: Matrix, op: BinaryOp, scalar: f64) -> Vec<FedRequest> {
    let mut reqs = vec![
        FedRequest::Put {
            var: var.clone(),
            data: m.clone(),
        },
        FedRequest::Remove { var: var.clone() },
        FedRequest::Ping,
        FedRequest::Shutdown,
    ];
    for row in OPS {
        let operand = match row.operand {
            OperandKind::None => None,
            OperandKind::Matrix => Some(FedOperand::Matrix(m.clone())),
            OperandKind::Scalar => Some(FedOperand::Scalar(op, scalar)),
            OperandKind::Op => Some(FedOperand::Op(op)),
        };
        let out = matches!(row.result, FedResult::Stays { .. }).then(|| format!("{var}_out"));
        for n in row.vars.clone() {
            reqs.push(FedRequest::Exec {
                op: row,
                vars: (0..n).map(|i| format!("{var}_{i}")).collect(),
                operand: operand.clone(),
                out: out.clone(),
            });
        }
    }
    reqs
}

property! {
    #![cases(24)]
    g;

    #[test]
    fn every_request_variant_round_trips(
        var in g.string("a-zA-Z0-9_", 1..=12),
        rows in g.int(0usize..20),
        cols in g.int(0usize..8),
        sparsity in g.pick(&[1.0, 0.2]),
        op_idx in g.int(0usize..BinaryOp::ALL.len()),
        scalar in g.float(-1e9f64..1e9),
        id in g.seed(),
        seed in g.seed(),
    ) {
        let m = matrix_for(rows, cols, sparsity, seed);
        for req in all_requests(var.clone(), m, BinaryOp::ALL[op_idx], scalar) {
            let bytes = wire::request_frame(id, &req);
            let (back_id, back) = wire::parse_request_frame(&bytes).unwrap();
            assert_eq!(back_id, id);
            assert!(
                same_request(&req, &back),
                "{} changed across the wire", req.opcode()
            );
            let (streamed, left) = read_streamed(&bytes).unwrap().unwrap();
            assert!(
                left == 0 && same_request(&req, &streamed),
                "{} changed when read off a stream", req.opcode()
            );
        }
    }

    #[test]
    fn every_response_variant_round_trips(
        rows in g.int(0usize..20),
        cols in g.int(0usize..8),
        sparsity in g.pick(&[1.0, 0.2]),
        scalar in g.pick(&[0.0, -0.0, f64::NAN, f64::INFINITY, 2.5e-300]),
        msg in g.string("a-zA-Z0-9 _.", 0..=40),
        id in g.seed(),
        seed in g.seed(),
    ) {
        let m = matrix_for(rows, cols, sparsity, seed);
        let responses = vec![
            FedResponse::Ok,
            FedResponse::Aggregate(m),
            FedResponse::Scalar(scalar),
            FedResponse::Error(msg),
        ];
        for resp in responses {
            let bytes = wire::response_frame(id, &resp);
            let (back_id, back) = wire::parse_response_frame(&bytes).unwrap();
            assert_eq!(back_id, id);
            assert!(same_response(&resp, &back), "{resp:?} vs {back:?}");
        }
    }

    #[test]
    fn every_truncation_is_rejected(
        var in g.string("a-z", 1..=6),
        rows in g.int(1usize..4),
        cols in g.int(1usize..4),
        seed in g.seed(),
    ) {
        // A small Put frame (header + strings + matrix block): every strict
        // prefix must fail to parse — no cut point half-applies.
        let req = FedRequest::Put {
            var,
            data: matrix_for(rows, cols, 1.0, seed),
        };
        let bytes = wire::request_frame(1, &req);
        for cut in 0..bytes.len() {
            assert!(
                wire::parse_request_frame(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes was accepted", bytes.len()
            );
            assert!(
                !matches!(read_streamed(&bytes[..cut]), Ok(Ok(_))),
                "prefix of {cut}/{} bytes was accepted off a stream", bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_header_bytes_are_rejected(
        id in g.seed(),
    ) {
        // Clobbering any of magic, version, kind, or opcode must fail the
        // parse (0xff is outside every valid range).
        let bytes = wire::request_frame(id, &FedRequest::Ping);
        for pos in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] = 0xff;
            assert!(
                wire::parse_request_frame(&corrupt).is_err(),
                "corrupt byte {pos} was accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(
        junk in g.vec(1..16, |g| g.int(0..=u8::MAX)),
    ) {
        let mut bytes = wire::request_frame(9, &FedRequest::Remove { var: "X".into() });
        bytes.extend_from_slice(&junk);
        assert!(wire::parse_request_frame(&bytes).is_err());
    }

    #[test]
    fn response_as_request_is_rejected(id in g.seed()) {
        let resp = wire::response_frame(id, &FedResponse::Ok);
        assert!(wire::parse_request_frame(&resp).is_err());
        let req = wire::request_frame(id, &FedRequest::Ping);
        assert!(wire::parse_response_frame(&req).is_err());
    }
}

/// A `Put` frame whose block declares a shape its bytes cannot back is
/// rejected with a format error instead of crashing the site: a dense size
/// that wraps, a sparse entry count that wraps, and 2^40 sparse rows.
#[test]
fn put_with_crafted_block_is_rejected() {
    let put = FedRequest::Put {
        var: "X".into(),
        data: Matrix::zeros(0, 0),
    };
    let blocks: [(u8, &[u64]); 3] = [
        (0, &[1 << 61, 1]),
        (1, &[4, 4, 1 << 61]),
        (1, &[1 << 40, 1, 0]),
    ];
    for (kind, fields) in blocks {
        // Keep the header and the variable name; replace the block.
        let mut bytes = wire::request_frame(3, &put);
        bytes.truncate(wire::HEADER_LEN + 5);
        bytes.push(kind);
        for f in fields {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
        let len = (bytes.len() - wire::HEADER_LEN) as u64;
        bytes[16..24].copy_from_slice(&len.to_le_bytes());
        let err = wire::parse_request_frame(&bytes).unwrap_err();
        assert!(matches!(err, sysds_common::SysDsError::Format(_)), "{err}");
        // Off a stream, the site reads the whole payload and answers the
        // error; the next frame follows in step.
        bytes.extend(wire::request_frame(4, &FedRequest::Ping));
        let mut stream = bytes.as_slice();
        let header = wire::read_header(&mut stream).unwrap().unwrap();
        let err = wire::read_request(&mut stream, &header)
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, sysds_common::SysDsError::Format(_)), "{err}");
        let (next, left) = read_streamed(stream).unwrap().unwrap();
        assert!(left == 0 && matches!(next, FedRequest::Ping));
    }
}

#[test]
fn large_dense_matrix_round_trips() {
    let m = gen::rand_uniform(300, 200, -1.0, 1.0, 1.0, 77);
    let req = FedRequest::Put {
        var: "big".into(),
        data: m,
    };
    let bytes = wire::request_frame(5, &req);
    assert!(bytes.len() > 300 * 200 * 8, "payload carries all cells");
    let (_, back) = wire::parse_request_frame(&bytes).unwrap();
    assert!(same_request(&req, &back));
    // Read off a stream, the cells arrive in several 64 KiB steps.
    let (streamed, left) = read_streamed(&bytes).unwrap().unwrap();
    assert!(left == 0 && same_request(&req, &streamed));
}

#[test]
fn large_sparse_matrix_round_trips() {
    let m = gen::rand_uniform(2000, 500, -1.0, 1.0, 0.001, 78).compact();
    let resp = FedResponse::Aggregate(m);
    let bytes = wire::response_frame(6, &resp);
    let (_, back) = wire::parse_response_frame(&bytes).unwrap();
    assert!(same_response(&resp, &back));
}

#[test]
fn empty_matrix_round_trips() {
    for (rows, cols) in [(0usize, 0usize), (0, 5), (5, 0)] {
        let req = FedRequest::Put {
            var: "empty".into(),
            data: Matrix::zeros(rows, cols),
        };
        let bytes = wire::request_frame(1, &req);
        let (_, back) = wire::parse_request_frame(&bytes).unwrap();
        assert!(same_request(&req, &back), "shape {rows}x{cols}");
    }
}
