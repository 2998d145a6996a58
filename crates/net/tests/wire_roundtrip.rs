//! Property tests for the framed wire protocol: every request kind, an
//! `Exec` of every row of the federated instruction table, and every
//! response survive write → read exactly (including empty and large
//! matrices), read off a stream as a site and a master read their sockets;
//! truncated or corrupted frames are rejected instead of being half-decoded,
//! and a frame whose payload does not decode leaves the stream in step. The
//! bytes of one frame of every kind are pinned.

use sysds_common::{property, SysDsError};
use sysds_fed::ops::{self, FedOperand, FedResult, OperandKind, OPS};
use sysds_fed::{FedRequest, FedResponse};
use sysds_net::wire::{self, Frame, FrameHeader};
use sysds_tensor::kernels::gen;
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::{DenseMatrix, Matrix, SparseMatrix};

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
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn request_bytes(id: u64, req: &FedRequest) -> Vec<u8> {
    let mut bytes = Vec::new();
    let frame = Frame::request(id, req);
    frame.write_to(&mut bytes).unwrap();
    assert_eq!(frame.byte_len(), bytes.len());
    bytes
}

fn response_bytes(id: u64, resp: &FedResponse) -> Vec<u8> {
    let mut bytes = Vec::new();
    let frame = Frame::response(id, resp);
    frame.write_to(&mut bytes).unwrap();
    assert_eq!(frame.byte_len(), bytes.len());
    bytes
}

type Payload<T> = std::io::Result<sysds_common::Result<T>>;

/// Read one frame off `stream` as a site or a master reads its socket:
/// the header, then the payload through `payload`. Returns the request id.
fn read_frame<T>(
    stream: &mut &[u8],
    payload: impl Fn(&mut &[u8], &FrameHeader) -> Payload<T>,
) -> Payload<(u64, T)> {
    let header = match wire::read_header(stream)? {
        Ok(header) => header,
        Err(e) => return Ok(Err(e)),
    };
    Ok(payload(stream, &header)?.map(|v| (header.request_id, v)))
}

fn read_request(stream: &mut &[u8]) -> Payload<(u64, FedRequest)> {
    read_frame(stream, |s, h| wire::read_request(s, h))
}

fn read_response(stream: &mut &[u8]) -> Payload<(u64, FedResponse)> {
    read_frame(stream, |s, h| wire::read_response(s, h))
}

/// The one frame in `bytes`, which must be read to its end.
fn only_request(mut bytes: &[u8]) -> (u64, FedRequest) {
    let read = read_request(&mut bytes).unwrap().unwrap();
    assert!(bytes.is_empty(), "{} bytes left unread", bytes.len());
    read
}

fn only_response(mut bytes: &[u8]) -> (u64, FedResponse) {
    let read = read_response(&mut bytes).unwrap().unwrap();
    assert!(bytes.is_empty(), "{} bytes left unread", bytes.len());
    read
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
            let (back_id, back) = only_request(&request_bytes(id, &req));
            assert_eq!(back_id, id);
            assert!(same(&req, &back), "{} changed across the wire", req.opcode());
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
            let (back_id, back) = only_response(&response_bytes(id, &resp));
            assert_eq!(back_id, id);
            assert!(same(&resp, &back), "{resp:?} vs {back:?}");
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
        // prefix must fail to read — no cut point half-applies.
        let req = FedRequest::Put {
            var,
            data: matrix_for(rows, cols, 1.0, seed),
        };
        let bytes = request_bytes(1, &req);
        for cut in 0..bytes.len() {
            assert!(
                !matches!(read_request(&mut &bytes[..cut]), Ok(Ok(_))),
                "prefix of {cut}/{} bytes was accepted", bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_header_bytes_are_rejected(
        id in g.seed(),
    ) {
        // Clobbering any of magic, version, kind, or opcode must fail the
        // read (0xff is outside every valid range).
        let bytes = request_bytes(id, &FedRequest::Ping);
        for pos in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] = 0xff;
            assert!(
                matches!(read_request(&mut corrupt.as_slice()), Ok(Err(SysDsError::Format(_)))),
                "corrupt byte {pos} was accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected(
        junk in g.vec(1..16, |g| g.int(0..=u8::MAX)),
    ) {
        // Garbage inside the declared payload fails the frame, and the
        // reader still consumes it, so the next frame reads in step.
        let bytes = request_bytes(9, &FedRequest::Remove { var: "X".into() });
        let payload = [&bytes[wire::HEADER_LEN..], &junk[..]].concat();
        let mut stream = &with_payload(bytes, &payload)[..];
        let r = read_request(&mut stream);
        assert!(matches!(r, Ok(Err(SysDsError::Format(_)))), "{r:?}");
        assert!(stream.is_empty());
    }

    #[test]
    fn response_as_request_is_rejected(id in g.seed()) {
        let resp = response_bytes(id, &FedResponse::Ok);
        assert!(matches!(read_request(&mut resp.as_slice()), Ok(Err(SysDsError::Format(_)))));
        let req = request_bytes(id, &FedRequest::Ping);
        assert!(matches!(read_response(&mut req.as_slice()), Ok(Err(SysDsError::Format(_)))));
    }
}

/// `frame` with its payload replaced by `payload` and the header's payload
/// length set to match.
fn with_payload(mut frame: Vec<u8>, payload: &[u8]) -> Vec<u8> {
    frame.truncate(wire::HEADER_LEN);
    frame[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// `bad` fails to decode with a format error, and the `next` frame on the
/// same stream still reads, to the stream's end.
fn assert_rejected_in_step<T: std::fmt::Debug>(
    bad: &[u8],
    next: &[u8],
    read: impl Fn(&mut &[u8]) -> Payload<(u64, T)>,
) {
    let bytes = [bad, next].concat();
    let mut stream = bytes.as_slice();
    let r = read(&mut stream);
    assert!(matches!(r, Ok(Err(SysDsError::Format(_)))), "{r:?}");
    assert_eq!(stream, next, "the bad payload was not read to its end");
    assert!(matches!(read(&mut stream), Ok(Ok(_))) && stream.is_empty());
}

/// A `Put` frame whose block declares a shape its bytes cannot back is
/// rejected with a format error instead of crashing the site: a dense size
/// that wraps, a sparse entry count that wraps, and 2^40 sparse rows. So
/// are an `Exec` with an unknown operand tag and an `Aggregate` response
/// with bytes after its block. Each is read to its end, so the site
/// answers it and the next frame follows in step.
#[test]
fn put_with_crafted_block_is_rejected() {
    let put = FedRequest::Put {
        var: "X".into(),
        data: Matrix::zeros(0, 0),
    };
    let ping = request_bytes(4, &FedRequest::Ping);
    let blocks: [(u8, &[u64]); 3] = [
        (0, &[1 << 61, 1]),
        (1, &[4, 4, 1 << 61]),
        (1, &[1 << 40, 1, 0]),
    ];
    for (kind, fields) in blocks {
        // Keep the header and the variable name; replace the block.
        let bytes = request_bytes(3, &put);
        let mut payload = bytes[wire::HEADER_LEN..wire::HEADER_LEN + 5].to_vec();
        payload.push(kind);
        for f in fields {
            payload.extend_from_slice(&f.to_le_bytes());
        }
        assert_rejected_in_step(&with_payload(bytes, &payload), &ping, read_request);
    }

    // Operand tag 9, followed by bytes the decoder never reaches.
    let exec = FedRequest::Exec {
        op: &ops::NROWS,
        vars: vec!["X".into()],
        operand: None,
        out: None,
    };
    let bytes = request_bytes(5, &exec);
    let mut payload = bytes[wire::HEADER_LEN..].to_vec();
    *payload.last_mut().unwrap() = 9;
    payload.extend([0xab; 40]);
    assert_rejected_in_step(&with_payload(bytes, &payload), &ping, read_request);

    let aggregate = response_bytes(6, &FedResponse::Aggregate(Matrix::filled(2, 2, 1.0)));
    let payload = [&aggregate[wire::HEADER_LEN..], &[1, 2, 3]].concat();
    let ok = response_bytes(7, &FedResponse::Ok);
    assert_rejected_in_step(&with_payload(aggregate, &payload), &ok, read_response);
}

#[test]
fn large_dense_matrix_round_trips() {
    let m = gen::rand_uniform(300, 200, -1.0, 1.0, 1.0, 77);
    let req = FedRequest::Put {
        var: "big".into(),
        data: m,
    };
    let bytes = request_bytes(5, &req);
    assert!(bytes.len() > 300 * 200 * 8, "payload carries all cells");
    // Written and read in several 64 KiB chunks.
    let (_, back) = only_request(&bytes);
    assert!(same(&req, &back));
}

#[test]
fn large_sparse_matrix_round_trips() {
    let m = gen::rand_uniform(2000, 500, -1.0, 1.0, 0.001, 78).compact();
    let resp = FedResponse::Aggregate(m);
    let (_, back) = only_response(&response_bytes(6, &resp));
    assert!(same(&resp, &back));
}

#[test]
fn empty_matrix_round_trips() {
    for (rows, cols) in [(0usize, 0usize), (0, 5), (5, 0)] {
        let req = FedRequest::Put {
            var: "empty".into(),
            data: Matrix::zeros(rows, cols),
        };
        let (_, back) = only_request(&request_bytes(1, &req));
        assert!(same(&req, &back), "shape {rows}x{cols}");
    }
}

/// Frames of every request kind, as the buffered-copy encoder of protocol
/// version 2 wrote them, for the requests of [`golden_requests`] with ids
/// `0x0102030405060708 + i`.
const GOLDEN_REQUESTS: [&str; 10] = [
    "534e455402000000080706050403020146000000000000000100000058000200\
     0000000000000300000000000000000000000000f83f00000000000000c00000\
     0000000000000000000000000a409c7500883ce4377e0000000000000080",
    "534e455402000000090706050403020166000000000000000100000053010400\
     0000000000000500000000000000030000000000000000000000000000000100\
     0000000000000000000000000440020000000000000000000000000000000000\
     00000000f0bf030000000000000004000000000000000000000000001c40",
    "534e4554020000010a0706050403020105000000000000000100000058",
    "534e4554020000020b0706050403020109000000000000000701010000005800\
     00",
    "534e4554020000020c070605040302014f000000000000000201010000005801\
     0100000059010002000000000000000300000000000000000000000000f83f00\
     000000000000c000000000000000000000000000000a409c7500883ce4377e00\
     00000000000080",
    "534e4554020000020d070605040302016f000000000000000201010000005801\
     0100000059010104000000000000000500000000000000030000000000000000\
     0000000000000001000000000000000000000000000440020000000000000000\
     00000000000000000000000000f0bf0300000000000000040000000000000000\
     00000000001c40",
    "534e4554020000020e0706050403020117000000000000000301010000005801\
     010000005a0202000000000000e03f",
    "534e4554020000020f0706050403020114000000000000000402010000004101\
     000000420101000000430300",
    "534e45540200000310070605040302010000000000000000",
    "534e45540200000411070605040302010000000000000000",
];

/// Frames of every response kind, likewise, with ids
/// `0x1112131415161718 + i`.
const GOLDEN_RESPONSES: [&str; 5] = [
    "534e45540200010018171615141312110000000000000000",
    "534e455402000101191716151413121141000000000000000002000000000000\
     000300000000000000000000000000f83f00000000000000c000000000000000\
     000000000000000a409c7500883ce4377e0000000000000080",
    "534e4554020001011a1716151413121161000000000000000104000000000000\
     0005000000000000000300000000000000000000000000000001000000000000\
     00000000000000044002000000000000000000000000000000000000000000f0\
     bf030000000000000004000000000000000000000000001c40",
    "534e4554020001021b171615141312110800000000000000000000000000c0bf",
    "534e4554020001031c171615141312110f000000000000000b0000006e6f2073\
     75636820766172",
];

fn golden_requests() -> [FedRequest; 10] {
    let dense = Matrix::Dense(DenseMatrix::from_vec(
        2,
        3,
        vec![1.5, -2.0, 0.0, 3.25, 1e300, -0.0],
    ));
    let sparse = Matrix::Sparse(SparseMatrix::from_triples(
        4,
        5,
        vec![(0, 1, 2.5), (2, 0, -1.0), (3, 4, 7.0)],
    ));
    let exec = |op, vars: &[&str], operand, out: Option<&str>| FedRequest::Exec {
        op,
        vars: vars.iter().map(|v| v.to_string()).collect(),
        operand,
        out: out.map(Into::into),
    };
    [
        FedRequest::Put {
            var: "X".into(),
            data: dense.clone(),
        },
        FedRequest::Put {
            var: "S".into(),
            data: sparse.clone(),
        },
        FedRequest::Remove { var: "X".into() },
        exec(&ops::NROWS, &["X"], None, None),
        exec(
            &ops::MATVEC,
            &["X"],
            Some(FedOperand::Matrix(dense)),
            Some("Y"),
        ),
        exec(
            &ops::MATVEC,
            &["X"],
            Some(FedOperand::Matrix(sparse)),
            Some("Y"),
        ),
        exec(
            &ops::SCALAR_OP,
            &["X"],
            Some(FedOperand::Scalar(BinaryOp::Mul, 0.5)),
            Some("Z"),
        ),
        exec(
            &ops::BINARY_OP,
            &["A", "B"],
            Some(FedOperand::Op(BinaryOp::Add)),
            Some("C"),
        ),
        FedRequest::Ping,
        FedRequest::Shutdown,
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_frame_bytes() {
    for (i, (req, golden)) in golden_requests().iter().zip(GOLDEN_REQUESTS).enumerate() {
        let id = 0x0102030405060708 + i as u64;
        assert_eq!(hex(&request_bytes(id, req)), golden, "{}", req.opcode());
    }
    let [FedRequest::Put { data: dense, .. }, FedRequest::Put { data: sparse, .. }, ..] =
        golden_requests()
    else {
        unreachable!()
    };
    let responses = [
        FedResponse::Ok,
        FedResponse::Aggregate(dense),
        FedResponse::Aggregate(sparse),
        FedResponse::Scalar(-0.125),
        FedResponse::Error("no such var".into()),
    ];
    for (i, (resp, golden)) in responses.iter().zip(GOLDEN_RESPONSES).enumerate() {
        let id = 0x1112131415161718 + i as u64;
        assert_eq!(hex(&response_bytes(id, resp)), golden, "{resp:?}");
    }
}
