//! The framed binary wire protocol for federated requests, version 2.
//!
//! Every message is one frame: a fixed 24-byte little-endian header followed
//! by an opcode-specific payload. Matrix payloads reuse the workspace binary
//! block format (`sysds_io::binary`), so a site stores exactly the bytes the
//! master would spill to disk; strings are a `u32` length and UTF-8 bytes.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SNET"
//! 4       2     version (2)
//! 6       1     kind    (0 = request, 1 = response)
//! 7       1     opcode  request: 0 Put, 1 Remove, 2 Exec, 3 Ping, 4 Shutdown
//!                       response: 0 Ok, 1 Aggregate, 2 Scalar, 3 Error
//! 8       8     request id (echoed verbatim in the response)
//! 16      8     payload length in bytes
//! 24      ...   payload
//! ```
//!
//! Every federated instruction travels as one `Exec` payload; the row of
//! `sysds_fed::ops` it runs is named by its code, so a new row needs no
//! change here:
//!
//! ```text
//! u8            row code (`FedOp::code`)
//! u8            n, the number of site variables; then n strings
//! u8            0 = no `out`; 1 = an `out` string follows
//! u8            operand: 0 none; 1 matrix block; 2 scalar (operator, f64);
//!               3 operator. An operator is a u8 index into `BinaryOp::ALL`.
//! ```
//!
//! Decoding is strict: wrong magic, unknown version/kind/opcode/row,
//! truncated payloads, and trailing garbage are all rejected with
//! [`SysDsError::Format`] rather than silently tolerated — a corrupt frame
//! must never be half-applied at a site. Whether an `Exec` fits its row is
//! the site's check (`FedOp::check`), not the codec's.

use std::io::{Read, Write};
use sysds_common::{Result, SysDsError};
use sysds_fed::ops::{self, FedOperand};
use sysds_fed::{FedRequest, FedResponse};
use sysds_io::binary::{decode_block, encode_block, put_str, Cursor};
use sysds_tensor::kernels::BinaryOp;

/// Frame magic: the first four bytes of every message.
pub const MAGIC: [u8; 4] = *b"SNET";
/// Current protocol version.
pub const VERSION: u16 = 2;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 24;
/// Upper bound on a payload, guarding length-prefix corruption: a frame
/// claiming more than this is rejected at header parse. Below the limit
/// the payload is read in `READ_CHUNK`-sized steps, so a bogus length
/// fails on `read_exact` instead of forcing a huge upfront allocation.
pub const MAX_PAYLOAD: u64 = 1 << 34;
/// Granularity of streaming payload reads (allocation grows with the
/// bytes actually received, never with the header's claimed length).
const READ_CHUNK: usize = 1 << 22;

/// Frame kind: request (master → site) or response (site → master).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Request,
    Response,
}

/// Parsed fixed-size frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub kind: FrameKind,
    pub opcode: u8,
    pub request_id: u64,
    pub payload_len: u64,
}

const REQ_PUT: u8 = 0;
const REQ_REMOVE: u8 = 1;
const REQ_EXEC: u8 = 2;
const REQ_PING: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const RESP_OK: u8 = 0;
const RESP_AGGREGATE: u8 = 1;
const RESP_SCALAR: u8 = 2;
const RESP_ERROR: u8 = 3;

const OPERAND_NONE: u8 = 0;
const OPERAND_MATRIX: u8 = 1;
const OPERAND_SCALAR: u8 = 2;
const OPERAND_OP: u8 = 3;

/// An operator travels as its index in `BinaryOp::ALL`, which lists the
/// variants in declaration order (so the index is `op as u8`).
fn get_op(buf: &mut Cursor<'_>) -> Result<BinaryOp> {
    let code = buf.u8()?;
    BinaryOp::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| SysDsError::Format(format!("unknown binary op code {code}")))
}

/// Encode a request as its frame opcode and payload.
fn encode_request(req: &FedRequest) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    let opcode = match req {
        FedRequest::Put { var, data } => {
            put_str(&mut buf, var);
            encode_block(data, &mut buf);
            REQ_PUT
        }
        FedRequest::Remove { var } => {
            put_str(&mut buf, var);
            REQ_REMOVE
        }
        FedRequest::Exec {
            op,
            vars,
            operand,
            out,
        } => {
            buf.push(op.code);
            buf.push(u8::try_from(vars.len()).expect("at most 255 site variables"));
            for var in vars {
                put_str(&mut buf, var);
            }
            match out {
                None => buf.push(0),
                Some(out) => {
                    buf.push(1);
                    put_str(&mut buf, out);
                }
            }
            match operand {
                None => buf.push(OPERAND_NONE),
                Some(FedOperand::Matrix(m)) => {
                    buf.push(OPERAND_MATRIX);
                    encode_block(m, &mut buf);
                }
                Some(FedOperand::Scalar(op, scalar)) => {
                    buf.extend([OPERAND_SCALAR, *op as u8]);
                    buf.extend_from_slice(&scalar.to_le_bytes());
                }
                Some(FedOperand::Op(op)) => {
                    buf.extend([OPERAND_OP, *op as u8]);
                }
            }
            REQ_EXEC
        }
        FedRequest::Ping => REQ_PING,
        FedRequest::Shutdown => REQ_SHUTDOWN,
    };
    (opcode, buf)
}

fn decode_exec(buf: &mut Cursor<'_>) -> Result<FedRequest> {
    let code = buf.u8()?;
    let op = (ops::OPS.into_iter().find(|op| op.code == code))
        .ok_or_else(|| SysDsError::Format(format!("unknown federated instruction {code}")))?;
    let vars = (0..buf.u8()?)
        .map(|_| buf.str())
        .collect::<Result<Vec<_>>>()?;
    let out = match buf.u8()? {
        0 => None,
        1 => Some(buf.str()?),
        flag => return Err(SysDsError::Format(format!("bad out flag {flag}"))),
    };
    let operand = match buf.u8()? {
        OPERAND_NONE => None,
        OPERAND_MATRIX => Some(FedOperand::Matrix(decode_block(buf)?)),
        OPERAND_SCALAR => Some(FedOperand::Scalar(get_op(buf)?, buf.f64()?)),
        OPERAND_OP => Some(FedOperand::Op(get_op(buf)?)),
        tag => return Err(SysDsError::Format(format!("unknown operand tag {tag}"))),
    };
    Ok(FedRequest::Exec {
        op,
        vars,
        operand,
        out,
    })
}

/// Decode the request carried by a frame read with [`read_frame`].
pub fn decode_request(header: &FrameHeader, payload: &[u8]) -> Result<FedRequest> {
    if header.kind != FrameKind::Request {
        return Err(SysDsError::Format("expected a request frame".into()));
    }
    let mut buf = Cursor::new(payload);
    let req = match header.opcode {
        REQ_PUT => FedRequest::Put {
            var: buf.str()?,
            data: decode_block(&mut buf)?,
        },
        REQ_REMOVE => FedRequest::Remove { var: buf.str()? },
        REQ_EXEC => decode_exec(&mut buf)?,
        REQ_PING => FedRequest::Ping,
        REQ_SHUTDOWN => FedRequest::Shutdown,
        other => {
            return Err(SysDsError::Format(format!(
                "unknown request opcode {other}"
            )))
        }
    };
    if buf.remaining() != 0 {
        return Err(SysDsError::Format(format!(
            "{} trailing bytes after request payload",
            buf.remaining()
        )));
    }
    Ok(req)
}

fn encode_response_payload(resp: &FedResponse) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    let opcode = match resp {
        FedResponse::Ok => RESP_OK,
        FedResponse::Aggregate(m) => {
            encode_block(m, &mut buf);
            RESP_AGGREGATE
        }
        FedResponse::Scalar(v) => {
            buf.extend_from_slice(&v.to_le_bytes());
            RESP_SCALAR
        }
        FedResponse::Error(msg) => {
            put_str(&mut buf, msg);
            RESP_ERROR
        }
    };
    (opcode, buf)
}

/// Decode the response carried by a frame read with [`read_frame`].
pub fn decode_response(header: &FrameHeader, payload: &[u8]) -> Result<FedResponse> {
    if header.kind != FrameKind::Response {
        return Err(SysDsError::Format("expected a response frame".into()));
    }
    let mut buf = Cursor::new(payload);
    let resp = match header.opcode {
        RESP_OK => FedResponse::Ok,
        RESP_AGGREGATE => FedResponse::Aggregate(decode_block(&mut buf)?),
        RESP_SCALAR => FedResponse::Scalar(buf.f64()?),
        RESP_ERROR => FedResponse::Error(buf.str()?),
        other => {
            return Err(SysDsError::Format(format!(
                "unknown response opcode {other}"
            )))
        }
    };
    if buf.remaining() != 0 {
        return Err(SysDsError::Format(format!(
            "{} trailing bytes after response payload",
            buf.remaining()
        )));
    }
    Ok(resp)
}

fn frame(kind: FrameKind, opcode: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(match kind {
        FrameKind::Request => 0,
        FrameKind::Response => 1,
    });
    out.push(opcode);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encode a complete request frame.
pub fn request_frame(request_id: u64, req: &FedRequest) -> Vec<u8> {
    let (opcode, payload) = encode_request(req);
    frame(FrameKind::Request, opcode, request_id, &payload)
}

/// Encode a complete response frame.
pub fn response_frame(request_id: u64, resp: &FedResponse) -> Vec<u8> {
    let (opcode, payload) = encode_response_payload(resp);
    frame(FrameKind::Response, opcode, request_id, &payload)
}

/// Parse a header from its 24 fixed bytes.
pub fn parse_header(raw: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
    if raw[0..4] != MAGIC {
        return Err(SysDsError::Format("bad frame magic".into()));
    }
    let version = u16::from_le_bytes([raw[4], raw[5]]);
    if version != VERSION {
        return Err(SysDsError::Format(format!(
            "unsupported protocol version {version}"
        )));
    }
    let kind = match raw[6] {
        0 => FrameKind::Request,
        1 => FrameKind::Response,
        k => return Err(SysDsError::Format(format!("unknown frame kind {k}"))),
    };
    let request_id = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(SysDsError::Format(format!(
            "frame payload length {payload_len} exceeds limit"
        )));
    }
    Ok(FrameHeader {
        kind,
        opcode: raw[7],
        request_id,
        payload_len,
    })
}

/// Parse a complete request frame (header + payload) from a byte slice.
pub fn parse_request_frame(bytes: &[u8]) -> Result<(u64, FedRequest)> {
    let (header, payload) = split_frame(bytes)?;
    Ok((header.request_id, decode_request(&header, payload)?))
}

/// Parse a complete response frame (header + payload) from a byte slice.
pub fn parse_response_frame(bytes: &[u8]) -> Result<(u64, FedResponse)> {
    let (header, payload) = split_frame(bytes)?;
    Ok((header.request_id, decode_response(&header, payload)?))
}

fn split_frame(bytes: &[u8]) -> Result<(FrameHeader, &[u8])> {
    if bytes.len() < HEADER_LEN {
        return Err(SysDsError::Format("truncated frame header".into()));
    }
    let header = parse_header(bytes[..HEADER_LEN].try_into().expect("header bytes"))?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != header.payload_len {
        return Err(SysDsError::Format(format!(
            "frame payload length mismatch: header says {}, got {}",
            header.payload_len,
            payload.len()
        )));
    }
    Ok((header, payload))
}

/// Read one frame from a stream. Transport failures surface as the io
/// error; protocol violations as `Ok(Err(..))` so callers can distinguish
/// "retry the connection" from "corrupt peer".
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Result<(FrameHeader, Vec<u8>)>> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head)?;
    let header = match parse_header(&head) {
        Ok(h) => h,
        Err(e) => return Ok(Err(e)),
    };
    let total = header.payload_len as usize;
    let mut payload = Vec::with_capacity(total.min(READ_CHUNK));
    while payload.len() < total {
        let old = payload.len();
        payload.resize(old + (total - old).min(READ_CHUNK), 0);
        r.read_exact(&mut payload[old..])?;
    }
    Ok(Ok((header, payload)))
}

/// Write one pre-encoded frame to a stream, returning the byte count.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<usize> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(frame.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysds_tensor::Matrix;

    #[test]
    fn request_frame_round_trips() {
        let req = FedRequest::Put {
            var: "X".into(),
            data: Matrix::filled(3, 2, 1.5),
        };
        let bytes = request_frame(42, &req);
        let (id, back) = parse_request_frame(&bytes).unwrap();
        assert_eq!(id, 42);
        match back {
            FedRequest::Put { var, data } => {
                assert_eq!(var, "X");
                assert_eq!(data.shape(), (3, 2));
                assert_eq!(data.get(2, 1), 1.5);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn response_frame_round_trips() {
        let bytes = response_frame(7, &FedResponse::Scalar(2.25));
        let (id, back) = parse_response_frame(&bytes).unwrap();
        assert_eq!(id, 7);
        assert!(matches!(back, FedResponse::Scalar(v) if v == 2.25));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = request_frame(1, &FedRequest::Ping);
        bytes[0] = b'X';
        assert!(parse_request_frame(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = request_frame(
            1,
            &FedRequest::Remove {
                var: "long_variable_name".into(),
            },
        );
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(parse_request_frame(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = request_frame(1, &FedRequest::Ping);
        bytes[4] = 0xff;
        assert!(parse_request_frame(&bytes).is_err());
    }

    #[test]
    fn all_binary_ops_round_trip() {
        for op in BinaryOp::ALL {
            let req = FedRequest::Exec {
                op: &ops::BINARY_OP,
                vars: vec!["A".into(), "B".into()],
                operand: Some(FedOperand::Op(op)),
                out: Some("C".into()),
            };
            let (_, back) = parse_request_frame(&request_frame(1, &req)).unwrap();
            assert!(
                matches!(back, FedRequest::Exec { operand: Some(FedOperand::Op(o)), .. } if o == op)
            );
        }
        let past_the_end = [BinaryOp::ALL.len() as u8];
        assert!(get_op(&mut Cursor::new(&past_the_end)).is_err());
    }

    #[test]
    fn unknown_row_code_rejected() {
        let exec = FedRequest::Exec {
            op: &ops::NROWS,
            vars: vec!["X".into()],
            operand: None,
            out: None,
        };
        let mut bytes = request_frame(1, &exec);
        assert!(parse_request_frame(&bytes).is_ok());
        bytes[HEADER_LEN] = u8::MAX;
        let err = parse_request_frame(&bytes).unwrap_err().to_string();
        assert!(err.contains("unknown federated instruction"), "{err}");
    }

    #[test]
    fn oversized_payload_length_rejected() {
        let mut bytes = request_frame(1, &FedRequest::Ping);
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_request_frame(&bytes).is_err());
    }

    #[test]
    fn bogus_in_limit_length_fails_on_read_without_huge_alloc() {
        // Header claims a multi-GiB payload (under MAX_PAYLOAD, so it
        // passes header validation) but the stream ends immediately. The
        // chunked reader must fail with an io error after allocating at
        // most one READ_CHUNK — this test OOMs if it preallocates.
        let mut bytes = request_frame(1, &FedRequest::Ping);
        bytes[16..24].copy_from_slice(&(MAX_PAYLOAD - 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(read_frame(&mut cursor).is_err());
    }
}
