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
//! In every payload a matrix block, if there is one, is the last field. A
//! [`Frame`] is therefore the header and the leading fields in one small
//! buffer, followed by the block streamed from the matrix; a reader decodes
//! every kind of payload straight off its stream, bounded by the header's
//! payload length.
//!
//! Decoding is strict: wrong magic, unknown version/kind/opcode/row,
//! truncated payloads, and trailing garbage are all rejected with
//! [`SysDsError::Format`] rather than silently tolerated — a corrupt frame
//! must never be half-applied at a site. Whether an `Exec` fits its row is
//! the site's check (`FedOp::check`), not the codec's.

use std::io::{self, Read, Write};
use sysds_common::{Result, SysDsError};
use sysds_fed::ops::{self, FedOperand};
use sysds_fed::{FedRequest, FedResponse};
use sysds_io::binary::{
    block_len, decode_block, encode_block, put_f64, put_str, put_u16, put_u64, Bounded,
};
use sysds_tensor::kernels::BinaryOp;
use sysds_tensor::Matrix;

/// Frame magic: the first four bytes of every message.
pub const MAGIC: [u8; 4] = *b"SNET";
/// Current protocol version.
pub const VERSION: u16 = 2;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 24;
/// Upper bound on a payload, guarding length-prefix corruption: a frame
/// claiming more than this is rejected at header parse. Below the limit
/// a payload is decoded as its bytes arrive, so a bogus length fails on
/// the read instead of forcing a huge upfront allocation.
pub const MAX_PAYLOAD: u64 = 1 << 34;

/// Frame kind: request (master → site) or response (site → master).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Request = 0,
    Response = 1,
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
fn get_op(buf: &mut Bounded<impl Read>) -> Result<BinaryOp> {
    let code = buf.u8()?;
    BinaryOp::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| SysDsError::format(format!("unknown binary op code {code}")))
}

/// Append a request's leading fields to `buf`; returns its frame opcode
/// and the block that ends the payload, if any.
fn encode_request<'a>(req: &'a FedRequest, buf: &mut Vec<u8>) -> (u8, Option<&'a Matrix>) {
    match req {
        FedRequest::Put { var, data } => {
            put_str(buf, var);
            (REQ_PUT, Some(data))
        }
        FedRequest::Remove { var } => {
            put_str(buf, var);
            (REQ_REMOVE, None)
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
                put_str(buf, var);
            }
            match out {
                None => buf.push(0),
                Some(out) => {
                    buf.push(1);
                    put_str(buf, out);
                }
            }
            match operand {
                None => buf.push(OPERAND_NONE),
                Some(FedOperand::Matrix(_)) => buf.push(OPERAND_MATRIX),
                Some(FedOperand::Scalar(op, scalar)) => {
                    buf.extend([OPERAND_SCALAR, *op as u8]);
                    put_f64(buf, *scalar);
                }
                Some(FedOperand::Op(op)) => buf.extend([OPERAND_OP, *op as u8]),
            }
            let block = match operand {
                Some(FedOperand::Matrix(m)) => Some(m),
                _ => None,
            };
            (REQ_EXEC, block)
        }
        FedRequest::Ping => (REQ_PING, None),
        FedRequest::Shutdown => (REQ_SHUTDOWN, None),
    }
}

fn decode_exec(buf: &mut Bounded<impl Read>) -> Result<FedRequest> {
    let code = buf.u8()?;
    let op = (ops::OPS.into_iter().find(|op| op.code == code))
        .ok_or_else(|| SysDsError::format(format!("unknown federated instruction {code}")))?;
    let vars = (0..buf.u8()?)
        .map(|_| buf.str())
        .collect::<Result<Vec<_>>>()?;
    let out = match buf.u8()? {
        0 => None,
        1 => Some(buf.str()?),
        flag => return Err(SysDsError::format(format!("bad out flag {flag}"))),
    };
    let operand = match buf.u8()? {
        OPERAND_NONE => None,
        OPERAND_MATRIX => Some(FedOperand::Matrix(decode_block(buf)?)),
        OPERAND_SCALAR => Some(FedOperand::Scalar(get_op(buf)?, buf.f64()?)),
        OPERAND_OP => Some(FedOperand::Op(get_op(buf)?)),
        tag => return Err(SysDsError::format(format!("unknown operand tag {tag}"))),
    };
    Ok(FedRequest::Exec {
        op,
        vars,
        operand,
        out,
    })
}

fn decode_request(opcode: u8, buf: &mut Bounded<impl Read>) -> Result<FedRequest> {
    Ok(match opcode {
        REQ_PUT => FedRequest::Put {
            var: buf.str()?,
            data: decode_block(buf)?,
        },
        REQ_REMOVE => FedRequest::Remove { var: buf.str()? },
        REQ_EXEC => decode_exec(buf)?,
        REQ_PING => FedRequest::Ping,
        REQ_SHUTDOWN => FedRequest::Shutdown,
        other => {
            return Err(SysDsError::format(format!(
                "unknown request opcode {other}"
            )))
        }
    })
}

/// Append a response's leading fields to `buf`; returns its frame opcode
/// and the block that ends the payload, if any.
fn encode_response<'a>(resp: &'a FedResponse, buf: &mut Vec<u8>) -> (u8, Option<&'a Matrix>) {
    match resp {
        FedResponse::Ok => (RESP_OK, None),
        FedResponse::Aggregate(m) => (RESP_AGGREGATE, Some(m)),
        FedResponse::Scalar(v) => {
            put_f64(buf, *v);
            (RESP_SCALAR, None)
        }
        FedResponse::Error(msg) => {
            put_str(buf, msg);
            (RESP_ERROR, None)
        }
    }
}

fn decode_response(opcode: u8, buf: &mut Bounded<impl Read>) -> Result<FedResponse> {
    Ok(match opcode {
        RESP_OK => FedResponse::Ok,
        RESP_AGGREGATE => FedResponse::Aggregate(decode_block(buf)?),
        RESP_SCALAR => FedResponse::Scalar(buf.f64()?),
        RESP_ERROR => FedResponse::Error(buf.str()?),
        other => {
            return Err(SysDsError::format(format!(
                "unknown response opcode {other}"
            )))
        }
    })
}

/// One frame ready to write: the header and the payload's leading fields
/// in one small buffer, then the matrix block that ends the payload.
#[derive(Debug)]
pub struct Frame<'a> {
    head: Vec<u8>,
    block: Option<&'a Matrix>,
}

impl<'a> Frame<'a> {
    pub fn request(request_id: u64, req: &'a FedRequest) -> Frame<'a> {
        Frame::new(FrameKind::Request, request_id, |b| encode_request(req, b))
    }

    pub fn response(request_id: u64, resp: &'a FedResponse) -> Frame<'a> {
        Frame::new(FrameKind::Response, request_id, |b| {
            encode_response(resp, b)
        })
    }

    fn new(
        kind: FrameKind,
        request_id: u64,
        encode: impl FnOnce(&mut Vec<u8>) -> (u8, Option<&'a Matrix>),
    ) -> Frame<'a> {
        let mut fields = Vec::new();
        let (opcode, block) = encode(&mut fields);
        let mut head = Vec::with_capacity(HEADER_LEN + fields.len());
        head.extend_from_slice(&MAGIC);
        put_u16(&mut head, VERSION);
        head.extend([kind as u8, opcode]);
        put_u64(&mut head, request_id);
        let payload_len = fields.len() + block.map_or(0, block_len);
        put_u64(&mut head, payload_len as u64);
        head.extend(fields);
        Frame { head, block }
    }

    /// Bytes of the whole frame.
    pub fn byte_len(&self) -> usize {
        self.head.len() + self.block.map_or(0, block_len)
    }

    /// Write the frame and flush `w` once, so a frame that fits the
    /// writer's buffer leaves in one write.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.head)?;
        if let Some(m) = self.block {
            encode_block(m, w)?;
        }
        w.flush()
    }
}

/// Read and parse a frame header. Transport failures surface as the io
/// error; protocol violations as `Ok(Err(..))` so callers can distinguish
/// "retry the connection" from "corrupt peer".
pub fn read_header(r: &mut impl Read) -> io::Result<Result<FrameHeader>> {
    let mut raw = [0u8; HEADER_LEN];
    r.read_exact(&mut raw)?;
    let mut buf = Bounded::new(&raw[..], HEADER_LEN as u64);
    let mut parse = || {
        if buf.array::<4>()? != MAGIC {
            return Err(SysDsError::format("bad frame magic"));
        }
        let version = buf.u16()?;
        if version != VERSION {
            return Err(SysDsError::format(format!(
                "unsupported protocol version {version}"
            )));
        }
        let kind = match buf.u8()? {
            0 => FrameKind::Request,
            1 => FrameKind::Response,
            k => return Err(SysDsError::format(format!("unknown frame kind {k}"))),
        };
        let (opcode, request_id, payload_len) = (buf.u8()?, buf.u64()?, buf.u64()?);
        if payload_len > MAX_PAYLOAD {
            return Err(SysDsError::format(format!(
                "frame payload length {payload_len} exceeds limit"
            )));
        }
        Ok(FrameHeader {
            kind,
            opcode,
            request_id,
            payload_len,
        })
    };
    Ok(parse())
}

/// Read and decode the payload of the request frame whose header
/// [`read_header`] returned; errors as in [`read_header`].
pub fn read_request(r: &mut impl Read, header: &FrameHeader) -> io::Result<Result<FedRequest>> {
    read_payload(r, header, FrameKind::Request, decode_request)
}

/// Read and decode the payload of the response frame whose header
/// [`read_header`] returned; errors as in [`read_header`].
pub fn read_response(r: &mut impl Read, header: &FrameHeader) -> io::Result<Result<FedResponse>> {
    read_payload(r, header, FrameKind::Response, decode_response)
}

/// Decode a payload of `kind` off `r`, bounded by its declared length. A
/// payload that does not decode is still read to its declared end, so the
/// link stays in step and the site can answer with the inner error.
fn read_payload<R: Read, T>(
    r: R,
    header: &FrameHeader,
    kind: FrameKind,
    decode: impl FnOnce(u8, &mut Bounded<R>) -> Result<T>,
) -> io::Result<Result<T>> {
    let mut buf = Bounded::new(r, header.payload_len);
    let decoded = if header.kind != kind {
        Err(SysDsError::format(format!("expected a {kind:?} frame")))
    } else {
        decode(header.opcode, &mut buf).and_then(|v| match buf.remaining() {
            0 => Ok(v),
            n => Err(SysDsError::format(format!(
                "{n} trailing bytes after {kind:?} payload"
            ))),
        })
    };
    match decoded {
        Err(SysDsError::Io { source, .. }) => Err(source),
        decoded => buf.skip_rest().map(|()| decoded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_bytes(id: u64, req: &FedRequest) -> Vec<u8> {
        let mut bytes = Vec::new();
        Frame::request(id, req).write_to(&mut bytes).unwrap();
        bytes
    }

    /// Read one request frame off `bytes` as a site reads its stream; an
    /// io error (the stream ended early) counts as a rejection too.
    fn read_one(mut bytes: &[u8]) -> Result<(u64, FedRequest)> {
        let header = read_header(&mut bytes).map_err(|e| SysDsError::io("frame", e))??;
        let req = read_request(&mut bytes, &header).map_err(|e| SysDsError::io("frame", e))??;
        Ok((header.request_id, req))
    }

    #[test]
    fn request_frame_round_trips() {
        let req = FedRequest::Put {
            var: "X".into(),
            data: Matrix::filled(3, 2, 1.5),
        };
        let frame = Frame::request(42, &req);
        let bytes = request_bytes(42, &req);
        assert_eq!(frame.byte_len(), bytes.len());
        let (id, back) = read_one(&bytes).unwrap();
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
        let mut bytes = Vec::new();
        let resp = FedResponse::Scalar(2.25);
        Frame::response(7, &resp).write_to(&mut bytes).unwrap();
        let mut stream = bytes.as_slice();
        let header = read_header(&mut stream).unwrap().unwrap();
        assert_eq!(header.request_id, 7);
        let back = read_response(&mut stream, &header).unwrap().unwrap();
        assert!(matches!(back, FedResponse::Scalar(v) if v == 2.25));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = request_bytes(1, &FedRequest::Ping);
        bytes[0] = b'X';
        assert!(read_one(&bytes).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = request_bytes(
            1,
            &FedRequest::Remove {
                var: "long_variable_name".into(),
            },
        );
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(read_one(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = request_bytes(1, &FedRequest::Ping);
        bytes[4] = 0xff;
        assert!(read_one(&bytes).is_err());
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
            let (_, back) = read_one(&request_bytes(1, &req)).unwrap();
            assert!(
                matches!(back, FedRequest::Exec { operand: Some(FedOperand::Op(o)), .. } if o == op)
            );
        }
        let past_the_end = [BinaryOp::ALL.len() as u8];
        assert!(get_op(&mut Bounded::new(&past_the_end[..], 1)).is_err());
    }

    #[test]
    fn unknown_row_code_rejected() {
        let exec = FedRequest::Exec {
            op: &ops::NROWS,
            vars: vec!["X".into()],
            operand: None,
            out: None,
        };
        let mut bytes = request_bytes(1, &exec);
        assert!(read_one(&bytes).is_ok());
        bytes[HEADER_LEN] = u8::MAX;
        let err = read_one(&bytes).unwrap_err().to_string();
        assert!(err.contains("unknown federated instruction"), "{err}");
    }

    #[test]
    fn oversized_payload_length_rejected() {
        let mut bytes = request_bytes(1, &FedRequest::Ping);
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_one(&bytes), Err(SysDsError::Format(_))));
    }

    #[test]
    fn bogus_in_limit_length_fails_on_read_without_huge_alloc() {
        // Header claims a multi-GiB payload (under MAX_PAYLOAD, so it
        // passes header validation) but the stream ends immediately. The
        // reader must fail with an io error without allocating the claimed
        // length — this test OOMs if it preallocates.
        let mut bytes = request_bytes(1, &FedRequest::Ping);
        bytes[16..24].copy_from_slice(&(MAX_PAYLOAD - 1).to_le_bytes());
        let mut stream = bytes.as_slice();
        let header = read_header(&mut stream).unwrap().unwrap();
        assert!(read_request(&mut stream, &header).is_err());
    }
}
