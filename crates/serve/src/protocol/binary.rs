//! The length-prefixed binary codec (protocol v4+).

use super::types::{planes_from_words, wire_words, HEADER_LEN};
use super::{
    Codec, ProtocolError, Request, Response, SimOutputs, StimPayload, WireFormat, BINARY_MAGIC,
    BINARY_WIRE_VERSION,
};
use c2nn_core::BitTensor;
use c2nn_json::{Json, ToJson};

// ---------------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------------

// Request kinds (high bit clear) and response kinds (high bit set).
pub(super) const K_PING: u8 = 0x01;
const K_LOAD: u8 = 0x02;
const K_SIM: u8 = 0x03;
const K_STATS: u8 = 0x04;
const K_SHUTDOWN: u8 = 0x05;
const K_PONG: u8 = 0x81;
const K_LOADED: u8 = 0x82;
const K_SIM_RESULT: u8 = 0x83;
const K_STATS_REPLY: u8 = 0x84;
const K_SHUTTING_DOWN: u8 = 0x85;
const K_OVERLOADED: u8 = 0x86;
const K_DEADLINE_EXCEEDED: u8 = 0x87;
const K_ERROR: u8 = 0x88;

// Stimulus/result payload forms inside K_SIM / K_SIM_RESULT.
const FORM_TEXT: u8 = 0;
const FORM_PACKED: u8 = 1;

/// Assemble a complete binary frame: header + payload.
fn binary_frame(kind: u8, payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len() <= u32::MAX as usize, "payload too large");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(BINARY_MAGIC);
    out.push(BINARY_WIRE_VERSION);
    out.push(kind);
    out.push(0); // flags, reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn push_deadline(out: &mut Vec<u8>, d: &Option<u64>) {
    match d {
        Some(ms) => {
            out.push(1);
            push_u64(out, *ms);
        }
        None => {
            out.push(0);
            push_u64(out, 0);
        }
    }
}

fn push_planes(out: &mut Vec<u8>, bt: &BitTensor) {
    push_u32(out, bt.features() as u32);
    push_u32(out, bt.batch() as u32);
    out.reserve(bt.data().len() * 8);
    for w in wire_words(bt) {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Bounds-checked cursor over an untrusted binary payload. Every read
/// checks the remaining length before touching the slice, so a hostile
/// length field can never cause a panic or an oversized allocation.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::new("truncated binary payload"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| ProtocolError::new("binary payload string is not valid UTF-8"))
    }

    fn utf8_rest(&mut self) -> Result<&'a str, ProtocolError> {
        let rest = self.take(self.remaining())?;
        std::str::from_utf8(rest)
            .map_err(|_| ProtocolError::new("binary payload string is not valid UTF-8"))
    }

    fn deadline(&mut self) -> Result<Option<u64>, ProtocolError> {
        let present = self.u8()?;
        let ms = self.u64()?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(ms)),
            _ => Err(ProtocolError::new("bad deadline presence flag")),
        }
    }

    fn planes(&mut self) -> Result<BitTensor, ProtocolError> {
        let features = self.u32()? as usize;
        let cycles = self.u32()? as usize;
        let words = features * cycles.div_ceil(64);
        let needed = words
            .checked_mul(8)
            .ok_or_else(|| ProtocolError::new("bit-plane shape overflows"))?;
        if self.remaining() != needed {
            return Err(ProtocolError::new(
                "bit-plane payload length does not match declared shape",
            ));
        }
        let raw = self.take(needed)?;
        let data = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        planes_from_words(features, cycles, data)
    }

    fn done(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::new("trailing garbage in binary payload"));
        }
        Ok(())
    }
}

/// Validate a binary frame's header and return `(kind, payload)`. The
/// framing layer already checked magic/version/length, but decode is also
/// reachable with raw frame bytes (tests, captures), so re-validate.
fn split_binary_frame(frame: &[u8]) -> Result<(u8, &[u8]), ProtocolError> {
    if frame.len() < HEADER_LEN {
        return Err(ProtocolError::new("binary frame shorter than its header"));
    }
    if frame[0] != BINARY_MAGIC {
        return Err(ProtocolError::new("bad binary frame magic"));
    }
    if frame[1] != BINARY_WIRE_VERSION {
        return Err(ProtocolError::new(format!(
            "unsupported binary wire version {}",
            frame[1]
        )));
    }
    if frame[3] != 0 {
        return Err(ProtocolError::new("nonzero reserved flags in binary frame"));
    }
    let len = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
    if frame.len() != HEADER_LEN + len {
        return Err(ProtocolError::new(
            "binary frame length does not match its header",
        ));
    }
    Ok((frame[2], &frame[HEADER_LEN..]))
}

fn encode_request_binary(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => binary_frame(K_PING, Vec::new()),
        Request::Load {
            name,
            model,
            deadline_ms,
        } => {
            let mut p = Vec::with_capacity(name.len() + model.len() + 16);
            push_bytes(&mut p, name.as_bytes());
            push_deadline(&mut p, deadline_ms);
            p.extend_from_slice(model);
            binary_frame(K_LOAD, p)
        }
        Request::Sim {
            model,
            stim,
            deadline_ms,
        } => {
            let mut p = Vec::new();
            push_bytes(&mut p, model.as_bytes());
            push_deadline(&mut p, deadline_ms);
            match stim {
                StimPayload::Text(t) => {
                    p.push(FORM_TEXT);
                    p.extend_from_slice(t.as_bytes());
                }
                StimPayload::Packed(bt) => {
                    p.push(FORM_PACKED);
                    push_planes(&mut p, bt);
                }
            }
            binary_frame(K_SIM, p)
        }
        Request::Stats => binary_frame(K_STATS, Vec::new()),
        Request::Shutdown => binary_frame(K_SHUTDOWN, Vec::new()),
    }
}

fn decode_request_binary(frame: &[u8]) -> Result<Request, ProtocolError> {
    let (kind, payload) = split_binary_frame(frame)?;
    let mut c = Cur::new(payload);
    match kind {
        K_PING => {
            c.done()?;
            Ok(Request::Ping)
        }
        K_LOAD => {
            let name = c.string()?;
            let deadline_ms = c.deadline()?;
            let model = c.take(c.remaining())?.to_vec();
            Ok(Request::Load {
                name,
                model,
                deadline_ms,
            })
        }
        K_SIM => {
            let model = c.string()?;
            let deadline_ms = c.deadline()?;
            let stim = match c.u8()? {
                FORM_TEXT => StimPayload::Text(c.utf8_rest()?.to_owned()),
                FORM_PACKED => StimPayload::Packed(c.planes()?),
                other => return Err(ProtocolError::new(format!("unknown stimulus form {other}"))),
            };
            Ok(Request::Sim {
                model,
                stim,
                deadline_ms,
            })
        }
        K_STATS => {
            c.done()?;
            Ok(Request::Stats)
        }
        K_SHUTDOWN => {
            c.done()?;
            Ok(Request::Shutdown)
        }
        other => Err(ProtocolError::new(format!(
            "unknown binary request kind 0x{other:02x}"
        ))),
    }
}

fn encode_response_binary(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Pong { version } => {
            let mut p = Vec::with_capacity(4);
            push_u32(&mut p, *version);
            binary_frame(K_PONG, p)
        }
        Response::Loaded { name, bytes } => {
            let mut p = Vec::with_capacity(name.len() + 12);
            push_bytes(&mut p, name.as_bytes());
            push_u64(&mut p, *bytes);
            binary_frame(K_LOADED, p)
        }
        Response::SimResult { outputs, cycles } => {
            let mut p = Vec::new();
            push_u64(&mut p, *cycles);
            match outputs {
                SimOutputs::Text(strings) => {
                    p.push(FORM_TEXT);
                    push_u32(&mut p, strings.len() as u32);
                    for s in strings {
                        push_bytes(&mut p, s.as_bytes());
                    }
                }
                SimOutputs::Packed(bt) => {
                    p.push(FORM_PACKED);
                    push_planes(&mut p, bt);
                }
            }
            binary_frame(K_SIM_RESULT, p)
        }
        Response::Stats { models, server } => {
            // stats are a cold diagnostic path: the payload is the JSON
            // stats object, so the report schema lives in one place
            let doc = Json::Obj(vec![
                ("models".into(), models.to_json()),
                ("server".into(), server.to_json()),
            ]);
            binary_frame(K_STATS_REPLY, doc.to_string_compact().into_bytes())
        }
        Response::ShuttingDown => binary_frame(K_SHUTTING_DOWN, Vec::new()),
        Response::Overloaded { retry_after_ms } => {
            let mut p = Vec::with_capacity(8);
            push_u64(&mut p, *retry_after_ms);
            binary_frame(K_OVERLOADED, p)
        }
        Response::DeadlineExceeded => binary_frame(K_DEADLINE_EXCEEDED, Vec::new()),
        Response::Error { message } => binary_frame(K_ERROR, message.as_bytes().to_vec()),
    }
}

fn decode_response_binary(frame: &[u8]) -> Result<Response, ProtocolError> {
    let (kind, payload) = split_binary_frame(frame)?;
    let mut c = Cur::new(payload);
    let field_err = |e: c2nn_json::DecodeError| ProtocolError::new(e.to_string());
    match kind {
        K_PONG => {
            let version = c.u32()?;
            c.done()?;
            Ok(Response::Pong { version })
        }
        K_LOADED => {
            let name = c.string()?;
            let bytes = c.u64()?;
            c.done()?;
            Ok(Response::Loaded { name, bytes })
        }
        K_SIM_RESULT => {
            let cycles = c.u64()?;
            let outputs = match c.u8()? {
                FORM_TEXT => {
                    let count = c.u32()? as usize;
                    let mut strings = Vec::new();
                    for _ in 0..count {
                        strings.push(c.string()?);
                    }
                    c.done()?;
                    SimOutputs::Text(strings)
                }
                FORM_PACKED => SimOutputs::Packed(c.planes()?),
                other => return Err(ProtocolError::new(format!("unknown output form {other}"))),
            };
            Ok(Response::SimResult { outputs, cycles })
        }
        K_STATS_REPLY => {
            let text = c.utf8_rest()?;
            let v = c2nn_json::parse(text).map_err(|e| ProtocolError::new(e.to_string()))?;
            Ok(Response::Stats {
                models: c2nn_json::field(&v, "models").map_err(field_err)?,
                server: c2nn_json::opt_field(&v, "server")
                    .map_err(field_err)?
                    .unwrap_or_default(),
            })
        }
        K_SHUTTING_DOWN => {
            c.done()?;
            Ok(Response::ShuttingDown)
        }
        K_OVERLOADED => {
            let retry_after_ms = c.u64()?;
            c.done()?;
            Ok(Response::Overloaded { retry_after_ms })
        }
        K_DEADLINE_EXCEEDED => {
            c.done()?;
            Ok(Response::DeadlineExceeded)
        }
        K_ERROR => Ok(Response::Error {
            message: c.utf8_rest()?.to_owned(),
        }),
        other => Err(ProtocolError::new(format!(
            "unknown binary response kind 0x{other:02x}"
        ))),
    }
}

/// The length-prefixed binary codec (protocol v4+).
pub struct BinaryCodec;

impl Codec for BinaryCodec {
    fn name(&self) -> &'static str {
        WireFormat::Binary.name()
    }

    fn wire(&self) -> WireFormat {
        WireFormat::Binary
    }

    fn encode_request(&self, req: &Request) -> Vec<u8> {
        encode_request_binary(req)
    }

    fn encode_response(&self, resp: &Response) -> Vec<u8> {
        encode_response_binary(resp)
    }

    fn decode_request(&self, frame: &[u8]) -> Result<Request, ProtocolError> {
        decode_request_binary(frame)
    }

    fn decode_response(&self, frame: &[u8]) -> Result<Response, ProtocolError> {
        decode_response_binary(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ServerStatsReport;

    #[test]
    fn binary_frames_roundtrip_every_request_variant() {
        let packed = BitTensor::from_lanes(&[
            vec![true, false, true],
            vec![false, false, true],
            vec![true, true, false],
        ]);
        let reqs = [
            Request::Ping,
            Request::Load {
                name: "m".into(),
                model: vec![0, 159, 146, 150, 255], // non-UTF-8 bytes survive
                deadline_ms: Some(9),
            },
            Request::Sim {
                model: "m".into(),
                stim: StimPayload::Text("101\n010 x2\n".into()),
                deadline_ms: None,
            },
            Request::Sim {
                model: "m".into(),
                stim: StimPayload::Packed(packed),
                deadline_ms: Some(u64::MAX),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let frame = BinaryCodec.encode_request(&req);
            assert_eq!(frame[0], BINARY_MAGIC);
            assert_eq!(BinaryCodec.decode_request(&frame).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn binary_frames_roundtrip_every_response_variant() {
        let packed = BitTensor::from_lanes(&[vec![true, false], vec![true, true]]);
        let resps = [
            Response::Pong { version: 4 },
            Response::Loaded {
                name: "m".into(),
                bytes: 123,
            },
            Response::SimResult {
                outputs: SimOutputs::Text(vec!["10".into(), "01".into()]),
                cycles: 2,
            },
            Response::SimResult {
                outputs: SimOutputs::Packed(packed),
                cycles: 2,
            },
            Response::Stats {
                models: vec![],
                server: ServerStatsReport::default(),
            },
            Response::ShuttingDown,
            Response::Overloaded { retry_after_ms: 5 },
            Response::DeadlineExceeded,
            Response::Error {
                message: "boom".into(),
            },
        ];
        for resp in resps {
            let frame = BinaryCodec.encode_response(&resp);
            assert_eq!(
                BinaryCodec.decode_response(&frame).unwrap(),
                resp,
                "{resp:?}"
            );
        }
    }

    #[test]
    fn nonzero_ragged_tail_is_rejected_by_both_codecs() {
        // 2 features × 3 cycles → 1 word per plane, tail bits 3..64 invalid
        let words = vec![0b111u64, 1 << 40];
        let frame = {
            let mut p = Vec::new();
            push_bytes(&mut p, b"m");
            push_deadline(&mut p, &None);
            p.push(FORM_PACKED);
            push_u32(&mut p, 2);
            push_u32(&mut p, 3);
            for w in &words {
                p.extend_from_slice(&w.to_le_bytes());
            }
            binary_frame(K_SIM, p)
        };
        let err = BinaryCodec.decode_request(&frame).unwrap_err();
        assert!(err.message.contains("ragged"), "{err}");
        let body = format!(
            r#"{{"op":"sim","model":"m","stim_packed":{{"features":2,"cycles":3,"words":["7","{:x}"]}}}}"#,
            1u64 << 40
        );
        let err = Request::decode(&body).unwrap_err();
        assert!(err.message.contains("ragged"), "{err}");
    }
}
