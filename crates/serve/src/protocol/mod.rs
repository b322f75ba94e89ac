//! Wire protocol: a codec layer with two interchangeable frame formats.
//!
//! Every connection speaks one of two codecs, negotiated by sniffing the
//! first byte of the first frame (see [`WireFormat::sniff`]):
//!
//! * **JSON** — newline-delimited JSON documents, one frame per line,
//!   bit-for-bit compatible with every protocol revision since v1. A JSON
//!   frame's first byte is `{` (or anything that is not the binary magic),
//!   so legacy clients keep working unmodified.
//! * **Binary** — length-prefixed frames whose stimulus/result payloads
//!   are the *same feature-major u64 bit-plane words* that
//!   [`BitTensor`](c2nn_core::BitTensor) uses, so a `sim` request can flow
//!   from the socket buffer into the backend with no per-lane text
//!   parsing and no intermediate `Vec<bool>` allocation. Frame layout:
//!
//!   ```text
//!   +------+------+------+-------+----------------+=============+
//!   | 0xC2 | ver  | kind | flags | payload_len u32 LE | payload |
//!   +------+------+------+-------+----------------+=============+
//!    magic  (=1)                  (bounded by FrameLimits)
//!   ```
//!
//! Frames are untrusted input: decoding never panics, every defect is a
//! typed [`ProtocolError`], and frame length is bounded by
//! [`FrameLimits::max_frame`] so a hostile peer cannot balloon server
//! memory. Framing-level corruption (bad magic version, oversize length)
//! poisons the stream and surfaces as `io::ErrorKind::InvalidData`;
//! content-level defects (unknown kind, ragged-tail garbage, truncated
//! payload fields) leave framing sound and yield a typed error reply on a
//! connection that stays usable.
//!
//! The protocol is deliberately request/response over one connection (no
//! multiplexing): clients that want concurrency open more connections,
//! which is also how the micro-batching scheduler receives coalescable
//! load.

mod binary;
mod framing;
mod json;
mod types;

pub use binary::BinaryCodec;
pub use framing::{write_frame, write_wire_frame, Frame, FrameBuffer, FrameReader};
pub use json::JsonCodec;
pub use types::{
    stim_text_to_planes, stim_to_planes, BackendSelectionReport, FrameLimits, ModelStatsReport,
    ProtocolError, Request, Response, ServerStatsReport, SimOutputs, StimPayload, WireFormat,
    BINARY_MAGIC, BINARY_WIRE_VERSION, MAX_FRAME, PROTOCOL_VERSION,
};

// ---------------------------------------------------------------------------
// The codec layer
// ---------------------------------------------------------------------------

/// One wire format: encodes messages into complete frames (terminator /
/// header included) and decodes the frame bytes [`FrameBuffer`] pops.
/// Implementations are stateless unit structs; get one from
/// [`WireFormat::codec`].
pub trait Codec: Send + Sync {
    /// Stable label (`"json"` / `"binary"`), used by stats and metrics.
    fn name(&self) -> &'static str;
    /// The wire format this codec speaks.
    fn wire(&self) -> WireFormat;
    /// Encode a request into one complete frame, ready to write.
    fn encode_request(&self, req: &Request) -> Vec<u8>;
    /// Encode a response into one complete frame, ready to write.
    fn encode_response(&self, resp: &Response) -> Vec<u8>;
    /// Decode a popped frame as a request. Never panics.
    fn decode_request(&self, frame: &[u8]) -> Result<Request, ProtocolError>;
    /// Decode a popped frame as a response. Never panics.
    fn decode_response(&self, frame: &[u8]) -> Result<Response, ProtocolError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2nn_core::BitTensor;

    #[test]
    fn typed_rejections_roundtrip() {
        for resp in [
            Response::Overloaded { retry_after_ms: 7 },
            Response::DeadlineExceeded,
            Response::ShuttingDown,
        ] {
            let body = resp.encode();
            assert!(!body.contains('\n'));
            assert_eq!(Response::decode(&body).unwrap(), resp);
            // and identically under the binary codec
            let frame = BinaryCodec.encode_response(&resp);
            assert_eq!(BinaryCodec.decode_response(&frame).unwrap(), resp);
        }
        // unknown failure kinds are a protocol error, not a silent Error{}
        assert!(Response::decode(r#"{"ok":false,"kind":"meteor_strike"}"#).is_err());
    }

    #[test]
    fn encoders_mask_ragged_tails_to_the_canonical_wire_form() {
        let mut bt = BitTensor::zeros(1, 3);
        bt.set_bit(0, 1, true);
        bt.data_mut()[0] |= 1 << 50; // tail garbage a kernel may leave
        let req = Request::Sim {
            model: "m".into(),
            stim: StimPayload::Packed(bt),
            deadline_ms: None,
        };
        for frame in [
            BinaryCodec.encode_request(&req),
            JsonCodec.encode_request(&req),
        ] {
            let wire = WireFormat::sniff(frame[0]);
            let decoded = match wire
                .codec()
                .decode_request(&frame[..frame.len() - usize::from(wire == WireFormat::Json)])
            {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
            match decoded {
                Request::Sim {
                    stim: StimPayload::Packed(out),
                    ..
                } => {
                    assert!(out.get_bit(0, 1));
                    assert_eq!(out.data()[0], 0b010, "tails masked on {} wire", wire);
                }
                other => panic!("wanted packed sim, got {other:?}"),
            }
        }
    }
}
