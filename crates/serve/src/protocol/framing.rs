//! Framing: splitting a byte stream into codec-sniffed frames.

use super::types::HEADER_LEN;
use super::{
    FrameLimits, ProtocolError, Request, Response, WireFormat, BINARY_MAGIC, BINARY_WIRE_VERSION,
};
use std::io::{self, Read, Write};

/// One complete frame popped off a stream: the sniffed wire format plus
/// the frame bytes (for JSON, the line body without its newline; for
/// binary, the whole frame including the 8-byte header).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Codec this frame arrived in (by first-byte sniff).
    pub wire: WireFormat,
    /// The frame bytes (see type-level docs for what they include).
    pub bytes: Vec<u8>,
}

impl Frame {
    /// Decode as a client-to-server message with this frame's codec.
    pub fn decode_request(&self) -> Result<Request, ProtocolError> {
        self.wire.codec().decode_request(&self.bytes)
    }

    /// Decode as a server-to-client message with this frame's codec.
    pub fn decode_response(&self) -> Result<Response, ProtocolError> {
        self.wire.codec().decode_response(&self.bytes)
    }

    /// Frame length in bytes as popped (wire bytes minus the JSON
    /// newline terminator).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is the frame empty? (Only possible for a bare JSON newline.)
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one JSON frame (body + `\n`) and flush.
pub fn write_frame<W: Write>(w: &mut W, body: &str) -> io::Result<()> {
    debug_assert!(!body.contains('\n'), "frame body must be a single line");
    w.write_all(body.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Write one pre-encoded frame (as produced by a [`Codec`](super::Codec)) and flush.
pub fn write_wire_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Push-based incremental frame splitter: the event loop's per-connection
/// read buffer. Bytes go in via [`push`](FrameBuffer::push) as the socket
/// yields them; complete frames come out via
/// [`next_frame`](FrameBuffer::next_frame), codec-sniffed per frame from
/// the first buffered byte. [`FrameReader`] wraps the same buffer behind a
/// pull-style `Read` source, so the framing rules (length bound, newline
/// scan, binary header parse) live in exactly one place.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    // bytes before this offset are known newline-free, so each push only
    // costs a scan of fresh bytes (a 64 MiB frame arriving in 8 KiB reads
    // must not cost a quadratic re-scan); only meaningful on the JSON path
    scanned: usize,
    limits: FrameLimits,
}

impl FrameBuffer {
    /// An empty buffer with default [`FrameLimits`].
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// An empty buffer enforcing the given limits.
    pub fn with_limits(limits: FrameLimits) -> Self {
        FrameBuffer {
            limits,
            ..FrameBuffer::default()
        }
    }

    /// Append bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete frames not yet popped plus any
    /// partial frame). The server's drain path uses this to tell "client
    /// mid-send, wait for their frame" from "line is idle, close now".
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Is nothing buffered at all?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// First buffered bytes without consuming them (the event loop sniffs
    /// `GET ` here to tell an HTTP metrics scrape from a protocol frame).
    pub fn peek(&self) -> &[u8] {
        &self.buf
    }

    /// Is a complete frame (or an unrecoverable framing defect, which is
    /// equally actionable) buffered? Unlike
    /// [`next_frame`](FrameBuffer::next_frame) this never consumes; the
    /// drain path uses it to decide whether a closing connection still has
    /// a request to answer.
    pub fn has_complete_frame(&self) -> bool {
        match self.buf.first() {
            None => false,
            Some(&BINARY_MAGIC) => {
                if self.buf.len() < HEADER_LEN {
                    return false;
                }
                if self.buf[1] != BINARY_WIRE_VERSION {
                    return true; // framing defect: next_frame will error
                }
                let len = u32::from_le_bytes(self.buf[4..8].try_into().unwrap()) as usize;
                len > self.limits.max_frame || self.buf.len() >= HEADER_LEN + len
            }
            Some(_) => self.buf.contains(&b'\n'),
        }
    }

    /// Pop the next complete frame.
    ///
    /// * `Ok(Some(frame))` — one complete frame, wire-sniffed;
    /// * `Ok(None)` — no complete frame buffered yet;
    /// * `Err(InvalidData)` — the partial frame already exceeds
    ///   [`FrameLimits::max_frame`], or a binary header declares an
    ///   unsupported version or an oversize length; the buffer is cleared
    ///   because framing is no longer trustworthy.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.buf.first() == Some(&BINARY_MAGIC) {
            return self.next_binary_frame();
        }
        if let Some(off) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let pos = self.scanned + off;
            let mut frame: Vec<u8> = self.buf.drain(..=pos).collect();
            frame.pop(); // the newline
            self.scanned = 0;
            return Ok(Some(Frame {
                wire: WireFormat::Json,
                bytes: frame,
            }));
        }
        self.scanned = self.buf.len();
        if self.buf.len() > self.limits.max_frame {
            self.poison();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame exceeds {} bytes", self.limits.max_frame),
            ));
        }
        Ok(None)
    }

    fn next_binary_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if self.buf[1] != BINARY_WIRE_VERSION {
            let got = self.buf[1];
            self.poison();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported binary wire version {got}"),
            ));
        }
        let len = u32::from_le_bytes(self.buf[4..8].try_into().unwrap()) as usize;
        if len > self.limits.max_frame {
            self.poison();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "binary frame of {len} bytes exceeds {} bytes",
                    self.limits.max_frame
                ),
            ));
        }
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let bytes: Vec<u8> = self.buf.drain(..HEADER_LEN + len).collect();
        self.scanned = 0;
        Ok(Some(Frame {
            wire: WireFormat::Binary,
            bytes,
        }))
    }

    fn poison(&mut self) {
        self.buf.clear();
        self.scanned = 0;
    }

    /// Drop everything buffered.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.scanned = 0;
    }
}

/// Incremental frame reader over any byte stream.
///
/// Unlike `BufRead::read_line`, a read timeout (`WouldBlock` /`TimedOut`)
/// surfaces as an error *without losing buffered partial data* — the server
/// uses short read timeouts to poll its shutdown flag, then resumes reading
/// the same frame.
pub struct FrameReader<R> {
    inner: R,
    frames: FrameBuffer,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a byte stream with default [`FrameLimits`].
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            frames: FrameBuffer::new(),
        }
    }

    /// Wrap a byte stream enforcing the given limits.
    pub fn with_limits(inner: R, limits: FrameLimits) -> Self {
        FrameReader {
            inner,
            frames: FrameBuffer::with_limits(limits),
        }
    }

    /// Bytes of an incomplete frame currently buffered. The server's drain
    /// path uses this to tell "client mid-send, wait for their frame" from
    /// "line is idle, close now".
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Read the next complete frame.
    ///
    /// * `Ok(Some(frame))` — one complete frame, wire-sniffed;
    /// * `Ok(None)` — clean end of stream (no partial frame pending);
    /// * `Err(e)` with `WouldBlock`/`TimedOut` — no complete frame *yet*;
    ///   call again, buffered bytes are kept;
    /// * other `Err` — stream error, over-long frame
    ///   ([`FrameLimits::max_frame`]), or a stream that ended mid-frame.
    pub fn read_frame(&mut self) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.frames.next_frame()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.frames.is_empty() {
                        return Ok(None);
                    }
                    self.frames.clear();
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ));
                }
                Ok(n) => self.frames.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::binary::K_PING;
    use crate::protocol::{BinaryCodec, Codec, StimPayload};
    use std::io::Cursor;

    #[test]
    fn frames_split_across_reads() {
        /// Yields one byte per read call.
        struct Trickle(Cursor<Vec<u8>>);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let mut r = FrameReader::new(Trickle(Cursor::new(b"abc\ndef\n".to_vec())));
        assert_eq!(r.read_frame().unwrap().unwrap().bytes, b"abc".to_vec());
        assert_eq!(r.read_frame().unwrap().unwrap().bytes, b"def".to_vec());
        assert!(r.read_frame().unwrap().is_none());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut r = FrameReader::new(Cursor::new(b"partial".to_vec()));
        assert!(r.read_frame().is_err());
    }

    #[test]
    fn frame_buffer_sniffs_codecs_per_frame() {
        let mut fb = FrameBuffer::new();
        fb.push(b"{\"op\":\"ping\"}\n");
        fb.push(&BinaryCodec.encode_request(&Request::Stats));
        let f1 = fb.next_frame().unwrap().unwrap();
        assert_eq!(f1.wire, WireFormat::Json);
        assert_eq!(f1.decode_request().unwrap(), Request::Ping);
        let f2 = fb.next_frame().unwrap().unwrap();
        assert_eq!(f2.wire, WireFormat::Binary);
        assert_eq!(f2.decode_request().unwrap(), Request::Stats);
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn partial_binary_frames_wait_for_more_bytes() {
        let frame = BinaryCodec.encode_request(&Request::Sim {
            model: "m".into(),
            stim: StimPayload::Text("1\n".into()),
            deadline_ms: None,
        });
        let mut fb = FrameBuffer::new();
        for (i, b) in frame.iter().enumerate() {
            assert!(
                fb.next_frame().unwrap().is_none(),
                "complete after {i} bytes?"
            );
            assert!(!fb.has_complete_frame());
            fb.push(&[*b]);
        }
        assert!(fb.has_complete_frame());
        assert_eq!(fb.next_frame().unwrap().unwrap().bytes, frame);
    }

    #[test]
    fn oversized_binary_length_poisons_the_stream() {
        let mut fb = FrameBuffer::with_limits(FrameLimits {
            max_frame: 1024,
            ..FrameLimits::default()
        });
        let mut hdr = vec![BINARY_MAGIC, BINARY_WIRE_VERSION, K_PING, 0];
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        fb.push(&hdr);
        assert!(fb.has_complete_frame(), "defect is actionable");
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("1024"), "{err}");
        assert!(fb.is_empty(), "poisoned buffer is cleared");
    }

    #[test]
    fn unsupported_binary_version_poisons_the_stream() {
        let mut fb = FrameBuffer::new();
        fb.push(&[BINARY_MAGIC, 99, K_PING, 0, 0, 0, 0, 0]);
        assert!(fb.has_complete_frame(), "defect is actionable");
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn shared_limits_bound_the_json_path_too() {
        let mut fb = FrameBuffer::with_limits(FrameLimits {
            max_frame: 8,
            ..FrameLimits::default()
        });
        fb.push(b"aaaaaaaaaaaaaaaa");
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("8 bytes"), "{err}");
    }
}
