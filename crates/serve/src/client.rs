//! Blocking client for the serving protocol — used by the `c2nn client`
//! CLI, the load generator, and the integration tests.
//!
//! Overload is part of the protocol, so it is part of the client: typed
//! rejections ([`Response::Overloaded`], [`Response::DeadlineExceeded`],
//! [`Response::ShuttingDown`]) surface as their own [`ClientError`]
//! variants rather than opaque strings, and [`Backoff`] implements the
//! capped, jittered, deterministic exponential backoff the load generator
//! uses to retry transient failures without synchronized retry storms.

use crate::chaos::Rng;
use crate::protocol::{
    write_wire_frame, FrameReader, ModelStatsReport, ProtocolError, Request, Response,
    ServerStatsReport, SimOutputs, StimPayload, WireFormat,
};
use c2nn_core::{BitTensor, CycleRows};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Fetch the Prometheus exposition from a server's `/metrics` endpoint
/// (spoken over the same port as the framed protocol — the server sniffs
/// `GET `). Returns the response body.
pub fn fetch_metrics(addr: &str) -> Result<String, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: c2nn\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| {
        ClientError::Protocol(ProtocolError {
            message: "metrics response is not UTF-8".into(),
        })
    })?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| {
        ClientError::Protocol(ProtocolError {
            message: "malformed HTTP response".into(),
        })
    })?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or("").to_string();
        return Err(ClientError::Server(format!(
            "metrics scrape failed: {status}"
        )));
    }
    Ok(body.to_string())
}

/// One connection to a c2nn server. Strictly request/response: each helper
/// sends one frame and blocks for one reply. The wire codec is chosen at
/// connect time ([`Client::connect_wire`]); replies are decoded by their
/// own sniffed codec, so a server is free to answer in either.
pub struct Client {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    wire: WireFormat,
}

/// Client-side failures: transport errors, protocol violations, typed
/// overload/shutdown rejections, or an `Error` response from the server.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent something undecodable.
    Protocol(ProtocolError),
    /// The server replied with an error message.
    Server(String),
    /// The server refused the request under load; retry after the hint.
    Overloaded {
        /// Server-suggested retry delay in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before the server could run it.
    DeadlineExceeded,
    /// The server is draining and refused the request.
    ShuttingDown,
    /// The server replied with a well-formed but unexpected response kind.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded (retry after {retry_after_ms}ms)")
            }
            ClientError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ClientError::ShuttingDown => write!(f, "server shutting down"),
            ClientError::Unexpected(what) => {
                write!(f, "unexpected response (wanted {what})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Is this failure worth retrying on a fresh connection after a
    /// backoff? Covers connection-level races (refused/reset mid-restart,
    /// server closed while we were queued) and typed `Overloaded`
    /// rejections. `ShuttingDown`, deadline misses, and real server errors
    /// are not transient: retrying them immediately is either futile or
    /// wrong.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Overloaded { .. } => true,
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::Interrupted
            ),
            _ => false,
        }
    }

    /// The server's retry hint, if this error carried one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Overloaded { retry_after_ms } => {
                Some(Duration::from_millis(*retry_after_ms))
            }
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// One `stats` reply: per-model counters plus the server-wide
/// overload/health block.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Per-model serving counters.
    pub models: Vec<ModelStatsReport>,
    /// Server-wide admission/pressure/chaos counters.
    pub server: ServerStatsReport,
}

/// Capped exponential backoff with equal jitter, driven by the same
/// deterministic RNG as the chaos harness: a load-generator run with a
/// fixed seed retries on an identical schedule every time.
#[derive(Clone, Debug)]
pub struct Backoff {
    rng: Rng,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// Backoff starting at `base`, doubling per attempt, never exceeding
    /// `cap`.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff {
            rng: Rng::new(seed),
            base: base.max(Duration::from_millis(1)),
            cap,
            attempt: 0,
        }
    }

    /// Forget accumulated attempts (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Attempts since the last [`reset`](Self::reset).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay: `base * 2^attempt` jittered into `[d/2, d]`,
    /// floored by the server's `retry_after` hint if one was given, capped
    /// at `cap`.
    pub fn next_delay(&mut self, hint: Option<Duration>) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let jittered = self.rng.jitter(exp);
        jittered.max(hint.unwrap_or(Duration::ZERO)).min(self.cap)
    }
}

impl Client {
    /// Connect to `addr` (`host:port`) speaking JSON (every server
    /// version understands it).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_wire(addr, WireFormat::Json)
    }

    /// Connect speaking `wire`. No handshake round-trip is needed: the
    /// server sniffs the codec from the first byte of each frame.
    pub fn connect_wire(addr: &str, wire: WireFormat) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: FrameReader::new(stream),
            wire,
        })
    }

    /// The codec this client encodes requests in.
    pub fn wire(&self) -> WireFormat {
        self.wire
    }

    /// Connect speaking `wire`, retrying transient failures (connection
    /// refused/reset) up to `max_retries` times under `backoff`. Returns
    /// the client and how many retries it took.
    pub fn connect_with_retry(
        addr: &str,
        wire: WireFormat,
        backoff: &mut Backoff,
        max_retries: u32,
    ) -> Result<(Client, u32), ClientError> {
        let mut retries = 0;
        loop {
            match Client::connect_wire(addr, wire) {
                Ok(c) => return Ok((c, retries)),
                Err(e) if e.is_transient() && retries < max_retries => {
                    std::thread::sleep(backoff.next_delay(e.retry_after()));
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send one request and block for its response. Typed rejections
    /// (`Overloaded`, `DeadlineExceeded`) become typed errors;
    /// `ShuttingDown` passes through as a response because for a
    /// `shutdown` request it is the success ack — helpers that did not ask
    /// for it map it to [`ClientError::ShuttingDown`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_wire_frame(&mut self.writer, &self.wire.codec().encode_request(req))?;
        let frame = loop {
            match self.reader.read_frame() {
                Ok(Some(f)) => break f,
                Ok(None) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection before replying",
                    )))
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        };
        match frame.decode_response()? {
            Response::Error { message } => Err(ClientError::Server(message)),
            Response::Overloaded { retry_after_ms } => {
                Err(ClientError::Overloaded { retry_after_ms })
            }
            Response::DeadlineExceeded => Err(ClientError::DeadlineExceeded),
            resp => Ok(resp),
        }
    }

    /// Liveness probe; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u32, ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            _ => Err(ClientError::Unexpected("pong")),
        }
    }

    /// Load a compiled-model JSON document under `name`; returns its size
    /// in bytes as accounted by the registry.
    pub fn load(&mut self, name: &str, model_json: &str) -> Result<u64, ClientError> {
        let req = Request::Load {
            name: name.to_string(),
            model: model_json.as_bytes().to_vec(),
            deadline_ms: None,
        };
        match self.request(&req)? {
            Response::Loaded { bytes, .. } => Ok(bytes),
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            _ => Err(ClientError::Unexpected("loaded")),
        }
    }

    /// Run one `.stim` testbench; returns per-cycle MSB-first output
    /// strings. Convenience wrapper over [`sim_with_deadline`](Self::sim_with_deadline)
    /// with no deadline.
    pub fn sim(&mut self, model: &str, stim: &str) -> Result<Vec<String>, ClientError> {
        self.sim_with_deadline(model, stim, None)
    }

    /// Run one `.stim` testbench with an optional end-to-end deadline in
    /// milliseconds; a request the server cannot start in time comes back
    /// as [`ClientError::DeadlineExceeded`] instead of a late answer.
    /// The stimulus rides as text under either codec (the server parses
    /// it, so `.stim` repeat syntax keeps its exact semantics); use
    /// [`sim_packed`](Self::sim_packed) for the zero-parse hot path.
    pub fn sim_with_deadline(
        &mut self,
        model: &str,
        stim: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Vec<String>, ClientError> {
        let req = Request::Sim {
            model: model.to_string(),
            stim: StimPayload::Text(stim.to_string()),
            deadline_ms,
        };
        match self.request(&req)? {
            Response::SimResult { outputs, .. } => Ok(outputs.to_strings()),
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            _ => Err(ClientError::Unexpected("sim result")),
        }
    }

    /// Run one testbench that is already packed as feature-major bit
    /// planes (features = primary inputs, batch = cycles); the reply comes
    /// back packed the same way (features = primary outputs). Under the
    /// binary codec, neither direction is parsed per lane anywhere —
    /// socket bytes are the simulator's working representation.
    pub fn sim_packed(&mut self, model: &str, stim: &BitTensor) -> Result<BitTensor, ClientError> {
        self.sim_packed_with_deadline(model, stim, None)
    }

    /// [`sim_packed`](Self::sim_packed) with an optional end-to-end
    /// deadline in milliseconds.
    pub fn sim_packed_with_deadline(
        &mut self,
        model: &str,
        stim: &BitTensor,
        deadline_ms: Option<u64>,
    ) -> Result<BitTensor, ClientError> {
        let req = Request::Sim {
            model: model.to_string(),
            stim: StimPayload::Packed(stim.clone()),
            deadline_ms,
        };
        match self.request(&req)? {
            Response::SimResult {
                outputs: SimOutputs::Packed(planes),
                ..
            } => Ok(planes),
            // servers answer in the request's shape, but a text reply is
            // legal on the wire and carries the same bits
            Response::SimResult {
                outputs: SimOutputs::Text(lines),
                ..
            } => match CycleRows::from_text(&lines) {
                Ok(rows) => Ok(rows.to_planes()),
                Err(e) => Err(ClientError::Protocol(ProtocolError {
                    message: format!("sim result text: {e}"),
                })),
            },
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            _ => Err(ClientError::Unexpected("sim result")),
        }
    }

    /// Fetch per-model serving counters plus the server-wide overload
    /// block.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { models, server } => Ok(StatsSnapshot { models, server }),
            Response::ShuttingDown => Err(ClientError::ShuttingDown),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// Ask the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected("shutdown ack")),
        }
    }

    /// Flush any buffered writes (frames flush eagerly; this is a no-op
    /// safety valve for symmetry).
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_respects_hints() {
        let mut b = Backoff::new(7, Duration::from_millis(10), Duration::from_millis(200));
        let d1 = b.next_delay(None);
        assert!(
            d1 >= Duration::from_millis(5) && d1 <= Duration::from_millis(10),
            "{d1:?}"
        );
        for _ in 0..10 {
            assert!(b.next_delay(None) <= Duration::from_millis(200), "capped");
        }
        // a server hint floors the delay
        b.reset();
        let hinted = b.next_delay(Some(Duration::from_millis(50)));
        assert!(hinted >= Duration::from_millis(50), "{hinted:?}");
        assert!(hinted <= Duration::from_millis(200));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mut a = Backoff::new(3, Duration::from_millis(10), Duration::from_secs(1));
        let mut b = Backoff::new(3, Duration::from_millis(10), Duration::from_secs(1));
        for _ in 0..20 {
            assert_eq!(a.next_delay(None), b.next_delay(None));
        }
    }

    #[test]
    fn transient_classification() {
        assert!(ClientError::Overloaded { retry_after_ms: 5 }.is_transient());
        assert!(
            ClientError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"))
                .is_transient()
        );
        assert!(!ClientError::ShuttingDown.is_transient());
        assert!(!ClientError::DeadlineExceeded.is_transient());
        assert!(!ClientError::Server("boom".into()).is_transient());
        assert_eq!(
            ClientError::Overloaded { retry_after_ms: 7 }.retry_after(),
            Some(Duration::from_millis(7))
        );
    }
}
