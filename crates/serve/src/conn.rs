//! The connection state machine, sans I/O: bytes in, reply bytes and at
//! most one pending job out.
//!
//! A [`Connection`] owns every piece of per-connection protocol behaviour —
//! the HTTP sniff and scrape, per-frame codec sniffing, the [`WirePolicy`]
//! refusal, decode errors, `ping`/`stats`/`shutdown`, admission and
//! `load`/`sim` dispatch, one-request-in-flight ordering, the bounded write
//! buffer, half-close, framing-poison close and the drain answer — and
//! touches no socket, no poller and no clock (`now` is an argument). A
//! driver pumps it:
//!
//! ```text
//! socket ──read──▶ feed / close_read ─▶ advance ─▶ output / consume ──write──▶ socket
//!                                         │  ▲
//!                       submit_with hook ─┘  └─ complete   (via the driver's Completer)
//! ```
//!
//! * **HTTP sniffing**: a connection whose first four bytes are `GET ` is
//!   answered as an HTTP/1.1 scrape (`/metrics` → Prometheus exposition,
//!   anything else → 404) and closed; anything else is protocol frames,
//!   codec-sniffed per frame. A frame can never start with `GET ` (JSON
//!   frames open with `{`, binary frames with the `0xC2` magic), so the
//!   sniff cannot misfire.
//! * **One request in flight**: while a `sim` or `load` is pending,
//!   [`wants_read`](Connection::wants_read) is false and buffered frames
//!   wait, so replies need no ordering bookkeeping.
//! * **Bounded write buffer**: past [`WRITE_HIGH_WATERMARK`] queued reply
//!   bytes `wants_read` goes false until the peer drains them below
//!   [`WRITE_LOW_WATERMARK`]. A client that never reads stalls itself.
//! * **Drain is a state**: after [`begin_drain`](Connection::begin_drain)
//!   every complete frame is answered with a typed `ShuttingDown` in its own
//!   codec, and an idle line counts as finished. How long to keep pumping a
//!   line that is mid-frame is the driver's clock, not the core's.
//!
//! Every `sim` acquires an admission permit before it touches the
//! scheduler; past the global budget the client gets a typed
//! `Overloaded { retry_after_ms }` reply instead of unbounded queueing. The
//! permit is released only once the reply has been handed to the driver.

use crate::admission::AdmitError;
use crate::metrics;
use crate::protocol::{
    FrameBuffer, FrameLimits, Request, Response, SimOutputs, StimPayload, WireFormat,
    PROTOCOL_VERSION,
};
use crate::registry::Registry;
use crate::scheduler::{SimFailure, SimOutput};
use crate::server::WirePolicy;
use c2nn_core::CycleRows;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pause reads once this many reply bytes are queued unread by the client.
pub const WRITE_HIGH_WATERMARK: usize = 256 << 10;
/// Resume reads once the queued reply bytes drop below this.
pub const WRITE_LOW_WATERMARK: usize = 64 << 10;
/// An HTTP request-head larger than this is hostile; close.
const MAX_HTTP_HEAD: usize = 16 << 10;

/// What every connection of one server shares.
#[derive(Clone)]
pub struct Shared {
    /// Models, admission and the I/O gauges.
    pub registry: Arc<Registry>,
    /// Frame-size bound and the drain window.
    pub limits: FrameLimits,
    /// Which wire codecs frames may arrive in.
    pub wire: WirePolicy,
    /// Set by a `shutdown` frame (or the driver's owner) to stop the server.
    pub shutdown: Arc<AtomicBool>,
}

/// Where a finished `load`/`sim` is handed back, tagged with the token its
/// [`Connection::advance`] was given. Runs on the batcher (or load worker)
/// thread, so it must not block; the driver routes the reply to
/// [`Connection::complete`].
pub type Completer = Arc<dyn Fn(u64, Response) + Send + Sync>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// First bytes not seen yet: HTTP or framed protocol?
    Sniff,
    /// Codec-sniffed protocol frames (JSON lines or binary).
    Framed,
    /// An HTTP scrape: answer one request, then close.
    Http,
}

/// One client connection's protocol state. See the module docs.
pub struct Connection {
    frames: FrameBuffer,
    out: Vec<u8>,
    /// Bytes of `out` the driver has already written.
    sent: usize,
    mode: Mode,
    /// Codec of the most recent popped frame: replies (including drain and
    /// framing-error replies) answer in it.
    wire: WireFormat,
    /// A sim/load is in flight; reads pause and further frames wait.
    pending: bool,
    /// Flush `out`, then close (protocol violation, HTTP done, shutdown).
    closing: bool,
    /// Reads paused because `out` crossed the high watermark.
    throttled: bool,
    /// The client half-closed; serve what is buffered, then close.
    eof: bool,
    /// Every frame is answered `ShuttingDown`; an idle line is finished.
    draining: bool,
}

impl Connection {
    /// A fresh connection enforcing `limits` on its frames.
    pub fn new(limits: FrameLimits) -> Connection {
        Connection {
            frames: FrameBuffer::with_limits(limits),
            out: Vec::new(),
            sent: 0,
            mode: Mode::Sniff,
            wire: WireFormat::Json,
            pending: false,
            closing: false,
            throttled: false,
            eof: false,
            draining: false,
        }
    }

    /// Bytes read from the peer. Call [`advance`](Connection::advance) next.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.frames.push(bytes);
    }

    /// The peer sent FIN: what is buffered is still served (a half-closed
    /// client gets its pending reply), then the line is finished.
    pub fn close_read(&mut self) {
        self.eof = true;
    }

    /// The server is shutting down: from here on every complete frame is
    /// answered `ShuttingDown`, whatever it asked.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Reply bytes not yet written to the peer.
    pub fn output(&self) -> &[u8] {
        &self.out[self.sent..]
    }

    /// The driver wrote the first `n` bytes of [`output`](Connection::output).
    pub fn consume(&mut self, n: usize) {
        self.sent = (self.sent + n).min(self.out.len());
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        } else if self.sent > WRITE_LOW_WATERMARK {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
        if self.output().len() < WRITE_LOW_WATERMARK {
            self.throttled = false;
        }
    }

    /// Should the driver read from the peer? False while a job is pending,
    /// the write buffer is over its watermark, or the line is closing.
    pub fn wants_read(&self) -> bool {
        !self.pending && !self.closing && !self.throttled && !self.eof
    }

    /// Is a `load`/`sim` in flight, its reply due through the [`Completer`]?
    pub fn is_pending(&self) -> bool {
        self.pending
    }

    /// Nothing left to do on this line: the driver sends FIN and drops it.
    pub fn is_finished(&self) -> bool {
        if self.pending || !self.output().is_empty() {
            return false;
        }
        // complete frames still buffered keep a half-closed line; a bare
        // partial frame at EOF is a mid-frame close (framing defects count
        // as complete — they are popped to answer a typed error before FIN)
        self.closing
            || (self.draining && self.frames.is_empty())
            || (self.eof && !self.frames.has_complete_frame())
    }

    /// The pending job finished: queue its reply. Call
    /// [`advance`](Connection::advance) next — a pipelining client may have
    /// the next frame already buffered.
    pub fn complete(&mut self, resp: &Response, cx: &Shared) {
        self.pending = false;
        self.enqueue(resp, cx);
    }

    /// Run the state machine as far as the buffered bytes allow. A `load`
    /// or `sim` that passes admission leaves the connection pending; its
    /// reply arrives as `done(token, reply)`. `now` is when these bytes
    /// were read: request deadlines count from it.
    pub fn advance(&mut self, token: u64, now: Instant, cx: &Shared, done: &Completer) {
        while !self.closing {
            match self.mode {
                Mode::Sniff => {
                    let head = self.frames.peek();
                    let n = head.len().min(4);
                    if n == 0 {
                        return;
                    }
                    if head[..n] != b"GET "[..n] {
                        self.mode = Mode::Framed;
                    } else if n == 4 {
                        self.mode = Mode::Http;
                    } else {
                        return; // prefix still ambiguous; wait for bytes
                    }
                }
                Mode::Http => return self.try_http(cx),
                Mode::Framed => {
                    if self.pending {
                        return; // strict request/response: next frame waits
                    }
                    match self.frames.next_frame() {
                        Ok(Some(frame)) => {
                            self.wire = frame.wire;
                            let io = cx.registry.gauges();
                            io.record_frame_read(frame.wire, frame.len() as u64);
                            let reply = if self.draining {
                                // whatever the request was, the drain answer
                                // is the same, in the frame's own codec
                                Some(Response::ShuttingDown)
                            } else if !cx.wire.allows(frame.wire) {
                                // typed refusal in the client's codec, then
                                // close — never a hang
                                self.closing = true;
                                Some(cx.wire.rejection())
                            } else {
                                match frame.decode_request() {
                                    Ok(request) => self.dispatch(request, token, now, cx, done),
                                    Err(e) => Some(error(e)),
                                }
                            };
                            match reply {
                                Some(resp) => self.enqueue(&resp, cx),
                                None => self.pending = true,
                            }
                        }
                        Ok(None) => return,
                        Err(e) => {
                            // over-long or corrupt framing: the byte stream
                            // is no longer trustworthy
                            self.enqueue(&error(e), cx);
                            self.closing = true;
                        }
                    }
                }
            }
        }
    }

    /// Encode `resp` in the connection's current codec and queue it.
    fn enqueue(&mut self, resp: &Response, cx: &Shared) {
        let encoded = self.wire.codec().encode_response(resp);
        let io = cx.registry.gauges();
        io.record_frame_written(self.wire, encoded.len() as u64);
        self.out.extend_from_slice(&encoded);
        if !self.throttled && self.output().len() > WRITE_HIGH_WATERMARK {
            self.throttled = true;
            io.write_backpressure_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Answer one HTTP request (the scrape path) and mark the connection for
    /// close — `Connection: close` semantics, the scraper reads to EOF.
    fn try_http(&mut self, cx: &Shared) {
        let head = self.frames.peek();
        let Some(end) = headers_end(head) else {
            // a hostile header stream, or a head cut short by FIN
            self.closing = self.eof || head.len() > MAX_HTTP_HEAD;
            return;
        };
        let request_line = String::from_utf8_lossy(&head[..end]);
        let path = request_line.split_whitespace().nth(1).unwrap_or("");
        let body = if path == "/metrics" || path.starts_with("/metrics?") {
            let io = cx.registry.gauges();
            io.http_scrapes_total.fetch_add(1, Ordering::Relaxed);
            metrics::http_ok(&metrics::render_for(&cx.registry))
        } else {
            metrics::http_not_found()
        };
        self.frames.clear();
        self.out.extend_from_slice(&body);
        self.closing = true;
    }

    /// The one place a decoded request becomes a reply. Cheap requests
    /// answer inline (`Some`); a `sim` hands its lane to the scheduler and a
    /// `load` runs on a short-lived thread (rare, admission-gated, but
    /// parse+validate is too heavy to stall an I/O thread) — both return
    /// `None` and deliver through `done`.
    fn dispatch(
        &mut self,
        request: Request,
        token: u64,
        now: Instant,
        cx: &Shared,
        done: &Completer,
    ) -> Option<Response> {
        let registry = &cx.registry;
        match request {
            Request::Ping => Some(Response::Pong {
                version: PROTOCOL_VERSION,
            }),
            Request::Stats => Some(Response::Stats {
                models: registry.stats(),
                server: registry.server_report(),
            }),
            Request::Shutdown => {
                self.closing = true;
                registry.admission().begin_drain();
                cx.shutdown.store(true, Ordering::SeqCst);
                Some(Response::ShuttingDown)
            }
            Request::Load {
                name,
                model,
                deadline_ms,
            } => {
                if let Err(e) = registry.admission().try_admit_load() {
                    return Some(admit_error_response(e));
                }
                // a load that arrives already past its deadline is shed
                // before the expensive parse + validation
                if deadline_ms == Some(0) {
                    return Some(Response::DeadlineExceeded);
                }
                let (registry, done) = (Arc::clone(registry), Arc::clone(done));
                let worker = move || {
                    let response = match registry.load(&name, &model) {
                        Ok(model) => Response::Loaded {
                            name,
                            bytes: model.bytes as u64,
                        },
                        Err(message) => Response::Error { message },
                    };
                    done(token, response);
                };
                match std::thread::Builder::new()
                    .name("c2nn-load".to_string())
                    .spawn(worker)
                {
                    Ok(_) => None,
                    Err(_) => Some(error("server cannot spawn load worker")),
                }
            }
            Request::Sim {
                model,
                stim,
                deadline_ms,
            } => {
                // The permit spans admission → reply: it is what bounds
                // end-to-end in-flight work, not just queue depth.
                let permit = match registry.admission().try_admit_sim() {
                    Ok(p) => p,
                    Err(e) => return Some(admit_error_response(e)),
                };
                let Some(served) = registry.get(&model) else {
                    return Some(error(format!("unknown model '{model}' (load it first)")));
                };
                let depth = served.stats.queue_depth.load(Ordering::Relaxed);
                if let Err(e) = registry.admission().check_model_budget(depth) {
                    return Some(admit_error_response(e));
                }
                // The two wire shapes end here: either payload becomes the
                // one in-memory testbench, and the reply is rendered back
                // into the shape the request came in.
                let pi = served.nn.num_primary_inputs;
                let (rows, packed) = match stim {
                    StimPayload::Text(text) => match c2nn_core::parse_stim(&text, pi) {
                        Ok(s) => (CycleRows::from(s), false),
                        Err(e) => return Some(error(e)),
                    },
                    // the codec validated the plane shape; the width is the
                    // model's to check
                    StimPayload::Packed(planes) if planes.features() != pi => {
                        return Some(error(format!(
                            "stimulus planes carry {} input bits; model '{model}' expects {pi}",
                            planes.features()
                        )));
                    }
                    StimPayload::Packed(planes) => (CycleRows::from_planes(&planes), true),
                };
                // a deadline too far off to represent is no deadline
                let deadline =
                    deadline_ms.and_then(|ms| now.checked_add(Duration::from_millis(ms)));
                let done = Arc::clone(done);
                served.submit_with(
                    rows,
                    deadline,
                    Box::new(move |result| {
                        // runs on the batcher thread: format and hand over
                        done(token, sim_reply(result, packed));
                        drop(permit); // budget released only once the reply is queued
                    }),
                );
                None
            }
        }
    }
}

fn error(message: impl ToString) -> Response {
    Response::Error {
        message: message.to_string(),
    }
}

fn admit_error_response(e: AdmitError) -> Response {
    match e {
        AdmitError::Overloaded { retry_after_ms } => Response::Overloaded { retry_after_ms },
        AdmitError::ShuttingDown => Response::ShuttingDown,
    }
}

fn headers_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// Map a scheduler result to its wire reply, rendered `packed` (wire
/// planes) or as one MSB-first string per cycle — whichever the request was.
fn sim_reply(result: Result<SimOutput, SimFailure>, packed: bool) -> Response {
    match result {
        Ok(out) => Response::SimResult {
            cycles: out.num_cycles() as u64,
            outputs: if packed {
                SimOutputs::Packed(out.to_planes())
            } else {
                SimOutputs::Text(out.to_text())
            },
        },
        Err(SimFailure::DeadlineExceeded) => Response::DeadlineExceeded,
        Err(SimFailure::ShuttingDown) => Response::ShuttingDown,
        Err(failure @ SimFailure::Failed(_)) => error(failure),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_end_finds_both_separators() {
        assert_eq!(
            headers_end(b"GET / HTTP/1.1\r\nHost: x\r\n\r\nbody"),
            Some(27)
        );
        assert_eq!(headers_end(b"GET / HTTP/1.0\n\n"), Some(16));
        assert_eq!(headers_end(b"GET / HTTP/1.1\r\nHost"), None);
    }
}
