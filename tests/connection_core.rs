//! The sans-I/O connection core as deterministic in-memory schedules: no
//! sockets, no ports, no sleeps. Bytes go in through `feed`, jobs settle
//! through a channel-backed `Completer`, reply bytes come out of `output` —
//! so partial frames, pipelining, half-close, drain and backpressure are
//! exact interleavings instead of timing windows. Sim replies are checked
//! against `refsim::CycleSim`.

use c2nn::circuits::generators::counter;
use c2nn::core::{compile, parse_stim, BitTensor, CompileOptions};
use c2nn::hal::Choice;
use c2nn::refsim::CycleSim;
use c2nn::serve::conn::{WRITE_HIGH_WATERMARK, WRITE_LOW_WATERMARK};
use c2nn::serve::protocol::{stim_to_planes, BINARY_MAGIC};
use c2nn::serve::{
    BatchConfig, BinaryCodec, Codec, Completer, Connection, FrameBuffer, FrameLimits, JsonCodec,
    Registry, RegistryConfig, Request, Response, Shared, SimOutputs, StimPayload, WirePolicy,
    PROTOCOL_VERSION,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WIDTH: usize = 4;
const TOKEN: u64 = 7;

/// One server's worth of shared state plus the driver's half of the
/// completion hand-off, with a 4-bit counter installed as `ctr`.
struct Driver {
    cx: Shared,
    done: Completer,
    completions: Receiver<(u64, Response)>,
    now: Instant,
}

impl Driver {
    fn new(wire: WirePolicy, limits: FrameLimits) -> Driver {
        let registry = Arc::new(Registry::new(RegistryConfig {
            byte_budget: usize::MAX,
            batch: BatchConfig {
                max_batch: 4,
                max_wait: Duration::ZERO,
                backend: Choice::Named("scalar".to_string()),
            },
            ..RegistryConfig::default()
        }));
        let nn = compile(&counter(WIDTH), CompileOptions::with_l(4)).unwrap();
        registry.install("ctr", nn).unwrap();
        let (tx, completions) = channel();
        Driver {
            cx: Shared {
                registry,
                limits,
                wire,
                shutdown: Arc::new(AtomicBool::new(false)),
            },
            done: Arc::new(move |token, resp| drop(tx.send((token, resp)))),
            completions,
            now: Instant::now(),
        }
    }

    fn default() -> Driver {
        Driver::new(WirePolicy::Any, FrameLimits::default())
    }

    fn conn(&self) -> Connection {
        Connection::new(self.cx.limits)
    }

    fn advance(&self, conn: &mut Connection) {
        conn.advance(TOKEN, self.now, &self.cx, &self.done);
    }

    /// Hand the pending job's reply back, as a driver would.
    fn settle(&self, conn: &mut Connection) {
        let (token, resp) = self.completions.recv().unwrap();
        assert_eq!(
            token, TOKEN,
            "completions carry the token advance was given"
        );
        conn.complete(&resp, &self.cx);
        self.advance(conn);
    }

    /// Feed, run every job to completion, and take all reply bytes.
    fn pump(&self, conn: &mut Connection, bytes: &[u8]) -> Vec<u8> {
        conn.feed(bytes);
        self.advance(conn);
        while conn.is_pending() {
            self.settle(conn);
        }
        take_output(conn)
    }
}

fn take_output(conn: &mut Connection) -> Vec<u8> {
    let out = conn.output().to_vec();
    conn.consume(out.len());
    out
}

fn decode_replies(bytes: &[u8]) -> Vec<Response> {
    let mut frames = FrameBuffer::new();
    frames.push(bytes);
    let mut replies = Vec::new();
    while let Some(frame) = frames.next_frame().unwrap() {
        replies.push(frame.decode_response().unwrap());
    }
    assert!(frames.is_empty(), "replies end on a frame boundary");
    replies
}

fn pong() -> Response {
    Response::Pong {
        version: PROTOCOL_VERSION,
    }
}

fn sim_request(stim: StimPayload) -> Request {
    Request::Sim {
        model: "ctr".to_string(),
        stim,
        deadline_ms: None,
    }
}

/// What `CycleSim` says the counter outputs for this stimulus, per cycle,
/// LSB-first.
fn refsim_lanes(stim_text: &str) -> Vec<Vec<bool>> {
    let mut sim = CycleSim::new(&counter(WIDTH)).unwrap();
    let stim = parse_stim(stim_text, 1).unwrap();
    stim.cycles.iter().map(|cycle| sim.step(cycle)).collect()
}

fn refsim_strings(stim_text: &str) -> Vec<String> {
    refsim_lanes(stim_text)
        .iter()
        .map(|out| {
            out.iter()
                .rev()
                .map(|&b| if b { '1' } else { '0' })
                .collect()
        })
        .collect()
}

#[test]
fn a_pipelined_transcript_is_byte_identical_at_every_split_point() {
    let driver = Driver::default();
    let text = "1 x5\n0 x2\n1 x3\n";
    let packed = stim_to_planes(&parse_stim("1 x9\n", 1).unwrap());
    let mut transcript = Vec::new();
    transcript.extend(JsonCodec.encode_request(&Request::Ping));
    transcript.extend(JsonCodec.encode_request(&sim_request(text.into())));
    transcript.extend(b"{\"op\":\"sim\",,,\n");
    transcript.extend(JsonCodec.encode_request(&Request::Sim {
        model: "ghost".to_string(),
        stim: "1\n".into(),
        deadline_ms: None,
    }));
    transcript.extend(BinaryCodec.encode_request(&sim_request(packed.into())));

    let whole = driver.pump(&mut driver.conn(), &transcript);
    let replies = decode_replies(&whole);
    assert_eq!(replies.len(), 5, "one reply per frame, in order");
    assert!(matches!(replies[0], Response::Pong { .. }));
    assert_eq!(
        replies[1],
        Response::SimResult {
            outputs: SimOutputs::Text(refsim_strings(text)),
            cycles: 10,
        }
    );
    assert!(matches!(&replies[2], Response::Error { message } if message.contains("protocol")));
    assert!(
        matches!(&replies[3], Response::Error { message } if message.contains("unknown model 'ghost'"))
    );
    assert_eq!(
        replies[4],
        Response::SimResult {
            outputs: SimOutputs::Packed(BitTensor::from_lanes(&refsim_lanes("1 x9\n"))),
            cycles: 9,
        }
    );
    let binary_at = whole.iter().position(|&b| b == BINARY_MAGIC).unwrap();
    assert!(
        whole[..binary_at].ends_with(b"\n"),
        "the binary frame is answered in binary, the JSON frames in JSON"
    );

    for split in 1..transcript.len() {
        let mut conn = driver.conn();
        let mut out = driver.pump(&mut conn, &transcript[..split]);
        out.extend(driver.pump(&mut conn, &transcript[split..]));
        assert_eq!(out, whole, "split after byte {split}");
        assert!(conn.wants_read() && !conn.is_finished());
    }

    // stats counters move with every run above, so check it once, by field
    let stats = driver.pump(
        &mut driver.conn(),
        &JsonCodec.encode_request(&Request::Stats),
    );
    match &decode_replies(&stats)[..] {
        [Response::Stats { models, server }] => {
            assert_eq!(models.len(), 1);
            assert_eq!(models[0].name, "ctr");
            assert_eq!(models[0].requests, 2 * transcript.len() as u64);
            assert_eq!(models[0].queue_depth, 0);
            assert!(!server.draining);
            assert!(server.wire_json_frames > 0 && server.wire_binary_frames > 0);
        }
        other => panic!("wanted one stats reply, got {other:?}"),
    }
}

#[test]
fn the_reply_takes_the_shape_of_the_request_payload_in_either_codec() {
    // past `Connection` a testbench has one form; which wire shape the
    // reply is rendered in is remembered here, per request
    let driver = Driver::default();
    let text = "1 x70\n0 x3\n1 x57\n";
    let planes = stim_to_planes(&parse_stim(text, 1).unwrap());
    let want = refsim_lanes(text);
    for codec in [&JsonCodec as &dyn Codec, &BinaryCodec] {
        let mut bytes = codec.encode_request(&sim_request(text.into()));
        bytes.extend(codec.encode_request(&sim_request(planes.clone().into())));
        let out = driver.pump(&mut driver.conn(), &bytes);
        assert_eq!(
            decode_replies(&out),
            vec![
                Response::SimResult {
                    outputs: SimOutputs::Text(refsim_strings(text)),
                    cycles: 130,
                },
                Response::SimResult {
                    // canonical planes: ragged tails zero
                    outputs: SimOutputs::Packed(BitTensor::from_lanes(&want)),
                    cycles: 130,
                },
            ]
        );
        let reply = SimOutputs::Packed(BitTensor::from_lanes(&want));
        assert_eq!(reply.to_strings(), refsim_strings(text));
        let expect_binary = codec.encode_request(&Request::Ping)[0] == BINARY_MAGIC;
        assert_eq!(
            out[0] == BINARY_MAGIC,
            expect_binary,
            "replies in the frame's codec"
        );
    }
}

#[test]
fn a_repeat_bomb_gets_one_typed_error_and_the_line_keeps_serving() {
    // each repeat is within its bound; expanded, the 2 KB frame would be
    // 1.8e8 cycles (over 5 GB of bit vectors)
    let driver = Driver::default();
    let bomb = "1 x1000000\n".repeat(180);
    let text = "1 x6\n0\n1 x2\n";
    for codec in [&JsonCodec as &dyn Codec, &BinaryCodec] {
        let mut conn = driver.conn();
        let mut bytes = codec.encode_request(&sim_request(bomb.as_str().into()));
        bytes.extend(codec.encode_request(&sim_request(text.into())));
        let replies = decode_replies(&driver.pump(&mut conn, &bytes));
        match &replies[..] {
            [Response::Error { message }, served] => {
                assert!(
                    message.contains("line 2: testbench exceeds 1000000 cycles"),
                    "{message}"
                );
                assert_eq!(
                    *served,
                    Response::SimResult {
                        outputs: SimOutputs::Text(refsim_strings(text)),
                        cycles: 9,
                    }
                );
            }
            other => panic!("wanted one typed error then the next sim, got {other:?}"),
        }
        assert!(conn.wants_read() && !conn.is_finished());
    }
}

#[test]
fn only_a_get_prefix_sniffs_http() {
    let driver = Driver::default();
    let mut conn = driver.conn();
    assert!(driver.pump(&mut conn, b"GE").is_empty());
    assert!(
        conn.wants_read() && !conn.is_finished(),
        "prefix still ambiguous"
    );
    let scrape = driver.pump(&mut conn, b"T /metrics HTTP/1.1\r\nHost: c2nn\r\n\r\n");
    let scrape = String::from_utf8(scrape).unwrap();
    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
    assert!(
        scrape.contains("# TYPE c2nn_requests_total counter"),
        "{scrape}"
    );
    assert!(conn.is_finished(), "one scrape, then close");

    let mut conn = driver.conn();
    let not_found = driver.pump(&mut conn, b"GET /nope HTTP/1.0\n\n");
    assert!(not_found.starts_with(b"HTTP/1.1 404"));
    assert!(conn.is_finished());

    // a frame never sniffs as HTTP, however slowly it arrives
    let mut conn = driver.conn();
    let mut out = Vec::new();
    for byte in JsonCodec.encode_request(&Request::Ping) {
        out.extend(driver.pump(&mut conn, &[byte]));
    }
    assert!(matches!(&decode_replies(&out)[..], [Response::Pong { .. }]));
    assert!(!conn.is_finished());
}

#[test]
fn framing_poison_gets_one_typed_error_then_the_line_is_finished() {
    let driver = Driver::new(
        WirePolicy::Any,
        FrameLimits {
            max_frame: 1024,
            ..FrameLimits::default()
        },
    );
    let mut oversize = vec![BINARY_MAGIC, 1, 0x01, 0];
    oversize.extend(u32::MAX.to_le_bytes());
    let bad_version = [BINARY_MAGIC, 99, 0x01, 0, 0, 0, 0, 0];
    for (poison, needle) in [
        (&oversize[..], "exceeds 1024 bytes"),
        (&bad_version[..], "version 99"),
    ] {
        let mut conn = driver.conn();
        // a good frame first: the poison reply answers in the codec the
        // connection last spoke
        let mut bytes = BinaryCodec.encode_request(&Request::Ping);
        bytes.extend(poison);
        bytes.extend(BinaryCodec.encode_request(&Request::Ping)); // never answered
        let out = driver.pump(&mut conn, &bytes);
        assert!(!conn.wants_read());
        assert!(conn.is_finished());
        match &decode_replies(&out)[..] {
            [Response::Pong { .. }, Response::Error { message }] => {
                assert!(message.contains(needle), "{message}")
            }
            other => panic!("wanted pong then one typed error, got {other:?}"),
        }
        let pong = BinaryCodec.encode_response(&pong()).len();
        assert_eq!(out[pong], BINARY_MAGIC, "the error is a binary frame too");
    }
}

#[test]
fn json_only_refuses_a_binary_frame_in_the_binary_codec() {
    let driver = Driver::new(WirePolicy::JsonOnly, FrameLimits::default());
    let mut conn = driver.conn();
    let mut bytes = JsonCodec.encode_request(&Request::Ping);
    bytes.extend(BinaryCodec.encode_request(&Request::Ping));
    let out = driver.pump(&mut conn, &bytes);
    match &decode_replies(&out)[..] {
        [Response::Pong { .. }, Response::Error { message }] => {
            assert!(message.contains("JSON-only"), "{message}")
        }
        other => panic!("wanted pong then the typed refusal, got {other:?}"),
    }
    let refusal_at = out.iter().position(|&b| b == b'\n').unwrap() + 1;
    assert_eq!(
        out[refusal_at], BINARY_MAGIC,
        "the refusal is readable by the client that caused it"
    );
    assert!(conn.is_finished());
}

#[test]
fn a_half_closed_line_still_gets_its_pending_reply() {
    let driver = Driver::default();
    let mut conn = driver.conn();
    conn.feed(&JsonCodec.encode_request(&sim_request("1 x6\n".into())));
    // a second frame, cut short by the FIN: dropped, not answered
    conn.feed(b"{\"op\":\"pi");
    driver.advance(&mut conn);
    assert!(conn.is_pending() && !conn.wants_read());
    conn.close_read();
    assert!(!conn.is_finished(), "the reply is still owed");
    driver.settle(&mut conn);
    assert_eq!(
        decode_replies(&take_output(&mut conn)),
        vec![Response::SimResult {
            outputs: SimOutputs::Text(refsim_strings("1 x6\n")),
            cycles: 6,
        }]
    );
    assert!(conn.is_finished());
}

#[test]
fn drain_answers_a_frame_completed_mid_drain_in_its_own_codec() {
    let driver = Driver::default();
    for codec in [&JsonCodec as &dyn Codec, &BinaryCodec] {
        // the request would be refused if it were decoded: drain never looks
        let frame = codec.encode_request(&sim_request("not a stimulus".into()));
        let (head, tail) = frame.split_at(frame.len() / 2);
        let mut conn = driver.conn();
        assert!(driver.pump(&mut conn, head).is_empty());
        conn.begin_drain();
        driver.advance(&mut conn);
        assert!(
            conn.wants_read() && !conn.is_finished(),
            "a line mid-frame gets to finish it"
        );
        let out = driver.pump(&mut conn, tail);
        assert_eq!(decode_replies(&out), vec![Response::ShuttingDown]);
        assert_eq!(out, codec.encode_response(&Response::ShuttingDown));
        assert!(conn.is_finished(), "an idle draining line is done");
    }
    // a job in flight when the drain begins is waited for, and the frame
    // pipelined behind it gets the drain answer
    let mut conn = driver.conn();
    conn.feed(&JsonCodec.encode_request(&sim_request("1 x3\n".into())));
    conn.feed(&BinaryCodec.encode_request(&Request::Ping));
    driver.advance(&mut conn);
    conn.begin_drain();
    assert!(conn.is_pending() && !conn.is_finished());
    driver.settle(&mut conn);
    assert_eq!(
        decode_replies(&take_output(&mut conn)),
        vec![
            Response::SimResult {
                outputs: SimOutputs::Text(refsim_strings("1 x3\n")),
                cycles: 3,
            },
            Response::ShuttingDown,
        ]
    );
    assert!(conn.is_finished());
    assert!(
        !driver.cx.shutdown.load(Ordering::SeqCst),
        "draining a line is not a shutdown request"
    );
}

#[test]
fn the_write_buffer_pauses_reads_between_its_watermarks() {
    let driver = Driver::default();
    let mut conn = driver.conn();
    let ping = JsonCodec.encode_request(&Request::Ping);
    let pong = JsonCodec.encode_response(&pong()).len();
    conn.feed(&ping.repeat(WRITE_HIGH_WATERMARK / pong));
    driver.advance(&mut conn);
    assert!(conn.output().len() <= WRITE_HIGH_WATERMARK);
    assert!(conn.wants_read(), "at the watermark, not over it");
    conn.feed(&ping);
    driver.advance(&mut conn);
    assert!(!conn.wants_read(), "over the high watermark");
    let backpressure = &driver.cx.registry.gauges().write_backpressure_total;
    assert_eq!(backpressure.load(Ordering::Relaxed), 1);

    conn.consume(conn.output().len() - WRITE_LOW_WATERMARK);
    assert!(!conn.wants_read(), "still at the low watermark");
    conn.consume(1);
    assert!(conn.wants_read(), "under the low watermark");
    assert!(!conn.is_finished());
}
