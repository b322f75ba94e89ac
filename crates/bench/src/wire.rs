//! Wire-codec throughput experiment: the same wide-I/O workload served
//! over the JSON and binary codecs, on the epoll event loop, pinned to
//! the bit-plane backend.
//!
//! The workload is chosen so codec CPU dominates: a 64-in/64-out random
//! DAG driven for 256 cycles means every JSON request parses a 256-line
//! `.stim` text and renders 256 output strings, while every binary
//! request moves the same bits as length-prefixed bit-plane words that
//! flow socket → backend with no per-lane parsing. The ratio between the
//! two is the price of the text wire — the binary codec must clear
//! `--min-ratio` (CI gates at 2×) at this batch depth.

use c2nn_circuits::generators::random_dag;
use c2nn_core::{compile, CompileOptions};
use c2nn_hal::Choice;
use c2nn_serve::scheduler::BatchConfig;
use c2nn_serve::server::{spawn_server, ServerConfig};
use c2nn_serve::{ArrivalMode, LoadgenConfig, RegistryConfig, WireFormat};
use std::time::Duration;

/// Primary inputs / outputs of the benchmark DAG (one plane word per
/// 64 cycles, so I/O is genuinely wide on both wires).
const WIDTH: usize = 256;

/// Internal gates of the benchmark DAG — kept shallow so the request's
/// cost is moving bits, not simulating gates (the wire is what's under
/// test; `serve_scale` covers compute-bound serving).
const GATES: usize = 32;

/// Stimulus cycles per request — the "batch ≥ 256" depth the binary
/// codec is gated at.
const CYCLES: usize = 256;

/// One codec's side of the comparison.
#[derive(Clone, Debug, Default)]
pub struct WireRow {
    /// Codec label (`"json"` / `"binary"`).
    pub codec: String,
    /// Requests sent in the window.
    pub sent: u64,
    /// Successful replies.
    pub ok: u64,
    /// Transport errors / garbled replies — must be zero.
    pub failed: u64,
    /// Successful replies per second.
    pub req_per_s: f64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
}

c2nn_json::json_struct!(WireRow {
    codec,
    sent,
    ok,
    failed,
    req_per_s,
    p50_us,
    p99_us
});

/// The full experiment result, as written to `results/BENCH_wire.json`.
#[derive(Clone, Debug, Default)]
pub struct WireReport {
    /// Primary inputs (= outputs) of the DAG.
    pub width: u64,
    /// Gates in the DAG.
    pub gates: u64,
    /// Stimulus cycles per request.
    pub cycles: u64,
    /// Concurrent closed-loop connections per codec run.
    pub connections: u64,
    /// Measurement window per codec, milliseconds.
    pub duration_ms: u64,
    /// The JSON-codec run.
    pub json: WireRow,
    /// The binary-codec run.
    pub binary: WireRow,
    /// `binary.req_per_s / json.req_per_s`.
    pub ratio: f64,
}

c2nn_json::json_struct!(WireReport {
    width,
    gates,
    cycles,
    connections,
    duration_ms,
    json,
    binary,
    ratio
});

/// Alternating 0/1 stimulus text: `CYCLES` lines of `WIDTH` bits with
/// every lane toggling, so packed planes are dense (no all-zero words for
/// the binary codec to luck into).
fn stim_text() -> String {
    let mut text = String::with_capacity(CYCLES * (WIDTH + 1));
    for c in 0..CYCLES {
        for i in 0..WIDTH {
            text.push(if (c + i) % 2 == 0 { '1' } else { '0' });
        }
        text.push('\n');
    }
    text
}

/// Run the two-codec comparison against a fresh in-process server.
pub fn run_wire(connections: usize, duration: Duration) -> WireReport {
    let server = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        registry: RegistryConfig {
            byte_budget: usize::MAX,
            batch: BatchConfig {
                max_batch: 256,
                max_wait: Duration::from_millis(1),
                backend: Choice::Named("bitplane".to_string()),
            },
            max_inflight: 4096,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start wire-bench server");
    let nl = random_dag(WIDTH, GATES, WIDTH, 0xB17_F1A6);
    let nn = compile(&nl, CompileOptions::with_l(4)).expect("compile DAG");
    server.registry().install("dag", nn).expect("install DAG");
    let addr = server.local_addr().to_string();
    let stim = stim_text();

    let run_one = |wire: WireFormat| -> WireRow {
        let report = c2nn_serve::loadgen::run(&LoadgenConfig {
            addr: addr.clone(),
            model: "dag".to_string(),
            stim: stim.clone(),
            connections,
            mode: ArrivalMode::ClosedTimed { duration },
            deadline_ms: None,
            max_retries: 4,
            seed: 7,
            wire,
        });
        eprintln!(
            "  {:>6}: {:>9.1} req/s  (p50 {}us, p99 {}us, {} ok / {} sent, {} failed)",
            wire.name(),
            report.req_per_s,
            report.p50_us,
            report.p99_us,
            report.ok,
            report.sent,
            report.failed
        );
        WireRow {
            codec: wire.name().to_string(),
            sent: report.sent,
            ok: report.ok,
            failed: report.failed,
            req_per_s: report.req_per_s,
            p50_us: report.p50_us,
            p99_us: report.p99_us,
        }
    };

    // JSON first, binary second; same server, same model, same stimulus
    let json = run_one(WireFormat::Json);
    let binary = run_one(WireFormat::Binary);

    server.shutdown();
    server.join();

    let ratio = binary.req_per_s / json.req_per_s.max(1e-9);
    WireReport {
        width: WIDTH as u64,
        gates: GATES as u64,
        cycles: CYCLES as u64,
        connections: connections as u64,
        duration_ms: duration.as_millis() as u64,
        json,
        binary,
        ratio,
    }
}
