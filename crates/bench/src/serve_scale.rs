//! Serving-scale experiment: how does request throughput grow with client
//! count under the event-loop server?
//!
//! The paper's thesis applied to serving: batch lanes are nearly free, so a
//! lone closed-loop client pays the full coalescing wait per request while
//! 64 concurrent clients amortize it across one forward pass — throughput
//! should scale roughly with the client count until the core saturates.
//! This module measures that curve end-to-end over real sockets (in-process
//! server, epoll event loop), probes behavior past saturation (every
//! rejection must be *typed* — a bench failure if anything comes back
//! garbled), and scrapes `/metrics` through the same HTTP path CI uses.

use c2nn_circuits::generators::counter;
use c2nn_core::{compile, CompileOptions};
use c2nn_hal::Choice;
use c2nn_serve::client::fetch_metrics;
use c2nn_serve::metrics::validate_exposition;
use c2nn_serve::scheduler::BatchConfig;
use c2nn_serve::server::{spawn_server, ServerConfig};
use c2nn_serve::{ArrivalMode, LoadgenConfig, RegistryConfig, WireFormat};
use std::time::Duration;

/// Width of the benchmark counter circuit.
const WIDTH: usize = 8;

/// One point on the scaling curve: `clients` closed-loop connections
/// hammering the server for a fixed wall-clock window.
#[derive(Clone, Debug, Default)]
pub struct ScaleRow {
    /// Concurrent closed-loop connections.
    pub clients: u64,
    /// Requests sent in the window.
    pub sent: u64,
    /// Successful replies.
    pub ok: u64,
    /// Successful replies per second.
    pub req_per_s: f64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
}

c2nn_json::json_struct!(ScaleRow {
    clients,
    sent,
    ok,
    req_per_s,
    p50_us,
    p99_us
});

/// Outcome of the past-saturation probe: open-loop arrivals well beyond
/// capacity, where the contract is *typed* shedding, not garbled frames.
#[derive(Clone, Debug, Default)]
pub struct OverloadProbe {
    /// Open-loop target arrival rate, req/s.
    pub target_rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Successful replies.
    pub ok: u64,
    /// Typed `Overloaded` rejections.
    pub overloaded: u64,
    /// Typed `DeadlineExceeded` rejections.
    pub deadline_exceeded: u64,
    /// Typed `ShuttingDown` rejections.
    pub shutting_down: u64,
    /// Transport errors / garbled replies — must be zero.
    pub failed: u64,
}

c2nn_json::json_struct!(OverloadProbe {
    target_rate,
    sent,
    ok,
    overloaded,
    deadline_exceeded,
    shutting_down,
    failed,
});

/// The full experiment result, as written to `results/BENCH_serve_scale.json`.
#[derive(Clone, Debug, Default)]
pub struct ScaleReport {
    /// Always `"EventLoop"`: the server has one connection driver per
    /// platform; the key stays so reports diff against older baselines.
    pub io: String,
    /// Coalescing window used, milliseconds.
    pub max_wait_ms: u64,
    /// Measurement window per client level, milliseconds.
    pub duration_ms: u64,
    /// The scaling curve.
    pub rows: Vec<ScaleRow>,
    /// Best throughput on the curve, req/s.
    pub best_req_per_s: f64,
    /// `best_req_per_s` over the single-client throughput.
    pub scaling: f64,
    /// Past-saturation probe.
    pub overload: OverloadProbe,
    /// Whether the `/metrics` scrape passed exposition validation.
    pub metrics_valid: bool,
}

c2nn_json::json_struct!(ScaleReport {
    io,
    max_wait_ms,
    duration_ms,
    rows,
    best_req_per_s,
    scaling,
    overload,
    metrics_valid,
});

/// Run the scaling sweep + overload probe + metrics scrape against a fresh
/// in-process server.
pub fn run_scale(levels: &[usize], duration: Duration, max_wait: Duration) -> ScaleReport {
    let server = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        registry: RegistryConfig {
            byte_budget: usize::MAX,
            batch: BatchConfig {
                max_batch: 256,
                max_wait,
                backend: Choice::Auto,
            },
            max_inflight: 4096,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start scale server");
    let nn = compile(&counter(WIDTH), CompileOptions::with_l(4)).expect("compile model");
    server.registry().install("ctr", nn).expect("install model");
    let addr = server.local_addr().to_string();

    let mut rows = Vec::new();
    for &clients in levels {
        let report = c2nn_serve::loadgen::run(&LoadgenConfig {
            addr: addr.clone(),
            model: "ctr".to_string(),
            stim: "1 x4\n".to_string(),
            connections: clients,
            mode: ArrivalMode::ClosedTimed { duration },
            deadline_ms: None,
            max_retries: 4,
            seed: 42,
            wire: WireFormat::Json,
        });
        eprintln!(
            "  {clients:>4} clients: {:>9.1} req/s  (p50 {}us, p99 {}us, {} ok / {} sent)",
            report.req_per_s, report.p50_us, report.p99_us, report.ok, report.sent
        );
        rows.push(ScaleRow {
            clients: clients as u64,
            sent: report.sent,
            ok: report.ok,
            req_per_s: report.req_per_s,
            p50_us: report.p50_us,
            p99_us: report.p99_us,
        });
    }
    let base = rows.first().map(|r| r.req_per_s).unwrap_or(0.0).max(1e-9);
    let best = rows.iter().map(|r| r.req_per_s).fold(0.0f64, f64::max);

    // past saturation: an open-loop schedule against a server whose
    // admission budget is a fraction of the arrival rate, so most arrivals
    // *must* be rejected — the contract under test is that every rejection
    // is typed (`Overloaded`/`DeadlineExceeded`), never a garbled frame or
    // a dropped connection
    let budgeted = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        registry: RegistryConfig {
            byte_budget: usize::MAX,
            batch: BatchConfig {
                max_batch: 4,
                max_wait,
                backend: Choice::Auto,
            },
            max_inflight: 8,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start budgeted server");
    let nn = compile(&counter(WIDTH), CompileOptions::with_l(4)).expect("compile model");
    budgeted
        .registry()
        .install("ctr", nn)
        .expect("install model");
    let target_rate = (best * 1.5).max(100.0);
    let probe = c2nn_serve::loadgen::run(&LoadgenConfig {
        addr: budgeted.local_addr().to_string(),
        model: "ctr".to_string(),
        stim: "1 x4\n".to_string(),
        connections: levels.iter().copied().max().unwrap_or(64),
        mode: ArrivalMode::Open {
            rate: target_rate,
            duration,
        },
        deadline_ms: Some(100),
        max_retries: 0,
        seed: 43,
        wire: WireFormat::Json,
    });
    eprintln!(
        "  overload @ {target_rate:.0} req/s vs budget 8: {} ok, {} overloaded, {} deadline, {} failed",
        probe.ok, probe.overloaded, probe.deadline_exceeded, probe.failed
    );
    budgeted.shutdown();
    budgeted.join();

    let metrics_valid = match fetch_metrics(&addr) {
        Ok(body) => match validate_exposition(&body) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("  metrics validation failed: {e}");
                false
            }
        },
        Err(e) => {
            eprintln!("  metrics scrape failed: {e}");
            false
        }
    };

    server.shutdown();
    server.join();

    ScaleReport {
        io: "EventLoop".to_string(),
        max_wait_ms: max_wait.as_millis() as u64,
        duration_ms: duration.as_millis() as u64,
        rows,
        best_req_per_s: best,
        scaling: best / base,
        overload: OverloadProbe {
            target_rate,
            sent: probe.sent,
            ok: probe.ok,
            overloaded: probe.overloaded,
            deadline_exceeded: probe.deadline_exceeded,
            shutting_down: probe.shutting_down,
            failed: probe.failed,
        },
        metrics_valid,
    }
}
