//! Load generation: the open-loop driver for the serving layer.
//!
//! `c2nn client --clients N --repeat R` is a *closed loop*: each
//! connection waits for its reply before sending again, so a slow server
//! quietly throttles its own load and the measured latencies flatter it
//! (coordinated omission). This module is the **open loop** behind
//! `c2nn client --rate`: arrivals are scheduled on a fixed timetable at a
//! target rate, spread over hundreds of connections, and each request's
//! latency is measured from its *scheduled* time — a request that waited
//! behind a stalled predecessor is charged for the wait, which is what a
//! real client would experience. A shed request is a data point, never
//! retried.
//!
//! Typed rejections are first-class outcomes, not errors: an `Overloaded`
//! or `DeadlineExceeded` reply is counted in its own bucket (the server
//! shedding load gracefully is the behavior under test), while transport
//! errors and untyped failures count as `failed`.

use crate::client::{Backoff, Client, ClientError};
use crate::protocol::{stim_text_to_planes, WireFormat};
use c2nn_core::BitTensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load-generation run's parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Model name to simulate against (must already be loaded).
    pub model: String,
    /// `.stim` testbench text sent with every request.
    pub stim: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Target request rate across the whole fleet, req/s.
    pub rate: f64,
    /// How long the arrival schedule runs.
    pub duration: Duration,
    /// Optional per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// Connection attempts each worker retries before giving up (requests
    /// themselves are never retried).
    pub max_retries: u32,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
    /// Wire codec every worker connection speaks. Binary workers pack the
    /// stimulus into bit planes once and reuse it for every request, so
    /// the per-request cost is the codec itself, not `.stim` parsing.
    pub wire: WireFormat,
}

/// Outcome counts and latency percentiles for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadReport {
    /// Requests sent (including ones that came back as typed rejections).
    pub sent: u64,
    /// Successful `SimResult` replies.
    pub ok: u64,
    /// Typed `Overloaded` rejections.
    pub overloaded: u64,
    /// Typed `DeadlineExceeded` rejections.
    pub deadline_exceeded: u64,
    /// Typed `ShuttingDown` rejections.
    pub shutting_down: u64,
    /// Transport errors and untyped server errors.
    pub failed: u64,
    /// Connection retries performed.
    pub retries: u64,
    /// Wall-clock run time in seconds.
    pub elapsed_s: f64,
    /// Successful replies per second of wall-clock.
    pub req_per_s: f64,
    /// Median latency, microseconds (from scheduled time in open loop).
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

c2nn_json::json_struct!(LoadReport {
    sent,
    ok,
    overloaded,
    deadline_exceeded,
    shutting_down,
    failed,
    retries,
    elapsed_s,
    req_per_s,
    p50_us,
    p90_us,
    p99_us,
    max_us,
});

#[derive(Default)]
struct Counters {
    sent: AtomicU64,
    ok: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    shutting_down: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
}

impl Counters {
    /// Bucket one request outcome.
    fn record<T>(&self, outcome: &Result<T, ClientError>) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        let bucket = match outcome {
            Ok(_) => &self.ok,
            Err(ClientError::Overloaded { .. }) => &self.overloaded,
            Err(ClientError::DeadlineExceeded) => &self.deadline_exceeded,
            Err(ClientError::ShuttingDown) => &self.shutting_down,
            Err(_) => &self.failed,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run one load generation according to `cfg` and aggregate the outcome.
/// Spawns `cfg.connections` worker threads, each owning one connection
/// (re-established on transport failure within the retry budget).
pub fn run(cfg: &LoadgenConfig) -> LoadReport {
    let connections = cfg.connections.max(1);
    let counters = Arc::new(Counters::default());
    let start = Instant::now();
    let mut workers = Vec::with_capacity(connections);
    for worker_id in 0..connections {
        let cfg = cfg.clone();
        let counters = Arc::clone(&counters);
        workers.push(
            std::thread::Builder::new()
                .name(format!("c2nn-loadgen-{worker_id}"))
                .spawn(move || worker_loop(worker_id, connections, &cfg, &counters, start))
                .expect("spawn loadgen worker"),
        );
    }
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        latencies.extend(w.join().unwrap_or_default());
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    let ok = counters.ok.load(Ordering::Relaxed);
    LoadReport {
        sent: counters.sent.load(Ordering::Relaxed),
        ok,
        overloaded: counters.overloaded.load(Ordering::Relaxed),
        deadline_exceeded: counters.deadline_exceeded.load(Ordering::Relaxed),
        shutting_down: counters.shutting_down.load(Ordering::Relaxed),
        failed: counters.failed.load(Ordering::Relaxed),
        retries: counters.retries.load(Ordering::Relaxed),
        elapsed_s: elapsed,
        req_per_s: ok as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
    }
}

/// One worker's life: connect, then send arrivals `k, k+C, k+2C, …` of
/// the global schedule, each timed from its *scheduled* instant — a request
/// that starts late (predecessor stalled) is charged its wait, so there is
/// no coordinated omission. Returns this worker's latency samples (µs).
fn worker_loop(
    worker_id: usize,
    connections: usize,
    cfg: &LoadgenConfig,
    counters: &Counters,
    start: Instant,
) -> Vec<u64> {
    let mut backoff = Backoff::new(
        cfg.seed ^ (worker_id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        Duration::from_millis(2),
        Duration::from_millis(250),
    );
    let mut client =
        match Client::connect_with_retry(&cfg.addr, cfg.wire, &mut backoff, cfg.max_retries) {
            Ok((c, retries)) => {
                counters
                    .retries
                    .fetch_add(retries as u64, Ordering::Relaxed);
                Some(c)
            }
            Err(_) => None,
        };
    // binary workers pack the stimulus once; every request reuses the
    // planes (the point of the binary wire: no per-request parsing)
    let packed: Option<BitTensor> = match cfg.wire {
        WireFormat::Binary => stim_text_to_planes(&cfg.stim).ok(),
        WireFormat::Json => None,
    };
    let mut latencies = Vec::new();
    let rate = cfg.rate.max(1e-6);
    let mut i = worker_id as u64;
    loop {
        let offset = Duration::from_secs_f64(i as f64 / rate);
        if offset >= cfg.duration {
            break;
        }
        let scheduled = start + offset;
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        let outcome = match client.as_mut() {
            Some(c) => match &packed {
                Some(planes) => c
                    .sim_packed_with_deadline(&cfg.model, planes, cfg.deadline_ms)
                    .map(|_| ()),
                None => c
                    .sim_with_deadline(&cfg.model, &cfg.stim, cfg.deadline_ms)
                    .map(|_| ()),
            },
            None => Err(ClientError::Io(std::io::ErrorKind::NotConnected.into())),
        };
        if matches!(outcome, Err(ClientError::Io(_) | ClientError::Protocol(_))) {
            client = None; // transport is suspect; later arrivals fail fast
        }
        counters.record(&outcome);
        if outcome.is_ok() {
            latencies.push(scheduled.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
        i += connections as u64;
    }
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_indexing() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn report_roundtrips_as_json() {
        let r = LoadReport {
            sent: 10,
            ok: 8,
            overloaded: 2,
            elapsed_s: 1.5,
            req_per_s: 5.33,
            p50_us: 100,
            ..LoadReport::default()
        };
        let json = c2nn_json::ToJson::to_json(&r).to_string_compact();
        let parsed: LoadReport =
            c2nn_json::FromJson::from_json(&c2nn_json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn typed_outcomes_bucket_correctly() {
        let c = Counters::default();
        let err = |e: ClientError| -> Result<(), ClientError> { Err(e) };
        c.record(&Ok(()));
        c.record(&err(ClientError::Overloaded { retry_after_ms: 5 }));
        c.record(&err(ClientError::DeadlineExceeded));
        c.record(&err(ClientError::ShuttingDown));
        c.record(&err(ClientError::Server("boom".into())));
        assert_eq!(c.sent.load(Ordering::Relaxed), 5);
        assert_eq!(c.ok.load(Ordering::Relaxed), 1);
        assert_eq!(c.overloaded.load(Ordering::Relaxed), 1);
        assert_eq!(c.deadline_exceeded.load(Ordering::Relaxed), 1);
        assert_eq!(c.shutting_down.load(Ordering::Relaxed), 1);
        assert_eq!(c.failed.load(Ordering::Relaxed), 1);
    }
}
