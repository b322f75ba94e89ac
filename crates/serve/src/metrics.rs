//! Prometheus text exposition (format 0.0.4) over the serving stats.
//!
//! The serving layer already keeps relaxed-atomic counters and log-bucketed
//! latency histograms per model ([`crate::stats`]) plus server-wide
//! overload counters ([`crate::admission`]). This module renders all of it
//! — together with the event loop's own I/O gauges ([`IoGauges`]) — in the
//! Prometheus text exposition format, served on `GET /metrics` by both
//! server I/O models and dumped by `c2nn client --metrics`.
//!
//! Three deliberate properties:
//!
//! * **Render is a snapshot, not a lock.** Every value is one relaxed
//!   atomic load; a scrape racing live traffic may see a histogram bucket
//!   before its `_count`, which Prometheus tolerates (counters are
//!   monotone, rates smooth it out).
//! * **The renderer has a parser next to it.** [`parse_exposition`] and
//!   [`validate_exposition`] exist so CI can scrape `/metrics` and prove
//!   the output well-formed (every `# TYPE` matched by samples, no
//!   duplicate series, histogram buckets cumulative) instead of eyeballing
//!   it — and so proptest can round-trip render → parse.
//! * **Latency buckets are the histogram's own.** `le` boundaries come
//!   from [`crate::stats::bucket_upper_bound_us`], so the wire exposition
//!   and the in-process quantiles can never disagree about bucketing.

use crate::protocol::WireFormat;
use crate::registry::Registry;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// MIME type of the exposition, as expected by Prometheus scrapers.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Connection-level gauges and counters, owned by the registry so the
/// connection core and whichever driver pumps it feed the same series.
#[derive(Default)]
pub struct IoGauges {
    /// Connections currently open (accepted, not yet closed).
    pub open_connections: AtomicU64,
    /// Connections accepted since start.
    pub accepted_total: AtomicU64,
    /// Readiness wakeups: `epoll_wait` returns (event loop) — 0 under the
    /// blocking pump, which has no readiness notion.
    pub readiness_wakeups_total: AtomicU64,
    /// Completions queued by batcher threads, not yet drained by the event
    /// loop.
    pub completion_queue_depth: AtomicU64,
    /// `GET /metrics` scrapes answered.
    pub http_scrapes_total: AtomicU64,
    /// Times a connection's write buffer crossed the high watermark and
    /// reads were paused (TCP backpressure engaged).
    pub write_backpressure_total: AtomicU64,
    /// Protocol frames decoded off sockets.
    pub frames_read_total: AtomicU64,
    /// Protocol frames written back to sockets.
    pub frames_written_total: AtomicU64,
    /// Frames handled (read + written) on the JSON codec.
    pub wire_json_frames: AtomicU64,
    /// Frames handled (read + written) on the binary codec.
    pub wire_binary_frames: AtomicU64,
    /// Wire bytes read on the JSON codec.
    pub wire_json_bytes_in: AtomicU64,
    /// Wire bytes written on the JSON codec.
    pub wire_json_bytes_out: AtomicU64,
    /// Wire bytes read on the binary codec.
    pub wire_binary_bytes_in: AtomicU64,
    /// Wire bytes written on the binary codec.
    pub wire_binary_bytes_out: AtomicU64,
}

impl IoGauges {
    /// Record one request frame of `bytes` wire bytes decoded on `wire`:
    /// bumps the codec-agnostic read counter plus the per-codec series.
    pub fn record_frame_read(&self, wire: WireFormat, bytes: u64) {
        self.frames_read_total.fetch_add(1, Ordering::Relaxed);
        let (frames, bytes_in) = match wire {
            WireFormat::Json => (&self.wire_json_frames, &self.wire_json_bytes_in),
            WireFormat::Binary => (&self.wire_binary_frames, &self.wire_binary_bytes_in),
        };
        frames.fetch_add(1, Ordering::Relaxed);
        bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one response frame of `bytes` wire bytes encoded on `wire`.
    pub fn record_frame_written(&self, wire: WireFormat, bytes: u64) {
        self.frames_written_total.fetch_add(1, Ordering::Relaxed);
        let (frames, bytes_out) = match wire {
            WireFormat::Json => (&self.wire_json_frames, &self.wire_json_bytes_out),
            WireFormat::Binary => (&self.wire_binary_frames, &self.wire_binary_bytes_out),
        };
        frames.fetch_add(1, Ordering::Relaxed);
        bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Frames handled so far on `wire` (read + written).
    pub fn wire_frames(&self, wire: WireFormat) -> u64 {
        match wire {
            WireFormat::Json => self.wire_json_frames.load(Ordering::Relaxed),
            WireFormat::Binary => self.wire_binary_frames.load(Ordering::Relaxed),
        }
    }
}

/// Kind of a metric family, controlling the `# TYPE` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing.
    Counter,
    /// Free-running value.
    Gauge,
    /// Cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Full sample name (for histograms this includes the `_bucket` /
    /// `_sum` / `_count` suffix).
    pub name: String,
    /// Label pairs, in render order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

impl Sample {
    fn new(name: impl Into<String>, labels: &[(&str, &str)], value: f64) -> Sample {
        Sample {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }
}

/// One metric family: a `# HELP` + `# TYPE` header and its samples.
#[derive(Clone, Debug)]
pub struct Family {
    /// Family name (histogram samples append their suffixes to it).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Samples, rendered in order.
    pub samples: Vec<Sample>,
}

impl Family {
    fn new(name: &str, help: &str, kind: MetricKind) -> Family {
        Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        }
    }
}

/// Escape a label value for the exposition format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text: `\` → `\\`, newline → `\n`.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        // `{}` prints the shortest representation that round-trips f64
        format!("{v}")
    }
}

/// Render families to exposition text. Deterministic: same families in,
/// same bytes out.
pub fn render(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
        let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
        for s in &f.samples {
            out.push_str(&s.name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{k}=\"{}\"", escape_label(v));
                }
                out.push('}');
            }
            out.push(' ');
            out.push_str(&fmt_value(s.value));
            out.push('\n');
        }
    }
    out
}

fn load(a: &AtomicU64) -> f64 {
    a.load(Ordering::Relaxed) as f64
}

/// Snapshot every serving metric into families: per-model counters and
/// latency histograms, server-wide admission counters, per-backend
/// occupancy, and the I/O gauges.
pub fn gather(registry: &Registry) -> Vec<Family> {
    let models = registry.stats();
    let server = registry.server_report();
    let io = registry.gauges();

    let mut fams = Vec::new();

    // --- per-model counters ---------------------------------------------
    let mut requests = Family::new(
        "c2nn_requests_total",
        "sim requests accepted per model",
        MetricKind::Counter,
    );
    let mut batches = Family::new(
        "c2nn_batches_total",
        "batched simulator runs executed per model",
        MetricKind::Counter,
    );
    let mut lanes = Family::new(
        "c2nn_lanes_total",
        "total lanes across all executed batches per model",
        MetricKind::Counter,
    );
    let mut depth = Family::new(
        "c2nn_queue_depth",
        "requests queued or in flight per model",
        MetricKind::Gauge,
    );
    let mut shed = Family::new(
        "c2nn_deadline_exceeded_total",
        "lanes shed with DeadlineExceeded before dispatch per model",
        MetricKind::Counter,
    );
    let mut bytes = Family::new(
        "c2nn_model_bytes",
        "model size counted against the registry byte budget",
        MetricKind::Gauge,
    );
    let mut occupancy = Family::new(
        "c2nn_batch_occupancy",
        "mean lanes per executed batch (the coalescing win), labeled by backend",
        MetricKind::Gauge,
    );
    for m in &models {
        let l = [("model", m.name.as_str())];
        requests
            .samples
            .push(Sample::new("c2nn_requests_total", &l, m.requests as f64));
        batches
            .samples
            .push(Sample::new("c2nn_batches_total", &l, m.batches as f64));
        lanes
            .samples
            .push(Sample::new("c2nn_lanes_total", &l, m.lanes as f64));
        depth
            .samples
            .push(Sample::new("c2nn_queue_depth", &l, m.queue_depth as f64));
        shed.samples.push(Sample::new(
            "c2nn_deadline_exceeded_total",
            &l,
            m.deadline_exceeded as f64,
        ));
        bytes
            .samples
            .push(Sample::new("c2nn_model_bytes", &l, m.bytes as f64));
        occupancy.samples.push(Sample::new(
            "c2nn_batch_occupancy",
            &[("model", m.name.as_str()), ("backend", m.backend.as_str())],
            m.mean_occupancy,
        ));
    }
    fams.extend([requests, batches, lanes, depth, shed, bytes, occupancy]);

    // --- per-model latency histograms -----------------------------------
    let mut hist = Family::new(
        "c2nn_request_latency_seconds",
        "enqueue-to-reply latency per model",
        MetricKind::Histogram,
    );
    for m in &models {
        let Some(counters) = registry.peek_stats(&m.name) else {
            continue;
        };
        let counts = counters.latency.bucket_counts();
        let l_model = m.name.as_str();
        let mut cum = 0u64;
        let mut last_le: Option<String> = None;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            let ub = crate::stats::bucket_upper_bound_us(i);
            let le = if ub == u64::MAX {
                "+Inf".to_string()
            } else {
                fmt_value(ub as f64 / 1e6)
            };
            // adjacent log buckets can share an upper bound (0µs and 1µs
            // both clamp to le="0.000001"); merge them — cumulative counts
            // make the later value the correct one for the shared bound
            if last_le.as_deref() == Some(le.as_str()) {
                if let Some(prev) = hist.samples.last_mut() {
                    prev.value = cum as f64;
                }
                continue;
            }
            hist.samples.push(Sample::new(
                "c2nn_request_latency_seconds_bucket",
                &[("model", l_model), ("le", le.as_str())],
                cum as f64,
            ));
            last_le = Some(le);
        }
        // the top bucket is already unbounded; still emit the canonical
        // +Inf bucket when the boundary table didn't (BUCKETS < 64)
        if crate::stats::bucket_upper_bound_us(counts.len() - 1) != u64::MAX {
            hist.samples.push(Sample::new(
                "c2nn_request_latency_seconds_bucket",
                &[("model", l_model), ("le", "+Inf")],
                cum as f64,
            ));
        }
        hist.samples.push(Sample::new(
            "c2nn_request_latency_seconds_sum",
            &[("model", l_model)],
            counters.latency.sum_us() as f64 / 1e6,
        ));
        hist.samples.push(Sample::new(
            "c2nn_request_latency_seconds_count",
            &[("model", l_model)],
            cum as f64,
        ));
    }
    fams.push(hist);

    // --- per-backend rollup ----------------------------------------------
    let mut be_models = Family::new(
        "c2nn_backend_models",
        "models currently served per execution backend",
        MetricKind::Gauge,
    );
    let mut be_requests = Family::new(
        "c2nn_backend_requests_total",
        "sim requests accepted per execution backend",
        MetricKind::Counter,
    );
    for b in &server.backends {
        let l = [("backend", b.backend.as_str())];
        be_models
            .samples
            .push(Sample::new("c2nn_backend_models", &l, b.models as f64));
        be_requests.samples.push(Sample::new(
            "c2nn_backend_requests_total",
            &l,
            b.requests as f64,
        ));
    }
    fams.extend([be_models, be_requests]);

    // --- server-wide admission -------------------------------------------
    let one_gauge = |name: &str, help: &str, v: f64| {
        let mut f = Family::new(name, help, MetricKind::Gauge);
        f.samples.push(Sample::new(name, &[], v));
        f
    };
    fams.push(one_gauge(
        "c2nn_inflight",
        "sim requests currently between admission and reply",
        server.inflight as f64,
    ));
    fams.push(one_gauge(
        "c2nn_max_inflight",
        "configured global in-flight budget",
        server.max_inflight as f64,
    ));
    fams.push(one_gauge(
        "c2nn_pressure",
        "admission pressure ladder: 0 nominal, 1 elevated, 2 saturated",
        match server.pressure.as_str() {
            "saturated" => 2.0,
            "elevated" => 1.0,
            _ => 0.0,
        },
    ));
    fams.push(one_gauge(
        "c2nn_draining",
        "1 while the server refuses all new work",
        server.draining as u64 as f64,
    ));
    let mut rejected = Family::new(
        "c2nn_rejected_total",
        "requests refused with a typed reply, by kind",
        MetricKind::Counter,
    );
    rejected.samples.push(Sample::new(
        "c2nn_rejected_total",
        &[("kind", "sim_overloaded")],
        server.rejected_sims as f64,
    ));
    rejected.samples.push(Sample::new(
        "c2nn_rejected_total",
        &[("kind", "load_overloaded")],
        server.rejected_loads as f64,
    ));
    rejected.samples.push(Sample::new(
        "c2nn_rejected_total",
        &[("kind", "draining")],
        server.rejected_draining as f64,
    ));
    fams.push(rejected);
    let mut poisoned = Family::new(
        "c2nn_pool_poisoned_epochs_total",
        "worker-pool epochs that lost a participant to a panic",
        MetricKind::Counter,
    );
    poisoned.samples.push(Sample::new(
        "c2nn_pool_poisoned_epochs_total",
        &[],
        server.pool_poisoned_epochs as f64,
    ));
    fams.push(poisoned);

    // --- event-loop / connection I/O -------------------------------------
    let counter1 = |name: &str, help: &str, v: f64| {
        let mut f = Family::new(name, help, MetricKind::Counter);
        f.samples.push(Sample::new(name, &[], v));
        f
    };
    fams.push(one_gauge(
        "c2nn_open_connections",
        "client connections currently open",
        load(&io.open_connections),
    ));
    fams.push(counter1(
        "c2nn_connections_accepted_total",
        "client connections accepted since start",
        load(&io.accepted_total),
    ));
    fams.push(counter1(
        "c2nn_readiness_wakeups_total",
        "event-loop readiness wakeups (epoll_wait returns)",
        load(&io.readiness_wakeups_total),
    ));
    fams.push(one_gauge(
        "c2nn_completion_queue_depth",
        "batcher completions queued for the event loop",
        load(&io.completion_queue_depth),
    ));
    fams.push(counter1(
        "c2nn_http_scrapes_total",
        "GET /metrics scrapes answered",
        load(&io.http_scrapes_total),
    ));
    fams.push(counter1(
        "c2nn_write_backpressure_total",
        "times a write buffer crossed the high watermark and reads paused",
        load(&io.write_backpressure_total),
    ));
    fams.push(counter1(
        "c2nn_frames_read_total",
        "protocol frames decoded off sockets",
        load(&io.frames_read_total),
    ));
    fams.push(counter1(
        "c2nn_frames_written_total",
        "protocol frames written to sockets",
        load(&io.frames_written_total),
    ));

    // --- per-codec wire traffic ------------------------------------------
    let mut wire_frames = Family::new(
        "c2nn_serve_frames_total",
        "protocol frames handled (read + written) per wire codec",
        MetricKind::Counter,
    );
    let mut wire_bytes = Family::new(
        "c2nn_serve_wire_bytes_total",
        "wire bytes per codec and direction",
        MetricKind::Counter,
    );
    for (codec, frames, bytes_in, bytes_out) in [
        (
            "json",
            &io.wire_json_frames,
            &io.wire_json_bytes_in,
            &io.wire_json_bytes_out,
        ),
        (
            "binary",
            &io.wire_binary_frames,
            &io.wire_binary_bytes_in,
            &io.wire_binary_bytes_out,
        ),
    ] {
        wire_frames.samples.push(Sample::new(
            "c2nn_serve_frames_total",
            &[("codec", codec)],
            load(frames),
        ));
        wire_bytes.samples.push(Sample::new(
            "c2nn_serve_wire_bytes_total",
            &[("codec", codec), ("direction", "in")],
            load(bytes_in),
        ));
        wire_bytes.samples.push(Sample::new(
            "c2nn_serve_wire_bytes_total",
            &[("codec", codec), ("direction", "out")],
            load(bytes_out),
        ));
    }
    fams.extend([wire_frames, wire_bytes]);
    fams
}

/// Snapshot and render in one call — the `/metrics` handler body.
pub fn render_for(registry: &Registry) -> String {
    render(&gather(registry))
}

/// Wrap an exposition body in a minimal `HTTP/1.1 200` response
/// (`Connection: close`; the scraper reads to EOF).
pub fn http_ok(body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Minimal `404` for HTTP paths other than `/metrics`.
pub fn http_not_found() -> Vec<u8> {
    b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_vec()
}

// ---------------------------------------------------------------------------
// Parsing & validation (CI scrape checks, proptest round-trip)
// ---------------------------------------------------------------------------

/// A parsed exposition: `# TYPE` declarations plus all samples, in order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exposition {
    /// `(family name, kind)` per `# TYPE` line, in order.
    pub types: Vec<(String, String)>,
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
}

fn unescape_label(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        s => s
            .parse::<f64>()
            .map_err(|e| format!("bad value `{s}`: {e}")),
    }
}

/// Parse a sample line `name{k="v",...} value`. The label scanner respects
/// escapes, so values containing `"` or `,` survive.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let err = |m: &str| format!("{m} in `{line}`");
    let (name_part, labels_text, value_text) = match line.find('{') {
        Some(open) => {
            let close = find_label_close(line, open).ok_or_else(|| err("unterminated labels"))?;
            (
                &line[..open],
                Some(&line[open + 1..close]),
                line[close + 1..].trim(),
            )
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| err("missing value"))?;
            (&line[..sp], None, line[sp + 1..].trim())
        }
    };
    let name = name_part.trim().to_string();
    if name.is_empty() {
        return Err(err("empty metric name"));
    }
    let mut labels = Vec::new();
    if let Some(text) = labels_text {
        for pair in split_label_pairs(text)? {
            let eq = pair.find('=').ok_or_else(|| err("label without `=`"))?;
            let key = pair[..eq].trim().to_string();
            let raw = pair[eq + 1..].trim();
            let inner = raw
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| err("label value not quoted"))?;
            labels.push((key, unescape_label(inner)?));
        }
    }
    Ok(Sample {
        name,
        labels,
        value: parse_value(value_text)?,
    })
}

/// Index of the `}` closing the label block opened at `open`, skipping
/// braces inside quoted label values.
fn find_label_close(line: &str, open: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        if escaped {
            escaped = false;
        } else if in_quotes && b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            in_quotes = !in_quotes;
        } else if b == b'}' && !in_quotes {
            return Some(i);
        }
    }
    None
}

/// Split `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(text: &str) -> Result<Vec<&str>, String> {
    let mut pairs = Vec::new();
    let bytes = text.as_bytes();
    let mut start = 0usize;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
        } else if in_quotes && b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            in_quotes = !in_quotes;
        } else if b == b',' && !in_quotes {
            pairs.push(text[start..i].trim());
            start = i + 1;
        }
    }
    if in_quotes {
        return Err(format!("unterminated quote in labels `{text}`"));
    }
    let last = text[start..].trim();
    if !last.is_empty() {
        pairs.push(last);
    }
    Ok(pairs)
}

/// Parse exposition text into its `# TYPE` declarations and samples.
/// Unknown comment lines are skipped; malformed sample lines are errors.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or("# TYPE without name")?.to_string();
            let kind = it.next().ok_or("# TYPE without kind")?.to_string();
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind.as_str()) {
                return Err(format!("unknown kind `{kind}` in `{line}`"));
            }
            exp.types.push((name, kind));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and arbitrary comments
        }
        exp.samples.push(parse_sample(line)?);
    }
    Ok(exp)
}

fn series_key(s: &Sample) -> String {
    let mut labels = s.labels.clone();
    labels.sort();
    let mut key = s.name.clone();
    for (k, v) in labels {
        key.push('\u{1}');
        key.push_str(&k);
        key.push('\u{2}');
        key.push_str(&v);
    }
    key
}

/// Validate exposition text the way the CI scrape job needs: it parses,
/// every `# TYPE` family has at least one sample, no series (name +
/// label set) repeats, and every histogram has cumulative buckets ending
/// in a `+Inf` bucket that equals its `_count`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let exp = parse_exposition(text)?;
    // no duplicate series
    let mut seen = std::collections::BTreeSet::new();
    for s in &exp.samples {
        if !seen.insert(series_key(s)) {
            return Err(format!("duplicate series `{}` {:?}", s.name, s.labels));
        }
    }
    // every # TYPE has at least one sample
    for (name, kind) in &exp.types {
        let matches = |s: &Sample| {
            if kind == "histogram" {
                s.name == *name
                    || s.name == format!("{name}_bucket")
                    || s.name == format!("{name}_sum")
                    || s.name == format!("{name}_count")
            } else {
                s.name == *name
            }
        };
        if !exp.samples.iter().any(matches) {
            return Err(format!("# TYPE {name} {kind} has no samples"));
        }
    }
    // histogram shape: per label-subset (excluding `le`), buckets are
    // cumulative in declared order, end with +Inf, and match _count
    for (name, kind) in &exp.types {
        if kind != "histogram" {
            continue;
        }
        let bucket_name = format!("{name}_bucket");
        let count_name = format!("{name}_count");
        let mut groups: Vec<(String, Vec<&Sample>)> = Vec::new();
        for s in exp.samples.iter().filter(|s| s.name == bucket_name) {
            let mut rest: Vec<_> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            rest.sort();
            let key = format!("{rest:?}");
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(s),
                None => groups.push((key, vec![s])),
            }
        }
        for (key, buckets) in &groups {
            let mut prev = f64::NEG_INFINITY;
            for b in buckets {
                if b.value < prev {
                    return Err(format!(
                        "{bucket_name}{key}: bucket counts not cumulative ({} < {prev})",
                        b.value
                    ));
                }
                prev = b.value;
            }
            let last = buckets.last().expect("non-empty group");
            let le = last
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str());
            if le != Some("+Inf") {
                return Err(format!(
                    "{bucket_name}{key}: last bucket is not le=\"+Inf\""
                ));
            }
            // the matching _count must exist and equal the +Inf bucket
            let mut rest: Vec<_> = last
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            rest.sort();
            let count = exp.samples.iter().find(|s| {
                let mut sl = s.labels.clone();
                sl.sort();
                s.name == count_name && sl == rest
            });
            match count {
                Some(c) if c.value == last.value => {}
                Some(c) => {
                    return Err(format!(
                        "{count_name}{key}: count {} != +Inf bucket {}",
                        c.value, last.value
                    ))
                }
                None => return Err(format!("{count_name}{key}: missing _count sample")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        let hostile = "a\\b\"c\nd";
        assert_eq!(unescape_label(&escape_label(hostile)).unwrap(), hostile);
    }

    #[test]
    fn sample_with_hostile_labels_parses() {
        let s = Sample::new("m_total", &[("model", "a\"b,c}d\\e")], 3.5);
        let text = render(&[Family {
            name: "m_total".into(),
            help: "h".into(),
            kind: MetricKind::Counter,
            samples: vec![s.clone()],
        }]);
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(exp.samples, vec![s]);
        assert_eq!(
            exp.types,
            vec![("m_total".to_string(), "counter".to_string())]
        );
    }

    #[test]
    fn infinity_value_roundtrips() {
        let text = "b_bucket{le=\"+Inf\"} 4\n";
        let exp = parse_exposition(text).unwrap();
        assert_eq!(exp.samples[0].value, 4.0);
        assert_eq!(
            exp.samples[0].labels,
            vec![("le".to_string(), "+Inf".to_string())]
        );
    }

    #[test]
    fn validator_rejects_duplicates_and_empty_families() {
        let dup = "# TYPE x counter\nx 1\nx 2\n";
        assert!(validate_exposition(dup).unwrap_err().contains("duplicate"));
        let empty = "# TYPE y counter\n";
        assert!(validate_exposition(empty)
            .unwrap_err()
            .contains("no samples"));
    }

    #[test]
    fn validator_enforces_histogram_shape() {
        let non_cumulative = "# TYPE h histogram\n\
                              h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n";
        assert!(validate_exposition(non_cumulative)
            .unwrap_err()
            .contains("cumulative"));
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\nh_sum 1\n";
        assert!(validate_exposition(no_inf).unwrap_err().contains("+Inf"));
        let count_mismatch = "# TYPE h histogram\n\
                              h_bucket{le=\"+Inf\"} 5\nh_count 4\nh_sum 1\n";
        assert!(validate_exposition(count_mismatch)
            .unwrap_err()
            .contains("!="));
        let ok = "# TYPE h histogram\n\
                  h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1.25\n";
        validate_exposition(ok).unwrap();
    }

    #[test]
    fn http_response_is_well_formed() {
        let body = "# TYPE x counter\nx 1\n";
        let resp = http_ok(body);
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains(&format!("Content-Length: {}\r\n", body.len())));
        assert!(text.ends_with(body));
    }
}
