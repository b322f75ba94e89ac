//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, per-layer metrics. `../BENCHMARK.json` must
//! list exactly these (a unit test compares the two).

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it is a regression (0 for per-layer metrics).
    pub bound: f64,
    /// A count the program makes that must repeat exactly between runs.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
        bound: 0.0,
        exact: true,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// them (README "End-to-end metrics" says what each means where).
///
/// The time bounds are the widest the contract allows: the 2-core shared
/// box the baseline comes from moves between a fast and a ~20 % slower
/// state for tens of seconds at a time, so two sets of runs of one build
/// differ by 5–18 % (README "Steadiness"). A tighter bound would reject
/// changes for the box's mood.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("compile_s", "s", false, 0.25),
    e2e("sim_gcs", "gc/s", true, 0.25),
    e2e("req_per_s", "1/s", true, 0.25),
    e2e("lat_p50_us", "us", false, 0.25),
    e2e("lat_p90_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
];

/// Single-layer numbers from the traced run, grouped by crate.
pub const PER_LAYER: &[Metric] = &[
    layer("circuits.build_s", "s", false),
    layer("verilog.compile_s", "s", false),
    layer("lutmap.map_s", "s", false),
    exact("lutmap.luts", "count"),
    exact("lutmap.depth", "count"),
    layer("boolfn.poly_s", "s", false),
    exact("boolfn.terms", "count"),
    layer("core.compile_s", "s", false),
    layer("core.pass_s.lower", "s", false),
    layer("core.pass_s.constant-fold", "s", false),
    layer("core.pass_s.monomial-cse", "s", false),
    layer("core.pass_s.dead-neuron-elim", "s", false),
    layer("core.pass_s.layer-merge", "s", false),
    layer("core.pass_s.legalize", "s", false),
    exact("core.nnz", "count"),
    exact("core.layers", "count"),
    exact("core.neurons", "count"),
    exact("core.model_bytes", "bytes"),
    layer("core.validate_s", "s", false),
    layer("core.model_encode_s", "s", false),
    layer("core.model_decode_s", "s", false),
    // not exact: the same model encodes to a few bytes more or less from
    // process to process (row order follows a randomly seeded hash map)
    layer("core.model_json_bytes", "bytes", false),
    layer("core.bitplane.legalize_s", "s", false),
    exact("core.bitplane.gate_ops", "count"),
    exact("core.bitplane.weighted_ops", "count"),
    exact("core.bitplane.layers", "count"),
    layer("core.bitplane.forward_s", "s/cycle", false),
    layer("core.bitplane.pack_s", "s", false),
    layer("tensor.spmm_s", "s/cycle", false),
    layer("tensor.macs_per_s", "1/s", true),
    layer("hal.admit_s.scalar", "s", false),
    layer("hal.admit_s.pooled-csr", "s", false),
    layer("hal.admit_s.bitplane", "s", false),
    layer("hal.select_s", "s", false),
    layer("hal.step_s", "s/cycle", false),
    layer("hal.step_planes_s", "s/cycle", false),
    layer("hal.state_overhead", "ratio", false),
    layer("hal.predicted_over_measured", "ratio", false),
    layer("refsim.cycle_gcs", "gc/s", true),
    layer("serve.protocol.encode_req_s.json", "s", false),
    layer("serve.protocol.encode_req_s.binary", "s", false),
    layer("serve.protocol.decode_req_s.json", "s", false),
    layer("serve.protocol.decode_req_s.binary", "s", false),
    layer("serve.protocol.encode_resp_s.json", "s", false),
    layer("serve.protocol.encode_resp_s.binary", "s", false),
    layer("serve.protocol.decode_resp_s.json", "s", false),
    layer("serve.protocol.decode_resp_s.binary", "s", false),
    layer("serve.protocol.frame_bytes.json", "bytes", false),
    layer("serve.protocol.frame_bytes.binary", "bytes", false),
    layer("serve.registry.load_s", "s", false),
    layer("serve.ping_rtt_us", "us", false),
    layer("serve.scheduler.solo_us", "us", false),
    layer("serve.frontend_us", "us", false),
    layer("serve.scheduler.occupancy", "ratio", true),
    layer("serve.scheduler.batches", "count", false),
    layer("serve.scheduler.lanes", "count", true),
    layer("serve.wire_bytes_in", "bytes", false),
    layer("serve.wire_bytes_out", "bytes", false),
    layer("serve.rejected", "count", false),
    layer("serve.lat_p99_us", "us", false),
    layer("serve.lat_max_us", "us", false),
    layer("bench.trace_overhead", "ratio", false),
];

#[cfg(test)]
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}
