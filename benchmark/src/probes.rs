//! Layer probes of the traced run: each per-layer metric is the time of a
//! call into one public function of one crate (or a count that function
//! returns), taken on the workload's own circuits at its own lane count.
//!
//! Times and counts are summed over the workload's circuits; a probe is
//! repeated while its budget lasts and its median is used.

use crate::api::{self, CircuitDef, Oracle, SchedReport, Scrape, Wire};
use crate::stim::{stream_of, Bits, XorShift};
use crate::trace::{SpanId, Tracer};
use crate::workloads::L;
use crate::{stats, Options};
use std::collections::BTreeMap;
use std::time::Instant;

/// Counters of the workload's own server or model, read after its run.
#[derive(Default)]
pub struct RunCounters {
    pub sched: Option<SchedReport>,
    pub scrape: Option<Scrape>,
}

pub struct ProbePlan {
    circuits: Vec<CircuitDef>,
    lanes: usize,
    /// Circuit, cycles per request and wire of the serving-layer probes.
    serve: (&'static str, usize, Wire),
    budget_s: f64,
    /// In-process job / socket request pairs behind `serve.frontend_us`.
    request_pairs: usize,
    seed: u64,
}

impl ProbePlan {
    pub fn new(
        circuits: Vec<CircuitDef>,
        lanes: usize,
        serve: (&'static str, usize, Wire),
        opts: &Options,
    ) -> Self {
        ProbePlan {
            circuits,
            lanes,
            serve,
            budget_s: if opts.quick { 0.005 } else { 0.05 },
            request_pairs: if opts.quick { 3 } else { 25 },
            seed: opts.seed,
        }
    }
}

/// Trace id shared by every probe span.
const PROBE_TRACE: u64 = u64::MAX;

const MODEL_NAME: &str = "probe";

struct Prober<'a> {
    tr: &'a mut Tracer,
    root: SpanId,
    budget_s: f64,
}

impl Prober<'_> {
    /// Seconds of one call of `f` under a span, and its result.
    fn once<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> (f64, R) {
        let span = self.tr.open(name, Some(self.root), PROBE_TRACE);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        self.tr.close(span);
        (dt, r)
    }

    /// Median seconds of `f`, and its last result. Repeats while the
    /// budget lasts, three times at least unless a call is slow.
    fn time<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) -> (f64, R) {
        let start = Instant::now();
        let mut samples = Vec::new();
        loop {
            let (dt, r) = self.once(name, &mut f);
            samples.push(dt);
            let spent = start.elapsed().as_secs_f64();
            let enough = if samples.len() < 3 {
                spent >= 10.0 * self.budget_s
            } else {
                spent >= self.budget_s || samples.len() >= 200
            };
            if enough {
                return (stats::median(&samples), r);
            }
        }
    }
}

/// Per-layer values by metric name; `add` sums over circuits.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

pub fn run(
    plan: &ProbePlan,
    counters: RunCounters,
    tr: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let root = tr.open("probes", None, PROBE_TRACE);
    let mut p = Prober {
        tr,
        root,
        budget_s: plan.budget_s,
    };
    let mut m = Values::default();

    m.add(
        "verilog.compile_s",
        p.time("verilog.compile", api::verilog_compile_all).0,
    );

    let mut predicted_over_measured = Vec::new();
    let (mut refsim_work, mut refsim_s) = (0.0, 0.0);
    for def in &plan.circuits {
        let (dt, src) = p.time("circuits.build", || def.build());
        m.add("circuits.build_s", dt);

        let prepared = api::prepare(&src);
        let (dt, mapped) = p.time("lutmap.map", || api::lut_map(&prepared, L));
        m.add("lutmap.map_s", dt);
        m.add("lutmap.luts", mapped.luts() as f64);
        m.add("lutmap.depth", mapped.depth() as f64);
        let (dt, terms) = p.time("boolfn.poly", || mapped.poly_terms());
        m.add("boolfn.poly_s", dt);
        m.add("boolfn.terms", terms as f64);

        let (dt, compiled) = p.time("core.compile", || api::compile(&src, L));
        m.add("core.compile_s", dt);
        for (metric, pass) in [
            ("core.pass_s.lower", "lower"),
            ("core.pass_s.constant-fold", "constant-fold"),
            ("core.pass_s.monomial-cse", "monomial-cse"),
            ("core.pass_s.dead-neuron-elim", "dead-neuron-elim"),
            ("core.pass_s.layer-merge", "layer-merge"),
            ("core.pass_s.legalize", "legalize"),
        ] {
            m.add(metric, compiled.pass_s(pass));
        }
        m.add("core.nnz", compiled.nnz() as f64);
        m.add("core.layers", compiled.layers() as f64);
        m.add("core.neurons", compiled.neurons() as f64);
        m.add("core.model_bytes", compiled.model_bytes() as f64);
        m.add(
            "core.validate_s",
            p.time("core.validate", || compiled.validate()).0,
        );
        let (dt, json) = p.time("core.model_encode", || compiled.encode_model());
        m.add("core.model_encode_s", dt);
        m.add("core.model_json_bytes", json.len() as f64);
        m.add(
            "core.model_decode_s",
            p.time("core.model_decode", || api::decode_model(&json)).0,
        );
        drop(json);

        let (dt, program) = p.time("core.bitplane.legalize", || api::legalize(&compiled));
        m.add("core.bitplane.legalize_s", dt);
        m.add("core.bitplane.gate_ops", program.gate_ops() as f64);
        m.add("core.bitplane.weighted_ops", program.weighted_ops() as f64);
        m.add("core.bitplane.layers", program.layers() as f64);

        // one cycle of input bits per lane; the forward pass is
        // data-oblivious, so the same row every cycle times the same work
        let mut rng = XorShift::new(plan.seed, stream_of(def.name, u64::MAX));
        let inputs: Bits = rng.bits(plan.lanes, compiled.num_inputs());
        let outputs: Bits = rng.bits(plan.lanes, compiled.num_outputs());
        {
            let mut fwd = program.forward_stepper(&inputs);
            m.add(
                "core.bitplane.forward_s",
                p.time("core.bitplane.forward", || fwd.step()).0,
            );
        }
        m.add(
            "core.bitplane.pack_s",
            p.time("core.bitplane.pack", || {
                api::pack_roundtrip(&inputs, &outputs)
            })
            .0,
        );
        {
            let mut spmm = api::spmm_stepper(&compiled, &inputs[0]);
            m.add("tensor.spmm_s", p.time("tensor.spmm", || spmm.step()).0);
        }

        for (metric, backend) in [
            ("hal.admit_s.scalar", "scalar"),
            ("hal.admit_s.pooled-csr", "pooled-csr"),
            ("hal.admit_s.bitplane", "bitplane"),
        ] {
            m.add(
                metric,
                p.time("hal.admit", || api::admit(&compiled, backend)).0,
            );
        }
        let (dt, plan_c) = p.time("hal.select", || api::select(&compiled, plan.lanes));
        m.add("hal.select_s", dt);
        {
            let mut stepper = plan_c.stepper(&inputs);
            let step_s = p.time("hal.step", || stepper.step()).0;
            m.add("hal.step_s", step_s);
            m.add(
                "hal.step_planes_s",
                p.time("hal.step_planes", || stepper.step_planes()).0,
            );
            if let Some(predicted) = plan_c.predicted_lane_cps {
                predicted_over_measured.push(predicted / (plan.lanes as f64 / step_s));
            }
        }

        let mut oracle = Oracle::new(&src);
        let cycles = 64;
        let stim = rng.bits(cycles, compiled.num_inputs());
        refsim_s += p.time("refsim.cycle", || oracle.run(&stim)).0;
        refsim_work += (src.gates() * cycles) as f64;
    }
    m.add(
        "tensor.macs_per_s",
        m.get("core.nnz") / m.get("tensor.spmm_s"),
    );
    m.add(
        "hal.state_overhead",
        m.get("hal.step_planes_s") / m.get("core.bitplane.forward_s"),
    );
    m.add(
        "hal.predicted_over_measured",
        stats::geomean(&predicted_over_measured),
    );
    m.add("refsim.cycle_gcs", refsim_work / refsim_s);

    serve_probes(plan, counters, &mut p, &mut m);
    p.tr.close(root);
    m.0
}

fn serve_probes(plan: &ProbePlan, counters: RunCounters, p: &mut Prober<'_>, m: &mut Values) {
    let (circuit, cycles, wire) = plan.serve;
    let src = api::circuit(circuit).build();
    let compiled = api::compile(&src, L);
    let json = compiled.encode_model();
    let stim = XorShift::new(plan.seed, stream_of(circuit, u64::MAX - 1))
        .bits(cycles, compiled.num_inputs());
    let outputs = Oracle::new(&src).run(&stim);

    for (w, names) in [
        (
            Wire::Json,
            [
                "serve.protocol.encode_req_s.json",
                "serve.protocol.decode_req_s.json",
                "serve.protocol.encode_resp_s.json",
                "serve.protocol.decode_resp_s.json",
                "serve.protocol.frame_bytes.json",
            ],
        ),
        (
            Wire::Binary,
            [
                "serve.protocol.encode_req_s.binary",
                "serve.protocol.decode_req_s.binary",
                "serve.protocol.encode_resp_s.binary",
                "serve.protocol.decode_resp_s.binary",
                "serve.protocol.frame_bytes.binary",
            ],
        ),
    ] {
        let request = api::sim_request(w, MODEL_NAME, &stim);
        let reply = api::expected_reply(w, &outputs);
        let (dt, frame) = p.time("serve.protocol.encode_req", || {
            api::encode_request(w, &request)
        });
        m.add(names[0], dt);
        m.add(
            names[1],
            p.time("serve.protocol.decode_req", || {
                api::decode_request(w, &frame)
            })
            .0,
        );
        let (dt, reply_frame) = p.time("serve.protocol.encode_resp", || {
            api::encode_response(w, &reply)
        });
        m.add(names[2], dt);
        let (dt, decoded) = p.time("serve.protocol.decode_resp", || {
            api::decode_response(w, &reply_frame)
        });
        assert_eq!(
            decoded.as_ref(),
            Ok(&reply),
            "{} codec round trip",
            w.name()
        );
        m.add(names[3], dt);
        m.add(names[4], (frame.len() + reply_frame.len()) as f64);
    }

    let server = api::start_server();
    m.add(
        "serve.registry.load_s",
        p.time("serve.registry.load", || server.load(MODEL_NAME, &json))
            .0,
    );
    let mut pinger = api::pinger(&server.addr);
    m.add(
        "serve.ping_rtt_us",
        p.time("serve.ping", || pinger.ping()).0 * 1e6,
    );
    drop(pinger);

    let model = server.model(MODEL_NAME);
    // one job in-process, one request over the socket, in turn: the
    // difference of their medians is what the front end adds
    let mut client = api::WireClient::connect(&server.addr, wire);
    let frame = api::encode_request(wire, &api::sim_request(wire, MODEL_NAME, &stim));
    let expected = Ok(api::expected_reply(wire, &outputs));
    let (mut solo_s, mut socket_s) = (Vec::new(), Vec::new());
    for _ in 0..plan.request_pairs {
        let (dt, reply) = p.once("serve.scheduler.solo", || model.submit(&stim).wait());
        assert_eq!(reply.as_ref(), Ok(&outputs), "solo job against the oracle");
        solo_s.push(dt);
        let (dt, reply) = p.once("serve.socket_request", || client.round_trip(&frame));
        let reply = reply.and_then(|f| api::decode_response(wire, &f));
        assert_eq!(reply, expected, "probe request against the oracle");
        socket_s.push(dt);
    }
    let (solo_s, socket_s) = (stats::median(&solo_s), stats::median(&socket_s));
    m.add("serve.scheduler.solo_us", solo_s * 1e6);
    m.add("serve.frontend_us", (socket_s - solo_s) * 1e6);
    drop(client);

    let sched = counters.sched.unwrap_or_else(|| model.report());
    m.add("serve.scheduler.occupancy", sched.occupancy);
    m.add("serve.scheduler.batches", sched.batches as f64);
    m.add("serve.scheduler.lanes", sched.lanes as f64);
    let scrape = counters.scrape.unwrap_or_else(|| server.scrape());
    m.add("serve.wire_bytes_in", scrape.wire_bytes_in);
    m.add("serve.wire_bytes_out", scrape.wire_bytes_out);
    m.add("serve.rejected", scrape.rejected);
}
