//! The adapter: the only file of the benchmark that names a `c2nn-*`
//! crate. Workloads, probes, tracing and reporting see the handles and
//! plain data defined here, so a refactor of the stack (one `Runner::step`,
//! a split `protocol.rs`) is answered by editing this file alone.
//!
//! Every function is a thin call into a public function of the stack: the
//! benchmark times these calls from outside and adds no logic of its own.

use crate::stim::Bits;
use c2nn_boolfn::lut_to_poly;
use c2nn_core::{
    compile_with_report, format_stim, BenchResult, BitTensor, BitplaneNn, BitplaneSimulator,
    CompileOptions, CompileReport, CompiledNn, Session, Stimulus,
};
use c2nn_hal::{BackendRegistry, Choice, DeviceCalibration, Plan, Runner};
use c2nn_lutmap::{map_netlist, LutGraph, MapConfig, NodeFunc};
use c2nn_netlist::{CutCircuit, Netlist};
use c2nn_refsim::CycleSim;
use c2nn_serve::metrics::parse_exposition;
use c2nn_serve::protocol::{stim_to_planes, write_wire_frame};
use c2nn_serve::{
    spawn_server, Admission, BatchConfig, Client, FrameReader, Request, Response, ServedModel,
    ServerConfig, ServerHandle, SimOutput, SimOutputs, StimPayload, WireFormat,
};
use c2nn_tensor::{forward_sparse_into, Dense, Device, Pool};
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

pub use c2nn_json::Json;

pub fn parse_json(text: &str) -> Result<Json, String> {
    c2nn_json::parse(text).map_err(|e| e.to_string())
}

/// Threads of the process-wide worker pool (`C2NN_THREADS`, else the core
/// count): part of the host fingerprint.
pub fn pool_threads() -> usize {
    Pool::global().threads()
}

/// Make the process-wide worker pool serial (`C2NN_THREADS=1`), unless the
/// caller chose a size. Only has an effect before the pool's first use.
pub fn serial_pool_unless_set() {
    if std::env::var_os("C2NN_THREADS").is_none() {
        std::env::set_var("C2NN_THREADS", "1");
    }
}

/// The calibration `Choice::Auto` is resolved against: the built-in table,
/// never a `DEVICE.json` measured on some host, so backend choice is the
/// same on every box.
fn pinned_calibration() -> DeviceCalibration {
    DeviceCalibration::default_host(pool_threads())
}

pub fn calibration_label() -> String {
    format!(
        "DeviceCalibration::default_host({}) [{}]",
        pool_threads(),
        pinned_calibration().device
    )
}

// --- circuits, verilog -----------------------------------------------------

/// A Table I circuit by its short name.
#[derive(Clone, Copy)]
pub struct CircuitDef {
    pub name: &'static str,
    build: fn() -> Netlist,
}

/// A built netlist: the compiler's source and the oracle's circuit.
pub struct Source {
    netlist: Netlist,
}

/// The six `table1_suite()` circuits in row order.
pub fn suite() -> Vec<CircuitDef> {
    c2nn_circuits::table1_suite()
        .into_iter()
        .map(|b| CircuitDef {
            name: if b.name == "RISC-V interface" {
                "RISCV"
            } else {
                b.name
            },
            build: b.build,
        })
        .collect()
}

pub fn circuit(name: &str) -> CircuitDef {
    suite()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no circuit named {name}"))
}

impl CircuitDef {
    pub fn build(&self) -> Source {
        Source {
            netlist: (self.build)(),
        }
    }
}

impl Source {
    pub fn gates(&self) -> usize {
        self.netlist.gate_count()
    }
}

/// Elaborate the two circuits that ship as Verilog text.
pub fn verilog_compile_all() {
    for (src, top) in [
        (c2nn_circuits::uart::UART_VERILOG, "uart"),
        (c2nn_circuits::spi::SPI_VERILOG, "spi"),
    ] {
        black_box(c2nn_verilog::compile(src, top).expect("shipped Verilog elaborates"));
    }
}

// --- lutmap, boolfn --------------------------------------------------------

/// A netlist after clock unification and the flip-flop cut.
pub struct Prepared(CutCircuit);

pub struct Mapped(LutGraph);

pub fn prepare(src: &Source) -> Prepared {
    Prepared(c2nn_netlist::prepare(&src.netlist).expect("suite circuits prepare"))
}

pub fn lut_map(p: &Prepared, l: usize) -> Mapped {
    Mapped(map_netlist(&p.0.comb, MapConfig::with_l(l)).expect("suite circuits map"))
}

impl Prepared {
    /// Primary inputs a testbench drives each cycle.
    pub fn num_inputs(&self) -> usize {
        self.0.num_primary_inputs
    }
}

impl Mapped {
    pub fn luts(&self) -> usize {
        self.0.nodes.len()
    }

    pub fn depth(&self) -> usize {
        self.0.depth() as usize
    }

    /// Algorithm 1 over every mapped truth table; returns the monomials.
    pub fn poly_terms(&self) -> usize {
        self.0
            .nodes
            .iter()
            .map(|n| match &n.func {
                NodeFunc::Table(lut) => lut_to_poly(lut).num_terms(),
                NodeFunc::WideAnd { .. } | NodeFunc::WideOr { .. } => 1,
            })
            .sum()
    }
}

// --- core ------------------------------------------------------------------

/// A compiled network with its per-pass report.
pub struct Compiled {
    nn: Arc<CompiledNn<f32>>,
    report: CompileReport,
}

pub fn compile(src: &Source, l: usize) -> Compiled {
    let (nn, report) = compile_with_report::<f32>(&src.netlist, CompileOptions::with_l(l))
        .expect("suite compiles");
    Compiled {
        nn: Arc::new(nn),
        report,
    }
}

impl Compiled {
    pub fn gates(&self) -> usize {
        self.nn.gate_count
    }

    pub fn num_inputs(&self) -> usize {
        self.nn.num_primary_inputs
    }

    pub fn num_outputs(&self) -> usize {
        self.nn.num_primary_outputs
    }

    pub fn nnz(&self) -> usize {
        self.nn.connections()
    }

    pub fn layers(&self) -> usize {
        self.nn.num_layers()
    }

    pub fn neurons(&self) -> usize {
        self.report.final_metrics().map_or(0, |m| m.neurons)
    }

    pub fn model_bytes(&self) -> usize {
        self.nn.memory_bytes()
    }

    /// Wall time the compiler's own report gives a pass (0 if it did not run).
    pub fn pass_s(&self, pass: &str) -> f64 {
        self.report.stat(pass).map_or(0.0, |p| p.wall_s)
    }

    pub fn validate(&self) {
        black_box(self.nn.validate().expect("compiled model validates"));
    }

    pub fn encode_model(&self) -> String {
        self.nn.to_json_string()
    }
}

pub fn decode_model(json: &str) {
    black_box(CompiledNn::<f32>::from_json_str(json).expect("encoded model decodes"));
}

/// A legalized bit-plane program.
pub struct Program(BitplaneNn);

pub fn legalize(c: &Compiled) -> Program {
    Program(BitplaneNn::from_compiled(c.nn.as_ref()).expect("suite legalizes"))
}

impl Program {
    pub fn gate_ops(&self) -> usize {
        let census = self.0.op_census();
        census.total() - census.weighted
    }

    pub fn weighted_ops(&self) -> usize {
        self.0.op_census().weighted
    }

    pub fn layers(&self) -> usize {
        self.0.num_layers()
    }

    /// The raw packed forward pass at `lanes` lanes: no sessions, no
    /// per-lane conversion. `inputs[lane]` is one cycle of input bits.
    pub fn forward_stepper(&self, inputs: &Bits) -> ForwardStepper<'_> {
        ForwardStepper {
            sim: BitplaneSimulator::new(&self.0, inputs.len(), Device::Parallel),
            inputs: BitTensor::from_lanes(inputs),
            out: BitTensor::zeros(0, 0),
        }
    }
}

pub struct ForwardStepper<'a> {
    sim: BitplaneSimulator<'a>,
    inputs: BitTensor,
    out: BitTensor,
}

impl ForwardStepper<'_> {
    pub fn step(&mut self) {
        self.sim
            .step_packed_into(&self.inputs, &mut self.out)
            .expect("packed step");
    }
}

/// Lanes → planes → lanes, the conversion `Runner::step` pays each cycle.
pub fn pack_roundtrip(inputs: &Bits, outputs: &Bits) {
    black_box(BitTensor::from_lanes(black_box(inputs)));
    black_box(BitTensor::from_lanes(outputs).to_lanes());
}

// --- tensor ----------------------------------------------------------------

/// The CSR kernels over the model's layers at one lane.
pub struct SpmmStepper<'a> {
    nn: &'a CompiledNn<f32>,
    x: Dense<f32>,
    bufs: (Dense<f32>, Dense<f32>),
}

pub fn spmm_stepper<'a>(c: &'a Compiled, input: &[bool]) -> SpmmStepper<'a> {
    let mut lane = input.to_vec();
    lane.extend_from_slice(&c.nn.state_init);
    SpmmStepper {
        nn: &c.nn,
        x: Dense::from_lanes(&[lane]),
        bufs: (Dense::zeros(0, 0), Dense::zeros(0, 0)),
    }
}

impl SpmmStepper<'_> {
    pub fn step(&mut self) {
        let (a, b) = (&mut self.bufs.0, &mut self.bufs.1);
        let mut first = true;
        for layer in &self.nn.layers {
            let x = if first { &self.x } else { &*a };
            forward_sparse_into(
                &layer.weights,
                &layer.bias,
                x,
                layer.activation.into(),
                Device::Serial,
                b,
            );
            std::mem::swap(a, b);
            first = false;
        }
        black_box(&*a);
    }
}

// --- hal -------------------------------------------------------------------

/// A model admitted on one backend.
pub struct Admitted {
    plan: Arc<dyn Plan>,
    pub backend: String,
    /// The cost model's lane·cycles/s for this plan, when it was asked.
    pub predicted_lane_cps: Option<f64>,
    /// Kept so a served model can be spawned from this very selection.
    selection: Option<c2nn_hal::Selection>,
}

pub fn admit(c: &Compiled, backend: &str) -> Admitted {
    let plan = BackendRegistry::global()
        .get(backend)
        .unwrap_or_else(|| panic!("no backend {backend}"))
        .admit(&c.nn)
        .expect("suite admits on every backend");
    Admitted {
        plan,
        backend: backend.to_string(),
        predicted_lane_cps: None,
        selection: None,
    }
}

/// `Choice::Auto` at `lanes` lanes against the pinned calibration. Admits
/// on every registered backend and keeps the predicted-fastest plan.
pub fn select(c: &Compiled, lanes: usize) -> Admitted {
    let sel = BackendRegistry::global()
        .select(&c.nn, &Choice::Auto, &pinned_calibration(), lanes)
        .expect("a backend admits every suite circuit");
    Admitted {
        plan: Arc::clone(&sel.plan),
        backend: sel.backend.clone(),
        predicted_lane_cps: sel.predicted_lane_cps,
        selection: Some(sel),
    }
}

/// Testbenches in the form `Plan::execute_batch` takes them.
pub struct StimSet(Vec<Stimulus>);

impl StimSet {
    pub fn new(lanes: Vec<Bits>) -> Self {
        StimSet(
            lanes
                .into_iter()
                .map(|cycles| Stimulus { cycles })
                .collect(),
        )
    }

    pub fn lane(&self, i: usize) -> &Bits {
        &self.0[i].cycles
    }
}

pub struct BatchOut(Vec<BenchResult>);

impl BatchOut {
    pub fn lane(&self, i: usize) -> &Bits {
        &self.0[i].cycles
    }
}

impl Admitted {
    pub fn execute_batch(&self, stims: &StimSet) -> Result<BatchOut, String> {
        self.plan
            .execute_batch(&stims.0)
            .map(BatchOut)
            .map_err(|e| e.to_string())
    }

    /// A runner with one fresh session per lane, stepped with the same
    /// input row each cycle (the forward pass is data-oblivious).
    pub fn stepper(&self, inputs: &Bits) -> HalStepper<'_> {
        HalStepper {
            runner: self.plan.runner(),
            sessions: inputs
                .iter()
                .map(|_| Session::new(self.plan.nn().as_ref()))
                .collect(),
            planes: BitTensor::from_lanes(inputs),
            lanes: inputs.clone(),
        }
    }
}

pub struct HalStepper<'a> {
    runner: Box<dyn Runner + 'a>,
    sessions: Vec<Session<f32>>,
    lanes: Bits,
    planes: BitTensor,
}

impl HalStepper<'_> {
    pub fn step(&mut self) {
        black_box(
            self.runner
                .step(&mut self.sessions, &self.lanes)
                .expect("runner step"),
        );
    }

    pub fn step_planes(&mut self) {
        black_box(
            self.runner
                .step_planes(&mut self.sessions, &self.planes)
                .expect("runner step_planes"),
        );
    }
}

// --- refsim ----------------------------------------------------------------

/// The reference every output bit is compared with.
pub struct Oracle(CycleSim);

impl Oracle {
    pub fn new(src: &Source) -> Self {
        Oracle(CycleSim::new(&src.netlist).expect("suite circuits simulate"))
    }

    /// Outputs of one testbench from the power-on state.
    pub fn run(&mut self, stim: &Bits) -> Bits {
        self.0.reset();
        self.0.run(stim)
    }
}

// --- serve -----------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    Json,
    Binary,
}

impl Wire {
    pub fn name(self) -> &'static str {
        match self {
            Wire::Json => "json",
            Wire::Binary => "binary",
        }
    }

    fn format(self) -> WireFormat {
        match self {
            Wire::Json => WireFormat::Json,
            Wire::Binary => WireFormat::Binary,
        }
    }
}

/// Scheduler counters of one served model.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedReport {
    pub occupancy: f64,
    pub batches: u64,
    pub lanes: u64,
}

/// What a `/metrics` scrape says about the wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scrape {
    pub wire_bytes_in: f64,
    pub wire_bytes_out: f64,
    pub rejected: f64,
}

/// An in-process `spawn_server(ServerConfig::default())` on loopback,
/// shut down and joined on drop.
pub struct Server {
    handle: Option<ServerHandle>,
    pub addr: String,
}

pub fn start_server() -> Server {
    let handle = spawn_server(ServerConfig::default()).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    Server {
        handle: Some(handle),
        addr,
    }
}

impl Server {
    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server runs until drop")
    }

    /// `Registry::load`: decode, validate, select a backend, start a batcher.
    pub fn load(&self, name: &str, model_json: &str) {
        self.handle()
            .registry()
            .load(name, model_json.as_bytes())
            .expect("registry admits the model");
    }

    pub fn model(&self, name: &str) -> Model {
        Model(
            self.handle()
                .registry()
                .get(name)
                .unwrap_or_else(|| panic!("model {name} is loaded")),
        )
    }

    pub fn scrape(&self) -> Scrape {
        let text = c2nn_serve::client::fetch_metrics(&self.addr).expect("metrics scrape");
        let exp = parse_exposition(&text).expect("exposition parses");
        let mut out = Scrape::default();
        for s in &exp.samples {
            let has = |k: &str, v: &str| s.labels.iter().any(|(lk, lv)| lk == k && lv == v);
            match s.name.as_str() {
                "c2nn_serve_wire_bytes_total" if has("direction", "in") => {
                    out.wire_bytes_in += s.value
                }
                "c2nn_serve_wire_bytes_total" if has("direction", "out") => {
                    out.wire_bytes_out += s.value
                }
                "c2nn_rejected_total" => out.rejected += s.value,
                _ => {}
            }
        }
        out
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
            h.join();
        }
    }
}

/// A served model reached in-process through `ServedModel::submit`.
pub struct Model(Arc<ServedModel>);

/// Spawn a batcher over an already selected plan, default batching.
pub fn spawn_model(name: &str, admitted: Admitted) -> Model {
    let selection = admitted
        .selection
        .expect("spawn_model needs a `select`ed plan");
    Model(ServedModel::spawn(
        name,
        selection,
        BatchConfig::default(),
        Admission::unbounded(),
        None,
    ))
}

/// One submitted job's reply channel.
pub struct Pending(Receiver<Result<SimOutput, c2nn_serve::SimFailure>>);

impl Model {
    pub fn submit(&self, stim: &Bits) -> Pending {
        Pending(self.0.submit(
            Stimulus {
                cycles: stim.clone(),
            },
            None,
        ))
    }

    pub fn report(&self) -> SchedReport {
        let r = self.0.report();
        SchedReport {
            occupancy: r.mean_occupancy,
            batches: r.batches,
            lanes: r.lanes,
        }
    }
}

impl Pending {
    pub fn wait(self) -> Result<Bits, String> {
        match self.0.recv() {
            Ok(Ok(out)) => Ok(out.lanes()),
            Ok(Err(failure)) => Err(failure.to_string()),
            Err(_) => Err("batcher dropped the job".to_string()),
        }
    }
}

/// A `sim` request ready to encode.
pub struct SimRequest(Request);

/// A `sim` reply's outputs in the shape the wire carried them.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Text(Vec<String>),
    Packed(BitTensor),
}

/// JSON requests carry `.stim` text, binary requests packed planes: the
/// shapes `c2nn client --wire` sends.
pub fn sim_request(wire: Wire, model: &str, stim: &Bits) -> SimRequest {
    let stimulus = Stimulus {
        cycles: stim.clone(),
    };
    SimRequest(Request::Sim {
        model: model.to_string(),
        stim: match wire {
            Wire::Json => StimPayload::Text(format_stim(&stimulus)),
            Wire::Binary => StimPayload::Packed(stim_to_planes(&stimulus)),
        },
        deadline_ms: None,
    })
}

/// The reply a correct server gives for these reference outputs.
pub fn expected_reply(wire: Wire, outputs: &Bits) -> Reply {
    match wire {
        Wire::Json => Reply::Text(
            outputs
                .iter()
                .map(|row| {
                    row.iter()
                        .rev()
                        .map(|&b| if b { '1' } else { '0' })
                        .collect()
                })
                .collect(),
        ),
        Wire::Binary => Reply::Packed(BitTensor::from_lanes(outputs)),
    }
}

fn sim_response(reply: &Reply) -> Response {
    let (outputs, cycles) = match reply {
        Reply::Text(lines) => (SimOutputs::Text(lines.clone()), lines.len()),
        Reply::Packed(planes) => (SimOutputs::Packed(planes.clone()), planes.batch()),
    };
    Response::SimResult {
        outputs,
        cycles: cycles as u64,
    }
}

pub fn encode_request(wire: Wire, req: &SimRequest) -> Vec<u8> {
    wire.format().codec().encode_request(&req.0)
}

/// The server's half of the codec work, on the client's real frame.
pub fn decode_request(wire: Wire, frame: &[u8]) {
    black_box(
        wire.format()
            .codec()
            .decode_request(popped(wire, frame))
            .expect("own request frame decodes"),
    );
}

pub fn encode_response(wire: Wire, reply: &Reply) -> Vec<u8> {
    wire.format().codec().encode_response(&sim_response(reply))
}

pub fn decode_response(wire: Wire, frame: &[u8]) -> Result<Reply, String> {
    let resp = wire
        .format()
        .codec()
        .decode_response(popped(wire, frame))
        .map_err(|e| e.to_string())?;
    match resp {
        Response::SimResult {
            outputs: SimOutputs::Text(lines),
            ..
        } => Ok(Reply::Text(lines)),
        Response::SimResult {
            outputs: SimOutputs::Packed(planes),
            ..
        } => Ok(Reply::Packed(planes)),
        Response::Error { message } => Err(format!("server error: {message}")),
        Response::Overloaded { .. } => Err("refused: overloaded".to_string()),
        Response::DeadlineExceeded => Err("refused: deadline exceeded".to_string()),
        Response::ShuttingDown => Err("refused: shutting down".to_string()),
        _ => Err("unexpected response kind".to_string()),
    }
}

/// A frame as the framing layer pops it: JSON loses its newline.
fn popped(wire: Wire, frame: &[u8]) -> &[u8] {
    match wire {
        Wire::Json => frame.strip_suffix(b"\n").unwrap_or(frame),
        Wire::Binary => frame,
    }
}

/// One connection that sends encoded frames and pops reply frames, so the
/// benchmark can time encode, server residency and decode apart.
pub struct WireClient {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    wire: Wire,
}

impl WireClient {
    pub fn connect(addr: &str, wire: Wire) -> WireClient {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone socket");
        WireClient {
            writer,
            reader: FrameReader::new(stream),
            wire,
        }
    }

    /// Write one request frame and block for the reply frame's bytes.
    pub fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        write_wire_frame(&mut self.writer, frame).map_err(|e| e.to_string())?;
        match self.reader.read_frame() {
            Ok(Some(f)) => Ok(f.bytes),
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn wire(&self) -> Wire {
        self.wire
    }
}

/// `Client::ping` round trips on one connection.
pub struct Pinger(Client);

pub fn pinger(addr: &str) -> Pinger {
    Pinger(Client::connect(addr).expect("connect to the in-process server"))
}

impl Pinger {
    pub fn ping(&mut self) {
        black_box(self.0.ping().expect("pong"));
    }
}
