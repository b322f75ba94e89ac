//! The backend trait contract: capabilities manifest, admission, plans,
//! and runners.
//!
//! A [`Backend`] is a registered execution engine. It does not execute
//! anything itself — it *admits* a compiled network, producing a
//! [`Plan`]: the backend-specific legalized artifact (a CSR network as-is,
//! a bit-plane program, a future GPU buffer set) plus a capabilities
//! [`Manifest`] the cost model prices. A plan manufactures [`Runner`]s —
//! one engine each, its recurrent state resident in the engine's own
//! format between cycles — and offers a batch-to-completion entry point
//! ([`Plan::execute_batch`]) over the shared ragged driver
//! ([`RaggedBatch`]).
//!
//! Admission is fallible by design: a backend that cannot run a model
//! (e.g. bit-plane legalization of non-integral weights) returns a typed
//! [`Reject`] *at admission time*, so `--backend auto` can fall through to
//! the next-best candidate instead of discovering the failure inside a
//! batcher thread.

use crate::ragged::RaggedBatch;
use c2nn_core::{
    BenchResult, BitTensor, CompiledNn, CycleRows, Session, SimError, StepShape, Stimulus,
};
use std::fmt;
use std::sync::Arc;

/// A typed admission refusal: which backend said no, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reject {
    /// Name of the refusing backend.
    pub backend: String,
    /// Human-readable reason (surfaced in CLI/server errors).
    pub reason: String,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backend `{}` rejected the model: {}",
            self.backend, self.reason
        )
    }
}

impl std::error::Error for Reject {}

/// What an admitted plan looks like to the cost model: the work shape a
/// [`BackendCalibration`](crate::BackendCalibration) prices.
///
/// The two-term kernel model (a launch term plus work at a sustained rate):
///
/// ```text
/// t_cycle(batch) = layers × launch_s
///                + ⌈batch / lanes_per_word⌉ × (cheap + factor × weighted) / unit_per_s
/// ```
///
/// CSR backends report one lane per "word", `cheap_units` = nnz (one MAC
/// per nonzero per lane) and no weighted units; the bit-plane backend
/// reports 64 lanes per word and its modeled word-op split.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Backend that produced this plan.
    pub backend: String,
    /// Stimulus lanes advanced per unit of work (1 for scalar lanes, 64
    /// for packed bitplanes).
    pub lanes_per_word: u64,
    /// Layers per simulated cycle (each is one dispatch).
    pub layers: u64,
    /// Work units per word-column on the backend's cheap path.
    pub cheap_units: f64,
    /// Work units per word-column on the backend's expensive path
    /// (priced at the table's `weighted_unit_factor`).
    pub weighted_units: f64,
}

/// A stepping engine over a plan. The required methods are the engine's
/// one state-feedback loop: a fixed set of lanes whose recurrent state
/// stays resident in the engine's execution format (`f32` columns, bit
/// planes) between [`advance`](Runner::advance) calls, with [`BitTensor`]
/// the only type crossing the boundary. Run-to-completion jobs use exactly
/// that ([`RaggedBatch`]).
///
/// The provided methods derive resumable [`Session`] stepping from the
/// loop, once for every engine: the batch is whatever slice the caller
/// assembled, composition may change freely between calls, and every
/// lane's trajectory is bit-exact against running it alone. They replace
/// the resident state, so do not interleave them with a resident run.
pub trait Runner {
    /// Port widths and depth of the network this runner steps.
    fn shape(&self) -> StepShape;

    /// Put `lanes` lanes at the power-on state.
    fn reset(&mut self, lanes: usize);

    /// One clock for every resident lane: `x` is `inputs × lanes`, the
    /// outputs land in `y` (`outputs × lanes`, resized in place, ragged
    /// tails zero). Shape errors are typed and identical across backends.
    fn advance(&mut self, x: &BitTensor, y: &mut BitTensor) -> Result<(), SimError>;

    /// Copy the resident state out as `state × lanes` planes.
    fn read_state(&self, planes: &mut BitTensor);

    /// Replace the resident state (and lane count) with `planes`.
    fn write_state(&mut self, planes: &BitTensor);

    /// Advance every session one clock cycle in lockstep: inputs arrive as
    /// feature-major bit planes (`inputs × sessions.len()`) and outputs
    /// come back packed (`outputs × sessions.len()`, ragged tails zeroed).
    fn step_planes(
        &mut self,
        sessions: &mut [Session<f32>],
        inputs: &BitTensor,
    ) -> Result<BitTensor, SimError> {
        let shape = self.shape();
        shape.check_inputs(sessions.len(), inputs.batch(), [inputs.features()])?;
        if let Some(foreign) = sessions.iter().find(|s| s.width() != shape.state) {
            return Err(SimError::StateWidth {
                expected: shape.state,
                got: foreign.width(),
            });
        }
        let mut outputs = BitTensor::zeros(shape.outputs, sessions.len());
        if sessions.is_empty() {
            return Ok(outputs);
        }
        let mut state = BitTensor::zeros(0, 0);
        Session::gather(sessions, &mut state);
        self.write_state(&state);
        self.advance(inputs, &mut outputs)?;
        self.read_state(&mut state);
        Session::scatter(sessions, &state);
        Ok(outputs)
    }

    /// [`step_planes`](Runner::step_planes) on per-lane bit vectors:
    /// `sessions[l]` consumes `inputs[l]` (primary-input bits, LSB-first);
    /// returns the primary outputs per lane.
    fn step(
        &mut self,
        sessions: &mut [Session<f32>],
        inputs: &[Vec<bool>],
    ) -> Result<Vec<Vec<bool>>, SimError> {
        // ragged or mis-sized lanes must fail typed before they are packed
        let shape = self.shape();
        shape.check_inputs(sessions.len(), inputs.len(), inputs.iter().map(Vec::len))?;
        let planes = match inputs {
            [] => BitTensor::zeros(shape.inputs, 0),
            lanes => BitTensor::from_lanes(lanes),
        };
        Ok(self.step_planes(sessions, &planes)?.to_lanes())
    }
}

/// An admitted model on one backend: the legalized artifact plus its
/// costed [`Manifest`]. Shared (`Arc`) between the registry, the serve
/// scheduler, and stats reporting; runners borrow from it.
pub trait Plan: Send + Sync {
    /// The backend this plan runs on.
    fn backend(&self) -> &str;

    /// The capabilities manifest the cost model prices.
    fn manifest(&self) -> &Manifest;

    /// The compiled network this plan was admitted from (port order and
    /// state layout are shared across backends, so sessions are
    /// interchangeable).
    fn nn(&self) -> &Arc<CompiledNn<f32>>;

    /// Manufacture a fresh runner over this plan. Runners are cheap
    /// (scratch buffers only) — the serve scheduler builds one per batcher
    /// thread and rebuilds after a poisoned batch.
    fn runner(&self) -> Box<dyn Runner + '_>;

    /// Run a set of ragged testbenches to completion: one runner, reset
    /// once, one forward pass per cycle across all lanes; shorter
    /// testbenches idle with zero inputs until the longest finishes, and
    /// their recorded outputs stop at their own length (the same contract
    /// as [`c2nn_core::run_batch`]). This is the bit-vector edge of
    /// [`RaggedBatch`]: each stimulus is packed into [`CycleRows`] once on
    /// the way in and each result unpacked once on the way out.
    fn execute_batch(&self, stims: &[Stimulus]) -> Result<Vec<BenchResult>, SimError> {
        let mut runner = self.runner();
        let pack = |s: &Stimulus| CycleRows::from_lanes(&s.cycles);
        let rows: Vec<CycleRows> = stims.iter().map(pack).collect();
        let mut run = RaggedBatch::start(runner.as_mut(), rows.iter().collect())?;
        while !run.done() {
            run.step()?;
        }
        let outputs = run.finish();
        // the packed stimuli are dead weight while the outputs unpack
        drop(rows);
        let unpack = |out: CycleRows| BenchResult {
            cycles: out.lanes(),
        };
        Ok(outputs.into_iter().map(unpack).collect())
    }
}

/// A registered execution engine.
pub trait Backend: Send + Sync {
    /// Canonical registry name (`scalar`, `pooled-csr`, `bitplane`, ...).
    fn name(&self) -> &'static str;

    /// Admit a compiled network: legalize it for this engine and return
    /// the costed plan, or a typed refusal. Admission must accept models
    /// compiled with any options — callers compile once and then select —
    /// and the conformance suite holds every backend to that
    /// ([`compile_configs`](crate::conformance::compile_configs)).
    fn admit(&self, nn: &Arc<CompiledNn<f32>>) -> Result<Arc<dyn Plan>, Reject>;
}
