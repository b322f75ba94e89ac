//! Batched simulation of compiled networks (stimulus parallelism).
//!
//! One forward pass evaluates `B` independent testbenches for one clock
//! cycle — the paper's key throughput lever: throughput (gates·cycles/s)
//! grows with `B` until the device saturates.
//!
//! All activation tensors are **feature-major** (`features × batch`, one
//! testbench per column; see `c2nn-tensor`), so the sparse kernels stream
//! contiguous batch vectors.
//!
//! ## Guarded vs. unguarded stepping
//!
//! [`Simulator::step`] is the unguarded hot path: it trusts that the model
//! passed [`CompiledNn::validate`] and that nothing corrupted memory since.
//! [`Simulator::try_step`] adds an **opt-in runtime guard**
//! ([`Simulator::enable_guard`]) exploiting the compiler's exactness
//! invariant: every activation of a valid run is exactly 0 or 1, so any
//! non-binary value is proof of corruption, and the weights are immutable
//! after compilation, so any change to their FNV-1a checksum is too. Each
//! guarded cycle re-verifies the weight checksum and checks inputs, outputs,
//! and next-state for binary-ness, turning silent exactness violations (a
//! flipped weight bit, a cosmic-ray state upset, an out-of-range stimulus)
//! into typed [`SimError`]s.

use crate::bitplane::BitTensor;
use crate::compile::CompiledNn;
use c2nn_tensor::{Dense, Device, Scalar};
use std::fmt;

/// A runtime simulation failure — every variant is evidence that either the
/// caller's tensors are malformed or the model/state memory was corrupted.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The network has no layers (rejected by `validate`, guarded here too).
    NoLayers,
    /// The input tensor's feature count does not match the network.
    InputWidth {
        /// width the network expects
        expected: usize,
        /// width the caller provided
        got: usize,
    },
    /// The input tensor's lane count does not match the simulator's batch.
    BatchMismatch {
        /// the simulator's batch size
        expected: usize,
        /// lanes the caller provided
        got: usize,
    },
    /// A resumable session carries a state vector of the wrong width for
    /// this network (it was created for a different model).
    StateWidth {
        /// state bits the network has
        expected: usize,
        /// state bits the session carries
        got: usize,
    },
    /// A guarded check found a value outside {0, 1} — exactness is broken.
    NonBinary {
        /// which tensor the value was found in: `"input"`, `"output"`, or
        /// `"state"`
        stage: &'static str,
        /// feature (row) index
        feature: usize,
        /// testbench (lane) index
        lane: usize,
        /// the offending value
        value: f64,
    },
    /// The per-cycle weight checksum no longer matches the reference taken
    /// when the guard was enabled: model memory was modified.
    WeightsCorrupted {
        /// checksum recorded at guard-enable time
        expected: u64,
        /// checksum of the weights as they are now
        got: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoLayers => write!(f, "network has no layers"),
            SimError::InputWidth { expected, got } => {
                write!(
                    f,
                    "input width mismatch: network expects {expected}, got {got}"
                )
            }
            SimError::BatchMismatch { expected, got } => {
                write!(
                    f,
                    "batch mismatch: simulator runs {expected} lanes, input has {got}"
                )
            }
            SimError::StateWidth { expected, got } => write!(
                f,
                "session state width mismatch: network has {expected} state bits, session \
                 carries {got} (created for a different model?)"
            ),
            SimError::NonBinary {
                stage,
                feature,
                lane,
                value,
            } => write!(
                f,
                "exactness violation: {stage}[feature {feature}, lane {lane}] = {value} \
                 is not 0 or 1"
            ),
            SimError::WeightsCorrupted { expected, got } => write!(
                f,
                "weight memory corrupted: checksum {got:#018x}, expected {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// What one clock cycle of a network looks like from outside: its port
/// widths and depth. Both engines report it, and the shape contract every
/// stepping entry point enforces is raised from here and nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepShape {
    /// Primary inputs a testbench drives each cycle.
    pub inputs: usize,
    /// Primary outputs read back each cycle.
    pub outputs: usize,
    /// Flip-flop cut bits fed back between cycles.
    pub state: usize,
    /// Layers per forward pass (zero is rejected, not stepped).
    pub layers: usize,
}

impl StepShape {
    /// Check one cycle's input block against the network and the `lanes`
    /// being stepped: `got_lanes` is the block's lane count and `widths`
    /// yields its feature count (once for a tensor, per lane for ragged
    /// bit vectors).
    pub fn check_inputs(
        &self,
        lanes: usize,
        got_lanes: usize,
        widths: impl IntoIterator<Item = usize>,
    ) -> Result<(), SimError> {
        if self.layers == 0 {
            return Err(SimError::NoLayers);
        }
        if got_lanes != lanes {
            return Err(SimError::BatchMismatch {
                expected: lanes,
                got: got_lanes,
            });
        }
        match widths.into_iter().find(|&w| w != self.inputs) {
            Some(got) => Err(SimError::InputWidth {
                expected: self.inputs,
                got,
            }),
            None => Ok(()),
        }
    }
}

/// FNV-1a over a stream of 64-bit words (weights and biases, bit-exact).
fn fnv1a_words(seed: u64, words: impl Iterator<Item = u64>) -> u64 {
    let mut h = seed;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl<T: Scalar> CompiledNn<T> {
    /// Bit-exact FNV-1a checksum over every weight and bias, in layer order.
    /// Any single-bit change to model memory changes this value.
    pub fn weight_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for layer in &self.layers {
            let (_, _, values) = layer.weights.raw();
            h = fnv1a_words(h, values.iter().map(|v| v.to_bits64()));
            h = fnv1a_words(h, layer.bias.iter().map(|v| v.to_bits64()));
        }
        h
    }

    /// Port widths and depth, as the stepping engines see them.
    pub fn shape(&self) -> StepShape {
        StepShape {
            inputs: self.num_primary_inputs,
            outputs: self.num_primary_outputs,
            state: self.state_bits(),
            layers: self.layers.len(),
        }
    }

    /// Raw combinational forward pass: `x` is `(pi + state) × batch` of
    /// exact 0/1 values; result is `(po + state) × batch`.
    pub fn forward(&self, x: &Dense<T>, device: Device) -> Dense<T> {
        let mut scratch = (Dense::zeros(0, 0), Dense::zeros(0, 0));
        self.forward_with(x, device, &mut scratch).clone()
    }

    /// [`CompiledNn::forward`] with caller-owned ping-pong scratch buffers,
    /// avoiding all per-layer allocation. Returns a reference into the
    /// scratch pair (valid until the next call).
    ///
    /// A zero-layer network acts as the identity (the input is copied
    /// through unchanged) rather than panicking; [`CompiledNn::validate`]
    /// rejects such models before they reach simulation.
    pub fn forward_with<'s>(
        &self,
        x: &Dense<T>,
        device: Device,
        scratch: &'s mut (Dense<T>, Dense<T>),
    ) -> &'s Dense<T> {
        assert_eq!(x.rows(), self.in_width(), "input width mismatch");
        let (a, b) = scratch;
        if self.layers.is_empty() {
            a.resize_to(x.rows(), x.cols());
            a.data_mut().copy_from_slice(x.data());
            return &scratch.0;
        }
        self.layers[0].forward_into(x, device, a);
        let mut flip = false; // result currently in `a`
        for layer in &self.layers[1..] {
            if flip {
                layer.forward_into(b, device, a);
            } else {
                layer.forward_into(a, device, b);
            }
            flip = !flip;
        }
        if flip {
            &scratch.1
        } else {
            &scratch.0
        }
    }

    /// [`CompiledNn::forward_with`] with the panics replaced by typed
    /// errors: width mismatches and zero-layer networks come back as
    /// [`SimError`]s instead of aborting the process.
    pub fn try_forward_with<'s>(
        &self,
        x: &Dense<T>,
        device: Device,
        scratch: &'s mut (Dense<T>, Dense<T>),
    ) -> Result<&'s Dense<T>, SimError> {
        if self.layers.is_empty() {
            return Err(SimError::NoLayers);
        }
        if x.rows() != self.in_width() {
            return Err(SimError::InputWidth {
                expected: self.in_width(),
                got: x.rows(),
            });
        }
        Ok(self.forward_with(x, device, scratch))
    }

    /// Evaluate one combinational input assignment (bools in, bools out).
    /// For sequential circuits the input must include the state bits.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let x = Dense::from_lanes(&[inputs.to_vec()]);
        let y = self.forward(&x, Device::Serial);
        y.to_lanes().into_iter().next().unwrap_or_default()
    }

    /// [`CompiledNn::eval`] with typed errors instead of panics: a
    /// zero-layer network or a wrong-length input is reported, not fatal.
    pub fn try_eval(&self, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
        if self.layers.is_empty() {
            return Err(SimError::NoLayers);
        }
        if inputs.len() != self.in_width() {
            return Err(SimError::InputWidth {
                expected: self.in_width(),
                got: inputs.len(),
            });
        }
        Ok(self.eval(inputs))
    }
}

/// A stateful batched simulator over a compiled network: `B` testbenches in
/// lockstep, state fed back between cycles (the paper's recurrent
/// connection over the flip-flop cut).
pub struct Simulator<'a, T> {
    nn: &'a CompiledNn<T>,
    /// `state_bits × B` current state (feature-major).
    state: Dense<T>,
    device: Device,
    batch: usize,
    cycles: u64,
    /// reusable input assembly and layer ping-pong buffers
    xbuf: Dense<T>,
    scratch: (Dense<T>, Dense<T>),
    /// reference weight checksum while the guard is armed
    guard: Option<u64>,
}

impl<'a, T: Scalar> Simulator<'a, T> {
    /// Create a simulator for `batch` parallel testbenches.
    pub fn new(nn: &'a CompiledNn<T>, batch: usize, device: Device) -> Self {
        let mut sim = Simulator {
            nn,
            state: Dense::zeros(0, 0),
            device,
            batch,
            cycles: 0,
            xbuf: Dense::zeros(0, 0),
            scratch: (Dense::zeros(0, 0), Dense::zeros(0, 0)),
            guard: None,
        };
        sim.reset(batch);
        sim
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    pub fn device(&self) -> Device {
        self.device
    }

    /// Arm the runtime guard, taking the current weights as the trusted
    /// reference. Subsequent [`Simulator::try_step`] calls re-verify the
    /// checksum and check all activations for binary-ness each cycle.
    pub fn enable_guard(&mut self) {
        self.guard = Some(self.nn.weight_checksum());
    }

    /// Arm the runtime guard against an externally supplied reference
    /// checksum (e.g. recorded at compile time and stored with the model),
    /// so corruption that happened *before* simulator construction is
    /// caught too.
    pub fn enable_guard_with(&mut self, reference_checksum: u64) {
        self.guard = Some(reference_checksum);
    }

    /// Disarm the runtime guard; `try_step` reverts to shape checks only.
    pub fn disable_guard(&mut self) {
        self.guard = None;
    }

    /// Whether the runtime guard is armed.
    pub fn guard_enabled(&self) -> bool {
        self.guard.is_some()
    }

    /// Current state as per-lane bit vectors.
    pub fn state_lanes(&self) -> Vec<Vec<bool>> {
        self.state.to_lanes()
    }

    /// Port widths and depth of the network being stepped.
    pub fn shape(&self) -> StepShape {
        self.nn.shape()
    }

    /// Put `lanes` testbenches at the power-on state (the lane count may
    /// differ from the previous run's; buffers are reused).
    pub fn reset(&mut self, lanes: usize) {
        self.batch = lanes;
        self.state.resize_to(self.nn.state_bits(), lanes);
        for (row, &init) in self
            .state
            .data_mut()
            .chunks_mut(lanes.max(1))
            .zip(&self.nn.state_init)
        {
            row.fill(if init { T::ONE } else { T::ZERO });
        }
        self.cycles = 0;
    }

    /// Copy the resident state out as bit planes (`state_bits × lanes`).
    pub fn read_state(&self, planes: &mut BitTensor) {
        planes.resize_to(self.state.rows(), self.batch);
        planes.pack_scalars(self.state.data());
    }

    /// Replace the resident state with `planes` (`state_bits × lanes`);
    /// the lane count follows the planes. The cycle counter is untouched.
    pub fn write_state(&mut self, planes: &BitTensor) {
        assert_eq!(planes.features(), self.nn.state_bits(), "state width");
        self.batch = planes.batch();
        self.state.resize_to(planes.features(), planes.batch());
        planes.unpack_scalars(self.state.data_mut());
    }

    /// One clock cycle for the whole batch: `inputs` is
    /// `num_primary_inputs × B` feature-major; returns
    /// `num_primary_outputs × B`.
    ///
    /// This is the unguarded hot path (shape asserts only). Use
    /// [`Simulator::try_step`] for typed errors and the opt-in corruption
    /// guard.
    pub fn step(&mut self, inputs: &Dense<T>) -> Dense<T> {
        assert_eq!(inputs.cols(), self.batch, "batch mismatch");
        assert_eq!(
            inputs.rows(),
            self.nn.num_primary_inputs,
            "primary-input width mismatch"
        );
        let mut out = Dense::zeros(self.nn.num_primary_outputs, self.batch);
        self.cycle(
            |x| x.copy_from_slice(inputs.data()),
            |y| out.data_mut().copy_from_slice(y),
        );
        out
    }

    /// [`Simulator::step`] on the interchange type: `inputs` arrives as bit
    /// planes (`num_primary_inputs × B`) and the outputs land in `out`
    /// (`num_primary_outputs × B`, resized in place, ragged tails zero).
    /// Only the ports are converted — the state stays in `T` between
    /// cycles.
    pub fn step_packed_into(
        &mut self,
        inputs: &BitTensor,
        out: &mut BitTensor,
    ) -> Result<(), SimError> {
        self.shape()
            .check_inputs(self.batch, inputs.batch(), [inputs.features()])?;
        out.resize_to(self.nn.num_primary_outputs, self.batch);
        self.cycle(|x| inputs.unpack_scalars(x), |y| out.pack_scalars(y));
        Ok(())
    }

    /// The state-feedback loop: `load` fills the primary-input rows of
    /// `x = [inputs ; state]`, one forward pass runs, `store` reads the
    /// primary-output rows of `y = [outputs ; next state]`, and the next
    /// state replaces the resident one.
    fn cycle(&mut self, load: impl FnOnce(&mut [T]), store: impl FnOnce(&[T])) {
        let pi = self.nn.num_primary_inputs;
        let po = self.nn.num_primary_outputs;
        let s = self.nn.state_bits();
        // contiguous block copies in feature-major
        self.xbuf.resize_to(pi + s, self.batch);
        let (x_in, x_state) = self.xbuf.data_mut().split_at_mut(pi * self.batch);
        load(x_in);
        x_state.copy_from_slice(self.state.data());
        let y = self
            .nn
            .forward_with(&self.xbuf, self.device, &mut self.scratch);
        debug_assert_eq!(y.rows(), po + s);
        let (y_out, y_state) = y.data().split_at(po * self.batch);
        store(y_out);
        self.state.data_mut().copy_from_slice(y_state);
        self.cycles += 1;
    }

    /// [`Simulator::step`] with typed errors, plus — when
    /// [`Simulator::enable_guard`] is armed — per-cycle self-checking:
    ///
    /// 1. the weight checksum must still match the reference,
    /// 2. every input value must be exactly 0 or 1,
    /// 3. every output and next-state value must be exactly 0 or 1.
    ///
    /// Any violation aborts the cycle *before* state is committed (for
    /// checks 1–2) or after computing it (check 3), so a detected fault
    /// never silently propagates into subsequent cycles' results being
    /// reported as trustworthy.
    pub fn try_step(&mut self, inputs: &Dense<T>) -> Result<Dense<T>, SimError> {
        self.shape()
            .check_inputs(self.batch, inputs.cols(), [inputs.rows()])?;
        if let Some(reference) = self.guard {
            let now = self.nn.weight_checksum();
            if now != reference {
                return Err(SimError::WeightsCorrupted {
                    expected: reference,
                    got: now,
                });
            }
            check_binary(inputs, "input")?;
            // the *current* state is consumed by this cycle, so an upset that
            // happened since the last step must be caught before the forward
            // pass launders it back into binary values
            check_binary(&self.state, "state")?;
        }
        let out = self.step(inputs);
        if self.guard.is_some() {
            check_binary(&out, "output")?;
            check_binary(&self.state, "state")?;
        }
        Ok(out)
    }

    /// Run a whole stimulus tensor: `stimuli[c]` is the batch input of
    /// cycle `c`. Returns one output batch per cycle.
    pub fn run(&mut self, stimuli: &[Dense<T>]) -> Vec<Dense<T>> {
        stimuli.iter().map(|s| self.step(s)).collect()
    }

    /// [`Simulator::run`] through [`Simulator::try_step`]: stops at the
    /// first fault, returning the cycle index alongside the error.
    pub fn try_run(&mut self, stimuli: &[Dense<T>]) -> Result<Vec<Dense<T>>, (usize, SimError)> {
        stimuli
            .iter()
            .enumerate()
            .map(|(c, s)| self.try_step(s).map_err(|e| (c, e)))
            .collect()
    }

    /// Mutable access to the raw state tensor — exists for fault-injection
    /// experiments (see [`crate::faults`]); normal users never need it.
    pub fn state_data_mut(&mut self) -> &mut [T] {
        self.state.data_mut()
    }
}

/// Check every element of a feature-major tensor is exactly 0 or 1.
fn check_binary<T: Scalar>(t: &Dense<T>, stage: &'static str) -> Result<(), SimError> {
    let cols = t.cols().max(1);
    for (i, &v) in t.data().iter().enumerate() {
        if v != T::ZERO && v != T::ONE {
            return Err(SimError::NonBinary {
                stage,
                feature: i / cols,
                lane: i % cols,
                value: v.to_f64(),
            });
        }
    }
    Ok(())
}

/// Build a feature-major batched input tensor from per-testbench bit
/// vectors (`rows[l]` = lane `l`'s inputs).
pub fn batch_from_bits<T: Scalar>(rows: &[Vec<bool>]) -> Dense<T> {
    Dense::from_lanes(rows)
}
