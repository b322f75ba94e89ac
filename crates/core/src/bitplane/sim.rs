//! The cycle-accurate driver for the bit-plane backend, mirroring the CSR
//! path's [`Simulator`](crate::Simulator): a fixed set of lanes whose
//! recurrent state stays packed and resident between cycles.

use super::exec::BitplaneScratch;
use super::pack::BitTensor;
use super::plan::BitplaneNn;
use crate::sim::{SimError, StepShape};
use c2nn_tensor::Device;

/// A sequential simulator over a bit-plane program: `batch` testbenches
/// advance one clock per [`step_packed_into`](BitplaneSimulator::step_packed_into),
/// 64 of them per machine word.
pub struct BitplaneSimulator<'a> {
    nn: &'a BitplaneNn,
    /// `state_bits × batch` planes; tail bits are unspecified.
    state: BitTensor,
    batch: usize,
    cycles: u64,
    device: Device,
    xbuf: BitTensor,
    scratch: BitplaneScratch,
}

impl<'a> BitplaneSimulator<'a> {
    /// A simulator over `nn` with `batch` lanes, all at the power-on state.
    pub fn new(nn: &'a BitplaneNn, batch: usize, device: Device) -> Self {
        let mut sim = BitplaneSimulator {
            nn,
            state: BitTensor::zeros(0, 0),
            batch,
            cycles: 0,
            device,
            xbuf: BitTensor::zeros(0, 0),
            scratch: BitplaneScratch::default(),
        };
        sim.reset(batch);
        sim
    }

    /// The program this simulator runs.
    pub fn nn(&self) -> &BitplaneNn {
        self.nn
    }

    /// Lane count.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current flip-flop values per lane.
    pub fn state_lanes(&self) -> Vec<Vec<bool>> {
        self.state.to_lanes()
    }

    /// Port widths and depth of the program being stepped.
    pub fn shape(&self) -> StepShape {
        self.nn.shape()
    }

    /// Put `lanes` testbenches at the power-on state (the lane count may
    /// differ from the previous run's; buffers are reused).
    pub fn reset(&mut self, lanes: usize) {
        self.batch = lanes;
        self.state.resize_to(self.nn.state_bits(), lanes);
        for (f, &init) in self.nn.state_init.iter().enumerate() {
            self.state
                .feature_words_mut(f)
                .fill(if init { !0 } else { 0 });
        }
        self.cycles = 0;
    }

    /// Copy the resident state out (`state_bits × lanes`, ragged tails
    /// zero).
    pub fn read_state(&self, planes: &mut BitTensor) {
        planes.resize_to(self.state.features(), self.batch);
        planes.data_mut().copy_from_slice(self.state.data());
        planes.mask_tails();
    }

    /// Replace the resident state with `planes` (`state_bits × lanes`);
    /// the lane count follows the planes. The cycle counter is untouched.
    pub fn write_state(&mut self, planes: &BitTensor) {
        assert_eq!(planes.features(), self.nn.state_bits(), "state width");
        self.batch = planes.batch();
        self.state.resize_to(planes.features(), planes.batch());
        self.state.data_mut().copy_from_slice(planes.data());
    }

    /// Advance one clock. `inputs` is packed (`num_primary_inputs ×
    /// batch`); outputs land in `out` (`num_primary_outputs × batch`,
    /// resized in place, ragged tails zero). Nothing is converted at either
    /// end and the state never leaves its planes.
    pub fn step_packed_into(
        &mut self,
        inputs: &BitTensor,
        out: &mut BitTensor,
    ) -> Result<(), SimError> {
        self.shape()
            .check_inputs(self.batch, inputs.batch(), [inputs.features()])?;
        let pi = self.nn.num_primary_inputs;
        let po = self.nn.num_primary_outputs;
        // x = [inputs ; state], whole planes at a time
        self.xbuf.resize_to(pi + self.nn.state_bits(), self.batch);
        let w = self.xbuf.words_per_feature();
        let (x_in, x_state) = self.xbuf.data_mut().split_at_mut(pi * w);
        x_in.copy_from_slice(inputs.data());
        x_state.copy_from_slice(self.state.data());
        let y = self
            .nn
            .forward_with(&self.xbuf, self.device, &mut self.scratch);
        debug_assert_eq!(y.features(), po + self.nn.state_bits());
        // y = [outputs ; next state]
        let (y_out, y_state) = y.data().split_at(po * w);
        out.resize_to(po, self.batch);
        out.data_mut().copy_from_slice(y_out);
        // inverting ops and power-on planes set bits past `batch`; they
        // must not leave the engine
        out.mask_tails();
        self.state.data_mut().copy_from_slice(y_state);
        self.cycles += 1;
        Ok(())
    }
}
