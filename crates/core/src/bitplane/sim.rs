//! The cycle-accurate driver for the bit-plane backend, mirroring the CSR
//! path's [`Simulator`](crate::Simulator): a fixed set of lanes whose
//! recurrent state stays packed and resident between cycles.

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
    /// Every plane of one cycle (see [`BitplaneNn::forward`]).
    planes: Vec<u64>,
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
            planes: Vec::new(),
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
        let nn = self.nn;
        let (pi, po) = (nn.num_primary_inputs, nn.num_primary_outputs);
        let w = self.state.words_per_feature();
        let len = nn.planes() * w;
        if self.planes.len() < len {
            // fresh zeroed pages, not a zeroing pass: every plane is
            // written before it is read
            self.planes = vec![0; len];
        }
        let planes = &mut self.planes[..len];
        // the file's head is [inputs ; state], whole planes at a time
        planes[..pi * w].copy_from_slice(inputs.data());
        planes[pi * w..nn.in_width() * w].copy_from_slice(self.state.data());
        nn.forward(planes, w, self.device);
        out.resize_to(po, self.batch);
        gather(out.data_mut(), planes, &nn.gather[..po], w);
        // inverting ops and power-on planes set bits past `batch`; they
        // must not leave the engine
        out.mask_tails();
        // never in place: one flip-flop's next state is another's current
        gather(self.state.data_mut(), planes, &nn.gather[po..], w);
        self.cycles += 1;
        Ok(())
    }
}

/// Copy plane `ids[i]` of `planes` into plane `i` of `dst` (`w` words each).
fn gather(dst: &mut [u64], planes: &[u64], ids: &[u32], w: usize) {
    for (i, &p) in ids.iter().enumerate() {
        dst[i * w..][..w].copy_from_slice(&planes[p as usize * w..][..w]);
    }
}
