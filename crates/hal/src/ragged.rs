//! The ragged run-to-completion driver: many testbenches of different
//! lengths, one lane each, one [`Runner::advance`] per cycle.
//!
//! Every production job has this shape — `c2nn sim` / `c2nn bench` through
//! [`Plan::execute_batch`](crate::Plan::execute_batch) and the serve
//! scheduler's coalesced batches — and every testbench reaches it in the
//! one in-memory form, [`CycleRows`]: whoever owns an edge (the CLI's
//! `Stimulus`, a connection's wire planes or text) converts once per
//! testbench. Each cycle is then two 64×64 block transposes — every lane's
//! row `c` into the input planes, the output planes back into every lane's
//! row `c` — and a finished testbench has no row `c`: it idles at zero and
//! records nothing. The lane set is fixed for the run, so the runner is
//! reset once and its state never leaves the engine.

use crate::backend::Runner;
use c2nn_core::{BitTensor, CycleRows, SimError};

/// One lane's recorded outputs: as many rows as its testbench had cycles,
/// one bit per primary output.
pub type SimOutput = CycleRows;

/// A ragged batch in flight on one runner. [`start`](RaggedBatch::start)
/// validates and resets, [`step`](RaggedBatch::step) advances one cycle
/// (callers that must contain a panic wrap this call),
/// [`finish`](RaggedBatch::finish) hands back one [`SimOutput`] per lane.
pub struct RaggedBatch<'a> {
    runner: &'a mut (dyn Runner + 'a),
    benches: Vec<&'a CycleRows>,
    outputs: Vec<SimOutput>,
    x: BitTensor,
    y: BitTensor,
    cycle: usize,
    cycles: usize,
}

impl<'a> RaggedBatch<'a> {
    /// Check every testbench's input width against the runner's network
    /// (typed [`SimError::InputWidth`], nothing is truncated; a testbench
    /// of no cycles has no width to be wrong) and put one lane per
    /// testbench at the power-on state.
    pub fn start(
        runner: &'a mut (dyn Runner + 'a),
        benches: Vec<&'a CycleRows>,
    ) -> Result<Self, SimError> {
        let shape = runner.shape();
        let lanes = benches.len();
        let driven = benches.iter().filter(|b| b.num_cycles() > 0);
        shape.check_inputs(lanes, lanes, driven.map(|b| b.ports()))?;
        runner.reset(lanes);
        let outputs = benches
            .iter()
            .map(|b| SimOutput::zeros(b.num_cycles(), shape.outputs));
        Ok(RaggedBatch {
            runner,
            cycles: benches.iter().map(|b| b.num_cycles()).max().unwrap_or(0),
            outputs: outputs.collect(),
            benches,
            x: BitTensor::zeros(shape.inputs, lanes),
            y: BitTensor::zeros(0, 0),
            cycle: 0,
        })
    }

    /// Index of the cycle the next [`step`](RaggedBatch::step) runs.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// Whether the longest testbench has finished.
    pub fn done(&self) -> bool {
        self.cycle == self.cycles
    }

    /// Run one cycle across all lanes.
    pub fn step(&mut self) -> Result<(), SimError> {
        let c = self.cycle;
        let inputs = self.x.features();
        self.x
            .gather_rows(inputs, &self.benches, |bench| bench.row(c));
        self.runner.advance(&self.x, &mut self.y)?;
        self.y.scatter_rows(&mut self.outputs, |out| out.row_mut(c));
        self.cycle += 1;
        Ok(())
    }

    /// The per-lane results, in testbench order.
    pub fn finish(self) -> Vec<SimOutput> {
        self.outputs
    }
}
