//! The ragged run-to-completion driver: many testbenches of different
//! lengths, one lane each, one [`Runner::advance`] per cycle.
//!
//! Every production job has this shape — `c2nn sim` / `c2nn bench` through
//! [`Plan::execute_batch`](crate::Plan::execute_batch) and the serve
//! scheduler's coalesced batches — so the two conversions it needs are
//! written here once: *ragged stimuli → this cycle's input planes* and
//! *output planes → per-lane results that stop at each lane's own length*.
//! The lane set is fixed for the run, so the runner is reset once and its
//! state never leaves the engine.

use crate::backend::Runner;
use c2nn_core::{BitTensor, SimError};

/// One lane's testbench, borrowed in the shape it arrived in.
#[derive(Clone, Copy, Debug)]
pub enum Testbench<'a> {
    /// `cycles[c][f]` = primary input `f` at cycle `c` (parsed text).
    Lanes(&'a [Vec<bool>]),
    /// Feature-major bit planes straight off the binary wire: `features` =
    /// primary inputs, `batch` = cycles.
    Packed(&'a BitTensor),
}

impl Testbench<'_> {
    /// Number of stimulus cycles.
    pub fn num_cycles(&self) -> usize {
        match self {
            Testbench::Lanes(cycles) => cycles.len(),
            Testbench::Packed(planes) => planes.batch(),
        }
    }

    /// The input width of every cycle this testbench carries.
    fn widths(&self) -> impl Iterator<Item = usize> + '_ {
        let (cycles, planes) = match *self {
            Testbench::Lanes(cycles) => (cycles, None),
            Testbench::Packed(planes) => (&[][..], Some(planes.features())),
        };
        cycles.iter().map(Vec::len).chain(planes)
    }

    /// Set lane `lane` of `x` to this testbench's inputs at `cycle` (`x` is
    /// pre-zeroed; a finished testbench idles at zero).
    fn load(&self, cycle: usize, lane: usize, x: &mut BitTensor) {
        match self {
            Testbench::Lanes(cycles) => {
                let bits = cycles.get(cycle).into_iter().flatten();
                for (f, _) in bits.enumerate().filter(|(_, &bit)| bit) {
                    x.set_bit(f, lane, true);
                }
            }
            Testbench::Packed(planes) if cycle < planes.batch() => {
                for f in (0..planes.features()).filter(|&f| planes.get_bit(f, cycle)) {
                    x.set_bit(f, lane, true);
                }
            }
            Testbench::Packed(_) => {}
        }
    }
}

/// One lane's outputs, in the shape its testbench arrived in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimOutput {
    /// `outputs[c][j]` = primary output `j` at cycle `c` (LSB-first).
    Lanes(Vec<Vec<bool>>),
    /// Feature-major output bit planes (`features` = primary outputs,
    /// `batch` = cycles, ragged tails zero).
    Packed(BitTensor),
}

impl SimOutput {
    /// Number of simulated cycles.
    pub fn num_cycles(&self) -> usize {
        match self {
            SimOutput::Lanes(v) => v.len(),
            SimOutput::Packed(bt) => bt.batch(),
        }
    }

    /// Per-cycle output bit vectors, converting packed planes if needed.
    pub fn lanes(&self) -> Vec<Vec<bool>> {
        match self {
            SimOutput::Lanes(v) => v.clone(),
            SimOutput::Packed(bt) => bt.to_lanes(),
        }
    }

    /// [`SimOutput::lanes`] by value: lane results move out uncopied.
    pub fn into_lanes(self) -> Vec<Vec<bool>> {
        match self {
            SimOutput::Lanes(v) => v,
            packed => packed.lanes(),
        }
    }

    /// Append lane `lane` of this cycle's output planes `y`.
    fn record(&mut self, cycle: usize, lane: usize, y: &BitTensor) {
        match self {
            SimOutput::Lanes(v) => v.push((0..y.features()).map(|f| y.get_bit(f, lane)).collect()),
            SimOutput::Packed(out) => {
                for f in (0..y.features()).filter(|&f| y.get_bit(f, lane)) {
                    out.set_bit(f, cycle, true);
                }
            }
        }
    }
}

/// A ragged batch in flight on one runner. [`start`](RaggedBatch::start)
/// validates and resets, [`step`](RaggedBatch::step) advances one cycle
/// (callers that must contain a panic wrap this call),
/// [`finish`](RaggedBatch::finish) hands back one [`SimOutput`] per lane.
pub struct RaggedBatch<'a> {
    runner: &'a mut (dyn Runner + 'a),
    benches: Vec<Testbench<'a>>,
    outputs: Vec<SimOutput>,
    x: BitTensor,
    y: BitTensor,
    cycle: usize,
    cycles: usize,
}

impl<'a> RaggedBatch<'a> {
    /// Check every testbench's input width against the runner's network
    /// (typed [`SimError::InputWidth`], nothing is truncated) and put one
    /// lane per testbench at the power-on state.
    pub fn start(
        runner: &'a mut (dyn Runner + 'a),
        benches: Vec<Testbench<'a>>,
    ) -> Result<Self, SimError> {
        let shape = runner.shape();
        let lanes = benches.len();
        shape.check_inputs(lanes, lanes, benches.iter().flat_map(Testbench::widths))?;
        runner.reset(lanes);
        let outputs = benches
            .iter()
            .map(|b| match b {
                Testbench::Lanes(cycles) => SimOutput::Lanes(Vec::with_capacity(cycles.len())),
                Testbench::Packed(planes) => {
                    SimOutput::Packed(BitTensor::zeros(shape.outputs, planes.batch()))
                }
            })
            .collect();
        Ok(RaggedBatch {
            runner,
            cycles: benches.iter().map(Testbench::num_cycles).max().unwrap_or(0),
            benches,
            outputs,
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
        self.x.data_mut().fill(0);
        for (lane, bench) in self.benches.iter().enumerate() {
            bench.load(c, lane, &mut self.x);
        }
        self.runner.advance(&self.x, &mut self.y)?;
        let live = self.benches.iter().zip(&mut self.outputs).enumerate();
        for (lane, (_, out)) in live.filter(|(_, (b, _))| c < b.num_cycles()) {
            out.record(c, lane, &self.y);
        }
        self.cycle += 1;
        Ok(())
    }

    /// The per-lane results, in testbench order.
    pub fn finish(self) -> Vec<SimOutput> {
        self.outputs
    }
}
