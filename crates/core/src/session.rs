//! Resumable per-lane simulation sessions.
//!
//! A [`Simulator`](crate::Simulator) owns one fixed batch: `B` testbenches
//! created together, stepped together, destroyed together, their state
//! resident in the engine between cycles. That is the shape every
//! run-to-completion job has. A caller that wants to *recompose* the batch
//! between cycles — park a lane, admit a newcomer, drop one — needs each
//! lane's recurrent state detached from any particular batch.
//!
//! A [`Session`] is that unit: one testbench's flip-flop cut values, bit
//! packed, plus its cycle count. [`Session::gather`] transposes any set of
//! sessions into the `state_bits × lanes` planes an engine's `write_state`
//! takes and [`Session::scatter`] brings the next state back, so the
//! composition of the batch can change freely between cycles while every
//! lane's own trajectory stays bit-exact (lanes are independent columns of
//! the forward pass).

use crate::bitplane::BitTensor;
use crate::compile::CompiledNn;
use c2nn_tensor::Scalar;
use std::marker::PhantomData;

/// The resumable state of one simulation lane: one testbench's flip-flop
/// values and its cycle count. Cheap to create, move, and park between
/// batched steps. `T` names the scalar type of the network the session was
/// created for; the bits themselves are engine-independent.
#[derive(Clone, Debug, PartialEq)]
pub struct Session<T> {
    /// Flip-flop `f` is bit `f % 64` of word `f / 64`; bits past `width`
    /// are zero.
    state: Vec<u64>,
    width: usize,
    cycles: u64,
    _scalar: PhantomData<T>,
}

impl<T: Scalar> Session<T> {
    /// A fresh session at the power-on state of `nn`.
    pub fn new(nn: &CompiledNn<T>) -> Self {
        let width = nn.state_init.len();
        let mut state = vec![0u64; width.div_ceil(64)];
        for (f, _) in nn.state_init.iter().enumerate().filter(|(_, &b)| b) {
            state[f / 64] |= 1 << (f % 64);
        }
        Session {
            state,
            width,
            cycles: 0,
            _scalar: PhantomData,
        }
    }

    /// Cycles this lane has simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Flip-flop bits this session carries (the state width of the network
    /// it was created for).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current state as bits.
    pub fn state_bits(&self) -> Vec<bool> {
        (0..self.width)
            .map(|f| self.state[f / 64] >> (f % 64) & 1 == 1)
            .collect()
    }

    /// Transpose the sessions' states into `planes` (`width × sessions.len()`,
    /// lane order preserved). Every session must carry the same width.
    pub fn gather(sessions: &[Self], planes: &mut BitTensor) {
        let width = sessions.first().map_or(0, Session::width);
        debug_assert!(sessions.iter().all(|s| s.width == width));
        planes.gather_rows(width, sessions, |s| &s.state);
    }

    /// Inverse of [`Session::gather`] after one lockstep cycle: every
    /// session takes its lane's next state from `planes` and counts the
    /// cycle.
    pub fn scatter(sessions: &mut [Self], planes: &BitTensor) {
        planes.scatter_rows(sessions, |s| &mut s.state);
        for s in sessions {
            s.cycles += 1;
        }
    }
}
