//! The bit-plane execution backend: stimulus parallelism at one bit per
//! lane instead of one scalar per lane.
//!
//! The pooled-CSR path realizes the paper's batching by making every
//! stimulus a dense `f32` column. This module legalizes the same compiled
//! network one step further: every binary signal becomes a *plane* of 64
//! stimuli per machine word, and every neuron becomes the cheapest word
//! op that computes it — AND/OR/NAND/NOR for threshold rows whose decision
//! boundary separates a gate subset (unit weights are the common case, but
//! the classifier is weight-aware and recovers gates from non-±1 rows
//! too), XOR for 0/1-valued linear rows (a row that is always 0/1 equals
//! its own parity), and an exact bit-sliced popcount comparator for
//! anything else, chosen by modeled word-op cost. One `u64` AND advances
//! 64 testbenches one gate.
//!
//! Pipeline: [`BitplaneNn::from_compiled`] (legalize) → [`BitplaneNn::forward_with`]
//! (execute, sharded on the shared worker pool) → [`BitplaneSimulator`]
//! (the cycle driver, state resident in planes, matching the CSR
//! backend's `Simulator`). Pick it at the CLI with `--backend bitplane` /
//! `--backend auto` — the `c2nn-hal` backend registry serves it through
//! the same `Backend` trait as the scalar and pooled-CSR engines. Any
//! compiled network legalizes; one compiled without the layer-merge pass
//! does so popcount-free.
//!
//! Exactness contract: bit-exact with the CSR backend for every network
//! the compiler produces (enforced by the differential lockstep suite in
//! `tests/lockstep_bitplane.rs`). Hand-built models are accepted as long
//! as their weights are integral *and* their intermediate linear rows are
//! 0/1-valued on binary inputs — the same binary-signal domain the scalar
//! guard (`Simulator::enable_guard`) checks for the CSR path.

mod exec;
mod pack;
mod plan;
mod sim;

pub use exec::BitplaneScratch;
pub use pack::BitTensor;
pub use plan::{BitLayer, BitplaneError, BitplaneNn, OpCensus, RowOp};
pub use sim::BitplaneSimulator;
