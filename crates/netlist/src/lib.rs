//! # c2nn-netlist
//!
//! Gate-level netlist intermediate representation for the C2NN workspace —
//! the Rust reproduction of *"Neural Network Compiler for Parallel
//! High-Throughput Simulation of Digital Circuits"* (IPPS 2023).
//!
//! This crate plays the role that Yosys's internal RTLIL netlist plays in the
//! paper's pipeline: every frontend (the Verilog elaborator, the programmatic
//! circuit builders) produces a [`Netlist`], and every backend (the LUT
//! mapper, the reference simulator) consumes one.
//!
//! ## Layout
//!
//! * [`ir`] — the core types: [`Net`], [`Gate`], [`FlipFlop`], [`Netlist`],
//!   with structural validation.
//! * [`build`] — [`NetlistBuilder`]: incremental construction with structural
//!   hashing, constant folding, and truth-table synthesis.
//! * [`word`] — [`WordOps`]: multi-bit operators (adders, shifters, muxes).
//! * [`graph`] — DAG utilities: topological order, levelization, dead-code
//!   sweep, statistics, DOT export.
//! * [`seq`] — sequential transforms: clock unification and flip-flop
//!   cutting (paper §III-C), producing a [`CutCircuit`].
//! * [`blif`] — BLIF interchange: [`to_blif`] and [`from_blif`].
//!
//! ## Example
//!
//! ```
//! use c2nn_netlist::{NetlistBuilder, WordOps};
//!
//! let mut b = NetlistBuilder::new("adder4");
//! let a = b.input_word("a", 4);
//! let c = b.input_word("b", 4);
//! let sum = b.add_word(&a, &c);
//! b.output_word(&sum, "sum");
//! let netlist = b.finish().unwrap();
//! assert!(netlist.is_combinational());
//! ```

pub mod blif;
pub mod build;
pub mod graph;
pub mod ir;
pub mod seq;
pub mod word;

pub use blif::{from_blif, to_blif, BlifError};
pub use build::NetlistBuilder;
pub use graph::{
    binarize, binarize_with, collapse_buffers, depth, fanout_counts, levelize, stats, sweep_dead,
    to_dot, topo_order, NetlistStats,
};
pub use ir::{Driver, FlipFlop, Gate, GateKind, Net, Netlist, NetlistError};
pub use seq::{cut_flipflops, prepare, unify_clocks, CutCircuit, SeqError};
pub use word::WordOps;
