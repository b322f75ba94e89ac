//! # c2nn-hal — the backend hardware-abstraction layer
//!
//! Pluggable execution backends behind one trait contract, with a
//! calibrated cost model driving `--backend auto` (DESIGN.md §14).
//!
//! The pieces:
//!
//! * [`Backend`] / [`Plan`] / [`Runner`] — the contract ([`backend`]):
//!   a backend *admits* a compiled network (fallibly, with a typed
//!   [`Reject`]) into a [`Plan`] carrying a capabilities [`Manifest`];
//!   plans manufacture runners — one engine each, state resident between
//!   cycles, `Session` stepping derived from that loop once.
//! * [`RaggedBatch`] ([`ragged`]) — the run-to-completion driver behind
//!   [`Plan::execute_batch`] and the serve scheduler.
//! * [`backends`] — the three built-in engines: `scalar`, `pooled-csr`,
//!   and `bitplane`.
//! * [`BackendRegistry`] ([`registry`]) — ordered name → backend map with
//!   calibration-driven selection ([`BackendRegistry::select`]).
//! * [`DeviceCalibration`] / [`BackendCalibration`] ([`cost`]) — the
//!   measured per-backend cost model persisted in `results/DEVICE.json`
//!   (the only cost model the HAL names; the analytic model of the
//!   paper's GPU lives with the `reproduce` binary in `c2nn-bench`).
//! * [`calibrate`] — the microbenchmark fit behind `c2nn calibrate`.
//! * [`conformance`] — the shared bit-exactness suite every backend
//!   (in-tree or out) must pass.

pub mod backend;
pub mod backends;
pub mod calibrate;
pub mod conformance;
pub mod cost;
pub mod ragged;
pub mod registry;

pub use backend::{Backend, Manifest, Plan, Reject, RowClassCount, Runner};
pub use backends::{BitplaneBackend, CsrBackend};
pub use calibrate::{calibrate, CalibrateOptions};
pub use cost::{BackendCalibration, DeviceCalibration};
pub use ragged::{RaggedBatch, SimOutput, Testbench};
pub use registry::{BackendRegistry, Candidate, Choice, SelectError, Selection};
