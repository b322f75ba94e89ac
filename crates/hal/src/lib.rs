//! # c2nn-hal — the backend hardware-abstraction layer
//!
//! Pluggable execution backends behind one trait contract, with a
//! built-in cost table driving `--backend auto` (DESIGN.md §14).
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
//!   table-driven selection ([`BackendRegistry::select`]).
//! * [`DeviceCalibration`] / [`BackendCalibration`] ([`cost`]) — the
//!   per-backend cost table, built in
//!   ([`DeviceCalibration::default_host`]): selection is a pure function
//!   of the admitted plans and the lane count (the only cost model the
//!   HAL names; the analytic model of the paper's GPU lives with the
//!   `reproduce` binary in `c2nn-bench`).
//! * [`conformance`] — the shared bit-exactness suite every backend
//!   (in-tree or out) must pass.

pub mod backend;
pub mod backends;
pub mod conformance;
pub mod cost;
pub mod ragged;
pub mod registry;

pub use backend::{Backend, Manifest, Plan, Reject, Runner};
pub use backends::{BitplaneBackend, CsrBackend};
pub use cost::{BackendCalibration, DeviceCalibration};
pub use ragged::{RaggedBatch, SimOutput};
pub use registry::{BackendRegistry, Candidate, Choice, SelectError, Selection};
