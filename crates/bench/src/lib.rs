//! # c2nn-bench
//!
//! The paper-reproduction harness: it regenerates every table and figure
//! of the paper (see DESIGN.md §4 for the experiment index) and nothing
//! else. Performance claims about this repository — compile time,
//! simulation throughput, serving — are measured by `benchmark/`
//! (`BENCHMARK.json`, `bash benchmark/run.sh`), not here.
//!
//! * [`experiments`] — one function per artifact: Table I, Figure 4,
//!   Figure 6, and the ablations (merging, sparse-vs-dense, batch sweep,
//!   f32-vs-i32, wide gates);
//! * [`device_model`] — the analytic GTX TITAN X model that prices the
//!   "modeled GPU" columns (DESIGN.md §2 documents the substitution);
//! * [`harness`] — adaptive timing and the gates·cycles/s metric.
//!
//! Entry point: `cargo run -p c2nn-bench --release --bin reproduce -- all`.

pub mod device_model;
pub mod experiments;
pub mod harness;
