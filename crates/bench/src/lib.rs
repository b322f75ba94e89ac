//! # c2nn-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper (see DESIGN.md §4 for the experiment index):
//!
//! * [`experiments`] — one function per artifact: Table I, Figure 4,
//!   Figure 6, and the ablations (merging, sparse-vs-dense, batch sweep,
//!   f32-vs-i32), priced on the GPU we do not have by
//!   [`c2nn_hal::DeviceModel`] (DESIGN.md §2 documents the substitution);
//! * [`harness`] — adaptive timing and the gates·cycles/s metric;
//! * [`serve_scale`] — the serving scaling curve (closed-loop client sweep,
//!   past-saturation probe, `/metrics` scrape) behind the `serve_scale`
//!   binary and its CI gate (`bench_gate`);
//! * [`wire`] — the JSON-vs-binary codec comparison behind the
//!   `wire_bench` binary and its CI gate (binary ≥ 2× JSON at 256-cycle
//!   batches).
//!
//! Entry point: `cargo run -p c2nn-bench --release --bin reproduce -- all`.

pub mod experiments;
pub mod harness;
pub mod serve_scale;
pub mod wire;
