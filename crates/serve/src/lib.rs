//! # c2nn-serve — a batching simulation service
//!
//! The paper's core observation is that a compiled circuit-as-network
//! evaluates *B independent testbenches* in one forward pass: testbenches
//! are just batch lanes. This crate turns that observation into a serving
//! architecture:
//!
//! ```text
//!  clients ──TCP──▶ driver ──▶ conn ──▶ registry ──▶ per-model scheduler ──▶ pool
//!  (N conns)       (bytes)   (frames)  (LRU cache)   (micro-batching)     (threads)
//! ```
//!
//! * [`protocol`] — a codec layer over TCP: newline-delimited JSON frames
//!   and a length-prefixed binary format carrying packed bit planes, with
//!   per-frame codec negotiation by first-byte sniffing; every frame is
//!   untrusted input and decodes without panicking.
//! * [`registry`] — loads models through full structural validation, caches
//!   them under a byte budget with LRU eviction.
//! * [`scheduler`] — per-model micro-batching: requests queue until
//!   `max_batch` lanes accumulate or a `max_wait` deadline expires, then
//!   run as **one** batched forward pass per cycle; per-lane outputs
//!   scatter back to their clients.
//! * [`conn`] — the sans-I/O connection state machine: bytes in, reply
//!   bytes and at most one pending job out. Every protocol decision (HTTP
//!   sniff, wire policy, dispatch, admission, ordering, backpressure,
//!   drain) is made here, once, with no socket and no clock.
//! * [`server`] / [`client`] — `std::net` TCP endpoints, no async runtime.
//!   The server pumps [`conn`] cores from one epoll thread on Linux
//!   (`event_loop`) and from a blocking thread per connection elsewhere.
//! * [`stats`] — relaxed atomic counters and a log-bucketed latency
//!   histogram per model, served over the same protocol.
//! * [`signal`] — SIGINT → graceful shutdown, without a libc dependency.
//! * [`admission`] — bounded in-flight budgets, a pressure ladder, and
//!   typed `Overloaded`/`ShuttingDown` rejections: overload is a contract,
//!   not a timeout.
//! * [`chaos`] — deterministic, seeded fault injection (worker panics,
//!   scheduler stalls, hostile clients) for the chaos test suite and the
//!   CI `chaos-smoke` job.
//!
//! Batched forward passes execute on the persistent worker pool in
//! `c2nn-tensor` ([`c2nn_tensor::Pool`]), so serving steady-state does no
//! thread spawning: not per request, not per batch, not per layer.

#![forbid(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod conn;
#[cfg(target_os = "linux")]
mod event_loop;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod signal;
pub mod stats;

pub use admission::{Admission, AdmitError, Pressure, SimPermit};
pub use chaos::{Chaos, ChaosConfig, Rng};
pub use client::{Backoff, Client, ClientError, StatsSnapshot};
pub use conn::{Completer, Connection, Shared};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use metrics::IoGauges;
pub use protocol::{
    BackendSelectionReport, BinaryCodec, Codec, Frame, FrameBuffer, FrameLimits, FrameReader,
    JsonCodec, ModelStatsReport, ProtocolError, Request, Response, ServerStatsReport, SimOutputs,
    StimPayload, WireFormat, MAX_FRAME, PROTOCOL_VERSION,
};
pub use registry::{Registry, RegistryConfig};
pub use scheduler::{BatchConfig, ServedModel, SimFailure, SimOutput};
pub use server::{spawn_server, ServerConfig, ServerHandle, WirePolicy};
