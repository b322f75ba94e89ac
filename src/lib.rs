//! # c2nn — circuit-to-neural-network compiler
//!
//! Rust reproduction of *"Neural Network Compiler for Parallel
//! High-Throughput Simulation of Digital Circuits"* (IPPS 2023): compile
//! any digital circuit into a computationally equivalent sparse neural
//! network and simulate thousands of testbenches per forward pass.
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | role |
//! |---|---|
//! | [`netlist`] | gate-level IR, builders, sequential transforms |
//! | [`verilog`] | Verilog frontend (lexer/parser/elaborator) |
//! | [`boolfn`] | truth tables, multilinear polynomials, Algorithm 1 |
//! | [`lutmap`] | LUT technology mapping (FlowMap-style) |
//! | [`core`] | the compiler: polynomials → sparse NN |
//! | [`tensor`] | sparse kernels (the PyTorch/cuSPARSE stand-in) |
//! | [`refsim`] | reference simulators (the Verilator stand-in) |
//! | [`circuits`] | AES/SHA/SPI/UART/DMA/RV32I benchmark suite |
//! | [`hal`] | pluggable execution backends + built-in cost table |
//! | [`serve`] | batching simulation service (registry + coalescing) |
//!
//! ## Quickstart
//!
//! ```
//! use c2nn::prelude::*;
//!
//! let netlist = c2nn::verilog::compile(
//!     "module maj(input a, input b, input c, output y);
//!        assign y = (a & b) | (a & c) | (b & c);
//!      endmodule",
//!     "maj",
//! ).unwrap();
//! let nn = compile(&netlist, CompileOptions::with_l(3)).unwrap();
//! assert_eq!(nn.eval(&[true, true, false]), vec![true]);
//! ```

pub use c2nn_boolfn as boolfn;
pub use c2nn_circuits as circuits;
pub use c2nn_core as core;
pub use c2nn_hal as hal;
pub use c2nn_json as json;
pub use c2nn_lutmap as lutmap;
pub use c2nn_netlist as netlist;
pub use c2nn_refsim as refsim;
pub use c2nn_serve as serve;
pub use c2nn_tensor as tensor;
pub use c2nn_verilog as verilog;

/// The most common imports in one place.
pub mod prelude {
    pub use c2nn_core::{
        compile, compile_as, compile_with_report, CompileOptions, CompileReport, CompiledNn,
        PassId, PassSet, Simulator,
    };
    pub use c2nn_netlist::{Netlist, NetlistBuilder, WordOps};
    pub use c2nn_refsim::CycleSim;
    pub use c2nn_tensor::{Dense, Device};
}
