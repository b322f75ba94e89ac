//! # c2nn-core
//!
//! The paper's primary contribution: a compiler that converts any digital
//! circuit into a **computationally equivalent** sparse neural network, and
//! a batched simulator that exploits both *structural* parallelism (all
//! neurons of a layer at once) and *stimulus* parallelism (many testbenches
//! per forward pass).
//!
//! ## Pipeline (paper Fig. 1)
//!
//! 1. clock unification + flip-flop cut (`c2nn-netlist::seq`, §III-C);
//! 2. LUT splitting with parameter `L` (`c2nn-lutmap`, §III-B1 / Fig. 3);
//! 3. truth table → multilinear polynomial, Algorithm 1 (`c2nn-boolfn`);
//! 4. polynomial → two-layer threshold block, lowered into the mid-level
//!    [`NnGraph`](ir::NnGraph) IR (Fig. 2, Eq. 3);
//! 5. optimization passes over the IR — cross-LUT monomial CSE, dead-neuron
//!    elimination, constant folding, and the Fig. 5 depth-halving merge —
//!    each instrumented into a [`CompileReport`];
//! 6. `legalize` → sparse CSR layers executed by `c2nn-tensor` (§III-E/F).
//!
//! The result is *exact*: for every input sequence the network produces
//! bit-identical outputs to the circuit (verified against `c2nn-refsim` in
//! the integration suite — the paper's §IV-A check).
//!
//! ```
//! use c2nn_netlist::{NetlistBuilder, WordOps};
//! use c2nn_core::{compile, CompileOptions};
//!
//! // build a 4-bit adder and compile it at L = 4
//! let mut b = NetlistBuilder::new("add4");
//! let a = b.input_word("a", 4);
//! let c = b.input_word("b", 4);
//! let s = b.add_word(&a, &c);
//! b.output_word(&s, "s");
//! let nl = b.finish().unwrap();
//!
//! let nn = compile(&nl, CompileOptions::with_l(4)).unwrap();
//! // 3 + 9 = 12
//! let mut input = vec![false; 8];
//! input[0] = true; input[1] = true;           // a = 3
//! input[4] = true; input[7] = true;           // b = 9
//! let out = nn.eval(&input);
//! let sum: u32 = out.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum();
//! assert_eq!(sum, 12);
//! ```

pub mod bitplane;
pub mod compile;
pub mod faults;
pub mod ir;
pub mod layer;
pub mod model;
pub mod session;
pub mod sim;
pub mod testbench;
pub mod validate;

pub use bitplane::{BitTensor, BitplaneError, BitplaneNn, BitplaneSimulator};
pub use compile::{
    compile, compile_as, compile_graph, compile_graph_with_report, compile_with_report,
    CompileError, CompileOptions, CompiledNn,
};
pub use faults::FaultSite;
pub use ir::passes::{PassId, PassSet};
pub use ir::report::{CompileReport, IrMetrics, PassStat};
pub use ir::NnGraph;
pub use layer::{Activation2, NnLayer};
pub use model::ModelError;
pub use session::Session;
pub use sim::{batch_from_bits, SimError, Simulator, StepShape};
pub use testbench::{
    bits_to_text, format_stim, parse_stim, run_batch, BenchResult, CycleRows, StimError, Stimulus,
};
pub use validate::{ValidateError, ValidationReport};
