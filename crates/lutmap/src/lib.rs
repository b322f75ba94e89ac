//! # c2nn-lutmap
//!
//! Technology mapping for the C2NN pipeline: splits a combinational gate
//! netlist into a DAG of look-up tables with at most `L` inputs (paper
//! §III-B1 / Fig. 3). This is the from-scratch stand-in for the paper's
//! Yosys + ABC (FlowMap) step, with the SAT-based truth-table extraction
//! replaced by exact exhaustive cone evaluation (`2^L ≤ 65536` patterns,
//! bit-parallel).
//!
//! The mapper is depth-oriented: cuts are ranked by arrival depth first, so
//! the produced [`LutGraph`]'s depth shrinks roughly as `O((log₂ L)⁻¹)` —
//! the trend the paper's Figure 6 measures.
//!
//! ```
//! use c2nn_netlist::{NetlistBuilder, WordOps};
//! use c2nn_lutmap::{map_netlist, MapConfig};
//!
//! let mut b = NetlistBuilder::new("add4");
//! let a = b.input_word("a", 4);
//! let c = b.input_word("b", 4);
//! let s = b.add_word(&a, &c);
//! b.output_word(&s, "s");
//! let nl = b.finish().unwrap();
//!
//! let mapped = map_netlist(&nl, MapConfig::with_l(4)).unwrap();
//! assert!(mapped.validate(4).is_ok());
//! assert!(mapped.depth() <= 6);
//! ```

pub mod cone;
pub mod graph;
pub mod mapper;

pub use cone::{cone_truth_table, leaf_pattern};
pub use graph::{LutGraph, LutGraphError, LutNode, NodeFunc, NO_ORIGIN};
pub use mapper::{map_netlist, MapConfig, MapError};
