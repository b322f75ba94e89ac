//! The circuit → neural-network compiler (the paper's contributions 1–3),
//! organized as a pass pipeline over the mid-level IR.
//!
//! Pipeline: sequential netlist → clock unification + flip-flop cut
//! (`c2nn-netlist::seq`) → LUT mapping (`c2nn-lutmap`) → **lower** to the
//! un-merged [`NnGraph`](crate::ir::NnGraph) (Algorithm 1 polynomials, Fig. 2
//! two-layer blocks) → optimization passes (`constant-fold`, `monomial-cse`,
//! `dead-neuron-elim`, the Fig. 5 `layer-merge`) → **legalize** into a
//! [`CompiledNn`] of sparse integer layers. Every stage records wall time
//! and size metrics into a [`CompileReport`].

use crate::ir::passes::{legalize, PassManager, PassSet};
use crate::ir::report::{CompileReport, PassStat};
use crate::ir::{lower::lower, NnGraph};
use crate::layer::NnLayer;
use c2nn_lutmap::{map_netlist, LutGraph, MapConfig, MapError};
use c2nn_netlist::{prepare, Netlist, SeqError};
use c2nn_tensor::Scalar;

/// Compiler options.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Maximum LUT inputs — the paper's `L` hyperparameter.
    pub lut_size: usize,
    /// Cut candidates kept per net in the mapper.
    pub cuts_per_net: usize,
    /// Paper §V known-function shortcut: AND/OR/NAND/NOR gates wider than
    /// `L` become single neurons instead of LUT trees.
    pub wide_gates: bool,
    /// Which optimization passes run between lowering and legalization
    /// (always in canonical order). The merge ablation is
    /// `PassSet::all().without(PassId::LayerMerge)` — also the pass set
    /// under which the bit-plane backend legalizes popcount-free.
    pub passes: PassSet,
}

impl CompileOptions {
    pub fn with_l(l: usize) -> Self {
        CompileOptions {
            lut_size: l,
            cuts_per_net: 8,
            wide_gates: false,
            passes: PassSet::all(),
        }
    }

    /// Enable the §V known-function shortcut.
    pub fn with_wide_gates(mut self) -> Self {
        self.wide_gates = true;
        self
    }

    /// Select the optimization passes to run.
    pub fn with_passes(mut self, passes: PassSet) -> Self {
        self.passes = passes;
        self
    }

    /// Check option ranges before doing any work: the mapper requires
    /// `2 ≤ lut_size ≤ 16` and at least one cut candidate per net.
    pub fn validate(&self) -> Result<(), CompileError> {
        if !(2..=16).contains(&self.lut_size) {
            return Err(CompileError::InvalidOptions {
                field: "lut_size",
                value: self.lut_size,
                expected: "2..=16",
            });
        }
        if self.cuts_per_net < 1 {
            return Err(CompileError::InvalidOptions {
                field: "cuts_per_net",
                value: self.cuts_per_net,
                expected: "≥ 1",
            });
        }
        Ok(())
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self::with_l(7)
    }
}

/// Compiler errors.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// A [`CompileOptions`] field is out of range.
    InvalidOptions {
        field: &'static str,
        value: usize,
        expected: &'static str,
    },
    /// Clock unification / flip-flop cut failed (source preserved).
    Seq(SeqError),
    /// LUT mapping failed (source preserved).
    Map(MapError),
    /// A merged coefficient exceeded what the target scalar represents
    /// exactly (f32 is exact only to ±2^24).
    CoefficientOverflow { value: i64, limit: i64 },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::InvalidOptions {
                field,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid CompileOptions: {field} = {value} (expected {expected})"
                )
            }
            CompileError::Seq(e) => write!(f, "sequential preparation failed: {e}"),
            CompileError::Map(e) => write!(f, "LUT mapping failed: {e}"),
            CompileError::CoefficientOverflow { value, limit } => write!(
                f,
                "merged weight {value} exceeds the exact range ±{limit} of the target dtype"
            ),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Seq(e) => Some(e),
            CompileError::Map(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SeqError> for CompileError {
    fn from(e: SeqError) -> Self {
        CompileError::Seq(e)
    }
}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Map(e)
    }
}

/// A compiled neural network, computationally equivalent to the source
/// circuit. Layer `i` feeds layer `i+1`; the input vector is
/// `[primary inputs ‖ state]` and the output vector `[primary outputs ‖
/// next state]` (after the paper's flip-flop cut).
#[derive(Clone, Debug)]
pub struct CompiledNn<T> {
    pub name: String,
    pub layers: Vec<NnLayer<T>>,
    pub num_primary_inputs: usize,
    pub num_primary_outputs: usize,
    /// Power-on flip-flop values (empty for combinational circuits).
    pub state_init: Vec<bool>,
    /// Gate count of the source circuit (throughput accounting).
    pub gate_count: usize,
    /// The `L` used for compilation.
    pub lut_size: usize,
}

impl<T: Scalar> CompiledNn<T> {
    /// Number of state bits.
    pub fn state_bits(&self) -> usize {
        self.state_init.len()
    }

    /// Total input width of the first layer (primary + state).
    pub fn in_width(&self) -> usize {
        self.layers
            .first()
            .map(|l| l.in_width())
            .unwrap_or(self.num_primary_inputs + self.state_bits())
    }

    /// Total output width of the last layer (primary + state).
    pub fn out_width(&self) -> usize {
        self.layers
            .last()
            .map(|l| l.out_width())
            .unwrap_or(self.num_primary_outputs + self.state_bits())
    }

    /// Total nonzero connections (the paper's "Neurons' connections").
    pub fn connections(&self) -> usize {
        self.layers.iter().map(|l| l.weights.nnz()).sum()
    }

    /// Serialized-model byte estimate (the paper's "Memory (MB)").
    pub fn memory_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.memory_bytes()).sum()
    }

    /// Mean sparsity across layers (the paper's "Mean Sparsity").
    pub fn mean_sparsity(&self) -> f64 {
        if self.layers.is_empty() {
            return 1.0;
        }
        self.layers
            .iter()
            .map(|l| l.weights.sparsity())
            .sum::<f64>()
            / self.layers.len() as f64
    }

    /// Number of layers (the paper's "Layers" column).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Compile a netlist into a network with `f32` weights — the configuration
/// the paper ships (PyTorch sparse kernels are float-only, §III-E).
pub fn compile(nl: &Netlist, opts: CompileOptions) -> Result<CompiledNn<f32>, CompileError> {
    compile_as::<f32>(nl, opts)
}

/// Compile with an explicit scalar type (`i32`/`i64` give the paper's
/// proposed integer kernels, §V).
pub fn compile_as<T: Scalar>(
    nl: &Netlist,
    opts: CompileOptions,
) -> Result<CompiledNn<T>, CompileError> {
    compile_with_report(nl, opts).map(|(nn, _)| nn)
}

/// Compile, also returning the per-pass [`CompileReport`] (the `--stats`
/// path and the benchmark's `core.pass_s.*` metrics).
pub fn compile_with_report<T: Scalar>(
    nl: &Netlist,
    opts: CompileOptions,
) -> Result<(CompiledNn<T>, CompileReport), CompileError> {
    opts.validate()?;
    let t0 = std::time::Instant::now();
    let cut = prepare(nl)?;
    let graph = map_netlist(
        &cut.comb,
        MapConfig {
            max_inputs: opts.lut_size,
            cuts_per_net: opts.cuts_per_net,
            wide_gates: opts.wide_gates,
        },
    )?;
    let (nn, mut report) = compile_graph_with_report(
        &graph,
        nl.gate_count(),
        cut.num_primary_inputs,
        cut.num_primary_outputs,
        cut.state_init.clone(),
        opts,
    )?;
    report.total_s = t0.elapsed().as_secs_f64();
    Ok((nn, report))
}

/// Compile a LUT graph directly (the netlist-independent core).
pub fn compile_graph<T: Scalar>(
    graph: &LutGraph,
    gate_count: usize,
    num_primary_inputs: usize,
    num_primary_outputs: usize,
    state_init: Vec<bool>,
    opts: CompileOptions,
) -> Result<CompiledNn<T>, CompileError> {
    compile_graph_with_report(
        graph,
        gate_count,
        num_primary_inputs,
        num_primary_outputs,
        state_init,
        opts,
    )
    .map(|(nn, _)| nn)
}

/// [`compile_graph`] with the per-pass [`CompileReport`]: lower → pass
/// pipeline → legalize, instrumenting every stage.
pub fn compile_graph_with_report<T: Scalar>(
    graph: &LutGraph,
    gate_count: usize,
    num_primary_inputs: usize,
    num_primary_outputs: usize,
    state_init: Vec<bool>,
    opts: CompileOptions,
) -> Result<(CompiledNn<T>, CompileReport), CompileError> {
    opts.validate()?;
    let mut report = CompileReport {
        circuit: graph.name.clone(),
        lut_size: opts.lut_size,
        ..CompileReport::default()
    };

    let t0 = std::time::Instant::now();
    let mut g: NnGraph = lower(
        graph,
        gate_count,
        num_primary_inputs,
        num_primary_outputs,
        state_init,
        opts.lut_size,
    );
    let lowered = g.metrics();
    report.passes.push(PassStat {
        pass: "lower".to_string(),
        wall_s: t0.elapsed().as_secs_f64(),
        before: lowered,
        after: lowered,
    });

    PassManager::from_set(opts.passes).run(&mut g, &mut report);

    let t1 = std::time::Instant::now();
    let nn = legalize::<T>(&g)?;
    let after = g.metrics();
    report.passes.push(PassStat {
        pass: "legalize".to_string(),
        wall_s: t1.elapsed().as_secs_f64(),
        before: after,
        after,
    });
    report.total_s = report.passes.iter().map(|p| p.wall_s).sum();
    Ok((nn, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::passes::PassId;
    use c2nn_netlist::WordOps;

    #[test]
    fn options_validate_ranges() {
        assert!(CompileOptions::with_l(4).validate().is_ok());
        let mut bad = CompileOptions::with_l(4);
        bad.lut_size = 1;
        assert!(matches!(
            bad.validate(),
            Err(CompileError::InvalidOptions {
                field: "lut_size",
                ..
            })
        ));
        bad.lut_size = 17;
        assert!(bad.validate().is_err());
        let mut bad2 = CompileOptions::with_l(4);
        bad2.cuts_per_net = 0;
        assert!(matches!(
            bad2.validate(),
            Err(CompileError::InvalidOptions {
                field: "cuts_per_net",
                ..
            })
        ));
        // compile rejects bad options up front
        let nl = c2nn_netlist::NetlistBuilder::new("t").finish().unwrap();
        let mut opts = CompileOptions::with_l(4);
        opts.cuts_per_net = 0;
        assert!(compile(&nl, opts).is_err());
    }

    #[test]
    fn seq_and_map_errors_preserve_their_source() {
        use std::error::Error;
        // two clock domains → SeqError::MultipleClocks, matchable by callers
        let mut b = c2nn_netlist::NetlistBuilder::new("two_clk");
        let c1 = b.clock("clk_a");
        let c2 = b.clock("clk_b");
        let d = b.input("d");
        let q1 = b.dff(d, c1, false);
        let q2 = b.dff(q1, c2, false);
        b.output(q2, "q");
        let nl = b.finish().unwrap();
        let err = compile(&nl, CompileOptions::with_l(4)).unwrap_err();
        match &err {
            CompileError::Seq(SeqError::MultipleClocks(clocks)) => {
                assert_eq!(clocks.len(), 2);
            }
            other => panic!("expected Seq(MultipleClocks), got {other:?}"),
        }
        assert!(err.source().is_some(), "source chain must be preserved");
        assert!(err.to_string().contains("sequential preparation failed"));
    }

    #[test]
    fn report_records_every_stage() {
        let mut b = c2nn_netlist::NetlistBuilder::new("add4");
        let a = b.input_word("a", 4);
        let c = b.input_word("b", 4);
        let s = b.add_word(&a, &c);
        b.output_word(&s, "s");
        let nl = b.finish().unwrap();
        let (nn, report) = compile_with_report::<f32>(&nl, CompileOptions::with_l(4)).unwrap();
        let stages: Vec<&str> = report.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(
            stages,
            vec![
                "lower",
                "constant-fold",
                "monomial-cse",
                "dead-neuron-elim",
                "layer-merge",
                "legalize"
            ]
        );
        // the legalized artifact matches the final IR metrics
        let fin = report.final_metrics().unwrap();
        assert_eq!(fin.layers, nn.num_layers());
        assert_eq!(fin.nnz, nn.connections());
        assert!(report.total_s >= 0.0);
    }

    #[test]
    fn pass_subset_skips_unselected_passes() {
        let mut b = c2nn_netlist::NetlistBuilder::new("add2");
        let a = b.input_word("a", 2);
        let c = b.input_word("b", 2);
        let s = b.add_word(&a, &c);
        b.output_word(&s, "s");
        let nl = b.finish().unwrap();
        let opts = CompileOptions::with_l(3).with_passes(PassSet::none().with(PassId::LayerMerge));
        let (_, report) = compile_with_report::<f32>(&nl, opts).unwrap();
        let stages: Vec<&str> = report.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(stages, vec!["lower", "layer-merge", "legalize"]);
    }
}
