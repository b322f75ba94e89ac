//! The pass pipeline over the mid-level IR.
//!
//! Pass contracts (see DESIGN.md "Compiler passes"):
//!
//! * every pass preserves the network function **exactly** on binary inputs
//!   (the lockstep suite in `tests/pass_lockstep.rs` checks every prefix of
//!   the pipeline against the reference simulator);
//! * every pass leaves the IR invariants of [`super`] intact
//!   (checked under `debug_assertions` after each pass);
//! * `constant-fold`, `monomial-cse` and `dead-neuron-elim` never increase
//!   the total nonzero count (checked on every suite circuit by
//!   `tests/pass_lockstep.rs`); `layer-merge` may trade nonzeros for depth
//!   (Fig. 5).

use super::report::{CompileReport, PassStat};
use super::{apply_act, NnGraph};
use crate::compile::{CompileError, CompiledNn};
use crate::layer::{Activation2, NnLayer};
use c2nn_tensor::{Csr, Scalar};
use std::collections::HashMap;

/// The optimization passes, in canonical pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PassId {
    /// Propagate tied-constant inputs (0-input LUTs from constant nets) into
    /// downstream biases.
    ConstantFold,
    /// Deduplicate identical monomial neurons across LUTs that share fan-in,
    /// rewiring the consuming rows onto the surviving neuron.
    MonomialCse,
    /// Drop weights with zero merged coefficient and rows nothing reads.
    DeadNeuronElim,
    /// The Fig. 5 depth-halving merge of exact-linear stages into the
    /// following affine stage.
    LayerMerge,
}

impl PassId {
    /// Canonical pipeline order.
    pub const ALL: [PassId; 4] = [
        PassId::ConstantFold,
        PassId::MonomialCse,
        PassId::DeadNeuronElim,
        PassId::LayerMerge,
    ];

    /// Stable pass name (used in reports and `--passes` lists).
    pub fn name(self) -> &'static str {
        match self {
            PassId::ConstantFold => "constant-fold",
            PassId::MonomialCse => "monomial-cse",
            PassId::DeadNeuronElim => "dead-neuron-elim",
            PassId::LayerMerge => "layer-merge",
        }
    }

    const fn bit(self) -> u8 {
        match self {
            PassId::ConstantFold => 1 << 0,
            PassId::MonomialCse => 1 << 1,
            PassId::DeadNeuronElim => 1 << 2,
            PassId::LayerMerge => 1 << 3,
        }
    }
}

/// A `Copy` selection of optimization passes; the pipeline always runs them
/// in canonical order (lower → fold → cse → dce → merge → legalize).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassSet(u8);

impl PassSet {
    /// No optimization passes: lower + legalize only (the ablation
    /// baseline's "un-merged" network).
    pub const fn none() -> Self {
        PassSet(0)
    }

    /// Every optimization pass, `layer-merge` included: the paper's
    /// network (`--passes all`, the `reproduce` experiments).
    pub const fn all() -> Self {
        PassSet(0b1111)
    }

    /// Add one pass.
    pub const fn with(self, p: PassId) -> Self {
        PassSet(self.0 | p.bit())
    }

    /// Remove one pass (e.g. `PassSet::all().without(PassId::LayerMerge)`
    /// for the merge ablation).
    pub const fn without(self, p: PassId) -> Self {
        PassSet(self.0 & !p.bit())
    }

    /// Is the pass selected?
    pub const fn contains(self, p: PassId) -> bool {
        self.0 & p.bit() != 0
    }

    /// Selected passes in canonical order.
    pub fn to_vec(self) -> Vec<PassId> {
        PassId::ALL
            .iter()
            .copied()
            .filter(|&p| self.contains(p))
            .collect()
    }

    /// The first `n` passes of the canonical order (the lockstep harness
    /// compiles every prefix).
    pub fn prefix(n: usize) -> Self {
        PassId::ALL[..n.min(PassId::ALL.len())]
            .iter()
            .fold(PassSet::none(), |s, &p| s.with(p))
    }

    /// Parse a `--passes` spec: `all`, `none`, or a comma-separated list of
    /// pass names (long form or the short aliases `fold`, `cse`, `dce`,
    /// `merge`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "all" => return Ok(PassSet::all()),
            "none" => return Ok(PassSet::none()),
            _ => {}
        }
        let mut set = PassSet::none();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let p = match name {
                "constant-fold" | "fold" => PassId::ConstantFold,
                "monomial-cse" | "cse" => PassId::MonomialCse,
                "dead-neuron-elim" | "dce" => PassId::DeadNeuronElim,
                "layer-merge" | "merge" => PassId::LayerMerge,
                other => {
                    return Err(format!(
                        "unknown pass `{other}` (expected constant-fold/fold, monomial-cse/cse, \
                         dead-neuron-elim/dce, layer-merge/merge, all, none)"
                    ))
                }
            };
            set = set.with(p);
        }
        Ok(set)
    }
}

/// fold → cse → dce: the one network every engine runs. `layer-merge` is
/// opt-in — it halves depth for launch-bound GPU kernels, but on a CPU it
/// multiplies connections and its mixed-sign rows have no bit-plane gate
/// form.
impl Default for PassSet {
    fn default() -> Self {
        PassSet::all().without(PassId::LayerMerge)
    }
}

impl std::fmt::Debug for PassSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.to_vec().iter().map(|p| p.name()).collect();
        write!(f, "PassSet[{}]", names.join(","))
    }
}

/// One rewrite over the IR. Passes are infallible; only `legalize` (the
/// typed emission) can reject a network.
pub trait Pass {
    fn name(&self) -> &'static str;
    fn run(&self, g: &mut NnGraph);
}

/// Runs a pass list in order, recording a [`PassStat`] per pass.
pub struct PassManager {
    passes: Vec<PassId>,
}

impl PassManager {
    /// Build a manager running the selected passes in canonical order.
    pub fn from_set(set: PassSet) -> Self {
        PassManager {
            passes: set.to_vec(),
        }
    }

    /// Run all passes, appending one stat per pass to `report`.
    pub fn run(&self, g: &mut NnGraph, report: &mut CompileReport) {
        for &id in &self.passes {
            let pass: &dyn Pass = match id {
                PassId::ConstantFold => &ConstantFold,
                PassId::MonomialCse => &MonomialCse,
                PassId::DeadNeuronElim => &DeadNeuronElim,
                PassId::LayerMerge => &LayerMerge,
            };
            let before = g.metrics();
            let t0 = std::time::Instant::now();
            pass.run(g);
            let wall_s = t0.elapsed().as_secs_f64();
            debug_assert_eq!(
                g.check(),
                Ok(()),
                "pass {} broke IR invariants",
                pass.name()
            );
            report.passes.push(PassStat {
                pass: pass.name().to_string(),
                wall_s,
                before,
                after: g.metrics(),
            });
        }
    }
}

/// `constant-fold`: forward-propagate rows whose value does not depend on
/// the input — 0-input LUTs born from tied-constant nets, and anything that
/// becomes constant once those fold — moving their contribution into the
/// consuming rows' biases. The now-unread constant rows are left for
/// `dead-neuron-elim` to collect.
pub struct ConstantFold;

impl Pass for ConstantFold {
    fn name(&self) -> &'static str {
        PassId::ConstantFold.name()
    }

    fn run(&self, g: &mut NnGraph) {
        // network inputs are never constant
        let mut konst: Vec<Option<i64>> = vec![None; g.in_width];
        let num_layers = g.layers.len();
        for (li, layer) in g.layers.iter_mut().enumerate() {
            let last = li + 1 == num_layers;
            let mut next_konst: Vec<Option<i64>> = Vec::with_capacity(layer.rows.len());
            for row in &mut layer.rows {
                let mut changed = false;
                for &(c, w) in &row.weights {
                    if let Some(v) = konst[c as usize] {
                        row.bias += w * v;
                        changed = true;
                    }
                }
                if changed {
                    row.weights.retain(|&(c, _)| konst[c as usize].is_none());
                }
                // final-layer rows are outputs: fold into them but never
                // treat them as foldable sources
                if row.weights.is_empty() && !last {
                    next_konst.push(Some(apply_act(layer.act, row.bias)));
                } else {
                    next_konst.push(None);
                }
            }
            konst = next_konst;
        }
    }
}

/// `monomial-cse`: within each layer (except the last, whose rows are the
/// network interface), rows with identical weights and bias compute the same
/// value — LUTs sharing fan-in emit the same monomial neuron many times.
/// Consumers are rewired onto the first occurrence and the duplicate rows
/// are removed in the same pass (columns compacted, `in_width` updated), so
/// the sharing the pass finds shows up in its own size stats instead of
/// hiding inside dead-neuron-elim's.
pub struct MonomialCse;

impl Pass for MonomialCse {
    fn name(&self) -> &'static str {
        PassId::MonomialCse.name()
    }

    fn run(&self, g: &mut NnGraph) {
        for i in 0..g.layers.len().saturating_sub(1) {
            let mut first: HashMap<(Vec<(u32, i64)>, i64), u32> = HashMap::new();
            // remap[r] = compacted index of the row that now computes old
            // row r's value
            let mut remap: Vec<u32> = Vec::with_capacity(g.layers[i].rows.len());
            let mut keep: Vec<bool> = Vec::with_capacity(g.layers[i].rows.len());
            let mut kept = 0u32;
            for row in g.layers[i].rows.iter() {
                let key = (row.weights.clone(), row.bias);
                match first.get(&key) {
                    Some(&surviving) => {
                        remap.push(surviving);
                        keep.push(false);
                    }
                    None => {
                        first.insert(key, kept);
                        remap.push(kept);
                        keep.push(true);
                        kept += 1;
                    }
                }
            }
            if kept as usize == g.layers[i].rows.len() {
                continue;
            }
            let rows = std::mem::take(&mut g.layers[i].rows);
            g.layers[i].rows = rows
                .into_iter()
                .zip(&keep)
                .filter_map(|(row, &k)| k.then_some(row))
                .collect();
            for row in &mut g.layers[i + 1].rows {
                for entry in &mut row.weights {
                    entry.0 = remap[entry.0 as usize];
                }
                row.canonicalize(); // merge coefficients of now-shared columns
            }
            g.layers[i + 1].in_width = kept as usize;
        }
    }
}

/// `dead-neuron-elim`: walking back from the outputs, drop every
/// intermediate row that no following row reads (CSE duplicates, folded
/// constants, zero-merged-coefficient monomials) and compact the columns of
/// the consuming layer.
pub struct DeadNeuronElim;

impl Pass for DeadNeuronElim {
    fn name(&self) -> &'static str {
        PassId::DeadNeuronElim.name()
    }

    fn run(&self, g: &mut NnGraph) {
        if g.layers.len() < 2 {
            return;
        }
        for i in (0..g.layers.len() - 1).rev() {
            let mut used = vec![false; g.layers[i].rows.len()];
            for row in &g.layers[i + 1].rows {
                for &(c, _) in &row.weights {
                    used[c as usize] = true;
                }
            }
            if used.iter().all(|&u| u) {
                continue;
            }
            // compact live rows, recording old column -> new column
            let mut remap = vec![u32::MAX; used.len()];
            let mut kept = 0u32;
            let rows = std::mem::take(&mut g.layers[i].rows);
            g.layers[i].rows = rows
                .into_iter()
                .zip(used.iter())
                .enumerate()
                .filter_map(|(r, (row, &live))| {
                    if live {
                        remap[r] = kept;
                        kept += 1;
                        Some(row)
                    } else {
                        None
                    }
                })
                .collect();
            for row in &mut g.layers[i + 1].rows {
                for entry in &mut row.weights {
                    entry.0 = remap[entry.0 as usize];
                    debug_assert_ne!(entry.0, u32::MAX);
                }
            }
            g.layers[i + 1].in_width = kept as usize;
        }
    }
}

/// `layer-merge` (Fig. 5): an exact-linear layer followed by anything fuses
/// into the successor's affine stage — `W' = W_next · W_lin`,
/// `b' = W_next · b_lin + b_next` — halving the depth. The final layer (the
/// network interface) always stays explicit.
pub struct LayerMerge;

impl Pass for LayerMerge {
    fn name(&self) -> &'static str {
        PassId::LayerMerge.name()
    }

    fn run(&self, g: &mut NnGraph) {
        let mut i = 0;
        while i + 1 < g.layers.len() {
            if g.layers[i].act != Activation2::Linear {
                i += 1;
                continue;
            }
            let lin = g.layers.remove(i);
            let next = &mut g.layers[i];
            for row in &mut next.rows {
                let mut acc: HashMap<u32, i64> = HashMap::with_capacity(row.weights.len() * 2);
                let mut bias = row.bias;
                for &(c, w) in &row.weights {
                    let src = &lin.rows[c as usize];
                    bias += w * src.bias;
                    for &(sc, sw) in &src.weights {
                        *acc.entry(sc).or_insert(0) += w * sw;
                    }
                }
                row.weights = acc.into_iter().filter(|&(_, w)| w != 0).collect();
                row.bias = bias;
                row.canonicalize();
            }
            next.in_width = lin.in_width;
            // stay at i: the fused layer may itself precede another linear
        }
    }
}

/// `legalize`: emit the typed [`CompiledNn`], checking every coefficient
/// against the target scalar's exact-integer range (f32 → ±2²⁴).
pub fn legalize<T: Scalar>(g: &NnGraph) -> Result<CompiledNn<T>, CompileError> {
    let mut layers = Vec::with_capacity(g.layers.len());
    for layer in &g.layers {
        let trips: Vec<(u32, u32, i64)> = layer
            .rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.weights.iter().map(move |&(c, w)| (r as u32, c, w)))
            .collect();
        let w: Csr<i64> = Csr::from_triplets(layer.rows.len(), layer.in_width, trips);
        let bias: Vec<i64> = layer.rows.iter().map(|r| r.bias).collect();
        layers.push(csr_to_layer::<T>(&w, &bias, layer.act)?);
    }
    Ok(CompiledNn {
        name: g.name.clone(),
        layers,
        num_primary_inputs: g.num_primary_inputs,
        num_primary_outputs: g.num_primary_outputs,
        state_init: g.state_init.clone(),
        gate_count: g.gate_count,
        lut_size: g.lut_size,
    })
}

/// Convert one exact-`i64` layer, rejecting coefficients outside the
/// scalar's exact range.
pub(crate) fn csr_to_layer<T: Scalar>(
    w: &Csr<i64>,
    bias: &[i64],
    act: Activation2,
) -> Result<NnLayer<T>, CompileError> {
    // Every coefficient must sit inside the scalar's exact-integer range
    // (f32 → ±2^24) AND inside i32, because values convert via `from_i32`.
    let limit = T::EXACT_LIMIT.min(i32::MAX as i64);
    let (_, _, vals) = w.raw();
    for &v in vals {
        if v.abs() > limit {
            return Err(CompileError::CoefficientOverflow { value: v, limit });
        }
    }
    for &b in bias {
        if b.abs() > limit {
            return Err(CompileError::CoefficientOverflow { value: b, limit });
        }
    }
    Ok(NnLayer {
        weights: w.cast::<T>(|v| {
            debug_assert!(v.abs() <= i32::MAX as i64);
            v as i32
        }),
        bias: bias.iter().map(|&b| T::from_i32(b as i32)).collect(),
        activation: act,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrLayer, IrRow, RowProv};

    fn row(weights: Vec<(u32, i64)>, bias: i64) -> IrRow {
        let mut r = IrRow {
            weights,
            bias,
            prov: RowProv::Signal { signal: 0 },
        };
        r.canonicalize();
        r
    }

    /// Two AND neurons over the same inputs feeding a 2-output linear layer.
    fn dup_graph() -> NnGraph {
        NnGraph {
            name: "dup".into(),
            num_primary_inputs: 2,
            num_primary_outputs: 2,
            state_init: vec![],
            gate_count: 2,
            lut_size: 2,
            in_width: 2,
            layers: vec![
                IrLayer {
                    act: Activation2::Threshold,
                    in_width: 2,
                    rows: vec![
                        row(vec![(0, 1), (1, 1)], -1),
                        row(vec![(0, 1), (1, 1)], -1), // duplicate monomial
                        row(vec![(0, 1)], 0),
                    ],
                },
                IrLayer {
                    act: Activation2::Linear,
                    in_width: 3,
                    rows: vec![row(vec![(0, 1)], 0), row(vec![(1, -1), (2, 1)], 0)],
                },
            ],
        }
    }

    fn outputs_over_domain(g: &NnGraph) -> Vec<Vec<i64>> {
        (0..1u32 << g.in_width)
            .map(|x| {
                let bits: Vec<bool> = (0..g.in_width).map(|j| x >> j & 1 == 1).collect();
                g.eval(&bits)
            })
            .collect()
    }

    #[test]
    fn cse_then_dce_removes_the_duplicate() {
        let mut g = dup_graph();
        let want = outputs_over_domain(&g);
        MonomialCse.run(&mut g);
        g.check().unwrap();
        assert_eq!(outputs_over_domain(&g), want, "cse must not change outputs");
        // the duplicate is gone in-pass: row 1's consumer points at row 0,
        // and the x0 row compacted down to column 1
        assert_eq!(
            g.layers[0].rows.len(),
            2,
            "duplicate neuron collected by cse"
        );
        assert_eq!(g.layers[1].rows[1].weights, vec![(0, -1), (1, 1)]);
        DeadNeuronElim.run(&mut g);
        g.check().unwrap();
        assert_eq!(g.layers[0].rows.len(), 2, "nothing left for dce to collect");
        assert_eq!(outputs_over_domain(&g), want, "dce must not change outputs");
    }

    #[test]
    fn cse_merges_coefficients_to_zero() {
        // consumer reads h0 − h1 where h0 == h1: coefficient cancels to zero
        let mut g = dup_graph();
        g.layers[1].rows = vec![row(vec![(0, 1), (1, -1)], 0)];
        g.num_primary_outputs = 1;
        MonomialCse.run(&mut g);
        assert!(
            g.layers[1].rows[0].weights.is_empty(),
            "±1 on a shared neuron cancels"
        );
        assert_eq!(
            g.layers[0].rows.len(),
            2,
            "cse drops the duplicate, keeps live rows"
        );
        DeadNeuronElim.run(&mut g);
        assert_eq!(g.layers[0].rows.len(), 0, "all neurons dead");
        for x in 0..4u32 {
            let bits = [x & 1 == 1, x >> 1 & 1 == 1];
            assert_eq!(g.eval(&bits), vec![0]);
        }
    }

    #[test]
    fn constant_fold_propagates_zero_input_luts() {
        // h0 = Θ(1) = 1 (a tied-one net), h1 = x0; y = h0 + h1
        let mut g = NnGraph {
            name: "k".into(),
            num_primary_inputs: 1,
            num_primary_outputs: 1,
            state_init: vec![],
            gate_count: 1,
            lut_size: 2,
            in_width: 1,
            layers: vec![
                IrLayer {
                    act: Activation2::Threshold,
                    in_width: 1,
                    rows: vec![row(vec![], 1), row(vec![(0, 1)], 0)],
                },
                IrLayer {
                    act: Activation2::Linear,
                    in_width: 2,
                    rows: vec![row(vec![(0, 1), (1, 1)], 0)],
                },
            ],
        };
        let want = outputs_over_domain(&g);
        ConstantFold.run(&mut g);
        assert_eq!(outputs_over_domain(&g), want);
        // the constant neuron's contribution moved into the consumer's bias
        assert_eq!(g.layers[1].rows[0].weights, vec![(1, 1)]);
        assert_eq!(g.layers[1].rows[0].bias, 1);
        DeadNeuronElim.run(&mut g);
        assert_eq!(g.layers[0].rows.len(), 1, "constant neuron collected");
        assert_eq!(outputs_over_domain(&g), want);
    }

    #[test]
    fn constant_fold_keeps_final_layer_rows() {
        // a constant output row must survive (it is part of the interface)
        let mut g = NnGraph {
            name: "k".into(),
            num_primary_inputs: 1,
            num_primary_outputs: 1,
            state_init: vec![],
            gate_count: 0,
            lut_size: 2,
            in_width: 1,
            layers: vec![IrLayer {
                act: Activation2::Linear,
                in_width: 1,
                rows: vec![row(vec![], 1)],
            }],
        };
        ConstantFold.run(&mut g);
        assert_eq!(g.layers[0].rows.len(), 1);
        assert_eq!(g.eval(&[false]), vec![1]);
    }

    #[test]
    fn layer_merge_fuses_linear_into_successor() {
        let mut g = dup_graph();
        // append another threshold layer so the linear stage has a successor
        g.layers.push(IrLayer {
            act: Activation2::Threshold,
            in_width: 2,
            rows: vec![row(vec![(0, 1), (1, 1)], -1)],
        });
        g.num_primary_outputs = 1;
        let want = outputs_over_domain(&g);
        LayerMerge.run(&mut g);
        g.check().unwrap();
        assert_eq!(g.layers.len(), 2, "T L T → T T'");
        assert_eq!(g.layers[1].act, Activation2::Threshold);
        assert_eq!(outputs_over_domain(&g), want);
    }

    #[test]
    fn pass_set_algebra_and_parse() {
        let all = PassSet::all();
        assert!(all.contains(PassId::LayerMerge));
        let no_merge = all.without(PassId::LayerMerge);
        assert!(!no_merge.contains(PassId::LayerMerge));
        assert!(no_merge.contains(PassId::MonomialCse));
        assert_eq!(no_merge.to_vec().len(), 3);
        assert_eq!(PassSet::default(), no_merge);
        assert_eq!(PassSet::prefix(0), PassSet::none());
        assert_eq!(PassSet::prefix(4), PassSet::all());
        assert_eq!(
            PassSet::prefix(2).to_vec(),
            vec![PassId::ConstantFold, PassId::MonomialCse]
        );

        assert_eq!(PassSet::parse("all").unwrap(), PassSet::all());
        assert_eq!(PassSet::parse("none").unwrap(), PassSet::none());
        assert_eq!(
            PassSet::parse("cse,merge").unwrap(),
            PassSet::none()
                .with(PassId::MonomialCse)
                .with(PassId::LayerMerge)
        );
        assert_eq!(
            PassSet::parse("constant-fold,dead-neuron-elim").unwrap(),
            PassSet::none()
                .with(PassId::ConstantFold)
                .with(PassId::DeadNeuronElim)
        );
        assert!(PassSet::parse("blurp").is_err());
    }

    #[test]
    fn legalize_rejects_overflow() {
        let g = NnGraph {
            name: "o".into(),
            num_primary_inputs: 1,
            num_primary_outputs: 1,
            state_init: vec![],
            gate_count: 0,
            lut_size: 2,
            in_width: 1,
            layers: vec![IrLayer {
                act: Activation2::Linear,
                in_width: 1,
                rows: vec![row(vec![(0, 1i64 << 30)], 0)],
            }],
        };
        let res = legalize::<f32>(&g);
        assert!(matches!(res, Err(CompileError::CoefficientOverflow { .. })));
        // but i64-safe values pass for i32 targets
        assert!(legalize::<i32>(&g).is_ok());
    }
}
