//! Legalize-to-bitplane: lower each exact-integer neuron row to the one
//! word-parallel gate that computes it.
//!
//! The compiler's IR invariants (see `ir`) guarantee that, fed binary
//! inputs, every `Threshold` row produces 0/1 and every intermediate
//! `Linear` row reproduces the 0/1 value of its source signal. That makes
//! two rewrites sound:
//!
//! * A threshold row whose weights share one sign is a plain gate whenever
//!   its decision boundary separates exactly the right input subsets —
//!   *regardless of the weight magnitudes*. With all weights positive, the
//!   row is an OR iff `bias ≤ 0` and every lone input fires
//!   (`wᵢ + bias > 0`), and an AND iff the full set fires
//!   (`Σw + bias > 0`) while no largest proper subset does
//!   (`Σw − wᵢ + bias ≤ 0`). The all-negative duals give NOR/NAND on the
//!   magnitudes. Unit weights are the common special case (bias `1-n` →
//!   AND, `0` → OR, and the `-1` duals), but non-±1 rows from hand-built
//!   models qualify too.
//! * A linear row whose value is always 0/1 equals its own parity, so it
//!   is the XOR of the fan-in planes with odd weights, inverted when the
//!   bias is odd. Even coefficients drop out entirely.
//!
//! Every row the default pipeline (fold → cse → dce) emits is one of the
//! two. A threshold row that is neither — the mixed-sign rows of a
//! `layer-merge`d network, a hand-built majority — is refused with
//! [`BitplaneError::NotAGate`] naming its layer and row; the CSR engines
//! run such networks.
//!
//! Copy rows (one source, not inverted) compute nothing: each
//! resolves to the plane its source resolved to, so the program keeps
//! only computed ops, counted per kind by [`BitplaneNn::op_census`].

use crate::compile::CompiledNn;
use crate::layer::Activation2;
use crate::sim::StepShape;
use c2nn_tensor::Scalar;
use std::fmt;

/// The word op one neuron row lowers to: fold the source planes with
/// `fold`, then invert if `negate`. No source is a constant, one source a
/// copy (resolved away at lowering) or an inverter, whatever the fold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RowOp {
    /// How the source planes combine.
    pub(crate) fold: Fold,
    /// Whether the folded value is inverted.
    pub(crate) negate: bool,
    /// Source columns (for a linear row, those with odd coefficients).
    pub(crate) srcs: Vec<u32>,
}

/// How an op combines its source planes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fold {
    /// AND (NAND negated): a threshold row over one weight sign.
    And,
    /// OR (NOR negated): a threshold row over one weight sign.
    Or,
    /// Parity: a 0/1-valued linear row, or a constant.
    Xor,
}

/// One computed plane of the flat program: a [`RowOp`] whose source
/// planes are `operands[lo..hi]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    pub(crate) fold: Fold,
    pub(crate) negate: bool,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// A compiled network legalized to bit-plane form. Built from a
/// [`CompiledNn`] by [`BitplaneNn::from_compiled`]; shares its port order
/// and state layout, so the two backends are drop-in interchangeable.
///
/// The program is flat. Plane ids name the rows of one plane file: the
/// primary inputs and state first, then every computed op in level order
/// (a level is a source layer), so each level writes one contiguous range
/// and reads only planes before it. Identity rows compute nothing: each
/// one is resolved at lowering to the plane it names, through any number
/// of layers, and `gather` names the plane behind every primary output
/// and next-state bit.
#[derive(Clone, Debug)]
pub struct BitplaneNn {
    /// Model name (copied from the source network).
    pub name: String,
    /// Primary input count.
    pub num_primary_inputs: usize,
    /// Primary output count.
    pub num_primary_outputs: usize,
    /// Power-on flip-flop values.
    pub state_init: Vec<bool>,
    /// Gate count of the source circuit (throughput accounting).
    pub gate_count: usize,
    /// The `L` used for compilation.
    pub lut_size: usize,
    /// Layers of the source network.
    depth: usize,
    /// One op per computed plane, in plane order.
    pub(crate) ops: Vec<Op>,
    /// Operand plane ids of every op, back to back.
    pub(crate) operands: Vec<u32>,
    /// One past the last plane of each non-empty level.
    pub(crate) level_ends: Vec<u32>,
    /// The plane behind each primary output, then each next-state bit.
    pub(crate) gather: Vec<u32>,
}

/// Why a network could not be legalized to bit-plane form.
#[derive(Clone, Debug, PartialEq)]
pub enum BitplaneError {
    /// A weight or bias is not an integer (the compiler never produces
    /// these; they can only come from a hand-edited model file).
    NonIntegralValue {
        /// Layer the value was found in.
        layer: usize,
        /// Row within the layer.
        row: usize,
        /// The offending value.
        value: f64,
    },
    /// A threshold row with no gate form: its weights are mixed-sign or
    /// its boundary separates no AND/OR subset (a `layer-merge`d or
    /// hand-built network).
    NotAGate {
        /// Layer of the row.
        layer: usize,
        /// Row within the layer.
        row: usize,
    },
}

impl fmt::Display for BitplaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitplaneError::NonIntegralValue { layer, row, value } => write!(
                f,
                "layer {layer} row {row}: value {value} is not an integer; \
                 the bit-plane backend requires exact integral weights"
            ),
            BitplaneError::NotAGate { layer, row } => write!(
                f,
                "layer {layer} row {row}: threshold row is not a gate (mixed-sign \
                 or non-separable weights, as layer-merge emits); the bit-plane \
                 backend runs gates and parities only"
            ),
        }
    }
}

impl std::error::Error for BitplaneError {}

/// Per-kind counts of a bit-plane program's computed ops (reported by
/// `c2nn compile --stats` and the benchmark). Copies are resolved away at
/// lowering, so they are not ops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCensus {
    pub consts: usize,
    pub nots: usize,
    pub ands: usize,
    pub nands: usize,
    pub ors: usize,
    pub nors: usize,
    pub xors: usize,
    /// Always 0: the engine has no counter path. Kept only because the
    /// benchmark adapter (`benchmark/src/api.rs`) reads it; it goes when
    /// the adapter stops naming it.
    pub weighted: usize,
}

impl OpCensus {
    /// Total op count.
    pub fn total(&self) -> usize {
        self.consts + self.nots + self.ands + self.nands + self.ors + self.nors + self.xors
    }
}

impl BitplaneNn {
    /// Legalize a compiled network to bit-plane form: every threshold row
    /// must be a gate and every weight integral, or the typed error names
    /// the first row that is not.
    pub fn from_compiled<T: Scalar>(nn: &CompiledNn<T>) -> Result<Self, BitplaneError> {
        let in_width = nn.num_primary_inputs + nn.state_init.len();
        // the plane behind each column the current layer reads
        let mut planes: Vec<u32> = (0..in_width as u32).collect();
        let mut next = Vec::new();
        let (mut ops, mut operands, mut level_ends) = (Vec::new(), Vec::new(), Vec::new());
        let mut row: Vec<(u32, i64)> = Vec::new();
        for (li, layer) in nn.layers.iter().enumerate() {
            next.clear();
            for r in 0..layer.weights.rows() {
                row.clear();
                for (c, v) in layer.weights.row(r) {
                    let w = exact_i64(v, li, r)?;
                    if w != 0 {
                        row.push((c, w));
                    }
                }
                let bias = exact_i64(layer.bias[r], li, r)?;
                let op = classify(&row, bias, layer.activation)
                    .ok_or(BitplaneError::NotAGate { layer: li, row: r })?;
                if let ([c], false) = (op.srcs.as_slice(), op.negate) {
                    // a copy computes nothing: the row is its source's plane
                    next.push(planes[*c as usize]);
                    continue;
                }
                let lo = operands.len() as u32;
                operands.extend(op.srcs.iter().map(|&c| planes[c as usize]));
                let (fold, negate, hi) = (op.fold, op.negate, operands.len() as u32);
                next.push((in_width + ops.len()) as u32);
                ops.push(Op {
                    fold,
                    negate,
                    lo,
                    hi,
                });
            }
            let end = (in_width + ops.len()) as u32;
            if end > level_ends.last().copied().unwrap_or(in_width as u32) {
                level_ends.push(end);
            }
            std::mem::swap(&mut planes, &mut next);
        }
        Ok(BitplaneNn {
            name: nn.name.clone(),
            num_primary_inputs: nn.num_primary_inputs,
            num_primary_outputs: nn.num_primary_outputs,
            state_init: nn.state_init.clone(),
            gate_count: nn.gate_count,
            lut_size: nn.lut_size,
            depth: nn.layers.len(),
            ops,
            operands,
            level_ends,
            gather: planes,
        })
    }

    /// Planes the program reads each cycle (primary inputs, then state).
    pub fn in_width(&self) -> usize {
        self.num_primary_inputs + self.state_bits()
    }

    /// Planes in the plane file: inputs and state, then every computed op.
    pub fn planes(&self) -> usize {
        self.in_width() + self.ops.len()
    }

    /// Flip-flop count.
    pub fn state_bits(&self) -> usize {
        self.state_init.len()
    }

    /// Layer count of the source network.
    pub fn num_layers(&self) -> usize {
        self.depth
    }

    /// Levels that compute at least one plane: one dispatch each per
    /// cycle. Zero when every row was a copy.
    pub fn levels(&self) -> usize {
        self.level_ends.len()
    }

    /// Port widths and depth, as the stepping engine sees them (identical
    /// to the source network's ports).
    pub fn shape(&self) -> StepShape {
        StepShape {
            inputs: self.num_primary_inputs,
            outputs: self.num_primary_outputs,
            state: self.state_bits(),
            layers: self.depth,
        }
    }

    /// Modeled word ops per 64 lanes per cycle: fan-in + 1 per computed
    /// op, plus one per gathered plane. Never zero for a network with an
    /// output or a flip-flop, so no lane rate is predicted infinite.
    pub fn modeled_word_ops(&self) -> u64 {
        let ops: u64 = self.ops.iter().map(|op| (op.hi - op.lo) as u64 + 1).sum();
        ops + self.gather.len() as u64
    }

    /// Count computed ops by kind.
    pub fn op_census(&self) -> OpCensus {
        let mut c = OpCensus::default();
        for op in &self.ops {
            let slot = match (op.hi - op.lo, op.fold, op.negate) {
                (0, ..) => &mut c.consts,
                (1, ..) => &mut c.nots,
                (_, Fold::And, false) => &mut c.ands,
                (_, Fold::And, true) => &mut c.nands,
                (_, Fold::Or, false) => &mut c.ors,
                (_, Fold::Or, true) => &mut c.nors,
                (_, Fold::Xor, _) => &mut c.xors,
            };
            *slot += 1;
        }
        c
    }
}

fn exact_i64<T: Scalar>(v: T, layer: usize, row: usize) -> Result<i64, BitplaneError> {
    let f = v.to_f64();
    // compiled weights satisfy |v| ≤ EXACT_LIMIT ≤ 2^53, so the f64 image
    // is exact; anything fractional or astronomically large is a corrupt
    // or hand-edited model
    if f.fract() != 0.0 || f.abs() >= 9_007_199_254_740_992.0 {
        return Err(BitplaneError::NonIntegralValue {
            layer,
            row,
            value: f,
        });
    }
    Ok(f as i64)
}

/// The exact word op for one canonical row, or `None` when a threshold
/// row has no gate form.
fn classify(weights: &[(u32, i64)], bias: i64, act: Activation2) -> Option<RowOp> {
    let row = |fold, negate, srcs| Some(RowOp { fold, negate, srcs });
    match act {
        Activation2::Linear => {
            // 0/1-valued linear rows equal their own parity
            let odd = weights.iter().filter(|&&(_, w)| w & 1 != 0);
            row(Fold::Xor, bias & 1 != 0, odd.map(|&(c, _)| c).collect())
        }
        Activation2::Threshold => {
            let min_pre: i64 = weights.iter().map(|&(_, w)| w.min(0)).sum::<i64>() + bias;
            let max_pre: i64 = weights.iter().map(|&(_, w)| w.max(0)).sum::<i64>() + bias;
            if min_pre > 0 || max_pre <= 0 {
                return row(Fold::Xor, min_pre > 0, Vec::new());
            }
            // non-constant, so weights is non-empty from here on
            gate_op(weights, bias)
        }
    }
}

/// Weight-aware gate detection for a non-constant threshold row whose
/// weights share one sign. The decision is by *separating hyperplane*,
/// not by weight pattern, so magnitudes are free:
///
/// * all `w > 0`: OR iff no-inputs stays off (`bias ≤ 0`) and every lone
///   input fires (`wᵢ + bias > 0`) — larger subsets only add positive
///   weight; AND iff the full set fires (`Σw + bias > 0`) and no
///   largest proper subset does (`Σw − wᵢ + bias ≤ 0` for every `i`).
/// * all `w < 0`, magnitudes `mᵢ`: the duals — NOR iff `bias > 0` and
///   `bias − mᵢ ≤ 0` for every `i`; NAND iff `bias − Σm ≤ 0` and
///   `bias − (Σm − mᵢ) > 0` for every `i`.
///
/// A single-source gate is a copy or an inverter. Mixed-sign rows have
/// no plain-gate form over these ops and return `None`.
fn gate_op(weights: &[(u32, i64)], bias: i64) -> Option<RowOp> {
    let srcs = weights.iter().map(|&(c, _)| c).collect();
    let row = |fold, negate| Some(RowOp { fold, negate, srcs });
    if weights.iter().all(|&(_, w)| w > 0) {
        let sum: i64 = weights.iter().map(|&(_, w)| w).sum();
        if bias <= 0 && weights.iter().all(|&(_, w)| w + bias > 0) {
            return row(Fold::Or, false);
        }
        if sum + bias > 0 && weights.iter().all(|&(_, w)| sum - w + bias <= 0) {
            return row(Fold::And, false);
        }
    } else if weights.iter().all(|&(_, w)| w < 0) {
        let sum: i64 = weights.iter().map(|&(_, w)| -w).sum();
        if bias > 0 && weights.iter().all(|&(_, w)| bias + w <= 0) {
            return row(Fold::Or, true);
        }
        if bias - sum <= 0 && weights.iter().all(|&(_, w)| bias - sum - w > 0) {
            return row(Fold::And, true);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Some` op with these sources.
    fn op(fold: Fold, negate: bool, srcs: &[u32]) -> Option<RowOp> {
        let srcs = srcs.to_vec();
        Some(RowOp { fold, negate, srcs })
    }

    #[test]
    fn gate_rows_classify_to_gates() {
        use Fold::*;
        let t = |w: &[(u32, i64)], b| classify(w, b, Activation2::Threshold);
        // and2: x0 + x1 - 1 > 0
        assert_eq!(t(&[(0, 1), (1, 1)], -1), op(And, false, &[0, 1]));
        // or3
        assert_eq!(t(&[(0, 1), (1, 1), (2, 1)], 0), op(Or, false, &[0, 1, 2]));
        // nor2: -x0 - x1 + 1 > 0
        assert_eq!(t(&[(0, -1), (1, -1)], 1), op(Or, true, &[0, 1]));
        // nand2: -x0 - x1 + 2 > 0
        assert_eq!(t(&[(0, -1), (1, -1)], 2), op(And, true, &[0, 1]));
        // buffer (a copy) and inverter
        assert_eq!(t(&[(3, 1)], 0), op(Or, false, &[3]));
        assert_eq!(t(&[(3, -1)], 1), op(Or, true, &[3]));
        // constants by range
        assert_eq!(t(&[(0, 1)], 1), op(Xor, true, &[]));
        assert_eq!(t(&[(0, 1)], -1), op(Xor, false, &[]));
        assert_eq!(t(&[], 5), op(Xor, true, &[]));
        // a majority gate has no gate form
        assert_eq!(t(&[(0, 1), (1, 1), (2, 1)], -1), None);
    }

    #[test]
    fn weight_aware_rows_classify_to_gates() {
        use Fold::*;
        let t = |w: &[(u32, i64)], b| classify(w, b, Activation2::Threshold);
        // or-like with uneven magnitudes: any lone input clears the bias
        assert_eq!(t(&[(0, 3), (1, 5)], -2), op(Or, false, &[0, 1]));
        // and-like: only the full set clears the bias (3+5-6 > 0, but
        // dropping either input goes non-positive)
        assert_eq!(t(&[(0, 3), (1, 5)], -6), op(And, false, &[0, 1]));
        // single non-unit source: copy / inverter
        assert_eq!(t(&[(7, 3)], -2), op(Or, false, &[7]));
        assert_eq!(t(&[(7, -3)], 2), op(Or, true, &[7]));
        // negative duals with uneven magnitudes
        assert_eq!(t(&[(0, -2), (1, -4)], 2), op(Or, true, &[0, 1]));
        assert_eq!(t(&[(0, -2), (1, -4)], 5), op(And, true, &[0, 1]));
        // a row whose boundary separates no gate subset is refused:
        // 3·x0 + 5·x1 − 4 > 0 fires on {x1} and {x0,x1} but not {x0} —
        // neither OR nor AND
        assert_eq!(t(&[(0, 3), (1, 5)], -4), None);
        // mixed signs never have a plain gate form
        assert_eq!(t(&[(0, 2), (1, -3)], 1), None);
    }

    #[test]
    fn weight_aware_gates_match_threshold_semantics() {
        // exhaustive cross-check: for every ≤3-input row over a weight
        // grid that classifies to a gate, the gate must agree with direct
        // threshold evaluation on every input assignment
        let grid: &[i64] = &[-5, -3, -1, 1, 2, 4];
        let mut gates = 0;
        for &w0 in grid {
            for &w1 in grid {
                for &w2 in grid {
                    for bias in -8i64..=8 {
                        let weights = [(0u32, w0), (1u32, w1), (2u32, w2)];
                        let Some(op) = classify(&weights, bias, Activation2::Threshold) else {
                            continue;
                        };
                        gates += 1;
                        for assign in 0u32..8 {
                            let bit = |i: u32| assign >> i & 1 == 1;
                            let want = weights
                                .iter()
                                .map(|&(c, w)| if bit(c) { w } else { 0 })
                                .sum::<i64>()
                                + bias
                                > 0;
                            let got = eval_row(&op, &bit);
                            assert_eq!(
                                got, want,
                                "w=({w0},{w1},{w2}) b={bias} assign={assign:03b} op={op:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(gates > 0);
    }

    /// Scalar reference evaluation of one RowOp (test-only): no source
    /// folds to 0, as in the engine.
    fn eval_row(op: &RowOp, bit: &dyn Fn(u32) -> bool) -> bool {
        let mut v = op.srcs.iter().map(|&c| bit(c));
        let folded = match op.fold {
            Fold::And => !op.srcs.is_empty() && v.all(|b| b),
            Fold::Or => v.any(|b| b),
            Fold::Xor => v.filter(|&b| b).count() % 2 == 1,
        };
        folded != op.negate
    }

    /// One threshold layer over two inputs from `(weights, bias)` rows.
    fn threshold_net(rows: &[(Vec<(u32, f32)>, f32)]) -> CompiledNn<f32> {
        use c2nn_tensor::Csr;
        let mut triples = Vec::new();
        for (r, (ws, _)) in rows.iter().enumerate() {
            for &(c, w) in ws {
                triples.push((r as u32, c, w));
            }
        }
        let threshold_layer = crate::layer::NnLayer {
            weights: Csr::from_triplets(rows.len(), 2, triples),
            bias: rows.iter().map(|(_, b)| *b).collect(),
            activation: Activation2::Threshold,
        };
        CompiledNn {
            name: "census".into(),
            layers: vec![threshold_layer],
            num_primary_inputs: 2,
            num_primary_outputs: rows.len(),
            state_init: vec![],
            gate_count: rows.len(),
            lut_size: 2,
        }
    }

    #[test]
    fn op_census_counts_gates_and_a_non_gate_row_is_refused_by_position() {
        let mut rows = vec![
            (vec![(0, 1.0), (1, 1.0)], -1.0), // unit AND
            (vec![(0, 3.0), (1, 5.0)], -2.0), // weighted OR
        ];
        let plan = BitplaneNn::from_compiled(&threshold_net(&rows)).unwrap();
        let census = plan.op_census();
        assert_eq!((census.ands, census.ors, census.weighted), (1, 1, 0));
        assert_eq!(census.total(), 2);
        // (2 fan-in + 1) word ops per gate, one per gathered output
        assert_eq!(plan.modeled_word_ops(), 2 * 3 + 2);

        rows.push((vec![(0, 3.0), (1, 5.0)], -4.0)); // no gate form
        let err = BitplaneNn::from_compiled(&threshold_net(&rows)).unwrap_err();
        assert_eq!(err, BitplaneError::NotAGate { layer: 0, row: 2 });
        assert!(err.to_string().starts_with("layer 0 row 2: "), "{err}");
    }

    #[test]
    fn linear_rows_classify_to_parity() {
        use Fold::Xor;
        let l = |w: &[(u32, i64)], b| classify(w, b, Activation2::Linear);
        assert_eq!(l(&[(0, 1), (1, -1), (2, 2)], 0), op(Xor, false, &[0, 1]));
        assert_eq!(l(&[(4, 1)], 0), op(Xor, false, &[4]));
        assert_eq!(l(&[(4, -1)], 1), op(Xor, true, &[4]));
        assert_eq!(l(&[(4, 2)], 1), op(Xor, true, &[]));
        assert_eq!(l(&[], 0), op(Xor, false, &[]));
    }
}
