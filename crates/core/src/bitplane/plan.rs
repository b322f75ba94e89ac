//! Legalize-to-bitplane: classify each exact-integer neuron row into the
//! cheapest word-parallel operation that computes it.
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
//!   AND, `0` → OR, and the `-1` duals), but non-±1 rows from merged
//!   layers or hand-built models qualify too.
//! * A linear row whose value is always 0/1 equals its own parity, so it
//!   is the XOR of the fan-in planes with odd weights, inverted when the
//!   bias is odd. Even coefficients drop out entirely.
//!
//! Everything else falls back to [`RowOp::Weighted`], an exact bit-sliced
//! popcount comparator (see `exec`), so *any* legal `CompiledNn` — merged
//! layers, wide gates, hand-built models — runs bit-exactly. When both a
//! gate form and the counter form are available for a row, the classifier
//! picks by modeled word-op cost ([`RowOp::modeled_word_ops`]); the
//! outcome is counted per op kind by [`BitplaneNn::op_census`].

use crate::compile::CompiledNn;
use crate::layer::Activation2;
use crate::sim::StepShape;
use c2nn_tensor::Scalar;
use std::fmt;

/// One output plane of a bit-plane layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowOp {
    /// The row is constant regardless of input.
    Const(bool),
    /// The row copies one input plane.
    Copy(u32),
    /// The row negates one input plane.
    Not(u32),
    /// AND of the fan-in planes (unit weights, bias `1-n`).
    And(Vec<u32>),
    /// NAND of the fan-in planes (weights `-1`, bias `n`).
    Nand(Vec<u32>),
    /// OR of the fan-in planes (unit weights, bias `0`).
    Or(Vec<u32>),
    /// NOR of the fan-in planes (weights `-1`, bias `1`).
    Nor(Vec<u32>),
    /// XOR of the odd-weight fan-in planes of a linear row, optionally
    /// inverted by an odd bias.
    Xor {
        /// Fan-in columns with odd coefficients.
        srcs: Vec<u32>,
        /// Whether the bias is odd.
        invert: bool,
    },
    /// General threshold `Σ wᵢxᵢ + b > 0`, evaluated exactly as
    /// `A > B` with `A = Σ_{w>0} w·x + max(b,0)` and
    /// `B = Σ_{w<0} |w|·x + max(-b,0)` via bit-sliced popcount counters.
    Weighted {
        /// Positive-weight terms `(column, magnitude)`.
        plus: Vec<(u32, u64)>,
        /// Negative-weight terms `(column, magnitude)`.
        minus: Vec<(u32, u64)>,
        /// `max(bias, 0)`.
        pos_bias: u64,
        /// `max(-bias, 0)`.
        neg_bias: u64,
    },
}

impl RowOp {
    /// Modeled cost of evaluating this op for one output *word* (64
    /// lanes), in machine word operations. This is the cost model the
    /// classifier uses to choose between a gate form and the bit-sliced
    /// counter form for weighted rows, and what the backend HAL sums into
    /// its capabilities manifest: gate/XOR ops cost one op per fan-in
    /// plane, the counter fallback costs one ripple-carry plane-add per
    /// set weight bit (each rippling up to the counter width) plus the
    /// final lexicographic compare.
    pub fn modeled_word_ops(&self) -> u64 {
        match self {
            RowOp::Const(_) | RowOp::Copy(_) | RowOp::Not(_) => 1,
            RowOp::And(srcs) | RowOp::Nand(srcs) | RowOp::Or(srcs) | RowOp::Nor(srcs) => {
                srcs.len() as u64 + 1
            }
            RowOp::Xor { srcs, .. } => srcs.len() as u64 + 1,
            RowOp::Weighted {
                plus,
                minus,
                pos_bias,
                neg_bias,
            } => {
                let a_max: u64 = *pos_bias + plus.iter().map(|&(_, w)| w).sum::<u64>();
                let b_max: u64 = *neg_bias + minus.iter().map(|&(_, w)| w).sum::<u64>();
                // counter width in digit planes (≥1 once non-trivial)
                let width = (64 - a_max.max(b_max).max(1).leading_zeros()) as u64;
                let adds: u64 = plus
                    .iter()
                    .chain(minus.iter())
                    .map(|&(_, w)| w.count_ones() as u64)
                    .sum::<u64>()
                    + pos_bias.count_ones() as u64
                    + neg_bias.count_ones() as u64;
                adds * width + 3 * width
            }
        }
    }

    /// Whether this op runs on the bit-sliced counter path (the expensive
    /// class) rather than plain word ops.
    pub fn is_weighted(&self) -> bool {
        matches!(self, RowOp::Weighted { .. })
    }
}

/// One layer of the bit-plane program.
#[derive(Clone, Debug)]
pub struct BitLayer {
    /// Planes the layer reads.
    pub in_width: usize,
    /// One op per output plane.
    pub ops: Vec<RowOp>,
}

/// A compiled network legalized to bit-plane form. Built from a
/// [`CompiledNn`] by [`BitplaneNn::from_compiled`]; shares its port order
/// and state layout, so the two backends are drop-in interchangeable.
#[derive(Clone, Debug)]
pub struct BitplaneNn {
    /// Model name (copied from the source network).
    pub name: String,
    /// The layer programs, input to output.
    pub layers: Vec<BitLayer>,
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
}

impl fmt::Display for BitplaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitplaneError::NonIntegralValue { layer, row, value } => write!(
                f,
                "layer {layer} row {row}: value {value} is not an integer; \
                 the bit-plane backend requires exact integral weights"
            ),
        }
    }
}

impl std::error::Error for BitplaneError {}

/// Per-kind op counts of a bit-plane program (reported by the benchmark and
/// asserted on in tests: the unmerged pipeline should legalize almost
/// entirely to gate ops, not `Weighted` fallbacks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCensus {
    pub consts: usize,
    pub copies: usize,
    pub nots: usize,
    pub ands: usize,
    pub nands: usize,
    pub ors: usize,
    pub nors: usize,
    pub xors: usize,
    pub weighted: usize,
}

impl OpCensus {
    /// Total op count.
    pub fn total(&self) -> usize {
        self.consts
            + self.copies
            + self.nots
            + self.ands
            + self.nands
            + self.ors
            + self.nors
            + self.xors
            + self.weighted
    }
}

impl BitplaneNn {
    /// Legalize a compiled network to bit-plane form. Exact for every
    /// network that passes `CompiledNn::validate` (integral weights within
    /// the scalar's exact range); fails with a typed error otherwise.
    pub fn from_compiled<T: Scalar>(nn: &CompiledNn<T>) -> Result<Self, BitplaneError> {
        let mut layers = Vec::with_capacity(nn.layers.len());
        for (li, layer) in nn.layers.iter().enumerate() {
            let mut ops = Vec::with_capacity(layer.weights.rows());
            let mut row: Vec<(u32, i64)> = Vec::new();
            for r in 0..layer.weights.rows() {
                row.clear();
                for (c, v) in layer.weights.row(r) {
                    let w = exact_i64(v, li, r)?;
                    if w != 0 {
                        row.push((c, w));
                    }
                }
                let bias = exact_i64(layer.bias[r], li, r)?;
                ops.push(classify(&row, bias, layer.activation));
            }
            layers.push(BitLayer {
                in_width: layer.weights.cols(),
                ops,
            });
        }
        Ok(BitplaneNn {
            name: nn.name.clone(),
            layers,
            num_primary_inputs: nn.num_primary_inputs,
            num_primary_outputs: nn.num_primary_outputs,
            state_init: nn.state_init.clone(),
            gate_count: nn.gate_count,
            lut_size: nn.lut_size,
        })
    }

    /// Planes the first layer reads (primary inputs followed by state).
    pub fn in_width(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_width)
    }

    /// Planes the last layer writes (primary outputs followed by state).
    pub fn out_width(&self) -> usize {
        self.layers.last().map_or(0, |l| l.ops.len())
    }

    /// Flip-flop count.
    pub fn state_bits(&self) -> usize {
        self.state_init.len()
    }

    /// Layer count.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Port widths and depth, as the stepping engine sees them (identical
    /// to the source network's ports).
    pub fn shape(&self) -> StepShape {
        StepShape {
            inputs: self.num_primary_inputs,
            outputs: self.num_primary_outputs,
            state: self.state_bits(),
            layers: self.layers.len(),
        }
    }

    /// Summed modeled word-op cost per output word, split into
    /// `(cheap, weighted)` units: cheap covers the plain word-op paths
    /// (constants, copies, gates, parities), weighted the bit-sliced
    /// counter fallback. The backend HAL feeds these into its
    /// cost model to predict cycles/s per batch size.
    pub fn modeled_units(&self) -> (f64, f64) {
        let mut cheap = 0u64;
        let mut weighted = 0u64;
        for layer in &self.layers {
            for op in &layer.ops {
                if op.is_weighted() {
                    weighted += op.modeled_word_ops();
                } else {
                    cheap += op.modeled_word_ops();
                }
            }
        }
        (cheap as f64, weighted as f64)
    }

    /// Count ops by kind across all layers.
    pub fn op_census(&self) -> OpCensus {
        let mut c = OpCensus::default();
        for layer in &self.layers {
            for op in &layer.ops {
                match op {
                    RowOp::Const(_) => c.consts += 1,
                    RowOp::Copy(_) => c.copies += 1,
                    RowOp::Not(_) => c.nots += 1,
                    RowOp::And(_) => c.ands += 1,
                    RowOp::Nand(_) => c.nands += 1,
                    RowOp::Or(_) => c.ors += 1,
                    RowOp::Nor(_) => c.nors += 1,
                    RowOp::Xor { .. } => c.xors += 1,
                    RowOp::Weighted { .. } => c.weighted += 1,
                }
            }
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

/// Pick the cheapest exact op for one canonical row.
fn classify(weights: &[(u32, i64)], bias: i64, act: Activation2) -> RowOp {
    match act {
        Activation2::Linear => {
            // 0/1-valued linear rows equal their own parity
            let srcs: Vec<u32> = weights
                .iter()
                .filter(|&&(_, w)| w & 1 != 0)
                .map(|&(c, _)| c)
                .collect();
            let invert = bias & 1 != 0;
            match (srcs.len(), invert) {
                (0, b) => RowOp::Const(b),
                (1, false) => RowOp::Copy(srcs[0]),
                (1, true) => RowOp::Not(srcs[0]),
                _ => RowOp::Xor { srcs, invert },
            }
        }
        Activation2::Threshold => {
            let min_pre: i64 = weights.iter().map(|&(_, w)| w.min(0)).sum::<i64>() + bias;
            let max_pre: i64 = weights.iter().map(|&(_, w)| w.max(0)).sum::<i64>() + bias;
            if min_pre > 0 {
                return RowOp::Const(true);
            }
            if max_pre <= 0 {
                return RowOp::Const(false);
            }
            // non-constant, so weights is non-empty from here on
            let counter = weighted_op(weights, bias);
            match gate_op(weights, bias) {
                // both forms compute the row exactly; take the modeled-
                // cost winner (the gate always wins today, but the
                // explicit comparison keeps the choice honest if the
                // counter path ever gets cheaper ops)
                Some(gate) if gate.modeled_word_ops() <= counter.modeled_word_ops() => gate,
                _ => counter,
            }
        }
    }
}

/// The exact bit-sliced-counter form of a threshold row (always valid).
fn weighted_op(weights: &[(u32, i64)], bias: i64) -> RowOp {
    let plus: Vec<(u32, u64)> = weights
        .iter()
        .filter(|&&(_, w)| w > 0)
        .map(|&(c, w)| (c, w as u64))
        .collect();
    let minus: Vec<(u32, u64)> = weights
        .iter()
        .filter(|&&(_, w)| w < 0)
        .map(|&(c, w)| (c, w.unsigned_abs()))
        .collect();
    RowOp::Weighted {
        plus,
        minus,
        pos_bias: bias.max(0) as u64,
        neg_bias: (-bias).max(0) as u64,
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
/// Single-source gates normalize to copy/inverter. Mixed-sign rows have
/// no plain-gate form over these ops and return `None`.
fn gate_op(weights: &[(u32, i64)], bias: i64) -> Option<RowOp> {
    let srcs = || weights.iter().map(|&(c, _)| c).collect::<Vec<u32>>();
    if weights.iter().all(|&(_, w)| w > 0) {
        let sum: i64 = weights.iter().map(|&(_, w)| w).sum();
        if bias <= 0 && weights.iter().all(|&(_, w)| w + bias > 0) {
            return Some(match weights {
                [(c, _)] => RowOp::Copy(*c),
                _ => RowOp::Or(srcs()),
            });
        }
        if sum + bias > 0 && weights.iter().all(|&(_, w)| sum - w + bias <= 0) {
            return Some(match weights {
                [(c, _)] => RowOp::Copy(*c),
                _ => RowOp::And(srcs()),
            });
        }
    } else if weights.iter().all(|&(_, w)| w < 0) {
        let sum: i64 = weights.iter().map(|&(_, w)| -w).sum();
        if bias > 0 && weights.iter().all(|&(_, w)| bias + w <= 0) {
            return Some(match weights {
                [(c, _)] => RowOp::Not(*c),
                _ => RowOp::Nor(srcs()),
            });
        }
        if bias - sum <= 0 && weights.iter().all(|&(_, w)| bias - sum - w > 0) {
            return Some(match weights {
                [(c, _)] => RowOp::Not(*c),
                _ => RowOp::Nand(srcs()),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rows_classify_to_gates() {
        use Activation2::Threshold as T;
        // and2: x0 + x1 - 1 > 0
        assert_eq!(classify(&[(0, 1), (1, 1)], -1, T), RowOp::And(vec![0, 1]));
        // or3
        assert_eq!(
            classify(&[(0, 1), (1, 1), (2, 1)], 0, T),
            RowOp::Or(vec![0, 1, 2])
        );
        // nor2: -x0 - x1 + 1 > 0
        assert_eq!(classify(&[(0, -1), (1, -1)], 1, T), RowOp::Nor(vec![0, 1]));
        // nand2: -x0 - x1 + 2 > 0
        assert_eq!(classify(&[(0, -1), (1, -1)], 2, T), RowOp::Nand(vec![0, 1]));
        // buffer and inverter
        assert_eq!(classify(&[(3, 1)], 0, T), RowOp::Copy(3));
        assert_eq!(classify(&[(3, -1)], 1, T), RowOp::Not(3));
        // constants by range
        assert_eq!(classify(&[(0, 1)], 1, T), RowOp::Const(true));
        assert_eq!(classify(&[(0, 1)], -1, T), RowOp::Const(false));
        assert_eq!(classify(&[], 5, T), RowOp::Const(true));
        // a majority gate has no gate form
        assert!(matches!(
            classify(&[(0, 1), (1, 1), (2, 1)], -1, T),
            RowOp::Weighted { .. }
        ));
    }

    #[test]
    fn weight_aware_rows_classify_to_gates() {
        use Activation2::Threshold as T;
        // or-like with uneven magnitudes: any lone input clears the bias
        assert_eq!(classify(&[(0, 3), (1, 5)], -2, T), RowOp::Or(vec![0, 1]));
        // and-like: only the full set clears the bias (3+5-6 > 0, but
        // dropping either input goes non-positive)
        assert_eq!(classify(&[(0, 3), (1, 5)], -6, T), RowOp::And(vec![0, 1]));
        // single non-unit source normalizes to copy / inverter
        assert_eq!(classify(&[(7, 3)], -2, T), RowOp::Copy(7));
        assert_eq!(classify(&[(7, -3)], 2, T), RowOp::Not(7));
        // negative duals with uneven magnitudes
        assert_eq!(classify(&[(0, -2), (1, -4)], 2, T), RowOp::Nor(vec![0, 1]));
        assert_eq!(classify(&[(0, -2), (1, -4)], 5, T), RowOp::Nand(vec![0, 1]));
        // a weighted row whose boundary separates no gate subset stays on
        // the counter path: 3·x0 + 5·x1 − 4 > 0 fires on {x1} and {x0,x1}
        // but not {x0} — neither OR nor AND
        assert!(matches!(
            classify(&[(0, 3), (1, 5)], -4, T),
            RowOp::Weighted { .. }
        ));
        // mixed signs never have a plain gate form
        assert!(matches!(
            classify(&[(0, 2), (1, -3)], 1, T),
            RowOp::Weighted { .. }
        ));
    }

    #[test]
    fn weight_aware_gates_match_the_counter_semantics() {
        use Activation2::Threshold as T;
        // exhaustive cross-check: for every ≤3-input row over a weight
        // grid, the classified op must agree with direct threshold
        // evaluation on every input assignment
        let grid: &[i64] = &[-5, -3, -1, 1, 2, 4];
        for &w0 in grid {
            for &w1 in grid {
                for &w2 in grid {
                    for bias in -8i64..=8 {
                        let weights = [(0u32, w0), (1u32, w1), (2u32, w2)];
                        let op = classify(&weights, bias, T);
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
    }

    /// Scalar reference evaluation of one RowOp (test-only).
    fn eval_row(op: &RowOp, bit: &dyn Fn(u32) -> bool) -> bool {
        match op {
            RowOp::Const(b) => *b,
            RowOp::Copy(c) => bit(*c),
            RowOp::Not(c) => !bit(*c),
            RowOp::And(s) => s.iter().all(|&c| bit(c)),
            RowOp::Nand(s) => !s.iter().all(|&c| bit(c)),
            RowOp::Or(s) => s.iter().any(|&c| bit(c)),
            RowOp::Nor(s) => !s.iter().any(|&c| bit(c)),
            RowOp::Xor { srcs, invert } => {
                (srcs.iter().filter(|&&c| bit(c)).count() % 2 == 1) != *invert
            }
            RowOp::Weighted {
                plus,
                minus,
                pos_bias,
                neg_bias,
            } => {
                let a: u64 = *pos_bias
                    + plus
                        .iter()
                        .map(|&(c, w)| if bit(c) { w } else { 0 })
                        .sum::<u64>();
                let b: u64 = *neg_bias
                    + minus
                        .iter()
                        .map(|&(c, w)| if bit(c) { w } else { 0 })
                        .sum::<u64>();
                a > b
            }
        }
    }

    #[test]
    fn op_census_counts_gates_and_counter_rows() {
        use c2nn_tensor::Csr;
        // one layer: a unit AND, a weighted OR, and a counter row
        let rows: &[(Vec<(u32, f32)>, f32)] = &[
            (vec![(0, 1.0), (1, 1.0)], -1.0), // unit AND
            (vec![(0, 3.0), (1, 5.0)], -2.0), // weighted OR
            (vec![(0, 3.0), (1, 5.0)], -4.0), // counter fallback
        ];
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
        let nn = CompiledNn {
            name: "census".into(),
            layers: vec![threshold_layer],
            num_primary_inputs: 2,
            num_primary_outputs: 3,
            state_init: vec![],
            gate_count: 3,
            lut_size: 2,
        };
        let plan = BitplaneNn::from_compiled(&nn).unwrap();
        let census = plan.op_census();
        assert_eq!((census.ands, census.ors, census.weighted), (1, 1, 1));
        assert_eq!(census.total(), 3);
        let (cheap, weighted) = plan.modeled_units();
        assert!(cheap > 0.0 && weighted > 0.0);
    }

    #[test]
    fn linear_rows_classify_to_parity() {
        use Activation2::Linear as L;
        assert_eq!(
            classify(&[(0, 1), (1, -1), (2, 2)], 0, L),
            RowOp::Xor {
                srcs: vec![0, 1],
                invert: false
            }
        );
        assert_eq!(classify(&[(4, 1)], 0, L), RowOp::Copy(4));
        assert_eq!(classify(&[(4, -1)], 1, L), RowOp::Not(4));
        assert_eq!(classify(&[(4, 2)], 1, L), RowOp::Const(true));
        assert_eq!(classify(&[], 0, L), RowOp::Const(false));
    }
}
