//! The computation graph of LUTs (paper Fig. 3): the mapper's output and the
//! NN compiler's input.

use c2nn_boolfn::Lut;

/// The Boolean function a node computes.
///
/// `Table` is the ordinary ≤L-input LUT. The `Wide*` variants implement the
/// paper's §V *known-function polynomial library*: gates whose polynomial is
/// trivially sparse (AND = one monomial; OR = one complemented monomial) can
/// bypass the `L` limit entirely — "the equivalent of increasing L".
#[derive(Clone, Debug, PartialEq)]
pub enum NodeFunc {
    /// Arbitrary truth table; variable `j` is `inputs[j]`.
    Table(Lut),
    /// AND of all inputs (`invert` makes it NAND). Any arity.
    WideAnd { invert: bool },
    /// OR of all inputs (`invert` makes it NOR). Any arity.
    WideOr { invert: bool },
}

/// `origin` value for nodes with no single source net (hand-built graphs,
/// synthesized helper nodes).
pub const NO_ORIGIN: u32 = u32::MAX;

/// One node: a Boolean function of earlier signals.
///
/// Signals are numbered densely: ids `0..num_inputs` are the primary inputs
/// of the mapped circuit (in port order), id `num_inputs + i` is the output
/// of `nodes[i]`. Nodes are stored in topological order (a node only
/// references earlier signals).
#[derive(Clone, Debug, PartialEq)]
pub struct LutNode {
    /// Input signal ids.
    pub inputs: Vec<u32>,
    pub func: NodeFunc,
    /// Provenance: the source-netlist `Net` id whose value this node
    /// computes, or [`NO_ORIGIN`]. Stable across mapper configurations, so
    /// downstream IRs can report per-net structure.
    pub origin: u32,
}

impl LutNode {
    /// An ordinary table node (`inputs.len()` must equal `lut.inputs()`),
    /// with no recorded provenance.
    pub fn table(inputs: Vec<u32>, lut: Lut) -> Self {
        LutNode {
            inputs,
            func: NodeFunc::Table(lut),
            origin: NO_ORIGIN,
        }
    }

    /// Evaluate on the values of this node's inputs.
    pub fn eval(&self, in_vals: &[bool]) -> bool {
        debug_assert_eq!(in_vals.len(), self.inputs.len());
        match &self.func {
            NodeFunc::Table(lut) => {
                let row: u64 = in_vals
                    .iter()
                    .enumerate()
                    .map(|(j, &b)| (b as u64) << j)
                    .sum();
                lut.get(row)
            }
            NodeFunc::WideAnd { invert } => in_vals.iter().all(|&b| b) != *invert,
            NodeFunc::WideOr { invert } => in_vals.iter().any(|&b| b) != *invert,
        }
    }
}

/// A mapped circuit: DAG of nodes over primary-input signals.
#[derive(Clone, Debug, PartialEq)]
pub struct LutGraph {
    pub name: String,
    pub num_inputs: usize,
    pub nodes: Vec<LutNode>,
    /// Output signal ids, in port order (may reference inputs directly for
    /// pass-through outputs).
    pub outputs: Vec<u32>,
}

/// Errors from [`LutGraph::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LutGraphError {
    /// Node references a signal defined later (or itself).
    ForwardReference { node: usize, signal: u32 },
    /// Node input count does not match its truth table.
    ArityMismatch { node: usize },
    /// Output references an unknown signal.
    BadOutput { index: usize, signal: u32 },
    /// A table node exceeds the LUT input bound.
    TooWide {
        node: usize,
        inputs: usize,
        bound: usize,
    },
}

impl std::fmt::Display for LutGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LutGraphError::ForwardReference { node, signal } => {
                write!(f, "node {node} references later signal {signal}")
            }
            LutGraphError::ArityMismatch { node } => {
                write!(f, "node {node}: input count != table width")
            }
            LutGraphError::BadOutput { index, signal } => {
                write!(f, "output {index} references unknown signal {signal}")
            }
            LutGraphError::TooWide {
                node,
                inputs,
                bound,
            } => write!(f, "node {node} has {inputs} inputs > bound {bound}"),
        }
    }
}

impl std::error::Error for LutGraphError {}

impl LutGraph {
    /// Total number of signals (inputs + node outputs).
    pub fn num_signals(&self) -> usize {
        self.num_inputs + self.nodes.len()
    }

    /// Check structural invariants; `bound` is the mapper's `L` and applies
    /// to table nodes only (wide known-function nodes exist to exceed it).
    pub fn validate(&self, bound: usize) -> Result<(), LutGraphError> {
        for (i, n) in self.nodes.iter().enumerate() {
            let own_id = (self.num_inputs + i) as u32;
            if let NodeFunc::Table(lut) = &n.func {
                if n.inputs.len() != lut.inputs() as usize {
                    return Err(LutGraphError::ArityMismatch { node: i });
                }
                if n.inputs.len() > bound {
                    return Err(LutGraphError::TooWide {
                        node: i,
                        inputs: n.inputs.len(),
                        bound,
                    });
                }
            }
            for &s in &n.inputs {
                if s >= own_id {
                    return Err(LutGraphError::ForwardReference { node: i, signal: s });
                }
            }
        }
        for (i, &o) in self.outputs.iter().enumerate() {
            if o as usize >= self.num_signals() {
                return Err(LutGraphError::BadOutput {
                    index: i,
                    signal: o,
                });
            }
        }
        Ok(())
    }

    /// Logic level per signal: inputs are level 0, a node is
    /// `1 + max(input levels)`.
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.num_signals()];
        for (i, n) in self.nodes.iter().enumerate() {
            let l = n.inputs.iter().map(|&s| lv[s as usize]).max().unwrap_or(0) + 1;
            lv[self.num_inputs + i] = l;
        }
        lv
    }

    /// Depth of the graph (max level over all signals).
    pub fn depth(&self) -> u32 {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// Evaluate the whole graph on one input assignment (reference
    /// semantics; used for equivalence tests).
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs);
        let mut vals = vec![false; self.num_signals()];
        vals[..self.num_inputs].copy_from_slice(inputs);
        for (i, n) in self.nodes.iter().enumerate() {
            let in_vals: Vec<bool> = n.inputs.iter().map(|&s| vals[s as usize]).collect();
            vals[self.num_inputs + i] = n.eval(&in_vals);
        }
        self.outputs.iter().map(|&o| vals[o as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain() -> LutGraph {
        // 3 inputs; n0 = x0^x1; n1 = n0^x2; outputs [n1]
        LutGraph {
            name: "xc".into(),
            num_inputs: 3,
            nodes: vec![
                LutNode::table(vec![0, 1], Lut::xor(2)),
                LutNode::table(vec![3, 2], Lut::xor(2)),
            ],
            outputs: vec![4],
        }
    }

    #[test]
    fn eval_and_levels() {
        let g = xor_chain();
        g.validate(2).unwrap();
        for x in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|j| x >> j & 1 == 1).collect();
            assert_eq!(g.eval(&bits), vec![x.count_ones() % 2 == 1]);
        }
        assert_eq!(g.depth(), 2);
        assert_eq!(g.levels(), vec![0, 0, 0, 1, 2]);
    }

    #[test]
    fn validate_catches_forward_reference() {
        let mut g = xor_chain();
        g.nodes[0].inputs[0] = 4;
        assert!(matches!(
            g.validate(2),
            Err(LutGraphError::ForwardReference { .. })
        ));
    }

    #[test]
    fn validate_catches_width_bound() {
        let g = xor_chain();
        assert!(matches!(g.validate(1), Err(LutGraphError::TooWide { .. })));
    }

    #[test]
    fn wide_nodes_bypass_the_bound() {
        let g = LutGraph {
            name: "w".into(),
            num_inputs: 9,
            nodes: vec![LutNode {
                inputs: (0..9).collect(),
                func: NodeFunc::WideAnd { invert: false },
                origin: NO_ORIGIN,
            }],
            outputs: vec![9],
        };
        g.validate(3).unwrap(); // 9 > 3 but wide nodes are exempt
        for x in [0u32, 0b111111111, 0b101010101] {
            let bits: Vec<bool> = (0..9).map(|j| x >> j & 1 == 1).collect();
            assert_eq!(g.eval(&bits), vec![x == 0b111111111]);
        }
    }

    #[test]
    fn wide_or_and_inversions() {
        type Case = (NodeFunc, fn(u32) -> bool);
        let cases: Vec<Case> = vec![
            (NodeFunc::WideOr { invert: false }, |x| x != 0),
            (NodeFunc::WideOr { invert: true }, |x| x == 0),
            (NodeFunc::WideAnd { invert: true }, |x| x != 0b1111),
        ];
        for (func, f) in cases {
            let g = LutGraph {
                name: "w".into(),
                num_inputs: 4,
                nodes: vec![LutNode {
                    inputs: (0..4).collect(),
                    func: func.clone(),
                    origin: NO_ORIGIN,
                }],
                outputs: vec![4],
            };
            for x in 0..16u32 {
                let bits: Vec<bool> = (0..4).map(|j| x >> j & 1 == 1).collect();
                assert_eq!(g.eval(&bits), vec![f(x)], "{func:?} x={x:04b}");
            }
        }
    }

    #[test]
    fn passthrough_output() {
        let mut g = xor_chain();
        g.outputs.push(1); // input 1 directly
        let out = g.eval(&[false, true, false]);
        assert!(out[1]);
    }
}
