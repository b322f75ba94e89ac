//! Depth-oriented technology mapping into ≤L-input LUTs.
//!
//! The paper delegates this step to ABC's FlowMap-derived mapper (Fig. 3,
//! footnote 3). This module implements the same contract from scratch:
//!
//! 1. **Cut enumeration** — bottom-up k-feasible cut computation with
//!    priority pruning (keep the best few cuts per net, ranked by arrival
//!    depth then size), the practical formulation of FlowMap's label
//!    computation;
//! 2. **Cover selection** — walk back from the outputs choosing each
//!    required net's best cut, instantiating one LUT per chosen cut;
//! 3. **Table generation** — exhaustive bit-parallel cone evaluation
//!    ([`crate::cone`]).
//!
//! Overlapping LUTs arise naturally (shared logic reachable through two
//! different cuts), exactly as the paper's Fig. 3 shows.

use crate::cone::cone_truth_table;
use crate::graph::{LutGraph, LutNode, NodeFunc};
use c2nn_netlist::{Driver, GateKind, Net, Netlist};
use std::collections::HashMap;

/// Cuts kept per net during enumeration (see [`prune`]).
const CUTS_PER_NET: usize = 8;

/// Mapper configuration.
#[derive(Clone, Copy, Debug)]
pub struct MapConfig {
    /// Maximum LUT inputs (the paper's `L`, 2..=16).
    pub max_inputs: usize,
    /// Keep AND/OR/NAND/NOR gates wider than `L` as known-function nodes
    /// instead of splitting them (paper §V: "polynomial libraries for known
    /// functions ... the equivalent of increasing L").
    pub wide_gates: bool,
}

impl MapConfig {
    /// Depth-oriented defaults for a given `L`.
    pub fn with_l(l: usize) -> Self {
        assert!((2..=16).contains(&l), "L must be in 2..=16, got {l}");
        MapConfig {
            max_inputs: l,
            wide_gates: false,
        }
    }

    /// Enable the §V known-function shortcut.
    pub fn with_wide_gates(mut self) -> Self {
        self.wide_gates = true;
        self
    }
}

/// Mapping errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The netlist still contains flip-flops; run the FF cut first.
    Sequential,
    /// Structural problem in the input netlist.
    Netlist(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Sequential => {
                write!(
                    f,
                    "netlist has flip-flops; apply seq::prepare before mapping"
                )
            }
            MapError::Netlist(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for MapError {}

/// One k-feasible cut: sorted leaf nets plus its arrival depth.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Cut {
    leaves: Vec<Net>,
    depth: u32,
}

impl Cut {
    fn rank(&self) -> (u32, usize) {
        (self.depth, self.leaves.len())
    }
}

/// Merge two sorted leaf sets; `None` if the union exceeds `k`.
fn merge_leaves(a: &[Net], b: &[Net], k: usize) -> Option<Vec<Net>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if out.len() == k {
            return None;
        }
        out.push(next);
    }
    Some(out)
}

/// Map a combinational netlist into a [`LutGraph`] with LUTs of at most
/// `cfg.max_inputs` inputs.
pub fn map_netlist(nl: &Netlist, cfg: MapConfig) -> Result<LutGraph, MapError> {
    if !nl.is_combinational() {
        return Err(MapError::Sequential);
    }
    nl.validate()
        .map_err(|e| MapError::Netlist(e.to_string()))?;
    // Cut enumeration needs a k-bounded network; binarize so every gate has
    // at most 2 inputs (3 for Mux when L permits). Wide AND/OR family gates
    // survive unsplit when the known-function pass is on.
    let k0 = cfg.max_inputs;
    let is_wide = move |g: &c2nn_netlist::Gate| -> bool {
        g.inputs.len() > k0
            && matches!(
                g.kind,
                GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor
            )
    };
    let owned = if cfg.wide_gates {
        c2nn_netlist::binarize_with(nl, cfg.max_inputs >= 3, is_wide)
    } else {
        c2nn_netlist::binarize(nl, cfg.max_inputs >= 3)
    };
    let nl = &owned;
    // wide gate lookup by output net (on the binarized netlist)
    let wide_of: HashMap<Net, usize> = if cfg.wide_gates {
        nl.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| is_wide(g))
            .map(|(gi, g)| (g.output, gi))
            .collect()
    } else {
        HashMap::new()
    };
    let drivers = nl.drivers().map_err(|e| MapError::Netlist(e.to_string()))?;
    let order = c2nn_netlist::topo_order(nl).map_err(|e| MapError::Netlist(e.to_string()))?;
    let k = cfg.max_inputs;

    // --- phase 1: cut enumeration ---------------------------------------
    // cuts[net] = pruned list of real cuts; `label` = best arrival depth.
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); nl.num_nets as usize];
    let mut label: Vec<u32> = vec![0; nl.num_nets as usize];
    for &inp in &nl.inputs {
        cuts[inp.index()] = vec![Cut {
            leaves: vec![inp],
            depth: 0,
        }];
    }
    for gi in order {
        let g = &nl.gates[gi];
        // wide known-function gates are cut barriers: only their trivial cut
        if wide_of.contains_key(&g.output) {
            let lbl = g.inputs.iter().map(|i| label[i.index()]).max().unwrap_or(0) + 1;
            label[g.output.index()] = lbl;
            cuts[g.output.index()] = vec![Cut {
                leaves: vec![g.output],
                depth: lbl,
            }];
            continue;
        }
        // Fold the gate's inputs pairwise, pruning after each fold: this
        // keeps wide variadic gates (xor_many etc.) from exploding the
        // cartesian product. A constant (0-input gate) keeps only this
        // empty cut and becomes a 0-input LUT node.
        let mut acc: Vec<Cut> = vec![Cut {
            leaves: Vec::new(),
            depth: 0,
        }];
        for &inp in &g.inputs {
            let inp_cuts: &[Cut] = &cuts[inp.index()];
            debug_assert!(
                !inp_cuts.is_empty(),
                "net {inp:?} has no cuts (undriven input of gate {gi}?)"
            );
            let mut next: Vec<Cut> = Vec::with_capacity(acc.len() * inp_cuts.len());
            for a in &acc {
                for b in inp_cuts {
                    if let Some(leaves) = merge_leaves(&a.leaves, &b.leaves, k) {
                        next.push(Cut {
                            leaves,
                            depth: a.depth.max(b.depth),
                        });
                    }
                }
            }
            prune(&mut next);
            // with a 2/3-bounded network and k ≥ 3 (or k = 2 with mux
            // expansion) the trivial cuts of the inputs always merge, so a
            // feasible cut exists
            assert!(!next.is_empty(), "no feasible cut — network not k-bounded");
            acc = next;
        }
        // finalize: depth of a cut = 1 + max(leaf labels)
        for c in &mut acc {
            c.depth = c.leaves.iter().map(|l| label[l.index()]).max().unwrap_or(0) + 1;
        }
        prune(&mut acc);
        let out = g.output;
        label[out.index()] = acc.first().map(|c| c.depth).unwrap_or(0);
        // parents may also use this net as a leaf (the trivial cut)
        let mut with_trivial = acc;
        with_trivial.push(Cut {
            leaves: vec![out],
            depth: label[out.index()],
        });
        cuts[out.index()] = with_trivial;
    }

    // --- phase 2: cover selection ----------------------------------------
    // required nets: gate-driven primary outputs, then chosen-cut leaves.
    let mut chosen: HashMap<Net, Vec<Net>> = HashMap::new(); // net -> leaves
    let mut stack: Vec<Net> = Vec::new();
    let need = |n: Net, stack: &mut Vec<Net>, chosen: &HashMap<Net, Vec<Net>>| {
        if !chosen.contains_key(&n) {
            stack.push(n);
        }
    };
    for &o in &nl.outputs {
        if matches!(drivers[o.index()], Driver::Gate(_)) {
            need(o, &mut stack, &chosen);
        }
    }
    while let Some(n) = stack.pop() {
        if chosen.contains_key(&n) {
            continue;
        }
        // a wide known-function gate covers itself
        if let Some(&gi) = wide_of.get(&n) {
            let ins = nl.gates[gi].inputs.clone();
            for &leaf in &ins {
                if matches!(drivers[leaf.index()], Driver::Gate(_)) {
                    need(leaf, &mut stack, &chosen);
                }
            }
            chosen.insert(n, ins);
            continue;
        }
        // best real cut (exclude the trivial self-cut)
        let best = cuts[n.index()]
            .iter()
            .filter(|c| !(c.leaves.len() == 1 && c.leaves[0] == n))
            .min_by_key(|c| c.rank())
            .unwrap_or_else(|| panic!("no real cut for required net {n:?}"))
            .clone();
        for &leaf in &best.leaves {
            if matches!(drivers[leaf.index()], Driver::Gate(_)) {
                need(leaf, &mut stack, &chosen);
            }
        }
        chosen.insert(n, best.leaves);
    }

    // --- phase 3: build the LutGraph in topological order ----------------
    // order chosen nets by netlist topo level so references go backwards
    let levels = c2nn_netlist::levelize(nl).map_err(|e| MapError::Netlist(e.to_string()))?;
    let mut chosen_nets: Vec<Net> = chosen.keys().copied().collect();
    chosen_nets.sort_by_key(|n| (levels[n.index()], n.0));

    let mut signal_of: HashMap<Net, u32> = HashMap::new();
    for (i, &inp) in nl.inputs.iter().enumerate() {
        signal_of.insert(inp, i as u32);
    }
    let num_inputs = nl.inputs.len();
    let mut nodes: Vec<LutNode> = Vec::with_capacity(chosen_nets.len());
    for &net in &chosen_nets {
        let leaves = &chosen[&net];
        let inputs: Vec<u32> = leaves
            .iter()
            .map(|l| {
                *signal_of
                    .get(l)
                    .unwrap_or_else(|| panic!("leaf {l:?} not yet defined — cover broken"))
            })
            .collect();
        let func = match wide_of.get(&net) {
            Some(&gi) => match nl.gates[gi].kind {
                GateKind::And => NodeFunc::WideAnd { invert: false },
                GateKind::Nand => NodeFunc::WideAnd { invert: true },
                GateKind::Or => NodeFunc::WideOr { invert: false },
                GateKind::Nor => NodeFunc::WideOr { invert: true },
                k => unreachable!("non-wide kind {k:?}"),
            },
            None => NodeFunc::Table(cone_truth_table(nl, &drivers, net, leaves)),
        };
        let id = (num_inputs + nodes.len()) as u32;
        nodes.push(LutNode {
            inputs,
            func,
            origin: net.0,
        });
        signal_of.insert(net, id);
    }

    // outputs: gate-driven map through signal_of; input-driven pass through;
    // undriven/constant handled via small const nodes
    let mut outputs = Vec::with_capacity(nl.outputs.len());
    for &o in &nl.outputs {
        match drivers[o.index()] {
            Driver::Gate(_) => outputs.push(signal_of[&o]),
            Driver::Input(_) => outputs.push(signal_of[&o]),
            Driver::FlipFlop(_) => unreachable!("combinational netlist"),
            Driver::None => return Err(MapError::Netlist(format!("output net {o:?} undriven"))),
        }
    }

    let g = LutGraph {
        name: nl.name.clone(),
        num_inputs,
        nodes,
        outputs,
    };
    debug_assert!(g.validate(k).is_ok());
    Ok(g)
}

/// Keep the [`CUTS_PER_NET`] best cuts by (depth, size), deduplicated.
fn prune(cuts: &mut Vec<Cut>) {
    cuts.sort_by(|a, b| {
        a.rank()
            .cmp(&b.rank())
            .then_with(|| a.leaves.cmp(&b.leaves))
    });
    cuts.dedup_by(|a, b| a.leaves == b.leaves);
    cuts.truncate(CUTS_PER_NET);
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2nn_netlist::{NetlistBuilder, WordOps};

    fn assert_equivalent(nl: &Netlist, g: &LutGraph) {
        let n = nl.inputs.len();
        assert!(n <= 16, "exhaustive check limited to 16 inputs");
        let order = c2nn_netlist::topo_order(nl).unwrap();
        for x in 0..1u64 << n {
            let mut vals = vec![false; nl.num_nets as usize];
            let bits: Vec<bool> = (0..n).map(|j| x >> j & 1 == 1).collect();
            for (j, &inp) in nl.inputs.iter().enumerate() {
                vals[inp.index()] = bits[j];
            }
            for &gi in &order {
                let gate = &nl.gates[gi];
                let ins: Vec<bool> = gate.inputs.iter().map(|i| vals[i.index()]).collect();
                vals[gate.output.index()] = gate.kind.eval(&ins);
            }
            let want: Vec<bool> = nl.outputs.iter().map(|o| vals[o.index()]).collect();
            assert_eq!(g.eval(&bits), want, "x={x:b}");
        }
    }

    fn adder(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("add");
        let a = b.input_word("a", width);
        let c = b.input_word("b", width);
        let (s, cout) = {
            let cin = b.zero();
            b.adc(&a, &c, cin)
        };
        b.output_word(&s, "s");
        b.output(cout, "cout");
        b.finish().unwrap()
    }

    #[test]
    fn map_adder_all_l() {
        let nl = adder(4);
        for l in [2, 3, 4, 6, 8] {
            let g = map_netlist(&nl, MapConfig::with_l(l)).unwrap();
            g.validate(l).unwrap();
            assert_equivalent(&nl, &g);
        }
    }

    #[test]
    fn depth_shrinks_with_larger_l() {
        let nl = adder(6);
        let d3 = map_netlist(&nl, MapConfig::with_l(3)).unwrap().depth();
        let d8 = map_netlist(&nl, MapConfig::with_l(8)).unwrap().depth();
        assert!(d8 <= d3, "depth L=8 ({d8}) should be ≤ depth L=3 ({d3})");
        assert!(
            d8 < d3,
            "a 6-bit adder should benefit from L=8: {d8} vs {d3}"
        );
    }

    #[test]
    fn node_count_shrinks_with_larger_l() {
        let nl = adder(6);
        let n3 = map_netlist(&nl, MapConfig::with_l(3)).unwrap().nodes.len();
        let n8 = map_netlist(&nl, MapConfig::with_l(8)).unwrap().nodes.len();
        assert!(n8 <= n3, "nodes L=8 ({n8}) should be ≤ nodes L=3 ({n3})");
    }

    #[test]
    fn map_wide_gate() {
        // 9-input AND must split under L=3 (the paper's §V example)
        let mut b = NetlistBuilder::new("and9");
        let ins = b.input_word("x", 9);
        let out = b.and_many(&ins);
        b.output(out, "y");
        let nl = b.finish().unwrap();
        let g = map_netlist(&nl, MapConfig::with_l(3)).unwrap();
        g.validate(3).unwrap();
        assert!(
            g.nodes.len() >= 4,
            "9-AND at L=3 needs ≥4 LUTs, got {}",
            g.nodes.len()
        );
        assert_equivalent(&nl, &g);
    }

    #[test]
    fn map_mux_tree() {
        let mut b = NetlistBuilder::new("mux4");
        let d = b.input_word("d", 4);
        let s = b.input_word("s", 2);
        let m0 = b.mux(s[0], d[0], d[1]);
        let m1 = b.mux(s[0], d[2], d[3]);
        let y = b.mux(s[1], m0, m1);
        b.output(y, "y");
        let nl = b.finish().unwrap();
        for l in [2, 3, 6] {
            let g = map_netlist(&nl, MapConfig::with_l(l)).unwrap();
            assert_equivalent(&nl, &g);
        }
        // at L=6 the whole 4:1 mux fits in one LUT
        let g6 = map_netlist(&nl, MapConfig::with_l(6)).unwrap();
        assert_eq!(g6.nodes.len(), 1);
        assert_eq!(g6.depth(), 1);
    }

    #[test]
    fn passthrough_and_constant_outputs() {
        let mut b = NetlistBuilder::new("pc");
        let a = b.input("a");
        let one = b.one();
        b.output(a, "same");
        b.output(one, "k1");
        let nl = b.finish().unwrap();
        let g = map_netlist(&nl, MapConfig::with_l(4)).unwrap();
        assert_eq!(g.eval(&[true]), vec![true, true]);
        assert_eq!(g.eval(&[false]), vec![false, true]);
    }

    #[test]
    fn sequential_rejected() {
        let mut b = NetlistBuilder::new("s");
        let clk = b.clock("clk");
        let d = b.input("d");
        let q = b.dff(d, clk, false);
        b.output(q, "q");
        let nl = b.finish().unwrap();
        assert_eq!(
            map_netlist(&nl, MapConfig::with_l(4)).unwrap_err(),
            MapError::Sequential
        );
    }

    #[test]
    fn random_circuits_equivalent() {
        // structured pseudo-random DAGs over 8 inputs
        let mut seed = 0xdeadbeefu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..8 {
            let mut b = NetlistBuilder::new(format!("rand{trial}"));
            let mut pool: Vec<_> = b.input_word("x", 8);
            for _ in 0..40 {
                let i = pool[rng() as usize % pool.len()];
                let j = pool[rng() as usize % pool.len()];
                let k = pool[rng() as usize % pool.len()];
                let g = match rng() % 6 {
                    0 => b.and2(i, j),
                    1 => b.or2(i, j),
                    2 => b.xor2(i, j),
                    3 => b.not(i),
                    4 => b.mux(i, j, k),
                    _ => b.nand2(i, j),
                };
                pool.push(g);
            }
            let outs: Vec<_> = (0..6).map(|_| pool[rng() as usize % pool.len()]).collect();
            for (i, &o) in outs.iter().enumerate() {
                b.output(o, &format!("y{i}"));
            }
            let nl = b.finish().unwrap();
            for l in [3, 5, 7] {
                let g = map_netlist(&nl, MapConfig::with_l(l)).unwrap();
                g.validate(l).unwrap();
                assert_equivalent(&nl, &g);
            }
        }
    }
}
