//! Sequential-to-combinational transforms (paper §III-C).
//!
//! * [`unify_clocks`] — lower clock-enables and synchronous resets into plain
//!   D flip-flops on a single global clock by inserting muxes ("clock
//!   unification ... at the cost of adding some logic gates").
//! * [`cut_flipflops`] — replace every flip-flop by a pseudo-input (its `q`)
//!   and a pseudo-output (its `d`), producing a purely combinational DAG
//!   plus the external state-feedback description ([`CutCircuit`]).

use crate::ir::{FlipFlop, Gate, Net, Netlist, NetlistError};

/// Errors from the sequential transforms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqError {
    /// The netlist uses more than one clock domain; multi-clock designs must
    /// be retimed onto a global clock before compilation.
    MultipleClocks(Vec<String>),
    /// Underlying structural problem.
    Netlist(NetlistError),
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqError::MultipleClocks(c) => {
                write!(f, "multiple clock domains not supported: {c:?}")
            }
            SeqError::Netlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SeqError {}

impl From<NetlistError> for SeqError {
    fn from(e: NetlistError) -> Self {
        SeqError::Netlist(e)
    }
}

/// Lower every flip-flop to a plain D flip-flop on one global clock.
///
/// * `enable` becomes `d' = en ? d : q` (hold path through a mux);
/// * synchronous `reset` becomes `d'' = rst ? reset_value : d'`.
///
/// Returns an equivalent netlist whose flip-flops all have
/// `enable == None && reset == None`. Fails if more than one clock domain is
/// present.
pub fn unify_clocks(nl: &Netlist) -> Result<Netlist, SeqError> {
    let used: Vec<u32> = {
        let mut u: Vec<u32> = nl.flipflops.iter().map(|f| f.clock).collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    if used.len() > 1 {
        return Err(SeqError::MultipleClocks(
            used.iter()
                .map(|&c| nl.clocks[c as usize].clone())
                .collect(),
        ));
    }
    let mut out = nl.clone();
    let mut next_net = out.num_nets;
    let mut fresh = |names: &mut Vec<Option<String>>| {
        let n = Net(next_net);
        next_net += 1;
        names.push(None);
        n
    };
    let mut const_net: Option<(Net, bool)> = None; // (net, value) cache for reset constants
    let mut new_gates: Vec<Gate> = Vec::new();
    for ff in &mut out.flipflops {
        let mut d = ff.d;
        if let Some(en) = ff.enable.take() {
            let m = fresh(&mut out.net_names);
            // en ? d : q  — Mux inputs are [s, a, b] with s?b:a
            new_gates.push(Gate {
                kind: crate::ir::GateKind::Mux,
                inputs: vec![en, ff.q, d],
                output: m,
            });
            d = m;
        }
        if let Some(rst) = ff.reset.take() {
            let rv = match const_net {
                Some((n, v)) if v == ff.reset_value => n,
                _ => {
                    let n = fresh(&mut out.net_names);
                    new_gates.push(Gate {
                        kind: if ff.reset_value {
                            crate::ir::GateKind::Const1
                        } else {
                            crate::ir::GateKind::Const0
                        },
                        inputs: vec![],
                        output: n,
                    });
                    const_net = Some((n, ff.reset_value));
                    n
                }
            };
            let m = fresh(&mut out.net_names);
            new_gates.push(Gate {
                kind: crate::ir::GateKind::Mux,
                inputs: vec![rst, d, rv],
                output: m,
            });
            d = m;
        }
        ff.d = d;
    }
    out.gates.extend(new_gates);
    out.num_nets = next_net;
    out.validate()?;
    Ok(out)
}

/// A sequential circuit after flip-flop cutting: a purely combinational
/// netlist whose input vector is `[primary inputs ‖ state]` and whose output
/// vector is `[primary outputs ‖ next-state]`.
#[derive(Clone, Debug)]
pub struct CutCircuit {
    /// The combinational netlist (no flip-flops).
    pub comb: Netlist,
    /// Power-on value of each state bit, in pseudo-port order.
    pub state_init: Vec<bool>,
    /// Number of real (non-pseudo) primary inputs.
    pub num_primary_inputs: usize,
    /// Number of real (non-pseudo) primary outputs.
    pub num_primary_outputs: usize,
}

impl CutCircuit {
    /// Number of state bits (flip-flops cut).
    pub fn state_bits(&self) -> usize {
        self.state_init.len()
    }
}

/// Cut all flip-flops (paper's *pseudo-inputs/-outputs*). The input netlist
/// must already be clock-unified (plain D flip-flops only); call
/// [`unify_clocks`] first, or use [`prepare`] which does both.
pub fn cut_flipflops(nl: &Netlist) -> Result<CutCircuit, SeqError> {
    for (fi, ff) in nl.flipflops.iter().enumerate() {
        assert!(
            ff.enable.is_none() && ff.reset.is_none(),
            "flip-flop #{fi} not unified; run unify_clocks first"
        );
    }
    let mut comb = nl.clone();
    let ffs: Vec<FlipFlop> = std::mem::take(&mut comb.flipflops);
    let mut state_init = Vec::with_capacity(ffs.len());
    for ff in &ffs {
        comb.inputs.push(ff.q); // pseudo-input
        comb.outputs.push(ff.d); // pseudo-output
        state_init.push(ff.init);
    }
    comb.validate()?;
    Ok(CutCircuit {
        comb,
        state_init,
        num_primary_inputs: nl.inputs.len(),
        num_primary_outputs: nl.outputs.len(),
    })
}

/// Convenience: clock unification followed by flip-flop cutting.
pub fn prepare(nl: &Netlist) -> Result<CutCircuit, SeqError> {
    cut_flipflops(&unify_clocks(nl)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::NetlistBuilder;
    use crate::graph::topo_order;
    use crate::word::WordOps;

    /// Reference evaluation of a combinational netlist.
    fn eval_comb(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
        let mut vals = vec![false; nl.num_nets as usize];
        for (j, &inp) in nl.inputs.iter().enumerate() {
            vals[inp.index()] = inputs[j];
        }
        for gi in topo_order(nl).unwrap() {
            let g = &nl.gates[gi];
            let ins: Vec<bool> = g.inputs.iter().map(|n| vals[n.index()]).collect();
            vals[g.output.index()] = g.kind.eval(&ins);
        }
        nl.outputs.iter().map(|o| vals[o.index()]).collect()
    }

    /// Simulate a cut circuit for `cycles` steps, one input vector per cycle.
    fn run_cut(cut: &CutCircuit, stimuli: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let mut state = cut.state_init.clone();
        let mut outs = Vec::new();
        for stim in stimuli {
            let mut full = stim.clone();
            full.extend_from_slice(&state);
            let o = eval_comb(&cut.comb, &full);
            outs.push(o[..cut.num_primary_outputs].to_vec());
            state = o[cut.num_primary_outputs..].to_vec();
        }
        outs
    }

    fn counter(width: usize, with_enable: bool) -> Netlist {
        let mut b = NetlistBuilder::new("ctr");
        let clk = b.clock("clk");
        let en = if with_enable {
            Some(b.input("en"))
        } else {
            None
        };
        // feedback registers: allocate q nets first via dff of placeholder
        // Build by fixed-point: q = dff(q + 1)
        // Easiest: create fresh nets for q, then wire d afterwards by
        // constructing the increment from q.
        // NetlistBuilder::dff takes d first, so build with two passes using
        // explicit fresh nets.
        let qs: Vec<Net> = (0..width)
            .map(|i| b.fresh(Some(&format!("q{i}"))))
            .collect();
        let inc = b.inc_word(&qs);
        for (i, (&q, &d)) in qs.iter().zip(&inc).enumerate() {
            // manual flip-flop since q was pre-allocated
            let _ = i;
            b.push_ff_raw(d, q, clk, en, None, false, false);
        }
        b.output_word(&qs, "q");
        b.finish().unwrap()
    }

    #[test]
    fn unify_is_noop_for_plain_ffs() {
        let nl = counter(4, false);
        let u = unify_clocks(&nl).unwrap();
        assert_eq!(u.gates.len(), nl.gates.len());
        assert_eq!(u.flipflops.len(), nl.flipflops.len());
    }

    #[test]
    fn unify_lowers_enables() {
        let nl = counter(4, true);
        let u = unify_clocks(&nl).unwrap();
        assert!(u.flipflops.iter().all(|f| f.enable.is_none()));
        // one mux per flip-flop added
        assert_eq!(u.gates.len(), nl.gates.len() + 4);
        u.validate().unwrap();
    }

    #[test]
    fn cut_counter_counts() {
        let nl = counter(4, false);
        let cut = prepare(&nl).unwrap();
        assert_eq!(cut.state_bits(), 4);
        assert_eq!(cut.num_primary_inputs, 0);
        let stimuli = vec![vec![]; 6];
        let outs = run_cut(&cut, &stimuli);
        // outputs show the *current* count: 0,1,2,3,4,5
        for (cycle, out) in outs.iter().enumerate() {
            let v: usize = out
                .iter()
                .enumerate()
                .map(|(i, &b)| (b as usize) << i)
                .sum();
            assert_eq!(v, cycle, "cycle {cycle}");
        }
    }

    #[test]
    fn cut_counter_with_enable_holds() {
        let nl = counter(4, true);
        let cut = prepare(&nl).unwrap();
        // enable pattern: 1,1,0,0,1
        let stimuli: Vec<Vec<bool>> = [true, true, false, false, true]
            .iter()
            .map(|&e| vec![e])
            .collect();
        let outs = run_cut(&cut, &stimuli);
        let vals: Vec<usize> = outs
            .iter()
            .map(|o| o.iter().enumerate().map(|(i, &b)| (b as usize) << i).sum())
            .collect();
        assert_eq!(vals, vec![0, 1, 2, 2, 2]);
    }

    #[test]
    fn unify_lowers_sync_reset() {
        let mut b = NetlistBuilder::new("r");
        let clk = b.clock("clk");
        let d = b.input("d");
        let rst = b.input("rst");
        let q = b.dff_full(d, clk, None, Some(rst), true, false);
        b.output(q, "q");
        let nl = b.finish().unwrap();
        let u = unify_clocks(&nl).unwrap();
        assert!(u.flipflops[0].reset.is_none());
        let cut = cut_flipflops(&u).unwrap();
        // rst=1 loads reset_value=1 regardless of d
        let outs = run_cut(
            &cut,
            &[vec![false, true], vec![false, false], vec![false, false]],
        );
        assert_eq!(outs[1], vec![true]); // value loaded by reset visible next cycle
        assert_eq!(outs[2], vec![false]); // then d=0 propagates
    }

    #[test]
    fn multiple_clocks_rejected() {
        let mut b = NetlistBuilder::new("mc");
        let c1 = b.clock("clk_a");
        let c2 = b.clock("clk_b");
        let d = b.input("d");
        let q1 = b.dff(d, c1, false);
        let q2 = b.dff(q1, c2, false);
        b.output(q2, "q");
        let nl = b.finish().unwrap();
        assert!(matches!(
            unify_clocks(&nl),
            Err(SeqError::MultipleClocks(_))
        ));
    }

    #[test]
    fn cut_requires_unified() {
        let nl = counter(2, true);
        let res = std::panic::catch_unwind(|| cut_flipflops(&nl));
        assert!(res.is_err());
    }
}
