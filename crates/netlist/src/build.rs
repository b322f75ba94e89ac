//! Ergonomic construction of netlists.
//!
//! [`NetlistBuilder`] hands out fresh [`Net`]s and records gates; structural
//! hashing folds duplicate gates and constants so programmatically generated
//! circuits stay lean. The builder is the backend of both the Verilog
//! elaborator and the hand-built benchmark circuits.

use crate::ir::{FlipFlop, Gate, GateKind, Net, Netlist, NetlistError};
use std::collections::HashMap;

/// Incremental netlist constructor with structural hashing.
pub struct NetlistBuilder {
    nl: Netlist,
    /// structural hash: (kind, inputs) -> existing output net
    strash: HashMap<(GateKind, Vec<Net>), Net>,
    const0: Option<Net>,
    const1: Option<Net>,
}

impl NetlistBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            nl: Netlist::new(name),
            strash: HashMap::new(),
            const0: None,
            const1: None,
        }
    }

    /// Allocate a fresh, undriven net.
    pub fn fresh(&mut self, name: Option<&str>) -> Net {
        let n = Net(self.nl.num_nets);
        self.nl.num_nets += 1;
        self.nl.net_names.push(name.map(|s| s.to_string()));
        n
    }

    /// Declare a primary input.
    pub fn input(&mut self, name: &str) -> Net {
        let n = self.fresh(Some(name));
        self.nl.inputs.push(n);
        n
    }

    /// Declare `width` primary inputs named `name[0..width]`, LSB first.
    pub fn input_word(&mut self, name: &str, width: usize) -> Vec<Net> {
        (0..width)
            .map(|i| self.input(&format!("{name}[{i}]")))
            .collect()
    }

    /// Declare a primary output driven by `net`.
    pub fn output(&mut self, net: Net, name: &str) {
        if self.nl.net_names[net.index()].is_none() {
            self.nl.net_names[net.index()] = Some(name.to_string());
        }
        self.nl.outputs.push(net);
    }

    /// Declare the nets of `word` as primary outputs, LSB first.
    pub fn output_word(&mut self, word: &[Net], name: &str) {
        for (i, &n) in word.iter().enumerate() {
            self.output(n, &format!("{name}[{i}]"));
        }
    }

    /// Register (or fetch) a clock domain by name.
    pub fn clock(&mut self, name: &str) -> u32 {
        if let Some(i) = self.nl.clocks.iter().position(|c| c == name) {
            return i as u32;
        }
        self.nl.clocks.push(name.to_string());
        (self.nl.clocks.len() - 1) as u32
    }

    /// Emit a gate, reusing an existing structurally identical one.
    pub fn gate(&mut self, kind: GateKind, inputs: Vec<Net>) -> Net {
        // Canonicalize commutative gates so strashing catches permutations.
        let mut inputs = inputs;
        match kind {
            GateKind::And
            | GateKind::Or
            | GateKind::Xor
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xnor => inputs.sort_unstable(),
            _ => {}
        }
        if let Some(simplified) = self.try_simplify(kind, &inputs) {
            return simplified;
        }
        if let Some(&out) = self.strash.get(&(kind, inputs.clone())) {
            return out;
        }
        let out = self.fresh(None);
        self.strash.insert((kind, inputs.clone()), out);
        self.nl.gates.push(Gate {
            kind,
            inputs,
            output: out,
        });
        out
    }

    /// Local constant folding / idempotence rules applied before emitting.
    fn try_simplify(&mut self, kind: GateKind, inputs: &[Net]) -> Option<Net> {
        let c0 = self.const0;
        let c1 = self.const1;
        let is0 = |n: Net| Some(n) == c0;
        let is1 = |n: Net| Some(n) == c1;
        match kind {
            GateKind::Buf => Some(inputs[0]),
            GateKind::And => {
                if inputs.iter().any(|&n| is0(n)) {
                    return Some(self.zero());
                }
                let live: Vec<Net> = inputs.iter().copied().filter(|&n| !is1(n)).collect();
                match live.len() {
                    0 => Some(self.one()),
                    1 => Some(live[0]),
                    _ if live.len() < inputs.len() => Some(self.gate(GateKind::And, live)),
                    _ => None,
                }
            }
            GateKind::Or => {
                if inputs.iter().any(|&n| is1(n)) {
                    return Some(self.one());
                }
                let live: Vec<Net> = inputs.iter().copied().filter(|&n| !is0(n)).collect();
                match live.len() {
                    0 => Some(self.zero()),
                    1 => Some(live[0]),
                    _ if live.len() < inputs.len() => Some(self.gate(GateKind::Or, live)),
                    _ => None,
                }
            }
            GateKind::Xor => {
                let live: Vec<Net> = inputs.iter().copied().filter(|&n| !is0(n)).collect();
                if live.len() < inputs.len() {
                    return Some(match live.len() {
                        0 => self.zero(),
                        1 => live[0],
                        _ => self.gate(GateKind::Xor, live),
                    });
                }
                None
            }
            GateKind::Not => {
                if is0(inputs[0]) {
                    Some(self.one())
                } else if is1(inputs[0]) {
                    Some(self.zero())
                } else {
                    None
                }
            }
            GateKind::Mux => {
                let (s, a, b) = (inputs[0], inputs[1], inputs[2]);
                if is0(s) {
                    Some(a)
                } else if is1(s) {
                    Some(b)
                } else if a == b {
                    Some(a)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The constant-0 net (created on first use).
    pub fn zero(&mut self) -> Net {
        if let Some(n) = self.const0 {
            return n;
        }
        let n = self.fresh(Some("const0"));
        self.nl.gates.push(Gate {
            kind: GateKind::Const0,
            inputs: vec![],
            output: n,
        });
        self.const0 = Some(n);
        n
    }

    /// The constant-1 net (created on first use).
    pub fn one(&mut self) -> Net {
        if let Some(n) = self.const1 {
            return n;
        }
        let n = self.fresh(Some("const1"));
        self.nl.gates.push(Gate {
            kind: GateKind::Const1,
            inputs: vec![],
            output: n,
        });
        self.const1 = Some(n);
        n
    }

    /// A constant 0 or 1 net.
    pub fn constant(&mut self, value: bool) -> Net {
        if value {
            self.one()
        } else {
            self.zero()
        }
    }

    pub fn not(&mut self, a: Net) -> Net {
        self.gate(GateKind::Not, vec![a])
    }
    pub fn and2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::And, vec![a, b])
    }
    pub fn or2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Or, vec![a, b])
    }
    pub fn xor2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Xor, vec![a, b])
    }
    pub fn nand2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Nand, vec![a, b])
    }
    pub fn nor2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Nor, vec![a, b])
    }
    pub fn xnor2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Xnor, vec![a, b])
    }

    /// `s ? b : a`.
    pub fn mux(&mut self, s: Net, a: Net, b: Net) -> Net {
        self.gate(GateKind::Mux, vec![s, a, b])
    }

    /// Variadic AND (empty input = constant 1).
    pub fn and_many(&mut self, xs: &[Net]) -> Net {
        match xs.len() {
            0 => self.one(),
            1 => xs[0],
            _ => self.gate(GateKind::And, xs.to_vec()),
        }
    }

    /// Variadic OR (empty input = constant 0).
    pub fn or_many(&mut self, xs: &[Net]) -> Net {
        match xs.len() {
            0 => self.zero(),
            1 => xs[0],
            _ => self.gate(GateKind::Or, xs.to_vec()),
        }
    }

    /// Variadic XOR (empty input = constant 0).
    pub fn xor_many(&mut self, xs: &[Net]) -> Net {
        match xs.len() {
            0 => self.zero(),
            1 => xs[0],
            _ => self.gate(GateKind::Xor, xs.to_vec()),
        }
    }

    /// A positive-edge D flip-flop; returns `q`.
    pub fn dff(&mut self, d: Net, clock: u32, init: bool) -> Net {
        let q = self.fresh(None);
        self.nl.flipflops.push(FlipFlop {
            d,
            q,
            clock,
            enable: None,
            reset: None,
            reset_value: false,
            init,
        });
        q
    }

    /// A D flip-flop with clock-enable and synchronous reset; returns `q`.
    pub fn dff_full(
        &mut self,
        d: Net,
        clock: u32,
        enable: Option<Net>,
        reset: Option<Net>,
        reset_value: bool,
        init: bool,
    ) -> Net {
        let q = self.fresh(None);
        self.nl.flipflops.push(FlipFlop {
            d,
            q,
            clock,
            enable,
            reset,
            reset_value,
            init,
        });
        q
    }

    /// Drive a pre-allocated net `dst` from `src` with a raw buffer gate.
    /// Unlike [`NetlistBuilder::gate`] (which would fold the buffer away and
    /// return `src`), this really emits a `Buf`, because `dst` already exists
    /// as a placeholder — the Verilog elaborator resolves forward references
    /// this way. [`crate::graph::collapse_buffers`] removes them afterwards.
    pub fn connect(&mut self, src: Net, dst: Net) {
        self.nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![src],
            output: dst,
        });
    }

    /// Register a flip-flop whose `q` net was pre-allocated with
    /// [`NetlistBuilder::fresh`]. This is how feedback loops are built:
    /// allocate `q`, derive next-state logic from it, then connect `d`.
    #[allow(clippy::too_many_arguments)]
    pub fn push_ff_raw(
        &mut self,
        d: Net,
        q: Net,
        clock: u32,
        enable: Option<Net>,
        reset: Option<Net>,
        reset_value: bool,
        init: bool,
    ) {
        self.nl.flipflops.push(FlipFlop {
            d,
            q,
            clock,
            enable,
            reset,
            reset_value,
            init,
        });
    }

    /// Allocate `width` fresh nets named `name[i]` (for feedback state words).
    pub fn fresh_word(&mut self, name: &str, width: usize) -> Vec<Net> {
        (0..width)
            .map(|i| self.fresh(Some(&format!("{name}[{i}]"))))
            .collect()
    }

    /// Connect a pre-allocated state word `q` to next-state word `d` through
    /// flip-flops (one per bit), with optional enable/reset shared by all bits.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_ff_word(
        &mut self,
        d: &[Net],
        q: &[Net],
        clock: u32,
        enable: Option<Net>,
        reset: Option<Net>,
        reset_value: u64,
        init: u64,
    ) {
        assert_eq!(d.len(), q.len());
        for (i, (&di, &qi)) in d.iter().zip(q).enumerate() {
            // bits beyond 64 are zero (words can be wider than u64 constants)
            self.push_ff_raw(
                di,
                qi,
                clock,
                enable,
                reset,
                i < 64 && reset_value >> i & 1 == 1,
                i < 64 && init >> i & 1 == 1,
            );
        }
    }

    /// Synthesize an arbitrary truth table over `inputs` as a mux (Shannon)
    /// tree. `bits` is the packed table: row `i` (input `j` = bit `j` of `i`)
    /// is bit `i % 64` of `bits[i / 64]`. This is how S-boxes and other
    /// table-defined functions enter the gate level.
    pub fn synth_truth_table(&mut self, inputs: &[Net], bits: &[u64]) -> Net {
        let n = inputs.len();
        assert!(n <= 24, "truth table too wide: {n}");
        let rows = 1usize << n;
        assert!(
            bits.len() * 64 >= rows,
            "table has {} bits, need {rows}",
            bits.len() * 64
        );
        let get = |i: usize| bits[i / 64] >> (i % 64) & 1 == 1;
        self.shannon(inputs, 0, rows, &get)
    }

    fn shannon(
        &mut self,
        inputs: &[Net],
        base: usize,
        len: usize,
        get: &dyn Fn(usize) -> bool,
    ) -> Net {
        if len == 1 {
            return self.constant(get(base));
        }
        // Split on the highest remaining variable: rows [base, base+len/2)
        // have it 0, rows [base+len/2, base+len) have it 1.
        let half = len / 2;
        let var = inputs[len.trailing_zeros() as usize - 1];
        // Constant-subtree shortcut keeps mux trees small for sparse tables.
        let all_same = |b: usize| -> Option<bool> {
            let v = get(b);
            for i in 1..half {
                if get(b + i) != v {
                    return None;
                }
            }
            Some(v)
        };
        let lo = match all_same(base) {
            Some(v) => self.constant(v),
            None => self.shannon(inputs, base, half, get),
        };
        let hi = match all_same(base + half) {
            Some(v) => self.constant(v),
            None => self.shannon(inputs, base + half, half, get),
        };
        self.mux(var, lo, hi)
    }

    /// Number of gates emitted so far.
    pub fn gate_count(&self) -> usize {
        self.nl.gates.len()
    }

    /// Access the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Validate and return the finished netlist.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        self.nl.validate()?;
        Ok(self.nl)
    }

    /// Return the netlist without validating (for intentionally partial
    /// construction in tests).
    pub fn finish_unchecked(self) -> Netlist {
        self.nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strash_dedups_gates() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.and2(x, y);
        let g2 = b.and2(y, x); // commuted — must fold
        assert_eq!(g1, g2);
        assert_eq!(b.gate_count(), 1);
    }

    #[test]
    fn constant_folding() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let one = b.one();
        let zero = b.zero();
        assert_eq!(b.and2(x, one), x);
        let z = b.and2(x, zero);
        assert_eq!(z, zero);
        assert_eq!(b.or2(x, zero), x);
        let o = b.or2(x, one);
        assert_eq!(o, one);
        assert_eq!(b.xor2(x, zero), x);
        let n0 = b.not(zero);
        assert_eq!(n0, one);
    }

    #[test]
    fn mux_simplifications() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let zero = b.zero();
        let one = b.one();
        assert_eq!(b.mux(zero, x, y), x);
        assert_eq!(b.mux(one, x, y), y);
        let s = b.input("s");
        assert_eq!(b.mux(s, x, x), x);
    }

    #[test]
    fn truth_table_synthesis_is_correct() {
        // 3-input majority: table index i, bit set iff popcount(i) >= 2
        let mut bits = [0u64; 1];
        for i in 0..8u64 {
            if i.count_ones() >= 2 {
                bits[0] |= 1 << i;
            }
        }
        let mut b = NetlistBuilder::new("maj");
        let ins = b.input_word("x", 3);
        let out = b.synth_truth_table(&ins, &bits);
        b.output(out, "maj");
        let nl = b.finish().unwrap();
        // evaluate by brute force with a tiny interpreter
        for i in 0..8usize {
            let mut vals = vec![false; nl.num_nets as usize];
            for (j, &inp) in nl.inputs.iter().enumerate() {
                vals[inp.index()] = i >> j & 1 == 1;
            }
            let order = crate::graph::topo_order(&nl).unwrap();
            for gi in order {
                let g = &nl.gates[gi];
                let ins: Vec<bool> = g.inputs.iter().map(|n| vals[n.index()]).collect();
                vals[g.output.index()] = g.kind.eval(&ins);
            }
            assert_eq!(
                vals[nl.outputs[0].index()],
                (i as u64).count_ones() >= 2,
                "row {i}"
            );
        }
    }

    #[test]
    fn dff_roundtrip_structure() {
        let mut b = NetlistBuilder::new("reg");
        let clk = b.clock("clk");
        let d = b.input("d");
        let q = b.dff(d, clk, false);
        b.output(q, "q");
        let nl = b.finish().unwrap();
        assert_eq!(nl.flipflops.len(), 1);
        assert!(!nl.is_combinational());
    }

    #[test]
    fn word_io_ports_are_ordered() {
        let mut b = NetlistBuilder::new("w");
        let w = b.input_word("a", 4);
        b.output_word(&w, "o");
        let nl = b.finish().unwrap();
        assert_eq!(nl.inputs.len(), 4);
        assert_eq!(nl.outputs.len(), 4);
        assert_eq!(nl.net_name(nl.inputs[2]), Some("a[2]"));
    }
}
