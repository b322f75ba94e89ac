//! Core gate-level intermediate representation.
//!
//! A [`Netlist`] is a flat (hierarchy-free) gate-level description of a
//! digital circuit: a set of binary *nets* (signals), each driven by exactly
//! one of a primary input, a logic gate, a flip-flop output, or a constant.
//! This is the common currency of the whole workspace — the Verilog
//! elaborator produces it, the LUT mapper consumes it, and the reference
//! simulator executes it.

use std::fmt;

/// A single-bit signal in a [`Netlist`], identified by a dense index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Net(pub u32);

impl Net {
    /// The dense index of this net.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function computed by a [`Gate`].
///
/// `And`/`Or`/`Xor`/`Nand`/`Nor`/`Xnor` are variadic (≥1 input); `Not` and
/// `Buf` take exactly one input; `Mux` takes `[s, a, b]` and computes
/// `if s { b } else { a }`; `Const0`/`Const1` take no inputs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    Const0,
    Const1,
    Buf,
    Not,
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    /// 2:1 multiplexer: inputs `[s, a, b]`, output `s ? b : a`.
    Mux,
}

impl GateKind {
    /// Evaluate the gate over plain booleans.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |a, &b| a ^ b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xnor => !inputs.iter().fold(false, |a, &b| a ^ b),
            GateKind::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// Evaluate the gate bit-parallel over 64-wide words (one stimulus per
    /// bit lane). Used by the cone evaluator and the reference simulator's
    /// truth-table paths.
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        match self {
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(!0u64, |a, &b| a & b),
            GateKind::Or => inputs.iter().fold(0u64, |a, &b| a | b),
            GateKind::Xor => inputs.iter().fold(0u64, |a, &b| a ^ b),
            GateKind::Nand => !inputs.iter().fold(!0u64, |a, &b| a & b),
            GateKind::Nor => !inputs.iter().fold(0u64, |a, &b| a | b),
            GateKind::Xnor => !inputs.iter().fold(0u64, |a, &b| a ^ b),
            GateKind::Mux => (inputs[0] & inputs[2]) | (!inputs[0] & inputs[1]),
        }
    }

    /// Number of inputs this kind requires, or `None` if variadic (≥1).
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Buf | GateKind::Not => Some(1),
            GateKind::Mux => Some(3),
            _ => None,
        }
    }
}

/// A combinational logic gate: one output net, an ordered list of input nets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Gate {
    pub kind: GateKind,
    pub inputs: Vec<Net>,
    pub output: Net,
}

/// A positive-edge D flip-flop, optionally with a clock-enable and a
/// synchronous reset. [`crate::seq::unify_clocks`] lowers enables and resets
/// into plain D flip-flops by inserting gates (the paper's *clock
/// unification* step).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlipFlop {
    /// Data input, sampled on the rising clock edge.
    pub d: Net,
    /// Registered output.
    pub q: Net,
    /// Index into [`Netlist::clocks`].
    pub clock: u32,
    /// When present and low, the flip-flop holds its value.
    pub enable: Option<Net>,
    /// When present and high, the flip-flop loads `reset_value` instead of `d`.
    pub reset: Option<Net>,
    /// Value loaded on synchronous reset.
    pub reset_value: bool,
    /// Power-on value of `q`.
    pub init: bool,
}

/// What drives a given net.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    /// Primary input with the given position in [`Netlist::inputs`].
    Input(usize),
    /// Output of `gates[idx]`.
    Gate(usize),
    /// `q` of `flipflops[idx]`.
    FlipFlop(usize),
    /// Nothing drives the net (an error for reachable nets).
    None,
}

/// Errors detected by [`Netlist::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetlistError {
    /// A net is driven by more than one source.
    MultipleDrivers(Net),
    /// A net that is read (gate input, FF data, or primary output) has no driver.
    Undriven(Net),
    /// The combinational part contains a cycle through the given net.
    CombinationalCycle(Net),
    /// A gate has the wrong number of inputs for its kind.
    BadArity {
        gate: usize,
        kind: GateKind,
        got: usize,
    },
    /// A net index is out of range.
    NetOutOfRange(Net),
    /// A flip-flop references an unknown clock index.
    BadClock { ff: usize, clock: u32 },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers(n) => write!(f, "net {n:?} has multiple drivers"),
            NetlistError::Undriven(n) => write!(f, "net {n:?} is read but undriven"),
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net {n:?}")
            }
            NetlistError::BadArity { gate, kind, got } => {
                write!(f, "gate #{gate} of kind {kind:?} has {got} inputs")
            }
            NetlistError::NetOutOfRange(n) => write!(f, "net {n:?} out of range"),
            NetlistError::BadClock { ff, clock } => {
                write!(f, "flip-flop #{ff} references unknown clock {clock}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat gate-level circuit.
///
/// Invariants (checked by [`Netlist::validate`]):
/// * every net has at most one driver;
/// * every net read by a gate, flip-flop, or primary output has a driver;
/// * the gate-to-gate dependency graph is acyclic (flip-flops break cycles).
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// Human-readable circuit name.
    pub name: String,
    /// Total number of nets; valid nets are `0..num_nets`.
    pub num_nets: u32,
    /// Primary inputs, in port order.
    pub inputs: Vec<Net>,
    /// Primary outputs, in port order.
    pub outputs: Vec<Net>,
    pub gates: Vec<Gate>,
    pub flipflops: Vec<FlipFlop>,
    /// Clock domain names; flip-flops reference these by index.
    pub clocks: Vec<String>,
    /// Optional debug names, indexed by net.
    pub net_names: Vec<Option<String>>,
}

impl Netlist {
    /// An empty netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// Number of logic gates plus flip-flops — the paper's "Gates" column.
    pub fn gate_count(&self) -> usize {
        self.gates.len() + self.flipflops.len()
    }

    /// True if the circuit has no flip-flops.
    pub fn is_combinational(&self) -> bool {
        self.flipflops.is_empty()
    }

    /// The debug name of a net, if any.
    pub fn net_name(&self, net: Net) -> Option<&str> {
        self.net_names.get(net.index()).and_then(|n| n.as_deref())
    }

    /// Compute the driver of every net.
    pub fn drivers(&self) -> Result<Vec<Driver>, NetlistError> {
        let mut drv = vec![Driver::None; self.num_nets as usize];
        let set = |d: &mut Vec<Driver>, net: Net, val: Driver| {
            if net.index() >= d.len() {
                return Err(NetlistError::NetOutOfRange(net));
            }
            if d[net.index()] != Driver::None {
                return Err(NetlistError::MultipleDrivers(net));
            }
            d[net.index()] = val;
            Ok(())
        };
        for (i, &n) in self.inputs.iter().enumerate() {
            set(&mut drv, n, Driver::Input(i))?;
        }
        for (i, g) in self.gates.iter().enumerate() {
            set(&mut drv, g.output, Driver::Gate(i))?;
        }
        for (i, ff) in self.flipflops.iter().enumerate() {
            set(&mut drv, ff.q, Driver::FlipFlop(i))?;
        }
        Ok(drv)
    }

    /// Check all structural invariants. Cheap enough to run after every
    /// construction; the rest of the workspace assumes a validated netlist.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let drv = self.drivers()?;
        let in_range = |n: Net| -> Result<(), NetlistError> {
            if n.index() < self.num_nets as usize {
                Ok(())
            } else {
                Err(NetlistError::NetOutOfRange(n))
            }
        };
        let driven = |n: Net| -> Result<(), NetlistError> {
            in_range(n)?;
            if drv[n.index()] == Driver::None {
                Err(NetlistError::Undriven(n))
            } else {
                Ok(())
            }
        };
        for (gi, g) in self.gates.iter().enumerate() {
            if let Some(a) = g.kind.arity() {
                if g.inputs.len() != a {
                    return Err(NetlistError::BadArity {
                        gate: gi,
                        kind: g.kind,
                        got: g.inputs.len(),
                    });
                }
            } else if g.inputs.is_empty() {
                return Err(NetlistError::BadArity {
                    gate: gi,
                    kind: g.kind,
                    got: 0,
                });
            }
            for &n in &g.inputs {
                driven(n)?;
            }
            in_range(g.output)?;
        }
        for (fi, ff) in self.flipflops.iter().enumerate() {
            driven(ff.d)?;
            in_range(ff.q)?;
            if let Some(e) = ff.enable {
                driven(e)?;
            }
            if let Some(r) = ff.reset {
                driven(r)?;
            }
            if ff.clock as usize >= self.clocks.len() {
                return Err(NetlistError::BadClock {
                    ff: fi,
                    clock: ff.clock,
                });
            }
        }
        for &n in &self.outputs {
            driven(n)?;
        }
        // Acyclicity of the combinational part: Kahn's algorithm over gates.
        crate::graph::topo_order(self).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        // c = a AND b
        let mut nl = Netlist::new("tiny");
        nl.num_nets = 3;
        nl.inputs = vec![Net(0), Net(1)];
        nl.outputs = vec![Net(2)];
        nl.gates.push(Gate {
            kind: GateKind::And,
            inputs: vec![Net(0), Net(1)],
            output: Net(2),
        });
        nl.net_names = vec![Some("a".into()), Some("b".into()), Some("c".into())];
        nl
    }

    #[test]
    fn eval_matches_truth_tables() {
        use GateKind::*;
        for (kind, table) in [
            (And, [false, false, false, true]),
            (Or, [false, true, true, true]),
            (Xor, [false, true, true, false]),
            (Nand, [true, true, true, false]),
            (Nor, [true, false, false, false]),
            (Xnor, [true, false, false, true]),
        ] {
            for (i, &want) in table.iter().enumerate() {
                let a = i & 1 != 0;
                let b = i & 2 != 0;
                assert_eq!(kind.eval(&[a, b]), want, "{kind:?} on {a},{b}");
            }
        }
        assert!(!Not.eval(&[true]));
        assert!(Not.eval(&[false]));
        assert!(Buf.eval(&[true]));
        assert!(Const1.eval(&[]));
        assert!(!Const0.eval(&[]));
        // Mux: [s, a, b] -> s ? b : a
        assert!(!Mux.eval(&[false, false, true]));
        assert!(Mux.eval(&[true, false, true]));
    }

    #[test]
    fn eval_word_agrees_with_eval() {
        use GateKind::*;
        for kind in [And, Or, Xor, Nand, Nor, Xnor] {
            for i in 0..8usize {
                let bits: Vec<bool> = (0..3).map(|j| i & (1 << j) != 0).collect();
                let words: Vec<u64> = bits.iter().map(|&b| if b { !0 } else { 0 }).collect();
                let scalar = kind.eval(&bits);
                let word = kind.eval_word(&words);
                assert_eq!(word, if scalar { !0 } else { 0 }, "{kind:?} {bits:?}");
            }
        }
        assert_eq!(
            Mux.eval_word(&[0b01, 0b10, 0b01]),
            0b01 & 0b01 | !0b01 & 0b10
        );
    }

    #[test]
    fn validate_ok() {
        tiny().validate().unwrap();
    }

    #[test]
    fn validate_catches_multiple_drivers() {
        let mut nl = tiny();
        nl.gates.push(Gate {
            kind: GateKind::Or,
            inputs: vec![Net(0), Net(1)],
            output: Net(2),
        });
        assert_eq!(
            nl.validate().unwrap_err(),
            NetlistError::MultipleDrivers(Net(2))
        );
    }

    #[test]
    fn validate_catches_undriven() {
        let mut nl = tiny();
        nl.num_nets = 4;
        nl.net_names.push(None);
        nl.gates[0].inputs[1] = Net(3);
        assert_eq!(nl.validate().unwrap_err(), NetlistError::Undriven(Net(3)));
    }

    #[test]
    fn validate_catches_cycle() {
        let mut nl = Netlist::new("cyc");
        nl.num_nets = 3;
        nl.inputs = vec![Net(0)];
        nl.outputs = vec![Net(2)];
        nl.net_names = vec![None, None, None];
        nl.gates.push(Gate {
            kind: GateKind::And,
            inputs: vec![Net(0), Net(2)],
            output: Net(1),
        });
        nl.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![Net(1)],
            output: Net(2),
        });
        assert!(matches!(
            nl.validate().unwrap_err(),
            NetlistError::CombinationalCycle(_)
        ));
    }

    #[test]
    fn validate_catches_bad_arity() {
        let mut nl = tiny();
        nl.gates[0].kind = GateKind::Not;
        assert!(matches!(
            nl.validate().unwrap_err(),
            NetlistError::BadArity { .. }
        ));
    }

    #[test]
    fn gate_count_includes_flipflops() {
        let mut nl = tiny();
        nl.num_nets = 4;
        nl.net_names.push(None);
        nl.clocks.push("clk".into());
        nl.flipflops.push(FlipFlop {
            d: Net(2),
            q: Net(3),
            clock: 0,
            enable: None,
            reset: None,
            reset_value: false,
            init: false,
        });
        assert_eq!(nl.gate_count(), 2);
        nl.validate().unwrap();
    }
}
