//! A circuit with no gates: a ring of flip-flops and an output wired
//! straight to an input. Every row of its network is an identity, so the
//! bit-plane lowering resolves them all and the program has no level to
//! run — inputs go in, the gather brings outputs and next state out. It is
//! held to `refsim::CycleSim` on every registered backend at lane counts
//! on both sides of a word, and selection still prices every candidate at
//! a finite rate.

use c2nn::core::{compile, BitplaneNn, CompileOptions, Stimulus};
use c2nn::hal::{BackendRegistry, Choice, DeviceCalibration};
use c2nn::netlist::{Netlist, NetlistBuilder};
use c2nn::refsim::CycleSim;
use std::sync::Arc;

/// `y = a` and a 4-bit ring `q[i] <= q[i-1]`, `q[0] <= q[3]`, power-on
/// `0101`.
fn ring() -> Netlist {
    let mut b = NetlistBuilder::new("ring");
    let a = b.input("a");
    let clk = b.clock("clk");
    let q = b.fresh_word("q", 4);
    b.connect_ff_word(&[q[3], q[0], q[1], q[2]], &q, clk, None, None, 0, 0b0101);
    b.output(a, "y");
    b.output_word(&q, "q");
    b.finish().unwrap()
}

#[test]
fn a_gate_free_ring_runs_on_every_backend_with_no_level() {
    let nl = ring();
    let nn = Arc::new(compile(&nl, CompileOptions::with_l(4)).unwrap());
    let program = BitplaneNn::from_compiled(nn.as_ref()).unwrap();
    assert_eq!(program.levels(), 0, "every row is a copy");
    assert_eq!(program.op_census().total(), 0);
    let registry = BackendRegistry::global();
    for lanes in [1usize, 65, 130] {
        let mut seed = 0x51f7 ^ lanes as u64;
        let mut bit = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 40 & 1 == 1
        };
        let stims: Vec<Stimulus> = (0..lanes)
            .map(|l| Stimulus {
                cycles: (0..3 + l % 7).map(|_| vec![bit()]).collect(),
            })
            .collect();
        for name in registry.names() {
            let plan = registry.get(name).unwrap().admit(&nn).unwrap();
            let got = plan.execute_batch(&stims).unwrap();
            for (l, (g, s)) in got.iter().zip(&stims).enumerate() {
                let want = CycleSim::new(&nl).unwrap().run(&s.cycles);
                assert_eq!(g.cycles, want, "{name} × {lanes}: lane {l}");
            }
        }
        let sel = registry
            .select(
                &nn,
                &Choice::Auto,
                &DeviceCalibration::default_host(2),
                lanes,
            )
            .unwrap();
        for c in &sel.candidates {
            let rate = c.predicted_lane_cps.unwrap();
            assert!(
                rate.is_finite() && rate > 0.0,
                "{} × {lanes}: {rate}",
                c.backend
            );
        }
    }
}
