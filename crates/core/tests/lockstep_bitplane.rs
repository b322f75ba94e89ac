//! Differential lockstep harness for the bit-plane backend: on every suite
//! circuit, the packed executor must stay bit-exact against BOTH the
//! serial CSR `Simulator` (all lanes) and the gate-level reference
//! simulator (spot-checked lanes), over multi-cycle sessions, for ragged
//! batch widths that don't fill a machine word — on the network every
//! engine runs (the default pass set). And every artifact the default
//! compiler emits must lower to gates and parities at all.

use c2nn_core::bitplane::{BitTensor, BitplaneNn, BitplaneSimulator};
use c2nn_core::{compile_graph, CompileOptions, CompiledNn, PassId, PassSet, SimError, Simulator};
use c2nn_lutmap::{map_netlist, MapConfig};
use c2nn_netlist::{prepare, Netlist};
use c2nn_refsim::CycleSim;
use c2nn_tensor::{Dense, Device};

struct Lcg(u64);

impl Lcg {
    fn bit(&mut self) -> bool {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 40 & 1 == 1
    }

    fn lanes(&mut self, batch: usize, width: usize) -> Vec<Vec<bool>> {
        (0..batch)
            .map(|_| (0..width).map(|_| self.bit()).collect())
            .collect()
    }
}

/// One clock on per-lane bit vectors: pack, step the resident loop, unpack.
fn step_lanes(sim: &mut BitplaneSimulator, lanes: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let mut out = BitTensor::zeros(0, 0);
    sim.step_packed_into(&BitTensor::from_lanes(lanes), &mut out)
        .unwrap();
    out.to_lanes()
}

/// The suite circuits, with DMA at its small test variant to keep
/// debug-mode runtime bounded (same code path as the 64-channel build).
fn suite() -> Vec<(&'static str, Netlist)> {
    c2nn_circuits::table1_suite()
        .into_iter()
        .map(|b| {
            let nl = if b.name == "DMA" {
                c2nn_circuits::dma(4)
            } else {
                (b.build)()
            };
            (b.name, nl)
        })
        .collect()
}

/// `nl` compiled to the network every engine runs (default passes, L = 4).
fn compile(nl: &Netlist) -> CompiledNn<f32> {
    c2nn_core::compile(nl, CompileOptions::with_l(4)).unwrap()
}

/// How many lanes of each batch also get an independent gate-level refsim
/// (refsim is scalar and slow; CSR covers every lane, refsim anchors the
/// pair to the source circuit).
const REF_LANES: usize = 4;

#[test]
fn bitplane_matches_simulator_and_refsim_on_the_suite() {
    const CYCLES: usize = 6;
    // 67 = one full word + a ragged 3-bit tail
    const BATCH: usize = 67;
    for (name, nl) in suite() {
        let nn = compile(&nl);
        let plan = BitplaneNn::from_compiled(&nn).unwrap();
        let mut bit_sim = BitplaneSimulator::new(&plan, BATCH, Device::Serial);
        let mut csr_sim = Simulator::new(&nn, BATCH, Device::Serial);
        let mut refs: Vec<CycleSim> = (0..REF_LANES.min(BATCH))
            .map(|_| CycleSim::new(&nl).unwrap())
            .collect();
        let mut rng = Lcg(0xb17 ^ name.len() as u64);
        let pi = nn.num_primary_inputs;
        for cycle in 0..CYCLES {
            let lanes = rng.lanes(BATCH, pi);
            let got = step_lanes(&mut bit_sim, &lanes);
            let want = csr_sim.step(&Dense::<f32>::from_lanes(&lanes)).to_lanes();
            assert_eq!(
                got, want,
                "{name}: bitplane vs CSR diverged at cycle {cycle}"
            );
            for (lane, r) in refs.iter_mut().enumerate() {
                let gold = r.step(&lanes[lane]);
                assert_eq!(
                    got[lane], gold,
                    "{name}: bitplane vs refsim diverged at cycle {cycle}, lane {lane}"
                );
            }
        }
        // the recurrent state agrees too, lane for lane
        assert_eq!(
            bit_sim.state_lanes(),
            csr_sim.state_lanes(),
            "{name}: state diverged after {CYCLES} cycles"
        );
        assert_eq!(bit_sim.cycles(), CYCLES as u64);
    }
}

/// Generated circuits beside the suite: random logic at several seeds,
/// arithmetic, shift registers, counters — combinational and sequential.
fn generated() -> Vec<(String, Netlist)> {
    use c2nn_circuits::generators as g;
    let mut out: Vec<(String, Netlist)> = vec![
        ("multiplier".into(), g::multiplier(4)),
        ("lfsr".into(), g::lfsr(16, &[15, 13, 12, 10])),
        ("counter".into(), g::counter(6)),
        ("popcount".into(), g::popcount(9)),
        ("crc32".into(), g::crc32()),
        ("fir".into(), g::fir(4, &[3, -1, 2])),
    ];
    for seed in 1..=4u64 {
        out.push((format!("dag{seed}"), g::random_dag(8, 60, 4, seed)));
        out.push((format!("fsm{seed}"), g::random_fsm(3, 10, 60, 6, seed)));
    }
    out
}

#[test]
fn every_default_artifact_lowers_to_gates_and_parities() {
    // the default pipeline and every prefix of it (fold, cse, dce), with
    // and without the wide-gate shortcut: generated circuits at every L
    // from 2 to 8, the suite (DMA skipped, and three L for debug-mode
    // runtime) at the smallest L, the tests' and the CLI's default —
    // every threshold row must be a gate, every linear row a parity
    assert!(!PassSet::default().contains(PassId::LayerMerge));
    let prefixes = PassSet::default().to_vec().len();
    let all_l = (2..=8).collect::<Vec<usize>>();
    let suite_l = vec![2, 4, 7];
    let suite = suite().into_iter().filter(|(name, _)| *name != "DMA");
    let cases = generated()
        .into_iter()
        .map(|c| (c, all_l.clone()))
        .chain(suite.map(|(name, nl)| ((name.to_string(), nl), suite_l.clone())));
    for ((name, nl), ls) in cases {
        let cut = prepare(&nl).unwrap();
        for l in ls {
            for wide_gates in [false, true] {
                let map = MapConfig {
                    wide_gates,
                    ..MapConfig::with_l(l)
                };
                let graph = map_netlist(&cut.comb, map).unwrap();
                for prefix in 0..=prefixes {
                    let opts = CompileOptions::with_l(l).with_passes(PassSet::prefix(prefix));
                    let nn = compile_graph::<f32>(
                        &graph,
                        nl.gate_count(),
                        cut.num_primary_inputs,
                        cut.num_primary_outputs,
                        cut.state_init.clone(),
                        opts,
                    )
                    .unwrap();
                    if let Err(e) = BitplaneNn::from_compiled(&nn) {
                        panic!("{name} L={l} wide={wide_gates} prefix={prefix}: refused: {e}");
                    }
                }
            }
        }
    }
}

#[test]
fn exact_word_and_single_lane_batches_stay_exact() {
    // batch widths at the packing boundaries: 1 (one lone bit in a word)
    // and 64 (exactly full word, empty tail mask path)
    let nl = c2nn_circuits::uart();
    let nn = compile(&nl);
    let plan = BitplaneNn::from_compiled(&nn).unwrap();
    for batch in [1usize, 64] {
        let mut bit_sim = BitplaneSimulator::new(&plan, batch, Device::Serial);
        let mut csr_sim = Simulator::new(&nn, batch, Device::Serial);
        let mut rng = Lcg(0x51ce ^ batch as u64);
        for cycle in 0..8 {
            let lanes = rng.lanes(batch, nn.num_primary_inputs);
            let got = step_lanes(&mut bit_sim, &lanes);
            let want = csr_sim.step(&Dense::<f32>::from_lanes(&lanes)).to_lanes();
            assert_eq!(got, want, "uart batch {batch}: cycle {cycle}");
        }
    }
}

#[test]
fn parallel_dispatch_matches_serial() {
    // pool-sharded execution must be bit-identical to the serial loop,
    // across a batch spanning three words (130 = 2 full + ragged 2)
    let nl = c2nn_circuits::spi();
    let nn = compile(&nl);
    let plan = BitplaneNn::from_compiled(&nn).unwrap();
    let mut serial = BitplaneSimulator::new(&plan, 130, Device::Serial);
    let mut parallel = BitplaneSimulator::new(&plan, 130, Device::Parallel);
    let mut rng = Lcg(0xa11e1);
    for cycle in 0..6 {
        let lanes = rng.lanes(130, nn.num_primary_inputs);
        let a = step_lanes(&mut serial, &lanes);
        let b = step_lanes(&mut parallel, &lanes);
        assert_eq!(a, b, "parallel dispatch diverged at cycle {cycle}");
    }
    assert_eq!(serial.state_lanes(), parallel.state_lanes());
}

#[test]
fn csr_packed_entry_is_the_same_loop_as_step() {
    // the CSR engine converts only its ports: stepping on planes must
    // track stepping on `Dense` bit for bit, state included, and hand
    // back canonical (zero-tail) planes
    let nl = c2nn_circuits::uart();
    let nn = compile(&nl);
    for batch in [1usize, 63, 65] {
        let mut dense = Simulator::new(&nn, batch, Device::Serial);
        let mut packed = Simulator::new(&nn, batch, Device::Serial);
        let mut rng = Lcg(0xd3 ^ batch as u64);
        let mut out = BitTensor::zeros(0, 0);
        for cycle in 0..8 {
            let lanes = rng.lanes(batch, nn.num_primary_inputs);
            let want = dense.step(&Dense::<f32>::from_lanes(&lanes)).to_lanes();
            packed
                .step_packed_into(&BitTensor::from_lanes(&lanes), &mut out)
                .unwrap();
            assert_eq!(out.to_lanes(), want, "batch {batch}: cycle {cycle}");
            assert_eq!(out, BitTensor::from_lanes(&want), "canonical planes");
        }
        assert_eq!(packed.state_lanes(), dense.state_lanes());
        assert_eq!(packed.cycles(), 8);
    }
}

#[test]
fn output_planes_never_carry_dirty_ragged_tails() {
    // inverting ops and the all-ones power-on planes of init-true flops
    // set the bits past `batch` inside the engine; what leaves it must be
    // the one canonical image of the logical tensor
    let nl = c2nn_circuits::generators::random_fsm(3, 10, 60, 6, 0x7a11);
    let nn = compile(&nl);
    assert!(nn.state_init.contains(&true), "need an init-true flop");
    let plan = BitplaneNn::from_compiled(&nn).unwrap();
    for batch in [1usize, 63, 64, 65] {
        let mut sim = BitplaneSimulator::new(&plan, batch, Device::Serial);
        let mut rng = Lcg(0x7a11 ^ batch as u64);
        let (mut out, mut state) = (BitTensor::zeros(0, 0), BitTensor::zeros(0, 0));
        for cycle in 0..4 {
            let x = BitTensor::from_lanes(&rng.lanes(batch, nn.num_primary_inputs));
            sim.step_packed_into(&x, &mut out).unwrap();
            assert_eq!(
                out,
                BitTensor::from_lanes(&out.to_lanes()),
                "batch {batch}: dirty output tail at cycle {cycle}"
            );
            sim.read_state(&mut state);
            assert_eq!(
                state,
                BitTensor::from_lanes(&state.to_lanes()),
                "batch {batch}: dirty state tail at cycle {cycle}"
            );
        }
    }
}

#[test]
fn state_survives_a_read_write_round_trip_and_a_lane_count_change() {
    // read_state / write_state are how resumable sessions are derived from
    // the resident loop: a state lifted out of one engine and dropped into
    // the other (at a different lane count than it was built with) must
    // continue the same trajectory
    let nl = c2nn_circuits::uart();
    let nn = compile(&nl);
    let plan = BitplaneNn::from_compiled(&nn).unwrap();
    let batch = 70;
    let mut bit_sim = BitplaneSimulator::new(&plan, batch, Device::Serial);
    let mut rng = Lcg(0x5e55);
    for _ in 0..4 {
        let lanes = rng.lanes(batch, nn.num_primary_inputs);
        step_lanes(&mut bit_sim, &lanes);
    }
    let mut state = BitTensor::zeros(0, 0);
    bit_sim.read_state(&mut state);
    let mut csr_sim = Simulator::new(&nn, 3, Device::Serial);
    csr_sim.write_state(&state);
    assert_eq!(csr_sim.batch(), batch);
    assert_eq!(csr_sim.state_lanes(), bit_sim.state_lanes());
    let mut back = BitTensor::zeros(0, 0);
    csr_sim.read_state(&mut back);
    assert_eq!(back, state);
    for cycle in 0..4 {
        let lanes = rng.lanes(batch, nn.num_primary_inputs);
        let want = csr_sim.step(&Dense::<f32>::from_lanes(&lanes)).to_lanes();
        assert_eq!(step_lanes(&mut bit_sim, &lanes), want, "cycle {cycle}");
    }
    // reset changes the lane count and rewinds to power-on
    bit_sim.reset(5);
    csr_sim.reset(5);
    assert_eq!((bit_sim.batch(), bit_sim.cycles()), (5, 0));
    assert_eq!(bit_sim.state_lanes(), vec![nn.state_init.clone(); 5]);
    assert_eq!(csr_sim.state_lanes(), bit_sim.state_lanes());
}

#[test]
fn resident_shape_errors_are_typed_and_identical_across_engines() {
    let nl = c2nn_circuits::uart();
    let nn = compile(&nl);
    let plan = BitplaneNn::from_compiled(&nn).unwrap();
    let pi = nn.num_primary_inputs;
    let mut bit_sim = BitplaneSimulator::new(&plan, 2, Device::Serial);
    let mut csr_sim = Simulator::new(&nn, 2, Device::Serial);
    let mut out = BitTensor::zeros(0, 0);
    for (x, want) in [
        (
            BitTensor::zeros(pi, 1),
            SimError::BatchMismatch {
                expected: 2,
                got: 1,
            },
        ),
        (
            BitTensor::zeros(pi + 1, 2),
            SimError::InputWidth {
                expected: pi,
                got: pi + 1,
            },
        ),
    ] {
        assert_eq!(bit_sim.step_packed_into(&x, &mut out), Err(want.clone()));
        assert_eq!(csr_sim.step_packed_into(&x, &mut out), Err(want));
    }
    // a refused step leaves the engine where it was
    assert_eq!((bit_sim.cycles(), csr_sim.cycles()), (0, 0));
}
