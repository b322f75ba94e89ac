//! The state-feedback loop, held to the reference through every way of
//! driving it: for every registered backend × {UART, a generated FSM with
//! init-true flip-flops} × lane counts on both sides of a word boundary,
//!
//! * ragged `Plan::execute_batch` (state resident in the engine) is
//!   bit-exact against `refsim::CycleSim`, lane by lane;
//! * a `RaggedBatch` of testbenches born as `Stimulus` and as wire planes,
//!   with lengths on both sides of a word boundary, follows the same
//!   reference, and finished lanes idle at zero;
//! * sessions joined, parked, reordered and dropped mid-stream through
//!   `Runner::step_planes` follow the same reference, and end in the state
//!   the lane reaches when it runs alone;
//! * `Runner::step` and `Runner::step_planes` are the same function;
//! * shape errors are typed, identical on every backend, and leave the
//!   sessions untouched.
//!
//! Fixed seeds throughout: a failure names its backend, circuit, lane
//! count and lane.

use c2nn::core::{
    compile, BitTensor, CompileOptions, CompiledNn, CycleRows, Session, SimError, StepShape,
    Stimulus,
};
use c2nn::hal::{Backend, BackendRegistry, Plan, RaggedBatch, Runner};
use c2nn::netlist::Netlist;
use c2nn::refsim::CycleSim;
use std::sync::Arc;

/// Narrow batches (each its own CSR kernel width) and both sides of a word.
const LANE_COUNTS: [usize; 7] = [1, 2, 3, 5, 63, 65, 130];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn rows(&mut self, cycles: usize, width: usize) -> Vec<Vec<bool>> {
        (0..cycles)
            .map(|_| (0..width).map(|_| self.next() & 1 == 1).collect())
            .collect()
    }
}

fn circuits() -> Vec<(&'static str, Netlist)> {
    vec![
        ("uart", c2nn::circuits::uart()),
        (
            "fsm",
            c2nn::circuits::generators::random_fsm(3, 10, 60, 6, 0x7a11),
        ),
    ]
}

/// One circuit admitted on one backend.
struct Case {
    tag: String,
    nl: Netlist,
    nn: Arc<CompiledNn<f32>>,
    plan: Arc<dyn Plan>,
}

/// What every production plan is built from: the default pass set.
fn opts() -> CompileOptions {
    CompileOptions::with_l(4)
}

/// Every registered backend, by name.
fn backends() -> Vec<(&'static str, Arc<dyn Backend>)> {
    let registry = BackendRegistry::global();
    let named = |name| (name, Arc::clone(registry.get(name).unwrap()));
    registry.names().into_iter().map(named).collect()
}

/// Each circuit admitted on each of [`backends`].
fn admitted() -> Vec<Case> {
    let mut out = Vec::new();
    for (name, backend) in backends() {
        for (cname, nl) in circuits() {
            let nn = Arc::new(compile(&nl, opts()).unwrap());
            if cname == "fsm" {
                assert!(nn.state_init.contains(&true), "fsm needs an init-true flop");
            }
            let plan = backend.admit(&nn).unwrap();
            let tag = format!("{name}/{cname}");
            out.push(Case { tag, nl, nn, plan });
        }
    }
    out
}

fn reference(nl: &Netlist, stim: &[Vec<bool>]) -> Vec<Vec<bool>> {
    CycleSim::new(nl).unwrap().run(stim)
}

#[test]
fn ragged_execute_batch_is_bit_exact_against_refsim() {
    for Case { tag, nl, nn, plan } in admitted() {
        for lanes in LANE_COUNTS {
            let mut rng = Lcg(0xe8ec ^ lanes as u64);
            // ragged lengths, including an empty testbench when there is
            // room for one
            let stims: Vec<Stimulus> = (0..lanes)
                .map(|l| {
                    let len = if l == 1 {
                        0
                    } else {
                        1 + rng.next() as usize % 9
                    };
                    Stimulus {
                        cycles: rng.rows(len, nn.num_primary_inputs),
                    }
                })
                .collect();
            let got = plan.execute_batch(&stims).unwrap();
            assert_eq!(got.len(), lanes, "{tag} × {lanes}");
            for (l, (g, s)) in got.iter().zip(&stims).enumerate() {
                assert_eq!(
                    g.cycles,
                    reference(&nl, &s.cycles),
                    "{tag} × {lanes}: lane {l} diverged from refsim"
                );
            }
        }
        assert!(plan.execute_batch(&[]).unwrap().is_empty(), "{tag}");
    }
}

/// A runner that checks what the ragged driver feeds it: a lane whose
/// testbench has ended must be driven with all-zero inputs.
struct IdleSpy<'a> {
    inner: Box<dyn Runner + 'a>,
    lengths: Vec<usize>,
    cycle: usize,
    tag: String,
}

impl Runner for IdleSpy<'_> {
    fn shape(&self) -> StepShape {
        self.inner.shape()
    }

    fn reset(&mut self, lanes: usize) {
        assert_eq!(lanes, self.lengths.len(), "{}", self.tag);
        self.inner.reset(lanes)
    }

    fn advance(&mut self, x: &BitTensor, y: &mut BitTensor) -> Result<(), SimError> {
        for (lane, _) in self
            .lengths
            .iter()
            .enumerate()
            .filter(|(_, &len)| len <= self.cycle)
        {
            let driven = (0..x.features()).any(|f| x.get_bit(f, lane));
            assert!(
                !driven,
                "{}: finished lane {lane} driven at cycle {}",
                self.tag, self.cycle
            );
        }
        self.cycle += 1;
        self.inner.advance(x, y)
    }

    fn read_state(&self, planes: &mut BitTensor) {
        self.inner.read_state(planes)
    }

    fn write_state(&mut self, planes: &BitTensor) {
        self.inner.write_state(planes)
    }
}

#[test]
fn ragged_batches_of_either_birth_follow_refsim_and_idle_at_zero() {
    const LENGTHS: [usize; 6] = [130, 0, 1, 63, 64, 65];
    for Case { tag, nl, nn, plan } in admitted() {
        let pi = nn.num_primary_inputs;
        for lanes in LANE_COUNTS {
            let tag = format!("{tag} × {lanes}");
            let mut rng = Lcg(0xb127 ^ lanes as u64);
            let stims: Vec<Vec<Vec<bool>>> =
                (0..lanes).map(|l| rng.rows(LENGTHS[l % 6], pi)).collect();
            // every length is born both ways: six lanes from `Stimulus`,
            // the next six from wire planes, and so on
            let from_planes = |l: usize| l % 12 >= 6;
            let benches: Vec<CycleRows> = stims
                .iter()
                .enumerate()
                .map(|(l, cycles)| match from_planes(l) {
                    true => CycleRows::from(BitTensor::from_lanes(cycles)),
                    false => CycleRows::from(Stimulus {
                        cycles: cycles.clone(),
                    }),
                })
                .collect();
            let mut spy = IdleSpy {
                inner: plan.runner(),
                lengths: stims.iter().map(Vec::len).collect(),
                cycle: 0,
                tag: tag.clone(),
            };
            let mut run = RaggedBatch::start(&mut spy, benches.iter().collect()).unwrap();
            while !run.done() {
                run.step().unwrap();
            }
            assert_eq!(
                run.cycle(),
                130,
                "{tag}: the longest testbench sets the run"
            );
            for (l, (out, stim)) in run.finish().iter().zip(&stims).enumerate() {
                let want = reference(&nl, stim);
                assert_eq!(out.lanes(), want, "{tag}: lane {l} diverged from refsim");
                if !want.is_empty() {
                    assert_eq!(
                        out.to_planes(),
                        BitTensor::from_lanes(&want),
                        "{tag}: lane {l}"
                    );
                }
            }
        }

        // a wrong-width testbench of either birth fails the whole batch,
        // typed, before anything runs
        let good = CycleRows::zeros(3, pi);
        let wide = vec![vec![false; pi + 1]; 2];
        for bad in [
            CycleRows::from(BitTensor::from_lanes(&wide)),
            CycleRows::from(Stimulus { cycles: wide }),
        ] {
            let mut runner = plan.runner();
            let refused = RaggedBatch::start(runner.as_mut(), vec![&good, &bad, &good]).err();
            let width = SimError::InputWidth {
                expected: pi,
                got: pi + 1,
            };
            assert_eq!(refused, Some(width), "{tag}");
        }
    }
}

/// When lane `l` is in the batch: it joins at tick `join`, sits out the
/// ticks in `parked`, and is dropped for good once it has consumed `drop`
/// cycles of its stimulus.
struct Schedule {
    join: usize,
    parked: std::ops::Range<usize>,
    drop: usize,
}

#[test]
fn recomposed_sessions_follow_the_reference_and_step_equals_step_planes() {
    const CYCLES: usize = 8;
    for Case { tag, nl, nn, plan } in admitted() {
        let pi = nn.num_primary_inputs;
        for lanes in LANE_COUNTS {
            let tag = format!("{tag} × {lanes}");
            let mut rng = Lcg(0x5e55 ^ lanes as u64);
            let stims: Vec<Vec<Vec<bool>>> = (0..lanes).map(|_| rng.rows(CYCLES, pi)).collect();
            let plans: Vec<Schedule> = (0..lanes)
                .map(|_| {
                    let park = rng.next() as usize % 6;
                    Schedule {
                        join: rng.next() as usize % 3,
                        parked: park..park + rng.next() as usize % 3,
                        drop: if rng.next() & 3 == 0 { 3 } else { CYCLES },
                    }
                })
                .collect();

            let mut runner = plan.runner();
            let mut twin = plan.runner();
            let mut parked: Vec<Option<Session<f32>>> =
                (0..lanes).map(|_| Some(Session::new(&nn))).collect();
            let mut outputs: Vec<Vec<Vec<bool>>> = vec![Vec::new(); lanes];
            for tick in 0..CYCLES + 6 {
                let mut active: Vec<usize> = (0..lanes)
                    .filter(|&l| {
                        let done = parked[l].as_ref().unwrap().cycles() as usize;
                        tick >= plans[l].join
                            && !plans[l].parked.contains(&tick)
                            && done < plans[l].drop
                    })
                    .collect();
                if active.is_empty() {
                    continue;
                }
                // lane order in the batch is not the lanes' identity
                let pivot = tick % active.len();
                active.rotate_left(pivot);
                let mut batch: Vec<Session<f32>> =
                    active.iter().map(|&l| parked[l].take().unwrap()).collect();
                let rows: Vec<Vec<bool>> = active
                    .iter()
                    .zip(&batch)
                    .map(|(&l, s)| stims[l][s.cycles() as usize].clone())
                    .collect();

                let mut batch_twin = batch.clone();
                let by_lanes = twin.step(&mut batch_twin, &rows).unwrap();
                let planes = BitTensor::from_lanes(&rows);
                let by_planes = runner.step_planes(&mut batch, &planes).unwrap();
                assert_eq!(by_planes.to_lanes(), by_lanes, "{tag}: tick {tick}");
                assert_eq!(
                    (by_planes.features(), by_planes.batch()),
                    (nn.num_primary_outputs, active.len())
                );
                assert_eq!(
                    by_planes,
                    BitTensor::from_lanes(&by_planes.to_lanes()),
                    "{tag}: non-canonical output planes at tick {tick}"
                );
                assert_eq!(batch, batch_twin, "{tag}: sessions at tick {tick}");

                for ((l, sess), out) in active.into_iter().zip(batch).zip(by_lanes) {
                    outputs[l].push(out);
                    parked[l] = Some(sess);
                }
            }

            for l in 0..lanes {
                let sess = parked[l].as_ref().unwrap();
                assert_eq!(sess.cycles() as usize, plans[l].drop, "{tag}: lane {l}");
                assert_eq!(
                    outputs[l],
                    reference(&nl, &stims[l][..plans[l].drop]),
                    "{tag}: lane {l} diverged from refsim"
                );
            }
            // and the state each lane carries is the one it reaches alone
            for l in [0, lanes / 2, lanes - 1] {
                let mut alone = [Session::new(&nn)];
                for row in &stims[l][..plans[l].drop] {
                    runner.step(&mut alone, std::slice::from_ref(row)).unwrap();
                }
                assert_eq!(
                    parked[l].as_ref().unwrap(),
                    &alone[0],
                    "{tag}: lane {l} state"
                );
            }
        }
    }
}

fn as_u32(bits: &[bool]) -> u32 {
    bits.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum()
}

#[test]
fn a_late_joiner_counts_from_zero_beside_a_resumed_lane() {
    for (name, backend) in backends() {
        let nn = Arc::new(compile(&c2nn::circuits::generators::counter(4), opts()).unwrap());
        let plan = backend.admit(&nn).unwrap();
        let mut runner = plan.runner();
        // a lone session counts 5 cycles...
        let mut a = Session::new(&nn);
        for _ in 0..5 {
            runner
                .step(std::slice::from_mut(&mut a), &[vec![true]])
                .unwrap();
        }
        // ...then a newcomer joins and both advance in one batch
        let mut pair = [a, Session::new(&nn)];
        let mut last = Vec::new();
        for _ in 0..3 {
            last = runner.step(&mut pair, &[vec![true], vec![true]]).unwrap();
        }
        // the counter registers its output: the last step shows 7 and 2
        assert_eq!((as_u32(&last[0]), as_u32(&last[1])), (7, 2), "{name}");
        let [a, b] = pair;
        assert_eq!(as_u32(&a.state_bits()), 8, "{name}: resumed lane, 5 + 3");
        assert_eq!(as_u32(&b.state_bits()), 3, "{name}: late joiner, 3");
        assert_eq!((a.cycles(), b.cycles()), (8, 3), "{name}");
    }
}

#[test]
fn shape_errors_are_typed_identical_and_leave_sessions_alone() {
    let foreign_nl = c2nn::circuits::generators::counter(3);
    for (name, backend) in backends() {
        let nn = Arc::new(compile(&c2nn::circuits::uart(), opts()).unwrap());
        let other = compile(&foreign_nl, opts()).unwrap();
        let plan = backend.admit(&nn).unwrap();
        let (pi, s) = (nn.num_primary_inputs, nn.state_bits());
        let mut runner = plan.runner();
        let fresh = vec![Session::new(&nn), Session::new(&nn)];
        let mut sessions = fresh.clone();

        let batch = SimError::BatchMismatch {
            expected: 2,
            got: 1,
        };
        let width = SimError::InputWidth {
            expected: pi,
            got: pi + 1,
        };
        let state = SimError::StateWidth {
            expected: s,
            got: other.state_bits(),
        };
        assert_eq!(
            runner.step(&mut sessions, &[vec![false; pi]]),
            Err(batch.clone()),
            "{name}"
        );
        assert_eq!(
            runner.step_planes(&mut sessions, &BitTensor::zeros(pi, 1)),
            Err(batch),
            "{name}"
        );
        // one ragged lane is enough, wherever it sits
        assert_eq!(
            runner.step(&mut sessions, &[vec![false; pi], vec![false; pi + 1]]),
            Err(width.clone()),
            "{name}"
        );
        assert_eq!(
            runner.step_planes(&mut sessions, &BitTensor::zeros(pi + 1, 2)),
            Err(width.clone()),
            "{name}"
        );
        let mut mixed = vec![Session::new(&nn), Session::new(&other)];
        assert_eq!(
            runner.step(&mut mixed, &vec![vec![false; pi]; 2]),
            Err(state.clone()),
            "{name}"
        );
        assert_eq!(
            runner.step_planes(&mut mixed, &BitTensor::zeros(pi, 2)),
            Err(state),
            "{name}"
        );
        assert_eq!(sessions, fresh, "{name}: a refused step must not advance");
        assert_eq!(runner.step(&mut [], &[]), Ok(Vec::new()), "{name}");

        // the resident path refuses a wrong-width testbench the same way,
        // wherever in the run the bad row sits — nothing is truncated
        let mut stims = vec![
            Stimulus {
                cycles: vec![vec![false; pi]; 4],
            };
            3
        ];
        stims[2].cycles[3].push(true);
        assert_eq!(plan.execute_batch(&stims).unwrap_err(), width, "{name}");
        // and the runner is still good for a clean batch afterwards
        stims[2].cycles[3].pop();
        assert_eq!(plan.execute_batch(&stims).unwrap().len(), 3, "{name}");
    }
}

/// What `--backend auto` picks, pinned: the suite circuits at the default
/// compile options × lanes {1, 2, 64, 4096} against the built-in cost
/// table. Manifests are exact counts and the table is constant, so this is
/// deterministic; a retune of the table edits this literal in the same
/// diff.
#[test]
fn auto_selection_on_the_suite_is_the_committed_table() {
    use c2nn::hal::{conformance, Choice, DeviceCalibration};
    const LANES: [usize; 4] = [1, 2, 64, 4096];
    const PICKS: [(&str, [&str; 4]); 6] = [
        ("AES", ["scalar", "scalar", "bitplane", "bitplane"]),
        ("SHA", ["scalar", "scalar", "bitplane", "bitplane"]),
        ("SPI", ["scalar", "scalar", "bitplane", "bitplane"]),
        ("UART", ["scalar", "scalar", "bitplane", "bitplane"]),
        ("DMA", ["scalar", "scalar", "bitplane", "bitplane"]),
        (
            "RISC-V interface",
            ["scalar", "scalar", "bitplane", "bitplane"],
        ),
    ];
    let workloads = conformance::suite_workloads();
    assert_eq!(workloads.len(), PICKS.len());
    for ((cname, nl), (pname, picks)) in workloads.iter().zip(PICKS) {
        assert_eq!(*cname, pname);
        let nn = Arc::new(compile(nl, opts()).unwrap());
        for (lanes, pick) in LANES.into_iter().zip(picks) {
            let select = |threads| {
                BackendRegistry::global()
                    .select(
                        &nn,
                        &Choice::Auto,
                        &DeviceCalibration::default_host(threads),
                        lanes,
                    )
                    .unwrap()
            };
            let sel = select(2);
            assert_eq!(sel.backend, pick, "{cname} at {lanes} lanes");
            // the winner is the strict maximum of what every candidate was
            // predicted at, not a preference order
            let best = sel.predicted_lane_cps.unwrap();
            for c in sel.candidates.iter().filter(|c| c.backend != sel.backend) {
                assert!(
                    c.predicted_lane_cps.unwrap() < best,
                    "{cname} at {lanes} lanes: {} ties or beats {pick}",
                    c.backend
                );
            }
            // the table does not depend on the host's thread count
            assert_eq!(select(1).backend, pick, "{cname} at {lanes} lanes");
        }
    }
}
