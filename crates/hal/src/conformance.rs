//! The shared backend-conformance suite: every registered backend must be
//! bit-exact against the pooled-CSR [`Simulator`] (all lanes) and the
//! gate-level reference simulator (spot-checked lanes) on every suite
//! circuit, over ragged batch widths, with identical typed shape errors.
//!
//! This lives in the library (not just `tests/`) so out-of-tree backends
//! can hold themselves to the same contract:
//!
//! ```no_run
//! use c2nn_hal::{conformance, BackendRegistry};
//! let reg = BackendRegistry::with_defaults();
//! conformance::check_backend(reg.get("bitplane").unwrap().as_ref());
//! ```
//!
//! Every check panics with a labeled message on divergence (designed for
//! `#[test]` wrappers; see `crates/hal/tests/conformance.rs`).

use crate::backend::Backend;
use c2nn_core::{
    compile, run_batch, CompileOptions, PassId, Session, SimError, Simulator, Stimulus,
};
use c2nn_netlist::Netlist;
use c2nn_refsim::CycleSim;
use c2nn_tensor::{Dense, Device};
use std::sync::Arc;

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

/// The suite circuits, with DMA at its small test variant to keep
/// debug-mode runtime bounded (same code path as the 64-channel build).
pub fn suite_workloads() -> Vec<(&'static str, Netlist)> {
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

/// The compile configurations every backend is held to, labelled:
/// `default` — what `c2nn sim/bench/serve`, the model registry and the
/// benchmark all build before they `select`, so what every production plan
/// is made of (for bit-plane: the merged network with `Weighted` rows) —
/// and `unmerged`, the same without layer-merge (for bit-plane: the
/// popcount-free gate path). Admission accepts models compiled with any
/// options, so both are applied to every backend.
pub fn compile_configs() -> [(&'static str, CompileOptions); 2] {
    let default = CompileOptions::with_l(4);
    let unmerged = default.with_passes(default.passes.without(PassId::LayerMerge));
    [("default", default), ("unmerged", unmerged)]
}

/// Lanes per batch that also get an independent gate-level refsim (refsim
/// is scalar and slow; CSR covers every lane, refsim anchors the pair to
/// the source circuit).
const REF_LANES: usize = 4;

/// Lockstep cycles per circuit.
const CYCLES: usize = 6;

/// Ragged batch: one full 64-lane word plus a 3-lane tail.
const BATCH: usize = 67;

/// Run the full conformance contract against one backend. Panics with a
/// labeled message on any divergence.
pub fn check_backend(backend: &dyn Backend) {
    let configs = compile_configs();
    for ((cname, nl), (cfg, opts)) in suite_workloads()
        .iter()
        .flat_map(|w| configs.iter().map(move |c| (w, c)))
    {
        let name = format!("{}[{cfg}]", backend.name());
        let nn = Arc::new(compile(nl, *opts).unwrap());
        let plan = backend
            .admit(&nn)
            .unwrap_or_else(|r| panic!("{name}/{cname}: backend refused a compiled network: {r}"));
        assert_eq!(
            plan.backend(),
            backend.name(),
            "{cname}: plan reports the wrong backend"
        );
        let m = plan.manifest();
        assert!(
            m.layers > 0 && m.cheap_units + m.weighted_units > 0.0,
            "{cname}: empty manifest"
        );

        let mut runner = plan.runner();
        let mut sessions: Vec<Session<f32>> = (0..BATCH).map(|_| Session::new(&nn)).collect();
        let mut csr_sim = Simulator::new(&nn, BATCH, Device::Serial);
        let mut refs: Vec<CycleSim> = (0..REF_LANES.min(BATCH))
            .map(|_| CycleSim::new(nl).unwrap())
            .collect();
        let mut rng = Lcg(0xc0f ^ cname.len() as u64 ^ (backend.name().len() as u64) << 8);
        let pi = nn.num_primary_inputs;
        for cycle in 0..CYCLES {
            let lanes = rng.lanes(BATCH, pi);
            let got = runner.step(&mut sessions, &lanes).unwrap();
            let want = csr_sim.step(&Dense::<f32>::from_lanes(&lanes)).to_lanes();
            assert_eq!(
                got, want,
                "{name}/{cname}: diverged from Simulator at cycle {cycle}"
            );
            for (lane, r) in refs.iter_mut().enumerate() {
                let gold = r.step(&lanes[lane]);
                assert_eq!(
                    got[lane], gold,
                    "{name}/{cname}: diverged from refsim at cycle {cycle}, lane {lane}"
                );
            }
        }
        // recurrent state agrees lane for lane, and session bookkeeping ran
        for (lane, s) in sessions.iter().enumerate() {
            assert_eq!(
                s.cycles(),
                CYCLES as u64,
                "{name}/{cname}: lane {lane} cycle count"
            );
        }
        let state: Vec<Vec<bool>> = sessions.iter().map(|s| s.state_bits()).collect();
        assert_eq!(
            state,
            csr_sim.state_lanes(),
            "{name}/{cname}: state diverged after {CYCLES} cycles"
        );
    }
}

/// Ragged `execute_batch` semantics: shorter testbenches idle with zero
/// inputs but record only their own length — byte-identical to
/// [`c2nn_core::run_batch`] (the independent `Dense` path) on the same
/// stimuli. Two batches: a handful of lanes including an empty testbench,
/// and 70 lanes of 130 down to 61 cycles, so the packed testbenches and
/// the per-cycle block transposes cross a word boundary in lanes and in
/// cycles.
pub fn check_ragged_batches(backend: &dyn Backend) {
    let nl = c2nn_circuits::uart();
    let wide: Vec<usize> = (0..70).map(|lane| 130 - lane).collect();
    for (cfg, opts) in compile_configs() {
        let name = format!("{}[{cfg}]", backend.name());
        let nn = Arc::new(compile(&nl, opts).unwrap());
        let plan = backend.admit(&nn).unwrap();
        let pi = nn.num_primary_inputs;
        let mut rng = Lcg(0x4a66 ^ backend.name().len() as u64);
        for lengths in [&[7, 0, 12, 3, 12, 1][..], &wide] {
            let stims: Vec<Stimulus> = lengths
                .iter()
                .map(|&len| Stimulus {
                    cycles: rng.lanes(len, pi),
                })
                .collect();
            let got = plan.execute_batch(&stims).unwrap();
            let want = run_batch(&nn, &stims, Device::Serial);
            assert_eq!(got.len(), want.len());
            for (lane, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.cycles,
                    w.cycles,
                    "{name}: ragged batch lane {lane} of {} diverged",
                    lengths.len()
                );
            }
        }
        // empty batch is a no-op, not an error
        assert!(plan.execute_batch(&[]).unwrap().is_empty());
    }
}

/// Typed shape errors must be identical across backends (callers match on
/// them; a backend swap must not change error behavior).
pub fn check_error_parity(backend: &dyn Backend) {
    let nl = c2nn_circuits::uart();
    for (cfg, opts) in compile_configs() {
        let name = format!("{}[{cfg}]", backend.name());
        let nn = Arc::new(compile(&nl, opts).unwrap());
        let plan = backend.admit(&nn).unwrap();
        let pi = nn.num_primary_inputs;
        let mut runner = plan.runner();

        let mut sessions = vec![Session::new(&nn), Session::new(&nn)];
        // batch/input mismatch
        assert_eq!(
            runner.step(&mut sessions, &[vec![false; pi]]).unwrap_err(),
            SimError::BatchMismatch {
                expected: 2,
                got: 1
            },
            "{name}: batch mismatch error shape"
        );
        // wrong input width
        assert_eq!(
            runner
                .step(&mut sessions, &[vec![false; pi + 1], vec![false; pi]])
                .unwrap_err(),
            SimError::InputWidth {
                expected: pi,
                got: pi + 1
            },
            "{name}: input width error shape"
        );
        // foreign session (state vector from a different model)
        let other = Arc::new(compile(&c2nn_circuits::generators::counter(3), opts).unwrap());
        let mut foreign = vec![Session::new(&other)];
        let err = runner.step(&mut foreign, &[vec![false; pi]]).unwrap_err();
        assert!(
            matches!(err, SimError::StateWidth { .. }),
            "{name}: foreign session error shape: {err:?}"
        );
        // empty batch steps to an empty output
        assert_eq!(runner.step(&mut [], &[]).unwrap(), Vec::<Vec<bool>>::new());
    }
}
