//! Property tests for `--backend auto` selection on hand-built tables
//! (what the built-in table picks on the suite is pinned by the root
//! `tests/state_feedback.rs`):
//!
//! * auto selection is a pure function of (model, table, batch);
//! * a backend whose `admit` rejects is skipped and auto falls back to
//!   the next-best *predicted* backend, not the next registered one;
//! * the bit-plane backend refuses a network with a non-gate row — a
//!   `layer-merge`d one, a hand-built majority — typed, naming the layer
//!   and row, and auto falls through to a CSR engine.
//!
//! The vendored proptest exposes integer-range strategies only, so float
//! parameters are generated as integers and scaled — which also keeps
//! every generated rate finite and positive by construction.

use c2nn_core::{compile, CompileOptions, CompiledNn, PassSet};
use c2nn_hal::{
    Backend, BackendCalibration, BackendRegistry, Choice, DeviceCalibration, Plan, Reject,
};
use proptest::prelude::*;
use std::sync::Arc;

fn model() -> Arc<CompiledNn<f32>> {
    Arc::new(
        compile(
            &c2nn_circuits::generators::counter(6),
            CompileOptions::with_l(4),
        )
        .unwrap(),
    )
}

/// A backend that refuses every model — the shape of a priced-but-
/// incompatible engine (e.g. bit-plane legalization failure).
struct RejectingBackend;

impl Backend for RejectingBackend {
    fn name(&self) -> &'static str {
        "rejector"
    }

    fn admit(&self, _nn: &Arc<CompiledNn<f32>>) -> Result<Arc<dyn Plan>, Reject> {
        Err(Reject {
            backend: "rejector".to_string(),
            reason: "always rejects (test backend)".to_string(),
        })
    }
}

fn entry(backend: &str, unit_per_s: f64, launch_s: f64) -> BackendCalibration {
    BackendCalibration {
        backend: backend.to_string(),
        unit_per_s,
        launch_s,
    }
}

proptest! {
    /// Same table, same model, same batch → same winner and same
    /// prediction, across independently constructed registries.
    #[test]
    fn auto_selection_is_deterministic_given_pinned_calibration(
        scalar_rate in 1u64..1_000_000,
        pooled_rate in 1u64..1_000_000,
        bitplane_rate in 1u64..1_000_000,
        launch_ns in 0u64..100_000,
        batch in 1usize..2048,
    ) {
        let cal = DeviceCalibration {
            device: "pinned".to_string(),
            threads: 1,
            backends: vec![
                entry("scalar", scalar_rate as f64 * 1e6, launch_ns as f64 * 1e-9),
                entry("pooled-csr", pooled_rate as f64 * 1e6, launch_ns as f64 * 1e-9),
                entry("bitplane", bitplane_rate as f64 * 1e6, launch_ns as f64 * 1e-9),
            ],
        };
        let nn = model();
        let a = BackendRegistry::with_defaults()
            .select(&nn, &Choice::Auto, &cal, batch)
            .unwrap();
        let b = BackendRegistry::with_defaults()
            .select(&nn, &Choice::Auto, &cal, batch)
            .unwrap();
        prop_assert_eq!(&a.backend, &b.backend);
        prop_assert_eq!(a.predicted_lane_cps, b.predicted_lane_cps);
        prop_assert_eq!(a.candidates, b.candidates);
        // the winner is the candidates' strict maximum — no hidden ordering
        let max = a
            .candidates
            .iter()
            .filter_map(|c| c.predicted_lane_cps)
            .fold(f64::MIN, f64::max);
        prop_assert_eq!(a.predicted_lane_cps, Some(max));
    }

    /// A rejecting backend with the best predicted rate never wins: auto
    /// falls back to the best *admitting* backend and records why the
    /// rejector was skipped.
    #[test]
    fn rejecting_backend_falls_back_to_next_best(
        rejector_rate in 1u64..1_000_000,
        scalar_rate in 1u64..1_000,
        pooled_rate in 1u64..1_000,
        batch in 1usize..512,
    ) {
        let mut reg = BackendRegistry::new();
        reg.register(Arc::new(RejectingBackend));
        reg.register(Arc::new(c2nn_hal::CsrBackend::scalar()));
        reg.register(Arc::new(c2nn_hal::CsrBackend::pooled()));
        let cal = DeviceCalibration {
            device: "fallback".to_string(),
            threads: 1,
            backends: vec![
                // the rejector is priced as by far the fastest engine
                entry("rejector", rejector_rate as f64 * 1e12, 0.0),
                entry("scalar", scalar_rate as f64 * 1e6, 1e-7),
                entry("pooled-csr", pooled_rate as f64 * 1e6, 1e-7),
            ],
        };
        let nn = model();
        let sel = reg.select(&nn, &Choice::Auto, &cal, batch).unwrap();
        prop_assert_ne!(&sel.backend, "rejector");
        // winner is the best-predicted among the two admitting backends
        let best_admitted = sel
            .candidates
            .iter()
            .filter(|c| c.skipped.is_none())
            .max_by(|a, b| {
                a.predicted_lane_cps
                    .partial_cmp(&b.predicted_lane_cps)
                    .unwrap()
            })
            .unwrap();
        prop_assert_eq!(&sel.backend, &best_admitted.backend);
        let rejected = sel.candidates.iter().find(|c| c.backend == "rejector").unwrap();
        prop_assert!(rejected.skipped.as_deref().unwrap().contains("always rejects"));
    }
}

/// Explicitly naming a rejecting backend is an error, not a fallback.
#[test]
fn named_rejecting_backend_is_an_error() {
    let mut reg = BackendRegistry::new();
    reg.register(Arc::new(RejectingBackend));
    reg.register(Arc::new(c2nn_hal::CsrBackend::scalar()));
    let cal = DeviceCalibration::default_host(1);
    let err = reg
        .select(&model(), &Choice::Named("rejector".to_string()), &cal, 8)
        .err()
        .unwrap();
    assert!(matches!(err, c2nn_hal::SelectError::Rejected(_)), "{err:?}");
}

/// The bit-plane backend's refusal of `nn`, after checking that `auto`
/// falls through to a CSR engine and lists bit-plane as skipped for it.
fn bitplane_refusal(nn: CompiledNn<f32>) -> String {
    let nn = Arc::new(nn);
    let reject = BackendRegistry::global()
        .get("bitplane")
        .unwrap()
        .admit(&nn)
        .err()
        .expect("bit-plane must refuse a non-gate row");
    assert_eq!(reject.backend, "bitplane");
    let cal = DeviceCalibration::default_host(1);
    for lanes in [1, 4096] {
        let sel = BackendRegistry::global()
            .select(&nn, &Choice::Auto, &cal, lanes)
            .unwrap();
        assert!(
            ["scalar", "pooled-csr"].contains(&sel.backend.as_str()),
            "{lanes} lanes: {}",
            sel.backend
        );
        let bitplane = sel.candidates.iter().find(|c| c.backend == "bitplane");
        assert_eq!(
            bitplane.and_then(|c| c.skipped.as_deref()),
            Some(reject.reason.as_str())
        );
    }
    reject.reason
}

#[test]
fn bitplane_refuses_a_merged_network_by_layer_and_row() {
    let opts = CompileOptions::with_l(4).with_passes(PassSet::all());
    let reason = bitplane_refusal(compile(&c2nn_circuits::uart(), opts).unwrap());
    assert!(reason.starts_with("layer "), "{reason}");
    assert!(
        reason.contains(" row ") && reason.contains("not a gate"),
        "{reason}"
    );
}

#[test]
fn bitplane_refuses_a_hand_built_majority_row_by_layer_and_row() {
    use c2nn_core::{Activation2, NnLayer};
    use c2nn_tensor::Csr;
    // maj(a, b, c) = a + b + c − 1 > 0: a threshold row with no gate form
    let majority = NnLayer {
        weights: Csr::from_triplets(1, 3, vec![(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)]),
        bias: vec![-1.0],
        activation: Activation2::Threshold,
    };
    let nn = CompiledNn {
        name: "maj".into(),
        layers: vec![majority],
        num_primary_inputs: 3,
        num_primary_outputs: 1,
        state_init: vec![],
        gate_count: 1,
        lut_size: 3,
    };
    let reason = bitplane_refusal(nn);
    assert!(reason.starts_with("layer 0 row 0: "), "{reason}");
}
