//! Property tests for `--backend auto` selection and the calibration
//! codec:
//!
//! * auto selection is a pure function of (model, calibration, batch) —
//!   pinning `results/DEVICE.json` pins the decision;
//! * `DeviceCalibration` survives a JSON round-trip bit-exactly;
//! * a backend whose `admit` rejects is skipped and auto falls back to
//!   the next-best *predicted* backend, not the next registered one.
//!
//! The vendored proptest exposes integer-range strategies only, so float
//! parameters are generated as integers and scaled — which also keeps
//! every generated rate finite and positive by construction.

use c2nn_core::{compile, CompileOptions, CompiledNn};
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

/// A backend that refuses every model — the shape of a calibrated-but-
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
        weighted_unit_factor: 1.0,
        coverage: 1.0,
    }
}

proptest! {
    /// Same calibration numbers, same model, same batch → same winner and
    /// same prediction, across independently constructed registries. This
    /// is the determinism contract behind committing `results/DEVICE.json`.
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
            quick: false,
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

    /// Full calibration files round-trip through the `--check` codec.
    #[test]
    fn device_calibration_round_trips(
        rates in proptest::collection::vec(1u64..1_000_000_000, 1..5),
        launch_ns in 0u64..1_000_000_000,
        factor_q in 1u64..64,
        coverage_q in 0u64..=1000,
        threads in 1u64..256,
        quick in any::<bool>(),
    ) {
        let cal = DeviceCalibration {
            device: "round-trip host".to_string(),
            threads,
            quick,
            backends: rates
                .iter()
                .enumerate()
                .map(|(i, &r)| BackendCalibration {
                    backend: format!("backend-{i}"),
                    unit_per_s: r as f64 * 1e3,
                    launch_s: launch_ns as f64 * 1e-9,
                    weighted_unit_factor: factor_q as f64 * 0.25,
                    coverage: coverage_q as f64 / 1000.0,
                })
                .collect(),
        };
        cal.validate().unwrap();
        let back = DeviceCalibration::from_json_text(&cal.to_json_text()).unwrap();
        prop_assert_eq!(cal, back);
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
            quick: false,
            backends: vec![
                // the rejector is calibrated as by far the fastest engine
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

/// The ISSUE acceptance shape: with the committed default calibration, a
/// bit-plane-legalizable suite model served at the default batch width
/// auto-selects the bit-plane engine — and the decision is
/// calibration-driven, not a hard-coded preference order.
#[test]
fn suite_model_auto_selects_bitplane_at_serving_batch() {
    let nn = Arc::new(compile(&c2nn_circuits::uart(), CompileOptions::with_l(4)).unwrap());
    let cal = DeviceCalibration::default_host(1);
    let sel = BackendRegistry::global()
        .select(&nn, &Choice::Auto, &cal, 64)
        .unwrap();
    assert_eq!(sel.backend, "bitplane", "candidates: {:?}", sel.candidates);
    // crippling the bitplane rate flips the winner to a CSR engine
    let mut slow = cal.clone();
    slow.backends
        .iter_mut()
        .find(|b| b.backend == "bitplane")
        .unwrap()
        .unit_per_s = 1.0;
    let sel = BackendRegistry::global()
        .select(&nn, &Choice::Auto, &slow, 64)
        .unwrap();
    assert_ne!(sel.backend, "bitplane");
}
