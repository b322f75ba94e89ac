//! The process-wide backend registry and `--backend auto` selection.
//!
//! Selection is *table-driven*: the registry admits the model on every
//! backend the [`DeviceCalibration`] prices, asks each entry to predict
//! lane-cycles/s at the expected batch width, and picks the strict
//! maximum. There is no hard-coded preference order — hand `select` a
//! table with other numbers and the winner changes — and no input besides
//! its arguments: every caller passes the built-in
//! [`DeviceCalibration::default_host`], so the pick is a pure function of
//! (plan, lanes). Ties break toward earlier registration.

use crate::backend::{Backend, Plan, Reject};
use crate::backends::{BitplaneBackend, CsrBackend};
use crate::cost::DeviceCalibration;
use c2nn_core::CompiledNn;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// How the caller wants a backend chosen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Let the cost model pick the fastest admitting backend.
    Auto,
    /// Require this backend by registry name; admission failure is an
    /// error, not a fallback.
    Named(String),
}

impl Choice {
    /// Parse a `--backend` flag value; `auto` (case-insensitive) selects
    /// [`Choice::Auto`], anything else is taken as a backend name (the
    /// registry validates it at selection time).
    pub fn parse(s: &str) -> Choice {
        if s.eq_ignore_ascii_case("auto") {
            Choice::Auto
        } else {
            Choice::Named(s.to_string())
        }
    }
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Auto => f.write_str("auto"),
            Choice::Named(n) => f.write_str(n),
        }
    }
}

/// One backend's fate during a selection pass (kept for observability:
/// `c2nn sim/bench` print one line per candidate).
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Backend name.
    pub backend: String,
    /// Predicted lane-cycles/s, when the backend admitted the model and
    /// had a calibration entry.
    pub predicted_lane_cps: Option<f64>,
    /// Why the backend was passed over, when it was (admission refusal or
    /// a missing calibration entry).
    pub skipped: Option<String>,
}

/// The outcome of backend selection: the admitted plan plus the decision
/// trail.
pub struct Selection {
    /// Winning backend name.
    pub backend: String,
    /// True when the cost model chose (`--backend auto`), false for an
    /// explicit name.
    pub auto: bool,
    /// The admitted plan on the winning backend.
    pub plan: Arc<dyn Plan>,
    /// Predicted lane-cycles/s of the winner (absent when an explicitly
    /// named backend has no calibration entry).
    pub predicted_lane_cps: Option<f64>,
    /// Every backend considered, in registration order.
    pub candidates: Vec<Candidate>,
}

/// Why selection failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectError {
    /// A named backend is not in the registry.
    UnknownBackend {
        /// What the caller asked for.
        given: String,
        /// The names actually registered (plus `auto`).
        available: Vec<String>,
    },
    /// A named backend refused the model.
    Rejected(Reject),
    /// Under `auto`, no calibrated backend admitted the model.
    NoneAdmitted(Vec<Candidate>),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::UnknownBackend { given, available } => write!(
                f,
                "unknown backend `{given}`; available: {}, auto",
                available.join(", ")
            ),
            SelectError::Rejected(r) => r.fmt(f),
            SelectError::NoneAdmitted(cands) => {
                write!(f, "no backend admitted the model:")?;
                for c in cands {
                    write!(
                        f,
                        " {}: {};",
                        c.backend,
                        c.skipped.as_deref().unwrap_or("not selected")
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// An ordered collection of execution backends.
#[derive(Default)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn Backend>>,
}

impl BackendRegistry {
    /// An empty registry (for tests and embedders).
    pub fn new() -> Self {
        BackendRegistry {
            backends: Vec::new(),
        }
    }

    /// The registry with the three built-in engines, in the order the
    /// default calibration lists them: `scalar`, `pooled-csr`, `bitplane`.
    pub fn with_defaults() -> Self {
        let mut r = BackendRegistry::new();
        r.register(Arc::new(CsrBackend::scalar()));
        r.register(Arc::new(CsrBackend::pooled()));
        r.register(Arc::new(BitplaneBackend));
        r
    }

    /// The process-wide registry of built-in backends.
    pub fn global() -> &'static BackendRegistry {
        static GLOBAL: OnceLock<BackendRegistry> = OnceLock::new();
        GLOBAL.get_or_init(BackendRegistry::with_defaults)
    }

    /// Add a backend. Last registration wins on name collision (lookups
    /// scan back to front), so embedders can shadow a built-in.
    pub fn register(&mut self, backend: Arc<dyn Backend>) {
        self.backends.push(backend);
    }

    /// Registered backend names, registration order, collisions shadowed.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for b in &self.backends {
            if !names.contains(&b.name()) {
                names.push(b.name());
            }
        }
        names
    }

    /// Look up a backend by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Backend>> {
        self.backends.iter().rev().find(|b| b.name() == name)
    }

    /// Backends in effective order (shadowed duplicates dropped).
    fn effective(&self) -> Vec<&Arc<dyn Backend>> {
        self.names()
            .into_iter()
            .map(|n| self.get(n).unwrap())
            .collect()
    }

    /// Resolve a [`Choice`] against this registry: admit the model and —
    /// for [`Choice::Auto`] — let the calibration pick the backend with
    /// the best predicted lane-cycles/s at the expected batch width.
    pub fn select(
        &self,
        nn: &Arc<CompiledNn<f32>>,
        choice: &Choice,
        cal: &DeviceCalibration,
        expected_batch: usize,
    ) -> Result<Selection, SelectError> {
        let batch = expected_batch.max(1);
        match choice {
            Choice::Named(name) => {
                let backend = self.get(name).ok_or_else(|| SelectError::UnknownBackend {
                    given: name.clone(),
                    available: self.names().iter().map(|s| s.to_string()).collect(),
                })?;
                let plan = backend.admit(nn).map_err(SelectError::Rejected)?;
                let predicted = cal
                    .for_backend(name)
                    .map(|c| c.predict_lane_cps(plan.manifest(), batch));
                Ok(Selection {
                    backend: name.clone(),
                    auto: false,
                    predicted_lane_cps: predicted,
                    candidates: vec![Candidate {
                        backend: name.clone(),
                        predicted_lane_cps: predicted,
                        skipped: None,
                    }],
                    plan,
                })
            }
            Choice::Auto => {
                let mut candidates = Vec::new();
                let mut best: Option<(f64, Arc<dyn Plan>, String)> = None;
                for backend in self.effective() {
                    let name = backend.name();
                    let Some(c) = cal.for_backend(name) else {
                        candidates.push(Candidate {
                            backend: name.to_string(),
                            predicted_lane_cps: None,
                            skipped: Some("no calibration entry".to_string()),
                        });
                        continue;
                    };
                    match backend.admit(nn) {
                        Ok(plan) => {
                            let cps = c.predict_lane_cps(plan.manifest(), batch);
                            candidates.push(Candidate {
                                backend: name.to_string(),
                                predicted_lane_cps: Some(cps),
                                skipped: None,
                            });
                            // strict > keeps ties on the earliest registration
                            if best.as_ref().is_none_or(|(b, _, _)| cps > *b) {
                                best = Some((cps, plan, name.to_string()));
                            }
                        }
                        Err(reject) => candidates.push(Candidate {
                            backend: name.to_string(),
                            predicted_lane_cps: None,
                            skipped: Some(reject.reason),
                        }),
                    }
                }
                match best {
                    Some((cps, plan, name)) => Ok(Selection {
                        backend: name,
                        auto: true,
                        plan,
                        predicted_lane_cps: Some(cps),
                        candidates,
                    }),
                    None => Err(SelectError::NoneAdmitted(candidates)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2nn_core::{compile, CompileOptions};

    fn model() -> Arc<CompiledNn<f32>> {
        Arc::new(compile(&c2nn_circuits::uart(), CompileOptions::with_l(4)).unwrap())
    }

    #[test]
    fn unknown_backend_lists_registered_names() {
        let reg = BackendRegistry::with_defaults();
        let cal = DeviceCalibration::default_host(1);
        let err = reg
            .select(&model(), &Choice::Named("vulkan".to_string()), &cal, 64)
            .err()
            .unwrap();
        match err {
            SelectError::UnknownBackend { given, available } => {
                assert_eq!(given, "vulkan");
                assert_eq!(available, vec!["scalar", "pooled-csr", "bitplane"]);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn named_selection_is_not_auto() {
        let reg = BackendRegistry::with_defaults();
        let cal = DeviceCalibration::default_host(1);
        let sel = reg
            .select(&model(), &Choice::Named("scalar".to_string()), &cal, 4)
            .unwrap();
        assert_eq!(sel.backend, "scalar");
        assert!(!sel.auto);
        assert_eq!(sel.plan.backend(), "scalar");
        assert!(sel.predicted_lane_cps.is_some());
    }

    #[test]
    fn choice_parses_auto_case_insensitively() {
        assert_eq!(Choice::parse("AUTO"), Choice::Auto);
        assert_eq!(Choice::parse("auto"), Choice::Auto);
        assert_eq!(
            Choice::parse("bitplane"),
            Choice::Named("bitplane".to_string())
        );
        assert_eq!(Choice::Auto.to_string(), "auto");
    }

    #[test]
    fn auto_reports_every_candidate() {
        let reg = BackendRegistry::with_defaults();
        let cal = DeviceCalibration::default_host(1);
        let sel = reg.select(&model(), &Choice::Auto, &cal, 64).unwrap();
        assert!(sel.auto);
        assert_eq!(sel.candidates.len(), 3);
        assert!(sel.candidates.iter().all(|c| c.skipped.is_none()));
        // the winner's prediction is the maximum
        let max = sel
            .candidates
            .iter()
            .filter_map(|c| c.predicted_lane_cps)
            .fold(f64::MIN, f64::max);
        assert_eq!(sel.predicted_lane_cps, Some(max));
    }

    #[test]
    fn uncalibrated_backends_are_skipped_under_auto() {
        let reg = BackendRegistry::with_defaults();
        let mut cal = DeviceCalibration::default_host(1);
        cal.backends.retain(|b| b.backend == "scalar");
        let sel = reg.select(&model(), &Choice::Auto, &cal, 4096).unwrap();
        assert_eq!(sel.backend, "scalar");
        let skipped: Vec<_> = sel
            .candidates
            .iter()
            .filter(|c| c.skipped.is_some())
            .map(|c| &c.backend)
            .collect();
        assert_eq!(skipped, ["pooled-csr", "bitplane"]);
    }
}
