//! The calibrated cost model: per-backend throughput parameters measured
//! by `c2nn calibrate`, persisted to `results/DEVICE.json`, and consulted
//! by the registry to pick a backend under `--backend auto`.
//!
//! [`BackendCalibration`] / [`DeviceCalibration`] hold *measured* numbers
//! for the backends this host actually runs, pricing the generalized work
//! units a backend's [`Manifest`](crate::Manifest) reports:
//!
//! ```text
//! t_cycle(batch) = layers × launch_s
//!                + ⌈batch / lanes_per_word⌉
//!                  × (cheap + weighted_unit_factor × weighted) / unit_per_s
//! ```
//!
//! For a CSR backend (`lanes_per_word` = 1, `cheap` = nnz, no weighted
//! units) this is a launch term plus MACs at a sustained rate; the
//! bit-plane backend amortizes a word-op stream over 64 lanes, with its
//! counter rows priced at a calibrated premium.

use crate::backend::Manifest;
use c2nn_json::json_struct;

/// Measured throughput parameters for one backend on this host.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendCalibration {
    /// Registry name of the backend these numbers describe.
    pub backend: String,
    /// Sustained cheap-path work units per second (MACs for CSR
    /// backends, word-ops for the bit-plane engine).
    pub unit_per_s: f64,
    /// Fixed per-layer dispatch cost, seconds.
    pub launch_s: f64,
    /// Relative cost of one weighted (expensive-path) unit in cheap
    /// units. 1.0 when the backend has a single path.
    pub weighted_unit_factor: f64,
    /// Fraction of suite rows the backend legalized onto its cheap path
    /// during calibration (1.0 for single-path backends). Informational:
    /// reported by `c2nn calibrate`, not used for prediction — the
    /// per-model manifest already carries the model's own split.
    pub coverage: f64,
}
json_struct!(BackendCalibration {
    backend,
    unit_per_s,
    launch_s,
    weighted_unit_factor,
    coverage,
});

impl BackendCalibration {
    /// Predicted seconds for one batched forward pass of a plan with the
    /// given manifest.
    pub fn cycle_seconds_for(&self, m: &Manifest, batch: usize) -> f64 {
        let words = (batch as u64).div_ceil(m.lanes_per_word.max(1)) as f64;
        let units = m.cheap_units + self.weighted_unit_factor * m.weighted_units;
        m.layers as f64 * self.launch_s + words * units / self.unit_per_s
    }

    /// Predicted simulated cycles/s summed over all lanes of the batch —
    /// the figure of merit `--backend auto` maximizes.
    pub fn predict_lane_cps(&self, m: &Manifest, batch: usize) -> f64 {
        batch as f64 / self.cycle_seconds_for(m, batch)
    }
}

/// A full device calibration: what `results/DEVICE.json` holds.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceCalibration {
    /// Host description (free-form).
    pub device: String,
    /// Worker-pool threads at calibration time.
    pub threads: u64,
    /// Whether this was a `--quick` (reduced-workload) calibration.
    pub quick: bool,
    /// One entry per calibrated backend.
    pub backends: Vec<BackendCalibration>,
}
json_struct!(DeviceCalibration {
    device,
    threads,
    quick,
    backends
});

impl DeviceCalibration {
    /// Conservative built-in defaults used when no `results/DEVICE.json`
    /// exists: plausible single-host numbers that preserve the expected
    /// ordering (bit-plane ≫ pooled CSR ≫ scalar at batch, scalar best at
    /// batch 1 on tiny models). Run `c2nn calibrate` to replace them with
    /// measured values.
    pub fn default_host(threads: usize) -> Self {
        DeviceCalibration {
            device: "built-in defaults (run `c2nn calibrate`)".to_string(),
            threads: threads as u64,
            quick: false,
            backends: vec![
                BackendCalibration {
                    backend: "scalar".to_string(),
                    unit_per_s: 2e8,
                    launch_s: 2e-7,
                    weighted_unit_factor: 1.0,
                    coverage: 1.0,
                },
                BackendCalibration {
                    backend: "pooled-csr".to_string(),
                    unit_per_s: 8e8,
                    launch_s: 1e-5,
                    weighted_unit_factor: 1.0,
                    coverage: 1.0,
                },
                BackendCalibration {
                    backend: "bitplane".to_string(),
                    unit_per_s: 2e9,
                    launch_s: 1e-5,
                    weighted_unit_factor: 1.5,
                    coverage: 1.0,
                },
            ],
        }
    }

    /// The calibration entry for a backend, if present.
    pub fn for_backend(&self, name: &str) -> Option<&BackendCalibration> {
        self.backends.iter().find(|b| b.backend == name)
    }

    /// Structural sanity for loaded files: every entry must carry finite
    /// positive rates and a sane coverage fraction. Returns the offending
    /// description on failure (used by `c2nn calibrate --check`).
    pub fn validate(&self) -> Result<(), String> {
        if self.backends.is_empty() {
            return Err("calibration lists no backends".to_string());
        }
        for b in &self.backends {
            if b.backend.is_empty() {
                return Err("calibration entry with empty backend name".to_string());
            }
            if !(b.unit_per_s.is_finite() && b.unit_per_s > 0.0) {
                return Err(format!(
                    "backend `{}`: unit_per_s must be finite and > 0",
                    b.backend
                ));
            }
            if !(b.launch_s.is_finite() && b.launch_s >= 0.0) {
                return Err(format!(
                    "backend `{}`: launch_s must be finite and >= 0",
                    b.backend
                ));
            }
            if !(b.weighted_unit_factor.is_finite() && b.weighted_unit_factor > 0.0) {
                return Err(format!(
                    "backend `{}`: weighted_unit_factor must be finite and > 0",
                    b.backend
                ));
            }
            if !(0.0..=1.0).contains(&b.coverage) {
                return Err(format!(
                    "backend `{}`: coverage must be in [0, 1]",
                    b.backend
                ));
            }
        }
        Ok(())
    }

    /// Parse and validate a calibration from JSON text.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let cal: Self = c2nn_json::from_str(text).map_err(|e| e.to_string())?;
        cal.validate()?;
        Ok(cal)
    }

    /// Serialize to pretty-printed JSON text.
    pub fn to_json_text(&self) -> String {
        c2nn_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_host_validates_and_round_trips() {
        let cal = DeviceCalibration::default_host(8);
        cal.validate().unwrap();
        let text = cal.to_json_text();
        let back = DeviceCalibration::from_json_text(&text).unwrap();
        assert_eq!(cal, back);
    }

    #[test]
    fn validate_rejects_broken_entries() {
        let mut cal = DeviceCalibration::default_host(8);
        cal.backends[0].unit_per_s = 0.0;
        assert!(cal.validate().is_err());
        let mut cal = DeviceCalibration::default_host(8);
        cal.backends[1].coverage = 1.5;
        assert!(cal.validate().is_err());
        let mut cal = DeviceCalibration::default_host(8);
        cal.backends.clear();
        assert!(cal.validate().is_err());
    }

    #[test]
    fn lane_rate_amortizes_over_word_lanes() {
        let cal = BackendCalibration {
            backend: "bitplane".to_string(),
            unit_per_s: 1e9,
            launch_s: 0.0,
            weighted_unit_factor: 2.0,
            coverage: 1.0,
        };
        let m = Manifest {
            backend: "bitplane".to_string(),
            lanes_per_word: 64,
            layers: 4,
            cheap_units: 100.0,
            weighted_units: 10.0,
            row_classes: Vec::new(),
        };
        // one word of 64 lanes costs the same as one lane
        let t1 = cal.cycle_seconds_for(&m, 1);
        let t64 = cal.cycle_seconds_for(&m, 64);
        assert_eq!(t1, t64);
        // 65 lanes spill into a second word
        assert!(cal.cycle_seconds_for(&m, 65) > t64);
        // weighted units are priced at the factor: 100 + 2×10 = 120 units
        assert!((t64 - 120.0 / 1e9).abs() < 1e-15);
        // lane-rate at 64 is 64× the single-lane rate
        assert!((cal.predict_lane_cps(&m, 64) / cal.predict_lane_cps(&m, 1) - 64.0).abs() < 1e-9);
    }
}
