//! The cost model the registry consults to pick a backend under
//! `--backend auto`: a built-in table of per-backend throughput
//! parameters ([`DeviceCalibration::default_host`]). Nothing is measured
//! at run time and nothing is read from disk, so the pick is a pure
//! function of the admitted plans and the lane count.
//!
//! [`BackendCalibration`] prices the generalized work units a backend's
//! [`Manifest`](crate::Manifest) reports:
//!
//! ```text
//! t_cycle(batch) = layers × launch_s
//!                + ⌈batch / lanes_per_word⌉ × units / unit_per_s
//! ```
//!
//! For a CSR backend (`lanes_per_word` = 1, `units` = nnz) this is a
//! launch term plus MACs at a sustained rate; the bit-plane backend
//! amortizes a word-op stream over 64 lanes.

use crate::backend::Manifest;

/// Throughput parameters for one backend.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendCalibration {
    /// Registry name of the backend these numbers describe.
    pub backend: String,
    /// Sustained work units per second (MACs for CSR backends, word-ops
    /// for the bit-plane engine).
    pub unit_per_s: f64,
    /// Fixed per-layer dispatch cost, seconds.
    pub launch_s: f64,
}

impl BackendCalibration {
    /// Predicted seconds for one batched forward pass of a plan with the
    /// given manifest.
    pub fn cycle_seconds_for(&self, m: &Manifest, batch: usize) -> f64 {
        let words = (batch as u64).div_ceil(m.lanes_per_word.max(1)) as f64;
        m.layers as f64 * self.launch_s + words * m.units / self.unit_per_s
    }

    /// Predicted simulated cycles/s summed over all lanes of the batch —
    /// the figure of merit `--backend auto` maximizes.
    pub fn predict_lane_cps(&self, m: &Manifest, batch: usize) -> f64 {
        batch as f64 / self.cycle_seconds_for(m, batch)
    }
}

/// The cost table selection runs against: one entry per priced backend.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceCalibration {
    /// Label of the table (free-form; shown in reports).
    pub device: String,
    /// Worker-pool threads of the host the table is used on.
    pub threads: u64,
    /// One entry per priced backend.
    pub backends: Vec<BackendCalibration>,
}

impl DeviceCalibration {
    /// The built-in table every `--backend auto` decision uses, fitted to
    /// which engine wins measured `execute_batch` runs on the suite: scalar
    /// at one lane, bit-plane from 64 lanes up, pooled CSR nowhere. The
    /// numbers do not depend on `threads`; `--backend <name>` overrides
    /// the pick.
    pub fn default_host(threads: usize) -> Self {
        DeviceCalibration {
            device: "built-in defaults".to_string(),
            threads: threads as u64,
            backends: vec![
                BackendCalibration {
                    backend: "scalar".to_string(),
                    unit_per_s: 2e8,
                    launch_s: 2e-7,
                },
                BackendCalibration {
                    backend: "pooled-csr".to_string(),
                    unit_per_s: 4e8,
                    launch_s: 4e-5,
                },
                BackendCalibration {
                    backend: "bitplane".to_string(),
                    unit_per_s: 2e9,
                    launch_s: 4e-5,
                },
            ],
        }
    }

    /// The calibration entry for a backend, if present.
    pub fn for_backend(&self, name: &str) -> Option<&BackendCalibration> {
        self.backends.iter().find(|b| b.backend == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_rate_amortizes_over_word_lanes() {
        let cal = BackendCalibration {
            backend: "bitplane".to_string(),
            unit_per_s: 1e9,
            launch_s: 0.0,
        };
        let m = Manifest {
            backend: "bitplane".to_string(),
            lanes_per_word: 64,
            layers: 4,
            units: 120.0,
        };
        // one word of 64 lanes costs the same as one lane
        let t1 = cal.cycle_seconds_for(&m, 1);
        let t64 = cal.cycle_seconds_for(&m, 64);
        assert_eq!(t1, t64);
        // 65 lanes spill into a second word
        assert!(cal.cycle_seconds_for(&m, 65) > t64);
        assert!((t64 - 120.0 / 1e9).abs() < 1e-15);
        // lane-rate at 64 is 64× the single-lane rate
        assert!((cal.predict_lane_cps(&m, 64) / cal.predict_lane_cps(&m, 1) - 64.0).abs() < 1e-9);
    }
}
