//! Microbenchmark calibration: measure each registered backend on small
//! representative workloads and fit the two-term cost model
//! ([`BackendCalibration`]) that `--backend auto` consults.
//!
//! Per backend, per (workload × batch) point we time one lockstep cycle
//! and least-squares fit
//!
//! ```text
//! t = layers × launch_s + word_units × (1 / unit_per_s)
//! ```
//!
//! over all points (two unknowns, ≥6 points) of the workloads compiled the
//! way the backend prefers. Where the default pipeline — the one every
//! production plan is compiled with — is a different one (bit-plane: the
//! merged network runs on the bit-sliced-counter fallback), the same
//! workloads compiled that way price the fallback: the
//! `weighted_unit_factor` is whatever multiple of the cheap rate explains
//! their measured residual.
//!
//! The output [`DeviceCalibration`] is what `c2nn calibrate` writes to
//! `results/DEVICE.json`.

use crate::backend::Plan;
use crate::conformance::compile_configs;
use crate::cost::{BackendCalibration, DeviceCalibration};
use crate::registry::BackendRegistry;
use c2nn_core::{compile, BitTensor, CompiledNn};
use c2nn_netlist::Netlist;
use std::sync::Arc;
use std::time::Instant;

/// Knobs for a calibration run.
#[derive(Clone, Debug)]
pub struct CalibrateOptions {
    /// Reduced workload set and shorter timings (CI smoke).
    pub quick: bool,
    /// Free-form host description recorded in the output.
    pub device: String,
}

impl Default for CalibrateOptions {
    fn default() -> Self {
        CalibrateOptions {
            quick: false,
            device: "calibrated host".to_string(),
        }
    }
}

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

/// The calibration workloads: small sequential circuits spanning the op
/// mix (pure counters/parity, tap feedback, carry chains).
fn workloads() -> Vec<(&'static str, Netlist)> {
    vec![
        ("counter12", c2nn_circuits::generators::counter(12)),
        (
            "lfsr16",
            c2nn_circuits::generators::lfsr(16, &[15, 13, 12, 10]),
        ),
        ("mult4", c2nn_circuits::generators::multiplier(4)),
    ]
}

/// Measured seconds per lockstep cycle for one plan at one batch width,
/// repeated until the sample is long enough to trust the clock.
fn time_cycle(plan: &dyn Plan, batch: usize, quick: bool) -> f64 {
    let pi = plan.nn().num_primary_inputs;
    let mut rng = Lcg(0xca11b ^ batch as u64);
    let inputs = BitTensor::from_lanes(&rng.lanes(batch, pi));
    let mut outputs = BitTensor::zeros(0, 0);
    let mut runner = plan.runner();
    runner.reset(batch);
    // warm caches and allocation paths before the clock starts
    runner
        .advance(&inputs, &mut outputs)
        .expect("calibration workload must step");
    let (chunk, min_elapsed, max_rounds) = if quick { (4, 0.002, 3) } else { (16, 0.010, 8) };
    let mut cycles = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..chunk {
            runner
                .advance(&inputs, &mut outputs)
                .expect("calibration workload must step");
        }
        cycles += chunk as u64;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_elapsed || cycles >= chunk as u64 * max_rounds {
            return elapsed / cycles as f64;
        }
    }
}

/// Solve min Σ (launch·x + inv_rate·y − t)² with launch ≥ 0, rate > 0.
fn fit(points: &[(f64, f64, f64)]) -> (f64, f64) {
    let (mut sxx, mut sxy, mut syy, mut sxt, mut syt) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x, y, t) in points {
        sxx += x * x;
        sxy += x * y;
        syy += y * y;
        sxt += x * t;
        syt += y * t;
    }
    let det = sxx * syy - sxy * sxy;
    let (mut launch, mut inv_rate) = if det.abs() > 1e-30 {
        ((sxt * syy - syt * sxy) / det, (syt * sxx - sxt * sxy) / det)
    } else {
        (0.0, syt / syy.max(1e-30))
    };
    if launch < 0.0 || inv_rate <= 0.0 {
        // degenerate fit (noise at these scales): attribute everything to
        // the compute term
        launch = launch.max(0.0);
        inv_rate = ((syt - launch * sxy) / syy.max(1e-30)).max(1e-30);
    }
    (launch, 1.0 / inv_rate)
}

fn word_units(m: &crate::Manifest, batch: usize, factor: f64) -> f64 {
    let words = (batch as u64).div_ceil(m.lanes_per_word.max(1)) as f64;
    words * (m.cheap_units + factor * m.weighted_units)
}

/// Calibrate every registered backend against the built-in workloads.
/// Backends that admit none of the workloads are left out of the result
/// (and will therefore be skipped by `--backend auto`).
pub fn calibrate(
    registry: &BackendRegistry,
    opts: &CalibrateOptions,
) -> Result<DeviceCalibration, String> {
    let batches: &[usize] = if opts.quick { &[1, 64] } else { &[1, 64, 256] };
    let mut entries = Vec::new();
    for name in registry.names() {
        let backend = registry.get(name).unwrap();
        // the backend's preferred pipeline (the last config) feeds the fit;
        // the default pipeline, where it is a different one, is what every
        // production plan is made of and prices the weighted units below
        let configs = compile_configs(backend.as_ref());
        let fit_cfg = configs.last().expect("at least the default config").0;
        let mut plans: Vec<Arc<dyn Plan>> = Vec::new();
        let mut production: Vec<Arc<dyn Plan>> = Vec::new();
        let mut coverage_num = 0.0;
        let mut coverage_den = 0.0;
        for (wname, nl) in workloads() {
            for &(cfg, copts) in &configs {
                let nn: Arc<CompiledNn<f32>> = Arc::new(
                    compile(&nl, copts)
                        .map_err(|e| format!("{name}/{wname}[{cfg}]: compile failed: {e}"))?,
                );
                let Ok(plan) = backend.admit(&nn) else {
                    continue;
                };
                let m = plan.manifest();
                let rows: u64 = m.row_classes.iter().map(|c| c.rows).sum();
                let counter: u64 = m
                    .row_classes
                    .iter()
                    .filter(|c| c.class == "counter")
                    .map(|c| c.rows)
                    .sum();
                coverage_num += (rows - counter) as f64;
                coverage_den += rows as f64;
                if cfg == fit_cfg {
                    plans.push(plan);
                } else {
                    production.push(plan);
                }
            }
        }
        if plans.is_empty() {
            continue;
        }

        // first pass: fit launch + rate on the backend-preferred plans,
        // pricing weighted units at par
        let mut points = Vec::new();
        for plan in &plans {
            for &batch in batches {
                let t = time_cycle(plan.as_ref(), batch, opts.quick);
                let m = plan.manifest();
                points.push((m.layers as f64, word_units(m, batch, 1.0), t));
            }
        }
        let (launch_s, unit_per_s) = fit(&points);

        // second pass: a merged network forces the bit-plane engine into
        // its counter fallback; the production plans' residual over the
        // fitted model prices it
        let (mut residual, mut weighted) = (0.0, 0.0);
        for plan in &production {
            let m = plan.manifest();
            if m.weighted_units > 0.0 {
                let batch = 64;
                let t = time_cycle(plan.as_ref(), batch, opts.quick);
                let words = (batch as u64).div_ceil(m.lanes_per_word.max(1)) as f64;
                residual += (t - m.layers as f64 * launch_s) * unit_per_s / words - m.cheap_units;
                weighted += m.weighted_units;
            }
        }
        let weighted_unit_factor = if weighted > 0.0 {
            (residual / weighted).clamp(0.25, 16.0)
        } else {
            1.0
        };

        let coverage = if coverage_den > 0.0 {
            coverage_num / coverage_den
        } else {
            1.0
        };
        entries.push(BackendCalibration {
            backend: name.to_string(),
            unit_per_s,
            launch_s,
            weighted_unit_factor,
            coverage,
        });
    }
    if entries.is_empty() {
        return Err("no backend admitted any calibration workload".to_string());
    }
    let cal = DeviceCalibration {
        device: opts.device.clone(),
        threads: c2nn_tensor::Pool::global().threads() as u64,
        quick: opts.quick,
        backends: entries,
    };
    cal.validate()?;
    Ok(cal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_two_term_data() {
        // t = 3e-6·layers + units/1e9, sampled on a grid
        let mut points = Vec::new();
        for layers in [2.0, 4.0, 8.0] {
            for units in [100.0, 5000.0, 200000.0] {
                points.push((layers, units, 3e-6 * layers + units / 1e9));
            }
        }
        let (launch, rate) = fit(&points);
        assert!((launch - 3e-6).abs() < 1e-12, "launch {launch}");
        assert!((rate - 1e9).abs() / 1e9 < 1e-6, "rate {rate}");
    }

    #[test]
    fn fit_clamps_to_physical_values() {
        // pathological data with a negative apparent launch cost
        let points = vec![(4.0, 100.0, 1e-7), (8.0, 100.0, 5e-8), (4.0, 200.0, 2e-7)];
        let (launch, rate) = fit(&points);
        assert!(launch >= 0.0);
        assert!(rate > 0.0 && rate.is_finite());
    }

    #[test]
    fn quick_calibration_produces_a_valid_file() {
        let reg = BackendRegistry::with_defaults();
        let opts = CalibrateOptions {
            quick: true,
            device: "test host".to_string(),
        };
        let cal = calibrate(&reg, &opts).unwrap();
        cal.validate().unwrap();
        assert!(cal.quick);
        let names: Vec<_> = cal.backends.iter().map(|b| b.backend.as_str()).collect();
        assert_eq!(names, ["scalar", "pooled-csr", "bitplane"]);
        // round-trips through the codec
        let back = DeviceCalibration::from_json_text(&cal.to_json_text()).unwrap();
        assert_eq!(cal, back);
    }
}
