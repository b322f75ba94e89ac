//! Measurement utilities behind the `reproduce` binary: adaptive
//! wall-clock timing and the paper's gates·cycles/s throughput metric.

use std::time::{Duration, Instant};

/// Run `f` repeatedly until at least `budget` has elapsed (minimum
/// `min_iters` runs), returning the mean seconds per call.
pub fn time_adaptive(budget: Duration, min_iters: u32, mut f: impl FnMut()) -> f64 {
    // one warmup call (populates caches / faults pages)
    f();
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed();
        if elapsed >= budget && iters >= min_iters {
            return elapsed.as_secs_f64() / iters as f64;
        }
        // safety valve for very slow calls
        if iters >= 1 && elapsed >= budget * 4 {
            return elapsed.as_secs_f64() / iters as f64;
        }
    }
}

/// The paper's throughput unit: gates × cycles / second. For batched
/// simulation, `cycles` counts per-testbench cycles (batch × steps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    pub gates: usize,
    pub cycles: f64,
    pub seconds: f64,
}

impl Throughput {
    /// gates·cycles/s.
    pub fn gcs(&self) -> f64 {
        self.gates as f64 * self.cycles / self.seconds
    }
}

/// Format a float in the paper's `1.23E+04` scientific style.
pub fn sci(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v:.2}");
    }
    let exp = v.abs().log10().floor() as i32;
    let mant = v / 10f64.powi(exp);
    format!("{mant:.2}E{exp:+03}")
}

/// Render labeled values as a log-scale ASCII bar chart (the terminal
/// stand-in for the paper's figures).
pub fn log_bars(rows: &[(String, f64)], width: usize) -> String {
    let finite: Vec<f64> = rows.iter().map(|r| r.1).filter(|v| *v > 0.0).collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min).ln();
    let hi = finite.iter().cloned().fold(0.0f64, f64::max).ln();
    let span = (hi - lo).max(1e-9);
    let label_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let mut s = String::new();
    for (label, v) in rows {
        let bar = if *v > 0.0 {
            let frac = (v.ln() - lo) / span;
            1 + (frac * (width - 1) as f64).round() as usize
        } else {
            0
        };
        s.push_str(&format!(
            "  {label:<label_w$} |{} {}
",
            "█".repeat(bar),
            sci(*v)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let t = Throughput {
            gates: 1000,
            cycles: 50.0,
            seconds: 0.5,
        };
        assert_eq!(t.gcs(), 100_000.0);
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(771_000_000.0), "7.71E+08");
        assert_eq!(sci(0.00123), "1.23E-03");
        assert_eq!(sci(0.0), "0.00");
    }

    #[test]
    fn log_bars_scale_monotonically() {
        let rows = vec![
            ("a".to_string(), 1e-6),
            ("bb".to_string(), 1e-4),
            ("c".to_string(), 1e-2),
        ];
        let chart = log_bars(&rows, 40);
        let lens: Vec<usize> = chart
            .lines()
            .map(|l| l.chars().filter(|&c| c == '█').count())
            .collect();
        assert!(lens[0] < lens[1] && lens[1] < lens[2], "{chart}");
        assert!(chart.contains("1.00E-06"));
    }

    #[test]
    fn adaptive_timer_returns_positive() {
        let mut x = 0u64;
        let t = time_adaptive(Duration::from_millis(5), 3, || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(x);
        });
        assert!(t > 0.0);
    }
}
