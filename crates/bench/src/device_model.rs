//! The analytic model of the GPU we do not have (the paper's GTX TITAN X):
//! launch latency per layer plus raw MACs at a sustained rate. It prices
//! the "modeled" columns of Table I, Fig. 6 and the ablations and nothing
//! else — backend selection uses the *measured* `c2nn_hal::cost` model
//! (DESIGN.md §2 documents the substitution).

use c2nn_core::CompiledNn;
use c2nn_tensor::Scalar;

/// A launch-latency + throughput device model.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceModel {
    /// Human-readable name for reports.
    pub name: String,
    /// Effective sustained rate in multiply-accumulates per second.
    pub mac_per_s: f64,
    /// Fixed cost per layer (kernel launch + sync), seconds.
    pub launch_s: f64,
}

impl DeviceModel {
    /// GTX TITAN X (Maxwell) analogue: 6.1 TFLOP/s ≈ 3.05e12 MAC/s peak,
    /// ×10 % sparse efficiency, 5 µs launches.
    pub fn titan_x() -> Self {
        DeviceModel {
            name: "modeled GTX TITAN X (10% sparse eff.)".to_string(),
            mac_per_s: 3.05e11,
            launch_s: 5e-6,
        }
    }

    /// Modeled seconds for one batched forward pass (one simulated cycle
    /// for the whole batch).
    pub fn cycle_seconds<T: Scalar>(&self, nn: &CompiledNn<T>, batch: usize) -> f64 {
        let macs = nn.connections() as f64 * batch as f64;
        nn.num_layers() as f64 * self.launch_s + macs / self.mac_per_s
    }

    /// Modeled throughput in gates·cycles/s at the given batch size.
    pub fn throughput<T: Scalar>(&self, nn: &CompiledNn<T>, batch: usize) -> f64 {
        let t = self.cycle_seconds(nn, batch);
        nn.gate_count as f64 * batch as f64 / t
    }

    /// Batch size at which the compute term overtakes launch latency
    /// (the knee of the throughput curve).
    pub fn saturation_batch<T: Scalar>(&self, nn: &CompiledNn<T>) -> f64 {
        let launch = nn.num_layers() as f64 * self.launch_s;
        launch * self.mac_per_s / nn.connections() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2nn_core::{compile, CompileOptions};
    use c2nn_netlist::{NetlistBuilder, WordOps};

    fn nn() -> CompiledNn<f32> {
        let mut b = NetlistBuilder::new("a");
        let x = b.input_word("a", 8);
        let y = b.input_word("b", 8);
        let s = b.add_word(&x, &y);
        b.output_word(&s, "s");
        compile(&b.finish().unwrap(), CompileOptions::with_l(4)).unwrap()
    }

    #[test]
    fn launch_latency_dominates_single_stimulus() {
        let nn = nn();
        let m = DeviceModel::titan_x();
        let t1 = m.cycle_seconds(&nn, 1);
        let launch = nn.num_layers() as f64 * m.launch_s;
        assert!(
            (t1 - launch) / t1 < 0.05,
            "batch-1 time should be ≥95% launch latency: {t1} vs {launch}"
        );
    }

    #[test]
    fn throughput_grows_then_saturates() {
        let nn = nn();
        let m = DeviceModel::titan_x();
        let t_small = m.throughput(&nn, 1);
        let t_big = m.throughput(&nn, 1 << 20);
        assert!(t_big > 10.0 * t_small);
        let t_bigger = m.throughput(&nn, 1 << 24);
        assert!(t_bigger < t_big * 2.0);
    }

    #[test]
    fn saturation_batch_is_finite_positive() {
        let nn = nn();
        let m = DeviceModel::titan_x();
        let b = m.saturation_batch(&nn);
        assert!(b > 0.0 && b.is_finite());
    }
}
