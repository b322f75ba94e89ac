//! Per-pass compile instrumentation: every pipeline stage records wall time
//! and before→after size metrics into a [`CompileReport`], surfaced through
//! `c2nn compile --stats` and the benchmark's `core.pass_s.*` / `core.nnz`
//! metrics.

use c2nn_json::json_obj;

/// Size of an IR snapshot (or of the legalized artifact).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrMetrics {
    /// Number of layers.
    pub layers: usize,
    /// Total rows (neurons) across layers.
    pub neurons: usize,
    /// Total nonzero weights across layers.
    pub nnz: usize,
}
json_obj!(IrMetrics {
    layers,
    neurons,
    nnz
});

/// One pipeline stage's record.
#[derive(Clone, Debug, PartialEq)]
pub struct PassStat {
    /// Stage name (`lower`, `constant-fold`, `monomial-cse`,
    /// `dead-neuron-elim`, `layer-merge`, `legalize`).
    pub pass: String,
    /// Wall time of the stage in seconds.
    pub wall_s: f64,
    pub before: IrMetrics,
    pub after: IrMetrics,
}
json_obj!(PassStat {
    pass,
    wall_s,
    before,
    after
});

impl PassStat {
    /// Nonzeros removed by this stage (negative when the stage grew the
    /// network — expected only for `layer-merge`, which trades nnz for
    /// depth).
    pub fn nnz_delta(&self) -> i64 {
        self.before.nnz as i64 - self.after.nnz as i64
    }
}

/// The structured result of one compilation, pass by pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompileReport {
    pub circuit: String,
    pub lut_size: usize,
    pub passes: Vec<PassStat>,
    /// End-to-end wall time (netlist preparation + mapping + pipeline).
    pub total_s: f64,
}
json_obj!(CompileReport {
    circuit,
    lut_size,
    passes,
    total_s
});

impl CompileReport {
    /// Metrics of the final artifact (after the last stage).
    pub fn final_metrics(&self) -> Option<IrMetrics> {
        self.passes.last().map(|p| p.after)
    }

    /// Look up one stage by name.
    pub fn stat(&self, pass: &str) -> Option<&PassStat> {
        self.passes.iter().find(|p| p.pass == pass)
    }

    /// Render as an aligned text table (the `--stats` output).
    pub fn to_table(&self) -> String {
        let mut s = format!(
            "{:<17} {:>9} {:>7} {:>9} {:>10} {:>10}\n",
            "pass", "time", "layers", "neurons", "nnz", "Δnnz"
        );
        for p in &self.passes {
            let delta = p.nnz_delta();
            s.push_str(&format!(
                "{:<17} {:>8.3}s {:>7} {:>9} {:>10} {:>10}\n",
                p.pass,
                p.wall_s,
                p.after.layers,
                p.after.neurons,
                p.after.nnz,
                if delta == 0 {
                    "·".to_string()
                } else {
                    format!("{:+}", -delta)
                },
            ));
        }
        s.push_str(&format!("total {:>20.3}s\n", self.total_s));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(pass: &str, before: usize, after: usize) -> PassStat {
        PassStat {
            pass: pass.into(),
            wall_s: 0.001,
            before: IrMetrics {
                layers: 4,
                neurons: 10,
                nnz: before,
            },
            after: IrMetrics {
                layers: 4,
                neurons: 10,
                nnz: after,
            },
        }
    }

    #[test]
    fn delta_and_lookup() {
        let r = CompileReport {
            circuit: "c".into(),
            lut_size: 4,
            passes: vec![stat("lower", 100, 100), stat("monomial-cse", 100, 80)],
            total_s: 0.5,
        };
        assert_eq!(r.stat("monomial-cse").unwrap().nnz_delta(), 20);
        assert_eq!(r.final_metrics().unwrap().nnz, 80);
        let table = r.to_table();
        assert!(table.contains("monomial-cse"));
        assert!(table.contains("-20"));
    }

    #[test]
    fn report_serializes() {
        let r = CompileReport {
            circuit: "c".into(),
            lut_size: 4,
            passes: vec![stat("lower", 5, 5)],
            total_s: 0.1,
        };
        let text = c2nn_json::to_string(&r);
        assert!(text.contains("\"circuit\""));
        assert!(text.contains("\"nnz\""));
        c2nn_json::parse(&text).unwrap();
    }
}
