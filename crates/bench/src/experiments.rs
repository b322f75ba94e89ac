//! The experiment implementations behind the `reproduce` binary: one
//! function per paper table/figure plus the ablations (DESIGN.md §4).

use crate::device_model::DeviceModel;
use crate::harness::{sci, time_adaptive, Throughput};
use c2nn_boolfn::{lut_to_poly, lut_to_poly_dnf, Lut};
use c2nn_circuits::table1_suite;
use c2nn_core::{compile, compile_as, CompileOptions, CompiledNn, PassSet, Simulator};
use c2nn_json::json_obj;
use c2nn_refsim::CycleSim;
use c2nn_tensor::{Dense, Device};
use std::time::{Duration, Instant};

/// One Table I row (per circuit × L).
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub circuit: String,
    pub gates: usize,
    pub refsim_gcs: f64,
    pub l: usize,
    pub generation_s: f64,
    pub memory_mb: f64,
    pub connections_m: f64,
    pub layers: usize,
    pub mean_sparsity: f64,
    /// measured on this machine's single core, batched serial kernels
    pub nn_measured_gcs: f64,
    pub nn_measured_speedup: f64,
    /// modeled GPU throughput (see `DeviceModel`)
    pub nn_modeled_gcs: f64,
    pub nn_modeled_speedup: f64,
}
json_obj!(Table1Row {
    circuit,
    gates,
    refsim_gcs,
    l,
    generation_s,
    memory_mb,
    connections_m,
    layers,
    mean_sparsity,
    nn_measured_gcs,
    nn_measured_speedup,
    nn_modeled_gcs,
    nn_modeled_speedup
});

/// The paper's network at `L`: every pass, the Fig. 5 `layer-merge`
/// included (the compiler's default leaves the merge out), so the tables
/// and figures describe what the paper builds.
fn paper(l: usize) -> CompileOptions {
    CompileOptions::with_l(l).with_passes(PassSet::all())
}

/// Measure the reference (Verilator-substitute) throughput of a netlist.
pub fn refsim_throughput(nl: &c2nn_netlist::Netlist, budget: Duration) -> Throughput {
    let mut sim = CycleSim::new(nl).expect("refsim build");
    let stim = vec![false; sim.num_inputs()];
    // batch the timing into chunks of cycles
    let chunk = 64u64;
    let secs = time_adaptive(budget, 3, || {
        for _ in 0..chunk {
            sim.step(&stim);
        }
    });
    Throughput {
        gates: sim.gate_count(),
        cycles: chunk as f64,
        seconds: secs,
    }
}

/// Measure the NN's *single-core* batched throughput.
pub fn nn_measured_throughput(nn: &CompiledNn<f32>, batch: usize, budget: Duration) -> Throughput {
    let mut sim = Simulator::new(nn, batch, Device::Serial);
    let x = Dense::<f32>::zeros(nn.num_primary_inputs, batch);
    let secs = time_adaptive(budget, 2, || {
        sim.step(&x);
    });
    Throughput {
        gates: nn.gate_count,
        cycles: batch as f64,
        seconds: secs,
    }
}

/// Reproduce Table I.
pub fn table1(ls: &[usize], batch: usize, budget: Duration) -> Vec<Table1Row> {
    let gpu = DeviceModel::titan_x();
    let mut rows = Vec::new();
    for bench in table1_suite() {
        let nl = (bench.build)();
        let reft = refsim_throughput(&nl, budget);
        eprintln!(
            "[table1] {}: {} gates, refsim {} g*c/s",
            bench.name,
            nl.gate_count(),
            sci(reft.gcs())
        );
        for &l in ls {
            let t0 = Instant::now();
            let nn = compile(&nl, paper(l)).expect("compile");
            let generation_s = t0.elapsed().as_secs_f64();
            let meas = nn_measured_throughput(&nn, batch, budget);
            let modeled = gpu.throughput(&nn, 1024);
            eprintln!(
                "[table1]   L={l}: gen {:.1}s, {} layers, {} conns, measured {} modeled {}",
                generation_s,
                nn.num_layers(),
                nn.connections(),
                sci(meas.gcs()),
                sci(modeled)
            );
            rows.push(Table1Row {
                circuit: bench.name.to_string(),
                gates: nl.gate_count(),
                refsim_gcs: reft.gcs(),
                l,
                generation_s,
                memory_mb: nn.memory_bytes() as f64 / 1e6,
                connections_m: nn.connections() as f64 / 1e6,
                layers: nn.num_layers(),
                mean_sparsity: nn.mean_sparsity(),
                nn_measured_gcs: meas.gcs(),
                nn_measured_speedup: meas.gcs() / reft.gcs(),
                nn_modeled_gcs: modeled,
                nn_modeled_speedup: modeled / reft.gcs(),
            });
        }
    }
    rows
}

/// Render Table I like the paper (plus the measured/modeled distinction).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<17} {:>7} {:>9} | {:>2} {:>8} {:>8} {:>8} {:>6} {:>8} | {:>9} {:>7} | {:>9} {:>8}\n",
        "Circuit",
        "Gates",
        "RefSim",
        "L",
        "Gen(s)",
        "Mem(MB)",
        "Conns(M)",
        "Layers",
        "Sparsity",
        "Meas g*c/s",
        "Spd-up",
        "Model g*c/s",
        "Spd-up"
    ));
    s.push_str(&"-".repeat(132));
    s.push('\n');
    let mut last = "";
    for r in rows {
        let (name, gates, refsim) = if r.circuit != last {
            last = &r.circuit;
            (
                r.circuit.as_str(),
                format!("{}", r.gates),
                sci(r.refsim_gcs),
            )
        } else {
            ("", String::new(), String::new())
        };
        s.push_str(&format!(
            "{:<17} {:>7} {:>9} | {:>2} {:>8.2} {:>8.2} {:>8.3} {:>6} {:>8.5} | {:>9} {:>7.1} | {:>9} {:>8.1}\n",
            name,
            gates,
            refsim,
            r.l,
            r.generation_s,
            r.memory_mb,
            r.connections_m,
            r.layers,
            r.mean_sparsity,
            sci(r.nn_measured_gcs),
            r.nn_measured_speedup,
            sci(r.nn_modeled_gcs),
            r.nn_modeled_speedup,
        ));
    }
    s
}

/// One Figure 4 point.
#[derive(Clone, Debug)]
pub struct Fig4Point {
    pub l: usize,
    pub dnf_s: Option<f64>,
    pub dc_s: f64,
}
json_obj!(Fig4Point { l, dnf_s, dc_s });

/// Reproduce Figure 4: polynomial generation time, DNF vs Algorithm 1.
pub fn fig4(max_l_dc: usize, max_l_dnf: usize, budget: Duration) -> Vec<Fig4Point> {
    let mut seed = 0x5deece66du64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut pts = Vec::new();
    for l in 2..=max_l_dc {
        let lut = Lut::random(l as u8, &mut rng);
        let dc_s = time_adaptive(budget, 3, || {
            std::hint::black_box(lut_to_poly(&lut));
        });
        let dnf_s = if l <= max_l_dnf {
            Some(time_adaptive(budget, 1, || {
                std::hint::black_box(lut_to_poly_dnf(&lut));
            }))
        } else {
            None
        };
        eprintln!(
            "[fig4] L={l}: D&C {}s DNF {}",
            sci(dc_s),
            dnf_s.map(sci).unwrap_or_else(|| "—".into())
        );
        pts.push(Fig4Point { l, dnf_s, dc_s });
    }
    pts
}

pub fn format_fig4(pts: &[Fig4Point]) -> String {
    let mut s = String::from("  L   D&C (Alg.1)      DNF baseline\n");
    for p in pts {
        s.push_str(&format!(
            " {:>2}   {:>12}    {:>12}\n",
            p.l,
            sci(p.dc_s),
            p.dnf_s.map(sci).unwrap_or_else(|| "(skipped)".into())
        ));
    }
    s
}

/// One Figure 6 point: UART compiled at a given L.
#[derive(Clone, Debug)]
pub struct Fig6Point {
    pub l: usize,
    pub layers: usize,
    pub connections: usize,
    /// measured serial single-stimulus forward time (the paper's CPU curve)
    pub cpu_s: f64,
    /// modeled parallel single-stimulus forward time (the paper's GPU curve)
    pub gpu_modeled_s: f64,
}
json_obj!(Fig6Point {
    l,
    layers,
    connections,
    cpu_s,
    gpu_modeled_s
});

/// Reproduce Figure 6 on the UART circuit.
pub fn fig6(ls: &[usize], budget: Duration) -> Vec<Fig6Point> {
    let nl = c2nn_circuits::uart();
    let gpu = DeviceModel::titan_x();
    let mut pts = Vec::new();
    for &l in ls {
        let nn = compile(&nl, paper(l)).expect("compile uart");
        let mut sim = Simulator::new(&nn, 1, Device::Serial);
        let x = Dense::<f32>::zeros(nn.num_primary_inputs, 1);
        let cpu_s = time_adaptive(budget, 3, || {
            sim.step(&x);
        });
        let gpu_modeled_s = gpu.cycle_seconds(&nn, 1);
        eprintln!(
            "[fig6] L={l}: layers={} conns={} cpu={} gpu(model)={}",
            nn.num_layers(),
            nn.connections(),
            sci(cpu_s),
            sci(gpu_modeled_s)
        );
        pts.push(Fig6Point {
            l,
            layers: nn.num_layers(),
            connections: nn.connections(),
            cpu_s,
            gpu_modeled_s,
        });
    }
    pts
}

pub fn format_fig6(pts: &[Fig6Point]) -> String {
    let mut s = String::from("  L  Layers  Connections   CPU time (meas.)   GPU time (modeled)\n");
    for p in pts {
        s.push_str(&format!(
            " {:>2}  {:>6}  {:>11}   {:>16}   {:>18}\n",
            p.l,
            p.layers,
            p.connections,
            sci(p.cpu_s),
            sci(p.gpu_modeled_s)
        ));
    }
    s.push_str("\nGPU-modeled time tracks layers (log scale):\n");
    let rows: Vec<(String, f64)> = pts
        .iter()
        .map(|p| {
            (
                format!("L={:<2} ({} layers)", p.l, p.layers),
                p.gpu_modeled_s,
            )
        })
        .collect();
    s.push_str(&crate::harness::log_bars(&rows, 48));
    s.push_str("\nCPU-measured time tracks connections (log scale):\n");
    let rows: Vec<(String, f64)> = pts
        .iter()
        .map(|p| (format!("L={:<2} ({} conns)", p.l, p.connections), p.cpu_s))
        .collect();
    s.push_str(&crate::harness::log_bars(&rows, 48));
    s
}

/// Ablation A1: layer merging on/off (Fig. 5 claim).
#[derive(Clone, Debug)]
pub struct MergeAblationRow {
    pub l: usize,
    pub layers_merged: usize,
    pub layers_unmerged: usize,
    pub cpu_merged_s: f64,
    pub cpu_unmerged_s: f64,
    pub gpu_modeled_merged_s: f64,
    pub gpu_modeled_unmerged_s: f64,
}
json_obj!(MergeAblationRow {
    l,
    layers_merged,
    layers_unmerged,
    cpu_merged_s,
    cpu_unmerged_s,
    gpu_modeled_merged_s,
    gpu_modeled_unmerged_s
});

pub fn ablate_merge(ls: &[usize], budget: Duration) -> Vec<MergeAblationRow> {
    let nl = c2nn_circuits::uart();
    let gpu = DeviceModel::titan_x();
    let mut rows = Vec::new();
    for &l in ls {
        let merged = compile(&nl, paper(l)).unwrap();
        let unmerged = compile(&nl, CompileOptions::with_l(l)).unwrap();
        let t = |nn: &CompiledNn<f32>| {
            let mut sim = Simulator::new(nn, 64, Device::Serial);
            let x = Dense::<f32>::zeros(nn.num_primary_inputs, 64);
            time_adaptive(budget, 3, || {
                sim.step(&x);
            })
        };
        rows.push(MergeAblationRow {
            l,
            layers_merged: merged.num_layers(),
            layers_unmerged: unmerged.num_layers(),
            cpu_merged_s: t(&merged),
            cpu_unmerged_s: t(&unmerged),
            gpu_modeled_merged_s: gpu.cycle_seconds(&merged, 1),
            gpu_modeled_unmerged_s: gpu.cycle_seconds(&unmerged, 1),
        });
    }
    rows
}

/// Ablation A3: throughput vs batch size (stimulus parallelism).
#[derive(Clone, Debug)]
pub struct BatchSweepPoint {
    pub batch: usize,
    pub measured_gcs: f64,
    pub modeled_gcs: f64,
}
json_obj!(BatchSweepPoint {
    batch,
    measured_gcs,
    modeled_gcs
});

pub fn batch_sweep(l: usize, batches: &[usize], budget: Duration) -> Vec<BatchSweepPoint> {
    let nl = c2nn_circuits::aes128();
    let nn = compile(&nl, paper(l)).unwrap();
    let gpu = DeviceModel::titan_x();
    batches
        .iter()
        .map(|&batch| {
            let meas = nn_measured_throughput(&nn, batch, budget);
            let p = BatchSweepPoint {
                batch,
                measured_gcs: meas.gcs(),
                modeled_gcs: gpu.throughput(&nn, batch),
            };
            eprintln!(
                "[batch-sweep] B={batch}: measured {} modeled {}",
                sci(p.measured_gcs),
                sci(p.modeled_gcs)
            );
            p
        })
        .collect()
}

/// Ablation A4: f32 vs i32 kernels (paper §V future work).
#[derive(Clone, Debug)]
pub struct DtypeRow {
    pub l: usize,
    pub f32_s: f64,
    pub i32_s: f64,
}
json_obj!(DtypeRow { l, f32_s, i32_s });

pub fn ablate_dtype(ls: &[usize], batch: usize, budget: Duration) -> Vec<DtypeRow> {
    let nl = c2nn_circuits::uart();
    ls.iter()
        .map(|&l| {
            let nf = compile(&nl, paper(l)).unwrap();
            let ni = compile_as::<i32>(&nl, paper(l)).unwrap();
            let mut sf = Simulator::new(&nf, batch, Device::Serial);
            let xf = Dense::<f32>::zeros(nf.num_primary_inputs, batch);
            let f32_s = time_adaptive(budget, 3, || {
                sf.step(&xf);
            });
            let mut si = Simulator::new(&ni, batch, Device::Serial);
            let xi = Dense::<i32>::zeros(ni.num_primary_inputs, batch);
            let i32_s = time_adaptive(budget, 3, || {
                si.step(&xi);
            });
            eprintln!("[dtype] L={l}: f32 {} i32 {}", sci(f32_s), sci(i32_s));
            DtypeRow { l, f32_s, i32_s }
        })
        .collect()
}

/// Ablation A2: sparse vs dense execution of one compiled layer set.
#[derive(Clone, Debug)]
pub struct SparseAblationRow {
    pub l: usize,
    pub sparsity: f64,
    pub sparse_s: f64,
    pub dense_s: f64,
}
json_obj!(SparseAblationRow {
    l,
    sparsity,
    sparse_s,
    dense_s
});

pub fn ablate_sparse(ls: &[usize], batch: usize, budget: Duration) -> Vec<SparseAblationRow> {
    use c2nn_tensor::{forward_dense, forward_sparse, Activation};
    let nl = c2nn_circuits::uart();
    ls.iter()
        .map(|&l| {
            let nn = compile(&nl, paper(l)).unwrap();
            // pick the widest layer
            let layer = nn.layers.iter().max_by_key(|ly| ly.weights.nnz()).unwrap();
            let x = Dense::<f32>::zeros(layer.in_width(), batch);
            let sparse_s = time_adaptive(budget, 3, || {
                std::hint::black_box(forward_sparse(
                    &layer.weights,
                    &layer.bias,
                    &x,
                    Activation::Threshold,
                    Device::Serial,
                ));
            });
            // densify
            let d = layer.weights.to_dense();
            let wd = Dense::from_vec(layer.out_width(), layer.in_width(), d);
            let dense_s = time_adaptive(budget, 1, || {
                std::hint::black_box(forward_dense(
                    &wd,
                    &layer.bias,
                    &x,
                    Activation::Threshold,
                    Device::Serial,
                ));
            });
            eprintln!(
                "[sparse] L={l}: sparsity {:.5} sparse {} dense {}",
                layer.weights.sparsity(),
                sci(sparse_s),
                sci(dense_s)
            );
            SparseAblationRow {
                l,
                sparsity: layer.weights.sparsity(),
                sparse_s,
                dense_s,
            }
        })
        .collect()
}

/// Ablation A5 (paper §V future work): the known-function shortcut for
/// wide gates, measured on reduction-tree circuits.
#[derive(Clone, Debug)]
pub struct WideGateRow {
    pub width: usize,
    pub layers_tree: usize,
    pub layers_wide: usize,
    pub conns_tree: usize,
    pub conns_wide: usize,
    pub gpu_modeled_tree_s: f64,
    pub gpu_modeled_wide_s: f64,
}
json_obj!(WideGateRow {
    width,
    layers_tree,
    layers_wide,
    conns_tree,
    conns_wide,
    gpu_modeled_tree_s,
    gpu_modeled_wide_s
});

pub fn ablate_wide(widths: &[usize]) -> Vec<WideGateRow> {
    use c2nn_netlist::NetlistBuilder;
    let gpu = DeviceModel::titan_x();
    widths
        .iter()
        .map(|&w| {
            let mut b = NetlistBuilder::new(format!("and{w}"));
            let x = b.input_word("x", w);
            let all = b.and_many(&x);
            let any = b.or_many(&x);
            let y = b.xor2(all, any);
            b.output(y, "y");
            let nl = b.finish().unwrap();
            let tree = compile(&nl, paper(3)).unwrap();
            let wide = compile(&nl, paper(3).with_wide_gates()).unwrap();
            let row = WideGateRow {
                width: w,
                layers_tree: tree.num_layers(),
                layers_wide: wide.num_layers(),
                conns_tree: tree.connections(),
                conns_wide: wide.connections(),
                gpu_modeled_tree_s: gpu.cycle_seconds(&tree, 1),
                gpu_modeled_wide_s: gpu.cycle_seconds(&wide, 1),
            };
            eprintln!(
                "[wide] n={w}: layers {}→{} conns {}→{}",
                row.layers_tree, row.layers_wide, row.conns_tree, row.conns_wide
            );
            row
        })
        .collect()
}

/// Guarded `try_step` vs unguarded `step` on UART at L = 5: one data row
/// of the `results/guard_overhead.md` table per batch width.
pub fn guard_overhead(budget: Duration) -> String {
    let nn = compile(&c2nn_circuits::uart(), paper(5)).unwrap();
    let mut rows = String::new();
    for batch in [1usize, 64, 256] {
        let x = Dense::<f32>::zeros(nn.num_primary_inputs, batch);
        let mut sim = Simulator::new(&nn, batch, Device::Serial);
        let plain_s = time_adaptive(budget, 3, || {
            std::hint::black_box(sim.step(&x));
        });
        sim.enable_guard();
        let guarded_s = time_adaptive(budget, 3, || {
            std::hint::black_box(sim.try_step(&x).expect("guard holds"));
        });
        rows.push_str(&format!(
            "| {batch:>11} | {:>11.1} µs   | {:>13.1} µs   | {:>5.2}×   |\n",
            plain_s * 1e6,
            guarded_s * 1e6,
            guarded_s / plain_s
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_points_monotone_ish() {
        // Expected DNF cost on random tables is Θ(3^L) vs Θ(2^L·L) for
        // Algorithm 1, so the separation is only unambiguous for larger L.
        let pts = fig4(12, 12, Duration::from_millis(5));
        let p = pts.iter().find(|p| p.l == 12).unwrap();
        assert!(
            p.dnf_s.unwrap() > 2.0 * p.dc_s,
            "DNF ({:?}) should clearly trail Algorithm 1 ({}) at L=12",
            p.dnf_s,
            p.dc_s
        );
    }

    #[test]
    fn refsim_throughput_positive() {
        let nl = c2nn_circuits::generators::counter(8);
        let t = refsim_throughput(&nl, Duration::from_millis(5));
        assert!(t.gcs() > 0.0);
    }

    #[test]
    fn table1_row_formatting() {
        let rows = vec![Table1Row {
            circuit: "AES".into(),
            gates: 9826,
            refsim_gcs: 1.4e8,
            l: 3,
            generation_s: 0.05,
            memory_mb: 1.2,
            connections_m: 0.11,
            layers: 13,
            mean_sparsity: 0.998,
            nn_measured_gcs: 2.5e8,
            nn_measured_speedup: 1.7,
            nn_modeled_gcs: 2.0e10,
            nn_modeled_speedup: 140.0,
        }];
        let s = format_table1(&rows);
        assert!(s.contains("AES"));
        assert!(s.contains("1.40E+08"));
    }
}
