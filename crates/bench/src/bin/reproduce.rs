//! Regenerate the paper's tables and figures (DESIGN.md §4).
//!
//! ```text
//! reproduce [--quick] [table1|fig4|fig6|ablate-merge|ablate-sparse|
//!            batch-sweep|ablate-wide|ablate-dtype|guard-overhead|all]
//! ```
//!
//! Results print as text tables and are also written to `results/*.json`
//! (`guard-overhead` rewrites the table inside `results/guard_overhead.md`).
//! `--quick` shrinks measurement budgets and sweep ranges for smoke runs.

use c2nn_bench::experiments::*;
use c2nn_bench::harness::sci;
use std::time::Duration;

fn save(path: &str, text: &str) {
    std::fs::create_dir_all("results").ok();
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn save_json<T: c2nn_json::ToJson>(name: &str, value: &T) {
    save(
        &format!("results/{name}.json"),
        &c2nn_json::to_string_pretty(value),
    );
}

/// Every experiment name `reproduce` accepts besides `all`.
const EXPERIMENTS: [&str; 9] = [
    "table1",
    "fig4",
    "fig6",
    "ablate-merge",
    "ablate-sparse",
    "batch-sweep",
    "ablate-wide",
    "ablate-dtype",
    "guard-overhead",
];

struct Cfg {
    budget: Duration,
    table1_ls: Vec<usize>,
    table1_batch: usize,
    fig4_max_dc: usize,
    fig4_max_dnf: usize,
    fig6_ls: Vec<usize>,
    sweep_batches: Vec<usize>,
}

impl Cfg {
    fn new(quick: bool) -> Self {
        if quick {
            Cfg {
                budget: Duration::from_millis(30),
                table1_ls: vec![3, 7],
                table1_batch: 32,
                fig4_max_dc: 12,
                fig4_max_dnf: 10,
                fig6_ls: vec![2, 3, 5, 7, 9, 11],
                sweep_batches: vec![1, 8, 64, 256],
            }
        } else {
            Cfg {
                budget: Duration::from_millis(300),
                table1_ls: vec![3, 7, 11],
                table1_batch: 64,
                fig4_max_dc: 16,
                fig4_max_dnf: 12,
                fig6_ls: vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                sweep_batches: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let cfg = Cfg::new(quick);
    let run_all = what == "all";
    if !run_all && !EXPERIMENTS.contains(&what.as_str()) {
        eprintln!(
            "unknown experiment '{what}'. Options: {} all (plus --quick)",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }

    if run_all || what == "table1" {
        println!("== Table I: circuits × L — compilation and throughput ==");
        let rows = table1(&cfg.table1_ls, cfg.table1_batch, cfg.budget);
        println!("{}", format_table1(&rows));
        save_json("table1", &rows);
    }
    if run_all || what == "fig4" {
        println!("== Figure 4: polynomial generation time, Algorithm 1 vs DNF ==");
        let pts = fig4(cfg.fig4_max_dc, cfg.fig4_max_dnf, cfg.budget);
        println!("{}", format_fig4(&pts));
        save_json("fig4", &pts);
    }
    if run_all || what == "fig6" {
        println!("== Figure 6: UART layers/connections and sim time vs L ==");
        let pts = fig6(&cfg.fig6_ls, cfg.budget);
        println!("{}", format_fig6(&pts));
        save_json("fig6", &pts);
    }
    if run_all || what == "ablate-merge" {
        println!("== Ablation A1: Fig. 5 layer merging ==");
        let rows = ablate_merge(&[3, 5, 7], cfg.budget);
        println!("  L  layers(merged/un)  cpu merged/unmerged (s)  gpu-model merged/unmerged (s)");
        for r in &rows {
            println!(
                " {:>2}  {:>6}/{:<6}  {:>10}/{:<10}  {:>10}/{:<10}",
                r.l,
                r.layers_merged,
                r.layers_unmerged,
                sci(r.cpu_merged_s),
                sci(r.cpu_unmerged_s),
                sci(r.gpu_modeled_merged_s),
                sci(r.gpu_modeled_unmerged_s)
            );
        }
        save_json("ablate_merge", &rows);
    }
    if run_all || what == "ablate-sparse" {
        println!("== Ablation A2: sparse vs dense kernels ==");
        let rows = ablate_sparse(&[3, 7], 64, cfg.budget);
        println!("  L  sparsity   sparse(s)    dense(s)    dense/sparse");
        for r in &rows {
            println!(
                " {:>2}  {:>8.5}  {:>10}  {:>10}  {:>10.1}",
                r.l,
                r.sparsity,
                sci(r.sparse_s),
                sci(r.dense_s),
                r.dense_s / r.sparse_s
            );
        }
        save_json("ablate_sparse", &rows);
    }
    if run_all || what == "batch-sweep" {
        println!("== Ablation A3: stimulus parallelism (AES, L=3) ==");
        let pts = batch_sweep(3, &cfg.sweep_batches, cfg.budget);
        println!("  batch   measured g*c/s   modeled-GPU g*c/s");
        for p in &pts {
            println!(
                " {:>6}   {:>14}   {:>17}",
                p.batch,
                sci(p.measured_gcs),
                sci(p.modeled_gcs)
            );
        }
        save_json("batch_sweep", &pts);
    }
    if run_all || what == "ablate-wide" {
        println!("== Ablation A5: §V known-function shortcut (AND/OR reduction + XOR) ==");
        let rows = ablate_wide(&[9, 16, 32, 64, 128]);
        println!("  width  layers tree/wide   conns tree/wide   gpu-model tree/wide (s)");
        for r in &rows {
            println!(
                " {:>6}  {:>6}/{:<6}  {:>8}/{:<8}  {:>10}/{:<10}",
                r.width,
                r.layers_tree,
                r.layers_wide,
                r.conns_tree,
                r.conns_wide,
                sci(r.gpu_modeled_tree_s),
                sci(r.gpu_modeled_wide_s)
            );
        }
        save_json("ablate_wide", &rows);
    }
    if run_all || what == "ablate-dtype" {
        println!("== Ablation A4: f32 vs i32 kernels (UART) ==");
        let rows = ablate_dtype(&[3, 7], 64, cfg.budget);
        println!("  L   f32 step (s)   i32 step (s)   f32/i32");
        for r in &rows {
            println!(
                " {:>2}   {:>12}   {:>12}   {:>7.2}",
                r.l,
                sci(r.f32_s),
                sci(r.i32_s),
                r.f32_s / r.i32_s
            );
        }
        save_json("ablate_dtype", &rows);
    }
    if run_all || what == "guard-overhead" {
        println!("== Guard overhead: unguarded step vs guarded try_step (UART, L=5) ==");
        let rows = guard_overhead(cfg.budget);
        print!("{rows}");
        // the note keeps its prose and table header; its data rows
        // ("|   1 | …") are replaced by the fresh ones
        let path = "results/guard_overhead.md";
        if let Ok(md) = std::fs::read_to_string(path) {
            let mut fresh = Some(rows);
            let spliced: String = md
                .split_inclusive('\n')
                .map(|line| {
                    if line.starts_with("|  ") {
                        fresh.take().unwrap_or_default()
                    } else {
                        line.to_string()
                    }
                })
                .collect();
            save(path, &spliced);
        }
    }
}
