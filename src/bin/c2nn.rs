//! `c2nn` — command-line front door to the compiler.
//!
//! ```text
//! c2nn compile <file.v|.blif> --top <module> [--l <n>] [--wide] [--passes <list>] [--stats] [--out model.json]
//! c2nn stats   <file.v|.blif> --top <module> [--l <n>] [--wide] [--passes <list>] [--stats]
//! c2nn sim     <model.json> --cycles <n> [--batch <n>] [--backend <name>|auto] [--guard]
//! c2nn serve   <model.json>... [--addr host:port] [--max-batch <n>] [--max-wait-ms <n>] [--mem-mb <n>] [--max-inflight <n>] [--backend <name>|auto] [--chaos <spec>]
//! c2nn client  <addr> --model <name> --stim <tb.stim> [--clients <n>] [--repeat <n>] [--deadline-ms <n>] [--retries <n>] [--seed <n>]
//! c2nn trace   <file.v|.blif> --top <module> --cycles <n> [--out wave.vcd]
//! c2nn dot     <file.v|.blif> --top <module>
//! ```
//!
//! `.blif` inputs skip the Verilog frontend (`--top` then optional).

use c2nn::prelude::*;
use std::process::exit;

/// Write to stdout; a reader that went away (`c2nn sim … | head -1`) ends
/// the run quietly with status 0 instead of `println!`'s panic.
fn stdout_write(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0)
        }
        eprintln!("cannot write to stdout: {e}");
        exit(1)
    }
}

/// `print!` through [`stdout_write`].
macro_rules! out {
    ($($arg:tt)*) => { stdout_write(format_args!($($arg)*)) };
}

/// `println!` through [`stdout_write`].
macro_rules! outln {
    ($($arg:tt)*) => { stdout_write(format_args!("{}\n", format_args!($($arg)*))) };
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  c2nn compile <file.v|.blif> --top <module> [--l <n>] [--wide] [--passes <list>] [--stats] [--out model.json]\n  \
         c2nn stats   <file.v|.blif> --top <module> [--l <n>] [--wide] [--passes <list>] [--stats]\n  \
         (--passes: default fold,cse,dce; all adds the paper's Fig. 5 layer-merge (CSR engines only); none | comma list of fold,cse,dce,merge)\n  \
         c2nn sim     <model.json> --cycles <n> [--batch <n>] [--backend <name>|auto] [--guard]\n  \
         (--backend auto, the default: a built-in cost table picks per model and lane count; sim/bench print every candidate)\n  \
         c2nn bench   <model.json> <tb.stim>... [--backend <name>|auto] (batched testbenches)\n  \
         c2nn serve   <model.json>... [--addr host:port] [--wire any|json] [--max-batch <n>] [--max-wait-ms <n>] [--mem-mb <n>] [--max-inflight <n>] [--backend <name>|auto] [--chaos <spec>]\n  \
         (--chaos: seed=<n>,worker_panic=<p>,worker_panic_budget=<n>,stall=<p>,stall_ms=<n>,stall_budget=<n>)\n  \
         c2nn client  <addr> [--wire json|binary] [--ping | --stats | --metrics [--check] | --shutdown | --load <model.json> [--name <n>]]\n  \
         c2nn client  <addr> --model <name> --stim <tb.stim> [--wire json|binary] [--clients <n>] [--repeat <n>] [--deadline-ms <n>] [--retries <n>] [--seed <n>]\n  \
         c2nn client  <addr> --model <name> --stim <tb.stim> --rate <req/s> [--wire json|binary] [--connections <n>] [--duration-s <s>] [--deadline-ms <n>] [--json]\n  \
         c2nn trace   <file.v|.blif> --top <module> --cycles <n> [--out wave.vcd]\n  \
         c2nn dot     <file.v|.blif> --top <module>"
    );
    exit(2)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse an integer flag, exiting with a friendly usage error (status 2, the
/// same convention as [`usage`]) instead of panicking on garbage. `min`
/// rejects nonsensical values like `--batch 0`.
fn int_flag<T>(args: &[String], name: &str, default: T, min: T) -> T
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display + Copy,
{
    let Some(s) = flag(args, name) else {
        return default;
    };
    let v = s.parse::<T>().unwrap_or_else(|_| {
        eprintln!("error: {name} expects an integer, got `{s}`");
        exit(2)
    });
    if v < min {
        eprintln!("error: {name} must be at least {min}, got {v}");
        exit(2)
    }
    v
}

/// Parse `--backend`. Unknown names exit with the usage convention and list
/// the backends actually registered in the [`c2nn::hal::BackendRegistry`] —
/// the CLI never hard-codes backend names.
fn backend_flag(args: &[String]) -> c2nn::hal::Choice {
    let Some(s) = flag(args, "--backend") else {
        return c2nn::hal::Choice::Auto;
    };
    let choice = c2nn::hal::Choice::parse(&s);
    if let c2nn::hal::Choice::Named(name) = &choice {
        let registry = c2nn::hal::BackendRegistry::global();
        if registry.get(name).is_none() {
            eprintln!(
                "error: unknown backend `{name}`; available: {}, auto",
                registry.names().join(", ")
            );
            exit(2)
        }
    }
    choice
}

/// Resolve `--backend` for a run of `lanes` testbenches against the
/// built-in cost table and say which engine won and what every candidate
/// was predicted at — the one path `sim` and `bench` both take to an
/// admitted plan. The pick depends on the model and `lanes` only.
fn select_backend(
    file: &str,
    nn: CompiledNn<f32>,
    choice: &c2nn::hal::Choice,
    lanes: usize,
) -> c2nn::hal::Selection {
    let table = c2nn::hal::DeviceCalibration::default_host(c2nn::tensor::Pool::global().threads());
    let selection = c2nn::hal::BackendRegistry::global()
        .select(&std::sync::Arc::new(nn), choice, &table, lanes)
        .unwrap_or_else(|e| {
            eprintln!("{file}: {e}");
            exit(1)
        });
    outln!(
        "backend   : {}{}",
        selection.backend,
        if selection.auto {
            " (selected by cost model)"
        } else {
            ""
        }
    );
    if selection.auto {
        for c in &selection.candidates {
            let fate = match (c.predicted_lane_cps, &c.skipped) {
                (Some(cps), _) => format!("{cps:.3e} lane-cycles/s"),
                (None, why) => format!("skipped — {}", why.as_deref().unwrap_or("not priced")),
            };
            outln!("  {:<10}: {fate}", c.backend);
        }
    }
    if let Some(cps) = selection.predicted_lane_cps {
        outln!("predicted : {cps:.3e} lane-cycles/s");
    }
    selection
}

/// Load and validate a model file, turning every defect — unreadable file,
/// bad JSON, corrupt CSR, failed validation — into a friendly diagnostic.
fn load_model(path: &str) -> CompiledNn<f32> {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    CompiledNn::<f32>::from_json_str(&json).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1)
    })
}

fn load_netlist(path: &str, top: Option<&str>) -> Netlist {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    if path.ends_with(".blif") {
        return c2nn::netlist::from_blif(&src).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(1)
        });
    }
    let top = top.unwrap_or_else(|| {
        eprintln!("--top <module> is required for Verilog input");
        exit(2)
    });
    c2nn::verilog::compile(&src, top).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "compile" | "stats" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let top = flag(&args, "--top");
            let l: usize = int_flag(&args, "--l", 7, 2);
            let nl = load_netlist(file, top.as_deref());
            let mut opts = CompileOptions::with_l(l);
            if args.iter().any(|a| a == "--wide") {
                opts = opts.with_wide_gates();
            }
            if let Some(spec) = flag(&args, "--passes") {
                opts = opts.with_passes(PassSet::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("error: --passes: {e}");
                    exit(2)
                }));
            }
            let t0 = std::time::Instant::now();
            let (nn, report) = compile_with_report::<f32>(&nl, opts).unwrap_or_else(|e| {
                eprintln!("compile error: {e}");
                exit(1)
            });
            let gen = t0.elapsed().as_secs_f64();
            outln!("circuit   : {} ({file})", nl.name);
            outln!(
                "gates     : {} (+{} flip-flops)",
                nl.gates.len(),
                nl.flipflops.len()
            );
            outln!("L         : {l}");
            outln!("gen time  : {gen:.3} s");
            outln!("layers    : {}", nn.num_layers());
            outln!("connections: {}", nn.connections());
            outln!("memory    : {:.2} MB", nn.memory_bytes() as f64 / 1e6);
            outln!("sparsity  : {:.5}", nn.mean_sparsity());
            if args.iter().any(|a| a == "--stats") {
                outln!("\nper-pass compile report:");
                out!("{}", report.to_table());
                // what the passes bought the bit-plane engine, in its unit
                outln!("\nbit-plane program:");
                match c2nn::core::BitplaneNn::from_compiled(&nn) {
                    Ok(program) => {
                        let c = program.op_census();
                        outln!("  levels    : {}", program.levels());
                        outln!(
                            "  ops       : {} (and {}, nand {}, or {}, nor {}, xor {}, not {}, const {})",
                            c.total(), c.ands, c.nands, c.ors, c.nors, c.xors, c.nots, c.consts
                        );
                        outln!(
                            "  word-ops  : {} modelled per 64 lanes per cycle",
                            program.modeled_word_ops()
                        );
                        outln!(
                            "  planes    : {} in the plane file, one word each per 64 lanes",
                            program.planes()
                        );
                    }
                    Err(e) => outln!("  refused   : {e}"),
                }
            }
            if cmd == "compile" {
                if let Err(e) = nn.validate() {
                    eprintln!("compiled model failed validation (compiler bug?): {e}");
                    exit(1)
                }
                let out = flag(&args, "--out").unwrap_or_else(|| "model.json".into());
                std::fs::write(&out, nn.to_json_string()).unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(1)
                });
                outln!("model written to {out}");
            }
        }
        "bench" => {
            // c2nn bench <model.json> <tb1.stim> [<tb2.stim> ...]
            let file = args.get(1).unwrap_or_else(|| usage());
            let choice = backend_flag(&args);
            let nn = load_model(file);
            // everything after the model that is neither a flag nor the
            // value of `--backend` is a testbench
            let tb_files: Vec<&String> = (2..args.len())
                .filter(|&i| !args[i].starts_with("--") && args[i - 1] != "--backend")
                .map(|i| &args[i])
                .collect();
            if tb_files.is_empty() {
                eprintln!("no .stim testbenches given");
                exit(2)
            }
            let benches: Vec<c2nn::core::Stimulus> = tb_files
                .iter()
                .map(|f| {
                    let text = std::fs::read_to_string(f).unwrap_or_else(|e| {
                        eprintln!("cannot read {f}: {e}");
                        exit(1)
                    });
                    c2nn::core::parse_stim(&text, nn.num_primary_inputs).unwrap_or_else(|e| {
                        eprintln!("{f}: {e}");
                        exit(1)
                    })
                })
                .collect();
            let selection = select_backend(file, nn, &choice, benches.len());
            let t0 = std::time::Instant::now();
            let results = selection.plan.execute_batch(&benches).unwrap_or_else(|e| {
                eprintln!("simulation failed: {e}");
                exit(1)
            });
            let dt = t0.elapsed().as_secs_f64();
            let total_cycles: usize = benches.iter().map(|b| b.cycles.len()).sum();
            outln!(
                "{} testbenches, {total_cycles} total cycles, one batched simulation in {dt:.3}s",
                benches.len()
            );
            for (f, r) in tb_files.iter().zip(&results) {
                let last = r.cycles.last().map(|c| c2nn::core::bits_to_text(c));
                outln!(
                    "  {f}: {} cycles, final outputs {}",
                    r.cycles.len(),
                    last.unwrap_or_default()
                );
            }
        }
        "sim" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let cycles: u64 = int_flag(&args, "--cycles", 16, 1);
            let batch: usize = int_flag(&args, "--batch", 1, 1);
            let guard = args.iter().any(|a| a == "--guard");
            let choice = backend_flag(&args);
            let nn = load_model(file);
            if guard {
                // the numeric-integrity guard instruments the float
                // simulator directly, bypassing backend selection
                let mut sim = Simulator::new(&nn, batch, Device::Serial);
                sim.enable_guard();
                let zeros = Dense::<f32>::zeros(nn.num_primary_inputs, batch);
                let t0 = std::time::Instant::now();
                let mut last = None;
                for _ in 0..cycles {
                    last = Some(sim.try_step(&zeros).unwrap_or_else(|e| {
                        eprintln!("guard tripped at cycle {}: {e}", sim.cycles());
                        exit(1)
                    }));
                }
                let dt = t0.elapsed().as_secs_f64();
                outln!(
                    "{cycles} cycles × {batch} lanes (guarded scalar) in {dt:.3}s — {:.3e} gates·cycles/s",
                    nn.gate_count as f64 * cycles as f64 * batch as f64 / dt
                );
                if let Some(out) = last {
                    let word = c2nn::core::bits_to_text(&out.to_lanes()[0]);
                    outln!("lane 0 outputs after final cycle: {word}");
                }
                return;
            }
            let selection = select_backend(file, nn, &choice, batch);
            let nn = selection.plan.nn();
            let stim = c2nn::core::Stimulus {
                cycles: vec![vec![false; nn.num_primary_inputs]; cycles as usize],
            };
            let stims = vec![stim; batch];
            let t0 = std::time::Instant::now();
            let results = selection.plan.execute_batch(&stims).unwrap_or_else(|e| {
                eprintln!("simulation failed: {e}");
                exit(1)
            });
            let dt = t0.elapsed().as_secs_f64();
            outln!(
                "{cycles} cycles × {batch} lanes in {dt:.3}s — {:.3e} gates·cycles/s",
                nn.gate_count as f64 * cycles as f64 * batch as f64 / dt
            );
            if let Some(last) = results.first().and_then(|r| r.cycles.last()) {
                let word = c2nn::core::bits_to_text(last);
                outln!("lane 0 outputs after final cycle: {word}");
            }
        }
        "serve" => {
            // c2nn serve <model.json>... — each model registered under its
            // file stem
            use c2nn::serve::{spawn_server, BatchConfig, RegistryConfig, ServerConfig};
            let model_files: Vec<&String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            if model_files.is_empty() {
                eprintln!("no model files given");
                exit(2)
            }
            let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".into());
            let max_batch: usize = int_flag(&args, "--max-batch", 64, 1);
            let max_wait_ms: u64 = int_flag(&args, "--max-wait-ms", 2, 0);
            let mem_mb: usize = int_flag(&args, "--mem-mb", 512, 1);
            let max_inflight: usize = int_flag(&args, "--max-inflight", 1024, 1);
            let wire: c2nn::serve::WirePolicy = flag(&args, "--wire")
                .map(|s| {
                    s.parse().unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        exit(2)
                    })
                })
                .unwrap_or_default();
            let backend = backend_flag(&args);
            let chaos = flag(&args, "--chaos").map(|spec| {
                let cfg = c2nn::serve::ChaosConfig::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(2)
                });
                eprintln!("CHAOS ARMED: {cfg:?} — this server will inject faults on purpose");
                c2nn::serve::Chaos::new(cfg)
            });
            let cfg = ServerConfig {
                addr,
                registry: RegistryConfig {
                    byte_budget: mem_mb << 20,
                    batch: BatchConfig {
                        max_batch,
                        max_wait: std::time::Duration::from_millis(max_wait_ms),
                        backend: backend.clone(),
                    },
                    max_inflight,
                    chaos,
                    ..RegistryConfig::default()
                },
                wire,
                ..ServerConfig::default()
            };
            let server = spawn_server(cfg).unwrap_or_else(|e| {
                eprintln!("cannot start server: {e}");
                exit(1)
            });
            for file in &model_files {
                let name = std::path::Path::new(file.as_str())
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(file)
                    .to_string();
                let nn = load_model(file);
                let model = server.registry().install(&name, nn).unwrap_or_else(|e| {
                    eprintln!("{file}: {e}");
                    exit(1)
                });
                outln!(
                    "loaded {name} ({:.2} MB) from {file} — backend {}{}",
                    model.bytes as f64 / 1e6,
                    model.backend,
                    if model.auto_selected {
                        " (selected by cost model)"
                    } else {
                        ""
                    }
                );
            }
            c2nn::serve::signal::install_sigint_handler();
            outln!(
                "serving on {} (wire {wire:?}, backend {backend}, max_batch {max_batch}, max_wait {max_wait_ms}ms, max_inflight {max_inflight}) — Ctrl-C or a `shutdown` request stops it",
                server.local_addr()
            );
            server.join();
            outln!("server stopped");
        }
        "client" => {
            use c2nn::serve::{Client, WireFormat};
            let addr = args.get(1).unwrap_or_else(|| usage()).clone();
            let wire: WireFormat = flag(&args, "--wire")
                .map(|s| {
                    s.parse().unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        exit(2)
                    })
                })
                .unwrap_or_default();
            let connect = |what: &str| -> Client {
                Client::connect_wire(&addr, wire).unwrap_or_else(|e| {
                    eprintln!("cannot connect to {addr} for {what}: {e}");
                    exit(1)
                })
            };
            if args.iter().any(|a| a == "--ping") {
                let version = connect("ping").ping().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(1)
                });
                outln!("pong (protocol v{version})");
            } else if args.iter().any(|a| a == "--stats") {
                let stats = connect("stats").stats().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(1)
                });
                for m in &stats.models {
                    outln!(
                        "{} [{}{}]: {} requests, {} batches, occupancy {:.2}, queue {}, p50 {}us, p99 {}us, {} deadline-exceeded, {:.2} MB",
                        m.name, m.backend, if m.auto_selected { ", auto" } else { "" },
                        m.requests, m.batches, m.mean_occupancy,
                        m.queue_depth, m.p50_us, m.p99_us, m.deadline_exceeded,
                        m.bytes as f64 / 1e6
                    );
                }
                for b in &stats.server.backends {
                    outln!(
                        "backend {}: {} models ({} auto-selected), {} requests",
                        b.backend,
                        b.models,
                        b.auto_selected,
                        b.requests
                    );
                }
                let s = &stats.server;
                outln!(
                    "server: {}/{} in flight, pressure {}, draining {}, rejected {} sims / {} loads / {} draining, {} poisoned pool epochs, {} chaos injections",
                    s.inflight, s.max_inflight, s.pressure, s.draining,
                    s.rejected_sims, s.rejected_loads, s.rejected_draining,
                    s.pool_poisoned_epochs, s.chaos_injected
                );
            } else if args.iter().any(|a| a == "--metrics") {
                // scrape the Prometheus endpoint over plain HTTP/1.1;
                // --check additionally validates the exposition shape
                let body = c2nn::serve::client::fetch_metrics(&addr).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(1)
                });
                out!("{body}");
                if args.iter().any(|a| a == "--check") {
                    if let Err(e) = c2nn::serve::metrics::validate_exposition(&body) {
                        eprintln!("metrics validation FAILED: {e}");
                        exit(1)
                    }
                    eprintln!("metrics validation OK");
                }
            } else if args.iter().any(|a| a == "--shutdown") {
                connect("shutdown").shutdown().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(1)
                });
                outln!("server is shutting down");
            } else if let Some(file) = flag(&args, "--load") {
                let name = flag(&args, "--name").unwrap_or_else(|| {
                    std::path::Path::new(&file)
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or(&file)
                        .to_string()
                });
                let json = std::fs::read_to_string(&file).unwrap_or_else(|e| {
                    eprintln!("cannot read {file}: {e}");
                    exit(1)
                });
                let bytes = connect("load").load(&name, &json).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(1)
                });
                outln!("loaded {name} ({:.2} MB)", bytes as f64 / 1e6);
            } else {
                // simulate: one-shot, or a load generator with --clients
                let model = flag(&args, "--model").unwrap_or_else(|| usage());
                let stim_file = flag(&args, "--stim").unwrap_or_else(|| usage());
                let stim = std::fs::read_to_string(&stim_file).unwrap_or_else(|e| {
                    eprintln!("cannot read {stim_file}: {e}");
                    exit(1)
                });
                let clients: usize = int_flag(&args, "--clients", 1, 1);
                let repeat: usize = int_flag(&args, "--repeat", 1, 1);
                let deadline_ms: Option<u64> = flag(&args, "--deadline-ms")
                    .map(|_| int_flag(&args, "--deadline-ms", 0u64, 1u64));
                let max_retries: u32 = int_flag(&args, "--retries", 8, 0);
                let seed: u64 = int_flag(&args, "--seed", 0, 0);
                if let Some(rate) = flag(&args, "--rate") {
                    // open-loop load generation: arrivals on a fixed
                    // schedule at --rate req/s, latency measured from the
                    // scheduled time (no coordinated omission)
                    let rate: f64 = rate.parse().unwrap_or_else(|_| {
                        eprintln!("--rate must be a number (req/s)");
                        exit(2)
                    });
                    let connections: usize = int_flag(&args, "--connections", 64, 1);
                    let duration_s: u64 = int_flag(&args, "--duration-s", 10, 1);
                    let report = c2nn::serve::loadgen::run(&c2nn::serve::LoadgenConfig {
                        addr: addr.clone(),
                        model,
                        stim,
                        connections,
                        rate,
                        duration: std::time::Duration::from_secs(duration_s),
                        deadline_ms,
                        max_retries,
                        seed,
                        wire,
                    });
                    if args.iter().any(|a| a == "--json") {
                        outln!(
                            "{}",
                            c2nn::json::ToJson::to_json(&report).to_string_pretty()
                        );
                    } else {
                        outln!(
                            "open loop: {} sent over {} conns in {:.2}s — {:.1} req/s ok ({} ok, {} overloaded, {} deadline, {} shutdown, {} failed)",
                            report.sent, connections, report.elapsed_s, report.req_per_s,
                            report.ok, report.overloaded, report.deadline_exceeded,
                            report.shutting_down, report.failed
                        );
                        outln!(
                            "latency from scheduled arrival: p50 {}us p90 {}us p99 {}us max {}us",
                            report.p50_us,
                            report.p90_us,
                            report.p99_us,
                            report.max_us
                        );
                    }
                    if report.failed > 0 {
                        exit(1)
                    }
                } else if clients == 1 && repeat == 1 {
                    let outputs = connect("sim")
                        .sim_with_deadline(&model, &stim, deadline_ms)
                        .unwrap_or_else(|e| {
                            eprintln!("error: {e}");
                            exit(1)
                        });
                    outln!("outputs: {}", outputs.join(" "));
                } else {
                    // load generator: `clients` connections in parallel,
                    // each sending the testbench `repeat` times; transient
                    // failures (overload, connection races) retry under
                    // capped jittered exponential backoff, deterministic
                    // per --seed
                    use c2nn::serve::{Backoff, ClientError};
                    use std::time::Duration;
                    let before = connect("stats").stats().ok();
                    let t0 = std::time::Instant::now();
                    let handles: Vec<_> = (0..clients)
                        .map(|i| {
                            let addr = addr.clone();
                            let model = model.clone();
                            let stim = stim.clone();
                            std::thread::spawn(move || {
                                // decorrelate threads without losing
                                // determinism: each gets its own stream
                                let mut backoff = Backoff::new(
                                    seed.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15)),
                                    Duration::from_millis(5),
                                    Duration::from_millis(500),
                                );
                                let (mut ok, mut failed, mut retries) = (0usize, 0usize, 0usize);
                                let mut conn: Option<Client> = None;
                                for _ in 0..repeat {
                                    let mut left = max_retries;
                                    loop {
                                        if conn.is_none() {
                                            match Client::connect_wire(&addr, wire) {
                                                Ok(c) => conn = Some(c),
                                                Err(e) if e.is_transient() && left > 0 => {
                                                    left -= 1;
                                                    retries += 1;
                                                    std::thread::sleep(
                                                        backoff.next_delay(e.retry_after()),
                                                    );
                                                    continue;
                                                }
                                                Err(_) => {
                                                    failed += 1;
                                                    break;
                                                }
                                            }
                                        }
                                        let c = conn.as_mut().expect("connected above");
                                        match c.sim_with_deadline(&model, &stim, deadline_ms) {
                                            Ok(_) => {
                                                ok += 1;
                                                backoff.reset();
                                                break;
                                            }
                                            Err(e) if e.is_transient() && left > 0 => {
                                                left -= 1;
                                                retries += 1;
                                                if matches!(e, ClientError::Io(_)) {
                                                    conn = None; // connection is gone
                                                }
                                                std::thread::sleep(
                                                    backoff.next_delay(e.retry_after()),
                                                );
                                            }
                                            Err(_) => {
                                                failed += 1;
                                                break;
                                            }
                                        }
                                    }
                                }
                                (ok, failed, retries)
                            })
                        })
                        .collect();
                    let (mut ok, mut failures, mut retries) = (0usize, 0usize, 0usize);
                    for h in handles {
                        match h.join() {
                            Ok((o, f, r)) => {
                                ok += o;
                                failures += f;
                                retries += r;
                            }
                            Err(_) => failures += repeat,
                        }
                    }
                    let dt = t0.elapsed().as_secs_f64();
                    let total = clients * repeat;
                    outln!(
                        "{total} requests from {clients} clients in {dt:.3}s — {:.1} req/s ({ok} ok, {failures} failed, {retries} retries)",
                        ok as f64 / dt
                    );
                    if let (Some(before), Ok(after)) = (before, connect("stats").stats()) {
                        let find = |list: &[c2nn::serve::ModelStatsReport]| {
                            list.iter()
                                .find(|m| m.name == model)
                                .map(|m| (m.lanes, m.batches))
                                .unwrap_or((0, 0))
                        };
                        let (l0, b0) = find(&before.models);
                        let (l1, b1) = find(&after.models);
                        if b1 > b0 {
                            outln!(
                                "mean batch occupancy over this run: {:.2} lanes/batch",
                                (l1 - l0) as f64 / (b1 - b0) as f64
                            );
                        }
                        let (s0, s1) = (&before.server, &after.server);
                        let shed = (s1.rejected_sims - s0.rejected_sims)
                            + (s1.rejected_draining - s0.rejected_draining);
                        if shed > 0 {
                            outln!(
                                "server shed {shed} requests with typed rejections during this run"
                            );
                        }
                    }
                    if failures > 0 {
                        exit(1)
                    }
                }
            }
        }
        "trace" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let top = flag(&args, "--top");
            let cycles: usize = int_flag(&args, "--cycles", 32, 1);
            let out = flag(&args, "--out").unwrap_or_else(|| "wave.vcd".into());
            let nl = load_netlist(file, top.as_deref());
            // free-running trace with a simple walking-ones stimulus
            let n_in = nl.inputs.len();
            let stimuli: Vec<Vec<bool>> = (0..cycles)
                .map(|c| {
                    (0..n_in)
                        .map(|j| n_in != 0 && c % (n_in + 1) == j)
                        .collect()
                })
                .collect();
            let rec = c2nn::refsim::trace_run(&nl, &stimuli).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1)
            });
            rec.write_to(&out).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1)
            });
            outln!("{cycles} cycles traced to {out} (view with GTKWave)");
        }
        "dot" => {
            let file = args.get(1).unwrap_or_else(|| usage());
            let top = flag(&args, "--top");
            let nl = load_netlist(file, top.as_deref());
            out!("{}", c2nn::netlist::to_dot(&nl));
        }
        _ => usage(),
    }
}
