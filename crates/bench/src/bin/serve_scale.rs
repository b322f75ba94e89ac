//! Serving scale bench + gate (CI): sweep closed-loop client counts against
//! the event-loop server, probe past saturation, scrape `/metrics`, write
//! `results/BENCH_serve_scale.json`, and **fail** (exit 1) if throughput
//! stops scaling with client count, if overload sheds anything untyped, or
//! if the metrics exposition is malformed.
//!
//! ```text
//! serve_scale [--levels 1,2,4,8,16,32,64] [--duration-ms N] [--max-wait-ms N]
//!             [--min-scaling X] [--out PATH]
//! ```

use c2nn_bench::serve_scale::run_scale;
use std::time::Duration;

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let levels_spec = args
        .iter()
        .position(|a| a == "--levels")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "1,2,4,8,16,32,64".to_string());
    let levels: Vec<usize> = levels_spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("--levels takes a comma list of client counts")
        })
        .collect();
    let duration_ms: u64 = flag(&args, "--duration-ms", 500);
    let max_wait_ms: u64 = flag(&args, "--max-wait-ms", 2);
    let min_scaling: f64 = flag(&args, "--min-scaling", 10.0);
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_serve_scale.json".to_string());

    eprintln!(
        "serve_scale: levels {levels:?}, {duration_ms}ms per level, max_wait {max_wait_ms}ms"
    );
    let report = run_scale(
        &levels,
        Duration::from_millis(duration_ms),
        Duration::from_millis(max_wait_ms),
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write(&out, c2nn_json::to_string_pretty(&report)).expect("write results");
    eprintln!("wrote {out}");

    let mut failed = false;
    eprintln!(
        "scaling 1 -> {} clients: {:.1}x (gate: >= {min_scaling:.1}x)",
        levels.iter().max().unwrap_or(&1),
        report.scaling
    );
    if report.scaling < min_scaling {
        eprintln!("FAIL: batching must let throughput scale with client count");
        failed = true;
    }
    if report.overload.failed > 0 {
        eprintln!(
            "FAIL: {} untyped failures past saturation — overload must shed with typed replies",
            report.overload.failed
        );
        failed = true;
    }
    if report.overload.overloaded + report.overload.deadline_exceeded == 0
        && report.overload.ok < report.overload.sent
    {
        eprintln!("FAIL: unserved overload requests vanished without a typed rejection");
        failed = true;
    }
    if !report.metrics_valid {
        eprintln!("FAIL: /metrics scrape did not validate");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
