//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! c2nn-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! c2nn-benchmark [all] [--trace 0|1] [--out FILE] [--quick]      every workload, one document
//! c2nn-benchmark repeat N [--trace 0|1]                          two alternating sets of N runs
//! c2nn-benchmark compare A.json B.json                           ratio of B over base A
//! ```

mod api;
mod metrics;
mod probes;
mod report;
mod stats;
mod stim;
mod trace;
mod workloads;

use report::{ChildArgs, Doc, Verdict};
use std::process::ExitCode;
use workloads::WORKLOADS;

/// How one workload is run.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: same code paths, the three small circuits only, one
    /// set-up, short probes.
    pub quick: bool,
    /// Flip one reference bit, to show that a wrong bit fails the run.
    pub flip_expected: bool,
    /// Where a traced run writes `trace-<workload>.json`.
    pub out_dir: String,
}

/// Documents and traces land here, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";

impl Options {
    /// Untimed run-in of the serving workloads before their window opens.
    pub fn warmup_s(&self) -> f64 {
        if self.quick {
            0.2
        } else {
            1.0
        }
    }
}

/// The measured window when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`), and under `--quick`.
const DEFAULT_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 1.0;

struct Cli {
    command: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    flip_expected: bool,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        flip_expected: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => cli.out = Some(value("--out")?),
            "--quick" => cli.quick = true,
            "--flip-expected" => cli.flip_expected = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => cli.command.push(word.to_string()),
        }
    }
    Ok(cli)
}

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    fn child_args(&self, seed: u64, traced: bool) -> ChildArgs {
        ChildArgs {
            seed,
            seconds: self.seconds(),
            traced,
            quick: self.quick,
        }
    }
}

/// One workload in this process; the result line goes last.
fn run_single(cli: &Cli, name: &str) -> Result<ExitCode, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let opts = Options {
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace.unwrap_or(false),
        quick: cli.quick,
        flip_expected: cli.flip_expected,
        out_dir: OUT_DIR.to_string(),
    };
    let outcome = workloads::run(w, &opts);
    let table = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    report::print_rows(w.name, &outcome, table);
    println!("{}", report::result_line(&outcome, table));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations failed or differed from refsim",
            w.name, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    })
}

/// Every workload (or the one named) untraced, then — unless `--trace 0`
/// — traced, each in a process of its own. Appends to `doc`.
fn run_set(cli: &Cli, seed: u64, doc: &mut Doc) -> Result<bool, String> {
    let mut ok = true;
    for traced in [false, true] {
        if traced && cli.trace == Some(false) {
            continue;
        }
        for w in WORKLOADS {
            if cli.workload.as_deref().is_some_and(|only| only != w.name) {
                continue;
            }
            println!("# {}: {}", w.name, w.why);
            let record = report::run_child(w.name, &cli.child_args(seed, traced))?;
            ok &= record.correct;
            doc.records.push(record);
        }
    }
    Ok(ok)
}

fn new_doc(cli: &Cli) -> Doc {
    Doc {
        host: report::host_fingerprint(),
        seconds: cli.seconds(),
        quick: cli.quick,
        records: Vec::new(),
    }
}

fn write_doc(doc: &Doc, path: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json()).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let mut doc = new_doc(cli);
    for (k, v) in &doc.host {
        println!("host {k} {v}");
    }
    let ok = run_set(cli, cli.seed, &mut doc)?;
    write_doc(
        &doc,
        cli.out
            .as_deref()
            .unwrap_or(&format!("{OUT_DIR}/bench.json")),
    )?;
    let (attempted, failed) = doc
        .records
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    println!("fail_share {failed} of {attempted} operations");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two sets of `n` runs of this same build, alternating, each run with
/// its own seed; then the comparison of set B with set A.
fn run_repeat(cli: &Cli, n: usize) -> Result<ExitCode, String> {
    let (mut a, mut b) = (new_doc(cli), new_doc(cli));
    let mut ok = true;
    for i in 0..n {
        let seed = cli.seed + i as u64;
        // alternate which set goes first, so drift hits both alike
        let order: [&mut Doc; 2] = if i % 2 == 0 {
            [&mut a, &mut b]
        } else {
            [&mut b, &mut a]
        };
        for doc in order {
            ok &= run_set(cli, seed, doc)?;
        }
    }
    let default_prefix = format!("{OUT_DIR}/repeat");
    let prefix = cli.out.as_deref().unwrap_or(&default_prefix);
    write_doc(&a, &format!("{prefix}-a.json"))?;
    write_doc(&b, &format!("{prefix}-b.json"))?;
    let rows = report::compare(&a, &b);
    report::print_comparison(&rows, "set-a", "set-b");
    let disagree = rows
        .iter()
        .filter(|c| {
            matches!(
                c.verdict,
                Verdict::Worse | Verdict::Better | Verdict::Unresolved | Verdict::ExactDiffers
            )
        })
        .count();
    println!(
        "{disagree} of {} rows disagree between the two sets",
        rows.len()
    );
    Ok(if ok && disagree == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Doc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Doc::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, doc) in [("a", &a), ("b", &b)] {
        let host: Vec<String> = doc.host.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("host {label}: {}", host.join("; "));
    }
    let rows = report::compare(&a, &b);
    report::print_comparison(&rows, "a", "b");
    let worse = rows
        .iter()
        .any(|c| matches!(c.verdict, Verdict::Worse | Verdict::ExactDiffers));
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(cli: &Cli) -> Result<ExitCode, String> {
    let command: Vec<&str> = cli.command.iter().map(String::as_str).collect();
    match (command.as_slice(), &cli.workload) {
        ([], Some(name)) => run_single(cli, name),
        ([] | ["all"], _) => run_all(cli),
        (["repeat", n], _) => {
            let n: usize = n.parse().map_err(|_| "repeat takes a count".to_string())?;
            if n == 0 {
                return Err("repeat takes a count of at least 1".into());
            }
            run_repeat(cli, n)
        }
        (["compare", a, b], _) => run_compare(a, b),
        _ => Err(format!("unknown command `{}`", command.join(" "))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use api::Json;
    use metrics::Metric;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        api::parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses")
    }

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no `{key}`"))
    }

    fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no `{key}`"))
    }

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn assert_lists(listed: &[Json], table: &[Metric], with_bound: bool) {
        let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
        let want: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        for (j, m) in listed.iter().zip(table) {
            assert!(legal_name(m.name), "{}", m.name);
            assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
            let better = if m.higher { "higher" } else { "lower" };
            assert_eq!(text(j, "better"), better, "{}", m.name);
            if with_bound {
                let bound = j.get("bound").and_then(Json::as_f64).expect("bound");
                assert_eq!(bound, m.bound, "{}", m.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_knows() {
        let j = benchmark_json();
        assert_lists(list(&j, "end_to_end"), metrics::END_TO_END, true);
        assert_lists(list(&j, "per_layer"), metrics::PER_LAYER, false);
        let workloads = list(&j, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, w) in workloads.iter().zip(WORKLOADS) {
            assert!(legal_name(w.name), "{}", w.name);
            assert_eq!(text(listed, "name"), w.name);
            assert_eq!(text(listed, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let seconds = j.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
        let mut all: Vec<&str> = metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used once");
    }

    fn smoke(name: &str, trace: bool, flip_expected: bool) -> workloads::Outcome {
        let opts = Options {
            seed: 1,
            seconds: 0.2,
            trace,
            quick: true,
            flip_expected,
            out_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/out").to_string(),
        };
        workloads::run(workloads::find(name).unwrap(), &opts)
    }

    /// The names a run emits are the table's, which are BENCHMARK.json's.
    #[test]
    fn runs_emit_exactly_the_listed_metrics() {
        for (trace, table) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
            let outcome = smoke("serve_floor", trace, false);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            let emitted: Vec<&str> = outcome.metrics.keys().copied().collect();
            let mut want: Vec<&str> = table.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(emitted, want);
            // also checks that every value is a finite number
            report::result_line(&outcome, table);
        }
    }

    #[test]
    fn one_flipped_reference_bit_fails_the_run() {
        assert_eq!(smoke("serve_floor", false, false).failed, 0);
        let flipped = smoke("serve_floor", false, true);
        assert!(
            flipped.failed >= 1,
            "a wrong bit must count as a failed operation"
        );
        assert!(
            flipped.failed < flipped.attempted,
            "only the flipped testbench fails"
        );
    }
}
