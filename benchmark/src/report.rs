//! Everything the benchmark prints or writes: the result line of one run,
//! the `all` document with its host fingerprint, and the `compare` /
//! `repeat` tables.

use crate::api::{self, Json};
use crate::metrics::{self, Metric};
use crate::stats;
use crate::workloads::{Outcome, WORKLOADS};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Numbers are printed with all the digits they have (`{}` on an `f64` is
/// the shortest text that reads back to the same value).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "a metric is not a finite number: {v}");
    format!("{v}")
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of a single run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every metric of `table`.
pub fn result_line(outcome: &Outcome, table: &[Metric]) -> String {
    assert_eq!(
        outcome.metrics.len(),
        table.len(),
        "a run reports every metric of its table and no other"
    );
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let v = outcome.metrics[m.name];
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(v),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The `workload metric value unit [note]` lines of a single run.
pub fn print_rows(workload: &str, outcome: &Outcome, table: &[Metric]) {
    for m in table {
        println!(
            "{workload} {} {} {}",
            m.name,
            num(outcome.metrics[m.name]),
            m.unit
        );
    }
    for r in &outcome.rows {
        println!(
            "{workload} {} {} {} {}",
            r.metric,
            num(r.value),
            r.unit,
            r.note
        );
    }
}

// --- documents -------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

/// One run of one workload as `all` and `repeat` record it.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the whole process, set-up and checks included.
    pub wall_s: f64,
    pub metrics: Vec<Value>,
    pub rows: Vec<Value>,
}

pub struct Doc {
    pub host: Vec<(String, String)>,
    pub seconds: f64,
    pub quick: bool,
    pub records: Vec<Record>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers come from. They are from a small shared box: say so.
pub fn host_fingerprint() -> Vec<(String, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("cores".into(), cores.to_string()),
        (
            "C2NN_THREADS".into(),
            std::env::var("C2NN_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("pool_threads".into(), api::pool_threads().to_string()),
        ("rustc".into(), command_line("rustc", &["-V"])),
        (
            "git_revision".into(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
        ("cpu_model".into(), cpu_model),
        ("calibration".into(), api::calibration_label()),
    ]
}

fn values_json(values: &[Value]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"note\":{}}}",
                quote(&v.name),
                num(v.value),
                quote(&v.unit),
                quote(&v.note)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

impl Doc {
    pub fn to_json(&self) -> String {
        let host: Vec<String> = self
            .host
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        let records: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "{{\"workload\":{},\"seed\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"wall_s\":{},\n  \"metrics\":{},\n  \"rows\":{}}}",
                    quote(&r.workload),
                    r.seed,
                    r.traced,
                    r.correct,
                    r.attempted,
                    r.failed,
                    num(r.wall_s),
                    values_json(&r.metrics),
                    values_json(&r.rows)
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"c2nn-benchmark/1\",\n\"host\":{{{}}},\n\"seconds\":{},\"quick\":{},\n\"records\":[\n{}\n]}}\n",
            host.join(","),
            num(self.seconds),
            self.quick,
            records.join(",\n")
        )
    }

    pub fn from_json(text: &str) -> Result<Doc, String> {
        let j = api::parse_json(text)?;
        let str_of = |j: &Json, k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{k}`"))
        };
        let num_of = |j: &Json, k: &str| -> Result<f64, String> {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number `{k}`"))
        };
        let bool_of = |j: &Json, k: &str| -> Result<bool, String> {
            j.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("missing flag `{k}`"))
        };
        let list_of = |j: &Json, k: &str| -> Result<Vec<Value>, String> {
            j.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing list `{k}`"))?
                .iter()
                .map(|v| {
                    Ok(Value {
                        name: str_of(v, "name")?,
                        value: num_of(v, "value")?,
                        unit: str_of(v, "unit")?,
                        note: str_of(v, "note")?,
                    })
                })
                .collect()
        };
        let host = match j.get("host") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                .collect(),
            _ => return Err("missing object `host`".into()),
        };
        let records = j
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing list `records`")?
            .iter()
            .map(|r| {
                Ok(Record {
                    workload: str_of(r, "workload")?,
                    seed: num_of(r, "seed")? as u64,
                    traced: bool_of(r, "traced")?,
                    correct: bool_of(r, "correct")?,
                    attempted: num_of(r, "attempted")? as u64,
                    failed: num_of(r, "failed")? as u64,
                    wall_s: num_of(r, "wall_s")?,
                    metrics: list_of(r, "metrics")?,
                    rows: list_of(r, "rows")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Doc {
            host,
            seconds: num_of(&j, "seconds")?,
            quick: bool_of(&j, "quick")?,
            records,
        })
    }
}

/// Parse the result line of a run back into its parts.
fn parse_result_line(line: &str) -> Result<(bool, u64, u64, Vec<Value>), String> {
    let j = api::parse_json(line)?;
    let correct = j
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("no `correct`")?;
    let attempted = j
        .get("attempted")
        .and_then(Json::as_f64)
        .ok_or("no `attempted`")?;
    let failed = j
        .get("failed")
        .and_then(Json::as_f64)
        .ok_or("no `failed`")?;
    let metrics = match j.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, v)| {
                Ok(Value {
                    name: name.clone(),
                    value: v.get("value").and_then(Json::as_f64).ok_or("no `value`")?,
                    unit: v
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or("no `unit`")?
                        .to_string(),
                    note: String::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("no `metrics`".into()),
    };
    Ok((correct, attempted as u64, failed as u64, metrics))
}

/// What a child run is told; mirrors the single-run flags.
pub struct ChildArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// Run one workload in a process of its own (so `peak_rss_mb` is its
/// own), echo its rows, and parse its result line.
pub fn run_child(workload: &str, args: &ChildArgs) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let t0 = Instant::now();
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output ({})", out.status))?;
    let (correct, attempted, failed, metrics) =
        parse_result_line(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let mut rows = Vec::new();
    for line in lines {
        println!("{line}");
        let mut parts = line.splitn(5, ' ');
        if let (Some(w), Some(name), Some(value), Some(unit)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        {
            let declared = metrics.iter().any(|m| m.name == name);
            if let (true, false, Ok(value)) = (w == workload, declared, value.parse::<f64>()) {
                rows.push(Value {
                    name: name.to_string(),
                    value,
                    unit: unit.to_string(),
                    note: parts.next().unwrap_or("").to_string(),
                });
            }
        }
    }
    if !out.status.success() && correct {
        return Err(format!("{workload}: exited with {}", out.status));
    }
    Ok(Record {
        workload: workload.to_string(),
        seed: args.seed,
        traced: args.traced,
        correct,
        attempted,
        failed,
        wall_s,
        metrics,
        rows,
    })
}

// --- compare ---------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the bound.
    Within,
    Worse,
    Better,
    /// The run-to-run spread exceeds the bound: nothing can be said.
    Unresolved,
    ExactSame,
    ExactDiffers,
    /// A per-layer number: reported, not judged.
    Info,
}

/// Median, quartiles and spread of one side of a comparison.
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let median = stats::median(values);
        let (q1, q3) = if values.len() >= 2 {
            stats::quartiles(values)
        } else {
            (median, median)
        };
        Summary {
            n: values.len(),
            median,
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median: what the
    /// acceptance check holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.q3 == self.q1 {
            return 0.0; // also when every value is 0
        }
        (self.q3 - self.q1) / self.median
    }
}

pub struct Comparison {
    pub workload: &'static str,
    pub metric: &'static Metric,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

fn values_of(doc: &Doc, workload: &str, metric: &str) -> Vec<f64> {
    doc.records
        .iter()
        .filter(|r| r.workload == workload)
        .flat_map(|r| r.metrics.iter())
        .filter(|v| v.name == metric)
        .map(|v| v.value)
        .collect()
}

pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Summary, Summary, Verdict) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let verdict = if metric.exact {
        let same = a.iter().chain(b).all(|&v| v == a[0]);
        if same {
            Verdict::ExactSame
        } else {
            Verdict::ExactDiffers
        }
    } else if metric.bound == 0.0 {
        Verdict::Info
    } else if metric.name != "setup_s" && sa.spread().max(sb.spread()) > metric.bound {
        // the driver holds every spread but set-up's to the bound: a few
        // set-ups of milliseconds each spread widely, only their median counts
        Verdict::Unresolved
    } else {
        // how much worse b is than a, as a share of a
        let worse = if metric.higher {
            (sa.median - sb.median) / sa.median
        } else {
            (sb.median - sa.median) / sa.median
        };
        if worse > metric.bound {
            Verdict::Worse
        } else if worse < -metric.bound {
            Verdict::Better
        } else {
            Verdict::Within
        }
    };
    (sa, sb, verdict)
}

/// One row per workload × metric present in both documents, `a` the base.
pub fn compare(a: &Doc, b: &Doc) -> Vec<Comparison> {
    let mut out = Vec::new();
    for w in WORKLOADS {
        for metric in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let (va, vb) = (
                values_of(a, w.name, metric.name),
                values_of(b, w.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb, verdict) = judge(metric, &va, &vb);
            out.push(Comparison {
                workload: w.name,
                metric,
                a: sa,
                b: sb,
                verdict,
            });
        }
    }
    out
}

pub fn print_comparison(rows: &[Comparison], a_label: &str, b_label: &str) {
    println!(
        "{:<15} {:<36} {:<8} {:>14} {:>7} {:>14} {:>7} {:>9}  verdict (ratio = {b_label} over base {a_label})",
        "workload", "metric", "unit", a_label, "spread", b_label, "spread", "ratio"
    );
    for c in rows {
        let verdict = match c.verdict {
            Verdict::Within => format!("within {:.0}%", c.metric.bound * 100.0),
            Verdict::Worse => format!("WORSE by more than {:.0}%", c.metric.bound * 100.0),
            Verdict::Better => format!("better by more than {:.0}%", c.metric.bound * 100.0),
            Verdict::Unresolved => format!(
                "unresolved: spread exceeds the {:.0}% bound",
                c.metric.bound * 100.0
            ),
            Verdict::ExactSame => "exact count, identical".to_string(),
            Verdict::ExactDiffers => "EXACT COUNT DIFFERS".to_string(),
            Verdict::Info => String::new(),
        };
        println!(
            "{:<15} {:<36} {:<8} {:>14.6e} {:>6.1}% {:>14.6e} {:>6.1}% {:>9.4}  {verdict} (n={}+{}, q1..q3 {:.4e}..{:.4e} | {:.4e}..{:.4e})",
            c.workload,
            c.metric.name,
            c.metric.unit,
            c.a.median,
            c.a.spread() * 100.0,
            c.b.median,
            c.b.spread() * 100.0,
            c.b.median / c.a.median,
            c.a.n,
            c.b.n,
            c.a.q1,
            c.a.q3,
            c.b.q1,
            c.b.q3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = BTreeMap::new();
        for (i, m) in metrics::END_TO_END.iter().enumerate() {
            metrics.insert(m.name, 1.5 + i as f64);
        }
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics,
            rows: Vec::new(),
        };
        let line = result_line(&outcome, metrics::END_TO_END);
        let (correct, attempted, failed, parsed) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (10, 0));
        let names: Vec<&str> = parsed.iter().map(|v| v.name.as_str()).collect();
        let want: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        match api::parse_json(&line).unwrap() {
            Json::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn documents_round_trip() {
        let doc = Doc {
            host: vec![
                ("cores".into(), "2".into()),
                ("rustc".into(), "rustc \"x\"".into()),
            ],
            seconds: 12.0,
            quick: false,
            records: vec![Record {
                workload: "sim_wide".into(),
                seed: 3,
                traced: false,
                correct: true,
                attempted: 40,
                failed: 0,
                wall_s: 17.25,
                metrics: vec![Value {
                    name: "sim_gcs".into(),
                    value: 1.25e9,
                    unit: "gc/s".into(),
                    note: String::new(),
                }],
                rows: vec![Value {
                    name: "sim_gcs.AES".into(),
                    value: 2e9,
                    unit: "gc/s".into(),
                    note: "backend=bitplane lanes=4096".into(),
                }],
            }],
        };
        let back = Doc::from_json(&doc.to_json()).unwrap();
        assert_eq!(back.host, doc.host);
        assert_eq!(back.records, doc.records);
        assert_eq!(back.seconds, 12.0);
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let gcs = &Metric {
            name: "gcs",
            unit: "gc/s",
            higher: true,
            bound: 0.08,
            exact: false,
        };
        let steady_a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(gcs, &steady_a, &[95.0, 96.0, 95.0, 95.5]).2,
            Verdict::Within
        );
        assert_eq!(
            judge(gcs, &steady_a, &[80.0, 81.0, 80.0, 80.5]).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(gcs, &steady_a, &[120.0, 121.0, 120.0, 120.5]).2,
            Verdict::Better
        );
        assert_eq!(
            judge(gcs, &steady_a, &[60.0, 100.0, 140.0, 80.0]).2,
            Verdict::Unresolved
        );
        let lat = &Metric {
            name: "lat",
            unit: "us",
            higher: false,
            bound: 0.10,
            exact: false,
        };
        assert_eq!(
            judge(lat, &steady_a, &[120.0, 121.0, 120.0, 120.5]).2,
            Verdict::Worse
        );
        let nnz = metrics::per_layer("core.nnz").unwrap();
        assert_eq!(judge(nnz, &[7.0, 7.0], &[7.0]).2, Verdict::ExactSame);
        assert_eq!(judge(nnz, &[7.0, 7.0], &[8.0]).2, Verdict::ExactDiffers);
        let build = metrics::per_layer("circuits.build_s").unwrap();
        assert_eq!(judge(build, &[1.0], &[2.0]).2, Verdict::Info);
    }
}
