//! What gets printed: one workload's run (metrics by name and unit, notes,
//! the JSON result line), and the multi-run summary of `--repeat`.

use std::collections::BTreeMap;
use std::process::Command;

use crate::catalogue::{result_line, MetricDef, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::serve::{worker_threads, SHARDS};
use crate::stats::{median, quartiles, spread};
use crate::traced::run_traced;
use crate::workloads::{run_end_to_end, WORKLOADS};
use crate::Args;

/// First line of `program args`' standard output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host annotation every result is read against.
fn host_line() -> String {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    format!(
        "host: cores={cores} generator_threads=1 service_workers={} shards={SHARDS} rustc=\"{}\" commit={}",
        worker_threads(),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn print_metrics(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) {
    for d in defs {
        if let Some(v) = values.get(d.name) {
            println!(
                "{:<40} {:>18.6} {:<6} ({} is better)",
                d.name,
                v,
                d.unit,
                if d.higher { "higher" } else { "lower" }
            );
        }
    }
}

/// Run one workload in this process. Returns whether every check passed.
pub fn run_one(name: &str, args: &Args) -> bool {
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("{}", host_line());
    let (defs, out) = if args.trace {
        (PER_LAYER, run_traced(name, args.seed, args.seconds, &args.out))
    } else {
        (END_TO_END, run_end_to_end(name, args.seed, args.seconds))
    };
    print!("{}", out.table);
    for note in &out.notes {
        println!("note: {note}");
    }
    print_metrics(defs, &out.metrics);
    println!(
        "verification: {} ({} of {} operations failed)",
        if out.correct { "passed" } else { "FAILED" },
        out.failed,
        out.attempted
    );
    println!("{}", result_line(defs, &out.metrics, out.correct, out.attempted, out.failed));
    out.correct
}

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_child(name: &str, args: &Args, seed: u64, trace: bool, echo: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let doc = json::parse(stdout.lines().last()?).ok()?;
    let Some(Value::Obj(m)) = doc.get("metrics") else { return None };
    let metrics =
        m.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect();
    Some(ChildResult { correct: doc.get("correct")?.as_bool()? && out.status.success(), metrics })
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the current
/// directory (absent: no agreement verdicts, only the statistics).
fn bounds() -> BTreeMap<String, f64> {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .map(|doc| {
            doc.get("end_to_end")
                .map(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|m| {
                    Some((m.get("name")?.as_str()?.to_owned(), m.get("bound")?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Run every workload, each in its own child process, `--repeat` times
/// (run `r` uses seed `--seed + r`, as the acceptance check varies it).
/// With more than one repetition, print per end-to-end metric and workload
/// the median, the quartiles, the spread, and whether the medians of the
/// first and second half of the runs agree within the metric's bound.
pub fn run_all(args: &Args) -> bool {
    println!("{}", host_line());
    let mut all_ok = true;
    let mut series: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for r in 0..args.repeat {
        for name in WORKLOADS {
            let seed = args.seed + r as u64;
            let echo = args.repeat == 1;
            match run_child(name, args, seed, false, echo) {
                Some(res) => {
                    all_ok &= res.correct;
                    if !echo {
                        println!(
                            "run {r} {name} seed {seed}: {}",
                            if res.correct { "ok" } else { "VERIFICATION FAILED" }
                        );
                    }
                    for (metric, v) in res.metrics {
                        series.entry((name, metric)).or_default().push(v);
                    }
                }
                None => {
                    all_ok = false;
                    println!("run {r} {name} seed {seed}: no result");
                }
            }
            if args.trace && r == 0 {
                all_ok &= run_child(name, args, seed, true, true).is_some_and(|res| res.correct);
            }
        }
    }
    if args.repeat >= 2 {
        let bounds = bounds();
        println!(
            "{:<16} {:<30} {:>14} {:>14} {:>14} {:>8} {:>7}  halves",
            "workload", "metric", "q1", "median", "q3", "spread", "bound"
        );
        for name in WORKLOADS {
            for d in END_TO_END {
                let Some(values) = series.get(&(name, d.name.to_owned())) else { continue };
                if values.len() < 2 {
                    continue;
                }
                let [q1, q2, q3] = quartiles(values);
                let spread = spread(values);
                let bound = bounds.get(d.name).copied();
                let (first, second) = values.split_at(values.len() / 2);
                let (m1, m2) = (median(first), median(second));
                let worse = if d.higher { (m1 - m2) / m1.abs() } else { (m2 - m1) / m1.abs() };
                let verdict = match bound {
                    Some(b) if spread > b => "SPREAD OVER BOUND",
                    Some(b) if worse > b => "HALVES DISAGREE",
                    Some(_) => "agree",
                    None => "-",
                };
                println!(
                    "{name:<16} {:<30} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7.1}% {:>6}%  {verdict} ({:+.1}%)",
                    d.name,
                    spread * 100.0,
                    bound.map_or("-".into(), |b| format!("{:.0}", b * 100.0)),
                    worse * 100.0,
                );
            }
        }
    }
    all_ok
}
