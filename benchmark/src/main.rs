//! Benchmark of the prosel progress-estimation service: freshness, read
//! cost, ingest capacity and selection quality — end to end and per layer.
//!
//! ```text
//! prosel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! prosel-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <n>] [--out <dir>]
//! ```
//!
//! With `--workload` it runs that workload in this process, prints every
//! metric by name with its unit, and ends with the one-line JSON result
//! (`--trace 0`: the end-to-end metrics; `--trace 1`: the per-layer
//! metrics, plus the span file and the self-time table). Without it, it
//! runs every workload, each in a child process of its own, `--repeat`
//! times, and prints medians, quartiles and whether the two halves of the
//! runs agree within each metric's bound. See `README.md` beside this
//! package's manifest.

mod calib;
mod catalogue;
mod fixtures;
mod json;
mod layers;
mod learn;
mod report;
mod schedule;
mod serve;
mod shadow;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed of the default command. `0xC0FFEE` is reserved for confirming
/// claims made while developing against this one.
pub const DEFAULT_SEED: u64 = 20110829;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {:?}", workloads::WORKLOADS));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("prosel-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => report::run_one(name, &args),
        None => report::run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload serve_burst --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_burst"));
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (7, 10.0, true, 1));
        let d = parse("").unwrap();
        assert_eq!((d.workload, d.seed, d.seconds, d.trace), (None, DEFAULT_SEED, 15.0, false));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--trace yes",
            "--seed",
            "--seconds 0",
            "--seconds 600",
            "--repeat 0",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
