//! `yav-perfbench --workload <stream|client|train> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric it measured, one per line
//! with its unit, then the result as one JSON line: the end-to-end
//! metrics untraced, the per-layer metrics traced. A traced run also
//! writes its span log as Chrome trace JSON under the cargo target
//! directory.

use std::path::PathBuf;
use std::process::ExitCode;
use yav_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use yav_perfbench::{client, machine, stream, train};

const USAGE: &str =
    "usage: yav-perfbench --workload <stream|client|train> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Where a traced run writes its span log: the cargo target directory,
/// which holds build outputs only.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.json"))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "stream" => stream::run,
        "client" => client::run,
        "train" => train::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let reference_ms = machine::reference_ms();
    let mut outcome = run(args.seed, args.seconds, args.trace);
    outcome.notes.push(format!(
        "machine: {} vCPUs; reference {reference_ms:.3} ms before the run",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    if let Some(tracer) = &outcome.tracer {
        let path = trace_path(&args.workload, args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        outcome.notes.push(match written {
            Ok(()) => format!("spans: {}", path.display()),
            Err(e) => format!("spans: not written to {}: {e}", path.display()),
        });
    }

    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(value) = outcome.metrics.get(name) {
            println!("{name} {value} {unit}");
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    let mode = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&outcome, mode));
    ExitCode::SUCCESS
}
