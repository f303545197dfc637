//! The experiment runner: regenerates every table and figure.
//!
//! ```sh
//! cargo run -p yav-bench --release --bin figures -- all --scale mid
//! cargo run -p yav-bench --release --bin figures -- fig16 model --scale paper --threads 8
//! ```
//!
//! Experiment ids match DESIGN.md's per-experiment index: `fig2`, `fig3`,
//! `table3`, `fig5`–`fig14`, `table4`, `dimred`, `table5`, `samplesize`,
//! `fig15`, `fig16`, `model`, `fig17`–`fig19`, `arpu`, `truth`.

#![forbid(unsafe_code)]

use yav_bench::{figs_dataset as fd, figs_model as fm, figs_user as fu, Scale, StreamWorld, World};
use yav_exec::ExecConfig;
use yav_telemetry::journal;

const ALL: &[&str] = &[
    "table3",
    "fig2",
    "fig3",
    "encshare",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table4",
    "dimred",
    "table5",
    "samplesize",
    "fig15",
    "fig16",
    "model",
    "fig17",
    "fig18",
    "fig19",
    "arpu",
    "truth",
    "ablate-classes",
    "ablate-features",
];

fn run(world: &World, id: &str) -> Option<String> {
    Some(match id {
        "table3" => fd::table3(world),
        "fig2" => fd::fig2(world),
        "fig3" => fd::fig3(world),
        "encshare" => fd::encrypted_share(world),
        "fig5" => fd::fig5(world),
        "fig6" => fd::fig6(world),
        "fig7" => fd::fig7(world),
        "fig8" | "fig9" => fd::fig8_9(world),
        "fig10" => fd::fig10(world),
        "fig11" => fd::fig11(world),
        "fig12" => fd::fig12(world),
        "fig13" => fd::fig13(world),
        "fig14" => fd::fig14(world),
        "table4" => fd::table4(world),
        "dimred" => fm::dimred(world),
        "table5" => fm::table5(world),
        "samplesize" => fm::samplesize(world),
        "fig15" => fm::fig15(world),
        "fig16" => fm::fig16(world),
        "model" => fm::model(world),
        "fig17" => fu::fig17(world),
        "fig18" => fu::fig18(world),
        "fig19" => fu::fig19(world),
        "arpu" => fu::arpu(world),
        "truth" => fu::truth_check(world),
        "ablate-classes" => fm::ablate_classes(world),
        "ablate-features" => fm::ablate_features(world),
        _ => return None,
    })
}

/// Stops tracing, drains the ring and writes the Chrome trace JSON plus
/// folded stacks next to it.
fn dump_trace(path: &std::path::Path) {
    journal::set_enabled(false);
    let trace = journal::drain();
    if let Err(e) = std::fs::write(path, yav_trace::chrome_trace_json(&trace)) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    let folded = {
        let mut p = path.as_os_str().to_owned();
        p.push(".folded");
        std::path::PathBuf::from(p)
    };
    if let Err(e) = std::fs::write(&folded, yav_trace::folded_stacks(&trace)) {
        eprintln!("cannot write {}: {e}", folded.display());
        std::process::exit(1);
    }
    eprintln!(
        "trace: {} records in {} streams ({} lost to ring wrap) -> {} + {}",
        trace.len(),
        trace.streams.len(),
        trace.dropped(),
        path.display(),
        folded.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Mid;
    let mut exec = ExecConfig::default();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let name = iter.next().map(String::as_str).unwrap_or("");
                scale = Scale::parse(name).unwrap_or_else(|| {
                    eprintln!("unknown scale {name:?}; use small|mid|paper|huge");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                let n = iter.next().and_then(|s| s.parse::<usize>().ok());
                match n {
                    Some(n) if n >= 1 => exec = ExecConfig::with_threads(n),
                    _ => {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                let dir = iter.next().map(String::as_str).unwrap_or("");
                if dir.is_empty() {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--trace" => {
                let path = iter.next().map(String::as_str).unwrap_or("");
                if path.is_empty() {
                    eprintln!("--trace needs an output path (Chrome trace JSON)");
                    std::process::exit(2);
                }
                trace_out = Some(std::path::PathBuf::from(path));
            }
            "all" => ids.extend(ALL.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    ids.dedup();
    if ids.is_empty() && trace_out.is_none() && scale != Scale::Huge {
        eprintln!(
            "usage: figures [all | stream | <experiment ids>] [--scale small|mid|paper|huge] [--threads N] [--out DIR] [--trace FILE]"
        );
        eprintln!("experiments: {} stream", ALL.join(" "));
        eprintln!("--threads N   worker threads for world building and every forest (default: all");
        eprintln!("              cores, <= 16);");
        eprintln!("              results are identical for every N — only wall-clock changes");
        eprintln!("--trace FILE  record a causal trace of the world build: Chrome trace JSON to");
        eprintln!("              FILE (open in Perfetto) and folded stacks to FILE.folded");
        std::process::exit(2);
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    // `stream` runs the constant-memory streaming builder. It is the
    // only experiment at `--scale huge`: the figure experiments walk a
    // materialised detection list, which bounded retention drops.
    let stream_requested = ids.iter().any(|id| id == "stream") || scale == Scale::Huge;
    ids.retain(|id| id != "stream");
    if scale == Scale::Huge && !ids.is_empty() {
        eprintln!(
            "--scale huge streams with bounded retention; figure experiments need \
             materialised detections. Only `stream` runs at this scale (got: {})",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    if stream_requested {
        let trace_this = trace_out.as_ref().filter(|_| ids.is_empty());
        eprintln!(
            "streaming world at {scale:?} scale on {} thread(s) …",
            exec.threads()
        );
        if trace_this.is_some() {
            journal::set_enabled(true);
        }
        let t0 = std::time::Instant::now();
        let world = StreamWorld::build_with(scale, &exec);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(path) = trace_this {
            dump_trace(path);
        }
        eprintln!(
            "stream done in {secs:.1}s ({:.0} events/s)\n",
            world.http_requests as f64 / secs
        );
        let text = yav_bench::stream::report(&world);
        println!("──────────────────────────────────────────── stream");
        println!("{text}");
        if let Some(dir) = &out_dir {
            let path = dir.join("stream.txt");
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
        if ids.is_empty() {
            if let Some(dir) = &out_dir {
                eprintln!("experiment artifacts written to {}", dir.display());
            }
            return;
        }
    }

    eprintln!(
        "building world at {scale:?} scale on {} thread(s) …",
        exec.threads()
    );
    if trace_out.is_some() {
        journal::set_enabled(true);
    }
    let t0 = std::time::Instant::now();
    let world = World::build_with(scale, &exec);
    if let Some(path) = &trace_out {
        dump_trace(path);
    }
    eprintln!(
        "world ready in {:.1}s: {} HTTP requests, {} detections, A1 {} rows, A2 {} rows\n",
        t0.elapsed().as_secs_f64(),
        world.http_requests,
        world.report.detections.len(),
        world.a1.rows.len(),
        world.a2.rows.len()
    );

    for id in &ids {
        match run(&world, id) {
            Some(text) => {
                println!("──────────────────────────────────────────── {id}");
                println!("{text}");
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.txt"));
                    if let Err(e) = std::fs::write(&path, &text) {
                        eprintln!("cannot write {}: {e}", path.display());
                    }
                }
            }
            None => eprintln!("unknown experiment id {id:?} (skipped)"),
        }
    }
    if let Some(dir) = &out_dir {
        eprintln!("experiment artifacts written to {}", dir.display());
    }
}
