//! Streaming world-builder ladder: throughput and peak RSS at
//! 10 k / 100 k / 1 M users.
//!
//! Each rung wall-clocks one [`yav_bench::StreamWorld`] build on the
//! Huge profile (one simulated day, lazy panel) at the rung's panel
//! size and records events per second plus the process peak RSS
//! (`VmHWM`). VmHWM is monotone over the process lifetime, so the
//! ladder runs ascending: each rung's reading is its own peak as long
//! as rungs grow — which is exactly the claim under test (bounded
//! retention means the 1 M rung should *not* dwarf the 100 k rung the
//! way a materialised weblog would).
//!
//! Results land in `BENCH_world.json` at the workspace root. Pass
//! `--quick` (or set `YAV_BENCH_QUICK=1`) to run only the 10 k rung as
//! a smoke test without touching the baseline file — that is what CI's
//! non-gating bench job does.

use yav_bench::{stream, StreamWorld};
use yav_exec::ExecConfig;

struct Rung {
    label: &'static str,
    users: u32,
}

const LADDER: [Rung; 3] = [
    Rung {
        label: "10k",
        users: 10_000,
    },
    Rung {
        label: "100k",
        users: 100_000,
    },
    Rung {
        label: "1m",
        users: 1_000_000,
    },
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("YAV_BENCH_QUICK").is_ok_and(|v| v == "1");
    let rungs: &[Rung] = if quick { &LADDER[..1] } else { &LADDER[..] };
    let exec = ExecConfig::default();

    let mut entries = Vec::new();
    for rung in rungs {
        let t0 = std::time::Instant::now();
        let world = StreamWorld::build_with_users(rung.users, &exec);
        let secs = t0.elapsed().as_secs_f64();
        let events_per_sec = world.http_requests as f64 / secs;
        let peak_rss = yav_telemetry::peak_rss_bytes().unwrap_or(0);
        println!(
            "world_stream/{}: {secs:.2} s, {events_per_sec:.0} events/s, \
             peak RSS {:.1} MiB ({} shards, {} requests, {} detections)",
            rung.label,
            peak_rss as f64 / (1024.0 * 1024.0),
            world.shards,
            world.http_requests,
            world.report.summary.total,
        );
        println!("  {}", stream::describe(&world));
        entries.push(format!(
            "{{\"bench\":\"world_stream\",\"scale\":\"{}\",\"users\":{},\
             \"events_per_sec\":{events_per_sec:.0},\"peak_rss_bytes\":{peak_rss},\
             \"seconds\":{secs:.3}}}",
            rung.label, rung.users
        ));
    }

    if quick {
        println!("quick mode: BENCH_world.json left untouched");
        return;
    }
    let json = format!(
        "[\n  {},\n  {}\n]\n",
        yav_bench::machine_json(),
        entries.join(",\n  ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_world.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
    } else {
        println!("world_stream baseline written to {path}");
    }
}
