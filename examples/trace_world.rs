//! Trace demo: record a causal trace of a miniature world build and
//! watch pipeline health while a panel streams through the client.
//!
//! ```sh
//! cargo run --release --example trace_world
//! ```
//!
//! Turns the telemetry journal on, replays the quickstart pipeline
//! (campaign → training → panel streaming), ticks the SLO health engine
//! once per batch, then exports the trace as Chrome trace-event JSON
//! (open in Perfetto / `chrome://tracing`) and as folded stacks
//! (`flamegraph.pl`-compatible), and prints the final health report.

use your_ad_value::prelude::*;
use your_ad_value::telemetry::journal;
use your_ad_value::trace;

fn main() {
    // The journal is off by default; the demo opts in before any work
    // runs. The world stays bit-identical either way — spans only observe.
    journal::set_enabled(true);

    let generator = WeblogGenerator::new(WeblogConfig::small());
    let universe = generator.universe().clone();

    println!("probing campaign + training (traced) …");
    let a1 = campaign::execute_parallel(
        &MarketConfig::default(),
        &universe,
        &Campaign::a1().scaled(40),
        &ExecConfig::serial(),
    );
    let pme = Pme::new();
    pme.train_from_campaign(&a1.rows, &TrainConfig::quick());

    let mut yav = YourAdValue::new(Some(City::Madrid));
    assert!(yav.refresh_model(&pme));

    // Stream the panel through the client in batches (`observe_batch`
    // records one `ingest.observe.us` sample per call), ticking the
    // health engine once per batch so its rolling window sees a
    // sequence of load snapshots rather than one cumulative blob.
    println!("streaming panel traffic, ticking health per batch …");
    let mut health = trace::HealthEngine::with_defaults();
    let mut batch: Vec<_> = Vec::with_capacity(512);
    generator.run(
        &MarketConfig::default(),
        |req| {
            batch.push(req.clone());
            if batch.len() == batch.capacity() {
                yav.observe_batch(&batch);
                batch.clear();
                health.tick();
            }
        },
        |_| {},
    );
    yav.observe_batch(&batch);
    let report = health.tick();

    journal::set_enabled(false);
    let t = journal::drain();
    let dir = std::env::temp_dir();
    let chrome = dir.join("yav_trace_world.json");
    let folded = dir.join("yav_trace_world.folded");
    std::fs::write(&chrome, trace::chrome_trace_json(&t)).expect("write chrome trace");
    std::fs::write(&folded, trace::folded_stacks(&t)).expect("write folded stacks");

    println!(
        "\ntrace: {} records in {} streams ({} lost to ring wrap)",
        t.len(),
        t.streams.len(),
        t.dropped()
    );
    println!(
        "  chrome trace : {} (load in https://ui.perfetto.dev)",
        chrome.display()
    );
    println!(
        "  folded stacks: {} (flamegraph.pl input)",
        folded.display()
    );

    println!(
        "\nhealth after {} ticks: {}",
        report.ticks,
        report.status().label()
    );
    println!("{}", report.to_json());
}
