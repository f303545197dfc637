//! `BENCHMARK.json` declares exactly the metrics the benchmark prints,
//! with the same units, and its result line is valid JSON.

use serde::Value;
use yav_perfbench::metrics::{result_line, Outcome, END_TO_END, PER_LAYER};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn declared(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn manifest_declares_what_the_benchmark_prints() {
    let m = manifest();
    assert_eq!(declared(&m, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&m, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = m
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, ["stream", "client", "train"]);
}

#[test]
fn result_lines_parse() {
    let mut outcome = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    outcome.metrics.set("ops_per_ref_s", 1234.5);
    outcome.metrics.set("machine.steal_pct", 0.25);
    for mode in [END_TO_END, PER_LAYER] {
        let line: Value = serde_json::from_str(&result_line(&outcome, mode)).expect("JSON");
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), mode.len());
    }
}
