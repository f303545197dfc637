//! Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and
//! folded-stack flamegraph text.
//!
//! JSON is hand-rolled like `yav-telemetry`'s exporter. Timestamps are
//! logical sequence numbers: Perfetto renders each stream as a thread
//! track whose x-axis is *event order*, not wall time, which is exactly
//! the determinism contract of the journal.

use std::collections::BTreeMap;
use std::fmt::Write;
use yav_telemetry::journal::{name_of, EventKind, Trace, NO_PARENT};

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a drained trace in the Chrome trace-event JSON format
/// (`chrome://tracing` / Perfetto "Open trace file").
///
/// Mapping: one fake process (`pid` 0); each stream is a thread whose
/// `tid` is its canonical rank and whose name is the stream label
/// (`t0`, `g1.s3`, ...); spans are `B`/`E` pairs, point events are
/// scoped instants (`i`), and `ts` is the record's logical seq. Each
/// event's `args` carry the raw payload and the causal parent seq.
///
/// A wrapped ring can keep an End whose Begin it overwrote; such an End
/// is skipped, so every thread's `B`/`E` events stay balanced.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, stream) in trace.streams.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let mut label = stream.stream.label();
        if let Some((origin, seq)) = stream.origin {
            let _ = write!(label, " (from {}#{})", origin.label(), seq);
        }
        // Begin seqs written so far and not yet closed, innermost last.
        let mut open: Vec<u32> = Vec::new();
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&label)
        );
        for r in &stream.records {
            if r.kind == EventKind::End {
                if open.last() != Some(&r.parent) {
                    continue;
                }
                open.pop();
            }
            out.push(',');
            let name = json_escape(&name_of(r.name));
            let parent = if r.parent == NO_PARENT {
                "null".to_owned()
            } else {
                r.parent.to_string()
            };
            match r.kind {
                EventKind::Begin => {
                    open.push(r.seq);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\
                         \"args\":{{\"arg\":{},\"parent\":{parent}}}}}",
                        r.seq, r.arg
                    );
                }
                EventKind::End => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\"}}",
                        r.seq
                    );
                }
                EventKind::Instant => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\
                         \"s\":\"t\",\"args\":{{\"arg\":{},\"parent\":{parent}}}}}",
                        r.seq, r.arg
                    );
                }
            }
        }
    }
    out.push_str("]}");
    out
}

/// Renders a drained trace as folded stacks (`a;b;c <count>` lines,
/// sorted) for `flamegraph.pl` / speedscope / inferno.
///
/// Weights are **logical ticks** — each record attributes one tick to
/// the stack active when it fired — so frame width reads as "events
/// under this span", a causal profile rather than a time profile.
/// Streams are merged; the stream label is the root frame.
pub fn folded_stacks(trace: &Trace) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for stream in &trace.streams {
        let root = stream.stream.label();
        let mut stack: Vec<String> = Vec::new();
        for r in &stream.records {
            let name = name_of(r.name);
            match r.kind {
                EventKind::Begin => {
                    stack.push(name);
                    *weights.entry(fold(&root, &stack, None)).or_insert(0) += 1;
                }
                EventKind::End => {
                    // A wrapped ring can surface an End whose Begin was
                    // overwritten; treat it as closing nothing.
                    *weights.entry(fold(&root, &stack, None)).or_insert(0) += 1;
                    if stack.last() == Some(&name) {
                        stack.pop();
                    }
                }
                EventKind::Instant => {
                    *weights.entry(fold(&root, &stack, Some(&name))).or_insert(0) += 1;
                }
            }
        }
    }
    let mut out = String::new();
    for (frames, weight) in weights {
        let _ = writeln!(out, "{frames} {weight}");
    }
    out
}

fn fold(root: &str, stack: &[String], leaf: Option<&str>) -> String {
    let mut frames = String::from(root);
    for f in stack {
        frames.push(';');
        frames.push_str(f);
    }
    if let Some(leaf) = leaf {
        frames.push(';');
        frames.push_str(leaf);
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use yav_telemetry::journal;

    /// Journals `f` on a fresh collector with `capacity`-record rings.
    /// The collector is process-global, so callers serialise on a lock.
    fn journal_of(capacity: usize, f: impl FnOnce()) -> Trace {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        journal::clear();
        journal::set_ring_capacity(capacity);
        journal::set_enabled(true);
        f();
        journal::set_enabled(false);
        journal::set_ring_capacity(journal::DEFAULT_RING_CAPACITY);
        journal::drain()
    }

    fn demo_trace() -> Trace {
        journal_of(64, || {
            let _build = yav_telemetry::span!("test.build");
            let _shard = yav_telemetry::span!("test.shard", 3);
            yav_telemetry::instant!("test.drop", 1);
        })
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&demo_trace());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"test.build\""));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn chrome_json_skips_an_end_whose_begin_wrapped_away() {
        // An 8-record ring keeps the last 7 instants and the End.
        let trace = journal_of(8, || {
            let _outer = yav_telemetry::span!("test.outer");
            for i in 0..20u64 {
                yav_telemetry::instant!("test.tick", i);
            }
        });
        assert_eq!(trace.dropped(), 14);
        let json = chrome_trace_json(&trace);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 0);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 0, "{json}");
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 7);
        assert!(!json.contains(",,"), "{json}");
    }

    #[test]
    fn folded_stacks_nest() {
        let folded = folded_stacks(&demo_trace());
        assert!(folded.contains("t0;test.build;test.shard;test.drop 1"));
        assert!(folded.lines().all(|l| l.rsplit(' ').next().is_some()));
    }
}
