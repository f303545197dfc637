//! The traced run's span log.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: a name, a start, an end and a parent span, with one root span
//! per shard, device or refresh. Calls made once per shard, device or
//! refresh are timed every time; calls made once per event or request are
//! sampled, because a pair of clock reads costs about as much as the
//! cheapest requests. The log stays in memory while the run measures and
//! is written out as Chrome trace JSON when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Every span the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One service bring-up (root).
    Setup,
    /// `WeblogGenerator::new`.
    Generator,
    /// `MarketTemplate::new`.
    Template,
    /// Campaigns A1 and A2 (`execute_parallel`).
    Campaigns,
    /// Quick training (`Pme::train_from_campaign`).
    QuickTrain,
    /// `YourAdValue::new` + `install_model` for every device.
    Install,
    /// One timed pass over a workload's fixed input.
    Pass,
    /// One 32-user shard of the stream (root).
    Shard,
    /// `Panel::build_block`.
    Panel,
    /// `MarketTemplate::shard`.
    Stamp,
    /// `WeblogAnalyzer::with_retention`.
    AnalyzerNew,
    /// `TenantStore::new` + `register` for the block's users.
    TenantsNew,
    /// `WeblogGenerator::run_shard_with_users`, sinks included.
    Run,
    /// `WeblogAnalyzer::ingest_quiet` (sampled).
    Ingest,
    /// `TenantStore::feed` (sampled).
    Feed,
    /// `WeblogAnalyzer::finish_with_state`.
    AnalyzerFinish,
    /// `TenantStore::finish`.
    TenantsFinish,
    /// `AnalyzerReport::merge` + `TenantReport::merge`.
    Fold,
    /// One device's replay (root).
    Device,
    /// `YourAdValue::observe` on ordinary traffic (sampled).
    ObserveReject,
    /// `YourAdValue::observe` on a cleartext-price notification.
    ObserveCleartext,
    /// `YourAdValue::observe` on an encrypted-price notification.
    ObserveEncrypted,
    /// `YourAdValue::observe` on a corrupted notification.
    ObserveMalformed,
    /// `yav_nurl::screen_adx` over the whole trace.
    Screen,
    /// `UrlRef::parse` + `template::parse_borrowed_screened` over every
    /// notification of the trace.
    Parse,
    /// One model refresh (root).
    Refresh,
    /// `yav_campaign::execute_parallel` for A1.
    Campaign,
    /// `Pme::train_from_campaign` with the paper's forest.
    Train,
    /// `Pme::current_model`: packaging the client artifact.
    Package,
    /// One extra `RandomForest::fit` on the refresh's rows.
    ForestFit,
}

impl Name {
    /// How many span names there are (`ForestFit` is the last).
    const COUNT: usize = Name::ForestFit as usize + 1;

    /// The span's name in the written trace: `layer.call`.
    pub fn label(self) -> &'static str {
        match self {
            Name::Setup => "bench.setup",
            Name::Generator => "weblog.generator_new",
            Name::Template => "auction.template_new",
            Name::Campaigns => "campaign.execute_a1_a2",
            Name::QuickTrain => "pme.train_quick",
            Name::Install => "core.install_model",
            Name::Pass => "bench.pass",
            Name::Shard => "bench.shard",
            Name::Panel => "weblog.panel_block",
            Name::Stamp => "auction.template_shard",
            Name::AnalyzerNew => "analyzer.new",
            Name::TenantsNew => "core.tenants_register",
            Name::Run => "weblog.run_shard",
            Name::Ingest => "analyzer.ingest_quiet",
            Name::Feed => "core.tenants_feed",
            Name::AnalyzerFinish => "analyzer.finish",
            Name::TenantsFinish => "core.tenants_finish",
            Name::Fold => "bench.fold",
            Name::Device => "bench.device",
            Name::ObserveReject => "core.observe_reject",
            Name::ObserveCleartext => "core.observe_cleartext",
            Name::ObserveEncrypted => "core.observe_encrypted",
            Name::ObserveMalformed => "core.observe_malformed",
            Name::Screen => "nurl.screen_adx",
            Name::Parse => "nurl.parse_borrowed_screened",
            Name::Refresh => "bench.refresh",
            Name::Campaign => "campaign.execute_a1",
            Name::Train => "pme.train_from_campaign",
            Name::Package => "pme.current_model",
            Name::ForestFit => "ml.forest_fit",
        }
    }
}

/// Most spans kept in the written log. Totals and samples keep counting
/// past it; only the file is truncated (and says by how much).
const LOG_CAP: usize = 1 << 17;

/// A span that has started: pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: Name,
    id: u32,
    parent: u32,
    start: u64,
}

impl Open {
    /// The span's id, for its children's `parent`.
    pub fn id(&self) -> u32 {
        self.id
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    id: u32,
    parent: u32,
    start: u64,
    end: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Stat {
    count: u64,
    total_ns: u64,
}

/// The in-memory span log plus per-name totals.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// What one clock read adds to a measured interval; subtracted from
    /// every span.
    clock_ns: u64,
    next_id: u32,
    log: Vec<Span>,
    dropped: u64,
    stats: Vec<Stat>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh log, with the clock's own cost calibrated.
    pub fn new() -> Tracer {
        let origin = Instant::now();
        let mut gaps: Vec<u64> = (0..20_001)
            .map(|_| {
                let a = origin.elapsed().as_nanos() as u64;
                let b = origin.elapsed().as_nanos() as u64;
                b - a
            })
            .collect();
        gaps.sort_unstable();
        Tracer {
            origin,
            clock_ns: gaps[gaps.len() / 2],
            next_id: 1,
            log: Vec::with_capacity(LOG_CAP),
            dropped: 0,
            stats: vec![Stat::default(); Name::COUNT],
        }
    }

    /// Nanoseconds since the log started.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span under `parent` (0 for a root).
    pub fn begin(&mut self, name: Name, parent: u32) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            id,
            parent,
            start: self.now(),
        }
    }

    /// Ends `open` now; returns its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = self.now();
        self.push(open.name, open.id, open.parent, open.start, end)
    }

    /// Records a span timed by the caller with [`Tracer::now`] (the
    /// sampled per-event path, which cannot afford [`Tracer::begin`]'s
    /// extra bookkeeping inside the timed interval). Returns its duration.
    pub fn record(&mut self, name: Name, parent: u32, start: u64, end: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.push(name, id, parent, start, end)
    }

    fn push(&mut self, name: Name, id: u32, parent: u32, start: u64, end: u64) -> u64 {
        let dur = end.saturating_sub(start).saturating_sub(self.clock_ns);
        let stat = &mut self.stats[name as usize];
        stat.count += 1;
        stat.total_ns += dur;
        if self.log.len() < LOG_CAP {
            self.log.push(Span {
                name,
                id,
                parent,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: Name) -> u64 {
        self.stats[name as usize].count
    }

    /// Summed duration of `name`'s spans, in ns.
    pub fn total_ns(&self, name: Name) -> u64 {
        self.stats[name as usize].total_ns
    }

    /// Mean duration of `name`'s spans, in ns (0 with none).
    pub fn mean_ns(&self, name: Name) -> f64 {
        let s = &self.stats[name as usize];
        if s.count == 0 {
            0.0
        } else {
            s.total_ns as f64 / s.count as f64
        }
    }

    /// Renders the log as Chrome trace-event JSON (loadable in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.log.len() * 110 + 128);
        out.push_str("{\"traceEvents\": [");
        for (i, s) in self.log.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                s.name.label(),
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        let _ = write!(
            out,
            "\n], \"otherData\": {{\"clock_ns\": {}, \"dropped_spans\": {}}}}}\n",
            self.clock_ns, self.dropped
        );
        out
    }
}

/// Runs `f`; when tracing, records it as a `name` span under `parent`
/// and returns its duration in seconds (0 untraced: untraced runs read
/// no clock around single calls).
pub fn timed<T>(
    tracer: Option<&mut Tracer>,
    name: Name,
    parent: u32,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => {
            let open = t.begin(name, parent);
            let value = f();
            let ns = t.end(open);
            (value, ns as f64 / 1e9)
        }
        None => (f(), 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut t = Tracer::new();
        let root = t.begin(Name::Shard, 0);
        let child = t.begin(Name::Panel, root.id());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ns = t.end(child);
        let root_ns = t.end(root);
        assert!(child_ns >= 1_000_000 && root_ns >= child_ns);
        assert_eq!(t.count(Name::Panel), 1);
        assert_eq!(t.total_ns(Name::Panel), child_ns);
        let s0 = t.now();
        let s1 = t.now();
        t.record(Name::Ingest, root.id(), s0, s1);
        assert_eq!(t.count(Name::Ingest), 1);
        let json = t.chrome_json();
        assert!(json.contains("\"name\": \"weblog.panel_block\""));
        assert!(json.contains(&format!("\"parent\": {}", root.id())));
    }
}
