//! `stream`: the population loop, one 32-user shard at a time.
//!
//! The Huge profile (one simulated day, lazy panel) streamed through the
//! same calls, in the same order, as `StreamWorld`: draw the shard's
//! panel block, stamp its market from the template, generate its traffic
//! into a bounded analyzer and a tenant store, finish both, fold. This is
//! the one workload where the analyzer does most of the work, and where
//! per-shard fixed costs show.

use crate::harness::{coverage_note, measure};
use crate::metrics::{median, ratio, Outcome};
use crate::setup::{self, bring_up, repeat_setup, Seeds, Service};
use crate::spans::{timed, Name, Tracer};
use std::collections::BTreeMap;
use yav_analyzer::{AnalyzerReport, DetectionSummary, Retention, TrafficClass, WeblogAnalyzer};
use yav_core::{TenantReport, TenantStore};
use yav_exec::ExecConfig;
use yav_types::PriceVisibility;
use yav_weblog::{GroundTruth, Panel, WeblogConfig, USERS_PER_SHARD};

/// Panel size of one pass: 256 shards, about 110 k HTTP events. A run
/// streams them pass after pass, so a host stall spoils few passes.
const PASS_USERS: u32 = 8_192;

/// One event in this many has its sink calls timed in traced passes.
const SAMPLE_EVERY: u64 = 32;

/// The Huge profile at `users`, under `seeds`, on one thread.
pub fn weblog_config(seeds: &Seeds, users: u32) -> WeblogConfig {
    WeblogConfig {
        seed: seeds.weblog,
        users,
        exec: ExecConfig::serial(),
        ..WeblogConfig::huge()
    }
}

/// Tallies of the simulator's ground truth: what was really sold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Truth {
    /// Sold impressions.
    pub sold: u64,
    /// Sold with a cleartext price in the notification.
    pub cleartext: u64,
    /// Sold with an encrypted price token.
    pub encrypted: u64,
    /// Sum of true charges, in micro-CPM.
    pub charge_micros: i64,
}

impl Truth {
    fn record(&mut self, t: &GroundTruth) {
        self.sold += 1;
        match t.visibility {
            PriceVisibility::Cleartext => self.cleartext += 1,
            PriceVisibility::Encrypted => self.encrypted += 1,
        }
        self.charge_micros = self.charge_micros.saturating_add(t.charge.micros());
    }

    fn merge(&mut self, other: &Truth) {
        self.sold += other.sold;
        self.cleartext += other.cleartext;
        self.encrypted += other.encrypted;
        self.charge_micros = self.charge_micros.saturating_add(other.charge_micros);
    }
}

/// One pass over the panel, folded.
pub struct Pass {
    /// The analyzer reports of every shard, merged.
    pub report: AnalyzerReport,
    /// The tenant fleet's reports, merged.
    pub tenants: TenantReport,
    /// Ground truth over every shard.
    pub truth: Truth,
    /// HTTP events streamed.
    pub events: u64,
    /// Shards streamed.
    pub shards: usize,
    /// Events of shards whose output check failed.
    pub failed_events: u64,
}

/// A shard's outputs agree with the ground truth: the analyzer saw every
/// event, detected exactly the sold impressions with the true cleartext/
/// encrypted split, and the tenant fleet valued every detection.
fn shard_ok(report: &AnalyzerReport, tenants: &TenantReport, truth: &Truth, events: u64) -> bool {
    let s = &report.summary;
    report.total_requests == events
        && s.total == truth.sold
        && s.cleartext == truth.cleartext
        && s.encrypted == truth.encrypted
        && tenants.fleet.cleartext_count + tenants.fleet.encrypted_count == s.total
        && tenants.skipped_no_model == 0
}

/// Streams every shard of `config`'s panel once.
pub fn run_pass(service: &Service, config: &WeblogConfig, mut tracer: Option<&mut Tracer>) -> Pass {
    let generator = &service.generator;
    let model = Some(&service.model);
    let n = config.users as usize;
    let mut pass = Pass {
        report: AnalyzerReport::default(),
        tenants: TenantReport::default(),
        truth: Truth::default(),
        events: 0,
        shards: generator.shard_count(),
        failed_events: 0,
    };
    for s in 0..pass.shards {
        let shard = tracer.as_deref_mut().map(|t| t.begin(Name::Shard, 0));
        let id = shard.map_or(0, |o| o.id());
        let lo = (s * USERS_PER_SHARD).min(n) as u32;
        let hi = (s * USERS_PER_SHARD + USERS_PER_SHARD).min(n) as u32;

        let (users, _) = timed(tracer.as_deref_mut(), Name::Panel, id, || {
            Panel::build_block(config.seed, lo, hi)
        });
        let (mut market, _) = timed(tracer.as_deref_mut(), Name::Stamp, id, || {
            service.template.shard(s as u64)
        });
        let (mut analyzer, _) = timed(tracer.as_deref_mut(), Name::AnalyzerNew, id, || {
            WeblogAnalyzer::with_retention(Retention::Bounded)
        });
        let (mut store, _) = timed(tracer.as_deref_mut(), Name::TenantsNew, id, || {
            let mut store = TenantStore::new();
            for user in &users {
                store.register(user.id, user.home);
            }
            store
        });

        let mut events = 0u64;
        let mut truth = Truth::default();
        match tracer.as_deref_mut() {
            None => generator.run_shard_with_users(
                &users,
                &mut market,
                |req| {
                    events += 1;
                    analyzer.ingest_quiet(req);
                    store.feed(model, req);
                },
                |t| truth.record(&t),
            ),
            Some(t) => {
                let run = t.begin(Name::Run, id);
                generator.run_shard_with_users(
                    &users,
                    &mut market,
                    |req| {
                        events += 1;
                        if events.is_multiple_of(SAMPLE_EVERY) {
                            let t0 = t.now();
                            analyzer.ingest_quiet(req);
                            let t1 = t.now();
                            store.feed(model, req);
                            let t2 = t.now();
                            t.record(Name::Ingest, run.id(), t0, t1);
                            t.record(Name::Feed, run.id(), t1, t2);
                        } else {
                            analyzer.ingest_quiet(req);
                            store.feed(model, req);
                        }
                    },
                    |g| truth.record(&g),
                );
                t.end(run);
            }
        }

        let ((report, _), _) = timed(tracer.as_deref_mut(), Name::AnalyzerFinish, id, || {
            analyzer.finish_with_state()
        });
        let (tenants, _) = timed(tracer.as_deref_mut(), Name::TenantsFinish, id, || {
            store.finish(model)
        });
        if !shard_ok(&report, &tenants, &truth, events) {
            pass.failed_events += events;
        }
        timed(tracer.as_deref_mut(), Name::Fold, id, || {
            pass.report.merge(report);
            pass.tenants.merge(&tenants);
        });
        pass.truth.merge(&truth);
        pass.events += events;
        if let (Some(t), Some(o)) = (tracer.as_deref_mut(), shard) {
            t.end(o);
        }
    }
    pass
}

/// What must repeat exactly from pass to pass of one run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    truth: Truth,
    summary: DetectionSummary,
    class_counts: BTreeMap<TrafficClass, u64>,
    tenants: TenantReport,
}

impl Fingerprint {
    fn of(pass: &Pass) -> Fingerprint {
        Fingerprint {
            events: pass.events,
            truth: pass.truth,
            summary: pass.report.summary.clone(),
            class_counts: pass.report.class_counts.clone(),
            tenants: pass.tenants.clone(),
        }
    }
}

/// Runs the `stream` workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let seeds = Seeds::for_workload(seed);
    let config = weblog_config(&seeds, PASS_USERS);
    let mut tracer = trace.then(Tracer::new);
    let (service, setups) = repeat_setup(|| bring_up(config.clone(), &seeds, tracer.as_mut()));

    let mut out = Outcome::default();
    let mut first: Option<Fingerprint> = None;
    let mut diverged = 0usize;
    let m = measure(
        seconds,
        tracer.as_mut(),
        || (),
        |(), t| {
            let pass = run_pass(&service, &config, t);
            out.failed += pass.failed_events;
            let print = Fingerprint::of(&pass);
            match &first {
                None => first = Some(print),
                Some(f) if *f != print => diverged += 1,
                Some(_) => {}
            }
            pass.events
        },
    );
    if diverged > 0 {
        out.problem(format!("{diverged} passes differ from the first pass"));
    }
    for problem in m.thread_problems("passes") {
        out.problem(problem);
    }
    if let Some(problem) = setup::thread_problem(&setups) {
        out.problem(problem);
    }
    out.attempted = m.ops;
    out.notes.push(m.describe());

    out.notes.push(setup::describe(&setups));
    out.metrics.set("ops_per_ref_s", m.ops_per_ref_s());
    out.metrics.set("setup_s", setup::setup_s(&setups));
    out.metrics
        .set("peak_rss_mib", crate::machine::peak_rss_mib());
    out.metrics.set("machine.steal_pct", m.steal_pct);
    out.metrics.set("machine.cpu_per_wall", m.cpu_per_wall);
    out.metrics.set("machine.reference_ms", m.reference_ms());

    if let Some(f) = &first {
        let s = &f.summary;
        out.metrics.set("stream.events", f.events as f64);
        out.metrics
            .set("stream.shards", service.generator.shard_count() as f64);
        out.metrics.set("stream.notifications", s.total as f64);
        out.metrics
            .set("stream.encrypted_share", ratio(s.encrypted, s.total));
        out.metrics
            .set("stream.detected_per_sold", ratio(s.total, f.truth.sold));
        out.notes.push(format!(
            "stream: {} users in {} shards per pass, {} passes, {} events/pass, {} sold \
             ({} cleartext, {} encrypted), fleet valued {} events",
            config.users,
            service.generator.shard_count(),
            m.passes(),
            f.events,
            f.truth.sold,
            f.truth.cleartext,
            f.truth.encrypted,
            f.tenants.events
        ));
    }
    out.notes
        .push(format!("stream.events_per_ref_s {} 1/s", m.ops_per_ref_s()));

    if let Some(t) = &tracer {
        let ev = m.traced_ops.max(1) as f64;
        let per_event = |name: Name| t.total_ns(name) as f64 / ev;
        let ingest = t.mean_ns(Name::Ingest);
        let feed = t.mean_ns(Name::Feed);
        let metrics = &mut out.metrics;
        metrics.set("stream.weblog.panel_ns_per_event", per_event(Name::Panel));
        metrics.set("stream.auction.stamp_ns_per_event", per_event(Name::Stamp));
        metrics.set(
            "stream.weblog-auction.ns_per_event",
            per_event(Name::Run) - ingest - feed,
        );
        metrics.set("stream.analyzer.ns_per_event", ingest);
        metrics.set(
            "stream.analyzer.finish_ns_per_event",
            per_event(Name::AnalyzerNew) + per_event(Name::AnalyzerFinish),
        );
        metrics.set(
            "stream.core.ns_per_event",
            feed + per_event(Name::TenantsNew) + per_event(Name::TenantsFinish),
        );
        metrics.set("stream.fold_ns_per_event", per_event(Name::Fold));
        let step = |f: fn(&crate::setup::SetupTimes) -> f64| {
            median(&setups.iter().map(f).collect::<Vec<_>>())
        };
        metrics.set("stream.auction.template_s", step(|s| s.template_s));
        metrics.set("stream.campaign.setup_s", step(|s| s.campaigns_s));
        metrics.set("stream.pme.setup_s", step(|s| s.train_s));
        let layers: u64 = [
            Name::Panel,
            Name::Stamp,
            Name::AnalyzerNew,
            Name::TenantsNew,
            Name::Run,
            Name::AnalyzerFinish,
            Name::TenantsFinish,
            Name::Fold,
        ]
        .iter()
        .map(|&n| t.total_ns(n))
        .sum();
        let coverage = layers as f64 / t.total_ns(Name::Pass).max(1) as f64;
        metrics.set("stream.layer_sum_ratio", coverage);
        metrics.set("stream.trace_overhead_pct", m.trace_overhead_pct());
        out.notes.push(coverage_note("stream", coverage));
    }
    out.tracer = tracer;
    out
}
