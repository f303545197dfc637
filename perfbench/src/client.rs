//! `client`: one device's traffic through its own YourAdValue.
//!
//! A small panel's year-long traces (the `WeblogConfig::paper()` preset)
//! are captured before timing, with about one request in a hundred added
//! as a corrupted copy of a real notification (truncated, badly escaped,
//! or with a garbage price). Each pass replays every device's trace
//! request by request through a fresh monitor holding the §3.2 tree
//! model. Here `core` and `nurl` do all the work and `weblog`, `auction`
//! and `analyzer` none, and the monitor runs one request at a time, where
//! `stream` runs it batched across tenants.

use crate::harness::{coverage_note, measure};
use crate::metrics::{median, quantile, ratio, Outcome};
use crate::setup::{self, bring_up, repeat_setup, Seeds, Service};
use crate::spans::{timed, Name, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::hint::black_box;
use yav_core::YourAdValue;
use yav_exec::ExecConfig;
use yav_nurl::{template, UrlRef, UrlScratch};
use yav_pme::model::ClientModel;
use yav_types::{Adx, City, PriceVisibility};
use yav_weblog::{HttpRequest, WeblogConfig};

/// Devices in the panel: one generator shard.
const PANEL_USERS: u32 = 32;

/// Corrupted notifications added, as a share of each device's requests.
const MALFORMED_SHARE: f64 = 0.01;

/// One ordinary request in this many is timed in traced passes (every
/// notification is).
const SAMPLE_EVERY: usize = 64;

/// How often each nURL probe walks the trace; its time is the median.
const PROBE_REPEATS: usize = 15;

/// The paper preset at `users`, under `seeds`, on one thread.
fn weblog_config(seeds: &Seeds, users: u32) -> WeblogConfig {
    WeblogConfig {
        seed: seeds.weblog,
        users,
        exec: ExecConfig::serial(),
        ..WeblogConfig::paper()
    }
}

/// What the generator says a request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// Ordinary traffic: not a price notification.
    Reject,
    /// A sold impression's notification with a readable price.
    Cleartext,
    /// A sold impression's notification with an encrypted price.
    Encrypted,
    /// A corrupted copy of a notification.
    Malformed,
}

impl Label {
    /// True for the notifications of sold impressions, which the monitor
    /// must value; it must drop everything else.
    fn sold(self) -> bool {
        matches!(self, Label::Cleartext | Label::Encrypted)
    }

    fn span(self) -> Name {
        match self {
            Label::Reject => Name::ObserveReject,
            Label::Cleartext => Name::ObserveCleartext,
            Label::Encrypted => Name::ObserveEncrypted,
            Label::Malformed => Name::ObserveMalformed,
        }
    }
}

/// One device's captured year.
struct Device {
    /// Home city, the monitor's location input.
    home: City,
    /// Every request the device made, in order.
    requests: Vec<HttpRequest>,
    /// The generator's label for each request.
    labels: Vec<Label>,
}

impl Device {
    /// Requests labelled `label`.
    fn count(&self, label: Label) -> u64 {
        self.labels.iter().filter(|&&l| l == label).count() as u64
    }

    /// Heap and inline bytes the trace holds, as the allocator lays them
    /// out (16-byte granules, 8 bytes of header, 32-byte minimum).
    fn bytes(&self) -> u64 {
        let chunk = |cap: usize| {
            if cap == 0 {
                0
            } else {
                ((cap + 8 + 15) & !15).max(32) as u64
            }
        };
        let strings: u64 = self
            .requests
            .iter()
            .map(|r| chunk(r.url.capacity()) + chunk(r.user_agent.capacity()))
            .sum();
        strings
            + (self.requests.capacity() * std::mem::size_of::<HttpRequest>()) as u64
            + (self.labels.capacity() * std::mem::size_of::<Label>()) as u64
    }
}

/// Generates every device's trace, the load, before timing: the
/// generator's requests with their labels, plus the corrupted copies.
fn capture(service: &Service, seed: u64) -> Vec<Device> {
    let generator = &service.generator;
    let mut devices: Vec<Device> = generator
        .panel()
        .users()
        .iter()
        .map(|u| Device {
            home: u.home,
            requests: Vec::new(),
            labels: Vec::new(),
        })
        .collect();
    for s in 0..generator.shard_count() {
        let mut market = service.template.shard(s as u64);
        // The generator emits a sold impression's notification just
        // before its ground-truth record, so the truth labels the request
        // seen last.
        let last = Cell::new((0usize, 0usize));
        let mut sold = Vec::new();
        generator.run_shard(
            s,
            &mut market,
            |req| {
                let d = req.user.0 as usize;
                let device = &mut devices[d];
                device.requests.push(req.clone());
                device.labels.push(Label::Reject);
                last.set((d, device.requests.len() - 1));
            },
            |truth| {
                let (d, i) = last.get();
                assert_eq!(
                    d, truth.user.0 as usize,
                    "a notification precedes its truth"
                );
                sold.push((d, i, truth.visibility));
            },
        );
        for (d, i, visibility) in sold {
            devices[d].labels[i] = match visibility {
                PriceVisibility::Cleartext => Label::Cleartext,
                PriceVisibility::Encrypted => Label::Encrypted,
            };
        }
    }
    let mut rng = StdRng::seed_from_u64(yav_exec::derive_seed(seed, 0xC11E));
    for device in &mut devices {
        add_corruptions(device, &mut rng);
    }
    devices
}

/// Inserts corrupted copies of randomly chosen notifications, each right
/// after its original, until they make [`MALFORMED_SHARE`] of the trace.
fn add_corruptions(device: &mut Device, rng: &mut StdRng) {
    let sold: Vec<usize> = (0..device.labels.len())
        .filter(|&i| device.labels[i].sold())
        .collect();
    if sold.is_empty() {
        return;
    }
    let n = (device.requests.len() as f64 * MALFORMED_SHARE).round() as usize;
    let mut after: Vec<usize> = (0..n).map(|_| sold[rng.gen_range(0..sold.len())]).collect();
    after.sort_unstable();
    let mut requests = Vec::with_capacity(device.requests.len() + n);
    let mut labels = Vec::with_capacity(device.requests.len() + n);
    let mut next = after.iter().peekable();
    for (i, (req, label)) in device
        .requests
        .drain(..)
        .zip(device.labels.drain(..))
        .enumerate()
    {
        let mut copies = Vec::new();
        while next.next_if(|&&a| a == i).is_some() {
            copies.push(HttpRequest {
                url: corrupt(&req.url, rng),
                ..req.clone()
            });
        }
        requests.push(req);
        labels.push(label);
        for copy in copies {
            requests.push(copy);
            labels.push(Label::Malformed);
        }
    }
    device.requests = requests;
    device.labels = labels;
}

/// A notification URL broken one of three ways a network breaks them:
/// cut inside its first id, a bad percent escape inside its query, or
/// its price replaced by garbage.
fn corrupt(url: &str, rng: &mut StdRng) -> String {
    let query = url.find('?').map_or(url.len(), |q| q + 1);
    match rng.gen_range(0..3) {
        0 => {
            // `?imp=` then a 16-digit id: keep fewer than 16 digits.
            let cut = (query + 4 + rng.gen_range(0..16usize)).min(url.len());
            url[..cut].to_owned()
        }
        1 => {
            let at = rng.gen_range(query..=url.len());
            format!("{}%zz{}", &url[..at], &url[at..])
        }
        _ => {
            let param = yav_nurl::screen_adx(url)
                .map(template::price_param)
                .unwrap_or("");
            let key = format!("&{param}=");
            let Some(start) = url.find(&key).map(|p| p + key.len()) else {
                return format!("{url}%");
            };
            let end = url[start..].find('&').map_or(url.len(), |e| start + e);
            let garbage: String = (0..rng.gen_range(3..12))
                .map(|_| (b'g' + rng.gen_range(0..20u8)) as char)
                .collect();
            format!("{}x{garbage}{}", &url[..start], &url[end..])
        }
    }
}

/// A fresh monitor per device home with `model` installed.
fn install(homes: impl Iterator<Item = City>, model: &ClientModel) -> Vec<YourAdValue> {
    homes
        .map(|home| {
            let mut monitor = YourAdValue::new(Some(home));
            monitor.install_model(model.clone());
            monitor
        })
        .collect()
}

/// Per-pass results of one replay.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Replay {
    requests: u64,
    /// Requests valued when they should have been dropped or the
    /// reverse, plus accounting mismatches found after each device.
    failed: u64,
    parse_error: u64,
    not_notification: u64,
}

/// Replays every device's trace through its monitor, checking each
/// outcome against the request's label.
fn replay(
    devices: &[Device],
    mut monitors: Vec<YourAdValue>,
    mut tracer: Option<&mut Tracer>,
    uniform: &mut Vec<f64>,
) -> Replay {
    let mut r = Replay::default();
    for (device, monitor) in devices.iter().zip(monitors.iter_mut()) {
        let mut wrong = 0u64;
        match tracer.as_deref_mut() {
            None => {
                for (req, &label) in device.requests.iter().zip(&device.labels) {
                    let valued = monitor.observe(req).is_some();
                    wrong += (valued != label.sold()) as u64;
                }
            }
            Some(t) => {
                let span = t.begin(Name::Device, 0);
                for (i, (req, &label)) in device.requests.iter().zip(&device.labels).enumerate() {
                    let sampled = i.is_multiple_of(SAMPLE_EVERY);
                    if sampled || label != Label::Reject {
                        let t0 = t.now();
                        let valued = monitor.observe(req).is_some();
                        let t1 = t.now();
                        let ns = t.record(label.span(), span.id(), t0, t1);
                        if sampled {
                            uniform.push(ns as f64);
                        }
                        wrong += (valued != label.sold()) as u64;
                    } else {
                        let valued = monitor.observe(req).is_some();
                        wrong += (valued != label.sold()) as u64;
                    }
                }
                t.end(span);
            }
        }
        let drops = monitor.drop_stats();
        let sold = device.count(Label::Cleartext) + device.count(Label::Encrypted);
        let dropped = device.count(Label::Reject) + device.count(Label::Malformed);
        wrong += (monitor.ledger().len() as u64).abs_diff(sold);
        wrong += (drops.parse_error + drops.not_notification).abs_diff(dropped);
        wrong += monitor.skipped_no_model();
        r.requests += device.requests.len() as u64;
        r.failed += wrong;
        r.parse_error += drops.parse_error;
        r.not_notification += drops.not_notification;
    }
    r
}

/// Median ns per call of `probe` over [`PROBE_REPEATS`] walks of `calls`
/// calls each, recorded as `name` spans.
fn probe(tracer: &mut Tracer, name: Name, calls: usize, mut walk: impl FnMut()) -> f64 {
    let walks: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| timed(Some(&mut *tracer), name, 0, &mut walk).1 * 1e9 / calls.max(1) as f64)
        .collect();
    median(&walks)
}

/// Runs the `client` workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let seeds = Seeds::for_workload(seed);
    let config = weblog_config(&seeds, PANEL_USERS);
    let mut tracer = trace.then(Tracer::new);
    let mut install_times = Vec::new();
    let (service, setups) = repeat_setup(|| {
        let (service, times) = bring_up(config.clone(), &seeds, tracer.as_mut());
        let homes = service.generator.panel().users().iter().map(|u| u.home);
        let (monitors, install_s) = timed(tracer.as_mut(), Name::Install, 0, || {
            install(homes, &service.model)
        });
        install_times.push(install_s);
        drop(monitors);
        (service, times)
    });

    let devices = capture(&service, seed);
    let trace_mib = devices.iter().map(Device::bytes).sum::<u64>() as f64 / (1024.0 * 1024.0);

    let mut out = Outcome::default();
    let mut uniform = Vec::new();
    let mut first: Option<Replay> = None;
    let mut diverged = 0usize;
    let m = measure(
        seconds,
        tracer.as_mut(),
        || install(devices.iter().map(|d| d.home), &service.model),
        |monitors, t| {
            let r = replay(&devices, monitors, t, &mut uniform);
            out.failed += r.failed;
            match first {
                None => first = Some(r),
                Some(f) if f != r => diverged += 1,
                Some(_) => {}
            }
            r.requests
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
        .set("peak_rss_mib", crate::machine::peak_rss_mib() - trace_mib);
    out.metrics.set("machine.steal_pct", m.steal_pct);
    out.metrics.set("machine.cpu_per_wall", m.cpu_per_wall);
    out.metrics.set("machine.reference_ms", m.reference_ms());

    let count = |label| devices.iter().map(|d| d.count(label)).sum::<u64>();
    let requests: u64 = devices.iter().map(|d| d.requests.len() as u64).sum();
    let sold = count(Label::Cleartext) + count(Label::Encrypted);
    out.metrics.set("client.requests", requests as f64);
    out.metrics
        .set("client.notification_share", ratio(sold, requests));
    out.metrics.set(
        "client.malformed_share",
        ratio(count(Label::Malformed), requests),
    );
    if let Some(f) = first {
        out.metrics
            .set("client.dropped.parse_error", f.parse_error as f64);
        out.metrics
            .set("client.dropped.not_notification", f.not_notification as f64);
    }
    out.notes.push(format!(
        "client: {} devices, {requests} requests/pass ({sold} sold, {} malformed), {} passes, \
         trace {trace_mib:.1} MiB",
        devices.len(),
        count(Label::Malformed),
        m.passes(),
    ));
    out.notes.push(format!(
        "client.requests_per_ref_s {} 1/s",
        m.ops_per_ref_s()
    ));

    if let Some(t) = tracer.as_mut() {
        let classes = [
            Label::Reject,
            Label::Cleartext,
            Label::Encrypted,
            Label::Malformed,
        ];
        let per_class: Vec<f64> = classes.iter().map(|&l| t.mean_ns(l.span())).collect();
        let metrics = &mut out.metrics;
        metrics.set("client.core.observe_ns_p50", quantile(&uniform, 0.50));
        metrics.set("client.core.observe_ns_p99", quantile(&uniform, 0.99));
        metrics.set("client.core.reject_ns", per_class[0]);
        metrics.set("client.core.cleartext_ns", per_class[1]);
        metrics.set("client.core.encrypted_ns", per_class[2]);
        metrics.set("client.core.malformed_ns", per_class[3]);
        metrics.set("client.core.install_s", median(&install_times));
        // Each class's mean times its count over the traced passes, as a
        // share of the traced passes' wall time.
        let passes = m.traced_passes as f64;
        let explained: f64 = classes
            .iter()
            .zip(&per_class)
            .map(|(&l, ns)| ns * count(l) as f64 * passes)
            .sum();
        let coverage = explained / t.total_ns(Name::Pass).max(1) as f64;
        metrics.set("client.layer_sum_ratio", coverage);
        metrics.set("client.trace_overhead_pct", m.trace_overhead_pct());
        out.notes.push(coverage_note("client", coverage));

        let all: Vec<&HttpRequest> = devices.iter().flat_map(|d| &d.requests).collect();
        let sold_urls: Vec<(Adx, &str)> = devices
            .iter()
            .flat_map(|d| d.requests.iter().zip(&d.labels))
            .filter(|(_, l)| l.sold())
            .map(|(r, _)| {
                let adx = yav_nurl::screen_adx(&r.url).expect("a sold notification screens in");
                (adx, r.url.as_str())
            })
            .collect();
        let screen = probe(t, Name::Screen, all.len(), || {
            for req in &all {
                let _ = black_box(yav_nurl::screen_adx(black_box(&req.url)));
            }
        });
        let mut scratch = UrlScratch::new();
        let parse = probe(t, Name::Parse, sold_urls.len(), || {
            for &(adx, url) in &sold_urls {
                let url = UrlRef::parse(black_box(url)).expect("a sold notification parses");
                let _ = black_box(template::parse_borrowed_screened(adx, &url, &mut scratch));
            }
        });
        metrics.set("client.nurl.screen_ns", screen);
        metrics.set("client.nurl.parse_ns", parse);
    }
    out.tracer = tracer;
    out
}
