//! Seeds and the service bring-up every workload starts from.
//!
//! Set-up is the work before the first operation: the weblog generator,
//! the market template, probe campaigns A1/A2 at the Huge sizes, one-
//! thread quick training, and the client model the monitors use. All
//! three workloads bring the same service up (only the weblog preset
//! differs), so `setup_s` means the same thing on each. Like a block of
//! passes, a bring-up is timed by this thread's CPU clock and stated in
//! reference seconds (see `machine`).

use crate::machine::{self, reference_seconds, Snapshot, OTHER_THREADS_TOLERANCE_S};
use crate::metrics::median;
use crate::spans::{timed, Name, Tracer};
use yav_auction::{MarketConfig, MarketTemplate};
use yav_campaign::{Campaign, CampaignReport};
use yav_pme::model::{ClientModel, TrainConfig};
use yav_pme::Pme;
use yav_weblog::{WeblogConfig, WeblogGenerator};

/// Campaign impressions per Table-5 setup at the Huge sizes: A1, A2.
pub const SETUP_IMPRESSIONS: (u32, u32) = (40, 30);

/// The inputs' seeds, all set by the one workload seed. Seed 0 keeps the
/// repository's defaults, so its runs are the ones `StreamWorld` builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `WeblogConfig::seed`: panel, publisher universe, browsing.
    pub weblog: u64,
    /// `MarketConfig::seed`: bidders, prices, encryption keys.
    pub market: u64,
    /// Campaign A1's traffic seed.
    pub a1: u64,
    /// Campaign A2's traffic seed.
    pub a2: u64,
}

impl Seeds {
    /// The seeds behind workload seed `seed`.
    pub fn for_workload(seed: u64) -> Seeds {
        let pick = |default: u64| {
            if seed == 0 {
                default
            } else {
                yav_exec::derive_seed(default, seed)
            }
        };
        Seeds {
            weblog: pick(WeblogConfig::huge().seed),
            market: pick(MarketConfig::default().seed),
            a1: pick(Campaign::a1().seed),
            a2: pick(Campaign::a2().seed),
        }
    }

    /// The market configuration under these seeds.
    pub fn market_config(&self) -> MarketConfig {
        MarketConfig {
            seed: self.market,
            ..MarketConfig::default()
        }
    }

    /// Campaign A1 at `impressions` per setup under these seeds.
    pub fn a1(&self, impressions: u32) -> Campaign {
        Campaign {
            seed: self.a1,
            ..Campaign::a1().scaled(impressions)
        }
    }

    /// Campaign A2 at `impressions` per setup under these seeds.
    pub fn a2(&self, impressions: u32) -> Campaign {
        Campaign {
            seed: self.a2,
            ..Campaign::a2().scaled(impressions)
        }
    }
}

/// The quick training configuration on one thread.
pub fn quick_training() -> TrainConfig {
    let mut config = TrainConfig::quick();
    config.forest.threads = 1;
    config
}

/// A running service: everything a workload's operations need.
pub struct Service {
    /// The weblog generator (publisher universe; panel unless lazy).
    pub generator: WeblogGenerator,
    /// The market template shard markets are stamped from.
    pub template: MarketTemplate,
    /// Campaign A1's report.
    pub a1: CampaignReport,
    /// Campaign A2's report.
    pub a2: CampaignReport,
    /// The engine, holding the quick model.
    pub pme: Pme,
    /// The client model the monitors use.
    pub model: ClientModel,
}

/// What one bring-up took. The whole is timed by [`repeat_setup`]; the
/// steps, in wall seconds, only when tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// CPU seconds of the whole bring-up on this thread.
    pub total_s: f64,
    /// Wall seconds of the whole bring-up.
    pub wall_s: f64,
    /// CPU seconds the process's other threads used meanwhile.
    pub other_threads_s: f64,
    /// CPU milliseconds of the reference timed right after.
    pub reference_ms: f64,
    /// `MarketTemplate::new`.
    pub template_s: f64,
    /// Campaigns A1 and A2.
    pub campaigns_s: f64,
    /// Quick training plus packaging the client model.
    pub train_s: f64,
}

/// Brings the service up on one thread. `config.exec` must be serial.
pub fn bring_up(
    config: WeblogConfig,
    seeds: &Seeds,
    mut tracer: Option<&mut Tracer>,
) -> (Service, SetupTimes) {
    assert_eq!(config.exec.threads(), 1, "the benchmark runs one thread");
    let exec = config.exec;
    let root = tracer.as_deref_mut().map(|t| t.begin(Name::Setup, 0));
    let parent = root.map_or(0, |r| r.id());

    let (generator, _) = timed(tracer.as_deref_mut(), Name::Generator, parent, || {
        WeblogGenerator::new(config)
    });
    let market_config = seeds.market_config();
    let (template, template_s) = timed(tracer.as_deref_mut(), Name::Template, parent, || {
        MarketTemplate::new(market_config.clone())
    });
    let ((a1, a2), campaigns_s) = timed(tracer.as_deref_mut(), Name::Campaigns, parent, || {
        let (a1_imps, a2_imps) = SETUP_IMPRESSIONS;
        let universe = generator.universe();
        (
            yav_campaign::execute_parallel(&market_config, universe, &seeds.a1(a1_imps), &exec),
            yav_campaign::execute_parallel(&market_config, universe, &seeds.a2(a2_imps), &exec),
        )
    });
    let ((pme, model), train_s) = timed(tracer.as_deref_mut(), Name::QuickTrain, parent, || {
        let pme = Pme::new();
        pme.train_from_campaign(&a1.rows, &quick_training());
        let model = pme.current_model().expect("the engine was just trained");
        (pme, model)
    });

    if let (Some(t), Some(r)) = (tracer, root) {
        t.end(r);
    }
    let times = SetupTimes {
        template_s,
        campaigns_s,
        train_s,
        ..SetupTimes::default()
    };
    let service = Service {
        generator,
        template,
        a1,
        a2,
        pme,
        model,
    };
    (service, times)
}

/// Bring-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `bring` [`SETUPS`] times, timing each and the reference after
/// it, and returns the last result with every bring-up's times. Each
/// result is dropped before the next bring-up starts, so set-up memory
/// peaks once.
pub fn repeat_setup<T>(mut bring: impl FnMut() -> (T, SetupTimes)) -> (T, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Snapshot::clocks();
        let (value, steps) = bring();
        let end = Snapshot::clocks();
        let spent = start.spent_until(&end);
        times.push(SetupTimes {
            total_s: spent.cpu_s,
            wall_s: spent.wall_s,
            other_threads_s: start.other_threads_s(&end),
            reference_ms: machine::reference_ms(),
            ..steps
        });
        last = Some(value);
    }
    (last.expect("SETUPS is at least 1"), times)
}

/// `setup_s`: the median bring-up's reference seconds.
pub fn setup_s(times: &[SetupTimes]) -> f64 {
    median(
        &times
            .iter()
            .map(SetupTimes::reference_s)
            .collect::<Vec<_>>(),
    )
}

impl SetupTimes {
    /// The bring-up's CPU time in reference seconds.
    pub fn reference_s(&self) -> f64 {
        reference_seconds(self.total_s, self.reference_ms)
    }
}

/// The bring-ups that ran work on other threads, described in one line.
pub fn thread_problem(times: &[SetupTimes]) -> Option<String> {
    let other: f64 = times.iter().map(|t| t.other_threads_s).sum();
    (other > OTHER_THREADS_TOLERANCE_S * times.len() as f64)
        .then(|| format!("other threads used {other:.3} CPU s during set-up"))
}

/// One report line: the bring-ups' reference, CPU and wall seconds.
pub fn describe(times: &[SetupTimes]) -> String {
    let list = |f: fn(&SetupTimes) -> f64| {
        times
            .iter()
            .map(|t| format!("{:.4}", f(t)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "setup: {} bring-ups, reference s {}; CPU s {}; wall s {}",
        times.len(),
        list(SetupTimes::reference_s),
        list(|t| t.total_s),
        list(|t| t.wall_s)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_defaults_and_others_move_every_seed() {
        let zero = Seeds::for_workload(0);
        assert_eq!(zero.weblog, WeblogConfig::huge().seed);
        assert_eq!(zero.market, MarketConfig::default().seed);
        assert_eq!(zero.a1, Campaign::a1().seed);
        assert_eq!(zero.a2, Campaign::a2().seed);
        let one = Seeds::for_workload(1);
        assert_ne!(one.weblog, zero.weblog);
        assert_ne!(one.market, zero.market);
        assert_ne!(one.a1, zero.a1);
        assert_ne!(one.a2, zero.a2);
        assert_eq!(Seeds::for_workload(1), one);
    }
}
