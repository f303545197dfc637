//! The process-wide metric registry.

use crate::metrics::{Counter, Gauge, Histogram};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Collection instrumentation writes into and exporters read from.
///
/// Metrics are keyed by dotted names (`<crate>.<subsystem>.<name>`, see
/// DESIGN.md) and created on first use. The maps are `BTreeMap`s so every
/// export walks names in stable sorted order.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses
    /// [`crate::registry`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histogram snapshots, sorted by name.
    pub fn histograms(&self) -> Vec<(String, crate::HistogramSnapshot)> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Drops every metric. Meant for test isolation; handles cached by
    /// call sites keep updating their detached atomics harmlessly.
    pub fn clear(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}
