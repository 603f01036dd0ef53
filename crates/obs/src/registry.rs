//! The instrument registry: named, labeled counters/gauges/histograms with
//! a lock-free record path.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes a mutex and
//! get-or-creates the instrument, returning a shared `Arc` handle. Callers
//! register once at construction time, cache the handle, and record through
//! plain atomics — the registry lock is never on the hot path. The same
//! (name, labels) pair always resolves to the same instrument, so two
//! components describing the same stage share one time series.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Label set: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn labels_of(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

/// One registered instrument.
#[derive(Debug, Clone)]
pub enum Instrument {
    /// A monotonic counter.
    Counter(Arc<Counter>),
    /// An up/down gauge.
    Gauge(Arc<Gauge>),
    /// A log-linear histogram.
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: every labeled instrument sharing a name, plus its
/// help text and type.
#[derive(Debug, Default)]
struct Family {
    help: String,
    series: BTreeMap<Labels, Instrument>,
}

/// A point-in-time copy of one labeled series, for export and scraping.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Metric family name.
    pub name: String,
    /// Family help text (may be empty).
    pub help: String,
    /// Instrument kind: `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// The series labels, sorted by key.
    pub labels: Labels,
    /// Counter/gauge value (histograms report 0 here).
    pub value: i64,
    /// Histogram data (counters/gauges report `None`).
    pub histogram: Option<HistogramSnapshot>,
}

/// The registry. Cheap to create; share as `Arc<Registry>`.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// A new empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T, F: FnOnce() -> Instrument, G: Fn(&Instrument) -> Option<Arc<T>>>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: F,
        cast: G,
        fallback: Arc<T>,
    ) -> Arc<T> {
        let mut families = self.families.lock();
        let family = families.entry(name.to_string()).or_default();
        if family.help.is_empty() && !help.is_empty() {
            family.help = help.to_string();
        }
        let instrument = family
            .series
            .entry(labels_of(labels))
            .or_insert_with(make)
            .clone();
        // A kind collision (same name registered as a different type)
        // hands back a detached instrument rather than corrupting the
        // existing series; recording still works, export ignores it.
        cast(&instrument).unwrap_or(fallback)
    }

    /// Get-or-create a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Counter(Arc::new(Counter::new())),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Arc::new(Counter::new()),
        )
    }

    /// Get-or-create a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Gauge(Arc::new(Gauge::new())),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Arc::new(Gauge::new()),
        )
    }

    /// Get-or-create a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Histogram(Arc::new(Histogram::new())),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Arc::new(Histogram::new()),
        )
    }

    /// Snapshot every registered series, sorted by (name, labels).
    pub fn gather(&self) -> Vec<SeriesSnapshot> {
        let families = self.families.lock();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, instrument) in &family.series {
                let (value, histogram) = match instrument {
                    Instrument::Counter(c) => (c.get() as i64, None),
                    Instrument::Gauge(g) => (g.get(), None),
                    Instrument::Histogram(h) => (0, Some(h.snapshot())),
                };
                out.push(SeriesSnapshot {
                    name: name.clone(),
                    help: family.help.clone(),
                    kind: instrument.kind(),
                    labels: labels.clone(),
                    value,
                    histogram,
                });
            }
        }
        out
    }

    /// Render the whole registry in Prometheus text exposition format
    /// (version 0.0.4). Histograms emit cumulative `_bucket{le=...}` lines
    /// for each non-empty bucket plus `+Inf`, then `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        crate::export::render_prometheus(&self.gather())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_instrument() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", "requests", &[("stage", "parse")]);
        let b = reg.counter("requests_total", "", &[("stage", "parse")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(
            crate::parse_exposition(&reg.render_prometheus())
                .value("requests_total", &[("stage", "parse")]),
            Some(3.0)
        );
        // Different labels → different series.
        let c = reg.counter("requests_total", "", &[("stage", "predict")]);
        c.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(reg.gather().len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        let a = reg.gauge("depth", "", &[("a", "1"), ("b", "2")]);
        let b = reg.gauge("depth", "", &[("b", "2"), ("a", "1")]);
        a.set(7);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn kind_collision_yields_detached_instrument() {
        let reg = Registry::new();
        let c = reg.counter("mixed", "", &[]);
        c.inc();
        let g = reg.gauge("mixed", "", &[]);
        g.set(99);
        // The original counter series is untouched.
        let all = reg.gather();
        assert_eq!(all.len(), 1);
        assert_eq!((all[0].kind, all[0].value), ("counter", 1));
    }

    #[test]
    fn gather_reports_histograms() {
        let reg = Registry::new();
        let h = reg.histogram("latency_us", "stage latency", &[("stage", "decode")]);
        h.record(5);
        h.record(100);
        let all = reg.gather();
        assert_eq!(all.len(), 1);
        let s = &all[0];
        assert_eq!(s.kind, "histogram");
        let hist = s.histogram.as_ref().unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 105);
    }
}
