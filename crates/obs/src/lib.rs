//! Telemetry substrate for the hetsyslog pipeline.
//!
//! The crate provides four layers, each usable alone:
//!
//! - [`metrics`]: atomic [`Counter`] / [`Gauge`] and a log-linear-bucketed
//!   atomic [`Histogram`] whose snapshots estimate quantiles to within
//!   one bucket of error.
//! - [`registry`]: a named, labeled instrument [`Registry`]. Registration
//!   locks once and hands back `Arc` handles; the record path is pure
//!   atomics.
//! - [`span`]: lightweight [`Span`] tracing (enter/exit timestamps, parent
//!   links, per-stage tags) feeding a fixed-size ring of recent slow spans.
//! - [`export`] / [`http`]: Prometheus text exposition (render *and*
//!   parse), a JSON rendering, and a minimal scrape endpoint
//!   ([`MetricsServer`]) plus the matching [`http_get`] client.
//! - [`timeseries`] / [`alert`]: the flight recorder — a background
//!   [`Sampler`] scraping the registry into per-series ring buffers with
//!   delta-aware windowed aggregates, and a rule-based [`AlertEngine`]
//!   (threshold / absence / burn-rate with `for`-duration hysteresis)
//!   evaluated on every sweep.
//!
//! The pipeline crates hold a shared [`Telemetry`] bundle (registry +
//! span log) and register their instruments at construction time;
//! everything else — scrape endpoint, `hetsyslog top`, conformance
//! invariant checks — reads from the same bundle.

pub mod alert;
pub mod export;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod timeseries;

pub use alert::{AlertEngine, AlertEvent, AlertState, AlertStatus, Cmp, Rule, RuleInput, RuleKind};
pub use export::{parse_exposition, render_json, render_prometheus, Sample, Scrape};
pub use http::{http_get, MetricsServer, Route};
pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot,
    HIST_BUCKETS,
};
pub use registry::{Instrument, Labels, Registry, SeriesSnapshot};
pub use span::{Span, SpanLog, SpanRecord};
pub use timeseries::{Point, Sampler, SamplerConfig, TimeSeriesStore, WindowAggregate};

use std::sync::Arc;
use std::time::Duration;

/// Default slow-span threshold: spans shorter than this are counted but
/// not retained in the ring.
pub const DEFAULT_SLOW_SPAN_US: u64 = 1_000;

/// Default slow-span ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// The shared telemetry bundle: one metric registry plus one slow-span
/// ring, handed to every pipeline stage.
#[derive(Debug)]
pub struct Telemetry {
    /// The instrument registry backing `/metrics`.
    pub registry: Arc<Registry>,
    /// The slow-span ring backing `/spans`.
    pub spans: Arc<SpanLog>,
}

impl Telemetry {
    /// A bundle with default span retention (256 spans, 1ms threshold).
    pub fn new() -> Telemetry {
        Telemetry {
            registry: Arc::new(Registry::new()),
            spans: Arc::new(SpanLog::new(
                DEFAULT_SPAN_CAPACITY,
                Duration::from_micros(DEFAULT_SLOW_SPAN_US),
            )),
        }
    }

    /// Convenience: a shared bundle.
    pub fn new_arc() -> Arc<Telemetry> {
        Arc::new(Telemetry::new())
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_wires_registry_and_spans_together() {
        let t = Telemetry::new_arc();
        t.registry.counter("x_total", "", &[]).inc();
        t.spans.span("probe").finish();
        assert_eq!(
            parse_exposition(&t.registry.render_prometheus()).value("x_total", &[]),
            Some(1.0)
        );
        assert_eq!(t.spans.spans_started(), 1);
    }
}
