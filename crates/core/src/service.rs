//! The monitoring front end: continuous classification with category
//! counters and alert hooks.
//!
//! §3 describes the operational loop on Darwin: issue categories "could be
//! set to trigger a notification email when a new message within that
//! category has been identified". [`MonitorService`] reproduces that loop
//! over any [`TextClassifier`]: classify, count, pre-filter noise, and
//! invoke an alert sink for actionable categories.

use crate::classify::{Prediction, TextClassifier};
use crate::filter::NoiseFilter;
use crate::model_quality::ModelQuality;
use crate::taxonomy::Category;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use syslog_model::SyslogMessage;

/// Per-frame outcome of [`MonitorService::ingest_frames`]: the raw frame
/// either failed to parse, parsed but was dropped by the noise pre-filter,
/// or parsed and was classified. The parsed message is handed back so the
/// caller can build its stored record without re-parsing.
#[derive(Debug, Clone)]
pub enum FrameOutcome {
    /// Parsed and classified.
    Classified {
        /// The parsed syslog message.
        message: SyslogMessage,
        /// The classifier's decision.
        prediction: Prediction,
    },
    /// Parsed, but the noise pre-filter dropped it before classification
    /// (callers typically store it uncategorized).
    Prefiltered {
        /// The parsed syslog message.
        message: SyslogMessage,
    },
    /// The syslog parser rejected the frame (in practice only empty
    /// frames; the free-form fallback absorbs everything else).
    ParseError,
}

/// An alert emitted for an actionable classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The triggering category.
    pub category: Category,
    /// The raw message.
    pub message: String,
    /// Suggested operator action.
    pub action: String,
}

/// Where alerts go (an email gateway in production; a channel or a vector
/// in tests).
pub trait AlertSink: Send + Sync {
    /// Deliver one alert.
    fn send(&self, alert: Alert);
}

/// An [`AlertSink`] that collects alerts into a vector (for tests and
/// examples).
#[derive(Debug, Default)]
pub struct CollectingSink {
    alerts: Mutex<Vec<Alert>>,
}

impl CollectingSink {
    /// New empty sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Drain collected alerts.
    pub fn take(&self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts.lock())
    }

    /// Number of alerts currently held.
    pub fn len(&self) -> usize {
        self.alerts.lock().len()
    }

    /// True when no alerts are held.
    pub fn is_empty(&self) -> bool {
        self.alerts.lock().is_empty()
    }
}

impl AlertSink for CollectingSink {
    fn send(&self, alert: Alert) {
        self.alerts.lock().push(alert);
    }
}

/// Running counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Messages seen (including filtered).
    pub total: u64,
    /// Messages dropped by the noise pre-filter.
    pub prefiltered: u64,
    /// Classifications per category, indexed by [`Category::index`].
    pub per_category: [u64; 8],
    /// Alerts emitted.
    pub alerts: u64,
}

impl MonitorStats {
    /// Count for one category.
    pub fn count(&self, c: Category) -> u64 {
        self.per_category[c.index()]
    }
}

/// The monitor's live counters: `obs` instruments registered once at
/// construction, so the same atomics feed [`MonitorService::stats`] and —
/// for a service built [`MonitorService::with_registry`] — `/metrics`.
struct ServiceCounters {
    total: Arc<obs::Counter>,
    prefiltered: Arc<obs::Counter>,
    per_category: [Arc<obs::Counter>; 8],
    alerts: Arc<obs::Counter>,
    parse_us: Arc<obs::Histogram>,
}

impl ServiceCounters {
    fn registered(registry: &obs::Registry) -> ServiceCounters {
        ServiceCounters {
            total: registry.counter(
                "hetsyslog_monitor_messages_total",
                "Messages seen by the monitor (including prefiltered)",
                &[],
            ),
            prefiltered: registry.counter(
                "hetsyslog_monitor_prefiltered_total",
                "Messages dropped by the noise pre-filter",
                &[],
            ),
            per_category: std::array::from_fn(|i| {
                let category = Category::from_index(i).expect("dense index");
                registry.counter(
                    "hetsyslog_monitor_classified_total",
                    "Classifications by category",
                    &[("category", category.label())],
                )
            }),
            alerts: registry.counter(
                "hetsyslog_monitor_alerts_total",
                "Alerts emitted (post-throttle)",
                &[],
            ),
            parse_us: registry.histogram(
                "hetsyslog_stage_duration_us",
                "Per-stage batch processing time in microseconds",
                &[("stage", "parse")],
            ),
        }
    }

    fn snapshot(&self) -> MonitorStats {
        MonitorStats {
            total: self.total.get(),
            prefiltered: self.prefiltered.get(),
            per_category: std::array::from_fn(|i| self.per_category[i].get()),
            alerts: self.alerts.get(),
        }
    }
}

/// Point-in-time counters from the ingest layer in front of the monitor —
/// the socket listener / stream decoder that feeds it frames. The transport
/// owns these numbers (the monitor never sees shed or undecodable frames);
/// it reports them here so one snapshot can describe the whole service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestSnapshot {
    /// Frames decoded off the wire.
    pub frames: u64,
    /// Raw bytes received.
    pub bytes: u64,
    /// Records successfully parsed and stored.
    pub ingested: u64,
    /// Frames that failed syslog parsing outright (empty frames; the
    /// free-form fallback accepts everything else).
    pub parse_errors: u64,
    /// Frames shed because the bounded ingest queue was full.
    pub shed: u64,
    /// Corrupt octet-count tokens dropped by the RFC 6587 decoder.
    pub decode_dropped: u64,
    /// Connections accepted over the lifetime of the listener.
    pub connections: u64,
    /// Connections closed for idling past the per-connection timeout.
    pub idle_closed: u64,
}

impl IngestSnapshot {
    /// Total frames lost before classification, for any reason.
    pub fn total_dropped(&self) -> u64 {
        self.parse_errors + self.shed + self.decode_dropped
    }
}

/// Point-in-time counters from a micro-batching stage between the ingest
/// queue and the classifiers: how frames were grouped, why batches were
/// dispatched, and how long frames waited. Owned by whichever worker loop
/// does the drain-and-batch scheduling (the listener / ingest pipeline);
/// reported here so one [`HealthSnapshot`] describes the whole service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchSnapshot {
    /// Batches dispatched to the classify/store stage.
    pub batches: u64,
    /// Frames classified through dispatched batches (parse failures and
    /// pre-filtered frames excluded).
    pub classified: u64,
    /// Frames that waited on the batching deadline: members of batches
    /// dispatched because `max_delay` expired rather than because the
    /// batch filled. Bounded staleness, made visible.
    pub deferred: u64,
    /// Batches dispatched full (`max_batch` frames).
    pub full_flushes: u64,
    /// Batches dispatched by the `max_delay` deadline.
    pub deadline_flushes: u64,
    /// Batches dispatched because the queue disconnected (graceful drain
    /// flushing a partially filled batch).
    pub drain_flushes: u64,
    /// Total frames that went through the batching stage.
    pub frames: u64,
    /// Median time a batch waited to fill after its first frame, µs
    /// (upper bound of its log-linear bucket, ≤ 12.5 % above the truth).
    pub fill_latency_p50_us: u64,
    /// 99th-percentile batch fill time, µs.
    pub fill_latency_p99_us: u64,
    /// Median queue→prediction latency, µs: enqueue at the socket to
    /// batch dispatch completion.
    pub queue_latency_p50_us: u64,
    /// 99th-percentile queue→prediction latency, µs.
    pub queue_latency_p99_us: u64,
}

impl BatchSnapshot {
    /// Mean frames per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.frames as f64 / self.batches as f64
        }
    }

    /// Estimated p99 queue→prediction latency in microseconds.
    pub fn p99_queue_latency_us(&self) -> u64 {
        self.queue_latency_p99_us
    }
}

/// One combined health view: classification counters plus the ingest-layer
/// counters supplied by the transport feeding this service.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Classifier-side counters (owned by the [`MonitorService`]).
    pub monitor: MonitorStats,
    /// Transport-side counters (owned by the listener / decoder).
    pub ingest: IngestSnapshot,
    /// Micro-batching counters (owned by the batch-draining worker loop;
    /// all zero when the transport classifies frame-at-a-time).
    pub batching: BatchSnapshot,
}

/// The continuous classification service.
pub struct MonitorService {
    classifier: Arc<dyn TextClassifier>,
    prefilter: Option<NoiseFilter>,
    sink: Option<Arc<dyn AlertSink>>,
    counters: ServiceCounters,
    /// Max alerts per category per throttle window (`None` = unthrottled).
    throttle: Option<u64>,
    /// Messages per throttle window.
    throttle_window: u64,
    /// Alerts sent per category within the current window.
    window_state: Mutex<([u64; 8], u64)>,
    /// Prediction-share counters + PSI drift gauge (always on).
    quality: ModelQuality,
}

impl MonitorService {
    /// Build a service around a classifier.
    pub fn new(classifier: Arc<dyn TextClassifier>) -> MonitorService {
        MonitorService {
            classifier,
            prefilter: None,
            sink: None,
            counters: ServiceCounters::registered(&obs::Registry::new()),
            throttle: None,
            throttle_window: 10_000,
            window_state: Mutex::new(([0; 8], 0)),
            quality: ModelQuality::new(),
        }
    }

    /// Replace the model-quality accounting (baseline / window sizing).
    /// Call before [`MonitorService::with_registry`], which binds
    /// whichever quality layer the service holds at that point.
    pub fn with_model_quality(mut self, quality: ModelQuality) -> MonitorService {
        self.quality = quality;
        self
    }

    /// Export this service's counters, its parse-stage histogram and its
    /// model-quality instruments on `registry` (without this call they
    /// record on a registry nobody scrapes). A construction-time builder:
    /// the instruments start from zero. The classifier is bound
    /// separately, before it is shared — see
    /// [`TraditionalPipeline::with_registry`](crate::TraditionalPipeline::with_registry).
    pub fn with_registry(mut self, registry: &obs::Registry) -> MonitorService {
        self.counters = ServiceCounters::registered(registry);
        self.quality = self.quality.with_registry(registry);
        self
    }

    /// The serving-time model-quality instruments.
    pub fn model_quality(&self) -> &ModelQuality {
        &self.quality
    }

    /// Cap alert volume: at most `max_per_category` alerts per category per
    /// window of `window_messages` alert-eligible (actionable) messages. A
    /// thermal runaway produces thousands of identical classifications
    /// (§4.5.1 bursts); the notification email should not.
    pub fn with_alert_throttle(
        mut self,
        max_per_category: u64,
        window_messages: u64,
    ) -> MonitorService {
        self.throttle = Some(max_per_category);
        self.throttle_window = window_messages.max(1);
        self
    }

    /// Attach the Unimportant pre-filter.
    pub fn with_prefilter(mut self, filter: NoiseFilter) -> MonitorService {
        self.prefilter = Some(filter);
        self
    }

    /// Attach an alert sink for actionable categories.
    pub fn with_alert_sink(mut self, sink: Arc<dyn AlertSink>) -> MonitorService {
        self.sink = Some(sink);
        self
    }

    /// Process one message; returns the prediction unless the pre-filter
    /// dropped the message.
    pub fn ingest(&self, message: &str) -> Option<Prediction> {
        let noise = self.prefilter.as_ref().is_some_and(|f| f.is_noise(message));
        self.counters.total.inc();
        if noise {
            self.counters.prefiltered.inc();
            return None;
        }
        let prediction = self.classifier.classify(message);
        self.counters.per_category[prediction.category.index()].inc();
        self.quality.record(&[prediction.category]);
        self.alert_if_actionable(prediction.category, message);
        Some(prediction)
    }

    /// Send the alert for an actionable classification, budget permitting.
    fn alert_if_actionable(&self, category: Category, message: &str) {
        if !category.is_actionable() {
            return;
        }
        let Some(sink) = &self.sink else { return };
        if self.alert_permitted(category) {
            self.counters.alerts.inc();
            sink.send(Alert {
                category,
                message: message.to_string(),
                action: category.suggested_action().to_string(),
            });
        }
    }

    /// Process a batch of messages through the classifier's batch path.
    ///
    /// Observes the exact same stats/alert sequence as calling
    /// [`MonitorService::ingest`] per message in order.
    pub fn ingest_batch(&self, messages: &[&str]) -> Vec<Option<Prediction>> {
        self.ingest_present(messages.iter().copied().map(Some))
    }

    /// The three passes behind both batch entry points, over the inputs
    /// that are present (`None` = a frame that failed to parse: skipped,
    /// never counted): a sequential pre-filter pass (counting totals and
    /// drops), one [`TextClassifier::classify_batch`] call over the
    /// survivors (the matrix-at-a-time CSR path for traditional
    /// pipelines), and a sequential merge applying category counters,
    /// alert throttling and quality accounting in input order. Slot `i` of
    /// the result is the prediction for the `i`-th input, `None` when
    /// absent or pre-filtered.
    fn ingest_present<'a>(
        &self,
        messages: impl ExactSizeIterator<Item = Option<&'a str>>,
    ) -> Vec<Option<Prediction>> {
        let n = messages.len();
        // Pass 1: totals + pre-filter, preserving input order.
        let mut kept_indices = Vec::with_capacity(n);
        let mut kept_messages = Vec::with_capacity(n);
        for (i, message) in messages.enumerate() {
            let Some(message) = message else { continue };
            self.counters.total.inc();
            match &self.prefilter {
                Some(f) if f.is_noise(message) => self.counters.prefiltered.inc(),
                _ => {
                    kept_indices.push(i);
                    kept_messages.push(message);
                }
            }
        }
        // Pass 2: classify all survivors at once.
        let predictions = self.classifier.classify_batch(&kept_messages);
        // Pass 3: merge counters and alerts back in input order.
        let mut out: Vec<Option<Prediction>> = vec![None; n];
        let mut categories = Vec::with_capacity(kept_indices.len());
        for ((&i, message), prediction) in kept_indices.iter().zip(kept_messages).zip(predictions) {
            self.counters.per_category[prediction.category.index()].inc();
            categories.push(prediction.category);
            self.alert_if_actionable(prediction.category, message);
            out[i] = Some(prediction);
        }
        // Same category sequence as the scalar path → identical quality
        // accounting (one batched record call).
        self.quality.record(&categories);
        out
    }

    /// Process a batch of raw syslog frames: parse, pre-filter, then one
    /// fused [`TextClassifier::classify_batch`] call over the survivors —
    /// the parse → tokenize → CSR-transform → batch-predict hot path of
    /// the live listener. Outcome `i` corresponds to `frames[i]`.
    ///
    /// Parse failures are reported as [`FrameOutcome::ParseError`] and
    /// never touch the monitor counters (the transport owns drop
    /// accounting), exactly as when the caller parses first and feeds
    /// [`MonitorService::ingest`] per message. For the frames that do
    /// parse, the stats/alert sequence is identical to calling `ingest`
    /// on each `message` field in input order; predictions are identical
    /// too (`classify_batch` is bit-identical to `classify` on category).
    pub fn ingest_frames(&self, frames: &[&str]) -> Vec<FrameOutcome> {
        let parse_start = Instant::now();
        let parsed: Vec<Option<SyslogMessage>> =
            frames.iter().map(|f| syslog_model::parse(f).ok()).collect();
        self.counters
            .parse_us
            .record_duration_us(parse_start.elapsed());
        let predictions = self.ingest_present(
            parsed
                .iter()
                .map(|msg| msg.as_ref().map(|m| m.message.as_str())),
        );
        parsed
            .into_iter()
            .zip(predictions)
            .map(|(msg, prediction)| match (msg, prediction) {
                (Some(message), Some(prediction)) => FrameOutcome::Classified {
                    message,
                    prediction,
                },
                (Some(message), None) => FrameOutcome::Prefiltered { message },
                (None, _) => FrameOutcome::ParseError,
            })
            .collect()
    }

    /// Check and update the per-category alert budget.
    fn alert_permitted(&self, category: Category) -> bool {
        let Some(max) = self.throttle else {
            return true;
        };
        let mut state = self.window_state.lock();
        let (counts, seen) = &mut *state;
        *seen += 1;
        if *seen > self.throttle_window {
            *counts = [0; 8];
            *seen = 1;
        }
        let slot = &mut counts[category.index()];
        if *slot < max {
            *slot += 1;
            true
        } else {
            false
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> MonitorStats {
        self.counters.snapshot()
    }

    /// Combine this service's counters with the ingest-layer counters of
    /// the transport feeding it into one health snapshot (no batching
    /// stage: the `batching` section is zeroed).
    pub fn health(&self, ingest: IngestSnapshot) -> HealthSnapshot {
        self.health_with_batching(ingest, BatchSnapshot::default())
    }

    /// [`MonitorService::health`] for a transport with a micro-batching
    /// stage: its batch counters ride along in the same snapshot.
    pub fn health_with_batching(
        &self,
        ingest: IngestSnapshot,
        batching: BatchSnapshot,
    ) -> HealthSnapshot {
        HealthSnapshot {
            monitor: self.stats(),
            ingest,
            batching,
        }
    }

    /// The classifier in use.
    pub fn classifier_name(&self) -> String {
        self.classifier.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub classifier: thermal if the text mentions heat, else
    /// unimportant.
    struct Stub;

    impl TextClassifier for Stub {
        fn name(&self) -> String {
            "stub".to_string()
        }

        fn classify(&self, message: &str) -> Prediction {
            if message.contains("hot") {
                Prediction::bare(Category::ThermalIssue)
            } else {
                Prediction::bare(Category::Unimportant)
            }
        }
    }

    #[test]
    fn counts_and_alerts() {
        let sink = Arc::new(CollectingSink::new());
        let svc = MonitorService::new(Arc::new(Stub)).with_alert_sink(sink.clone());
        svc.ingest("cpu is hot");
        svc.ingest("nothing going on");
        svc.ingest("gpu also hot");
        let stats = svc.stats();
        assert_eq!(stats.total, 3);
        assert_eq!(stats.count(Category::ThermalIssue), 2);
        assert_eq!(stats.count(Category::Unimportant), 1);
        assert_eq!(stats.alerts, 2);
        let alerts = sink.take();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].category, Category::ThermalIssue);
        assert!(!alerts[0].action.is_empty());
    }

    #[test]
    fn prefilter_short_circuits_classification() {
        let mut filter = NoiseFilter::empty(2);
        filter.add_pattern("known noise line");
        let svc = MonitorService::new(Arc::new(Stub)).with_prefilter(filter);
        assert!(svc.ingest("known noise line").is_none());
        assert!(svc.ingest("cpu is hot").is_some());
        let stats = svc.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(stats.prefiltered, 1);
        assert_eq!(stats.count(Category::ThermalIssue), 1);
    }

    #[test]
    fn unimportant_never_alerts() {
        let sink = Arc::new(CollectingSink::new());
        let svc = MonitorService::new(Arc::new(Stub)).with_alert_sink(sink.clone());
        svc.ingest("nothing going on");
        assert!(sink.is_empty());
        assert_eq!(svc.stats().alerts, 0);
    }

    #[test]
    fn batch_ingest() {
        let svc = MonitorService::new(Arc::new(Stub));
        let out = svc.ingest_batch(&["hot", "cold", "hot again"]);
        assert_eq!(out.len(), 3);
        assert_eq!(svc.stats().total, 3);
    }

    #[test]
    fn alert_throttle_caps_per_category_volume() {
        let sink = Arc::new(CollectingSink::new());
        let svc = MonitorService::new(Arc::new(Stub))
            .with_alert_sink(sink.clone())
            .with_alert_throttle(3, 100);
        // A thermal runaway: 50 identical actionable messages.
        for i in 0..50 {
            svc.ingest(&format!("cpu {i} hot"));
        }
        assert_eq!(sink.len(), 3, "throttle must cap the email storm");
        assert_eq!(svc.stats().alerts, 3);
        // Classification counters are NOT throttled.
        assert_eq!(svc.stats().count(Category::ThermalIssue), 50);
    }

    #[test]
    fn alert_throttle_window_resets() {
        let sink = Arc::new(CollectingSink::new());
        let svc = MonitorService::new(Arc::new(Stub))
            .with_alert_sink(sink.clone())
            .with_alert_throttle(1, 10);
        for i in 0..25 {
            svc.ingest(&format!("cpu {i} hot"));
        }
        // Windows of 10 actionable messages → one alert each.
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn health_combines_monitor_and_ingest_counters() {
        let svc = MonitorService::new(Arc::new(Stub));
        svc.ingest("cpu is hot");
        let ingest = IngestSnapshot {
            frames: 3,
            bytes: 120,
            ingested: 1,
            parse_errors: 1,
            shed: 1,
            decode_dropped: 0,
            connections: 2,
            idle_closed: 0,
        };
        let health = svc.health(ingest);
        assert_eq!(health.monitor.total, 1);
        assert_eq!(health.ingest.total_dropped(), 2);
        assert_eq!(health.batching, BatchSnapshot::default());
        // The combined snapshot serializes as one document (the dashboard
        // wire format).
        let json = serde_json::to_string(&health).unwrap();
        assert!(json.contains("\"shed\""));
        assert!(json.contains("\"queue_latency_p99_us\""));
    }

    #[test]
    fn ingest_frames_matches_scalar_ingest_sequence() {
        let frames = [
            "<13>Oct 11 22:14:15 cn0001 kernel: cpu is hot",
            "", // the one frame the permissive parser rejects
            "<13>Oct 11 22:14:16 cn0002 systemd: nothing going on",
            "free-form line that is hot",
        ];
        let sink_b = Arc::new(CollectingSink::new());
        let batch_svc = MonitorService::new(Arc::new(Stub)).with_alert_sink(sink_b.clone());
        let outcomes = batch_svc.ingest_frames(&frames);
        assert_eq!(outcomes.len(), 4);
        assert!(matches!(outcomes[1], FrameOutcome::ParseError));

        // Scalar reference: parse, then per-message ingest.
        let sink_s = Arc::new(CollectingSink::new());
        let scalar_svc = MonitorService::new(Arc::new(Stub)).with_alert_sink(sink_s.clone());
        let mut scalar: Vec<Option<Prediction>> = Vec::new();
        for f in &frames {
            match syslog_model::parse(f) {
                Ok(msg) => scalar.push(scalar_svc.ingest(&msg.message)),
                Err(_) => scalar.push(None),
            }
        }
        assert_eq!(batch_svc.stats(), scalar_svc.stats());
        assert_eq!(sink_b.take(), sink_s.take());
        for (outcome, reference) in outcomes.iter().zip(&scalar) {
            match (outcome, reference) {
                (FrameOutcome::Classified { prediction, .. }, Some(r)) => {
                    assert_eq!(prediction.category, r.category)
                }
                (FrameOutcome::ParseError, None) => {}
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn model_quality_accounting_matches_between_scalar_and_batch() {
        use crate::model_quality::ModelQuality;
        let messages: Vec<String> = (0..60)
            .map(|i| {
                if i % 3 == 0 {
                    format!("cpu {i} hot")
                } else {
                    format!("nothing {i}")
                }
            })
            .collect();
        let refs: Vec<&str> = messages.iter().map(String::as_str).collect();
        let scalar_svc = MonitorService::new(Arc::new(Stub))
            .with_model_quality(ModelQuality::with_config(20, 20));
        let registry = obs::Registry::new();
        let batch_svc = MonitorService::new(Arc::new(Stub))
            .with_model_quality(ModelQuality::with_config(20, 20))
            .with_registry(&registry);
        for m in &refs {
            scalar_svc.ingest(m);
        }
        batch_svc.ingest_batch(&refs);
        assert!(scalar_svc.model_quality().baseline_frozen());
        assert_eq!(
            scalar_svc.model_quality().psi(),
            batch_svc.model_quality().psi()
        );
        // A quality layer installed before `with_registry` exports there.
        assert_eq!(
            registry.counter_value(
                "hetsyslog_model_predictions_total",
                &[("category", Category::ThermalIssue.label())]
            ),
            Some(20)
        );
    }

    #[test]
    fn ingest_frames_respects_prefilter_and_returns_message() {
        let mut filter = NoiseFilter::empty(2);
        filter.add_pattern("known noise line");
        let svc = MonitorService::new(Arc::new(Stub)).with_prefilter(filter);
        let outcomes = svc.ingest_frames(&[
            "<13>Oct 11 22:14:15 cn0001 app: known noise line",
            "<13>Oct 11 22:14:15 cn0001 app: cpu is hot",
        ]);
        match &outcomes[0] {
            FrameOutcome::Prefiltered { message } => {
                assert_eq!(message.message, "known noise line")
            }
            other => panic!("expected Prefiltered, got {other:?}"),
        }
        match &outcomes[1] {
            FrameOutcome::Classified {
                message,
                prediction,
            } => {
                assert_eq!(message.hostname.as_deref(), Some("cn0001"));
                assert_eq!(prediction.category, Category::ThermalIssue);
            }
            other => panic!("expected Classified, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(stats.prefiltered, 1);
    }

    #[test]
    fn built_with_registry_exports_exactly_the_stats_ledger() {
        let registry = obs::Registry::new();
        let mut filter = NoiseFilter::empty(2);
        filter.add_pattern("known noise line");
        let sink = Arc::new(CollectingSink::new());
        let svc = MonitorService::new(Arc::new(Stub))
            .with_prefilter(filter)
            .with_alert_sink(sink)
            .with_registry(&registry);
        svc.ingest("cpu is hot");
        svc.ingest_batch(&["quiet", "known noise line", "gpu also hot"]);
        svc.ingest_frames(&["<13>Oct 11 22:14:15 cn0001 kernel: cpu is hot", ""]);

        let stats = svc.stats();
        assert_eq!((stats.total, stats.prefiltered, stats.alerts), (5, 1, 3));
        let counter = |name, labels: &[(&str, &str)]| registry.counter_value(name, labels);
        assert_eq!(
            counter("hetsyslog_monitor_messages_total", &[]),
            Some(stats.total)
        );
        assert_eq!(
            counter("hetsyslog_monitor_prefiltered_total", &[]),
            Some(stats.prefiltered)
        );
        assert_eq!(
            counter("hetsyslog_monitor_alerts_total", &[]),
            Some(stats.alerts)
        );
        for c in Category::ALL {
            let labels = [("category", c.label())];
            assert_eq!(
                counter("hetsyslog_monitor_classified_total", &labels),
                Some(stats.count(c))
            );
            assert_eq!(
                counter("hetsyslog_model_predictions_total", &labels),
                Some(stats.count(c))
            );
        }
    }

    #[test]
    fn service_is_share_safe_across_threads() {
        let svc = Arc::new(MonitorService::new(Arc::new(Stub)));
        let mut handles = Vec::new();
        for t in 0..4 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    svc.ingest(&format!("msg {t} {i} hot"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(svc.stats().total, 200);
        assert_eq!(svc.stats().count(Category::ThermalIssue), 200);
    }
}
