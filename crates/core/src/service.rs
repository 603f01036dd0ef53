//! The monitoring front end: continuous classification with category
//! counters.
//!
//! §3 describes the operational loop on Darwin: issue categories "could be
//! set to trigger a notification email when a new message within that
//! category has been identified". [`MonitorService`] classifies and counts
//! over any [`TextClassifier`]; it does not notify. A notification is a
//! classified record whose category [`Category::is_actionable`]: the live
//! path hands every record to its sink fan-out, so a sink that keeps the
//! actionable ones is the notification channel, with the fan-out's
//! windows, retry, spill and balanced ledger.
//!
//! The paper's edit-distance noise pre-filter ([`crate::NoiseFilter`]) is
//! not on this path; experiment XA measures it offline.

use crate::classify::{Prediction, TextClassifier};
use crate::model_quality::ModelQuality;
use crate::taxonomy::Category;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use syslog_model::SyslogMessage;

/// Per-frame outcome of a live-path batch: the raw frame either failed to
/// parse, parsed and was classified, or parsed with no classifier
/// attached. The parsed message is handed back so the caller can build
/// its stored record without re-parsing.
#[derive(Debug, Clone)]
pub enum FrameOutcome {
    /// Parsed and classified.
    Classified {
        /// The parsed syslog message.
        message: SyslogMessage,
        /// The classifier's decision.
        prediction: Prediction,
    },
    /// Parsed but not classified: only a parse-only live path (no
    /// [`MonitorService`] attached) produces this, and stores the record
    /// uncategorized. [`MonitorService::ingest_frames`] never does.
    Prefiltered {
        /// The parsed syslog message.
        message: SyslogMessage,
    },
    /// The syslog parser rejected the frame (in practice only empty
    /// frames; the free-form fallback absorbs everything else).
    ParseError,
}

/// Running counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Messages seen; every one is classified, so this equals the sum of
    /// `per_category`.
    pub total: u64,
    /// Classifications per category, indexed by [`Category::index`].
    pub per_category: [u64; 8],
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
    per_category: [Arc<obs::Counter>; 8],
    parse_us: Arc<obs::Histogram>,
}

impl ServiceCounters {
    fn registered(registry: &obs::Registry) -> ServiceCounters {
        ServiceCounters {
            total: registry.counter(
                "hetsyslog_monitor_messages_total",
                "Messages seen by the monitor",
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
            per_category: std::array::from_fn(|i| self.per_category[i].get()),
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
    /// Frames classified through dispatched batches: every frame that
    /// parsed, or none when no classifier is attached.
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
    counters: ServiceCounters,
    /// Prediction-share counters + PSI drift gauge (always on).
    quality: ModelQuality,
}

impl MonitorService {
    /// Build a service around a classifier.
    pub fn new(classifier: Arc<dyn TextClassifier>) -> MonitorService {
        MonitorService {
            classifier,
            counters: ServiceCounters::registered(&obs::Registry::new()),
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

    /// Classify and count one message.
    pub fn ingest(&self, message: &str) -> Prediction {
        self.counters.total.inc();
        let prediction = self.classifier.classify(message);
        self.counters.per_category[prediction.category.index()].inc();
        self.quality.record(&[prediction.category]);
        prediction
    }

    /// Process a batch of messages through the classifier's batch path:
    /// count the totals, make one [`TextClassifier::classify_batch`] call
    /// (the matrix-at-a-time CSR path for traditional pipelines), then
    /// merge the per-category and quality counters in input order.
    /// Prediction `i` is for `messages[i]`, and the counters end up exactly
    /// as if [`MonitorService::ingest`] had been called per message in
    /// order.
    pub fn ingest_batch(&self, messages: &[&str]) -> Vec<Prediction> {
        self.counters.total.add(messages.len() as u64);
        let predictions = self.classifier.classify_batch(messages);
        let categories: Vec<Category> = predictions.iter().map(|p| p.category).collect();
        for category in &categories {
            self.counters.per_category[category.index()].inc();
        }
        // Same category sequence as the scalar path → identical quality
        // accounting (one batched record call).
        self.quality.record(&categories);
        predictions
    }

    /// Process a batch of raw syslog frames: parse, then one fused
    /// [`TextClassifier::classify_batch`] call over the parsed messages —
    /// the parse → tokenize → CSR-transform → batch-predict hot path of
    /// the live listener. Outcome `i` corresponds to `frames[i]`.
    ///
    /// Parse failures are reported as [`FrameOutcome::ParseError`] and
    /// never touch the monitor counters (the transport owns drop
    /// accounting), exactly as when the caller parses first and feeds
    /// [`MonitorService::ingest`] per message. For the frames that do
    /// parse, the counter sequence is identical to calling `ingest` on
    /// each `message` field in input order; predictions are identical too
    /// (`classify_batch` is bit-identical to `classify` on category).
    pub fn ingest_frames(&self, frames: &[&str]) -> Vec<FrameOutcome> {
        let parse_start = Instant::now();
        let parsed: Vec<Option<SyslogMessage>> =
            frames.iter().map(|f| syslog_model::parse(f).ok()).collect();
        self.counters
            .parse_us
            .record_duration_us(parse_start.elapsed());
        let texts: Vec<&str> = parsed
            .iter()
            .flatten()
            .map(|m| m.message.as_str())
            .collect();
        let mut predictions = self.ingest_batch(&texts).into_iter();
        parsed
            .into_iter()
            .map(|msg| match msg {
                Some(message) => FrameOutcome::Classified {
                    message,
                    prediction: predictions
                        .next()
                        .expect("classify_batch returns one prediction per input"),
                },
                None => FrameOutcome::ParseError,
            })
            .collect()
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
    fn counts_per_category() {
        let svc = MonitorService::new(Arc::new(Stub));
        let p = svc.ingest("cpu is hot");
        assert_eq!(p.category, Category::ThermalIssue);
        svc.ingest("nothing going on");
        svc.ingest("gpu also hot");
        let stats = svc.stats();
        assert_eq!(stats.total, 3);
        assert_eq!(stats.count(Category::ThermalIssue), 2);
        assert_eq!(stats.count(Category::Unimportant), 1);
    }

    #[test]
    fn batch_ingest() {
        let svc = MonitorService::new(Arc::new(Stub));
        let out = svc.ingest_batch(&["hot", "cold", "hot again"]);
        let categories: Vec<Category> = out.iter().map(|p| p.category).collect();
        assert_eq!(
            categories,
            [
                Category::ThermalIssue,
                Category::Unimportant,
                Category::ThermalIssue
            ]
        );
        assert_eq!(svc.stats().total, 3);
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
        let batch_svc = MonitorService::new(Arc::new(Stub));
        let outcomes = batch_svc.ingest_frames(&frames);
        assert_eq!(outcomes.len(), 4);
        assert!(matches!(outcomes[1], FrameOutcome::ParseError));
        // The parsed message comes back with the prediction.
        match &outcomes[0] {
            FrameOutcome::Classified { message, .. } => {
                assert_eq!(message.message, "cpu is hot");
                assert_eq!(message.hostname.as_deref(), Some("cn0001"));
            }
            other => panic!("expected Classified, got {other:?}"),
        }

        // Scalar reference: parse, then per-message ingest.
        let scalar_svc = MonitorService::new(Arc::new(Stub));
        let scalar: Vec<Option<Prediction>> = frames
            .iter()
            .map(|f| {
                syslog_model::parse(f)
                    .ok()
                    .map(|m| scalar_svc.ingest(&m.message))
            })
            .collect();
        assert_eq!(batch_svc.stats(), scalar_svc.stats());
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
        assert!(scalar_svc.quality.psi().is_some());
        assert_eq!(scalar_svc.quality.psi(), batch_svc.quality.psi());
        // A quality layer installed before `with_registry` exports there.
        assert_eq!(
            obs::parse_exposition(&registry.render_prometheus()).value(
                "hetsyslog_model_predictions_total",
                &[("category", Category::ThermalIssue.label())]
            ),
            Some(20.0)
        );
    }

    #[test]
    fn built_with_registry_exports_exactly_the_stats_ledger() {
        let registry = obs::Registry::new();
        let svc = MonitorService::new(Arc::new(Stub)).with_registry(&registry);
        svc.ingest("cpu is hot");
        svc.ingest_batch(&["quiet", "still quiet", "gpu also hot"]);
        svc.ingest_frames(&["<13>Oct 11 22:14:15 cn0001 kernel: cpu is hot", ""]);

        let stats = svc.stats();
        assert_eq!(stats.total, 5);
        assert_eq!(stats.per_category.iter().sum::<u64>(), stats.total);
        let scrape = obs::parse_exposition(&registry.render_prometheus());
        let counter = |name, labels: &[(&str, &str)]| scrape.value(name, labels).map(|v| v as u64);
        assert_eq!(
            counter("hetsyslog_monitor_messages_total", &[]),
            Some(stats.total)
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
