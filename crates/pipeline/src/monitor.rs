//! Real-time classification inside the ingest path — the end state the
//! paper's Future Work aims at: "deploying our trained models on the new
//! data we stored in our collection system".

use crate::live::LivePath;
use crate::store::LogStore;
use crossbeam::channel::DrainStatus;
use hetsyslog_core::{BatchSnapshot, MonitorService};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a micro-batch left the assembly stage for the classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached `max_batch` frames.
    Full,
    /// `max_delay` expired with the batch partially filled.
    Deadline,
    /// The queue disconnected (graceful drain): the partial batch is
    /// flushed on the way out, losing nothing.
    Drain,
}

impl FlushReason {
    /// Map the channel-level drain status to the accounting reason.
    pub fn from_drain(status: DrainStatus) -> FlushReason {
        match status {
            DrainStatus::Filled => FlushReason::Full,
            DrainStatus::DeadlineExpired => FlushReason::Deadline,
            DrainStatus::Disconnected => FlushReason::Drain,
        }
    }
}

/// Shared, lock-free counters for the micro-batching stage: batch sizes,
/// fill latencies, queue→prediction latencies, and flush reasons. Owned by
/// the live path's shard workers; snapshots into the core wire format
/// ([`BatchSnapshot`]) for [`hetsyslog_core::HealthSnapshot`].
///
/// The histograms are `obs` log-linear histograms (≤ 12.5 % bucket
/// width); [`BatchStats::snapshot`] reports their p50/p99, and
/// [`BatchStats::registered`] exposes the same instruments — at full
/// resolution — on a shared `/metrics` registry.
#[derive(Debug)]
pub struct BatchStats {
    batches: Arc<obs::Counter>,
    classified: Arc<obs::Counter>,
    deferred: Arc<obs::Counter>,
    full_flushes: Arc<obs::Counter>,
    deadline_flushes: Arc<obs::Counter>,
    drain_flushes: Arc<obs::Counter>,
    /// Weighted by batch size: a flush of N frames adds weight N to value
    /// N, so totals count frames.
    batch_size_frames: Arc<obs::Histogram>,
    fill_latency_us: Arc<obs::Histogram>,
    queue_latency_us: Arc<obs::Histogram>,
}

impl Default for BatchStats {
    fn default() -> BatchStats {
        BatchStats::registered(&obs::Registry::new())
    }
}

impl BatchStats {
    /// New zeroed counters, detached from any registry (recording works,
    /// nothing is exported).
    pub fn new() -> BatchStats {
        BatchStats::default()
    }

    /// Counters backed by shared registry instruments: every record lands
    /// on `/metrics` as it happens. Two stages registering on the same
    /// registry share the same series.
    pub fn registered(registry: &obs::Registry) -> BatchStats {
        let flush = |reason: &str| {
            registry.counter(
                "hetsyslog_batch_flushes_total",
                "Batches dispatched, by flush reason",
                &[("reason", reason)],
            )
        };
        BatchStats {
            batches: registry.counter(
                "hetsyslog_batch_batches_total",
                "Batches dispatched to the classify/store stage",
                &[],
            ),
            classified: registry.counter(
                "hetsyslog_batch_classified_total",
                "Frames classified through dispatched batches",
                &[],
            ),
            deferred: registry.counter(
                "hetsyslog_batch_deferred_total",
                "Frames that waited on the batching deadline",
                &[],
            ),
            full_flushes: flush("full"),
            deadline_flushes: flush("deadline"),
            drain_flushes: flush("drain"),
            batch_size_frames: registry.histogram(
                "hetsyslog_batch_size_frames",
                "Frames by the size of the batch that carried them",
                &[],
            ),
            fill_latency_us: registry.histogram(
                "hetsyslog_batch_fill_duration_us",
                "Batch assembly time past the first frame, microseconds",
                &[],
            ),
            queue_latency_us: registry.histogram(
                "hetsyslog_batch_queue_delay_us",
                "Frame queue->prediction latency, microseconds",
                &[],
            ),
        }
    }

    /// Record one dispatched batch: its size (frames), how many of those
    /// frames produced predictions, how long the batch waited to assemble
    /// after its first frame, and why it was flushed.
    pub fn record_flush(
        &self,
        size: usize,
        classified: u64,
        fill_latency: Duration,
        reason: FlushReason,
    ) {
        self.batches.inc();
        self.classified.add(classified);
        self.batch_size_frames
            .record_weighted(size as u64, size as u64);
        self.fill_latency_us.record_duration_us(fill_latency);
        match reason {
            FlushReason::Full => self.full_flushes.inc(),
            FlushReason::Deadline => {
                self.deferred.add(size as u64);
                self.deadline_flushes.inc();
            }
            FlushReason::Drain => self.drain_flushes.inc(),
        };
    }

    /// Record one frame's queue→prediction latency (submit at the socket
    /// edge to batch dispatch completion).
    pub fn record_queue_latency(&self, latency: Duration) {
        self.queue_latency_us.record_duration_us(latency);
    }

    /// Point-in-time snapshot in the core wire format.
    pub fn snapshot(&self) -> BatchSnapshot {
        let fill = self.fill_latency_us.snapshot();
        let queue = self.queue_latency_us.snapshot();
        BatchSnapshot {
            batches: self.batches.get(),
            classified: self.classified.get(),
            deferred: self.deferred.get(),
            full_flushes: self.full_flushes.get(),
            deadline_flushes: self.deadline_flushes.get(),
            drain_flushes: self.drain_flushes.get(),
            frames: self.batch_size_frames.count(),
            fill_latency_p50_us: fill.quantile(50.0),
            fill_latency_p99_us: fill.quantile(99.0),
            queue_latency_p50_us: queue.quantile(50.0),
            queue_latency_p99_us: queue.quantile(99.0),
        }
    }
}

/// Ingest + classify report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassifyReport {
    /// Records stored.
    pub ingested: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl ClassifyReport {
    /// End-to-end classified-ingest throughput.
    pub fn messages_per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.ingested as f64 / self.seconds
        }
    }
}

/// An in-process driver that classifies every record in flight via a
/// [`MonitorService`] before storing it.
///
/// A *feeder* of the live path (`live.rs`): frames go round-robin onto
/// the shard rings, and the shard workers push each micro-batch through
/// one fused [`MonitorService::ingest_frames`] call — parse → tokenize →
/// CSR transform → batch predict — exactly as behind the socket listener.
/// Notifications are a [`ClassifyingIngest::with_fan_out`] lane whose
/// sink keeps the records with an actionable `category`.
pub struct ClassifyingIngest {
    store: Arc<LogStore>,
    service: Arc<MonitorService>,
    workers: usize,
    fallback_time: i64,
    fan_out: Option<Arc<crate::sink::FanOut>>,
}

impl ClassifyingIngest {
    /// Build over a shared store and monitor service.
    pub fn new(
        store: Arc<LogStore>,
        service: Arc<MonitorService>,
        workers: usize,
    ) -> ClassifyingIngest {
        ClassifyingIngest {
            store,
            service,
            workers: workers.max(1),
            fallback_time: 0,
            fan_out: None,
        }
    }

    /// Set the fallback event time.
    pub fn with_fallback_time(mut self, t: i64) -> ClassifyingIngest {
        self.fallback_time = t;
        self
    }

    /// Fan every stored batch out to the given sink router as well (see
    /// [`crate::sink::FanOut`]): each classified micro-batch is submitted
    /// to the sinks right before the store insert, with per-lane overload
    /// and spill semantics. The caller keeps the handle and shuts the
    /// fan-out down after its last run.
    pub fn with_fan_out(mut self, fan_out: Arc<crate::sink::FanOut>) -> ClassifyingIngest {
        self.fan_out = Some(fan_out);
        self
    }

    /// Run to completion over raw frames: every frame that parses is
    /// classified and stored with its category.
    pub fn run<I>(&self, frames: I) -> ClassifyReport
    where
        I: IntoIterator<Item = String>,
    {
        let started = Instant::now();
        let mut path = LivePath::start_in_process(
            self.store.clone(),
            Some(self.service.clone()),
            self.workers,
            self.fallback_time,
            self.fan_out.clone(),
        );
        path.feed(frames);
        path.finish();
        ClassifyReport {
            ingested: path.stats.ingested.get(),
            seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// The monitor service (for stats inspection).
    pub fn service(&self) -> &MonitorService {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsyslog_core::{Category, Prediction, TextClassifier};

    #[test]
    fn snapshot_counts_frames_and_reports_log_linear_quantiles() {
        let stats = BatchStats::new();
        for (size, reason) in [
            (64, FlushReason::Full),
            (7, FlushReason::Deadline),
            (1, FlushReason::Drain),
        ] {
            stats.record_flush(size, size as u64 / 2, Duration::from_micros(300), reason);
        }
        for us in 1..=100u64 {
            stats.record_queue_latency(Duration::from_micros(us * 1000));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.frames, 72);
        assert_eq!(snap.classified, 35);
        assert_eq!(snap.deferred, 7);
        assert_eq!(
            (snap.full_flushes, snap.deadline_flushes, snap.drain_flushes),
            (1, 1, 1)
        );
        assert_eq!(snap.mean_batch_size(), 24.0);
        // Upper bucket bounds, at most 12.5 % above the true value — not
        // the next power of two.
        let within = |got: u64, truth: u64| got >= truth && got <= truth + truth / 8;
        assert!(within(snap.fill_latency_p50_us, 300), "{snap:?}");
        assert!(within(snap.queue_latency_p50_us, 50_000), "{snap:?}");
        assert!(within(snap.p99_queue_latency_us(), 99_000), "{snap:?}");
    }

    struct Stub;
    impl TextClassifier for Stub {
        fn name(&self) -> String {
            "stub".into()
        }
        fn classify(&self, message: &str) -> Prediction {
            if message.contains("throttled") {
                Prediction::bare(Category::ThermalIssue)
            } else {
                Prediction::bare(Category::Unimportant)
            }
        }
    }

    fn stub_ingest(store: Arc<LogStore>, workers: usize) -> ClassifyingIngest {
        ClassifyingIngest::new(
            store,
            Arc::new(MonitorService::new(Arc::new(Stub))),
            workers,
        )
    }

    #[test]
    fn classifies_in_flight() {
        let store = Arc::new(LogStore::new());
        let ingest = stub_ingest(store.clone(), 2);
        let frames = vec![
            "<13>Oct 11 22:14:15 cn0001 kernel: cpu clock throttled".to_string(),
            "<13>Oct 11 22:14:16 cn0002 systemd: Started Session 1".to_string(),
        ];
        let report = ingest.run(frames);
        assert_eq!(report.ingested, 2);
        let hot = store.search(0, i64::MAX / 2, &["throttled".to_string()]);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].category, Some(Category::ThermalIssue));
        assert_eq!(ingest.service().stats().total, 2);
    }

    #[test]
    fn concurrent_classification_volume() {
        let store = Arc::new(LogStore::new());
        let ingest = stub_ingest(store.clone(), 4);
        let frames: Vec<String> = (0..2000)
            .map(|i| {
                format!(
                    "<13>Oct 11 22:{:02}:{:02} cn0001 kernel: cpu clock throttled {i}",
                    i / 60 % 60,
                    i % 60
                )
            })
            .collect();
        let report = ingest.run(frames);
        assert_eq!(report.ingested, 2000);
        assert_eq!(ingest.service().stats().count(Category::ThermalIssue), 2000);
    }
}
