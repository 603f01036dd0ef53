//! Micro-batch accounting for the live path's shard workers: why a batch
//! left assembly ([`FlushReason`]) and the counters every flush lands on
//! ([`BatchStats`]). Classification in flight is the live path's own
//! work (`live.rs`), driven by [`crate::SyslogListener`].

use crossbeam::channel::DrainStatus;
use hetsyslog_core::BatchSnapshot;
use std::sync::Arc;
use std::time::Duration;

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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(within(snap.queue_latency_p99_us, 99_000), "{snap:?}");
    }
}
