//! The post-classification sink stage: delivery with guarantees.
//!
//! The paper's Tivan pipeline does not stop at classification — classified
//! logs ship onward to OpenSearch/Grafana and must survive sink slowness
//! and outages. This module adds that stage to the reproduction: a
//! [`Sink`] trait (`submit_batch` → ack/nack), three implementations
//! ([`FileSink`], [`BulkSink`], [`MetricSink`]), and a [`FanOut`] router
//! that multiplexes classified batches to N sinks, each with its own
//! in-flight window, bounded exponential retry/backoff, and an optional
//! durable spill buffer ([`crate::spill`]).
//!
//! Delivery model per lane (one lane per sink, one worker thread each):
//!
//! ```text
//!            submit                    worker
//! records ──► queue (≤ window) ──────► submit_batch ──► ack: delivered
//!               │ window full /            │ nack × max_attempts
//!               ▼ sink down                ▼
//!             spill segments ◄──────── failed batch (+ queue, FIFO)
//!               │
//!               └──────── replay (oldest first) ──► ack: replayed
//! ```
//!
//! The conservation ledger extends the listener's `frames == stored +
//! dropped` invariant downstream: per sink, at every instant,
//!
//! ```text
//! submitted + recovered == delivered + spilled_pending + dropped + in_flight
//! ```
//!
//! and at quiescence `in_flight == 0`. With a spill configured, Block-mode
//! overload means *latency* (spill-then-replay, at-least-once) instead of
//! *loss*; without one, the lane falls back to the listener's
//! [`OverloadPolicy`] semantics (Block waits for window space, Shed counts
//! a drop). Everything is exported as `hetsyslog_sink_*` /
//! `hetsyslog_spill_*` instruments, one series per sink.

use crate::listener::OverloadPolicy;
use crate::record::LogRecord;
use crate::shard::splitmix64;
use crate::spill::{SpillBuffer, SpillConfig, SpillFrame};
use obs::{Counter, Gauge, Histogram, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch on its way to one sink: the lane-assigned sequence number plus
/// the classified records.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkBatch {
    /// Lane-local monotone sequence (FIFO evidence; survives the spill).
    pub seq: u64,
    /// The classified records.
    pub records: Vec<LogRecord>,
}

impl SinkBatch {
    /// Encode the records as the spill payload (JSON array — the same
    /// serde model as the store's JSONL tier).
    pub fn encode_payload(&self) -> Vec<u8> {
        serde_json::to_string(&self.records)
            .expect("LogRecord serializes")
            .into_bytes()
    }

    /// Rebuild a batch from a replayed spill frame.
    pub fn decode(frame: &SpillFrame) -> Result<SinkBatch, serde_json::Error> {
        Ok(SinkBatch {
            seq: frame.seq,
            records: serde_json::from_slice(&frame.payload)?,
        })
    }

    /// The spill frame for this batch.
    pub fn to_frame(&self) -> SpillFrame {
        SpillFrame {
            seq: self.seq,
            records: self.records.len() as u32,
            payload: self.encode_payload(),
        }
    }
}

/// A sink rejected a batch (nack). Nacks are retryable by definition —
/// the lane retries with backoff and spills when attempts run out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkError {
    /// Human-readable rejection reason.
    pub reason: String,
}

impl SinkError {
    /// A nack with the given reason.
    pub fn new(reason: impl Into<String>) -> SinkError {
        SinkError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sink nack: {}", self.reason)
    }
}

/// A delivery destination. `submit_batch` is synchronous: `Ok` is an ack
/// (the batch is durable / applied at the destination), `Err` is a nack
/// (nothing happened; safe to retry). Implementations must be
/// `Send + Sync` — each lane worker calls from its own thread.
pub trait Sink: Send + Sync {
    /// Stable destination name (used as the `sink` metric label).
    fn name(&self) -> &str;
    /// Deliver one batch. Ack (`Ok`) or nack (`Err`, retryable).
    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError>;
}

// ---------------------------------------------------------------------------
// FileSink: append-only CRC-framed segments, fsync on seal.
// ---------------------------------------------------------------------------

struct FileSegment {
    writer: std::io::BufWriter<std::fs::File>,
    path: std::path::PathBuf,
    bytes: u64,
}

struct FileSinkState {
    active: Option<FileSegment>,
    next_index: u64,
}

/// Append-only file sink: batches land as CRC-framed records (the spill
/// codec) in size-capped `sink-<index>.seg` files, fsynced when a segment
/// seals. The on-disk format is replayable with the spill codec's reader
/// ([`crate::spill::decode_frame`]) — this is the "archive to disk"
/// destination.
pub struct FileSink {
    name: String,
    dir: std::path::PathBuf,
    segment_cap_bytes: u64,
    state: Mutex<FileSinkState>,
}

impl FileSink {
    /// A file sink writing under `dir` (created if missing) with the
    /// default 8 MiB segment cap.
    pub fn new(
        name: impl Into<String>,
        dir: impl Into<std::path::PathBuf>,
    ) -> io::Result<FileSink> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let next_index = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                name.strip_prefix("sink-")?
                    .strip_suffix(".seg")?
                    .parse::<u64>()
                    .ok()
            })
            .map(|i| i + 1)
            .max()
            .unwrap_or(0);
        Ok(FileSink {
            name: name.into(),
            dir,
            segment_cap_bytes: 8 * 1024 * 1024,
            state: Mutex::new(FileSinkState {
                active: None,
                next_index,
            }),
        })
    }

    /// Flush and fsync the active segment (graceful shutdown).
    pub fn seal(&self) -> io::Result<()> {
        let mut state = self.state.lock();
        Self::seal_segment(&mut state)
    }

    fn seal_segment(state: &mut FileSinkState) -> io::Result<()> {
        use std::io::Write;
        if let Some(mut seg) = state.active.take() {
            seg.writer.flush()?;
            seg.writer.get_ref().sync_all()?;
        }
        Ok(())
    }
}

impl Sink for FileSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
        use std::io::Write;
        let frame = batch.to_frame();
        let len = crate::spill::encoded_len(&frame);
        let mut state = self.state.lock();
        let needs_roll = state
            .active
            .as_ref()
            .is_some_and(|s| s.bytes > 0 && s.bytes + len > self.segment_cap_bytes);
        if needs_roll {
            Self::seal_segment(&mut state).map_err(|e| SinkError::new(e.to_string()))?;
        }
        if state.active.is_none() {
            let index = state.next_index;
            state.next_index += 1;
            let path = self.dir.join(format!("sink-{index:08}.seg"));
            let file = std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&path)
                .map_err(|e| SinkError::new(e.to_string()))?;
            state.active = Some(FileSegment {
                writer: std::io::BufWriter::new(file),
                path,
                bytes: 0,
            });
        }
        let seg = state.active.as_mut().expect("just ensured");
        let mut encoded = Vec::with_capacity(len as usize);
        crate::spill::encode_frame(&frame, &mut encoded);
        let write = seg
            .writer
            .write_all(&encoded)
            .and_then(|()| seg.writer.flush());
        match write {
            Ok(()) => {
                seg.bytes += len;
                Ok(())
            }
            Err(e) => {
                // A torn in-flight write must not be acked; drop the
                // segment handle so the next attempt reopens cleanly.
                let seg = state.active.take().expect("present");
                let _ = std::fs::remove_file(&seg.path);
                Err(SinkError::new(e.to_string()))
            }
        }
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.seal();
    }
}

// ---------------------------------------------------------------------------
// BulkSink: simulated bulk indexer with an injectable fault plan.
// ---------------------------------------------------------------------------

/// A scripted misbehavior schedule for [`BulkSink`]: deterministic random
/// nacks, a per-request stall, and hard outage windows (every request
/// nacks) relative to the sink's first request. This is the fault-injection
/// surface the test harness drives.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic nack schedule.
    pub seed: u64,
    /// Probability in `[0, 1]` that a request nacks.
    pub error_rate: f64,
    /// Added latency per request (applies to nacks too — a slow failure).
    pub stall: Duration,
    /// Hard outage windows `(start, duration)` measured from the first
    /// request: inside one, every request nacks.
    pub outages: Vec<(Duration, Duration)>,
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn healthy() -> FaultPlan {
        FaultPlan::default()
    }

    /// Nack a deterministic `rate` fraction of requests.
    pub fn with_error_rate(mut self, rate: f64) -> FaultPlan {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sleep `stall` on every request.
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        self.stall = stall;
        self
    }

    /// Add a hard outage window starting `start` after the first request.
    pub fn with_outage(mut self, start: Duration, duration: Duration) -> FaultPlan {
        self.outages.push((start, duration));
        self
    }

    /// Seed the deterministic nack schedule.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }
}

/// Simulated bulk-indexing sink (the OpenSearch `_bulk` stand-in): acks
/// batches after an optional simulated stall, and misbehaves exactly as
/// its [`FaultPlan`] scripts.
pub struct BulkSink {
    name: String,
    plan: FaultPlan,
    epoch: Mutex<Option<Instant>>,
    attempts: AtomicU64,
    delivered_batches: AtomicU64,
    delivered_records: AtomicU64,
}

impl BulkSink {
    /// A bulk sink following `plan`.
    pub fn new(name: impl Into<String>, plan: FaultPlan) -> BulkSink {
        BulkSink {
            name: name.into(),
            plan,
            epoch: Mutex::new(None),
            attempts: AtomicU64::new(0),
            delivered_batches: AtomicU64::new(0),
            delivered_records: AtomicU64::new(0),
        }
    }

    /// Start the outage clock now instead of at the first request.
    pub fn start_clock(&self) {
        let mut epoch = self.epoch.lock();
        if epoch.is_none() {
            *epoch = Some(Instant::now());
        }
    }

    /// Seconds since the outage clock started (0 before the first request).
    pub fn elapsed(&self) -> Duration {
        self.epoch.lock().map(|e| e.elapsed()).unwrap_or_default()
    }

    /// Batches acked so far.
    pub fn delivered_batches(&self) -> u64 {
        self.delivered_batches.load(Ordering::Relaxed)
    }

    /// Records acked so far.
    pub fn delivered_records(&self) -> u64 {
        self.delivered_records.load(Ordering::Relaxed)
    }

    fn in_outage(&self, elapsed: Duration) -> bool {
        self.plan
            .outages
            .iter()
            .any(|&(start, dur)| elapsed >= start && elapsed < start + dur)
    }
}

impl Sink for BulkSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
        self.start_clock();
        if !self.plan.stall.is_zero() {
            std::thread::sleep(self.plan.stall);
        }
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let elapsed = self.elapsed();
        if self.in_outage(elapsed) {
            return Err(SinkError::new(format!(
                "hard outage at t+{:.1}s",
                elapsed.as_secs_f64()
            )));
        }
        if self.plan.error_rate > 0.0 {
            // Deterministic per-attempt coin flip: same seed → same nack
            // schedule, so fault scenarios reproduce bit-for-bit.
            let roll = splitmix64(self.plan.seed ^ attempt) as f64 / u64::MAX as f64;
            if roll < self.plan.error_rate {
                return Err(SinkError::new(format!(
                    "injected error (attempt {attempt})"
                )));
            }
        }
        self.delivered_batches.fetch_add(1, Ordering::Relaxed);
        self.delivered_records
            .fetch_add(batch.records.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MetricSink: logs-to-metrics, feeding the obs registry.
// ---------------------------------------------------------------------------

/// Log-to-metric sink: folds every record into per-category counters
/// (`hetsyslog_logmetric_records_total{category=…}`) on the shared obs
/// registry — the Grafana-facing destination. Never nacks.
pub struct MetricSink {
    name: String,
    by_category: Vec<Arc<Counter>>,
    unclassified: Arc<Counter>,
}

impl MetricSink {
    /// A metric sink registering its counters on `registry`.
    pub fn new(name: impl Into<String>, registry: &Registry) -> MetricSink {
        let help = "Records delivered to the log-to-metric sink, by category";
        let by_category = hetsyslog_core::Category::ALL
            .iter()
            .map(|c| {
                registry.counter(
                    "hetsyslog_logmetric_records_total",
                    help,
                    &[("category", c.label())],
                )
            })
            .collect();
        MetricSink {
            name: name.into(),
            by_category,
            unclassified: registry.counter(
                "hetsyslog_logmetric_records_total",
                help,
                &[("category", "unclassified")],
            ),
        }
    }
}

impl Sink for MetricSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
        for record in &batch.records {
            match record.category {
                Some(c) => self.by_category[c.index()].inc(),
                None => self.unclassified.inc(),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FanOut: the router.
// ---------------------------------------------------------------------------

/// Per-lane tuning for [`FanOut`].
#[derive(Debug, Clone)]
pub struct SinkLaneConfig {
    /// In-flight window: batches queued in memory before the lane spills
    /// (or applies `overload` when no spill is configured).
    pub window: usize,
    /// Delivery attempts per batch before it is declared nacked-out.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling (also the replay pause while a sink stays down).
    pub backoff_cap: Duration,
    /// Without a spill: Block waits for window space, Shed drops + counts.
    pub overload: OverloadPolicy,
    /// Durable spill directory; `None` disables spill-then-replay.
    pub spill: Option<SpillConfig>,
}

impl Default for SinkLaneConfig {
    fn default() -> SinkLaneConfig {
        SinkLaneConfig {
            window: 64,
            max_attempts: 5,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(250),
            overload: OverloadPolicy::Block,
            spill: None,
        }
    }
}

impl SinkLaneConfig {
    /// Enable spill-then-replay under `dir`.
    pub fn with_spill(mut self, config: SpillConfig) -> SinkLaneConfig {
        self.spill = Some(config);
        self
    }
}

/// One sink plus its lane tuning, for [`FanOut::open`].
pub struct SinkSpec {
    /// The destination.
    pub sink: Arc<dyn Sink>,
    /// Lane tuning.
    pub config: SinkLaneConfig,
}

impl SinkSpec {
    /// A spec with default lane tuning.
    pub fn new(sink: Arc<dyn Sink>) -> SinkSpec {
        SinkSpec {
            sink,
            config: SinkLaneConfig::default(),
        }
    }

    /// A spec with explicit lane tuning.
    pub fn with_config(sink: Arc<dyn Sink>, config: SinkLaneConfig) -> SinkSpec {
        SinkSpec { sink, config }
    }
}

/// Why a lane dropped records (the `reason` label on
/// `hetsyslog_sink_dropped_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkDropReason {
    /// Window full under Shed with no spill configured.
    Shed,
    /// Retries exhausted with no spill configured.
    NackedOut,
    /// Undeliverable at shutdown with no spill configured.
    Shutdown,
}

impl SinkDropReason {
    /// Stable label for metrics and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            SinkDropReason::Shed => "shed",
            SinkDropReason::NackedOut => "nacked_out",
            SinkDropReason::Shutdown => "shutdown",
        }
    }
}

/// Per-lane instruments (`sink=<name>` on every series), registered once
/// when the lane opens.
#[derive(Debug)]
struct SinkStats {
    submitted: Arc<Counter>,
    delivered: Arc<Counter>,
    dropped_shed: Arc<Counter>,
    dropped_nacked: Arc<Counter>,
    dropped_shutdown: Arc<Counter>,
    retries: Arc<Counter>,
    nacks: Arc<Counter>,
    in_flight: Arc<Gauge>,
    submit_us: Arc<Histogram>,
    spilled: Arc<Counter>,
    replayed: Arc<Counter>,
    recovered: Arc<Counter>,
    spill_bytes: Arc<Counter>,
    spill_sealed: Arc<Counter>,
    spill_quarantined: Arc<Counter>,
    spill_pending: Arc<Gauge>,
}

impl SinkStats {
    fn registered(registry: &Registry, sink: &str) -> SinkStats {
        let l = &[("sink", sink)][..];
        let dropped = |reason: SinkDropReason| {
            registry.counter(
                "hetsyslog_sink_dropped_total",
                "Records dropped by a sink lane, by reason",
                &[("sink", sink), ("reason", reason.as_str())],
            )
        };
        SinkStats {
            submitted: registry.counter(
                "hetsyslog_sink_submitted_total",
                "Records handed to a sink lane",
                l,
            ),
            delivered: registry.counter(
                "hetsyslog_sink_delivered_total",
                "Records acked by the sink (direct or replayed)",
                l,
            ),
            dropped_shed: dropped(SinkDropReason::Shed),
            dropped_nacked: dropped(SinkDropReason::NackedOut),
            dropped_shutdown: dropped(SinkDropReason::Shutdown),
            retries: registry.counter(
                "hetsyslog_sink_retries_total",
                "Delivery attempts beyond the first, per lane",
                l,
            ),
            nacks: registry.counter(
                "hetsyslog_sink_nacks_total",
                "Batches that exhausted their delivery attempts",
                l,
            ),
            in_flight: registry.gauge(
                "hetsyslog_sink_inflight",
                "Records in a lane's memory window (queued or mid-delivery)",
                l,
            ),
            submit_us: registry.histogram(
                "hetsyslog_sink_submit_duration_us",
                "submit_batch wall time in microseconds, per sink",
                l,
            ),
            spilled: registry.counter(
                "hetsyslog_spill_records_total",
                "Records appended to the durable spill",
                l,
            ),
            replayed: registry.counter(
                "hetsyslog_spill_replayed_total",
                "Spilled records re-driven and acked after recovery",
                l,
            ),
            recovered: registry.counter(
                "hetsyslog_spill_recovered_total",
                "Records recovered from an existing spill directory at open",
                l,
            ),
            spill_bytes: registry.counter(
                "hetsyslog_spill_bytes_total",
                "Encoded bytes appended to spill segments",
                l,
            ),
            spill_sealed: registry.counter(
                "hetsyslog_spill_segments_sealed_total",
                "Spill segments sealed (fsynced)",
                l,
            ),
            spill_quarantined: registry.counter(
                "hetsyslog_spill_quarantined_total",
                "Corrupt or torn spill tails moved to quarantine/",
                l,
            ),
            spill_pending: registry.gauge(
                "hetsyslog_spill_pending",
                "Records sitting in the spill awaiting replay",
                l,
            ),
        }
    }

    fn dropped(&self, reason: SinkDropReason) -> &Counter {
        match reason {
            SinkDropReason::Shed => &self.dropped_shed,
            SinkDropReason::NackedOut => &self.dropped_nacked,
            SinkDropReason::Shutdown => &self.dropped_shutdown,
        }
    }

    fn dropped_total(&self) -> u64 {
        self.dropped_shed.get() + self.dropped_nacked.get() + self.dropped_shutdown.get()
    }
}

/// A point-in-time copy of one lane's ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkSnapshot {
    /// Sink name.
    pub sink: String,
    /// Records handed to the lane.
    pub submitted: u64,
    /// Records recovered from the spill directory at open.
    pub recovered: u64,
    /// Records acked by the sink (direct + replayed).
    pub delivered: u64,
    /// Records dropped (shed + nacked-out + shutdown), no spill configured.
    pub dropped: u64,
    /// Records appended to the spill (lifetime).
    pub spilled: u64,
    /// Spilled records re-driven and acked.
    pub replayed: u64,
    /// Records awaiting replay in the spill right now.
    pub spilled_pending: u64,
    /// Delivery attempts beyond the first.
    pub retries: u64,
    /// Batches that exhausted their attempts.
    pub nacks: u64,
    /// Records in the lane's memory window right now.
    pub in_flight: i64,
}

impl SinkSnapshot {
    /// The at-least-once conservation ledger: every record handed to (or
    /// recovered by) the lane is accounted for exactly once.
    pub fn ledger_balanced(&self) -> bool {
        self.submitted + self.recovered
            == self.delivered + self.spilled_pending + self.dropped + self.in_flight.max(0) as u64
    }

    /// Left-hand side of the ledger (what entered the lane).
    pub fn ledger_in(&self) -> u64 {
        self.submitted + self.recovered
    }

    /// Right-hand side of the ledger (where every record is now).
    pub fn ledger_out(&self) -> u64 {
        self.delivered + self.spilled_pending + self.dropped + self.in_flight.max(0) as u64
    }
}

/// Where a batch being delivered came from (drives the post-delivery and
/// post-failure bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchSource {
    /// Popped from the memory window.
    Queue,
    /// Re-taken from `retry_head` (was in memory when its lane flipped to
    /// spilling mid-flight; must deliver before any spill replay).
    RetryHead,
    /// Peeked (uncommitted) from the spill.
    Spill,
}

enum LaneMode {
    /// Submissions enter the memory window; the worker drains it.
    Direct,
    /// The sink fell behind or is down: submissions go straight to the
    /// spill, the worker replays it, and the lane returns to `Direct`
    /// only once the spill is empty (preserving FIFO).
    Spilling,
}

struct LaneState {
    mode: LaneMode,
    queue: VecDeque<SinkBatch>,
    /// A memory batch that nacked out while the lane flipped to spilling:
    /// older than everything in the spill, so it delivers first.
    retry_head: Option<SinkBatch>,
    spill: Option<SpillBuffer>,
    next_seq: u64,
    closing: bool,
}

impl LaneState {
    /// Stamp `records` with the lane's next sequence number.
    fn number(&mut self, records: &[LogRecord]) -> SinkBatch {
        let seq = self.next_seq;
        self.next_seq += 1;
        SinkBatch {
            seq,
            records: records.to_vec(),
        }
    }
}

struct Lane {
    name: String,
    sink: Arc<dyn Sink>,
    config: SinkLaneConfig,
    state: Mutex<LaneState>,
    stats: SinkStats,
}

impl Lane {
    /// Make `batch` durable: append it to the spill and count it spilled.
    /// Without a spill, or when the append fails (unrecoverable for
    /// durability), count its records dropped under `on_fail` rather than
    /// wedging the lane. Caller holds the state lock and has already
    /// taken the batch out of the in-flight window.
    fn spill_batch(&self, state: &mut LaneState, batch: &SinkBatch, on_fail: SinkDropReason) {
        let n = batch.records.len() as u64;
        let Some(spill) = state.spill.as_mut() else {
            self.stats.dropped(on_fail).add(n);
            return;
        };
        let frame = batch.to_frame();
        if spill.append(&frame).is_ok() {
            self.stats.spilled.add(n);
            self.stats
                .spill_bytes
                .add(crate::spill::encoded_len(&frame));
        } else {
            self.stats.dropped(on_fail).add(n);
        }
        self.sync_spill_gauges(state);
    }

    fn sync_spill_gauges(&self, state: &LaneState) {
        if let Some(spill) = &state.spill {
            self.stats.spill_pending.set(spill.pending_records() as i64);
        }
    }

    /// Move every queued batch (oldest first) into the spill and flip the
    /// lane to `Spilling`. Caller holds the state lock. `head` (if any) is
    /// older than the queue and spills first.
    fn spill_queue(&self, state: &mut LaneState, head: Option<SinkBatch>) {
        let mut queue = std::mem::take(&mut state.queue);
        for batch in head.into_iter().chain(queue.drain(..)) {
            self.stats.in_flight.add(-(batch.records.len() as i64));
            self.spill_batch(state, &batch, SinkDropReason::NackedOut);
        }
        state.queue = queue;
        state.mode = LaneMode::Spilling;
    }

    fn snapshot(&self) -> SinkSnapshot {
        SinkSnapshot {
            sink: self.name.clone(),
            submitted: self.stats.submitted.get(),
            recovered: self.stats.recovered.get(),
            delivered: self.stats.delivered.get(),
            dropped: self.stats.dropped_total(),
            spilled: self.stats.spilled.get(),
            replayed: self.stats.replayed.get(),
            spilled_pending: self.stats.spill_pending.get().max(0) as u64,
            retries: self.stats.retries.get(),
            nacks: self.stats.nacks.get(),
            in_flight: self.stats.in_flight.get(),
        }
    }
}

/// How long an idle lane worker sleeps between wake-ups (the parking_lot
/// shim has no Condvar, so lanes poll at this cadence).
const LANE_POLL: Duration = Duration::from_micros(500);

/// The router: one lane (queue + optional spill + worker thread) per
/// sink. `submit` clones the classified batch into every lane; lanes fail
/// independently — one sink's outage spills (or sheds) on its own lane
/// without slowing the others.
pub struct FanOut {
    lanes: Vec<Arc<Lane>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    exited: Arc<AtomicUsize>,
    hard_stop: Arc<AtomicBool>,
    shut_down: AtomicBool,
}

impl std::fmt::Debug for FanOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOut")
            .field("lanes", &self.lane_names())
            .finish()
    }
}

impl FanOut {
    /// Open every lane (recovering existing spill directories) and start
    /// one worker thread per sink.
    pub fn open(specs: Vec<SinkSpec>, registry: Option<&Registry>) -> io::Result<Arc<FanOut>> {
        let mut lanes = Vec::with_capacity(specs.len());
        for spec in specs {
            let name = spec.sink.name().to_string();
            let stats = SinkStats::registered(registry.unwrap_or(&Registry::new()), &name);
            let spill = match &spec.config.spill {
                Some(config) => {
                    let (spill, report) = SpillBuffer::open(config.clone())?;
                    stats.recovered.add(report.records);
                    stats.spill_quarantined.add(report.quarantined);
                    stats.spill_pending.set(spill.pending_records() as i64);
                    Some(spill)
                }
                None => None,
            };
            lanes.push(Arc::new(Lane {
                name,
                sink: spec.sink,
                config: spec.config,
                state: Mutex::new(LaneState {
                    mode: LaneMode::Direct,
                    queue: VecDeque::new(),
                    retry_head: None,
                    spill,
                    next_seq: 0,
                    closing: false,
                }),
                stats,
            }));
        }
        let fan_out = Arc::new(FanOut {
            lanes,
            workers: Mutex::new(Vec::new()),
            exited: Arc::new(AtomicUsize::new(0)),
            hard_stop: Arc::new(AtomicBool::new(false)),
            shut_down: AtomicBool::new(false),
        });
        let mut workers = fan_out.workers.lock();
        for lane in &fan_out.lanes {
            let lane = lane.clone();
            let exited = fan_out.exited.clone();
            let hard_stop = fan_out.hard_stop.clone();
            let handle = std::thread::Builder::new()
                .name(format!("sink-{}", lane.name))
                .spawn(move || {
                    lane_worker(&lane, &hard_stop);
                    exited.fetch_add(1, Ordering::SeqCst);
                })
                .expect("spawn sink worker");
            workers.push(handle);
        }
        drop(workers);
        Ok(fan_out)
    }

    /// Fan a classified batch out to every lane. Each lane takes its own
    /// clone with a lane-local sequence number; overload behavior is per
    /// lane (spill / block / shed).
    pub fn submit(&self, records: &[LogRecord]) {
        if records.is_empty() {
            return;
        }
        for lane in &self.lanes {
            self.submit_to_lane(lane, records);
        }
    }

    fn submit_to_lane(&self, lane: &Arc<Lane>, records: &[LogRecord]) {
        let n = records.len() as u64;
        lane.stats.submitted.add(n);
        let mut state = lane.state.lock();
        loop {
            if state.closing {
                // Late submission during shutdown: durable if possible.
                let batch = state.number(records);
                lane.spill_batch(&mut state, &batch, SinkDropReason::Shutdown);
                return;
            }
            if matches!(state.mode, LaneMode::Spilling) {
                let batch = state.number(records);
                lane.spill_batch(&mut state, &batch, SinkDropReason::NackedOut);
                return;
            }
            if state.queue.len() < lane.config.window {
                let batch = state.number(records);
                state.queue.push_back(batch);
                lane.stats.in_flight.add(n as i64);
                return;
            }
            // Window full.
            if state.spill.is_some() {
                let batch = state.number(records);
                lane.spill_queue(&mut state, None);
                lane.spill_batch(&mut state, &batch, SinkDropReason::NackedOut);
                return;
            }
            match lane.config.overload {
                OverloadPolicy::Shed => {
                    lane.stats.dropped_shed.add(n);
                    return;
                }
                OverloadPolicy::Block => {
                    // Lossless: wait for the worker to open window space
                    // (poll — no Condvar in the vendored parking_lot).
                    drop(state);
                    std::thread::sleep(Duration::from_micros(200));
                    state = lane.state.lock();
                }
            }
        }
    }

    /// Per-lane ledgers, in lane order.
    pub fn snapshots(&self) -> Vec<SinkSnapshot> {
        self.lanes.iter().map(|l| l.snapshot()).collect()
    }

    /// Lane names, in lane order.
    pub fn lane_names(&self) -> Vec<String> {
        self.lanes.iter().map(|l| l.name.clone()).collect()
    }

    /// Graceful drain: stop accepting replay work, give every in-memory
    /// batch one delivery attempt (ack or spill/drop the remainder), seal
    /// spills, and join the workers. After `deadline`, remaining batches
    /// are force-spilled (or force-dropped without a spill) rather than
    /// waiting on a stalled sink. Idempotent.
    pub fn shutdown(&self, deadline: Duration) {
        if self.shut_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for lane in &self.lanes {
            lane.state.lock().closing = true;
        }
        let start = Instant::now();
        let total = self.lanes.len();
        while self.exited.load(Ordering::SeqCst) < total {
            if start.elapsed() >= deadline {
                self.hard_stop.store(true, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut workers = self.workers.lock();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for FanOut {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(5));
    }
}

/// Deliver `batch` with bounded exponential backoff. Returns `Ok` on ack;
/// `Err` after `max_attempts` nacks (or one attempt when draining).
fn deliver_with_retry(
    lane: &Lane,
    batch: &SinkBatch,
    draining: bool,
    hard_stop: &AtomicBool,
) -> Result<(), SinkError> {
    let attempts = if draining {
        1
    } else {
        lane.config.max_attempts
    };
    let mut backoff = lane.config.backoff_base;
    let mut last = SinkError::new("no attempt made");
    for attempt in 0..attempts {
        if attempt > 0 {
            lane.stats.retries.inc();
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(lane.config.backoff_cap);
        }
        if hard_stop.load(Ordering::SeqCst) && attempt > 0 {
            break;
        }
        let started = Instant::now();
        let outcome = lane.sink.submit_batch(batch);
        lane.stats.submit_us.record_duration_us(started.elapsed());
        match outcome {
            Ok(()) => return Ok(()),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// The lane worker loop: serve `retry_head` first (oldest), then the
/// spill (older than anything in memory), then the memory window; deliver
/// with bounded retry; on nack-out, transition to spill-then-replay (or
/// count the drop when no spill is configured).
fn lane_worker(lane: &Arc<Lane>, hard_stop: &AtomicBool) {
    loop {
        let mut state = lane.state.lock();
        let draining = state.closing;
        let hard = hard_stop.load(Ordering::SeqCst);

        // Pick the oldest work item.
        let (batch, source) = if let Some(batch) = state.retry_head.take() {
            (batch, BatchSource::RetryHead)
        } else if !draining
            && state
                .spill
                .as_ref()
                .is_some_and(|s| s.pending_records() > 0)
        {
            let spill = state.spill.as_mut().expect("checked");
            match spill.peek() {
                Ok(Some(frame)) => match SinkBatch::decode(&frame) {
                    Ok(batch) => (batch, BatchSource::Spill),
                    Err(_) => {
                        // Undecodable payload (should be impossible — the
                        // CRC passed): count it out of the ledger and move
                        // on rather than wedging replay.
                        spill.commit();
                        lane.stats.dropped_nacked.add(frame.records as u64);
                        lane.sync_spill_gauges(&state);
                        continue;
                    }
                },
                _ => {
                    lane.sync_spill_gauges(&state);
                    drop(state);
                    std::thread::sleep(LANE_POLL);
                    continue;
                }
            }
        } else if let Some(batch) = state.queue.pop_front() {
            (batch, BatchSource::Queue)
        } else if draining {
            // Nothing left in memory. Seal the spill (fsync) and exit; a
            // non-empty spill stays durable for the next session's replay.
            if let Some(spill) = state.spill.as_mut() {
                let sealed_before = spill.segments_sealed();
                let _ = spill.seal();
                lane.stats
                    .spill_sealed
                    .add(spill.segments_sealed() - sealed_before);
                lane.sync_spill_gauges(&state);
            }
            return;
        } else {
            drop(state);
            std::thread::sleep(LANE_POLL);
            continue;
        };
        drop(state);

        let n = batch.records.len() as u64;
        if hard && source != BatchSource::Spill {
            // Past the shutdown deadline: durable if possible, no attempts.
            let mut state = lane.state.lock();
            lane.stats.in_flight.add(-(n as i64));
            lane.spill_batch(&mut state, &batch, SinkDropReason::Shutdown);
            continue;
        }

        match deliver_with_retry(lane, &batch, draining, hard_stop) {
            Ok(()) => {
                let mut state = lane.state.lock();
                lane.stats.delivered.add(n);
                match source {
                    BatchSource::Spill => {
                        let spill = state.spill.as_mut().expect("spill source");
                        spill.commit();
                        lane.stats.replayed.add(n);
                        let sealed = spill.segments_sealed();
                        let counted = lane.stats.spill_sealed.get();
                        if sealed > counted {
                            lane.stats.spill_sealed.add(sealed - counted);
                        }
                        // Replay caught up: only then may the lane return
                        // to direct mode (anything newer is behind it in
                        // the spill, so FIFO holds).
                        if spill.pending_records() == 0 {
                            state.mode = LaneMode::Direct;
                        }
                        lane.sync_spill_gauges(&state);
                    }
                    BatchSource::Queue | BatchSource::RetryHead => {
                        lane.stats.in_flight.add(-(n as i64));
                    }
                }
            }
            Err(_) => {
                lane.stats.nacks.inc();
                let mut state = lane.state.lock();
                match source {
                    BatchSource::Spill => {
                        // Leave the frame peeked-but-uncommitted: replay
                        // resumes at the same frame. Back off before
                        // hammering a down sink again.
                        drop(state);
                        if !hard_stop.load(Ordering::SeqCst) {
                            std::thread::sleep(lane.config.backoff_cap);
                        }
                    }
                    BatchSource::Queue | BatchSource::RetryHead => {
                        if state.spill.is_some() {
                            match state.mode {
                                LaneMode::Direct => {
                                    // The sink is down: this batch plus the
                                    // whole window go durable, oldest first.
                                    lane.spill_queue(&mut state, Some(batch));
                                }
                                LaneMode::Spilling => {
                                    // A submit-side transition beat us: the
                                    // spill now holds *newer* batches, so
                                    // this one must re-deliver first.
                                    state.retry_head = Some(batch);
                                    drop(state);
                                    if !hard_stop.load(Ordering::SeqCst) {
                                        std::thread::sleep(lane.config.backoff_cap);
                                    }
                                }
                            }
                        } else {
                            lane.stats.in_flight.add(-(n as i64));
                            if draining {
                                lane.stats.dropped_shutdown.add(n);
                            } else {
                                lane.stats.dropped_nacked.add(n);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{wait_until, RecordingSink};
    use std::path::PathBuf;

    /// Every lane quiescent: nothing in memory, nothing awaiting replay.
    fn idle(fan_out: &FanOut) -> bool {
        fan_out
            .snapshots()
            .iter()
            .all(|s| s.in_flight == 0 && s.spilled_pending == 0)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/tmp-sink"
        ))
        .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn records(from: u64, n: u64) -> Vec<LogRecord> {
        (from..from + n)
            .map(|id| {
                let msg = syslog_model::SyslogMessage::free_form(&format!("record {id}"));
                LogRecord::from_message_owned(id, msg, 1000)
            })
            .collect()
    }

    #[test]
    fn healthy_fan_out_delivers_to_every_sink() {
        let bulk = Arc::new(RecordingSink::new("bulk", FaultPlan::healthy()));
        let reg = Registry::new();
        let metric = Arc::new(MetricSink::new("logmetric", &reg));
        let fan_out = FanOut::open(
            vec![SinkSpec::new(bulk.clone()), SinkSpec::new(metric)],
            Some(&reg),
        )
        .unwrap();
        for i in 0..10 {
            fan_out.submit(&records(i * 4, 4));
        }
        assert!(wait_until(2000, || idle(&fan_out)));
        fan_out.shutdown(Duration::from_secs(2));
        assert_eq!(bulk.delivered_records(), 40);
        let ids = bulk.delivered_ids();
        assert_eq!(ids.len(), 40, "no duplicates on the healthy path");
        for snap in fan_out.snapshots() {
            assert!(snap.ledger_balanced(), "{snap:?}");
            assert_eq!(snap.delivered, 40);
            assert_eq!(snap.dropped, 0);
        }
        // The metric sink fed the registry (free_form records have no
        // category → unclassified).
        assert_eq!(
            obs::parse_exposition(&reg.render_prometheus()).value(
                "hetsyslog_logmetric_records_total",
                &[("category", "unclassified")]
            ),
            Some(40.0)
        );
    }

    #[test]
    fn nacked_out_batches_spill_and_replay_in_order() {
        let dir = tmp_dir("replay");
        // 100% errors for the first 60 attempts, then healthy: forces the
        // lane through Direct → Spilling → Direct.
        struct FlakyUntil {
            healthy_after: u64,
            attempts: AtomicU64,
            delivered_seqs: Mutex<Vec<u64>>,
        }
        impl Sink for FlakyUntil {
            fn name(&self) -> &str {
                "flaky"
            }
            fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
                if self.attempts.fetch_add(1, Ordering::Relaxed) < self.healthy_after {
                    return Err(SinkError::new("warming up"));
                }
                self.delivered_seqs.lock().push(batch.seq);
                Ok(())
            }
        }
        let sink = Arc::new(FlakyUntil {
            healthy_after: 60,
            attempts: AtomicU64::new(0),
            delivered_seqs: Mutex::new(Vec::new()),
        });
        let config = SinkLaneConfig {
            window: 2,
            max_attempts: 2,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            ..SinkLaneConfig::default()
        }
        .with_spill(SpillConfig {
            segment_cap_bytes: 4096,
            ..SpillConfig::new(&dir)
        });
        let fan_out =
            FanOut::open(vec![SinkSpec::with_config(sink.clone(), config)], None).unwrap();
        for i in 0..30 {
            fan_out.submit(&records(i * 2, 2));
        }
        assert!(
            wait_until(10_000, || idle(&fan_out)),
            "spill must drain after the sink recovers: {:?}",
            fan_out.snapshots()
        );
        fan_out.shutdown(Duration::from_secs(2));
        let snap = &fan_out.snapshots()[0];
        assert!(snap.ledger_balanced(), "{snap:?}");
        assert_eq!(snap.delivered, 60);
        assert_eq!(snap.dropped, 0, "spill mode never drops");
        assert!(snap.spilled > 0, "the outage must have spilled");
        assert_eq!(snap.replayed, snap.spilled, "all spilled batches replayed");
        let seqs = sink.delivered_seqs.lock().clone();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted, "per-lane FIFO and no duplicates: {seqs:?}");
        assert_eq!(seqs.len(), 30);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_without_spill_counts_drops_and_balances() {
        // A sink that never acks, tiny window, Shed: everything past the
        // window is dropped and counted; ledger still balances.
        struct Down;
        impl Sink for Down {
            fn name(&self) -> &str {
                "down"
            }
            fn submit_batch(&self, _: &SinkBatch) -> Result<(), SinkError> {
                Err(SinkError::new("always down"))
            }
        }
        let config = SinkLaneConfig {
            window: 1,
            max_attempts: 2,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
            overload: OverloadPolicy::Shed,
            ..SinkLaneConfig::default()
        };
        let fan_out =
            FanOut::open(vec![SinkSpec::with_config(Arc::new(Down), config)], None).unwrap();
        for i in 0..20 {
            fan_out.submit(&records(i * 3, 3));
        }
        assert!(wait_until(5000, || {
            let s = &fan_out.snapshots()[0];
            s.in_flight == 0
        }));
        fan_out.shutdown(Duration::from_millis(500));
        let snap = &fan_out.snapshots()[0];
        assert!(snap.ledger_balanced(), "{snap:?}");
        assert_eq!(snap.delivered, 0);
        assert_eq!(snap.dropped, 60, "every record shed or nacked out");
        assert!(snap.nacks > 0);
    }

    #[test]
    fn recovery_resumes_spilled_work_on_reopen() {
        let dir = tmp_dir("recover");
        // Session 1: sink hard-down, everything spills; shutdown seals.
        struct Down;
        impl Sink for Down {
            fn name(&self) -> &str {
                "restartable"
            }
            fn submit_batch(&self, _: &SinkBatch) -> Result<(), SinkError> {
                Err(SinkError::new("down"))
            }
        }
        let config = SinkLaneConfig {
            window: 2,
            max_attempts: 2,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
            ..SinkLaneConfig::default()
        }
        .with_spill(SpillConfig::new(&dir));
        {
            let fan_out = FanOut::open(
                vec![SinkSpec::with_config(Arc::new(Down), config.clone())],
                None,
            )
            .unwrap();
            for i in 0..12 {
                fan_out.submit(&records(i * 2, 2));
            }
            assert!(
                wait_until(5000, || {
                    let s = &fan_out.snapshots()[0];
                    s.in_flight == 0 && s.spilled_pending == 24
                }),
                "all 24 records must be durable: {:?}",
                fan_out.snapshots()
            );
            fan_out.shutdown(Duration::from_secs(2));
        }
        // Session 2: healthy sink named the same; recovery replays all 24.
        let bulk = Arc::new(RecordingSink::new("restartable", FaultPlan::healthy()));
        let fan_out =
            FanOut::open(vec![SinkSpec::with_config(bulk.clone(), config)], None).unwrap();
        let snap = &fan_out.snapshots()[0];
        assert_eq!(snap.recovered, 24, "{snap:?}");
        assert!(wait_until(5000, || idle(&fan_out)));
        fan_out.shutdown(Duration::from_secs(2));
        let snap = &fan_out.snapshots()[0];
        assert!(snap.ledger_balanced(), "{snap:?}");
        assert_eq!(snap.delivered, 24);
        let mut ids = bulk.delivered_ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24, "exactly once on the recovery path");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
