//! Shared fault-injection scaffolding for the sink/spill test suites (and
//! anyone else attacking the delivery ledger).
//!
//! Lives in the library (not `tests/`) so integration tests, proptests,
//! and the bench harness all drive the same [`RecordingSink`] and the
//! same named [`FaultPlan`] scenarios — the guarantees are only as real
//! as the tests that attack them, so the attack surface is shared code.

use crate::record::LogRecord;
use crate::sink::{FaultPlan, Sink, SinkBatch, SinkError};
use hetsyslog_core::{Category, Prediction, TextClassifier};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A sink that remembers every acked batch and can be flipped between
/// healthy and hard-down at runtime — the oracle for at-least-once
/// assertions (delivery order, duplicate audit, loss audit).
pub struct RecordingSink {
    name: String,
    failing: AtomicBool,
    attempts: AtomicU64,
    batches: Mutex<Vec<SinkBatch>>,
}

impl RecordingSink {
    /// A healthy recording sink.
    pub fn new(name: impl Into<String>) -> RecordingSink {
        RecordingSink {
            name: name.into(),
            failing: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
            batches: Mutex::new(Vec::new()),
        }
    }

    /// Flip the sink hard-down (`true`: every submit nacks) or healthy.
    pub fn set_failing(&self, failing: bool) {
        self.failing.store(failing, Ordering::SeqCst);
    }

    /// Total submit attempts seen (acked or nacked).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Every acked batch, in delivery order.
    pub fn batches(&self) -> Vec<SinkBatch> {
        self.batches.lock().clone()
    }

    /// Acked batch sequence numbers, in delivery order.
    pub fn delivered_seqs(&self) -> Vec<u64> {
        self.batches.lock().iter().map(|b| b.seq).collect()
    }

    /// Acked record ids, in delivery order.
    pub fn delivered_ids(&self) -> Vec<u64> {
        self.batches
            .lock()
            .iter()
            .flat_map(|b| b.records.iter().map(|r| r.id))
            .collect()
    }

    /// Acked record count.
    pub fn delivered_records(&self) -> u64 {
        self.batches
            .lock()
            .iter()
            .map(|b| b.records.len() as u64)
            .sum()
    }
}

impl Sink for RecordingSink {
    fn name(&self) -> &str {
        &self.name
    }

    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        if self.failing.load(Ordering::SeqCst) {
            return Err(SinkError::new("forced down"));
        }
        self.batches.lock().push(batch.clone());
        Ok(())
    }
}

/// The three scripted fault scenarios the acceptance criteria name, as
/// `(label, plan)` pairs: 5% injected errors, 250 ms stalls, and a hard
/// outage (shortened from 10 s for in-suite use — the CI storm smoke runs
/// the full-length window).
pub fn fault_scenarios(seed: u64, outage: Duration) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "errors_5pct",
            FaultPlan::healthy().with_seed(seed).with_error_rate(0.05),
        ),
        (
            "stall_250ms",
            FaultPlan::healthy()
                .with_seed(seed)
                .with_stall(Duration::from_millis(250)),
        ),
        (
            "outage_hard",
            FaultPlan::healthy()
                .with_seed(seed)
                .with_outage(Duration::ZERO, outage),
        ),
    ]
}

/// Deterministic classified-record generator: `n` records with ids
/// `from..from + n`, cycling hostnames/apps so batches look like real
/// traffic.
pub fn sample_records(from: u64, n: u64) -> Vec<LogRecord> {
    (from..from + n)
        .map(|id| {
            let frame = format!(
                "<{}>Oct 11 22:14:{:02} cn{:04} app{}: sample record {id}",
                (id % 8) * 8 + 6,
                id % 60,
                id % 16,
                id % 4,
            );
            let msg = syslog_model::parse(&frame)
                .unwrap_or_else(|_| syslog_model::SyslogMessage::free_form(&frame));
            LogRecord::from_message(id, &msg, 1_700_000_000)
        })
        .collect()
}

/// A classifier that takes a fixed time per message, to make the bounded
/// shard rings actually fill (and shed) under load.
pub struct SlowStub(pub Duration);

impl TextClassifier for SlowStub {
    fn name(&self) -> String {
        "slow-stub".to_string()
    }

    fn classify(&self, _message: &str) -> Prediction {
        std::thread::sleep(self.0);
        Prediction::bare(Category::Unimportant)
    }
}

/// Poll `cond` once a millisecond until it holds or `ms` elapses; returns
/// the final evaluation (test idiom shared with the listener suite).
pub fn wait_until(ms: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// A per-process-unique scratch directory under the workspace `target/`
/// (tests must not touch paths outside the repo).
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/tmp-sinktests"
    ))
    .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
