//! Shared fault-injection scaffolding for the sink/spill test suites (and
//! anyone else attacking the delivery ledger).
//!
//! Lives in the library (not `tests/`) so the unit tests and every
//! integration suite drive the same [`RecordingSink`] and helpers.

use crate::sink::{BulkSink, FaultPlan, Sink, SinkBatch, SinkError};
use hetsyslog_core::{Category, Prediction, TextClassifier};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// A [`BulkSink`] that also remembers every acked record id, in delivery
/// order: the oracle for at-least-once assertions (duplicate audit, loss
/// audit) under the faults its [`FaultPlan`] scripts.
pub struct RecordingSink {
    inner: BulkSink,
    ids: Mutex<Vec<u64>>,
}

impl RecordingSink {
    /// A recording sink that fails as `plan` scripts.
    pub fn new(name: impl Into<String>, plan: FaultPlan) -> RecordingSink {
        RecordingSink {
            inner: BulkSink::new(name, plan),
            ids: Mutex::new(Vec::new()),
        }
    }

    /// Records acked so far.
    pub fn delivered_records(&self) -> u64 {
        self.inner.delivered_records()
    }

    /// Acked record ids, in delivery order.
    pub fn delivered_ids(&self) -> Vec<u64> {
        self.ids.lock().clone()
    }
}

impl Sink for RecordingSink {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
        self.inner.submit_batch(batch)?;
        self.ids.lock().extend(batch.records.iter().map(|r| r.id));
        Ok(())
    }
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
