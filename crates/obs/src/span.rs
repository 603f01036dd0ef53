//! Lightweight span tracing: enter/exit timestamps, parent links, and
//! per-stage tags, feeding a fixed-size ring of recent *slow* spans.
//!
//! This is deliberately not a general tracer: the pipeline opens a handful
//! of spans per batch (never per frame), and only spans at or above the
//! slow threshold are retained. The ring is the operator's "what was slow
//! lately" window; counters summarize everything else.

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A finished span, as retained by the ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanRecord {
    /// Unique id within this [`SpanLog`].
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Stage name (`"batch"`, `"classify"`, `"store_insert"`, …).
    pub name: &'static str,
    /// Free-form tag (batch size, source id, …). Empty when untagged.
    pub tag: String,
    /// Enter time, microseconds since the log's epoch.
    pub start_us: u64,
    /// Exit time, microseconds since the log's epoch.
    pub end_us: u64,
}

/// The span sink: hands out [`Span`]s and retains the most recent slow
/// ones in a fixed-capacity ring.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    slow_threshold_us: u64,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    next_id: AtomicU64,
    started: AtomicU64,
    retained: AtomicU64,
}

impl SpanLog {
    /// A log retaining up to `capacity` spans that ran for at least
    /// `slow_threshold`.
    pub fn new(capacity: usize, slow_threshold: Duration) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            slow_threshold_us: slow_threshold.as_micros().min(u64::MAX as u128) as u64,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            next_id: AtomicU64::new(1),
            started: AtomicU64::new(0),
            retained: AtomicU64::new(0),
        }
    }

    /// Open a root span. It records itself on drop (or [`Span::finish`]).
    pub fn span(self: &Arc<Self>, name: &'static str) -> Span {
        self.started.fetch_add(1, Ordering::Relaxed);
        Span {
            log: self.clone(),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: None,
            name,
            tag: String::new(),
            entered: Instant::now(),
        }
    }

    /// Spans opened over the log's lifetime.
    pub fn spans_started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Slow spans retained over the log's lifetime (including evicted).
    pub fn slow_spans_recorded(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// The retained slow spans, oldest first.
    pub fn recent_slow(&self) -> Vec<SpanRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Render the retained slow spans as a JSON document (the `/spans`
    /// endpoint body).
    pub fn render_json(&self) -> String {
        let spans = self.recent_slow();
        serde_json::to_string(&serde_json::json!({
            "slow_threshold_us": self.slow_threshold_us,
            "spans_started": self.spans_started(),
            "slow_spans_recorded": self.slow_spans_recorded(),
            "spans": spans,
        }))
        .unwrap_or_default()
    }

    fn record(&self, span: &Span) {
        let end = Instant::now();
        let duration = end.duration_since(span.entered);
        if duration.as_micros() < self.slow_threshold_us as u128 {
            return;
        }
        let end_us = end
            .duration_since(self.epoch)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let start_us = end_us.saturating_sub(duration.as_micros().min(u64::MAX as u128) as u64);
        self.retained.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            tag: span.tag.clone(),
            start_us,
            end_us,
        });
    }
}

/// An open span. Exit is recorded on drop; only spans at or above the
/// log's slow threshold are retained.
#[derive(Debug)]
pub struct Span {
    log: Arc<SpanLog>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    tag: String,
    entered: Instant,
}

impl Span {
    /// Open a child span parented to this one.
    pub fn child(&self, name: &'static str) -> Span {
        self.log.started.fetch_add(1, Ordering::Relaxed);
        Span {
            log: self.log.clone(),
            id: self.log.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(self.id),
            name,
            tag: String::new(),
            entered: Instant::now(),
        }
    }

    /// Attach a free-form tag.
    pub fn set_tag(&mut self, tag: impl Into<String>) {
        self.tag = tag.into();
    }

    /// This span's id (for correlating children).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span now instead of at scope end.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        self.log.record(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_spans_are_not_retained() {
        let log = Arc::new(SpanLog::new(8, Duration::from_secs(10)));
        log.span("quick").finish();
        assert_eq!(log.spans_started(), 1);
        assert_eq!(log.slow_spans_recorded(), 0);
        assert!(log.recent_slow().is_empty());
    }

    #[test]
    fn slow_spans_record_parent_links_and_tags() {
        let log = Arc::new(SpanLog::new(8, Duration::ZERO));
        let mut root = log.span("batch");
        root.set_tag("size=64");
        let child = root.child("classify");
        let root_id = root.id();
        child.finish();
        root.finish();
        let spans = log.recent_slow();
        assert_eq!(spans.len(), 2);
        // Child finishes (and records) first.
        assert_eq!(spans[0].name, "classify");
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[1].name, "batch");
        assert_eq!(spans[1].tag, "size=64");
        assert_eq!(spans[1].parent, None);
        assert!(spans[1].end_us >= spans[1].start_us);
        let json = log.render_json();
        assert!(json.contains("\"classify\""));
        assert!(json.contains("slow_threshold_us"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = Arc::new(SpanLog::new(2, Duration::ZERO));
        for name in ["a", "b", "c"] {
            log.span(name).finish();
        }
        let spans = log.recent_slow();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "b");
        assert_eq!(log.slow_spans_recorded(), 3);
    }
}
