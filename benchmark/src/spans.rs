//! In-memory span recorder for the traced replay.
//!
//! A span is recorded around each call the replay makes into a layer's
//! public function: name, layer, start, end, the span that caused it, the
//! batch it belongs to and how many messages it covered, plus the heap
//! allocations the calling thread made inside it. Spans stay in memory and
//! are written out once, when the benchmark ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover.

use crate::alloc;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Spans of one batch share this identifier.
    pub batch: u32,
    /// Messages the call covered.
    pub items: u32,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; when disabled `span` only runs the closure,
/// which is what the untraced replay (the overhead baseline) uses.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(8),
        }
    }

    /// Run `f` inside a span whose parent is the innermost open span.
    /// `items` counts the messages the call covered, from its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        batch: u32,
        f: impl FnOnce(&mut Recorder) -> R,
        items: impl FnOnce(&R) -> usize,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent,
            batch,
            items: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(index);
        let (allocs, bytes) = alloc::thread_counts();
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let (allocs_after, bytes_after) = alloc::thread_counts();
        self.open.pop();
        let span = &mut self.spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        span.items = items(&out) as u32;
        span.allocs = allocs_after - allocs;
        span.alloc_bytes = bytes_after - bytes;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children are clipped to the parent and
/// assumed not to overlap each other, which holds for one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            covered[parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Totals of one layer over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub total_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Sum self time, duration and allocations of the spans named `name`.
pub fn totals_for(spans: &[Span], self_ns: &[u64], name: &str) -> LayerTotals {
    let mut t = LayerTotals::default();
    for (span, &own) in spans.iter().zip(self_ns) {
        if span.name == name {
            t.self_ns += own;
            t.total_ns += span.duration_ns();
            t.allocs += span.allocs;
            t.alloc_bytes += span.alloc_bytes;
        }
    }
    t
}

/// Write the recording as one JSON document. `header` is a JSON object
/// body (without braces) carrying the environment fingerprint.
pub fn write_json(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{{header},\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"batch\":{},\"items\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            s.name, s.layer, s.start_ns, s.end_ns, s.batch, s.items, s.allocs, s.alloc_bytes
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            layer: "test",
            start_ns: start,
            end_ns: end,
            parent,
            batch: 0,
            items: 4,
            allocs: 1,
            alloc_bytes: 16,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)), // adjacent to b
            span("b", 40, 70, Some(0)),
            span("a.inner", 15, 25, Some(1)), // nested two deep
            span("other_root", 100, 130, None),
        ];
        let own = self_times(&spans);
        // root: 100 - (30 + 30); the grandchild is not subtracted twice.
        assert_eq!(own, vec![40, 20, 30, 10, 30]);
        // Self times of a tree sum back to the root's duration.
        assert_eq!(own[0] + own[1] + own[2] + own[3], 100);
    }

    #[test]
    fn child_overhanging_its_parent_is_clipped() {
        let spans = vec![span("root", 10, 50, None), span("late", 40, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 50]);
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true, 8);
        let value = rec.span(
            "outer",
            "l",
            3,
            |rec| rec.span("inner", "l", 3, |_| 7, |_| 2) + rec.span("inner", "l", 3, |_| 1, |_| 2),
            |_| 2,
        );
        assert_eq!(value, 8);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times(spans);
        let inner = totals_for(spans, &own, "inner");
        assert_eq!(spans[1].items + spans[2].items, 4);
        assert_eq!(own[0] + inner.self_ns, spans[0].duration_ns());

        let mut off = Recorder::new(false, 8);
        assert_eq!(off.span("x", "l", 0, |_| 5, |_| 1), 5);
        assert!(off.spans().is_empty());
    }
}
