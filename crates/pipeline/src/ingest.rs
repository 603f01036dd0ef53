//! The in-process collector: rsyslogd → Fluentd → store, replayed through
//! the live path without a socket.
//!
//! [`IngestPipeline`] is a *feeder* of the live path (`live.rs`): this
//! thread decodes (for [`IngestPipeline::run_stream`]) and enqueues
//! frames, a chunk per enqueue, round-robin over the shard rings —
//! backpressure stands in for the syslog server's queue — and the shard
//! workers parse, batch, and insert into the shared [`LogStore`] exactly
//! as they do behind the socket listener, minus the classifier.

use crate::listener::UDP_SOURCE;
use crate::live::LivePath;
use crate::store::LogStore;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestReport {
    /// Frames ingested into the store.
    pub ingested: u64,
    /// Frames that fell back to free-form parsing (no RFC grammar).
    pub free_form: u64,
    /// Frames that failed syslog parsing and were not stored. In practice
    /// only empty frames fail (the free-form fallback accepts any other
    /// UTF-8), but the counter tallies every parse error.
    pub dropped: u64,
    /// Corrupt frames dropped by the RFC 6587 decoder before parsing
    /// (bogus octet counts, truncated count tokens); only non-zero for
    /// [`IngestPipeline::run_stream`].
    pub decoder_dropped: u64,
    /// Wall-clock seconds for the whole run.
    pub seconds: f64,
}

impl IngestReport {
    /// Ingest throughput, messages/second.
    pub fn messages_per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.ingested as f64 / self.seconds
        }
    }
}

/// An in-process ingest pipeline over a shared store.
pub struct IngestPipeline {
    store: Arc<LogStore>,
    workers: usize,
    /// Event time assigned to frames without a timestamp.
    fallback_time: i64,
}

impl IngestPipeline {
    /// Build over `store` with `workers` parser threads.
    pub fn new(store: Arc<LogStore>, workers: usize) -> IngestPipeline {
        IngestPipeline {
            store,
            workers: workers.max(1),
            fallback_time: 0,
        }
    }

    /// Set the fallback event time for frames without timestamps.
    pub fn with_fallback_time(mut self, t: i64) -> IngestPipeline {
        self.fallback_time = t;
        self
    }

    /// Run the pipeline over a raw TCP byte stream (RFC 6587 framing,
    /// octet-counted or LF-delimited), as delivered by the syslog server's
    /// socket in arbitrary chunks.
    ///
    /// Frames are sent into the bounded shard rings *as each chunk is
    /// decoded*: the workers run concurrently with decoding, and a slow
    /// parser stage blocks the decode loop (real backpressure) instead of
    /// the stream being buffered whole in memory first.
    pub fn run_stream<I>(&self, chunks: I) -> IngestReport
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let started = Instant::now();
        let path = self.start();
        let mut decoder = syslog_model::FrameDecoder::new();
        for chunk in chunks {
            path.sink().submit_many(UDP_SOURCE, decoder.push(&chunk));
        }
        if let Some(tail) = decoder.finish() {
            path.sink().submit_many(UDP_SOURCE, vec![tail]);
        }
        report(path, decoder.dropped(), started)
    }

    /// Run the pipeline to completion over an iterator of raw frames.
    pub fn run<I>(&self, frames: I) -> IngestReport
    where
        I: IntoIterator<Item = String>,
    {
        let started = Instant::now();
        let path = self.start();
        path.feed(frames);
        report(path, 0, started)
    }

    fn start(&self) -> LivePath {
        LivePath::start_in_process(
            self.store.clone(),
            None,
            self.workers,
            self.fallback_time,
            None,
        )
    }
}

/// Drain the path and read the run's counters off it.
fn report(mut path: LivePath, decoder_dropped: u64, started: Instant) -> IngestReport {
    path.finish();
    IngestReport {
        ingested: path.stats.ingested.get(),
        free_form: path.stats.free_form.get(),
        dropped: path.stats.parse_errors.get(),
        decoder_dropped,
        seconds: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_stores_frames() {
        let store = Arc::new(LogStore::new());
        let pipeline = IngestPipeline::new(store.clone(), 4);
        let frames: Vec<String> = (0..500)
            .map(|i| {
                format!(
                    "<13>Oct 11 22:14:{:02} cn{:04} kernel: event number {i}",
                    i % 60,
                    i % 9 + 1
                )
            })
            .collect();
        let report = pipeline.run(frames);
        assert_eq!(report.ingested, 500);
        assert_eq!(report.dropped, 0);
        assert_eq!(store.len(), 500);
        assert!(report.messages_per_second() > 0.0);
    }

    #[test]
    fn free_form_frames_counted_not_lost() {
        let store = Arc::new(LogStore::new());
        let pipeline = IngestPipeline::new(store.clone(), 2).with_fallback_time(777);
        let report = pipeline.run(vec![
            "vendor gibberish without any header".to_string(),
            "<13>Oct 11 22:14:15 cn0001 kernel: fine".to_string(),
        ]);
        assert_eq!(report.ingested, 2);
        assert_eq!(report.free_form, 1);
        // The free-form record got the fallback time.
        assert_eq!(store.search(777, 778, &[]).len(), 1);
    }

    #[test]
    fn empty_frames_dropped() {
        let store = Arc::new(LogStore::new());
        let pipeline = IngestPipeline::new(store.clone(), 2);
        let report = pipeline.run(vec![String::new(), String::new()]);
        assert_eq!(report.ingested, 0);
        assert_eq!(report.dropped, 2);
        assert!(store.is_empty());
    }

    #[test]
    fn tcp_stream_framing_front_end() {
        let store = Arc::new(LogStore::new());
        let pipeline = IngestPipeline::new(store.clone(), 2);
        // Two frames: one octet-counted, one LF-delimited, chopped into
        // awkward chunk boundaries.
        let f1 = "<13>Oct 11 22:14:15 cn0001 kernel: first frame";
        let f2 = "<13>Oct 11 22:14:16 cn0002 kernel: second frame";
        let wire = format!("{} {f1}{f2}\n", f1.len()).into_bytes();
        let chunks: Vec<Vec<u8>> = wire.chunks(7).map(|c| c.to_vec()).collect();
        let report = pipeline.run_stream(chunks);
        assert_eq!(report.ingested, 2);
        assert_eq!(
            store.search(0, i64::MAX / 2, &["first".to_string()]).len(),
            1
        );
        assert_eq!(
            store.search(0, i64::MAX / 2, &["second".to_string()]).len(),
            1
        );
    }

    #[test]
    fn stream_reports_decoder_drops_and_strips_truncated_count() {
        let store = Arc::new(LogStore::new());
        let pipeline = IngestPipeline::new(store.clone(), 2);
        // An oversized count (dropped, payload survives as an LF frame),
        // then a truncated octet-counted tail whose "35 " count token must
        // not leak into a stored record.
        let wire = b"999999 <13>Oct 11 22:14:15 cn0001 kernel: ok\n35 <13>Oct".to_vec();
        let report = pipeline.run_stream(vec![wire]);
        assert_eq!(report.ingested, 2);
        assert_eq!(report.decoder_dropped, 1);
        assert_eq!(report.dropped, 0);
        let all = store.search(i64::MIN / 2, i64::MAX / 2, &[]);
        assert!(all.iter().all(|r| !r.message.starts_with("35 ")));
    }

    #[test]
    fn mixed_traffic_fills_every_report_counter() {
        // Mixed traffic: parseable, free-form, and empty (dropped) frames.
        let frames: Vec<String> = (0..900)
            .map(|i| match i % 3 {
                0 => format!("<13>Oct 11 22:14:{:02} cn0001 kernel: event {i}", i % 60),
                1 => format!("vendor blob {i}"),
                _ => String::new(),
            })
            .collect();
        let store = Arc::new(LogStore::new());
        let report = IngestPipeline::new(store.clone(), 3).run(frames);
        assert_eq!(store.len() as u64, report.ingested);
        assert_eq!(report.ingested, 600);
        assert_eq!(report.free_form, 300);
        assert_eq!(report.dropped, 300);
        assert_eq!(report.decoder_dropped, 0);
    }

    #[test]
    fn darwin_scale_throughput_smoke() {
        // The paper: >1M messages/hour (~280/s) on real hardware. The
        // in-process pipeline should beat that by orders of magnitude.
        let store = Arc::new(LogStore::new());
        let pipeline = IngestPipeline::new(store.clone(), 4);
        let frames: Vec<String> = (0..20_000)
            .map(|i| {
                format!(
                    "<13>Oct 11 {:02}:{:02}:{:02} cn{:04} slurmd: slurm_rpc_node_registration complete usec={i}",
                    i / 3600 % 24, i / 60 % 60, i % 60, i % 400 + 1
                )
            })
            .collect();
        let report = pipeline.run(frames);
        assert_eq!(report.ingested, 20_000);
        assert!(
            report.messages_per_second() > 280.0,
            "pipeline slower than Darwin's real load: {}/s",
            report.messages_per_second()
        );
    }
}
