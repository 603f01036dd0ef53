//! The one live path: frames in, classified records out.
//!
//! [`SyslogListener`] is its only driver, with two *feeders*: the socket
//! reactors, and [`SyslogListener::feed`] for frames that arrive in
//! process. Each pushes frames through a [`FrameSink`] and nothing else.
//! What happens next is decided here and only here:
//!
//! * the [`FrameSink`] routes each enqueue to a pipeline shard
//!   (hash-by-connection, round-robin for connectionless sources), applies
//!   the overload policy against that shard's bounded SPSC ring, and
//!   dead-letters what it sheds;
//! * one worker per shard runs the drain-up-to-`max_batch`-or-`max_delay`
//!   loop: the first frame blocks on the own ring, the batch fills until
//!   `max_batch` frames or `max_delay` elapses, and an idle worker steals a
//!   whole contiguous batch from the deepest skewed sibling instead;
//! * every batch — of one frame or of 256, with a classifier or without —
//!   goes through the same code: one fused
//!   [`MonitorService::ingest_frames`] call, owned-message records, the
//!   sink fan-out, one lane-affine store insert, one stats update.
//!
//! The ring hanging up mid-fill flushes the partial batch, so
//! [`LivePath::finish`] (drop the router, join the workers) loses nothing.
//!
//! [`SyslogListener`]: crate::SyslogListener
//! [`SyslogListener::feed`]: crate::SyslogListener::feed

use crate::listener::{
    DeadLetter, DeadLetterRing, DropReason, IngestStats, ListenerConfig, OverloadPolicy, UDP_SOURCE,
};
use crate::monitor::{BatchStats, FlushReason};
use crate::record::LogRecord;
use crate::shard::{ShardReceiver, ShardRouter, ShardStats};
use crate::sink::FanOut;
use crate::store::LogStore;
use crossbeam::channel::RecvTimeoutError;
use hetsyslog_core::{FrameOutcome, MonitorService};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use syslog_model::Protocol;

/// A decoded frame tagged with its source connection and the instant it
/// entered the queue (for queue→prediction latency accounting).
pub(crate) struct WireFrame {
    source: u64,
    frame: String,
    at: Instant,
}

/// The submit side shared by every feeder: routes each enqueue to its
/// pipeline shard, applies the overload policy against that shard's
/// ring, and keeps the drop accounting in one place.
#[derive(Clone)]
pub(crate) struct FrameSink {
    router: Arc<ShardRouter<WireFrame>>,
    shard_stats: Arc<Vec<Arc<ShardStats>>>,
    overload: OverloadPolicy,
    /// The shared ingest counters (feeders account their reads on them).
    pub(crate) stats: Arc<IngestStats>,
    dead_letters: Arc<DeadLetterRing>,
}

impl FrameSink {
    /// Offer a run of frames from one source in one bulk enqueue — one
    /// ring lock per read instead of one per frame. A TCP connection's
    /// frames all hash to the same shard (so they stay ordered on one
    /// ring); the connectionless [`UDP_SOURCE`] rotates round-robin per
    /// enqueue. Returns `false` once the pipeline is gone. Under `Shed`,
    /// frames past the shard ring's momentary capacity go to the
    /// dead-letter ring.
    pub(crate) fn submit_many(&self, source: u64, frames: Vec<String>) -> bool {
        if frames.is_empty() {
            return true;
        }
        let offered = frames.len() as u64;
        self.stats.frames.add(offered);
        let partitioner = self.router.partitioner();
        let shard = if source == UDP_SOURCE {
            partitioner.next_round_robin()
        } else {
            partitioner.shard_for_connection(source)
        };
        let at = Instant::now();
        let wired = frames
            .into_iter()
            .map(|frame| WireFrame { source, frame, at });
        match self.overload {
            OverloadPolicy::Block => {
                let ok = self.router.send_many(shard, wired).is_ok();
                if ok {
                    self.shard_stats[shard].routed.add(offered);
                }
                ok
            }
            OverloadPolicy::Shed => match self.router.try_send_many(shard, wired) {
                Ok(rejected) => {
                    self.shard_stats[shard]
                        .routed
                        .add(offered - rejected.len() as u64);
                    self.stats.shed.add(rejected.len() as u64);
                    for wf in rejected {
                        self.dead_letters.push(DeadLetter {
                            reason: DropReason::QueueFull,
                            source: wf.source,
                            frame: wf.frame,
                        });
                    }
                    true
                }
                Err(_) => false,
            },
        }
    }
}

/// The running worker stage: shard rings, one batch worker per shard, and
/// the counters they keep. Feed it through [`LivePath::sink`]; end it
/// with [`LivePath::finish`].
pub(crate) struct LivePath {
    sink: Option<FrameSink>,
    workers: Vec<JoinHandle<()>>,
    pub(crate) stats: Arc<IngestStats>,
    pub(crate) dead_letters: Arc<DeadLetterRing>,
    pub(crate) batch_stats: Arc<BatchStats>,
    pub(crate) shard_stats: Arc<Vec<Arc<ShardStats>>>,
}

impl LivePath {
    /// Build the shard fabric and spawn its workers. Pass a
    /// [`MonitorService`] to classify records in flight (`None` stores
    /// them unclassified).
    ///
    /// One SPSC ring + one worker per shard (one shard per worker unless
    /// overridden), with the configured queue depth split across the
    /// rings. The store gets one write lane per shard when it has them; a
    /// single-lane store still works, shards just share lane 0. The
    /// path's own counters register on `config.telemetry`'s registry, or
    /// without one on a registry nobody scrapes — the same counters
    /// either way. The store, the service and the classifier arrive with
    /// their instruments already bound (their `with_registry` builders);
    /// nothing is attached here.
    pub(crate) fn start(
        store: Arc<LogStore>,
        service: Option<Arc<MonitorService>>,
        config: &ListenerConfig,
    ) -> LivePath {
        let shards = if config.shards > 0 {
            config.shards
        } else {
            config.workers.max(1)
        };
        let detached = obs::Registry::new();
        let registry = config.telemetry.as_ref().map_or(&detached, |t| &t.registry);
        let stats = Arc::new(IngestStats::registered(registry));
        let dead_letters = Arc::new(DeadLetterRing::registered(
            config.dead_letter_capacity,
            registry,
        ));
        let batch_stats = Arc::new(BatchStats::registered(registry));
        let shard_stats: Arc<Vec<Arc<ShardStats>>> = Arc::new(
            (0..shards)
                .map(|k| Arc::new(ShardStats::registered(k, registry)))
                .collect(),
        );
        let (router, receivers) = ShardRouter::<WireFrame>::build(shards, config.queue_depth);
        let max_batch = config.max_batch.max(1);
        // A sibling is "skewed" once its backlog would fill a whole batch
        // (or its ring, if the ring is smaller): stealing below that costs
        // a lock to move frames the owner was about to drain anyway.
        let steal_threshold = max_batch.min(router.shard_capacity()).max(1);
        let workers = receivers
            .into_iter()
            .map(|receiver| {
                let worker = Worker {
                    shard_stats: shard_stats[receiver.shard].clone(),
                    receiver,
                    store: store.clone(),
                    service: service.clone(),
                    stats: stats.clone(),
                    dead_letters: dead_letters.clone(),
                    batch_stats: batch_stats.clone(),
                    spans: config.telemetry.as_ref().map(|t| t.spans.clone()),
                    fan_out: config.fan_out.clone(),
                    fallback_time: config.fallback_time,
                    max_batch,
                    max_delay: config.max_delay,
                    steal_threshold,
                };
                std::thread::spawn(move || worker.run())
            })
            .collect();
        LivePath {
            sink: Some(FrameSink {
                router: Arc::new(router),
                shard_stats: shard_stats.clone(),
                overload: config.overload,
                stats: stats.clone(),
                dead_letters: dead_letters.clone(),
            }),
            workers,
            stats,
            dead_letters,
            batch_stats,
            shard_stats,
        }
    }

    /// The submit side. Clones handed to feeder threads must be dropped
    /// before [`LivePath::finish`] can complete.
    pub(crate) fn sink(&self) -> &FrameSink {
        self.sink.as_ref().expect("live path already finished")
    }

    /// Graceful drain: drop the router (every feeder's clone must already
    /// be gone), which hangs up every shard's producer; each worker
    /// drains its ring, flushes its partial batch, and exits. Idempotent.
    pub(crate) fn finish(&mut self) {
        self.sink = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for LivePath {
    fn drop(&mut self) {
        self.finish();
    }
}

/// How one batch came together.
struct Assembled {
    reason: FlushReason,
    fill_latency: Duration,
    stolen_from: Option<usize>,
}

/// One shard's batch worker; `run` consumes it on the worker thread.
struct Worker {
    receiver: ShardReceiver<WireFrame>,
    store: Arc<LogStore>,
    service: Option<Arc<MonitorService>>,
    stats: Arc<IngestStats>,
    dead_letters: Arc<DeadLetterRing>,
    batch_stats: Arc<BatchStats>,
    shard_stats: Arc<ShardStats>,
    spans: Option<Arc<obs::SpanLog>>,
    fan_out: Option<Arc<FanOut>>,
    fallback_time: i64,
    max_batch: usize,
    max_delay: Duration,
    steal_threshold: usize,
}

impl Worker {
    fn run(self) {
        let mut batch: Vec<WireFrame> = Vec::with_capacity(self.max_batch);
        while let Some(assembled) = self.assemble(&mut batch) {
            self.process(&mut batch, assembled);
        }
    }

    /// Assemble one batch into the (empty) `batch`: drained from the own
    /// ring up to `max_batch` frames or `max_delay` past the first, or —
    /// when the own ring stays idle — stolen whole from a skewed sibling,
    /// so one hot connection can't cap throughput at 1/N. `None` once the
    /// ring has hung up and is empty.
    fn assemble(&self, batch: &mut Vec<WireFrame>) -> Option<Assembled> {
        let idle_poll = self.max_delay.max(Duration::from_millis(1));
        loop {
            match self.receiver.own.recv_deadline(Instant::now() + idle_poll) {
                Ok(first) => {
                    let fill_started = Instant::now();
                    batch.push(first);
                    let status = self.receiver.own.drain_into(
                        batch,
                        self.max_batch,
                        fill_started + self.max_delay,
                    );
                    return Some(Assembled {
                        reason: FlushReason::from_drain(status),
                        fill_latency: fill_started.elapsed(),
                        stolen_from: None,
                    });
                }
                Err(RecvTimeoutError::Timeout) => {
                    let Some((victim, stolen)) =
                        self.receiver
                            .steal_batch(batch, self.max_batch, self.steal_threshold)
                    else {
                        continue;
                    };
                    self.shard_stats.steals.inc();
                    self.shard_stats.stolen_frames.add(stolen as u64);
                    return Some(Assembled {
                        // A steal is triggered by backlog, so a full claim
                        // reads as Full; a race with the owner's drain can
                        // leave less, which reads as a deadline flush (the
                        // frames were flushed because they waited).
                        reason: if stolen >= self.max_batch {
                            FlushReason::Full
                        } else {
                            FlushReason::Deadline
                        },
                        fill_latency: Duration::ZERO,
                        stolen_from: Some(victim),
                    });
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Push one batch through parse → classify → record → fan-out →
    /// store, leaving `batch` empty.
    fn process(&self, batch: &mut Vec<WireFrame>, assembled: Assembled) {
        // Sample queue depths at batch pickup: this shard's ring, and the
        // aggregate across the whole fabric.
        let own_depth = self.receiver.own.len();
        self.shard_stats.queue_depth.set(own_depth as i64);
        let sibling_depth: usize = self.receiver.siblings.iter().map(|(_, s)| s.len()).sum();
        self.stats
            .queue_depth
            .set((own_depth + sibling_depth) as i64);

        let size = batch.len();
        self.shard_stats.processed.add(size as u64);
        self.shard_stats.batch_frames.record(size as u64);

        // One root span per batch (never per frame): tagged with the
        // batch size (and steal provenance), with classify / store_insert
        // children. Only slow ones are retained by the ring.
        let mut root = self.spans.as_ref().map(|s| s.span("batch"));
        let texts: Vec<&str> = batch.iter().map(|wf| wf.frame.as_str()).collect();
        let classify_started = Instant::now();
        let outcomes: Vec<FrameOutcome> = {
            let _classify = root.as_ref().map(|r| r.child("classify"));
            match &self.service {
                Some(service) => service.ingest_frames(&texts),
                // No classifier attached: parse only, store unclassified.
                None => texts
                    .iter()
                    .map(|frame| match syslog_model::parse(frame) {
                        Ok(message) => FrameOutcome::Prefiltered { message },
                        Err(_) => FrameOutcome::ParseError,
                    })
                    .collect(),
            }
        };
        self.shard_stats
            .classify_us
            .record_duration_us(classify_started.elapsed());
        if let Some(root) = root.as_mut() {
            root.set_tag(match assembled.stolen_from {
                Some(victim) => format!("size={size} stolen_from={victim}"),
                None => format!("size={size}"),
            });
        }
        let mut classified = 0u64;
        let mut free_form = 0u64;
        let mut records: Vec<LogRecord> = Vec::with_capacity(size);
        for (wf, outcome) in batch.drain(..).zip(outcomes) {
            self.batch_stats.record_queue_latency(wf.at.elapsed());
            let (message, category) = match outcome {
                FrameOutcome::Classified {
                    message,
                    prediction,
                } => {
                    classified += 1;
                    (message, Some(prediction.category))
                }
                FrameOutcome::Prefiltered { message } => (message, None),
                FrameOutcome::ParseError => {
                    self.stats.parse_errors.inc();
                    self.dead_letters.push(DeadLetter {
                        reason: DropReason::ParseError,
                        source: wf.source,
                        frame: wf.frame,
                    });
                    continue;
                }
            };
            free_form += u64::from(message.protocol == Protocol::FreeForm);
            let mut record = LogRecord::from_message_owned(
                self.store.allocate_id(),
                message,
                self.fallback_time,
            );
            record.category = category;
            records.push(record);
        }
        let stored = records.len() as u64;
        // Fan the classified batch out to the sink lanes before the store
        // consumes it (each lane clones its own copy; overload is handled
        // per lane).
        if let Some(fan_out) = &self.fan_out {
            fan_out.submit(&records);
        }
        // One lane-lock acquisition and one counter update for the whole
        // batch: shard k writes lane k, which no other pipeline shard
        // ever locks (store affinity).
        {
            let _insert = root.as_ref().map(|r| r.child("store_insert"));
            let insert_started = Instant::now();
            self.store.insert_batch_affine(self.receiver.shard, records);
            self.shard_stats
                .insert_us
                .record_duration_us(insert_started.elapsed());
        }
        self.stats.ingested.add(stored);
        self.stats.free_form.add(free_form);
        self.batch_stats
            .record_flush(size, classified, assembled.fill_latency, assembled.reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::wait_until;
    use crate::SyslogListener;
    use datagen::{StreamConfig, StreamGenerator};
    use hetsyslog_core::{Category, Prediction, TextClassifier};
    use std::io::Write;
    use std::net::{TcpStream, UdpSocket};

    struct ByContent;
    impl TextClassifier for ByContent {
        fn name(&self) -> String {
            "by-content".to_string()
        }
        fn classify(&self, message: &str) -> Prediction {
            if message.contains("temperature") || message.contains("throttled") {
                Prediction::bare(Category::ThermalIssue)
            } else {
                Prediction::bare(Category::Unimportant)
            }
        }
    }

    const FRAMES: usize = 2_000;

    /// One seeded stream mixing RFC 3164, RFC 5424, free-form and empty
    /// frames; returns it with the free-form and empty counts.
    fn mixed_stream() -> (Vec<String>, u64, u64) {
        let frames: Vec<String> = StreamGenerator::new(StreamConfig {
            seed: 7,
            ..StreamConfig::default()
        })
        .take(FRAMES)
        .enumerate()
        .map(|(k, t)| match k % 10 {
            9 => String::new(),
            4 => format!("vendor blob {k}: cpu clock throttled"),
            0 | 2 | 6 => t.to_frame_rfc5424(),
            _ => t.to_frame(),
        })
        .collect();
        (frames, FRAMES as u64 / 10, FRAMES as u64 / 10)
    }

    /// Octet-counted wire for `frames`. A byte stream cannot carry an
    /// empty frame: its `0 ` count token is a decoder drop instead.
    fn wire(frames: &[String]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
        }
        wire
    }

    type Stored = Vec<(String, Option<Category>)>;

    fn stored(store: &LogStore) -> Stored {
        let mut rows: Stored = store
            .search(i64::MIN / 2, i64::MAX / 2, &[])
            .into_iter()
            .map(|r| (r.message, r.category))
            .collect();
        rows.sort();
        rows
    }

    fn service() -> Arc<MonitorService> {
        Arc::new(MonitorService::new(Arc::new(ByContent)))
    }

    /// The same stream through every feeder stores the same records, and
    /// every run's ledger balances.
    #[test]
    fn every_feeder_stores_the_same_records_and_balances_its_ledger() {
        let (frames, _, empty) = mixed_stream();
        let kept = FRAMES as u64 - empty;

        // One TCP run, two connections; asserts its ledger.
        let tcp_run = |store: &Arc<LogStore>, service: Option<Arc<MonitorService>>, config| {
            let listener = SyslogListener::start(store.clone(), service, config).expect("bind");
            for half in frames.chunks(FRAMES / 2) {
                let mut sock = TcpStream::connect(listener.tcp_addr()).expect("connect");
                sock.write_all(&wire(half)).expect("write");
            }
            assert!(wait_until(30_000, || listener.stats().ingested.get() == kept));
            let tcp = listener.shutdown();
            assert_eq!(tcp.frames, tcp.ingested + tcp.shed + tcp.parse_errors);
            assert_eq!((tcp.ingested, tcp.decode_dropped), (kept, empty));
        };

        // (a) TCP, nothing wired to a registry.
        let tcp_store = Arc::new(LogStore::new());
        tcp_run(&tcp_store, Some(service()), ListenerConfig::default());

        // (b) UDP, paced so the socket buffer never overflows.
        let udp_store = Arc::new(LogStore::new());
        let listener = SyslogListener::start(
            udp_store.clone(),
            Some(service()),
            ListenerConfig::default(),
        )
        .expect("bind");
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind client");
        let mut sent = 0;
        for burst in frames.chunks(32) {
            for frame in burst {
                sock.send_to(frame.as_bytes(), listener.udp_addr())
                    .expect("send");
            }
            sent += burst.len() as u64;
            assert!(wait_until(30_000, || listener.stats().udp_datagrams.get() == sent));
        }
        assert!(wait_until(30_000, || listener.stats().ingested.get() == kept));
        let dead_letters = listener.dead_letters().total_recorded();
        let udp = listener.shutdown();
        assert_eq!(udp.frames, udp.ingested + udp.shed + udp.parse_errors);
        assert_eq!((udp.frames, udp.parse_errors), (FRAMES as u64, empty));
        assert_eq!(dead_letters, empty);

        // (c) TCP without a classifier.
        let unclassified_store = Arc::new(LogStore::new());
        tcp_run(&unclassified_store, None, ListenerConfig::default());

        // (d) fed in process: the empty frames reach the parser.
        let fed_store = Arc::new(LogStore::new());
        let listener = SyslogListener::start(
            fed_store.clone(),
            Some(service()),
            ListenerConfig::default(),
        )
        .expect("bind");
        listener.feed(frames.clone());
        let fed = listener.shutdown();
        assert_eq!(fed.frames, fed.ingested + fed.shed + fed.parse_errors);
        assert_eq!((fed.ingested, fed.parse_errors), (kept, empty));

        // (e) TCP again, every layer built on a shared registry and the
        // listener told about it: same code, exported.
        let telemetry = obs::Telemetry::new_arc();
        let registry = &telemetry.registry;
        let scraped_store = Arc::new(LogStore::new().with_registry(registry));
        let scraped_service =
            Arc::new(MonitorService::new(Arc::new(ByContent)).with_registry(registry));
        tcp_run(
            &scraped_store,
            Some(scraped_service.clone()),
            ListenerConfig {
                telemetry: Some(telemetry.clone()),
                ..ListenerConfig::default()
            },
        );
        let scrape = obs::parse_exposition(&registry.render_prometheus());
        assert_eq!(
            scrape.value("hetsyslog_store_records_total", &[]),
            Some(kept as f64)
        );
        assert_eq!(
            scrape.value("hetsyslog_monitor_messages_total", &[]),
            Some(scraped_service.stats().total as f64)
        );

        let reference = stored(&tcp_store);
        assert_eq!(reference.len() as u64, kept);
        assert!(reference
            .iter()
            .any(|(_, c)| *c == Some(Category::ThermalIssue)));
        assert_eq!(stored(&udp_store), reference);
        assert_eq!(stored(&fed_store), reference);
        assert_eq!(stored(&scraped_store), reference);
        let unclassified = stored(&unclassified_store);
        assert!(unclassified.iter().all(|(_, c)| c.is_none()));
        assert!(unclassified
            .iter()
            .map(|(m, _)| m)
            .eq(reference.iter().map(|(m, _)| m)));
    }

    /// A fed run gets a socket run's accounting: batch and shard counters
    /// that cover every frame, a dead letter for every parse error, the
    /// fallback time on records without a timestamp, and a classification
    /// stored with every record.
    #[test]
    fn fed_frames_are_fully_accounted() {
        let (frames, free_form, empty) = mixed_stream();
        let store = Arc::new(LogStore::new());
        let service = service();
        let listener = SyslogListener::start(
            store.clone(),
            Some(service.clone()),
            ListenerConfig {
                workers: 3,
                fallback_time: 777,
                ..ListenerConfig::default()
            },
        )
        .expect("bind");
        listener.feed(frames);
        let live = listener.stats();
        assert!(wait_until(30_000, || {
            live.ingested.get() + live.parse_errors.get() == FRAMES as u64
        }));
        assert_eq!(live.free_form.get(), free_form);
        assert_eq!(listener.dead_letters().total_recorded(), empty);
        let batch_stats = listener.batch_stats_handle();
        let shard_stats = listener.shard_stats_handle();
        let stats = listener.shutdown();
        assert_eq!(stats.frames, FRAMES as u64);
        assert_eq!(
            stats.frames,
            stats.ingested + stats.shed + stats.parse_errors
        );
        assert_eq!((stats.parse_errors, stats.shed), (empty, 0));
        assert_eq!(store.len() as u64, stats.ingested);
        assert_eq!(store.search(777, 778, &[]).len() as u64, free_form);
        let batching = batch_stats.snapshot();
        assert_eq!(batching.frames, FRAMES as u64);
        assert_eq!(batching.classified, stats.ingested);
        let processed: u64 = shard_stats.iter().map(|s| s.processed.get()).sum();
        let routed: u64 = shard_stats.iter().map(|s| s.routed.get()).sum();
        assert_eq!((processed, routed), (FRAMES as u64, FRAMES as u64));
        assert!(
            shard_stats.iter().all(|s| s.routed.get() > 0),
            "round-robin feeding must reach every shard"
        );
        let monitor = service.stats();
        let thermal = stored(&store)
            .iter()
            .filter(|(_, c)| *c == Some(Category::ThermalIssue))
            .count() as u64;
        assert_eq!(monitor.total, stats.ingested);
        assert!(thermal > 0);
        assert_eq!(monitor.count(Category::ThermalIssue), thermal);
    }
}
