//! Integration: synthetic stream → the live path (over loopback TCP or
//! fed in process) → store → queries → §4.5 monitoring views, with
//! classification in flight.

use hetsyslog::pipeline::testsupport::wait_until;
use hetsyslog::pipeline::views::{frequency_analysis, positional_analysis, GroupBy};
use hetsyslog::pipeline::{SinkBatch, SinkError};
use hetsyslog::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const START: i64 = 1_697_000_000;

fn trained_classifier() -> Arc<dyn TextClassifier> {
    let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.005,
        seed: 42,
        min_per_class: 12,
    }));
    Arc::new(TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    ))
}

fn stream(n: usize, burst_probability: f64) -> impl Iterator<Item = datagen::TimedMessage> {
    StreamGenerator::new(StreamConfig {
        start_unix: START,
        burst_probability,
        seed: 77,
        ..StreamConfig::default()
    })
    .take(n)
}

fn stream_frames(n: usize, burst_probability: f64) -> Vec<String> {
    stream(n, burst_probability).map(|t| t.to_frame()).collect()
}

/// The live path over `store`; frames without a timestamp land at START.
fn start(
    store: &Arc<LogStore>,
    service: Option<Arc<MonitorService>>,
    fan_out: Option<Arc<FanOut>>,
) -> SyslogListener {
    SyslogListener::start(
        store.clone(),
        service,
        ListenerConfig {
            fallback_time: START,
            fan_out,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener")
}

#[test]
fn full_ingest_and_query_roundtrip() {
    const FRAMES: u64 = 5000;
    let store = Arc::new(LogStore::with_shard_seconds(60));
    let listener = start(&store, None, None);
    let messages: Vec<_> = stream(FRAMES as usize, 0.0).collect();
    // Two senders, octet-counted wire, as rsyslog forwards over TCP.
    for half in messages.chunks(messages.len() / 2) {
        let mut sock = TcpStream::connect(listener.tcp_addr()).expect("connect");
        let wire: Vec<u8> = half
            .iter()
            .flat_map(|m| {
                let frame = m.to_frame();
                format!("{} {frame}", frame.len()).into_bytes()
            })
            .collect();
        sock.write_all(&wire).expect("write");
    }
    assert!(
        wait_until(30_000, || listener.stats().frames.get() == FRAMES),
        "timed out: {:?}",
        listener.stats().snapshot()
    );
    let stats = listener.stats();
    let (free_form, closed) = (stats.free_form.clone(), stats.connections_closed.clone());
    let report = listener.shutdown();
    assert_eq!(
        report.frames,
        report.ingested + report.shed + report.parse_errors
    );
    assert_eq!(report.decode_dropped, 0);
    assert_eq!(report.connections, closed.get());
    assert_eq!(store.len() as u64, FRAMES);
    assert_eq!(free_form.get(), 0, "stream frames must parse structurally");

    // Term queries hit the inverted index.
    let hits = Query::range(START - 100, START + 100_000)
        .term("throttled")
        .execute(&store);
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|r| r.message.contains("throttled")));

    // Node-scoped query.
    let node = hits[0].node.clone();
    let node_hits = Query {
        node: Some(node.clone()),
        ..Query::range(START - 100, START + 100_000).term("throttled")
    }
    .execute(&store);
    assert!(!node_hits.is_empty());
    assert!(node_hits.iter().all(|r| r.node == node));
}

/// A notification sink: of every record the fan-out hands it, it keeps
/// the ones whose category is actionable (§3's "notification email").
#[derive(Default)]
struct NotifySink {
    notified: AtomicU64,
}

impl Sink for NotifySink {
    fn name(&self) -> &str {
        "notify"
    }

    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
        let actionable = batch
            .records
            .iter()
            .filter(|r| r.category.is_some_and(Category::is_actionable))
            .count();
        self.notified
            .fetch_add(actionable as u64, Ordering::Relaxed);
        Ok(())
    }
}

#[test]
fn classified_ingest_emits_alerts_and_views_work() {
    let service = Arc::new(MonitorService::new(trained_classifier()));
    let store = Arc::new(LogStore::with_shard_seconds(60));
    let notify = Arc::new(NotifySink::default());
    let fan_out = FanOut::open(vec![SinkSpec::new(notify.clone())], None).unwrap();
    let listener = start(&store, Some(service.clone()), Some(fan_out.clone()));
    listener.feed(stream_frames(4000, 0.002));
    // The drain extends to the sinks: every lane is acked on return.
    let report = listener.shutdown();
    assert_eq!(report.ingested, 4000);

    let stats = service.stats();
    assert_eq!(stats.total, 4000);
    // The Table 2 mix guarantees thermal traffic.
    assert!(stats.count(Category::ThermalIssue) > 0);
    // Every actionable classification reaches the notification lane and
    // the store, and the lane's ledger balances.
    let actionable: u64 = Category::ALL
        .iter()
        .filter(|c| c.is_actionable())
        .map(|&c| stats.count(c))
        .sum();
    let mut stored_actionable = 0u64;
    store.scan(i64::MIN, i64::MAX, &[], |r| {
        stored_actionable += u64::from(r.category.is_some_and(Category::is_actionable));
    });
    assert!(actionable > 0);
    assert_eq!(notify.notified.load(Ordering::Relaxed), actionable);
    assert_eq!(stored_actionable, actionable);
    let lane = &fan_out.snapshots()[0];
    assert!(lane.ledger_balanced(), "{lane:?}");
    assert_eq!((lane.submitted, lane.delivered), (4000, 4000));

    // Frequency view sums to the store contents in range.
    let to = START + 7200;
    let series = frequency_analysis(&store, START - 60, to, 60, GroupBy::Total);
    let counted: u64 = series.iter().flat_map(|s| s.counts.iter()).sum();
    let stored = Query::range(START - 60, to).count(&store) as u64;
    assert_eq!(counted, stored);

    // Positional view covers all racks of the topology.
    let topo = ClusterTopology::darwin_like(8, 52);
    let racks = positional_analysis(&store, &topo, START - 60, to, Category::ThermalIssue);
    assert_eq!(racks.len(), 8);
    let total_thermal: u64 = racks.iter().map(|r| r.in_category).sum();
    assert!(total_thermal > 0);
}

#[test]
fn burst_detection_fires_on_injected_bursts() {
    let store = Arc::new(LogStore::with_shard_seconds(60));
    let listener = start(&store, None, None);
    // A calm base load with a few injected bursts: each burst compresses
    // 50-400 messages into ~1-2 s against a ~50 msg/s background.
    let frames: Vec<String> = StreamGenerator::new(StreamConfig {
        start_unix: START,
        base_rate: 50.0,
        burst_probability: 0.002,
        seed: 77,
        ..StreamConfig::default()
    })
    .take(3000)
    .map(|t| t.to_frame())
    .collect();
    listener.feed(frames);
    listener.shutdown();

    let series = frequency_analysis(&store, START, START + 65, 1, GroupBy::Total);
    let bursts = series.first().map(|s| s.bursts(3.0)).unwrap_or_default();
    assert!(
        !bursts.is_empty(),
        "injected bursts must trip the §4.5.1 surge detector"
    );
}

#[test]
fn store_throughput_exceeds_darwin_load() {
    // >1M msgs/hour ≈ 280 msgs/s. The live path should sustain orders
    // of magnitude more even in a debug-built test.
    let store = Arc::new(LogStore::new());
    let frames = stream_frames(10_000, 0.0);
    let started = Instant::now();
    let listener = start(&store, None, None);
    listener.feed(frames);
    let report = listener.shutdown();
    let rate = report.ingested as f64 / started.elapsed().as_secs_f64();
    assert_eq!(report.ingested, 10_000);
    assert!(rate > 280.0, "pipeline too slow: {rate:.0} msgs/s");
}

#[test]
fn json_lines_roundtrip_through_store_records() {
    let store = Arc::new(LogStore::new());
    let listener = start(&store, None, None);
    listener.feed(stream_frames(50, 0.0));
    listener.shutdown();
    let records = Query::range(START - 100, START + 100_000).execute(&store);
    for r in &records {
        let line = r.to_json();
        let back = hetsyslog::pipeline::LogRecord::from_json(&line).unwrap();
        assert_eq!(&back, r);
    }
}
