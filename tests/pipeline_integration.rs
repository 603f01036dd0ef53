//! Integration: synthetic stream → multi-threaded ingest → store →
//! queries → §4.5 monitoring views, with classification in flight.

use hetsyslog::pipeline::views::{frequency_analysis, positional_analysis, GroupBy};
use hetsyslog::pipeline::{SinkBatch, SinkError};
use hetsyslog::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

fn stream_frames(n: usize, burst_probability: f64) -> Vec<String> {
    StreamGenerator::new(StreamConfig {
        start_unix: START,
        burst_probability,
        seed: 77,
        ..StreamConfig::default()
    })
    .take(n)
    .map(|t| t.to_frame())
    .collect()
}

#[test]
fn full_ingest_and_query_roundtrip() {
    let store = Arc::new(LogStore::with_shard_seconds(60));
    let pipeline = IngestPipeline::new(store.clone(), 4).with_fallback_time(START);
    let report = pipeline.run(stream_frames(5000, 0.0));
    assert_eq!(report.ingested, 5000);
    assert_eq!(store.len(), 5000);
    assert!(
        report.free_form == 0,
        "stream frames must parse structurally"
    );

    // Term queries hit the inverted index.
    let hits = Query::range(START - 100, START + 100_000)
        .term("throttled")
        .execute(&store);
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|r| r.message.contains("throttled")));

    // Node-scoped query.
    let node = hits[0].node.clone();
    let node_hits = Query::range(START - 100, START + 100_000)
        .term("throttled")
        .on_node(&node)
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
    let ingest = ClassifyingIngest::new(store.clone(), service.clone(), 4)
        .with_fallback_time(START)
        .with_fan_out(fan_out.clone());
    let report = ingest.run(stream_frames(4000, 0.002));
    assert_eq!(report.ingested, 4000);
    fan_out.shutdown(Duration::from_secs(10));

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
    let pipeline = IngestPipeline::new(store.clone(), 2).with_fallback_time(START);
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
    pipeline.run(frames);

    let series = frequency_analysis(&store, START, START + 65, 1, GroupBy::Total);
    let bursts = series.first().map(|s| s.bursts(3.0)).unwrap_or_default();
    assert!(
        !bursts.is_empty(),
        "injected bursts must trip the §4.5.1 surge detector"
    );
}

#[test]
fn store_throughput_exceeds_darwin_load() {
    // >1M msgs/hour ≈ 280 msgs/s. The in-process pipeline should sustain
    // orders of magnitude more even in a debug-built test.
    let store = Arc::new(LogStore::new());
    let pipeline = IngestPipeline::new(store.clone(), 4).with_fallback_time(START);
    let report = pipeline.run(stream_frames(10_000, 0.0));
    assert!(
        report.messages_per_second() > 280.0,
        "pipeline too slow: {:.0} msgs/s",
        report.messages_per_second()
    );
}

#[test]
fn json_lines_roundtrip_through_store_records() {
    let store = Arc::new(LogStore::new());
    let pipeline = IngestPipeline::new(store.clone(), 2).with_fallback_time(START);
    pipeline.run(stream_frames(50, 0.0));
    let records = Query::range(START - 100, START + 100_000).execute(&store);
    for r in &records {
        let line = r.to_json();
        let back = hetsyslog::pipeline::LogRecord::from_json(&line).unwrap();
        assert_eq!(&back, r);
    }
}
