//! Real-time monitoring: the full Tivan-style loop.
//!
//! Generates a bursty synthetic syslog stream (Poisson base load plus a
//! thermal-runaway burst), feeds it through the listener's live path
//! (parse → classify → index on the shard workers), shows the first
//! actionable records (what a notification lane would deliver), and then
//! runs the paper's §4.5 monitoring views over the resulting store:
//! frequency analysis with burst detection, positional (per-rack)
//! analysis, and a per-architecture comparison.
//!
//! Run: `cargo run --release --example realtime_monitor`

use hetsyslog::pipeline::views::{
    frequency_analysis, per_architecture_analysis, positional_analysis, GroupBy,
};
use hetsyslog::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Train on a scaled Darwin corpus.
    let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 12,
    }));
    let clf: Arc<dyn TextClassifier> = Arc::new(TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    ));

    let service = Arc::new(MonitorService::new(clf));

    // A bursty stream: ~40 virtual seconds of Darwin load.
    let stream = StreamGenerator::new(StreamConfig {
        burst_probability: 0.001,
        seed: 11,
        ..StreamConfig::default()
    });
    let frames: Vec<String> = stream.take(12_000).map(|t| t.to_frame()).collect();

    // Ingest with classification in flight: the stream is fed in process
    // into the same live path the listener's sockets feed.
    let store = Arc::new(LogStore::with_shard_seconds(60));
    let started = Instant::now();
    let listener = SyslogListener::start(
        store.clone(),
        Some(service.clone()),
        ListenerConfig {
            workers: 4,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    listener.feed(frames);
    let report = listener.shutdown();
    let seconds = started.elapsed().as_secs_f64();
    let rate = report.ingested as f64 / seconds;
    println!(
        "ingested {} frames in {seconds:.2}s ({rate:.0} msgs/s sustained, {:.1}M msgs/hour)",
        report.ingested,
        rate * 3600.0 / 1e6,
    );
    let stats = service.stats();
    let actionable: u64 = Category::ALL
        .iter()
        .filter(|c| c.is_actionable())
        .map(|&c| stats.count(c))
        .sum();
    println!("{actionable} actionable");
    for &c in &Category::ALL {
        let n = stats.count(c);
        if n > 0 {
            println!("  {:<20} {n}", c.label());
        }
    }

    // §4.5.1 frequency analysis with burst detection.
    let (t0, t1) = (1_696_999_990, 1_697_000_000 + 120);
    let series = frequency_analysis(&store, t0, t1, 10, GroupBy::Total);
    if let Some(total) = series.first() {
        let bursts = total.bursts(2.0);
        println!(
            "\nfrequency analysis: {} buckets, bursts at {:?}",
            total.counts.len(),
            bursts
                .iter()
                .map(|(t, c)| format!("t={t} n={c}"))
                .collect::<Vec<_>>()
        );
    }

    // §4.5.2 positional analysis: which rack is hot?
    let topo = ClusterTopology::darwin_like(8, 52); // ~416 nodes like Darwin
    let racks = positional_analysis(&store, &topo, t0, t1, Category::ThermalIssue);
    println!("\npositional analysis (thermal messages per rack):");
    for r in racks.iter().filter(|r| r.in_category > 0) {
        println!(
            "  {}: {} thermal msgs across {} nodes",
            r.rack, r.in_category, r.affected_nodes
        );
    }

    // §4.5.3 per-architecture comparison for the noisiest thermal node.
    let thermal = Query::range(t0, t1)
        .in_category(Category::ThermalIssue)
        .execute(&store);
    if let Some(node) = thermal.first().map(|r| r.node.clone()) {
        let verdict = per_architecture_analysis(
            &store,
            &topo,
            t0,
            t1,
            Category::ThermalIssue,
            &node,
            2.0,
            0.8,
        );
        println!("\nper-architecture verdict for {node}: {verdict:?}");
    }

    // The first actionable records: what a notification lane delivers.
    let mut first = Vec::new();
    store.scan(i64::MIN, i64::MAX, &[], |r| match r.category {
        Some(c) if c.is_actionable() && first.len() < 3 => first.push((c, r.message.clone())),
        _ => {}
    });
    println!("\nfirst actionable records:");
    for (c, message) in first {
        println!("  [{c}] {message} → {}", c.suggested_action());
    }
}
