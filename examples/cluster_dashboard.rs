//! A terminal "Grafana panel": ingest a day-scale synthetic stream and
//! render the §4.5 views as ASCII — message-rate sparklines per category,
//! a rack heat table, and per-architecture anomaly verdicts.
//!
//! Run: `cargo run --release --example cluster_dashboard`

use hetsyslog::pipeline::views::{
    frequency_analysis, per_architecture_analysis, positional_analysis, GroupBy,
};
use hetsyslog::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(counts: &[u64]) -> String {
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    counts
        .iter()
        .map(|&c| SPARKS[(c as usize * (SPARKS.len() - 1)) / max as usize])
        .collect()
}

fn main() {
    // Train a fast classifier and ingest a bursty stream.
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
    let store = Arc::new(LogStore::with_shard_seconds(60));
    let start = 1_697_000_000i64;
    let frames: Vec<String> = StreamGenerator::new(StreamConfig {
        start_unix: start,
        burst_probability: 0.0015,
        seed: 23,
        ..StreamConfig::default()
    })
    .take(30_000)
    .map(|t| t.to_frame())
    .collect();
    let started = Instant::now();
    let listener = SyslogListener::start(
        store.clone(),
        Some(Arc::new(MonitorService::new(clf))),
        ListenerConfig {
            workers: 4,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    listener.feed(frames);
    let report = listener.shutdown();
    println!(
        "tivan-sim dashboard — {} records indexed in {:.2}s\n",
        report.ingested,
        started.elapsed().as_secs_f64()
    );

    // Panel 1: per-category message rate (10 s buckets).
    let horizon = start + 120;
    println!("message rate by category (10s buckets)");
    for series in frequency_analysis(&store, start - 10, horizon, 10, GroupBy::Category) {
        let total: u64 = series.counts.iter().sum();
        if total > 0 {
            println!(
                "  {:<22} {:>6}  {}",
                series.label,
                total,
                sparkline(&series.counts)
            );
        }
    }

    // Panel 2: burst detector on the aggregate series.
    let total_series = frequency_analysis(&store, start - 10, horizon, 10, GroupBy::Total);
    if let Some(s) = total_series.first() {
        println!(
            "\n  {:<22} {:>6}  {}",
            "TOTAL",
            s.counts.iter().sum::<u64>(),
            sparkline(&s.counts)
        );
        for (t, c) in s.bursts(2.0) {
            println!(
                "  ⚠ burst: {c} messages in bucket starting t+{}s",
                t - start
            );
        }
    }

    // Panel 3: rack heat table (thermal messages).
    let topo = ClusterTopology::darwin_like(8, 52);
    println!("\nthermal messages per rack");
    let racks = positional_analysis(&store, &topo, start - 10, horizon, Category::ThermalIssue);
    for r in &racks {
        let bar = "#".repeat((r.in_category as usize).min(60));
        println!(
            "  {:<4} {:>5} across {:>2} nodes {}",
            r.rack, r.in_category, r.affected_nodes, bar
        );
    }

    // Panel 4: per-architecture verdicts for the three noisiest thermal
    // nodes.
    let thermal = Query::range(start - 10, horizon)
        .in_category(Category::ThermalIssue)
        .execute(&store);
    let mut by_node: std::collections::BTreeMap<String, usize> = Default::default();
    for r in &thermal {
        *by_node.entry(r.node.clone()).or_default() += 1;
    }
    let mut noisy: Vec<(String, usize)> = by_node.into_iter().collect();
    noisy.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("\nper-architecture verdicts (top thermal emitters)");
    for (node, n) in noisy.into_iter().take(3) {
        let verdict = per_architecture_analysis(
            &store,
            &topo,
            start - 10,
            horizon,
            Category::ThermalIssue,
            &node,
            2.0,
            0.8,
        );
        println!("  {node} ({n} msgs): {verdict:?}");
    }
}
