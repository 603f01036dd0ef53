//! Ingest-path microbenches: frame parsing, store insertion and indexed
//! queries. The live path end to end is timed by hsbench (`sat_cnb`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use datagen::{StreamConfig, StreamGenerator};
use logpipeline::{LogRecord, LogStore, Query};

fn frames(n: usize) -> Vec<String> {
    StreamGenerator::new(StreamConfig {
        seed: 42,
        ..StreamConfig::default()
    })
    .take(n)
    .map(|t| t.to_frame())
    .collect()
}

/// `n` parsed stream frames as store records.
fn records(n: usize) -> Vec<LogRecord> {
    frames(n)
        .iter()
        .enumerate()
        .map(|(i, f)| LogRecord::from_message_owned(i as u64, syslog_model::parse(f).unwrap(), 0))
        .collect()
}

fn bench_parse(c: &mut Criterion) {
    let fs = frames(1000);
    let mut g = c.benchmark_group("syslog_parse");
    g.throughput(Throughput::Elements(fs.len() as u64));
    g.bench_function("rfc3164_1k_frames", |b| {
        b.iter(|| fs.iter().filter(|f| syslog_model::parse(f).is_ok()).count())
    });
    g.finish();
}

fn bench_store_insert(c: &mut Criterion) {
    let records = records(1000);
    let mut g = c.benchmark_group("log_store");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("insert_1k", |b| {
        b.iter_batched(
            LogStore::new,
            |store| {
                for r in &records {
                    store.insert(r.clone());
                }
                store.len()
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let store = LogStore::with_shard_seconds(600);
    store.insert_batch(records(20_000));
    let mut g = c.benchmark_group("query");
    g.bench_function("term_20k_docs", |b| {
        b.iter(|| {
            Query::range(0, i64::MAX / 2)
                .term("throttled")
                .count(&store)
        })
    });
    g.bench_function("two_terms_20k_docs", |b| {
        b.iter(|| {
            Query::range(0, i64::MAX / 2)
                .term("temperature")
                .term("threshold")
                .count(&store)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_parse, bench_store_insert, bench_query);
criterion_main!(benches);
