//! Microbenches for the edit-distance substrate: full vs banded
//! Levenshtein (the DESIGN.md ablation) and bucket-store lookup cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datagen::{generate_corpus, CorpusConfig};
use editdist::bucketing::{BucketStore, BucketingConfig};
use editdist::levenshtein::levenshtein_bounded_chars;
use editdist::{damerau_levenshtein, levenshtein};

const A: &str = "CPU temperature above threshold, cpu clock throttled.";
const B: &str = "CPU 1 Temperature Above Non-Recoverable - Asserted. Current temperature: 95C";

fn bench_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("edit_distance");
    g.bench_function("levenshtein_full", |b| b.iter(|| levenshtein(A, B)));
    let chars = |s: &str| s.chars().collect::<Vec<char>>();
    let (a, b_miss, b_hit) = (chars(A), chars(B), chars(&format!("{A}!")));
    g.bench_function("levenshtein_bounded_hit", |b| {
        // Distance within bound: full band work.
        b.iter(|| levenshtein_bounded_chars(&a, &b_hit, 7))
    });
    g.bench_function("levenshtein_bounded_miss", |b| {
        // Early exit: the hot path of bucket lookup misses.
        b.iter(|| levenshtein_bounded_chars(&a, &b_miss, 7))
    });
    g.bench_function("damerau", |b| b.iter(|| damerau_levenshtein(A, B)));
    g.finish();
}

fn bench_bucket_lookup(c: &mut Criterion) {
    let corpus = generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 12,
    });
    let mut store = BucketStore::new(BucketingConfig::default());
    for m in corpus.iter().take(2000) {
        store.assign(&m.text);
    }
    let probe_hit = &corpus[17].text;
    let probe_miss = "an entirely novel firmware message shape never seen before xyzzy";
    let mut g = c.benchmark_group("bucket_store");
    g.throughput(Throughput::Elements(1));
    g.bench_function(format!("find_hit_{}_buckets", store.len()), |b| {
        b.iter(|| store.find(probe_hit))
    });
    g.bench_function(format!("find_miss_{}_buckets", store.len()), |b| {
        b.iter(|| store.find(probe_miss))
    });
    g.finish();
}

fn bench_bucket_build(c: &mut Criterion) {
    let corpus = generate_corpus(&CorpusConfig {
        scale: 0.002,
        seed: 42,
        min_per_class: 8,
    });
    let texts: Vec<&str> = corpus.iter().map(|m| m.text.as_str()).collect();
    let mut g = c.benchmark_group("bucket_store");
    g.throughput(Throughput::Elements(texts.len() as u64));
    g.bench_function(format!("assign_{}_messages", texts.len()), |b| {
        b.iter(|| {
            let mut store = BucketStore::new(BucketingConfig::default());
            for t in &texts {
                store.assign(t);
            }
            store.len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_metrics,
    bench_bucket_lookup,
    bench_bucket_build
);
criterion_main!(benches);
