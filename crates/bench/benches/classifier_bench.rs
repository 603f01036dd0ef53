//! Per-classifier single-message prediction latency — the number that
//! decides whether a technique survives Darwin's >1M messages/hour — and
//! kNN's batch kernel on the live path's 64-row batches.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datagen::{
    generate_corpus, CorpusConfig, DriftConfig, DriftModel, StreamConfig, StreamGenerator,
};
use hetsyslog_core::eval::{prepare_split, EvalConfig};
use hetsyslog_core::{Category, FeatureConfig, FeaturePipeline};
use hetsyslog_ml::{
    paper_suite, BatchClassifier, Classifier, Dataset, KNearestNeighbors, KnnConfig,
};
use textproc::CsrMatrix;

fn bench_predict_latency(c: &mut Criterion) {
    let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 12,
    }));
    let split = prepare_split(&corpus, &EvalConfig::default());
    let probe = split.test.features[0].clone();

    let mut g = c.benchmark_group("predict_one");
    g.throughput(Throughput::Elements(1));
    for mut model in paper_suite(42) {
        model.fit(&split.train);
        let name = model.name().replace(' ', "_").to_lowercase();
        g.bench_function(name, |b| b.iter(|| model.predict(&probe)));
    }
    g.finish();
}

fn bench_train_cheap_models(c: &mut Criterion) {
    // Training microbench restricted to the sub-second models; the full
    // Figure 3 timing lives in the fig3_traditional binary.
    let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.005,
        seed: 42,
        min_per_class: 12,
    }));
    let split = prepare_split(&corpus, &EvalConfig::default());
    let mut g = c.benchmark_group("fit");
    g.sample_size(10);
    for name in [
        "kNN",
        "Nearest Centroid",
        "Complement Naive Bayes",
        "Log-loss SGD",
    ] {
        let mut model = paper_suite(42)
            .into_iter()
            .find(|m| m.name() == name)
            .expect("model in suite");
        let id = name.replace(' ', "_").to_lowercase();
        g.bench_function(id, |b| b.iter(|| model.fit(&split.train)));
    }
    g.finish();
}

/// `predict_csr` of the `sat_knn` model (kNN, k = 5, over the fixed
/// training corpus: seed 42 at scale 0.05, ≈ 9.8 k rows) on 100 batches
/// of 64 stream messages (stream seed 42, the traffic `sat_knn` sends),
/// as streamed and after `DriftModel` with its default config.
fn bench_knn_predict_csr(c: &mut Criterion) {
    let corpus = generate_corpus(&CorpusConfig {
        scale: 0.05,
        seed: 42,
        ..CorpusConfig::default()
    });
    let texts: Vec<&str> = corpus.iter().map(|m| m.text.as_str()).collect();
    let mut pipeline = FeaturePipeline::new(FeatureConfig::default());
    let features = pipeline.fit_transform(&texts);
    let labels = corpus.iter().map(|m| m.category.index()).collect();
    let mut knn = KNearestNeighbors::new(KnnConfig::default());
    knn.fit(&Dataset::new(features, labels, Category::all_labels()));

    let clean: Vec<String> = StreamGenerator::new(StreamConfig {
        seed: 42,
        ..StreamConfig::default()
    })
    .take(6400)
    .map(|tm| tm.message.text)
    .collect();
    let mut drift = DriftModel::new(DriftConfig::default());
    let drifted: Vec<String> = clean.iter().map(|m| drift.mutate(m)).collect();

    let mut g = c.benchmark_group("knn_predict_csr");
    g.throughput(Throughput::Elements(clean.len() as u64));
    for (name, messages) in [
        ("batches_of_64/clean", &clean),
        ("batches_of_64/drifted", &drifted),
    ] {
        let batches: Vec<CsrMatrix> = messages
            .chunks(64)
            .map(|batch| pipeline.transform_batch_csr(batch))
            .collect();
        g.bench_function(name, |b| {
            b.iter(|| {
                batches
                    .iter()
                    .map(|m| knn.predict_csr(m).len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_predict_latency,
    bench_train_cheap_models,
    bench_knn_predict_csr
);
criterion_main!(benches);
