//! Shape assertions for every reproduced table/figure, at test-friendly
//! scale. These are the claims EXPERIMENTS.md makes, frozen as CI.

use hetsyslog::prelude::*;

fn corpus() -> Vec<(String, Category)> {
    datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 14,
    }))
}

/// Table 1: each category's top TF-IDF tokens carry the paper's signature
/// vocabulary.
#[test]
fn table1_signature_tokens_reproduce() {
    let corpus = corpus();
    let mut pipeline = FeaturePipeline::new(FeatureConfig::default());
    let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
    pipeline.fit(&messages);
    let t1 = pipeline.table1(&corpus, 5);

    let tokens_of = |c: Category| -> Vec<String> {
        t1[c.index()]
            .tokens
            .iter()
            .map(|(t, _)| t.clone())
            .collect()
    };
    let expect_any = |c: Category, candidates: &[&str]| {
        let got = tokens_of(c);
        assert!(
            candidates
                .iter()
                .filter(|w| got.contains(&w.to_string()))
                .count()
                >= 2,
            "{c}: top tokens {got:?} missing paper signature {candidates:?}"
        );
    };
    // Paper Table 1 signatures (lemmatized on our side).
    expect_any(
        Category::ThermalIssue,
        &[
            "temperature",
            "throttle",
            "sensor",
            "cpu",
            "processor",
            "threshold",
        ],
    );
    expect_any(
        Category::SshConnection,
        &["close", "preauth", "connection", "port", "user"],
    );
    expect_any(
        Category::UsbDevice,
        &["usb", "device", "hub", "number", "new"],
    );
    expect_any(
        Category::MemoryIssue,
        &["size", "real_memory", "low", "memory", "node"],
    );
    expect_any(
        Category::SlurmIssue,
        &["version", "update", "slurm", "please", "node"],
    );
    expect_any(
        Category::IntrusionDetection,
        &["root", "session", "user", "start", "boot"],
    );
    expect_any(
        Category::HardwareIssue,
        &["timestamp", "sync", "clock", "system", "event"],
    );
}

/// Table 2: the scaled class balance is exact and Slurm-floor protected.
#[test]
fn table2_distribution_reproduces() {
    let config = CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 14,
    };
    let corpus = generate_corpus(&config);
    for &c in &Category::ALL {
        let count = corpus.iter().filter(|m| m.category == c).count();
        let expected = ((c.paper_count() as f64 * 0.01).round() as usize).max(14);
        assert_eq!(count, expected, "{c}");
    }
}

/// Table 3: modeled LLM costs keep the paper's ordering and magnitudes.
#[test]
fn table3_latency_calibration_reproduces() {
    use llmsim::latency::{
        LatencyModel, PAPER_GENERATED_TOKENS, PAPER_PROMPT_TOKENS, ZEROSHOT_LABELS,
        ZEROSHOT_PROMPT_TOKENS,
    };
    let f7 =
        LatencyModel::falcon_7b().inference_seconds(PAPER_PROMPT_TOKENS, PAPER_GENERATED_TOKENS);
    let f40 =
        LatencyModel::falcon_40b().inference_seconds(PAPER_PROMPT_TOKENS, PAPER_GENERATED_TOKENS);
    let bart =
        LatencyModel::bart_large_mnli().inference_seconds(ZEROSHOT_PROMPT_TOKENS, ZEROSHOT_LABELS);
    // Paper: 0.639 / 2.184 / 0.13359 seconds.
    assert!((f7 - 0.639).abs() / 0.639 < 0.10, "falcon-7b {f7}");
    assert!((f40 - 2.184).abs() / 2.184 < 0.10, "falcon-40b {f40}");
    assert!((bart - 0.13359).abs() / 0.13359 < 0.10, "bart {bart}");
}

/// X1: drift fractures buckets but not TF-IDF.
#[test]
fn drift_shape_reproduces() {
    use hetsyslog::datagen::{DriftConfig, DriftModel};
    let corpus = corpus();
    let mut drift = DriftModel::new(DriftConfig::default());
    let drifted: Vec<(String, Category)> =
        corpus.iter().map(|(m, c)| (drift.mutate(m), *c)).collect();

    let bucket = BucketBaseline::train(7, &corpus);
    let tfidf = TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    );
    let acc = |clf: &dyn TextClassifier, data: &[(String, Category)]| {
        let texts: Vec<&str> = data.iter().map(|(m, _)| m.as_str()).collect();
        clf.classify_batch(&texts)
            .iter()
            .zip(data)
            .filter(|(p, (_, c))| p.category == *c)
            .count() as f64
            / data.len() as f64
    };
    let bucket_drop = acc(&bucket, &corpus) - acc(&bucket, &drifted);
    let tfidf_drop = acc(&tfidf, &corpus) - acc(&tfidf, &drifted);
    assert!(
        bucket_drop > tfidf_drop + 0.1,
        "bucketing must lose ≥10 points more than TF-IDF (bucket {bucket_drop:.3}, tfidf {tfidf_drop:.3})"
    );
    // The orphan queue — the paper's retraining burden — is substantial.
    let orphans = drifted
        .iter()
        .filter(|(m, _)| bucket.find(m).is_none())
        .count();
    assert!(orphans as f64 > 0.2 * drifted.len() as f64);
}

/// X2: the traditional end-to-end pipeline clears Darwin's message rate;
/// every modeled LLM misses it by orders of magnitude.
#[test]
fn throughput_shape_reproduces() {
    use std::sync::Arc;
    let corpus = corpus();
    let clf: Arc<dyn TextClassifier> = Arc::new(TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    ));
    let frames: Vec<String> = StreamGenerator::new(StreamConfig {
        seed: 3,
        ..StreamConfig::default()
    })
    .take(8000)
    .map(|t| t.to_frame())
    .collect();
    let started = std::time::Instant::now();
    let listener = SyslogListener::start(
        Arc::new(LogStore::new()),
        Some(Arc::new(MonitorService::new(clf))),
        ListenerConfig {
            workers: 4,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    listener.feed(frames);
    let report = listener.shutdown();
    assert_eq!(report.ingested, 8000);
    let traditional_mph = report.ingested as f64 / started.elapsed().as_secs_f64() * 3600.0;
    assert!(
        traditional_mph > 1_000_000.0,
        "traditional pipeline too slow: {traditional_mph:.0}/hour"
    );
    let f40_mph = 3600.0 / llmsim::LatencyModel::falcon_40b().inference_seconds(420, 16);
    assert!(
        traditional_mph / f40_mph > 100.0,
        "the paper's cost gap must hold"
    );
}

/// Masked bucketing beats raw bucketing on labeling burden (the xp_ablation
/// masking study).
#[test]
fn bucket_masking_shape_reproduces() {
    let corpus = corpus();
    let masked = BucketBaseline::train(7, &corpus);
    let raw = BucketBaseline::train_raw(7, &corpus);
    assert!(
        masked.n_buckets() * 2 < raw.n_buckets(),
        "masking must at least halve the exemplar count ({} vs {})",
        masked.n_buckets(),
        raw.n_buckets()
    );
}
