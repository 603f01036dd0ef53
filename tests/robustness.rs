//! Failure injection: the system must degrade, not panic, when fed
//! garbage, degenerate training sets, or empty feature spaces.

use hetsyslog::prelude::*;
use textproc::TfidfConfig;

#[test]
fn pipeline_survives_garbage_frames() {
    use std::sync::Arc;
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store.clone(),
        None,
        ListenerConfig {
            fallback_time: 100,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let mut frames: Vec<String> = Vec::new();
    for i in 0..200 {
        frames.push(format!("<13>Oct 11 22:14:15 cn0001 kernel: good frame {i}"));
        frames.push("<<<>>> total garbage \u{0} with control bytes \u{7}".to_string());
        frames.push(String::new()); // dropped
        frames.push("<999>1 not a real pri".to_string()); // free-form fallback
    }
    listener.feed(frames);
    let free_form = listener.stats().free_form.clone();
    let report = listener.shutdown();
    assert_eq!(report.parse_errors, 200, "empty frames dropped");
    assert_eq!(report.ingested, 600, "everything else captured");
    assert!(free_form.get() >= 400, "garbage falls back to free-form");
    assert_eq!(store.len(), 600);
}

#[test]
fn classifier_with_empty_vocabulary_does_not_panic() {
    // min_df = 50 on a tiny corpus of unique tokens ⇒ zero features.
    let corpus: Vec<(String, Category)> = (0..20)
        .map(|i| (format!("uniqtoken{i}"), Category::Unimportant))
        .chain((0..20).map(|i| (format!("othertok{i}"), Category::ThermalIssue)))
        .collect();
    let clf = TraditionalPipeline::train(
        FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 50,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        },
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    );
    assert_eq!(clf.features().n_features(), 0);
    let p = clf.classify("anything at all");
    assert!(Category::ALL.contains(&p.category));
}

#[test]
fn single_class_corpus_trains_and_predicts() {
    let corpus: Vec<(String, Category)> = (0..10)
        .map(|i| {
            (
                format!("usb device {i} new number on hub"),
                Category::UsbDevice,
            )
        })
        .collect();
    // Complement NB is excluded: "the complement of the only class" is
    // degenerate by construction, so its single-class prediction is
    // arbitrary (valid, but not necessarily the populated class).
    for model in ["nc", "sgd", "lr"] {
        let clf = hetsyslog::core::persist::SavedPipeline::train(
            FeatureConfig {
                tfidf: TfidfConfig {
                    min_df: 1,
                    ..TfidfConfig::default()
                },
                ..FeatureConfig::default()
            },
            SavedModel::by_name(model).unwrap(),
            &corpus,
        );
        let p = clf.classify("usb device 99 new number on hub");
        assert_eq!(
            p.category,
            Category::UsbDevice,
            "{model} failed on single-class corpus"
        );
    }
    let cnb = hetsyslog::core::persist::SavedPipeline::train(
        FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        },
        SavedModel::by_name("cnb").unwrap(),
        &corpus,
    );
    assert!(Category::ALL.contains(&cnb.classify("usb device 99").category));
}

#[test]
fn bucket_baseline_on_empty_corpus() {
    let baseline = BucketBaseline::train(7, &[]);
    assert_eq!(baseline.n_buckets(), 0);
    let p = baseline.classify("anything");
    assert_eq!(p.category, Category::Unimportant, "falls back to noise");
}

#[test]
fn llm_with_empty_pretraining_corpus() {
    let clf = GenerativeLlmClassifier::new(
        ModelPreset::falcon_7b(),
        &[],
        PromptBuilder::new(),
        Some(16),
        1,
    );
    // No knowledge: predictions are arbitrary but valid, costs accounted.
    let p = clf.classify("cpu temperature above threshold");
    assert!(Category::ALL.contains(&p.category));
    assert!(clf.virtual_seconds() > 0.0);
}

#[test]
fn sparse_vector_extreme_values() {
    use textproc::SparseVec;
    // 1e150 squares to 1e300, near but under f64::MAX — the norm must
    // stay finite and normalization exact.
    let v = SparseVec::from_pairs(vec![(0, 1e150), (1, f64::MIN_POSITIVE)]);
    assert!(v.norm().is_finite());
    let mut u = v.clone();
    u.l2_normalize();
    assert!((u.norm() - 1.0).abs() < 1e-9);
}

#[test]
fn frame_decoder_resists_hostile_counts() {
    let mut decoder = FrameDecoder::new();
    // A stream of nothing but bogus octet counts must not OOM or loop.
    let hostile = "999999 ".repeat(1000);
    let frames = decoder.push(hostile.as_bytes());
    assert!(frames.is_empty());
    assert_eq!(decoder.dropped(), 1000);
    assert!(decoder.pending() < 16);
}
