//! Cross-crate property tests: invariants that hold across subsystem
//! boundaries for arbitrary seeds and scales.

use datagen::{DriftConfig, DriftModel};
use hetsyslog::ml::KnnConfig;
use hetsyslog::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// kNN (k = 5) answers a generated stream through `predict_csr` exactly as
/// per-row `predict` does, as streamed and after `DriftModel`. The corpus
/// repeats its templates, so many training rows are bit-for-bit copies,
/// and some copies carry different labels: the groups of identical rows
/// the batch path indexes once, including the ties it must hand back to
/// the scalar vote.
#[test]
fn knn_predict_csr_matches_scalar_on_a_datagen_stream() {
    // hsbench's training corpus: 9 830 rows in 3 017 groups.
    let corpus = generate_corpus(&CorpusConfig {
        scale: 0.05,
        seed: 42,
        ..CorpusConfig::default()
    });
    let texts: Vec<&str> = corpus.iter().map(|m| m.text.as_str()).collect();
    let mut pipeline = FeaturePipeline::new(FeatureConfig::default());
    let features = pipeline.fit_transform(&texts);
    let labels: Vec<usize> = corpus.iter().map(|m| m.category.index()).collect();

    let mut groups: HashMap<(Vec<u32>, Vec<u64>), BTreeSet<usize>> = HashMap::new();
    for (row, &label) in features.iter().zip(&labels) {
        let bits = row.values().iter().map(|v| v.to_bits()).collect();
        groups
            .entry((row.indices().to_vec(), bits))
            .or_default()
            .insert(label);
    }
    assert!(
        groups.values().any(|labels| labels.len() > 1),
        "the fixture needs identical training rows under different labels"
    );

    let mut knn = KNearestNeighbors::new(KnnConfig { k: 5 });
    knn.fit(&Dataset::new(features, labels, Category::all_labels()));
    let clean: Vec<String> = StreamGenerator::new(StreamConfig {
        seed: 7,
        ..StreamConfig::default()
    })
    .take(512)
    .map(|tm| tm.message.text)
    .collect();
    let drifted = DriftModel::new(DriftConfig::default()).mutate_all(&clean);
    for (name, messages) in [("clean", &clean), ("drifted", &drifted)] {
        for batch in messages.chunks(64) {
            let m = pipeline.transform_batch_csr(batch);
            let scalar: Vec<usize> = (0..m.n_rows())
                .map(|r| knn.predict(&m.row_vec(r)))
                .collect();
            assert_eq!(knn.predict_csr(&m), scalar, "{name} stream");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every frame the stream generator emits parses back losslessly, for
    /// any seed and rate.
    #[test]
    fn stream_frames_always_parse(seed in 0u64..500, rate in 10.0f64..1000.0) {
        let stream = StreamGenerator::new(StreamConfig {
            seed,
            base_rate: rate,
            ..StreamConfig::default()
        });
        for tm in stream.take(40) {
            let frame = tm.to_frame();
            let parsed = parse(&frame).expect("stream frame must parse");
            prop_assert_eq!(parsed.hostname.as_deref(), Some(tm.message.node.as_str()));
            prop_assert_eq!(parsed.message, tm.message.text);
        }
    }

    /// The corpus generator keeps Table 2's dominance ordering for every
    /// seed: Unimportant > Thermal > every other class.
    #[test]
    fn corpus_imbalance_shape(seed in 0u64..200) {
        let corpus = generate_corpus(&CorpusConfig {
            scale: 0.004,
            seed,
            min_per_class: 4,
        });
        let count = |c: Category| corpus.iter().filter(|m| m.category == c).count();
        let unimportant = count(Category::Unimportant);
        let thermal = count(Category::ThermalIssue);
        prop_assert!(unimportant > thermal);
        for c in [
            Category::HardwareIssue,
            Category::IntrusionDetection,
            Category::MemoryIssue,
            Category::SshConnection,
            Category::SlurmIssue,
            Category::UsbDevice,
        ] {
            prop_assert!(thermal > count(c), "thermal must dominate {c}");
        }
    }

    /// Bucket assignment of a corpus then re-finding every message never
    /// misses: everything is within threshold of its own bucket.
    #[test]
    fn bucket_store_total_coverage(seed in 0u64..100) {
        let corpus = generate_corpus(&CorpusConfig {
            scale: 0.001,
            seed,
            min_per_class: 3,
        });
        let mut store = BucketStore::new(BucketingConfig::default());
        for m in &corpus {
            store.assign(&m.text);
        }
        for m in &corpus {
            prop_assert!(store.find(&m.text).is_some(), "message lost: {}", m.text);
        }
    }

    /// Training on any seeded corpus slice yields a classifier whose
    /// training accuracy beats the majority-class baseline.
    #[test]
    fn classifier_beats_majority_baseline(seed in 0u64..50) {
        let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
            scale: 0.002,
            seed,
            min_per_class: 6,
        }));
        let clf = TraditionalPipeline::train(
            FeatureConfig::default(),
            Box::new(ComplementNaiveBayes::new(Default::default())),
            &corpus,
        );
        let texts: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
        let preds = clf.classify_batch(&texts);
        let correct = preds
            .iter()
            .zip(&corpus)
            .filter(|(p, (_, c))| p.category == *c)
            .count();
        let mut class_counts = [0usize; 8];
        for (_, c) in &corpus {
            class_counts[c.index()] += 1;
        }
        let majority = *class_counts.iter().max().unwrap();
        prop_assert!(
            correct > majority,
            "classifier ({correct}) no better than majority vote ({majority})"
        );
    }

    /// Micro-batch partition invariance: splitting a frame stream into
    /// batches of any size and feeding each batch through
    /// `MonitorService::ingest_frames` yields outcome-for-outcome the same
    /// result as the scalar parse-then-`ingest` path — for batch sizes 1,
    /// 7 and 64, with parse failures in the mix.
    #[test]
    fn batched_ingest_partition_invariant(seed in 0u64..40, n in 30usize..150) {
        let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
            scale: 0.001,
            seed: 42,
            min_per_class: 4,
        }));
        let clf = std::sync::Arc::new(TraditionalPipeline::train(
            FeatureConfig::default(),
            Box::new(ComplementNaiveBayes::new(Default::default())),
            &corpus,
        ));

        // Frame stream with an unparseable (empty) frame every 11th slot.
        let stream = StreamGenerator::new(StreamConfig { seed, ..StreamConfig::default() });
        let frames: Vec<String> = stream
            .take(n)
            .enumerate()
            .map(|(i, tm)| if i % 11 == 10 { String::new() } else { tm.to_frame() })
            .collect();

        // Scalar reference: parse each frame, then per-message ingest.
        // Project each outcome to `Some((message text, category))`, or
        // `None` for an unparseable frame.
        let scalar_svc = MonitorService::new(clf.clone());
        let scalar: Vec<Option<(String, Category)>> = frames
            .iter()
            .map(|f| {
                parse(f).ok().map(|msg| {
                    let category = scalar_svc.ingest(&msg.message).category;
                    (msg.message, category)
                })
            })
            .collect();

        for batch in [1usize, 7, 64] {
            let svc = MonitorService::new(clf.clone());
            let mut outcomes = Vec::with_capacity(frames.len());
            for chunk in frames.chunks(batch) {
                let texts: Vec<&str> = chunk.iter().map(|f| f.as_str()).collect();
                outcomes.extend(svc.ingest_frames(&texts));
            }
            prop_assert_eq!(outcomes.len(), frames.len());
            for (outcome, expected) in outcomes.into_iter().zip(&scalar) {
                let got = match outcome {
                    FrameOutcome::Classified { message, prediction } => {
                        Some((message.message, prediction.category))
                    }
                    FrameOutcome::Prefiltered { .. } | FrameOutcome::ParseError => None,
                };
                prop_assert_eq!(&got, expected, "batch size {} diverged", batch);
            }
            // The counters agree with the scalar service too.
            prop_assert_eq!(svc.stats(), scalar_svc.stats());
        }
    }

    /// The monitor service's counters always reconcile: every message seen
    /// is classified, so total = Σ per-category.
    #[test]
    fn monitor_counters_reconcile(seed in 0u64..50, n in 20usize..120) {
        let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
            scale: 0.001,
            seed: 42,
            min_per_class: 4,
        }));
        let clf = std::sync::Arc::new(TraditionalPipeline::train(
            FeatureConfig::default(),
            Box::new(ComplementNaiveBayes::new(Default::default())),
            &corpus,
        ));
        let service = MonitorService::new(clf);
        let stream = StreamGenerator::new(StreamConfig { seed, ..StreamConfig::default() });
        for tm in stream.take(n) {
            let _ = service.ingest(&tm.message.text);
        }
        let stats = service.stats();
        prop_assert_eq!(stats.total, n as u64);
        prop_assert_eq!(stats.per_category.iter().sum::<u64>(), stats.total);
    }
}
