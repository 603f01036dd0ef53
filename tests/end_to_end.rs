//! Cross-crate integration: corpus generation → preprocessing → training →
//! evaluation, for every classifier family.

use hetsyslog::prelude::*;
use hetsyslog_core::eval::{evaluate_suite, EvalConfig};

fn corpus() -> Vec<(String, Category)> {
    datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.008,
        seed: 42,
        min_per_class: 16,
    }))
}

#[test]
fn traditional_suite_reproduces_figure3_shape() {
    let corpus = corpus();
    let mut models = paper_suite(42);
    let config = EvalConfig::default();
    let (split, evals) = evaluate_suite(&corpus, &mut models, &config);
    assert!(split.train.len() > split.test.len());
    assert_eq!(evals.len(), 8);

    for e in &evals {
        // Paper: every weighted F1 in 0.9523..0.9995. Nearest Centroid is
        // the weakest on our harder synthetic corpus; everything else must
        // clear 0.95.
        let floor = if e.report.model == "Nearest Centroid" {
            0.85
        } else {
            0.95
        };
        assert!(
            e.report.weighted_f1 >= floor,
            "{} weighted F1 {} below floor {floor}",
            e.report.model,
            e.report.weighted_f1
        );
    }

    let time_of = |name: &str| -> f64 {
        evals
            .iter()
            .find(|e| e.report.model == name)
            .map(|e| e.report.train_seconds)
            .expect("model present")
    };
    // kNN trains fastest of the iterative models; Linear SVC slowest
    // overall (both paper findings).
    assert!(time_of("kNN") < time_of("Logistic Regression"));
    assert!(time_of("Linear SVC") > time_of("Random Forest"));
    assert!(time_of("Linear SVC") > time_of("Logistic Regression"));
    // kNN pays at test time instead. Its inverted index is built lazily by
    // the first `predict_csr`, so the index build falls inside
    // `test_seconds`, not `train_seconds`.
    let knn = evals.iter().find(|e| e.report.model == "kNN").unwrap();
    assert!(knn.report.test_seconds > knn.report.train_seconds);
}

#[test]
fn drop_unimportant_ablation_raises_f1() {
    let corpus = corpus();
    let base_cfg = EvalConfig::default();
    let drop_cfg = EvalConfig {
        drop_unimportant: true,
        ..EvalConfig::default()
    };
    // Probe with the two cheapest models.
    let mut m1: Vec<Box<dyn BatchClassifier>> =
        vec![Box::new(ComplementNaiveBayes::new(Default::default()))];
    let (_, base) = evaluate_suite(&corpus, &mut m1, &base_cfg);
    let mut m2: Vec<Box<dyn BatchClassifier>> =
        vec![Box::new(ComplementNaiveBayes::new(Default::default()))];
    let (_, dropped) = evaluate_suite(&corpus, &mut m2, &drop_cfg);
    assert!(
        dropped[0].report.weighted_f1 >= base[0].report.weighted_f1,
        "ablation must not lower F1: {} vs {}",
        dropped[0].report.weighted_f1,
        base[0].report.weighted_f1
    );
}

#[test]
fn unimportant_is_the_confused_category() {
    // Figure 2's qualitative finding: when any confusion exists, it
    // involves the Unimportant class.
    let corpus = corpus();
    let mut models: Vec<Box<dyn BatchClassifier>> =
        vec![Box::new(LinearSvc::new(Default::default()))];
    let (_, evals) = evaluate_suite(&corpus, &mut models, &EvalConfig::default());
    if let Some((t, p, _)) = evals[0].confusion.most_confused() {
        let unimp = Category::Unimportant.index();
        assert!(
            t == unimp || p == unimp,
            "most-confused pair ({t},{p}) does not involve Unimportant"
        );
    }
}

#[test]
fn bucket_baseline_matches_background_section() {
    let corpus = corpus();
    let baseline = BucketBaseline::train(7, &corpus);
    // The bucket economy: far fewer exemplars than messages.
    assert!(baseline.n_buckets() * 2 < corpus.len());
    // In-distribution accuracy is decent (it labeled this very corpus).
    let correct = corpus
        .iter()
        .filter(|(m, c)| baseline.classify(m).category == *c)
        .count();
    assert!(correct as f64 / corpus.len() as f64 > 0.75);
}

#[test]
fn noise_filter_precision_on_signal() {
    let corpus = corpus();
    let filter = NoiseFilter::train(3, &corpus);
    let false_positives = corpus
        .iter()
        .filter(|(_, c)| *c != Category::Unimportant)
        .filter(|(m, _)| filter.is_noise(m))
        .count();
    let signal = corpus
        .iter()
        .filter(|(_, c)| *c != Category::Unimportant)
        .count();
    // Confusable-noise families deliberately sit near real categories;
    // the filter must stay under a few percent false positives on signal.
    assert!(
        (false_positives as f64) < 0.04 * signal as f64,
        "pre-filter dropped {false_positives}/{signal} signal messages"
    );
}

#[test]
fn explanations_cite_real_tokens() {
    let corpus = corpus();
    let clf = TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    );
    let msg = "CPU 3 temperature above threshold cpu clock throttled";
    let p = clf.classify(msg);
    let e = p.explanation.expect("traditional pipeline always explains");
    assert!(!e.top_tokens.is_empty());
    // Every cited token must be a lemma of something in the message.
    for (token, weight) in &e.top_tokens {
        assert!(*weight > 0.0);
        assert!(
            msg.to_lowercase().contains(&token[..token.len().min(4)]),
            "explanation token {token} unrelated to message"
        );
    }
}
