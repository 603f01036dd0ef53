//! The evaluation harness behind the paper's Figure 2 and Figure 3:
//! stratified train/test split, per-model wall-clock timing, weighted-F1
//! scoring and confusion matrices.

use crate::features::{FeatureConfig, FeaturePipeline};
use crate::taxonomy::Category;
use hetsyslog_ml::{BatchClassifier, ClassificationReport, ConfusionMatrix, Dataset};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use textproc::CsrMatrix;

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Fraction of each class held out for testing.
    pub test_ratio: f64,
    /// Split / model seed.
    pub seed: u64,
    /// Preprocessing configuration.
    pub features: FeatureConfig,
    /// Drop the Unimportant class entirely (the §5.1 ablation).
    pub drop_unimportant: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            test_ratio: 0.25,
            seed: 42,
            features: FeatureConfig::default(),
            drop_unimportant: false,
        }
    }
}

/// One model's evaluation result.
pub struct ModelEvaluation {
    /// The Figure 3 row.
    pub report: ClassificationReport,
    /// The Figure 2 matrix.
    pub confusion: ConfusionMatrix,
}

/// A prepared train/test split with fitted features, reusable across
/// models so every classifier sees identical data.
pub struct PreparedSplit {
    /// Training set.
    pub train: Dataset,
    /// Held-out test set.
    pub test: Dataset,
    /// Raw training messages, parallel to `train`.
    pub train_texts: Vec<String>,
    /// Raw test messages, parallel to `test` (robustness studies re-derive
    /// features from mutated copies of these).
    pub test_texts: Vec<String>,
    /// The fitted preprocessing pipeline.
    pub pipeline: FeaturePipeline,
    /// Seconds spent fitting + vectorizing (shared preprocessing cost).
    pub preprocess_seconds: f64,
}

impl PreparedSplit {
    /// Structural fingerprint of the split: sizes, per-class counts, and
    /// the vocabulary digest. Fully deterministic for a given corpus and
    /// config — no wall-clock fields — so conformance goldens pin every
    /// field exactly.
    pub fn signature(&self) -> serde_json::Value {
        serde_json::json!({
            "n_train": self.train.len(),
            "n_test": self.test.len(),
            "n_features": self.pipeline.n_features(),
            "train_class_counts": self.train.class_counts(),
            "test_class_counts": self.test.class_counts(),
            "vocab_signature": format!("{:016x}", self.pipeline.vocab_signature()),
        })
    }
}

/// Stratified split of corpus indices by category.
fn split_indices(
    corpus: &[(String, Category)],
    test_ratio: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); Category::ALL.len()];
    for (i, (_, c)) in corpus.iter().enumerate() {
        by_class[c.index()].push(i);
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    for indices in &mut by_class {
        indices.shuffle(&mut rng);
        let mut n_test = (indices.len() as f64 * test_ratio).floor() as usize;
        if n_test == 0 && indices.len() >= 2 && test_ratio > 0.0 {
            n_test = 1;
        }
        test.extend_from_slice(&indices[..n_test]);
        train.extend_from_slice(&indices[n_test..]);
    }
    train.shuffle(&mut rng);
    test.shuffle(&mut rng);
    (train, test)
}

/// Split the corpus, fit the feature pipeline on the training half only
/// (no leakage), and vectorize both halves.
pub fn prepare_split(corpus: &[(String, Category)], config: &EvalConfig) -> PreparedSplit {
    let working: Vec<(String, Category)> = if config.drop_unimportant {
        corpus
            .iter()
            .filter(|(_, c)| *c != Category::Unimportant)
            .cloned()
            .collect()
    } else {
        corpus.to_vec()
    };
    let (train_idx, test_idx) = split_indices(&working, config.test_ratio, config.seed);

    let t0 = Instant::now();
    let mut pipeline = FeaturePipeline::new(config.features.clone());
    let train_msgs: Vec<&str> = train_idx.iter().map(|&i| working[i].0.as_str()).collect();
    let test_msgs: Vec<&str> = test_idx.iter().map(|&i| working[i].0.as_str()).collect();
    let train_features = pipeline.fit_transform(&train_msgs);
    let test_features = pipeline.transform_batch(&test_msgs);
    let preprocess_seconds = t0.elapsed().as_secs_f64();

    let names = Category::all_labels();
    let train = Dataset::new(
        train_features,
        train_idx.iter().map(|&i| working[i].1.index()).collect(),
        names.clone(),
    );
    let test = Dataset::new(
        test_features,
        test_idx.iter().map(|&i| working[i].1.index()).collect(),
        names,
    );
    PreparedSplit {
        train,
        test,
        train_texts: train_msgs.iter().map(|s| s.to_string()).collect(),
        test_texts: test_msgs.iter().map(|s| s.to_string()).collect(),
        pipeline,
        preprocess_seconds,
    }
}

/// Fit and score one model on a prepared split, timing both phases.
///
/// The test phase is one [`BatchClassifier::predict_csr`] call over the
/// whole test half, the call the live path makes per batch, so
/// `test_seconds` is the daemon's inference cost. The matrix is built
/// from the split's own test vectors before the timer starts.
pub fn evaluate_model(model: &mut dyn BatchClassifier, split: &PreparedSplit) -> ModelEvaluation {
    let t0 = Instant::now();
    model.fit(&split.train);
    let train_seconds = t0.elapsed().as_secs_f64();

    let test_matrix = CsrMatrix::from_rows(&split.test.features, 0);
    let t1 = Instant::now();
    let predicted = model.predict_csr(&test_matrix);
    let test_seconds = t1.elapsed().as_secs_f64();

    let confusion =
        ConfusionMatrix::from_predictions(&split.test.class_names, &split.test.labels, &predicted);
    let report = ClassificationReport {
        model: model.name().to_string(),
        weighted_f1: confusion.weighted_f1(),
        macro_f1: confusion.macro_f1(),
        accuracy: confusion.accuracy(),
        train_seconds,
        test_seconds,
        n_test: split.test.len(),
    };
    ModelEvaluation { report, confusion }
}

/// Evaluate a whole suite on one shared split (the Figure 3 table).
pub fn evaluate_suite(
    corpus: &[(String, Category)],
    models: &mut [Box<dyn BatchClassifier>],
    config: &EvalConfig,
) -> (PreparedSplit, Vec<ModelEvaluation>) {
    let split = prepare_split(corpus, config);
    let evals = models
        .iter_mut()
        .map(|m| evaluate_model(m.as_mut(), &split))
        .collect();
    (split, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsyslog_ml::{ComplementNaiveBayes, ComplementNbConfig, NearestCentroid};
    use textproc::TfidfConfig;

    fn corpus() -> Vec<(String, Category)> {
        let mut out = Vec::new();
        for i in 0..12 {
            out.push((
                format!("cpu {i} temperature above threshold clock throttled"),
                Category::ThermalIssue,
            ));
            out.push((
                format!("sshd connection closed by user {i} port 22 preauth"),
                Category::SshConnection,
            ));
            out.push((
                format!("usb {i} new device number found on hub"),
                Category::UsbDevice,
            ));
            out.push((
                format!("systemd started session {i} of user build"),
                Category::Unimportant,
            ));
        }
        out
    }

    fn config() -> EvalConfig {
        EvalConfig {
            features: FeatureConfig {
                tfidf: TfidfConfig {
                    min_df: 1,
                    ..TfidfConfig::default()
                },
                ..FeatureConfig::default()
            },
            ..EvalConfig::default()
        }
    }

    #[test]
    fn split_has_no_leakage_and_full_coverage() {
        let corpus = corpus();
        let split = prepare_split(&corpus, &config());
        assert_eq!(split.train.len() + split.test.len(), corpus.len());
        assert!(split.preprocess_seconds >= 0.0);
        // All 4 used classes appear in both halves.
        for c in [
            Category::ThermalIssue,
            Category::SshConnection,
            Category::UsbDevice,
            Category::Unimportant,
        ] {
            assert!(split.train.class_counts()[c.index()] > 0);
            assert!(split.test.class_counts()[c.index()] > 0);
        }
    }

    #[test]
    fn evaluate_simple_models() {
        let corpus = corpus();
        let mut models: Vec<Box<dyn BatchClassifier>> = vec![
            Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
            Box::new(NearestCentroid::new()),
        ];
        let (_, evals) = evaluate_suite(&corpus, &mut models, &config());
        assert_eq!(evals.len(), 2);
        for e in &evals {
            assert!(
                e.report.weighted_f1 > 0.9,
                "{} scored only {}",
                e.report.model,
                e.report.weighted_f1
            );
            assert!(e.report.train_seconds >= 0.0);
            assert_eq!(e.confusion.total() as usize, e.report.n_test);
        }
    }

    #[test]
    fn drop_unimportant_removes_class() {
        let corpus = corpus();
        let cfg = EvalConfig {
            drop_unimportant: true,
            ..config()
        };
        let split = prepare_split(&corpus, &cfg);
        assert_eq!(split.train.class_counts()[Category::Unimportant.index()], 0);
        assert_eq!(split.test.class_counts()[Category::Unimportant.index()], 0);
        assert_eq!(split.train.len() + split.test.len(), 36);
    }

    #[test]
    fn deterministic_under_seed() {
        let corpus = corpus();
        let a = prepare_split(&corpus, &config());
        let b = prepare_split(&corpus, &config());
        assert_eq!(a.train.labels, b.train.labels);
        assert_eq!(a.test.labels, b.test.labels);
    }

    #[test]
    fn signature_is_stable_and_sensitive() {
        let corpus = corpus();
        let a = prepare_split(&corpus, &config());
        let b = prepare_split(&corpus, &config());
        assert_eq!(
            crate::persist::to_canonical_json(&a.signature()),
            crate::persist::to_canonical_json(&b.signature())
        );
        let other = prepare_split(
            &corpus,
            &EvalConfig {
                drop_unimportant: true,
                ..config()
            },
        );
        assert_ne!(
            crate::persist::to_canonical_json(&a.signature()),
            crate::persist::to_canonical_json(&other.signature()),
            "a structurally different split must change the signature"
        );
    }
}
