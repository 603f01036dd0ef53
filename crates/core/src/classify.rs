//! Text-level classification interface and adapters.
//!
//! [`TextClassifier`] is the system-facing trait: raw message text in,
//! [`Prediction`] out. Three families implement it:
//!
//! * [`TraditionalPipeline`] — §4.3 preprocessing + any `hetsyslog-ml`
//!   model (the Figure 3 suite),
//! * [`BucketBaseline`] — the Background §3 edit-distance system,
//! * `llmsim`'s generative and zero-shot classifiers (in their own crate).

use crate::explain::Explanation;
use crate::features::{FeatureConfig, FeaturePipeline};
use crate::taxonomy::Category;
use editdist::bucketing::{BucketStore, BucketingConfig};
use hetsyslog_ml::{BatchClassifier, Classifier, Dataset};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// A classification decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// The chosen category.
    pub category: Category,
    /// Confidence in `[0, 1]` when the model provides one.
    pub confidence: Option<f64>,
    /// Why, when the model can explain itself.
    pub explanation: Option<Explanation>,
}

impl Prediction {
    /// A bare prediction with no confidence or explanation.
    pub fn bare(category: Category) -> Prediction {
        Prediction {
            category,
            confidence: None,
            explanation: None,
        }
    }
}

/// A classifier over raw syslog message text.
pub trait TextClassifier: Send + Sync {
    /// Model display name.
    fn name(&self) -> String;

    /// Classify one message.
    fn classify(&self, message: &str) -> Prediction;

    /// Classify a batch (parallel by default).
    fn classify_batch(&self, messages: &[&str]) -> Vec<Prediction> {
        messages.par_iter().map(|m| self.classify(m)).collect()
    }
}

/// Instruments of the two CSR stages of the batch classify path,
/// registered once when the pipeline is built.
struct CsrStageMetrics {
    transform_us: Arc<obs::Histogram>,
    predict_us: Arc<obs::Histogram>,
    rows: Arc<obs::Counter>,
    nnz: Arc<obs::Counter>,
    matrix_bytes: Arc<obs::Counter>,
    /// Per-prediction confidence margin (winner's decision-score gap to
    /// the runner-up) in thousandths, labeled by model. Shrinking margins
    /// are the serving-time symptom of a model drifting off its training
    /// distribution.
    margin_milli: Arc<obs::Histogram>,
}

impl CsrStageMetrics {
    fn registered(registry: &obs::Registry, model: &str) -> CsrStageMetrics {
        let stage = |name: &str| {
            registry.histogram(
                "hetsyslog_stage_duration_us",
                "Per-stage batch processing time in microseconds",
                &[("stage", name)],
            )
        };
        CsrStageMetrics {
            transform_us: stage("tokenize_transform"),
            predict_us: stage("predict"),
            rows: registry.counter(
                "hetsyslog_transform_rows_total",
                "Rows vectorized into CSR batch matrices",
                &[],
            ),
            nnz: registry.counter(
                "hetsyslog_transform_nnz_total",
                "Non-zero entries across CSR batch matrices",
                &[],
            ),
            matrix_bytes: registry.counter(
                "hetsyslog_transform_matrix_bytes_total",
                "Heap bytes allocated for CSR batch matrices (cumulative)",
                &[],
            ),
            margin_milli: registry.histogram(
                "hetsyslog_model_confidence_margin_milli",
                "Winner-vs-runner-up decision-score gap per batch prediction, \
                 in thousandths",
                &[("model", model)],
            ),
        }
    }
}

/// §4.3 preprocessing + a traditional ML model.
pub struct TraditionalPipeline {
    pipeline: FeaturePipeline,
    model: Box<dyn BatchClassifier>,
    explain_top_k: usize,
    stage_metrics: CsrStageMetrics,
}

impl TraditionalPipeline {
    /// Train `model` on `corpus` with the given feature configuration.
    pub fn train(
        feature_config: FeatureConfig,
        mut model: Box<dyn BatchClassifier>,
        corpus: &[(String, Category)],
    ) -> TraditionalPipeline {
        let mut pipeline = FeaturePipeline::new(feature_config);
        let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
        let features = pipeline.fit_transform(&messages);
        let labels: Vec<usize> = corpus.iter().map(|(_, c)| c.index()).collect();
        let data = Dataset::new(features, labels, Category::all_labels());
        model.fit(&data);
        TraditionalPipeline {
            stage_metrics: CsrStageMetrics::registered(&obs::Registry::new(), model.name()),
            pipeline,
            model,
            explain_top_k: 5,
        }
    }

    /// Export the CSR-stage histograms, matrix counters and the
    /// per-prediction margin histogram on `registry`. Without this call
    /// the same instruments record on a registry nobody scrapes. A
    /// construction-time builder: the instruments start from zero, and a
    /// pipeline already shared behind an `Arc` cannot be rebound.
    pub fn with_registry(mut self, registry: &obs::Registry) -> TraditionalPipeline {
        self.stage_metrics = CsrStageMetrics::registered(registry, self.model.name());
        self
    }

    /// The fitted feature pipeline.
    pub fn features(&self) -> &FeaturePipeline {
        &self.pipeline
    }

    /// The underlying model.
    pub fn model(&self) -> &dyn Classifier {
        self.model.as_ref()
    }
}

impl TextClassifier for TraditionalPipeline {
    fn name(&self) -> String {
        format!("TF-IDF + {}", self.model.name())
    }

    fn classify(&self, message: &str) -> Prediction {
        let x = self.pipeline.transform(message);
        let idx = self.model.predict(&x);
        let category = Category::from_index(idx).unwrap_or(Category::Unimportant);
        let top = self
            .pipeline
            .top_contributing_tokens(message, self.explain_top_k);
        let rationale = match top.first() {
            Some((t, _)) => format!(
                "{} feature weights dominated by '{t}'; category '{category}'",
                self.model.name()
            ),
            None => format!(
                "no known vocabulary in message; {} fell back to '{category}'",
                self.model.name()
            ),
        };
        Prediction {
            category,
            confidence: None,
            explanation: Some(Explanation::new(top, rationale)),
        }
    }

    fn classify_batch(&self, messages: &[&str]) -> Vec<Prediction> {
        // Matrix-at-a-time: vectorize into one CSR matrix, score it with
        // the model's scored batch kernel. Explanations are skipped on the
        // batch path (they are for interactive use); the predictions
        // themselves are bit-identical to per-message `classify`.
        let m = &self.stage_metrics;
        let t0 = Instant::now();
        let matrix = self.pipeline.transform_batch_csr(messages);
        let t1 = Instant::now();
        m.transform_us.record_duration_us(t1 - t0);
        m.rows.add(matrix.n_rows() as u64);
        m.nnz.add(matrix.nnz() as u64);
        m.matrix_bytes.add(matrix.heap_bytes() as u64);
        // Models without a meaningful margin (kNN) return `None` and
        // record nothing on the margin histogram.
        let (indices, margins) = self.model.predict_csr_scored(&matrix);
        m.predict_us.record_duration_us(t1.elapsed());
        for margin in margins.into_iter().flatten() {
            m.margin_milli.record((margin * 1000.0) as u64);
        }
        indices
            .into_iter()
            .map(|i| Prediction::bare(Category::from_index(i).unwrap_or(Category::Unimportant)))
            .collect()
    }
}

/// The Background §3 baseline: Levenshtein exemplar buckets with
/// hand-labeled categories.
///
/// Darwin's production configuration masked per-instance variables (node
/// ids, temperatures, addresses) *before* computing distances — that is
/// what makes a threshold as tight as 7 usable at all. `train` enables
/// masking; [`BucketBaseline::train_raw`] gives the unmasked variant for
/// the ablation.
pub struct BucketBaseline {
    store: BucketStore,
    /// Mask variables before distance computation (Darwin's setup).
    masked: bool,
    /// Category when no bucket matches (new-bucket messages go to a human
    /// queue in production; evaluation treats them as Unimportant).
    pub fallback: Category,
}

impl BucketBaseline {
    /// Build from a labeled corpus with variable masking (the production
    /// configuration): each message is bucketed and each bucket labeled by
    /// its exemplar's category (first-writer wins, mirroring how Darwin's
    /// buckets inherited their exemplar's label).
    pub fn train(threshold: usize, corpus: &[(String, Category)]) -> BucketBaseline {
        BucketBaseline::build(threshold, corpus, true)
    }

    /// Build without variable masking (raw Levenshtein on raw text) — the
    /// ablation arm showing why masking matters.
    pub fn train_raw(threshold: usize, corpus: &[(String, Category)]) -> BucketBaseline {
        BucketBaseline::build(threshold, corpus, false)
    }

    fn build(threshold: usize, corpus: &[(String, Category)], masked: bool) -> BucketBaseline {
        let mut baseline = BucketBaseline {
            store: BucketStore::new(BucketingConfig {
                threshold,
                ..BucketingConfig::default()
            }),
            masked,
            fallback: Category::Unimportant,
        };
        for (message, category) in corpus {
            baseline.absorb_impl(message, *category);
        }
        baseline
    }

    fn canonical(&self, message: &str) -> String {
        if self.masked {
            syslog_model::normalize_message(message)
        } else {
            message.to_string()
        }
    }

    fn absorb_impl(&mut self, message: &str, category: Category) {
        let canonical = self.canonical(message);
        let a = self.store.assign(&canonical);
        if a.is_new {
            self.store.label_bucket(a.bucket_id, category.label());
        }
    }

    /// Number of buckets formed — the human labeling burden (the paper
    /// needed 3 415 exemplars for 196 k messages).
    pub fn n_buckets(&self) -> usize {
        self.store.len()
    }

    /// Access the underlying store.
    pub fn store(&self) -> &BucketStore {
        &self.store
    }

    /// Find the bucket a message would join (applying the same masking as
    /// classification). `None` means the message would found a new bucket
    /// — i.e. it lands in the human labeling queue.
    pub fn find(&self, message: &str) -> Option<(u32, usize)> {
        self.store.find(&self.canonical(message))
    }

    /// Absorb one labeled message: it joins (or founds) a bucket, and a
    /// founded bucket inherits the label — the ongoing human-labeling loop
    /// the Darwin operators ran.
    pub fn absorb(&mut self, message: &str, category: Category) {
        self.absorb_impl(message, category);
    }
}

impl TextClassifier for BucketBaseline {
    fn name(&self) -> String {
        format!("Levenshtein buckets (t={})", self.store.config().threshold)
    }

    fn classify(&self, message: &str) -> Prediction {
        let canonical = self.canonical(message);
        match self.store.find(&canonical) {
            Some((id, distance)) => {
                let bucket = self.store.bucket(id).expect("bucket id from find");
                let category = bucket
                    .label
                    .as_deref()
                    .and_then(Category::parse_label)
                    .unwrap_or(self.fallback);
                Prediction {
                    category,
                    confidence: Some(
                        1.0 - distance as f64 / (self.store.config().threshold + 1) as f64,
                    ),
                    explanation: Some(Explanation::new(
                        Vec::new(),
                        format!(
                            "within distance {distance} of bucket {id} exemplar: \"{}\"",
                            bucket.exemplar
                        ),
                    )),
                }
            }
            None => Prediction {
                category: self.fallback,
                confidence: Some(0.0),
                explanation: Some(Explanation::new(
                    Vec::new(),
                    "no bucket within threshold; queued for human labeling".to_string(),
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsyslog_ml::{ComplementNaiveBayes, ComplementNbConfig};
    use textproc::TfidfConfig;

    fn tiny_corpus() -> Vec<(String, Category)> {
        let mut corpus = Vec::new();
        let thermal = [
            "cpu temperature above threshold clock throttled",
            "processor thermal sensor high temperature throttling",
            "cpu 2 temperature critical throttled",
            "thermal sensor cpu throttling engaged",
        ];
        let ssh = [
            "sshd connection closed by user port 22 preauth",
            "sshd accepted publickey connection from user",
            "connection closed preauth sshd port",
            "sshd session closed for user port 22",
        ];
        for m in thermal {
            corpus.push((m.to_string(), Category::ThermalIssue));
        }
        for m in ssh {
            corpus.push((m.to_string(), Category::SshConnection));
        }
        corpus
    }

    fn feature_cfg() -> FeatureConfig {
        FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        }
    }

    #[test]
    fn traditional_pipeline_end_to_end() {
        let corpus = tiny_corpus();
        let model = Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default()));
        let clf = TraditionalPipeline::train(feature_cfg(), model, &corpus);
        let p = clf.classify("cpu 7 temperature above threshold throttled");
        assert_eq!(p.category, Category::ThermalIssue);
        let e = p.explanation.unwrap();
        assert!(!e.top_tokens.is_empty());
        let p = clf.classify("sshd connection closed preauth");
        assert_eq!(p.category, Category::SshConnection);
    }

    #[test]
    fn batch_matches_single() {
        let corpus = tiny_corpus();
        let model = Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default()));
        let clf = TraditionalPipeline::train(feature_cfg(), model, &corpus);
        let msgs = ["cpu temperature throttled", "sshd connection closed"];
        let batch = clf.classify_batch(&msgs);
        for (m, b) in msgs.iter().zip(&batch) {
            assert_eq!(clf.classify(m).category, b.category);
        }
    }

    /// One body: a pipeline nobody wired to a registry still times its
    /// stages and records one margin per row, and a registry-bound one
    /// exports exactly that.
    #[test]
    fn classify_batch_always_records_margins_and_agrees_with_scalar() {
        let corpus = tiny_corpus();
        let msgs = ["cpu temperature throttled", "sshd connection closed"];
        let train = || {
            let model = Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default()));
            TraditionalPipeline::train(feature_cfg(), model, &corpus)
        };
        let default_built = train();
        let registry = obs::Registry::new();
        let bound = train().with_registry(&registry);
        for clf in [&default_built, &bound] {
            let batch = clf.classify_batch(&msgs);
            for (m, b) in msgs.iter().zip(&batch) {
                assert_eq!(clf.classify(m).category, b.category);
            }
            let metrics = &clf.stage_metrics;
            assert_eq!(metrics.margin_milli.count(), msgs.len() as u64);
            assert_eq!(metrics.rows.get(), msgs.len() as u64);
            assert_eq!(metrics.transform_us.count(), 1);
            assert_eq!(metrics.predict_us.count(), 1);
        }
        let series = registry.gather();
        let margins = series
            .iter()
            .find(|s| s.name == "hetsyslog_model_confidence_margin_milli")
            .expect("margin histogram registered");
        let hist = margins.histogram.as_ref().expect("histogram kind");
        assert_eq!(hist.count, msgs.len() as u64);
        assert!(margins
            .labels
            .iter()
            .any(|(k, v)| k == "model" && v.contains("Naive Bayes")));
    }

    #[test]
    fn unknown_vocabulary_falls_back() {
        let corpus = tiny_corpus();
        let model = Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default()));
        let clf = TraditionalPipeline::train(feature_cfg(), model, &corpus);
        let p = clf.classify("zzz qqq xxx");
        // Empty vector → some deterministic class; explanation flags it.
        assert!(p
            .explanation
            .unwrap()
            .rationale
            .contains("no known vocabulary"));
    }

    #[test]
    fn bucket_baseline_classifies_near_duplicates() {
        let corpus = tiny_corpus();
        let clf = BucketBaseline::train(7, &corpus);
        assert!(clf.n_buckets() >= 2);
        let p = clf.classify("cpu temperature above threshold clock throttled!");
        assert_eq!(p.category, Category::ThermalIssue);
        assert!(p.confidence.unwrap() > 0.0);
    }

    #[test]
    fn bucket_baseline_fallback_on_novel_message() {
        let corpus = tiny_corpus();
        let clf = BucketBaseline::train(7, &corpus);
        let p = clf.classify("a completely different vendor firmware message with new words");
        assert_eq!(p.category, Category::Unimportant);
        assert_eq!(p.confidence, Some(0.0));
        assert!(p.explanation.unwrap().rationale.contains("queued"));
    }

    #[test]
    fn names_are_descriptive() {
        let corpus = tiny_corpus();
        let clf = BucketBaseline::train(7, &corpus);
        assert!(clf.name().contains("t=7"));
        let model = Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default()));
        let tp = TraditionalPipeline::train(feature_cfg(), model, &corpus);
        assert!(tp.name().contains("TF-IDF"));
        assert!(tp.name().contains("Complement"));
    }
}
