//! Model persistence — train once, deploy on the collection system.
//!
//! The paper's Future Work opens with "deploying our trained models on the
//! new data we stored in our collection system". That requires a trained
//! pipeline to survive a process boundary: [`SavedPipeline`] bundles the
//! fitted [`FeaturePipeline`] with any of the eight models (as a closed
//! enum, since trait objects cannot round-trip through serde) and
//! serializes to a single JSON document.
//!
//! What is derived from the saved fields is not saved: kNN rebuilds its
//! inverted index on the first batch prediction after a load. The
//! pipeline's raw-token → id table *is* saved (the raw tokens of the
//! training corpus cannot be recovered from the vocabulary). A document
//! written before that table existed still loads — [`FORMAT_VERSION`]
//! stays 1 — with an empty table, and classifies identically with every
//! token resolved the slow way; only a re-`fit` rebuilds the table.

use crate::classify::{Prediction, TextClassifier};
use crate::features::{FeatureConfig, FeaturePipeline};
use crate::taxonomy::Category;
use hetsyslog_ml::{
    BatchClassifier, Classifier, ComplementNaiveBayes, KNearestNeighbors, LinearSvc,
    LogisticRegression, NearestCentroid, RandomForest, RidgeClassifier, SgdClassifier,
};
use serde::{Deserialize, Serialize};

/// A serializable fitted model (closed enum over the paper's suite).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum SavedModel {
    /// Multinomial logistic regression.
    LogisticRegression(LogisticRegression),
    /// One-vs-rest ridge.
    Ridge(RidgeClassifier),
    /// k-nearest neighbours (stores its training set).
    Knn(KNearestNeighbors),
    /// Random forest.
    RandomForest(RandomForest),
    /// Linear SVC.
    LinearSvc(LinearSvc),
    /// Log-loss SGD.
    Sgd(SgdClassifier),
    /// Nearest centroid.
    NearestCentroid(NearestCentroid),
    /// Complement naive Bayes.
    ComplementNb(ComplementNaiveBayes),
}

impl SavedModel {
    /// Borrow as the common classifier interface.
    pub fn as_classifier(&self) -> &dyn Classifier {
        match self {
            SavedModel::LogisticRegression(m) => m,
            SavedModel::Ridge(m) => m,
            SavedModel::Knn(m) => m,
            SavedModel::RandomForest(m) => m,
            SavedModel::LinearSvc(m) => m,
            SavedModel::Sgd(m) => m,
            SavedModel::NearestCentroid(m) => m,
            SavedModel::ComplementNb(m) => m,
        }
    }

    /// Borrow as the batch-scoring interface (every suite member has a
    /// CSR kernel or the row-parallel fallback).
    pub fn as_batch_classifier(&self) -> &dyn BatchClassifier {
        match self {
            SavedModel::LogisticRegression(m) => m,
            SavedModel::Ridge(m) => m,
            SavedModel::Knn(m) => m,
            SavedModel::RandomForest(m) => m,
            SavedModel::LinearSvc(m) => m,
            SavedModel::Sgd(m) => m,
            SavedModel::NearestCentroid(m) => m,
            SavedModel::ComplementNb(m) => m,
        }
    }

    /// Mutable access (re-fitting a loaded model).
    pub fn as_classifier_mut(&mut self) -> &mut dyn Classifier {
        match self {
            SavedModel::LogisticRegression(m) => m,
            SavedModel::Ridge(m) => m,
            SavedModel::Knn(m) => m,
            SavedModel::RandomForest(m) => m,
            SavedModel::LinearSvc(m) => m,
            SavedModel::Sgd(m) => m,
            SavedModel::NearestCentroid(m) => m,
            SavedModel::ComplementNb(m) => m,
        }
    }

    /// Construct an *unfitted* model by its Figure 3 display name (used by
    /// the CLI's `--model` flag). Case-insensitive; accepts short aliases.
    pub fn by_name(name: &str) -> Option<SavedModel> {
        let norm: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "logisticregression" | "logreg" | "lr" => {
                SavedModel::LogisticRegression(LogisticRegression::new(Default::default()))
            }
            "ridgeclassifier" | "ridge" => {
                SavedModel::Ridge(RidgeClassifier::new(Default::default()))
            }
            "knn" | "knearestneighbors" => {
                SavedModel::Knn(KNearestNeighbors::new(Default::default()))
            }
            "randomforest" | "forest" | "rf" => {
                SavedModel::RandomForest(RandomForest::new(Default::default()))
            }
            "linearsvc" | "svc" | "svm" => {
                SavedModel::LinearSvc(LinearSvc::new(Default::default()))
            }
            "loglosssgd" | "sgd" => SavedModel::Sgd(SgdClassifier::new(Default::default())),
            "nearestcentroid" | "centroid" | "nc" => {
                SavedModel::NearestCentroid(NearestCentroid::new())
            }
            "complementnaivebayes" | "complementnb" | "cnb" | "nb" => {
                SavedModel::ComplementNb(ComplementNaiveBayes::new(Default::default()))
            }
            _ => return None,
        })
    }
}

/// A fully serializable trained classification pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedPipeline {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// The fitted preprocessing pipeline (vocabulary + idf weights).
    pub features: FeaturePipeline,
    /// The fitted model.
    pub model: SavedModel,
}

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

impl SavedPipeline {
    /// Train `model` on `corpus` with `feature_config`, producing a
    /// persistable pipeline.
    pub fn train(
        feature_config: FeatureConfig,
        mut model: SavedModel,
        corpus: &[(String, Category)],
    ) -> SavedPipeline {
        let mut features = FeaturePipeline::new(feature_config);
        let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
        let vectors = features.fit_transform(&messages);
        let labels: Vec<usize> = corpus.iter().map(|(_, c)| c.index()).collect();
        let data = hetsyslog_ml::Dataset::new(vectors, labels, Category::all_labels());
        model.as_classifier_mut().fit(&data);
        SavedPipeline {
            version: FORMAT_VERSION,
            features,
            model,
        }
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON, rejecting unknown format versions.
    pub fn from_json(json: &str) -> Result<SavedPipeline, String> {
        let p: SavedPipeline = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if p.version != FORMAT_VERSION {
            return Err(format!(
                "unsupported pipeline format version {} (expected {FORMAT_VERSION})",
                p.version
            ));
        }
        Ok(p)
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().map_err(std::io::Error::other)?)
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> Result<SavedPipeline, String> {
        let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        SavedPipeline::from_json(&json)
    }
}

impl TextClassifier for SavedPipeline {
    fn name(&self) -> String {
        format!("TF-IDF + {} (saved)", self.model.as_classifier().name())
    }

    fn classify(&self, message: &str) -> Prediction {
        let x = self.features.transform(message);
        let idx = self.model.as_classifier().predict(&x);
        Prediction::bare(Category::from_index(idx).unwrap_or(Category::Unimportant))
    }

    fn classify_batch(&self, messages: &[&str]) -> Vec<Prediction> {
        // Deployed models take the same matrix-at-a-time path as the live
        // TraditionalPipeline.
        let matrix = self.features.transform_batch_csr(messages);
        self.model
            .as_batch_classifier()
            .predict_csr(&matrix)
            .into_iter()
            .map(|i| Prediction::bare(Category::from_index(i).unwrap_or(Category::Unimportant)))
            .collect()
    }
}

/// Recursively sort every object's keys (stable, lexicographic). Canonical
/// form for every JSON artifact the experiments emit: two runs that compute
/// the same values serialize to byte-identical text, which is what the
/// conformance runner's golden diffs and the determinism tests compare.
pub fn canonicalize_json(value: &mut serde_json::Value) {
    use serde_json::Value;
    match value {
        Value::Object(entries) => {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            for (_, v) in entries.iter_mut() {
                canonicalize_json(v);
            }
        }
        Value::Array(items) => {
            for v in items.iter_mut() {
                canonicalize_json(v);
            }
        }
        _ => {}
    }
}

/// Serialize in canonical form: keys sorted at every depth, two-space
/// indentation, trailing newline. All committed `results/` goldens use
/// exactly this encoding.
pub fn to_canonical_json(value: &serde_json::Value) -> String {
    let mut v = value.clone();
    canonicalize_json(&mut v);
    let mut s = serde_json::to_string_pretty(&v).expect("canonical JSON serialization");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use textproc::TfidfConfig;

    fn corpus() -> Vec<(String, Category)> {
        let mut c = Vec::new();
        for i in 0..8 {
            c.push((
                format!("cpu {i} temperature above threshold clock throttled"),
                Category::ThermalIssue,
            ));
            c.push((
                format!("connection closed by port {i} preauth user"),
                Category::SshConnection,
            ));
        }
        c
    }

    fn cfg() -> FeatureConfig {
        FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        }
    }

    #[test]
    fn every_model_round_trips_with_identical_predictions() {
        let corpus = corpus();
        let names = ["lr", "ridge", "knn", "rf", "svc", "sgd", "nc", "cnb"];
        for name in names {
            let model = SavedModel::by_name(name).unwrap();
            let trained = SavedPipeline::train(cfg(), model, &corpus);
            let json = trained.to_json().unwrap();
            let loaded = SavedPipeline::from_json(&json).unwrap();
            for (m, want) in &corpus {
                assert_eq!(
                    loaded.classify(m).category,
                    trained.classify(m).category,
                    "{name}: prediction changed across serialization for {m:?}"
                );
                assert_eq!(trained.classify(m).category, *want, "{name} underfit");
            }
            // The batch path of a loaded model (kNN rebuilds its inverted
            // index here, on the first `predict_csr` after the load).
            let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
            let scalar: Vec<Prediction> = messages.iter().map(|m| trained.classify(m)).collect();
            assert_eq!(loaded.classify_batch(&messages), scalar, "{name}");
        }
    }

    #[test]
    fn by_name_aliases() {
        assert!(SavedModel::by_name("Random Forest").is_some());
        assert!(SavedModel::by_name("complement-nb").is_some());
        assert!(SavedModel::by_name("LINEAR SVC").is_some());
        assert!(SavedModel::by_name("made-up-model").is_none());
    }

    #[test]
    fn version_guard() {
        let corpus = corpus();
        let trained = SavedPipeline::train(cfg(), SavedModel::by_name("cnb").unwrap(), &corpus);
        let mut bad = trained.clone();
        bad.version = 99;
        let json = bad.to_json().unwrap();
        assert!(SavedPipeline::from_json(&json).is_err());
    }

    #[test]
    fn file_round_trip() {
        let corpus = corpus();
        let trained = SavedPipeline::train(cfg(), SavedModel::by_name("cnb").unwrap(), &corpus);
        let dir = std::env::temp_dir().join("hetsyslog_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        trained.save(&path).unwrap();
        let loaded = SavedPipeline::load(&path).unwrap();
        assert_eq!(
            loaded
                .classify("cpu 9 temperature above threshold")
                .category,
            Category::ThermalIssue
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    use crate::classify::TraditionalPipeline;

    #[test]
    fn matches_traditional_pipeline_predictions() {
        // SavedPipeline and TraditionalPipeline must agree given the same
        // model family and data.
        let corpus = corpus();
        let saved = SavedPipeline::train(cfg(), SavedModel::by_name("cnb").unwrap(), &corpus);
        let live = TraditionalPipeline::train(
            cfg(),
            Box::new(ComplementNaiveBayes::new(Default::default())),
            &corpus,
        );
        for (m, _) in &corpus {
            assert_eq!(saved.classify(m).category, live.classify(m).category);
        }
    }

    #[test]
    fn canonical_json_sorts_keys_at_every_depth() {
        let row_yx = serde_json::json!({"y": true, "x": false});
        let row_xy = serde_json::json!({"x": false, "y": true});
        let a = serde_json::json!({
            "zeta": {"b": 1, "a": 2},
            "alpha": [row_yx],
            "mid": 3.5,
        });
        let b = serde_json::json!({
            "mid": 3.5,
            "alpha": [row_xy],
            "zeta": {"a": 2, "b": 1},
        });
        assert_eq!(to_canonical_json(&a), to_canonical_json(&b));
        let text = to_canonical_json(&a);
        let alpha = text.find("\"alpha\"").unwrap();
        let mid = text.find("\"mid\"").unwrap();
        let zeta = text.find("\"zeta\"").unwrap();
        assert!(alpha < mid && mid < zeta, "top-level keys must be sorted");
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn canonical_json_round_trips() {
        let v = serde_json::json!({"n": 3, "f": 0.1, "s": "x", "arr": [1, 2]});
        let text = to_canonical_json(&v);
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(to_canonical_json(&back), text);
    }
}
