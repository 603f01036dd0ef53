//! Complement Naïve Bayes (Rennie et al., 2003) — the variant designed for
//! imbalanced text corpora, which is why it holds up on the paper's
//! Unimportant-dominated dataset while plain multinomial NB would not.
//!
//! For each class `c` the model estimates the feature distribution of the
//! *complement* of `c` (all other classes) and scores a document by how
//! poorly it fits each complement:
//!
//! ```text
//! w_ci = log( (alpha + N_~c,i) / (alpha * |V| + N_~c) )
//! w_ci normalized per class by the L1 norm (weight normalization)
//! predict(d) = argmin_c  Σ_i f_di * w_ci
//! ```

use crate::batch::{
    argmin, argmin_scored, linear_predict_csr, linear_predict_csr_scored, BatchClassifier,
};
use crate::dataset::Dataset;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};
use textproc::{CsrMatrix, SparseVec};

/// CNB hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComplementNbConfig {
    /// Additive (Lidstone) smoothing.
    pub alpha: f64,
    /// Normalize each class's weight vector by its L1 norm (the "WCNB"
    /// refinement in Rennie et al.).
    pub norm: bool,
}

impl Default for ComplementNbConfig {
    fn default() -> Self {
        ComplementNbConfig {
            alpha: 1.0,
            norm: true,
        }
    }
}

/// Complement Naïve Bayes model.
///
/// Keeps its sufficient statistics (per-class feature counts), so
/// [`ComplementNaiveBayes::partial_fit`] can fold in fresh labeled data
/// incrementally — NB's count-based nature makes it exactly online.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ComplementNaiveBayes {
    config: ComplementNbConfig,
    /// Per-class complement weights, dense over the vocabulary.
    weights: Vec<Vec<f64>>,
    /// Accumulated per-class feature counts (sufficient statistics).
    #[serde(default)]
    class_feature: Vec<Vec<f64>>,
    /// Accumulated per-class total counts.
    #[serde(default)]
    class_total: Vec<f64>,
}

impl ComplementNaiveBayes {
    /// Create an untrained model.
    pub fn new(config: ComplementNbConfig) -> ComplementNaiveBayes {
        ComplementNaiveBayes {
            config,
            weights: Vec::new(),
            class_feature: Vec::new(),
            class_total: Vec::new(),
        }
    }

    /// Accumulate counts from `data` into the sufficient statistics.
    fn accumulate(&mut self, data: &Dataset) {
        let n_classes = data.n_classes().max(self.class_feature.len());
        let n_features = data
            .n_features()
            .max(self.class_feature.first().map(Vec::len).unwrap_or(0));
        self.class_feature.resize_with(n_classes, Vec::new);
        self.class_total.resize(n_classes, 0.0);
        for cf in &mut self.class_feature {
            if cf.len() < n_features {
                cf.resize(n_features, 0.0);
            }
        }
        for (x, &l) in data.features.iter().zip(&data.labels) {
            x.add_scaled_to_dense(&mut self.class_feature[l], 1.0);
            self.class_total[l] += x.values().iter().sum::<f64>();
        }
    }

    /// Recompute the complement weights from the accumulated counts.
    fn recompute_weights(&mut self) {
        let n_classes = self.class_feature.len();
        let n_features = self.class_feature.first().map(Vec::len).unwrap_or(0);
        let all_total: f64 = self.class_total.iter().sum();
        let mut all_feature = vec![0.0f64; n_features];
        for cf in &self.class_feature {
            for (a, v) in all_feature.iter_mut().zip(cf) {
                *a += v;
            }
        }
        let alpha = self.config.alpha;
        self.weights = (0..n_classes)
            .map(|c| {
                let comp_total = all_total - self.class_total[c] + alpha * n_features as f64;
                let mut w: Vec<f64> = (0..n_features)
                    .map(|i| {
                        let comp_count = alpha + all_feature[i] - self.class_feature[c][i];
                        (comp_count / comp_total).ln()
                    })
                    .collect();
                if self.config.norm {
                    let l1: f64 = w.iter().map(|v| v.abs()).sum();
                    if l1 > 0.0 {
                        for v in &mut w {
                            *v /= l1;
                        }
                    }
                }
                w
            })
            .collect();
    }

    /// Incremental training: fold fresh labeled data into the counts and
    /// recompute weights, without discarding earlier knowledge.
    pub fn partial_fit(&mut self, data: &Dataset) {
        self.accumulate(data);
        self.recompute_weights();
    }
}

impl Classifier for ComplementNaiveBayes {
    fn name(&self) -> &'static str {
        "Complement Naive Bayes"
    }

    fn fit(&mut self, data: &Dataset) {
        self.class_feature.clear();
        self.class_total.clear();
        self.accumulate(data);
        self.recompute_weights();
    }

    fn predict(&self, x: &SparseVec) -> usize {
        assert!(!self.weights.is_empty(), "predict before fit");
        // Lowest complement score = poorest fit to "everything else".
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (c, w) in self.weights.iter().enumerate() {
            let score = x.dot_dense(w);
            if score < best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }

    fn n_classes(&self) -> usize {
        self.weights.len()
    }
}

impl BatchClassifier for ComplementNaiveBayes {
    fn predict_csr(&self, m: &CsrMatrix) -> Vec<usize> {
        assert!(!self.weights.is_empty(), "predict before fit");
        linear_predict_csr(m, &self.weights, None, argmin)
    }

    fn predict_csr_scored(&self, m: &CsrMatrix) -> (Vec<usize>, Option<Vec<f64>>) {
        assert!(!self.weights.is_empty(), "predict before fit");
        let (preds, margins) = linear_predict_csr_scored(m, &self.weights, None, argmin_scored);
        (preds, Some(margins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{assert_learns_toy, predict_all, toy_dataset};

    #[test]
    fn learns_toy_problem() {
        let mut m = ComplementNaiveBayes::new(ComplementNbConfig::default());
        assert_learns_toy(&mut m);
    }

    #[test]
    fn robust_to_heavy_imbalance() {
        // 20:2 imbalance; CNB must still find the minority class.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            features.push(SparseVec::from_pairs(vec![
                (0, 1.0),
                (1, 0.5 + (i % 3) as f64 * 0.1),
            ]));
            labels.push(0);
        }
        for _ in 0..2 {
            features.push(SparseVec::from_pairs(vec![(2, 1.0), (3, 1.0)]));
            labels.push(1);
        }
        let data = Dataset::new(features, labels, vec!["major".into(), "minor".into()]);
        let mut m = ComplementNaiveBayes::new(ComplementNbConfig::default());
        m.fit(&data);
        assert_eq!(
            m.predict(&SparseVec::from_pairs(vec![(2, 1.0), (3, 0.8)])),
            1
        );
        assert_eq!(m.predict(&SparseVec::from_pairs(vec![(0, 1.0)])), 0);
    }

    #[test]
    fn weight_normalization_changes_scale_not_order() {
        let data = toy_dataset();
        let mut normed = ComplementNaiveBayes::new(ComplementNbConfig {
            norm: true,
            alpha: 1.0,
        });
        let mut raw = ComplementNaiveBayes::new(ComplementNbConfig {
            norm: false,
            alpha: 1.0,
        });
        normed.fit(&data);
        raw.fit(&data);
        assert_eq!(
            predict_all(&normed, &data.features),
            predict_all(&raw, &data.features),
            "normalization should not flip the toy problem"
        );
    }

    #[test]
    fn partial_fit_equals_batch_fit() {
        // CNB is count-based: incremental accumulation over halves must
        // match one batch fit over the whole set exactly.
        let data = toy_dataset();
        let half = data.len() / 2;
        let first = data.subset(&(0..half).collect::<Vec<_>>());
        let second = data.subset(&(half..data.len()).collect::<Vec<_>>());

        let mut batch = ComplementNaiveBayes::new(ComplementNbConfig::default());
        batch.fit(&data);
        let mut online = ComplementNaiveBayes::new(ComplementNbConfig::default());
        online.partial_fit(&first);
        online.partial_fit(&second);
        assert_eq!(
            predict_all(&batch, &data.features),
            predict_all(&online, &data.features)
        );
    }

    #[test]
    fn partial_fit_learns_new_phrasing() {
        let data = toy_dataset();
        let mut m = ComplementNaiveBayes::new(ComplementNbConfig::default());
        m.fit(&data);
        // Fresh labeled data: class 1 gains a new feature signature.
        let fresh = Dataset::new(
            vec![SparseVec::from_pairs(vec![(12, 1.0), (13, 1.0)]); 5],
            vec![1; 5],
            data.class_names.clone(),
        );
        m.partial_fit(&fresh);
        assert_eq!(
            m.predict(&SparseVec::from_pairs(vec![(12, 1.0), (13, 0.9)])),
            1
        );
        // Old signatures still classified correctly.
        assert_eq!(m.predict(&data.features[0]), data.labels[0]);
    }

    #[test]
    fn smoothing_handles_unseen_features() {
        let data = toy_dataset();
        let mut m = ComplementNaiveBayes::new(ComplementNbConfig::default());
        m.fit(&data);
        let x = SparseVec::from_pairs(vec![(0, 1.0), (7, 1.0)]); // 7 unseen in class 0 block
        let p = m.predict(&x);
        assert!(p < 3);
    }
}
