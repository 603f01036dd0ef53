//! Multinomial logistic regression (softmax) with full-batch gradient
//! descent and L2 regularization.
//!
//! Plays the role of scikit-learn's `LogisticRegression(solver="lbfgs")` in
//! the paper's Figure 3: a well-converged but not cheap linear model —
//! slower to train than SGD, faster than Linear SVC.

use crate::batch::{
    argmax, argmax_scored, linear_predict_csr, linear_predict_csr_scored, BatchClassifier,
};
use crate::dataset::Dataset;
use crate::grad::accumulate_gradients;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};
use textproc::{CsrMatrix, SparseVec};

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegressionConfig {
    /// Full-batch epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Stop early when the mean absolute weight update falls below this.
    pub tolerance: f64,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        LogisticRegressionConfig {
            epochs: 400,
            learning_rate: 4.0,
            l2: 1e-6,
            tolerance: 5e-8,
        }
    }
}

/// Multinomial logistic regression model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    /// Per-class weight rows, each `n_features` long.
    weights: Vec<Vec<f64>>,
    bias: Vec<f64>,
}

impl LogisticRegression {
    /// Create an untrained model.
    pub fn new(config: LogisticRegressionConfig) -> LogisticRegression {
        LogisticRegression {
            config,
            weights: Vec::new(),
            bias: Vec::new(),
        }
    }
}

/// Numerically stable softmax.
pub(crate) fn softmax(scores: &[f64]) -> Vec<f64> {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

impl Classifier for LogisticRegression {
    fn name(&self) -> &'static str {
        "Logistic Regression"
    }

    fn fit(&mut self, data: &Dataset) {
        let n_classes = data.n_classes();
        let n_features = data.n_features();
        let n = data.len().max(1);
        self.weights = vec![vec![0.0; n_features]; n_classes];
        self.bias = vec![0.0; n_classes];

        for _ in 0..self.config.epochs {
            // Parallel gradient accumulation over fixed-size sample blocks
            // (see `grad.rs`): the summation order — and therefore every
            // bit of the trained weights — is independent of the worker
            // count.
            let (grad, bias_grad) =
                accumulate_gradients(data.len(), n_classes, n_features, |i, g, bg| {
                    let x = &data.features[i];
                    let label = data.labels[i];
                    let scores: Vec<f64> = self
                        .weights
                        .iter()
                        .zip(&self.bias)
                        .map(|(w, b)| x.dot_dense(w) + b)
                        .collect();
                    let probs = softmax(&scores);
                    for c in 0..n_classes {
                        let err = probs[c] - if c == label { 1.0 } else { 0.0 };
                        if err != 0.0 {
                            x.add_scaled_to_dense(&mut g[c], err);
                            bg[c] += err;
                        }
                    }
                });

            let lr = self.config.learning_rate / n as f64;
            let mut total_update = 0.0;
            for c in 0..n_classes {
                for (w, g) in self.weights[c].iter_mut().zip(&grad[c]) {
                    let update = lr * (g + self.config.l2 * *w * n as f64);
                    *w -= update;
                    total_update += update.abs();
                }
                self.bias[c] -= lr * bias_grad[c];
            }
            if total_update / ((n_classes * n_features.max(1)) as f64) < self.config.tolerance {
                break;
            }
        }
    }

    fn predict(&self, x: &SparseVec) -> usize {
        assert!(!self.weights.is_empty(), "predict before fit");
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (c, (w, b)) in self.weights.iter().zip(&self.bias).enumerate() {
            let score = x.dot_dense(w) + b;
            if score > best_score {
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

impl BatchClassifier for LogisticRegression {
    fn predict_csr(&self, m: &CsrMatrix) -> Vec<usize> {
        assert!(!self.weights.is_empty(), "predict before fit");
        linear_predict_csr(m, &self.weights, Some(&self.bias), argmax)
    }

    fn predict_csr_scored(&self, m: &CsrMatrix) -> (Vec<usize>, Option<Vec<f64>>) {
        assert!(!self.weights.is_empty(), "predict before fit");
        let (preds, margins) =
            linear_predict_csr_scored(m, &self.weights, Some(&self.bias), argmax_scored);
        (preds, Some(margins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{assert_learns_toy, predict_all, toy_dataset};

    #[test]
    fn learns_toy_problem() {
        let mut m = LogisticRegression::new(LogisticRegressionConfig::default());
        assert_learns_toy(&mut m);
    }

    #[test]
    fn softmax_stability_under_large_scores() {
        let p = softmax(&[1000.0, 1001.0, 999.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[1] > p[0] && p[0] > p[2]);
    }

    #[test]
    fn refit_replaces_state() {
        let data = toy_dataset();
        let mut m = LogisticRegression::new(LogisticRegressionConfig::default());
        m.fit(&data);
        let before = predict_all(&m, &data.features);
        m.fit(&data);
        let after = predict_all(&m, &data.features);
        assert_eq!(before, after, "fit must be deterministic and re-entrant");
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        LogisticRegression::new(LogisticRegressionConfig::default()).predict(&SparseVec::new());
    }

    #[test]
    fn unseen_features_ignored() {
        let data = toy_dataset();
        let mut m = LogisticRegression::new(LogisticRegressionConfig::default());
        m.fit(&data);
        // Feature index 9999 is outside the trained space.
        let x = SparseVec::from_pairs(vec![(0, 1.0), (1, 0.8), (9999, 5.0)]);
        assert_eq!(m.predict(&x), 0);
    }
}
