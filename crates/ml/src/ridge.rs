//! Ridge classifier: one-vs-rest least squares with L2 regularization,
//! trained by full-batch gradient descent on ±1 targets — the standard
//! `RidgeClassifier` formulation.

use crate::batch::{
    argmax, argmax_scored, linear_predict_csr, linear_predict_csr_scored, BatchClassifier,
};
use crate::dataset::Dataset;
use crate::grad::accumulate_gradients;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};
use textproc::{CsrMatrix, SparseVec};

/// Ridge hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RidgeConfig {
    /// L2 regularization strength (sklearn's `alpha`).
    pub alpha: f64,
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
}

impl Default for RidgeConfig {
    fn default() -> Self {
        RidgeConfig {
            alpha: 1e-5,
            epochs: 250,
            learning_rate: 1.2,
        }
    }
}

/// One-vs-rest ridge regression classifier.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RidgeClassifier {
    config: RidgeConfig,
    weights: Vec<Vec<f64>>,
    bias: Vec<f64>,
}

impl RidgeClassifier {
    /// Create an untrained model.
    pub fn new(config: RidgeConfig) -> RidgeClassifier {
        RidgeClassifier {
            config,
            weights: Vec::new(),
            bias: Vec::new(),
        }
    }
}

impl Classifier for RidgeClassifier {
    fn name(&self) -> &'static str {
        "Ridge Classifier"
    }

    fn fit(&mut self, data: &Dataset) {
        let n_classes = data.n_classes();
        let n_features = data.n_features();
        let n = data.len().max(1) as f64;
        self.weights = vec![vec![0.0; n_features]; n_classes];
        self.bias = vec![0.0; n_classes];

        for _ in 0..self.config.epochs {
            // Fixed-block parallel accumulation (see `grad.rs`): summation
            // order, and so the trained weights, are thread-count invariant.
            let (grad, bias_grad) =
                accumulate_gradients(data.len(), n_classes, n_features, |i, g, bg| {
                    let x = &data.features[i];
                    let label = data.labels[i];
                    for c in 0..n_classes {
                        let y = if c == label { 1.0 } else { -1.0 };
                        let pred = x.dot_dense(&self.weights[c]) + self.bias[c];
                        let err = pred - y;
                        x.add_scaled_to_dense(&mut g[c], err);
                        bg[c] += err;
                    }
                });
            let lr = self.config.learning_rate / n;
            for c in 0..n_classes {
                for (w, g) in self.weights[c].iter_mut().zip(&grad[c]) {
                    *w -= lr * (g + self.config.alpha * *w * n);
                }
                self.bias[c] -= lr * bias_grad[c];
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

impl BatchClassifier for RidgeClassifier {
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
        let mut m = RidgeClassifier::new(RidgeConfig::default());
        assert_learns_toy(&mut m);
    }

    #[test]
    fn heavier_regularization_shrinks_weights() {
        let data = toy_dataset();
        let mut light = RidgeClassifier::new(RidgeConfig {
            alpha: 1e-6,
            ..RidgeConfig::default()
        });
        let mut heavy = RidgeClassifier::new(RidgeConfig {
            alpha: 1e-2,
            ..RidgeConfig::default()
        });
        light.fit(&data);
        heavy.fit(&data);
        let norm = |m: &RidgeClassifier| -> f64 {
            m.weights
                .iter()
                .flatten()
                .map(|w| w * w)
                .sum::<f64>()
                .sqrt()
        };
        assert!(norm(&heavy) < norm(&light));
    }

    #[test]
    fn deterministic() {
        let data = toy_dataset();
        let mut a = RidgeClassifier::new(RidgeConfig::default());
        let mut b = RidgeClassifier::new(RidgeConfig::default());
        a.fit(&data);
        b.fit(&data);
        assert_eq!(
            predict_all(&a, &data.features),
            predict_all(&b, &data.features)
        );
    }
}
