//! One-vs-rest logistic regression trained by stochastic gradient descent —
//! the paper's "Log-loss SGD" row: a couple of fast passes over the data,
//! trading a little F1 (0.9878 in the paper, the lowest of the linear
//! models) for near-instant training.

use crate::batch::{
    argmax, argmax_scored, linear_predict_csr, linear_predict_csr_scored, BatchClassifier,
};
use crate::dataset::Dataset;
use crate::traits::Classifier;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use textproc::{CsrMatrix, SparseVec};

/// SGD hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Passes over the shuffled data.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            epochs: 5,
            learning_rate: 0.5,
            l2: 1e-6,
            seed: 0,
        }
    }
}

/// One-vs-rest log-loss SGD classifier.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SgdClassifier {
    config: SgdConfig,
    weights: Vec<Vec<f64>>,
    bias: Vec<f64>,
}

impl SgdClassifier {
    /// Create an untrained model.
    pub fn new(config: SgdConfig) -> SgdClassifier {
        SgdClassifier {
            config,
            weights: Vec::new(),
            bias: Vec::new(),
        }
    }

    fn sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }

    /// Incremental training: one pass over `data` *without* resetting the
    /// weights — the online-adaptation mode that lets a deployed model
    /// absorb firmware drift from a trickle of fresh labels instead of
    /// being retrained from scratch (the LogAn pain point).
    pub fn partial_fit(&mut self, data: &Dataset) {
        let n_classes = data.n_classes().max(self.weights.len());
        let n_features = data.n_features();
        // Grow (never shrink) to accommodate new classes/features.
        self.weights.resize_with(n_classes, Vec::new);
        self.bias.resize(n_classes, 0.0);
        for w in &mut self.weights {
            if w.len() < n_features {
                w.resize(n_features, 0.0);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x0a11_1abe);
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(&mut rng);
        // A gentler fixed rate: the base model is already near a minimum.
        let lr = self.config.learning_rate * 0.1;
        for &i in &order {
            let x = &data.features[i];
            let label = data.labels[i];
            for c in 0..n_classes {
                let y = if c == label { 1.0 } else { 0.0 };
                let z = x.dot_dense(&self.weights[c]) + self.bias[c];
                let err = Self::sigmoid(z) - y;
                if err != 0.0 {
                    x.add_scaled_to_dense(&mut self.weights[c], -lr * err);
                    self.bias[c] -= lr * err;
                }
            }
        }
    }
}

impl Classifier for SgdClassifier {
    fn name(&self) -> &'static str {
        "Log-loss SGD"
    }

    fn fit(&mut self, data: &Dataset) {
        let n_classes = data.n_classes();
        let n_features = data.n_features();
        self.weights = vec![vec![0.0; n_features]; n_classes];
        self.bias = vec![0.0; n_classes];
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut t = 0usize;
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                // Inverse-scaling learning rate, as sklearn's "optimal"-ish
                // schedule.
                let lr = self.config.learning_rate / (1.0 + 1e-3 * t as f64);
                let x = &data.features[i];
                let label = data.labels[i];
                for c in 0..n_classes {
                    let y = if c == label { 1.0 } else { 0.0 };
                    let z = x.dot_dense(&self.weights[c]) + self.bias[c];
                    let err = Self::sigmoid(z) - y;
                    if self.config.l2 > 0.0 {
                        // Lazy-ish decay: shrink only active coordinates;
                        // cheap and adequate at this regularization scale.
                        for &fi in x.indices() {
                            if let Some(w) = self.weights[c].get_mut(fi as usize) {
                                *w *= 1.0 - lr * self.config.l2;
                            }
                        }
                    }
                    if err != 0.0 {
                        x.add_scaled_to_dense(&mut self.weights[c], -lr * err);
                        self.bias[c] -= lr * err;
                    }
                }
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

impl BatchClassifier for SgdClassifier {
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
        let mut m = SgdClassifier::new(SgdConfig::default());
        assert_learns_toy(&mut m);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = toy_dataset();
        let mut a = SgdClassifier::new(SgdConfig {
            seed: 9,
            ..SgdConfig::default()
        });
        let mut b = SgdClassifier::new(SgdConfig {
            seed: 9,
            ..SgdConfig::default()
        });
        a.fit(&data);
        b.fit(&data);
        assert_eq!(
            predict_all(&a, &data.features),
            predict_all(&b, &data.features)
        );
    }

    #[test]
    fn sigmoid_is_stable() {
        assert!(SgdClassifier::sigmoid(1000.0) <= 1.0);
        assert!(SgdClassifier::sigmoid(-1000.0) >= 0.0);
        assert!((SgdClassifier::sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_fit_adapts_without_forgetting() {
        let data = toy_dataset();
        let mut m = SgdClassifier::new(SgdConfig::default());
        m.fit(&data);
        let before = predict_all(&m, &data.features);
        // A new phrasing of class 2: feature 11 replaces feature 6.
        let fresh = Dataset::new(
            vec![SparseVec::from_pairs(vec![(11, 1.0), (7, 0.8)]); 6],
            vec![2; 6],
            data.class_names.clone(),
        );
        for _ in 0..10 {
            m.partial_fit(&fresh);
        }
        // New phrasing learned…
        assert_eq!(
            m.predict(&SparseVec::from_pairs(vec![(11, 1.0), (7, 0.8)])),
            2
        );
        // …old knowledge retained.
        let after = predict_all(&m, &data.features);
        let kept = before.iter().zip(&after).filter(|(a, b)| a == b).count();
        assert!(
            kept >= data.len() - 2,
            "catastrophic forgetting: {kept}/{}",
            data.len()
        );
    }

    #[test]
    fn partial_fit_from_scratch_initializes() {
        let data = toy_dataset();
        let mut m = SgdClassifier::new(SgdConfig::default());
        for _ in 0..30 {
            m.partial_fit(&data);
        }
        let preds = predict_all(&m, &data.features);
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        assert!(correct >= data.len() - 2);
    }

    #[test]
    fn single_class_dataset() {
        let data = Dataset::new(
            vec![SparseVec::from_pairs(vec![(0, 1.0)]); 4],
            vec![0; 4],
            vec!["only".into()],
        );
        let mut m = SgdClassifier::new(SgdConfig::default());
        m.fit(&data);
        assert_eq!(m.predict(&data.features[0]), 0);
    }
}
