//! Brute-force k-nearest-neighbours with cosine similarity.
//!
//! Training just indexes the data, prediction pays the full scan — the
//! exact cost profile the paper measures (fastest training at 0.011 s,
//! slowest testing at 4.9 s). Queries scan every training vector with a
//! sparse-sparse dot product; batch prediction parallelizes over queries
//! with rayon.

use crate::batch::{map_row_chunks_with, BatchClassifier, InvertedIndex};
use crate::dataset::Dataset;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};
use textproc::{CsrMatrix, SparseVec};

/// kNN hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnConfig {
    /// Number of neighbours to vote.
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig { k: 5 }
    }
}

/// k-nearest-neighbours classifier (cosine similarity).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KNearestNeighbors {
    config: KnnConfig,
    train: Vec<SparseVec>,
    norms: Vec<f64>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl KNearestNeighbors {
    /// Create an untrained model.
    pub fn new(config: KnnConfig) -> KNearestNeighbors {
        KNearestNeighbors {
            config,
            ..KNearestNeighbors::default()
        }
    }

    /// Pick the winning class from per-training-row cosine scores: top-k by
    /// partial selection, then majority vote with ties broken by summed
    /// similarity then class index. Shared verbatim between the scalar and
    /// CSR paths so both decide identically from identical scores.
    fn vote(&self, scores: &[f64]) -> usize {
        let k = self.config.k.min(self.train.len()).max(1);
        let mut idx: Vec<usize> = (0..self.train.len()).collect();
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let top = &idx[..k];
        let mut votes = vec![0usize; self.n_classes];
        let mut sims = vec![0.0f64; self.n_classes];
        for &i in top {
            votes[self.labels[i]] += 1;
            sims[self.labels[i]] += scores[i];
        }
        (0..self.n_classes)
            .max_by(|&a, &b| {
                votes[a]
                    .cmp(&votes[b])
                    .then(
                        sims[a]
                            .partial_cmp(&sims[b])
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(b.cmp(&a))
            })
            .unwrap_or(0)
    }
}

impl Classifier for KNearestNeighbors {
    fn name(&self) -> &'static str {
        "kNN"
    }

    fn fit(&mut self, data: &Dataset) {
        // Deliberately minimal: clone the data, cache norms. All real work
        // happens at query time (matching the paper's timing shape).
        self.train = data.features.clone();
        self.norms = data.features.iter().map(SparseVec::norm).collect();
        self.labels = data.labels.clone();
        self.n_classes = data.n_classes();
    }

    fn predict(&self, x: &SparseVec) -> usize {
        assert!(!self.train.is_empty(), "predict before fit");
        let x_norm = x.norm();
        let scores: Vec<f64> = self
            .train
            .iter()
            .zip(&self.norms)
            .map(|(t, &n)| {
                if n == 0.0 || x_norm == 0.0 {
                    0.0
                } else {
                    x.dot(t) / (n * x_norm)
                }
            })
            .collect();
        self.vote(&scores)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

impl BatchClassifier for KNearestNeighbors {
    /// Pruned batch scoring: instead of a full sparse-sparse scan per query,
    /// build an inverted index over the training columns once per batch and
    /// accumulate each query's dot products only against training rows that
    /// share a feature. Accumulation order per training row equals the merge
    /// order of [`SparseVec::dot`], and the vote is the shared
    /// `KNearestNeighbors::vote`, so predictions match the scalar path
    /// exactly.
    fn predict_csr(&self, m: &CsrMatrix) -> Vec<usize> {
        assert!(!self.train.is_empty(), "predict before fit");
        let index = InvertedIndex::build(&self.train);
        map_row_chunks_with(
            m.n_rows(),
            || {
                (
                    vec![0.0f64; self.train.len()],
                    vec![0.0f64; self.train.len()],
                )
            },
            |r, (acc, scores)| {
                let (qi, qv) = m.row(r);
                acc.iter_mut().for_each(|a| *a = 0.0);
                index.accumulate_dots(qi, qv, acc);
                let x_norm = qv.iter().map(|v| v * v).sum::<f64>().sqrt();
                for ((s, &dot), &n) in scores.iter_mut().zip(acc.iter()).zip(&self.norms) {
                    *s = if n == 0.0 || x_norm == 0.0 {
                        0.0
                    } else {
                        dot / (n * x_norm)
                    };
                }
                self.vote(scores)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{assert_learns_toy, toy_dataset};

    #[test]
    fn learns_toy_problem() {
        let mut m = KNearestNeighbors::new(KnnConfig::default());
        assert_learns_toy(&mut m);
    }

    #[test]
    fn exact_duplicate_wins_with_k1() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig { k: 1 });
        m.fit(&data);
        for (x, &l) in data.features.iter().zip(&data.labels) {
            assert_eq!(m.predict(x), l);
        }
    }

    #[test]
    fn zero_query_vector_is_handled() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig::default());
        m.fit(&data);
        // No features → all scores zero → deterministic fallback.
        let p = m.predict(&SparseVec::new());
        assert!(p < 3);
    }

    #[test]
    fn k_larger_than_train_set() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig { k: 500 });
        m.fit(&data);
        let p = m.predict(&data.features[0]);
        assert!(p < 3);
    }

    #[test]
    fn unseen_feature_indices_ignored() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig::default());
        m.fit(&data);
        let x = SparseVec::from_pairs(vec![(0, 1.0), (10_000, 9.0)]);
        assert_eq!(m.predict(&x), 0);
    }

    #[test]
    fn zero_train_vectors_never_dominate() {
        let data = Dataset::new(
            vec![SparseVec::new(), SparseVec::from_pairs(vec![(0, 1.0)])],
            vec![0, 1],
            vec!["zero".into(), "real".into()],
        );
        let mut m = KNearestNeighbors::new(KnnConfig { k: 1 });
        m.fit(&data);
        assert_eq!(m.predict(&SparseVec::from_pairs(vec![(0, 2.0)])), 1);
    }
}
