//! Brute-force k-nearest-neighbours with cosine similarity.
//!
//! Training just stores the data, prediction pays the full scan — the
//! exact cost profile the paper measures (fastest training at 0.011 s,
//! slowest testing at 4.9 s). Scalar queries scan every training vector
//! with a sparse-sparse dot product. Batch prediction scores through an
//! inverted index over the training columns, built once per fitted model
//! on the first `predict_csr` (so `fit` stays as cheap as the paper's) and
//! parallelizes over queries with rayon.

use crate::batch::{map_row_chunks_with, BatchClassifier, InvertedIndex};
use crate::dataset::Dataset;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
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
    /// Inverted index over `train`, built by the first `predict_csr` after
    /// a `fit` or a load. Derived from `train` alone, so it is not saved.
    #[serde(skip)]
    index: OnceLock<InvertedIndex>,
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
        self.index = OnceLock::new();
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
    /// accumulate each query's dot products through the model's inverted
    /// index, only against training rows that share a feature with it.
    /// Accumulation order per training row equals the merge
    /// order of [`SparseVec::dot`], and the vote is the shared
    /// `KNearestNeighbors::vote`, so predictions match the scalar path
    /// exactly.
    fn predict_csr(&self, m: &CsrMatrix) -> Vec<usize> {
        assert!(!self.train.is_empty(), "predict before fit");
        let index = self.index.get_or_init(|| InvertedIndex::build(&self.train));
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

    /// Every training row as one CSR batch, and its scalar predictions.
    fn batch_and_oracle(m: &KNearestNeighbors, data: &Dataset) -> (CsrMatrix, Vec<usize>) {
        let oracle = data.features.iter().map(|x| m.predict(x)).collect();
        (CsrMatrix::from_rows(&data.features, 0), oracle)
    }

    #[test]
    fn index_is_built_by_the_first_predict_csr_not_by_fit_or_load() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig { k: 3 });
        m.fit(&data);
        assert!(m.index.get().is_none(), "fit only stores the data");
        let (batch, oracle) = batch_and_oracle(&m, &data);
        assert_eq!(m.predict_csr(&batch), oracle);
        assert!(m.index.get().is_some());

        let json = serde_json::to_string(&m).unwrap();
        assert!(!json.contains("postings"), "the index is not saved");
        let loaded: KNearestNeighbors = serde_json::from_str(&json).unwrap();
        assert!(loaded.index.get().is_none());
        assert_eq!(loaded.predict_csr(&batch), oracle);
        assert!(loaded.index.get().is_some());
    }

    #[test]
    fn refit_drops_the_index_of_the_previous_training_set() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig { k: 1 });
        m.fit(&data);
        let (batch, oracle) = batch_and_oracle(&m, &data);
        assert_eq!(m.predict_csr(&batch), oracle);
        // Same labels, feature blocks rotated by one class: an index kept
        // from the first fit would score every query against the old rows.
        let rotated = Dataset::new(
            data.features
                .iter()
                .cycle()
                .skip(1)
                .take(data.len())
                .cloned()
                .collect(),
            data.labels.clone(),
            data.class_names.clone(),
        );
        m.fit(&rotated);
        let (_, oracle_after) = batch_and_oracle(&m, &data);
        assert_ne!(oracle_after, oracle, "the refit must change the answers");
        assert_eq!(m.predict_csr(&batch), oracle_after);
    }

    #[test]
    fn threads_racing_the_first_predict_csr_agree_with_scalar_predict() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig { k: 3 });
        m.fit(&data);
        let (batch, oracle) = batch_and_oracle(&m, &data);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        m.predict_csr(&batch)
                    })
                })
                .collect();
            for racer in racers {
                assert_eq!(racer.join().expect("racer panicked"), oracle);
            }
        });
    }
}
