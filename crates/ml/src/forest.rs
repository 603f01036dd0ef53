//! Random forest: bagged CART trees with per-node feature subsampling,
//! trained in parallel with rayon — the paper's best pre-ablation model
//! (weighted F1 0.9995).

use crate::batch::BatchClassifier;
use crate::dataset::Dataset;
use crate::traits::Classifier;
use crate::tree::{DecisionTree, DecisionTreeConfig};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use textproc::SparseVec;

/// Forest hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree config template (its `seed`/`feature_subsample` are
    /// overridden per tree).
    pub tree: DecisionTreeConfig,
    /// Features sampled per node; `None` = √(n_features).
    pub mtry: Option<usize>,
    /// Bootstrap-sample size as a fraction of the training set.
    pub bootstrap_ratio: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 40,
            tree: DecisionTreeConfig {
                max_depth: 32,
                min_samples_split: 2,
                ..DecisionTreeConfig::default()
            },
            mtry: None,
            bootstrap_ratio: 1.0,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RandomForest {
    config: RandomForestConfig,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Create an untrained forest.
    pub fn new(config: RandomForestConfig) -> RandomForest {
        RandomForest {
            config,
            trees: Vec::new(),
            n_classes: 0,
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "Random Forest"
    }

    fn fit(&mut self, data: &Dataset) {
        self.n_classes = data.n_classes();
        let n = data.len();
        let mtry = self
            .config
            .mtry
            .unwrap_or_else(|| (data.n_features() as f64).sqrt().ceil() as usize);
        let sample_size = ((n as f64) * self.config.bootstrap_ratio).round().max(1.0) as usize;
        let seed = self.config.seed;
        let tree_template = self.config.tree.clone();
        self.trees = (0..self.config.n_trees)
            .into_par_iter()
            .map(|t| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9E37_79B9));
                let indices: Vec<usize> = (0..sample_size).map(|_| rng.gen_range(0..n)).collect();
                let mut tree = DecisionTree::new(DecisionTreeConfig {
                    feature_subsample: Some(mtry.max(1)),
                    seed: seed.wrapping_add(0xABCD).wrapping_add(t as u64),
                    ..tree_template.clone()
                });
                tree.fit_indices(data, &indices);
                tree
            })
            .collect();
    }

    fn predict(&self, x: &SparseVec) -> usize {
        assert!(!self.trees.is_empty(), "predict before fit");
        let mut votes = vec![0usize; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(x)] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Trees branch on one feature at a time, so there is no matrix kernel to
/// exploit; the default row-parallel fallback is already the right shape.
impl BatchClassifier for RandomForest {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{assert_learns_toy, predict_all, toy_dataset};

    #[test]
    fn learns_toy_problem() {
        let mut m = RandomForest::new(RandomForestConfig {
            n_trees: 15,
            ..RandomForestConfig::default()
        });
        assert_learns_toy(&mut m);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = toy_dataset();
        let cfg = RandomForestConfig {
            n_trees: 8,
            seed: 11,
            ..RandomForestConfig::default()
        };
        let mut a = RandomForest::new(cfg.clone());
        let mut b = RandomForest::new(cfg);
        a.fit(&data);
        b.fit(&data);
        assert_eq!(
            predict_all(&a, &data.features),
            predict_all(&b, &data.features)
        );
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let data = toy_dataset();
        let mut a = RandomForest::new(RandomForestConfig {
            n_trees: 3,
            seed: 1,
            ..RandomForestConfig::default()
        });
        let mut b = RandomForest::new(RandomForestConfig {
            n_trees: 3,
            seed: 2,
            ..RandomForestConfig::default()
        });
        a.fit(&data);
        b.fit(&data);
        // Not a hard guarantee, but with different bootstraps the internal
        // trees should differ; both must still fit the toy data.
        assert_eq!(a.n_trees(), 3);
        assert_eq!(b.n_trees(), 3);
    }

    #[test]
    fn forest_size_respected() {
        let data = toy_dataset();
        let mut m = RandomForest::new(RandomForestConfig {
            n_trees: 5,
            ..RandomForestConfig::default()
        });
        m.fit(&data);
        assert_eq!(m.n_trees(), 5);
    }
}
