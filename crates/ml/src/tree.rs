//! CART decision tree (gini impurity) on sparse features — the base
//! learner for [`crate::forest::RandomForest`] and a classifier in its own
//! right.
//!
//! Split search samples a configurable number of candidate features per
//! node (all features when `feature_subsample` is `None`) and evaluates
//! quantile thresholds over the observed values, which keeps node cost low
//! on high-dimensional TF-IDF data where most values are zero.

use crate::batch::BatchClassifier;
use crate::dataset::Dataset;
use crate::traits::Classifier;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use textproc::SparseVec;

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Candidate features per node (`None` = all).
    pub feature_subsample: Option<usize>,
    /// Maximum candidate thresholds per feature.
    pub max_thresholds: usize,
    /// RNG seed for feature sampling.
    pub seed: u64,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 24,
            min_samples_split: 2,
            feature_subsample: None,
            max_thresholds: 8,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: u32,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART decision tree.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DecisionTree {
    config: DecisionTreeConfig,
    nodes: Vec<Node>,
    n_classes: usize,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

impl DecisionTree {
    /// Create an untrained tree.
    pub fn new(config: DecisionTreeConfig) -> DecisionTree {
        DecisionTree {
            config,
            nodes: Vec::new(),
            n_classes: 0,
        }
    }

    /// Fit on a subset of `data` given by `indices` (used by the forest for
    /// bootstrap samples); `fit` passes all indices.
    pub fn fit_indices(&mut self, data: &Dataset, indices: &[usize]) {
        self.n_classes = data.n_classes();
        self.nodes.clear();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut indices = indices.to_vec();
        self.build(data, &mut indices, 0, &mut rng);
    }

    /// Recursively build; returns the node index.
    fn build(
        &mut self,
        data: &Dataset,
        indices: &mut [usize],
        depth: usize,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        let mut counts = vec![0usize; self.n_classes];
        for &i in indices.iter() {
            counts[data.labels[i]] += 1;
        }
        let majority = argmax(&counts);
        let node_gini = gini(&counts, indices.len());
        if depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || node_gini == 0.0
        {
            return self.push(Node::Leaf { class: majority });
        }
        let Some((feature, threshold)) = self.best_split(data, indices, &counts, node_gini, rng)
        else {
            return self.push(Node::Leaf { class: majority });
        };
        // Partition in place: left = value <= threshold.
        let mut mid = 0usize;
        for i in 0..indices.len() {
            if data.features[indices[i]].get(feature) <= threshold {
                indices.swap(i, mid);
                mid += 1;
            }
        }
        if mid == 0 || mid == indices.len() {
            return self.push(Node::Leaf { class: majority });
        }
        // Reserve this node's slot before recursing so children line up.
        let me = self.push(Node::Leaf { class: majority });
        let (left_slice, right_slice) = indices.split_at_mut(mid);
        let left = self.build(data, left_slice, depth + 1, rng);
        let right = self.build(data, right_slice, depth + 1, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Pick the (feature, threshold) with the best gini decrease, or `None`
    /// when nothing splits.
    fn best_split(
        &self,
        data: &Dataset,
        indices: &[usize],
        counts: &[usize],
        node_gini: f64,
        rng: &mut ChaCha8Rng,
    ) -> Option<(u32, f64)> {
        // Candidate features: those actually present in this node's data.
        let mut present: Vec<u32> = {
            let mut set: Vec<u32> = indices
                .iter()
                .flat_map(|&i| data.features[i].indices().iter().copied())
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        if let Some(m) = self.config.feature_subsample {
            if present.len() > m {
                present.shuffle(rng);
                present.truncate(m);
                present.sort_unstable();
            }
        }

        let n = indices.len();
        let mut best: Option<(u32, f64, f64)> = None; // (feature, threshold, score)
        let mut values: Vec<f64> = Vec::with_capacity(n);
        for &feature in &present {
            values.clear();
            values.extend(indices.iter().map(|&i| data.features[i].get(feature)));
            // Candidate thresholds: quantile midpoints over sorted values.
            let mut sorted = values.clone();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            sorted.dedup();
            if sorted.len() < 2 {
                continue;
            }
            let step = ((sorted.len() - 1) as f64 / self.config.max_thresholds as f64).max(1.0);
            let mut t_idx = 0.0;
            while (t_idx as usize) < sorted.len() - 1 {
                let lo = sorted[t_idx as usize];
                let hi = sorted[t_idx as usize + 1];
                let threshold = (lo + hi) / 2.0;
                let mut left_counts = vec![0usize; self.n_classes];
                let mut n_left = 0usize;
                for (&i, &v) in indices.iter().zip(&values) {
                    if v <= threshold {
                        left_counts[data.labels[i]] += 1;
                        n_left += 1;
                    }
                }
                if n_left > 0 && n_left < n {
                    let right_counts: Vec<usize> = counts
                        .iter()
                        .zip(&left_counts)
                        .map(|(&c, &l)| c - l)
                        .collect();
                    let n_right = n - n_left;
                    let weighted = (n_left as f64 * gini(&left_counts, n_left)
                        + n_right as f64 * gini(&right_counts, n_right))
                        / n as f64;
                    let decrease = node_gini - weighted;
                    if decrease > 1e-12 && best.map(|(_, _, s)| decrease > s).unwrap_or(true) {
                        best = Some((feature, threshold, decrease));
                    }
                }
                t_idx += step;
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

fn argmax(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl Classifier for DecisionTree {
    fn name(&self) -> &'static str {
        "Decision Tree"
    }

    fn fit(&mut self, data: &Dataset) {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_indices(data, &indices);
    }

    fn predict(&self, x: &SparseVec) -> usize {
        assert!(!self.nodes.is_empty(), "predict before fit");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x.get(*feature) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

impl BatchClassifier for DecisionTree {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::testutil::{assert_learns_toy, predict_all, toy_dataset};

    #[test]
    fn learns_toy_problem() {
        let mut m = DecisionTree::new(DecisionTreeConfig::default());
        assert_learns_toy(&mut m);
    }

    #[test]
    fn depth_zero_is_majority_class() {
        let data = toy_dataset();
        let mut m = DecisionTree::new(DecisionTreeConfig {
            max_depth: 0,
            ..DecisionTreeConfig::default()
        });
        m.fit(&data);
        // All classes are equal-sized; argmax tie-break picks class 0.
        assert!(data.features.iter().all(|x| m.predict(x) == 0));
    }

    #[test]
    fn pure_node_stops_early() {
        let data = Dataset::new(
            vec![SparseVec::from_pairs(vec![(0, 1.0)]); 5],
            vec![1; 5],
            vec!["a".into(), "b".into()],
        );
        let mut m = DecisionTree::new(DecisionTreeConfig::default());
        m.fit(&data);
        assert_eq!(m.nodes.len(), 1, "pure root must be a single leaf");
        assert_eq!(m.predict(&data.features[0]), 1);
    }

    #[test]
    fn gini_values() {
        assert_eq!(gini(&[4, 0], 4), 0.0);
        assert!((gini(&[2, 2], 4) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[], 0), 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = toy_dataset();
        let mut a = DecisionTree::new(DecisionTreeConfig::default());
        let mut b = DecisionTree::new(DecisionTreeConfig::default());
        a.fit(&data);
        b.fit(&data);
        assert_eq!(
            predict_all(&a, &data.features),
            predict_all(&b, &data.features)
        );
    }
}
