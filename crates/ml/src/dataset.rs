//! Labeled sparse datasets: splits, shuffling, class balancing.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use textproc::SparseVec;

/// A labeled dataset of sparse feature vectors.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// One sparse vector per sample.
    pub features: Vec<SparseVec>,
    /// Class index per sample, parallel to `features`.
    pub labels: Vec<usize>,
    /// Class index → display name.
    pub class_names: Vec<String>,
    n_features: usize,
}

impl Dataset {
    /// Build a dataset; the feature dimensionality is inferred from the
    /// data.
    ///
    /// # Panics
    /// If `features` and `labels` lengths differ, or any label is out of
    /// range for `class_names`.
    pub fn new(features: Vec<SparseVec>, labels: Vec<usize>, class_names: Vec<String>) -> Dataset {
        assert_eq!(
            features.len(),
            labels.len(),
            "features/labels length mismatch"
        );
        assert!(
            labels.iter().all(|&l| l < class_names.len()),
            "label out of range"
        );
        let n_features = features.iter().map(|f| f.max_dim()).max().unwrap_or(0);
        Dataset {
            features,
            labels,
            class_names,
            n_features,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Feature-space dimensionality (max index + 1 over all samples).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes()];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Extract the samples at `indices` (cloning features).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let features: Vec<SparseVec> = indices.iter().map(|&i| self.features[i].clone()).collect();
        let labels: Vec<usize> = indices.iter().map(|&i| self.labels[i]).collect();
        let mut d = Dataset::new(features, labels, self.class_names.clone());
        // Preserve the parent dimensionality so models agree across splits.
        d.n_features = self.n_features;
        d
    }

    /// Random oversampling to the majority-class count (the balancing
    /// strategy §4.4.2 motivates; Studiawan & Sohel recommend it for
    /// imbalanced log data). Deterministic under `seed`.
    pub fn random_oversample(&self, seed: u64) -> Dataset {
        let counts = self.class_counts();
        let target = counts.iter().copied().max().unwrap_or(0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.n_classes()];
        for (i, &l) in self.labels.iter().enumerate() {
            by_class[l].push(i);
        }
        let mut indices: Vec<usize> = (0..self.len()).collect();
        for class_indices in by_class.iter().filter(|c| !c.is_empty()) {
            for _ in class_indices.len()..target {
                indices.push(class_indices[rng.gen_range(0..class_indices.len())]);
            }
        }
        indices.shuffle(&mut rng);
        self.subset(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbalanced() -> Dataset {
        // 12 of class 0, 4 of class 1, 2 of class 2.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..18usize {
            let class = if i < 12 {
                0
            } else if i < 16 {
                1
            } else {
                2
            };
            features.push(SparseVec::from_pairs(vec![(i as u32, 1.0)]));
            labels.push(class);
        }
        Dataset::new(features, labels, vec!["a".into(), "b".into(), "c".into()])
    }

    #[test]
    fn construction_and_counts() {
        let d = unbalanced();
        assert_eq!(d.len(), 18);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.class_counts(), vec![12, 4, 2]);
        assert_eq!(d.n_features(), 18);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Dataset::new(vec![SparseVec::new()], vec![], vec!["a".into()]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        Dataset::new(vec![SparseVec::new()], vec![3], vec!["a".into()]);
    }

    #[test]
    fn oversample_balances() {
        let d = unbalanced();
        let o = d.random_oversample(7);
        assert_eq!(o.class_counts(), vec![12, 12, 12]);
        // Original samples are all retained.
        assert!(o.len() == 36);
    }

    #[test]
    fn subset_preserves_dimensionality() {
        let d = unbalanced();
        let s = d.subset(&[0, 1]);
        assert_eq!(s.n_features(), d.n_features());
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(vec![], vec![], vec!["a".into()]);
        assert!(d.is_empty());
        assert_eq!(d.n_features(), 0);
    }
}
