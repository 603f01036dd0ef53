//! The classifier interface shared by all eight models.

use crate::dataset::Dataset;
use textproc::SparseVec;

/// A multi-class classifier over sparse feature vectors.
///
/// `fit` consumes a training [`Dataset`]; `predict` returns a class index
/// into the dataset's `class_names`. Implementations must be deterministic
/// for a fixed configuration/seed and must tolerate feature indices beyond
/// the training dimensionality (unseen vocabulary ⇒ ignored).
pub trait Classifier: Send + Sync {
    /// Short human-readable model name (matches the paper's Figure 3 rows).
    fn name(&self) -> &'static str;

    /// Train on `data`. Must be callable repeatedly (re-fit replaces state).
    fn fit(&mut self, data: &Dataset);

    /// Predict the class index of one sample. Panics if called before
    /// `fit`.
    fn predict(&self, x: &SparseVec) -> usize;

    /// Number of classes the model was fitted with (0 before `fit`).
    fn n_classes(&self) -> usize;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use textproc::SparseVec;

    /// A tiny 3-class linearly separable dataset: class i puts weight on
    /// feature block i. Deterministic; useful in every model's tests.
    pub fn toy_dataset() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..8u32 {
            for class in 0..3u32 {
                let base = class * 3;
                // Distinct-but-similar samples per class.
                let v = SparseVec::from_pairs(vec![
                    (base, 1.0),
                    (base + 1, 0.8),
                    (base + 2, 0.2 + 0.01 * rep as f64),
                    // Small shared feature so classes overlap a little.
                    (9, 0.1),
                ]);
                features.push(v);
                labels.push(class as usize);
            }
        }
        Dataset::new(
            features,
            labels,
            vec!["alpha".into(), "beta".into(), "gamma".into()],
        )
    }

    /// Scalar predictions for every row: the oracle the batch path is
    /// checked against.
    pub fn predict_all(model: &dyn Classifier, xs: &[SparseVec]) -> Vec<usize> {
        xs.iter().map(|x| model.predict(x)).collect()
    }

    /// Fit `model` on the toy set and assert it classifies the training
    /// data (near-)perfectly — the minimum bar for a working learner.
    pub fn assert_learns_toy(model: &mut dyn Classifier) {
        let data = toy_dataset();
        model.fit(&data);
        assert_eq!(model.n_classes(), 3);
        let preds = predict_all(model, &data.features);
        let correct = preds
            .iter()
            .zip(&data.labels)
            .filter(|(p, l)| p == l)
            .count();
        assert!(
            correct >= data.len() - 1,
            "{} classified only {correct}/{} toy samples",
            model.name(),
            data.len()
        );
    }
}
