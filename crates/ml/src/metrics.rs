//! Evaluation metrics: confusion matrix and the weighted-F1 report the
//! paper uses throughout §5.1.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A confusion matrix: `matrix[truth][predicted]` counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    n_classes: usize,
    matrix: Vec<u64>,
    class_names: Vec<String>,
}

impl ConfusionMatrix {
    /// Build from parallel truth/prediction slices.
    ///
    /// # Panics
    /// If slice lengths differ or any index is ≥ `class_names.len()`.
    pub fn from_predictions(
        class_names: &[String],
        truth: &[usize],
        predicted: &[usize],
    ) -> ConfusionMatrix {
        assert_eq!(
            truth.len(),
            predicted.len(),
            "truth/predicted length mismatch"
        );
        let n = class_names.len();
        let mut matrix = vec![0u64; n * n];
        for (&t, &p) in truth.iter().zip(predicted) {
            assert!(t < n && p < n, "class index out of range");
            matrix[t * n + p] += 1;
        }
        ConfusionMatrix {
            n_classes: n,
            matrix,
            class_names: class_names.to_vec(),
        }
    }

    /// Count at `(truth, predicted)`.
    pub fn get(&self, truth: usize, predicted: usize) -> u64 {
        self.matrix[truth * self.n_classes + predicted]
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Class display names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Samples whose true class is `c` (row sum).
    pub fn support(&self, c: usize) -> u64 {
        (0..self.n_classes).map(|p| self.get(c, p)).sum()
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.matrix.iter().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n_classes).map(|c| self.get(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Precision for class `c` (0 when never predicted).
    pub fn precision(&self, c: usize) -> f64 {
        let predicted: u64 = (0..self.n_classes).map(|t| self.get(t, c)).sum();
        if predicted == 0 {
            0.0
        } else {
            self.get(c, c) as f64 / predicted as f64
        }
    }

    /// Recall for class `c` (0 when the class has no samples).
    pub fn recall(&self, c: usize) -> f64 {
        let support = self.support(c);
        if support == 0 {
            0.0
        } else {
            self.get(c, c) as f64 / support as f64
        }
    }

    /// F1 for class `c`: harmonic mean of precision and recall.
    pub fn f1(&self, c: usize) -> f64 {
        let (p, r) = (self.precision(c), self.recall(c));
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Support-weighted mean of per-class F1 — the paper's headline metric
    /// ("the weighted-averaged F1 score is better for imbalanced data").
    pub fn weighted_f1(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (0..self.n_classes)
            .map(|c| self.f1(c) * self.support(c) as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Unweighted mean of per-class F1.
    pub fn macro_f1(&self) -> f64 {
        if self.n_classes == 0 {
            return 0.0;
        }
        (0..self.n_classes).map(|c| self.f1(c)).sum::<f64>() / self.n_classes as f64
    }

    /// The full matrix as rows of counts, `rows[truth][predicted]` — the
    /// shape the experiment exporters serialize.
    pub fn rows(&self) -> Vec<Vec<u64>> {
        (0..self.n_classes)
            .map(|t| (0..self.n_classes).map(|p| self.get(t, p)).collect())
            .collect()
    }

    /// The most-confused off-diagonal cell `(truth, predicted, count)`, if
    /// any misclassification happened — §5.1 uses this to single out
    /// "Unimportant" as the troublesome category.
    pub fn most_confused(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for t in 0..self.n_classes {
            for p in 0..self.n_classes {
                if t != p {
                    let v = self.get(t, p);
                    if v > 0 && best.map(|(_, _, bv)| v > bv).unwrap_or(true) {
                        best = Some((t, p, v));
                    }
                }
            }
        }
        best
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .class_names
            .iter()
            .map(|n| n.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8)
            .min(20);
        write!(f, "{:>width$} |", "T\\P")?;
        for name in &self.class_names {
            write!(f, " {:>width$}", truncate(name, width))?;
        }
        writeln!(f)?;
        for t in 0..self.n_classes {
            write!(f, "{:>width$} |", truncate(&self.class_names[t], width))?;
            for p in 0..self.n_classes {
                write!(f, " {:>width$}", self.get(t, p))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn truncate(s: &str, max: usize) -> &str {
    if s.len() <= max {
        s
    } else {
        &s[..max]
    }
}

impl ConfusionMatrix {
    /// Render an sklearn-style classification report: per-class precision,
    /// recall, F1 and support, plus the accuracy and weighted-average
    /// rows.
    pub fn classification_report(&self) -> String {
        let name_width = self
            .class_names
            .iter()
            .map(|n| n.len())
            .chain(std::iter::once(12))
            .max()
            .unwrap_or(12);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>name_width$}  {:>9}  {:>9}  {:>9}  {:>9}",
            "", "precision", "recall", "f1-score", "support"
        );
        for (c, name) in self.class_names.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name:>name_width$}  {:>9.4}  {:>9.4}  {:>9.4}  {:>9}",
                self.precision(c),
                self.recall(c),
                self.f1(c),
                self.support(c)
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>name_width$}  {:>9}  {:>9}  {:>9.4}  {:>9}",
            "accuracy",
            "",
            "",
            self.accuracy(),
            self.total()
        );
        let _ = writeln!(
            out,
            "{:>name_width$}  {:>9}  {:>9}  {:>9.4}  {:>9}",
            "weighted avg",
            "",
            "",
            self.weighted_f1(),
            self.total()
        );
        let _ = writeln!(
            out,
            "{:>name_width$}  {:>9}  {:>9}  {:>9.4}  {:>9}",
            "macro avg",
            "",
            "",
            self.macro_f1(),
            self.total()
        );
        out
    }
}

use std::fmt::Write as _;

/// A per-model evaluation row (one line of the paper's Figure 3 table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationReport {
    /// Model name.
    pub model: String,
    /// Support-weighted F1.
    pub weighted_f1: f64,
    /// Unweighted macro F1.
    pub macro_f1: f64,
    /// Accuracy.
    pub accuracy: f64,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// Wall-clock batch-prediction time in seconds.
    pub test_seconds: f64,
    /// Test-set size, for throughput arithmetic.
    pub n_test: usize,
}

impl ClassificationReport {
    /// Predicted messages per hour at the measured test throughput.
    pub fn messages_per_hour(&self) -> f64 {
        if self.test_seconds <= 0.0 {
            f64::INFINITY
        } else {
            self.n_test as f64 / self.test_seconds * 3600.0
        }
    }
}

impl fmt::Display for ClassificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} wF1={:.6} train={:.4}s test={:.4}s",
            self.model, self.weighted_f1, self.train_seconds, self.test_seconds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("c{i}")).collect()
    }

    #[test]
    fn perfect_predictions() {
        let cm = ConfusionMatrix::from_predictions(&names(3), &[0, 1, 2, 1], &[0, 1, 2, 1]);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.weighted_f1(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
        assert!(cm.most_confused().is_none());
    }

    #[test]
    fn hand_computed_binary_case() {
        // truth:     [0,0,0,0,1,1]
        // predicted: [0,0,1,1,1,0]
        let cm =
            ConfusionMatrix::from_predictions(&names(2), &[0, 0, 0, 0, 1, 1], &[0, 0, 1, 1, 1, 0]);
        assert_eq!(cm.get(0, 0), 2);
        assert_eq!(cm.get(0, 1), 2);
        assert_eq!(cm.get(1, 0), 1);
        assert_eq!(cm.get(1, 1), 1);
        // class 0: p = 2/3, r = 2/4 = .5 → f1 = 2*(2/3*.5)/(2/3+.5) = 4/7
        assert!((cm.precision(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall(0) - 0.5).abs() < 1e-12);
        assert!((cm.f1(0) - 4.0 / 7.0).abs() < 1e-12);
        // class 1: p = 1/3, r = .5 → f1 = 2*(1/6)/(5/6) = 0.4
        assert!((cm.f1(1) - 0.4).abs() < 1e-12);
        // weighted: (4/7*4 + 0.4*2)/6
        let expected = (4.0 / 7.0 * 4.0 + 0.4 * 2.0) / 6.0;
        assert!((cm.weighted_f1() - expected).abs() < 1e-12);
        assert!((cm.accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn support_and_row_sums() {
        let cm =
            ConfusionMatrix::from_predictions(&names(3), &[0, 0, 1, 2, 2, 2], &[1, 0, 1, 2, 0, 2]);
        assert_eq!(cm.support(0), 2);
        assert_eq!(cm.support(1), 1);
        assert_eq!(cm.support(2), 3);
        assert_eq!(cm.total(), 6);
        let rows = cm.rows();
        let row_sums: Vec<u64> = rows.iter().map(|r| r.iter().sum()).collect();
        let col_sums: Vec<u64> = (0..3).map(|p| rows.iter().map(|r| r[p]).sum()).collect();
        assert_eq!(row_sums, vec![2, 1, 3]);
        assert_eq!(col_sums, vec![2, 2, 2]);
        assert_eq!(col_sums.iter().sum::<u64>(), cm.total());
    }

    #[test]
    fn rows_match_scalar_accessors() {
        let cm =
            ConfusionMatrix::from_predictions(&names(3), &[0, 0, 1, 2, 2, 2], &[1, 0, 1, 2, 0, 2]);
        for (t, row) in cm.rows().iter().enumerate() {
            for (p, &cell) in row.iter().enumerate() {
                assert_eq!(cell, cm.get(t, p));
            }
        }
    }

    #[test]
    fn most_confused_finds_biggest_error() {
        let cm =
            ConfusionMatrix::from_predictions(&names(3), &[0, 0, 0, 1, 1, 1], &[1, 1, 1, 0, 1, 1]);
        assert_eq!(cm.most_confused(), Some((0, 1, 3)));
    }

    #[test]
    fn zero_support_class_is_zero_not_nan() {
        let cm = ConfusionMatrix::from_predictions(&names(3), &[0, 1], &[0, 1]);
        assert_eq!(cm.f1(2), 0.0);
        assert_eq!(cm.recall(2), 0.0);
        assert_eq!(cm.precision(2), 0.0);
        assert!(!cm.weighted_f1().is_nan());
    }

    #[test]
    fn empty_matrix() {
        let cm = ConfusionMatrix::from_predictions(&names(2), &[], &[]);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.weighted_f1(), 0.0);
    }

    #[test]
    fn display_renders_all_cells() {
        let cm = ConfusionMatrix::from_predictions(&names(2), &[0, 1], &[1, 1]);
        let s = cm.to_string();
        assert!(s.contains("c0") && s.contains("c1"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn classification_report_renders_all_rows() {
        let cm = ConfusionMatrix::from_predictions(&names(3), &[0, 1, 2, 1], &[0, 1, 1, 1]);
        let report = cm.classification_report();
        for n in [
            "c0",
            "c1",
            "c2",
            "precision",
            "recall",
            "f1-score",
            "support",
            "accuracy",
            "weighted avg",
            "macro avg",
        ] {
            assert!(report.contains(n), "missing {n} in:\n{report}");
        }
        // c2 was never predicted correctly: zero f1 shown, not NaN.
        assert!(!report.contains("NaN"));
    }

    #[test]
    fn report_throughput() {
        let r = ClassificationReport {
            model: "kNN".into(),
            weighted_f1: 0.99,
            macro_f1: 0.98,
            accuracy: 0.99,
            train_seconds: 0.01,
            test_seconds: 2.0,
            n_test: 1000,
        };
        assert!((r.messages_per_hour() - 1_800_000.0).abs() < 1e-6);
    }
}
