//! Property tests: metric identities and cross-model invariants on random
//! separable datasets.

use hetsyslog_ml::metrics::ConfusionMatrix;
use hetsyslog_ml::{
    BatchClassifier, Classifier, ComplementNaiveBayes, ComplementNbConfig, Dataset,
    KNearestNeighbors, KnnConfig, LinearSvc, LinearSvcConfig, LogisticRegression,
    LogisticRegressionConfig, NearestCentroid, RandomForest, RandomForestConfig, RidgeClassifier,
    RidgeConfig, SgdClassifier, SgdConfig,
};
use proptest::prelude::*;
use textproc::{CsrMatrix, SparseVec};

fn class_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("c{i}")).collect()
}

/// The full suite with trimmed training budgets — the agreement test is
/// about inference, not fit quality.
fn fast_suite(seed: u64) -> Vec<Box<dyn BatchClassifier>> {
    vec![
        Box::new(LogisticRegression::new(LogisticRegressionConfig {
            epochs: 15,
            ..LogisticRegressionConfig::default()
        })),
        Box::new(RidgeClassifier::new(RidgeConfig {
            epochs: 15,
            ..RidgeConfig::default()
        })),
        Box::new(KNearestNeighbors::new(KnnConfig { k: 3 })),
        Box::new(RandomForest::new(RandomForestConfig {
            n_trees: 4,
            seed,
            ..RandomForestConfig::default()
        })),
        Box::new(LinearSvc::new(LinearSvcConfig {
            max_epochs: 15,
            tolerance: 1e-2,
            seed,
            ..LinearSvcConfig::default()
        })),
        Box::new(SgdClassifier::new(SgdConfig {
            epochs: 3,
            seed,
            ..SgdConfig::default()
        })),
        Box::new(NearestCentroid::new()),
        Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
    ]
}

/// A value log-uniform in 1e-3 … 1e3, negated one time in ten.
fn knn_value() -> impl Strategy<Value = f64> {
    (-3.0f64..3.0, 0u32..10).prop_map(|(e, sign)| {
        let v = 10f64.powf(e);
        if sign == 0 {
            -v
        } else {
            v
        }
    })
}

/// Up to three entries over `0..n_features`; no entry gives the all-zero row.
fn knn_row(n_features: u32) -> impl Strategy<Value = SparseVec> {
    collection::vec((0..n_features, knn_value()), 0..4).prop_map(SparseVec::from_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// kNN's two-stage `predict_csr` equals per-row `predict` on inputs
    /// built to break it: exact copies of training rows under other labels
    /// (ties at the k-th score across labels), copies scaled by 3 or 0.1
    /// (cosines equal in exact arithmetic, a few ulps apart in floats),
    /// all-zero training rows, empty queries, queries touching fewer than k
    /// rows or carrying feature ids beyond the index, and values spanning
    /// 1e-3 … 1e3. Groups of 2 to 11 exact copies, under one label or
    /// cycling through all three, put the k-th place inside one group of
    /// identical rows when a query equals their row.
    #[test]
    fn knn_predict_csr_matches_scalar_on_adversarial_rows(
        k in (0usize..5).prop_map(|i| [1, 2, 3, 5, 7][i]),
        base in collection::vec((knn_row(6), 0usize..3), 1..12),
        copies in collection::vec((0usize..64, 0usize..3, 0usize..3), 0..10),
        probes in collection::vec(knn_row(9), 0..8),
        groups in collection::vec((0usize..64, 2usize..12, 0usize..3, 0u32..2), 0..3),
    ) {
        let (mut features, mut labels): (Vec<SparseVec>, Vec<usize>) =
            base.iter().cloned().unzip();
        for &(pick, scale, label) in &copies {
            let mut row = features[pick % base.len()].clone();
            row.scale([1.0, 3.0, 0.1][scale]);
            features.push(row);
            labels.push(label);
        }
        for &(pick, size, label, one_label) in &groups {
            let row = features[pick % base.len()].clone();
            for i in 0..size {
                features.push(row.clone());
                labels.push(if one_label == 1 { label } else { (label + i) % 3 });
            }
        }
        features.push(SparseVec::new());
        labels.push(0);
        let mut queries = probes;
        queries.push(SparseVec::new());
        queries.extend(features.iter().cloned());

        let data = Dataset::new(features, labels, class_names(3));
        let mut knn = KNearestNeighbors::new(KnnConfig { k });
        knn.fit(&data);
        let scalar: Vec<usize> = queries.iter().map(|x| knn.predict(x)).collect();
        prop_assert_eq!(knn.predict_csr(&CsrMatrix::from_rows(&queries, 0)), scalar, "k = {}", k);
    }
}

proptest! {
    /// Confusion-matrix row sums equal per-class support, and the diagonal
    /// of a self-comparison is the full support.
    #[test]
    fn confusion_row_sums(labels in proptest::collection::vec(0usize..4, 1..60)) {
        let cm = ConfusionMatrix::from_predictions(&class_names(4), &labels, &labels);
        prop_assert_eq!(cm.accuracy(), 1.0);
        for c in 0..4 {
            let expected = labels.iter().filter(|&&l| l == c).count() as u64;
            prop_assert_eq!(cm.support(c), expected);
            prop_assert_eq!(cm.get(c, c), expected);
        }
        prop_assert_eq!(cm.total(), labels.len() as u64);
    }

    /// Weighted F1 is bounded by [0, 1] for arbitrary prediction vectors.
    #[test]
    fn weighted_f1_bounded(
        truth in proptest::collection::vec(0usize..3, 1..50),
        seed in 0u64..1000,
    ) {
        let predicted: Vec<usize> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| if (i as u64 + seed).is_multiple_of(3) { (t + 1) % 3 } else { t })
            .collect();
        let cm = ConfusionMatrix::from_predictions(&class_names(3), &truth, &predicted);
        let f1 = cm.weighted_f1();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f1));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&cm.macro_f1()));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&cm.accuracy()));
    }

    /// On a cleanly separable random dataset, every cheap model predicts
    /// training labels correctly (kNN k=1 must be exact; centroid and CNB
    /// near-exact given disjoint feature blocks).
    #[test]
    fn models_fit_separable_data(
        n_per_class in 2usize..8,
        n_classes in 2usize..5,
        scale in 0.5f64..3.0,
    ) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..n_classes {
            for r in 0..n_per_class {
                let base = (c * 4) as u32;
                features.push(SparseVec::from_pairs(vec![
                    (base, scale),
                    (base + 1, scale * 0.5 + r as f64 * 0.01),
                ]));
                labels.push(c);
            }
        }
        let data = Dataset::new(features, labels, class_names(n_classes));

        let matrix = CsrMatrix::from_rows(&data.features, 0);
        let mut knn = KNearestNeighbors::new(KnnConfig { k: 1 });
        knn.fit(&data);
        prop_assert_eq!(knn.predict_csr(&matrix), data.labels.clone());

        let mut nc = NearestCentroid::new();
        nc.fit(&data);
        prop_assert_eq!(nc.predict_csr(&matrix), data.labels.clone());

        let mut cnb = ComplementNaiveBayes::new(ComplementNbConfig::default());
        cnb.fit(&data);
        prop_assert_eq!(cnb.predict_csr(&matrix), data.labels.clone());
    }

    /// The batch CSR path is bit-identical to the scalar path: for every
    /// classifier in the suite, `predict_csr` over the whole matrix equals
    /// per-row `predict` exactly (no tolerance — the kernels are built to
    /// reproduce the scalar accumulation order).
    #[test]
    fn predict_csr_matches_scalar_predict(
        n_per_class in 2usize..6,
        n_classes in 2usize..5,
        scale in 0.5f64..3.0,
        seed in 0u64..100,
    ) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..n_classes {
            for r in 0..n_per_class {
                let base = (c * 4) as u32;
                features.push(SparseVec::from_pairs(vec![
                    (base, scale),
                    (base + 1, scale * 0.5 + r as f64 * 0.01),
                ]));
                labels.push(c);
            }
        }
        // Query rows include the training points plus off-distribution
        // probes (an empty row and one overlapping two class blocks).
        let mut queries = features.clone();
        queries.push(SparseVec::from_pairs(vec![]));
        queries.push(SparseVec::from_pairs(vec![(0, scale * 0.3), (4, scale * 0.3)]));
        let matrix = CsrMatrix::from_rows(&queries, 0);

        let data = Dataset::new(features, labels, class_names(n_classes));
        for mut model in fast_suite(seed) {
            model.fit(&data);
            let scalar: Vec<usize> = queries.iter().map(|x| model.predict(x)).collect();
            let batch = model.predict_csr(&matrix);
            prop_assert_eq!(batch, scalar, "CSR/scalar divergence in {}", model.name());
        }
    }

    /// The scored batch path returns the *same* predictions as the plain
    /// batch path (and hence the scalar path), and every reported
    /// confidence margin is finite and non-negative.
    #[test]
    fn predict_csr_scored_matches_predict_csr(
        n_per_class in 2usize..6,
        n_classes in 2usize..5,
        scale in 0.5f64..3.0,
        seed in 0u64..100,
    ) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for c in 0..n_classes {
            for r in 0..n_per_class {
                let base = (c * 4) as u32;
                features.push(SparseVec::from_pairs(vec![
                    (base, scale),
                    (base + 1, scale * 0.5 + r as f64 * 0.01),
                ]));
                labels.push(c);
            }
        }
        let mut queries = features.clone();
        queries.push(SparseVec::from_pairs(vec![]));
        queries.push(SparseVec::from_pairs(vec![(0, scale * 0.3), (4, scale * 0.3)]));
        let matrix = CsrMatrix::from_rows(&queries, 0);

        let data = Dataset::new(features, labels, class_names(n_classes));
        for mut model in fast_suite(seed) {
            model.fit(&data);
            let plain = model.predict_csr(&matrix);
            let (scored, margins) = model.predict_csr_scored(&matrix);
            prop_assert_eq!(&scored, &plain, "scored/plain divergence in {}", model.name());
            if let Some(margins) = margins {
                prop_assert_eq!(margins.len(), scored.len());
                for &m in &margins {
                    prop_assert!(
                        m.is_finite() && m >= 0.0,
                        "bad margin {m} from {}",
                        model.name()
                    );
                }
            }
        }
    }

    /// SMOTE and ADASYN balance every non-empty class to the majority
    /// count, and synthetic points carry only values producible by
    /// interpolation (bounded by the class's max feature values).
    #[test]
    fn smote_adasyn_balance(
        minority in 1usize..5,
        majority in 5usize..12,
        seed in 0u64..50,
    ) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..majority {
            features.push(SparseVec::from_pairs(vec![(0, 1.0 + i as f64 * 0.1)]));
            labels.push(0);
        }
        for i in 0..minority {
            features.push(SparseVec::from_pairs(vec![(5, 2.0 + i as f64 * 0.2)]));
            labels.push(1);
        }
        let data = Dataset::new(features, labels, class_names(2));
        for balanced in [
            hetsyslog_ml::smote_oversample(&data, 3, seed),
            hetsyslog_ml::adasyn_oversample(&data, 3, seed),
        ] {
            prop_assert_eq!(balanced.class_counts(), vec![majority, majority]);
            // Synthetic minority points stay inside the minority's bounding
            // box on feature 5 and never touch majority feature 0.
            let max_v = 2.0 + (minority as f64 - 1.0) * 0.2;
            for (x, &l) in balanced.features.iter().zip(&balanced.labels).skip(data.len()) {
                prop_assert_eq!(l, 1);
                prop_assert_eq!(x.get(0), 0.0);
                prop_assert!(x.get(5) >= 2.0 - 1e-9 && x.get(5) <= max_v + 1e-9);
            }
        }
    }

    /// For arbitrary (truth, prediction) pairs: row sums equal per-class
    /// support, column sums equal per-class prediction counts, and the
    /// `rows()` export agrees with the scalar `get()` accessor.
    #[test]
    fn confusion_marginals(
        truth in proptest::collection::vec(0usize..4, 1..60),
        seed in 0u64..1000,
    ) {
        let predicted: Vec<usize> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| (t + (i + seed as usize)) % 4)
            .collect();
        let cm = ConfusionMatrix::from_predictions(&class_names(4), &truth, &predicted);
        let cells = cm.rows();
        let rows: Vec<u64> = cells.iter().map(|r| r.iter().sum()).collect();
        let cols: Vec<u64> = (0..4).map(|p| cells.iter().map(|r| r[p]).sum()).collect();
        for c in 0..4 {
            prop_assert_eq!(rows[c], cm.support(c));
            prop_assert_eq!(rows[c], truth.iter().filter(|&&l| l == c).count() as u64);
            prop_assert_eq!(cols[c], predicted.iter().filter(|&&l| l == c).count() as u64);
        }
        prop_assert_eq!(rows.iter().sum::<u64>(), cm.total());
        for (t, row) in cells.iter().enumerate() {
            for (p, &cell) in row.iter().enumerate() {
                prop_assert_eq!(cell, cm.get(t, p));
            }
        }
    }

    /// F1 scores are invariant under any consistent permutation of the
    /// class labels (relabeling classes cannot change aggregate quality),
    /// and per-class F1 permutes along with the labels.
    #[test]
    fn f1_invariant_under_label_permutation(
        truth in proptest::collection::vec(0usize..4, 1..60),
        noise in proptest::collection::vec(0usize..4, 1..60),
        perm_seed in 0usize..24,
    ) {
        let n = truth.len().min(noise.len());
        let truth = &truth[..n];
        let predicted: Vec<usize> = (0..n).map(|i| (truth[i] + noise[i]) % 4).collect();
        // Decode perm_seed into the perm_seed-th permutation of [0,1,2,3].
        let mut items = vec![0usize, 1, 2, 3];
        let mut k = perm_seed;
        let mut perm = Vec::new();
        for f in [6usize, 2, 1, 1] {
            let idx = k / f;
            k %= f;
            perm.push(items.remove(idx));
        }
        let truth_p: Vec<usize> = truth.iter().map(|&t| perm[t]).collect();
        let pred_p: Vec<usize> = predicted.iter().map(|&p| perm[p]).collect();
        let cm = ConfusionMatrix::from_predictions(&class_names(4), truth, &predicted);
        let cm_p = ConfusionMatrix::from_predictions(&class_names(4), &truth_p, &pred_p);
        prop_assert!((cm.weighted_f1() - cm_p.weighted_f1()).abs() < 1e-12);
        prop_assert!((cm.macro_f1() - cm_p.macro_f1()).abs() < 1e-12);
        prop_assert!((cm.accuracy() - cm_p.accuracy()).abs() < 1e-12);
        for (c, &pc) in perm.iter().enumerate() {
            prop_assert!((cm.f1(c) - cm_p.f1(pc)).abs() < 1e-12);
        }
    }

    /// Oversampling yields perfectly balanced classes among non-empty ones.
    #[test]
    fn oversample_balances(
        labels in proptest::collection::vec(0usize..3, 3..40),
        seed in 0u64..100,
    ) {
        let features: Vec<SparseVec> = (0..labels.len())
            .map(|i| SparseVec::from_pairs(vec![(i as u32, 1.0)]))
            .collect();
        let data = Dataset::new(features, labels, class_names(3));
        let balanced = data.random_oversample(seed);
        let orig = data.class_counts();
        let target = *orig.iter().max().unwrap();
        for (c, &count) in balanced.class_counts().iter().enumerate() {
            if orig[c] > 0 {
                prop_assert_eq!(count, target);
            } else {
                prop_assert_eq!(count, 0);
            }
        }
    }
}
