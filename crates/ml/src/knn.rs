//! Brute-force k-nearest-neighbours with cosine similarity.
//!
//! Training just stores the data, prediction pays the full scan — the
//! exact cost profile the paper measures (fastest training at 0.011 s,
//! slowest testing at 4.9 s). Scalar queries scan every training vector
//! with a sparse-sparse dot product. Batch prediction accumulates dot
//! products through an inverted index over the training columns, built
//! once per fitted model on the first `predict_csr` (so `fit` stays as
//! cheap as the paper's), ranks the rows by a multiply-only bound and
//! divides only for the few candidates that bound leaves; it parallelizes
//! over queries with rayon.

use crate::batch::{map_row_chunks_with, BatchClassifier, InvertedIndex};
use crate::dataset::Dataset;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::RangeInclusive;
use std::sync::OnceLock;
use textproc::{CsrMatrix, SparseVec};

/// Where `predict_csr`'s rounding argument holds: a query norm, a training
/// norm or the k-th largest proxy θ outside this range sends the query to
/// the dense fallback (a training row, to the candidates). Inside it every
/// product and quotient of the kernel is a normal float, so each rounds
/// with a relative error of at most 2⁻⁵³.
const SCALE: RangeInclusive<f64> = 1e-100..=1e100;

/// Relative slack of the candidate cut `p ≥ θ·(1 − SLACK)`: seven orders
/// of magnitude above the few ulps by which proxy and exact score disagree.
const SLACK: f64 = 1e-9;

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
    /// Inverted index and inverse norms over `train`, built by the first
    /// `predict_csr` after a `fit` or a load. Derived from `train` alone,
    /// so it is not saved.
    #[serde(skip)]
    index: OnceLock<KnnIndex>,
}

/// What `predict_csr` derives from the training set.
#[derive(Debug, Clone)]
struct KnnIndex {
    postings: InvertedIndex,
    /// `1 / ‖t‖` for every training row whose norm lies in [`SCALE`];
    /// `0` for the others, whose proxy is then never positive.
    inv_norms: Vec<f64>,
    /// Rows with a non-zero norm outside [`SCALE`]. Their proxy bounds
    /// nothing, so every query makes them candidates. Empty for TF-IDF.
    outliers: Vec<u32>,
}

impl KnnIndex {
    fn build(train: &[SparseVec], norms: &[f64]) -> KnnIndex {
        let in_scale = |n: f64| SCALE.contains(&n);
        KnnIndex {
            postings: InvertedIndex::build(train),
            inv_norms: norms
                .iter()
                .map(|&n| if in_scale(n) { 1.0 / n } else { 0.0 })
                .collect(),
            outliers: (0..norms.len() as u32)
                .filter(|&t| norms[t as usize] != 0.0 && !in_scale(norms[t as usize]))
                .collect(),
        }
    }
}

/// Why a `predict_csr` query left the fast path for the dense fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fallback {
    /// `‖x‖` or θ is not a positive normal number inside [`SCALE`].
    Scale,
    /// Fewer than k rows have a positive (normal) proxy, so rows scoring 0
    /// may reach the top k and the oracle's choice among them is
    /// unspecified.
    FewPositive,
    /// A candidate's exact score is not finite.
    NotFinite,
    /// The rows scoring exactly `v_k` do not all fit in the top k and carry
    /// more than one label: which of them the oracle's selection keeps is
    /// unspecified.
    MixedTie,
}

/// Scratch of `predict_csr`, reused by every query of a chunk.
#[derive(Default)]
struct Scratch {
    /// Dot products, one per training row; all zero between queries.
    acc: Vec<f64>,
    cands: Candidates,
    /// `(row, exact score)` of the candidates that pass the final cut.
    scored: Vec<(usize, f64)>,
    /// [`KNearestNeighbors::vote`]'s index buffer; the first fallback
    /// allocates it.
    idx: Vec<usize>,
}

thread_local! {
    /// The scratch this thread's last `predict_csr` chunk handed back, so
    /// the next chunk allocates nothing proportional to the training set.
    static SPARE: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// A [`Scratch`] leased for one chunk from this thread's spare. Dropping
/// it hands the scratch back, unless a panic may have left `acc` dirty.
struct Lease(Scratch);

impl Lease {
    fn take(n_train: usize) -> Lease {
        match SPARE.take() {
            Some(s) if s.acc.len() == n_train => Lease(s),
            _ => Lease(Scratch {
                acc: vec![0.0; n_train],
                ..Scratch::default()
            }),
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            SPARE.set(Some(std::mem::take(&mut self.0)));
        }
    }
}

/// The proxy pass's state: the rows that passed the running cut and the k
/// largest proxies so far.
#[derive(Default)]
struct Candidates {
    /// `(row, dot, proxy)` of every row that passed the running cut, and
    /// of every outlier, with proxy ∞.
    rows: Vec<(u32, f64, f64)>,
    /// The k largest proxies so far, ascending: `top[0]` is θ, and `0`
    /// while fewer than k rows have been admitted.
    top: Vec<f64>,
}

impl Candidates {
    fn reset(&mut self, k: usize) {
        self.rows.clear();
        self.top.clear();
        self.top.resize(k, 0.0);
    }

    /// The running cut `θ·(1 − SLACK)`. Its floor, the smallest positive
    /// normal float, keeps zero and subnormal proxies out with the same
    /// one comparison that rejects all but ≈ 1 % of the rows.
    fn cut(&self) -> f64 {
        (self.top[0] * (1.0 - SLACK)).max(f64::MIN_POSITIVE)
    }

    /// Record row `t`, whose proxy `p` passed the running cut, and return
    /// the new cut. Out of line so the pass's loop stays a few
    /// instructions long.
    #[cold]
    #[inline(never)]
    fn admit(&mut self, t: usize, dot: f64, p: f64) -> f64 {
        self.rows.push((t as u32, dot, p));
        if p > self.top[0] {
            let mut j = 0;
            while j + 1 < self.top.len() && self.top[j + 1] < p {
                self.top[j] = self.top[j + 1];
                j += 1;
            }
            self.top[j] = p;
        }
        self.cut()
    }
}

/// Cosine similarity from a dot product and the two norms: the one
/// expression every path scores with.
fn cosine(dot: f64, norm: f64, x_norm: f64) -> f64 {
    if norm == 0.0 || x_norm == 0.0 {
        0.0
    } else {
        dot / (norm * x_norm)
    }
}

/// The order in which the top k are tallied: score descending, then row
/// ascending. Total, so the tally is a function of the scores alone.
fn tally_order(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

impl KNearestNeighbors {
    /// Create an untrained model.
    pub fn new(config: KnnConfig) -> KNearestNeighbors {
        KNearestNeighbors {
            config,
            ..KNearestNeighbors::default()
        }
    }

    /// Neighbours that vote: `config.k`, clamped to `1..=train.len()`.
    fn k(&self) -> usize {
        self.config.k.min(self.train.len()).max(1)
    }

    /// Pick the winning class from per-training-row cosine scores: top-k by
    /// partial selection over `idx` (refilled with every row index), then
    /// majority vote. The oracle both `predict` and `predict_csr`'s
    /// fallback decide with.
    fn vote(&self, scores: &[f64], idx: &mut Vec<usize>) -> usize {
        let k = self.k();
        idx.clear();
        idx.extend(0..self.train.len());
        idx.select_nth_unstable_by(k - 1, |&a, &b| {
            scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal)
        });
        let mut top: Vec<(usize, f64)> = idx[..k].iter().map(|&i| (i, scores[i])).collect();
        top.sort_unstable_by(tally_order);
        self.tally(&top)
    }

    /// Majority vote over `top`, which is in [`tally_order`]: ties broken
    /// by summed similarity, then by the lower class index. The fixed
    /// order fixes each class's float sum.
    fn tally(&self, top: &[(usize, f64)]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        let mut sims = vec![0.0f64; self.n_classes];
        for &(i, score) in top {
            votes[self.labels[i]] += 1;
            sims[self.labels[i]] += score;
        }
        (0..self.n_classes)
            .max_by(|&a, &b| {
                votes[a]
                    .cmp(&votes[b])
                    .then(sims[a].partial_cmp(&sims[b]).unwrap_or(Ordering::Equal))
                    .then(b.cmp(&a))
            })
            .unwrap_or(0)
    }

    /// The exact two-stage top-k of one query, or why it must fall back.
    /// Leaves `s.acc` all zero either way.
    ///
    /// One pass over the accumulator ranks each row by the multiply-only
    /// proxy `p_t = dot_t · (1/‖t‖)`, tracks θ, the k-th largest proxy,
    /// collects the rows with `p_t ≥ θ·(1 − SLACK)` and re-zeroes the
    /// accumulator. Only the candidates get the exact score
    /// `s_t = dot_t / (‖t‖·‖x‖)`, which is [`cosine`], the expression of
    /// `predict`; their top k by [`tally_order`] are tallied.
    ///
    /// Why this is exact. Both ways of computing a row's score start from
    /// the same float `dot_t` and round twice more, so inside [`SCALE`]
    /// `p_t = s_t·‖x‖·(1 + δ_t)` with `|δ_t| ≤ 5·2⁻⁵³ = ε`. The k rows
    /// whose proxies are at least θ therefore score at least
    /// `θ/(‖x‖(1 + ε))`, so the k-th exact score `v_k` is at least that
    /// too. Any row with `s_t ≥ v_k` then has
    /// `p_t ≥ v_k·‖x‖·(1 − ε) ≥ θ·(1 − ε)/(1 + ε) > θ·(1 − SLACK)`: it is a
    /// candidate. That includes every row that ties at `v_k`. Rows of zero
    /// norm or non-positive dot score at most 0 < `v_k`, and outliers are
    /// always candidates, so the candidates hold every row the oracle can
    /// pick, with the very scores it picks by. The oracle's top k is the
    /// rows above `v_k` plus an unspecified subset of the rows at `v_k`;
    /// when that subset is not all of them and they carry one label, every
    /// choice tallies the same labels with the same scores in the same
    /// order. Otherwise only the oracle can answer ([`Fallback::MixedTie`]).
    fn top_k(
        &self,
        index: &KnnIndex,
        q_indices: &[u32],
        q_values: &[f64],
        x_norm: f64,
        s: &mut Scratch,
    ) -> Result<usize, Fallback> {
        if !SCALE.contains(&x_norm) {
            return Err(Fallback::Scale);
        }
        let k = self.k();
        index
            .postings
            .accumulate_dots(q_indices, q_values, &mut s.acc);
        let Scratch { acc, cands, .. } = s;
        cands.reset(k);
        cands.rows.extend(
            index
                .outliers
                .iter()
                .map(|&t| (t, acc[t as usize], f64::INFINITY)),
        );
        let mut cut = cands.cut();
        for (t, (a, &inv)) in acc.iter_mut().zip(&index.inv_norms).enumerate() {
            let dot = std::mem::take(a);
            let p = dot * inv;
            if p >= cut {
                cut = cands.admit(t, dot, p);
            }
        }
        let theta = cands.top[0];
        if theta == 0.0 {
            return Err(Fallback::FewPositive);
        }
        if !SCALE.contains(&theta) {
            return Err(Fallback::Scale);
        }
        let cut = theta * (1.0 - SLACK);
        s.scored.clear();
        for &(t, dot, p) in &s.cands.rows {
            if p >= cut {
                let score = cosine(dot, self.norms[t as usize], x_norm);
                if !score.is_finite() {
                    return Err(Fallback::NotFinite);
                }
                s.scored.push((t as usize, score));
            }
        }
        let (_, &mut (kth, v_k), rest) = s.scored.select_nth_unstable_by(k - 1, tally_order);
        if rest.iter().any(|&(_, score)| score == v_k) {
            let label = self.labels[kth];
            let mixed = s
                .scored
                .iter()
                .any(|&(t, score)| score == v_k && self.labels[t] != label);
            if mixed {
                return Err(Fallback::MixedTie);
            }
        }
        let top = &mut s.scored[..k];
        top.sort_unstable_by(tally_order);
        Ok(self.tally(top))
    }

    /// The fallback: dense scores into the (zeroed) accumulator, the
    /// oracle's own [`KNearestNeighbors::vote`], then re-zero.
    fn dense_vote(
        &self,
        index: &KnnIndex,
        q_indices: &[u32],
        q_values: &[f64],
        x_norm: f64,
        s: &mut Scratch,
    ) -> usize {
        index
            .postings
            .accumulate_dots(q_indices, q_values, &mut s.acc);
        for (a, &n) in s.acc.iter_mut().zip(&self.norms) {
            *a = cosine(*a, n, x_norm);
        }
        let class = self.vote(&s.acc, &mut s.idx);
        s.acc.fill(0.0);
        class
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
            .map(|(t, &n)| cosine(x.dot(t), n, x_norm))
            .collect();
        self.vote(&scores, &mut Vec::new())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

impl BatchClassifier for KNearestNeighbors {
    /// Pruned batch scoring: each query's dot products accumulate through
    /// the model's inverted index, only against training rows that share a
    /// feature with it, in the merge order of [`SparseVec::dot`]. The
    /// exact two-stage top-k of `KNearestNeighbors::top_k` then scores only
    /// its candidates; the queries it cannot answer go to the dense
    /// fallback, which votes with the scalar path's own
    /// `KNearestNeighbors::vote`. Predictions match the scalar path exactly.
    fn predict_csr(&self, m: &CsrMatrix) -> Vec<usize> {
        assert!(!self.train.is_empty(), "predict before fit");
        let index = self
            .index
            .get_or_init(|| KnnIndex::build(&self.train, &self.norms));
        map_row_chunks_with(
            m.n_rows(),
            || Lease::take(self.train.len()),
            |r, Lease(s)| {
                let (qi, qv) = m.row(r);
                let x_norm = qv.iter().map(|v| v * v).sum::<f64>().sqrt();
                self.top_k(index, qi, qv, x_norm, s)
                    .unwrap_or_else(|_| self.dense_vote(index, qi, qv, x_norm, s))
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

    /// Where `predict_csr` sends `x`: the fast path's answer or its
    /// fallback reason. Also asserts the batch answer equals `predict`.
    fn route(m: &KNearestNeighbors, x: &SparseVec) -> Result<usize, Fallback> {
        let batch = CsrMatrix::from_rows(std::slice::from_ref(x), 0);
        assert_eq!(m.predict_csr(&batch), vec![m.predict(x)]);
        let index = m.index.get().expect("predict_csr built the index");
        let mut lease = Lease::take(m.train.len());
        let s = &mut lease.0;
        let (qi, qv) = batch.row(0);
        let x_norm = qv.iter().map(|v| v * v).sum::<f64>().sqrt();
        let routed = m.top_k(index, qi, qv, x_norm, s);
        assert!(
            s.acc.iter().all(|&a| a == 0.0),
            "the accumulator is re-zeroed"
        );
        routed
    }

    fn fitted(features: Vec<SparseVec>, labels: Vec<usize>, k: usize) -> KNearestNeighbors {
        let n_classes = labels.iter().max().map_or(1, |&l| l + 1);
        let names = (0..n_classes).map(|c| format!("c{c}")).collect();
        let mut m = KNearestNeighbors::new(KnnConfig { k });
        m.fit(&Dataset::new(features, labels, names));
        m
    }

    #[test]
    fn fast_path_answers_the_toy_queries_like_predict() {
        let data = toy_dataset();
        for k in [1, 3, 5] {
            let mut m = KNearestNeighbors::new(KnnConfig { k });
            m.fit(&data);
            for x in &data.features {
                assert_eq!(route(&m, x), Ok(m.predict(x)), "k = {k}");
            }
        }
    }

    #[test]
    fn queries_out_of_scale_fall_back() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig::default());
        m.fit(&data);
        assert_eq!(route(&m, &SparseVec::new()), Err(Fallback::Scale));
        let huge = SparseVec::from_pairs(vec![(0, 1e150)]);
        assert_eq!(route(&m, &huge), Err(Fallback::Scale));
        // θ below the scale while ‖x‖ is inside it: the shared feature is
        // tiny, the query's weight sits on a feature no row has.
        let faint = SparseVec::from_pairs(vec![(9, 1e-120), (700, 1.0)]);
        assert_eq!(route(&m, &faint), Err(Fallback::Scale));
    }

    #[test]
    fn fewer_than_k_positive_proxies_fall_back() {
        let data = toy_dataset();
        let mut m = KNearestNeighbors::new(KnnConfig { k: 3 });
        m.fit(&data);
        // Feature 0 appears only in class 0's eight rows; a negative weight
        // makes all eight dots negative, so no row has a positive proxy.
        let x = SparseVec::from_pairs(vec![(0, -1.0)]);
        assert_eq!(route(&m, &x), Err(Fallback::FewPositive));
        // Only features beyond the index: ‖x‖ is in scale, every proxy is 0.
        let unseen = SparseVec::from_pairs(vec![(500, 1.0)]);
        assert_eq!(route(&m, &unseen), Err(Fallback::FewPositive));
        let two_rows = fitted(
            vec![
                SparseVec::from_pairs(vec![(0, 1.0)]),
                SparseVec::from_pairs(vec![(0, 2.0)]),
                SparseVec::from_pairs(vec![(1, 1.0)]),
                SparseVec::from_pairs(vec![(2, 1.0)]),
            ],
            vec![0, 0, 1, 2],
            3,
        );
        let x = SparseVec::from_pairs(vec![(0, 1.0)]);
        assert_eq!(route(&two_rows, &x), Err(Fallback::FewPositive));
    }

    #[test]
    fn a_non_finite_candidate_score_falls_back() {
        // Row 0's norm overflows, so it is an outlier and always a
        // candidate; its dot with the query overflows too: ∞/∞ is NaN.
        let m = fitted(
            vec![
                SparseVec::from_pairs(vec![(0, 1e300), (1, 1e300)]),
                SparseVec::from_pairs(vec![(0, 1.0)]),
            ],
            vec![0, 1],
            1,
        );
        let x = SparseVec::from_pairs(vec![(0, 1e10)]);
        assert_eq!(route(&m, &x), Err(Fallback::NotFinite));
    }

    #[test]
    fn a_mixed_label_tie_across_the_kth_place_falls_back() {
        let dup = SparseVec::from_pairs(vec![(0, 1.0), (1, 0.5)]);
        let other = SparseVec::from_pairs(vec![(2, 1.0)]);
        let x = SparseVec::from_pairs(vec![(0, 2.0), (1, 1.0)]);
        // Two copies under different labels, one neighbour: which copy the
        // oracle keeps is unspecified.
        let m = fitted(
            vec![dup.clone(), dup.clone(), other.clone()],
            vec![0, 1, 2],
            1,
        );
        assert_eq!(route(&m, &x), Err(Fallback::MixedTie));
        // The same tie inside the top k, or under one label, is answered.
        let m = fitted(
            vec![dup.clone(), dup.clone(), other.clone()],
            vec![0, 1, 2],
            2,
        );
        assert!(route(&m, &x).is_ok());
        let m = fitted(
            vec![dup.clone(), dup.clone(), dup, other],
            vec![1, 1, 1, 0],
            2,
        );
        assert!(route(&m, &x).is_ok());
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
