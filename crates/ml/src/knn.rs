//! Brute-force k-nearest-neighbours with cosine similarity.
//!
//! Training just stores the data, prediction pays the full scan — the
//! exact cost profile the paper measures (fastest training at 0.011 s,
//! slowest testing at 4.9 s). Scalar queries scan every training vector
//! with a sparse-sparse dot product. Batch prediction works on the
//! training set's distinct rows: syslog repeats its templates, so many
//! training rows are bit-for-bit copies of one another, and copies score
//! identically against any query. The first `predict_csr` of a fitted
//! model (never `fit`, so it stays as cheap as the paper's) groups the
//! rows by their bits and builds an inverted index over one row per
//! group. A query accumulates one dot product per group, ranks the groups
//! by a multiply-only bound, counting each group once per member toward
//! the k-th largest bound, and divides only for the few candidate groups
//! that bound leaves. The queries it cannot answer exactly go to a dense
//! fallback that scatters the group scores back to every training row for
//! the scalar path's own vote. Batches parallelize over queries with
//! rayon.

use crate::batch::{map_row_chunks_with, BatchClassifier, InvertedIndex};
use crate::dataset::Dataset;
use crate::traits::Classifier;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::RangeInclusive;
use std::sync::OnceLock;
use textproc::hash::FxHashMap;
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
    /// The distinct-row index over `train`, built by the first
    /// `predict_csr` after a `fit` or a load. Derived from `train` and
    /// `labels` alone, so it is not saved.
    #[serde(skip)]
    index: OnceLock<KnnIndex>,
}

/// A training row keyed by its exact bits. Rows equal under this key get
/// bitwise-identical dot products from `InvertedIndex::accumulate_dots`
/// and from [`SparseVec::dot`], and bitwise-identical norms.
struct RowBits<'a>(&'a SparseVec);

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.indices() == other.0.indices()
            && (self.0.values().iter())
                .zip(other.0.values())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RowBits<'_> {}

impl Hash for RowBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.indices().hash(state);
        for v in self.0.values() {
            v.to_bits().hash(state);
        }
    }
}

/// What `predict_csr` derives from the training set: its distinct rows,
/// called groups, numbered in order of first appearance, and an index
/// over one row per group.
#[derive(Debug, Clone)]
struct KnnIndex {
    /// Postings of each group's row, once per group.
    postings: InvertedIndex,
    /// `‖t‖` of each group's rows (copies share it bit for bit).
    norms: Vec<f64>,
    /// `1 / ‖t‖` for every group whose norm lies in [`SCALE`]; `0` for the
    /// others, whose proxy is then never positive.
    inv_norms: Vec<f64>,
    /// Groups with a non-zero norm outside [`SCALE`]. Their proxy bounds
    /// nothing, so every query makes them candidates. Empty for TF-IDF.
    outliers: Vec<u32>,
    /// Group `g`'s member rows are `members[offsets[g]..offsets[g + 1]]`,
    /// ascending.
    offsets: Vec<u32>,
    members: Vec<u32>,
    /// The label every member of a group carries, `None` if they differ.
    shared_labels: Vec<Option<usize>>,
    /// The group of every training row.
    group_of: Vec<u32>,
}

impl KnnIndex {
    /// Group `train` by bits, then index the groups. Works from
    /// references: no training row is cloned.
    fn build(train: &[SparseVec], norms: &[f64], labels: &[usize]) -> KnnIndex {
        let mut first_row: Vec<usize> = Vec::new();
        let mut seen: FxHashMap<RowBits<'_>, u32> = FxHashMap::default();
        let group_of: Vec<u32> = train
            .iter()
            .enumerate()
            .map(|(t, row)| {
                *seen.entry(RowBits(row)).or_insert_with(|| {
                    first_row.push(t);
                    first_row.len() as u32 - 1
                })
            })
            .collect();
        let n_groups = first_row.len();
        let mut offsets = vec![0u32; n_groups + 1];
        for &g in &group_of {
            offsets[g as usize + 1] += 1;
        }
        for g in 0..n_groups {
            offsets[g + 1] += offsets[g];
        }
        // A stable sort keeps each group's rows ascending.
        let mut members: Vec<u32> = (0..train.len() as u32).collect();
        members.sort_by_key(|&t| group_of[t as usize]);
        let shared_labels = (0..n_groups)
            .map(|g| {
                let mut rows = members[offsets[g] as usize..offsets[g + 1] as usize].iter();
                let label = labels[*rows.next().expect("a group has a member") as usize];
                rows.all(|&t| labels[t as usize] == label).then_some(label)
            })
            .collect();
        let rows: Vec<&SparseVec> = first_row.iter().map(|&t| &train[t]).collect();
        let norms: Vec<f64> = first_row.iter().map(|&t| norms[t]).collect();
        let in_scale = |n: f64| SCALE.contains(&n);
        KnnIndex {
            postings: InvertedIndex::build(&rows),
            inv_norms: norms
                .iter()
                .map(|&n| if in_scale(n) { 1.0 / n } else { 0.0 })
                .collect(),
            outliers: (0..n_groups as u32)
                .filter(|&g| norms[g as usize] != 0.0 && !in_scale(norms[g as usize]))
                .collect(),
            norms,
            offsets,
            members,
            shared_labels,
            group_of,
        }
    }

    fn n_groups(&self) -> usize {
        self.norms.len()
    }

    /// Group `g`'s member rows, ascending.
    fn members(&self, g: usize) -> &[u32] {
        &self.members[self.offsets[g] as usize..self.offsets[g + 1] as usize]
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
    /// Dot products, one per group; all zero between queries.
    acc: Vec<f64>,
    cands: Candidates,
    /// `(group, exact score)` of the candidates that pass the final cut.
    scored: Vec<(usize, f64)>,
    /// The fallback's scores, one per training row, and
    /// [`KNearestNeighbors::vote`]'s index buffer; the first fallback
    /// allocates both.
    dense: Vec<f64>,
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
    fn take(n_groups: usize) -> Lease {
        match SPARE.take() {
            Some(s) if s.acc.len() == n_groups => Lease(s),
            _ => Lease(Scratch {
                acc: vec![0.0; n_groups],
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

/// The proxy pass's state: the groups that passed the running cut and the
/// k largest proxies so far, counted over training rows.
#[derive(Default)]
struct Candidates {
    /// `(group, dot, proxy)` of every group that passed the running cut,
    /// and of every outlier, with proxy ∞.
    groups: Vec<(u32, f64, f64)>,
    /// The k largest proxies so far, one entry per member row, ascending:
    /// `top[0]` is θ, and `0` while fewer than k rows have been admitted.
    top: Vec<f64>,
}

impl Candidates {
    fn reset(&mut self, k: usize) {
        self.groups.clear();
        self.top.clear();
        self.top.resize(k, 0.0);
    }

    /// The running cut `θ·(1 − SLACK)`. Its floor, the smallest positive
    /// normal float, keeps zero and subnormal proxies out with the same
    /// one comparison that rejects all but ≈ 1 % of the rows.
    fn cut(&self) -> f64 {
        (self.top[0] * (1.0 - SLACK)).max(f64::MIN_POSITIVE)
    }

    /// Record group `g` of `size` rows, whose proxy `p` passed the running
    /// cut, and return the new cut. Every member row enters the top k, so
    /// θ is the k-th largest proxy over the training rows, as if each row
    /// were scanned alone. Out of line so the pass's loop stays a few
    /// instructions long.
    #[cold]
    #[inline(never)]
    fn admit(&mut self, g: usize, dot: f64, p: f64, size: usize) -> f64 {
        self.groups.push((g as u32, dot, p));
        for _ in 0..size {
            if p <= self.top[0] {
                break;
            }
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
/// (or group) ascending. Total, so the tally is a function of the scores
/// alone.
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
        self.tally(top.iter().map(|&(i, score)| (self.labels[i], score)))
    }

    /// Majority vote over the `(label, score)` of the top k, which come in
    /// descending score: ties broken by summed similarity, then by the
    /// lower class index. Each class sums its scores in descending order,
    /// which fixes its float sum; swapping two equal scores changes
    /// nothing.
    fn tally(&self, top: impl IntoIterator<Item = (usize, f64)>) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        let mut sims = vec![0.0f64; self.n_classes];
        for (label, score) in top {
            votes[label] += 1;
            sims[label] += score;
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
    /// One pass over the accumulator ranks each group by the multiply-only
    /// proxy `p_t = dot_t · (1/‖t‖)` of its rows, tracks θ, the k-th
    /// largest proxy over the training rows (a group counts once per
    /// member), collects the groups with `p_t ≥ θ·(1 − SLACK)` and
    /// re-zeroes the accumulator. Only the candidates get the exact score
    /// `s_t = dot_t / (‖t‖·‖x‖)`, which is [`cosine`], the expression of
    /// `predict`; the top k rows of the candidate groups, in
    /// [`tally_order`], are tallied.
    ///
    /// Why this is exact. The rows of a group are bitwise equal, so they
    /// get the same `dot_t`, `p_t` and `s_t` as each would alone; what
    /// follows speaks of rows. Both ways of computing a row's score start
    /// from the same float `dot_t` and round twice more, so inside
    /// [`SCALE`] `p_t = s_t·‖x‖·(1 + δ_t)` with `|δ_t| ≤ 5·2⁻⁵³ = ε`. The
    /// k rows whose proxies are at least θ therefore score at least
    /// `θ/(‖x‖(1 + ε))`, so the k-th exact score `v_k` is at least that
    /// too. Any row with `s_t ≥ v_k` then has
    /// `p_t ≥ v_k·‖x‖·(1 − ε) ≥ θ·(1 − ε)/(1 + ε) > θ·(1 − SLACK)`: it is a
    /// candidate. That includes every row that ties at `v_k`. Rows of zero
    /// norm or non-positive dot score at most 0 < `v_k`, and outliers are
    /// always candidates, so the candidates hold every row the oracle can
    /// pick, with the very scores it picks by. The oracle's top k is the
    /// rows above `v_k` plus an unspecified subset of the rows at `v_k`;
    /// when that subset is not all of them and they carry one label, every
    /// choice tallies the same labels with the same scores. Otherwise only
    /// the oracle can answer ([`Fallback::MixedTie`]), also when the rows
    /// at `v_k` are the members of one group.
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
        cands.groups.extend(
            index
                .outliers
                .iter()
                .map(|&g| (g, acc[g as usize], f64::INFINITY)),
        );
        let mut cut = cands.cut();
        for (g, (a, &inv)) in acc.iter_mut().zip(&index.inv_norms).enumerate() {
            let dot = std::mem::take(a);
            let p = dot * inv;
            if p >= cut {
                cut = cands.admit(g, dot, p, index.members(g).len());
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
        for &(g, dot, p) in &s.cands.groups {
            if p >= cut {
                let score = cosine(dot, index.norms[g as usize], x_norm);
                if !score.is_finite() {
                    return Err(Fallback::NotFinite);
                }
                s.scored.push((g as usize, score));
            }
        }
        s.scored.sort_unstable_by(tally_order);
        let size = |&(g, _): &(usize, f64)| index.members(g).len();
        let mut place = 0;
        let v_k = (s.scored.iter())
            .find_map(|c| {
                place += size(c);
                (place >= k).then_some(c.1)
            })
            .expect("the k rows with proxy ≥ θ are candidates");
        let above = s.scored.partition_point(|&(_, score)| score > v_k);
        let at_v_k = &s.scored[above..s.scored.partition_point(|&(_, score)| score >= v_k)];
        let rows_to_v_k: usize = s.scored[..above].iter().chain(at_v_k).map(size).sum();
        if rows_to_v_k > k {
            let label = index.shared_labels[at_v_k[0].0];
            if label.is_none() || at_v_k.iter().any(|&(g, _)| index.shared_labels[g] != label) {
                return Err(Fallback::MixedTie);
            }
        }
        let top = s.scored.iter().flat_map(|&(g, score)| {
            (index.members(g).iter()).map(move |&t| (self.labels[t as usize], score))
        });
        Ok(self.tally(top.take(k)))
    }

    /// The fallback: dense group dots into the (zeroed) accumulator,
    /// scattered to a score per training row, the oracle's own
    /// [`KNearestNeighbors::vote`] over them; the accumulator is
    /// re-zeroed.
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
        let Scratch {
            acc, dense, idx, ..
        } = s;
        dense.clear();
        dense.extend(
            (index.group_of.iter())
                .zip(&self.norms)
                .map(|(&g, &n)| cosine(acc[g as usize], n, x_norm)),
        );
        acc.fill(0.0);
        self.vote(dense, idx)
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
    /// the model's inverted index over its distinct training rows, once per
    /// group of identical rows and only for groups that share a feature
    /// with it, in the merge order of [`SparseVec::dot`]. The exact
    /// two-stage top-k of `KNearestNeighbors::top_k` then scores only its
    /// candidate groups; the queries it cannot answer go to the dense
    /// fallback, which scatters the group scores to the training rows and
    /// votes with the scalar path's own `KNearestNeighbors::vote`.
    /// Predictions match the scalar path exactly.
    fn predict_csr(&self, m: &CsrMatrix) -> Vec<usize> {
        assert!(!self.train.is_empty(), "predict before fit");
        let index = self
            .index
            .get_or_init(|| KnnIndex::build(&self.train, &self.norms, &self.labels));
        map_row_chunks_with(
            m.n_rows(),
            || Lease::take(index.n_groups()),
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
        let mut lease = Lease::take(index.n_groups());
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
    fn a_one_label_group_larger_than_k_is_answered_on_the_fast_path() {
        let dup = SparseVec::from_pairs(vec![(0, 1.0), (1, 0.5)]);
        let other = SparseVec::from_pairs(vec![(2, 1.0)]);
        let m = fitted(
            vec![dup.clone(), dup.clone(), dup.clone(), dup.clone(), other],
            vec![1, 1, 1, 1, 0],
            3,
        );
        // One group holds every row the query reaches, so θ exists only
        // because the group counts once per member.
        assert_eq!(route(&m, &dup), Ok(1));
        let index = m.index.get().unwrap();
        assert_eq!((index.n_groups(), index.members(0)), (2, &[0, 1, 2, 3][..]));
    }

    #[test]
    fn a_mixed_label_group_straddling_the_kth_place_falls_back() {
        let dup = SparseVec::from_pairs(vec![(0, 1.0), (1, 0.5)]);
        let other = SparseVec::from_pairs(vec![(2, 1.0)]);
        let rows = vec![dup.clone(), dup.clone(), dup.clone(), dup.clone(), other];
        let labels = vec![0, 1, 0, 1, 2];
        // The four copies tie at v_k and only three fit.
        let m = fitted(rows.clone(), labels.clone(), 3);
        assert_eq!(route(&m, &dup), Err(Fallback::MixedTie));
        // All four fit: two votes each, equal sums, the lower class wins.
        let m = fitted(rows, labels, 4);
        assert_eq!(route(&m, &dup), Ok(0));
    }

    #[test]
    fn the_dense_fallback_scatters_the_scores_predict_computes() {
        let data = toy_dataset();
        let mut features = data.features.clone();
        features.extend(data.features[..6].iter().cloned());
        let mut labels = data.labels.clone();
        labels.extend([2, 0, 1, 1, 2, 0]);
        let m = fitted(features, labels, 1);
        let mixed = m.train[0].clone();
        let queries = [
            SparseVec::new(),
            SparseVec::from_pairs(vec![(0, -1.0)]),
            mixed.clone(),
        ];
        assert_eq!(route(&m, &mixed), Err(Fallback::MixedTie));
        let index = m.index.get().unwrap();
        let mut lease = Lease::take(index.n_groups());
        let s = &mut lease.0;
        for x in &queries {
            let x_norm = x.norm();
            let class = m.dense_vote(index, x.indices(), x.values(), x_norm, s);
            assert_eq!(class, m.predict(x));
            let scalar = m.train.iter().zip(&m.norms);
            for (&got, (t, &n)) in s.dense.iter().zip(scalar) {
                assert_eq!(got.to_bits(), cosine(x.dot(t), n, x_norm).to_bits());
            }
            assert_eq!(s.dense.len(), m.train.len());
            assert!(
                s.acc.iter().all(|&a| a == 0.0),
                "the accumulator is re-zeroed"
            );
        }
    }

    #[test]
    fn the_index_holds_each_distinct_row_once() {
        let data = toy_dataset();
        let mut features = data.features.clone();
        features.extend(data.features.iter().cloned());
        let mut scaled = data.features[0].clone();
        scaled.scale(3.0);
        features.push(scaled);
        let n = data.len();
        // Even copies change label, odd ones keep it.
        let labels = (0..features.len())
            .map(|t| (t + usize::from(t >= n && t % 2 == 0)) % 3)
            .collect();
        let m = fitted(features, labels, 3);
        let oracle: Vec<usize> = m.train.iter().map(|x| m.predict(x)).collect();
        assert_eq!(m.predict_csr(&CsrMatrix::from_rows(&m.train, 0)), oracle);
        let index = m.index.get().unwrap();
        assert_eq!(
            index.n_groups(),
            n + 1,
            "copies share a group, a scaled row does not"
        );
        let distinct_nnz: usize = m.train[..n]
            .iter()
            .chain(&m.train[2 * n..])
            .map(SparseVec::nnz)
            .sum();
        assert_eq!(index.postings.n_postings(), distinct_nnz);
        for t in 0..n {
            assert_eq!(index.group_of[t], index.group_of[n + t]);
            let g = index.group_of[t] as usize;
            assert_eq!(index.members(g), &[t as u32, (n + t) as u32][..]);
            let shared = (m.labels[t] == m.labels[n + t]).then_some(m.labels[t]);
            assert_eq!(index.shared_labels[g], shared);
        }
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
