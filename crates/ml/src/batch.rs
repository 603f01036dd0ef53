//! Matrix-at-a-time inference over [`CsrMatrix`] batches.
//!
//! The scalar [`Classifier::predict`] path materializes one [`SparseVec`]
//! per message and re-touches every class weight row per sample. The batch
//! path scores a whole CSR matrix against the dense class-weight block at
//! once: rows are processed in cache-sized chunks in parallel, and within a
//! row the kernel walks the sparse entries once, updating all class scores
//! column-major.
//!
//! Every implementation here is bit-identical to its scalar counterpart —
//! the kernel accumulates each class's score in the same entry order as
//! [`SparseVec::dot_dense`], applies the bias after the full accumulation,
//! and reuses the exact decision rule (strict-inequality argmax/argmin) of
//! the scalar `predict`. Property tests in `tests/proptests.rs` enforce
//! the equivalence for every model.

use crate::traits::Classifier;
use rayon::prelude::*;
use textproc::{CsrMatrix, SparseVec};

/// Rows scored per parallel work item; the per-chunk score buffer is reused
/// across its rows.
const ROW_CHUNK: usize = 64;

/// A classifier that can score a whole CSR batch at once.
///
/// The default implementation falls back to per-row [`Classifier::predict`]
/// (parallel over rows), so any `Classifier` can be lifted; the linear
/// family and kNN override it with real matrix kernels.
pub trait BatchClassifier: Classifier {
    /// Predict the class index of every row of `m`. Must agree exactly
    /// with calling [`Classifier::predict`] on each row.
    fn predict_csr(&self, m: &CsrMatrix) -> Vec<usize> {
        map_row_chunks(m.n_rows(), |r| self.predict(&m.row_vec(r)))
    }

    /// [`BatchClassifier::predict_csr`] plus a per-row confidence margin:
    /// the winner's decision-score gap to the closest runner-up (in the
    /// model's own score space), `0.0` when fewer than two classes compete.
    ///
    /// Predictions MUST be bit-identical to `predict_csr` — the linear
    /// family derives the margin from the very score vector the decision
    /// rule already reduced. Models without a meaningful margin (kNN's
    /// vote counts, the default per-row fallback) return `None` and their
    /// predictions stay on the plain path.
    fn predict_csr_scored(&self, m: &CsrMatrix) -> (Vec<usize>, Option<Vec<f64>>) {
        (self.predict_csr(m), None)
    }
}

/// Run `per_row` over `0..n_rows` parallel in contiguous chunks, preserving
/// row order in the output.
pub(crate) fn map_row_chunks<F>(n_rows: usize, per_row: F) -> Vec<usize>
where
    F: Fn(usize) -> usize + Sync,
{
    map_row_chunks_with(n_rows, || (), |r, ()| per_row(r))
}

/// [`map_row_chunks`] with per-chunk scratch state: `init` builds the
/// scratch once per chunk and every row of that chunk reuses it, so hot
/// buffers (score accumulators and the like) are allocated per work item
/// rather than per row.
pub(crate) fn map_row_chunks_with<S, I, F>(n_rows: usize, init: I, per_row: F) -> Vec<usize>
where
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> usize + Sync,
{
    let n_chunks = n_rows.div_ceil(ROW_CHUNK).max(1);
    let chunks: Vec<Vec<usize>> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * ROW_CHUNK;
            let hi = (lo + ROW_CHUNK).min(n_rows);
            let mut scratch = init();
            (lo..hi).map(|r| per_row(r, &mut scratch)).collect()
        })
        .collect();
    chunks.concat()
}

/// The shared linear-family kernel: for every row of `m`, compute
/// `scores[c] = Σ_i weights[c][i] · row[i]` (+ `bias[c]` when given) and
/// reduce the score vector to a class with `decide`.
///
/// Column-major accumulation: the row's sparse entries are walked once in
/// ascending index order and each entry updates all class scores, so each
/// class's partial sums occur in exactly the order of
/// `row.dot_dense(&weights[c])` — same floats in, same float out. Entries
/// at or beyond the weight dimensionality are skipped, mirroring
/// `dot_dense`'s treatment of unseen vocabulary.
pub(crate) fn linear_predict_csr<D>(
    m: &CsrMatrix,
    weights: &[Vec<f64>],
    bias: Option<&[f64]>,
    decide: D,
) -> Vec<usize>
where
    D: Fn(&[f64]) -> usize + Sync,
{
    linear_map_csr(m, weights, bias, decide)
}

/// [`linear_predict_csr`] generalized to an arbitrary per-row reduction:
/// `decide` sees the fully accumulated (bias-applied) score vector and may
/// return any value — a class index, or a `(class, margin)` pair for the
/// scored path. The accumulation loop is shared, so every caller gets the
/// same floats in the same order.
pub(crate) fn linear_map_csr<T, D>(
    m: &CsrMatrix,
    weights: &[Vec<f64>],
    bias: Option<&[f64]>,
    decide: D,
) -> Vec<T>
where
    T: Send,
    D: Fn(&[f64]) -> T + Sync,
{
    let n_classes = weights.len();
    let n_features = weights.first().map(Vec::len).unwrap_or(0);
    let n_rows = m.n_rows();
    let n_chunks = n_rows.div_ceil(ROW_CHUNK).max(1);
    let chunks: Vec<Vec<T>> = (0..n_chunks)
        .into_par_iter()
        .map(|chunk| {
            let lo = chunk * ROW_CHUNK;
            let hi = (lo + ROW_CHUNK).min(n_rows);
            let mut scores = vec![0.0f64; n_classes];
            let mut preds = Vec::with_capacity(hi - lo);
            for r in lo..hi {
                let (indices, values) = m.row(r);
                scores.iter_mut().for_each(|s| *s = 0.0);
                for (&i, &v) in indices.iter().zip(values) {
                    let i = i as usize;
                    if i >= n_features {
                        continue;
                    }
                    for (s, w) in scores.iter_mut().zip(weights) {
                        *s += w[i] * v;
                    }
                }
                if let Some(bias) = bias {
                    for (s, &b) in scores.iter_mut().zip(bias) {
                        *s += b;
                    }
                }
                preds.push(decide(&scores));
            }
            preds
        })
        .collect();
    chunks.into_iter().flatten().collect()
}

/// The scored companion of [`linear_predict_csr`]: same kernel, but
/// `decide` also reports the winner's confidence margin. Returns the
/// predictions and margins as parallel vectors.
pub(crate) fn linear_predict_csr_scored<D>(
    m: &CsrMatrix,
    weights: &[Vec<f64>],
    bias: Option<&[f64]>,
    decide: D,
) -> (Vec<usize>, Vec<f64>)
where
    D: Fn(&[f64]) -> (usize, f64) + Sync,
{
    linear_map_csr(m, weights, bias, decide).into_iter().unzip()
}

/// The winner's gap to the closest competitor: `min_{c ≠ winner}
/// |scores[c] − scores[winner]|`, or `0.0` when no competitor exists.
pub(crate) fn margin_about(scores: &[f64], winner: usize) -> f64 {
    let mut margin = f64::INFINITY;
    for (c, &s) in scores.iter().enumerate() {
        if c != winner {
            let gap = (s - scores[winner]).abs();
            if gap < margin {
                margin = gap;
            }
        }
    }
    if margin.is_finite() {
        margin
    } else {
        0.0
    }
}

/// [`argmax`] plus the winner's margin — the scored decision rule for
/// argmax-family linear models. The winner is computed by the *same*
/// `argmax` call, so predictions cannot drift from the plain path.
pub(crate) fn argmax_scored(scores: &[f64]) -> (usize, f64) {
    let winner = argmax(scores);
    (winner, margin_about(scores, winner))
}

/// [`argmin`] plus the winner's margin.
pub(crate) fn argmin_scored(scores: &[f64]) -> (usize, f64) {
    let winner = argmin(scores);
    (winner, margin_about(scores, winner))
}

/// Index of the strictly greatest score, first winner on ties — the exact
/// loop every linear model's scalar `predict` runs.
pub(crate) fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    let mut best_score = f64::NEG_INFINITY;
    for (c, &s) in scores.iter().enumerate() {
        if s > best_score {
            best_score = s;
            best = c;
        }
    }
    best
}

/// Index of the strictly smallest score, first winner on ties.
pub(crate) fn argmin(scores: &[f64]) -> usize {
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for (c, &s) in scores.iter().enumerate() {
        if s < best_score {
            best_score = s;
            best = c;
        }
    }
    best
}

/// Inverted index over a set of rows' feature columns, in one flat CSR
/// layout: the postings of feature `f` are `rows[offsets[f]..offsets[f + 1]]`
/// (row numbers, ascending) with their values in the same slots of `vals`.
/// kNN builds one per fitted model over its distinct training rows, one
/// row per group of bitwise-identical rows, so a `predict_csr` query
/// touches each group that shares at least one feature with it once,
/// instead of scanning every training row.
#[derive(Debug, Clone)]
pub(crate) struct InvertedIndex {
    offsets: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl InvertedIndex {
    /// Index `train` by feature column: count each column, prefix-sum the
    /// counts into offsets, then fill the slots row by row.
    pub(crate) fn build(train: &[&SparseVec]) -> InvertedIndex {
        let n_features = train.iter().map(|v| v.max_dim()).max().unwrap_or(0);
        let mut offsets = vec![0usize; n_features + 1];
        for vec in train {
            for &i in vec.indices() {
                offsets[i as usize + 1] += 1;
            }
        }
        for f in 0..n_features {
            offsets[f + 1] += offsets[f];
        }
        let nnz = offsets[n_features];
        let mut next = offsets[..n_features].to_vec();
        let (mut rows, mut vals) = (vec![0u32; nnz], vec![0.0f64; nnz]);
        for (t, vec) in train.iter().enumerate() {
            for (i, v) in vec.iter() {
                let slot = &mut next[i as usize];
                rows[*slot] = t as u32;
                vals[*slot] = v;
                *slot += 1;
            }
        }
        InvertedIndex {
            offsets,
            rows,
            vals,
        }
    }

    /// Number of postings: the indexed rows' summed nnz.
    #[cfg(test)]
    pub(crate) fn n_postings(&self) -> usize {
        self.rows.len()
    }

    /// Accumulate `acc[t] += q_v · t_v` for every indexed row `t` sharing a
    /// feature with the query. Because the query's entries are walked in
    /// ascending index order and each posting list is in ascending row
    /// order, each `acc[t]` receives its products in ascending shared
    /// feature order — the same order as the merge in [`SparseVec::dot`].
    pub(crate) fn accumulate_dots(&self, q_indices: &[u32], q_values: &[f64], acc: &mut [f64]) {
        for (&qi, &qv) in q_indices.iter().zip(q_values) {
            let f = qi as usize;
            if f + 1 >= self.offsets.len() {
                continue;
            }
            let span = self.offsets[f]..self.offsets[f + 1];
            for (&t, &tv) in self.rows[span.clone()].iter().zip(&self.vals[span]) {
                acc[t as usize] += qv * tv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_first_wins_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[f64::NEG_INFINITY]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn argmin_first_wins_ties() {
        assert_eq!(argmin(&[2.0, 1.0, 1.0]), 1);
        assert_eq!(argmin(&[]), 0);
    }

    #[test]
    fn kernel_matches_row_dot_dense() {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0), (2, 0.5), (9, 4.0)]),
            SparseVec::new(),
            SparseVec::from_pairs(vec![(1, -2.0), (3, 1.5)]),
        ];
        let m = CsrMatrix::from_rows(&rows, 4);
        let weights = vec![vec![1.0, 2.0, 3.0, 4.0], vec![-1.0, 0.5, 0.0, 2.0]];
        let bias = vec![0.25, -0.5];
        let preds = linear_predict_csr(&m, &weights, Some(&bias), argmax);
        for (r, row) in rows.iter().enumerate() {
            let scores: Vec<f64> = weights
                .iter()
                .zip(&bias)
                .map(|(w, b)| row.dot_dense(w) + b)
                .collect();
            assert_eq!(preds[r], argmax(&scores));
        }
    }

    #[test]
    fn scored_kernel_agrees_with_plain_and_reports_runner_up_gap() {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0), (2, 0.5), (9, 4.0)]),
            SparseVec::new(),
            SparseVec::from_pairs(vec![(1, -2.0), (3, 1.5)]),
        ];
        let m = CsrMatrix::from_rows(&rows, 4);
        let weights = vec![vec![1.0, 2.0, 3.0, 4.0], vec![-1.0, 0.5, 0.0, 2.0]];
        let bias = vec![0.25, -0.5];
        let plain = linear_predict_csr(&m, &weights, Some(&bias), argmax);
        let (scored, margins) = linear_predict_csr_scored(&m, &weights, Some(&bias), argmax_scored);
        assert_eq!(scored, plain);
        for (r, row) in rows.iter().enumerate() {
            let scores: Vec<f64> = weights
                .iter()
                .zip(&bias)
                .map(|(w, b)| row.dot_dense(w) + b)
                .collect();
            assert_eq!(margins[r], (scores[0] - scores[1]).abs());
        }
    }

    #[test]
    fn margin_is_zero_without_a_competitor() {
        assert_eq!(margin_about(&[3.0], 0), 0.0);
        assert_eq!(margin_about(&[], 0), 0.0);
        assert_eq!(argmax_scored(&[2.0, 5.0, 4.0]), (1, 1.0));
        assert_eq!(argmin_scored(&[2.0, 5.0, 4.0]), (0, 2.0));
    }

    #[test]
    fn inverted_index_matches_sparse_dot() {
        let train = [
            SparseVec::from_pairs(vec![(0, 1.0), (3, 2.0)]),
            SparseVec::from_pairs(vec![(1, 0.5)]),
            SparseVec::new(),
        ];
        let index = InvertedIndex::build(&[&train[0], &train[1], &train[2]]);
        let q = SparseVec::from_pairs(vec![(0, 2.0), (1, 4.0), (7, 1.0)]);
        let mut acc = vec![0.0; train.len()];
        index.accumulate_dots(q.indices(), q.values(), &mut acc);
        for (t, tv) in train.iter().enumerate() {
            assert_eq!(acc[t], q.dot(tv));
        }
    }
}
