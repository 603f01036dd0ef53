//! Sparse vectors and CSR matrices for text features.
//!
//! TF-IDF vectors over a syslog vocabulary are extremely sparse (a message
//! has ~5-15 active features out of thousands), so every classifier in the
//! workspace operates on these types. Vectors keep indices sorted, which
//! makes dot products a linear merge and keeps cache behaviour predictable
//! (see the perf-book guidance on contiguous data).
//!
//! Every row, however it is built, goes through `merge_pairs_into` and
//! `l2_normalize_slice`: the batch vectorizers (via [`csr_from_items`])
//! and [`SparseVec::from_pairs`] therefore agree bit for bit whenever they
//! are handed the same `(index, value)` pairs, in any order.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A sparse `f64` vector with sorted, unique indices.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVec {
    /// An empty vector.
    pub fn new() -> SparseVec {
        SparseVec::default()
    }

    /// Build from parallel `(index, value)` pairs; sorts, merges duplicates
    /// (summing their values), and drops explicit zeros.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> SparseVec {
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        merge_pairs_into(&mut pairs, &mut indices, &mut values);
        SparseVec { indices, values }
    }

    fn prune_zeros(&mut self) {
        if self.values.contains(&0.0) {
            let mut indices = Vec::with_capacity(self.indices.len());
            let mut values = Vec::with_capacity(self.values.len());
            for (&i, &v) in self.indices.iter().zip(&self.values) {
                if v != 0.0 {
                    indices.push(i);
                    values.push(v);
                }
            }
            self.indices = indices;
            self.values = values;
        }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted feature indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The value at `index` (0.0 when absent).
    pub fn get(&self, index: u32) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse-sparse dot product via linear merge.
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let (mut a, mut b) = (0usize, 0usize);
        let mut sum = 0.0;
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        sum
    }

    /// Dot product against a dense weight slice.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            // Features beyond the training vocabulary contribute nothing.
            if let Some(w) = dense.get(i as usize) {
                sum += w * v;
            }
        }
        sum
    }

    /// `dense[i] += scale * self[i]` for every stored entry.
    pub fn add_scaled_to_dense(&self, dense: &mut [f64], scale: f64) {
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            if let Some(slot) = dense.get_mut(i as usize) {
                *slot += scale * v;
            }
        }
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scale all values in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
        if factor == 0.0 {
            self.prune_zeros();
        }
    }

    /// Normalize to unit L2 length (no-op on the zero vector).
    pub fn l2_normalize(&mut self) {
        l2_normalize_slice(&mut self.values);
    }

    /// Cosine similarity in `[−1, 1]`; 0 for zero vectors.
    pub fn cosine(&self, other: &SparseVec) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// The largest stored index plus one (0 for an empty vector).
    pub fn max_dim(&self) -> usize {
        self.indices.last().map(|&i| i as usize + 1).unwrap_or(0)
    }
}

/// Sort `pairs` by index, merge duplicate indices by summation, and append
/// the surviving (non-zero) entries to `indices`/`values`.
///
/// This is the single canonical pair-merging routine: [`SparseVec::from_pairs`]
/// and the batch CSR vectorizer paths both call it, which is what keeps
/// per-row CSR construction bit-identical to per-document `SparseVec`
/// construction.
pub(crate) fn merge_pairs_into(
    pairs: &mut [(u32, f64)],
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
) {
    pairs.sort_unstable_by_key(|&(i, _)| i);
    let mut run = 0;
    while run < pairs.len() {
        let (index, mut sum) = pairs[run];
        run += 1;
        while run < pairs.len() && pairs[run].0 == index {
            sum += pairs[run].1;
            run += 1;
        }
        if sum != 0.0 {
            indices.push(index);
            values.push(sum);
        }
    }
}

/// L2-normalize a value slice in place (no-op on all-zero input), summing
/// squares in slice order — the same operation order as
/// [`SparseVec::l2_normalize`], so both paths produce identical bits.
pub(crate) fn l2_normalize_slice(values: &mut [f64]) {
    let norm = values.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        let factor = 1.0 / norm;
        for v in values {
            *v *= factor;
        }
    }
}

/// Documents per parallel vectorization chunk. Large enough to amortize the
/// per-chunk scratch allocations, small enough to spread over cores.
const VECTORIZE_CHUNK: usize = 256;

/// Build a [`CsrMatrix`] from arbitrary items, chunk-parallel with per-chunk
/// scratch state.
///
/// `init` creates one scratch state per chunk (an id buffer, a token
/// buffer — whatever the caller reuses across a chunk's items). A chunk is
/// 256 items (`VECTORIZE_CHUNK`), more than a live batch holds, so nothing
/// that should outlive a batch belongs in it: facts about the fitted
/// model are learned at fit time and captured by `fill_pairs`.
/// `fill_pairs` turns one item into unsorted `(index, value)` pairs
/// (appended to the supplied scratch) and returns whether the finished row
/// should be L2-normalized. Pairs are merged with `merge_pairs_into` and
/// normalized with `l2_normalize_slice`, so each row is bit-identical to
/// `SparseVec::from_pairs(pairs).l2_normalize()` built per item.
pub fn csr_from_items<T, S, I, F>(items: &[T], n_cols: usize, init: I, fill_pairs: F) -> CsrMatrix
where
    T: Sync,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut Vec<(u32, f64)>, &mut S) -> bool + Sync,
{
    let n_chunks = items.len().div_ceil(VECTORIZE_CHUNK).max(1);
    let chunks: Vec<(Vec<usize>, Vec<u32>, Vec<f64>)> = (0..n_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * VECTORIZE_CHUNK;
            let hi = (lo + VECTORIZE_CHUNK).min(items.len());
            let chunk = &items[lo..hi];
            let mut state = init();
            let mut row_lens = Vec::with_capacity(chunk.len());
            let mut indices: Vec<u32> = Vec::new();
            let mut values: Vec<f64> = Vec::new();
            let mut pairs: Vec<(u32, f64)> = Vec::new();
            for item in chunk {
                pairs.clear();
                let l2 = fill_pairs(item, &mut pairs, &mut state);
                let start = indices.len();
                merge_pairs_into(&mut pairs, &mut indices, &mut values);
                if l2 {
                    l2_normalize_slice(&mut values[start..]);
                }
                row_lens.push(indices.len() - start);
            }
            (row_lens, indices, values)
        })
        .collect();
    stitch_chunks(n_cols, &chunks)
}

/// Stitch per-chunk `(row_lens, indices, values)` parts into one
/// [`CsrMatrix`].
fn stitch_chunks(n_cols: usize, chunks: &[(Vec<usize>, Vec<u32>, Vec<f64>)]) -> CsrMatrix {
    let nnz = chunks.iter().map(|(_, i, _)| i.len()).sum();
    let n_rows = chunks.iter().map(|(l, _, _)| l.len()).sum::<usize>();
    let mut m = CsrMatrix {
        row_offsets: Vec::with_capacity(n_rows + 1),
        indices: Vec::with_capacity(nnz),
        values: Vec::with_capacity(nnz),
        n_cols,
    };
    m.row_offsets.push(0);
    for (row_lens, indices, values) in chunks {
        m.append_concat_rows(row_lens, indices, values);
    }
    m
}

/// A compressed-sparse-row matrix: one [`SparseVec`]-shaped row per sample.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CsrMatrix {
    row_offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    n_cols: usize,
}

impl CsrMatrix {
    /// Build from rows. The column count is the max over rows unless a
    /// larger `n_cols` is given.
    pub fn from_rows(rows: &[SparseVec], n_cols: usize) -> CsrMatrix {
        let nnz: usize = rows.iter().map(|r| r.nnz()).sum();
        let mut m = CsrMatrix {
            row_offsets: Vec::with_capacity(rows.len() + 1),
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
            n_cols,
        };
        m.row_offsets.push(0);
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Append a row.
    pub fn push_row(&mut self, row: &SparseVec) {
        self.indices.extend_from_slice(row.indices());
        self.values.extend_from_slice(row.values());
        self.row_offsets.push(self.indices.len());
        self.n_cols = self.n_cols.max(row.max_dim());
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Bytes of heap storage behind this matrix (capacity, not length —
    /// what the allocator is actually holding).
    pub fn heap_bytes(&self) -> usize {
        self.row_offsets.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Borrow row `r` as `(indices, values)`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (start, end) = (self.row_offsets[r], self.row_offsets[r + 1]);
        (&self.indices[start..end], &self.values[start..end])
    }

    /// Copy row `r` into an owned [`SparseVec`].
    pub fn row_vec(&self, r: usize) -> SparseVec {
        let (idx, vals) = self.row(r);
        SparseVec {
            indices: idx.to_vec(),
            values: vals.to_vec(),
        }
    }

    /// Append many rows at once from concatenated storage: `row_lens[i]`
    /// entries belong to appended row `i`. One bulk copy per chunk — the
    /// stitch step after parallel per-chunk vectorization.
    pub fn append_concat_rows(&mut self, row_lens: &[usize], indices: &[u32], values: &[f64]) {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert_eq!(row_lens.iter().sum::<usize>(), indices.len());
        self.indices.extend_from_slice(indices);
        self.values.extend_from_slice(values);
        let mut offset = *self.row_offsets.last().expect("offsets never empty");
        for &len in row_lens {
            offset += len;
            self.row_offsets.push(offset);
        }
        for &i in indices {
            self.n_cols = self.n_cols.max(i as usize + 1);
        }
    }

    /// Expand back into one owned [`SparseVec`] per row (the inverse of
    /// [`CsrMatrix::from_rows`]).
    pub fn to_rows(&self) -> Vec<SparseVec> {
        (0..self.n_rows()).map(|r| self.row_vec(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_merges_prunes() {
        let v = sv(&[(5, 1.0), (2, 2.0), (5, 3.0), (7, 0.0)]);
        assert_eq!(v.indices(), &[2, 5]);
        assert_eq!(v.values(), &[2.0, 4.0]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn dot_products() {
        let a = sv(&[(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = sv(&[(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        assert_eq!(a.dot(&SparseVec::new()), 0.0);
    }

    #[test]
    fn dense_interop() {
        let a = sv(&[(1, 2.0), (3, 4.0)]);
        let dense = [1.0, 10.0, 100.0, 1000.0];
        assert_eq!(a.dot_dense(&dense), 2.0 * 10.0 + 4.0 * 1000.0);

        let mut acc = vec![0.0; 4];
        a.add_scaled_to_dense(&mut acc, 0.5);
        assert_eq!(acc, vec![0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn out_of_range_dense_indices_ignored() {
        let a = sv(&[(10, 1.0)]);
        assert_eq!(a.dot_dense(&[1.0, 2.0]), 0.0);
        let mut acc = vec![0.0; 2];
        a.add_scaled_to_dense(&mut acc, 1.0);
        assert_eq!(acc, vec![0.0, 0.0]);
    }

    #[test]
    fn norms_and_cosine() {
        let a = sv(&[(0, 3.0), (1, 4.0)]);
        assert_eq!(a.norm(), 5.0);
        let mut u = a.clone();
        u.l2_normalize();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        let orth = sv(&[(2, 1.0)]);
        assert_eq!(a.cosine(&orth), 0.0);
        assert_eq!(SparseVec::new().cosine(&a), 0.0);
    }

    #[test]
    fn get_and_max_dim() {
        let a = sv(&[(3, 7.0)]);
        assert_eq!(a.get(3), 7.0);
        assert_eq!(a.get(2), 0.0);
        assert_eq!(a.max_dim(), 4);
        assert_eq!(SparseVec::new().max_dim(), 0);
    }

    #[test]
    fn csr_roundtrip() {
        let rows = vec![sv(&[(0, 1.0), (5, 2.0)]), SparseVec::new(), sv(&[(2, 3.0)])];
        let m = CsrMatrix::from_rows(&rows, 0);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 6);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_vec(0), rows[0]);
        assert_eq!(m.row_vec(1), rows[1]);
        assert_eq!(m.row(2).0, &[2]);
    }

    #[test]
    fn scale_zero_prunes() {
        let mut a = sv(&[(1, 2.0)]);
        a.scale(0.0);
        assert!(a.is_empty());
    }
}
