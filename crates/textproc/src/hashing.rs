//! Feature hashing (the "hashing trick") — a vocabulary-free vectorizer.
//!
//! The fitted TF-IDF vocabulary is the weak point under vocabulary drift
//! (experiment X3: unseen vendor jargon simply vanishes from the feature
//! vector). A hashing vectorizer needs no fit: every token — including one
//! never seen before — maps to a stable bucket `hash(token) % n_buckets`,
//! so new vocabulary still lands somewhere a model can learn from
//! incrementally. The cost is collisions and the loss of inverse
//! document-frequency weighting (there is no corpus statistic to weight
//! by), traded for zero-maintenance deployment.
//!
//! Signed hashing (`+1/−1` by one hash bit, as in scikit-learn and
//! Weinberger et al.) keeps collisions unbiased in expectation.

use crate::hash::FxHasher;
use crate::sparse::{csr_from_items, CsrMatrix, SparseVec};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Stateless hashing vectorizer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashingVectorizer {
    /// Number of feature buckets (a power of two keeps the modulo cheap).
    pub n_buckets: u32,
    /// Use the sign bit to make collisions cancel in expectation.
    pub signed: bool,
    /// L2-normalize the output vector.
    pub l2_normalize: bool,
}

impl Default for HashingVectorizer {
    fn default() -> Self {
        HashingVectorizer {
            n_buckets: 1 << 15, // 32 768, sklearn-ish default scale
            signed: true,
            l2_normalize: true,
        }
    }
}

impl HashingVectorizer {
    fn bucket_and_sign(&self, token: &str) -> (u32, f64) {
        let mut h = FxHasher::default();
        token.hash(&mut h);
        let hash = h.finish();
        let bucket = (hash % self.n_buckets as u64) as u32;
        let sign = if self.signed && (hash >> 63) == 1 {
            -1.0
        } else {
            1.0
        };
        (bucket, sign)
    }

    /// Vectorize a tokenized document. Never fails, never needs fitting.
    pub fn transform(&self, tokens: &[String]) -> SparseVec {
        let pairs: Vec<(u32, f64)> = tokens.iter().map(|t| self.bucket_and_sign(t)).collect();
        let mut v = SparseVec::from_pairs(pairs);
        if self.l2_normalize {
            v.l2_normalize();
        }
        v
    }

    /// Vectorize many documents straight into one CSR matrix (the batch
    /// inference path; see [`crate::tfidf::TfidfVectorizer::transform_batch_csr`]).
    /// Row `i` is bit-identical to `self.transform(documents[i])`.
    pub fn transform_batch_csr<D: AsRef<[String]> + Sync>(&self, documents: &[D]) -> CsrMatrix {
        csr_from_items(
            documents,
            self.n_features(),
            || (),
            |doc, pairs, _| {
                pairs.extend(doc.as_ref().iter().map(|t| self.bucket_and_sign(t)));
                self.l2_normalize
            },
        )
    }

    /// Feature-space dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_buckets as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn buckets(n_buckets: u32) -> HashingVectorizer {
        HashingVectorizer {
            n_buckets,
            ..HashingVectorizer::default()
        }
    }

    #[test]
    fn deterministic_and_stateless() {
        let v = HashingVectorizer::default();
        let a = v.transform(&toks("cpu temperature throttled"));
        let b = v.transform(&toks("cpu temperature throttled"));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn unseen_tokens_still_get_features() {
        let v = HashingVectorizer::default();
        // "tjunction" was never in any corpus; it must still vectorize.
        let out = v.transform(&toks("tjunction downclocked setpoint"));
        assert_eq!(out.nnz(), 3);
    }

    #[test]
    fn buckets_bound_indices() {
        let v = buckets(64);
        let out = v.transform(&toks("a b c d e f g h i j k l m n"));
        assert!(out.max_dim() <= 64);
    }

    #[test]
    fn repeated_tokens_accumulate() {
        let v = HashingVectorizer {
            l2_normalize: false,
            signed: false,
            ..HashingVectorizer::default()
        };
        let once = v.transform(&toks("cpu"));
        let thrice = v.transform(&toks("cpu cpu cpu"));
        let idx = once.indices()[0];
        assert_eq!(thrice.get(idx), 3.0 * once.get(idx));
    }

    #[test]
    fn signed_collisions_can_cancel() {
        // With signing enabled, values may be negative — the point is
        // unbiased collisions, so just assert signs occur.
        let v = HashingVectorizer {
            l2_normalize: false,
            ..HashingVectorizer::default()
        };
        let words: Vec<String> = (0..200).map(|i| format!("tok{i}")).collect();
        let out = v.transform(&words);
        let has_negative = out.values().iter().any(|&x| x < 0.0);
        let has_positive = out.values().iter().any(|&x| x > 0.0);
        assert!(has_negative && has_positive, "sign bit never varied");
    }

    #[test]
    fn normalized_output_is_unit_length() {
        let v = HashingVectorizer::default();
        let out = v.transform(&toks("cpu temperature above threshold"));
        assert!((out.norm() - 1.0).abs() < 1e-9);
        assert!(v.transform(&[]).is_empty());
    }

    #[test]
    fn different_bucket_counts_disagree() {
        let small = buckets(8);
        let large = buckets(1 << 20);
        let t = toks("cpu temperature above threshold sensor throttle");
        assert!(small.transform(&t).max_dim() <= 8);
        assert!(
            large.transform(&t).nnz() == 6,
            "collisions unlikely at 1M buckets"
        );
    }
}
