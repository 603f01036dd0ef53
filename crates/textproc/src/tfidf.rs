//! TF-IDF vectorization (§4.3.1 of the paper).
//!
//! Two uses, matching the paper:
//!
//! 1. [`TfidfVectorizer`] — per-message feature vectors for the traditional
//!    classifiers (fit document frequencies on a training corpus, transform
//!    any message into a sparse vector).
//! 2. [`category_top_tokens`] — the Table 1 analysis, where each *category*
//!    is treated as one document and the corpus is the set of categories;
//!    the top-scoring tokens per category become both human-readable
//!    explanations and prompt material for the LLM classifiers.

use crate::hash::{FxHashMap, FxHashSet};
use crate::sparse::{csr_from_items, CsrMatrix, SparseVec};
use crate::vocab::Vocabulary;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Vectorizer options, mirroring the scikit-learn defaults the paper used.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TfidfConfig {
    /// Ignore tokens appearing in fewer than this many documents.
    pub min_df: usize,
    /// Ignore tokens appearing in more than this fraction of documents.
    pub max_df_ratio: f64,
    /// Cap the vocabulary at the `max_features` highest-document-frequency
    /// tokens (`None` = unlimited).
    pub max_features: Option<usize>,
    /// Use `1 + ln(tf)` instead of raw term frequency.
    pub sublinear_tf: bool,
    /// Smooth idf: `ln((1+n)/(1+df)) + 1` (scikit-learn default).
    pub smooth_idf: bool,
    /// L2-normalize each output vector.
    pub l2_normalize: bool,
}

impl Default for TfidfConfig {
    fn default() -> Self {
        TfidfConfig {
            min_df: 1,
            max_df_ratio: 1.0,
            max_features: None,
            sublinear_tf: false,
            smooth_idf: true,
            l2_normalize: true,
        }
    }
}

/// A fitted TF-IDF vectorizer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TfidfVectorizer {
    config: TfidfConfig,
    vocab: Vocabulary,
    idf: Vec<f64>,
    n_documents: usize,
}

impl TfidfVectorizer {
    /// Create an unfitted vectorizer.
    pub fn new(config: TfidfConfig) -> TfidfVectorizer {
        TfidfVectorizer {
            config,
            ..TfidfVectorizer::default()
        }
    }

    /// Fit document frequencies over tokenized documents.
    pub fn fit<D: AsRef<[String]>>(&mut self, documents: &[D]) {
        let mut df: FxHashMap<String, usize> = FxHashMap::default();
        // Hashed per-document dedup: the linear `Vec::contains` scan this
        // replaces was quadratic in document length.
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        for doc in documents {
            seen.clear();
            for tok in doc.as_ref() {
                if seen.insert(tok.as_str()) {
                    *df.entry(tok.clone()).or_insert(0) += 1;
                }
            }
        }
        self.fit_from_df(df, documents.len());
    }

    /// Fit from document frequencies counted by the caller: each distinct
    /// token with the number of documents that contain it, out of `n`.
    /// [`TfidfVectorizer::fit`] is this after counting; a caller that
    /// already walks its corpus (and knows its tokens by id) counts there
    /// and skips materializing the documents.
    pub fn fit_from_df(&mut self, df: impl IntoIterator<Item = (String, usize)>, n: usize) {
        let max_df = (self.config.max_df_ratio * n as f64).ceil() as usize;
        let mut kept: Vec<(String, usize)> = df
            .into_iter()
            .filter(|&(_, c)| c >= self.config.min_df && c <= max_df.max(1))
            .collect();
        // Deterministic vocabulary order: by df desc, then token asc.
        kept.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if let Some(cap) = self.config.max_features {
            kept.truncate(cap);
        }

        self.vocab = Vocabulary::new();
        self.idf = Vec::with_capacity(kept.len());
        self.n_documents = n;
        for (token, count) in kept {
            self.vocab.intern(&token);
            self.idf.push(self.idf_value(count, n));
        }
    }

    fn idf_value(&self, df: usize, n: usize) -> f64 {
        if self.config.smooth_idf {
            ((1.0 + n as f64) / (1.0 + df as f64)).ln() + 1.0
        } else {
            (n as f64 / df as f64).ln() + 1.0
        }
    }

    /// Transform one tokenized document into a sparse TF-IDF vector.
    /// Tokens outside the fitted vocabulary are ignored.
    pub fn transform(&self, tokens: &[String]) -> SparseVec {
        let mut counts: FxHashMap<u32, f64> = FxHashMap::default();
        for tok in tokens {
            if let Some(id) = self.vocab.get(tok) {
                *counts.entry(id).or_insert(0.0) += 1.0;
            }
        }
        let pairs: Vec<(u32, f64)> = counts
            .into_iter()
            .map(|(id, tf)| {
                let tf = if self.config.sublinear_tf {
                    1.0 + tf.ln()
                } else {
                    tf
                };
                (id, tf * self.idf[id as usize])
            })
            .collect();
        let mut v = SparseVec::from_pairs(pairs);
        if self.config.l2_normalize {
            v.l2_normalize();
        }
        v
    }

    /// Transform many documents in parallel.
    pub fn transform_batch<D: AsRef<[String]> + Sync>(&self, documents: &[D]) -> Vec<SparseVec> {
        documents
            .par_iter()
            .map(|d| self.transform(d.as_ref()))
            .collect()
    }

    /// Transform many documents straight into one CSR matrix — the batch
    /// inference path. Parallel over document chunks; each chunk reuses one
    /// id buffer and pair scratch across documents instead of allocating a
    /// [`SparseVec`] per document. Row `i` is bit-identical to
    /// `self.transform(documents[i])`.
    pub fn transform_batch_csr<D: AsRef<[String]> + Sync>(&self, documents: &[D]) -> CsrMatrix {
        csr_from_items(
            documents,
            self.n_features(),
            Vec::new,
            |doc, pairs, ids: &mut Vec<u32>| {
                ids.clear();
                ids.extend(doc.as_ref().iter().filter_map(|tok| self.vocab.get(tok)));
                self.fill_pairs_from_ids(ids, pairs)
            },
        )
    }

    /// Vocabulary id for one (already preprocessed) token.
    pub fn token_id(&self, token: &str) -> Option<u32> {
        self.vocab.get(token)
    }

    /// Append one document's TF-IDF `(id, weight)` pairs given the
    /// vocabulary id of each of its in-vocabulary token occurrences (any
    /// order; sorted in place) — the same math as
    /// [`TfidfVectorizer::transform`] after vocabulary lookup. Returns
    /// whether the finished row should be L2-normalized.
    ///
    /// A term count is the length of a run of equal ids, an exact integer
    /// like the `+= 1.0` count `transform` keeps, so every pair carries the
    /// same bits as there, and the pairs come out in ascending id order —
    /// the order `transform`'s are sorted into before normalization.
    pub fn fill_pairs_from_ids(&self, ids: &mut [u32], pairs: &mut Vec<(u32, f64)>) -> bool {
        ids.sort_unstable();
        for run in ids.chunk_by(|a, b| a == b) {
            let tf = run.len() as f64;
            let tf = if self.config.sublinear_tf {
                1.0 + tf.ln()
            } else {
                tf
            };
            pairs.push((run[0], tf * self.idf[run[0] as usize]));
        }
        self.config.l2_normalize
    }

    /// Fit then transform in one call.
    pub fn fit_transform<D: AsRef<[String]> + Sync>(&mut self, documents: &[D]) -> Vec<SparseVec> {
        self.fit(documents);
        self.transform_batch(documents)
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The idf weight for a feature id.
    pub fn idf(&self, id: u32) -> Option<f64> {
        self.idf.get(id as usize).copied()
    }

    /// Number of documents the vectorizer was fitted on.
    pub fn n_documents(&self) -> usize {
        self.n_documents
    }

    /// Number of features (= vocabulary size).
    pub fn n_features(&self) -> usize {
        self.vocab.len()
    }
}

/// One category's ranked token list (Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryTokens {
    /// Category label as supplied.
    pub category: String,
    /// `(token, score)` in descending score order.
    pub tokens: Vec<(String, f64)>,
}

/// Rank tokens per category, treating each category's concatenated messages
/// as a single document and the set of categories as the corpus — exactly
/// the construction the paper uses for Table 1.
///
/// `grouped` maps a category label to the tokenized messages belonging to
/// it. Returns one entry per category in the input order, each holding the
/// `top_k` highest TF-IDF tokens.
pub fn category_top_tokens(
    grouped: &[(String, Vec<Vec<String>>)],
    top_k: usize,
) -> Vec<CategoryTokens> {
    let n_categories = grouped.len();
    // Term frequency inside each category-document.
    let per_cat_tf: Vec<FxHashMap<&str, f64>> = grouped
        .iter()
        .map(|(_, docs)| {
            let mut tf: FxHashMap<&str, f64> = FxHashMap::default();
            for doc in docs {
                for tok in doc {
                    *tf.entry(tok.as_str()).or_insert(0.0) += 1.0;
                }
            }
            tf
        })
        .collect();
    // Document frequency across category-documents.
    let mut df: FxHashMap<&str, usize> = FxHashMap::default();
    for tf in &per_cat_tf {
        for tok in tf.keys() {
            *df.entry(tok).or_insert(0) += 1;
        }
    }

    grouped
        .iter()
        .zip(&per_cat_tf)
        .map(|((category, _), tf)| {
            let total: f64 = tf.values().sum::<f64>().max(1.0);
            let mut scored: Vec<(String, f64)> = tf
                .iter()
                .map(|(tok, &count)| {
                    let idf = ((1.0 + n_categories as f64) / (1.0 + df[tok] as f64)).ln() + 1.0;
                    ((*tok).to_string(), (count / total) * idf)
                })
                .collect();
            scored.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            scored.truncate(top_k);
            CategoryTokens {
                category: category.clone(),
                tokens: scored,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(texts: &[&str]) -> Vec<Vec<String>> {
        texts
            .iter()
            .map(|t| t.split_whitespace().map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn fit_transform_shapes() {
        let d = docs(&["cpu hot cpu", "disk cold", "cpu disk"]);
        let mut v = TfidfVectorizer::new(TfidfConfig::default());
        let rows = v.fit_transform(&d);
        assert_eq!(rows.len(), 3);
        assert_eq!(v.n_features(), 4);
        assert_eq!(v.n_documents(), 3);
        for r in &rows {
            assert!((r.norm() - 1.0).abs() < 1e-9, "rows must be unit length");
        }
    }

    #[test]
    fn rare_terms_outweigh_common() {
        let d = docs(&["cpu hot", "cpu cold", "cpu slow", "gpu fast"]);
        let mut v = TfidfVectorizer::new(TfidfConfig {
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        v.fit(&d);
        let cpu = v.vocab.get("cpu").unwrap();
        let gpu = v.vocab.get("gpu").unwrap();
        assert!(v.idf(gpu).unwrap() > v.idf(cpu).unwrap());
    }

    #[test]
    fn min_df_filters() {
        let d = docs(&["a b", "a c", "a d"]);
        let mut v = TfidfVectorizer::new(TfidfConfig {
            min_df: 2,
            ..TfidfConfig::default()
        });
        v.fit(&d);
        assert_eq!(v.n_features(), 1); // only "a" appears twice+
        assert!(v.vocabulary().get("a").is_some());
    }

    #[test]
    fn max_df_filters_ubiquitous() {
        let d = docs(&["a b", "a c", "a d", "a e"]);
        let mut v = TfidfVectorizer::new(TfidfConfig {
            max_df_ratio: 0.5,
            ..TfidfConfig::default()
        });
        v.fit(&d);
        assert!(v.vocabulary().get("a").is_none());
        assert!(v.vocabulary().get("b").is_some());
    }

    #[test]
    fn max_features_caps() {
        let d = docs(&["a a b c", "a b d", "a b e"]);
        let mut v = TfidfVectorizer::new(TfidfConfig {
            max_features: Some(2),
            ..TfidfConfig::default()
        });
        v.fit(&d);
        assert_eq!(v.n_features(), 2);
        // Highest-df tokens kept: a (3 docs), b (3 docs).
        assert!(v.vocabulary().get("a").is_some());
        assert!(v.vocabulary().get("b").is_some());
    }

    #[test]
    fn unseen_tokens_ignored() {
        let d = docs(&["a b"]);
        let mut v = TfidfVectorizer::new(TfidfConfig::default());
        v.fit(&d);
        let out = v.transform(&["zzz".to_string()]);
        assert!(out.is_empty());
    }

    #[test]
    fn transform_batch_matches_sequential() {
        let d = docs(&["cpu hot now", "disk cold", "net slow cpu"]);
        let mut v = TfidfVectorizer::new(TfidfConfig::default());
        v.fit(&d);
        let batch = v.transform_batch(&d);
        for (i, doc) in d.iter().enumerate() {
            assert_eq!(batch[i], v.transform(doc));
        }
    }

    #[test]
    fn category_tokens_pick_discriminative_words() {
        let grouped = vec![
            (
                "Thermal".to_string(),
                docs(&[
                    "cpu temperature threshold throttle",
                    "sensor temperature high throttle",
                    "processor throttle temperature",
                ]),
            ),
            (
                "USB".to_string(),
                docs(&[
                    "usb device hub new",
                    "usb device number new",
                    "usb hub power",
                ]),
            ),
        ];
        let ranked = category_top_tokens(&grouped, 3);
        assert_eq!(ranked.len(), 2);
        let thermal: Vec<&str> = ranked[0].tokens.iter().map(|(t, _)| t.as_str()).collect();
        assert!(thermal.contains(&"temperature") || thermal.contains(&"throttle"));
        let usb: Vec<&str> = ranked[1].tokens.iter().map(|(t, _)| t.as_str()).collect();
        assert!(usb.contains(&"usb") || usb.contains(&"device"));
        // Scores are sorted descending.
        for ct in &ranked {
            for w in ct.tokens.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn category_tokens_empty_category() {
        let grouped = vec![("Empty".to_string(), Vec::new())];
        let ranked = category_top_tokens(&grouped, 5);
        assert!(ranked[0].tokens.is_empty());
    }

    #[test]
    fn sublinear_tf_damps_repeats() {
        let d = docs(&["a a a a b", "c d"]);
        let mut lin = TfidfVectorizer::new(TfidfConfig {
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        let mut sub = TfidfVectorizer::new(TfidfConfig {
            l2_normalize: false,
            sublinear_tf: true,
            ..TfidfConfig::default()
        });
        lin.fit(&d);
        sub.fit(&d);
        let a_lin = lin.transform(&d[0]).get(lin.vocabulary().get("a").unwrap());
        let a_sub = sub.transform(&d[0]).get(sub.vocabulary().get("a").unwrap());
        assert!(a_sub < a_lin);
    }
}
