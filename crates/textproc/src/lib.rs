//! NLP substrate for heterogeneous syslog classification.
//!
//! Reimplements, from scratch, the preprocessing stack the paper builds on
//! top of NLTK and scikit-learn:
//!
//! * [`token`] — a syslog-aware tokenizer (keeps identifiers like
//!   `lpi_hbm_nn` and `slurm_rpc_node_registration` intact, splits
//!   punctuation, lowercases),
//! * [`lemma`] — a WordNet-`morphy`-style rule-based English lemmatizer with
//!   an exception lexicon (§4.3.2 of the paper),
//! * [`stopwords`] — a standard English stopword list,
//! * [`sparse`] — sparse vectors and CSR matrices used by every classifier,
//! * [`vocab`] — token ↔ id interning,
//! * [`tfidf`] — a TF-IDF vectorizer with per-category top-token ranking
//!   (Table 1 of the paper),
//! * [`hashing`] — a vocabulary-free hashing vectorizer (drift-immune
//!   features for the X3 adaptation study),
//! * [`ngram`] — word n-gram extraction,
//! * [`template`] — a LogShrink-style log-template miner (bucket by word
//!   count, similarity-cluster, variables → `<*>`) with lossless
//!   message reconstruction — the codec behind the columnar log store.

pub mod hash;
pub mod hashing;
pub mod lemma;
pub mod ngram;
pub mod sparse;
pub mod stopwords;
pub mod template;
pub mod tfidf;
pub mod token;
pub mod vocab;

pub use hashing::HashingVectorizer;
pub use lemma::Lemmatizer;
pub use sparse::{CsrMatrix, SparseVec};
pub use template::{Template, TemplateMiner, TemplateToken};
pub use tfidf::{TfidfConfig, TfidfVectorizer};
pub use token::{tokenize, Tokenizer, TokenizerConfig};
pub use vocab::Vocabulary;

/// The full preprocessing pipeline the paper settles on: tokenize,
/// lemmatize, drop stopwords. Returns processed tokens ready for vectorizing.
pub fn preprocess(text: &str) -> Vec<String> {
    let tokenizer = Tokenizer::default();
    let lemmatizer = Lemmatizer::new();
    tokenizer
        .tokenize(text)
        .into_iter()
        .filter(|t| !stopwords::is_stopword(t))
        .map(|t| lemmatizer.lemmatize(&t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocess_pipeline() {
        let toks = preprocess("The system has failed: CPUs throttled");
        // "the"/"has" are stopwords; "failed"→"fail", "cpus"→"cpu",
        // "throttled"→"throttle".
        assert_eq!(toks, vec!["system", "fail", "cpu", "throttle"]);
    }

    #[test]
    fn preprocess_empty() {
        assert!(preprocess("").is_empty());
    }
}
