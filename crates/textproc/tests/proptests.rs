//! Property tests for the NLP substrate.

use proptest::prelude::*;
use textproc::sparse::{CsrMatrix, SparseVec};
use textproc::tfidf::{TfidfConfig, TfidfVectorizer};
use textproc::{preprocess, tokenize, Lemmatizer};

fn l1_norm(v: &SparseVec) -> f64 {
    v.values().iter().map(|x| x.abs()).sum()
}

fn sparse_vec_strategy() -> impl Strategy<Value = SparseVec> {
    proptest::collection::vec((0u32..64, -10.0f64..10.0), 0..16).prop_map(SparseVec::from_pairs)
}

proptest! {
    /// Tokenization never panics and yields only lowercase word characters.
    #[test]
    fn tokenizer_output_is_clean(text in ".{0,300}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric() || c == '_'));
            // Lowercasing is a fixpoint (some uppercase chars, e.g. math
            // letters, have no lowercase mapping and pass through).
            prop_assert_eq!(tok.to_lowercase(), tok.clone());
        }
    }

    /// Lemmatization is idempotent.
    #[test]
    fn lemmatizer_idempotent(word in "[a-z]{1,20}") {
        let l = Lemmatizer::new();
        let once = l.lemmatize(&word);
        prop_assert_eq!(l.lemmatize(&once), once);
    }

    /// The lemma is never longer than the input plus one char (the `+e`
    /// and `ies→y` rules can only shrink or keep length).
    #[test]
    fn lemma_does_not_grow(word in "[a-z]{1,20}") {
        let lemma = Lemmatizer::new().lemmatize(&word);
        prop_assert!(lemma.len() <= word.len() + 1);
    }

    /// Dot product is symmetric and Cauchy-Schwarz holds.
    #[test]
    fn dot_symmetric_cauchy_schwarz(a in sparse_vec_strategy(), b in sparse_vec_strategy()) {
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-9);
        prop_assert!(a.dot(&b).abs() <= a.norm() * b.norm() + 1e-9);
    }

    /// Cosine similarity is bounded in [-1, 1].
    #[test]
    fn cosine_bounded(a in sparse_vec_strategy(), b in sparse_vec_strategy()) {
        let c = a.cosine(&b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
    }

    /// TF-IDF transforms are non-negative and confined to the fitted
    /// vocabulary dimensionality.
    #[test]
    fn tfidf_nonnegative_and_bounded(
        texts in proptest::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,8}", 1..12)
    ) {
        let docs: Vec<Vec<String>> = texts
            .iter()
            .map(|t| t.split_whitespace().map(str::to_string).collect())
            .collect();
        let mut v = TfidfVectorizer::new(TfidfConfig::default());
        let rows = v.fit_transform(&docs);
        for row in rows {
            prop_assert!(row.values().iter().all(|&x| x >= 0.0));
            prop_assert!(row.max_dim() <= v.n_features());
            if !row.is_empty() {
                prop_assert!((row.norm() - 1.0).abs() < 1e-9);
            }
        }
    }

    /// The full preprocess pipeline never panics and never emits stopwords.
    #[test]
    fn preprocess_no_stopwords(text in ".{0,200}") {
        for tok in preprocess(&text) {
            prop_assert!(!textproc::stopwords::is_stopword(&tok));
        }
    }

    /// The hashing vectorizer confines indices to its bucket space, is
    /// deterministic, and (unsigned) keeps token-count mass: the L1 norm of
    /// the unnormalized vector equals the token count.
    #[test]
    fn hashing_vectorizer_invariants(
        tokens in proptest::collection::vec("[a-z_0-9]{1,12}", 0..40),
        buckets_log2 in 3u32..12,
    ) {
        let v = textproc::HashingVectorizer {
            n_buckets: 1 << buckets_log2,
            signed: false,
            l2_normalize: false,
        };
        let a = v.transform(&tokens);
        let b = v.transform(&tokens);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.max_dim() <= (1usize << buckets_log2));
        prop_assert!((l1_norm(&a) - tokens.len() as f64).abs() < 1e-9);
    }

    /// CSR round trip: `from_rows` → `to_rows` reproduces every row
    /// exactly (indices, values, order), and incremental `push_row` agrees
    /// with the bulk constructor row by row.
    #[test]
    fn csr_round_trip(rows in proptest::collection::vec(sparse_vec_strategy(), 0..12)) {
        let m = CsrMatrix::from_rows(&rows, 0);
        prop_assert_eq!(m.n_rows(), rows.len());
        prop_assert_eq!(m.nnz(), rows.iter().map(|r| r.nnz()).sum::<usize>());
        prop_assert_eq!(m.to_rows(), rows.clone());

        let mut incremental = CsrMatrix::from_rows(&[], 0);
        for row in &rows {
            incremental.push_row(row);
        }
        prop_assert_eq!(incremental.n_cols(), m.n_cols());
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(&incremental.row_vec(r), row);
            let (idx, vals) = m.row(r);
            prop_assert_eq!(idx, row.indices());
            prop_assert_eq!(vals, row.values());
        }
    }

    /// The column count inferred by `from_rows` covers every index, and an
    /// explicit larger `n_cols` wins.
    #[test]
    fn csr_column_bounds(rows in proptest::collection::vec(sparse_vec_strategy(), 1..8)) {
        let m = CsrMatrix::from_rows(&rows, 0);
        let max_dim = rows.iter().map(|r| r.max_dim()).max().unwrap_or(0);
        prop_assert_eq!(m.n_cols(), max_dim);
        let wide = CsrMatrix::from_rows(&rows, max_dim + 7);
        prop_assert_eq!(wide.n_cols(), max_dim + 7);
    }

    /// Batch CSR vectorization is row-for-row identical to per-document
    /// transforms, for both TF-IDF and the hashing vectorizer.
    #[test]
    fn batch_csr_matches_per_doc_transform(
        texts in proptest::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,8}", 1..12)
    ) {
        let docs: Vec<Vec<String>> = texts
            .iter()
            .map(|t| t.split_whitespace().map(str::to_string).collect())
            .collect();

        let mut tfidf = TfidfVectorizer::new(TfidfConfig { min_df: 1, ..TfidfConfig::default() });
        tfidf.fit(&docs);
        let per_doc: Vec<SparseVec> = docs.iter().map(|d| tfidf.transform(d)).collect();
        prop_assert_eq!(tfidf.transform_batch_csr(&docs).to_rows(), per_doc);

        let hashing = textproc::HashingVectorizer {
            n_buckets: 1 << 10,
            signed: true,
            l2_normalize: true,
        };
        let per_doc: Vec<SparseVec> = docs.iter().map(|d| hashing.transform(d)).collect();
        prop_assert_eq!(hashing.transform_batch_csr(&docs).to_rows(), per_doc);
    }

    /// Signed hashing: each token contributes ±1, so the L1 norm is the
    /// token count minus an even number (each opposite-sign collision
    /// cancels a pair).
    #[test]
    fn signed_hashing_mass(tokens in proptest::collection::vec("[a-z]{1,8}", 1..30)) {
        let v = textproc::HashingVectorizer {
            n_buckets: 1 << 20,
            signed: true,
            l2_normalize: false,
        };
        let out = v.transform(&tokens);
        let l1 = l1_norm(&out);
        prop_assert!(l1 <= tokens.len() as f64 + 1e-9);
        let cancelled = tokens.len() as f64 - l1;
        prop_assert!((cancelled / 2.0 - (cancelled / 2.0).round()).abs() < 1e-9);
    }
}
