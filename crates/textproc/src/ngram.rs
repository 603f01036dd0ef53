//! N-gram extraction.
//!
//! The paper's related work anchors on "N-gram analysis" (Cavnar & Trenkle)
//! as the traditional text-categorization baseline; word n-grams are also a
//! standard feature augmentation for the classifiers in `hetsyslog-ml`.

/// Produce word n-grams of order `n` over `tokens`, joined with `_`.
///
/// Returns an empty vector when `n == 0` or `tokens.len() < n`.
pub fn word_ngrams(tokens: &[String], n: usize) -> Vec<String> {
    if n == 0 || tokens.len() < n {
        return Vec::new();
    }
    tokens.windows(n).map(|w| w.join("_")).collect()
}

/// Word n-grams for every order in `1..=max_n`, concatenated (the
/// "ngram_range=(1, max_n)" convention).
pub fn word_ngram_range(tokens: &[String], max_n: usize) -> Vec<String> {
    let mut out = Vec::new();
    for n in 1..=max_n {
        out.extend(word_ngrams(tokens, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn bigrams() {
        assert_eq!(
            word_ngrams(&toks("cpu temp high"), 2),
            vec!["cpu_temp", "temp_high"]
        );
    }

    #[test]
    fn unigrams_are_identity() {
        assert_eq!(word_ngrams(&toks("a b"), 1), vec!["a", "b"]);
    }

    #[test]
    fn degenerate_cases() {
        assert!(word_ngrams(&toks("a"), 2).is_empty());
        assert!(word_ngrams(&toks("a b"), 0).is_empty());
        assert!(word_ngrams(&[], 1).is_empty());
    }

    #[test]
    fn range_concatenates_orders() {
        let grams = word_ngram_range(&toks("a b c"), 2);
        assert_eq!(grams, vec!["a", "b", "c", "a_b", "b_c"]);
    }
}
