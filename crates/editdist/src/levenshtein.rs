//! Levenshtein distance: classic two-row DP plus a banded, early-exit
//! variant for thresholded lookups.
//!
//! Bucket assignment only ever asks "is d(a, b) ≤ 7?", so the bounded
//! variant — which confines the DP to a diagonal band of width `2k+1` and
//! abandons a row as soon as its minimum exceeds `k` — is the hot path. Its
//! cost is O(k·min(|a|,|b|)) instead of O(|a|·|b|).

/// Full Levenshtein distance between two strings (unicode-aware, by chars).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

/// Levenshtein over pre-collected char slices.
pub fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    // Keep the shorter string in the inner dimension for the smaller row.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub_cost = if ca == cb { 0 } else { 1 };
            curr[j + 1] = (prev[j] + sub_cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Bounded Levenshtein over char slices: returns `Some(d)` when `d ≤ max`,
/// else `None`.
///
/// Uses the length-difference lower bound, then a banded DP with per-row
/// early exit. Equivalent to `levenshtein(a, b) <= max` but much faster on
/// mismatches, which dominate bucket lookup.
pub fn levenshtein_bounded_chars(a: &[char], b: &[char], max: usize) -> Option<usize> {
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if a.len() - b.len() > max {
        return None;
    }
    if b.is_empty() {
        return (a.len() <= max).then_some(a.len());
    }
    const INF: usize = usize::MAX / 2;
    // Row over b (the shorter string); band of half-width `max` around the
    // main diagonal. Cells one past the band edge are refreshed to INF each
    // row because the next row's band reads them.
    let mut prev: Vec<usize> = (0..=b.len())
        .map(|j| if j <= max { j } else { INF })
        .collect();
    let mut curr: Vec<usize> = vec![INF; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(max);
        let hi = (i + max + 1).min(b.len()); // exclusive bound over j
        let fill_hi = (hi + 1).min(b.len());
        curr[lo..=fill_hi].fill(INF);
        if lo == 0 {
            // Deleting the first i+1 chars of `a`; may exceed `max`, which
            // the row-minimum check below handles.
            curr[0] = i + 1;
        }
        let mut row_min = INF;
        for j in lo..hi {
            let sub_cost = if ca == b[j] { 0 } else { 1 };
            let val = (prev[j] + sub_cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            curr[j + 1] = val;
            row_min = row_min.min(val);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[b.len()];
    (d <= max).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        levenshtein_bounded_chars(&a, &b, max)
    }

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn unicode_chars_not_bytes() {
        assert_eq!(levenshtein("héllo", "hello"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn paper_example_distance_7() {
        // §4.3.1 shows two thermal messages that Levenshtein bucketing
        // fails to group; ours demonstrates the *principle* with masked
        // variants that differ by a handful of token edits.
        let a = "cpu temperature above threshold, cpu clock throttled.";
        let b = "cpu temperature above threshold, cpu clock throttled!";
        assert_eq!(levenshtein(a, b), 1);
    }

    #[test]
    fn bounded_agrees_with_full_within_bound() {
        let pairs = [
            ("kitten", "sitting"),
            ("abcdef", "abcdef"),
            ("abc", "xyz"),
            ("short", "a much longer string entirely"),
            ("", "abc"),
        ];
        for (a, b) in pairs {
            let full = levenshtein(a, b);
            for max in 0..12 {
                let bounded = levenshtein_bounded(a, b, max);
                if full <= max {
                    assert_eq!(bounded, Some(full), "a={a} b={b} max={max}");
                } else {
                    assert_eq!(bounded, None, "a={a} b={b} max={max}");
                }
            }
        }
    }

    #[test]
    fn bounded_length_gap_shortcut() {
        assert_eq!(levenshtein_bounded("ab", "abcdefghij", 3), None);
        assert_eq!(levenshtein_bounded("", "", 0), Some(0));
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein("abcd", "badc"), levenshtein("badc", "abcd"));
        assert_eq!(
            levenshtein_bounded("abcd", "badc", 4),
            levenshtein_bounded("badc", "abcd", 4)
        );
    }
}
