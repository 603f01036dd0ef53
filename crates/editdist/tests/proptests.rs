//! Property tests: metric axioms for the edit distances and invariants of
//! the bucket store.

use editdist::bucketing::{BucketStore, BucketingConfig};
use editdist::levenshtein::levenshtein_bounded_chars;
use editdist::{damerau_levenshtein, levenshtein};
use proptest::prelude::*;

fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_bounded_chars(&a, &b, max)
}

proptest! {
    /// Levenshtein satisfies the metric axioms.
    #[test]
    fn levenshtein_is_a_metric(
        a in "[a-c]{0,12}",
        b in "[a-c]{0,12}",
        c in "[a-c]{0,12}",
    ) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        // Triangle inequality.
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Identity of indiscernibles.
        if levenshtein(&a, &b) == 0 {
            prop_assert_eq!(&a, &b);
        }
    }

    /// Distance is bounded by max(len) and at least the length difference.
    #[test]
    fn levenshtein_bounds(a in "[a-e]{0,20}", b in "[a-e]{0,20}") {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d >= la.abs_diff(lb));
        prop_assert!(d <= la.max(lb));
    }

    /// The banded variant agrees with the full DP for every bound.
    #[test]
    fn bounded_matches_full(a in "[a-d]{0,16}", b in "[a-d]{0,16}", max in 0usize..20) {
        let full = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, max) {
            Some(d) => {
                prop_assert_eq!(d, full);
                prop_assert!(d <= max);
            }
            None => prop_assert!(full > max),
        }
    }

    /// Damerau is bounded above by Levenshtein and below by half of it.
    #[test]
    fn damerau_relation(a in "[a-d]{0,14}", b in "[a-d]{0,14}") {
        let lev = levenshtein(&a, &b);
        let dam = damerau_levenshtein(&a, &b);
        prop_assert!(dam <= lev);
        prop_assert!(dam * 2 >= lev, "each swap replaces at most 2 edits");
    }

    /// Assigning the same message twice never founds a second bucket, and
    /// bucket counts always sum to the number of assignments.
    #[test]
    fn bucket_store_invariants(msgs in proptest::collection::vec("[a-c ]{0,10}", 1..24)) {
        let mut store = BucketStore::new(BucketingConfig { threshold: 2, ..BucketingConfig::default() });
        for m in &msgs {
            store.assign(m);
        }
        let n_before = store.len();
        for m in &msgs {
            let a = store.assign(m);
            prop_assert!(!a.is_new, "re-assigning a seen message founded a bucket");
        }
        prop_assert_eq!(store.len(), n_before);
        let total: u64 = store.buckets().iter().map(|b| b.count).sum();
        prop_assert_eq!(total, msgs.len() as u64 * 2);
    }

    /// The length-window + charmask prescreen never changes membership:
    /// `contains` agrees with a naive full scan over every exemplar, and
    /// with `find(..).is_some()`, for arbitrary stores and probes.
    #[test]
    fn prescreen_preserves_contains(
        seeds in proptest::collection::vec("[a-d ]{0,12}", 1..16),
        probes in proptest::collection::vec("[a-f ]{0,16}", 1..16),
        threshold in 0usize..5,
    ) {
        let mut store = BucketStore::new(BucketingConfig { threshold, ..BucketingConfig::default() });
        for m in &seeds {
            store.assign(m);
        }
        for p in &probes {
            let naive = store
                .buckets()
                .iter()
                .any(|b| levenshtein(p, &b.exemplar) <= threshold);
            prop_assert_eq!(
                store.contains(p),
                naive,
                "prescreen changed membership for probe {:?}",
                p
            );
            prop_assert_eq!(store.find(p).is_some(), naive);
        }
    }

    /// Every assignment distance respects the threshold.
    #[test]
    fn assignment_distance_within_threshold(
        msgs in proptest::collection::vec("[a-d]{0,12}", 1..20),
        threshold in 0usize..6,
    ) {
        let mut store = BucketStore::new(BucketingConfig { threshold, ..BucketingConfig::default() });
        for m in &msgs {
            let a = store.assign(m);
            prop_assert!(a.distance <= threshold);
            if !a.is_new {
                let ex = &store.bucket(a.bucket_id).unwrap().exemplar;
                prop_assert_eq!(levenshtein(m, ex), a.distance);
            }
        }
    }
}
