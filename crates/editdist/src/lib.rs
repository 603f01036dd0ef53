//! Edit-distance metrics and the exemplar-bucket baseline classifier.
//!
//! Before this paper's ML work, Darwin's syslog was organized by minimum
//! edit distance (Background §3): messages within Levenshtein distance 7 of
//! a bucket's *exemplar* joined that bucket, buckets were hand-labeled with
//! an issue category, and new exemplars landed in an unclassified queue for
//! a human. This crate reproduces that whole system — it is both the
//! baseline the paper's classifiers are compared against and the
//! recommended "Unimportant" pre-filter from the paper's conclusion.
//!
//! Metrics provided: Levenshtein (full, two-row, banded with early exit)
//! and Damerau-Levenshtein (adjacent transpositions).

pub mod blacklist;
pub mod bucketing;
pub mod damerau;
pub mod levenshtein;

pub use blacklist::Blacklist;
pub use bucketing::{Bucket, BucketStore, BucketingConfig};
pub use damerau::damerau_levenshtein;
pub use levenshtein::levenshtein;
