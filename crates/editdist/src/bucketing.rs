//! Exemplar-bucket grouping of syslog messages (Background §3).
//!
//! Every bucket holds one *exemplar* message. An incoming message joins the
//! first bucket whose exemplar is within the edit-distance threshold
//! (Darwin used 7); otherwise it founds a new bucket and lands in the
//! unclassified queue for a human to label. Labeled buckets turn the store
//! into a classifier: a message inherits the label of the bucket it joins.
//!
//! The lookup prunes by exemplar length (|len(a) − len(b)| ≤ threshold is a
//! Levenshtein lower bound) and uses the banded early-exit distance, then
//! falls back to a rayon parallel scan when many candidates survive.

use crate::damerau::damerau_levenshtein;
use crate::levenshtein::levenshtein_bounded_chars;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Which edit metric the store compares with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Plain Levenshtein (insert/delete/substitute). The Darwin default.
    Levenshtein,
    /// Damerau-Levenshtein (adds adjacent transposition).
    Damerau,
}

/// Store configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketingConfig {
    /// Maximum edit distance for a message to join a bucket. The paper's
    /// production threshold was 7.
    pub threshold: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Use a rayon parallel scan when at least this many candidate buckets
    /// survive length pruning.
    pub parallel_cutoff: usize,
}

impl Default for BucketingConfig {
    fn default() -> Self {
        BucketingConfig {
            threshold: 7,
            metric: Metric::Levenshtein,
            parallel_cutoff: 256,
        }
    }
}

/// One message bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// Stable id (insertion order).
    pub id: u32,
    /// The founding message.
    pub exemplar: String,
    /// Human-assigned issue-category label, once classified.
    pub label: Option<String>,
    /// How many messages have joined (including the exemplar).
    pub count: u64,
    #[serde(skip)]
    exemplar_chars: Vec<char>,
    /// Character-presence bitmask of the exemplar (see [`charmask`]).
    #[serde(skip)]
    charmask: u64,
}

/// 64-bit character-presence mask: bit `c mod 64` is set for every char in
/// `chars`. One unit edit changes at most one char occurrence out and one
/// in, flipping at most two bits of the mask, so
/// `popcount(mask(a) ^ mask(b)) ≤ 2 · levenshtein(a, b)` — a constant-time
/// lower bound used to skip the DP for clearly-distant pairs. (A Damerau
/// transposition permutes chars without changing the bag: zero bits flip,
/// so the bound holds for that metric too.)
fn charmask(chars: &[char]) -> u64 {
    let mut mask = 0u64;
    for &c in chars {
        mask |= 1 << (c as u32 % 64);
    }
    mask
}

impl Bucket {
    fn new(id: u32, exemplar: &str) -> Bucket {
        let exemplar_chars: Vec<char> = exemplar.chars().collect();
        Bucket {
            id,
            exemplar: exemplar.to_string(),
            label: None,
            count: 1,
            charmask: charmask(&exemplar_chars),
            exemplar_chars,
        }
    }

    fn chars(&self) -> &[char] {
        &self.exemplar_chars
    }
}

/// Result of [`BucketStore::assign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The bucket the message joined or founded.
    pub bucket_id: u32,
    /// True when a new bucket was created (message needs human labeling).
    pub is_new: bool,
    /// Edit distance to the bucket exemplar (0 when new).
    pub distance: usize,
}

/// The exemplar-bucket store.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BucketStore {
    config: BucketingConfig,
    buckets: Vec<Bucket>,
    /// Bucket ids grouped by exemplar char length: `len_index[l]` holds the
    /// ids (in insertion order) of every bucket whose exemplar is `l` chars
    /// long. Lookups only visit the `±threshold` length window instead of
    /// scanning all buckets — |len(a) − len(b)| ≤ threshold is a Levenshtein
    /// lower bound, so no candidate is ever missed.
    #[serde(skip)]
    len_index: Vec<Vec<u32>>,
}

impl<'de> Deserialize<'de> for BucketStore {
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            config: BucketingConfig,
            buckets: Vec<Bucket>,
        }
        let raw = Raw::deserialize(deserializer)?;
        let mut store = BucketStore {
            config: raw.config,
            buckets: raw.buckets,
            len_index: Vec::new(),
        };
        // The per-bucket char caches are serde-skipped; rebuild them so
        // distance computations stay correct after a round-trip.
        store.rebuild_caches();
        Ok(store)
    }
}

impl BucketStore {
    /// Create an empty store.
    pub fn new(config: BucketingConfig) -> BucketStore {
        BucketStore {
            config,
            buckets: Vec::new(),
            len_index: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BucketingConfig {
        &self.config
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when no buckets exist.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Borrow all buckets.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Borrow a bucket by id.
    pub fn bucket(&self, id: u32) -> Option<&Bucket> {
        self.buckets.get(id as usize)
    }

    /// Find the closest bucket within the threshold, without mutating.
    pub fn find(&self, message: &str) -> Option<(u32, usize)> {
        let chars: Vec<char> = message.chars().collect();
        self.find_chars(&chars)
    }

    fn find_chars(&self, chars: &[char]) -> Option<(u32, usize)> {
        let candidates = self.length_window_candidates(chars.len(), charmask(chars));
        let best = if candidates.len() >= self.config.parallel_cutoff {
            candidates
                .par_iter()
                .filter_map(|b| self.distance(chars, b).map(|d| (b.id, d)))
                .min_by_key(|&(id, d)| (d, id))
        } else {
            candidates
                .iter()
                .filter_map(|b| self.distance(chars, b).map(|d| (b.id, d)))
                .min_by_key(|&(id, d)| (d, id))
        };
        best
    }

    /// True when some bucket is within the threshold. Boolean-identical to
    /// `find(message).is_some()` but exits on the first hit instead of
    /// scanning the whole length window for the minimum — the fast path for
    /// blacklist membership checks on the ingest hot loop.
    pub fn contains(&self, message: &str) -> bool {
        let chars: Vec<char> = message.chars().collect();
        let mask = charmask(&chars);
        let threshold = self.config.threshold;
        let lo = chars.len().saturating_sub(threshold);
        let hi = chars.len() + threshold;
        for l in lo..=hi.min(self.len_index.len().saturating_sub(1)) {
            let Some(ids) = self.len_index.get(l) else {
                continue;
            };
            for &id in ids {
                let b = &self.buckets[id as usize];
                if (mask ^ b.charmask).count_ones() as usize <= 2 * threshold
                    && self.distance(&chars, b).is_some()
                {
                    return true;
                }
            }
        }
        false
    }

    /// Buckets whose exemplar length is within `threshold` of `len` and
    /// whose charmask passes the 2-bits-per-edit lower bound, in insertion
    /// order — a subset of the full scan's candidates that provably
    /// contains every in-threshold bucket.
    fn length_window_candidates(&self, len: usize, mask: u64) -> Vec<&Bucket> {
        let threshold = self.config.threshold;
        let lo = len.saturating_sub(threshold);
        let hi = (len + threshold).min(self.len_index.len().saturating_sub(1));
        let mut candidates: Vec<&Bucket> = Vec::new();
        for l in lo..=hi {
            if let Some(ids) = self.len_index.get(l) {
                candidates.extend(ids.iter().filter_map(|&id| {
                    let b = &self.buckets[id as usize];
                    ((mask ^ b.charmask).count_ones() as usize <= 2 * threshold).then_some(b)
                }));
            }
        }
        candidates
    }

    fn index_bucket(&mut self, id: u32) {
        let len = self.buckets[id as usize].chars().len();
        if self.len_index.len() <= len {
            self.len_index.resize_with(len + 1, Vec::new);
        }
        self.len_index[len].push(id);
    }

    fn distance(&self, chars: &[char], bucket: &Bucket) -> Option<usize> {
        match self.config.metric {
            Metric::Levenshtein => {
                levenshtein_bounded_chars(chars, bucket.chars(), self.config.threshold)
            }
            Metric::Damerau => {
                let s: String = chars.iter().collect();
                let d = damerau_levenshtein(&s, &bucket.exemplar);
                (d <= self.config.threshold).then_some(d)
            }
        }
    }

    /// Assign a message: join the closest in-threshold bucket, or found a
    /// new one.
    pub fn assign(&mut self, message: &str) -> Assignment {
        let chars: Vec<char> = message.chars().collect();
        if let Some((id, distance)) = self.find_chars(&chars) {
            self.buckets[id as usize].count += 1;
            return Assignment {
                bucket_id: id,
                is_new: false,
                distance,
            };
        }
        let id = self.buckets.len() as u32;
        self.buckets.push(Bucket::new(id, message));
        self.index_bucket(id);
        Assignment {
            bucket_id: id,
            is_new: true,
            distance: 0,
        }
    }

    /// Label a bucket with an issue category. Returns false for unknown ids.
    pub fn label_bucket(&mut self, id: u32, label: impl Into<String>) -> bool {
        match self.buckets.get_mut(id as usize) {
            Some(b) => {
                b.label = Some(label.into());
                true
            }
            None => false,
        }
    }

    /// Classify a message through its bucket's label (None when the message
    /// founds no bucket within threshold or the bucket is unlabeled).
    pub fn classify(&self, message: &str) -> Option<&str> {
        let (id, _) = self.find(message)?;
        self.buckets[id as usize].label.as_deref()
    }

    /// Restore the char caches and length index after deserialization.
    pub fn rebuild_caches(&mut self) {
        for b in &mut self.buckets {
            b.exemplar_chars = b.exemplar.chars().collect();
            b.charmask = charmask(&b.exemplar_chars);
        }
        self.len_index.clear();
        for id in 0..self.buckets.len() as u32 {
            self.index_bucket(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(threshold: usize) -> BucketStore {
        BucketStore::new(BucketingConfig {
            threshold,
            ..BucketingConfig::default()
        })
    }

    #[test]
    fn similar_messages_share_bucket() {
        let mut s = store(7);
        let a = s.assign("cpu 3 temperature above threshold");
        let b = s.assign("cpu 7 temperature above threshold");
        assert!(a.is_new);
        assert!(!b.is_new);
        assert_eq!(a.bucket_id, b.bucket_id);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bucket(a.bucket_id).unwrap().count, 2);
    }

    #[test]
    fn distant_messages_split() {
        let mut s = store(7);
        s.assign("cpu temperature above threshold");
        let b = s.assign("usb device 4 disconnected from hub");
        assert!(b.is_new);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn classification_via_labels() {
        let mut s = store(7);
        let a = s.assign("cpu 3 temperature above threshold");
        s.label_bucket(a.bucket_id, "Thermal Issue");
        assert_eq!(
            s.classify("cpu 9 temperature above threshold"),
            Some("Thermal Issue")
        );
        assert_eq!(s.classify("totally different text about slurm"), None);
    }

    #[test]
    fn paper_failure_mode_same_issue_different_phrasing() {
        // §4.3.1: these describe the same thermal issue but exceed the
        // threshold, so bucketing wrongly splits them — the motivating
        // failure for the ML approach.
        let mut s = store(7);
        s.assign("CPU temperature above threshold, cpu clock throttled.");
        let b = s
            .assign("CPU 1 Temperature Above Non-Recoverable - Asserted. Current temperature: 95C");
        assert!(b.is_new, "heterogeneous phrasing must found a new bucket");
    }

    #[test]
    fn ties_go_to_lowest_bucket_id() {
        let mut s = store(2);
        s.assign("aaaa");
        s.assign("bbbb");
        // "aabb" is distance 2 from both; must deterministically join id 0.
        let a = s.assign("aabb");
        assert_eq!(a.bucket_id, 0);
    }

    #[test]
    fn damerau_metric_accepts_swaps() {
        let mut s = BucketStore::new(BucketingConfig {
            threshold: 1,
            metric: Metric::Damerau,
            ..BucketingConfig::default()
        });
        s.assign("thermal event");
        // "thremal event" is one adjacent transposition away.
        let c = s.assign("thremal event");
        assert!(!c.is_new);
    }

    #[test]
    fn empty_message_is_a_bucket() {
        let mut s = store(7);
        let a = s.assign("");
        assert!(a.is_new);
        let b = s.assign("short");
        assert!(!b.is_new, "within threshold of empty exemplar");
    }

    #[test]
    fn label_unknown_bucket_is_false() {
        let mut s = store(7);
        assert!(!s.label_bucket(42, "X"));
    }
}
