//! The three instrument primitives: [`Counter`], [`Gauge`], and the
//! log-linear-bucketed [`Histogram`].
//!
//! Every instrument is a plain bundle of atomics. Handles are shared as
//! `Arc`s (usually obtained from a [`crate::Registry`], which deduplicates
//! by name + labels), so the record path is wait-free: no locks, no
//! allocation, just `fetch_add`s on cache lines the recorder already owns.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A detached counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A detached gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power-of-two octave (8 → ≤ 12.5 % relative bucket
/// width). Values below [`HIST_SUB`] get one exact bucket each.
pub const HIST_SUB_BITS: u32 = 3;

/// `2^HIST_SUB_BITS`.
pub const HIST_SUB: u64 = 1 << HIST_SUB_BITS;

/// Total buckets needed to cover the full `u64` range at [`HIST_SUB`]
/// sub-buckets per octave: `bucket_index(u64::MAX)` is
/// `(63 - HIST_SUB_BITS) × HIST_SUB + (HIST_SUB - 1)` = 495.
pub const HIST_BUCKETS: usize =
    (63 - HIST_SUB_BITS as usize) * HIST_SUB as usize + 2 * HIST_SUB as usize;

/// Bucket index for value `v`.
///
/// Layout: values `0..HIST_SUB` map to their own exact bucket; above that,
/// each power-of-two octave `[2^e, 2^(e+1))` is split into [`HIST_SUB`]
/// linear sub-buckets. Indices are continuous and monotone in `v`, and no
/// bucket straddles a power of two, so every bucket sits inside one octave.
pub fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let shift = e - HIST_SUB_BITS;
        ((shift as u64 * HIST_SUB) + (v >> shift)) as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * HIST_SUB {
        i
    } else {
        let shift = i / HIST_SUB - 1;
        let mantissa = i - shift * HIST_SUB;
        mantissa << shift
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1).saturating_sub(1).max(bucket_lower(i))
    }
}

/// An immutable histogram snapshot: per-bucket counts plus total count and
/// sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count (or weight) per bucket, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Total recorded count (sum of weights).
    pub count: u64,
    /// Sum of `value × weight` over all records (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket holding the `q`-th percentile rank (`0 ≤ q ≤ 100`), or
    /// `None` for an empty histogram. With rank `ceil(q/100 × count)`
    /// clamped to at least 1, this is exactly the bucket containing the
    /// rank-th smallest recorded value.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        None
    }

    /// Estimate the `q`-th percentile as the upper bound of the bucket
    /// holding that rank — an overestimate by at most one bucket width
    /// (≤ 12.5 % relative error above [`HIST_SUB`], exact below). Zero for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bucket(q).map(bucket_upper).unwrap_or(0)
    }

    /// Mean of recorded values (weighted), or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A log-linear-bucketed atomic histogram over `u64` values (durations in
/// microseconds, sizes, byte counts).
///
/// Recording is wait-free (three relaxed `fetch_add`s). Buckets cover the
/// full `u64` range with ≤ 12.5 % relative width ([`HIST_SUB`] sub-buckets
/// per octave) and exact integer buckets below [`HIST_SUB`].
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A detached histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation of `v`.
    pub fn record(&self, v: u64) {
        self.record_weighted(v, 1);
    }

    /// Record `v` with weight `w`: the bucket and count gain `w`, the sum
    /// gains `v × w`. Weighted recording is what lets a per-*frame*
    /// histogram be fed one entry per *batch*.
    pub fn record_weighted(&self, v: u64, w: u64) {
        if w == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(w, Ordering::Relaxed);
        self.count.fetch_add(w, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(w), Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds.
    pub fn record_duration_us(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total recorded count (sum of weights).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of `value × weight` over all records.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot. Individual bucket loads are relaxed, so a
    /// snapshot taken while recorders run may be mid-update by a few
    /// counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Shorthand for `snapshot().quantile(q)`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..4096u64 {
            let i = bucket_index(v);
            assert!(i == prev || i == prev + 1, "gap at {v}: {prev} -> {i}");
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn bucket_bounds_cover_their_values() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            assert!(v <= bucket_upper(i), "{v} > upper({i})");
        }
        // Exact buckets below HIST_SUB.
        for v in 0..HIST_SUB {
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_upper(i), v);
        }
    }

    #[test]
    fn buckets_never_straddle_powers_of_two() {
        for i in 0..HIST_BUCKETS - 1 {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            if lo <= 1 {
                continue;
            }
            assert_eq!(
                63 - lo.leading_zeros(),
                63 - hi.leading_zeros(),
                "bucket {i} [{lo}, {hi}] spans an octave boundary"
            );
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let s = h.snapshot();
        // p50 rank is value 50; its bucket is [48, 55].
        let b = s.quantile_bucket(50.0).unwrap();
        assert!(bucket_lower(b) <= 50 && 50 <= bucket_upper(b));
        assert_eq!(s.quantile(100.0), bucket_upper(bucket_index(100)));
        assert_eq!(HistogramSnapshot::empty().quantile(99.0), 0);
    }

    #[test]
    fn weighted_records_accumulate_weight() {
        let h = Histogram::new();
        h.record_weighted(64, 64);
        h.record_weighted(3, 3);
        assert_eq!(h.count(), 67);
        assert_eq!(h.sum(), 64 * 64 + 9);
        let s = h.snapshot();
        assert_eq!(s.buckets[bucket_index(64)], 64);
        assert_eq!(s.buckets[bucket_index(3)], 3);
    }
}
