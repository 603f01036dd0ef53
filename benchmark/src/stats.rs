//! Order statistics used by every report: nearest-rank percentiles with
//! the sample-count rule, the middle-80 % throughput window, and the
//! quartiles the self-test compares between two sets of runs.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
/// Panics on an empty slice: a percentile of nothing is a caller bug.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps 0.9 × 100 = 90.00000000000001 at rank 90.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sample-count rule: a percentile is reported only when at least ten
/// samples lie beyond it. Returns the highest rung of `50 / 90 / 99` not
/// above `wanted` that `n` samples support (the median needs no tail).
pub fn supported_quantile(n: usize, wanted: f64) -> f64 {
    // (quantile, samples that leave ten beyond it)
    [(0.99, 1000), (0.9, 100)]
        .into_iter()
        .find(|&(q, needed)| q <= wanted && n >= needed)
        .map_or(0.5, |(q, _)| q)
}

/// A percentile together with the quantile actually used and the sample
/// count, so a report never shows a tail the sample cannot support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: u64,
    pub quantile: f64,
    pub samples: usize,
}

/// `wanted` percentile of `sorted` under the sample-count rule.
pub fn tail(sorted: &[u64], wanted: f64) -> Tail {
    let quantile = supported_quantile(sorted.len(), wanted);
    Tail {
        value: percentile(sorted, quantile),
        quantile,
        samples: sorted.len(),
    }
}

/// Index range `[lo, hi)` left after discarding the first and last tenth
/// of `n` deliveries by count.
pub fn middle_window(n: usize) -> (usize, usize) {
    let cut = n / 10;
    (cut, n - cut)
}

/// Records per second over the middle 80 % of ascending delivery stamps
/// (nanoseconds): the records delivered after the window's first stamp,
/// over the time between its first and last stamp. 0 for fewer than two
/// distinct stamps.
pub fn windowed_rate(stamps_ns: &[u64]) -> f64 {
    let (lo, hi) = middle_window(stamps_ns.len());
    if hi - lo < 2 || stamps_ns[hi - 1] == stamps_ns[lo] {
        return 0.0;
    }
    (hi - 1 - lo) as f64 * 1e9 / (stamps_ns[hi - 1] - stamps_ns[lo]) as f64
}

/// Most slices the middle window is cut into for latency percentiles.
pub const MAX_SLICES: usize = 64;
/// Samples a slice needs so that its p99 has ten samples beyond it.
const SLICE_SAMPLES: usize = 1000;

/// The middle 80 % of `n` deliveries as equal-count index ranges
/// `[lo, hi)`, in order: as many as `MAX_SLICES`, fewer when that would
/// leave a slice too small for a p99, at least one unless `n` is 0.
pub fn slices(n: usize) -> Vec<(usize, usize)> {
    let (lo, hi) = middle_window(n);
    if hi == lo {
        return Vec::new();
    }
    let count = ((hi - lo) / SLICE_SAMPLES).clamp(1, MAX_SLICES);
    (0..count)
        .map(|i| (lo + (hi - lo) * i / count, lo + (hi - lo) * (i + 1) / count))
        .collect()
}

/// The `wanted` percentile of `values` (in delivery order) as the system
/// itself produces it on a shared host: the mean, over the quietest
/// quarter of the slices of the middle 80 %, of each slice's percentile.
///
/// Interference from the host only ever adds latency, and it comes in
/// stretches: on `paced_busy`, ten healthy runs in a noisy half hour read a
/// whole-window p99 of 4 to 32 ms and a median-of-16-slices p99 of 4.1 to
/// 10.7 ms (spread 24 %), while the quiet-quarter mean read 3.1 to 4.4 ms
/// (spread 3 %). The price is that it reads lower than the whole-run
/// percentile and ignores what happens in three quarters of the run;
/// whole-run tails are reported beside it (`latency.p90_ms`,
/// `latency.max_ms`, `slo.within_10ms_ratio`). The sample-count rule
/// applies to a slice. `None` for an empty run.
pub fn quiet_tail(values: &[u64], wanted: f64) -> Option<Tail> {
    let mut per_slice: Vec<Tail> = slices(values.len())
        .into_iter()
        .map(|(lo, hi)| {
            let mut slice = values[lo..hi].to_vec();
            slice.sort_unstable();
            tail(&slice, wanted)
        })
        .collect();
    per_slice.sort_by_key(|t| t.value);
    let quiet = &per_slice[..per_slice.len().div_ceil(4)];
    let first = quiet.first()?;
    Some(Tail {
        value: quiet.iter().map(|t| t.value).sum::<u64>() / quiet.len() as u64,
        // Equal-count slices differ by one sample at most, so they all
        // report the same percentile.
        quantile: first.quantile,
        samples: first.samples,
    })
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile cut points `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// because that is what the driver computes spreads with. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        // p99 needs 1000 samples, p90 needs 100, the median none.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(supported_quantile(999, 0.99), 0.9);
        assert_eq!(supported_quantile(100, 0.99), 0.9);
        assert_eq!(supported_quantile(99, 0.99), 0.5);
        assert_eq!(supported_quantile(5, 0.5), 0.5);
        // A wanted p90 is never promoted to p99.
        assert_eq!(supported_quantile(1_000_000, 0.9), 0.9);
        let v: Vec<u64> = (1..=200).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.quantile, t.value, t.samples), (0.9, 180, 200));
    }

    #[test]
    fn middle_window_discards_a_tenth_each_side() {
        assert_eq!(middle_window(100), (10, 90));
        assert_eq!(middle_window(1005), (100, 905));
        assert_eq!(middle_window(9), (0, 9));
        assert_eq!(middle_window(0), (0, 0));
    }

    #[test]
    fn slices_tile_the_middle_window() {
        // Plenty of samples: the full count of slices.
        let s = slices(1_000_000);
        assert_eq!(s.len(), MAX_SLICES);
        assert_eq!(s[0], (100_000, 112_500));
        assert_eq!(s[MAX_SLICES - 1], (887_500, 900_000));
        assert!(
            s.windows(2).all(|w| w[0].1 == w[1].0),
            "slices are adjacent"
        );
        // 60 000 deliveries: 48 slices of 1000, each good for a p99.
        let s = slices(60_000);
        assert_eq!(s.len(), 48);
        assert!(s.iter().all(|(lo, hi)| hi - lo == 1000));
        // Too few for even one full slice: one slice, never none.
        assert_eq!(slices(500), vec![(50, 450)]);
        assert_eq!(slices(5), vec![(0, 5)]);
        assert!(slices(0).is_empty());
    }

    #[test]
    fn quiet_tail_is_the_mean_of_the_quietest_quarter() {
        // 80 000 latencies of 1 ms (64 slices of 1000 in the middle 80 %);
        // more than half of the run is disturbed by a noisy neighbour.
        let mut lat = vec![1_000_000u64; 80_000];
        for l in &mut lat[30_000..70_000] {
            *l = 80_000_000;
        }
        let p99 = quiet_tail(&lat, 0.99).expect("non-empty");
        assert_eq!(
            (p99.value, p99.quantile, p99.samples),
            (1_000_000, 0.99, 1000)
        );
        // A system that is slow throughout reads slow.
        let slow = vec![7_000_000u64; 80_000];
        assert_eq!(quiet_tail(&slow, 0.5).expect("non-empty").value, 7_000_000);
        // Too few samples per slice for p99: the rule falls back to p90.
        let few = vec![5u64; 600];
        assert_eq!(quiet_tail(&few, 0.99).expect("non-empty").quantile, 0.9);
        assert!(quiet_tail(&[], 0.5).is_none());
    }

    #[test]
    fn windowed_rate_ignores_slow_edges() {
        // 100 stamps: a slow ramp-up and drain around a steady 1 per ms.
        let mut stamps = Vec::new();
        let mut t = 0u64;
        for i in 0..100 {
            t += match i {
                0..=9 | 90.. => 50_000_000,
                _ => 1_000_000,
            };
            stamps.push(t);
        }
        let rate = windowed_rate(&stamps);
        assert!((rate - 1000.0).abs() < 1e-6, "rate {rate}");
        assert_eq!(windowed_rate(&[1, 2]), 1e9);
        assert_eq!(windowed_rate(&[5]), 0.0);
        assert_eq!(windowed_rate(&[]), 0.0);
        assert_eq!(windowed_rate(&[7, 7, 7]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
