//! Property tests for the telemetry primitives: quantile estimates
//! bracket the true order statistics to within bucket error, concurrent
//! counter increments sum exactly, and label values — control characters
//! included — round-trip through the exposition renderer and parser.

use obs::metrics::{bucket_lower, bucket_upper};
use obs::{parse_exposition, Counter, Histogram, HistogramSnapshot, Registry};
use proptest::prelude::*;
use std::sync::Arc;

fn hist_of(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// The true q-th percentile of `values` under the histogram's rank
/// convention: the `ceil(q/100 × n)`-th smallest value (rank at least 1).
fn true_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The estimated quantile's bucket brackets the true order statistic:
    /// bucket_lower ≤ true value ≤ bucket_upper (= the estimate). Values
    /// span nine orders of magnitude to exercise many octaves.
    #[test]
    fn quantiles_bracket_true_values(
        values in collection::vec(0u64..1_000_000_000, 1..128),
        q in 0.0f64..=100.0,
    ) {
        let snapshot = hist_of(&values);
        let truth = true_quantile(&values, q);
        let bucket = snapshot.quantile_bucket(q).expect("non-empty");
        prop_assert!(
            bucket_lower(bucket) <= truth && truth <= bucket_upper(bucket),
            "q={q}: true {truth} outside bucket [{}, {}]",
            bucket_lower(bucket),
            bucket_upper(bucket)
        );
        prop_assert_eq!(snapshot.quantile(q), bucket_upper(bucket));
    }

    /// N threads × M increments each lose nothing.
    #[test]
    fn concurrent_counter_increments_sum_exactly(
        threads in 1usize..8,
        per_thread in 1u64..2_000,
    ) {
        let counter = Arc::new(Counter::new());
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        counter.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(counter.get(), threads as u64 * per_thread);
    }

    /// Label values round-trip exactly through render → parse, including
    /// the escape-sensitive characters (`\`, `"`, newline, the literal
    /// two-character `\n`, tabs) and label-syntax lookalikes.
    #[test]
    fn label_values_round_trip_through_exposition(
        value in collection::vec(0usize..14, 0..24).prop_map(|idxs| {
            // Escape-sensitive characters, label-syntax lookalikes, and
            // plain filler, weighted equally.
            const CHARS: [char; 14] = [
                '\\', '"', '\n', '\t', 'n', ',', '=', '{', '}', ' ',
                'a', 'z', '0', '9',
            ];
            idxs.into_iter().map(|i| CHARS[i]).collect::<String>()
        }),
    ) {
        let reg = Registry::new();
        reg.counter("m_total", "", &[("k", &value)]).add(3);
        let scrape = parse_exposition(&reg.render_prometheus());
        prop_assert_eq!(scrape.samples.len(), 1);
        prop_assert_eq!(scrape.samples[0].label("k"), Some(value.as_str()));
        prop_assert_eq!(scrape.samples[0].value, 3.0);
    }

    /// Weighted recording is equivalent to repeating the plain record.
    #[test]
    fn weighted_equals_repeated(
        v in 0u64..100_000,
        w in 1u64..200,
    ) {
        let weighted = Histogram::new();
        weighted.record_weighted(v, w);
        let repeated = Histogram::new();
        for _ in 0..w {
            repeated.record(v);
        }
        prop_assert_eq!(weighted.snapshot(), repeated.snapshot());
    }
}
