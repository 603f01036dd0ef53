//! Property tests for the template-mining columnar store (issue
//! satellite): the codec is a **storage format**, so the bar is exact —
//! encode→decode must be byte-identical for arbitrary token streams, and
//! the decompression-skipping template counts must agree with a naive
//! full-scan oracle.

use hetsyslog_core::Category;
use logpipeline::columnar::{compress_block, decompress_block, Segment};
use logpipeline::LogRecord;
use proptest::prelude::*;
use std::collections::BTreeMap;
use syslog_model::{Facility, Severity};
use textproc::template;

/// Adversarial fixed messages: runs of spaces, empty strings, tabs, and
/// the literal `<*>` variable marker.
const EDGE_MESSAGES: [&str; 6] = [
    "",
    "  ",
    " leading and trailing ",
    "a  double  space",
    "<*> literal marker",
    "tab\tinside word",
];

/// Messages that exercise the miner: a few shared skeletons with variable
/// slots (the realistic case), arbitrary printable strings, and the
/// adversarial edge messages above.
fn message_strategy() -> impl Strategy<Value = String> {
    (0u32..8, 0u32..50, 0u32..8, "[ -~]{0,40}").prop_map(|(pick, v, n, free)| match pick {
        0..=2 => format!("temperature {v}C on node cn{n:02}"),
        3 | 4 => format!("I/O error on /dev/sd{n} pid {v}"),
        5 => EDGE_MESSAGES[(v as usize) % EDGE_MESSAGES.len()].to_string(),
        _ => free,
    })
}

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    (
        (0u64..u64::MAX, -3600i64..3600, 0u32..8, 0u32..4),
        (0u8..8, 0u8..24, 0usize..16, message_strategy()),
    )
        .prop_map(|((id, t, node, app), (sev, fac, cat, message))| LogRecord {
            id,
            unix_seconds: t,
            node: format!("cn{node:02}"),
            app: format!("app{app}"),
            severity: Severity::from_code(sev).unwrap(),
            facility: Facility::from_code(fac).unwrap(),
            message,
            // Half the draws carry no category (None round-trips too).
            category: Category::from_index(cat),
        })
}

proptest! {
    /// Template mining + reconstruction is byte-identical for arbitrary
    /// message batches, at any similarity threshold.
    #[test]
    fn mining_round_trip_is_byte_identical(
        messages in collection::vec(message_strategy(), 0..40),
        threshold in 0.05f64..1.0,
    ) {
        let (templates, rows) = template::mine(&messages, threshold);
        prop_assert_eq!(rows.len(), messages.len());
        for (msg, (id, vars)) in messages.iter().zip(&rows) {
            prop_assert_eq!(
                &templates[*id as usize].reconstruct(vars),
                msg,
                "reconstruction must be lossless"
            );
        }
    }

    /// The block compressor round-trips arbitrary bytes exactly.
    #[test]
    fn block_compression_round_trips(data in collection::vec(0u8..=255, 0..2000)) {
        let block = compress_block(&data);
        prop_assert_eq!(decompress_block(&block), Some(data));
    }

    /// Segment encode → decode reproduces every record exactly (all
    /// fields, message byte-identical), in insertion order.
    #[test]
    fn segment_round_trip_is_lossless(records in collection::vec(record_strategy(), 0..60)) {
        let segment = Segment::build(&records, 0.5);
        prop_assert_eq!(segment.n_rows(), records.len());
        let mut decoded = Vec::new();
        segment.scan_filtered(|_| true, |r| decoded.push(r.clone()));
        prop_assert_eq!(&decoded, &records);
    }

    /// `count_rows_by_template` — which skips decompression for fully
    /// covered segments and decodes only two columns otherwise — agrees
    /// with a naive oracle that fully decodes the segment and re-derives
    /// each row's count by scanning every template's rows.
    #[test]
    fn template_counts_match_full_scan_oracle(
        records in collection::vec(record_strategy(), 1..60),
        from in -4000i64..4000,
        len in 0i64..8000,
    ) {
        let segment = Segment::build(&records, 0.5);
        let to = from.saturating_add(len);

        // Oracle: per template pattern, count decoded rows in range by
        // scanning each template's rows independently. Aggregated by
        // pattern string, like the fast path, in case two clusters
        // converge to the same pattern.
        let mut oracle: BTreeMap<String, u64> = BTreeMap::new();
        let patterns: Vec<String> =
            segment.template_patterns().iter().map(|p| p.to_string()).collect();
        for (idx, pattern) in patterns.iter().enumerate() {
            let mut n = 0u64;
            segment.template_scan(idx, |rec| {
                if rec.unix_seconds >= from && rec.unix_seconds < to {
                    n += 1;
                }
            });
            if n > 0 {
                *oracle.entry(pattern.clone()).or_default() += n;
            }
        }

        let mut fast = BTreeMap::new();
        segment.count_rows_by_template(from, to, &mut fast);
        prop_assert_eq!(&fast, &oracle);
        // Full coverage (the zero-decompression path) must count all rows.
        let mut all = BTreeMap::new();
        segment.count_rows_by_template(i64::MIN, i64::MAX, &mut all);
        prop_assert_eq!(all.values().sum::<u64>(), records.len() as u64);
    }
}
