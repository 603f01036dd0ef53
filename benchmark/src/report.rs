//! Turns the raw observations of a run into named metrics, and runs the
//! correctness gate over them.

use crate::live::RunData;
use crate::matcher::{match_deliveries, MatchReport};
use crate::stats;
use crate::workload::{Load, Plan, Spec};
use hetsyslog_core::{Category, TextClassifier, TraditionalPipeline};
use hetsyslog_ml::ConfusionMatrix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_msgs_per_s", "msgs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_us_per_msg", "us"),
    ("peak_rss_mb", "MB"),
    ("delivered_ratio", "ratio"),
    ("weighted_f1", "ratio"),
    ("query_p50_ms", "ms"),
];

/// Counters read in situ after every live run: `(name, unit)`.
pub const IN_SITU: [(&str, &str); 18] = [
    ("listener.mean_batch_size", "count"),
    ("listener.deadline_flush_ratio", "ratio"),
    ("shard.steal_ratio", "ratio"),
    ("shard.skew", "ratio"),
    ("shard.classify_ns_per_msg_insitu", "ns"),
    ("shard.insert_ns_per_msg_insitu", "ns"),
    ("reactor.wakeups_per_kmsg", "count"),
    ("reactor.bytes_per_read", "bytes"),
    ("sink.reorder_ratio", "ratio"),
    ("sink.retries", "count"),
    ("gen.late_p99_us", "us"),
    ("gen.cpu_us_per_msg", "us"),
    ("latency.p90_ms", "ms"),
    ("latency.max_ms", "ms"),
    ("slo.within_10ms_ratio", "ratio"),
    ("query.p90_ms", "ms"),
    ("query.count", "count"),
    ("store.segments", "count"),
];

/// Latency limit of the SLO workload (`paced_busy`), milliseconds.
pub const SLO_MS: f64 = 10.0;
/// A paced run whose generator ran later than this at p99 (median over the
/// slices of its send log) is invalid: its due times were not honoured.
const MAX_LATE_P99_US: f64 = 5_000.0;
/// Messages on which scalar `classify` must equal the batch path.
const SCALAR_SAMPLE: usize = 2_000;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or median, when that is what this is.
    pub samples: Option<usize>,
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
            note: None,
        }
    }
}

/// The verdict on one run.
pub struct Evaluation {
    pub end_to_end: Vec<Metric>,
    pub in_situ: Vec<Metric>,
    /// What the replay needs from the live pass.
    pub mean_batch_size: f64,
    pub cpu_us_per_msg: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Gate checks that did not hold; empty means the run is correct.
    pub problems: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sorted copy.
fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

/// `(value in ms, samples, note)` of a percentile; 0 when there was
/// nothing to take it of (the caller reports that as a problem).
fn tail_cell(tail: Option<stats::Tail>, wanted: f64) -> (f64, Option<usize>, Option<String>) {
    let Some(t) = tail else {
        return (0.0, None, None);
    };
    let note = (t.quantile != wanted).then(|| {
        format!(
            "p{} reported: {} samples leave fewer than ten beyond p{}",
            t.quantile * 100.0,
            t.samples,
            wanted * 100.0
        )
    });
    (ms(t.value), Some(t.samples), note)
}

/// Category index of every message under one offline `classify_batch`.
fn offline_predictions(plan: &Plan, classifier: &TraditionalPipeline) -> Vec<u8> {
    let texts: Vec<&str> = plan
        .messages
        .place
        .iter()
        .map(|&(c, k)| plan.conns[c as usize].text(k as usize))
        .collect();
    classifier
        .classify_batch(&texts)
        .into_iter()
        .map(|p| p.category.index() as u8)
        .collect()
}

pub fn evaluate(
    spec: &Spec,
    plan: &Plan,
    classifier: &TraditionalPipeline,
    data: &RunData,
    seed: u64,
    setup_s: &[f64],
) -> Evaluation {
    let sent = data.sends.len() as u64;
    let situ = &data.in_situ;
    let mut problems = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };

    // Conservation: every frame sent is stored once and delivered once.
    let matched: MatchReport = match_deliveries(&data.sends, &data.deliveries);
    check(
        data.drained,
        "the run did not drain within the timeout".into(),
    );
    check(
        situ.ingest.frames == sent && situ.ingest.ingested == sent && situ.stored == sent,
        format!(
            "sent {sent} but listener decoded {}, ingested {}, store holds {}",
            situ.ingest.frames, situ.ingest.ingested, situ.stored
        ),
    );
    check(
        data.deliveries.len() as u64 == sent,
        format!(
            "sent {sent} but the sink received {}",
            data.deliveries.len()
        ),
    );
    let dropped = situ.ingest.total_dropped() + situ.dead_letters;
    check(
        dropped == 0,
        format!(
            "{} frames dropped, {} dead letters",
            situ.ingest.total_dropped(),
            situ.dead_letters
        ),
    );
    let mut sink_dropped = 0;
    for s in &situ.sinks {
        sink_dropped += s.dropped + s.spilled_pending;
        check(
            s.ledger_balanced() && s.delivered == sent && s.dropped == 0,
            format!(
                "sink ledger: in {} out {} delivered {} dropped {}",
                s.ledger_in(),
                s.ledger_out(),
                s.delivered,
                s.dropped
            ),
        );
    }
    check(
        matched.failed() == 0,
        format!(
            "(node, text) match: {} deliveries without a send, {} sends never delivered",
            matched.unexpected, matched.missing
        ),
    );

    // Classification: the live path must agree with one offline batch,
    // and the batch path with scalar `classify`.
    let predicted = offline_predictions(plan, classifier);
    let mut expected = [0u64; 8];
    for send in &data.sends {
        expected[predicted[send.msg as usize] as usize] += 1;
    }
    check(
        situ.monitor.per_category == expected,
        format!(
            "MonitorService per_category {:?} differs from offline classify_batch {:?}",
            situ.monitor.per_category, expected
        ),
    );
    let wrong_category = matched
        .pairs
        .iter()
        .filter(|p| p.category != predicted[p.msg as usize])
        .count() as u64;
    check(
        wrong_category == 0,
        format!("{wrong_category} records delivered with a category other than the offline one"),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x005c_a1a4);
    let scalar_differs = (0..SCALAR_SAMPLE.min(predicted.len()))
        .filter(|_| {
            let m = rng.gen_range(0..predicted.len());
            let (c, k) = plan.messages.place[m];
            let text = plan.conns[c as usize].text(k as usize);
            classifier.classify(text).category.index() as u8 != predicted[m]
        })
        .count();
    check(
        scalar_differs == 0,
        format!("scalar classify differs from batch on {scalar_differs} of {SCALAR_SAMPLE}"),
    );

    // Weighted F1 over each distinct message sent, so the number depends
    // on the seed and not on how many passes a run completed.
    let mut was_sent = vec![false; predicted.len()];
    for send in &data.sends {
        was_sent[send.msg as usize] = true;
    }
    let (truth, guess): (Vec<usize>, Vec<usize>) = (0..predicted.len())
        .filter(|&m| was_sent[m])
        .map(|m| (plan.messages.label[m] as usize, predicted[m] as usize))
        .unzip();
    let weighted_f1 =
        ConfusionMatrix::from_predictions(&Category::all_labels(), &truth, &guess).weighted_f1();

    // Timing.
    let stamps: Vec<u64> = data.deliveries.iter().map(|d| d.at_ns).collect();
    let throughput = stats::windowed_rate(&stamps);
    let in_delivery_order: Vec<u64> = matched.pairs.iter().map(|p| p.latency_ns).collect();
    let latencies = sorted(&in_delivery_order);
    let queries = sorted(&data.query_ns);
    // Taken like the latencies: a stall of the system blocks the socket
    // and makes the generator late through no fault of its own; that cost
    // is in the latencies, which are taken from the due times.
    let late_p99_us = stats::quiet_tail(&data.late_ns, 0.99).map_or(0.0, |t| t.value as f64 / 1e3);
    let delivered = data.deliveries.len().max(1) as f64;
    let cpu_us_per_msg =
        (data.process_cpu_s - data.generator_cpu_s - data.analyst_cpu_s) * 1e6 / delivered;

    if let Load::Paced { rate } = spec.load {
        check(
            late_p99_us <= MAX_LATE_P99_US,
            format!(
                "invalid run: the generator ran {late_p99_us:.0} us late at p99 \
                 (limit {MAX_LATE_P99_US} us), so due times were not honoured"
            ),
        );
        // A backlog that grows shows as deliveries trailing the schedule.
        let last_due = data.sends.iter().map(|s| s.due_ns).max().unwrap_or(0);
        let trailing_s = stamps
            .last()
            .map_or(0.0, |&t| t.saturating_sub(last_due) as f64 / 1e9);
        check(
            throughput >= 0.99 * rate as f64 || trailing_s < 0.1,
            format!(
                "SLO miss: delivered {throughput:.0} msgs/s of {rate} offered and the last \
                 delivery trailed the schedule by {trailing_s:.3} s (a growing backlog)"
            ),
        );
    }

    let failed = (matched.failed() + wrong_category + dropped + sink_dropped).min(sent);
    if latencies.is_empty() {
        problems.push("no delivery matched a send: no latency to report".into());
    }
    if queries.is_empty() {
        problems.push("no analyst query pair completed".into());
    }
    // Throughput is taken over the middle 80 % of deliveries, latency
    // percentiles over its quietest slices (see `stats::quiet_tail`); the
    // query pair is a plain median.
    let plain = |value: f64| (value, None, None);
    let end_to_end_values = [
        (stats::median(setup_s), Some(setup_s.len()), None),
        (throughput, Some(stamps.len()), None),
        tail_cell(stats::quiet_tail(&in_delivery_order, 0.5), 0.5),
        tail_cell(stats::quiet_tail(&in_delivery_order, 0.99), 0.99),
        plain(cpu_us_per_msg),
        (
            data.peak_rss_mb,
            None,
            (!data.rss_as_specified).then(|| {
                format!(
                    "growth up to the drain: the run ended short of the {} records up \
                     to which this workload measures it",
                    spec.rss_checkpoint
                )
            }),
        ),
        plain(1.0 - ratio(failed, sent)),
        (weighted_f1, Some(truth.len()), None),
        tail_cell(
            (!queries.is_empty()).then(|| stats::tail(&queries, 0.5)),
            0.5,
        ),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(end_to_end_values)
        .map(|(&(name, unit), (value, samples, note))| Metric {
            samples,
            note,
            ..Metric::new(name, unit, value)
        })
        .collect();

    let (shards, reactors) = (&situ.shards, &situ.reactors);
    let p90_ms = |sorted: &[u64]| {
        if sorted.is_empty() {
            0.0
        } else {
            ms(stats::tail(sorted, 0.9).value)
        }
    };
    let in_situ_values = [
        situ.batch.mean_batch_size(),
        ratio(situ.batch.deadline_flushes, situ.batch.batches),
        ratio(shards.stolen_frames, shards.processed),
        ratio(shards.busiest * shards.shards, shards.processed),
        ratio(shards.classify_us * 1000, shards.processed),
        ratio(shards.insert_us * 1000, shards.processed),
        ratio(reactors.wakeups * 1000, sent),
        ratio(reactors.read_bytes, reactors.reads),
        ratio(matched.reordered, matched.pairs.len() as u64),
        situ.sinks.iter().map(|s| s.retries).sum::<u64>() as f64,
        late_p99_us,
        data.generator_cpu_s * 1e6 / delivered,
        p90_ms(&latencies),
        latencies.last().map_or(0.0, |&l| ms(l)),
        ratio(
            latencies.partition_point(|&l| ms(l) <= SLO_MS) as u64,
            latencies.len() as u64,
        ),
        p90_ms(&queries),
        // Pairs run beside ingest; 0 when the pair was only timed on the
        // quiescent store.
        if spec.analyst {
            queries.len() as f64
        } else {
            0.0
        },
        situ.segments as f64,
    ];
    let in_situ = IN_SITU
        .iter()
        .zip(in_situ_values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value))
        .collect();

    Evaluation {
        end_to_end,
        in_situ,
        mean_batch_size: situ.batch.mean_batch_size(),
        cpu_us_per_msg,
        attempted: sent.max(1),
        failed: if problems.is_empty() {
            failed
        } else {
            failed.max(1)
        },
        problems,
    }
}
