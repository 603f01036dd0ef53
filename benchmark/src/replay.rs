//! The traced run: a single-threaded replay of the calls a listener worker
//! makes, over the workload's own frames, in batches of the mean batch
//! size the live run observed.
//!
//! Spans are recorded here, around the calls into each layer's public
//! functions; the program under test carries none. The fused
//! `MonitorService::ingest_frames` is one opaque call, so its parts
//! (parse, tokenize, transform, predict) are re-run in isolation on the
//! same batch and `service.overhead` is what the fused call costs beyond
//! them. The replay pins the vendored rayon shim to one thread, so wall
//! time is CPU time and `replay.msgs_per_s` is a single-thread baseline.

use crate::alloc;
use crate::live::{search_terms, train_parts, training_corpus};
use crate::report::Metric;
use crate::spans::{self, LayerTotals, Recorder, Span};
use crate::stats;
use crate::workload::{Plan, Spec};
use hetsyslog_core::{FrameOutcome, MonitorService, TraditionalPipeline};
use logpipeline::{
    FanOut, LogRecord, LogStore, ShardReceiver, ShardRouter, Sink, SinkBatch, SinkError, SinkSpec,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use syslog_model::FrameDecoder;
use textproc::Tokenizer;

/// Bytes fed to `FrameDecoder::push` per call.
const DECODE_CHUNK: usize = 16 * 1024;
/// Quiescent-store queries timed per kind; the median is reported.
const STORE_QUERIES: usize = 11;

/// The eight layers whose time and allocations are reported per message;
/// each is both the name of its span and the prefix of its metrics.
const LAYERS: [&str; 8] = [
    "framing.decode",
    "syslog.parse",
    "textproc.tokenize",
    "features.transform",
    "ml.predict",
    "record.build",
    "sink.submit",
    "store.insert",
];

/// Per-layer metrics of the replay, in output order: `(name, unit)`.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for prefix in LAYERS {
        names.push((format!("{prefix}_ns_per_msg"), "ns"));
        names.push((format!("{prefix}.allocs_per_msg"), "count"));
        names.push((format!("{prefix}.alloc_bytes_per_msg"), "bytes"));
    }
    for (name, unit) in [
        ("features.nnz_per_msg", "count"),
        ("service.ingest_frames_ns_per_msg", "ns"),
        ("service.overhead_ns_per_msg", "ns"),
        ("shard.ring_ns_per_msg", "ns"),
        ("store.seal_ns_per_msg", "ns"),
        ("store.search_us", "us"),
        ("store.count_by_template_us", "us"),
        ("replay.attributed_ns_per_msg", "ns"),
        ("replay.msgs_per_s", "1/s"),
        ("cpu.unattributed_us_per_msg", "us"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

struct NullSink;

impl Sink for NullSink {
    fn name(&self) -> &str {
        "null"
    }

    fn submit_batch(&self, _batch: &SinkBatch) -> Result<(), SinkError> {
        Ok(())
    }
}

/// A frame as the listener queues it: source, text, enqueue time.
type Queued = (u64, String, Instant);

struct Pass {
    recorder: Recorder,
    store: LogStore,
    msgs: u64,
    nnz: u64,
    wall_ns: u64,
}

/// The system-under-test pieces one pass drives, as a worker holds them.
struct Bench {
    store: LogStore,
    service: MonitorService,
    fan_out: Arc<FanOut>,
    router: ShardRouter<Queued>,
    receiver: ShardReceiver<Queued>,
    tokenizer: Tokenizer,
}

struct Context<'a> {
    spec: &'a Spec,
    plan: &'a Plan,
    classifier: Arc<TraditionalPipeline>,
    pipeline: hetsyslog_core::FeaturePipeline,
    model: Box<dyn hetsyslog_ml::BatchClassifier>,
    batch_size: usize,
}

impl Context<'_> {
    /// One pass over the replayed frames, with spans on or off.
    fn pass(&self, traced: bool) -> Pass {
        let frames_per_conn = self.spec.replay_frames / self.plan.conns.len();
        let expected_batches = self.spec.replay_frames / self.batch_size + 2;
        let mut rec = Recorder::new(traced, expected_batches * 12 + 1024);
        let (router, mut receivers) = ShardRouter::<Queued>::build(2, 1024);
        let bench = Bench {
            store: LogStore::with_lanes(2),
            service: MonitorService::new(self.classifier.clone()),
            fan_out: FanOut::open(vec![SinkSpec::new(Arc::new(NullSink))], None)
                .expect("a fan-out without a spill directory opens"),
            router,
            receiver: receivers.swap_remove(0),
            tokenizer: Tokenizer::default(),
        };
        let mut msgs = 0u64;
        let mut nnz = 0u64;
        let mut batch_id = 0u32;
        let started = Instant::now();
        for (source, conn) in self.plan.conns.iter().enumerate() {
            let frames = frames_per_conn.min(conn.frames());
            let mut decoder = FrameDecoder::new();
            let mut pending: Vec<String> = Vec::new();
            let chunks = conn.wire[..conn.ends[frames]].chunks(DECODE_CHUNK);
            let last_chunk = chunks.len().saturating_sub(1);
            for (i, chunk) in chunks.enumerate() {
                let decoded = rec.span(
                    "framing.decode",
                    "framing",
                    batch_id,
                    |_| decoder.push(chunk),
                    Vec::len,
                );
                pending.extend(decoded);
                while pending.len() >= self.batch_size || (i == last_chunk && !pending.is_empty()) {
                    let n = self.batch_size.min(pending.len());
                    let batch: Vec<String> = pending.drain(..n).collect();
                    batch_id += 1;
                    msgs += n as u64;
                    nnz += self.worker_batch(&bench, &mut rec, batch_id, source as u64, batch);
                }
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        bench.fan_out.shutdown(Duration::from_secs(5));
        Pass {
            recorder: rec,
            store: bench.store,
            msgs,
            nnz,
            wall_ns,
        }
    }

    /// What a listener worker does with one batch; returns the batch's
    /// CSR non-zeros.
    fn worker_batch(
        &self,
        bench: &Bench,
        rec: &mut Recorder,
        id: u32,
        source: u64,
        frames: Vec<String>,
    ) -> u64 {
        let Bench {
            store,
            service,
            fan_out,
            router,
            receiver,
            tokenizer,
        } = bench;
        let ring = &receiver.own;
        let n = frames.len();
        rec.span(
            "worker.batch",
            "worker",
            id,
            |rec| {
                // Reactor side then worker side of the shard ring, as
                // `FrameSink::submit_many` and the drain loop use it,
                // with nobody else on the ring.
                let queued = rec.span(
                    "shard.ring",
                    "shard",
                    id,
                    |_| {
                        let at = Instant::now();
                        router
                            .send_many(0, frames.into_iter().map(|f| (source, f, at)))
                            .expect("replay ring has a consumer");
                        let deadline = Instant::now() + Duration::from_millis(2);
                        let mut batch = Vec::with_capacity(n);
                        batch.push(ring.recv_deadline(deadline).expect("frame was just queued"));
                        ring.drain_into(&mut batch, n, deadline);
                        batch
                    },
                    Vec::len,
                );
                let texts: Vec<&str> = queued.iter().map(|q| q.1.as_str()).collect();
                let outcomes = rec.span(
                    "service.ingest_frames",
                    "service",
                    id,
                    |_| service.ingest_frames(&texts),
                    Vec::len,
                );
                // The parts of the fused call, re-run in isolation on the
                // same batch. Not part of the replayed path: excluded
                // from attribution and from the baseline rate.
                let nnz = rec.span(
                    "isolated",
                    "isolated",
                    id,
                    |rec| {
                        let parsed = rec.span(
                            "syslog.parse",
                            "syslog",
                            id,
                            |_| {
                                texts
                                    .iter()
                                    .map(|f| {
                                        syslog_model::parse(f).expect("generated frame parses")
                                    })
                                    .collect::<Vec<_>>()
                            },
                            Vec::len,
                        );
                        let messages: Vec<&str> =
                            parsed.iter().map(|m| m.message.as_str()).collect();
                        rec.span(
                            "textproc.tokenize",
                            "textproc",
                            id,
                            |_| {
                                let mut bytes = 0usize;
                                for m in &messages {
                                    tokenizer.tokenize_each(m, |t| bytes += t.len());
                                }
                                black_box(bytes)
                            },
                            |_| n,
                        );
                        let csr = rec.span(
                            "features.transform",
                            "features",
                            id,
                            |_| self.pipeline.transform_batch_csr(&messages),
                            |m| m.n_rows(),
                        );
                        black_box(rec.span(
                            "ml.predict",
                            "ml",
                            id,
                            |_| self.model.predict_csr(&csr),
                            Vec::len,
                        ));
                        csr.nnz() as u64
                    },
                    |_| n,
                );
                let records = rec.span(
                    "record.build",
                    "record",
                    id,
                    |_| {
                        outcomes
                            .into_iter()
                            .map(|outcome| match outcome {
                                FrameOutcome::Classified {
                                    message,
                                    prediction,
                                } => {
                                    let mut record = LogRecord::from_message_owned(
                                        store.allocate_id(),
                                        message,
                                        0,
                                    );
                                    record.category = Some(prediction.category);
                                    record
                                }
                                FrameOutcome::Prefiltered { message } => {
                                    LogRecord::from_message_owned(store.allocate_id(), message, 0)
                                }
                                FrameOutcome::ParseError => {
                                    unreachable!("generated frames parse")
                                }
                            })
                            .collect::<Vec<_>>()
                    },
                    Vec::len,
                );
                rec.span(
                    "sink.submit",
                    "sink",
                    id,
                    |_| fan_out.submit(&records),
                    |_| n,
                );
                rec.span(
                    "store.insert",
                    "store",
                    id,
                    |_| store.insert_batch_affine(0, records),
                    |_| n,
                );
                nnz
            },
            |_| n,
        )
    }
}

/// What the traced run adds to a workload's report.
pub struct Replayed {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    pub batch_size: usize,
    /// Human-readable reconciliation table.
    pub table: String,
}

fn per_msg(total: u64, msgs: u64) -> f64 {
    total as f64 / msgs.max(1) as f64
}

fn median_us(spans: &[Span], name: &str) -> f64 {
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    if us.is_empty() {
        0.0
    } else {
        stats::median(&us)
    }
}

/// Run the replay for `spec`. `mean_batch` and `cpu_us_per_msg` come from
/// the live (untraced) pass of the same process.
pub fn replay(
    spec: &Spec,
    plan: &Plan,
    classifier: Arc<TraditionalPipeline>,
    mean_batch: f64,
    cpu_us_per_msg: f64,
) -> Replayed {
    // Read per call by the rayon shim. Safe to set here: the live rig has
    // been shut down and joined, so no other thread reads the environment.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (pipeline, model) = train_parts(spec.model, &training_corpus());
    let context = Context {
        spec,
        plan,
        classifier,
        pipeline,
        model,
        batch_size: (mean_batch.round() as usize).clamp(1, 64),
    };

    // Spans off (the overhead baseline) and on, twice each and
    // alternating; the overhead is the ratio of the faster of each, which
    // a neighbour's burst on a shared box cannot inflate.
    let mut plain_ns = u64::MAX;
    let mut traced_ns = u64::MAX;
    let mut traced = None;
    for _ in 0..2 {
        plain_ns = plain_ns.min(context.pass(false).wall_ns);
        alloc::set_counting(true);
        let pass = context.pass(true);
        alloc::set_counting(false);
        traced_ns = traced_ns.min(pass.wall_ns);
        traced = Some(pass);
    }
    let mut traced = traced.expect("two traced passes ran");
    let msgs = traced.msgs;
    alloc::set_counting(true);

    // Store queries and the seal, on the quiescent replay store.
    let store = &traced.store;
    let rec = &mut traced.recorder;
    // Event-time range of the frames the replay stored.
    let per_conn = spec.replay_frames / plan.conns.len();
    let event_times = plan.conns.iter().flat_map(|conn| {
        conn.msg[..per_conn.min(conn.frames())]
            .iter()
            .map(|&m| plan.messages.unix_seconds[m as usize])
    });
    let (oldest, newest) =
        event_times.fold((i64::MAX, i64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
    let terms = search_terms();
    for _ in 0..STORE_QUERIES {
        black_box(rec.span(
            "store.search",
            "store",
            0,
            |_| store.search(newest - 120, newest + 1, &terms),
            Vec::len,
        ));
    }
    let sealed = rec.span(
        "store.seal",
        "store",
        0,
        |_| store.seal_all(),
        |&rows| rows as usize,
    );
    for _ in 0..STORE_QUERIES {
        black_box(rec.span(
            "store.count_by_template",
            "store",
            0,
            |_| store.count_by_template(oldest, newest + 1),
            |counts| counts.len(),
        ));
    }
    alloc::set_counting(false);
    std::env::remove_var("RAYON_NUM_THREADS");

    let spans = traced.recorder.spans().to_vec();
    let own = spans::self_times(&spans);
    let total = |name: &str| -> LayerTotals { spans::totals_for(&spans, &own, name) };
    let ns_per_msg = |name: &str| per_msg(total(name).self_ns, msgs);

    // Σ layer self times along the replayed path: decode, ring, the fused
    // call (= parse + transform + predict + overhead), build, submit,
    // insert, and the seal where the workload seals.
    let fused = ns_per_msg("service.ingest_frames");
    let ring = ns_per_msg("shard.ring");
    let seal = total("store.seal").self_ns;
    let seal_on_path = if spec.seal_threshold > 0 {
        per_msg(seal, msgs)
    } else {
        0.0
    };
    let attributed = ns_per_msg("framing.decode")
        + ring
        + fused
        + ns_per_msg("record.build")
        + ns_per_msg("sink.submit")
        + ns_per_msg("store.insert")
        + seal_on_path;
    let overhead = fused
        - ns_per_msg("syslog.parse")
        - ns_per_msg("features.transform")
        - ns_per_msg("ml.predict");
    // The replayed path's wall time: everything but the isolated re-runs.
    let path_ns = traced.wall_ns.saturating_sub(total("isolated").total_ns);

    let mut values = Vec::new();
    let mut table = format!(
        "  replay of {msgs} messages in batches of {} (single thread)\n  {:<28}{:>12}{:>8}{:>12}{:>14}\n",
        context.batch_size, "layer", "ns/msg", "share", "allocs/msg", "bytes/msg"
    );
    let mut row = |label: &str, ns: f64, allocs: Option<(f64, f64)>| {
        table.push_str(&format!("  {label:<28}{ns:>12.1}{:>8.3}", ns / attributed));
        if let Some((count, bytes)) = allocs {
            table.push_str(&format!("{count:>12.2}{bytes:>14.1}"));
        }
        table.push('\n');
    };
    for prefix in LAYERS {
        let t = total(prefix);
        let (ns, allocs, bytes) = (
            per_msg(t.self_ns, msgs),
            per_msg(t.allocs, msgs),
            per_msg(t.alloc_bytes, msgs),
        );
        values.extend([ns, allocs, bytes]);
        row(prefix, ns, Some((allocs, bytes)));
    }
    row("service.overhead", overhead, None);
    row("shard.ring", ring, None);
    row("store.seal (where sealing)", seal_on_path, None);
    row(
        "replay loop (not attributed)",
        ns_per_msg("worker.batch"),
        None,
    );
    values.extend([
        per_msg(traced.nnz, msgs),
        fused,
        overhead,
        ring,
        per_msg(seal, sealed),
        median_us(&spans, "store.search"),
        median_us(&spans, "store.count_by_template"),
        attributed,
        msgs as f64 * 1e9 / path_ns.max(1) as f64,
        cpu_us_per_msg - attributed / 1e3,
        traced_ns as f64 / plain_ns.max(1) as f64,
    ]);
    let names = metric_names();
    assert_eq!(names.len(), values.len(), "one value per named metric");
    let metrics = names
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| Metric::new(&name, unit, value))
        .collect();
    table.push_str(&format!(
        "  {:<28}{attributed:>12.1}   = decode + ring + ingest_frames (parse + transform + predict\n\
         \x20 {:<28}{:>12}     + overhead) + build + submit + insert (+ seal); tokenize is inside transform\n\
         \x20 {:<28}{:>12.1}   = cpu_us_per_msg {cpu_us_per_msg:.3} us - attributed: sockets, ring\n\
         \x20 {:<28}{:>12}     contention, wake-ups, sink lane, thread spawns, scheduling\n",
        "replay.attributed ns/msg",
        "",
        "",
        "cpu.unattributed ns/msg",
        cpu_us_per_msg * 1e3 - attributed,
        "",
        "",
    ));
    Replayed {
        metrics,
        spans,
        batch_size: context.batch_size,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_metric_is_named_once() {
        let names = metric_names();
        let mut unique: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names.len(), LAYERS.len() * 3 + 11);
    }
}
