//! Release-mode smoke test for the live micro-batched classify path:
//! 20k frames over loopback TCP through a real trained classifier, once
//! with `max_batch = 1` (batches of one frame) and once with `max_batch = 64`.
//! Asserts the batched run is at least as fast and predicts identically.
//!
//! Ignored by default — timing assertions are only meaningful in release
//! builds on an otherwise idle machine. CI runs it serially with
//! `cargo test --release -- --ignored`.

use datagen::{generate_corpus, CorpusConfig, StreamConfig, StreamGenerator};
use hetsyslog_core::{FeatureConfig, MonitorService, TextClassifier, TraditionalPipeline};
use hetsyslog_ml::ComplementNaiveBayes;
use logpipeline::{ListenerConfig, LogStore, OverloadPolicy, SyslogListener};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One loopback run: stream `frames` over 4 octet-counted TCP connections
/// into a listener with `clf` in-path at the given `max_batch`. Returns
/// (msgs/s, per-category counters).
fn run_once(frames: &[String], clf: Arc<dyn TextClassifier>, max_batch: usize) -> (f64, [u64; 8]) {
    const CONNECTIONS: usize = 4;
    let store = Arc::new(LogStore::new());
    let service = Arc::new(MonitorService::new(clf));
    let listener = SyslogListener::start(
        store,
        Some(service.clone()),
        ListenerConfig {
            workers: 4,
            queue_depth: 4096,
            overload: OverloadPolicy::Block,
            max_batch,
            max_delay: Duration::from_millis(2),
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = listener.tcp_addr();

    let started = Instant::now();
    let senders: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let shard: Vec<String> = frames
                .iter()
                .skip(c)
                .step_by(CONNECTIONS)
                .cloned()
                .collect();
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("connect");
                let mut wire = Vec::with_capacity(shard.iter().map(|f| f.len() + 8).sum());
                for frame in &shard {
                    wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
                }
                sock.write_all(&wire).expect("write");
            })
        })
        .collect();
    for sender in senders {
        sender.join().expect("sender thread");
    }
    let expected = frames.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while listener.stats().snapshot().ingested < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let seconds = started.elapsed().as_secs_f64();
    let batch_stats = listener.batch_stats_handle();
    let report = listener.shutdown();
    assert_eq!(report.ingested, expected, "lossless under Block");
    assert_eq!(
        batch_stats.snapshot().frames,
        expected,
        "the batch counters must account for every frame"
    );
    let stats = service.stats();
    (expected as f64 / seconds, stats.per_category)
}

#[test]
#[ignore = "timing assertion: run in release mode on an idle machine"]
fn batched_listener_at_least_as_fast_as_scalar_on_20k_frames() {
    let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 8,
    }));
    let clf: Arc<dyn TextClassifier> = Arc::new(TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    ));
    let frames: Vec<String> = StreamGenerator::new(StreamConfig {
        seed: 42,
        ..StreamConfig::default()
    })
    .take(20_000)
    .map(|t| t.to_frame())
    .collect();

    let (scalar_rate, scalar_cats) = run_once(&frames, clf.clone(), 1);
    let (batch_rate, batch_cats) = run_once(&frames, clf, 64);

    assert_eq!(
        batch_cats, scalar_cats,
        "batched and scalar paths must predict identically"
    );
    assert!(
        batch_rate >= scalar_rate,
        "batched path slower than scalar: {batch_rate:.0} < {scalar_rate:.0} msg/s"
    );
    eprintln!(
        "live batch smoke: scalar {scalar_rate:.0} msg/s, batched {batch_rate:.0} msg/s ({:.2}x)",
        batch_rate / scalar_rate
    );
}
