//! The socket-facing ingest front end on loopback: a fault-tolerant
//! TCP + UDP syslog listener with in-flight classification.
//!
//! Starts a [`SyslogListener`] over a trained classifier, plays a small
//! heterogeneous node fleet against it — RFC 6587 octet-counted TCP,
//! LF-framed TCP with deliberate corruption, and UDP datagrams — then
//! drains gracefully and prints the combined transport + classification
//! health snapshot and the dead-letter ring.
//!
//! The listener serves `GET /metrics` (Prometheus text), `/health` (JSON),
//! `/spans` (JSON), `/alerts` (JSON) and `/flight` (JSON) on an ephemeral
//! loopback port; the example scrapes its own endpoint over real HTTP and
//! prints the exposition. A seeded threshold rule on the ingest rate fires
//! while the burst is inside the alert window and resolves once traffic
//! goes quiet — both `/alerts` documents are printed, so CI can assert the
//! full firing → resolved lifecycle over the wire. Pass `--hold` to keep
//! the listener up for 60 s after the traffic so you can `curl` it
//! yourself (the URL is printed at startup).
//!
//! Run: `cargo run --release --example loopback_listener [-- --hold]`

use hetsyslog::prelude::*;
use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // Train a classifier on a scaled Darwin corpus and wrap it in a
    // monitor service, exactly as the real-time pipeline would.
    let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 12,
    }));
    // One registry for the whole process: classifier, service and store
    // are built on it, so one `/metrics` scrape sees every layer.
    let telemetry = Telemetry::new_arc();
    let registry = &telemetry.registry;
    let clf: Arc<dyn TextClassifier> = Arc::new(
        TraditionalPipeline::train(
            FeatureConfig::default(),
            Box::new(ComplementNaiveBayes::new(Default::default())),
            &corpus,
        )
        .with_registry(registry),
    );
    // Model-quality drift telemetry: a 64-prediction frozen baseline is
    // small enough that this example's ~100 frames freeze it and export a
    // live PSI gauge alongside the per-category prediction shares.
    let service = Arc::new(
        MonitorService::new(clf)
            .with_model_quality(ModelQuality::with_config(64, 64))
            .with_registry(registry),
    );

    let store = Arc::new(LogStore::new().with_registry(registry));
    let listener = SyslogListener::start(
        store.clone(),
        Some(service),
        ListenerConfig {
            workers: 2,
            queue_depth: 256,
            overload: OverloadPolicy::Block,
            idle_timeout: Duration::from_secs(5),
            telemetry: Some(telemetry.clone()),
            serve_metrics: true,
            // Flight recorder at a CI-friendly cadence, plus one seeded
            // threshold rule: "ingest is moving" — fires during the burst,
            // resolves ~2 s after the senders go quiet.
            flight_interval: Duration::from_millis(50),
            alert_rules: vec![Rule::threshold(
                "ingest_active",
                "hetsyslog_ingest_frames_total",
                RuleInput::Rate,
                Cmp::Gt,
                5.0,
            )
            .over_ms(2_000)
            .for_ms(100)],
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let metrics_addr = listener.metrics_addr().expect("metrics endpoint");
    println!(
        "listener up: tcp={} udp={} metrics=http://{}/metrics\n",
        listener.tcp_addr(),
        listener.udp_addr(),
        metrics_addr,
    );

    // Node 1: a well-behaved rsyslog sender using octet counting.
    let mut tcp1 = TcpStream::connect(listener.tcp_addr()).expect("connect");
    for i in 0..40 {
        let frame = format!("<13>Oct 11 22:14:{:02} cn0101 kernel: CPU{i} core temperature above threshold, cpu clock throttled", i % 60);
        tcp1.write_all(format!("{} {frame}", frame.len()).as_bytes())
            .expect("write");
    }

    // Node 2: an LF-framing vendor appliance that also emits corrupt
    // octet counts, blank-line noise, and finally a truncated frame.
    let mut tcp2 = TcpStream::connect(listener.tcp_addr()).expect("connect");
    for i in 0..40 {
        tcp2.write_all(
            format!(
                "<86>Oct 11 22:14:{:02} cn0202 sshd[99]: session opened for user darwin\n",
                i % 60
            )
            .as_bytes(),
        )
        .expect("write");
    }
    tcp2.write_all(b"999999 \n\n\nvendor gibberish without any header\n")
        .expect("write");
    tcp2.write_all(b"64 <13>Oct 11 22:14:59 cn0202 app: this frame gets cut at the clo")
        .expect("write");
    drop(tcp2); // close mid-frame: the decoder tail is flushed, count token stripped

    // Node 3: a UDP sender (one datagram per message).
    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind udp client");
    for i in 0..20 {
        udp.send_to(
            format!(
                "<9>Oct 11 22:14:{:02} cn0303 ipmid: fan RPM below minimum\n",
                i % 60
            )
            .as_bytes(),
            listener.udp_addr(),
        )
        .expect("send");
    }
    drop(tcp1);

    // Node 4: the same UDP sender, now paced slower than the 50 ms flight
    // sampler, so the recorder sees the frame counter actually rising. (The
    // bursts above land entirely between two samples and read as zero
    // delta — a paced phase is what arms the seeded rate rule.)
    for i in 0..30 {
        udp.send_to(
            format!(
                "<9>Oct 11 22:15:{:02} cn0303 ipmid: fan RPM below minimum\n",
                i % 60
            )
            .as_bytes(),
            listener.udp_addr(),
        )
        .expect("send");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Wait for the traffic to drain, then shut down gracefully.
    let expect = 40 + 40 + 2 + 20 + 30; // node2: 40 LF + gibberish + flushed tail
    let deadline = Instant::now() + Duration::from_secs(10);
    while listener.stats().snapshot().ingested < expect && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    // Scrape our own endpoint over real loopback HTTP, exactly as a
    // Prometheus server (or `hetsyslog top --addr`) would.
    let exposition =
        hetsyslog::obs::http_get(&metrics_addr.to_string(), "/metrics").expect("scrape /metrics");

    // The seeded rule's full lifecycle over the wire: the burst pushes the
    // windowed ingest rate over threshold (pending → firing), then the
    // quiet tail slides the burst out of the 2 s window and the rule
    // resolves. Poll `/alerts` for each transition in the event log.
    let poll_alerts = |want: &str| -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let body = hetsyslog::obs::http_get(&metrics_addr.to_string(), "/alerts")
                .expect("scrape /alerts");
            if body.contains(want) || Instant::now() >= deadline {
                return body;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let alerts_firing = poll_alerts("\"transition\":\"firing\"");
    assert!(
        alerts_firing.contains("\"name\":\"ingest_active\"")
            && alerts_firing.contains("\"transition\":\"firing\""),
        "seeded threshold rule never fired: {alerts_firing}"
    );
    let alerts_resolved = poll_alerts("\"transition\":\"resolved\"");
    assert!(
        alerts_resolved.contains("\"transition\":\"resolved\""),
        "seeded threshold rule never resolved: {alerts_resolved}"
    );

    if std::env::args().any(|a| a == "--hold") {
        println!("holding for 60s — try: curl http://{metrics_addr}/metrics");
        std::thread::sleep(Duration::from_secs(60));
    }

    let health = listener.health().expect("service attached");
    let dead = listener.dead_letters().snapshot();
    // The flight ring outlives the listener: the stop-time sweep pins the
    // drained totals into the timeline for post-mortem export.
    let flight = listener.flight_store().expect("flight recorder on");
    let report = listener.shutdown();

    println!("ingest:   {report:#?}");
    println!("\nclassified categories (via MonitorService):");
    for c in Category::ALL {
        let n = health.monitor.count(c);
        if n > 0 {
            println!("  {:<28} {n}", format!("{c:?}"));
        }
    }
    println!("\ndead letters retained: {}", dead.len());
    for letter in dead.iter().take(5) {
        println!(
            "  [{}] conn {}: {:?}",
            letter.reason.as_str(),
            letter.source,
            letter.frame
        );
    }
    println!("\nstore holds {} records", store.len());
    if let Some(last) = flight.latest("hetsyslog_ingest_frames_total", &[]) {
        println!("flight recorder final sweep: {} frames", last.value);
    }
    println!("\n--- /alerts (burst inside the rate window) ---\n{alerts_firing}");
    println!("\n--- /alerts (after calm) ---\n{alerts_resolved}");
    println!("\n--- /metrics scrape ---\n{exposition}");
}
