//! Flight-recorder integration tests: the in-listener sampler + alert
//! engine observed end to end over real sockets.
//!
//! The acceptance scenario is the paper's model-maintenance story made
//! operational: a live listener classifies a baseline stream, the stream
//! drifts (datagen's vendor-migration mutator destroys the vocabulary the
//! model was trained on), the prediction-share PSI crosses the alert
//! threshold, the seeded `model_drift` rule fires — and resolves once the
//! stream returns to baseline.

use datagen::drift::{DriftConfig, DriftModel};
use datagen::{generate_corpus, CorpusConfig};
use hetsyslog_core::{FeatureConfig, ModelQuality, MonitorService, TraditionalPipeline};
use hetsyslog_ml::ComplementNaiveBayes;
use logpipeline::testsupport::wait_until;
use logpipeline::{ListenerConfig, LogStore, OverloadPolicy, SyslogListener};
use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// Octet-count `messages` into one wire buffer and send it over a fresh
/// TCP connection (robust to any message content, mutated or not).
fn send_tcp(addr: std::net::SocketAddr, messages: &[String]) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::with_capacity(messages.iter().map(|m| m.len() + 64).sum());
    for message in messages {
        let frame = format!("<13>Oct 11 22:14:15 cn0001 app: {message}");
        wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
    }
    sock.write_all(&wire).expect("write");
}

/// The drift acceptance test: baseline traffic freezes the PSI baseline,
/// a drift-mutated burst collapses the prediction distribution and fires
/// the seeded `model_drift` threshold rule, and a return to baseline
/// traffic rolls the window back and resolves it. Every observation is
/// made through the listener's own flight recorder and `/alerts` JSON.
#[test]
fn drift_mutated_stream_fires_and_resolves_model_drift_alert() {
    let corpus = datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 12,
    }));
    let telemetry = obs::Telemetry::new_arc();
    let registry = &telemetry.registry;
    let clf = Arc::new(
        TraditionalPipeline::train(
            FeatureConfig::default(),
            Box::new(ComplementNaiveBayes::new(Default::default())),
            &corpus,
        )
        .with_registry(registry),
    );
    // Small baseline/window so a few hundred messages exercise the whole
    // freeze → drift → recover cycle. 256 samples keeps the PSI sampling
    // noise (≈ 2(k−1)/n ≈ 0.05 for k = 8 categories) far below the 0.25
    // alert threshold.
    let service = Arc::new(
        MonitorService::new(clf)
            .with_model_quality(ModelQuality::with_config(256, 256))
            .with_registry(registry),
    );
    let listener = SyslogListener::start(
        Arc::new(LogStore::new().with_registry(registry)),
        Some(service.clone()),
        ListenerConfig {
            workers: 2,
            queue_depth: 1024,
            overload: OverloadPolicy::Block,
            telemetry: Some(telemetry.clone()),
            serve_metrics: true,
            flight_interval: Duration::from_millis(20),
            alert_rules: vec![obs::Rule::threshold(
                "model_drift",
                "hetsyslog_model_drift_psi_milli",
                obs::RuleInput::Last,
                obs::Cmp::Gt,
                250.0,
            )
            .over_ms(10_000)
            .for_ms(60)],
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = listener.tcp_addr();
    let engine = listener.alert_engine().expect("flight recorder on");
    // The generated corpus is grouped by category; rebuild it as a
    // strictly stationary stream — every round carries exactly one
    // message per category (cycling within each category) — so any
    // window's category mix matches the frozen baseline distribution.
    let mut by_category: Vec<Vec<String>> = vec![Vec::new(); 8];
    for (message, category) in &corpus {
        by_category[category.index()].push(message.clone());
    }
    let baseline: Vec<String> = (0..75)
        .flat_map(|round| {
            by_category
                .iter()
                .map(move |messages| messages[round % messages.len()].clone())
        })
        .collect();

    // Phase 1 — baseline: freezes the 256-prediction baseline and fills
    // the window with same-distribution predictions. PSI must stay calm.
    send_tcp(addr, &baseline);
    assert!(
        wait_until(30_000, || listener.stats().snapshot().ingested == 600),
        "baseline never ingested: {:?}",
        listener.stats().snapshot()
    );
    // PSI as the operator reads it: the exported milli-PSI gauge.
    let psi = || {
        obs::parse_exposition(&registry.render_prometheus())
            .value("hetsyslog_model_drift_psi_milli", &[])
            .expect("PSI gauge exported")
            / 1000.0
    };
    let calm_psi = psi();
    assert!(
        calm_psi < 0.25,
        "baseline traffic must not alert: {calm_psi}"
    );
    assert!(engine.firing().is_empty(), "{:?}", engine.statuses());

    // Phase 2 — drift: a new hardware generation joins the test-bed (the
    // paper's §3 scenario). Its firmware renames concepts (vendor-jargon
    // mutation) AND it floods the stream with its own traffic — thermal
    // complaints from the new silicon. The prediction mix collapses away
    // from the frozen baseline, PSI spikes, and the rule must walk
    // pending → firing.
    let mut drifter = DriftModel::new(DriftConfig {
        synonym_rate: 1.0,
        separator_rate: 1.0,
        suffix_rate: 1.0,
        vendor_jargon: true,
        seed: 7,
    });
    let thermal = &by_category[hetsyslog_core::Category::ThermalIssue.index()];
    let burst: Vec<String> = thermal.iter().cycle().take(400).cloned().collect();
    let drifted = drifter.mutate_all(&burst);
    send_tcp(addr, &drifted);
    assert!(
        wait_until(30_000, || listener.stats().snapshot().ingested == 1_000),
        "drift burst never ingested: {:?}",
        listener.stats().snapshot()
    );
    let drifted_psi = psi();
    assert!(
        drifted_psi > 0.25,
        "drift must push PSI over the alert threshold: {drifted_psi}"
    );
    assert!(
        wait_until(10_000, || engine
            .firing()
            .contains(&"model_drift".to_string())),
        "model_drift never fired: {:?}",
        engine.statuses()
    );

    // The dashboard's view agrees: /alerts serves the firing state over
    // real HTTP.
    let metrics_addr = listener.metrics_addr().expect("serving").to_string();
    let body = obs::http_get(&metrics_addr, "/alerts").expect("GET /alerts");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    let alerts = doc.get("alerts").and_then(|a| a.as_array()).unwrap();
    let drift_alert = alerts
        .iter()
        .find(|a| a.get("name").and_then(|n| n.as_str()) == Some("model_drift"))
        .expect("seeded rule present");
    assert_eq!(
        drift_alert.get("state").and_then(|s| s.as_str()),
        Some("firing"),
        "{body}"
    );

    // Phase 3 — recovery: baseline traffic refills the rolling window,
    // PSI decays, and the alert resolves on the next sweep.
    send_tcp(addr, &baseline);
    assert!(
        wait_until(30_000, || listener.stats().snapshot().ingested == 1_600),
        "recovery traffic never ingested: {:?}",
        listener.stats().snapshot()
    );
    let recovered_psi = psi();
    assert!(
        recovered_psi < 0.25,
        "window must forget the excursion: {recovered_psi}"
    );
    assert!(
        wait_until(10_000, || engine.firing().is_empty()),
        "model_drift never resolved: {:?}",
        engine.statuses()
    );
    let transitions: Vec<&str> = engine
        .events()
        .iter()
        .filter(|e| e.rule == "model_drift")
        .map(|e| e.transition)
        .collect::<Vec<_>>()
        .into_iter()
        .collect();
    assert!(
        transitions.windows(2).any(|w| w == ["firing", "resolved"]),
        "event log must record the full cycle: {transitions:?}"
    );

    // Post-mortem: the flight ring survives shutdown, and the stop-time
    // sweep pinned the final PSI value into the timeline.
    let flight_store = listener.flight_store().expect("flight recorder on");
    let report = listener.shutdown();
    assert_eq!(report.ingested, 1_600);
    let last_psi = flight_store
        .latest("hetsyslog_model_drift_psi_milli", &[])
        .expect("PSI series recorded");
    assert!(last_psi.value < 250.0, "timeline ends calm: {last_psi:?}");
}

/// Endpoint + UDP-counter smoke: with the flight recorder on, `/alerts`
/// and `/flight` serve parseable JSON, the seeded threshold rule fires
/// once traffic arrives, and the UDP transport counters land on
/// `/metrics` with exact values.
#[test]
fn flight_and_alerts_endpoints_serve_json_and_udp_counters_export() {
    let telemetry = obs::Telemetry::new_arc();
    let listener = SyslogListener::start(
        Arc::new(LogStore::new().with_registry(&telemetry.registry)),
        None,
        ListenerConfig {
            telemetry: Some(telemetry),
            serve_metrics: true,
            flight_interval: Duration::from_millis(20),
            alert_rules: vec![obs::Rule::threshold(
                "traffic_seen",
                "hetsyslog_ingest_frames_total",
                obs::RuleInput::Last,
                obs::Cmp::Ge,
                1.0,
            )
            .over_ms(60_000)],
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let metrics_addr = listener.metrics_addr().expect("serving").to_string();

    let frames: Vec<String> = (0..3).map(|k| format!("tcp probe {k}")).collect();
    send_tcp(listener.tcp_addr(), &frames);
    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    let datagrams = [&b"<13>Oct 11 22:14:15 cn0001 app: dgram a"[..], b"dgram b"];
    for payload in datagrams {
        udp.send_to(payload, listener.udp_addr()).expect("send");
    }
    assert!(
        wait_until(10_000, || listener.stats().snapshot().ingested == 5),
        "timed out: {:?}",
        listener.stats().snapshot()
    );

    // UDP transport counters (exact): 2 datagrams and their byte sum.
    let scrape =
        obs::parse_exposition(&obs::http_get(&metrics_addr, "/metrics").expect("GET /metrics"));
    assert_eq!(scrape.total("hetsyslog_udp_datagrams_total"), 2.0);
    let expected_bytes: usize = datagrams.iter().map(|d| d.len()).sum();
    assert_eq!(
        scrape.total("hetsyslog_udp_bytes_total"),
        expected_bytes as f64
    );

    // The seeded rule fires once the sampler sees frames_total >= 1.
    let engine = listener.alert_engine().expect("flight recorder on");
    assert!(
        wait_until(10_000, || engine
            .firing()
            .contains(&"traffic_seen".to_string())),
        "rule never fired: {:?}",
        engine.statuses()
    );
    let alerts_body = obs::http_get(&metrics_addr, "/alerts").expect("GET /alerts");
    let doc: serde_json::Value = serde_json::from_str(&alerts_body).expect("valid JSON");
    let alerts = doc.get("alerts").and_then(|a| a.as_array()).unwrap();
    assert_eq!(alerts.len(), 1);
    assert_eq!(
        alerts[0].get("name").and_then(|n| n.as_str()),
        Some("traffic_seen")
    );
    assert_eq!(
        alerts[0].get("state").and_then(|s| s.as_str()),
        Some("firing")
    );
    assert!(
        !doc.get("events")
            .and_then(|e| e.as_array())
            .unwrap()
            .is_empty(),
        "firing transition must be logged: {alerts_body}"
    );

    // /flight serves the ring as JSON with the ingest series in it.
    let flight_body = obs::http_get(&metrics_addr, "/flight").expect("GET /flight");
    let flight: serde_json::Value = serde_json::from_str(&flight_body).expect("valid JSON");
    let series = flight.get("series").and_then(|s| s.as_array()).unwrap();
    assert!(
        series.iter().any(
            |s| s.get("name").and_then(|n| n.as_str()) == Some("hetsyslog_ingest_frames_total")
        ),
        "flight timeline must carry the ingest series"
    );

    // The in-process handle survives shutdown, and the stop-time sweep
    // captured the final drained counter values in the timeline.
    let flight_store = listener.flight_store().expect("flight recorder on");
    let report = listener.shutdown();
    assert_eq!(report.ingested, 5);
    let last = flight_store
        .latest("hetsyslog_ingest_frames_total", &[])
        .expect("series recorded");
    assert_eq!(last.value, 5.0, "final sweep must capture the drain");
}

/// With `record_flight: false` the listener serves `/metrics` but not the
/// flight endpoints, and spawns no sampler.
#[test]
fn flight_recorder_can_be_disabled() {
    let telemetry = obs::Telemetry::new_arc();
    let listener = SyslogListener::start(
        Arc::new(LogStore::new().with_registry(&telemetry.registry)),
        None,
        ListenerConfig {
            telemetry: Some(telemetry),
            serve_metrics: true,
            record_flight: false,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let metrics_addr = listener.metrics_addr().expect("serving").to_string();
    assert!(obs::http_get(&metrics_addr, "/metrics").is_ok());
    assert!(obs::http_get(&metrics_addr, "/flight").is_err(), "404");
    assert!(obs::http_get(&metrics_addr, "/alerts").is_err(), "404");
    assert!(listener.flight_store().is_none());
    assert!(listener.alert_engine().is_none());
    listener.shutdown();
}
