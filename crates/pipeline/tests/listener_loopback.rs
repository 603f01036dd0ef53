//! Loopback integration tests for the socket-facing ingest front end:
//! concurrent TCP connections with hostile mixed framing, overload
//! policies, idle timeouts, UDP datagrams, and graceful drain.
//!
//! Every listener binds an ephemeral (`:0`) loopback port, so tests cannot
//! collide on addresses; CI still pins `--test-threads` for this binary to
//! keep socket-heavy tests from contending for the accept backlog.

use hetsyslog_core::{Category, MonitorService, Prediction, TextClassifier};
use logpipeline::testsupport::{wait_until, SlowStub};
use logpipeline::{DropReason, Frontend, ListenerConfig, LogStore, OverloadPolicy, SyslogListener};
use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// The acceptance scenario: four concurrent TCP connections sending
/// interleaved octet-counted, LF-framed, corrupt-count, garbage, and
/// truncated traffic. Everything decodable ingests, drops land in the
/// right per-reason counters, and shutdown flushes the decoder tails.
#[test]
fn four_concurrent_connections_mixed_hostile_traffic() {
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store.clone(),
        None,
        ListenerConfig {
            workers: 3,
            queue_depth: 64,
            overload: OverloadPolicy::Block,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = listener.tcp_addr();

    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("connect");
                let mut wire = Vec::new();
                for k in 0..10 {
                    // Octet-counted frames.
                    let frame = format!("<13>Oct 11 22:14:{:02} cn{c:04} app: octet {k}", k % 60);
                    wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
                }
                for k in 0..10 {
                    // LF-framed, with CRLF and blank-line noise.
                    let frame = format!("<13>Oct 11 22:15:{:02} cn{c:04} app: lf {k}", k % 60);
                    wire.extend_from_slice(frame.as_bytes());
                    wire.extend_from_slice(if k % 2 == 0 {
                        b"\r\n" as &[u8]
                    } else {
                        b"\n\n"
                    });
                }
                // A corrupt oversized octet count: dropped and resynced.
                wire.extend_from_slice(b"999999 \n");
                // Binary garbage still ingests via the free-form fallback.
                wire.extend_from_slice(b"@@garbage \x01\x02\xff!!\n");
                // A truncated octet-counted tail: the declared 60-byte
                // payload never fully arrives before the close.
                let tail = format!("<13>Oct 11 22:16:00 cn{c:04} app: truncated tail");
                wire.extend_from_slice(format!("60 {tail}").as_bytes());
                // Dribble in awkward chunk sizes to exercise partial
                // delivery across reads.
                for chunk in wire.chunks(23) {
                    sock.write_all(chunk).expect("write");
                }
                // Drop closes the socket; the listener flushes the tail.
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    // Per client: 10 octet + 10 LF + 1 garbage + 1 flushed tail = 22.
    let expected = 4 * 22;
    assert!(
        wait_until(10_000, || listener.stats().snapshot().ingested == expected),
        "timed out: {:?}",
        listener.stats().snapshot()
    );

    let report = listener.shutdown();
    assert_eq!(report.ingested, expected);
    assert_eq!(report.frames, expected);
    assert_eq!(report.decode_dropped, 4, "one corrupt count per client");
    assert_eq!(report.parse_errors, 0);
    assert_eq!(report.shed, 0, "Block policy never sheds");
    assert_eq!(report.connections, 4);
    assert_eq!(store.len() as u64, expected);
    // The truncated tails were flushed without their "60 " count tokens.
    let tails = store.search(0, i64::MAX / 2, &["truncated".to_string()]);
    assert_eq!(tails.len(), 4);
    assert!(tails.iter().all(|r| !r.message.contains("60 <13>")));
}

/// An oversized octet count is a decoder drop whose payload still ingests
/// as an LF frame; a truncated octet-counted tail is flushed at close
/// without its `35 ` count token.
#[test]
fn oversized_count_payload_survives_and_truncated_count_does_not_leak() {
    let store = Arc::new(LogStore::new());
    let listener =
        SyslogListener::start(store.clone(), None, ListenerConfig::default()).expect("bind");
    let mut sock = TcpStream::connect(listener.tcp_addr()).expect("connect");
    sock.write_all(b"999999 <13>Oct 11 22:14:15 cn0001 kernel: ok\n35 <13>Oct")
        .expect("write");
    drop(sock);

    assert!(
        wait_until(5_000, || listener.stats().snapshot().ingested == 2),
        "timed out: {:?}",
        listener.stats().snapshot()
    );
    let report = listener.shutdown();
    assert_eq!(
        (report.ingested, report.decode_dropped, report.parse_errors),
        (2, 1, 0)
    );
    let all = store.search(i64::MIN / 2, i64::MAX / 2, &[]);
    assert!(all.iter().any(|r| r.message.ends_with("ok")), "{all:?}");
    assert!(all.iter().all(|r| !r.message.starts_with("35 ")), "{all:?}");
}

#[test]
fn shed_policy_counts_and_dead_letters_queue_full_drops() {
    let store = Arc::new(LogStore::new());
    let service = Arc::new(MonitorService::new(Arc::new(SlowStub(
        Duration::from_millis(3),
    ))));
    let listener = SyslogListener::start(
        store,
        Some(service),
        ListenerConfig {
            workers: 1,
            queue_depth: 2,
            overload: OverloadPolicy::Shed,
            dead_letter_capacity: 8,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");

    let addr = listener.tcp_addr();
    let mut sock = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::new();
    for k in 0..100 {
        wire.extend_from_slice(format!("<13>Oct 11 22:14:15 cn0001 app: flood {k}\n").as_bytes());
    }
    sock.write_all(&wire).expect("write");
    drop(sock);

    assert!(
        wait_until(15_000, || {
            let s = listener.stats().snapshot();
            s.frames == 100 && s.ingested + s.shed == 100
        }),
        "timed out: {:?}",
        listener.stats().snapshot()
    );
    let shed = listener.stats().snapshot().shed;
    assert!(
        shed > 0,
        "a 2-deep queue against a 3ms/msg worker must shed"
    );

    // Dead letters: all QueueFull, ring capped at its capacity, total
    // matches the shed counter.
    let letters = listener.dead_letters().snapshot();
    assert!(!letters.is_empty());
    assert!(letters.iter().all(|l| l.reason == DropReason::QueueFull));
    assert!(letters.len() <= 8);
    assert_eq!(listener.dead_letters().total_recorded(), shed);

    // The combined health snapshot ties transport and classifier counters
    // together: every stored record was classified.
    let health = listener.health().expect("service attached");
    assert_eq!(health.monitor.total, health.ingest.ingested);
    assert_eq!(health.ingest.shed, shed);

    let report = listener.shutdown();
    assert_eq!(report.ingested + report.shed, 100);
}

#[test]
fn block_policy_is_lossless_against_slow_workers() {
    let store = Arc::new(LogStore::new());
    let service = Arc::new(MonitorService::new(Arc::new(SlowStub(
        Duration::from_millis(1),
    ))));
    let listener = SyslogListener::start(
        store.clone(),
        Some(service),
        ListenerConfig {
            workers: 1,
            queue_depth: 2,
            overload: OverloadPolicy::Block,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");

    let addr = listener.tcp_addr();
    let mut sock = TcpStream::connect(addr).expect("connect");
    for k in 0..200 {
        sock.write_all(format!("<13>Oct 11 22:14:15 cn0001 app: steady {k}\n").as_bytes())
            .expect("write");
    }
    drop(sock);

    assert!(
        wait_until(20_000, || listener.stats().snapshot().ingested == 200),
        "timed out: {:?}",
        listener.stats().snapshot()
    );
    let report = listener.shutdown();
    assert_eq!(report.ingested, 200);
    assert_eq!(report.shed, 0);
    assert_eq!(store.len(), 200);
}

#[test]
fn idle_connection_is_closed_and_its_tail_flushed() {
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store.clone(),
        None,
        ListenerConfig {
            idle_timeout: Duration::from_millis(150),
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");

    let addr = listener.tcp_addr();
    let mut sock = TcpStream::connect(addr).expect("connect");
    // An unterminated frame, then silence: the peer neither finishes the
    // line nor closes the socket.
    sock.write_all(b"<13>Oct 11 22:14:15 cn0001 app: half a line")
        .expect("write");

    assert!(
        wait_until(5_000, || listener.stats().snapshot().idle_closed == 1),
        "idle reaper never fired: {:?}",
        listener.stats().snapshot()
    );
    assert!(wait_until(5_000, || listener.stats().snapshot().ingested == 1));

    let report = listener.shutdown();
    assert_eq!(report.idle_closed, 1);
    assert_eq!(report.ingested, 1, "the decoder tail must be flushed");
    let hits = store.search(0, i64::MAX / 2, &["half".to_string()]);
    assert_eq!(hits.len(), 1);
    drop(sock);
}

#[test]
fn udp_datagrams_ingest_and_empty_datagrams_dead_letter() {
    let store = Arc::new(LogStore::new());
    let listener =
        SyslogListener::start(store.clone(), None, ListenerConfig::default()).expect("bind");

    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    for k in 0..4 {
        udp.send_to(
            format!("<13>Oct 11 22:14:15 cn0001 app: dgram {k}\n").as_bytes(),
            listener.udp_addr(),
        )
        .expect("send");
    }
    // A zero-length datagram decodes to an empty frame: the one input the
    // permissive parser rejects, so it must land in the dead letters.
    udp.send_to(b"", listener.udp_addr()).expect("send empty");

    assert!(
        wait_until(5_000, || {
            let s = listener.stats().snapshot();
            s.ingested == 4 && s.parse_errors == 1
        }),
        "timed out: {:?}",
        listener.stats().snapshot()
    );
    let letters = listener.dead_letters().snapshot();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].reason, DropReason::ParseError);
    assert_eq!(letters[0].source, logpipeline::listener::UDP_SOURCE);

    assert_eq!(listener.stats().udp_datagrams.get(), 5);

    // The datagrams were read by reactor 0 (which owns the UDP socket),
    // not by a thread of their own: with no TCP traffic, only reactor 0
    // has wakeups that moved data.
    let reactors = listener.reactor_stats_handle();
    assert!(reactors[0].wakeups.get() >= 1);
    assert!(reactors[0].read_bytes.count() >= 1);
    assert_eq!(reactors[1].read_bytes.count(), 0);

    let report = listener.shutdown();
    assert_eq!(report.frames, 5, "one datagram = one frame");
    assert_eq!(report.ingested, 4);
    assert_eq!(report.parse_errors, 1);
}

#[test]
fn partial_batch_flushed_on_graceful_drain_without_loss() {
    let store = Arc::new(LogStore::new());
    let service = Arc::new(MonitorService::new(Arc::new(SlowStub(Duration::ZERO))));
    // max_batch 64 with a 5s fill deadline: 23 frames can never fill a
    // batch, and the deadline cannot expire before the drain below — so
    // every flush must come from the channel hanging up mid-fill.
    let listener = SyslogListener::start(
        store.clone(),
        Some(service),
        ListenerConfig {
            workers: 2,
            queue_depth: 256,
            overload: OverloadPolicy::Block,
            max_batch: 64,
            max_delay: Duration::from_secs(5),
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");

    let addr = listener.tcp_addr();
    let mut sock = TcpStream::connect(addr).expect("connect");
    for k in 0..23 {
        sock.write_all(format!("<13>Oct 11 22:14:15 cn0001 app: partial {k}\n").as_bytes())
            .expect("write");
    }
    drop(sock);

    // Wait only for the frames to be decoded off the socket — NOT for
    // them to be classified — then shut down while the workers still sit
    // mid-fill on their partial batches.
    assert!(
        wait_until(5_000, || listener.stats().snapshot().frames == 23),
        "frames never decoded: {:?}",
        listener.stats().snapshot()
    );
    let batch_stats = listener.batch_stats_handle();
    let report = listener.shutdown();

    // Lossless under Block: the partial batches were flushed on the way
    // out, not dropped.
    assert_eq!(report.ingested, 23);
    assert_eq!(report.shed, 0);
    assert_eq!(store.len(), 23);

    let batching = batch_stats.snapshot();
    assert_eq!(
        batching.frames, 23,
        "batched frames must sum to the ingested count: {batching:?}"
    );
    assert_eq!(batching.classified, 23, "every parsed frame classifies");
    assert!(
        batching.drain_flushes >= 1,
        "at least one partial batch flushed by the drain: {batching:?}"
    );
    assert_eq!(
        batching.full_flushes + batching.deadline_flushes,
        0,
        "no batch could fill (23 < 64) or hit the 5s deadline: {batching:?}"
    );
}

#[test]
fn batched_and_scalar_listeners_agree_on_stored_categories() {
    // The same traffic at every batch size (1 = a batch of one frame
    // through the same code) must store identical content, category
    // multisets and counters; without a classifier the same records are
    // stored unclassified.
    let frames: Vec<String> = (0..120)
        .map(|k| {
            if k % 5 == 0 {
                format!("<13>Oct 11 22:14:15 cn0001 kernel: cpu clock throttled {k}\n")
            } else {
                format!("<13>Oct 11 22:14:15 cn0001 app: routine event {k}\n")
            }
        })
        .collect();

    struct ByContent;
    impl TextClassifier for ByContent {
        fn name(&self) -> String {
            "by-content".to_string()
        }
        fn classify(&self, message: &str) -> Prediction {
            if message.contains("throttled") {
                Prediction::bare(Category::ThermalIssue)
            } else {
                Prediction::bare(Category::Unimportant)
            }
        }
    }

    let mut results = Vec::new();
    for (max_batch, classify) in [
        (1usize, true),
        (7, true),
        (32, true),
        (64, true),
        (64, false),
    ] {
        let store = Arc::new(LogStore::new());
        let service = classify.then(|| Arc::new(MonitorService::new(Arc::new(ByContent))));
        let listener = SyslogListener::start(
            store.clone(),
            service.clone(),
            ListenerConfig {
                workers: 2,
                max_batch,
                max_delay: Duration::from_millis(2),
                ..ListenerConfig::default()
            },
        )
        .expect("bind loopback listener");
        let mut sock = TcpStream::connect(listener.tcp_addr()).expect("connect");
        for frame in &frames {
            sock.write_all(frame.as_bytes()).expect("write");
        }
        drop(sock);
        assert!(
            wait_until(10_000, || listener.stats().snapshot().ingested == 120),
            "timed out at max_batch {max_batch}: {:?}",
            listener.stats().snapshot()
        );
        let batch_stats = listener.batch_stats_handle();
        let report = listener.shutdown();
        assert_eq!(report.ingested, 120);
        let batching = batch_stats.snapshot();
        assert_eq!(batching.frames, 120);
        assert!(
            batching.batches >= 120 / max_batch as u64,
            "no batch may exceed max_batch {max_batch}: {batching:?}"
        );
        let mut stored: Vec<(String, Option<Category>)> = store
            .search(0, i64::MAX / 2, &[])
            .into_iter()
            .map(|r| (r.message, r.category))
            .collect();
        stored.sort();
        match service {
            Some(service) => {
                let stats = service.stats();
                assert_eq!(batching.classified, 120);
                results.push((stored, stats.total, stats.per_category));
            }
            None => {
                assert_eq!(batching.classified, 0);
                assert!(stored.iter().all(|(_, category)| category.is_none()));
                let classified = &results[0].0;
                assert!(
                    stored
                        .iter()
                        .map(|(m, _)| m)
                        .eq(classified.iter().map(|(m, _)| m)),
                    "the unclassified path must store the same messages"
                );
            }
        }
    }
    for other in &results[1..] {
        assert_eq!(&results[0], other);
    }
    let thermal = results[0]
        .0
        .iter()
        .filter(|(_, c)| *c == Some(Category::ThermalIssue));
    assert_eq!(thermal.count(), 24);
}

/// Drop-accounting consistency sweep (telemetry edition): under both
/// overload policies against hostile traffic, a SINGLE `/metrics` scrape
/// must satisfy the conservation laws
///
/// ```text
/// frames_received == stored + Σ dropped{reason}
/// dead_letters    ==          Σ dropped{reason}
/// ```
///
/// Corrupt octet counts are dropped by the decoder *before* a frame
/// exists, so `hetsyslog_decoder_dropped_total` is deliberately outside
/// the frame ledger.
#[test]
fn drop_accounting_is_consistent_from_a_single_scrape() {
    for overload in [OverloadPolicy::Block, OverloadPolicy::Shed] {
        let telemetry = obs::Telemetry::new_arc();
        let store = Arc::new(LogStore::new().with_registry(&telemetry.registry));
        // A slow classifier under Shed makes the 2-deep queue actually
        // overflow; under Block it only delays the lossless drain.
        let service = Arc::new(
            MonitorService::new(Arc::new(SlowStub(Duration::from_millis(2))))
                .with_registry(&telemetry.registry),
        );
        let listener = SyslogListener::start(
            store.clone(),
            Some(service),
            ListenerConfig {
                workers: 1,
                queue_depth: 2,
                overload,
                dead_letter_capacity: 8,
                telemetry: Some(telemetry.clone()),
                serve_metrics: true,
                ..ListenerConfig::default()
            },
        )
        .expect("bind loopback listener");
        let metrics_addr = listener
            .metrics_addr()
            .expect("serve_metrics must expose an endpoint")
            .to_string();

        // Hostile mix: a flood of LF frames, a corrupt octet count (decoder
        // drop, pre-frame), and an empty UDP datagram (parse error).
        let mut sock = TcpStream::connect(listener.tcp_addr()).expect("connect");
        let mut wire = Vec::new();
        for k in 0..100 {
            wire.extend_from_slice(
                format!("<13>Oct 11 22:14:15 cn0001 app: hostile flood {k}\n").as_bytes(),
            );
        }
        wire.extend_from_slice(b"999999 \n");
        sock.write_all(&wire).expect("write");
        drop(sock);
        assert!(
            wait_until(20_000, || {
                let s = listener.stats().snapshot();
                s.frames == 100 && s.ingested + s.shed == 100
            }),
            "flood never quiesced under {overload:?}: {:?}",
            listener.stats().snapshot()
        );
        // Only after the queue drains, so the empty datagram reaches the
        // parser even under Shed instead of being shed at the edge.
        let udp = UdpSocket::bind("127.0.0.1:0").expect("bind client");
        udp.send_to(b"", listener.udp_addr()).expect("send empty");

        // Quiesce: every received frame is accounted for somewhere.
        assert!(
            wait_until(20_000, || {
                let s = listener.stats().snapshot();
                s.frames == 101 && s.ingested + s.shed + s.parse_errors == s.frames
            }),
            "never quiesced under {overload:?}: {:?}",
            listener.stats().snapshot()
        );

        // One scrape over real HTTP; every number below comes from it.
        let body = obs::http_get(&metrics_addr, "/metrics").expect("scrape");
        assert!(
            body.contains("# TYPE hetsyslog_ingest_frames_total counter"),
            "malformed exposition under {overload:?}"
        );
        let scrape = obs::parse_exposition(&body);
        let frames = scrape.total("hetsyslog_ingest_frames_total");
        let stored = scrape.total("hetsyslog_ingest_stored_total");
        let queue_full = scrape
            .value(
                "hetsyslog_ingest_dropped_total",
                &[("reason", "queue_full")],
            )
            .unwrap_or(0.0);
        let parse_error = scrape
            .value(
                "hetsyslog_ingest_dropped_total",
                &[("reason", "parse_error")],
            )
            .unwrap_or(0.0);
        let dead_letters = scrape.total("hetsyslog_dead_letters_total");

        assert_eq!(
            frames,
            stored + queue_full + parse_error,
            "frame ledger must balance under {overload:?}: {body}"
        );
        assert_eq!(
            dead_letters,
            queue_full + parse_error,
            "every drop must be dead-lettered under {overload:?}"
        );
        assert_eq!(parse_error, 1.0, "the empty datagram is the parse error");
        assert_eq!(
            scrape.total("hetsyslog_decoder_dropped_total"),
            1.0,
            "the corrupt octet count never became a frame"
        );
        match overload {
            OverloadPolicy::Block => assert_eq!(queue_full, 0.0, "Block never sheds"),
            OverloadPolicy::Shed => assert!(
                queue_full > 0.0,
                "a 2-deep queue against a 2ms/msg worker must shed"
            ),
        }
        // The registry view and the legacy snapshot API agree exactly.
        let snap = listener.stats().snapshot();
        assert_eq!(snap.frames as f64, frames);
        assert_eq!(snap.ingested as f64, stored);
        assert_eq!(snap.shed as f64, queue_full);
        listener.shutdown();
    }
}

/// The absolute ledger for hostile traffic on the reactor front end: three
/// connections of mixed octet-counted / LF framing, each ending in a
/// corrupt octet count, dribbled in 17-byte chunks.
#[test]
fn reactor_ledger_for_hostile_traffic_is_exact() {
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store.clone(),
        None,
        ListenerConfig {
            frontend: Frontend::Reactor { threads: 2 },
            workers: 2,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    assert_eq!(listener.n_reactors(), 2);
    let addr = listener.tcp_addr();
    let clients: Vec<_> = (0..3)
        .map(|c| {
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("connect");
                let mut wire = Vec::new();
                for k in 0..20 {
                    let frame = format!("<13>Oct 11 22:14:{:02} cn{c:04} app: parity {k}", k % 60);
                    if k % 2 == 0 {
                        wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
                    } else {
                        wire.extend_from_slice(frame.as_bytes());
                        wire.push(b'\n');
                    }
                }
                wire.extend_from_slice(b"999999 \n"); // corrupt count
                for chunk in wire.chunks(17) {
                    sock.write_all(chunk).expect("write");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    assert!(
        wait_until(10_000, || listener.stats().snapshot().ingested == 60),
        "timed out: {:?}",
        listener.stats().snapshot()
    );
    let report = listener.shutdown();
    assert_eq!(store.len(), 60);
    assert_eq!(report.frames, 60);
    assert_eq!(report.ingested, 60);
    assert_eq!(report.shed, 0);
    assert_eq!(report.parse_errors, 0);
    assert_eq!(report.decode_dropped, 3, "one corrupt count per client");
    assert_eq!(report.connections, 3);
}

#[test]
fn graceful_shutdown_flushes_tails_of_still_open_connections() {
    let store = Arc::new(LogStore::new());
    let listener =
        SyslogListener::start(store.clone(), None, ListenerConfig::default()).expect("bind");
    let addr = listener.tcp_addr();

    // Two peers park mid-frame and keep their sockets open across the
    // shutdown: one unterminated LF frame, one truncated octet frame.
    let mut lf_sock = TcpStream::connect(addr).expect("connect");
    lf_sock
        .write_all(b"<13>Oct 11 22:14:15 cn0001 app: open lf tail")
        .expect("write");
    let mut oc_sock = TcpStream::connect(addr).expect("connect");
    oc_sock
        .write_all(b"55 <13>Oct 11 22:14:15 cn0002 app: open octet tail")
        .expect("write");

    // Wait until both payloads have been read off the sockets.
    let expected_bytes = (b"<13>Oct 11 22:14:15 cn0001 app: open lf tail".len()
        + b"55 <13>Oct 11 22:14:15 cn0002 app: open octet tail".len())
        as u64;
    assert!(
        wait_until(5_000, || listener.stats().snapshot().bytes
            == expected_bytes),
        "payloads never arrived: {:?}",
        listener.stats().snapshot()
    );

    let report = listener.shutdown();
    assert_eq!(report.ingested, 2, "both decoder tails must be flushed");
    assert_eq!(report.connections, 2);
    let octet = store.search(0, i64::MAX / 2, &["octet".to_string()]);
    assert_eq!(octet.len(), 1);
    assert!(
        !octet[0].message.starts_with("55 "),
        "count token must not leak into the flushed tail"
    );
    drop(lf_sock);
    drop(oc_sock);
}
