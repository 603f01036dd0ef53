//! Frame-ledger conservation across shard counts (tentpole re-pin).
//!
//! The sharded fabric must keep the exact accounting invariant the single
//! shared queue guaranteed, for every shard count and both overload
//! policies:
//!
//! * **Block**:  frames == ingested + parse_errors, shed == 0;
//! * **Shed**:   frames == ingested + shed + parse_errors;
//! * dead letters == shed + parse_errors (every dropped frame is
//!   dead-lettered exactly once, with the right reason);
//! * per-shard ledgers sum to the aggregate: Σ routed == frames − shed
//!   and Σ processed == ingested + parse_errors;
//! * classification results are bit-identical across shard counts and
//!   across the number of connections the same frames arrive on.

use hetsyslog_core::{Category, IngestSnapshot, MonitorService, Prediction, TextClassifier};
use logpipeline::testsupport::{wait_until, SlowStub};
use logpipeline::{DropReason, ListenerConfig, LogStore, OverloadPolicy, SyslogListener};
use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic content-keyed classifier: the predicted category depends
/// only on the message bytes, so per-category totals must be identical no
/// matter how frames were partitioned across shards.
struct ParityStub;

impl TextClassifier for ParityStub {
    fn name(&self) -> String {
        "parity-stub".to_string()
    }

    fn classify(&self, message: &str) -> Prediction {
        if message.len().is_multiple_of(2) {
            Prediction::bare(Category::Unimportant)
        } else {
            Prediction::bare(Category::ThermalIssue)
        }
    }
}

/// Drive one listener with mixed TCP + UDP traffic (including frames that
/// can only parse-error) and return `(snapshot, per_category, shard sums)`.
/// The same TCP frames are dealt round-robin over `conns` connections, so
/// what the classifier sees does not depend on the connection count.
fn run_block(shards: usize, conns: usize) -> (IngestSnapshot, [u64; 8], (u64, u64)) {
    const TCP_FRAMES: usize = 200;
    const UDP_OK: usize = 20;
    const UDP_EMPTY: usize = 10;

    let store = Arc::new(LogStore::with_lanes(shards));
    let service = Arc::new(MonitorService::new(Arc::new(ParityStub)));
    let listener = SyslogListener::start(
        store,
        Some(service.clone()),
        ListenerConfig {
            workers: shards,
            shards,
            queue_depth: 256,
            overload: OverloadPolicy::Block,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    assert_eq!(listener.n_shards(), shards);
    let addr = listener.tcp_addr();

    let clients: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("connect");
                let mut wire = Vec::new();
                for i in (c..TCP_FRAMES).step_by(conns) {
                    let (node, k) = (i % 4, i / 4);
                    let frame = format!(
                        "<13>Oct 11 22:14:{:02} cn{node:04} app: sharded frame {k}",
                        k % 60
                    );
                    wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
                }
                for chunk in wire.chunks(37) {
                    sock.write_all(chunk).expect("write");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    for k in 0..UDP_OK {
        udp.send_to(
            format!("<13>Oct 11 22:15:{:02} udp0001 app: datagram {k}", k % 60).as_bytes(),
            listener.udp_addr(),
        )
        .expect("send");
    }
    for _ in 0..UDP_EMPTY {
        // Empty datagrams decode to empty frames and can only parse-error.
        udp.send_to(b"", listener.udp_addr()).expect("send empty");
    }

    let frames = (TCP_FRAMES + UDP_OK + UDP_EMPTY) as u64;
    assert!(
        wait_until(20_000, || {
            let s = listener.stats().snapshot();
            s.frames == frames && s.ingested + s.parse_errors == frames
        }),
        "frames did not settle at shards={shards} conns={conns}: {:?}",
        listener.stats().snapshot()
    );

    let shard_stats = listener.shard_stats_handle();
    let routed: u64 = shard_stats.iter().map(|s| s.routed.get()).sum();
    let processed: u64 = shard_stats.iter().map(|s| s.processed.get()).sum();
    let letters = listener.dead_letters().snapshot();
    assert!(letters.iter().all(|l| l.reason == DropReason::ParseError));
    let dead_lettered = listener.dead_letters().total_recorded();
    let report = listener.shutdown();
    assert_eq!(
        dead_lettered, report.parse_errors,
        "every parse error dead-letters exactly once at shards={shards} conns={conns}"
    );
    (report, service.stats().per_category, (routed, processed))
}

/// Block policy is lossless at every shard and connection count, the
/// per-shard ledgers sum to the aggregate, and predictions are
/// bit-identical to shards=1 over 4 connections.
#[test]
fn block_ledger_conserves_across_shard_counts() {
    let mut baseline: Option<[u64; 8]> = None;
    for (shards, conns) in [(1, 4), (2, 4), (4, 4), (1, 200), (4, 200)] {
        let (report, per_category, (routed, processed)) = run_block(shards, conns);
        let frames = report.frames;
        assert_eq!(
            report.shed, 0,
            "Block never sheds (shards={shards} conns={conns})"
        );
        assert_eq!(
            report.ingested + report.parse_errors,
            frames,
            "conservation broke at shards={shards} conns={conns}: {report:?}"
        );
        assert!(report.parse_errors > 0, "empty datagrams must parse-error");
        // Per-shard ledgers are exact, not approximate.
        assert_eq!(
            routed, frames,
            "Σ shard routed == frames (shards={shards} conns={conns})"
        );
        assert_eq!(
            processed,
            report.ingested + report.parse_errors,
            "Σ shard processed == ingested + parse_errors (shards={shards} conns={conns})"
        );
        // Neither partitioning nor the connection count may change what
        // the classifier computed.
        match &baseline {
            None => baseline = Some(per_category),
            Some(expect) => assert_eq!(
                &per_category, expect,
                "per-category predictions diverged at shards={shards} conns={conns}"
            ),
        }
    }
}

/// Shed policy: drops are exact, per-reason, and dead-lettered — at every
/// shard count the ledger still adds up to the frame count.
#[test]
fn shed_ledger_conserves_across_shard_counts() {
    for shards in [1usize, 2, 4] {
        const FRAMES: u64 = 120;
        let store = Arc::new(LogStore::with_lanes(shards));
        let service = Arc::new(MonitorService::new(Arc::new(SlowStub(
            Duration::from_millis(2),
        ))));
        let listener = SyslogListener::start(
            store,
            Some(service),
            ListenerConfig {
                workers: shards,
                shards,
                queue_depth: 2 * shards,
                max_batch: 2,
                overload: OverloadPolicy::Shed,
                ..ListenerConfig::default()
            },
        )
        .expect("bind loopback listener");
        let addr = listener.tcp_addr();

        let mut sock = TcpStream::connect(addr).expect("connect");
        for k in 0..FRAMES {
            let frame = format!("<13>Oct 11 22:14:{:02} cn0000 app: burst {k}", k % 60);
            sock.write_all(format!("{} {frame}", frame.len()).as_bytes())
                .expect("write");
        }
        drop(sock);

        assert!(
            wait_until(20_000, || {
                let s = listener.stats().snapshot();
                s.frames == FRAMES && s.ingested + s.shed == FRAMES
            }),
            "ledger did not settle at shards={shards}: {:?}",
            listener.stats().snapshot()
        );
        let letters = listener.dead_letters().snapshot();
        assert!(letters.iter().all(|l| l.reason == DropReason::QueueFull));
        let dead_lettered = listener.dead_letters().total_recorded();
        let report = listener.shutdown();
        assert!(
            report.shed > 0,
            "a {}-deep ring fabric against a 2ms/msg worker must shed (shards={shards})",
            2 * shards
        );
        assert_eq!(
            report.ingested + report.shed + report.parse_errors,
            FRAMES,
            "conservation broke at shards={shards}: {report:?}"
        );
        assert_eq!(
            dead_lettered,
            report.shed + report.parse_errors,
            "every drop dead-letters exactly once at shards={shards}"
        );
    }
}
