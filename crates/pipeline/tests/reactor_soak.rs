//! High-fanout soak for the epoll reactor front end: 512 short-lived
//! concurrent connections multiplexed onto a 2-thread reactor pool, with
//! the full conservation ledger asserted after the drain:
//!
//! ```text
//! frames == stored + Σ dropped{reason}
//! connections_opened == connections_closed
//! ```
//!
//! This is the workload shape the reactor exists for — far more
//! connections than threads. A second soak bursts UDP datagrams through
//! reactor 0 beside live TCP connections under `Shed`.

use logpipeline::testsupport::wait_until;
use logpipeline::{Frontend, ListenerConfig, LogStore, OverloadPolicy, SyslogListener};
use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// 512 connections (32 writer threads × 16 sequential connections each),
/// every connection sending a handful of frames — the last one left as an
/// unterminated tail the close must flush.
#[test]
fn reactor_soak_512_connections_conserves_ledger() {
    const WRITERS: usize = 32;
    const CONNS_PER_WRITER: usize = 16;
    const FRAMES_PER_CONN: u64 = 4; // 3 LF-framed + 1 flushed tail
    const CONNECTIONS: u64 = (WRITERS * CONNS_PER_WRITER) as u64;
    const EXPECTED: u64 = CONNECTIONS * FRAMES_PER_CONN;

    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store.clone(),
        None,
        ListenerConfig {
            frontend: Frontend::Reactor { threads: 2 },
            workers: 2,
            queue_depth: 1024,
            overload: OverloadPolicy::Block,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    assert_eq!(listener.n_reactors(), 2);
    let addr = listener.tcp_addr();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                for c in 0..CONNS_PER_WRITER {
                    let mut sock = TcpStream::connect(addr).expect("connect");
                    let mut wire = Vec::new();
                    for k in 0..FRAMES_PER_CONN - 1 {
                        wire.extend_from_slice(
                            format!("<13>Oct 11 22:14:15 cn{w:02}{c:02} app: soak {k}\n")
                                .as_bytes(),
                        );
                    }
                    // Unterminated tail: only the close flushes it.
                    wire.extend_from_slice(
                        format!("<13>Oct 11 22:14:15 cn{w:02}{c:02} app: soak tail").as_bytes(),
                    );
                    sock.write_all(&wire).expect("write");
                    drop(sock); // short-lived: close immediately
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }

    assert!(
        wait_until(60_000, || {
            let s = listener.stats().snapshot();
            s.ingested == EXPECTED && s.connections == CONNECTIONS
        }),
        "soak never quiesced: {:?}",
        listener.stats().snapshot()
    );

    let reactor_stats = listener.reactor_stats_handle();
    let opened = listener.stats().connections_opened.clone();
    let closed = listener.stats().connections_closed.clone();
    let report = listener.shutdown();

    // Conservation: every decoded frame is stored or dropped by reason.
    assert_eq!(
        report.frames,
        report.ingested + report.shed + report.parse_errors,
        "frame ledger must balance: {report:?}"
    );
    assert_eq!(
        report.frames, EXPECTED,
        "every frame decoded, tails included"
    );
    assert_eq!(report.ingested, EXPECTED, "lossless under Block");
    assert_eq!(report.connections, CONNECTIONS);
    assert_eq!(store.len() as u64, EXPECTED);

    // Connection ledger: after the drain every accept has a matching
    // close, and no reactor still holds a registered connection.
    assert_eq!(opened.get(), CONNECTIONS);
    assert_eq!(
        closed.get(),
        opened.get(),
        "every accepted connection must be closed after the drain"
    );
    let registered: i64 = reactor_stats.iter().map(|r| r.connections.get()).sum();
    assert_eq!(registered, 0, "drain must deregister every connection");
    let wakeups: u64 = reactor_stats.iter().map(|r| r.wakeups.get()).sum();
    assert!(wakeups > 0, "reactors must actually have run");
}

/// The connection ledger balances even when peers vanish mid-frame: every
/// opened connection is closed by EOF, idle sweep, or the drain.
#[test]
fn reactor_balances_opened_and_closed_across_abrupt_disconnects() {
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store,
        None,
        ListenerConfig {
            frontend: Frontend::Reactor { threads: 2 },
            workers: 1,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = listener.tcp_addr();

    // 64 peers connect, write half a frame, and vanish without closing
    // cleanly in order (socket drop sends RST or FIN mid-decode).
    let socks: Vec<TcpStream> = (0..64)
        .map(|k| {
            let mut sock = TcpStream::connect(addr).expect("connect");
            sock.write_all(format!("<13>Oct 11 22:14:15 cn{k:04} app: abrupt").as_bytes())
                .expect("write");
            sock
        })
        .collect();
    assert!(
        wait_until(10_000, || { listener.stats().snapshot().connections == 64 }),
        "connects never landed: {:?}",
        listener.stats().snapshot()
    );
    drop(socks);

    // Every tail flushes and every close is accounted without a drain.
    assert!(
        wait_until(10_000, || listener.stats().snapshot().ingested == 64),
        "tails never flushed: {:?}",
        listener.stats().snapshot()
    );
    let closed = listener.stats().connections_closed.clone();
    assert!(
        wait_until(10_000, || closed.get() == 64),
        "closes never accounted: {}",
        closed.get()
    );
    let report = listener.shutdown();
    assert_eq!(report.connections, 64);
    assert_eq!(report.ingested, 64);
}

/// 2 000 UDP datagrams burst through reactor 0 under `Shed` while four TCP
/// connections stream beside them: every datagram the kernel delivered is
/// a frame, every frame is stored, shed or a parse error, and the TCP
/// connections keep per-connection FIFO order into the store.
#[test]
fn udp_burst_beside_live_tcp_conserves_ledger_and_tcp_order() {
    const DATAGRAMS: u64 = 2_000;
    const TCP_CONNS: u64 = 4;
    const TCP_FRAMES: u64 = 250;

    // One shard: with no sibling to steal from, the worker claims the
    // ring strictly front to back, so store ids follow ring order and
    // the FIFO check below reads the order the reactors enqueued in.
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store.clone(),
        None,
        ListenerConfig {
            workers: 1,
            queue_depth: 64,
            overload: OverloadPolicy::Shed,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let tcp_addr = listener.tcp_addr();
    let udp_addr = listener.udp_addr();

    let tcp_writers: Vec<_> = (0..TCP_CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(tcp_addr).expect("connect");
                for k in 0..TCP_FRAMES {
                    sock.write_all(
                        format!("<13>Oct 11 22:14:15 tcp{c:02} app: seq {k:04}\n").as_bytes(),
                    )
                    .expect("write");
                }
            })
        })
        .collect();
    let udp = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    for k in 0..DATAGRAMS {
        // Every 100th datagram is empty: a frame that must dead-letter.
        let payload = if k % 100 == 99 {
            String::new()
        } else {
            format!("<13>Oct 11 22:14:15 udp00 app: dgram {k}")
        };
        udp.send_to(payload.as_bytes(), udp_addr).expect("send");
    }
    for writer in tcp_writers {
        writer.join().expect("tcp writer");
    }

    // Quiesce. Loopback delivers (or drops) a datagram inside `send_to`,
    // so once the reactor has emptied the socket buffer nothing more
    // arrives: wait for a balanced ledger that no longer moves.
    let stats = listener.stats();
    let mut previous = stats.snapshot();
    assert!(
        wait_until(30_000, || {
            std::thread::sleep(Duration::from_millis(200));
            let now = stats.snapshot();
            let settled =
                now == previous && now.ingested + now.shed + now.parse_errors == now.frames;
            previous = now;
            settled
        }),
        "never quiesced: {:?}",
        stats.snapshot()
    );
    let udp_datagrams = stats.udp_datagrams.get();
    let report = listener.shutdown();

    assert!(udp_datagrams > 0, "no datagram arrived: {report:?}");
    assert!(udp_datagrams <= DATAGRAMS);
    assert_eq!(
        report.frames,
        udp_datagrams + TCP_CONNS * TCP_FRAMES,
        "one datagram = one frame, and every TCP frame arrives"
    );
    assert_eq!(
        report.frames,
        report.ingested + report.shed + report.parse_errors,
        "frame ledger must balance: {report:?}"
    );
    assert_eq!(store.len() as u64, report.ingested);
    assert_eq!(report.connections, TCP_CONNS);

    // Per-connection FIFO: whatever survived shedding is stored in the
    // order the connection sent it.
    for c in 0..TCP_CONNS {
        let mut rows = store.search(0, i64::MAX / 2, &[format!("tcp{c:02}")]);
        rows.sort_by_key(|r| r.id);
        let seqs: Vec<&str> = rows
            .iter()
            .map(|r| r.message.rsplit(' ').next().unwrap())
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "connection {c} reordered: {seqs:?}"
        );
    }
}
