//! The fault-injection harness: scripted error-rate / stall / outage
//! scenarios driven through the **real listener loop** (TCP sockets, the
//! shard fabric, micro-batch workers, the fan-out, the spill), asserting
//! the at-least-once ledger under both delivery disciplines:
//!
//! * **Block** (lossless): the lane has a durable spill — under any fault
//!   `submitted + recovered == delivered + spilled_pending + dropped +
//!   in_flight` holds, `dropped == 0`, and once the sink recovers
//!   `spilled_pending` drains to zero with every record delivered exactly
//!   once (no duplicate loss).
//! * **Shed** (lossy, accounted): no spill, a tiny window — drops happen
//!   but are *counted*, and the same ledger balances at every step.
//!
//! The `#[ignore]`d outage-storm smoke runs a multi-outage flap in release
//! mode for CI (`cargo test -p logpipeline --release --test sink_faults
//! -- --ignored`) and writes `target/sink_faults_ledger.json` for upload.

use logpipeline::testsupport::{scratch_dir, wait_until, RecordingSink};
use logpipeline::{
    BulkSink, FanOut, FaultPlan, ListenerConfig, LogStore, OverloadPolicy, SinkLaneConfig,
    SinkSnapshot, SinkSpec, SpillConfig, SyslogListener,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The three scripted fault scenarios, as `(label, plan)` pairs: 5%
/// injected errors, 250 ms stalls, and a hard outage (shortened from 10 s
/// for in-suite use — the CI storm smoke runs the full-length window).
fn fault_scenarios(seed: u64, outage: Duration) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "errors_5pct",
            FaultPlan::healthy().with_seed(seed).with_error_rate(0.05),
        ),
        (
            "stall_250ms",
            FaultPlan::healthy()
                .with_seed(seed)
                .with_stall(Duration::from_millis(250)),
        ),
        (
            "outage_hard",
            FaultPlan::healthy()
                .with_seed(seed)
                .with_outage(Duration::ZERO, outage),
        ),
    ]
}

/// Write `n` LF-framed syslog lines over one TCP connection.
fn send_frames(addr: SocketAddr, from: u64, n: u64) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    for k in from..from + n {
        let frame = format!(
            "<13>Oct 11 22:14:{:02} cn{:04} app: fault harness frame {k}\n",
            k % 60,
            k % 9
        );
        sock.write_all(frame.as_bytes()).expect("write");
    }
}

/// Stand up store + fan-out + listener, push `frames` through the wire,
/// wait for the scenario's quiescence condition, and return the lane
/// ledger from *after* listener shutdown (so the drain path is always in
/// the assertion surface).
fn run_scenario(
    label: &str,
    plan: FaultPlan,
    lossless: bool,
    frames: u64,
    settle_ms: u64,
) -> (SinkSnapshot, Vec<u64>) {
    let dir = scratch_dir(&format!("faults-{label}"));
    let bulk = Arc::new(RecordingSink::new(format!("bulk-{label}"), plan));
    let mut lane = SinkLaneConfig {
        window: 4,
        max_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        ..SinkLaneConfig::default()
    };
    if lossless {
        lane = lane.with_spill(SpillConfig {
            segment_cap_bytes: 64 * 1024,
            ..SpillConfig::new(&dir)
        });
    } else {
        lane.overload = OverloadPolicy::Shed;
    }
    let fan_out =
        FanOut::open(vec![SinkSpec::with_config(bulk.clone(), lane)], None).expect("open fan-out");

    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store,
        None,
        ListenerConfig {
            workers: 2,
            queue_depth: 256,
            max_batch: 8,
            fan_out: Some(fan_out.clone()),
            ..ListenerConfig::default()
        },
    )
    .expect("bind listener");
    send_frames(listener.tcp_addr(), 0, frames);

    assert!(
        wait_until(15_000, || listener.stats().snapshot().ingested == frames),
        "listener must ingest all frames: {:?}",
        listener.stats().snapshot()
    );
    // Quiescence: lossless lanes must fully drain (spill replay included)
    // once the fault plan's faults pass; lossy lanes must settle to
    // delivered + dropped == submitted.
    let settled = wait_until(settle_ms, || {
        let s = &fan_out.snapshots()[0];
        if lossless {
            s.in_flight == 0 && s.spilled_pending == 0 && s.delivered == frames
        } else {
            s.in_flight == 0 && s.delivered + s.dropped == s.submitted
        }
    });
    assert!(
        settled,
        "scenario {label} failed to settle: {:?}",
        fan_out.snapshots()
    );
    listener.shutdown();
    let snap = fan_out.snapshots().remove(0);
    (snap, bulk.delivered_ids())
}

#[test]
fn fault_plans_hold_ledger_in_block_mode() {
    // A healthy sink, then the three scripted scenarios: 5% errors,
    // 250 ms stalls, and a hard outage (2 s here; the CI storm runs the
    // 10 s version). Block mode: a spill-backed lane must end with zero
    // loss in every one.
    let scenarios = std::iter::once(("healthy", FaultPlan::healthy().with_seed(42)))
        .chain(fault_scenarios(42, Duration::from_secs(2)));
    for (label, plan) in scenarios {
        let frames = if label == "stall_250ms" { 64 } else { 96 };
        let (snap, ids) = run_scenario(&format!("block-{label}"), plan, true, frames, 30_000);
        assert!(snap.ledger_balanced(), "{label}: {snap:?}");
        assert_eq!(snap.delivered, frames, "{label}: every frame delivered");
        assert_eq!(snap.dropped, 0, "{label}: Block mode never drops");
        assert_eq!(snap.spilled_pending, 0, "{label}: replay drained");
        assert_eq!(snap.replayed, snap.spilled, "{label}: spill fully replayed");
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len() as u64,
            frames,
            "{label}: every record exactly once ({} acks)",
            ids.len()
        );
    }
}

#[test]
fn fault_plans_hold_ledger_in_shed_mode() {
    // Shed mode: no spill, tiny window. Loss is allowed — silent loss is
    // not. Every scenario must keep the conservation ledger exact.
    for (label, plan) in fault_scenarios(1234, Duration::from_secs(2)) {
        let frames = if label == "stall_250ms" { 64 } else { 96 };
        let (snap, ids) = run_scenario(&format!("shed-{label}"), plan, false, frames, 30_000);
        assert!(snap.ledger_balanced(), "{label}: {snap:?}");
        assert_eq!(
            snap.delivered + snap.dropped,
            snap.submitted,
            "{label}: every record delivered or counted dropped: {snap:?}"
        );
        assert_eq!(snap.submitted, frames, "{label}");
        assert_eq!(snap.spilled, 0, "{label}: no spill configured");
        // No duplicate acks either (the sink only acks once per batch).
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "{label}: no duplicate acks");
    }
}

/// Regression for the latent listener-shutdown gap: graceful drain used to
/// flush decoder tails and partial batches but had no story for in-flight
/// *sink* batches. `shutdown` must now wait for sink acks or spill the
/// remainder durably — the ledger is pinned at shutdown with nothing
/// stranded in memory.
#[test]
fn shutdown_drains_or_spills_in_flight_sink_batches() {
    let dir = scratch_dir("shutdown-gap");
    // Slow enough that shutdown always catches batches mid-flight.
    let plan = FaultPlan::healthy().with_stall(Duration::from_millis(120));
    let bulk = Arc::new(RecordingSink::new("slow-drain", plan));
    let lane = SinkLaneConfig {
        window: 2,
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        ..SinkLaneConfig::default()
    }
    .with_spill(SpillConfig::new(&dir));
    let fan_out =
        FanOut::open(vec![SinkSpec::with_config(bulk.clone(), lane)], None).expect("open fan-out");

    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store,
        None,
        ListenerConfig {
            workers: 2,
            max_batch: 8,
            fan_out: Some(fan_out.clone()),
            ..ListenerConfig::default()
        },
    )
    .expect("bind listener");
    let frames = 64u64;
    send_frames(listener.tcp_addr(), 0, frames);
    assert!(wait_until(10_000, || {
        listener.stats().snapshot().ingested == frames
    }));
    // Shut down immediately: the 120 ms-per-batch sink cannot possibly
    // have drained yet, so the drain path must finish the job.
    listener.shutdown();

    let snap = &fan_out.snapshots()[0];
    assert!(
        snap.ledger_balanced(),
        "ledger pinned at shutdown: {snap:?}"
    );
    assert_eq!(snap.submitted, frames);
    assert_eq!(snap.in_flight, 0, "nothing stranded in memory: {snap:?}");
    assert_eq!(snap.dropped, 0, "spill-backed drain never drops: {snap:?}");
    assert_eq!(
        snap.delivered + snap.spilled_pending,
        frames,
        "every record acked or durable: {snap:?}"
    );
    // Whatever was delivered was delivered exactly once.
    let mut ids = bulk.delivered_ids();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, snap.delivered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a spill, shutdown still accounts for every in-flight batch:
/// one drain attempt each, the rest counted as shutdown drops.
#[test]
fn shutdown_without_spill_counts_undeliverable_remainder() {
    let plan = FaultPlan::healthy().with_stall(Duration::from_millis(150));
    let bulk = Arc::new(BulkSink::new("slow-noshed", plan));
    let lane = SinkLaneConfig {
        window: 64,
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
        ..SinkLaneConfig::default()
    };
    let fan_out =
        FanOut::open(vec![SinkSpec::with_config(bulk, lane)], None).expect("open fan-out");
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store,
        None,
        ListenerConfig {
            workers: 2,
            max_batch: 4,
            fan_out: Some(fan_out.clone()),
            ..ListenerConfig::default()
        },
    )
    .expect("bind listener");
    let frames = 48u64;
    send_frames(listener.tcp_addr(), 0, frames);
    assert!(wait_until(10_000, || {
        listener.stats().snapshot().ingested == frames
    }));
    listener.shutdown();
    let snap = &fan_out.snapshots()[0];
    assert!(snap.ledger_balanced(), "{snap:?}");
    assert_eq!(snap.in_flight, 0, "{snap:?}");
    assert_eq!(
        snap.delivered + snap.dropped,
        frames,
        "delivered or counted, nothing silent: {snap:?}"
    );
}

/// The CI outage-storm smoke (release mode, ~30 s wall): two hard outage
/// windows — including the acceptance criteria's 10 s one — plus 5%
/// background errors, under sustained wire traffic. The ledger JSON lands
/// in `target/sink_faults_ledger.json` for artifact upload whether or not
/// the assertions pass.
///
/// Run: `cargo test -p logpipeline --release --test sink_faults -- --ignored`
#[test]
#[ignore = "30s outage storm: run explicitly in CI"]
fn outage_storm_recovers_with_zero_loss() {
    let dir = scratch_dir("outage-storm");
    let plan = FaultPlan::healthy()
        .with_seed(7)
        .with_error_rate(0.05)
        .with_outage(Duration::from_secs(1), Duration::from_secs(10))
        .with_outage(Duration::from_secs(15), Duration::from_secs(5));
    let bulk = Arc::new(RecordingSink::new("storm", plan));
    let lane = SinkLaneConfig {
        window: 8,
        max_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(50),
        ..SinkLaneConfig::default()
    }
    .with_spill(SpillConfig {
        segment_cap_bytes: 256 * 1024,
        ..SpillConfig::new(&dir)
    });
    let fan_out =
        FanOut::open(vec![SinkSpec::with_config(bulk.clone(), lane)], None).expect("open fan-out");
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store,
        None,
        ListenerConfig {
            workers: 2,
            queue_depth: 1024,
            max_batch: 16,
            fan_out: Some(fan_out.clone()),
            ..ListenerConfig::default()
        },
    )
    .expect("bind listener");
    let addr = listener.tcp_addr();

    // ~22 s of sustained traffic spanning both outage windows.
    let mut sent = 0u64;
    let started = std::time::Instant::now();
    while started.elapsed() < Duration::from_secs(22) {
        send_frames(addr, sent, 50);
        sent += 50;
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(wait_until(20_000, || {
        listener.stats().snapshot().ingested == sent
    }));
    // Recovery: after the last outage ends, replay must drain everything.
    let drained = wait_until(60_000, || {
        let s = &fan_out.snapshots()[0];
        s.in_flight == 0 && s.spilled_pending == 0 && s.delivered == sent
    });
    listener.shutdown();
    let snap = fan_out.snapshots().remove(0);

    let ledger = serde_json::json!({
        "scenario": "outage_storm",
        "frames": sent,
        "submitted": snap.submitted,
        "recovered": snap.recovered,
        "delivered": snap.delivered,
        "dropped": snap.dropped,
        "spilled": snap.spilled,
        "replayed": snap.replayed,
        "spilled_pending": snap.spilled_pending,
        "retries": snap.retries,
        "nacks": snap.nacks,
        "in_flight": snap.in_flight,
        "ledger_balanced": snap.ledger_balanced(),
        "drained": drained,
    });
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/sink_faults_ledger.json"
    );
    std::fs::write(out, serde_json::to_string_pretty(&ledger).unwrap()).expect("write ledger");

    assert!(drained, "storm did not drain: {snap:?}");
    assert!(snap.ledger_balanced(), "{snap:?}");
    assert_eq!(snap.delivered, sent, "zero loss across both outages");
    assert_eq!(snap.dropped, 0);
    assert!(snap.spilled > 0, "the outages must have spilled");
    let mut ids = bulk.delivered_ids();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, sent, "exactly-once after dedup");
    let _ = std::fs::remove_dir_all(&dir);
}
