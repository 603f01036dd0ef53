//! Crash-recovery integration test (issue satellite): a fan-out is killed
//! mid-spill — hard stop, no drain, plus a manually-appended torn frame
//! simulating a write cut off by the crash — then a fresh process (a new
//! `FanOut::open` over the same directory) must replay every durable batch
//! exactly once to the recovered sink, quarantine the torn tail, and keep
//! the conservation ledger balanced on both sides of the crash.

use logpipeline::testsupport::{scratch_dir, wait_until, RecordingSink};
use logpipeline::{
    FanOut, FaultPlan, LogRecord, SinkLaneConfig, SinkSpec, SpillBuffer, SpillConfig,
};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `n` records with ids `from..from + n`, cycling hostnames and apps so
/// batches look like real traffic.
fn sample_records(from: u64, n: u64) -> Vec<LogRecord> {
    (from..from + n)
        .map(|id| {
            let frame = format!(
                "<{}>Oct 11 22:14:{:02} cn{:04} app{}: sample record {id}",
                (id % 8) * 8 + 6,
                id % 60,
                id % 16,
                id % 4,
            );
            let msg = syslog_model::parse(&frame)
                .unwrap_or_else(|_| syslog_model::SyslogMessage::free_form(&frame));
            LogRecord::from_message_owned(id, msg, 1_700_000_000)
        })
        .collect()
}

/// Every `spill-*.seg` under `dir`, oldest first.
fn segments(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("spill-") && n.ends_with(".seg"))
                })
                .collect()
        })
        .unwrap_or_default();
    segs.sort();
    segs
}

#[test]
fn crash_mid_spill_replays_exactly_once_after_reopen() {
    let dir = scratch_dir("crash-recovery");
    let total = 48u64;

    // ---- Phase 1: the crashing process. The sink is hard-down from t=0,
    // so every batch lands in the spill; shutdown(0) is the crash — no
    // drain attempts, queue force-spilled, segments sealed.
    let down = FaultPlan::healthy().with_outage(Duration::ZERO, Duration::from_secs(3600));
    let sink = Arc::new(RecordingSink::new("flaky-store", down));
    let lane = SinkLaneConfig {
        window: 4,
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        ..SinkLaneConfig::default()
    }
    .with_spill(SpillConfig {
        segment_cap_bytes: 1024,
        ..SpillConfig::new(&dir)
    });
    let fan_out =
        FanOut::open(vec![SinkSpec::with_config(sink.clone(), lane)], None).expect("open fan-out");
    for chunk in sample_records(0, total).chunks(6) {
        fan_out.submit(chunk);
    }
    assert!(
        wait_until(10_000, || {
            let s = &fan_out.snapshots()[0];
            s.in_flight == 0 || s.spilled_pending > 0
        }),
        "work must reach the lane: {:?}",
        fan_out.snapshots()
    );
    fan_out.shutdown(Duration::ZERO); // crash: force-spill, no drain
    let crashed = fan_out.snapshots().remove(0);
    drop(fan_out);
    assert!(crashed.ledger_balanced(), "{crashed:?}");
    assert_eq!(crashed.delivered, 0, "sink was down the whole time");
    assert_eq!(crashed.dropped, 0, "spill-backed lane never drops");
    assert_eq!(
        crashed.spilled_pending, total,
        "everything durable: {crashed:?}"
    );
    assert_eq!(sink.delivered_records(), 0);
    let segs = segments(&dir);
    assert!(
        segs.len() > 1,
        "1 KiB cap must have rolled segments: {segs:?}"
    );

    // ---- Torn final write: the crash cut a frame in half. Append the
    // first half of a real frame's bytes to the newest segment.
    let torn = {
        let mut buf = Vec::new();
        logpipeline::spill::encode_frame(
            &logpipeline::SpillFrame {
                seq: 9_999,
                records: 6,
                payload: vec![0xAB; 120],
            },
            &mut buf,
        );
        buf.truncate(buf.len() / 2);
        buf
    };
    let last = segs.last().expect("at least one segment");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(last)
        .expect("open last segment");
    file.write_all(&torn).expect("append torn bytes");
    file.sync_all().expect("sync");
    drop(file);

    // ---- Phase 2: the restarted process. A healthy sink over the same
    // spill directory: open() must recover every intact frame, quarantine
    // the torn tail, and the worker replays it all without resubmission.
    let sink2 = Arc::new(RecordingSink::new("flaky-store", FaultPlan::healthy()));
    let lane2 = SinkLaneConfig::default().with_spill(SpillConfig::new(&dir));
    let fan_out2 = FanOut::open(vec![SinkSpec::with_config(sink2.clone(), lane2)], None)
        .expect("reopen over crashed dir");
    assert!(
        wait_until(10_000, || {
            let s = &fan_out2.snapshots()[0];
            s.spilled_pending == 0 && s.in_flight == 0
        }),
        "recovered spill must drain: {:?}",
        fan_out2.snapshots()
    );
    fan_out2.shutdown(Duration::from_secs(5));
    let recovered = fan_out2.snapshots().remove(0);

    assert!(recovered.ledger_balanced(), "{recovered:?}");
    assert_eq!(recovered.submitted, 0, "nothing new was submitted");
    assert_eq!(recovered.recovered, total, "ledger credits the recovery");
    assert_eq!(recovered.delivered, total, "{recovered:?}");
    assert_eq!(recovered.dropped, 0);

    // Exactly once, in order, with the original record identities.
    let ids = sink2.delivered_ids();
    assert_eq!(
        ids,
        (0..total).collect::<Vec<_>>(),
        "FIFO, no dups, no gaps"
    );

    // The torn tail is quarantined evidence, not silent loss.
    let quarantine = dir.join("quarantine");
    let tails: Vec<_> = std::fs::read_dir(&quarantine)
        .map(|rd| rd.filter_map(|e| e.ok()).collect())
        .unwrap_or_default();
    assert!(
        !tails.is_empty(),
        "torn tail must land in quarantine/: {quarantine:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The same crash shape at the `SpillBuffer` layer, with the torn write
/// *inside* phase 1's unsealed active segment (not appended after the
/// fact): reopen sees a clean prefix plus garbage and must recover the
/// prefix only.
#[test]
fn reopen_truncates_unsealed_active_segment_to_last_intact_frame() {
    let dir = scratch_dir("crash-active-seg");
    let (mut spill, _) = SpillBuffer::open(SpillConfig::new(&dir)).expect("open");
    let frames: Vec<_> = (0..5u64)
        .map(|seq| logpipeline::SpillFrame {
            seq,
            records: 2,
            payload: format!("batch-{seq}").into_bytes(),
        })
        .collect();
    for f in &frames {
        spill.append(f).expect("append");
    }
    drop(spill); // crash without seal

    // Half a frame of garbage at the tail of the active segment.
    let seg = segments(&dir).pop().expect("active segment exists");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&seg)
        .expect("open");
    file.write_all(b"SPL1 then the power went out")
        .expect("append garbage");
    drop(file);

    let (mut spill, report) = SpillBuffer::open(SpillConfig::new(&dir)).expect("reopen");
    assert_eq!(report.frames, 5, "{report:?}");
    assert_eq!(report.records, 10);
    assert_eq!(report.quarantined, 1, "{report:?}");
    let mut replayed = Vec::new();
    while let Some(f) = spill.peek().expect("peek") {
        replayed.push(f);
        spill.commit();
    }
    assert_eq!(replayed, frames, "prefix replayed intact and in order");
    assert_eq!(spill.pending_frames(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
