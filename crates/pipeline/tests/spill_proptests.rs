//! Property tests for the spill codec and the spill buffer's replay
//! discipline (issue satellite). Three families of properties:
//!
//! * **round trip** — any batch of frames encodes and decodes back
//!   byte-identically, CRC verified, with exact frame boundaries;
//! * **corruption detection** — a torn tail or a flipped byte is *always*
//!   detected (never a panic, never a silently wrong frame): the clean
//!   prefix decodes intact and the damaged frame reports a `FrameError`.
//!   The same holds through `SpillBuffer::open`, which must quarantine a
//!   truncated tail and replay exactly the decodable prefix;
//! * **FIFO replay** — under any interleaving of `append`, `peek`,
//!   `commit` (with uncommitted re-peeks and small segment caps forcing
//!   rolls), committed frames come out exactly once in append order.

use logpipeline::spill::{
    decode_frame, encode_frame, encoded_len, FrameError, SpillBuffer, SpillConfig, SpillFrame,
    SPILL_HEADER_BYTES,
};
use logpipeline::testsupport::scratch_dir;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch dir per proptest case (cases run sequentially but must
/// not see each other's segments).
fn case_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    scratch_dir(&format!("{tag}-{}", CASE.fetch_add(1, Ordering::Relaxed)))
}

fn frames_from(parts: Vec<(u32, Vec<u8>)>) -> Vec<SpillFrame> {
    parts
        .into_iter()
        .enumerate()
        .map(|(i, (records, payload))| SpillFrame {
            seq: i as u64,
            // The ledger counts records per frame; zero is legal (an
            // empty batch) and must survive the codec too.
            records: records % 512,
            payload,
        })
        .collect()
}

fn encode_all(frames: &[SpillFrame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for frame in frames {
        encode_frame(frame, &mut buf);
    }
    buf
}

/// Decode frames until clean end, error, or torn tail. Returns the decoded
/// prefix and the terminal result.
fn decode_all(buf: &[u8]) -> (Vec<SpillFrame>, Result<(), FrameError>) {
    let mut out = Vec::new();
    let mut offset = 0usize;
    loop {
        match decode_frame(buf, offset) {
            Ok(None) => return (out, Ok(())),
            Ok(Some((frame, consumed))) => {
                offset += consumed;
                out.push(frame);
            }
            Err(e) => return (out, Err(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → decode is the identity, byte-for-byte, frame-for-frame.
    #[test]
    fn codec_round_trips_byte_identically(
        parts in collection::vec((0u32..4096, collection::vec(0u8..=255, 0..256)), 1..12)
    ) {
        let frames = frames_from(parts);
        let buf = encode_all(&frames);
        let expected: u64 = frames.iter().map(encoded_len).sum();
        prop_assert_eq!(buf.len() as u64, expected);

        let (decoded, end) = decode_all(&buf);
        prop_assert_eq!(end, Ok(()));
        prop_assert_eq!(&decoded, &frames);
        // Re-encoding the decode reproduces the original bytes exactly.
        prop_assert_eq!(encode_all(&decoded), buf);
    }

    /// A torn tail (truncation at any byte) never panics and never yields
    /// a wrong frame: the decodable prefix is exactly the frames that fit
    /// before the cut, and the remainder reports `Truncated` (or a clean
    /// end when the cut lands on a frame boundary).
    #[test]
    fn truncation_is_always_detected(
        parts in collection::vec((0u32..64, collection::vec(0u8..=255, 0..64)), 1..8),
        cut_sel in 0u64..1_000_000
    ) {
        let frames = frames_from(parts);
        let buf = encode_all(&frames);
        let cut = (cut_sel % buf.len() as u64) as usize;
        let torn = &buf[..cut];

        let (decoded, end) = decode_all(torn);
        // The prefix is intact and in order…
        prop_assert!(decoded.len() < frames.len());
        prop_assert_eq!(&decoded[..], &frames[..decoded.len()]);
        // …and the cut is either invisible (frame boundary) or flagged.
        let clean: u64 = frames[..decoded.len()].iter().map(encoded_len).sum();
        if cut as u64 == clean {
            prop_assert_eq!(end, Ok(()));
        } else {
            prop_assert_eq!(end, Err(FrameError::Truncated));
        }
    }

    /// A flipped byte anywhere in the stream is always detected: frames
    /// before the damage decode intact, the damaged frame errors, and no
    /// decoded frame ever differs from what was written.
    #[test]
    fn bit_damage_is_always_detected(
        parts in collection::vec((0u32..64, collection::vec(0u8..=255, 1..64)), 1..8),
        pos_sel in 0u64..1_000_000,
        delta in 1u8..=255
    ) {
        let frames = frames_from(parts);
        let mut buf = encode_all(&frames);
        let pos = (pos_sel % buf.len() as u64) as usize;
        buf[pos] ^= delta;

        let (decoded, end) = decode_all(&buf);
        // Which frame does the damaged byte live in?
        let mut boundary = 0u64;
        let mut damaged = 0usize;
        for (i, f) in frames.iter().enumerate() {
            boundary += encoded_len(f);
            if (pos as u64) < boundary {
                damaged = i;
                break;
            }
        }
        prop_assert_eq!(decoded.len(), damaged, "decode stops at the damage");
        prop_assert_eq!(&decoded[..], &frames[..damaged]);
        prop_assert!(end.is_err(), "damage reported, got {:?}", end);
    }

    /// `SpillBuffer::open` on a directory whose tail segment was torn at
    /// an arbitrary byte never panics, quarantines the damage, and replays
    /// exactly the decodable prefix in FIFO order.
    #[test]
    fn reopen_replays_the_decodable_prefix_of_a_torn_dir(
        parts in collection::vec((1u32..16, collection::vec(0u8..=255, 1..48)), 2..8),
        cut_sel in 0u64..1_000_000
    ) {
        let frames = frames_from(parts);
        let dir = case_dir("prop-torn");
        let (mut spill, report) =
            SpillBuffer::open(SpillConfig::new(&dir)).expect("open fresh");
        prop_assert_eq!(report.frames, 0);
        for f in &frames {
            spill.append(f).expect("append");
        }
        drop(spill); // crash: no seal, no drain

        // Tear the (single) active segment at an arbitrary byte.
        let seg = dir.join("spill-00000000.seg");
        let bytes = std::fs::read(&seg).expect("read segment");
        let cut = (cut_sel % bytes.len() as u64) as usize;
        std::fs::write(&seg, &bytes[..cut]).expect("truncate");

        let (mut spill, report) =
            SpillBuffer::open(SpillConfig::new(&dir)).expect("reopen torn dir");
        let mut replayed = Vec::new();
        while let Some(frame) = spill.peek().expect("peek") {
            replayed.push(frame);
            spill.commit();
        }
        // Replay is exactly the frames whose bytes fully precede the cut.
        let mut boundary = 0u64;
        let mut survivors = 0usize;
        for f in &frames {
            boundary += encoded_len(f);
            if boundary <= cut as u64 {
                survivors += 1;
            }
        }
        prop_assert_eq!(replayed.len(), survivors);
        prop_assert_eq!(&replayed[..], &frames[..survivors]);
        prop_assert_eq!(report.frames, survivors as u64);
        if cut as u64 > boundary_of(&frames, survivors) {
            // A partial frame was present: it must be quarantined, not
            // replayed and not fatal.
            prop_assert!(report.quarantined > 0);
        }
        prop_assert_eq!(spill.pending_frames(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any interleaving of append / peek / commit — including re-peeks of
    /// uncommitted frames and segment rolls at a tiny cap — yields every
    /// frame exactly once, in append order.
    #[test]
    fn replay_is_fifo_under_any_schedule(
        parts in collection::vec((1u32..8, collection::vec(0u8..=255, 1..32)), 1..16),
        ops in collection::vec(0u8..3, 8..64),
        cap in 64u64..512
    ) {
        let frames = frames_from(parts);
        let dir = case_dir("prop-fifo");
        let (mut spill, _) =
            SpillBuffer::open(SpillConfig { segment_cap_bytes: cap, ..SpillConfig::new(&dir) })
                .expect("open");

        let mut next_append = 0usize;
        let mut committed: Vec<SpillFrame> = Vec::new();
        let mut peeked: Option<SpillFrame> = None;
        for op in ops {
            match op {
                0 if next_append < frames.len() => {
                    spill.append(&frames[next_append]).expect("append");
                    next_append += 1;
                }
                1 => {
                    if let Some(frame) = spill.peek().expect("peek") {
                        if let Some(prev) = &peeked {
                            // Un-committed peek must re-serve the same frame.
                            prop_assert_eq!(prev, &frame);
                        }
                        peeked = Some(frame);
                    }
                }
                2 => {
                    if let Some(frame) = peeked.take() {
                        spill.commit();
                        committed.push(frame);
                    }
                }
                _ => {}
            }
        }
        // Drain: append the rest, then replay everything left.
        for f in &frames[next_append..] {
            spill.append(f).expect("append");
        }
        if let Some(frame) = peeked.take() {
            spill.commit();
            committed.push(frame);
        }
        while let Some(frame) = spill.peek().expect("peek") {
            spill.commit();
            committed.push(frame);
        }
        prop_assert_eq!(&committed, &frames);
        prop_assert_eq!(spill.pending_frames(), 0);
        prop_assert_eq!(spill.pending_records(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Total encoded bytes of the first `n` frames.
fn boundary_of(frames: &[SpillFrame], n: usize) -> u64 {
    frames[..n].iter().map(encoded_len).sum()
}

/// Non-property sanity pin: the header constant matches the codec layout
/// (magic + seq + records + len + crc).
#[test]
fn header_constant_matches_layout() {
    assert_eq!(SPILL_HEADER_BYTES, 4 + 8 + 4 + 4 + 4);
    let frame = SpillFrame {
        seq: 9,
        records: 3,
        payload: b"xyz".to_vec(),
    };
    assert_eq!(encoded_len(&frame), SPILL_HEADER_BYTES as u64 + 3);
}
