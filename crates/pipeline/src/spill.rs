//! Durable spill-then-replay buffering for the sink stage.
//!
//! When a sink nacks or its in-flight window fills, classified batches are
//! written to size-capped, CRC-framed segment files on disk and re-driven
//! in order once the sink recovers (see [`crate::sink::FanOut`]). This is
//! the rsyslog/Vector disk-assisted-queue model: overload stops meaning
//! *loss* (today's Shed drops) and starts meaning *latency*, with the
//! at-least-once ledger `submitted == delivered + spilled_pending +
//! dropped` holding at every instant.
//!
//! On-disk layout: a spill directory holds `spill-<index>.seg` files,
//! each a concatenation of frames
//!
//! ```text
//! magic(4) | seq(8) | records(4) | len(4) | crc32(4) | payload(len)
//! ```
//!
//! (all little-endian; the CRC covers `seq..len` plus the payload, so a
//! torn header is as detectable as a torn payload). Segments roll at
//! [`SpillConfig::segment_cap_bytes`] and are fsynced when sealed.
//! [`SpillBuffer::open`] re-scans an existing directory after a crash:
//! every intact frame is recovered for replay; a truncated or corrupt
//! tail is **quarantined** (moved to `quarantine/`, the segment truncated
//! back to its last valid frame) instead of panicking or silently
//! re-delivering garbage.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Frame magic: `"SPL1"`.
pub const SPILL_MAGIC: u32 = 0x5350_4C31;

/// Fixed frame header size in bytes.
pub const SPILL_HEADER_BYTES: usize = 24;

/// Upper bound on a single frame payload; anything larger in a header is
/// treated as corruption rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) over `bytes`, optionally continuing from a prior digest.
pub fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One spilled batch: an opaque payload plus the accounting the replay
/// path needs without decoding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillFrame {
    /// Lane-assigned monotone sequence number (FIFO evidence).
    pub seq: u64,
    /// Log records carried by the payload (ledger accounting).
    pub records: u32,
    /// The encoded batch (the sink codec's bytes, opaque to the spill).
    pub payload: Vec<u8>,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The magic bytes did not match — the cursor is not at a frame start.
    BadMagic,
    /// The buffer ends mid-header or mid-payload (torn write).
    Truncated,
    /// The declared payload length is implausible.
    BadLength(u32),
    /// The payload or header failed its checksum.
    CrcMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadLength(n) => write!(f, "implausible frame length {n}"),
            FrameError::CrcMismatch => write!(f, "frame CRC mismatch"),
        }
    }
}

/// Append `frame`'s wire encoding to `out`.
pub fn encode_frame(frame: &SpillFrame, out: &mut Vec<u8>) {
    out.extend_from_slice(&SPILL_MAGIC.to_le_bytes());
    let header_start = out.len();
    out.extend_from_slice(&frame.seq.to_le_bytes());
    out.extend_from_slice(&frame.records.to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    let crc = crc32(crc32(0, &out[header_start..]), &frame.payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&frame.payload);
}

/// Encoded size of `frame` on disk.
pub fn encoded_len(frame: &SpillFrame) -> u64 {
    SPILL_HEADER_BYTES as u64 + frame.payload.len() as u64
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Decode one frame starting at `buf[offset..]`.
///
/// `Ok(None)` means a clean end of buffer (offset exactly at the end);
/// anything else that cannot produce a full, checksummed frame is a
/// [`FrameError`] describing the corruption.
pub fn decode_frame(buf: &[u8], offset: usize) -> Result<Option<(SpillFrame, usize)>, FrameError> {
    let rest = &buf[offset.min(buf.len())..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < SPILL_HEADER_BYTES {
        return Err(FrameError::Truncated);
    }
    if read_u32(rest, 0) != SPILL_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let seq = read_u64(rest, 4);
    let records = read_u32(rest, 12);
    let len = read_u32(rest, 16);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::BadLength(len));
    }
    let crc_stored = read_u32(rest, 20);
    let total = SPILL_HEADER_BYTES + len as usize;
    if rest.len() < total {
        return Err(FrameError::Truncated);
    }
    let payload = &rest[SPILL_HEADER_BYTES..total];
    let crc = crc32(crc32(0, &rest[4..20]), payload);
    if crc != crc_stored {
        return Err(FrameError::CrcMismatch);
    }
    Ok(Some((
        SpillFrame {
            seq,
            records,
            payload: payload.to_vec(),
        },
        total,
    )))
}

/// Spill directory tuning.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Roll to a new segment once the active one reaches this size.
    pub segment_cap_bytes: u64,
}

impl SpillConfig {
    /// Spill into `dir` with the default 4 MiB segment cap.
    pub fn new(dir: impl Into<PathBuf>) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            segment_cap_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What [`SpillBuffer::open`] found in an existing directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact segments scheduled for replay.
    pub segments: u64,
    /// Intact frames (batches) recovered.
    pub frames: u64,
    /// Log records inside those frames.
    pub records: u64,
    /// Corrupt or torn tails moved to `quarantine/`.
    pub quarantined: u64,
}

/// A sealed, durable segment awaiting replay.
#[derive(Debug)]
struct SegmentMeta {
    index: u64,
    path: PathBuf,
}

/// The segment currently being appended.
struct ActiveSegment {
    index: u64,
    path: PathBuf,
    writer: BufWriter<File>,
    bytes: u64,
    frames: u64,
}

/// An open reader over the oldest sealed segment, fully buffered (segments
/// are size-capped, so one segment in memory is bounded by the cap).
struct SegmentReader {
    index: u64,
    path: PathBuf,
    data: Vec<u8>,
    offset: usize,
}

/// The durable FIFO: append at the tail (active segment), replay from the
/// head (oldest sealed segment), with peek/commit semantics so a frame
/// only leaves the pending ledger once the sink acked it. Not internally
/// synchronized — the owning sink lane serializes access.
pub struct SpillBuffer {
    config: SpillConfig,
    sealed: VecDeque<SegmentMeta>,
    active: Option<ActiveSegment>,
    reader: Option<SegmentReader>,
    peeked: Option<SpillFrame>,
    pending_frames: u64,
    pending_records: u64,
    bytes_written: u64,
    segments_sealed: u64,
    quarantined: u64,
    next_index: u64,
}

impl std::fmt::Debug for SpillBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillBuffer")
            .field("dir", &self.config.dir)
            .field("pending_frames", &self.pending_frames)
            .field("pending_records", &self.pending_records)
            .field("sealed", &self.sealed.len())
            .finish()
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("spill-{index:08}.seg"))
}

fn parse_segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("spill-")?.strip_suffix(".seg")?;
    digits.parse().ok()
}

impl SpillBuffer {
    /// Open (or create) a spill directory. Existing segments are scanned
    /// frame by frame: intact prefixes are queued for replay oldest-first,
    /// torn or corrupt tails are quarantined, and appends resume on a
    /// fresh segment index above everything recovered.
    pub fn open(config: SpillConfig) -> io::Result<(SpillBuffer, RecoveryReport)> {
        std::fs::create_dir_all(&config.dir)?;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&config.dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| parse_segment_index(p).is_some())
            .collect();
        paths.sort_by_key(|p| parse_segment_index(p).unwrap_or(u64::MAX));

        let mut report = RecoveryReport::default();
        let mut sealed = VecDeque::new();
        let mut next_index = 0u64;
        for path in paths {
            let index = parse_segment_index(&path).expect("filtered above");
            next_index = next_index.max(index + 1);
            let mut data = Vec::new();
            File::open(&path)?.read_to_end(&mut data)?;
            // Walk the intact prefix; anything after the first bad frame
            // (torn write, flipped bit) is the quarantined tail.
            let mut offset = 0usize;
            let mut frames = 0u64;
            let mut records = 0u64;
            loop {
                match decode_frame(&data, offset) {
                    Ok(Some((frame, consumed))) => {
                        frames += 1;
                        records += frame.records as u64;
                        offset += consumed;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        Self::quarantine_tail(&config.dir, &path, &data[offset..])?;
                        report.quarantined += 1;
                        break;
                    }
                }
            }
            if frames == 0 {
                // Nothing recoverable: the (possibly quarantined) segment
                // is removed so replay never opens it.
                std::fs::remove_file(&path)?;
                continue;
            }
            if offset < data.len() {
                // Truncate back to the last intact frame so the reader
                // sees a clean EOF.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(offset as u64)?;
                file.sync_all()?;
            }
            report.segments += 1;
            report.frames += frames;
            report.records += records;
            sealed.push_back(SegmentMeta { index, path });
        }

        let buffer = SpillBuffer {
            config,
            sealed,
            active: None,
            reader: None,
            peeked: None,
            pending_frames: report.frames,
            pending_records: report.records,
            bytes_written: 0,
            segments_sealed: 0,
            quarantined: report.quarantined,
            next_index,
        };
        Ok((buffer, report))
    }

    fn quarantine_tail(dir: &Path, segment: &Path, tail: &[u8]) -> io::Result<()> {
        let qdir = dir.join("quarantine");
        std::fs::create_dir_all(&qdir)?;
        let name = segment
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("segment");
        std::fs::write(qdir.join(format!("{name}.tail")), tail)
    }

    /// Append one frame to the durable tail, rolling the active segment at
    /// the size cap (sealed segments are fsynced).
    pub fn append(&mut self, frame: &SpillFrame) -> io::Result<()> {
        let len = encoded_len(frame);
        let needs_roll = self
            .active
            .as_ref()
            .is_some_and(|a| a.frames > 0 && a.bytes + len > self.config.segment_cap_bytes);
        if needs_roll {
            self.seal_active()?;
        }
        if self.active.is_none() {
            let index = self.next_index;
            self.next_index += 1;
            let path = segment_path(&self.config.dir, index);
            let file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&path)?;
            self.active = Some(ActiveSegment {
                index,
                path,
                writer: BufWriter::new(file),
                bytes: 0,
                frames: 0,
            });
        }
        let active = self.active.as_mut().expect("just ensured");
        let mut encoded = Vec::with_capacity(len as usize);
        encode_frame(frame, &mut encoded);
        active.writer.write_all(&encoded)?;
        // Flushed (not fsynced) per append: a clean process exit loses
        // nothing; fsync happens at segment seal and shutdown.
        active.writer.flush()?;
        active.bytes += len;
        active.frames += 1;
        self.bytes_written += len;
        self.pending_frames += 1;
        self.pending_records += frame.records as u64;
        Ok(())
    }

    /// Seal the active segment: flush, fsync, and queue it for replay.
    fn seal_active(&mut self) -> io::Result<()> {
        if let Some(mut active) = self.active.take() {
            active.writer.flush()?;
            active.writer.get_ref().sync_all()?;
            self.segments_sealed += 1;
            if active.frames > 0 {
                self.sealed.push_back(SegmentMeta {
                    index: active.index,
                    path: active.path,
                });
            } else {
                let _ = std::fs::remove_file(&active.path);
            }
        }
        Ok(())
    }

    /// Flush and fsync everything durable (graceful-shutdown path). The
    /// buffer remains usable afterwards.
    pub fn seal(&mut self) -> io::Result<()> {
        self.seal_active()
    }

    /// The oldest unacked frame, if any. Repeated peeks without an
    /// intervening [`SpillBuffer::commit`] return the same frame, so a
    /// sink that stays down never skips it. Reaching the active segment
    /// seals it first — replay always reads sealed, fsynced data.
    pub fn peek(&mut self) -> io::Result<Option<SpillFrame>> {
        if let Some(frame) = &self.peeked {
            return Ok(Some(frame.clone()));
        }
        loop {
            if self.reader.is_none() {
                if let Some(front) = self.sealed.front() {
                    let mut data = Vec::new();
                    File::open(&front.path)?.read_to_end(&mut data)?;
                    self.reader = Some(SegmentReader {
                        index: front.index,
                        path: front.path.clone(),
                        data,
                        offset: 0,
                    });
                } else if self.active.as_ref().is_some_and(|a| a.frames > 0) {
                    self.seal_active()?;
                    continue;
                } else {
                    return Ok(None);
                }
            }
            let reader = self.reader.as_mut().expect("ensured above");
            match decode_frame(&reader.data, reader.offset) {
                Ok(Some((frame, consumed))) => {
                    reader.offset += consumed;
                    self.peeked = Some(frame.clone());
                    return Ok(Some(frame));
                }
                Ok(None) => {
                    // Segment exhausted: it is durable history now.
                    let done = self.reader.take().expect("present");
                    debug_assert_eq!(Some(done.index), self.sealed.front().map(|s| s.index));
                    let _ = std::fs::remove_file(&done.path);
                    self.sealed.pop_front();
                }
                Err(_) => {
                    // A sealed segment should never corrupt under us, but
                    // treat it like recovery would: quarantine the tail
                    // and move on rather than wedging replay.
                    let done = self.reader.take().expect("present");
                    Self::quarantine_tail(&self.config.dir, &done.path, &done.data[done.offset..])?;
                    self.quarantined += 1;
                    // Frames lost to the quarantined tail leave the
                    // pending ledger as best we can tell (they can no
                    // longer be replayed).
                    let mut lost_frames = 0u64;
                    let mut lost_records = 0u64;
                    let mut off = done.offset;
                    while let Ok(Some((f, c))) = decode_frame(&done.data, off) {
                        lost_frames += 1;
                        lost_records += f.records as u64;
                        off += c;
                    }
                    self.pending_frames = self.pending_frames.saturating_sub(lost_frames);
                    self.pending_records = self.pending_records.saturating_sub(lost_records);
                    let _ = std::fs::remove_file(&done.path);
                    self.sealed.pop_front();
                }
            }
        }
    }

    /// Acknowledge the last peeked frame: it leaves the pending ledger and
    /// the next [`SpillBuffer::peek`] advances. No-op without a peek.
    pub fn commit(&mut self) {
        if let Some(frame) = self.peeked.take() {
            self.pending_frames = self.pending_frames.saturating_sub(1);
            self.pending_records = self.pending_records.saturating_sub(frame.records as u64);
        }
    }

    /// Frames written but not yet committed (replayed and acked).
    pub fn pending_frames(&self) -> u64 {
        self.pending_frames
    }

    /// Records written but not yet committed.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Total encoded bytes appended this session.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Segments sealed (fsynced) this session.
    pub fn segments_sealed(&self) -> u64 {
        self.segments_sealed
    }

    /// Corrupt tails quarantined (recovery scan plus replay).
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/tmp-spill"
        ))
        .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn frame(seq: u64, records: u32, payload: &[u8]) -> SpillFrame {
        SpillFrame {
            seq,
            records,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // Incremental == one-shot.
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = frame(7, 3, b"hello world");
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        assert_eq!(buf.len() as u64, encoded_len(&f));
        let (back, consumed) = decode_frame(&buf, 0).unwrap().unwrap();
        assert_eq!(back, f);
        assert_eq!(consumed, buf.len());
        assert_eq!(decode_frame(&buf, consumed), Ok(None));
    }

    #[test]
    fn decode_detects_corruption_kinds() {
        let f = frame(1, 1, b"payload bytes");
        let mut buf = Vec::new();
        encode_frame(&f, &mut buf);
        // Truncated payload.
        assert_eq!(
            decode_frame(&buf[..buf.len() - 1], 0),
            Err(FrameError::Truncated)
        );
        // Truncated header.
        assert_eq!(decode_frame(&buf[..10], 0), Err(FrameError::Truncated));
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_frame(&bad, 0), Err(FrameError::BadMagic));
        // Flipped payload byte.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(decode_frame(&bad, 0), Err(FrameError::CrcMismatch));
        // Flipped header byte (seq) is caught by the same checksum.
        let mut bad = buf.clone();
        bad[5] ^= 0x01;
        assert_eq!(decode_frame(&bad, 0), Err(FrameError::CrcMismatch));
        // Implausible length.
        let mut bad = buf;
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bad, 0), Err(FrameError::BadLength(u32::MAX)));
    }

    #[test]
    fn append_peek_commit_fifo() {
        let dir = tmp_dir("fifo");
        let (mut spill, report) = SpillBuffer::open(SpillConfig::new(&dir)).unwrap();
        assert_eq!(report, RecoveryReport::default());
        for i in 0..5u64 {
            spill
                .append(&frame(i, 2, format!("batch {i}").as_bytes()))
                .unwrap();
        }
        assert_eq!(spill.pending_frames(), 5);
        assert_eq!(spill.pending_records(), 10);
        // Peek without commit repeats the same frame.
        assert_eq!(spill.peek().unwrap().unwrap().seq, 0);
        assert_eq!(spill.peek().unwrap().unwrap().seq, 0);
        for i in 0..5u64 {
            let f = spill.peek().unwrap().unwrap();
            assert_eq!(f.seq, i);
            spill.commit();
        }
        assert_eq!(spill.peek().unwrap(), None);
        assert_eq!(spill.pending_frames(), 0);
        assert_eq!(spill.pending_records(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_at_cap_and_interleave_with_replay() {
        let dir = tmp_dir("roll");
        let config = SpillConfig {
            segment_cap_bytes: 128,
            ..SpillConfig::new(&dir)
        };
        let (mut spill, _) = SpillBuffer::open(config).unwrap();
        for i in 0..20u64 {
            spill.append(&frame(i, 1, &[i as u8; 40])).unwrap();
        }
        assert!(spill.segments_sealed() >= 2, "128-byte cap must roll");
        // Replay half, then append more, then drain: order must hold.
        for i in 0..10u64 {
            assert_eq!(spill.peek().unwrap().unwrap().seq, i);
            spill.commit();
        }
        for i in 20..25u64 {
            spill.append(&frame(i, 1, &[0u8; 8])).unwrap();
        }
        for i in 10..25u64 {
            assert_eq!(spill.peek().unwrap().unwrap().seq, i, "FIFO across roll");
            spill.commit();
        }
        assert_eq!(spill.peek().unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_pending_frames() {
        let dir = tmp_dir("reopen");
        {
            let (mut spill, _) = SpillBuffer::open(SpillConfig::new(&dir)).unwrap();
            for i in 0..8u64 {
                spill.append(&frame(i, 3, b"durable")).unwrap();
            }
            // Crash: dropped without seal — appends were flushed, so the
            // bytes are in the file even without the fsync.
        }
        let (mut spill, report) = SpillBuffer::open(SpillConfig::new(&dir)).unwrap();
        assert_eq!(report.frames, 8);
        assert_eq!(report.records, 24);
        assert_eq!(report.quarantined, 0);
        assert_eq!(spill.pending_records(), 24);
        for i in 0..8u64 {
            assert_eq!(spill.peek().unwrap().unwrap().seq, i);
            spill.commit();
        }
        assert_eq!(spill.peek().unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_quarantined_not_replayed() {
        let dir = tmp_dir("torn");
        {
            let (mut spill, _) = SpillBuffer::open(SpillConfig::new(&dir)).unwrap();
            for i in 0..3u64 {
                spill.append(&frame(i, 1, b"intact")).unwrap();
            }
            spill.seal().unwrap();
        }
        // Tear the file: append half a frame.
        let seg = segment_path(&dir, 0);
        let mut torn = Vec::new();
        encode_frame(&frame(3, 1, b"torn away"), &mut torn);
        let mut file = OpenOptions::new().append(true).open(&seg).unwrap();
        file.write_all(&torn[..torn.len() / 2]).unwrap();
        drop(file);

        let (mut spill, report) = SpillBuffer::open(SpillConfig::new(&dir)).unwrap();
        assert_eq!(report.frames, 3, "intact prefix recovered");
        assert_eq!(report.quarantined, 1, "torn tail quarantined");
        assert!(dir.join("quarantine").read_dir().unwrap().next().is_some());
        for i in 0..3u64 {
            assert_eq!(spill.peek().unwrap().unwrap().seq, i);
            spill.commit();
        }
        assert_eq!(spill.peek().unwrap(), None);
        // New appends go to a fresh segment above the recovered index.
        spill.append(&frame(9, 1, b"after recovery")).unwrap();
        assert_eq!(spill.peek().unwrap().unwrap().seq, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
