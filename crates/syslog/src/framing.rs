//! RFC 6587 TCP stream framing.
//!
//! Syslog over TCP (how Darwin's nodes reach the central syslog server)
//! delivers a byte stream, not datagrams; RFC 6587 defines two framings
//! that real senders mix freely:
//!
//! * **Octet counting**: `MSG-LEN SP MSG` (rsyslog's default for TCP);
//! * **Non-transparent**: frames terminated by LF.
//!
//! [`FrameDecoder`] incrementally splits a stream into frames, detecting
//! the framing per message the way rsyslog's receiver does (a frame that
//! starts with a digit run followed by a space is octet-counted).

/// Find the first occurrence of `needle` in `hay` with a SWAR
/// (SIMD-within-a-register) scan: 8 bytes per step through the classic
/// zero-byte trick — `(w - 0x01…01) & !w & 0x80…80` has a high bit set
/// exactly in the lanes of `w` that are zero, so XORing the haystack word
/// with a splatted needle turns "find the needle" into "find the zero
/// lane". The unaligned tail falls back to a byte loop.
///
/// This is the frame decoder's hot inner loop: LF-framed syslog spends
/// almost all of its decode time locating the next `\n`, and the word scan
/// retires 8 haystack bytes per iteration against the byte loop's 1.
/// Byte-exact with [`find_byte_scalar`] (proptested, and used as the
/// decode oracle by `FrameDecoder::scalar_oracle`).
#[inline]
pub fn find_byte_swar(hay: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let pat = u64::from(needle).wrapping_mul(LO);
    let mut i = 0;
    while i + 8 <= hay.len() {
        let word = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk"));
        let x = word ^ pat;
        let zero_lanes = x.wrapping_sub(LO) & !x & HI;
        if zero_lanes != 0 {
            // trailing_zeros finds the lowest matching lane, which under
            // little-endian loads is the earliest haystack position.
            return Some(i + (zero_lanes.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == needle).map(|p| i + p)
}

/// The byte-at-a-time reference for [`find_byte_swar`]: the scalar oracle
/// the SWAR path is proptested against, and the scan the pre-SWAR decoder
/// actually ran.
#[inline]
pub fn find_byte_scalar(hay: &[u8], needle: u8) -> Option<usize> {
    hay.iter().position(|&b| b == needle)
}

/// Incremental RFC 6587 frame decoder.
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    buffer: Vec<u8>,
    /// Frames dropped because their declared length was unparseable or
    /// oversized.
    dropped: u64,
    /// Use the scalar byte-loop boundary scan instead of the SWAR word
    /// scan. Differential-testing hook: the two must be byte-exact.
    scalar: bool,
}

/// Upper bound on a declared octet count (guards against a corrupt length
/// swallowing the stream).
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Outcome of one framing step at a buffer offset.
enum Step {
    /// A complete frame spanning `.1` input bytes was extracted.
    Frame(String, usize),
    /// `.0` bytes of non-payload input (blank lines, a corrupt count
    /// token) were consumed without producing a frame.
    Skip(usize),
    /// The remaining bytes are an incomplete frame; wait for more input.
    NeedMore,
}

/// Outcome of attempting octet-counted framing at the buffer head.
enum OctetResult {
    /// A complete frame spanning `.1` bytes was extracted.
    Frame(String, usize),
    /// A corrupt length token of `.0` bytes should be dropped.
    Dropped(usize),
    /// A plausible count was seen but the payload has not fully arrived.
    Incomplete,
    /// The buffer head is not octet-counted framing.
    NotOctet,
}

impl FrameDecoder {
    /// New empty decoder (SWAR boundary scan).
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// A decoder forced onto the scalar byte-loop boundary scan — the
    /// byte-exact oracle the SWAR fast path is differential-tested
    /// against. Same frames, same drop accounting, one word-scan slower.
    pub fn scalar_oracle() -> FrameDecoder {
        FrameDecoder {
            scalar: true,
            ..FrameDecoder::default()
        }
    }

    /// Bytes currently buffered waiting for more input.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Frames dropped due to malformed octet counts.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Feed bytes; returns every complete frame they unlocked.
    ///
    /// Frames are scanned with a cursor and the buffer compacted ONCE at
    /// the end — draining per frame memmoves the whole remaining buffer
    /// for every message and goes quadratic on a read that carries many
    /// small frames (the common case for batched senders).
    pub fn push(&mut self, bytes: &[u8]) -> Vec<String> {
        self.buffer.extend_from_slice(bytes);
        let mut frames = Vec::new();
        let mut head = 0;
        loop {
            match Self::step(&self.buffer[head..], &mut self.dropped, self.scalar) {
                Step::Frame(frame, consumed) => {
                    frames.push(frame);
                    head += consumed;
                }
                Step::Skip(consumed) => head += consumed,
                Step::NeedMore => break,
            }
        }
        if head > 0 {
            self.buffer.drain(..head);
        }
        frames
    }

    /// Flush a trailing unterminated frame (stream end).
    ///
    /// A stream cut mid-way through an octet-counted frame leaves the
    /// `LEN ` count token at the buffer head; flushing it verbatim would
    /// leak the count into the message text. The token is stripped (it is
    /// framing, not payload) and the partial payload flushed; a tail that
    /// is *only* a (possibly partial) count token is counted as dropped.
    pub fn finish(&mut self) -> Option<String> {
        if self.buffer.is_empty() {
            return None;
        }
        let mut head = 0;
        if self.buffer[0].is_ascii_digit() {
            let digit_run = self
                .buffer
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            if digit_run == self.buffer.len() && digit_run <= 6 {
                // Nothing but a partial count token arrived.
                self.buffer.clear();
                self.dropped += 1;
                return None;
            }
            if digit_run <= 6 && self.buffer[digit_run] == b' ' {
                // A valid pending count (corrupt ones were already dropped
                // during push): strip `LEN ` and flush the partial payload.
                head = digit_run + 1;
            }
        }
        let frame = String::from_utf8_lossy(&self.buffer[head..])
            .trim_end()
            .to_string();
        self.buffer.clear();
        if frame.is_empty() {
            if head > 0 {
                // The declared payload never arrived at all.
                self.dropped += 1;
            }
            return None;
        }
        Some(frame)
    }

    /// One framing step over `buf` (the unconsumed buffer tail).
    /// Iterative callers loop on `Skip` — a recursive rescan after every
    /// dropped count or blank line overflows the stack on hostile input
    /// (a single push of ~100k blank lines).
    fn step(buf: &[u8], dropped: &mut u64, scalar: bool) -> Step {
        if buf.is_empty() {
            return Step::NeedMore;
        }
        if buf[0].is_ascii_digit() {
            match Self::try_octet_counted(buf) {
                OctetResult::Frame(frame, consumed) => return Step::Frame(frame, consumed),
                OctetResult::Dropped(consumed) => {
                    // Corrupt count: drop the length token, resynchronize.
                    *dropped += 1;
                    return Step::Skip(consumed);
                }
                // Valid count, payload still arriving.
                OctetResult::Incomplete => return Step::NeedMore,
                // Digits but not a count: fall through to LF framing.
                OctetResult::NotOctet => {}
            }
        }
        Self::try_non_transparent(buf, scalar)
    }

    fn try_octet_counted(buf: &[u8]) -> OctetResult {
        // Find the count terminator within the allowed digit width.
        let window = &buf[..buf.len().min(7)];
        let Some(space) = window.iter().position(|&b| b == b' ') else {
            // No space yet: either a short partial count (wait) or an LF
            // frame that happens to start with digits.
            if buf.len() <= 6 && buf.iter().all(|b| b.is_ascii_digit()) {
                return OctetResult::Incomplete;
            }
            return OctetResult::NotOctet;
        };
        if space == 0 || !buf[..space].iter().all(|b| b.is_ascii_digit()) {
            return OctetResult::NotOctet;
        }
        let len: usize = std::str::from_utf8(&buf[..space])
            .expect("digits are utf8")
            .parse()
            .expect("digit run parses");
        if len == 0 || len > MAX_FRAME_LEN {
            return OctetResult::Dropped(space + 1);
        }
        if buf.len() < space + 1 + len {
            return OctetResult::Incomplete;
        }
        let frame = String::from_utf8_lossy(&buf[space + 1..space + 1 + len]).into_owned();
        OctetResult::Frame(frame, space + 1 + len)
    }

    fn try_non_transparent(buf: &[u8], scalar: bool) -> Step {
        // Swallow the whole leading run of blank lines (`(\r*\n)+`) in one
        // skip: consuming them one at a time is quadratic on an LF flood.
        let mut skip = 0;
        loop {
            let mut j = skip;
            while j < buf.len() && buf[j] == b'\r' {
                j += 1;
            }
            if j < buf.len() && buf[j] == b'\n' {
                skip = j + 1;
            } else {
                break;
            }
        }
        if skip > 0 {
            return Step::Skip(skip);
        }
        let lf = if scalar {
            find_byte_scalar(buf, b'\n')
        } else {
            find_byte_swar(buf, b'\n')
        };
        let Some(lf) = lf else {
            return Step::NeedMore;
        };
        let frame = String::from_utf8_lossy(&buf[..lf])
            .trim_end_matches('\r')
            .to_string();
        if frame.is_empty() {
            // A line of pure '\r's trims to nothing: also a blank line.
            Step::Skip(lf + 1)
        } else {
            Step::Frame(frame, lf + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode a complete in-memory stream, flushing the unterminated tail.
    fn split_stream(bytes: &[u8]) -> Vec<String> {
        let mut decoder = FrameDecoder::new();
        let mut frames = decoder.push(bytes);
        frames.extend(decoder.finish());
        frames
    }

    const FRAME: &str = "<13>Oct 11 22:14:15 cn01 app: hello";

    #[test]
    fn octet_counted_single() {
        let wire = format!("{} {FRAME}", FRAME.len());
        assert_eq!(split_stream(wire.as_bytes()), vec![FRAME.to_string()]);
    }

    #[test]
    fn octet_counted_back_to_back() {
        let wire = format!("{0} {FRAME}{0} {FRAME}", FRAME.len());
        assert_eq!(split_stream(wire.as_bytes()).len(), 2);
    }

    #[test]
    fn non_transparent_lines() {
        let wire = format!("{FRAME}\n{FRAME}\r\n\n{FRAME}\n");
        let frames = split_stream(wire.as_bytes());
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().all(|f| f == FRAME));
    }

    #[test]
    fn mixed_framings_in_one_stream() {
        let wire = format!("{} {FRAME}{FRAME}\n", FRAME.len());
        let frames = split_stream(wire.as_bytes());
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn partial_delivery_across_pushes() {
        let wire = format!("{} {FRAME}", FRAME.len());
        let bytes = wire.as_bytes();
        let mut decoder = FrameDecoder::new();
        // Byte-at-a-time delivery: only the final byte completes the frame.
        let mut frames = Vec::new();
        for b in bytes {
            frames.extend(decoder.push(std::slice::from_ref(b)));
        }
        assert_eq!(frames, vec![FRAME.to_string()]);
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn oversized_count_resynchronizes() {
        let wire = format!("999999 {FRAME}\n");
        let mut decoder = FrameDecoder::new();
        let frames = decoder.push(wire.as_bytes());
        assert_eq!(decoder.dropped(), 1);
        // After dropping the bogus count, the payload survives as an LF
        // frame.
        assert_eq!(frames, vec![FRAME.to_string()]);
    }

    #[test]
    fn pri_digits_are_not_mistaken_for_counts() {
        // A non-transparent frame starting with '<' then digits is fine,
        // but one starting with bare digits + space could be ambiguous;
        // RFC receivers treat it as octet-counted. Verify the common case:
        // frames starting with '<PRI>' go through LF framing.
        let frames = split_stream(format!("{FRAME}\n").as_bytes());
        assert_eq!(frames, vec![FRAME.to_string()]);
    }

    #[test]
    fn finish_flushes_unterminated_tail() {
        let mut decoder = FrameDecoder::new();
        assert!(decoder.push(FRAME.as_bytes()).is_empty());
        assert_eq!(decoder.finish(), Some(FRAME.to_string()));
        assert_eq!(decoder.finish(), None);
    }

    #[test]
    fn empty_stream() {
        assert!(split_stream(b"").is_empty());
        assert!(split_stream(b"\n\n\n").is_empty());
    }

    #[test]
    fn blank_line_flood_does_not_overflow_stack() {
        // The recursive blank-line swallow overflowed the stack on a single
        // push of ~100k blank lines; the loop must absorb it (quickly).
        let mut decoder = FrameDecoder::new();
        let flood: Vec<u8> = b"\n".repeat(150_000);
        assert!(decoder.push(&flood).is_empty());
        assert_eq!(decoder.pending(), 0);
        // Mixed CRLF blanks, with a real frame buried at the end.
        let mut wire = b"\r\n".repeat(50_000);
        wire.extend_from_slice(FRAME.as_bytes());
        wire.push(b'\n');
        assert_eq!(decoder.push(&wire), vec![FRAME.to_string()]);
    }

    #[test]
    fn corrupt_count_flood_does_not_overflow_stack() {
        // Each "999999 " token is dropped and rescanned; recursion here
        // also grew one stack frame per drop.
        let mut decoder = FrameDecoder::new();
        let flood: Vec<u8> = b"999999 ".repeat(60_000);
        assert!(decoder.push(&flood).is_empty());
        assert_eq!(decoder.dropped(), 60_000);
    }

    #[test]
    fn blank_lines_before_octet_frame_are_skipped() {
        let wire = format!("\n\r\n{} {FRAME}", FRAME.len());
        assert_eq!(split_stream(wire.as_bytes()), vec![FRAME.to_string()]);
    }

    #[test]
    fn finish_strips_count_prefix_of_truncated_octet_frame() {
        // Stream ends mid-way through an octet-counted frame: the flushed
        // tail must not leak the "35 " count token into the message.
        let mut decoder = FrameDecoder::new();
        let truncated = &FRAME[..23];
        assert!(decoder
            .push(format!("{} {truncated}", FRAME.len()).as_bytes())
            .is_empty());
        assert_eq!(decoder.finish(), Some(truncated.to_string()));
    }

    #[test]
    fn finish_drops_bare_count_token() {
        // Only (part of) a count token arrived: framing metadata, not a
        // message — count it as dropped rather than flushing "123".
        let mut decoder = FrameDecoder::new();
        assert!(decoder.push(b"123").is_empty());
        assert_eq!(decoder.finish(), None);
        assert_eq!(decoder.dropped(), 1);

        let mut decoder = FrameDecoder::new();
        assert!(decoder.push(b"35 ").is_empty());
        assert_eq!(decoder.finish(), None);
        assert_eq!(decoder.dropped(), 1);
    }

    #[test]
    fn finish_keeps_digit_leading_non_transparent_tail() {
        // A tail that merely *starts* with digits but is not octet framing
        // (no space after ≤6 digits) flushes verbatim.
        let mut decoder = FrameDecoder::new();
        decoder.push(b"12345678 load average high");
        assert_eq!(
            decoder.finish(),
            Some("12345678 load average high".to_string())
        );
        assert_eq!(decoder.dropped(), 0);
    }

    #[test]
    fn swar_find_byte_matches_scalar_on_edges() {
        // Needle at every offset of a buffer spanning several words, plus
        // the no-match, empty, and high-bit-byte cases the zero-lane trick
        // must get right.
        for len in 0..40usize {
            for at in 0..len {
                let mut hay = vec![0xAAu8; len];
                hay[at] = b'\n';
                assert_eq!(find_byte_swar(&hay, b'\n'), Some(at), "len={len} at={at}");
                assert_eq!(find_byte_swar(&hay, b'\n'), find_byte_scalar(&hay, b'\n'));
            }
            let hay = vec![0x80u8; len];
            assert_eq!(find_byte_swar(&hay, b'\n'), None);
            // 0x80 needles exercise the high-bit lanes directly.
            assert_eq!(
                find_byte_swar(&hay, 0x80),
                find_byte_scalar(&hay, 0x80),
                "len={len}"
            );
        }
        assert_eq!(find_byte_swar(b"", b'\n'), None);
        // First match wins when several are present in one word.
        assert_eq!(find_byte_swar(b"a\n\n\n\n\n\nb", b'\n'), Some(1));
    }

    #[test]
    fn scalar_oracle_decodes_identically_on_mixed_wire() {
        let wire = format!(
            "{} {FRAME}\r\n\n{FRAME}\n999999 \n@@garbage \x01\x02!!\n{0} {FRAME}",
            FRAME.len()
        );
        let mut swar = FrameDecoder::new();
        let mut scalar = FrameDecoder::scalar_oracle();
        for chunk in wire.as_bytes().chunks(13) {
            assert_eq!(swar.push(chunk), scalar.push(chunk));
            assert_eq!(swar.pending(), scalar.pending());
            assert_eq!(swar.dropped(), scalar.dropped());
        }
        assert_eq!(swar.finish(), scalar.finish());
        assert_eq!(swar.dropped(), scalar.dropped());
    }

    #[test]
    fn frames_parse_after_splitting() {
        let wire = format!("{} {FRAME}{FRAME}\n", FRAME.len());
        for frame in split_stream(wire.as_bytes()) {
            let parsed = crate::parse(&frame).unwrap();
            assert_eq!(parsed.hostname.as_deref(), Some("cn01"));
        }
    }
}
