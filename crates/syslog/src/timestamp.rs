//! Minimal civil-time timestamp for syslog frames.
//!
//! Syslog needs only two grammars: the RFC 3164 `Mmm dd hh:mm:ss` form
//! (which has no year or zone) and the RFC 5424 ISO 8601 form. We carry a
//! plain civil datetime plus an optional UTC offset, and can convert to Unix
//! seconds for time-sharded storage. This avoids pulling a calendar crate
//! into the workspace for what is a few dozen lines of well-known math.

use crate::error::ParseError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A parsed syslog timestamp.
///
/// RFC 3164 timestamps carry no year; [`Timestamp::unix_seconds`] assumes
/// the paper's collection year for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Timestamp {
    /// Calendar year; 0 means "unknown" (RFC 3164 frames).
    pub year: i32,
    /// Month, 1-12.
    pub month: u8,
    /// Day of month, 1-31.
    pub day: u8,
    /// Hour, 0-23.
    pub hour: u8,
    /// Minute, 0-59.
    pub minute: u8,
    /// Second, 0-59 (leap seconds are folded to 59).
    pub second: u8,
    /// Sub-second nanoseconds.
    pub nanos: u32,
    /// Offset from UTC in minutes, if the frame carried one.
    pub utc_offset_minutes: Option<i16>,
}

const MONTH_ABBREV: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u8) -> u8 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Parse exactly `n` ASCII digits at `b[i..i + n]`.
///
/// Operating on bytes (not `&str` slices) keeps the parsers panic-free on
/// multi-byte UTF-8 input: `&input[..3]` panics when byte 3 is not a char
/// boundary, and hostile frames do arrive mid-stream with non-ASCII bytes
/// in timestamp position.
fn digits(b: &[u8], i: usize, n: usize) -> Option<u32> {
    let slice = b.get(i..i + n)?;
    let mut value = 0u32;
    for &c in slice {
        if !c.is_ascii_digit() {
            return None;
        }
        value = value * 10 + (c - b'0') as u32;
    }
    Some(value)
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

impl Timestamp {
    /// Construct a timestamp, validating field ranges.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        year: i32,
        month: u8,
        day: u8,
        hour: u8,
        minute: u8,
        second: u8,
    ) -> Result<Timestamp, ParseError> {
        let ts = Timestamp {
            year,
            month,
            day,
            hour,
            minute,
            second,
            nanos: 0,
            utc_offset_minutes: None,
        };
        ts.validate()?;
        Ok(ts)
    }

    fn validate(&self) -> Result<(), ParseError> {
        let bad = |what: &str| -> ParseError { ParseError::BadTimestamp(what.to_string()) };
        if !(1..=12).contains(&self.month) {
            return Err(bad("month out of range"));
        }
        let year_for_len = if self.year == 0 { 2000 } else { self.year };
        if self.day == 0 || self.day > days_in_month(year_for_len, self.month) {
            return Err(bad("day out of range"));
        }
        if self.hour > 23 || self.minute > 59 || self.second > 59 {
            return Err(bad("time of day out of range"));
        }
        Ok(())
    }

    /// Seconds since the Unix epoch, treating a missing offset as UTC and a
    /// missing year as 2023 (the paper's collection year).
    pub fn unix_seconds(&self) -> i64 {
        let year = if self.year == 0 { 2023 } else { self.year };
        let days = days_from_civil(year, self.month, self.day);
        let mut secs =
            days * 86_400 + self.hour as i64 * 3_600 + self.minute as i64 * 60 + self.second as i64;
        if let Some(off) = self.utc_offset_minutes {
            secs -= off as i64 * 60;
        }
        secs
    }

    /// Parse an RFC 3164 `Mmm dd hh:mm:ss` timestamp, returning the
    /// remainder of the input after the (space-terminated) timestamp.
    pub fn parse_rfc3164(input: &str) -> Result<(Timestamp, &str), ParseError> {
        let bad = || ParseError::BadTimestamp(input.chars().take(20).collect());
        let b = input.as_bytes();
        if b.len() < 15 {
            return Err(bad());
        }
        let month = MONTH_ABBREV
            .iter()
            .position(|m| m.as_bytes() == &b[..3])
            .ok_or_else(bad)? as u8
            + 1;
        if b[3] != b' ' {
            return Err(bad());
        }
        // Day is space-padded: "Oct  5" or "Oct 15".
        let day: u8 = match (b[4], b[5]) {
            (b' ', u) if u.is_ascii_digit() => u - b'0',
            (t, u) if t.is_ascii_digit() && u.is_ascii_digit() => (t - b'0') * 10 + (u - b'0'),
            _ => return Err(bad()),
        };
        if b[6] != b' ' || b[9] != b':' || b[12] != b':' {
            return Err(bad());
        }
        let hour = digits(b, 7, 2).ok_or_else(bad)? as u8;
        let minute = digits(b, 10, 2).ok_or_else(bad)? as u8;
        let second = digits(b, 13, 2).ok_or_else(bad)? as u8;
        let ts = Timestamp::new(0, month, day, hour, minute, second)?;
        // Bytes 0..15 are all ASCII (validated above), so 15 is a char
        // boundary even when the remainder is multi-byte UTF-8.
        Ok((ts, &input[15..]))
    }

    /// Parse an RFC 5424 / ISO 8601 timestamp token (no trailing content).
    pub fn parse_rfc5424(token: &str) -> Result<Timestamp, ParseError> {
        let bad = || ParseError::BadTimestamp(token.chars().take(40).collect());
        // Minimal form: 2023-10-11T22:14:15Z  (20 chars)
        let b = token.as_bytes();
        if b.len() < 19 {
            return Err(bad());
        }
        if b[4] != b'-' || b[7] != b'-' || (b[10] != b'T' && b[10] != b't') {
            return Err(bad());
        }
        if b[13] != b':' || b[16] != b':' {
            return Err(bad());
        }
        let year = digits(b, 0, 4).ok_or_else(bad)? as i32;
        let month = digits(b, 5, 2).ok_or_else(bad)? as u8;
        let day = digits(b, 8, 2).ok_or_else(bad)? as u8;
        let hour = digits(b, 11, 2).ok_or_else(bad)? as u8;
        let minute = digits(b, 14, 2).ok_or_else(bad)? as u8;
        let second = digits(b, 17, 2).ok_or_else(bad)? as u8;
        let mut pos = 19;
        let mut nanos = 0u32;
        if b.get(pos) == Some(&b'.') {
            let frac_start = pos + 1;
            let mut frac_end = frac_start;
            while frac_end < b.len() && b[frac_end].is_ascii_digit() {
                frac_end += 1;
            }
            let width = frac_end - frac_start;
            if width == 0 || width > 9 {
                return Err(bad());
            }
            let frac = digits(b, frac_start, width).ok_or_else(bad)?;
            nanos = frac * 10u32.pow(9 - width as u32);
            pos = frac_end;
        }
        let offset = match b.get(pos) {
            None => None,
            Some(b'Z' | b'z') if pos + 1 == b.len() => Some(0i16),
            Some(&sign_byte @ (b'+' | b'-')) => {
                if b.len() != pos + 6 || b[pos + 3] != b':' {
                    return Err(bad());
                }
                let oh = digits(b, pos + 1, 2).ok_or_else(bad)? as i16;
                let om = digits(b, pos + 4, 2).ok_or_else(bad)? as i16;
                if oh > 23 || om > 59 {
                    return Err(bad());
                }
                let sign = if sign_byte == b'+' { 1i16 } else { -1i16 };
                Some(sign * (oh * 60 + om))
            }
            _ => return Err(bad()),
        };
        let mut ts = Timestamp::new(year, month, day, hour, minute, second)?;
        ts.nanos = nanos;
        ts.utc_offset_minutes = offset;
        Ok(ts)
    }

    /// Construct directly from Unix seconds (UTC).
    pub fn from_unix_seconds(secs: i64) -> Timestamp {
        // Inverse of days_from_civil (Hinnant's civil_from_days).
        let days = secs.div_euclid(86_400);
        let mut rem = secs.rem_euclid(86_400);
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
        let year = (if m <= 2 { y + 1 } else { y }) as i32;
        let hour = (rem / 3600) as u8;
        rem %= 3600;
        Timestamp {
            year,
            month: m,
            day: d,
            hour,
            minute: (rem / 60) as u8,
            second: (rem % 60) as u8,
            nanos: 0,
            utc_offset_minutes: Some(0),
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.year == 0 {
            write!(
                f,
                "{} {:2} {:02}:{:02}:{:02}",
                MONTH_ABBREV[(self.month - 1) as usize],
                self.day,
                self.hour,
                self.minute,
                self.second
            )
        } else {
            write!(
                f,
                "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
                self.year, self.month, self.day, self.hour, self.minute, self.second
            )?;
            // Narrowest fraction that round-trips the stored nanos through
            // parse_rfc5424 (truncating to milliseconds would silently lose
            // sub-millisecond precision).
            if self.nanos > 0 {
                if self.nanos.is_multiple_of(1_000_000) {
                    write!(f, ".{:03}", self.nanos / 1_000_000)?;
                } else if self.nanos.is_multiple_of(1_000) {
                    write!(f, ".{:06}", self.nanos / 1_000)?;
                } else {
                    write!(f, ".{:09}", self.nanos)?;
                }
            }
            match self.utc_offset_minutes {
                Some(0) => write!(f, "Z"),
                Some(off) => {
                    let sign = if off < 0 { '-' } else { '+' };
                    let a = off.abs();
                    write!(f, "{sign}{:02}:{:02}", a / 60, a % 60)
                }
                None => Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc3164_parses_padded_day() {
        let (ts, rest) = Timestamp::parse_rfc3164("Feb  5 17:32:18 host").unwrap();
        assert_eq!((ts.month, ts.day, ts.hour), (2, 5, 17));
        assert_eq!(rest, " host");
    }

    #[test]
    fn rfc3164_parses_two_digit_day() {
        let (ts, _) = Timestamp::parse_rfc3164("Oct 11 22:14:15 x").unwrap();
        assert_eq!((ts.month, ts.day), (10, 11));
        assert_eq!((ts.hour, ts.minute, ts.second), (22, 14, 15));
    }

    #[test]
    fn rfc3164_rejects_bad_month() {
        assert!(Timestamp::parse_rfc3164("Xxx 11 22:14:15 ").is_err());
    }

    #[test]
    fn rfc3164_rejects_short_input() {
        assert!(Timestamp::parse_rfc3164("Oct 11").is_err());
    }

    #[test]
    fn rfc5424_parses_utc() {
        let ts = Timestamp::parse_rfc5424("2023-10-11T22:14:15.003Z").unwrap();
        assert_eq!(ts.year, 2023);
        assert_eq!(ts.nanos, 3_000_000);
        assert_eq!(ts.utc_offset_minutes, Some(0));
    }

    #[test]
    fn rfc5424_parses_offset() {
        let ts = Timestamp::parse_rfc5424("2023-01-02T03:04:05-06:30").unwrap();
        assert_eq!(ts.utc_offset_minutes, Some(-390));
    }

    #[test]
    fn rfc5424_rejects_bad_offsets() {
        assert!(Timestamp::parse_rfc5424("2023-01-02T03:04:05+25:00").is_err());
        assert!(Timestamp::parse_rfc5424("2023-01-02T03:04:05+06").is_err());
        assert!(Timestamp::parse_rfc5424("2023-01-02 03:04:05Z").is_err());
    }

    #[test]
    fn unix_seconds_known_value() {
        // 2023-10-11T22:14:15Z
        let ts = Timestamp::parse_rfc5424("2023-10-11T22:14:15Z").unwrap();
        assert_eq!(ts.unix_seconds(), 1_697_062_455);
    }

    #[test]
    fn unix_roundtrip() {
        for &secs in &[0i64, 1_697_062_455, 951_782_400, 4_102_444_799] {
            let ts = Timestamp::from_unix_seconds(secs);
            assert_eq!(ts.unix_seconds(), secs, "roundtrip failed for {secs}");
        }
    }

    #[test]
    fn offset_shifts_epoch() {
        let utc = Timestamp::parse_rfc5424("2023-06-01T12:00:00Z").unwrap();
        let plus2 = Timestamp::parse_rfc5424("2023-06-01T14:00:00+02:00").unwrap();
        assert_eq!(utc.unix_seconds(), plus2.unix_seconds());
    }

    #[test]
    fn validates_calendar() {
        assert!(Timestamp::new(2023, 2, 29, 0, 0, 0).is_err());
        assert!(Timestamp::new(2024, 2, 29, 0, 0, 0).is_ok());
        assert!(Timestamp::new(2023, 13, 1, 0, 0, 0).is_err());
        assert!(Timestamp::new(2023, 4, 31, 0, 0, 0).is_err());
        assert!(Timestamp::new(2023, 1, 1, 24, 0, 0).is_err());
    }

    #[test]
    fn display_rfc3164_style_when_yearless() {
        let (ts, _) = Timestamp::parse_rfc3164("Oct  5 01:02:03 ").unwrap();
        assert_eq!(ts.to_string(), "Oct  5 01:02:03");
    }

    #[test]
    fn display_iso_when_dated() {
        let ts = Timestamp::parse_rfc5424("2023-10-11T22:14:15Z").unwrap();
        assert_eq!(ts.to_string(), "2023-10-11T22:14:15Z");
    }

    #[test]
    fn rfc3164_rejects_multibyte_input_without_panic() {
        // "é" is two bytes, putting a non-char-boundary at byte 3: the old
        // `&input[..3]` slicing panicked here and killed a parser worker.
        assert!(Timestamp::parse_rfc3164("ab\u{e9} 5 17:32:18 x").is_err());
        assert!(Timestamp::parse_rfc3164("\u{1F525}\u{1F525}\u{1F525}\u{1F525}").is_err());
        assert!(Timestamp::parse_rfc3164("Oct \u{e9}5 17:32:18 x").is_err());
        assert!(Timestamp::parse_rfc3164("Oct 11 22:14:1\u{e9} rest").is_err());
    }

    #[test]
    fn rfc3164_multibyte_after_timestamp_is_fine() {
        // Non-ASCII is only hostile inside the fixed-width timestamp; the
        // remainder may legitimately carry it (vendor hostnames do).
        let (ts, rest) = Timestamp::parse_rfc3164("Oct 11 22:14:15 h\u{f4}te").unwrap();
        assert_eq!((ts.month, ts.day), (10, 11));
        assert_eq!(rest, " h\u{f4}te");
    }

    #[test]
    fn rfc5424_rejects_multibyte_input_without_panic() {
        assert!(Timestamp::parse_rfc5424("202\u{e9}-10-11T22:14:15Z").is_err());
        assert!(Timestamp::parse_rfc5424("2023-10-11T22:14:15.1\u{e9}Z").is_err());
        assert!(Timestamp::parse_rfc5424("2023-10-11T22:14:15+0\u{e9}:00").is_err());
        assert!(Timestamp::parse_rfc5424("\u{1F525}\u{1F525}\u{1F525}\u{1F525}\u{1F525}").is_err());
    }

    #[test]
    fn display_roundtrips_sub_millisecond_nanos() {
        // Micro- and nanosecond precision must survive format → parse; the
        // old Display truncated everything to .{:03} milliseconds.
        for frac in ["003", "000250", "000000125", "123456789", "999"] {
            let text = format!("2023-10-11T22:14:15.{frac}Z");
            let ts = Timestamp::parse_rfc5424(&text).unwrap();
            let back = Timestamp::parse_rfc5424(&ts.to_string()).unwrap();
            assert_eq!(back.nanos, ts.nanos, "lost precision for .{frac}");
        }
        let ts = Timestamp::parse_rfc5424("2023-10-11T22:14:15.000250Z").unwrap();
        assert_eq!(ts.to_string(), "2023-10-11T22:14:15.000250Z");
    }
}
