//! Syslog message model and parsers for heterogeneous test-bed clusters.
//!
//! This crate is the lowest-level substrate of the `hetsyslog` workspace: it
//! defines the wire-level representation of a syslog message and parsers for
//! the two formats actually seen on real clusters — the legacy BSD format
//! ([RFC 3164]) and the modern structured format ([RFC 5424]) — plus a
//! best-effort fallback for the many vendor messages that follow neither.
//!
//! Heterogeneous test-beds such as LANL's Darwin cluster mix hardware from
//! many vendors, and each vendor's firmware emits syslog with its own quirks;
//! the parsers accept every frame, falling back to free-form text.
//!
//! [RFC 3164]: https://www.rfc-editor.org/rfc/rfc3164
//! [RFC 5424]: https://www.rfc-editor.org/rfc/rfc5424
//!
//! # Example
//!
//! ```
//! use syslog_model::{parse, Severity, Facility};
//!
//! let m = parse("<34>Oct 11 22:14:15 cn101 sshd[4721]: Failed password for root").unwrap();
//! assert_eq!(m.severity, Severity::Critical);
//! assert_eq!(m.facility, Facility::Auth);
//! assert_eq!(m.hostname.as_deref(), Some("cn101"));
//! assert_eq!(m.app_name.as_deref(), Some("sshd"));
//! assert_eq!(m.proc_id.as_deref(), Some("4721"));
//! assert!(m.message.starts_with("Failed password"));
//! ```

pub mod error;
pub mod framing;
pub mod message;
pub mod normalize;
pub mod pri;
pub mod rfc3164;
pub mod rfc5424;
pub mod timestamp;

pub use error::ParseError;
pub use framing::{find_byte_scalar, find_byte_swar, FrameDecoder};
pub use message::{Protocol, SyslogMessage};
pub use normalize::{mask_variables, normalize_message, NormalizeOptions};
pub use pri::{Facility, Severity};
pub use timestamp::Timestamp;

/// Parse a raw syslog frame, trying RFC 5424 first, then RFC 3164, then a
/// permissive free-form fallback that never fails on valid UTF-8 input.
///
/// This mirrors how a real collector (e.g. Fluentd's syslog input) handles a
/// heterogeneous stream: structured messages are parsed precisely, and
/// anything else is still captured with whatever metadata can be salvaged.
pub fn parse(raw: &str) -> Result<SyslogMessage, ParseError> {
    if raw.is_empty() {
        return Err(ParseError::Empty);
    }
    if let Ok(m) = rfc5424::parse_rfc5424(raw) {
        return Ok(m);
    }
    if let Ok(m) = rfc3164::parse_rfc3164(raw) {
        return Ok(m);
    }
    Ok(message::SyslogMessage::free_form(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_prefers_rfc5424() {
        let m = parse(
            "<165>1 2023-10-11T22:14:15.003Z cn12 ipmid 812 TH01 - CPU1 temp above threshold",
        )
        .unwrap();
        assert_eq!(m.protocol, Protocol::Rfc5424);
        assert_eq!(m.msg_id.as_deref(), Some("TH01"));
    }

    #[test]
    fn parse_falls_back_to_rfc3164() {
        let m = parse(
            "<13>Feb  5 17:32:18 gpu-node04 kernel: usb 1-1: new high-speed USB device number 5",
        )
        .unwrap();
        assert_eq!(m.protocol, Protocol::Rfc3164);
        assert_eq!(m.app_name.as_deref(), Some("kernel"));
    }

    #[test]
    fn parse_never_fails_on_nonempty_garbage() {
        let m = parse("completely unstructured vendor gibberish !!").unwrap();
        assert_eq!(m.protocol, Protocol::FreeForm);
        assert_eq!(m.message, "completely unstructured vendor gibberish !!");
    }

    #[test]
    fn parse_rejects_empty() {
        assert!(matches!(parse(""), Err(ParseError::Empty)));
    }
}
