//! The parsed syslog message representation shared across the workspace.

use crate::pri::{Facility, Severity};
use crate::timestamp::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which grammar the frame was parsed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// RFC 3164 (legacy BSD syslog).
    Rfc3164,
    /// RFC 5424 (structured syslog).
    Rfc5424,
    /// Neither grammar matched; the raw text was captured as the message.
    FreeForm,
}

/// One structured-data element from an RFC 5424 frame, e.g.
/// `[exampleSDID@32473 iut="3" eventSource="Application"]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructuredElement {
    /// The SD-ID (`exampleSDID@32473`).
    pub id: String,
    /// `(name, value)` of every SD-PARAM, in frame order. A name may
    /// repeat (RFC 5424 §6.3.3), and each occurrence is kept.
    pub params: Vec<(String, String)>,
}

/// A parsed syslog message.
///
/// Fields that the originating format does not carry (e.g. `msg_id` for
/// RFC 3164) are `None`. The unparsed frame is always retained in `raw` so
/// that downstream consumers (edit-distance bucketing, LLM prompts) can work
/// on exactly what the wire carried.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyslogMessage {
    /// Grammar the frame matched.
    pub protocol: Protocol,
    /// Originating facility (default `User` when absent).
    pub facility: Facility,
    /// Severity (default `Notice` when absent).
    pub severity: Severity,
    /// Frame timestamp, if one was present and parseable.
    pub timestamp: Option<Timestamp>,
    /// Originating host, if present.
    pub hostname: Option<String>,
    /// Application / tag, if present.
    pub app_name: Option<String>,
    /// Process id (RFC 5424 PROCID or the 3164 `tag[pid]` bracket value).
    pub proc_id: Option<String>,
    /// RFC 5424 MSGID.
    pub msg_id: Option<String>,
    /// RFC 5424 structured data elements.
    pub structured_data: Vec<StructuredElement>,
    /// The free-text MSG part.
    pub message: String,
    /// The original frame exactly as received.
    pub raw: String,
}

impl SyslogMessage {
    /// Wrap unparseable input as a free-form message with default metadata.
    pub fn free_form(raw: &str) -> SyslogMessage {
        SyslogMessage {
            protocol: Protocol::FreeForm,
            facility: Facility::User,
            severity: Severity::Notice,
            timestamp: None,
            hostname: None,
            app_name: None,
            proc_id: None,
            msg_id: None,
            structured_data: Vec::new(),
            message: raw.to_string(),
            raw: raw.to_string(),
        }
    }
}

impl fmt::Display for SyslogMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}>",
            crate::pri::encode_pri(self.facility, self.severity)
        )?;
        if let Some(ts) = &self.timestamp {
            write!(f, "{ts} ")?;
        }
        if let Some(h) = &self.hostname {
            write!(f, "{h} ")?;
        }
        if let Some(a) = &self.app_name {
            write!(f, "{a}")?;
            if let Some(p) = &self.proc_id {
                write!(f, "[{p}]")?;
            }
            write!(f, ": ")?;
        }
        f.write_str(&self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_form_retains_raw() {
        let m = SyslogMessage::free_form("odd vendor frame");
        assert_eq!(m.raw, "odd vendor frame");
        assert_eq!(m.message, "odd vendor frame");
        assert_eq!(m.protocol, Protocol::FreeForm);
    }

    #[test]
    fn display_reconstructs_header() {
        let m = SyslogMessage {
            protocol: Protocol::Rfc3164,
            facility: Facility::Auth,
            severity: Severity::Critical,
            timestamp: None,
            hostname: Some("cn101".into()),
            app_name: Some("sshd".into()),
            proc_id: Some("4721".into()),
            msg_id: None,
            structured_data: vec![],
            message: "Failed password".into(),
            raw: String::new(),
        };
        assert_eq!(m.to_string(), "<34>cn101 sshd[4721]: Failed password");
    }

    #[test]
    fn serde_roundtrip() {
        let mut m = SyslogMessage::free_form("hello");
        m.hostname = Some("n1".into());
        let json = serde_json::to_string(&m).unwrap();
        let back: SyslogMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
