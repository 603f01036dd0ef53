//! The stored log record (an OpenSearch document, roughly).

use hetsyslog_core::Category;
use serde::{Deserialize, Serialize};
use syslog_model::{Facility, Severity, SyslogMessage};

/// One ingested, enriched log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Store-assigned document id.
    pub id: u64,
    /// Event time, Unix seconds.
    pub unix_seconds: i64,
    /// Originating node (hostname).
    pub node: String,
    /// Emitting application tag.
    pub app: String,
    /// Syslog severity.
    pub severity: Severity,
    /// Syslog facility.
    pub facility: Facility,
    /// The free-text message.
    pub message: String,
    /// Real-time classification, when the classifying ingest ran.
    pub category: Option<Category>,
}

impl LogRecord {
    /// Build by consuming a parsed frame: the hostname, app, and message
    /// strings move into the record instead of being cloned.
    /// `fallback_time` supplies the event time when the frame has no
    /// timestamp.
    pub fn from_message_owned(id: u64, msg: SyslogMessage, fallback_time: i64) -> LogRecord {
        LogRecord {
            id,
            unix_seconds: msg
                .timestamp
                .map(|t| t.unix_seconds())
                .unwrap_or(fallback_time),
            node: msg.hostname.unwrap_or_else(|| "unknown".to_string()),
            app: msg.app_name.unwrap_or_else(|| "unknown".to_string()),
            severity: msg.severity,
            facility: msg.facility,
            message: msg.message,
            category: None,
        }
    }

    /// JSON-lines representation (the persistence / wire format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LogRecord serializes")
    }

    /// Parse the JSON-lines representation.
    pub fn from_json(line: &str) -> Result<LogRecord, serde_json::Error> {
        serde_json::from_str(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parsed_frame() {
        let msg =
            syslog_model::parse("<34>Oct 11 22:14:15 cn0007 sshd[42]: Connection closed [preauth]")
                .unwrap();
        let rec = LogRecord::from_message_owned(9, msg, 0);
        assert_eq!(rec.id, 9);
        assert_eq!(rec.node, "cn0007");
        assert_eq!(rec.app, "sshd");
        assert!(rec.unix_seconds > 0, "timestamp should be used");
        assert_eq!(rec.message, "Connection closed [preauth]");
        assert!(rec.category.is_none());
    }

    #[test]
    fn fallback_time_used_when_no_timestamp() {
        let msg = syslog_model::SyslogMessage::free_form("raw text");
        let rec = LogRecord::from_message_owned(1, msg, 12345);
        assert_eq!(rec.unix_seconds, 12345);
        assert_eq!(rec.node, "unknown");
    }

    #[test]
    fn json_roundtrip() {
        let msg = syslog_model::parse("<34>Oct 11 22:14:15 cn1 app: hello").unwrap();
        let mut rec = LogRecord::from_message_owned(3, msg, 0);
        rec.category = Some(Category::ThermalIssue);
        let line = rec.to_json();
        let back = LogRecord::from_json(&line).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn bad_json_is_error() {
        assert!(LogRecord::from_json("{not json").is_err());
    }
}
