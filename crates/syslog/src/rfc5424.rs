//! RFC 5424 (structured) syslog parser.
//!
//! Grammar:
//!
//! ```text
//! <PRI>VERSION SP TIMESTAMP SP HOSTNAME SP APP-NAME SP PROCID SP MSGID SP STRUCTURED-DATA [SP MSG]
//! ```
//!
//! The nil value `-` is accepted for every header field, and structured data
//! supports the three escape sequences the RFC defines (`\"`, `\\`, `\]`).

use crate::error::ParseError;
use crate::message::{Protocol, StructuredElement, SyslogMessage};
use crate::pri::parse_pri_prefix;
use crate::timestamp::Timestamp;

/// Parse a frame under the RFC 5424 grammar.
pub fn parse_rfc5424(raw: &str) -> Result<SyslogMessage, ParseError> {
    let ((facility, severity), rest) = parse_pri_prefix(raw)?;

    // VERSION: must be "1" followed by a space.
    let rest = rest
        .strip_prefix('1')
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| ParseError::BadVersion(rest.chars().take(8).collect()))?;

    let (ts_token, rest) = next_field(rest).ok_or(ParseError::MissingField("timestamp"))?;
    let timestamp = if ts_token == "-" {
        None
    } else {
        Some(Timestamp::parse_rfc5424(ts_token)?)
    };

    let (host, rest) = next_field(rest).ok_or(ParseError::MissingField("hostname"))?;
    let (app, rest) = next_field(rest).ok_or(ParseError::MissingField("app-name"))?;
    let (procid, rest) = next_field(rest).ok_or(ParseError::MissingField("procid"))?;
    let (msgid, rest) = next_field(rest).ok_or(ParseError::MissingField("msgid"))?;

    let (structured_data, rest) = parse_structured_data(rest)?;

    let msg = rest.strip_prefix(' ').unwrap_or(rest);
    // RFC 5424 allows a BOM before MSG.
    let message = msg.strip_prefix('\u{FEFF}').unwrap_or(msg).to_string();

    Ok(SyslogMessage {
        protocol: Protocol::Rfc5424,
        facility,
        severity,
        timestamp,
        hostname: nil_opt(host),
        app_name: nil_opt(app),
        proc_id: nil_opt(procid),
        msg_id: nil_opt(msgid),
        structured_data,
        message,
        raw: raw.to_string(),
    })
}

fn next_field(input: &str) -> Option<(&str, &str)> {
    if input.is_empty() {
        return None;
    }
    match input.find(' ') {
        Some(0) => None,
        Some(i) => Some((&input[..i], &input[i + 1..])),
        None => Some((input, "")),
    }
}

fn nil_opt(field: &str) -> Option<String> {
    if field == "-" {
        None
    } else {
        Some(field.to_string())
    }
}

/// Parse STRUCTURED-DATA, which is either `-` or one or more `[...]`
/// elements. Returns the elements and the remaining input (starting at the
/// SP before MSG, if any).
fn parse_structured_data(input: &str) -> Result<(Vec<StructuredElement>, &str), ParseError> {
    if let Some(rest) = input.strip_prefix('-') {
        return Ok((Vec::new(), rest));
    }
    let bad = |what: &str| ParseError::BadStructuredData(what.to_string());
    let mut elements = Vec::new();
    let mut rest = input;
    while rest.starts_with('[') {
        let (element, tail) = parse_sd_element(rest)?;
        elements.push(element);
        rest = tail;
    }
    if elements.is_empty() {
        return Err(bad("expected '-' or '['"));
    }
    Ok((elements, rest))
}

fn parse_sd_element(input: &str) -> Result<(StructuredElement, &str), ParseError> {
    let bad = |what: &str| ParseError::BadStructuredData(what.to_string());
    let mut rest = input.strip_prefix('[').ok_or_else(|| bad("missing '['"))?;

    let id_end = rest
        .find([' ', ']'])
        .ok_or_else(|| bad("unterminated SD element"))?;
    if id_end == 0 {
        return Err(bad("empty SD-ID"));
    }
    let id = rest[..id_end].to_string();
    rest = &rest[id_end..];

    let mut params = Vec::new();
    loop {
        if let Some(tail) = rest.strip_prefix(']') {
            return Ok((StructuredElement { id, params }, tail));
        }
        rest = rest
            .strip_prefix(' ')
            .ok_or_else(|| bad("expected SP or ']'"))?;
        let eq = rest.find('=').ok_or_else(|| bad("param missing '='"))?;
        let name = rest[..eq].to_string();
        if name.is_empty() {
            return Err(bad("empty param name"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| bad("param value must be quoted"))?;
        let (value, tail) = parse_quoted_value(rest)?;
        params.push((name, value));
        rest = tail;
    }
}

/// Parse a PARAM-VALUE after the opening quote, handling the RFC escapes.
fn parse_quoted_value(input: &str) -> Result<(String, &str), ParseError> {
    let mut value = String::new();
    let mut chars = input.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((value, &input[i + 1..])),
            '\\' => match chars.next() {
                Some((_, esc @ ('"' | '\\' | ']'))) => value.push(esc),
                Some((_, other)) => {
                    // RFC: receiver MAY accept unrecognized escapes literally.
                    value.push('\\');
                    value.push(other);
                }
                None => {
                    return Err(ParseError::BadStructuredData(
                        "dangling escape in param value".to_string(),
                    ))
                }
            },
            _ => value.push(c),
        }
    }
    Err(ParseError::BadStructuredData(
        "unterminated param value".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pri::{Facility, Severity};

    #[test]
    fn full_frame() {
        let raw = "<165>1 2003-10-11T22:14:15.003Z mymachine.example.com evntslog 812 ID47 [exampleSDID@32473 iut=\"3\" eventSource=\"Application\" eventID=\"1011\"] An application event log entry";
        let m = parse_rfc5424(raw).unwrap();
        assert_eq!(m.facility, Facility::Local4);
        assert_eq!(m.severity, Severity::Notice);
        assert_eq!(m.hostname.as_deref(), Some("mymachine.example.com"));
        assert_eq!(m.app_name.as_deref(), Some("evntslog"));
        assert_eq!(m.proc_id.as_deref(), Some("812"));
        assert_eq!(m.msg_id.as_deref(), Some("ID47"));
        assert_eq!(m.structured_data.len(), 1);
        let params: Vec<(&str, &str)> = (m.structured_data[0].params.iter())
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            params,
            [
                ("iut", "3"),
                ("eventSource", "Application"),
                ("eventID", "1011")
            ]
        );
        assert_eq!(m.message, "An application event log entry");
    }

    #[test]
    fn nil_fields() {
        let m = parse_rfc5424("<34>1 - - - - - - body").unwrap();
        assert!(m.timestamp.is_none());
        assert!(m.hostname.is_none());
        assert!(m.app_name.is_none());
        assert_eq!(m.message, "body");
    }

    #[test]
    fn multiple_sd_elements() {
        let m = parse_rfc5424("<34>1 - h a p m [a@1 x=\"1\"][b@2 y=\"2\"] msg").unwrap();
        assert_eq!(m.structured_data.len(), 2);
        assert_eq!(m.structured_data[1].id, "b@2");
    }

    #[test]
    fn empty_message_allowed() {
        let m = parse_rfc5424("<34>1 - h a p m -").unwrap();
        assert_eq!(m.message, "");
    }

    #[test]
    fn escaped_values() {
        let m = parse_rfc5424(r#"<34>1 - h a p m [x@1 v="say \"hi\" \] \\ done"] b"#).unwrap();
        assert_eq!(
            m.structured_data[0].params,
            [("v".to_string(), r#"say "hi" ] \ done"#.to_string())]
        );
    }

    #[test]
    fn a_repeated_param_name_keeps_every_value() {
        let m = parse_rfc5424(r#"<34>1 - h a p m [x@1 a="1" b="0" a="2"] msg"#).unwrap();
        let params: Vec<(&str, &str)> = (m.structured_data[0].params.iter())
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        assert_eq!(params, [("a", "1"), ("b", "0"), ("a", "2")]);
    }

    #[test]
    fn rejects_version_2() {
        assert!(parse_rfc5424("<34>2 - h a p m - msg").is_err());
    }

    #[test]
    fn rejects_unterminated_sd() {
        assert!(parse_rfc5424("<34>1 - h a p m [x@1 v=\"oops msg").is_err());
        assert!(parse_rfc5424("<34>1 - h a p m [x@1 v=unquoted] msg").is_err());
    }

    #[test]
    fn rejects_bad_timestamp() {
        assert!(parse_rfc5424("<34>1 yesterday h a p m - msg").is_err());
    }
}
