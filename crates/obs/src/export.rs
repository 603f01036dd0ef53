//! Prometheus text exposition (render + parse) and a JSON rendering of
//! the registry.
//!
//! The renderer emits format version 0.0.4: `# HELP` / `# TYPE` comments
//! per family, `name{labels} value` samples, and for histograms the
//! cumulative `_bucket{le="..."}` / `_sum` / `_count` triple. The parser
//! reads the same dialect back (it is what `hetsyslog top` and the
//! conformance tests scrape), reconstructing per-bucket counts from the
//! cumulative `le` series.

use crate::metrics::bucket_upper;
use crate::registry::SeriesSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Undo [`escape_label`] in one left-to-right pass. Sequential
/// `str::replace` passes corrupt adjacent escapes — a literal
/// backslash-then-`n` value escapes to `\\n`, which a later
/// `replace("\\n", "\n")` pass would wrongly rewrite into a newline —
/// so each `\` consumes exactly the one character that follows it.
fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(c) => out.push(c),
            // A trailing lone backslash is kept as written.
            None => out.push('\\'),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render series snapshots in Prometheus text format.
pub fn render_prometheus(series: &[SeriesSnapshot]) -> String {
    let mut out = String::new();
    let mut last_family = "";
    for s in series {
        if s.name != last_family {
            if !s.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
            }
            let _ = writeln!(out, "# TYPE {} {}", s.name, s.kind);
            last_family = &s.name;
        }
        match &s.histogram {
            None => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    s.value
                );
            }
            Some(h) => {
                let mut cumulative = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cumulative += c;
                    let le = bucket_upper(i).to_string();
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        label_block(&s.labels, Some(("le", &le))),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    s.name,
                    label_block(&s.labels, Some(("le", "+Inf"))),
                    h.count
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    h.sum
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    h.count
                );
            }
        }
    }
    out
}

/// Render series snapshots as one JSON object `{name{labels}: value}` with
/// histograms as `{count, sum, p50, p90, p99}` summaries.
pub fn render_json(series: &[SeriesSnapshot]) -> String {
    let mut entries: Vec<(String, serde_json::Value)> = Vec::new();
    for s in series {
        let key = format!("{}{}", s.name, label_block(&s.labels, None));
        let value = match &s.histogram {
            None => serde_json::json!(s.value),
            Some(h) => serde_json::json!({
                "count": h.count,
                "sum": h.sum,
                "p50": h.quantile(50.0),
                "p90": h.quantile(90.0),
                "p99": h.quantile(99.0),
            }),
        };
        entries.push((key, value));
    }
    serde_json::to_string(&serde_json::Value::Object(entries)).unwrap_or_default()
}

/// One parsed sample: a metric line from a Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name as written (histograms appear as `*_bucket`, `*_sum`,
    /// `*_count` samples).
    pub name: String,
    /// Labels in file order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A scraped exposition: samples plus the family types declared by
/// `# TYPE` lines.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    /// Every metric sample, in file order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: family name → kind.
    pub types: BTreeMap<String, String>,
}

impl Scrape {
    /// Sum of every sample named `name` (all label combinations).
    pub fn total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// The single sample with this exact name and a matching label, if any.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(v)))
            .map(|s| s.value)
    }
}

/// Parse a Prometheus text exposition. Unparseable lines are skipped (the
/// caller can cross-check `samples.len()` if strictness matters).
pub fn parse_exposition(text: &str) -> Scrape {
    let mut scrape = Scrape::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (it.next(), it.next()) {
                scrape.types.insert(name.to_string(), kind.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        if let Some(sample) = parse_sample(line) {
            scrape.samples.push(sample);
        }
    }
    scrape
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (name_and_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return None,
    };
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().ok()?,
    };
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.to_string(), Vec::new()),
        Some(open) => {
            let name = name_and_labels[..open].to_string();
            let body = name_and_labels[open + 1..].strip_suffix('}')?;
            let mut labels = Vec::new();
            for pair in split_label_pairs(body) {
                let (k, v) = pair.split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                labels.push((k.trim().to_string(), unescape_label(v)));
            }
            (name, labels)
        }
    };
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// Split `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth_quote = false;
    let mut escaped = false;
    let mut start = 0;
    for (i, ch) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' => escaped = true,
            '"' => depth_quote = !depth_quote,
            ',' if !depth_quote => {
                if start < i {
                    out.push(&body[start..i]);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn render_and_parse_round_trip() {
        let reg = Registry::new();
        reg.counter("frames_total", "frames seen", &[("transport", "tcp")])
            .add(42);
        reg.gauge("queue_depth", "queued frames", &[]).set(-3);
        let h = reg.histogram("latency_us", "stage latency", &[("stage", "parse")]);
        for v in [1u64, 1, 5, 100, 100, 100] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE frames_total counter"));
        assert!(text.contains("# HELP latency_us stage latency"));
        assert!(text.contains("frames_total{transport=\"tcp\"} 42"));
        assert!(text.contains("queue_depth -3"));
        assert!(text.contains("le=\"+Inf\"} 6"));
        assert!(text.contains("latency_us_sum{stage=\"parse\"} 307"));

        let scrape = parse_exposition(&text);
        assert_eq!(
            scrape.types.get("latency_us").map(String::as_str),
            Some("histogram")
        );
        assert_eq!(
            scrape.value("frames_total", &[("transport", "tcp")]),
            Some(42.0)
        );
        assert_eq!(scrape.value("queue_depth", &[]), Some(-3.0));
        assert_eq!(
            scrape.value("latency_us_count", &[("stage", "parse")]),
            Some(6.0)
        );
        // The value-1 bucket holds exactly the two 1µs records.
        assert_eq!(
            scrape.value("latency_us_bucket", &[("stage", "parse"), ("le", "1")]),
            Some(2.0)
        );
    }

    #[test]
    fn parser_handles_escapes_and_junk() {
        let text = "junk line without value x\nm{k=\"a,b\",j=\"q\\\"c\"} 7\n# comment\n";
        let scrape = parse_exposition(text);
        assert_eq!(scrape.samples.len(), 1);
        let s = &scrape.samples[0];
        assert_eq!(s.label("k"), Some("a,b"));
        assert_eq!(s.label("j"), Some("q\"c"));
        assert_eq!(s.value, 7.0);
    }

    #[test]
    fn control_characters_in_label_values_round_trip() {
        // The regression case: a literal backslash-then-n value escapes to
        // `\\n`, which the old sequential-replace unescape corrupted into
        // backslash + newline. The single-pass unescape keeps it intact.
        let hostile = [
            "\\n",          // literal backslash, then 'n'
            "a\nb",         // real newline
            "\\",           // lone backslash
            "\\\\n",        // two backslashes, then 'n'
            "say \"hi\"",   // quotes
            "tab\there",    // raw tab survives mid-line
            "mix\\n\"\n\\", // everything at once
            "a,b=c}{d",     // label-syntax lookalikes inside quotes
        ];
        for value in hostile {
            let reg = Registry::new();
            reg.counter("m_total", "", &[("k", value)]).add(7);
            let scrape = parse_exposition(&reg.render_prometheus());
            assert_eq!(scrape.samples.len(), 1, "value {value:?} lost the sample");
            assert_eq!(
                scrape.samples[0].label("k"),
                Some(value),
                "round-trip corrupted {value:?}"
            );
        }
    }

    #[test]
    fn json_rendering_summarizes_histograms() {
        let reg = Registry::new();
        reg.histogram("h_us", "", &[]).record(10);
        reg.counter("c_total", "", &[]).inc();
        let json = crate::export::render_json(&reg.gather());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v.get("c_total").and_then(serde_json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("h_us")
                .and_then(|h| h.get("count"))
                .and_then(serde_json::Value::as_u64),
            Some(1)
        );
    }
}
