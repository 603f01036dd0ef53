//! Timestamped arrival process for the real-time pipeline experiments.
//!
//! The paper motivates everything with volume: "in just an hour over a
//! million messages can be produced" on Darwin. This generator produces a
//! stream with a Poisson base load plus correlated bursts (the §4.5.1
//! "surges of repeated messages" that signal thermal/memory incidents),
//! each message stamped with synthetic Unix time and a full syslog frame.

use crate::corpus::LabeledMessage;
use crate::templates::{fill, templates_for};
use hetsyslog_core::Category;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use syslog_model::{Facility, Severity, Timestamp};

/// One timestamped stream element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedMessage {
    /// Unix seconds (synthetic clock).
    pub unix_seconds: i64,
    /// The labeled message.
    pub message: LabeledMessage,
    /// True when this element belongs to an injected burst.
    pub in_burst: bool,
}

impl TimedMessage {
    /// Render an RFC 5424 frame (modern emitters; exercises the structured
    /// parser and its SD handling end-to-end).
    pub fn to_frame_rfc5424(&self) -> String {
        let ts = Timestamp::from_unix_seconds(self.unix_seconds);
        let severity = if self.message.category.is_actionable() {
            Severity::Warning
        } else {
            Severity::Informational
        };
        let pri = Facility::Daemon.code() as u16 * 8 + severity.code() as u16;
        format!(
            "<{pri}>1 {ts} {} {} - - [origin@48577 family=\"{}\"] {}",
            self.message.node, self.message.app, self.message.family, self.message.text
        )
    }

    /// Render a full RFC 3164-style frame for the parser / pipeline.
    pub fn to_frame(&self) -> String {
        let ts = Timestamp::from_unix_seconds(self.unix_seconds);
        let severity = if self.message.category.is_actionable() {
            Severity::Warning
        } else {
            Severity::Informational
        };
        let pri = Facility::Daemon.code() as u16 * 8 + severity.code() as u16;
        format!(
            "<{pri}>{} {:02}:{:02}:{:02} {} {}: {}",
            month_day(ts),
            ts.hour,
            ts.minute,
            ts.second,
            self.message.node,
            self.message.app,
            self.message.text
        )
    }
}

fn month_day(ts: Timestamp) -> String {
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    format!("{} {:2}", MONTHS[(ts.month - 1) as usize], ts.day)
}

/// Stream options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Mean messages per second of the Poisson base load.
    pub base_rate: f64,
    /// Probability per generated message that a burst starts.
    pub burst_probability: f64,
    /// Messages per burst (min, max).
    pub burst_size: (usize, usize),
    /// Starting synthetic Unix time.
    pub start_unix: i64,
    /// Seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            base_rate: 300.0, // ~1.08M messages/hour: the Darwin figure
            burst_probability: 0.002,
            burst_size: (50, 400),
            start_unix: 1_697_000_000,
            seed: 42,
        }
    }
}

/// Infinite stream generator ([`Iterator`] of [`TimedMessage`]).
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    config: StreamConfig,
    rng: ChaCha8Rng,
    clock: f64,
    /// Remaining burst messages and the burst's template category/node.
    burst: Option<(usize, Category, String)>,
}

impl StreamGenerator {
    /// Create a stream.
    pub fn new(config: StreamConfig) -> StreamGenerator {
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let clock = config.start_unix as f64;
        StreamGenerator {
            config,
            rng,
            clock,
            burst: None,
        }
    }

    /// Category mix of the background load — weighted toward noise like
    /// the real stream (Table 2 proportions).
    fn draw_category(&mut self) -> Category {
        let total: usize = Category::ALL.iter().map(|c| c.paper_count()).sum();
        let mut pick = self.rng.gen_range(0..total);
        for &c in &Category::ALL {
            let w = c.paper_count();
            if pick < w {
                return c;
            }
            pick -= w;
        }
        Category::Unimportant
    }

    fn make_message(&mut self, category: Category, node: Option<&str>) -> LabeledMessage {
        let templates = templates_for(category);
        let total_weight: u32 = templates.iter().map(|t| t.weight).sum();
        let mut pick = self.rng.gen_range(0..total_weight);
        let mut template = templates[0];
        for t in &templates {
            if pick < t.weight {
                template = t;
                break;
            }
            pick -= t.weight;
        }
        let text = fill(template, &mut self.rng);
        let node = node
            .map(str::to_string)
            .unwrap_or_else(|| format!("cn{:04}", self.rng.gen_range(1..420)));
        LabeledMessage {
            text,
            category,
            family: template.family.to_string(),
            app: template.app.to_string(),
            node,
        }
    }
}

impl Iterator for StreamGenerator {
    type Item = TimedMessage;

    fn next(&mut self) -> Option<TimedMessage> {
        // Bursts arrive much faster than the base process and repeat one
        // category from one node — a thermal runaway or OOM loop.
        if let Some((remaining, category, node)) = self.burst.take() {
            let node_clone = node.clone();
            if remaining > 1 {
                self.burst = Some((remaining - 1, category, node));
            }
            self.clock += 0.005;
            let message = self.make_message(category, Some(&node_clone));
            return Some(TimedMessage {
                unix_seconds: self.clock as i64,
                message,
                in_burst: true,
            });
        }
        if self.rng.gen_bool(self.config.burst_probability) {
            let (lo, hi) = self.config.burst_size;
            let size = self.rng.gen_range(lo..=hi.max(lo));
            // Bursts come from incident-prone categories.
            let category = if self.rng.gen_bool(0.6) {
                Category::ThermalIssue
            } else {
                Category::MemoryIssue
            };
            let node = format!("cn{:04}", self.rng.gen_range(1..420));
            self.burst = Some((size, category, node));
            return self.next();
        }
        // Exponential inter-arrival for the Poisson base process.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        self.clock += -u.ln() / self.config.base_rate;
        let category = self.draw_category();
        let message = self.make_message(category, None);
        Some(TimedMessage {
            unix_seconds: self.clock as i64,
            message,
            in_burst: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> StreamConfig {
        StreamConfig {
            seed: 5,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn time_is_monotonic() {
        let stream = StreamGenerator::new(config());
        let msgs: Vec<TimedMessage> = stream.take(2000).collect();
        for w in msgs.windows(2) {
            assert!(w[1].unix_seconds >= w[0].unix_seconds);
        }
    }

    #[test]
    fn base_rate_is_approximated() {
        let stream = StreamGenerator::new(StreamConfig {
            burst_probability: 0.0,
            ..config()
        });
        let msgs: Vec<TimedMessage> = stream.take(20_000).collect();
        let span = (msgs.last().unwrap().unix_seconds - msgs[0].unix_seconds) as f64;
        let rate = msgs.len() as f64 / span.max(1.0);
        assert!(
            (rate - 300.0).abs() < 60.0,
            "rate {rate} too far from configured 300/s"
        );
    }

    #[test]
    fn bursts_repeat_node_and_category() {
        let stream = StreamGenerator::new(StreamConfig {
            burst_probability: 0.05,
            ..config()
        });
        let msgs: Vec<TimedMessage> = stream.take(5000).collect();
        let burst_msgs: Vec<&TimedMessage> = msgs.iter().filter(|m| m.in_burst).collect();
        assert!(!burst_msgs.is_empty(), "no bursts generated");
        // Consecutive burst messages share node and category.
        let consecutive = burst_msgs.windows(2).filter(|w| {
            w[0].message.node == w[1].message.node && w[0].message.category == w[1].message.category
        });
        assert!(consecutive.count() > burst_msgs.len() / 2);
    }

    #[test]
    fn frames_parse_back() {
        let stream = StreamGenerator::new(config());
        for tm in stream.take(200) {
            let frame = tm.to_frame();
            let parsed = syslog_model::parse(&frame).expect("frame must parse");
            assert_eq!(parsed.hostname.as_deref(), Some(tm.message.node.as_str()));
            assert_eq!(parsed.message, tm.message.text);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a: Vec<TimedMessage> = StreamGenerator::new(config()).take(100).collect();
        let b: Vec<TimedMessage> = StreamGenerator::new(config()).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn rfc5424_frames_parse_with_structured_data() {
        for tm in StreamGenerator::new(config()).take(100) {
            let frame = tm.to_frame_rfc5424();
            let parsed = syslog_model::parse(&frame).expect("5424 frame must parse");
            assert_eq!(parsed.protocol, syslog_model::Protocol::Rfc5424);
            assert_eq!(parsed.hostname.as_deref(), Some(tm.message.node.as_str()));
            assert_eq!(parsed.message, tm.message.text);
            // The template family rides along as structured data.
            assert_eq!(
                parsed.structured_data[0].params,
                [("family".to_string(), tm.message.family.clone())]
            );
        }
    }
}
