//! Rule-based alerting over the flight-recorder ring
//! ([`crate::timeseries::TimeSeriesStore`]).
//!
//! Three rule kinds, in the shape of the usual SRE alert taxonomy:
//!
//! - [`RuleKind::Threshold`] — a windowed aggregate (last value, rate,
//!   mean, p99, …) compared against a constant.
//! - [`RuleKind::Absence`] — the series produced no point inside the
//!   window ending *now* (stale or never-seen).
//! - [`RuleKind::BurnRate`] — the ratio of two counter rates (errors /
//!   traffic) compared against a constant, the multi-window burn-rate
//!   idiom's single-window core.
//!
//! Every rule carries `for`-duration hysteresis: the condition must hold
//! continuously for `for_ms` before the alert transitions
//! Pending → Firing (a single noisy sample never pages), and resolves on
//! the first evaluation where the condition is false. Transitions append
//! to a bounded event log; the full state is rendered as JSON at
//! `/alerts`.

use crate::registry::Labels;
use crate::timeseries::{TimeSeriesStore, WindowAggregate};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Default alert event-log capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Comparison operator for threshold-style conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
}

impl Cmp {
    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }
}

/// Which windowed aggregate a threshold rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleInput {
    /// The newest raw sample value.
    Last,
    /// Increase per second over the window (counters / histogram counts).
    Rate,
    /// Windowed mean (gauge mean of samples, histogram mean of deltas).
    Mean,
    /// Windowed p50 (histograms).
    P50,
    /// Windowed p99 (histograms).
    P99,
    /// Observations recorded inside the window (histograms).
    Count,
}

impl RuleInput {
    fn extract(self, w: &WindowAggregate) -> f64 {
        match self {
            RuleInput::Last => w.last,
            RuleInput::Rate => w.rate_per_sec,
            RuleInput::Mean => w.mean,
            RuleInput::P50 => w.p50 as f64,
            RuleInput::P99 => w.p99 as f64,
            RuleInput::Count => w.delta_count as f64,
        }
    }

    fn name(self) -> &'static str {
        match self {
            RuleInput::Last => "last",
            RuleInput::Rate => "rate",
            RuleInput::Mean => "mean",
            RuleInput::P50 => "p50",
            RuleInput::P99 => "p99",
            RuleInput::Count => "count",
        }
    }
}

/// The condition a rule evaluates each tick.
#[derive(Debug, Clone)]
pub enum RuleKind {
    /// `input(window(metric)) cmp value`.
    Threshold {
        /// Aggregate to inspect.
        input: RuleInput,
        /// Comparison.
        cmp: Cmp,
        /// Constant to compare against.
        value: f64,
    },
    /// The series has no point inside the window ending now.
    Absence,
    /// `rate(metric) / rate(denominator) cmp value` — the burn-rate
    /// ratio. A zero denominator rate evaluates to condition-false
    /// (no traffic is not an elevated burn).
    BurnRate {
        /// Denominator metric name.
        denominator: String,
        /// Denominator label set.
        denominator_labels: Labels,
        /// Comparison.
        cmp: Cmp,
        /// Ratio threshold.
        value: f64,
    },
}

/// One alert rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name (`model_drift`, `ingest_stalled`, …).
    pub name: String,
    /// Metric family the rule watches.
    pub metric: String,
    /// Label set selecting the series.
    pub labels: Labels,
    /// The condition.
    pub kind: RuleKind,
    /// Window the aggregate is computed over, milliseconds.
    pub window_ms: u64,
    /// The condition must hold this long before firing, milliseconds.
    pub for_ms: u64,
}

impl Rule {
    /// A threshold rule with no labels. (Builder-style setters below.)
    pub fn threshold(name: &str, metric: &str, input: RuleInput, cmp: Cmp, value: f64) -> Rule {
        Rule {
            name: name.to_string(),
            metric: metric.to_string(),
            labels: Vec::new(),
            kind: RuleKind::Threshold { input, cmp, value },
            window_ms: 5_000,
            for_ms: 0,
        }
    }

    /// Set the aggregate window.
    pub fn over_ms(mut self, window_ms: u64) -> Rule {
        self.window_ms = window_ms;
        self
    }

    /// Set the `for`-duration hysteresis.
    pub fn for_ms(mut self, for_ms: u64) -> Rule {
        self.for_ms = for_ms;
        self
    }

    fn condition_text(&self) -> String {
        match &self.kind {
            RuleKind::Threshold { input, cmp, value } => format!(
                "{}({}[{}ms]) {} {}",
                input.name(),
                self.metric,
                self.window_ms,
                cmp.symbol(),
                value
            ),
            RuleKind::Absence => format!("absent({}[{}ms])", self.metric, self.window_ms),
            RuleKind::BurnRate {
                denominator,
                cmp,
                value,
                ..
            } => format!(
                "rate({})/rate({})[{}ms] {} {}",
                self.metric,
                denominator,
                self.window_ms,
                cmp.symbol(),
                value
            ),
        }
    }
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition false.
    Inactive,
    /// Condition true, `for`-duration not yet served.
    Pending {
        /// When the condition first became true, ms.
        since_ms: u64,
    },
    /// Condition held for `for_ms`; the alert is active.
    Firing {
        /// When the alert started firing, ms.
        since_ms: u64,
    },
}

impl AlertState {
    fn name(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending { .. } => "pending",
            AlertState::Firing { .. } => "firing",
        }
    }
}

/// One state transition, appended to the bounded event log.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Evaluation time, ms (store clock).
    pub at_ms: u64,
    /// Rule name.
    pub rule: String,
    /// `"pending"`, `"firing"`, or `"resolved"`.
    pub transition: &'static str,
    /// The evaluated condition value at transition time.
    pub value: f64,
}

/// Point-in-time view of one rule for `/alerts` and `top`.
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// Rule name.
    pub name: String,
    /// Human-readable condition.
    pub condition: String,
    /// Current lifecycle state.
    pub state: AlertState,
    /// The condition value at the last evaluation (NaN before the first).
    pub value: f64,
    /// Firing/resolved transition counts over the engine's lifetime.
    pub fired_count: u64,
}

#[derive(Debug)]
struct RuleRuntime {
    state: AlertState,
    last_value: f64,
    fired_count: u64,
}

/// The alert engine: rules + per-rule state machines + event log.
/// [`AlertEngine::evaluate`] is called by the sampler after every sweep.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<Rule>,
    runtime: Mutex<Vec<RuleRuntime>>,
    events: Mutex<VecDeque<AlertEvent>>,
    event_capacity: usize,
}

impl AlertEngine {
    /// An engine over a fixed rule set.
    pub fn new(rules: Vec<Rule>) -> AlertEngine {
        let runtime = rules
            .iter()
            .map(|_| RuleRuntime {
                state: AlertState::Inactive,
                last_value: f64::NAN,
                fired_count: 0,
            })
            .collect();
        AlertEngine {
            rules,
            runtime: Mutex::new(runtime),
            events: Mutex::new(VecDeque::new()),
            event_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Evaluate every rule against the store at `now_ms`, advancing the
    /// state machines and appending transitions to the event log.
    pub fn evaluate(&self, store: &TimeSeriesStore, now_ms: u64) {
        let mut runtime = self.runtime.lock();
        for (rule, rt) in self.rules.iter().zip(runtime.iter_mut()) {
            let (active, value) = self.eval_condition(rule, store, now_ms);
            rt.last_value = value;
            let next = match (rt.state, active) {
                (AlertState::Inactive, false) => AlertState::Inactive,
                (AlertState::Inactive, true) => {
                    if rule.for_ms == 0 {
                        AlertState::Firing { since_ms: now_ms }
                    } else {
                        AlertState::Pending { since_ms: now_ms }
                    }
                }
                (AlertState::Pending { since_ms }, true) => {
                    if now_ms.saturating_sub(since_ms) >= rule.for_ms {
                        AlertState::Firing { since_ms: now_ms }
                    } else {
                        AlertState::Pending { since_ms }
                    }
                }
                // Condition cleared before the for-duration was served:
                // back to inactive without ever firing (silently — a
                // pending alert never paged).
                (AlertState::Pending { .. }, false) => AlertState::Inactive,
                (AlertState::Firing { since_ms }, true) => AlertState::Firing { since_ms },
                (AlertState::Firing { .. }, false) => AlertState::Inactive,
            };
            if std::mem::discriminant(&next) != std::mem::discriminant(&rt.state) {
                let transition = match (&rt.state, &next) {
                    (_, AlertState::Pending { .. }) => Some("pending"),
                    (_, AlertState::Firing { .. }) => Some("firing"),
                    (AlertState::Firing { .. }, AlertState::Inactive) => Some("resolved"),
                    _ => None,
                };
                if let Some(transition) = transition {
                    if transition == "firing" {
                        rt.fired_count += 1;
                    }
                    let mut events = self.events.lock();
                    if events.len() == self.event_capacity {
                        events.pop_front();
                    }
                    events.push_back(AlertEvent {
                        at_ms: now_ms,
                        rule: rule.name.clone(),
                        transition,
                        value,
                    });
                }
            }
            rt.state = next;
        }
    }

    fn eval_condition(&self, rule: &Rule, store: &TimeSeriesStore, now_ms: u64) -> (bool, f64) {
        let labels: Vec<(&str, &str)> = rule
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        match &rule.kind {
            RuleKind::Threshold { input, cmp, value } => {
                match store.window(&rule.metric, &labels, rule.window_ms) {
                    Some(w) => {
                        let v = input.extract(&w);
                        (cmp.eval(v, *value), v)
                    }
                    // An unknown series is not a threshold breach (that is
                    // what Absence rules are for).
                    None => (false, f64::NAN),
                }
            }
            RuleKind::Absence => {
                let present = store
                    .window_ending_now(&rule.metric, &labels, rule.window_ms, now_ms)
                    .is_some();
                (!present, if present { 1.0 } else { 0.0 })
            }
            RuleKind::BurnRate {
                denominator,
                denominator_labels,
                cmp,
                value,
            } => {
                let den_labels: Vec<(&str, &str)> = denominator_labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                let num = store.window(&rule.metric, &labels, rule.window_ms);
                let den = store.window(denominator, &den_labels, rule.window_ms);
                match (num, den) {
                    (Some(n), Some(d)) if d.rate_per_sec > 0.0 => {
                        let ratio = n.rate_per_sec / d.rate_per_sec;
                        (cmp.eval(ratio, *value), ratio)
                    }
                    _ => (false, f64::NAN),
                }
            }
        }
    }

    /// Current per-rule status.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        let runtime = self.runtime.lock();
        self.rules
            .iter()
            .zip(runtime.iter())
            .map(|(rule, rt)| AlertStatus {
                name: rule.name.clone(),
                condition: rule.condition_text(),
                state: rt.state,
                value: rt.last_value,
                fired_count: rt.fired_count,
            })
            .collect()
    }

    /// Names of currently firing rules.
    pub fn firing(&self) -> Vec<String> {
        self.statuses()
            .into_iter()
            .filter(|s| matches!(s.state, AlertState::Firing { .. }))
            .map(|s| s.name)
            .collect()
    }

    /// The event log, oldest first.
    pub fn events(&self) -> Vec<AlertEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Render statuses + events as the `/alerts` JSON document.
    pub fn render_json(&self) -> String {
        let statuses: Vec<serde_json::Value> = self
            .statuses()
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "condition": s.condition,
                    "state": s.state.name(),
                    "value": if s.value.is_finite() {
                        serde_json::json!(s.value)
                    } else {
                        serde_json::Value::Null
                    },
                    "fired_count": s.fired_count,
                })
            })
            .collect();
        let events: Vec<serde_json::Value> = self
            .events()
            .iter()
            .map(|e| {
                serde_json::json!({
                    "at_ms": e.at_ms,
                    "rule": e.rule,
                    "transition": e.transition,
                    "value": if e.value.is_finite() {
                        serde_json::json!(e.value)
                    } else {
                        serde_json::Value::Null
                    },
                })
            })
            .collect();
        serde_json::to_string(&serde_json::json!({
            "alerts": statuses,
            "events": events,
        }))
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SeriesSnapshot;

    fn counter_snap(name: &str, value: i64) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            help: String::new(),
            kind: "counter",
            labels: Vec::new(),
            value,
            histogram: None,
        }
    }

    fn gauge_snap(name: &str, value: i64) -> SeriesSnapshot {
        SeriesSnapshot {
            kind: "gauge",
            ..counter_snap(name, value)
        }
    }

    /// An absence rule: fires when `metric` has no point in `window_ms`.
    fn absence(name: &str, metric: &str, window_ms: u64) -> Rule {
        Rule {
            kind: RuleKind::Absence,
            window_ms,
            ..Rule::threshold(name, metric, RuleInput::Last, Cmp::Gt, 0.0)
        }
    }

    /// A burn-rate rule: `rate(metric) / rate(denominator) > value`.
    fn burn_rate(name: &str, metric: &str, denominator: &str, value: f64) -> Rule {
        Rule {
            kind: RuleKind::BurnRate {
                denominator: denominator.to_string(),
                denominator_labels: Vec::new(),
                cmp: Cmp::Gt,
                value,
            },
            ..Rule::threshold(name, metric, RuleInput::Last, Cmp::Gt, 0.0)
        }
    }

    #[test]
    fn threshold_fires_after_for_duration_and_resolves() {
        let store = TimeSeriesStore::new(64);
        let engine = AlertEngine::new(vec![Rule::threshold(
            "psi_high",
            "psi_milli",
            RuleInput::Last,
            Cmp::Gt,
            250.0,
        )
        .over_ms(10_000)
        .for_ms(500)]);

        // Below threshold: inactive.
        store.observe(0, 0, &[gauge_snap("psi_milli", 100)]);
        engine.evaluate(&store, 0);
        assert!(matches!(engine.statuses()[0].state, AlertState::Inactive));

        // Breach: pending first (for-duration not served).
        store.observe(250, 0, &[gauge_snap("psi_milli", 400)]);
        engine.evaluate(&store, 250);
        assert!(matches!(
            engine.statuses()[0].state,
            AlertState::Pending { .. }
        ));
        assert!(engine.firing().is_empty());

        // Still breached 500ms later: firing.
        store.observe(750, 0, &[gauge_snap("psi_milli", 420)]);
        engine.evaluate(&store, 750);
        assert_eq!(engine.firing(), vec!["psi_high".to_string()]);
        assert_eq!(engine.statuses()[0].fired_count, 1);

        // Recovered: resolved immediately.
        store.observe(1000, 0, &[gauge_snap("psi_milli", 50)]);
        engine.evaluate(&store, 1000);
        assert!(engine.firing().is_empty());
        let transitions: Vec<&str> = engine.events().iter().map(|e| e.transition).collect();
        assert_eq!(transitions, vec!["pending", "firing", "resolved"]);
    }

    #[test]
    fn pending_that_recovers_never_fires() {
        let store = TimeSeriesStore::new(64);
        let engine = AlertEngine::new(vec![Rule::threshold(
            "spiky",
            "g",
            RuleInput::Last,
            Cmp::Gt,
            10.0,
        )
        .for_ms(1_000)]);
        store.observe(0, 0, &[gauge_snap("g", 50)]);
        engine.evaluate(&store, 0);
        store.observe(100, 0, &[gauge_snap("g", 5)]);
        engine.evaluate(&store, 100);
        assert!(matches!(engine.statuses()[0].state, AlertState::Inactive));
        assert_eq!(engine.statuses()[0].fired_count, 0);
        let transitions: Vec<&str> = engine.events().iter().map(|e| e.transition).collect();
        assert_eq!(transitions, vec!["pending"]);
    }

    #[test]
    fn absence_rule_detects_stale_series() {
        let store = TimeSeriesStore::new(64);
        let engine = AlertEngine::new(vec![absence("stalled", "frames_total", 1_000)]);
        // Never-seen series is absent.
        engine.evaluate(&store, 0);
        assert_eq!(engine.firing(), vec!["stalled".to_string()]);
        // Fresh point: resolved.
        store.observe(100, 0, &[counter_snap("frames_total", 10)]);
        engine.evaluate(&store, 150);
        assert!(engine.firing().is_empty());
        // Stale again 2s later.
        engine.evaluate(&store, 2_000);
        assert_eq!(engine.firing(), vec!["stalled".to_string()]);
    }

    #[test]
    fn burn_rate_compares_two_counter_rates() {
        let store = TimeSeriesStore::new(64);
        let engine = AlertEngine::new(vec![burn_rate(
            "drop_burn",
            "dropped_total",
            "frames_total",
            0.05,
        )
        .over_ms(10_000)]);
        // 1000 frames/s, 10 drops/s → ratio 0.01: fine.
        store.observe(
            0,
            0,
            &[
                counter_snap("dropped_total", 0),
                counter_snap("frames_total", 0),
            ],
        );
        store.observe(
            1_000,
            0,
            &[
                counter_snap("dropped_total", 10),
                counter_snap("frames_total", 1_000),
            ],
        );
        engine.evaluate(&store, 1_000);
        assert!(engine.firing().is_empty());
        let v = engine.statuses()[0].value;
        assert!((v - 0.01).abs() < 1e-9, "{v}");
        // Drop storm: 200 more drops over the next second → ratio spikes.
        store.observe(
            2_000,
            0,
            &[
                counter_snap("dropped_total", 210),
                counter_snap("frames_total", 2_000),
            ],
        );
        engine.evaluate(&store, 2_000);
        assert_eq!(engine.firing(), vec!["drop_burn".to_string()]);
        // No traffic at all: not a burn.
        let idle = TimeSeriesStore::new(8);
        idle.observe(0, 0, &[counter_snap("dropped_total", 0)]);
        let engine2 = AlertEngine::new(vec![burn_rate("b", "dropped_total", "frames_total", 0.0)]);
        engine2.evaluate(&idle, 0);
        assert!(engine2.firing().is_empty());
    }

    #[test]
    fn render_json_is_parseable_and_complete() {
        let store = TimeSeriesStore::new(8);
        let engine = AlertEngine::new(vec![
            Rule::threshold("t", "g", RuleInput::Last, Cmp::Gt, 1.0),
            absence("a", "missing_total", 1_000),
        ]);
        store.observe(0, 0, &[gauge_snap("g", 5)]);
        engine.evaluate(&store, 0);
        let v: serde_json::Value = serde_json::from_str(&engine.render_json()).unwrap();
        let alerts = v.get("alerts").and_then(|a| a.as_array()).unwrap();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].get("name").and_then(|x| x.as_str()), Some("t"));
        assert_eq!(
            alerts[0].get("state").and_then(|x| x.as_str()),
            Some("firing")
        );
        assert_eq!(
            alerts[1].get("state").and_then(|x| x.as_str()),
            Some("firing")
        );
        assert!(v.get("events").and_then(|e| e.as_array()).unwrap().len() >= 2);
        // NaN values render as null, keeping the document valid JSON.
        let engine2 = AlertEngine::new(vec![Rule::threshold(
            "u",
            "unknown",
            RuleInput::Last,
            Cmp::Gt,
            0.0,
        )]);
        engine2.evaluate(&store, 0);
        let v2: serde_json::Value = serde_json::from_str(&engine2.render_json()).unwrap();
        let a0 = &v2.get("alerts").and_then(|a| a.as_array()).unwrap()[0];
        assert!(a0.get("value").unwrap().is_null());
    }

    #[test]
    fn event_log_is_bounded() {
        let store = TimeSeriesStore::new(8);
        let engine = AlertEngine::new(vec![absence("flap", "m", 100)]);
        let mut t = 0u64;
        for _ in 0..(DEFAULT_EVENT_CAPACITY * 2) {
            engine.evaluate(&store, t); // absent → firing
            store.observe(t + 10, 0, &[counter_snap("m", 1)]);
            engine.evaluate(&store, t + 20); // present → resolved
            t += 1_000;
        }
        assert_eq!(engine.events().len(), DEFAULT_EVENT_CAPACITY);
    }
}
