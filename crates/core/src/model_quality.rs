//! Model-quality telemetry: prediction-share counters and population-
//! stability drift scoring for the live classify stage.
//!
//! The paper's premise is that a model trained on one site's syslog
//! vocabulary degrades silently when the stream shifts (new firmware, new
//! vendors, §6 "model maintenance"). [`ModelQuality`] instruments that
//! failure mode at serving time, with no labels required:
//!
//! - `hetsyslog_model_predictions_total{category=…}` — one counter per
//!   taxonomy category, counting predictions as they are made. Share
//!   drift across categories is the first observable symptom of input
//!   drift.
//! - `hetsyslog_model_drift_psi_milli` — the Population Stability Index
//!   between a **frozen baseline** (the first `baseline_target`
//!   predictions after startup, assumed healthy) and a **rolling window**
//!   of the most recent predictions, exported in milli-units on an
//!   integer gauge. The conventional reading: PSI < 0.1 stable,
//!   0.1–0.25 moderate shift, > 0.25 action required — i.e. alert at
//!   `psi_milli > 250`.
//!
//! The accounting is deliberately order-only: feeding the same category
//! sequence through the scalar or batch ingest paths produces identical
//! counter values and an identical final PSI, so the service's
//! scalar/batch parity guarantees extend to the quality layer.

use crate::taxonomy::Category;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Predictions absorbed into the frozen baseline before scoring starts.
pub const DEFAULT_BASELINE_TARGET: u64 = 512;

/// Rolling-window length compared against the baseline.
pub const DEFAULT_WINDOW_LEN: usize = 512;

const N_CATEGORIES: usize = 8;

/// The quality layer's instruments, registered once at construction.
struct QualityInstruments {
    per_category: [Arc<obs::Counter>; N_CATEGORIES],
    psi_milli: Arc<obs::Gauge>,
}

impl QualityInstruments {
    fn registered(registry: &obs::Registry) -> QualityInstruments {
        QualityInstruments {
            per_category: std::array::from_fn(|i| {
                let category = Category::from_index(i).expect("category index");
                registry.counter(
                    "hetsyslog_model_predictions_total",
                    "Model predictions by taxonomy category",
                    &[("category", category.label())],
                )
            }),
            psi_milli: registry.gauge(
                "hetsyslog_model_drift_psi_milli",
                "Population Stability Index of recent prediction shares vs the \
                 frozen startup baseline, in thousandths (250 = PSI 0.25)",
                &[],
            ),
        }
    }
}

/// Baseline-vs-window category share accounting.
struct DriftState {
    baseline: [u64; N_CATEGORIES],
    baseline_total: u64,
    frozen: bool,
    window: VecDeque<u8>,
    window_counts: [u64; N_CATEGORIES],
}

/// Serving-time model-quality instruments; see the module docs.
pub struct ModelQuality {
    instruments: QualityInstruments,
    drift: Mutex<DriftState>,
    baseline_target: u64,
    window_len: usize,
}

impl ModelQuality {
    /// Default sizing: 512-prediction baseline, 512-prediction window.
    pub fn new() -> ModelQuality {
        ModelQuality::with_config(DEFAULT_BASELINE_TARGET, DEFAULT_WINDOW_LEN)
    }

    /// Explicit baseline / window sizing (both clamped to at least 1).
    pub fn with_config(baseline_target: u64, window_len: usize) -> ModelQuality {
        ModelQuality {
            instruments: QualityInstruments::registered(&obs::Registry::new()),
            drift: Mutex::new(DriftState {
                baseline: [0; N_CATEGORIES],
                baseline_total: 0,
                frozen: false,
                window: VecDeque::with_capacity(window_len.max(1)),
                window_counts: [0; N_CATEGORIES],
            }),
            baseline_target: baseline_target.max(1),
            window_len: window_len.max(1),
        }
    }

    /// Record a run of predictions in input order: bump the per-category
    /// counters, feed the drift state, and refresh the PSI gauge once at
    /// the end. Calling this per message or once per batch with the same
    /// category sequence yields identical final state.
    pub fn record(&self, categories: &[Category]) {
        if categories.is_empty() {
            return;
        }
        let instruments = &self.instruments;
        let mut drift = self.drift.lock();
        for &category in categories {
            let c = category.index();
            instruments.per_category[c].inc();
            if !drift.frozen {
                drift.baseline[c] += 1;
                drift.baseline_total += 1;
                if drift.baseline_total >= self.baseline_target {
                    drift.frozen = true;
                }
            } else {
                if drift.window.len() == self.window_len {
                    let evicted = drift.window.pop_front().expect("non-empty window");
                    drift.window_counts[evicted as usize] -= 1;
                }
                drift.window.push_back(c as u8);
                drift.window_counts[c] += 1;
            }
        }
        if drift.frozen && !drift.window.is_empty() {
            let psi = psi_score(
                &drift.baseline,
                drift.baseline_total,
                &drift.window_counts,
                drift.window.len() as u64,
            );
            instruments.psi_milli.set((psi * 1000.0).round() as i64);
        }
    }

    /// The current PSI (`None` until the baseline froze and at least one
    /// windowed prediction arrived).
    pub fn psi(&self) -> Option<f64> {
        let drift = self.drift.lock();
        if drift.frozen && !drift.window.is_empty() {
            Some(psi_score(
                &drift.baseline,
                drift.baseline_total,
                &drift.window_counts,
                drift.window.len() as u64,
            ))
        } else {
            None
        }
    }

    /// Export the prediction counters and the PSI gauge on `registry`
    /// (without this call they record on a registry nobody scrapes). A
    /// construction-time builder: the instruments start from zero.
    pub fn with_registry(mut self, registry: &obs::Registry) -> ModelQuality {
        self.instruments = QualityInstruments::registered(registry);
        self
    }
}

impl Default for ModelQuality {
    fn default() -> ModelQuality {
        ModelQuality::new()
    }
}

/// Smoothed Population Stability Index over the 8 category shares:
/// `Σ (q_i − p_i) · ln(q_i / p_i)` with add-half smoothing
/// (`p_i = (b_i + ½) / (B + 4)`, likewise for `q`), so empty categories
/// on either side never produce infinities.
fn psi_score(
    baseline: &[u64; N_CATEGORIES],
    baseline_total: u64,
    window: &[u64; N_CATEGORIES],
    window_total: u64,
) -> f64 {
    let b_denom = baseline_total as f64 + N_CATEGORIES as f64 * 0.5;
    let w_denom = window_total as f64 + N_CATEGORIES as f64 * 0.5;
    let mut psi = 0.0;
    for c in 0..N_CATEGORIES {
        let p = (baseline[c] as f64 + 0.5) / b_denom;
        let q = (window[c] as f64 + 0.5) / w_denom;
        psi += (q - p) * (q / p).ln();
    }
    psi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat(i: usize) -> Category {
        Category::from_index(i).unwrap()
    }

    #[test]
    fn identical_distributions_score_near_zero() {
        let q = ModelQuality::with_config(100, 100);
        let seq: Vec<Category> = (0..100).map(|i| cat(i % 4)).collect();
        q.record(&seq);
        assert!(q.drift.lock().frozen);
        assert!(q.psi().is_none(), "no windowed predictions yet");
        q.record(&seq);
        let psi = q.psi().unwrap();
        assert!(psi.abs() < 0.01, "identical shares should score ~0: {psi}");
    }

    #[test]
    fn shifted_distribution_scores_high() {
        let q = ModelQuality::with_config(100, 100);
        let baseline: Vec<Category> = (0..100).map(|i| cat(i % 4)).collect();
        q.record(&baseline);
        // Everything collapses onto one previously-rare category.
        let shifted: Vec<Category> = (0..100).map(|_| cat(6)).collect();
        q.record(&shifted);
        let psi = q.psi().unwrap();
        assert!(psi > 0.25, "full collapse must exceed the 0.25 bar: {psi}");
    }

    #[test]
    fn drift_resolves_when_stream_returns_to_baseline() {
        let q = ModelQuality::with_config(100, 50);
        let baseline: Vec<Category> = (0..100).map(|i| cat(i % 4)).collect();
        q.record(&baseline);
        q.record(&(0..50).map(|_| cat(6)).collect::<Vec<_>>());
        assert!(q.psi().unwrap() > 0.25);
        // The rolling window forgets the excursion.
        q.record(&(0..50).map(|i| cat(i % 4)).collect::<Vec<_>>());
        assert!(q.psi().unwrap() < 0.05);
    }

    #[test]
    fn scalar_and_batch_recording_agree() {
        let seq: Vec<Category> = (0..150).map(|i| cat((i * 7) % 8)).collect();
        let a = ModelQuality::with_config(60, 40);
        let b = ModelQuality::with_config(60, 40);
        for &c in &seq {
            a.record(&[c]);
        }
        b.record(&seq[..100]);
        b.record(&seq[100..]);
        assert_eq!(a.psi(), b.psi());
    }

    #[test]
    fn built_with_registry_exports_counts_and_gauge() {
        let registry = obs::Registry::new();
        let q = ModelQuality::with_config(4, 4).with_registry(&registry);
        q.record(&[cat(0), cat(0), cat(1), cat(1)]);
        q.record(&[cat(2), cat(2)]);
        let scrape = obs::parse_exposition(&registry.render_prometheus());
        assert_eq!(
            scrape.value(
                "hetsyslog_model_predictions_total",
                &[("category", cat(0).label())]
            ),
            Some(2.0)
        );
        let psi_milli = (q.psi().unwrap() * 1000.0).round();
        assert!(psi_milli > 0.0);
        assert_eq!(
            scrape.value("hetsyslog_model_drift_psi_milli", &[]),
            Some(psi_milli)
        );
    }
}
