//! Real-time heterogeneous syslog classification — the paper's primary
//! contribution, assembled from the workspace substrates.
//!
//! The pieces, in the order a message flows through them:
//!
//! 1. [`taxonomy`] — the eight actionable issue categories of §4.1.
//! 2. [`filter`] — the "Unimportant" pre-filter (edit-distance blacklist at
//!    a tight threshold) that the paper's conclusion recommends running
//!    before classification; measured offline, not on the live path.
//! 3. [`features`] — tokenize → lemmatize → TF-IDF (§4.3), producing both
//!    feature vectors and the per-category explanatory token lists of
//!    Table 1.
//! 4. [`classify`] — the [`classify::TextClassifier`] interface over raw
//!    message text, with adapters for the traditional ML models and the
//!    edit-distance bucketing baseline.
//! 5. [`explain`] — per-decision explanations (top contributing tokens).
//! 6. [`service`] — the monitoring front end: classify and count per
//!    category.
//! 7. [`model_quality`] — serving-time model health: prediction-share
//!    counters and the PSI drift gauge comparing recent predictions to a
//!    frozen startup baseline.
//! 8. [`eval`] — the evaluation harness that produces the paper's
//!    Figure 2/Figure 3 artifacts.

pub mod classify;
pub mod eval;
pub mod explain;
pub mod features;
pub mod filter;
pub mod model_quality;
pub mod persist;
pub mod service;
pub mod taxonomy;

pub use classify::{BucketBaseline, Prediction, TextClassifier, TraditionalPipeline};
pub use explain::Explanation;
pub use features::{FeatureConfig, FeaturePipeline};
pub use filter::NoiseFilter;
pub use model_quality::ModelQuality;
pub use persist::{canonicalize_json, to_canonical_json, SavedModel, SavedPipeline};
pub use service::{
    BatchSnapshot, FrameOutcome, HealthSnapshot, IngestSnapshot, MonitorService, MonitorStats,
};
pub use taxonomy::Category;
