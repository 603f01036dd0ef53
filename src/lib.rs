//! # hetsyslog — Heterogeneous Syslog Analysis
//!
//! A from-scratch Rust reproduction of *"Heterogeneous Syslog Analysis:
//! There Is Hope"* (Quan, Howell & Greenberg, SC'23 SYSPROS): real-time
//! classification of syslog messages from a heterogeneous test-bed cluster
//! into actionable issue categories, comparing edit-distance bucketing,
//! eight traditional ML classifiers over lemmatized TF-IDF features, and
//! (simulated) large-language-model classifiers.
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! * [`syslog`] — message model, RFC 3164/5424 parsers, normalization;
//! * [`text`] — tokenizer, lemmatizer, sparse vectors, TF-IDF;
//! * [`editdist`] — Levenshtein/Damerau/Hamming and the exemplar-bucket
//!   baseline;
//! * [`ml`] — the eight-classifier suite, datasets and metrics;
//! * [`core`] — taxonomy, preprocessing pipeline, classifier adapters,
//!   noise filter, monitor service, evaluation harness;
//! * [`datagen`] — the synthetic Darwin corpus, drift model and stream;
//! * [`llm`] — the simulated generative / zero-shot LLM classifiers;
//! * [`pipeline`] — the Tivan-like store, ingest and monitoring views;
//! * [`obs`] — metrics registry, pipeline spans and the Prometheus-style
//!   scrape endpoint (see DESIGN §5b).
//!
//! # Quickstart
//!
//! ```
//! use hetsyslog::prelude::*;
//!
//! // A labeled corpus (the real system trains on ~196k Darwin messages).
//! let corpus: Vec<(String, Category)> = vec![
//!     ("CPU 3 temperature above threshold, clock throttled".into(), Category::ThermalIssue),
//!     ("CPU 9 temperature above threshold, clock throttled".into(), Category::ThermalIssue),
//!     ("Connection closed by 10.0.4.1 port 50412 [preauth]".into(), Category::SshConnection),
//!     ("Connection closed by 10.2.0.9 port 41001 [preauth]".into(), Category::SshConnection),
//! ];
//!
//! // Train the paper's preferred pipeline: lemmatize → TF-IDF → classifier.
//! let clf = TraditionalPipeline::train(
//!     FeatureConfig {
//!         tfidf: hetsyslog::text::TfidfConfig { min_df: 1, ..Default::default() },
//!         ..FeatureConfig::default()
//!     },
//!     Box::new(ComplementNaiveBayes::new(Default::default())),
//!     &corpus,
//! );
//!
//! let p = clf.classify("CPU 7 temperature above threshold, clock throttled");
//! assert_eq!(p.category, Category::ThermalIssue);
//! ```

pub use editdist;
pub use hetsyslog_core as core;
pub use hetsyslog_ml as ml;
pub use llmsim as llm;
pub use logpipeline as pipeline;
pub use obs;
pub use syslog_model as syslog;
pub use textproc as text;

/// Re-export of the corpus / drift / stream generators.
pub use datagen;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use datagen::{generate_corpus, CorpusConfig, StreamConfig, StreamGenerator};
    pub use editdist::{levenshtein, BucketStore, BucketingConfig};
    pub use hetsyslog_core::{
        BatchSnapshot, BucketBaseline, Category, Explanation, FeatureConfig, FeaturePipeline,
        FrameOutcome, ModelQuality, MonitorService, NoiseFilter, Prediction, SavedModel,
        SavedPipeline, TextClassifier, TraditionalPipeline,
    };
    pub use hetsyslog_ml::{
        paper_suite, BatchClassifier, Classifier, ComplementNaiveBayes, ConfusionMatrix, Dataset,
        KNearestNeighbors, LinearSvc, LogisticRegression, NearestCentroid, RandomForest,
        RidgeClassifier, SgdClassifier,
    };
    pub use llmsim::{
        GenerativeLlmClassifier, ModelPreset, PromptBuilder, StatusSummarizer,
        ZeroShotLlmClassifier,
    };
    pub use logpipeline::{
        compare_to_arch_peers, sensor_sweep, BulkSink, ClusterTopology, FanOut, FaultPlan,
        FileSink, Frontend, ListenerConfig, LogStore, MetricSink, OverloadPolicy, Query,
        SensorVerdict, Sink, SinkLaneConfig, SinkSpec, SpillConfig, SyslogListener,
    };
    pub use obs::{AlertEngine, Cmp, Registry, Rule, RuleInput, Telemetry};
    pub use syslog_model::{parse, FrameDecoder, Severity, SyslogMessage};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_all_subsystems() {
        // One symbol per subsystem, to catch broken re-exports early.
        let _ = Category::ALL;
        let _ = levenshtein("a", "b");
        let _ = CorpusConfig::default();
        let _ = ModelPreset::falcon_7b();
        let _ = LogStore::new();
        let _ = parse("<13>Oct 11 22:14:15 n app: m");
    }
}
