//! Deterministic simulated LLM substrate.
//!
//! The paper evaluates Falcon-7b, Falcon-40b (generative classification)
//! and facebook/bart-large-mnli (zero-shot) on a 4×A100 node. Neither the
//! models nor the GPUs are available here, so this crate builds the closest
//! synthetic equivalent that exercises the same code paths and reproduces
//! the same *observed behaviours*:
//!
//! * [`tokenizer`] — subword-ish token counting for latency accounting;
//! * [`latency`] — per-token latency models calibrated to the paper's
//!   Table 3 measurements, driven through a [`clock::VirtualClock`];
//! * [`lm`] — a category-conditioned bigram language model trained on the
//!   corpus, used both as the simulated model's "knowledge" and to
//!   fabricate plausible hallucinated text;
//! * [`prompt`] — the §5.2 prompt recipe (task intro, category list,
//!   TF-IDF top words per category, output format, one-shot example);
//! * [`generative`] — the generative pseudo-LLM with the paper's failure
//!   modes: out-of-taxonomy "generated classification", excessive
//!   generation (unsolicited justifications), and runaway prompt
//!   continuation — all mitigated by a `max_new_tokens` cap exactly as the
//!   authors did;
//! * [`parse`] — response parsing back into the taxonomy;
//! * [`zeroshot`] — a BART-MNLI-style zero-shot scorer that always returns
//!   an in-taxonomy label;
//! * [`classifier`] — adapters implementing
//!   [`hetsyslog_core::TextClassifier`];
//! * [`summarize`] — the Future Work (§7) low-frequency task: status
//!   summaries.

pub mod classifier;
pub mod clock;
pub mod generative;
pub mod latency;
pub mod lm;
pub mod parse;
pub mod prompt;
pub mod summarize;
pub mod tokenizer;
pub mod zeroshot;

pub use classifier::{GenerativeLlmClassifier, ZeroShotLlmClassifier};
pub use clock::VirtualClock;
pub use generative::{GenerativeLlm, GenerativeOutput, ModelPreset};
pub use latency::LatencyModel;
pub use lm::CategoryLm;
pub use parse::{parse_response, ParseFailure};
pub use prompt::PromptBuilder;
pub use summarize::{StatusSummarizer, SummaryReport};
pub use zeroshot::ZeroShotModel;
