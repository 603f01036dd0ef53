//! The paper's Future Work (§7), implemented: low-frequency LLM tasks.
//!
//! "We are hopeful that … there still might be use-cases for these tools in
//! the context of a test-bed cluster. Some examples could be summarizing
//! the system status, explanation of groups of syslog messages within a
//! given node, generating recommended responses to admin emails … These
//! models excel in tasks that involve unstructured text."
//!
//! Unlike per-message classification — where Table 3 shows the cost is
//! fatal — these run a few times an hour, so even Falcon-40b-class latency
//! is acceptable. [`StatusSummarizer`] implements the first of them, the
//! status summary the `summarize` command prints, over the simulated model
//! with the same virtual-clock cost accounting.

use crate::generative::ModelPreset;
use crate::tokenizer::count_tokens;
use hetsyslog_core::Category;
use std::fmt::Write as _;

/// One summarization/explanation result, with cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryReport {
    /// The generated prose.
    pub text: String,
    /// Prompt tokens (prefill cost).
    pub prompt_tokens: usize,
    /// Generated tokens (decode cost).
    pub generated_tokens: usize,
    /// Modeled inference seconds on the paper's 4×A100 node.
    pub inference_seconds: f64,
}

/// LLM-backed summarization of cluster state.
#[derive(Debug, Clone)]
pub struct StatusSummarizer {
    preset: ModelPreset,
}

impl StatusSummarizer {
    /// A summarizer costed as `preset`.
    pub fn new(preset: ModelPreset) -> StatusSummarizer {
        StatusSummarizer { preset }
    }

    fn report(&self, prompt: &str, text: String) -> SummaryReport {
        let prompt_tokens = count_tokens(prompt);
        let generated_tokens = count_tokens(&text).max(1);
        SummaryReport {
            inference_seconds: self
                .preset
                .latency
                .inference_seconds(prompt_tokens, generated_tokens),
            prompt_tokens,
            generated_tokens,
            text,
        }
    }

    /// Task 1: summarize system status from per-category message counts
    /// over a window (the input a Grafana panel would hand the model).
    pub fn summarize_status(
        &self,
        window_minutes: u64,
        counts: &[(Category, u64)],
    ) -> SummaryReport {
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        let prompt = format!(
            "Summarize the cluster status for the last {window_minutes} minutes given these \
             per-category syslog counts: {counts:?}"
        );
        let mut text = format!(
            "Over the last {window_minutes} minutes the cluster produced {total} syslog messages. "
        );
        let mut actionable: Vec<&(Category, u64)> = counts
            .iter()
            .filter(|(c, n)| c.is_actionable() && *n > 0)
            .collect();
        actionable.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        if actionable.is_empty() {
            text.push_str("All traffic was routine noise; no operator action is indicated.");
        } else {
            let _ = write!(
                text,
                "The dominant actionable category is {} with {} messages — {}. ",
                actionable[0].0,
                actionable[0].1,
                actionable[0].0.suggested_action()
            );
            for (c, n) in actionable.iter().skip(1).take(2) {
                let _ = write!(text, "{c} contributed {n} messages. ");
            }
            let noise = counts
                .iter()
                .find(|(c, _)| *c == Category::Unimportant)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            if total > 0 {
                let _ = write!(
                    text,
                    "{:.0}% of the volume was unimportant noise.",
                    noise as f64 / total as f64 * 100.0
                );
            }
        }
        self.report(&prompt, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarizer() -> StatusSummarizer {
        StatusSummarizer::new(ModelPreset::falcon_40b())
    }

    #[test]
    fn status_summary_names_dominant_category() {
        let s = summarizer();
        let r = s.summarize_status(
            60,
            &[
                (Category::ThermalIssue, 412),
                (Category::MemoryIssue, 17),
                (Category::Unimportant, 3000),
            ],
        );
        assert!(r.text.contains("Thermal Issue"));
        assert!(r.text.contains("412"));
        assert!(r.text.contains("rack cooling"));
        assert!(r.text.contains('%'));
        assert!(r.inference_seconds > 0.0);
    }

    #[test]
    fn quiet_cluster_summary() {
        let s = summarizer();
        let r = s.summarize_status(10, &[(Category::Unimportant, 900)]);
        assert!(r.text.contains("routine noise"));
    }

    #[test]
    fn low_frequency_cost_is_acceptable() {
        // The point of §7: a handful of summaries per hour is fine even at
        // Falcon-40b latency, unlike per-message classification.
        let s = summarizer();
        let r = s.summarize_status(60, &[(Category::ThermalIssue, 10)]);
        assert!(
            r.inference_seconds < 30.0,
            "one hourly summary must cost seconds, not minutes: {}",
            r.inference_seconds
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let counts = [(Category::UsbDevice, 4), (Category::Unimportant, 9)];
        let a = StatusSummarizer::new(ModelPreset::falcon_40b());
        let b = StatusSummarizer::new(ModelPreset::falcon_40b());
        assert_eq!(
            a.summarize_status(60, &counts),
            b.summarize_status(60, &counts)
        );
    }
}
