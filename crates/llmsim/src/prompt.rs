//! The §5.2 prompt recipe.
//!
//! "Ultimately the prompt that generated the most success in our testing
//! contained the following elements: An introduction of the problem. a list
//! of the potential categories. A list of the most commonly used words
//! generated via TF-IDF for each category. A specification of the output
//! format, and finally … an example syslog message with its corresponding
//! classification."

use hetsyslog_core::Category;

/// Builds classification prompts in the paper's most-successful shape.
#[derive(Debug, Clone)]
pub struct PromptBuilder {
    /// Per-category TF-IDF top words (Table 1 output), in
    /// [`Category::ALL`] order. Empty lists are allowed.
    top_words: Vec<Vec<String>>,
    /// The one-shot example `(message, category)`.
    example: (String, Category),
}

impl Default for PromptBuilder {
    fn default() -> Self {
        PromptBuilder {
            top_words: vec![Vec::new(); Category::ALL.len()],
            example: (
                "CPU 4 Temperature Above Non-Recoverable - Asserted".to_string(),
                Category::ThermalIssue,
            ),
        }
    }
}

impl PromptBuilder {
    /// A builder with no TF-IDF hints.
    pub fn new() -> PromptBuilder {
        PromptBuilder::default()
    }

    /// Attach per-category TF-IDF top words (Table 1 order). Lists beyond
    /// the category count are ignored.
    pub fn with_top_words(mut self, top_words: Vec<Vec<String>>) -> PromptBuilder {
        for (slot, words) in self.top_words.iter_mut().zip(top_words) {
            *slot = words;
        }
        self
    }

    /// Render the full prompt for `message`.
    pub fn build(&self, message: &str) -> String {
        let mut p = String::with_capacity(1200);
        p.push_str(
            "You are monitoring a heterogeneous test-bed cluster. Classify the given \
             syslog message into exactly one of the following categories:\n",
        );
        for &c in &Category::ALL {
            p.push_str("- ");
            p.push_str(c.label());
            p.push_str(": ");
            p.push_str(c.description());
            let words = &self.top_words[c.index()];
            if !words.is_empty() {
                p.push_str(" (commonly used words: ");
                p.push_str(&words.join(", "));
                p.push(')');
            }
            p.push('\n');
        }
        p.push_str("\nRespond with only the category name, nothing else.\n\nExample:\nMessage: \"");
        p.push_str(&self.example.0);
        p.push_str("\"\nCategory: ");
        p.push_str(self.example.1.label());
        p.push_str("\n\nMessage: \"");
        p.push_str(message);
        p.push_str("\"\nCategory:");
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::count_tokens;

    #[test]
    fn prompt_contains_all_recipe_elements() {
        let builder = PromptBuilder::new().with_top_words(vec![
            vec!["timestamp".into(), "sync".into()],
            vec!["root".into(), "session".into()],
            vec![],
            vec![],
            vec![],
            vec!["temperature".into(), "throttled".into()],
            vec![],
            vec![],
        ]);
        let p = builder.build("Warning: Socket 2 - CPU 23 throttling");
        // Introduction
        assert!(p.contains("Classify the given syslog message"));
        // Category list: every label present.
        for &c in &Category::ALL {
            assert!(p.contains(c.label()), "missing {}", c.label());
        }
        // TF-IDF hints where provided.
        assert!(p.contains("commonly used words: temperature, throttled"));
        // Output-format instruction.
        assert!(p.contains("only the category name"));
        // One-shot example.
        assert!(p.contains("Example:"));
        assert!(p.contains("Thermal Issue"));
        // The message itself, last.
        assert!(p.trim_end().ends_with("Category:"));
        assert!(p.contains("CPU 23 throttling"));
    }

    #[test]
    fn token_count_close_to_calibration_shape() {
        let words = |ws: &[&str]| ws.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let builder = PromptBuilder::new().with_top_words(vec![
            words(&["timestamp", "sync", "clock", "system", "event"]),
            words(&["root", "session", "user", "started", "boot"]),
            words(&["size", "real_memory", "low", "cn", "node"]),
            words(&["closed", "preauth", "connection", "port", "user"]),
            words(&["version", "update", "slurm", "please", "node"]),
            words(&["processor", "throttled", "sensor", "cpu", "temperature"]),
            words(&["usb", "device", "hub", "number", "new"]),
            words(&[
                "error",
                "lpi_hbm_nn",
                "job_argument",
                "slurm_rpc_node_registration",
            ]),
        ]);
        let tokens = count_tokens(&builder.build("Warning: Socket 2 - CPU 23 throttling at 95C"));
        // The latency presets calibrate against ~420 prompt tokens.
        assert!(
            (300..=550).contains(&tokens),
            "prompt token count {tokens} out of expected envelope"
        );
    }
}
