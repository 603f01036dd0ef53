//! Per-decision explanations.
//!
//! A recurring theme of the paper is explainability: TF-IDF top tokens give
//! humans a window into *why* a category was chosen (§4.3.1), and the LLMs'
//! prose justifications are called out as their one genuinely attractive
//! property (§5.2). Every classifier adapter in this crate can attach an
//! [`Explanation`] to its prediction.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a message received its category.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Explanation {
    /// Tokens that contributed most to the decision, with weights,
    /// strongest first.
    pub top_tokens: Vec<(String, f64)>,
    /// Free-text rationale (LLM-style prose, or a template for the
    /// traditional models).
    pub rationale: String,
}

impl Explanation {
    /// Build from ranked tokens plus a rationale.
    pub fn new(top_tokens: Vec<(String, f64)>, rationale: impl Into<String>) -> Explanation {
        Explanation {
            top_tokens,
            rationale: rationale.into(),
        }
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.top_tokens.is_empty() {
            write!(f, "[")?;
            for (i, (t, w)) in self.top_tokens.iter().take(5).enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}:{w:.3}")?;
            }
            write!(f, "] ")?;
        }
        f.write_str(&self.rationale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_tokens_and_text() {
        let e = Explanation::new(vec![("usb".into(), 1.0)], "usb event");
        let s = e.to_string();
        assert!(s.contains("usb:1.000"));
        assert!(s.ends_with("usb event"));
    }

    #[test]
    fn empty_explanation() {
        let e = Explanation::default();
        assert_eq!(e.to_string(), "");
    }
}
