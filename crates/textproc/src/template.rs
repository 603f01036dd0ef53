//! LogShrink-style template mining (ROADMAP item 2).
//!
//! A syslog stream is overwhelmingly a few hundred *templates* — constant
//! word skeletons — instantiated with per-message variables (node ids,
//! temperatures, PIDs). The miner recovers those skeletons from a batch of
//! raw messages with the classic recipe: bucket messages by word count,
//! similarity-cluster within a bucket (≥ [`TemplateMiner::DEFAULT_THRESHOLD`]
//! of positions must match the cluster representative), and mark every
//! position the cluster members disagree on as a variable slot, rendered
//! [`VAR`] in the pattern string.
//!
//! Everything here is **lossless**: a message is split with
//! [`split_words`] (single-space separation, preserving empty words so
//! runs of spaces survive), and [`Template::reconstruct`] re-joins the
//! constant words with a message's extracted variables into the original
//! byte-identical string. Tabs, punctuation, and unicode stay inside
//! words untouched — this is a storage codec first, a feature extractor
//! second, so it must never normalize.
//!
//! Mining is two-phase per batch (per sealed segment in the columnar
//! store): [`TemplateMiner::observe`] assigns every message a stable
//! cluster id while narrowing each cluster's constant mask, then
//! [`TemplateMiner::finalize`] freezes the masks into [`Template`]s.
//! Cluster ids never merge or renumber, so ids recorded during the
//! observe pass stay valid for the encode pass.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The variable marker used in rendered template patterns.
pub const VAR: &str = "<*>";

/// Split a message into words on single spaces, losslessly: empty words
/// are kept, so `join(" ")` over the result is byte-identical to the
/// input (runs of spaces become runs of empty words).
pub fn split_words(message: &str) -> Vec<&str> {
    message.split(' ').collect()
}

/// One position of a mined template.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TemplateToken {
    /// This position holds the same word in every member message.
    Const(String),
    /// This position varies; the word lives in the member's variable list.
    Var,
}

/// A frozen template: the constant skeleton of one message cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    tokens: Vec<TemplateToken>,
}

impl Template {
    /// The token positions.
    pub fn tokens(&self) -> &[TemplateToken] {
        &self.tokens
    }

    /// Number of word positions.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Templates always have at least one position ([`split_words`] never
    /// returns an empty vector), so this is always false; provided for
    /// clippy-idiomatic completeness.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Number of variable slots.
    pub fn n_vars(&self) -> usize {
        self.tokens
            .iter()
            .filter(|t| matches!(t, TemplateToken::Var))
            .count()
    }

    /// The human-readable pattern, variables rendered as [`VAR`]:
    /// `"temperature <*> on node <*> above threshold"`. Display/grouping
    /// key only — [`VAR`] can collide with a literal `<*>` word, which is
    /// why reconstruction never parses this string.
    pub fn pattern(&self) -> String {
        let words: Vec<&str> = self
            .tokens
            .iter()
            .map(|t| match t {
                TemplateToken::Const(w) => w.as_str(),
                TemplateToken::Var => VAR,
            })
            .collect();
        words.join(" ")
    }

    /// Extract the variable words of `message` under this template, in
    /// slot order. Returns `None` when the message does not fit (wrong
    /// word count, or a constant position disagrees).
    pub fn extract_vars<'m>(&self, message: &'m str) -> Option<Vec<&'m str>> {
        let words = split_words(message);
        if words.len() != self.tokens.len() {
            return None;
        }
        let mut vars = Vec::with_capacity(self.n_vars());
        for (word, token) in words.iter().zip(&self.tokens) {
            match token {
                TemplateToken::Const(c) if c == word => {}
                TemplateToken::Const(_) => return None,
                TemplateToken::Var => vars.push(*word),
            }
        }
        Some(vars)
    }

    /// Rebuild the original message from extracted variables — the exact
    /// inverse of [`Template::extract_vars`], byte-identical.
    pub fn reconstruct<S: AsRef<str>>(&self, vars: &[S]) -> String {
        let mut vars = vars.iter();
        let words: Vec<&str> = self
            .tokens
            .iter()
            .map(|t| match t {
                TemplateToken::Const(w) => w.as_str(),
                TemplateToken::Var => vars.next().map(AsRef::as_ref).unwrap_or(""),
            })
            .collect();
        words.join(" ")
    }
}

/// One growing cluster: the first member's words plus the mask of
/// positions every member so far agrees on.
#[derive(Debug)]
struct Cluster {
    rep: Vec<String>,
    constant: Vec<bool>,
    members: u64,
}

impl Cluster {
    fn similarity(&self, words: &[&str]) -> f64 {
        debug_assert_eq!(words.len(), self.rep.len());
        let matching = self
            .rep
            .iter()
            .zip(words)
            .filter(|(r, w)| r.as_str() == **w)
            .count();
        matching as f64 / self.rep.len() as f64
    }

    fn absorb(&mut self, words: &[&str]) {
        for (i, word) in words.iter().enumerate() {
            if self.constant[i] && self.rep[i] != *word {
                self.constant[i] = false;
            }
        }
        self.members += 1;
    }
}

/// The two-phase batch miner. See the module docs for the protocol.
#[derive(Debug)]
pub struct TemplateMiner {
    threshold: f64,
    clusters: Vec<Cluster>,
    /// word count → cluster indices, in creation order (deterministic:
    /// the first sufficiently similar cluster wins).
    buckets: HashMap<usize, Vec<u32>>,
}

impl Default for TemplateMiner {
    fn default() -> TemplateMiner {
        TemplateMiner::new()
    }
}

impl TemplateMiner {
    /// The LogShrink similarity threshold: at least half the positions
    /// must match the cluster representative to join it.
    pub const DEFAULT_THRESHOLD: f64 = 0.5;

    /// A miner with the default threshold.
    pub fn new() -> TemplateMiner {
        TemplateMiner::with_threshold(Self::DEFAULT_THRESHOLD)
    }

    /// A miner with a custom similarity threshold in `(0, 1]`.
    pub fn with_threshold(threshold: f64) -> TemplateMiner {
        TemplateMiner {
            threshold: threshold.clamp(f64::MIN_POSITIVE, 1.0),
            clusters: Vec::new(),
            buckets: HashMap::new(),
        }
    }

    /// Assign `message` to a cluster (creating one if no same-word-count
    /// cluster is ≥ threshold similar), narrowing that cluster's constant
    /// mask. Returns the stable cluster id.
    pub fn observe(&mut self, message: &str) -> u32 {
        let words = split_words(message);
        let bucket = self.buckets.entry(words.len()).or_default();
        for &id in bucket.iter() {
            let cluster = &mut self.clusters[id as usize];
            if cluster.similarity(&words) >= self.threshold {
                cluster.absorb(&words);
                return id;
            }
        }
        let id = self.clusters.len() as u32;
        bucket.push(id);
        self.clusters.push(Cluster {
            rep: words.iter().map(|w| w.to_string()).collect(),
            constant: vec![true; words.len()],
            members: 1,
        });
        id
    }

    /// Freeze every cluster into a [`Template`], indexed by the cluster
    /// ids [`TemplateMiner::observe`] returned.
    pub fn finalize(self) -> Vec<Template> {
        self.clusters
            .into_iter()
            .map(|c| Template {
                tokens: c
                    .rep
                    .into_iter()
                    .zip(c.constant)
                    .map(|(word, constant)| {
                        if constant {
                            TemplateToken::Const(word)
                        } else {
                            TemplateToken::Var
                        }
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Mine a batch in one call: returns the frozen templates plus, per
/// message, its `(template_id, variables)` encoding. The encoding is
/// lossless: `templates[id].reconstruct(&vars)` is byte-identical to the
/// input message.
pub fn mine<S: AsRef<str>>(
    messages: &[S],
    threshold: f64,
) -> (Vec<Template>, Vec<(u32, Vec<String>)>) {
    let mut miner = TemplateMiner::with_threshold(threshold);
    let ids: Vec<u32> = messages.iter().map(|m| miner.observe(m.as_ref())).collect();
    let templates = miner.finalize();
    let rows = messages
        .iter()
        .zip(ids)
        .map(|(m, id)| {
            let vars = templates[id as usize]
                .extract_vars(m.as_ref())
                .expect("observed message fits its own cluster's template")
                .into_iter()
                .map(str::to_string)
                .collect();
            (id, vars)
        })
        .collect();
    (templates, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_words_is_lossless() {
        for msg in ["", " ", "a b", "a  b", " leading", "trailing ", "a\tb c"] {
            assert_eq!(split_words(msg).join(" "), msg);
        }
    }

    #[test]
    fn mines_variable_positions() {
        let msgs = [
            "temperature 91C on node cn01",
            "temperature 88C on node cn02",
            "temperature 95C on node cn17",
        ];
        let (templates, rows) = mine(&msgs, 0.5);
        assert_eq!(templates.len(), 1);
        assert_eq!(templates[0].pattern(), "temperature <*> on node <*>");
        assert_eq!(templates[0].n_vars(), 2);
        assert_eq!(rows[1].1, vec!["88C", "cn02"]);
    }

    #[test]
    fn dissimilar_messages_stay_apart() {
        let msgs = ["usb device 3 attached", "kernel oops at 0xfff"];
        let (templates, _) = mine(&msgs, 0.5);
        assert_eq!(templates.len(), 2);
    }

    #[test]
    fn word_count_buckets_never_mix() {
        let msgs = ["a b c", "a b c d"];
        let (templates, _) = mine(&msgs, 0.1);
        assert_eq!(templates.len(), 2);
    }

    #[test]
    fn reconstruction_is_byte_identical() {
        let msgs = [
            "temperature 91C on node cn01",
            "temperature 88C on node cn02",
            "weird  double space 1",
            "weird  double space 2",
            " leading and trailing ",
            "",
            "<*> literal marker 9",
            "<*> literal marker 10",
        ];
        let (templates, rows) = mine(&msgs, 0.5);
        for (msg, (id, vars)) in msgs.iter().zip(&rows) {
            assert_eq!(
                &templates[*id as usize].reconstruct(vars),
                msg,
                "round trip failed"
            );
        }
    }

    #[test]
    fn threshold_controls_merging() {
        let msgs = ["a x y z", "a p q r"];
        // 1/4 positions match: merged only under a permissive threshold.
        let (strict, _) = mine(&msgs, 0.5);
        assert_eq!(strict.len(), 2);
        let (loose, _) = mine(&msgs, 0.25);
        assert_eq!(loose.len(), 1);
        assert_eq!(loose[0].pattern(), "a <*> <*> <*>");
    }

    #[test]
    fn cluster_ids_are_stable_across_observe_order() {
        let mut miner = TemplateMiner::new();
        let a = miner.observe("alpha beta 1");
        let b = miner.observe("gamma delta epsilon zeta eta theta");
        let a2 = miner.observe("alpha beta 2");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let templates = miner.finalize();
        assert_eq!(templates[a as usize].pattern(), "alpha beta <*>");
    }

    #[test]
    fn extract_vars_rejects_misfits() {
        let (templates, _) = mine(&["a b 1", "a b 2"], 0.5);
        let t = &templates[0];
        assert_eq!(t.extract_vars("a b 3"), Some(vec!["3"]));
        assert_eq!(t.extract_vars("a c 3"), None, "constant mismatch");
        assert_eq!(t.extract_vars("a b"), None, "wrong word count");
    }
}
