//! The noise pre-filter recommended in the paper's Conclusion: blacklist
//! known-Unimportant message shapes with a *tight* edit-distance match, so
//! the general classifier only sees messages that are either interesting or
//! genuinely new.

use crate::taxonomy::Category;
use editdist::Blacklist;
use serde::{Deserialize, Serialize};

/// Statistics from a filtering pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Messages passed through to classification.
    pub kept: usize,
    /// Messages dropped as known noise.
    pub filtered: usize,
}

/// Edit-distance blacklist built from Unimportant-labeled training data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseFilter {
    blacklist: Blacklist,
}

impl NoiseFilter {
    /// Build from a labeled corpus, registering every Unimportant message
    /// as a blacklist pattern (the bucket store dedupes near-identical
    /// patterns internally).
    pub fn train(threshold: usize, corpus: &[(String, Category)]) -> NoiseFilter {
        let patterns: Vec<&str> = corpus
            .iter()
            .filter(|(_, c)| *c == Category::Unimportant)
            .map(|(m, _)| m.as_str())
            .collect();
        NoiseFilter {
            blacklist: Blacklist::from_messages(threshold, &patterns),
        }
    }

    /// An empty filter (keeps everything).
    pub fn empty(threshold: usize) -> NoiseFilter {
        NoiseFilter {
            blacklist: Blacklist::new(threshold),
        }
    }

    /// Should this message be dropped before classification?
    pub fn is_noise(&self, message: &str) -> bool {
        self.blacklist.is_blacklisted(message)
    }

    /// Number of distinct patterns.
    pub fn n_patterns(&self) -> usize {
        self.blacklist.len()
    }

    /// Split a message stream; returns kept messages and stats.
    pub fn filter<'a>(&self, messages: &[&'a str]) -> (Vec<&'a str>, FilterStats) {
        let (kept, filtered) = self.blacklist.partition(messages);
        let stats = FilterStats {
            kept: kept.len(),
            filtered: filtered.len(),
        };
        (kept, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<(String, Category)> {
        vec![
            (
                "Started Session 12 of user root".to_string(),
                Category::Unimportant,
            ),
            ("rsyslogd was HUPed".to_string(), Category::Unimportant),
            (
                "cpu temperature above threshold".to_string(),
                Category::ThermalIssue,
            ),
        ]
    }

    #[test]
    fn trains_only_on_unimportant() {
        let f = NoiseFilter::train(3, &corpus());
        assert_eq!(f.n_patterns(), 2);
        assert!(f.is_noise("Started Session 99 of user root"));
        assert!(!f.is_noise("cpu temperature above threshold"));
    }

    #[test]
    fn filter_splits_and_counts() {
        let f = NoiseFilter::train(3, &corpus());
        let msgs = [
            "Started Session 3 of user root",
            "memory error on DIMM 4",
            "rsyslogd was HUPed",
        ];
        let (kept, stats) = f.filter(&msgs);
        assert_eq!(
            stats,
            FilterStats {
                kept: 1,
                filtered: 2
            }
        );
        assert_eq!(kept, vec!["memory error on DIMM 4"]);
    }
}
