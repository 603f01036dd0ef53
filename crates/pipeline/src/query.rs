//! Structured queries over the store (the Grafana-panel query shapes).

use crate::record::LogRecord;
use crate::store::LogStore;
use hetsyslog_core::Category;
use serde::{Deserialize, Serialize};
use syslog_model::Severity;

/// A boolean AND query with metadata filters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Tokens that must all appear in the message (or node/app fields).
    pub terms: Vec<String>,
    /// Time range `[from, to)`, Unix seconds.
    pub from: i64,
    /// End of range (exclusive).
    pub to: i64,
    /// Restrict to one node.
    pub node: Option<String>,
    /// Restrict to one application tag.
    pub app: Option<String>,
    /// Restrict to one classified category.
    pub category: Option<Category>,
    /// Keep only records at least this severe (numerically ≤).
    pub max_severity: Option<Severity>,
    /// Result cap (0 = unlimited).
    pub limit: usize,
}

impl Query {
    /// A match-all query over a time range.
    pub fn range(from: i64, to: i64) -> Query {
        Query {
            from,
            to,
            ..Query::default()
        }
    }

    /// Add a required term.
    pub fn term(mut self, t: impl Into<String>) -> Query {
        self.terms.push(t.into());
        self
    }

    /// Filter by category.
    pub fn in_category(mut self, c: Category) -> Query {
        self.category = Some(c);
        self
    }

    /// Cap results.
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = n;
        self
    }

    fn accepts(&self, r: &LogRecord) -> bool {
        if let Some(n) = &self.node {
            if &r.node != n {
                return false;
            }
        }
        if let Some(a) = &self.app {
            if &r.app != a {
                return false;
            }
        }
        if let Some(c) = self.category {
            if r.category != Some(c) {
                return false;
            }
        }
        if let Some(s) = self.max_severity {
            if r.severity > s {
                return false;
            }
        }
        true
    }

    /// Execute against a store.
    pub fn execute(&self, store: &LogStore) -> Vec<LogRecord> {
        let mut out = Vec::new();
        let cap = if self.limit == 0 {
            usize::MAX
        } else {
            self.limit
        };
        store.scan(self.from, self.to, &self.terms, |r| {
            if out.len() < cap && self.accepts(r) {
                out.push(r.clone());
            }
        });
        out
    }

    /// Count matches without materializing them.
    pub fn count(&self, store: &LogStore) -> usize {
        let mut n = 0usize;
        store.scan(self.from, self.to, &self.terms, |r| {
            if self.accepts(r) {
                n += 1;
            }
        });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syslog_model::Facility;

    fn store_with_data() -> LogStore {
        let store = LogStore::new();
        let mk = |id: u64, t: i64, node: &str, sev: Severity, msg: &str, cat: Option<Category>| {
            LogRecord {
                id,
                unix_seconds: t,
                node: node.to_string(),
                app: "kernel".to_string(),
                severity: sev,
                facility: Facility::Kern,
                message: msg.to_string(),
                category: cat,
            }
        };
        store.insert(mk(
            0,
            10,
            "cn01",
            Severity::Warning,
            "cpu temperature high",
            Some(Category::ThermalIssue),
        ));
        store.insert(mk(
            1,
            20,
            "cn02",
            Severity::Informational,
            "usb device new",
            Some(Category::UsbDevice),
        ));
        store.insert(mk(
            2,
            30,
            "cn01",
            Severity::Error,
            "cpu throttled",
            Some(Category::ThermalIssue),
        ));
        store.insert(mk(
            3,
            40,
            "cn03",
            Severity::Debug,
            "heartbeat ok",
            Some(Category::Unimportant),
        ));
        store
    }

    #[test]
    fn term_and_node_filters() {
        let store = store_with_data();
        let hits = Query::range(0, 100).term("cpu").execute(&store);
        assert_eq!(hits.len(), 2);
        let hits = Query {
            node: Some("cn01".into()),
            ..Query::range(0, 100).term("cpu")
        }
        .execute(&store);
        assert_eq!(hits.len(), 2);
        let hits = Query {
            node: Some("cn02".into()),
            ..Query::range(0, 100)
        }
        .execute(&store);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn category_and_severity_filters() {
        let store = store_with_data();
        let hits = Query::range(0, 100)
            .in_category(Category::ThermalIssue)
            .execute(&store);
        assert_eq!(hits.len(), 2);
        // Warning keeps warning/error/critical/alert/emergency.
        let hits = Query {
            max_severity: Some(Severity::Warning),
            ..Query::range(0, 100)
        }
        .execute(&store);
        assert_eq!(hits.len(), 2, "warning and error only");
    }

    #[test]
    fn app_filter() {
        let store = store_with_data();
        let app = |name: &str| Query {
            app: Some(name.into()),
            ..Query::range(0, 100)
        };
        assert_eq!(app("kernel").count(&store), 4);
        assert_eq!(app("sshd").count(&store), 0);
    }

    #[test]
    fn limit_and_count() {
        let store = store_with_data();
        let q = Query::range(0, 100);
        assert_eq!(q.count(&store), 4);
        assert_eq!(q.clone().limit(2).execute(&store).len(), 2);
    }

    #[test]
    fn empty_range() {
        let store = store_with_data();
        assert_eq!(Query::range(50, 60).count(&store), 0);
    }
}
