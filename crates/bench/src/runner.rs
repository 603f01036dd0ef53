//! The conformance runner behind the `repro` binary.
//!
//! Executes every DESIGN.md §3 experiment at a named scale, serializes the
//! results canonically (sorted keys, stable float formatting), and diffs
//! them against the committed goldens in `results/` under a per-field
//! tolerance spec:
//!
//! * **Exact** (the default) — counts, labels, vocabulary signatures,
//!   class names, agreement booleans must match byte for byte.
//! * **RelTol(t)** — scores such as F1 / accuracy and virtual-clock
//!   latencies may drift by a small relative amount: the check is
//!   `|actual - golden| <= t * max(|golden|, 1)`.
//! * **Ignore** — wall-clock measurements (`train_seconds`, throughput
//!   rates, listener timings) vary run to run and are never compared.
//!
//! The spec lives in [`rules_for`]; `results/README.md` documents it next
//! to the goldens themselves.

use crate::experiments::{self, ExperimentOutput};
use crate::ExpArgs;
use hetsyslog_core::{canonicalize_json, to_canonical_json};
use serde_json::Value;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

// ----------------------------------------------------------------- scales

/// A named conformance scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI scale: 1% of the paper corpus, goldens in `results/ci/`.
    Ci,
    /// Paper scale: the repo's standard 5%, goldens in `results/`.
    Paper,
}

impl Scale {
    /// Parse `ci` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "ci" => Some(Scale::Ci),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The corpus scale factor this name maps to.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Ci => 0.01,
            Scale::Paper => 0.05,
        }
    }

    /// Golden subdirectory under the results root ("" = the root itself).
    pub fn subdir(self) -> &'static str {
        match self {
            Scale::Ci => "ci",
            Scale::Paper => "",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        }
    }
}

// ------------------------------------------------------- experiment index

/// One DESIGN.md §3 experiment: index code, golden file stem, title.
pub struct Experiment {
    /// The §3 index code (T1, F3b, …).
    pub code: &'static str,
    /// Golden file stem under `results/` (`<stem>.json` / `<stem>.txt`).
    pub stem: &'static str,
    /// Human-readable title.
    pub title: &'static str,
}

/// Every experiment the runner knows, in DESIGN.md §3 order.
pub const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        code: "T1",
        stem: "table1_tfidf_tokens",
        title: "Table 1: top TF-IDF tokens per category",
    },
    Experiment {
        code: "T2",
        stem: "table2_dataset",
        title: "Table 2: dataset composition + bucket economy",
    },
    Experiment {
        code: "F2",
        stem: "fig2_confusion",
        title: "Figure 2: Linear SVC confusion matrix",
    },
    Experiment {
        code: "F3",
        stem: "fig3",
        title: "Figure 3: eight traditional classifiers",
    },
    Experiment {
        code: "F3b",
        stem: "fig3_drop",
        title: "Figure 3 ablation: drop Unimportant",
    },
    Experiment {
        code: "T3",
        stem: "table3_llm",
        title: "Table 3: LLM inference cost",
    },
    Experiment {
        code: "X1",
        stem: "xp_drift",
        title: "X1: firmware drift vs classifiers",
    },
    Experiment {
        code: "X2",
        stem: "xp_throughput",
        title: "X2: end-to-end ingest throughput",
    },
    Experiment {
        code: "X3",
        stem: "xp_online",
        title: "X3: online adaptation to drift",
    },
    Experiment {
        code: "XA",
        stem: "xp_ablation",
        title: "XA: preprocessing / filter / oversampling ablations",
    },
];

/// Find an experiment by index code or golden stem (codes are matched
/// case-insensitively).
pub fn find_experiment(key: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.stem == key || e.code.eq_ignore_ascii_case(key))
}

/// Run one experiment by stem. `None` for an unknown stem.
pub fn run_experiment(stem: &str, args: &ExpArgs) -> Option<ExperimentOutput> {
    Some(match stem {
        "table1_tfidf_tokens" => experiments::table1(args),
        "table2_dataset" => experiments::table2(args),
        "fig2_confusion" => experiments::fig2(args),
        "fig3" => experiments::fig3(args, false),
        "fig3_drop" => experiments::fig3(args, true),
        "table3_llm" => experiments::table3(args),
        "xp_drift" => experiments::xp_drift(args),
        "xp_throughput" => experiments::xp_throughput(args),
        "xp_online" => experiments::xp_online(args),
        "xp_ablation" => experiments::xp_ablation(args),
        _ => return None,
    })
}

// ----------------------------------------------------------- tolerance spec

/// How one field is compared against its golden value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Byte-for-byte equality (the default for every field without a rule).
    Exact,
    /// `|actual - golden| <= t * max(|golden|, 1)`.
    RelTol(f64),
    /// Never compared (wall-clock measurements).
    Ignore,
}

/// One tolerance rule: a dotted path pattern plus the policy it selects.
///
/// Pattern syntax, matched against the full dotted field path:
/// * `name` matches a field named `name`;
/// * `name[*]` matches any index of array `name` (`name[3]` an exact one);
/// * `*` matches any single path segment;
/// * `**` matches any run of segments (including none).
///
/// First matching rule wins; no match means [`Policy::Exact`].
pub struct FieldRule {
    /// Dotted path pattern.
    pub pattern: &'static str,
    /// Policy applied to matching fields.
    pub policy: Policy,
}

/// Relative tolerance for scores (F1, accuracy) and virtual-clock
/// latencies. Deterministic arithmetic reproduces these exactly on one
/// platform; the slack absorbs cross-platform libm differences only.
pub const SCORE_REL_TOL: f64 = 1e-6;

/// The tolerance rules for one experiment: wall-clock fields are ignored,
/// scores and modeled latencies get [`SCORE_REL_TOL`], everything else —
/// counts, class names, vocabulary signatures — is exact.
pub fn rules_for(stem: &str) -> Vec<FieldRule> {
    let mut rules = vec![
        // Wall-clock: never comparable between runs.
        FieldRule {
            pattern: "**.train_seconds",
            policy: Policy::Ignore,
        },
        FieldRule {
            pattern: "**.test_seconds",
            policy: Policy::Ignore,
        },
        FieldRule {
            pattern: "**.preprocess_seconds",
            policy: Policy::Ignore,
        },
    ];
    match stem {
        "fig3" | "fig3_drop" => {
            // Throughput is derived from wall-clock test_seconds.
            rules.push(FieldRule {
                pattern: "rows[*].messages_per_hour",
                policy: Policy::Ignore,
            });
        }
        "table3_llm" => {
            // Virtual-clock latencies: deterministic, but still latencies.
            rules.push(FieldRule {
                pattern: "rows[*].inference_seconds",
                policy: Policy::RelTol(SCORE_REL_TOL),
            });
            rules.push(FieldRule {
                pattern: "rows[*].messages_per_hour",
                policy: Policy::RelTol(SCORE_REL_TOL),
            });
            rules.push(FieldRule {
                pattern: "max_new_tokens_ablation.*",
                policy: Policy::RelTol(SCORE_REL_TOL),
            });
        }
        "xp_throughput" => {
            // Everything measured in real time on this run's machine.
            for pattern in [
                "rows[*].seconds",
                "rows[*].messages_per_hour",
                "batch_vs_scalar.classifiers[*].scalar_msgs_per_sec",
                "batch_vs_scalar.classifiers[*].batch_msgs_per_sec",
                "batch_vs_scalar.classifiers[*].speedup",
                "listener.seconds",
                "listener.msgs_per_sec",
            ] {
                rules.push(FieldRule {
                    pattern,
                    policy: Policy::Ignore,
                });
            }
        }
        "xp_ablation" => {
            // The out-of-sample pre-filter cost is wall-clock time.
            rules.push(FieldRule {
                pattern: "prefilter.*.us_per_msg",
                policy: Policy::Ignore,
            });
        }
        _ => {}
    }
    // Scores: relative tolerance everywhere they appear.
    for pattern in [
        "**.weighted_f1",
        "**.weighted_f1_drifted",
        "**.macro_f1",
        "**.accuracy",
        "**.accuracy_before",
        "**.accuracy_after",
        "**.accuracy_clean",
        "**.orphan_rate",
        "**.oov_clean",
        "**.oov_drifted",
        "**.messages_per_exemplar",
        "**.score",
        "**.slurm_recall_plain",
        "**.slurm_recall_oversampled",
        "**.slurm_recall_smote",
        "**.slurm_recall_adasyn",
    ] {
        rules.push(FieldRule {
            pattern,
            policy: Policy::RelTol(SCORE_REL_TOL),
        });
    }
    rules
}

fn seg_matches(pat: &str, seg: &str) -> bool {
    if pat == "*" {
        return true;
    }
    if let Some(base) = pat.strip_suffix("[*]") {
        if let Some(idx) = seg.rfind('[') {
            return &seg[..idx] == base && seg.ends_with(']');
        }
        return false;
    }
    pat == seg
}

/// Does `pattern` match the dotted `path` (as segments)?
fn path_matches(pattern: &str, path: &[String]) -> bool {
    fn rec(pats: &[&str], segs: &[String]) -> bool {
        match pats.first() {
            None => segs.is_empty(),
            Some(&"**") => (0..=segs.len()).any(|k| rec(&pats[1..], &segs[k..])),
            Some(p) => !segs.is_empty() && seg_matches(p, &segs[0]) && rec(&pats[1..], &segs[1..]),
        }
    }
    let pats: Vec<&str> = pattern.split('.').collect();
    rec(&pats, path)
}

/// The policy for a field path under `rules` (first match wins).
pub fn policy_for(rules: &[FieldRule], path: &[String]) -> Policy {
    rules
        .iter()
        .find(|r| path_matches(r.pattern, path))
        .map(|r| r.policy)
        .unwrap_or(Policy::Exact)
}

// ------------------------------------------------------------- diff engine

/// One field that diverged from its golden value.
pub struct Drift {
    /// Dotted field path, prefixed with the experiment stem.
    pub path: String,
    /// The committed golden value (serialized).
    pub golden: String,
    /// The value this run produced (serialized).
    pub actual: String,
    /// Why it counts as drift (policy + magnitude).
    pub note: String,
}

fn fmt_leaf(v: &Value) -> String {
    let mut c = v.clone();
    canonicalize_json(&mut c);
    serde_json::to_string(&c).unwrap_or_else(|_| format!("{c:?}"))
}

fn dotted(path: &[String]) -> String {
    path.join(".")
}

#[allow(clippy::too_many_arguments)]
fn diff_rec(
    stem: &str,
    golden: &Value,
    actual: &Value,
    rules: &[FieldRule],
    path: &mut Vec<String>,
    out: &mut Vec<Drift>,
) {
    if policy_for(rules, path) == Policy::Ignore {
        return;
    }
    let mut push = |golden: String, actual: String, note: String| {
        out.push(Drift {
            path: format!("{stem}.{}", dotted(path)),
            golden,
            actual,
            note,
        });
    };
    match (golden, actual) {
        (Value::Object(g), Value::Object(a)) => {
            for (k, gv) in g {
                match a.iter().find(|(ak, _)| ak == k) {
                    Some((_, av)) => {
                        path.push(k.clone());
                        diff_rec(stem, gv, av, rules, path, out);
                        path.pop();
                    }
                    None => {
                        path.push(k.clone());
                        if policy_for(rules, path) != Policy::Ignore {
                            let p = format!("{stem}.{}", dotted(path));
                            out.push(Drift {
                                path: p,
                                golden: fmt_leaf(gv),
                                actual: "<missing>".to_string(),
                                note: "field present in golden, absent in this run".to_string(),
                            });
                        }
                        path.pop();
                    }
                }
            }
            for (k, av) in a {
                if !g.iter().any(|(gk, _)| gk == k) {
                    path.push(k.clone());
                    if policy_for(rules, path) != Policy::Ignore {
                        let p = format!("{stem}.{}", dotted(path));
                        out.push(Drift {
                            path: p,
                            golden: "<missing>".to_string(),
                            actual: fmt_leaf(av),
                            note: "field absent in golden, present in this run".to_string(),
                        });
                    }
                    path.pop();
                }
            }
        }
        (Value::Array(g), Value::Array(a)) => {
            if g.len() != a.len() {
                push(
                    format!("array of {}", g.len()),
                    format!("array of {}", a.len()),
                    "array length mismatch".to_string(),
                );
            }
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                let last = path.pop().unwrap_or_default();
                path.push(format!("{last}[{i}]"));
                diff_rec(stem, gv, av, rules, path, out);
                path.pop();
                path.push(last);
            }
        }
        (Value::Number(g), Value::Number(a)) => {
            let (gf, af) = (g.as_f64(), a.as_f64());
            match policy_for(rules, path) {
                Policy::RelTol(t) => {
                    let bound = t * gf.abs().max(1.0);
                    if (af - gf).abs() > bound {
                        push(
                            fmt_leaf(golden),
                            fmt_leaf(actual),
                            format!(
                                "rel_tol({t:e}) exceeded: |Δ| = {:e} > {bound:e}",
                                (af - gf).abs()
                            ),
                        );
                    }
                }
                _ => {
                    if golden != actual && gf.to_bits() != af.to_bits() {
                        push(
                            fmt_leaf(golden),
                            fmt_leaf(actual),
                            "exact-match field differs".to_string(),
                        );
                    }
                }
            }
        }
        _ => {
            if golden != actual {
                push(
                    fmt_leaf(golden),
                    fmt_leaf(actual),
                    if golden.describe() == actual.describe() {
                        "exact-match field differs".to_string()
                    } else {
                        format!(
                            "type changed: {} → {}",
                            golden.describe(),
                            actual.describe()
                        )
                    },
                );
            }
        }
    }
}

/// Diff an experiment's actual value against its golden under the
/// experiment's tolerance rules. Returned drift paths are prefixed with
/// the stem (`fig3.rows[2].weighted_f1`).
pub fn diff_against_golden(stem: &str, golden: &Value, actual: &Value) -> Vec<Drift> {
    let rules = rules_for(stem);
    let mut out = Vec::new();
    let mut path = Vec::new();
    diff_rec(stem, golden, actual, &rules, &mut path, &mut out);
    out
}

/// Strip every Ignore-policy (wall-clock) field from an experiment value,
/// leaving only the deterministic payload. The determinism tests compare
/// the canonical serialization of the redacted value byte for byte.
pub fn redact_volatile(stem: &str, value: &mut Value) {
    let rules = rules_for(stem);
    fn rec(rules: &[FieldRule], path: &mut Vec<String>, value: &mut Value) {
        match value {
            Value::Object(entries) => {
                entries.retain(|(k, _)| {
                    path.push(k.clone());
                    let keep = policy_for(rules, path) != Policy::Ignore;
                    path.pop();
                    keep
                });
                for (k, v) in entries.iter_mut() {
                    path.push(k.clone());
                    rec(rules, path, v);
                    path.pop();
                }
            }
            Value::Array(items) => {
                for (i, v) in items.iter_mut().enumerate() {
                    let last = path.pop().unwrap_or_default();
                    path.push(format!("{last}[{i}]"));
                    rec(rules, path, v);
                    path.pop();
                    path.push(last);
                }
            }
            _ => {}
        }
    }
    rec(&rules, &mut Vec::new(), value);
}

// ------------------------------------------------------------ golden files

/// The default goldens root: the committed `results/` directory of this
/// repository.
pub fn default_goldens_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Where `stem`'s golden JSON lives for `scale` under `root`.
pub fn golden_path(root: &Path, scale: Scale, stem: &str) -> PathBuf {
    root.join(scale.subdir()).join(format!("{stem}.json"))
}

/// Load and parse a golden file.
pub fn load_golden(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse golden {}: {e}", path.display()))
}

/// Write `out` as `stem`'s golden (canonical JSON + the text report).
pub fn write_golden(
    root: &Path,
    scale: Scale,
    stem: &str,
    out: &ExperimentOutput,
) -> std::io::Result<PathBuf> {
    let json_path = golden_path(root, scale, stem);
    if let Some(parent) = json_path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&json_path, to_canonical_json(&out.value))?;
    std::fs::write(json_path.with_extension("txt"), &out.report)?;
    Ok(json_path)
}

// ------------------------------------------------------------ drift report

/// Render the human-readable conformance report.
pub fn render_drift_report(
    scale: Scale,
    drifts: &[Drift],
    errors: &[String],
    differential_mismatches: &[String],
) -> String {
    let mut r = String::new();
    let _ = writeln!(
        r,
        "conformance ({} scale): {} drifted field(s), {} error(s), {} differential mismatch(es)",
        scale.name(),
        drifts.len(),
        errors.len(),
        differential_mismatches.len()
    );
    for d in drifts {
        let _ = writeln!(r, "\nDRIFT {}", d.path);
        let _ = writeln!(r, "  golden: {}", d.golden);
        let _ = writeln!(r, "  actual: {}", d.actual);
        let _ = writeln!(r, "  note:   {}", d.note);
    }
    for e in errors {
        let _ = writeln!(r, "\nERROR {e}");
    }
    for m in differential_mismatches {
        let _ = writeln!(r, "\nDIFFERENTIAL {m}");
    }
    if drifts.is_empty() && errors.is_empty() && differential_mismatches.is_empty() {
        let _ = writeln!(r, "all experiments conform to their goldens.");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segs(path: &str) -> Vec<String> {
        path.split('.').map(str::to_string).collect()
    }

    #[test]
    fn pattern_matching() {
        assert!(path_matches(
            "**.train_seconds",
            &segs("rows[3].train_seconds")
        ));
        assert!(path_matches("**.train_seconds", &segs("train_seconds")));
        assert!(!path_matches(
            "**.train_seconds",
            &segs("rows[3].test_seconds")
        ));
        assert!(path_matches(
            "rows[*].messages_per_hour",
            &segs("rows[0].messages_per_hour")
        ));
        assert!(!path_matches(
            "rows[*].messages_per_hour",
            &segs("other[0].messages_per_hour")
        ));
        assert!(path_matches(
            "max_new_tokens_ablation.*",
            &segs("max_new_tokens_ablation.capped_virtual_seconds")
        ));
        assert!(!path_matches(
            "max_new_tokens_ablation.*",
            &segs("max_new_tokens_ablation.a.b")
        ));
    }

    #[test]
    fn policy_lookup_first_match_wins() {
        let rules = rules_for("fig3");
        assert_eq!(
            policy_for(&rules, &segs("rows[2].train_seconds")),
            Policy::Ignore
        );
        assert_eq!(
            policy_for(&rules, &segs("rows[2].messages_per_hour")),
            Policy::Ignore
        );
        assert_eq!(
            policy_for(&rules, &segs("rows[2].weighted_f1")),
            Policy::RelTol(SCORE_REL_TOL)
        );
        assert_eq!(policy_for(&rules, &segs("n_train")), Policy::Exact);

        let rules = rules_for("xp_ablation");
        assert_eq!(
            policy_for(&rules, &segs("prefilter.drifted.us_per_msg")),
            Policy::Ignore
        );
        assert_eq!(
            policy_for(&rules, &segs("prefilter.drifted.actionable_dropped")),
            Policy::Exact
        );
    }

    #[test]
    fn diff_flags_exact_mismatch_with_named_path() {
        let golden = serde_json::json!({"n_train": 100, "n_test": 34});
        let actual = serde_json::json!({"n_train": 100, "n_test": 33});
        let drifts = diff_against_golden("fig3", &golden, &actual);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "fig3.n_test");
        assert_eq!(drifts[0].golden, "34");
        assert_eq!(drifts[0].actual, "33");
    }

    #[test]
    fn diff_respects_rel_tol_and_ignore() {
        let row_g = serde_json::json!({"weighted_f1": 0.98, "train_seconds": 1.0});
        let row_a = serde_json::json!({"weighted_f1": 0.98000000001, "train_seconds": 99.0});
        let golden = serde_json::json!({"rows": [row_g]});
        let actual = serde_json::json!({"rows": [row_a]});
        assert!(diff_against_golden("fig3", &golden, &actual).is_empty());

        let row_bad = serde_json::json!({"weighted_f1": 0.90, "train_seconds": 1.0});
        let actual_bad = serde_json::json!({"rows": [row_bad]});
        let drifts = diff_against_golden("fig3", &golden, &actual_bad);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "fig3.rows[0].weighted_f1");
        assert!(drifts[0].note.contains("rel_tol"));
    }

    #[test]
    fn diff_reports_missing_and_extra_fields() {
        let golden = serde_json::json!({"a": 1, "b": 2});
        let actual = serde_json::json!({"a": 1, "c": 3});
        let drifts = diff_against_golden("table2_dataset", &golden, &actual);
        let paths: Vec<&str> = drifts.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"table2_dataset.b"));
        assert!(paths.contains(&"table2_dataset.c"));
    }

    #[test]
    fn diff_reports_array_length_change() {
        let golden = serde_json::json!({"rows": [1, 2, 3]});
        let actual = serde_json::json!({"rows": [1, 2]});
        let drifts = diff_against_golden("xp_online", &golden, &actual);
        assert!(drifts.iter().any(|d| d.note.contains("length")));
    }

    #[test]
    fn redact_strips_wall_clock_only() {
        let row = serde_json::json!({"weighted_f1": 0.9, "train_seconds": 3.2, "model": "kNN"});
        let mut value = serde_json::json!({"rows": [row], "n_train": 7});
        redact_volatile("fig3", &mut value);
        let text = to_canonical_json(&value);
        assert!(!text.contains("train_seconds"));
        assert!(text.contains("weighted_f1"));
        assert!(text.contains("n_train"));
    }

    #[test]
    fn experiment_index_is_complete_and_unique() {
        assert_eq!(EXPERIMENTS.len(), 10);
        let mut stems: Vec<&str> = EXPERIMENTS.iter().map(|e| e.stem).collect();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(stems.len(), 10);
        assert!(find_experiment("F3b").is_some());
        assert!(find_experiment("fig3_drop").is_some());
        assert!(find_experiment("nope").is_none());
    }

    #[test]
    fn golden_paths_by_scale() {
        let root = Path::new("/tmp/results");
        assert_eq!(
            golden_path(root, Scale::Ci, "fig3"),
            Path::new("/tmp/results/ci/fig3.json")
        );
        assert_eq!(
            golden_path(root, Scale::Paper, "fig3"),
            Path::new("/tmp/results/fig3.json")
        );
        assert_eq!(Scale::parse("ci"), Some(Scale::Ci));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }
}
