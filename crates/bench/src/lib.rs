//! Shared harness for the evaluation binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md §3 for the index). This library holds the
//! pieces they share: corpus construction, a tiny argument parser, table
//! rendering, and JSON result emission for EXPERIMENTS.md provenance.

use datagen::{generate_corpus, CorpusConfig};
use hetsyslog_core::Category;
use std::fmt::Write as _;

pub mod experiments;
pub mod runner;

/// Common command-line options for experiment binaries.
///
/// Recognized flags: `--scale <f64>`, `--seed <u64>`, `--json <path>`,
/// plus free-form boolean flags collected verbatim.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Corpus scale relative to the paper's 196k messages.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Where to write machine-readable results (None = stdout only).
    pub json_path: Option<String>,
    /// Remaining boolean flags (`--drop-unimportant`, …).
    pub flags: Vec<String>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 0.05,
            seed: 42,
            json_path: None,
            flags: Vec::new(),
        }
    }
}

impl ExpArgs {
    /// Parse from `std::env::args`, panicking with a usage hint on
    /// malformed values.
    pub fn parse() -> ExpArgs {
        let mut out = ExpArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    out.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale requires a float");
                }
                "--seed" => {
                    out.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed requires an integer");
                }
                "--json" => {
                    out.json_path = Some(args.next().expect("--json requires a path"));
                }
                other => out.flags.push(other.to_string()),
            }
        }
        out
    }

    /// Is a boolean flag present?
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Corpus configuration at the requested scale.
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            scale: self.scale,
            seed: self.seed,
            min_per_class: 12,
        }
    }

    /// Generate the labeled corpus as `(text, category)` pairs.
    pub fn corpus(&self) -> Vec<(String, Category)> {
        datagen::corpus::as_pairs(&generate_corpus(&self.corpus_config()))
    }
}

/// Render an ASCII table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let render_row = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate().take(n_cols) {
            let _ = write!(out, "| {cell:<width$} ", width = widths[i]);
        }
        out.push_str("|\n");
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let _ = writeln!(out, "+{sep}+");
    render_row(&header_cells, &mut out);
    let _ = writeln!(out, "+{sep}+");
    for row in rows {
        render_row(row, &mut out);
    }
    let _ = writeln!(out, "+{sep}+");
    out
}

/// Write experiment results as canonical JSON (recursively sorted keys,
/// trailing newline) to `path`, creating parents. Canonical form keeps
/// the committed goldens diffable and lets the conformance runner compare
/// serializations byte for byte.
pub fn write_json(path: &str, value: &serde_json::Value) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, hetsyslog_core::to_canonical_json(value))
        .unwrap_or_else(|e| panic!("failed writing {path}: {e}"));
    println!("(results written to {path})");
}

/// Format seconds compactly (µs/ms/s).
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["model", "f1"],
            &[
                vec!["kNN".to_string(), "0.998".to_string()],
                vec!["Random Forest".to_string(), "0.9995".to_string()],
            ],
        );
        assert!(t.contains("| model"));
        assert!(t.contains("| Random Forest | 0.9995 |"));
        // All lines same width.
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn fmt_seconds_ranges() {
        assert!(fmt_seconds(0.0000005).ends_with("µs"));
        assert!(fmt_seconds(0.005).ends_with("ms"));
        assert!(fmt_seconds(2.5).ends_with('s'));
    }

    #[test]
    fn default_args() {
        let a = ExpArgs::default();
        assert_eq!(a.scale, 0.05);
        assert!(!a.has_flag("--drop-unimportant"));
    }
}
