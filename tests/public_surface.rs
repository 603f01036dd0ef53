//! Every `pub fn` in the workspace's crates has a caller that is not a test.
//!
//! rustc's `dead_code` lint skips `pub` items, and so does clippy, so a
//! public function that only tests call can stay in the tree unseen. This
//! test walks `crates/*/src`, drops comments and every `#[cfg(test)]` item,
//! and fails on a `pub fn` whose name occurs, as a whole word, nowhere in
//! non-test source except at `fn` definitions, `mod` names and in `use`
//! items (a re-export is not a caller). Non-test source is
//! `crates/*/src` (binaries included), the root package's `src/`,
//! `examples/` and the benchmark's `benchmark/src`. `shims/` is not walked:
//! those crates mirror the API of the upstream crates they stand in for.
//!
//! Matching is by name, so a function whose name is also a word used
//! elsewhere passes: the census is a lower bound. The few functions that
//! have no non-test caller on purpose are listed in [`ALLOWLIST`], each with
//! its reason; an entry that stops being needed fails the test too.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// `(file, function, reason)`: public functions kept without a non-test
/// caller. The file is relative to the repository root.
const ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "crates/bench/src/experiments.rs",
        "observability_overhead",
        "the telemetry overhead A/B that CI's release-only overhead_gate test runs",
    ),
    (
        "crates/bench/src/experiments.rs",
        "columnar_store",
        "the columnar store sweep that CI's release-only columnar_gate test runs",
    ),
    (
        "crates/bench/src/runner.rs",
        "redact_volatile",
        "test utility: tests/determinism.rs blanks wall-clock fields with it",
    ),
    (
        "crates/editdist/src/levenshtein.rs",
        "levenshtein",
        "the full-DP oracle that bucket lookup's banded kernel is tested against",
    ),
    (
        "crates/pipeline/src/store.rs",
        "evict_before",
        "retention: the store ledger's eviction leg, awaiting the bounded store",
    ),
    (
        "crates/pipeline/src/testsupport.rs",
        "delivered_ids",
        "test utility: the sink suites' duplicate and loss audit",
    ),
    (
        "crates/pipeline/src/testsupport.rs",
        "wait_until",
        "test utility: the polling helper the listener and sink suites share",
    ),
    (
        "crates/pipeline/src/testsupport.rs",
        "scratch_dir",
        "test utility: per-process scratch directories for the spill suites",
    ),
    (
        "crates/syslog/src/framing.rs",
        "scalar_oracle",
        "the byte-loop decoder the SWAR frame scan is differential-tested against",
    ),
];

/// Replace comments with spaces. Returns the cleaned source and a mask of
/// the same length in which string and char literal contents are blanked
/// too, so braces inside literals do not count as code.
fn strip_comments(src: &str) -> (Vec<char>, Vec<char>) {
    let s: Vec<char> = src.chars().collect();
    let mut code = s.clone();
    let mut mask = s.clone();
    let blank = |v: &mut Vec<char>, from: usize, to: usize| {
        for c in &mut v[from..to] {
            if *c != '\n' {
                *c = ' ';
            }
        }
    };
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < s.len() {
        let next = s.get(i + 1).copied();
        if s[i] == '/' && next == Some('/') {
            let end = s[i..]
                .iter()
                .position(|&c| c == '\n')
                .map_or(s.len(), |p| i + p);
            blank(&mut code, i, end);
            blank(&mut mask, i, end);
            i = end;
        } else if s[i] == '/' && next == Some('*') {
            let (mut depth, mut j) = (1, i + 2);
            while j < s.len() && depth > 0 {
                if s[j] == '/' && s.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if s[j] == '*' && s.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut code, i, j);
            blank(&mut mask, i, j);
            i = j;
        } else if s[i] == '"' {
            let mut j = i + 1;
            while j < s.len() && s[j] != '"' {
                j += if s[j] == '\\' { 2 } else { 1 };
            }
            blank(&mut mask, i + 1, j.min(s.len()));
            i = j + 1;
        } else if (s[i] == 'r' || (s[i] == 'b' && next == Some('r')))
            && (i == 0 || !is_ident(s[i - 1]))
        {
            // A raw string `r#"…"#` (or `br"…"`), else an identifier.
            let mut j = i + if s[i] == 'b' { 2 } else { 1 };
            let hashes = s[j..].iter().take_while(|&&c| c == '#').count();
            j += hashes;
            if s.get(j) != Some(&'"') {
                i += 1;
                continue;
            }
            let start = j + 1;
            let mut k = start;
            while k < s.len() {
                if s[k] == '"'
                    && s[k + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&c| c == '#')
                        .count()
                        == hashes
                {
                    break;
                }
                k += 1;
            }
            blank(&mut mask, start, k.min(s.len()));
            i = k + 1 + hashes;
        } else if s[i] == '\'' {
            // A char literal; a lifetime has no closing quote two chars on.
            if next == Some('\\') {
                let mut j = i + 3;
                while j < s.len() && s[j] != '\'' {
                    j += 1;
                }
                blank(&mut mask, i + 1, j.min(s.len()));
                i = j + 1;
            } else if s.get(i + 2) == Some(&'\'') {
                blank(&mut mask, i + 1, i + 2);
                i += 3;
            } else {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    (code, mask)
}

/// Non-test source of one file: comments and `#[cfg(test)]` items removed.
fn non_test_source(src: &str) -> String {
    let (mut code, mask) = strip_comments(src);
    let attr: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut i = 0;
    while i + attr.len() <= mask.len() {
        if mask[i..i + attr.len()] != attr[..] {
            i += 1;
            continue;
        }
        // The item the attribute gates ends at its first `;` or at the
        // brace that closes its first `{`.
        let mut j = i + attr.len();
        while j < mask.len() && mask[j] != '{' && mask[j] != ';' {
            j += 1;
        }
        if j < mask.len() && mask[j] == '{' {
            let mut depth = 0;
            while j < mask.len() {
                match mask[j] {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let end = (j + 1).min(mask.len());
        for c in &mut code[i..end] {
            if *c != '\n' {
                *c = ' ';
            }
        }
        i = end;
    }
    code.into_iter().collect()
}

/// Identifiers and single punctuation characters, in order.
fn tokens(src: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in src.char_indices() {
        if c.is_alphanumeric() || c == '_' {
            start.get_or_insert(i);
            continue;
        }
        if let Some(s) = start.take() {
            out.push(&src[s..i]);
        }
        if !c.is_whitespace() {
            out.push(&src[i..i + c.len_utf8()]);
        }
    }
    if let Some(s) = start {
        out.push(&src[s..]);
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_pub_fn_has_a_non_test_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crate_files = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    crates.sort();
    for krate in crates {
        rust_files(&krate.join("src"), &mut crate_files);
    }
    assert!(!crate_files.is_empty(), "no sources under crates/*/src");
    let mut caller_files = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut caller_files);
    }

    // Word counts over all non-test source; `fn NAME` counts per name;
    // `pub fn NAME` definitions per (file, name).
    let mut words: HashMap<String, usize> = HashMap::new();
    let mut fn_defs: HashMap<String, usize> = HashMap::new();
    let mut pub_fns: Vec<(String, String)> = Vec::new();
    for path in crate_files.iter().chain(&caller_files) {
        let src = non_test_source(&fs::read_to_string(path).unwrap());
        let toks = tokens(&src);
        let rel = path.strip_prefix(root).unwrap().display().to_string();
        let mut in_use = false;
        for (k, tok) in toks.iter().enumerate() {
            // A `use` (or `pub use`) names a function without calling it.
            in_use = (in_use || *tok == "use") && *tok != ";";
            let is_word = tok.starts_with(|c: char| c.is_alphabetic() || c == '_');
            if !in_use && is_word && (k == 0 || toks[k - 1] != "mod") {
                *words.entry(tok.to_string()).or_default() += 1;
            }
            if *tok != "fn" {
                continue;
            }
            let Some(name) = toks.get(k + 1) else {
                continue;
            };
            *fn_defs.entry(name.to_string()).or_default() += 1;
            let mut q = k;
            while q > 0 && ["const", "async", "unsafe"].contains(&toks[q - 1]) {
                q -= 1;
            }
            if q > 0 && toks[q - 1] == "pub" && rel.starts_with("crates/") {
                pub_fns.push((rel.clone(), name.to_string()));
            }
        }
    }

    let uncalled: Vec<(String, String)> = pub_fns
        .into_iter()
        .filter(|(_, name)| words[name] <= fn_defs[name])
        .collect();
    let allowed =
        |file: &str, name: &str| ALLOWLIST.iter().any(|&(f, n, _)| f == file && n == name);
    let unlisted: Vec<String> = uncalled
        .iter()
        .filter(|(f, n)| !allowed(f, n))
        .map(|(f, n)| format!("{f}: pub fn {n}"))
        .collect();
    let stale: Vec<String> = ALLOWLIST
        .iter()
        .filter(|&&(f, n, _)| !uncalled.iter().any(|(uf, un)| uf == f && un == n))
        .map(|&(f, n, _)| format!("{f}: {n}"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "{} public functions have no caller outside tests; delete them, give \
         them their caller, or allowlist them with a reason:\n  {}",
        unlisted.len(),
        unlisted.join("\n  ")
    );
    assert!(
        stale.is_empty(),
        "allowlisted functions that now have a non-test caller (or are gone); \
         drop them from ALLOWLIST:\n  {}",
        stale.join("\n  ")
    );
}

#[test]
fn cleaning_keeps_code_and_drops_comments_and_test_items() {
    let src = r##"
pub fn kept() -> &'static str { "}{ // not a comment" }
// fn in_comment() {}
/* fn in_block() { } */
#[cfg(test)]
mod tests {
    fn gone() { let _ = '}'; let _ = r#"}"#; }
}
pub fn after() {}
"##;
    let cleaned = non_test_source(src);
    assert!(cleaned.contains("pub fn kept"));
    assert!(cleaned.contains("\"}{ // not a comment\""));
    assert!(cleaned.contains("pub fn after"));
    for gone in ["in_comment", "in_block", "gone", "cfg"] {
        assert!(!cleaned.contains(gone), "{gone} survived:\n{cleaned}");
    }
}
