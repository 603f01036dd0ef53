//! Rule-based English lemmatizer in the style of WordNet's `morphy`.
//!
//! The paper (§4.3.2) lemmatizes with the NLTK WordNet lemmatizer so that
//! "failed", "failure", "failing" and "fail" share a stem regardless of
//! which part of speech a vendor's firmware happens to use. WordNet works by
//! (1) looking the word up in an exception lexicon of irregular forms, then
//! (2) applying suffix-detachment rules and accepting the first candidate
//! found in the dictionary. We reproduce exactly that structure with an
//! embedded dictionary of common English plus the syslog domain vocabulary.
//!
//! Words not resolvable through the dictionary fall back to conservative
//! suffix stripping, which keeps unknown vendor identifiers intact.

use crate::hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;

mod lexicon;

/// Irregular forms → lemma (WordNet `exc` files, trimmed to forms that occur
/// in system logs and common English).
const EXCEPTIONS: &[(&str, &str)] = &[
    ("ran", "run"),
    ("running", "run"),
    ("went", "go"),
    ("gone", "go"),
    ("began", "begin"),
    ("begun", "begin"),
    ("broke", "break"),
    ("broken", "break"),
    ("came", "come"),
    ("children", "child"),
    ("did", "do"),
    ("done", "do"),
    ("drew", "draw"),
    ("drawn", "draw"),
    ("fell", "fall"),
    ("fallen", "fall"),
    ("feet", "foot"),
    ("found", "find"),
    ("froze", "freeze"),
    ("frozen", "freeze"),
    ("gave", "give"),
    ("given", "give"),
    ("got", "get"),
    ("gotten", "get"),
    ("held", "hold"),
    ("hung", "hang"),
    ("kept", "keep"),
    ("knew", "know"),
    ("known", "know"),
    ("left", "leave"),
    ("lost", "lose"),
    ("made", "make"),
    ("men", "man"),
    ("mice", "mouse"),
    ("ran_out", "run_out"),
    ("read", "read"),
    ("rose", "rise"),
    ("risen", "rise"),
    ("sent", "send"),
    ("set", "set"),
    ("shut", "shut"),
    ("slept", "sleep"),
    ("spoke", "speak"),
    ("spoken", "speak"),
    ("stood", "stand"),
    ("stuck", "stick"),
    ("swapped", "swap"),
    ("swapping", "swap"),
    ("threw", "throw"),
    ("thrown", "throw"),
    ("took", "take"),
    ("taken", "take"),
    ("was", "be"),
    ("were", "be"),
    ("been", "be"),
    ("being", "be"),
    ("is", "be"),
    ("are", "be"),
    ("woke", "wake"),
    ("woken", "wake"),
    ("wrote", "write"),
    ("written", "write"),
];

/// Suffix detachment rules, tried in order. `(suffix, replacement)` — the
/// candidate is accepted if the result is in the dictionary.
const RULES: &[(&str, &str)] = &[
    // Nouns
    ("ies", "y"),
    ("sses", "ss"),
    ("shes", "sh"),
    ("ches", "ch"),
    ("xes", "x"),
    ("zes", "z"),
    ("ves", "f"),
    ("es", "e"),
    ("es", ""),
    ("s", ""),
    // Verbs
    ("ied", "y"),
    ("ed", "e"),
    ("ed", ""),
    ("ing", "e"),
    ("ing", ""),
    // Adjectives
    ("er", ""),
    ("est", ""),
    ("er", "e"),
    ("est", "e"),
];

/// A WordNet-morphy-style lemmatizer. Construction is cheap (shared static
/// tables); keep one per thread or share freely. (Stateless, so
/// serialization carries only its presence in a pipeline config.)
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Lemmatizer {
    _private: (),
}

fn exceptions() -> &'static FxHashMap<&'static str, &'static str> {
    static MAP: OnceLock<FxHashMap<&'static str, &'static str>> = OnceLock::new();
    MAP.get_or_init(|| EXCEPTIONS.iter().copied().collect())
}

fn dictionary() -> &'static FxHashSet<&'static str> {
    static SET: OnceLock<FxHashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| lexicon::DICTIONARY.iter().copied().collect())
}

impl Lemmatizer {
    /// Construct a lemmatizer.
    pub fn new() -> Lemmatizer {
        Lemmatizer::default()
    }

    /// Lemmatize one lowercase token.
    ///
    /// Unknown tokens (vendor identifiers, hostnames) are returned
    /// unchanged except for conservative plural stripping.
    pub fn lemmatize(&self, token: &str) -> String {
        self.lemmatize_cow(token).into_owned()
    }

    /// [`Lemmatizer::lemmatize`] without the copy: the lemma borrows from
    /// `token` (or the static lexicon) whenever it is a prefix of it, and
    /// candidate stems are probed on the stack, so a token that no rule
    /// rewrites — hex ids, sizes, node names — costs no allocation. Only a
    /// lemma that has to be spliced (`batteries` → `battery`) is owned.
    pub fn lemmatize_cow<'a>(&self, token: &'a str) -> Cow<'a, str> {
        // 1. Irregular forms.
        if let Some(lemma) = exceptions().get(token) {
            return Cow::Borrowed(lemma);
        }
        let dict = dictionary();
        // 2. Already a dictionary lemma (or too short to safely strip).
        if dict.contains(token) || token.chars().count() <= 3 {
            return Cow::Borrowed(token);
        }
        // 3. Morphy: detach suffixes, accept the first dictionary hit.
        for (suffix, replacement) in RULES {
            if let Some(stem) = token.strip_suffix(suffix) {
                if stem.is_empty() {
                    continue;
                }
                if let Some(candidate) = splice(token, stem, replacement, dict) {
                    return candidate;
                }
                // Doubled final consonant before -ed/-ing: "throttled" was
                // caught by the dictionary; this catches e.g. "stopped".
                if (*suffix == "ed" || *suffix == "ing") && replacement.is_empty() {
                    if let Some(u) = undouble(stem) {
                        if dict.contains(u) {
                            return Cow::Borrowed(u);
                        }
                    }
                }
            }
        }
        // 4. Conservative fallback for unknown vocabulary: strip plural -s
        //    and -es where unambiguous, leave everything else alone.
        fallback(token)
    }
}

/// `stem` + `replacement` if the dictionary holds it. The candidate is a
/// prefix of `token` for most rules (`-es` → `e`, `-sses` → `ss`, …) and is
/// then borrowed; otherwise it is assembled on the stack for the probe and
/// copied to the heap only once accepted.
fn splice<'a>(
    token: &'a str,
    stem: &str,
    replacement: &str,
    dict: &FxHashSet<&str>,
) -> Option<Cow<'a, str>> {
    let len = stem.len() + replacement.len();
    if token[stem.len()..].starts_with(replacement) {
        let candidate = &token[..len];
        return dict.contains(candidate).then_some(Cow::Borrowed(candidate));
    }
    let mut stack = [0u8; 64];
    let heap;
    let candidate = match stack.get_mut(..len) {
        Some(buf) => {
            buf[..stem.len()].copy_from_slice(stem.as_bytes());
            buf[stem.len()..].copy_from_slice(replacement.as_bytes());
            std::str::from_utf8(buf).expect("two strs concatenate to valid UTF-8")
        }
        None => {
            heap = format!("{stem}{replacement}");
            &heap
        }
    };
    dict.contains(candidate)
        .then(|| Cow::Owned(candidate.to_string()))
}

fn fallback(token: &str) -> Cow<'_, str> {
    if let Some(stem) = token.strip_suffix("ies") {
        if stem.len() >= 2 {
            return Cow::Owned(format!("{stem}y"));
        }
    }
    if token.ends_with("ss") || token.ends_with("us") || token.ends_with("is") {
        return Cow::Borrowed(token);
    }
    if let Some(stem) = token.strip_suffix('s') {
        if stem.len() >= 3 && !stem.ends_with('s') {
            return Cow::Borrowed(stem);
        }
    }
    Cow::Borrowed(token)
}

/// If `stem` ends in a doubled consonant (not l/s/z which legitimately
/// double), return it with one dropped.
fn undouble(stem: &str) -> Option<&str> {
    let bytes = stem.as_bytes();
    if bytes.len() >= 2 {
        let last = bytes[bytes.len() - 1];
        if last == bytes[bytes.len() - 2]
            && last.is_ascii_alphabetic()
            && !matches!(last, b'l' | b's' | b'z' | b'e' | b'o')
        {
            return Some(&stem[..stem.len() - 1]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lem(word: &str) -> String {
        Lemmatizer::new().lemmatize(word)
    }

    #[test]
    fn paper_example_fail_family() {
        // §4.3.2: "The system has failed", "a failure in the system",
        // "The system is failing" — all forms of "fail".
        assert_eq!(lem("failed"), "fail");
        assert_eq!(lem("failing"), "fail");
        assert_eq!(lem("fails"), "fail");
        assert_eq!(lem("fail"), "fail");
    }

    #[test]
    fn thermal_vocabulary() {
        assert_eq!(lem("throttled"), "throttle");
        assert_eq!(lem("throttling"), "throttle");
        assert_eq!(lem("temperatures"), "temperature");
        assert_eq!(lem("sensors"), "sensor");
        assert_eq!(lem("overheating"), "overheat");
    }

    #[test]
    fn plurals() {
        assert_eq!(lem("cpus"), "cpu");
        assert_eq!(lem("devices"), "device");
        assert_eq!(lem("buses"), "bus");
        assert_eq!(lem("processes"), "process");
        assert_eq!(lem("batteries"), "battery");
        assert_eq!(lem("addresses"), "address");
    }

    #[test]
    fn irregulars() {
        assert_eq!(lem("was"), "be");
        assert_eq!(lem("broken"), "break");
        assert_eq!(lem("went"), "go");
        assert_eq!(lem("found"), "find");
    }

    #[test]
    fn doubled_consonants() {
        assert_eq!(lem("stopped"), "stop");
        assert_eq!(lem("dropped"), "drop");
        assert_eq!(lem("plugged"), "plug");
    }

    #[test]
    fn non_words_pass_through() {
        assert_eq!(lem("lpi_hbm_nn"), "lpi_hbm_nn");
        assert_eq!(lem("eth0"), "eth0");
        assert_eq!(lem("0x1f"), "0x1f");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(lem("its"), "its");
        assert_eq!(lem("bus"), "bus");
        assert_eq!(lem("is"), "be"); // exception, not a rule
    }

    #[test]
    fn words_ending_in_ss_us_is_keep_s() {
        assert_eq!(lem("status"), "status");
        assert_eq!(lem("analysis"), "analysis");
        assert_eq!(lem("access"), "access");
    }

    #[test]
    fn unknown_plural_fallback() {
        // Not in the dictionary, but safely strippable.
        assert_eq!(lem("gizmotrons"), "gizmotron");
        assert_eq!(lem("frobberies"), "frobbery");
    }

    #[test]
    fn only_a_spliced_lemma_is_owned() {
        let l = Lemmatizer::new();
        for borrowed in [
            "0x1f9a",
            "cn0417",
            "devices",
            "stopped",
            "was",
            "gizmotrons",
        ] {
            assert!(
                matches!(l.lemmatize_cow(borrowed), Cow::Borrowed(_)),
                "{borrowed}"
            );
        }
        assert!(matches!(l.lemmatize_cow("batteries"), Cow::Owned(_)));
        // Longer than the stack buffer candidates are probed in.
        let long = format!("{}ing", "x".repeat(80));
        assert_eq!(l.lemmatize_cow(&long), long);
    }

    #[test]
    fn idempotent_on_lemmas() {
        for w in ["fail", "throttle", "temperature", "memory", "connection"] {
            assert_eq!(lem(&lem(w)), lem(w));
        }
    }
}
