//! `FeaturePipeline::transform_batch_csr` promises that row `i` is
//! bit-identical to `transform(messages[i])`. Checked here on indices and
//! on value *bits*, over generated messages that mix every way a token can
//! meet the fit-time table, at batch sizes on both sides of the chunk
//! boundary, and under one and four rayon workers.

use datagen::{
    generate_corpus, CorpusConfig, DriftConfig, DriftModel, StreamConfig, StreamGenerator,
};
use hetsyslog_core::{FeatureConfig, FeaturePipeline};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};
use textproc::Tokenizer;

/// Words a message is drawn from, by how they meet the table.
const POOL: &[&str] = &[
    // Raw forms the training corpus contains: table hits.
    "temperature",
    "throttled",
    "threshold",
    "usb",
    "device",
    "connection",
    "closed",
    "memory",
    "error",
    "slurm_rpc_node_registration",
    // Inflections of vocabulary words the corpus never spells this way:
    // table misses that still resolve to a vocabulary id.
    "throttles",
    "failures",
    "temperatures",
    "sensors",
    "devices",
    "batteries",
    // Stopwords.
    "the",
    "is",
    "above",
    "by",
    // Mixed case (lowercased by the tokenizer before the lookup).
    "CPU",
    "Temperature",
    "USB",
    "ThRoTtLeD",
    // Non-ASCII: takes the tokenizer's Unicode path.
    "überhitzung",
    "İstanbul",
    "温度",
    "températures",
    // All-numeric (dropped by the tokenizer), hex ids, sizes, node names.
    "12345",
    "0",
    "0x1f9a",
    "95c",
    "512kb",
    "cn0417",
    // Separators of their own.
    "-",
    ":",
    "[preauth]",
];

fn corpus_texts() -> Vec<String> {
    generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 12,
    })
    .into_iter()
    .map(|m| m.text)
    .collect()
}

fn fitted() -> &'static FeaturePipeline {
    static PIPELINE: OnceLock<FeaturePipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let mut p = FeaturePipeline::new(FeatureConfig::default());
        p.fit(&corpus_texts());
        p
    })
}

/// `RAYON_NUM_THREADS` is process-wide and cargo runs this file's tests on
/// parallel threads: whoever changes it holds this.
static RAYON_ENV: Mutex<()> = Mutex::new(());

fn assert_rows_match_scalar(p: &FeaturePipeline, messages: &[String]) -> Result<(), TestCaseError> {
    let _env = RAYON_ENV.lock().unwrap_or_else(|e| e.into_inner());
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let csr = p.transform_batch_csr(messages);
        std::env::remove_var("RAYON_NUM_THREADS");
        prop_assert_eq!(csr.n_rows(), messages.len());
        for (i, message) in messages.iter().enumerate() {
            let want = p.transform(message);
            let (indices, values) = csr.row(i);
            prop_assert_eq!(indices, want.indices(), "row {} of {:?}", i, message);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(values),
                bits(want.values()),
                "row {} of {:?}",
                i,
                message
            );
        }
    }
    Ok(())
}

/// One message: 0–14 words, each from [`POOL`] or (last index) a random
/// identifier no corpus contains.
fn message() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..=POOL.len(), "[a-zA-Z0-9_]{1,12}"), 0..15).prop_map(|words| {
        let words: Vec<&str> = words
            .iter()
            .map(|(pick, random)| POOL.get(*pick).copied().unwrap_or(random))
            .collect();
        words.join(" ")
    })
}

/// One chunk holds 256 messages; a live batch holds at most 64.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_rows_are_bit_identical_to_scalar_transform(
        messages in proptest::collection::vec(message(), 300),
        size in 0usize..BATCH_SIZES.len(),
    ) {
        assert_rows_match_scalar(fitted(), &messages[..BATCH_SIZES[size]])?;
    }

    /// A drifted stream: firmware rewording and vendor jargon push the
    /// share of tokens the table holds well below a stationary stream's.
    #[test]
    fn drifted_stream_rows_are_bit_identical_to_scalar_transform(
        seed in 0u64..1000,
        size in 0usize..BATCH_SIZES.len(),
    ) {
        let stream: Vec<String> = StreamGenerator::new(StreamConfig { seed, ..StreamConfig::default() })
            .take(BATCH_SIZES[size])
            .map(|tm| tm.message.text)
            .collect();
        let drifted = DriftModel::new(DriftConfig { vendor_jargon: true, seed, ..DriftConfig::default() })
            .mutate_all(&stream);
        assert_rows_match_scalar(fitted(), &drifted)?;
    }
}

/// The pool is what its comments say it is — otherwise the properties
/// above would pass without reaching the paths they name.
#[test]
fn pool_reaches_hits_resolving_misses_and_dead_misses() {
    let tokenizer = Tokenizer::default();
    let mut seen: HashSet<String> = HashSet::new();
    for text in corpus_texts() {
        tokenizer.tokenize_each(&text, |t| {
            seen.insert(t.to_string());
        });
    }
    let p = fitted();
    for hit in ["temperature", "throttled", "usb", "cpu"] {
        assert!(seen.contains(hit), "{hit} should be a raw corpus token");
        assert!(
            !p.transform(hit).is_empty(),
            "{hit} should be in vocabulary"
        );
    }
    for miss in [
        "throttles",
        "failures",
        "temperatures",
        "sensors",
        "batteries",
    ] {
        assert!(!seen.contains(miss), "{miss} should be unseen at fit time");
        assert!(
            !p.transform(miss).is_empty(),
            "{miss} should lemmatize into the vocabulary"
        );
    }
    for dead in ["the", "0x1f9a", "überhitzung", "12345", "cn0417"] {
        assert!(
            p.transform(dead).is_empty(),
            "{dead} should leave no feature"
        );
    }

    // The drifted stream really is the lower-hit-rate input.
    let hit_rate = |messages: &[String]| {
        let (mut hits, mut total) = (0usize, 0usize);
        for m in messages {
            tokenizer.tokenize_each(m, |t| {
                total += 1;
                hits += usize::from(seen.contains(t));
            });
        }
        hits as f64 / total as f64
    };
    let stream: Vec<String> = StreamGenerator::new(StreamConfig::default())
        .take(2000)
        .map(|tm| tm.message.text)
        .collect();
    let drifted = DriftModel::new(DriftConfig {
        vendor_jargon: true,
        ..DriftConfig::default()
    })
    .mutate_all(&stream);
    assert!(hit_rate(&stream) > 0.9, "{}", hit_rate(&stream));
    assert!(hit_rate(&drifted) < hit_rate(&stream) - 0.03);
}
