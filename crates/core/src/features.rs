//! The preprocessing pipeline of §4.3: tokenize → lemmatize → TF-IDF.
//!
//! Two routes to the same feature row. The scalar one —
//! [`FeaturePipeline::preprocess`] then [`FeaturePipeline::transform`] — is
//! the paper's per-message pipeline and the oracle the batch route is
//! tested against. The batch one, [`FeaturePipeline::transform_batch_csr`],
//! is what the live path runs: what a raw token maps to is a fact about
//! the fitted pipeline, so [`FeaturePipeline::fit`] works it out once for
//! every raw token of its corpus and the batch route only looks it up.
//! The table is never written after `fit`; a token it does not hold is
//! resolved on the spot and forgotten, so traffic cannot grow it.

use crate::taxonomy::Category;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use textproc::hash::FxHashMap;
use textproc::sparse::csr_from_items;
use textproc::tfidf::{category_top_tokens, CategoryTokens};
use textproc::{
    CsrMatrix, Lemmatizer, SparseVec, TfidfConfig, TfidfVectorizer, Tokenizer, Vocabulary,
};

/// Pipeline options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Apply the WordNet-style lemmatizer (§4.3.2). The ablation bench
    /// toggles this.
    pub lemmatize: bool,
    /// Drop English stopwords before vectorizing.
    pub remove_stopwords: bool,
    /// Word n-gram order: 1 = unigrams only (the paper's setup), 2 adds
    /// bigrams, etc. (Cavnar-Trenkle-style feature augmentation.)
    pub word_ngrams: usize,
    /// TF-IDF vectorizer options.
    pub tfidf: TfidfConfig,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            lemmatize: true,
            remove_stopwords: true,
            word_ngrams: 1,
            tfidf: TfidfConfig {
                min_df: 2,
                ..TfidfConfig::default()
            },
        }
    }
}

/// A fitted tokenize → lemmatize → TF-IDF pipeline.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FeaturePipeline {
    config: FeatureConfig,
    tokenizer: Tokenizer,
    lemmatizer: Lemmatizer,
    vectorizer: TfidfVectorizer,
    /// Raw token → vocabulary id for every raw token of the fitting corpus
    /// (`None`: stopword or out of vocabulary). Written by
    /// [`FeaturePipeline::fit`] only and read-only afterwards, so its size
    /// is set by the training corpus, never by the traffic. Empty for
    /// n-gram pipelines and for models saved before the table existed;
    /// both resolve every token the slow way.
    #[serde(default)]
    token_ids: FxHashMap<String, Option<u32>>,
}

impl FeaturePipeline {
    /// Create an unfitted pipeline.
    pub fn new(config: FeatureConfig) -> FeaturePipeline {
        let tfidf = config.tfidf.clone();
        FeaturePipeline {
            config,
            tokenizer: Tokenizer::default(),
            lemmatizer: Lemmatizer::new(),
            vectorizer: TfidfVectorizer::new(tfidf),
            token_ids: FxHashMap::default(),
        }
    }

    /// Tokenize (and optionally lemmatize / de-stopword) one message.
    pub fn preprocess(&self, text: &str) -> Vec<String> {
        let mut tokens = self.tokenizer.tokenize(text);
        if self.config.remove_stopwords {
            tokens.retain(|t| !textproc::stopwords::is_stopword(t));
        }
        if self.config.lemmatize {
            for t in &mut tokens {
                *t = self.lemmatizer.lemmatize(t);
            }
        }
        if self.config.word_ngrams > 1 {
            tokens = textproc::ngram::word_ngram_range(&tokens, self.config.word_ngrams);
        }
        tokens
    }

    /// What [`Self::preprocess`] makes of one raw token: `None` for a
    /// stopword (checked on the raw form), else its lemma. Borrows unless
    /// the lemma had to be spliced together.
    fn preprocess_token<'a>(&self, token: &'a str) -> Option<Cow<'a, str>> {
        if self.config.remove_stopwords && textproc::stopwords::is_stopword(token) {
            return None;
        }
        Some(if self.config.lemmatize {
            self.lemmatizer.lemmatize_cow(token)
        } else {
            Cow::Borrowed(token)
        })
    }

    /// Fit the TF-IDF stage on a corpus of raw messages, and learn the raw
    /// token → id table the batch path reads.
    ///
    /// One pass over the corpus: every message is tokenized once, every
    /// *distinct* raw token is preprocessed once, and document frequencies
    /// are counted over lemma ids — what the vectorizer would count over
    /// [`Self::preprocess`] of each message, without making those strings.
    pub fn fit(&mut self, messages: &[impl AsRef<str> + Sync]) {
        if self.config.word_ngrams > 1 {
            let docs: Vec<Vec<String>> = messages
                .par_iter()
                .map(|m| self.preprocess(m.as_ref()))
                .collect();
            self.vectorizer.fit(&docs);
            self.token_ids = FxHashMap::default();
            return;
        }
        // Raw token → its lemma's id in `lemmas` (`None`: a stopword).
        let mut seen: FxHashMap<String, Option<u32>> = FxHashMap::default();
        let mut lemmas = Vocabulary::new();
        let mut df: Vec<usize> = Vec::new();
        let mut doc: Vec<u32> = Vec::new();
        for message in messages {
            doc.clear();
            self.tokenizer.tokenize_each(message.as_ref(), |raw| {
                let lemma = match seen.get(raw) {
                    Some(&lemma) => lemma,
                    None => {
                        let lemma = self.preprocess_token(raw).map(|l| lemmas.intern(&l));
                        seen.insert(raw.to_string(), lemma);
                        lemma
                    }
                };
                if let Some(lemma) = lemma {
                    doc.push(lemma);
                }
            });
            doc.sort_unstable();
            doc.dedup();
            df.resize(lemmas.len(), 0);
            for &lemma in &doc {
                df[lemma as usize] += 1;
            }
        }
        self.vectorizer.fit_from_df(
            lemmas
                .iter()
                .map(|(id, lemma)| (lemma.to_string(), df[id as usize])),
            messages.len(),
        );
        // The table takes its own copy of each key, allocated back to back
        // now that counting is over. It lives as long as the model; moving
        // `seen`'s keys in would leave them interleaved with everything
        // allocated while counting, and the caller's heap holed (measured:
        // +10–20 % on a later clone-heavy store query from that thread).
        self.token_ids = seen
            .iter()
            .map(|(raw, lemma)| {
                let lemma = lemma.and_then(|id| lemmas.token(id));
                (raw.clone(), lemma.and_then(|l| self.vectorizer.token_id(l)))
            })
            .collect();
    }

    /// Transform one raw message into a TF-IDF vector.
    pub fn transform(&self, text: &str) -> SparseVec {
        self.vectorizer.transform(&self.preprocess(text))
    }

    /// Transform many messages straight into one CSR matrix — the batch
    /// inference path. The unigram path fuses preprocessing and
    /// vectorization: each raw token is looked up in the table learned by
    /// [`Self::fit`], so a token seen at fit time costs one hash probe — no
    /// stopword check, no lemmatization, no vocabulary lookup. A token the
    /// table does not hold is resolved the way [`Self::preprocess`] would,
    /// per occurrence and without being remembered: the table never grows
    /// with the traffic. Row `i` is bit-identical to
    /// [`FeaturePipeline::transform`] of `messages[i]`.
    pub fn transform_batch_csr(&self, messages: &[impl AsRef<str> + Sync]) -> CsrMatrix {
        if self.config.word_ngrams > 1 {
            // n-gram rows depend on the adjacent-token stream, so a
            // per-token table does not apply; take the per-document path.
            let docs: Vec<Vec<String>> = messages
                .par_iter()
                .map(|m| self.preprocess(m.as_ref()))
                .collect();
            return self.vectorizer.transform_batch_csr(&docs);
        }
        csr_from_items(
            messages,
            self.vectorizer.n_features(),
            Vec::new,
            |message, pairs, ids: &mut Vec<u32>| {
                ids.clear();
                self.tokenizer.tokenize_each(message.as_ref(), |tok| {
                    let id = match self.token_ids.get(tok) {
                        Some(&id) => id,
                        None => self.resolve_token(tok),
                    };
                    if let Some(id) = id {
                        ids.push(id);
                    }
                });
                self.vectorizer.fill_pairs_from_ids(ids, pairs)
            },
        )
    }

    /// Map one raw token to its vocabulary id the way [`Self::preprocess`]
    /// would: stopword check on the raw form, then lemmatize, then look up.
    fn resolve_token(&self, token: &str) -> Option<u32> {
        self.vectorizer.token_id(&self.preprocess_token(token)?)
    }

    /// Transform many messages in parallel. Routed through the CSR path;
    /// each returned row is bit-identical to [`FeaturePipeline::transform`].
    pub fn transform_batch(&self, messages: &[impl AsRef<str> + Sync]) -> Vec<SparseVec> {
        self.transform_batch_csr(messages).to_rows()
    }

    /// Fit and transform in one pass.
    pub fn fit_transform(&mut self, messages: &[impl AsRef<str> + Sync]) -> Vec<SparseVec> {
        self.fit(messages);
        self.transform_batch(messages)
    }

    /// Number of features after fitting.
    pub fn n_features(&self) -> usize {
        self.vectorizer.n_features()
    }

    /// The fitted vectorizer (for inspecting vocabulary / idf weights).
    pub fn vectorizer(&self) -> &TfidfVectorizer {
        &self.vectorizer
    }

    /// FNV-1a digest of the fitted vocabulary in id order. Two pipelines
    /// fitted on the same corpus must agree on every (id, token) pair, so
    /// this single u64 stands in for the whole vocabulary in conformance
    /// goldens: any reordering, insertion, or rename changes it.
    pub fn vocab_signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (id, token) in self.vectorizer.vocabulary().iter() {
            eat(&id.to_le_bytes());
            eat(token.as_bytes());
            eat(&[0xff]);
        }
        h
    }

    /// The tokens of `text` that scored highest in its TF-IDF vector —
    /// the per-decision explanation payload.
    pub fn top_contributing_tokens(&self, text: &str, k: usize) -> Vec<(String, f64)> {
        let v = self.transform(text);
        let mut scored: Vec<(String, f64)> = v
            .iter()
            .filter_map(|(id, w)| {
                self.vectorizer
                    .vocabulary()
                    .token(id)
                    .map(|t| (t.to_string(), w))
            })
            .collect();
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    /// The Table 1 analysis: per-category top TF-IDF tokens over a labeled
    /// corpus, with each category treated as one document.
    pub fn table1(&self, corpus: &[(String, Category)], top_k: usize) -> Vec<CategoryTokens> {
        let grouped: Vec<(String, Vec<Vec<String>>)> = Category::ALL
            .iter()
            .map(|&cat| {
                let docs: Vec<Vec<String>> = corpus
                    .par_iter()
                    .filter(|(_, c)| *c == cat)
                    .map(|(m, _)| self.preprocess(m))
                    .collect();
                (cat.label().to_string(), docs)
            })
            .collect();
        category_top_tokens(&grouped, top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<(String, Category)> {
        let thermal = [
            "CPU 3 temperature above threshold cpu clock throttled",
            "Processor thermal sensor reports 95C throttling engaged",
            "CPU temperature critical sensor throttled processor",
        ];
        let usb = [
            "usb 1-1 new high-speed USB device number 5 using xhci_hcd",
            "usb hub 2-0:1.0 device disconnected",
            "new USB device found on hub port 3",
        ];
        let mut corpus = Vec::new();
        for m in thermal {
            corpus.push((m.to_string(), Category::ThermalIssue));
        }
        for m in usb {
            corpus.push((m.to_string(), Category::UsbDevice));
        }
        corpus
    }

    #[test]
    fn lemmatization_folds_variants_into_one_feature() {
        let mut with = FeaturePipeline::new(FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        });
        let msgs = ["system failed", "system failure imminent", "system failing"];
        with.fit(&msgs);
        // "failed"/"failing" lemmatize to "fail"; "failure" stays its own
        // lemma, so the vocabulary has fail + failure + system + imminent.
        assert!(with.vectorizer().vocabulary().get("fail").is_some());
        assert!(with.vectorizer().vocabulary().get("failed").is_none());
    }

    #[test]
    fn transform_maps_variants_to_same_vector() {
        let mut p = FeaturePipeline::new(FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        });
        p.fit(&["cpu throttled hot", "disk quiet"]);
        let a = p.transform("cpu throttled");
        let b = p.transform("cpu throttling");
        assert_eq!(a, b, "lemmatized forms must produce identical vectors");
    }

    #[test]
    fn table1_separates_category_vocabulary() {
        let corpus = sample_corpus();
        let mut p = FeaturePipeline::new(FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        });
        let msgs: Vec<&String> = corpus.iter().map(|(m, _)| m).collect();
        p.fit(&msgs.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let t1 = p.table1(&corpus, 5);
        assert_eq!(t1.len(), 8);
        let thermal = &t1[Category::ThermalIssue.index()];
        let tokens: Vec<&str> = thermal.tokens.iter().map(|(t, _)| t.as_str()).collect();
        assert!(
            tokens.contains(&"temperature")
                || tokens.contains(&"throttle")
                || tokens.contains(&"cpu"),
            "thermal top tokens were {tokens:?}"
        );
        let usb = &t1[Category::UsbDevice.index()];
        let tokens: Vec<&str> = usb.tokens.iter().map(|(t, _)| t.as_str()).collect();
        assert!(tokens.contains(&"usb") || tokens.contains(&"device") || tokens.contains(&"hub"));
        // Categories with no corpus messages have empty token lists.
        assert!(t1[Category::SlurmIssue.index()].tokens.is_empty());
    }

    #[test]
    fn top_contributing_tokens_ranked() {
        let mut p = FeaturePipeline::new(FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        });
        p.fit(&["cpu hot throttle", "cpu cold", "cpu warm", "fan fine"]);
        let top = p.top_contributing_tokens("cpu throttle", 2);
        assert_eq!(top.len(), 2);
        // "throttle" is rarer than "cpu", so it must rank first.
        assert_eq!(top[0].0, "throttle");
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn word_ngrams_augment_features() {
        let p = FeaturePipeline::new(FeatureConfig {
            word_ngrams: 2,
            ..FeatureConfig::default()
        });
        let toks = p.preprocess("cpu temperature high");
        assert!(toks.contains(&"cpu_temperature".to_string()));
        assert!(toks.contains(&"temperature_high".to_string()));
        assert!(toks.contains(&"cpu".to_string()), "unigrams kept");
    }

    #[test]
    fn stopword_removal_configurable() {
        let keep = FeaturePipeline::new(FeatureConfig {
            remove_stopwords: false,
            ..FeatureConfig::default()
        });
        let drop = FeaturePipeline::new(FeatureConfig::default());
        assert!(keep
            .preprocess("the cpu is hot")
            .contains(&"the".to_string()));
        assert!(!drop
            .preprocess("the cpu is hot")
            .contains(&"the".to_string()));
    }

    fn min_df_1() -> FeatureConfig {
        FeatureConfig {
            tfidf: TfidfConfig {
                min_df: 1,
                ..TfidfConfig::default()
            },
            ..FeatureConfig::default()
        }
    }

    #[test]
    fn fit_learns_every_raw_token_the_way_preprocess_resolves_it() {
        let corpus = sample_corpus();
        let msgs: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
        // Default min_df = 2, so once-seen tokens are out of vocabulary.
        let mut p = FeaturePipeline::new(FeatureConfig::default());
        p.fit(&msgs);
        let mut raw_tokens = 0;
        for m in &msgs {
            p.tokenizer.tokenize_each(m, |raw| {
                raw_tokens += 1;
                assert_eq!(p.token_ids.get(raw), Some(&p.resolve_token(raw)), "{raw}");
            });
        }
        assert!(
            raw_tokens > p.token_ids.len(),
            "tokens repeat in the corpus"
        );
        assert_eq!(p.token_ids["throttled"], p.vectorizer.token_id("throttle"));
        assert_eq!(p.token_ids["on"], None, "stopword");
        assert_eq!(p.token_ids["95c"], None, "seen once: below min_df");
        // The frequencies fit counted are those of `preprocess` of each
        // message.
        let mut oracle = TfidfVectorizer::new(p.config.tfidf.clone());
        oracle.fit(&msgs.iter().map(|m| p.preprocess(m)).collect::<Vec<_>>());
        let vocab = |v: &TfidfVectorizer| -> Vec<(u32, String)> {
            v.vocabulary()
                .iter()
                .map(|(id, t)| (id, t.to_string()))
                .collect()
        };
        assert_eq!(vocab(&p.vectorizer), vocab(&oracle));
    }

    #[test]
    fn ngram_pipeline_keeps_no_table_and_fits_on_preprocess() {
        let corpus = sample_corpus();
        let msgs: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
        let mut p = FeaturePipeline::new(FeatureConfig {
            word_ngrams: 2,
            ..min_df_1()
        });
        p.fit(&msgs);
        assert!(p.token_ids.is_empty());
        assert!(p.vectorizer.token_id("cpu_temperature").is_some());
        let csr = p.transform_batch_csr(&msgs);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(csr.row_vec(i), p.transform(m));
        }
    }

    #[test]
    fn hostile_traffic_never_grows_the_table() {
        let corpus = sample_corpus();
        let msgs: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
        let mut p = FeaturePipeline::new(min_df_1());
        p.fit(&msgs);
        let table_len = p.token_ids.len();
        let saved_len = serde_json::to_string(&p).unwrap().len();
        // 100 000 distinct tokens no fit ever saw, ten per message, each
        // batch the size of a live one.
        let hostile: Vec<String> = (0..10_000)
            .map(|m| {
                (0..10)
                    .map(|t| format!("zq{}x", m * 10 + t))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        for batch in hostile.chunks(64) {
            assert_eq!(p.transform_batch_csr(batch).nnz(), 0);
        }
        assert_eq!(p.token_ids.len(), table_len);
        assert_eq!(serde_json::to_string(&p).unwrap().len(), saved_len);
    }

    fn assert_rows_bit_identical(p: &FeaturePipeline, messages: &[&str]) {
        let csr = p.transform_batch_csr(messages);
        for (i, m) in messages.iter().enumerate() {
            let want = p.transform(m);
            let (indices, values) = csr.row(i);
            assert_eq!(indices, want.indices(), "{m}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(values), bits(want.values()), "{m}");
        }
    }

    #[test]
    fn saved_pipeline_keeps_the_table_and_a_model_without_one_still_loads() {
        use crate::classify::TextClassifier;
        use crate::persist::{SavedModel, SavedPipeline};

        let corpus = sample_corpus();
        let trained =
            SavedPipeline::train(min_df_1(), SavedModel::by_name("cnb").unwrap(), &corpus);
        // Table hits, an unseen inflection, a stopword, an unseen token.
        let probes = [
            "CPU temperature above threshold cpu clock throttled",
            "usb hubs disconnected on port 0xdeadbeef",
            "sensors throttles the processor",
            "",
        ];
        let json = trained.to_json().unwrap();
        let loaded = SavedPipeline::from_json(&json).unwrap();
        assert_eq!(loaded.features.token_ids, trained.features.token_ids);
        assert!(!loaded.features.token_ids.is_empty());
        assert_rows_bit_identical(&loaded.features, &probes);

        // A model saved before the table existed: same JSON minus the field.
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let serde_json::Value::Object(top) = &mut value else {
            panic!("a saved pipeline is a JSON object")
        };
        let features = top.iter_mut().find(|(k, _)| k == "features").unwrap();
        let serde_json::Value::Object(fields) = &mut features.1 else {
            panic!("features is a JSON object")
        };
        let before = fields.len();
        fields.retain(|(k, _)| k != "token_ids");
        assert_eq!(fields.len(), before - 1);
        let old = SavedPipeline::from_json(&serde_json::to_string(&value).unwrap()).unwrap();
        assert!(old.features.token_ids.is_empty());
        assert_rows_bit_identical(&old.features, &probes);
        assert_eq!(old.classify_batch(&probes), trained.classify_batch(&probes));
        let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(
            old.features.transform_batch_csr(&messages),
            trained.features.transform_batch_csr(&messages)
        );
    }
}
