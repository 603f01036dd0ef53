//! Microbenches for the NLP substrate: tokenization, lemmatization, and
//! TF-IDF fitting/transforming on realistic syslog text.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use datagen::{generate_corpus, CorpusConfig, StreamConfig, StreamGenerator};
use hetsyslog_core::{FeatureConfig, FeaturePipeline};
use std::collections::HashSet;
use textproc::{
    preprocess, tokenize, HashingVectorizer, Lemmatizer, TfidfConfig, TfidfVectorizer, Tokenizer,
};

fn messages(n: usize) -> Vec<String> {
    generate_corpus(&CorpusConfig {
        scale: 0.01,
        seed: 42,
        min_per_class: 12,
    })
    .into_iter()
    .take(n)
    .map(|m| m.text)
    .collect()
}

fn bench_tokenize(c: &mut Criterion) {
    let msgs = messages(1000);
    let total_bytes: usize = msgs.iter().map(String::len).sum();
    let mut g = c.benchmark_group("tokenize");
    g.throughput(Throughput::Bytes(total_bytes as u64));
    g.bench_function("1k_messages", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for m in &msgs {
                count += tokenize(m).len();
            }
            count
        })
    });
    g.finish();
}

fn bench_lemmatize(c: &mut Criterion) {
    let msgs = messages(1000);
    let lem = Lemmatizer::new();
    let tokens: Vec<Vec<String>> = msgs.iter().map(|m| tokenize(m)).collect();
    let n_tokens: usize = tokens.iter().map(Vec::len).sum();
    let mut g = c.benchmark_group("lemmatize");
    g.throughput(Throughput::Elements(n_tokens as u64));
    g.bench_function("1k_messages", |b| {
        b.iter(|| {
            let mut out = 0usize;
            for token in tokens.iter().flatten() {
                out += lem.lemmatize(token).len();
            }
            out
        })
    });
    g.finish();
}

fn bench_preprocess_full(c: &mut Criterion) {
    let msgs = messages(1000);
    let mut g = c.benchmark_group("preprocess_full");
    g.throughput(Throughput::Elements(msgs.len() as u64));
    g.bench_function("tokenize_stopword_lemma", |b| {
        b.iter(|| msgs.iter().map(|m| preprocess(m).len()).sum::<usize>())
    });
    g.finish();
}

fn bench_tfidf(c: &mut Criterion) {
    let msgs = messages(2000);
    let docs: Vec<Vec<String>> = msgs.iter().map(|m| preprocess(m)).collect();
    let mut g = c.benchmark_group("tfidf");
    g.throughput(Throughput::Elements(docs.len() as u64));
    g.bench_function("fit_2k_docs", |b| {
        b.iter_batched(
            || TfidfVectorizer::new(TfidfConfig::default()),
            |mut v| {
                v.fit(&docs);
                v.n_features()
            },
            BatchSize::SmallInput,
        )
    });
    let mut fitted = TfidfVectorizer::new(TfidfConfig::default());
    fitted.fit(&docs);
    g.bench_function("transform_one", |b| b.iter(|| fitted.transform(&docs[7])));
    g.finish();
}

fn bench_feature_pipeline(c: &mut Criterion) {
    let msgs = messages(1000);
    let refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
    let mut pipeline = FeaturePipeline::new(FeatureConfig::default());
    pipeline.fit(&refs);
    let mut g = c.benchmark_group("feature_pipeline");
    g.throughput(Throughput::Elements(1));
    g.bench_function("end_to_end_transform_one", |b| {
        b.iter(|| pipeline.transform("CPU 3 temperature above threshold cpu clock throttled"))
    });
    g.finish();
}

/// The property the fit-time token table helps, measured: the share of a
/// live stream's token occurrences whose raw form the training corpus
/// holds (printed per stream seed, with what the misses are), and what a
/// live-sized batch costs when every token is a hit, as the stream has
/// them, and when every token is a miss repeated throughout the batch —
/// the case the per-batch cache this table replaced served best.
fn bench_token_table(c: &mut Criterion) {
    // hsbench's model: the fixed training corpus, seed 42 at scale 0.05.
    let corpus: Vec<String> = generate_corpus(&CorpusConfig {
        scale: 0.05,
        seed: 42,
        ..CorpusConfig::default()
    })
    .into_iter()
    .map(|m| m.text)
    .collect();
    let mut pipeline = FeaturePipeline::new(FeatureConfig::default());
    pipeline.fit(&corpus);
    let tokenizer = Tokenizer::default();
    let mut table: HashSet<String> = HashSet::new();
    for text in &corpus {
        tokenizer.tokenize_each(text, |t| {
            table.insert(t.to_string());
        });
    }
    let stream = |seed: u64, n: usize| -> Vec<String> {
        let config = StreamConfig {
            seed,
            ..StreamConfig::default()
        };
        StreamGenerator::new(config)
            .take(n)
            .map(|tm| tm.message.text)
            .collect()
    };

    println!("\ngroup token_table ({} raw forms)", table.len());
    for seed in [7, 42, 99] {
        let messages = stream(seed, 20_000);
        let (mut occurrences, mut misses) = (0usize, 0usize);
        let mut missed: HashSet<String> = HashSet::new();
        for m in &messages {
            tokenizer.tokenize_each(m, |t| {
                occurrences += 1;
                if !table.contains(t) {
                    misses += 1;
                    missed.insert(t.to_string());
                }
            });
        }
        let in_vocabulary = missed
            .iter()
            .filter(|t| !pipeline.transform(t).is_empty())
            .count();
        println!(
            "  stream seed {seed}: {:.2} tokens/msg, {:.2} % of occurrences hit, \
             {:.3} misses/msg, {in_vocabulary} of {} missed forms reach the vocabulary",
            occurrences as f64 / messages.len() as f64,
            100.0 * (occurrences - misses) as f64 / occurrences as f64,
            misses as f64 / messages.len() as f64,
            missed.len(),
        );
    }

    // Eleven tokens no corpus holds (the stream's per-message count),
    // one message repeated: each of a batch's 64 × 11 occurrences is
    // resolved the slow way, where a per-batch cache resolved 11.
    let unseen = "zq17ab zq18ab zq19ab zq20ab zq21ab zq22ab zq23ab zq24ab zq25ab zq26ab zq27ab";
    let inputs: [(&str, Vec<String>); 3] = [
        ("batches_of_64/all_hit", corpus[..6400].to_vec()),
        ("batches_of_64/stream_seed_42", stream(42, 6400)),
        (
            "batches_of_64/all_miss_repeated",
            vec![unseen.to_string(); 6400],
        ),
    ];
    let mut g = c.benchmark_group("token_table");
    g.throughput(Throughput::Elements(6400));
    for (name, messages) in &inputs {
        g.bench_function(*name, |b| {
            b.iter(|| {
                messages
                    .chunks(64)
                    .map(|batch| pipeline.transform_batch_csr(batch).nnz())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

fn bench_hashing(c: &mut Criterion) {
    let msgs = messages(1000);
    let docs: Vec<Vec<String>> = msgs.iter().map(|m| preprocess(m)).collect();
    let v = HashingVectorizer::default();
    let mut g = c.benchmark_group("hashing_vectorizer");
    g.throughput(Throughput::Elements(1));
    g.bench_function("transform_one", |b| b.iter(|| v.transform(&docs[7])));
    g.finish();
}

criterion_group!(
    benches,
    bench_tokenize,
    bench_lemmatize,
    bench_preprocess_full,
    bench_tfidf,
    bench_feature_pipeline,
    bench_token_table,
    bench_hashing
);
criterion_main!(benches);
