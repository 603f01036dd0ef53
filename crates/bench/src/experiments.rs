//! Every DESIGN.md §3 experiment as a library function.
//!
//! Each function takes the shared [`ExpArgs`] (scale / seed), runs the full
//! experiment, and returns an [`ExperimentOutput`]: the machine-readable
//! JSON value (what `--json` used to emit) plus the human-readable report
//! (what the binary used to print). The per-experiment binaries in
//! `src/bin/` and the `repro` conformance runner both route through these,
//! so a golden checked by `repro --check` is byte-for-byte what the binary
//! writes.

use crate::{fmt_seconds, render_table, ExpArgs};
use datagen::corpus::target_count;
use datagen::{DriftConfig, DriftModel, StreamConfig, StreamGenerator};
use hetsyslog_core::eval::{
    evaluate_model, evaluate_suite, prepare_split, EvalConfig, ModelEvaluation,
};
use hetsyslog_core::{
    BucketBaseline, Category, FeatureConfig, FeaturePipeline, MonitorService, NoiseFilter,
    TextClassifier, TraditionalPipeline,
};
use hetsyslog_ml::{
    paper_suite, BatchClassifier, Classifier, ComplementNaiveBayes, ComplementNbConfig, Dataset,
    LinearSvc, LinearSvcConfig, LogisticRegression, LogisticRegressionConfig, NearestCentroid,
    RandomForest, RandomForestConfig, RidgeClassifier, RidgeConfig, SgdClassifier, SgdConfig,
};
use llmsim::{GenerativeLlmClassifier, ModelPreset, PromptBuilder, ZeroShotLlmClassifier};
use logpipeline::{ListenerConfig, LogStore, SyslogListener};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use textproc::{CsrMatrix, HashingVectorizer, SparseVec, TfidfConfig};

/// One experiment's results: the JSON value the conformance goldens pin,
/// and the human-readable console report.
pub struct ExperimentOutput {
    /// Machine-readable result (serialized canonically by `write_json`).
    pub value: Value,
    /// The report the experiment binary prints.
    pub report: String,
}

// ---------------------------------------------------------------- Table 1

/// Table 1 — top TF-IDF tokens per category.
pub fn table1(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Table 1 reproduction: top TF-IDF tokens per category ({} messages, scale {})\n",
        corpus.len(),
        args.scale
    );

    let mut pipeline = FeaturePipeline::new(FeatureConfig::default());
    let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
    pipeline.fit(&messages);
    let table1 = pipeline.table1(&corpus, 5);

    let rows: Vec<Vec<String>> = table1
        .iter()
        .map(|ct| {
            vec![
                ct.category.clone(),
                ct.tokens
                    .iter()
                    .map(|(t, _)| t.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            ]
        })
        .collect();
    let _ = writeln!(r, "{}", render_table(&["Category", "Top Tokens"], &rows));

    let _ = writeln!(r, "Paper's Table 1 for comparison:");
    let _ = writeln!(
        r,
        "  Thermal Issue : processor, throttled, sensor, cpu, temperature"
    );
    let _ = writeln!(
        r,
        "  SSH Connection: closed, preauth, connection, port, user"
    );
    let _ = writeln!(r, "  USB Device    : usb, device, hub, number, new");
    let _ = writeln!(
        r,
        "  (the shape to check: category-discriminative vocabulary, not shared words)"
    );

    let value = serde_json::json!({
        "experiment": "table1",
        "scale": args.scale,
        "seed": args.seed,
        "n_messages": corpus.len(),
        "vocab_signature": format!("{:016x}", pipeline.vocab_signature()),
        "categories": table1.iter().map(|ct| {
            serde_json::json!({
                "category": ct.category,
                "tokens": ct.tokens.iter().map(|(t, s)| serde_json::json!({"token": t, "score": s})).collect::<Vec<_>>(),
            })
        }).collect::<Vec<_>>(),
    });
    ExperimentOutput { value, report: r }
}

// ---------------------------------------------------------------- Table 2

/// Table 2 — dataset composition and bucket-exemplar economy.
pub fn table2(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Table 2 reproduction: dataset composition (scale {}, {} unique messages)\n",
        args.scale,
        corpus.len()
    );

    let config = args.corpus_config();
    let rows: Vec<Vec<String>> = Category::ALL
        .iter()
        .map(|&c| {
            let count = corpus.iter().filter(|(_, cat)| *cat == c).count();
            vec![
                c.label().to_string(),
                count.to_string(),
                c.paper_count().to_string(),
                format!("{}", target_count(c, &config)),
            ]
        })
        .collect();
    let _ = writeln!(
        r,
        "{}",
        render_table(&["Category", "Ours", "Paper (scale 1.0)", "Target"], &rows)
    );

    let baseline = BucketBaseline::train(7, &corpus);
    let ratio = corpus.len() as f64 / baseline.n_buckets() as f64;
    let _ = writeln!(
        r,
        "Bucket economy at threshold 7: {} buckets cover {} messages ({ratio:.1} messages/exemplar).",
        baseline.n_buckets(),
        corpus.len(),
    );
    let _ = writeln!(
        r,
        "Paper: 3 415 exemplars for ~196k messages (57.5 messages/exemplar)."
    );

    let value = serde_json::json!({
        "experiment": "table2",
        "scale": args.scale,
        "seed": args.seed,
        "total": corpus.len(),
        "counts": Category::ALL.iter().map(|&c| serde_json::json!({
            "category": c.label(),
            "ours": corpus.iter().filter(|(_, cat)| *cat == c).count(),
            "paper": c.paper_count(),
        })).collect::<Vec<_>>(),
        "buckets": baseline.n_buckets(),
        "messages_per_exemplar": ratio,
    });
    ExperimentOutput { value, report: r }
}

// ---------------------------------------------------------------- Figure 2

/// Figure 2 — the Linear SVC confusion matrix.
pub fn fig2(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Figure 2 reproduction: Linear SVC confusion matrix ({} messages, scale {})\n",
        corpus.len(),
        args.scale
    );

    let config = EvalConfig {
        seed: args.seed,
        ..EvalConfig::default()
    };
    let split = prepare_split(&corpus, &config);
    let mut model = LinearSvc::new(LinearSvcConfig::default());
    let eval = evaluate_model(&mut model, &split);

    let _ = writeln!(r, "{}", eval.confusion);
    let _ = writeln!(r, "{}", eval.confusion.classification_report());
    let _ = writeln!(
        r,
        "weighted F1 = {:.6}, accuracy = {:.6}",
        eval.report.weighted_f1, eval.report.accuracy
    );
    match eval.confusion.most_confused() {
        Some((t, p, n)) => {
            let names = eval.confusion.class_names();
            let _ = writeln!(
                r,
                "most confused: {n} × true '{}' predicted as '{}'",
                names[t], names[p]
            );
            let unimp = Category::Unimportant.index();
            if t == unimp || p == unimp {
                let _ = writeln!(
                    r,
                    "⇒ matches the paper: 'Unimportant' is the troublesome category"
                );
            }
        }
        None => {
            let _ = writeln!(r, "no misclassifications at this scale");
        }
    }

    let names = eval.confusion.class_names().to_vec();
    let value = serde_json::json!({
        "experiment": "fig2",
        "scale": args.scale,
        "seed": args.seed,
        "split": split.signature(),
        "class_names": names,
        "matrix": eval.confusion.rows(),
        "weighted_f1": eval.report.weighted_f1,
        "most_confused": eval.confusion.most_confused().map(|(t, p, n)| serde_json::json!({
            "true": eval.confusion.class_names()[t],
            "predicted": eval.confusion.class_names()[p],
            "count": n,
        })),
    });
    ExperimentOutput { value, report: r }
}

// ---------------------------------------------------------------- Figure 3

/// Figure 3 — the eight traditional classifiers (`drop_unimportant` runs
/// the §5.1 ablation).
pub fn fig3(args: &ExpArgs, drop_unimportant: bool) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Figure 3 reproduction: traditional classifiers with TF-IDF preprocessing\n\
         ({} messages, scale {}, drop_unimportant={})\n",
        corpus.len(),
        args.scale,
        drop_unimportant
    );

    let config = EvalConfig {
        seed: args.seed,
        drop_unimportant,
        ..EvalConfig::default()
    };
    let mut models = paper_suite(args.seed);
    let (split, evals) = evaluate_suite(&corpus, &mut models, &config);
    let _ = writeln!(
        r,
        "split: {} train / {} test, {} features (preprocess {})\n",
        split.train.len(),
        split.test.len(),
        split.train.n_features(),
        fmt_seconds(split.preprocess_seconds)
    );

    let rows: Vec<Vec<String>> = evals
        .iter()
        .map(|e| {
            vec![
                e.report.model.clone(),
                format!("{:.6}", e.report.weighted_f1),
                fmt_seconds(e.report.train_seconds),
                fmt_seconds(e.report.test_seconds),
            ]
        })
        .collect();
    let _ = writeln!(
        r,
        "{}",
        render_table(
            &["Classifier", "Weighted F1", "Training Time", "Testing Time"],
            &rows
        )
    );

    let _ = writeln!(r, "Paper's Figure 3 shape checks, measured on this run:");
    let lowest = evals
        .iter()
        .min_by(|a, b| a.report.weighted_f1.total_cmp(&b.report.weighted_f1))
        .expect("paper_suite is not empty");
    let _ = writeln!(
        r,
        "  - every model's weighted F1 > 0.95 (paper: 0.9523..0.9995): {} \
         (lowest: {} at {:.6})",
        verdict(lowest.report.weighted_f1 > 0.95),
        lowest.report.model,
        lowest.report.weighted_f1
    );
    for (model, training, slowest, what) in [
        ("kNN", true, false, "fastest training"),
        ("kNN", false, true, "slowest testing"),
        ("Linear SVC", true, true, "slowest training"),
        ("Complement Naive Bayes", false, false, "fastest testing"),
    ] {
        let seconds = |e: &ModelEvaluation| {
            if training {
                e.report.train_seconds
            } else {
                e.report.test_seconds
            }
        };
        let mine = evals.iter().find(|e| e.report.model == model);
        let rival = evals
            .iter()
            .filter(|e| e.report.model != model)
            .reduce(|a, b| {
                if (seconds(b) > seconds(a)) == slowest {
                    b
                } else {
                    a
                }
            });
        if let (Some(mine), Some(rival)) = (mine, rival) {
            let (m, o) = (seconds(mine), seconds(rival));
            let _ = writeln!(
                r,
                "  - {model}: {what}: {} ({} vs {} {}, ratio {:.2})",
                verdict(if slowest { m > o } else { m < o }),
                fmt_seconds(m),
                rival.report.model,
                fmt_seconds(o),
                m / o.max(f64::MIN_POSITIVE)
            );
        }
    }
    if drop_unimportant {
        // The ablation's claims compare against the full taxonomy, so the
        // same suite runs once more with Unimportant kept.
        let full = EvalConfig {
            drop_unimportant: false,
            ..config
        };
        let (_, kept) = evaluate_suite(&corpus, &mut paper_suite(args.seed), &full);
        let pairs: Vec<(&ModelEvaluation, &ModelEvaluation)> = kept.iter().zip(&evals).collect();
        let rise = |(k, d): &(&ModelEvaluation, &ModelEvaluation)| {
            d.report.weighted_f1 - k.report.weighted_f1
        };
        if let Some(least) = pairs.iter().min_by(|a, b| rise(a).total_cmp(&rise(b))) {
            let _ = writeln!(
                r,
                "  - ablation: every weighted F1 rises: {} (smallest rise: {} {:.6} -> {:.6})",
                verdict(rise(least) > 0.0),
                least.0.report.model,
                least.0.report.weighted_f1,
                least.1.report.weighted_f1
            );
        }
        if let Some((k, d)) = pairs.iter().find(|(k, _)| k.report.model == "Linear SVC") {
            let (before, after) = (k.report.train_seconds, d.report.train_seconds);
            let _ = writeln!(
                r,
                "  - ablation: Linear SVC training collapses (paper: 211.78 s -> 2.21 s): {} \
                 ({} -> {}, ratio {:.2})",
                verdict(after < before),
                fmt_seconds(before),
                fmt_seconds(after),
                before / after.max(f64::MIN_POSITIVE)
            );
        }
    }

    let value = serde_json::json!({
        "experiment": if drop_unimportant { "fig3_drop_unimportant" } else { "fig3" },
        "scale": args.scale,
        "seed": args.seed,
        "split": split.signature(),
        "n_train": split.train.len(),
        "n_test": split.test.len(),
        "n_features": split.train.n_features(),
        "rows": evals.iter().map(|e| serde_json::json!({
            "model": e.report.model,
            "weighted_f1": e.report.weighted_f1,
            "macro_f1": e.report.macro_f1,
            "accuracy": e.report.accuracy,
            "train_seconds": e.report.train_seconds,
            "test_seconds": e.report.test_seconds,
            "messages_per_hour": e.report.messages_per_hour(),
        })).collect::<Vec<_>>(),
    });
    ExperimentOutput { value, report: r }
}

fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "does not hold"
    }
}

// ---------------------------------------------------------------- Table 3

/// Evaluate an LLM classifier over a message sample; returns
/// (accuracy, mean virtual seconds, messages/hour).
fn eval_llm(
    clf: &dyn TextClassifier,
    sample: &[(String, Category)],
    mean_seconds: impl Fn() -> f64,
) -> (f64, f64, f64) {
    let correct = sample
        .iter()
        .filter(|(m, c)| clf.classify(m).category == *c)
        .count();
    let accuracy = correct as f64 / sample.len().max(1) as f64;
    let mean = mean_seconds();
    (accuracy, mean, 3600.0 / mean.max(1e-9))
}

/// Table 3 — LLM inference cost, failure modes, and the `max_new_tokens`
/// mitigation.
pub fn table3(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x7ab1e3);
    let mut shuffled: Vec<(String, Category)> = corpus.clone();
    shuffled.shuffle(&mut rng);
    let n_sample = shuffled.len().min(400);
    let sample = &shuffled[..n_sample];
    let _ = writeln!(
        r,
        "Table 3 reproduction: LLM classification cost ({} training messages, {} sampled test messages)\n",
        corpus.len(),
        n_sample
    );

    let mut pipeline = FeaturePipeline::new(FeatureConfig::default());
    let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
    pipeline.fit(&messages);
    let top_words: Vec<Vec<String>> = pipeline
        .table1(&corpus, 5)
        .into_iter()
        .map(|ct| ct.tokens.into_iter().map(|(t, _)| t).collect())
        .collect();
    let prompt = PromptBuilder::new().with_top_words(top_words);

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    for preset in [ModelPreset::falcon_7b(), ModelPreset::falcon_40b()] {
        let name = preset.name;
        let clf =
            GenerativeLlmClassifier::new(preset, &corpus, prompt.clone(), Some(24), args.seed);
        let (acc, mean_s, mph) = eval_llm(&clf, sample, || clf.mean_inference_seconds());
        let counters = clf.counters();
        rows.push(vec![
            name.to_string(),
            format!("{mean_s:.3}"),
            format!("{mph:.0}"),
            format!("{acc:.3}"),
            format!(
                "novel={} truncated={}",
                counters.novel_category, counters.truncated
            ),
        ]);
        json_rows.push(serde_json::json!({
            "model": name,
            "inference_seconds": mean_s,
            "messages_per_hour": mph,
            "accuracy": acc,
            "novel_category": counters.novel_category,
            "truncated": counters.truncated,
            "total": counters.total,
        }));
    }

    let zs = ZeroShotLlmClassifier::new(&corpus);
    let (acc, mean_s, mph) = eval_llm(&zs, sample, || zs.mean_inference_seconds());
    rows.push(vec![
        zs.name(),
        format!("{mean_s:.5}"),
        format!("{mph:.0}"),
        format!("{acc:.3}"),
        "always in-taxonomy".to_string(),
    ]);
    json_rows.push(serde_json::json!({
        "model": zs.name(),
        "inference_seconds": mean_s,
        "messages_per_hour": mph,
        "accuracy": acc,
    }));

    let _ = writeln!(
        r,
        "{}",
        render_table(
            &[
                "Model",
                "Inference (s/msg)",
                "Messages/hour",
                "Accuracy",
                "Failure modes"
            ],
            &rows
        )
    );
    let _ = writeln!(r, "Paper's Table 3: Falcon-7b 0.639s (5 633/h) · Falcon-40b 2.184s (1 648/h) · BART-MNLI 0.134s (26 948/h)");
    let _ = writeln!(
        r,
        "Shape: zero-shot ≫ 7b ≫ 40b in throughput; all orders of magnitude below the"
    );
    let _ = writeln!(
        r,
        "traditional models (fig3) and below Darwin's >1M msgs/hour ingest rate."
    );

    let unbounded = GenerativeLlmClassifier::new(
        ModelPreset::falcon_7b(),
        &corpus,
        prompt.clone(),
        None,
        args.seed,
    );
    for (m, _) in sample.iter().take(100) {
        let _ = unbounded.classify(m);
    }
    let capped = GenerativeLlmClassifier::new(
        ModelPreset::falcon_7b(),
        &corpus,
        prompt,
        Some(24),
        args.seed,
    );
    for (m, _) in sample.iter().take(100) {
        let _ = capped.classify(m);
    }
    let _ = writeln!(
        r,
        "\nmax_new_tokens mitigation (Falcon-7b, 100 msgs): unbounded {:.2} virtual s, capped {:.2} virtual s",
        unbounded.virtual_seconds(),
        capped.virtual_seconds()
    );

    use llmsim::latency::{LatencyModel, PAPER_GENERATED_TOKENS, PAPER_PROMPT_TOKENS};
    let _ = writeln!(
        r,
        "\nbatched-serving extrapolation (msgs/hour at batch size b):"
    );
    for (name, model) in [
        ("Falcon-7b", LatencyModel::falcon_7b()),
        ("Falcon-40b", LatencyModel::falcon_40b()),
    ] {
        let mph = |b: usize| {
            3600.0
                / model.batched_seconds_per_message(b, PAPER_PROMPT_TOKENS, PAPER_GENERATED_TOKENS)
        };
        let _ = writeln!(
            r,
            "  {name:<11} b=1: {:>7.0}  b=8: {:>7.0}  b=64: {:>7.0}  b=1024: {:>7.0}   (need >1,000,000)",
            mph(1), mph(8), mph(64), mph(1024)
        );
    }
    let _ = writeln!(
        r,
        "  even a saturated ~12x batching speedup leaves both models an order of magnitude short."
    );

    let value = serde_json::json!({
        "experiment": "table3",
        "scale": args.scale,
        "seed": args.seed,
        "n_sample": n_sample,
        "rows": json_rows,
        "max_new_tokens_ablation": {
            "unbounded_virtual_seconds": unbounded.virtual_seconds(),
            "capped_virtual_seconds": capped.virtual_seconds(),
        },
    });
    ExperimentOutput { value, report: r }
}

// ---------------------------------------------------------------- X1 drift

fn stream_accuracy(clf: &dyn TextClassifier, data: &[(String, Category)]) -> f64 {
    let texts: Vec<&str> = data.iter().map(|(m, _)| m.as_str()).collect();
    let preds = clf.classify_batch(&texts);
    let correct = preds
        .iter()
        .zip(data)
        .filter(|(p, (_, c))| p.category == *c)
        .count();
    correct as f64 / data.len().max(1) as f64
}

/// Experiment X1 — firmware drift vs. classifiers.
pub fn xp_drift(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Experiment X1: firmware drift vs. classifiers ({} messages, scale {})\n",
        corpus.len(),
        args.scale
    );

    let mut drift = DriftModel::new(DriftConfig {
        seed: args.seed ^ 0xd41f7,
        ..DriftConfig::default()
    });
    let drifted: Vec<(String, Category)> =
        corpus.iter().map(|(m, c)| (drift.mutate(m), *c)).collect();

    let bucket = BucketBaseline::train(7, &corpus);
    let buckets_before = bucket.n_buckets();
    let bucket_acc_before = stream_accuracy(&bucket, &corpus);
    let bucket_acc_after = stream_accuracy(&bucket, &drifted);
    let orphaned = drifted
        .iter()
        .filter(|(m, _)| bucket.find(m).is_none())
        .count();
    let orphan_rate = orphaned as f64 / drifted.len() as f64;

    let tfidf = TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
        &corpus,
    );
    let tfidf_acc_before = stream_accuracy(&tfidf, &corpus);
    let tfidf_acc_after = stream_accuracy(&tfidf, &drifted);

    let rows = vec![
        vec![
            bucket.name(),
            format!("{bucket_acc_before:.4}"),
            format!("{bucket_acc_after:.4}"),
            format!("{:.1}%", orphan_rate * 100.0),
        ],
        vec![
            tfidf.name(),
            format!("{tfidf_acc_before:.4}"),
            format!("{tfidf_acc_after:.4}"),
            "0.0% (no exemplars)".to_string(),
        ],
    ];
    let _ = writeln!(
        r,
        "{}",
        render_table(
            &[
                "Classifier",
                "Accuracy pre-drift",
                "Accuracy post-drift",
                "Orphaned msgs"
            ],
            &rows
        )
    );
    let _ = writeln!(
        r,
        "bucket store: {} exemplars pre-drift; {orphaned} of {} drifted messages would found NEW buckets",
        buckets_before,
        drifted.len()
    );
    let _ = writeln!(
        r,
        "shape to check: TF-IDF degrades far less than bucketing, whose orphan rate IS the"
    );
    let _ = writeln!(r, "retraining burden the paper complains about.");

    assert!(
        tfidf_acc_after >= bucket_acc_after,
        "shape violation: TF-IDF should survive drift better than bucketing"
    );

    let value = serde_json::json!({
        "experiment": "xp_drift",
        "scale": args.scale,
        "seed": args.seed,
        "bucket": {
            "name": bucket.name(),
            "exemplars": buckets_before,
            "accuracy_before": bucket_acc_before,
            "accuracy_after": bucket_acc_after,
            "orphaned": orphaned,
            "orphan_rate": orphan_rate,
        },
        "tfidf": {
            "name": tfidf.name(),
            "accuracy_before": tfidf_acc_before,
            "accuracy_after": tfidf_acc_after,
        },
    });
    ExperimentOutput { value, report: r }
}

// ---------------------------------------------------------------- X2 throughput

/// The linear-family suite for the batch-vs-scalar comparison. Linear SVC
/// gets a reduced epoch budget — its dual coordinate descent is the
/// paper's slowest trainer and this experiment measures inference, not
/// training.
fn linear_suite(seed: u64) -> Vec<(&'static str, Box<dyn BatchClassifier>)> {
    vec![
        (
            "Logistic Regression",
            Box::new(LogisticRegression::new(LogisticRegressionConfig::default())),
        ),
        (
            "Ridge Classifier",
            Box::new(RidgeClassifier::new(RidgeConfig::default())),
        ),
        (
            "Linear SVC",
            Box::new(LinearSvc::new(LinearSvcConfig {
                max_epochs: 200,
                tolerance: 1e-3,
                ..LinearSvcConfig::default()
            })),
        ),
        (
            "Log-loss SGD",
            Box::new(SgdClassifier::new(SgdConfig {
                seed,
                ..SgdConfig::default()
            })),
        ),
        ("Nearest Centroid", Box::new(NearestCentroid::new())),
        (
            "Complement Naive Bayes",
            Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
        ),
    ]
}

/// Result of the loopback listener run: final counters plus wall time.
struct ListenerBench {
    connections: usize,
    report: hetsyslog_core::IngestSnapshot,
    seconds: f64,
}

impl ListenerBench {
    fn msgs_per_sec(&self) -> f64 {
        self.report.ingested as f64 / self.seconds
    }
}

/// Push `frames` through the loopback TCP listener over 4 concurrent
/// octet-counted connections and report sustained wire-to-store ingest.
fn bench_listener(frames: &[String]) -> ListenerBench {
    const CONNECTIONS: usize = 4;
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store.clone(),
        None,
        ListenerConfig {
            workers: 4,
            queue_depth: 4096,
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = listener.tcp_addr();

    let started = Instant::now();
    let senders: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let shard: Vec<String> = frames
                .iter()
                .skip(c)
                .step_by(CONNECTIONS)
                .cloned()
                .collect();
            std::thread::spawn(move || {
                let mut sock = std::net::TcpStream::connect(addr).expect("connect");
                let mut wire = Vec::with_capacity(shard.iter().map(|f| f.len() + 8).sum());
                for frame in &shard {
                    wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
                }
                sock.write_all(&wire).expect("write");
            })
        })
        .collect();
    for sender in senders {
        sender.join().expect("sender thread");
    }
    let expected = frames.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while listener.stats().snapshot().ingested + listener.stats().snapshot().parse_errors < expected
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let seconds = started.elapsed().as_secs_f64();
    let report = listener.shutdown();
    ListenerBench {
        connections: CONNECTIONS,
        report,
        seconds,
    }
}

/// One timed pass of the [`observability_overhead`] gate: stream the
/// prebuilt wire buffers over concurrent TCP connections into a listener
/// with a classifier attached, wait for full ingest, and return the
/// seconds it took. Panics unless every one of `expected` frames was
/// ingested, so an arm that stalls is a failure rather than a timing.
fn live_batch_run(
    wires: &[Vec<u8>],
    expected: u64,
    clf: Arc<dyn TextClassifier>,
    instrumented: bool,
) -> f64 {
    // Each run gets its own store and service; the instrumented arm builds
    // them on the telemetry registry so their series export. The trained
    // classifier is shared and keeps its own instruments either way.
    let telemetry = instrumented.then(obs::Telemetry::new_arc);
    let mut store = LogStore::new();
    let mut service = MonitorService::new(clf);
    if let Some(t) = &telemetry {
        store = store.with_registry(&t.registry);
        service = service.with_registry(&t.registry);
    }
    let listener = SyslogListener::start(
        Arc::new(store),
        Some(Arc::new(service)),
        ListenerConfig {
            queue_depth: 4096,
            // The overhead gate's "instrumented" arm: the same instruments
            // exported on a shared registry, batch spans, the scrape
            // endpoint up (nobody scraping), the flight-recorder sampler
            // ticking at its default cadence, and a representative alert
            // rule evaluated on every sample.
            telemetry,
            serve_metrics: instrumented,
            record_flight: instrumented,
            alert_rules: if instrumented {
                vec![obs::Rule::threshold(
                    "ingest_stall",
                    "hetsyslog_ingest_frames_total",
                    obs::RuleInput::Rate,
                    obs::Cmp::Lt,
                    1.0,
                )
                .over_ms(2_000)
                .for_ms(1_000)]
            } else {
                Vec::new()
            },
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = listener.tcp_addr();

    let started = Instant::now();
    let senders: Vec<_> = wires
        .iter()
        .map(|wire| {
            let wire = wire.clone();
            std::thread::spawn(move || {
                let mut sock = std::net::TcpStream::connect(addr).expect("connect");
                sock.write_all(&wire).expect("write");
            })
        })
        .collect();
    for sender in senders {
        sender.join().expect("sender thread");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while listener.stats().snapshot().ingested < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let seconds = started.elapsed().as_secs_f64();
    let report = listener.shutdown();
    assert_eq!(report.ingested, expected, "lossless under Block");
    seconds
}

/// Experiment X2 — end-to-end pipeline throughput per technique, the batch
/// CSR vs scalar comparison, and the loopback-listener ingest benchmark.
pub fn xp_throughput(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let n_frames = (30_000.0 * (args.scale / 0.05).clamp(0.2, 10.0)) as usize;
    let frames: Vec<String> = StreamGenerator::new(StreamConfig {
        seed: args.seed,
        ..StreamConfig::default()
    })
    .take(n_frames)
    .map(|t| t.to_frame())
    .collect();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Experiment X2: end-to-end classified-ingest throughput ({} frames, {} training messages)\n",
        frames.len(),
        corpus.len()
    );

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    let traditional: Vec<(&str, Box<dyn TextClassifier>)> = vec![
        (
            "TF-IDF + Complement NB",
            Box::new(TraditionalPipeline::train(
                FeatureConfig::default(),
                Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
                &corpus,
            )),
        ),
        (
            "TF-IDF + Random Forest",
            Box::new(TraditionalPipeline::train(
                FeatureConfig::default(),
                Box::new(RandomForest::new(RandomForestConfig {
                    seed: args.seed,
                    n_trees: 20,
                    ..RandomForestConfig::default()
                })),
                &corpus,
            )),
        ),
    ];
    for (label, clf) in traditional {
        // Timed from listener start to the end of its graceful drain.
        let started = Instant::now();
        let listener = SyslogListener::start(
            Arc::new(LogStore::new()),
            Some(Arc::new(MonitorService::new(Arc::from(clf)))),
            ListenerConfig {
                workers: 4,
                ..ListenerConfig::default()
            },
        )
        .expect("bind loopback listener");
        listener.feed(frames.iter().cloned());
        let report = listener.shutdown();
        let seconds = started.elapsed().as_secs_f64();
        let mph = report.ingested as f64 / seconds * 3600.0;
        rows.push(vec![
            label.to_string(),
            format!("{seconds:.1}"),
            format!("{mph:.0}"),
            "measured wall time".to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "technique": label,
            "seconds": seconds,
            "messages_per_hour": mph,
            "kind": "measured",
        }));
    }

    let sample: Vec<&str> = frames.iter().take(300).map(|s| s.as_str()).collect();
    let prompt = PromptBuilder::new();
    for preset in [ModelPreset::falcon_7b(), ModelPreset::falcon_40b()] {
        let name = preset.name;
        let clf =
            GenerativeLlmClassifier::new(preset, &corpus, prompt.clone(), Some(24), args.seed);
        for m in &sample {
            let _ = clf.classify(m);
        }
        let mean = clf.mean_inference_seconds();
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", mean * frames.len() as f64),
            format!("{:.0}", 3600.0 / mean),
            "modeled 4xA100 time".to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "technique": name,
            "seconds": mean * frames.len() as f64,
            "messages_per_hour": 3600.0 / mean,
            "kind": "modeled",
        }));
    }
    let zs = ZeroShotLlmClassifier::new(&corpus);
    for m in &sample {
        let _ = zs.classify(m);
    }
    let mean = zs.mean_inference_seconds();
    rows.push(vec![
        zs.name(),
        format!("{:.1}", mean * frames.len() as f64),
        format!("{:.0}", 3600.0 / mean),
        "modeled 4xA100 time".to_string(),
    ]);
    json_rows.push(serde_json::json!({
        "technique": zs.name(),
        "seconds": mean * frames.len() as f64,
        "messages_per_hour": 3600.0 / mean,
        "kind": "modeled",
    }));

    let _ = writeln!(
        r,
        "{}",
        render_table(
            &["Technique", "Time for stream (s)", "Messages/hour", "Basis"],
            &rows
        )
    );
    let _ = writeln!(
        r,
        "Darwin's load: >1,000,000 messages/hour. Shape to check: traditional models clear"
    );
    let _ = writeln!(
        r,
        "it comfortably; every LLM falls one to three orders of magnitude short (the"
    );
    let _ = writeln!(r, "paper's central conclusion).");

    let bench_msgs: Vec<&str> = frames.iter().take(20_000).map(|s| s.as_str()).collect();
    let _ = writeln!(
        r,
        "\nBatch CSR vs scalar ingest over {} messages per linear classifier:\n",
        bench_msgs.len()
    );
    let mut batch_rows = Vec::new();
    let mut batch_json = Vec::new();
    for (label, model) in linear_suite(args.seed) {
        let clf: Arc<dyn TextClassifier> = Arc::new(TraditionalPipeline::train(
            FeatureConfig::default(),
            model,
            &corpus,
        ));
        let scalar_svc = MonitorService::new(clf.clone());
        let t0 = Instant::now();
        let scalar_preds: Vec<_> = bench_msgs.iter().map(|m| scalar_svc.ingest(m)).collect();
        let scalar_seconds = t0.elapsed().as_secs_f64();

        let batch_svc = MonitorService::new(clf);
        let t1 = Instant::now();
        let batch_preds = batch_svc.ingest_batch(&bench_msgs);
        let batch_seconds = t1.elapsed().as_secs_f64();

        let agree = scalar_preds
            .iter()
            .zip(&batch_preds)
            .all(|(a, b)| a.category == b.category);
        let scalar_rate = bench_msgs.len() as f64 / scalar_seconds;
        let batch_rate = bench_msgs.len() as f64 / batch_seconds;
        batch_rows.push(vec![
            label.to_string(),
            format!("{scalar_rate:.0}"),
            format!("{batch_rate:.0}"),
            format!("{:.1}x", batch_rate / scalar_rate),
            if agree {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
        batch_json.push(serde_json::json!({
            "model": label,
            "scalar_msgs_per_sec": scalar_rate,
            "batch_msgs_per_sec": batch_rate,
            "speedup": batch_rate / scalar_rate,
            "predictions_agree": agree,
        }));
    }
    let _ = writeln!(
        r,
        "{}",
        render_table(
            &["Model", "Scalar msg/s", "Batch msg/s", "Speedup", "Agree"],
            &batch_rows
        )
    );

    let listener = bench_listener(&frames.iter().take(20_000).cloned().collect::<Vec<_>>());
    let _ = writeln!(
        r,
        "\nLoopback listener ingest: {:.0} msg/s over {} TCP connections ({} frames, {} drops)",
        listener.msgs_per_sec(),
        listener.connections,
        listener.report.frames,
        listener.report.total_dropped(),
    );
    let listener_json = serde_json::json!({
        "connections": listener.connections,
        "frames": listener.report.frames,
        "ingested": listener.report.ingested,
        "dropped": listener.report.total_dropped(),
        "bytes": listener.report.bytes,
        "seconds": listener.seconds,
        "msgs_per_sec": listener.msgs_per_sec(),
    });

    let value = serde_json::json!({
        "experiment": "xp_throughput",
        "scale": args.scale,
        "seed": args.seed,
        "n_frames": frames.len(),
        "rows": json_rows,
        "batch_vs_scalar": {
            "n_messages": bench_msgs.len(),
            "classifiers": batch_json,
        },
        "listener": listener_json,
    });
    ExperimentOutput { value, report: r }
}

/// The telemetry overhead A/B: the live micro-batched listener path at its
/// default `max_batch`. Both arms record the same instruments on the same
/// hot path; the instrumented arm adds what a scraped deployment adds —
/// export on a shared registry, batch spans, the scrape endpoint, the
/// flight-recorder sampler and one alert rule evaluated per sample. Each
/// run builds its own store and service; the trained classifier is shared
/// and nothing mutates it between arms. Read by the release-mode
/// `overhead_gate` test; deliberately NOT part of [`xp_throughput`]'s
/// conformance value, so goldens never see timings.
///
/// The gate is `ratio >= 0.95`: instrumentation may cost at most 5% of
/// uninstrumented throughput.
pub fn observability_overhead(args: &ExpArgs) -> Value {
    let corpus = args.corpus();
    let n_frames = (20_000.0 * (args.scale / 0.05).clamp(0.2, 10.0)) as usize;
    let frames: Vec<String> = StreamGenerator::new(StreamConfig {
        seed: args.seed,
        ..StreamConfig::default()
    })
    .take(n_frames)
    .map(|t| t.to_frame())
    .collect();
    let clf: Arc<dyn TextClassifier> = Arc::new(TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
        &corpus,
    ));
    // Interleave the arms round by round (detached, instrumented, detached,
    // ...) and keep the best run per arm. Back-to-back best-of-N blocks see
    // different machine conditions minutes apart; interleaving exposes both
    // arms to the same interference, so the ratio measures instrumentation
    // rather than scheduler drift.
    const CONNECTIONS: usize = 4;
    const PASSES: usize = 3;
    const ROUNDS: usize = 4;
    let wires: Vec<Vec<u8>> = (0..CONNECTIONS)
        .map(|c| {
            let mut wire = Vec::new();
            for frame in frames.iter().skip(c).step_by(CONNECTIONS) {
                wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
            }
            wire.repeat(PASSES)
        })
        .collect();
    let expected = (frames.len() * PASSES) as u64;
    let mut detached = f64::MAX;
    let mut instrumented = f64::MAX;
    for _ in 0..ROUNDS {
        detached = detached.min(live_batch_run(&wires, expected, clf.clone(), false));
        instrumented = instrumented.min(live_batch_run(&wires, expected, clf.clone(), true));
    }
    let msgs_per_sec = |seconds: f64| expected as f64 / seconds;
    serde_json::json!({
        "n_messages": frames.len(),
        "uninstrumented_msgs_per_sec": msgs_per_sec(detached),
        "instrumented_msgs_per_sec": msgs_per_sec(instrumented),
        "ratio": detached / instrumented,
        "gate": "instrumented >= 0.95 * uninstrumented",
    })
}

/// The template-mining columnar store sweep: seal a datagen stream into
/// columnar segments and measure the compression ratio against the hot
/// tier's at-rest JSONL bytes, plus the template-native query speedup
/// (header-served [`LogStore::count_by_template`] vs a raw full scan
/// that decodes every row). Read by the release-mode `columnar_gate`
/// test, which also writes it to `target/columnar_sweep.json`;
/// deliberately NOT part of any conformance value, so goldens never see
/// timings or byte counts.
///
/// The gate is `compression_ratio >= 5.0` on the datagen corpus.
pub fn columnar_store(args: &ExpArgs) -> Value {
    let n = (30_000.0 * (args.scale / 0.05).clamp(0.2, 10.0)) as usize;
    let records: Vec<logpipeline::LogRecord> = StreamGenerator::new(StreamConfig {
        seed: args.seed,
        ..StreamConfig::default()
    })
    .take(n)
    .enumerate()
    .map(|(i, t)| logpipeline::LogRecord {
        id: i as u64,
        unix_seconds: t.unix_seconds,
        node: t.message.node.clone(),
        app: t.message.app.clone(),
        severity: if t.message.category.is_actionable() {
            syslog_model::Severity::Warning
        } else {
            syslog_model::Severity::Informational
        },
        facility: syslog_model::Facility::Daemon,
        message: t.message.text,
        category: Some(t.message.category),
    })
    .collect();

    let store = LogStore::new();
    store.insert_batch(records.iter().cloned());
    // The hot tier's at-rest format is the JSONL snapshot; that is the
    // denominator a columnar tier has to beat.
    let mut jsonl = Vec::new();
    let exported = store.export_jsonl(&mut jsonl).expect("in-memory export");
    assert_eq!(exported as usize, records.len());
    let raw_bytes = jsonl.len() as u64;

    let seal_start = Instant::now();
    let sealed_rows = store.seal_all();
    let seal_seconds = seal_start.elapsed().as_secs_f64();
    assert_eq!(sealed_rows as usize, records.len());
    let stats = store.segment_stats();

    // Losslessness check: sealing must not change what queries see.
    let decoded = store.search(i64::MIN, i64::MAX, &[]);
    assert_eq!(decoded.len(), records.len(), "sealed scan lost rows");

    // Query arms, best-of-3 each. The fast arm answers from segment
    // headers; the raw arm decodes every row like a pre-columnar scan.
    let mut fast_us = f64::MAX;
    let mut raw_us = f64::MAX;
    let mut n_templates = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        let counts = store.count_by_template(i64::MIN, i64::MAX);
        fast_us = fast_us.min(t0.elapsed().as_secs_f64() * 1e6);
        n_templates = counts.len();
        assert_eq!(counts.values().sum::<u64>() as usize, records.len());

        let t0 = Instant::now();
        let mut by_message_head: std::collections::HashMap<String, u64> =
            std::collections::HashMap::new();
        store.scan(i64::MIN, i64::MAX, &[], |r| {
            let head = r.message.split(' ').next().unwrap_or("").to_string();
            *by_message_head.entry(head).or_default() += 1;
        });
        raw_us = raw_us.min(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            by_message_head.values().sum::<u64>() as usize,
            records.len()
        );
    }
    let ratio = raw_bytes as f64 / (stats.encoded_bytes.max(1)) as f64;
    serde_json::json!({
        "n_messages": records.len(),
        "raw_jsonl_bytes": raw_bytes,
        "encoded_bytes": stats.encoded_bytes,
        "compression_ratio": ratio,
        "n_segments": store.n_segments(),
        "n_templates": n_templates,
        "seal_seconds": seal_seconds,
        "count_by_template_us": fast_us,
        "full_scan_us": raw_us,
        "query_speedup": raw_us / fast_us.max(f64::MIN_POSITIVE),
        "lossless": true,
        "gate": "compression_ratio >= 5.0 on the datagen corpus",
    })
}

// ---------------------------------------------------------------- X3 online

fn cnb_accuracy(model: &ComplementNaiveBayes, features: &[SparseVec], labels: &[usize]) -> f64 {
    let preds = model.predict_csr(&CsrMatrix::from_rows(features, 0));
    preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / labels.len().max(1) as f64
}

/// Experiment X3 — online adaptation to firmware drift.
pub fn xp_online(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Experiment X3: online adaptation to firmware drift ({} messages, scale {})\n",
        corpus.len(),
        args.scale
    );

    let config = EvalConfig {
        seed: args.seed,
        ..EvalConfig::default()
    };
    let split = prepare_split(&corpus, &config);

    let mut drift = DriftModel::new(DriftConfig {
        seed: args.seed ^ 0x0111e,
        vendor_jargon: true,
        ..DriftConfig::default()
    });
    let drifted_train_texts = drift.mutate_all(&split.train_texts);
    let drifted_test_texts = drift.mutate_all(&split.test_texts);
    let drifted_test: Vec<SparseVec> = drifted_test_texts
        .iter()
        .map(|t| split.pipeline.transform(t))
        .collect();

    let mut deployed = ComplementNaiveBayes::new(ComplementNbConfig::default());
    deployed.fit(&split.train);
    let clean_acc = cnb_accuracy(&deployed, &split.test.features, &split.test.labels);
    let static_acc = cnb_accuracy(&deployed, &drifted_test, &split.test.labels);

    let mut rows = vec![
        vec![
            "deployed model, clean test".to_string(),
            format!("{clean_acc:.4}"),
            "-".to_string(),
        ],
        vec![
            "deployed model, drifted test (no update)".to_string(),
            format!("{static_acc:.4}"),
            "0".to_string(),
        ],
    ];
    let mut json_rows = vec![
        serde_json::json!({"condition": "clean", "accuracy": clean_acc, "labels_used": 0}),
        serde_json::json!({"condition": "static_drifted", "accuracy": static_acc, "labels_used": 0}),
    ];

    for fraction in [0.02, 0.05, 0.10, 0.25] {
        let n_labeled = ((split.train.len() as f64) * fraction) as usize;
        let fresh_features: Vec<SparseVec> = drifted_train_texts[..n_labeled]
            .iter()
            .map(|t| split.pipeline.transform(t))
            .collect();
        let fresh = Dataset::new(
            fresh_features,
            split.train.labels[..n_labeled].to_vec(),
            split.train.class_names.clone(),
        );
        let mut adapted = deployed.clone();
        adapted.partial_fit(&fresh);
        let acc = cnb_accuracy(&adapted, &drifted_test, &split.test.labels);
        rows.push(vec![
            format!(
                "partial_fit on {:.0}% labeled drifted traffic",
                fraction * 100.0
            ),
            format!("{acc:.4}"),
            n_labeled.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "condition": format!("partial_fit_{fraction}"),
            "accuracy": acc,
            "labels_used": n_labeled,
        }));
    }

    let oov = |texts: &[String]| -> f64 {
        let mut known = 0usize;
        let mut total = 0usize;
        for t in texts {
            for tok in split.pipeline.preprocess(t) {
                total += 1;
                if split.pipeline.vectorizer().vocabulary().get(&tok).is_some() {
                    known += 1;
                }
            }
        }
        1.0 - known as f64 / total.max(1) as f64
    };
    let oov_clean = oov(&split.test_texts);
    let oov_drifted = oov(&drifted_test_texts);
    let _ = writeln!(
        r,
        "out-of-vocabulary token rate: {:.1}% clean test → {:.1}% drifted test\n",
        oov_clean * 100.0,
        oov_drifted * 100.0
    );

    for fraction in [0.05, 0.25] {
        let n_labeled = ((split.train.len() as f64) * fraction) as usize;
        let mut combined_texts: Vec<&str> = split.train_texts.iter().map(String::as_str).collect();
        combined_texts.extend(drifted_train_texts[..n_labeled].iter().map(String::as_str));
        let mut combined_labels = split.train.labels.clone();
        combined_labels.extend_from_slice(&split.train.labels[..n_labeled]);

        let mut refit_pipeline = FeaturePipeline::new(FeatureConfig::default());
        let combined_features = refit_pipeline.fit_transform(&combined_texts);
        let combined = Dataset::new(
            combined_features,
            combined_labels,
            split.train.class_names.clone(),
        );
        let mut refreshed = ComplementNaiveBayes::new(ComplementNbConfig::default());
        refreshed.fit(&combined);
        let refit_test: Vec<SparseVec> = drifted_test_texts
            .iter()
            .map(|t| refit_pipeline.transform(t))
            .collect();
        let acc = cnb_accuracy(&refreshed, &refit_test, &split.test.labels);
        rows.push(vec![
            format!(
                "vocabulary refit + {:.0}% labeled drifted traffic",
                fraction * 100.0
            ),
            format!("{acc:.4}"),
            n_labeled.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "condition": format!("vocab_refit_{fraction}"),
            "accuracy": acc,
            "labels_used": n_labeled,
        }));
    }

    let hasher = HashingVectorizer {
        signed: false,
        ..HashingVectorizer::default()
    };
    let hash_vec = |texts: &[String]| -> Vec<SparseVec> {
        texts
            .iter()
            .map(|t| hasher.transform(&split.pipeline.preprocess(t)))
            .collect()
    };
    let hash_train = Dataset::new(
        hash_vec(&split.train_texts),
        split.train.labels.clone(),
        split.train.class_names.clone(),
    );
    let mut hashed_model = ComplementNaiveBayes::new(ComplementNbConfig::default());
    hashed_model.fit(&hash_train);
    let acc_clean = cnb_accuracy(
        &hashed_model,
        &hash_vec(&split.test_texts),
        &split.test.labels,
    );
    let acc_drift = cnb_accuracy(
        &hashed_model,
        &hash_vec(&drifted_test_texts),
        &split.test.labels,
    );
    rows.push(vec![
        format!("hashing features (no vocabulary), drifted test [clean: {acc_clean:.4}]"),
        format!("{acc_drift:.4}"),
        "0".to_string(),
    ]);
    json_rows.push(serde_json::json!({
        "condition": "hashing_features",
        "accuracy": acc_drift,
        "accuracy_clean": acc_clean,
        "labels_used": 0,
    }));

    let bucket_acc = |b: &BucketBaseline, texts: &[String]| -> f64 {
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let preds = b.classify_batch(&refs);
        preds
            .iter()
            .zip(&split.test.labels)
            .filter(|(p, &l)| p.category.index() == l)
            .count() as f64
            / texts.len().max(1) as f64
    };
    let clean_pairs: Vec<(String, Category)> = split
        .train_texts
        .iter()
        .zip(&split.train.labels)
        .map(|(t, &l)| (t.clone(), Category::from_index(l).expect("valid label")))
        .collect();
    let bucket_static = BucketBaseline::train(7, &clean_pairs);
    let acc = bucket_acc(&bucket_static, &drifted_test_texts);
    rows.push(vec![
        "bucket baseline, drifted test (no update)".to_string(),
        format!("{acc:.4}"),
        "0".to_string(),
    ]);
    json_rows.push(serde_json::json!({
        "condition": "bucket_static",
        "accuracy": acc,
        "labels_used": 0,
    }));
    for fraction in [0.05, 0.25] {
        let n_labeled = ((split.train.len() as f64) * fraction) as usize;
        let mut bucket = BucketBaseline::train(7, &clean_pairs);
        let before = bucket.n_buckets();
        for (t, &l) in drifted_train_texts[..n_labeled]
            .iter()
            .zip(&split.train.labels)
        {
            bucket.absorb(t, Category::from_index(l).expect("valid label"));
        }
        let new_exemplars = bucket.n_buckets() - before;
        let acc = bucket_acc(&bucket, &drifted_test_texts);
        rows.push(vec![
            format!(
                "bucket baseline + {:.0}% absorbed drifted traffic ({new_exemplars} new exemplars)",
                fraction * 100.0
            ),
            format!("{acc:.4}"),
            n_labeled.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "condition": format!("bucket_absorb_{fraction}"),
            "accuracy": acc,
            "labels_used": n_labeled,
            "new_exemplars": new_exemplars,
        }));
    }

    let drifted_corpus: Vec<(String, Category)> = drifted_train_texts
        .iter()
        .zip(&split.train.labels)
        .map(|(t, &l)| (t.clone(), Category::from_index(l).expect("valid label")))
        .collect();
    let mut new_pipeline = FeaturePipeline::new(FeatureConfig::default());
    let msgs: Vec<&str> = drifted_corpus.iter().map(|(m, _)| m.as_str()).collect();
    let new_train_features = new_pipeline.fit_transform(&msgs);
    let new_train = Dataset::new(
        new_train_features,
        split.train.labels.clone(),
        split.train.class_names.clone(),
    );
    let mut retrained = ComplementNaiveBayes::new(ComplementNbConfig::default());
    retrained.fit(&new_train);
    let new_test: Vec<SparseVec> = drifted_test_texts
        .iter()
        .map(|t| new_pipeline.transform(t))
        .collect();
    let retrain_acc = cnb_accuracy(&retrained, &new_test, &split.test.labels);
    rows.push(vec![
        "full retrain (fresh vocabulary, all labels)".to_string(),
        format!("{retrain_acc:.4}"),
        split.train.len().to_string(),
    ]);
    json_rows.push(serde_json::json!({
        "condition": "full_retrain",
        "accuracy": retrain_acc,
        "labels_used": split.train.len(),
    }));

    let _ = writeln!(
        r,
        "{}",
        render_table(
            &["Condition", "Accuracy on drifted test", "Labels required"],
            &rows
        )
    );
    let _ = writeln!(
        r,
        "finding (the paper's titular hope, quantified): the TF-IDF + CNB pipeline is"
    );
    let _ = writeln!(
        r,
        "inherently drift-robust — redundant within-message vocabulary keeps accuracy near"
    );
    let _ = writeln!(
        r,
        "its clean level even at 21% OOV, so NO maintenance (partial_fit, vocabulary"
    );
    let _ = writeln!(
        r,
        "refresh, or full retrain) is needed. The bucket baseline is the opposite: it"
    );
    let _ = writeln!(
        r,
        "loses ~30 points to the same drift and can only claw them back by absorbing"
    );
    let _ = writeln!(
        r,
        "labeled exemplars — the \"constant retraining\" the Background laments."
    );

    let value = serde_json::json!({
        "experiment": "xp_online",
        "scale": args.scale,
        "seed": args.seed,
        "oov_clean": oov_clean,
        "oov_drifted": oov_drifted,
        "rows": json_rows,
    });
    ExperimentOutput { value, report: r }
}

// ---------------------------------------------------------------- XA ablation

/// Train on the clean training half, then score the clean test half and a
/// firmware-drifted copy of the *same* test half — robustness to rewording
/// is exactly what lemmatization (§4.3.2) is for.
fn run_ablation_variant(
    corpus: &[(String, Category)],
    features: FeatureConfig,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let config = EvalConfig {
        seed,
        features,
        ..EvalConfig::default()
    };
    let split = prepare_split(corpus, &config);
    let mut model = ComplementNaiveBayes::new(ComplementNbConfig::default());
    let eval = evaluate_model(&mut model, &split);

    let mut drift = DriftModel::new(DriftConfig {
        seed: seed ^ 0xab1a,
        ..DriftConfig::default()
    });
    let drifted_texts = drift.mutate_all(&split.test_texts);
    let drifted_features: Vec<_> = drifted_texts
        .iter()
        .map(|t| split.pipeline.transform(t))
        .collect();
    let preds = model.predict_csr(&CsrMatrix::from_rows(&drifted_features, 0));
    let cm = hetsyslog_ml::ConfusionMatrix::from_predictions(
        &split.test.class_names,
        &split.test.labels,
        &preds,
    );
    (
        eval.report.weighted_f1,
        cm.weighted_f1(),
        eval.report.train_seconds,
        eval.report.test_seconds,
    )
}

/// The noise pre-filter on a labeled stream it was not built from.
#[derive(serde::Serialize)]
struct PrefilterOnStream {
    noise_caught: usize,
    noise_total: usize,
    /// Drops by true category label.
    dropped_by_category: BTreeMap<String, usize>,
    actionable_dropped: usize,
    /// Actionable drops that CNB alone classifies correctly.
    actionable_dropped_cnb_correct: usize,
    /// Wall-clock filter cost.
    us_per_msg: f64,
}

/// Run `filter` over `stream` and score what it drops against the truth
/// and against `cnb`'s predictions for the same messages.
fn prefilter_on_stream(
    filter: &NoiseFilter,
    cnb: &dyn TextClassifier,
    stream: &[(String, Category)],
) -> PrefilterOnStream {
    let texts: Vec<&str> = stream.iter().map(|(m, _)| m.as_str()).collect();
    let started = Instant::now();
    let dropped: Vec<bool> = texts.iter().map(|m| filter.is_noise(m)).collect();
    let us_per_msg = started.elapsed().as_secs_f64() * 1e6 / texts.len().max(1) as f64;
    let predictions = cnb.classify_batch(&texts);
    let mut out = PrefilterOnStream {
        noise_caught: 0,
        noise_total: 0,
        dropped_by_category: BTreeMap::new(),
        actionable_dropped: 0,
        actionable_dropped_cnb_correct: 0,
        us_per_msg,
    };
    for (((_, truth), drop), prediction) in stream.iter().zip(dropped).zip(predictions) {
        out.noise_total += usize::from(!truth.is_actionable());
        if !drop {
            continue;
        }
        *out.dropped_by_category
            .entry(truth.label().to_string())
            .or_default() += 1;
        if truth.is_actionable() {
            out.actionable_dropped += 1;
            out.actionable_dropped_cnb_correct += usize::from(prediction.category == *truth);
        } else {
            out.noise_caught += 1;
        }
    }
    out
}

/// Ablation studies over the DESIGN.md design choices.
pub fn xp_ablation(args: &ExpArgs) -> ExperimentOutput {
    let corpus = args.corpus();
    let mut r = String::new();
    let _ = writeln!(
        r,
        "Ablation studies (Complement NB probe, {} messages, scale {})\n",
        corpus.len(),
        args.scale
    );

    let variants: Vec<(&str, FeatureConfig)> = vec![
        ("lemmatize + tf-idf (paper)", FeatureConfig::default()),
        (
            "no lemmatization",
            FeatureConfig {
                lemmatize: false,
                ..FeatureConfig::default()
            },
        ),
        (
            "word bigrams (ngram_range 1-2)",
            FeatureConfig {
                word_ngrams: 2,
                ..FeatureConfig::default()
            },
        ),
        (
            "raw term frequency (no idf, no norm)",
            FeatureConfig {
                tfidf: TfidfConfig {
                    min_df: 2,
                    smooth_idf: true,
                    l2_normalize: false,
                    sublinear_tf: false,
                    ..TfidfConfig::default()
                },
                ..FeatureConfig::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (label, features) in variants {
        let (f1, f1_drift, train_s, test_s) = run_ablation_variant(&corpus, features, args.seed);
        rows.push(vec![
            label.to_string(),
            format!("{f1:.5}"),
            format!("{f1_drift:.5}"),
            fmt_seconds(train_s),
            fmt_seconds(test_s),
        ]);
        json_rows.push(serde_json::json!({
            "variant": label,
            "weighted_f1": f1,
            "weighted_f1_drifted": f1_drift,
            "train_seconds": train_s,
            "test_seconds": test_s,
        }));
    }
    let _ = writeln!(
        r,
        "{}",
        render_table(
            &[
                "Preprocessing",
                "wF1 (clean test)",
                "wF1 (drifted test)",
                "Train",
                "Test"
            ],
            &rows
        )
    );

    let filter = NoiseFilter::train(3, &corpus);
    let noise_total = corpus
        .iter()
        .filter(|(_, c)| *c == Category::Unimportant)
        .count();
    let noise_texts: Vec<&str> = corpus
        .iter()
        .filter(|(_, c)| *c == Category::Unimportant)
        .map(|(m, _)| m.as_str())
        .collect();
    let caught = noise_texts.iter().filter(|m| filter.is_noise(m)).count();
    let signal_texts: Vec<&str> = corpus
        .iter()
        .filter(|(_, c)| *c != Category::Unimportant)
        .map(|(m, _)| m.as_str())
        .collect();
    let false_positives = signal_texts.iter().filter(|m| filter.is_noise(m)).count();
    let _ = writeln!(
        r,
        "Unimportant pre-filter (threshold 3), in-sample on the corpus its patterns came from: \
         {} patterns catch {caught}/{noise_total} noise messages with {false_positives}/{} \
         false positives on signal.",
        filter.n_patterns(),
        signal_texts.len()
    );
    // Out of sample: a held-out stream sized like X2's, and its drifted
    // copy. The pre-filter is not on the live path; CNB alone is.
    let n_stream = (30_000.0 * (args.scale / 0.05).clamp(0.2, 10.0)) as usize;
    let stream_seed = args.seed.wrapping_add(1);
    let held_out: Vec<(String, Category)> = StreamGenerator::new(StreamConfig {
        seed: stream_seed,
        ..StreamConfig::default()
    })
    .take(n_stream)
    .map(|t| (t.message.text, t.message.category))
    .collect();
    let mut drift = DriftModel::new(DriftConfig::default());
    let drifted: Vec<(String, Category)> = held_out
        .iter()
        .map(|(m, c)| (drift.mutate(m), *c))
        .collect();
    let cnb = TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
        &corpus,
    );
    let held_out = prefilter_on_stream(&filter, &cnb, &held_out);
    let drifted = prefilter_on_stream(&filter, &cnb, &drifted);
    for (label, s) in [("held-out", &held_out), ("drifted", &drifted)] {
        let _ = writeln!(
            r,
            "  {label} stream (seed {stream_seed}, {n_stream} msgs): catches {}/{} noise; drops {} \
             actionable ({}), CNB alone gets {} of those right; {:.1} us/msg",
            s.noise_caught,
            s.noise_total,
            s.actionable_dropped,
            s.dropped_by_category
                .iter()
                .filter(|(c, _)| c.as_str() != Category::Unimportant.label())
                .map(|(c, n)| format!("{c} {n}"))
                .collect::<Vec<_>>()
                .join(", "),
            s.actionable_dropped_cnb_correct,
            s.us_per_msg,
        );
    }

    let masked = BucketBaseline::train(7, &corpus);
    let raw = BucketBaseline::train_raw(7, &corpus);
    let _ = writeln!(
        r,
        "Bucket masking: {} exemplars masked vs {} raw ({:.1}x labeling-burden reduction)",
        masked.n_buckets(),
        raw.n_buckets(),
        raw.n_buckets() as f64 / masked.n_buckets().max(1) as f64
    );

    let config = EvalConfig {
        seed: args.seed,
        ..EvalConfig::default()
    };
    let split = prepare_split(&corpus, &config);
    let mut plain = ComplementNaiveBayes::new(ComplementNbConfig::default());
    plain.fit(&split.train);
    let balanced: Dataset = split.train.random_oversample(args.seed);
    let mut over = ComplementNaiveBayes::new(ComplementNbConfig::default());
    over.fit(&balanced);
    let slurm = Category::SlurmIssue.index();
    let recall = |model: &ComplementNaiveBayes| -> f64 {
        let preds = model.predict_csr(&CsrMatrix::from_rows(&split.test.features, 0));
        let mut hit = 0usize;
        let mut total = 0usize;
        for (p, &t) in preds.iter().zip(&split.test.labels) {
            if t == slurm {
                total += 1;
                if *p == slurm {
                    hit += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            hit as f64 / total as f64
        }
    };
    let mut smoted = ComplementNaiveBayes::new(ComplementNbConfig::default());
    smoted.fit(&hetsyslog_ml::smote_oversample(&split.train, 5, args.seed));
    let mut adasyned = ComplementNaiveBayes::new(ComplementNbConfig::default());
    adasyned.fit(&hetsyslog_ml::adasyn_oversample(&split.train, 5, args.seed));
    let _ = writeln!(
        r,
        "Oversampling: Slurm-Issues recall {:.3} (imbalanced) → {:.3} (random) → {:.3} (SMOTE) → {:.3} (ADASYN)",
        recall(&plain),
        recall(&over),
        recall(&smoted),
        recall(&adasyned)
    );

    let value = serde_json::json!({
        "experiment": "xp_ablation",
        "scale": args.scale,
        "seed": args.seed,
        "preprocessing": json_rows,
        "prefilter": {
            "patterns": filter.n_patterns(),
            "in_sample": {
                "caught": caught,
                "noise_total": noise_total,
                "false_positives": false_positives,
                "signal_total": signal_texts.len(),
            },
            "stream_seed": stream_seed,
            "held_out": held_out,
            "drifted": drifted,
        },
        "bucket_masking": {
            "masked_exemplars": masked.n_buckets(),
            "raw_exemplars": raw.n_buckets(),
        },
        "oversampling": {
            "slurm_recall_plain": recall(&plain),
            "slurm_recall_oversampled": recall(&over),
            "slurm_recall_smote": recall(&smoted),
            "slurm_recall_adasyn": recall(&adasyned),
        },
    });
    ExperimentOutput { value, report: r }
}

// ------------------------------------------------------- differential oracle

/// One model's scalar-vs-batch agreement result.
pub struct DifferentialResult {
    /// Model display name.
    pub model: String,
    /// Split variant the check ran on.
    pub variant: &'static str,
    /// Test rows compared.
    pub n: usize,
    /// Rows where the scalar and batched predictions disagreed.
    pub mismatches: usize,
    /// Index of the first disagreement, if any.
    pub first_mismatch: Option<usize>,
}

/// The differential oracle (DESIGN.md §5's bit-identity invariant, checked
/// end to end): re-score the test split through both the scalar
/// `Classifier` path (per-text `transform` + `predict`) and the batched
/// CSR path (`transform_batch_csr` + `predict_csr`) for every model in the
/// paper suite, on both the default split and the drop-unimportant
/// ablation split. Any disagreement is a conformance failure.
pub fn differential_oracle(args: &ExpArgs) -> Vec<DifferentialResult> {
    let corpus = args.corpus();
    let mut out = Vec::new();
    for (variant, drop_unimportant) in [("default", false), ("drop_unimportant", true)] {
        let config = EvalConfig {
            seed: args.seed,
            drop_unimportant,
            ..EvalConfig::default()
        };
        let split = prepare_split(&corpus, &config);
        let texts: Vec<&str> = split.test_texts.iter().map(String::as_str).collect();
        let matrix = split.pipeline.transform_batch_csr(&texts);
        for mut model in paper_suite(args.seed) {
            model.fit(&split.train);
            let scalar: Vec<usize> = texts
                .iter()
                .map(|t| model.predict(&split.pipeline.transform(t)))
                .collect();
            let batch = model.predict_csr(&matrix);
            let mismatches = scalar.iter().zip(&batch).filter(|(a, b)| a != b).count();
            let first_mismatch = scalar.iter().zip(&batch).position(|(a, b)| a != b);
            out.push(DifferentialResult {
                model: model.name().to_string(),
                variant,
                n: scalar.len(),
                mismatches,
                first_mismatch,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> ExpArgs {
        ExpArgs {
            scale: 0.005,
            seed: 42,
            json_path: None,
            flags: Vec::new(),
        }
    }

    #[test]
    fn table2_output_is_deterministic() {
        let args = tiny_args();
        let a = table2(&args);
        let b = table2(&args);
        assert_eq!(a.value, b.value);
        assert_eq!(a.report, b.report);
        assert_eq!(
            a.value.get("experiment").and_then(|v| v.as_str()),
            Some("table2")
        );
    }

    #[test]
    fn differential_oracle_covers_suite_both_variants() {
        let results = differential_oracle(&tiny_args());
        assert_eq!(results.len(), 16, "8 models x 2 split variants");
        for res in &results {
            assert_eq!(
                res.mismatches, 0,
                "{} [{}] diverged between scalar and batch paths",
                res.model, res.variant
            );
            assert!(res.n > 0);
        }
    }
}
