//! LLM-simulator microbenches: prompt construction, one generation step,
//! zero-shot scoring. These measure *simulator* CPU cost (the modeled GPU
//! seconds are accounted separately on the virtual clock).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datagen::{generate_corpus, CorpusConfig};
use hetsyslog_core::Category;
use llmsim::tokenizer::count_tokens;
use llmsim::{GenerativeLlm, ModelPreset, PromptBuilder, ZeroShotModel};

fn corpus() -> Vec<(String, Category)> {
    datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
        scale: 0.005,
        seed: 42,
        min_per_class: 12,
    }))
}

fn bench_prompt_build(c: &mut Criterion) {
    let builder = PromptBuilder::new().with_top_words(vec![
        vec![
            "timestamp".into(),
            "sync".into(),
            "clock".into()
        ];
        Category::ALL.len()
    ]);
    let mut g = c.benchmark_group("llm_prompt");
    g.throughput(Throughput::Elements(1));
    g.bench_function("build", |b| {
        b.iter(|| builder.build("Warning: Socket 2 - CPU 23 throttling at 95C"))
    });
    g.bench_function("token_count", |b| {
        b.iter(|| count_tokens(&builder.build("Warning: Socket 2 - CPU 23 throttling at 95C")))
    });
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let corpus = corpus();
    let prompt = PromptBuilder::new().build("CPU 3 temperature above threshold");
    let mut g = c.benchmark_group("llm_generate");
    g.throughput(Throughput::Elements(1));
    for preset in [ModelPreset::falcon_7b(), ModelPreset::falcon_40b()] {
        let mut llm = GenerativeLlm::new(preset, &corpus, 1);
        let id = preset.name.to_lowercase().replace('-', "_");
        g.bench_function(id, |b| {
            b.iter(|| llm.generate(&prompt, "CPU 3 temperature above threshold", Some(24)))
        });
    }
    g.finish();
}

fn bench_zero_shot(c: &mut Criterion) {
    let corpus = corpus();
    let model = ZeroShotModel::new(&corpus);
    let mut g = c.benchmark_group("llm_zero_shot");
    g.throughput(Throughput::Elements(1));
    g.bench_function("score_8_labels", |b| {
        b.iter(|| model.classify("CPU 3 temperature above threshold clock throttled"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_prompt_build,
    bench_generation,
    bench_zero_shot
);
criterion_main!(benches);
