//! Experiment X2 — end-to-end classified-ingest throughput, the
//! scalar-vs-batched CSR comparison, and the loopback TCP listener
//! benchmark (DESIGN.md §3 X2).
//!
//! Thin wrapper over [`bench::experiments::xp_throughput`]; the
//! conformance runner (`repro`) executes the same code path. The
//! batch-vs-scalar comparison is additionally re-emitted to
//! `BENCH_throughput.json` (committed as evidence that the CSR path
//! clears its speedup floor).
//!
//! Run: `cargo run --release -p bench --bin xp_throughput`

use bench::{experiments, write_json, ExpArgs};

/// Path the batch-vs-scalar comparison is always written to.
const BENCH_JSON: &str = "BENCH_throughput.json";

fn main() {
    let args = ExpArgs::parse();
    let out = experiments::xp_throughput(&args);
    print!("{}", out.report);
    // The telemetry overhead gate rides along in the committed bench JSON
    // but stays out of the conformance value (goldens never see timings).
    let overhead = experiments::observability_overhead(&args);
    println!(
        "\nObservability overhead at max_batch=64: {:.0} msg/s uninstrumented vs {:.0} msg/s instrumented (ratio {:.3}, gate >= 0.95)",
        overhead
            .get("uninstrumented_msgs_per_sec")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0),
        overhead
            .get("instrumented_msgs_per_sec")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0),
        overhead
            .get("ratio")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0),
    );
    // The shard-count sweep also stays out of the conformance value: the
    // goldens must not change when the host's core count does.
    let sharding = experiments::live_sharding(&args);
    let rate = |shards: &str| {
        sharding
            .get(shards)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "Live sharding at max_batch=64: x{:.2} at 2 shards, x{:.2} at 4 shards (gate enforced: {})",
        rate("speedup_2_over_1"),
        rate("speedup_4_over_1"),
        sharding
            .get("gate_enforced")
            .and_then(serde_json::Value::as_bool)
            .unwrap_or(false),
    );
    // The reactor front-end sweep (connection counts × shard widths)
    // stays out of the conformance value for the same reason: host
    // topology must never move a golden.
    let frontends = experiments::ingest_frontend(&args);
    for arm in frontends
        .get("sweep")
        .and_then(serde_json::Value::as_array)
        .into_iter()
        .flatten()
    {
        let num = |key: &str| {
            arm.get(key)
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(0.0)
        };
        println!(
            "Ingest front end: {:.0} conns / {:.0} shard(s): {:.0} msg/s, p99 queue latency {:.0} us",
            num("connections"),
            num("shards"),
            num("msgs_per_sec"),
            num("p99_queue_latency_us"),
        );
    }
    // The columnar-store sweep (compression ratio + template-query
    // speedup) rides along the same way: committed evidence, never part
    // of the conformance value.
    let columnar = experiments::columnar_store(&args);
    let field = |v: &serde_json::Value, key: &str| {
        v.get(key)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "Columnar store: {:.1}x compression, {:.0}x template-query speedup over raw scan (gate: ratio >= 5)",
        field(&columnar, "compression_ratio"),
        field(&columnar, "query_speedup"),
    );
    // The sink fan-out sweep (healthy / 5% errors / outage + spill replay)
    // follows the same rule: committed evidence, never a conformance value.
    let fanout = experiments::sink_fanout(&args);
    println!(
        "Sink fan-out: {:.0} msg/s healthy, {:.0} msg/s at 5% errors, recovery in {:.2}s after a {:.0} ms outage (lossless: {})",
        field(&fanout, "healthy_msgs_per_sec"),
        field(&fanout, "errors_5pct_msgs_per_sec"),
        field(&fanout, "recovery_seconds"),
        field(&fanout, "outage_ms"),
        fanout
            .get("lossless_under_outage")
            .and_then(serde_json::Value::as_bool)
            .unwrap_or(false),
    );
    let mut bench = experiments::xp_throughput_bench_json(&out.value);
    if let serde_json::Value::Object(entries) = &mut bench {
        entries.push(("observability_overhead".to_string(), overhead));
        entries.push(("live_sharding".to_string(), sharding));
        entries.push(("ingest_frontend".to_string(), frontends));
        entries.push(("columnar_store".to_string(), columnar));
        entries.push(("sink_fanout".to_string(), fanout));
    }
    write_json(BENCH_JSON, &bench);
    println!("Batch comparison written to {BENCH_JSON}");
    if let Some(path) = &args.json_path {
        write_json(path, &out.value);
    }
}
