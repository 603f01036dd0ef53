//! The telemetry overhead gate (release-only, run explicitly in CI).
//! Both arms run the same instruments on the same hot path; the
//! instrumented arm adds registry export, batch spans, the flight-recorder
//! sampler, an alert rule and the scrape endpoint, and must sustain at
//! least 95% of the uninstrumented arm's throughput at the listener's
//! default `max_batch` (64).
//!
//! Run: `cargo test -p bench --release --test overhead_gate -- --ignored`

use bench::{experiments, ExpArgs};

#[test]
#[ignore = "timing assertion: run in release mode on an idle machine"]
fn instrumented_ingest_keeps_95_percent_of_uninstrumented_throughput() {
    let args = ExpArgs {
        scale: 0.02,
        seed: 42,
        ..ExpArgs::default()
    };
    let overhead = experiments::observability_overhead(&args);
    let field = |key: &str| {
        overhead
            .get(key)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0)
    };
    let detached = field("uninstrumented_msgs_per_sec");
    let instrumented = field("instrumented_msgs_per_sec");
    let ratio = field("ratio");
    assert!(
        detached > 0.0 && instrumented > 0.0,
        "both arms must complete: {overhead:?}"
    );
    assert!(
        ratio >= 0.95,
        "telemetry overhead above the 5% budget: {instrumented:.0} msg/s instrumented \
         vs {detached:.0} msg/s uninstrumented (ratio {ratio:.3})"
    );
}
