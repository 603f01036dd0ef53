//! hsbench — the repository's benchmark.
//!
//! Drives the shipping live path exactly as an operator would and measures
//! every layer from outside. See `benchmark/README.md`.
//!
//! ```text
//! hsbench --workload W [--seed S] [--seconds N] [--trace [0|1]]   one run
//! hsbench [--seed S] [--seconds N] [--trace [0|1]]                all five
//! hsbench --selftest [--runs N] [--workload W] [--seed S]          noise self-test
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod live;
mod matcher;
mod replay;
mod report;
mod selftest;
mod spans;
mod stats;
mod sysinfo;
mod workload;

use report::Metric;
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selftest: false,
        runs: 10,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--selftest" => args.selftest = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is how
            // the driver passes it.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be between 1 and 60".into());
    }
    if args.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(args)
}

fn print_metric(m: &Metric) {
    let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
    let note = m
        .note
        .as_ref()
        .map_or(String::new(), |n| format!("  [{n}]"));
    println!(
        "  {:<36}{:>16.4} {:<7}{samples}{note}",
        m.name, m.value, m.unit
    );
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics
    })
    .to_string()
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload, in this process: set-up, warm-up, the measured pass, the
/// correctness gate, and with `trace` the replay.
fn run_workload(spec: &workload::Spec, args: &Args, profile: &[String]) -> ExitCode {
    let fingerprint = sysinfo::fingerprint(args.seed, args.seconds, profile);
    println!(
        "hsbench {}  (trace {})",
        spec.name,
        if args.trace { "on" } else { "off" }
    );
    for (key, value) in &fingerprint {
        println!("  {key:<18}{value}");
    }

    // Set up several times and report the median; the last one is used.
    let mut setup_s = Vec::with_capacity(SETUPS_PER_RUN);
    let mut setup = None;
    for _ in 0..SETUPS_PER_RUN {
        drop(setup.take());
        let started = Instant::now();
        setup = Some(live::set_up(spec, args.seed, args.seconds));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let live::Setup {
        plan,
        classifier,
        rig,
    } = setup.expect("SETUPS_PER_RUN > 0");

    let quiescent_query_ns = live::warm_up(spec, &classifier);
    let data = live::run(spec, &plan, rig, args.seconds, quiescent_query_ns);
    let eval = report::evaluate(spec, &plan, &classifier, &data, args.seed, &setup_s);

    println!(
        "end to end ({} frames sent, {:.2} s):",
        eval.attempted, data.wall_s
    );
    eval.end_to_end.iter().for_each(print_metric);
    println!("in situ:");
    eval.in_situ.iter().for_each(print_metric);

    let mut per_layer = eval.in_situ.clone();
    if args.trace {
        let replayed = replay::replay(
            spec,
            &plan,
            classifier.clone(),
            eval.mean_batch_size,
            eval.cpu_us_per_msg,
        );
        println!("per layer (traced replay):");
        replayed.metrics.iter().for_each(print_metric);
        println!("reconciliation:\n{}", replayed.table);
        let path = std::path::PathBuf::from(format!("benchmark/out/trace-{}.json", spec.name));
        let header = format!(
            "\"workload\":\"{}\",\"batch_size\":{},\"fingerprint\":{}",
            spec.name,
            replayed.batch_size,
            Value::Object(
                fingerprint
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::String(v.clone())))
                    .collect()
            )
        );
        match spans::write_json(&path, &header, &replayed.spans) {
            Ok(()) => println!(
                "  {} spans written to {}",
                replayed.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("hsbench: cannot write {}: {e}", path.display()),
        }
        per_layer.extend(replayed.metrics);
    }

    let correct = eval.problems.is_empty();
    for problem in &eval.problems {
        println!("GATE FAILED: {problem}");
    }
    println!(
        "correctness gate: {}",
        if correct { "passed" } else { "FAILED" }
    );
    let reported = if args.trace {
        &per_layer
    } else {
        &eval.end_to_end
    };
    println!(
        "{}",
        result_line(correct, eval.attempted, eval.failed, metrics_json(reported))
    );
    exit_code(correct)
}

/// All five workloads, each in a fresh process; one combined result line.
fn run_all(args: &Args) -> ExitCode {
    let mut combined = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for spec in &workload::WORKLOADS {
        let Some(result) =
            selftest::run_child(spec.name, args.seed, args.seconds, args.trace, true)
        else {
            eprintln!("hsbench: {} printed no result", spec.name);
            correct = false;
            continue;
        };
        correct &= result.correct;
        attempted += result.attempted;
        failed += result.failed;
        for (name, value, unit) in result.metrics {
            combined.push((
                format!("{}.{name}", spec.name),
                serde_json::json!({"value": value, "unit": unit}),
            ));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, Value::Object(combined))
    );
    exit_code(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hsbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program under test must be built the way the repository builds
    // it; refuse to measure anything else.
    let manifests = ["Cargo.toml", "benchmark/Cargo.toml"].map(std::fs::read_to_string);
    let profile = match manifests {
        [Ok(root), Ok(bench)] => match sysinfo::check_profiles(&root, &bench) {
            Ok(profile) => profile,
            Err(e) => {
                eprintln!("hsbench: {e}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!(
                "hsbench: run from the repository root \
                 (Cargo.toml and benchmark/Cargo.toml must be readable)"
            );
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest::run(args.workload.as_deref(), args.seed, args.seconds, args.runs);
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workload::find(name) {
            Some(spec) => run_workload(spec, &args, &profile),
            None => {
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("hsbench: unknown workload {name:?}; one of {names:?}");
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract; the binary must print exactly the
    /// metrics and workloads it names, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&report::END_TO_END));
        let mut per_layer = own(&report::IN_SITU);
        per_layer.extend(
            replay::metric_names()
                .into_iter()
                .map(|(n, u)| (n, u.to_string())),
        );
        assert_eq!(pairs("per_layer"), per_layer);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let own_workloads: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own_workloads);
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }
}
