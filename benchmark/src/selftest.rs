//! Noise self-test: two back-to-back sets of runs on the unchanged tree,
//! each run a fresh process with its own seed. For every end-to-end metric
//! the sets' quartiles are printed, the spread (interquartile distance as a
//! share of the median, as the driver computes it) is compared with the
//! metric's bound, and the second set's median with the first's.

use crate::stats;
use crate::workload::WORKLOADS;
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};

/// The result line of one child run.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, String)>,
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let v: Value = serde_json::from_str(line).ok()?;
    let metrics = v
        .get("metrics")?
        .as_object()?
        .iter()
        .map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ChildResult {
        correct: v.get("correct")?.as_bool()?,
        attempted: v.get("attempted")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        metrics,
    })
}

/// Run one workload in a fresh process and parse its last line. With
/// `echo` the child's report is passed through.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    parse_result(stdout.lines().last()?)
}

/// `name → (lower is better, bound)` from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// One set: `runs` seeds of one workload; values per metric in run order.
fn run_set(
    workload: &str,
    seed: u64,
    seconds: u64,
    runs: usize,
    names: &[String],
) -> Option<Vec<Vec<f64>>> {
    let mut values = vec![Vec::with_capacity(runs); names.len()];
    for i in 0..runs {
        let result = run_child(workload, seed + i as u64, seconds, false, false)?;
        if !result.correct {
            eprintln!(
                "selftest: {workload} seed {} failed its correctness gate",
                seed + i as u64
            );
            return None;
        }
        for (slot, name) in values.iter_mut().zip(names) {
            slot.push(result.metrics.iter().find(|m| &m.0 == name)?.1);
        }
        eprint!(".");
    }
    eprintln!();
    Some(values)
}

pub fn run(only: Option<&str>, seed: u64, seconds: u64, runs: usize) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("selftest: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<String> = bounds.iter().map(|b| b.0.clone()).collect();
    let mut all_ok = true;
    for spec in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        println!(
            "selftest {}: 2 sets x {runs} runs, seeds {seed}..{}, {seconds} s each",
            spec.name,
            seed + runs as u64 - 1
        );
        let sets = [
            run_set(spec.name, seed, seconds, runs, &names),
            run_set(spec.name, seed, seconds, runs, &names),
        ];
        let [Some(a), Some(b)] = sets else {
            println!("  a run failed or printed no result");
            all_ok = false;
            continue;
        };
        println!(
            "  {:<24}{:>13}{:>13}{:>25}{:>9}{:>9}{:>9}{:>8}  verdict",
            "metric", "A median", "B median", "A q1..q3", "A sprd", "B sprd", "B vs A", "bound"
        );
        for (i, (name, lower_better, bound)) in bounds.iter().enumerate() {
            let (qa1, ma, qa3) = stats::quartiles(&a[i]);
            let (_, mb, _) = stats::quartiles(&b[i]);
            let (sa, sb) = (stats::spread(&a[i]), stats::spread(&b[i]));
            // Share of A's median by which B's median is worse.
            let worse = if ma == 0.0 {
                0.0
            } else if *lower_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            // The driver does not hold setup_s to its spread, only to its
            // median.
            let spread_ok = name == "setup_s" || (sa <= *bound && sb <= *bound);
            let verdict = match (spread_ok, worse <= *bound) {
                (true, true) if sa.max(sb) <= bound / 3.0 || name == "setup_s" => "ok, steady",
                (true, true) => "ok",
                (false, _) => "SPREAD EXCEEDS BOUND",
                (_, false) => "MEDIANS DISAGREE",
            };
            all_ok &= spread_ok && worse <= *bound;
            println!(
                "  {name:<24}{ma:>13.4}{mb:>13.4}{:>25}{:>8.2}%{:>8.2}%{:>+8.2}%{:>7.1}%  {verdict}",
                format!("{qa1:.4}..{qa3:.4}"),
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("selftest: {}", if all_ok { "passed" } else { "FAILED" });
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"a_ms":{"value":1.25,"unit":"ms"},"b":{"value":3,"unit":"count"}}}"#;
        let r = parse_result(line).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(r.metrics[0], ("a_ms".to_string(), 1.25, "ms".to_string()));
        assert_eq!(r.metrics[1].1, 3.0);
        assert!(parse_result("not json").is_none());
        assert!(parse_result(r#"{"correct":true}"#).is_none());
    }
}
