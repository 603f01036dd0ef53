//! What the benchmark reads from the operating system and the checkout:
//! CPU time and peak memory from `/proc`, and the environment fingerprint
//! stamped into every result.

use logpipeline::ListenerConfig;
use std::process::Command;

/// `USER_HZ`: the unit of the CPU times in `/proc/*/stat`. A Linux ABI
/// constant (100 on every architecture), not the kernel's internal HZ.
const TICKS_PER_SECOND: f64 = 100.0;

/// utime + stime, in seconds, from a `/proc/.../stat` line. The command
/// name (field 2) may contain spaces, so fields are counted from the last
/// `)`: utime and stime are fields 14 and 15.
fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

fn read_cpu(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .unwrap_or_else(|| panic!("{path} unreadable: hsbench needs Linux procfs"))
}

/// CPU seconds of the whole process, exited threads included.
pub fn process_cpu_seconds() -> f64 {
    read_cpu("/proc/self/stat")
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    read_cpu("/proc/thread-self/stat")
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status unreadable: hsbench needs Linux procfs");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"));
    kb / 1024.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

extern "C" {
    /// glibc: return free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Make the peak mean "peak of what follows": hand the allocator's free
/// memory (the garbage of set-up and warm-up, which it would otherwise keep
/// resident in amounts that differ from run to run) back to the operating
/// system, reset `VmHWM` to the current resident set, and return that
/// resident set in MB — the baseline the measured pass grows from.
pub fn reset_peak_rss() -> f64 {
    // SAFETY: `malloc_trim` has no preconditions and glibc serialises it
    // against concurrent allocation; the argument is the padding to keep.
    unsafe { malloc_trim(0) };
    // "5" resets the peak RSS (Linux >= 4.0). Where the file cannot be
    // written the peak keeps including set-up, which only adds noise.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mb("VmRSS:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `[profile.release]` table of a manifest: its `key = value` lines,
/// whitespace-normalised and sorted, comments and blank lines dropped.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    lines.sort();
    lines
}

/// Refuse to run when the benchmark's release profile differs from the
/// root manifest's: the program under test must be built the way the
/// repository builds it. Returns the shared table.
pub fn check_profiles(root_manifest: &str, bench_manifest: &str) -> Result<Vec<String>, String> {
    let root = release_profile(root_manifest);
    let bench = release_profile(bench_manifest);
    if root == bench {
        Ok(root)
    } else {
        Err(format!(
            "[profile.release] differs: root manifest has {root:?}, benchmark/Cargo.toml has \
             {bench:?}; copy the root table into benchmark/Cargo.toml and measure the change \
             as its own change"
        ))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Environment fingerprint, as `(key, value)` pairs in print order.
pub fn fingerprint(seed: u64, seconds: u64, profile: &[String]) -> Vec<(&'static str, String)> {
    let d = ListenerConfig::default();
    let git_rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".to_string()
    };
    vec![
        ("nproc", nproc().to_string()),
        ("rustc", command_line("rustc", &["-V"])),
        ("profile_release", profile.join("; ")),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("git_rev", git_rev),
        (
            "listener_config",
            format!(
                "frontend={:?} workers={} shards={} queue_depth={} overload={:?} max_batch={} \
                 max_delay={:?} idle_timeout={:?} telemetry={}",
                d.frontend,
                d.workers,
                d.shards,
                d.queue_depth,
                d.overload,
                d.max_batch,
                d.max_delay,
                d.idle_timeout,
                d.telemetry.is_some(),
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "1234 (my (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(cpu_seconds_from_stat(line), Some(3.0));
        assert!(process_cpu_seconds() >= thread_cpu_seconds());
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn profile_tables_compare_by_content() {
        let root = "[package]\nname='x'\n\n[profile.release]\ndebug = \"line-tables-only\"\n\n[profile.bench]\ndebug = 1\n";
        let same = "# c\n[profile.release]\n# copied\ndebug   =  \"line-tables-only\"  # why\n";
        let other = "[profile.release]\ndebug = \"line-tables-only\"\nlto = true\n";
        assert_eq!(release_profile(root), vec!["debug = \"line-tables-only\""]);
        assert!(check_profiles(root, same).is_ok());
        assert!(check_profiles(root, other).is_err());
        assert!(check_profiles(root, "[package]\n").is_err());
    }
}
