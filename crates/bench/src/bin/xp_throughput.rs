//! Experiment X2 — end-to-end classified-ingest throughput, the
//! scalar-vs-batched CSR comparison, and the loopback TCP listener
//! benchmark (DESIGN.md §3 X2).
//!
//! Thin wrapper over [`bench::experiments::xp_throughput`]; the
//! conformance runner (`repro`) executes the same code path.
//!
//! Run: `cargo run --release -p bench --bin xp_throughput`

use bench::{experiments, write_json, ExpArgs};

fn main() {
    let args = ExpArgs::parse();
    let out = experiments::xp_throughput(&args);
    print!("{}", out.report);
    if let Some(path) = &args.json_path {
        write_json(path, &out.value);
    }
}
