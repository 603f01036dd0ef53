//! How many threads a parallel section runs on. One test function, in a
//! test binary of its own: `RAYON_NUM_THREADS` is process-wide.

use rayon::prelude::*;
use std::collections::HashSet;
use std::thread::{self, ThreadId};

/// The distinct threads that ran an `n`-item section, after checking that
/// `collect` kept the input order.
fn threads_used(n: usize) -> HashSet<ThreadId> {
    let ran: Vec<(usize, ThreadId)> = (0..n)
        .into_par_iter()
        .map(|i| (i, thread::current().id()))
        .collect();
    assert!(ran.iter().map(|&(i, _)| i).eq(0..n), "collect order");
    ran.into_iter().map(|(_, id)| id).collect()
}

#[test]
fn worker_count_follows_the_input_size_and_the_variable_on_every_call() {
    let caller = HashSet::from([thread::current().id()]);
    let cores = thread::available_parallelism().map_or(1, |c| c.get());

    // An input of at most one worker's minimum share (8 items) runs on the
    // caller's thread, whatever the ceiling is.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    for n in [0, 1, 8] {
        assert_eq!(
            threads_used(n),
            if n == 0 {
                HashSet::new()
            } else {
                caller.clone()
            }
        );
    }
    assert_eq!(threads_used(9).len(), 2, "9 items are two workers' worth");

    // The variable is read on every call, not once per process.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(threads_used(10_000), caller);
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = threads_used(10_000);
    assert_eq!(four.len(), 4);
    assert!(
        !four.contains(&thread::current().id()),
        "workers are spawned"
    );
    std::env::remove_var("RAYON_NUM_THREADS");
    let unset = threads_used(10_000);
    assert_eq!(unset.len(), cores, "unset: the machine's parallelism");
    if cores == 1 {
        assert_eq!(unset, caller);
    }
}
