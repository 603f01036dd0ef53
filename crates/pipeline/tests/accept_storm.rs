//! The reactor front end under fd exhaustion: `accept(2)` failing with
//! EMFILE must be counted and must not turn reactor 0 into a spin (the
//! listening socket is level-triggered, so a pending connection nobody can
//! accept keeps `epoll_wait` returning immediately).
//!
//! One test, alone in its binary: it exhausts the process's descriptors
//! and counts its threads, both of which other tests running in the same
//! process would disturb.

use logpipeline::testsupport::wait_until;
use logpipeline::{ListenerConfig, LogStore, SyslogListener};
use std::fs::File;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The soft `RLIMIT_NOFILE`, from procfs (no libc call, no `unsafe`).
fn max_open_files() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn accept_errors_are_counted_and_do_not_spin_the_reactor() {
    let threads_before = thread_count();
    let store = Arc::new(LogStore::new());
    let listener = SyslogListener::start(
        store,
        None,
        ListenerConfig {
            // Sweep tick = idle_timeout / 4 = 100 ms.
            idle_timeout: Duration::from_millis(400),
            ..ListenerConfig::default()
        },
    )
    .expect("bind loopback listener");
    // A default listener owns reactor_threads + workers threads, and
    // nothing else: no accept thread, no UDP thread, none per connection.
    assert_eq!(listener.n_reactors() + listener.n_shards(), 4);
    assert_eq!(thread_count() - threads_before, 4);

    let Some(limit) = max_open_files().filter(|l| *l <= 100_000) else {
        eprintln!("skipping the fd-exhaustion half: RLIMIT_NOFILE is too high to exhaust");
        return;
    };
    // Use up every descriptor but one, hand that one to a client socket:
    // its connection completes in the kernel's backlog, and the reactor's
    // accept(2) has no descriptor left to return it on.
    let placeholder = File::open("/dev/null").expect("open");
    let mut hoard = Vec::with_capacity(limit as usize);
    while let Ok(file) = File::open("/dev/null") {
        hoard.push(file);
    }
    drop(placeholder);
    let mut client = TcpStream::connect(listener.tcp_addr()).expect("connect");

    let accept_errors = listener.stats().accept_errors.clone();
    let reactors = listener.reactor_stats_handle();
    assert!(
        wait_until(5_000, || accept_errors.get() >= 1),
        "EMFILE on accept was never counted"
    );
    let wakeups_before = reactors[0].wakeups.get();
    std::thread::sleep(Duration::from_millis(500));
    let wakeups = reactors[0].wakeups.get() - wakeups_before;
    assert!(
        wakeups < 100,
        "reactor 0 spun on the unacceptable connection: {wakeups} wakeups in 500 ms"
    );
    assert_eq!(listener.stats().connections_opened.get(), 0);

    // Descriptors come back: the listener is re-armed on the next sweep
    // tick and the waiting connection is served as if nothing happened.
    drop(hoard);
    client
        .write_all(b"<13>Oct 11 22:14:15 cn0001 app: after the storm\n")
        .expect("write");
    assert!(
        wait_until(5_000, || listener.stats().ingested.get() == 1),
        "connection was never accepted after the storm: {:?}",
        listener.stats().snapshot()
    );
    let report = listener.shutdown();
    assert_eq!(report.connections, 1);
}
