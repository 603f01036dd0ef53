//! The event-driven socket front end: a small pool of reactor threads,
//! each multiplexing hundreds of nonblocking connections over one
//! level-triggered epoll instance (see the vendored [`netpoll`] shim).
//!
//! At the connection counts a test-bed cluster produces (hundreds of
//! rsyslogd forwarders) a thread per peer is thousands of mostly-idle
//! threads waking on timers. The reactor inverts it: each of N threads
//! owns
//!
//! * one [`netpoll::Poller`] (level-triggered epoll),
//! * one [`netpoll::EventFd`] so shutdown and connection handoff
//!   interrupt `epoll_wait` *immediately* — `stop()` never waits out a
//!   poll interval,
//! * a map of per-connection state: the nonblocking [`TcpStream`], its
//!   RFC 6587 [`FrameDecoder`](syslog_model::FrameDecoder) (one per
//!   connection, so a corrupt sender never desyncs a neighbor), drop
//!   accounting, and the idle deadline.
//!
//! Reactor 0 additionally owns the listening socket — accepted
//! connections are assigned round-robin across the pool, handed to their
//! reactor through a mutex-guarded inbox plus an eventfd wake — and the
//! UDP socket, whose datagrams are frames as they stand.
//!
//! Every read goes through the same `FrameSink`: a connection lives on
//! exactly one reactor and all its frames route to one shard ring
//! (per-connection FIFO), Block/Shed overload accounting and the
//! dead-letter ring sit behind the sink, and the decoder tail is flushed
//! on close, idle timeout, or drain.

use crate::listener::UDP_SOURCE;
use crate::live::FrameSink;
use netpoll::{EventFd, Poller};
use obs::{Counter, Gauge, Histogram, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token for a reactor's own eventfd (shutdown / connection handoff).
const WAKE_TOKEN: u64 = u64::MAX;
/// Token for the listening socket, registered on reactor 0 only.
const ACCEPT_TOKEN: u64 = u64::MAX - 1;
/// Token for the UDP socket, registered on reactor 0 only. Connection ids
/// count up from 1, so the top of the range is free for these.
const UDP_TOKEN: u64 = u64::MAX - 2;
/// Reads per connection per wakeup. Level-triggered readiness re-reports
/// a still-backlogged connection on the next `wait`, so capping read
/// work here bounds how long one heavy sender can starve its neighbors
/// without any re-arm bookkeeping.
const MAX_READS_PER_WAKEUP: usize = 4;
/// Datagrams taken off the UDP socket per wakeup, for the same reason;
/// one wakeup's datagrams go to the shard fabric in one enqueue.
const MAX_DATAGRAMS_PER_WAKEUP: usize = 64;

/// Per-reactor instruments, one series per reactor under a `reactor`
/// label (mirroring [`ShardStats`](crate::shard::ShardStats)).
#[derive(Debug)]
pub struct ReactorStats {
    /// Connections currently registered on this reactor's poller.
    pub connections: Arc<Gauge>,
    /// `epoll_wait` returns (including timeouts — the idle sweep rides
    /// on them).
    pub wakeups: Arc<Counter>,
    /// Bytes read off sockets per wakeup that moved data.
    pub read_bytes: Arc<Histogram>,
    /// Ready events per wakeup: the depth of the kernel's ready queue
    /// each time the reactor came back from `epoll_wait`.
    pub ready_events: Arc<Histogram>,
}

impl ReactorStats {
    /// Instruments for reactor `reactor` registered on `registry`.
    pub fn registered(reactor: usize, registry: &Registry) -> ReactorStats {
        let reactor_label = reactor.to_string();
        let labeled: &[(&str, &str)] = &[("reactor", reactor_label.as_str())];
        ReactorStats {
            connections: registry.gauge(
                "hetsyslog_reactor_connections",
                "TCP connections currently registered on each reactor's poller",
                labeled,
            ),
            wakeups: registry.counter(
                "hetsyslog_reactor_wakeups_total",
                "epoll_wait returns per reactor, timeouts included",
                labeled,
            ),
            read_bytes: registry.histogram(
                "hetsyslog_reactor_read_bytes",
                "Bytes read off sockets per reactor wakeup that moved data",
                labeled,
            ),
            ready_events: registry.histogram(
                "hetsyslog_reactor_ready_events",
                "Ready events per epoll_wait return (kernel ready-queue depth)",
                labeled,
            ),
        }
    }
}

/// Handoff slot for connections accepted on reactor 0 but owned by
/// another reactor: push under the lock, wake the eventfd, and the
/// owner registers them on its own poller.
struct Inbox {
    wake: EventFd,
    pending: Mutex<Vec<(u64, TcpStream)>>,
}

/// The running reactor pool. Built by
/// [`SyslogListener::start`](crate::listener::SyslogListener::start);
/// stopped (eventfd wake + join, no poll-interval wait) from the
/// listener's shutdown path.
pub(crate) struct ReactorFrontend {
    inboxes: Vec<Arc<Inbox>>,
    threads: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl ReactorFrontend {
    /// Spawn one reactor thread per entry in `stats`; reactor 0 takes
    /// ownership of the (nonblocking) listening and UDP sockets.
    pub(crate) fn start(
        tcp: TcpListener,
        udp: UdpSocket,
        sink: FrameSink,
        idle_timeout: Duration,
        stats: Vec<Arc<ReactorStats>>,
    ) -> std::io::Result<ReactorFrontend> {
        let n = stats.len().max(1);
        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            inboxes.push(Arc::new(Inbox {
                wake: EventFd::new()?,
                pending: Mutex::new(Vec::new()),
            }));
        }
        // Built before the first spawn: an error below drops it, which
        // stops the reactors already running.
        let mut frontend = ReactorFrontend {
            inboxes: inboxes.clone(),
            threads: Vec::with_capacity(n),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        let next_conn_id = Arc::new(AtomicU64::new(1));
        let round_robin = Arc::new(AtomicUsize::new(0));
        let mut sockets = Some((tcp, udp));
        for (index, stats) in stats.into_iter().enumerate() {
            let reactor = Reactor {
                index,
                sockets: sockets.take(),
                inboxes: inboxes.clone(),
                sink: sink.clone(),
                shutdown: frontend.shutdown.clone(),
                idle_timeout,
                next_conn_id: next_conn_id.clone(),
                round_robin: round_robin.clone(),
                stats,
            };
            frontend.threads.push(
                std::thread::Builder::new()
                    .name(format!("reactor-{index}"))
                    .spawn(move || reactor.run())?,
            );
        }
        Ok(frontend)
    }

    /// Stop every reactor: set the flag, wake each eventfd (cutting any
    /// in-flight `epoll_wait` short), and join. Each thread flushes the
    /// decoder tail of every connection it still owns on the way out.
    /// Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for inbox in &self.inboxes {
            let _ = inbox.wake.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ReactorFrontend {
    fn drop(&mut self) {
        self.stop();
    }
}

/// State a connection carries between wakeups.
struct Conn {
    stream: TcpStream,
    decoder: syslog_model::FrameDecoder,
    decoder_dropped: u64,
    last_activity: Instant,
}

/// One reactor thread's context; `run` consumes it on the thread.
struct Reactor {
    index: usize,
    /// The listening and UDP sockets (reactor 0 only).
    sockets: Option<(TcpListener, UdpSocket)>,
    inboxes: Vec<Arc<Inbox>>,
    sink: FrameSink,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Duration,
    next_conn_id: Arc<AtomicU64>,
    round_robin: Arc<AtomicUsize>,
    stats: Arc<ReactorStats>,
}

impl Reactor {
    fn run(self) {
        let Ok(mut poller) = Poller::new() else {
            return;
        };
        let own = self.inboxes[self.index].clone();
        if poller.add(&own.wake, WAKE_TOKEN).is_err() {
            return;
        }
        if let Some((listener, udp)) = &self.sockets {
            if poller.add(listener, ACCEPT_TOKEN).is_err() || poller.add(udp, UDP_TOKEN).is_err() {
                return;
            }
        }
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        // One read buffer per reactor (not per connection): frames are
        // copied out by the decoder, so the buffer is scratch.
        let mut buf = vec![0u8; 64 * 1024];
        let mut events = Vec::with_capacity(256);
        // Sweep cadence: a fraction of the idle timeout, bounded so the
        // short timeouts tests use still sweep promptly and long
        // production ones don't spin.
        let tick =
            (self.idle_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(500));
        let tick_ms = tick.as_millis() as i32;
        let mut last_sweep = Instant::now();
        // Set while the listening socket is off the poller after a failed
        // accept(2); the next sweep puts it back.
        let mut accept_paused = false;

        'run: loop {
            if poller.wait(&mut events, Some(tick_ms)).is_err() {
                break;
            }
            self.stats.wakeups.inc();
            self.stats.ready_events.record(events.len() as u64);
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            for event in &events {
                let alive = match event.token {
                    WAKE_TOKEN => {
                        own.wake.drain();
                        let injected: Vec<(u64, TcpStream)> =
                            std::mem::take(&mut *own.pending.lock());
                        for (conn_id, stream) in injected {
                            self.register(&poller, &mut conns, conn_id, stream);
                        }
                        true
                    }
                    ACCEPT_TOKEN => {
                        accept_paused = !self.accept_ready(&poller, &mut conns);
                        true
                    }
                    UDP_TOKEN => self.udp_ready(&mut buf),
                    conn_id => self.service(conn_id, &poller, &mut conns, &mut buf),
                };
                if !alive {
                    break 'run; // pipeline gone
                }
            }
            if last_sweep.elapsed() >= tick {
                last_sweep = Instant::now();
                self.sweep_idle(&poller, &mut conns);
                if let (true, Some((listener, _))) = (accept_paused, &self.sockets) {
                    accept_paused = poller.add(listener, ACCEPT_TOKEN).is_err();
                }
            }
        }

        // Graceful drain: flush every owned decoder tail and balance the
        // opened/closed ledger, including connections that were handed
        // to us but never made it out of the inbox.
        for (conn_id, conn) in conns.drain() {
            self.retire(conn_id, conn, false);
        }
        self.stats.connections.set(0);
        for (_conn_id, stream) in own.pending.lock().drain(..) {
            drop(stream);
            self.sink.stats.connections_closed.inc();
        }
    }

    /// Put an accepted connection under this reactor's poller.
    fn register(
        &self,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        conn_id: u64,
        stream: TcpStream,
    ) {
        if stream.set_nonblocking(true).is_err() || poller.add(&stream, conn_id).is_err() {
            // Registration failed: the open was already counted, so
            // account the close to keep the ledger balanced.
            drop(stream);
            self.sink.stats.connections_closed.inc();
            return;
        }
        conns.insert(
            conn_id,
            Conn {
                stream,
                decoder: syslog_model::FrameDecoder::new(),
                decoder_dropped: 0,
                last_activity: Instant::now(),
            },
        );
        self.stats.connections.set(conns.len() as i64);
    }

    /// Accept every pending connection (reactor 0 only) and assign each
    /// to a reactor round-robin. Returns `false` when `accept(2)` failed
    /// for a reason that will not clear by itself (EMFILE/ENFILE under a
    /// connect storm): the listening socket is level-triggered, so leaving
    /// it on the poller would turn `epoll_wait` into a spin. It comes off
    /// until the next sweep tick instead, and the error is counted.
    fn accept_ready(&self, poller: &Poller, conns: &mut HashMap<u64, Conn>) -> bool {
        let Some((listener, _)) = &self.sockets else {
            return true;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let conn_id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
                    self.sink.stats.connections_opened.inc();
                    let target =
                        self.round_robin.fetch_add(1, Ordering::Relaxed) % self.inboxes.len();
                    if target == self.index {
                        self.register(poller, conns, conn_id, stream);
                    } else {
                        self.inboxes[target].pending.lock().push((conn_id, stream));
                        let _ = self.inboxes[target].wake.wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                // A queued peer that reset before accept(2), or a signal:
                // the next pending connection is unaffected.
                Err(e)
                    if e.kind() == ErrorKind::Interrupted
                        || e.kind() == ErrorKind::ConnectionAborted =>
                {
                    continue
                }
                Err(_) => {
                    self.sink.stats.accept_errors.inc();
                    let _ = poller.delete(listener);
                    return false;
                }
            }
        }
    }

    /// Take the pending datagrams off the UDP socket (reactor 0 only): one
    /// datagram = one frame, no framing state to keep. Returns `false`
    /// once the pipeline is gone.
    fn udp_ready(&self, buf: &mut [u8]) -> bool {
        let Some((_, udp)) = &self.sockets else {
            return true;
        };
        let mut frames = Vec::new();
        let mut total = 0u64;
        while frames.len() < MAX_DATAGRAMS_PER_WAKEUP {
            match udp.recv_from(buf) {
                // `Ok(0)` is an empty datagram, not EOF: it is a frame,
                // and the one input the permissive parser rejects.
                Ok((n, _peer)) => {
                    total += n as u64;
                    frames.push(
                        String::from_utf8_lossy(&buf[..n])
                            .trim_end_matches(['\r', '\n'])
                            .to_string(),
                    );
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: the socket is drained
            }
        }
        if frames.is_empty() {
            return true; // spurious readiness
        }
        let stats = &self.sink.stats;
        stats.bytes.add(total);
        stats.udp_datagrams.add(frames.len() as u64);
        stats.udp_bytes.add(total);
        self.stats.read_bytes.record(total);
        self.sink.submit_many(UDP_SOURCE, frames)
    }

    /// Service one readable connection. Returns `false` once the
    /// pipeline is gone (shard rings disconnected).
    fn service(
        &self,
        conn_id: u64,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        buf: &mut [u8],
    ) -> bool {
        let Some(conn) = conns.get_mut(&conn_id) else {
            // Stale event for a connection retired earlier in this batch.
            return true;
        };
        let stats = &self.sink.stats;
        let mut close = false;
        let mut alive = true;
        let mut total = 0u64;
        for _ in 0..MAX_READS_PER_WAKEUP {
            match (&conn.stream).read(buf) {
                Ok(0) => {
                    close = true; // EOF: peer closed cleanly.
                    break;
                }
                Ok(n) => {
                    total += n as u64;
                    conn.last_activity = Instant::now();
                    stats.bytes.add(n as u64);
                    let decode_started = Instant::now();
                    let frames = conn.decoder.push(&buf[..n]);
                    stats.decode_us.record_duration_us(decode_started.elapsed());
                    let dropped_now = conn.decoder.dropped() - conn.decoder_dropped;
                    if dropped_now > 0 {
                        conn.decoder_dropped = conn.decoder.dropped();
                        stats.decode_dropped.add(dropped_now);
                    }
                    if !self.sink.submit_many(conn_id, frames) {
                        alive = false;
                        break;
                    }
                    if n < buf.len() {
                        break; // short read: the socket is drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if total > 0 {
            self.stats.read_bytes.record(total);
        }
        if close {
            if let Some(conn) = conns.remove(&conn_id) {
                let _ = poller.delete(&conn.stream);
                self.retire(conn_id, conn, false);
                self.stats.connections.set(conns.len() as i64);
            }
        }
        alive
    }

    /// Close connections quiet past the idle timeout (decoder tails
    /// flushed, `idle_closed` accounted).
    fn sweep_idle(&self, poller: &Poller, conns: &mut HashMap<u64, Conn>) {
        let expired: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| c.last_activity.elapsed() >= self.idle_timeout)
            .map(|(id, _)| *id)
            .collect();
        if expired.is_empty() {
            return;
        }
        for conn_id in expired {
            if let Some(conn) = conns.remove(&conn_id) {
                let _ = poller.delete(&conn.stream);
                self.retire(conn_id, conn, true);
            }
        }
        self.stats.connections.set(conns.len() as i64);
    }

    /// Account a connection's close: flush the decoder tail, fold
    /// residual decoder drops, bump `idle_closed`/`connections_closed`.
    fn retire(&self, conn_id: u64, conn: Conn, idled: bool) {
        let Conn {
            stream,
            mut decoder,
            decoder_dropped,
            ..
        } = conn;
        drop(stream);
        let stats = &self.sink.stats;
        if let Some(tail) = decoder.finish() {
            self.sink.submit_many(conn_id, vec![tail]);
        }
        let dropped_now = decoder.dropped() - decoder_dropped;
        if dropped_now > 0 {
            stats.decode_dropped.add(dropped_now);
        }
        if idled {
            stats.idle_closed.inc();
        }
        stats.connections_closed.inc();
    }
}
