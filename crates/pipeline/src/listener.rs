//! The socket-facing ingest front end: fault-tolerant TCP + UDP syslog
//! listeners feeding the one live path.
//!
//! The paper's Tivan substrate receives syslog from hundreds of
//! heterogeneous Darwin nodes over the network (rsyslogd → Fluentd →
//! OpenSearch, §2). This module is that receiving edge, built to survive
//! hostile traffic the way production log pipelines do:
//!
//! * **Per-connection decoder state** — each TCP connection owns an RFC
//!   6587 [`FrameDecoder`](syslog_model::FrameDecoder), so one sender's
//!   corrupt framing never desynchronizes another's stream;
//! * **One event-driven front end** — a small pool of epoll
//!   [`reactor`](crate::reactor) threads multiplexes every TCP connection
//!   and the UDP socket; there is no thread per peer and no poll timer;
//! * **Sharded ingest fabric** — frames are partitioned hash-by-connection
//!   (round-robin for UDP) across N [`shard`](crate::shard)s, each with its
//!   own bounded SPSC ring, micro-batch worker, and store write lane (the
//!   worker stage lives in `live.rs`, fed by the reactors and by
//!   [`SyslogListener::feed`]), so throughput scales with cores instead of
//!   serializing on one queue lock; idle workers steal whole batches from
//!   skewed siblings;
//! * **Bounded ingest queue** (summed across the shard rings) with a
//!   configurable [`OverloadPolicy`]:
//!   `Block` applies lossless backpressure through the TCP window, `Shed`
//!   drops frames at the edge and counts every drop by reason;
//! * **Idle timeouts** — a connection that goes quiet past
//!   [`ListenerConfig::idle_timeout`] is closed (and its decoder tail
//!   flushed), so slow or dead peers cannot pin resources forever;
//! * **Dead-letter ring** — the last N unparseable or shed frames are kept
//!   for operator inspection instead of vanishing into a counter;
//! * **Graceful drain** — [`SyslogListener::shutdown`] stops the reactors
//!   (flushing every decoder tail), then drains the queue through the
//!   workers before returning final stats.

use crate::live::LivePath;
use crate::monitor::BatchStats;
use crate::reactor::{ReactorFrontend, ReactorStats};
use crate::shard::ShardStats;
use crate::store::LogStore;
use hetsyslog_core::{HealthSnapshot, IngestSnapshot, MonitorService};
use obs::{Counter, Gauge, Histogram, Registry, Telemetry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

/// The TCP/UDP front end feeding the shard fabric: `threads` epoll
/// reactor threads (`0` = auto), each multiplexing its share of the
/// connections over level-triggered epoll — see [`crate::reactor`].
/// Shutdown wakes the reactors through an eventfd, so `stop()` never
/// waits out a poll interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// The event-driven reactor pool.
    Reactor {
        /// Reactor thread count; `0` picks a small default.
        threads: usize,
    },
}

impl Default for Frontend {
    fn default() -> Frontend {
        Frontend::Reactor { threads: 0 }
    }
}

impl Frontend {
    /// Reactor threads this front end runs. Two by default: enough to
    /// overlap accept with reads, without claiming cores the workers need.
    pub fn reactor_threads(&self) -> usize {
        match self {
            Frontend::Reactor { threads: 0 } => 2,
            Frontend::Reactor { threads } => *threads,
        }
    }
}

/// What to do when the bounded ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the connection thread until the parsers catch up. Lossless:
    /// backpressure propagates to the sender through the TCP window (the
    /// rsyslog disk-queue model without the disk).
    #[default]
    Block,
    /// Drop the frame at the edge and count it. Keeps the listener
    /// responsive under overload at the cost of loss (the UDP-syslog
    /// tradition, applied deliberately).
    Shed,
}

/// Why a frame was dropped or dead-lettered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The bounded queue was full under [`OverloadPolicy::Shed`].
    QueueFull,
    /// `syslog_model::parse` rejected the frame (empty frames; everything
    /// else is absorbed by the free-form fallback).
    ParseError,
}

impl DropReason {
    /// Stable label for logs and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::ParseError => "parse_error",
        }
    }
}

/// Identifies where a frame entered the live path. TCP connections get
/// ids from 1; id 0 is the connectionless source — the UDP socket, and
/// [`SyslogListener::feed`], whose frames carry no ordering contract either.
pub const UDP_SOURCE: u64 = 0;

/// Frames [`SyslogListener::feed`] hands over per enqueue.
const FEED_CHUNK: usize = 64;

/// A frame the pipeline could not (or chose not to) ingest, kept for
/// operator inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Why the frame was dropped.
    pub reason: DropReason,
    /// Connection id the frame arrived on ([`UDP_SOURCE`] for UDP).
    pub source: u64,
    /// The raw frame text (lossy UTF-8).
    pub frame: String,
}

/// Fixed-capacity ring of the most recent [`DeadLetter`]s.
#[derive(Debug)]
pub struct DeadLetterRing {
    capacity: usize,
    items: Mutex<VecDeque<DeadLetter>>,
    total: Arc<Counter>,
}

impl DeadLetterRing {
    /// New ring holding at most `capacity` letters (detached counter — use
    /// [`DeadLetterRing::registered`] to export it).
    pub fn new(capacity: usize) -> DeadLetterRing {
        DeadLetterRing::registered(capacity, &Registry::new())
    }

    /// A ring whose lifetime total is exported as
    /// `hetsyslog_dead_letters_total` on `registry`.
    pub fn registered(capacity: usize, registry: &Registry) -> DeadLetterRing {
        DeadLetterRing {
            capacity: capacity.max(1),
            items: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            total: registry.counter(
                "hetsyslog_dead_letters_total",
                "Frames dead-lettered (shed or unparseable), including evicted ones",
                &[],
            ),
        }
    }

    /// Record a dropped frame, evicting the oldest letter when full.
    pub fn push(&self, letter: DeadLetter) {
        self.total.inc();
        let mut items = self.items.lock();
        if items.len() == self.capacity {
            items.pop_front();
        }
        items.push_back(letter);
    }

    /// The retained letters, oldest first.
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.items.lock().iter().cloned().collect()
    }

    /// Letters currently retained.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }

    /// Total letters ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.total.get()
    }
}

/// Shared, lock-light counters for the whole listener. Snapshot with
/// [`IngestStats::snapshot`] to thread through
/// [`MonitorService::health`](hetsyslog_core::MonitorService::health).
///
/// [`IngestStats::registered`] builds the counters on a shared
/// [`Registry`], so a `/metrics` scrape sees them live; `Default` builds
/// the same counters detached (recording works, nothing is exported).
#[derive(Debug)]
pub struct IngestStats {
    /// Frames offered to the live path (before parse): decoded off the
    /// wire, or handed to [`SyslogListener::feed`].
    pub frames: Arc<Counter>,
    /// Raw bytes received.
    pub bytes: Arc<Counter>,
    /// Records parsed and stored.
    pub ingested: Arc<Counter>,
    /// Frames rejected by the syslog parser.
    pub parse_errors: Arc<Counter>,
    /// Frames shed because the queue was full.
    pub shed: Arc<Counter>,
    /// Corrupt octet counts dropped by the per-connection decoders.
    pub decode_dropped: Arc<Counter>,
    /// TCP connections accepted.
    pub connections_opened: Arc<Counter>,
    /// TCP connections closed (any reason).
    pub connections_closed: Arc<Counter>,
    /// Connections closed for exceeding the idle timeout.
    pub idle_closed: Arc<Counter>,
    /// Datagrams received on the UDP socket.
    pub udp_datagrams: Arc<Counter>,
    /// Raw bytes received on the UDP socket (also folded into `bytes`).
    pub udp_bytes: Arc<Counter>,
    /// Stored records that matched no RFC grammar and fell back to
    /// free-form parsing — the heterogeneity signal.
    pub free_form: Arc<Counter>,
    /// `accept(2)` failures other than a drained backlog or a peer that
    /// reset before the accept (fd exhaustion under a connect storm).
    pub accept_errors: Arc<Counter>,
    /// Wall time spent in `FrameDecoder::push` per read(2).
    pub(crate) decode_us: Arc<Histogram>,
    /// Frames sitting in the bounded ingest queue (sampled by workers).
    pub(crate) queue_depth: Arc<Gauge>,
}

impl Default for IngestStats {
    /// Detached counters: registered on a registry nobody scrapes.
    fn default() -> IngestStats {
        IngestStats::registered(&Registry::new())
    }
}

impl IngestStats {
    /// Ingest counters registered on a shared telemetry registry. Per-drop
    /// reasons share `hetsyslog_ingest_dropped_total` under a `reason`
    /// label, matching [`DropReason::as_str`].
    pub fn registered(registry: &Registry) -> IngestStats {
        let dropped = |reason: DropReason| {
            registry.counter(
                "hetsyslog_ingest_dropped_total",
                "Frames dropped at the ingest edge, by reason",
                &[("reason", reason.as_str())],
            )
        };
        IngestStats {
            frames: registry.counter(
                "hetsyslog_ingest_frames_total",
                "Frames decoded off the wire, before parse",
                &[],
            ),
            bytes: registry.counter(
                "hetsyslog_ingest_bytes_total",
                "Raw bytes received on the TCP and UDP sockets",
                &[],
            ),
            ingested: registry.counter(
                "hetsyslog_ingest_stored_total",
                "Records parsed and inserted into the store",
                &[],
            ),
            parse_errors: dropped(DropReason::ParseError),
            shed: dropped(DropReason::QueueFull),
            decode_dropped: registry.counter(
                "hetsyslog_decoder_dropped_total",
                "Corrupt octet-counted frames dropped by per-connection decoders",
                &[],
            ),
            connections_opened: registry.counter(
                "hetsyslog_ingest_connections_opened_total",
                "TCP connections accepted",
                &[],
            ),
            connections_closed: registry.counter(
                "hetsyslog_ingest_connections_closed_total",
                "TCP connections closed, any reason",
                &[],
            ),
            idle_closed: registry.counter(
                "hetsyslog_ingest_connections_idle_closed_total",
                "TCP connections closed for exceeding the idle timeout",
                &[],
            ),
            udp_datagrams: registry.counter(
                "hetsyslog_udp_datagrams_total",
                "Datagrams received on the UDP socket",
                &[],
            ),
            udp_bytes: registry.counter(
                "hetsyslog_udp_bytes_total",
                "Raw bytes received on the UDP socket",
                &[],
            ),
            free_form: registry.counter(
                "hetsyslog_ingest_free_form_total",
                "Stored records that matched no RFC grammar (free-form fallback)",
                &[],
            ),
            accept_errors: registry.counter(
                "hetsyslog_ingest_accept_errors_total",
                "accept(2) failures that paused the accept loop",
                &[],
            ),
            decode_us: registry.histogram(
                "hetsyslog_stage_duration_us",
                "Per-stage batch processing time in microseconds",
                &[("stage", "decode")],
            ),
            queue_depth: registry.gauge(
                "hetsyslog_ingest_queue_depth",
                "Frames in the bounded ingest queue, sampled at batch pickup",
                &[],
            ),
        }
    }

    /// Point-in-time snapshot in the core wire format.
    pub fn snapshot(&self) -> IngestSnapshot {
        IngestSnapshot {
            frames: self.frames.get(),
            bytes: self.bytes.get(),
            ingested: self.ingested.get(),
            parse_errors: self.parse_errors.get(),
            shed: self.shed.get(),
            decode_dropped: self.decode_dropped.get(),
            connections: self.connections_opened.get(),
            idle_closed: self.idle_closed.get(),
        }
    }
}

/// Listener tuning knobs.
#[derive(Debug, Clone)]
pub struct ListenerConfig {
    /// The socket front end: how many reactor threads serve TCP and UDP.
    pub frontend: Frontend,
    /// Parser/store worker threads. Each worker owns one pipeline shard
    /// (its own SPSC ring and store lane), so this is also the default
    /// shard count when [`ListenerConfig::shards`] is 0.
    pub workers: usize,
    /// Pipeline shards. `0` (the default) follows `workers` — one shard
    /// per worker. Setting it explicitly decouples the two only in tests;
    /// the live topology is always one worker per shard.
    pub shards: usize,
    /// Bounded ingest-queue depth, in frames, summed across every shard's
    /// ring (each ring gets `queue_depth / shards`, rounded up), so the
    /// aggregate in-flight bound is independent of the shard count.
    pub queue_depth: usize,
    /// What to do when the queue is full.
    pub overload: OverloadPolicy,
    /// Close a TCP connection after this long without a byte.
    pub idle_timeout: Duration,
    /// Dead-letter ring capacity.
    pub dead_letter_capacity: usize,
    /// Event time for frames without a parseable timestamp.
    pub fallback_time: i64,
    /// Largest micro-batch a worker assembles before one fused
    /// parse → tokenize → CSR transform → batch-predict call. `1` sends
    /// batches of one frame through the same code.
    pub max_batch: usize,
    /// Longest a worker waits past a batch's first frame before flushing
    /// a partial batch; bounds per-frame tail latency under light load.
    pub max_delay: Duration,
    /// Shared telemetry context. When set, the listener's own counters and
    /// histograms register on its registry and batch-granularity spans
    /// feed its span log; `None` registers the same instruments on a
    /// registry nobody scrapes. The store, the service and the classifier
    /// export wherever *they* were built (`with_registry`) — pass them the
    /// same registry for one `/metrics` view of the whole pipeline.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Serve `GET /metrics` (Prometheus text), `GET /health` (JSON), and
    /// `GET /spans` (JSON) on an ephemeral loopback port. Requires
    /// `telemetry`; see [`SyslogListener::metrics_addr`]. With the flight
    /// recorder on, `GET /alerts` and `GET /flight` ride along.
    pub serve_metrics: bool,
    /// Flight recorder: run a background sampler that scrapes the
    /// telemetry registry into per-series ring buffers and evaluates
    /// [`ListenerConfig::alert_rules`] on every sweep. On by default;
    /// requires `telemetry` (a listener without a registry has nothing to
    /// sample).
    pub record_flight: bool,
    /// Flight-recorder scrape cadence. Each series keeps the last
    /// [`obs::timeseries::DEFAULT_RING_CAPACITY`] samples.
    pub flight_interval: Duration,
    /// Alert rules evaluated by the flight recorder after every sweep.
    /// Firing/resolved state is served at `GET /alerts` and rendered by
    /// `hetsyslog top`.
    pub alert_rules: Vec<obs::Rule>,
    /// Post-classification delivery: every stored batch is also fanned
    /// out to these sinks (see [`crate::sink::FanOut`]). Graceful drain
    /// extends to the sinks — `shutdown` waits for their acks or spills
    /// the remainder durably. `None` ends the pipeline at the store.
    pub fan_out: Option<Arc<crate::sink::FanOut>>,
}

impl Default for ListenerConfig {
    fn default() -> ListenerConfig {
        ListenerConfig {
            frontend: Frontend::default(),
            workers: 2,
            shards: 0,
            queue_depth: 1024,
            overload: OverloadPolicy::Block,
            idle_timeout: Duration::from_secs(30),
            dead_letter_capacity: 64,
            fallback_time: 0,
            max_batch: 64,
            max_delay: Duration::from_millis(2),
            telemetry: None,
            serve_metrics: false,
            record_flight: true,
            flight_interval: obs::timeseries::DEFAULT_SAMPLE_INTERVAL,
            alert_rules: Vec::new(),
            fan_out: None,
        }
    }
}

/// The running live path — its only public driver. Bind with
/// [`SyslogListener::start`], feed it over loopback TCP/UDP or in process
/// with [`SyslogListener::feed`], then [`SyslogListener::shutdown`] for a
/// graceful drain. It owns exactly `reactor_threads + workers` ingest
/// threads.
pub struct SyslogListener {
    tcp_addr: SocketAddr,
    udp_addr: SocketAddr,
    path: LivePath,
    service: Option<Arc<MonitorService>>,
    reactor: ReactorFrontend,
    reactor_stats: Arc<Vec<Arc<ReactorStats>>>,
    endpoints: TelemetryEndpoints,
    fan_out: Option<Arc<crate::sink::FanOut>>,
}

/// The read-only side channels of a listener with telemetry attached: the
/// flight recorder, its alert engine, and the scrape endpoint.
#[derive(Default)]
struct TelemetryEndpoints {
    sampler: Option<obs::Sampler>,
    alert_engine: Option<Arc<obs::AlertEngine>>,
    metrics_server: Option<obs::MetricsServer>,
}

impl TelemetryEndpoints {
    fn start(
        config: &ListenerConfig,
        path: &LivePath,
        service: &Option<Arc<MonitorService>>,
    ) -> std::io::Result<TelemetryEndpoints> {
        let Some(t) = &config.telemetry else {
            return Ok(TelemetryEndpoints::default());
        };
        // The flight recorder: a background sampler scraping the shared
        // registry into per-series rings, with the alert engine evaluated
        // against the fresh window after every sweep. Purely a reader of
        // the registry — it adds no instruments and no work to the hot
        // path beyond one periodic gather().
        let (sampler, alert_engine) = if config.record_flight {
            let engine = Arc::new(obs::AlertEngine::new(config.alert_rules.clone()));
            let sampler = obs::Sampler::start(
                t.registry.clone(),
                obs::SamplerConfig {
                    interval: config.flight_interval,
                    capacity: obs::timeseries::DEFAULT_RING_CAPACITY,
                },
                Some(engine.clone()),
            );
            (Some(sampler), Some(engine))
        } else {
            (None, None)
        };
        // The scrape endpoint rides on the same runtime: `/metrics` is the
        // registry's Prometheus rendering; `/health` serializes the same
        // HealthSnapshot the API returns; `/spans` dumps recent slow
        // spans; `/alerts` and `/flight` expose the flight recorder.
        let metrics_server = if config.serve_metrics {
            let health_stats = path.stats.clone();
            let health_batches = path.batch_stats.clone();
            let health_service = service.clone();
            let health = obs::Route::new("/health", "application/json", move || {
                let ingest = health_stats.snapshot();
                let batching = health_batches.snapshot();
                let snapshot = match &health_service {
                    Some(s) => s.health_with_batching(ingest, batching),
                    None => HealthSnapshot {
                        ingest,
                        batching,
                        ..HealthSnapshot::default()
                    },
                };
                serde_json::to_string(&snapshot).unwrap_or_default()
            });
            let span_log = t.spans.clone();
            let spans_route =
                obs::Route::new("/spans", "application/json", move || span_log.render_json());
            let mut routes = vec![health, spans_route];
            if let Some(engine) = alert_engine.clone() {
                routes.push(obs::Route::new("/alerts", "application/json", move || {
                    engine.render_json()
                }));
            }
            if let Some(sampler) = &sampler {
                let flight = sampler.store();
                routes.push(obs::Route::new("/flight", "application/json", move || {
                    flight.export_json()
                }));
            }
            Some(obs::MetricsServer::start(t.registry.clone(), routes)?)
        } else {
            None
        };
        Ok(TelemetryEndpoints {
            sampler,
            alert_engine,
            metrics_server,
        })
    }

    /// Sampler first, so the final drained counter values land in the
    /// flight ring before the timeline freezes.
    fn stop(&mut self) {
        if let Some(sampler) = &mut self.sampler {
            sampler.stop();
        }
        if let Some(server) = &mut self.metrics_server {
            server.stop();
        }
    }
}

impl SyslogListener {
    /// Bind TCP + UDP sockets on ephemeral loopback ports, start the live
    /// path's workers, and put both sockets under the reactor pool. Pass a
    /// [`MonitorService`] to classify records in flight (`None` stores
    /// them unclassified).
    pub fn start(
        store: Arc<LogStore>,
        service: Option<Arc<MonitorService>>,
        config: ListenerConfig,
    ) -> std::io::Result<SyslogListener> {
        let tcp = TcpListener::bind("127.0.0.1:0")?;
        // The standard library listens with a backlog of 128; a
        // high-fanout connect storm (hundreds of forwarders reconnecting
        // at once) overflows that, and with `tcp_syncookies` the
        // overflow is silent: clients believe they connected while the
        // kernel dropped their handshake ACKs, so their first frames
        // crawl in on retransmit backoff. Resize the accept queue to
        // match the connection counts the front end is built for (the
        // kernel clamps to `net.core.somaxconn`). Best-effort: a kernel
        // that refuses leaves the default backlog in place.
        let _ = netpoll::set_listen_backlog(&tcp, 1024);
        tcp.set_nonblocking(true)?;
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        udp.set_nonblocking(true)?;
        let tcp_addr = tcp.local_addr()?;
        let udp_addr = udp.local_addr()?;

        let path = LivePath::start(store, service.clone(), &config);

        // Everything downstream of the sockets — shard routing, overload
        // policy, dead letters, the drain — sits behind the FrameSink the
        // reactors feed.
        let detached = Registry::new();
        let registry = config.telemetry.as_ref().map_or(&detached, |t| &t.registry);
        let reactor_stats: Arc<Vec<Arc<ReactorStats>>> = Arc::new(
            (0..config.frontend.reactor_threads())
                .map(|k| Arc::new(ReactorStats::registered(k, registry)))
                .collect(),
        );
        let reactor = ReactorFrontend::start(
            tcp,
            udp,
            path.sink().clone(),
            config.idle_timeout,
            reactor_stats.iter().cloned().collect(),
        )?;
        let endpoints = TelemetryEndpoints::start(&config, &path, &service)?;

        Ok(SyslogListener {
            tcp_addr,
            udp_addr,
            path,
            service,
            reactor,
            reactor_stats,
            endpoints,
            fan_out: config.fan_out,
        })
    }

    /// Feed frames that carry no connection identity (and so no ordering
    /// contract) into the same live path the sockets feed: a chunk of
    /// frames per enqueue, spread round-robin over the shards. Blocks
    /// while the rings are full under [`OverloadPolicy::Block`], so a
    /// feed followed by [`SyslogListener::shutdown`] loses nothing.
    pub fn feed(&self, frames: impl IntoIterator<Item = String>) {
        let mut frames = frames.into_iter();
        loop {
            let chunk: Vec<String> = frames.by_ref().take(FEED_CHUNK).collect();
            if chunk.is_empty() || !self.path.sink().submit_many(UDP_SOURCE, chunk) {
                return;
            }
        }
    }

    /// Address of the TCP listener.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// Address of the UDP socket.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// Address of the metrics/health HTTP endpoint, when
    /// [`ListenerConfig::serve_metrics`] was set alongside `telemetry`.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.endpoints.metrics_server.as_ref().map(|s| s.addr())
    }

    /// Live ingest counters.
    pub fn stats(&self) -> &IngestStats {
        &self.path.stats
    }

    /// The flight recorder's ring store, when the sampler is running.
    /// The handle stays valid across [`SyslogListener::shutdown`] for
    /// post-drain timeline export.
    pub fn flight_store(&self) -> Option<Arc<obs::TimeSeriesStore>> {
        self.endpoints.sampler.as_ref().map(|s| s.store())
    }

    /// The alert engine evaluated by the flight recorder, when running.
    pub fn alert_engine(&self) -> Option<Arc<obs::AlertEngine>> {
        self.endpoints.alert_engine.clone()
    }

    /// The dead-letter ring.
    pub fn dead_letters(&self) -> &DeadLetterRing {
        &self.path.dead_letters
    }

    /// A handle to the live micro-batching counters (batch sizes, fill
    /// and queue→prediction latencies, flush reasons). It stays valid
    /// across [`SyslogListener::shutdown`], so callers can read the final
    /// values after the graceful drain completes.
    pub fn batch_stats_handle(&self) -> Arc<BatchStats> {
        self.path.batch_stats.clone()
    }

    /// Per-shard instruments, indexed by shard. The handle stays valid
    /// across [`SyslogListener::shutdown`] for post-drain accounting.
    pub fn shard_stats_handle(&self) -> Arc<Vec<Arc<ShardStats>>> {
        self.path.shard_stats.clone()
    }

    /// Number of pipeline shards this listener runs.
    pub fn n_shards(&self) -> usize {
        self.path.shard_stats.len()
    }

    /// Reactor threads serving the sockets.
    pub fn n_reactors(&self) -> usize {
        self.reactor_stats.len()
    }

    /// Per-reactor instruments, indexed by reactor. Stays valid across
    /// [`SyslogListener::shutdown`] for post-drain accounting.
    pub fn reactor_stats_handle(&self) -> Arc<Vec<Arc<ReactorStats>>> {
        self.reactor_stats.clone()
    }

    /// Combined transport + classification health, when a
    /// [`MonitorService`] is attached.
    pub fn health(&self) -> Option<HealthSnapshot> {
        self.service.as_ref().map(|service| {
            service
                .health_with_batching(self.path.stats.snapshot(), self.path.batch_stats.snapshot())
        })
    }

    /// Graceful drain: stop the reactors (each flushes its connections'
    /// decoder tails on the way out), close the queue, join the workers
    /// after they empty it, and return the final counters.
    pub fn shutdown(mut self) -> IngestSnapshot {
        self.stop();
        self.path.stats.snapshot()
    }

    fn stop(&mut self) {
        // The eventfd wake interrupts epoll_wait immediately; once the
        // reactors are joined, every feeder's FrameSink clone is gone.
        self.reactor.stop();
        // Dropping the router then hangs up every shard's producer,
        // letting each worker drain its ring before observing the hangup.
        self.path.finish();
        // Workers are gone, so every stored batch has been fanned out.
        // The drain now extends downstream: wait for sink acks or spill
        // the remainder durably, so shutdown never strands an in-flight
        // sink batch (idempotent — a caller-owned FanOut may already be
        // shut down).
        if let Some(fan_out) = &self.fan_out {
            fan_out.shutdown(Duration::from_secs(5));
        }
        self.endpoints.stop();
    }
}

impl Drop for SyslogListener {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_letter_ring_evicts_oldest() {
        let ring = DeadLetterRing::new(2);
        for i in 0..5 {
            ring.push(DeadLetter {
                reason: DropReason::QueueFull,
                source: 1,
                frame: format!("frame {i}"),
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.total_recorded(), 5);
        let kept = ring.snapshot();
        assert_eq!(kept[0].frame, "frame 3");
        assert_eq!(kept[1].frame, "frame 4");
    }

    #[test]
    fn stats_snapshot_maps_to_core_format() {
        let stats = IngestStats::default();
        stats.frames.add(10);
        stats.shed.add(3);
        stats.parse_errors.inc();
        let snap = stats.snapshot();
        assert_eq!(snap.frames, 10);
        assert_eq!(snap.total_dropped(), 4);
    }

    #[test]
    fn drop_reasons_have_stable_labels() {
        assert_eq!(DropReason::QueueFull.as_str(), "queue_full");
        assert_eq!(DropReason::ParseError.as_str(), "parse_error");
    }
}
