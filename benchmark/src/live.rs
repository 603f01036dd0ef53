//! The live run: loopback TCP → `SyslogListener` (all `ListenerConfig`
//! defaults, only `fan_out` set) → `MonitorService` → `LogStore` with two
//! lanes → one `FanOut` lane ending in the benchmark's own `StampSink`.
//!
//! Every layer is observed from outside. Time is observed at two points
//! only: when the generator hands bytes to the socket, and when the sink
//! lane delivers a record to `StampSink`.

use crate::matcher::{message_key, Delivery, Send};
use crate::sysinfo;
use crate::workload::{ConnPlan, Load, Model, Plan, Spec, CHUNK_FRAMES, CORPUS_SCALE, FIXED_SEED};
use datagen::CorpusConfig;
use hetsyslog_core::{
    BatchSnapshot, Category, FeatureConfig, IngestSnapshot, MonitorService, MonitorStats,
    TraditionalPipeline,
};
use hetsyslog_ml::{
    BatchClassifier, ComplementNaiveBayes, ComplementNbConfig, KNearestNeighbors, KnnConfig,
};
use logpipeline::{
    FanOut, ListenerConfig, LogStore, Sink, SinkBatch, SinkError, SinkSnapshot, SinkSpec,
    SyslogListener,
};
use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shortest pause of a generator thread: it sleeps, it never spins.
const MIN_PAUSE: Duration = Duration::from_micros(200);
/// How often a closed-loop sender with a full window looks again: well
/// under the time a window takes to drain, so the rings never run dry.
const WINDOW_POLL: Duration = Duration::from_millis(1);
/// Think time of the analyst between query pairs.
const THINK_TIME: Duration = Duration::from_millis(5);
/// Event-time window of the analyst's `search`.
const SEARCH_WINDOW_S: i64 = 120;
/// Query pairs timed against the quiescent warm-up store for a workload
/// without an analyst thread.
const QUIESCENT_QUERY_PAIRS: usize = 101;
/// How long a run may take to drain after the last send before it is
/// declared stuck.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Most connections a workload may open (sender threads ≤ nproc anyway).
const MAX_CONNS: usize = 8;
/// Deliveries `StampSink` has room for without reallocating (24 B each).
const STAMP_CAPACITY: usize = 8 << 20;

pub fn search_terms() -> Vec<String> {
    vec!["temperature".to_string()]
}

/// The benchmark's sink: stamps every delivered record with a monotonic
/// time and its `(node, text)` key, and counts deliveries per connection
/// so closed-loop senders can bound what they have outstanding.
pub struct StampSink {
    epoch: Instant,
    stamps: Mutex<Vec<Delivery>>,
    total: AtomicU64,
    per_conn: Vec<AtomicU64>,
}

impl StampSink {
    fn new(conns: usize) -> StampSink {
        assert!(
            conns <= MAX_CONNS,
            "StampSink tallies at most {MAX_CONNS} connections"
        );
        StampSink {
            epoch: Instant::now(),
            // Reserved once (untouched pages cost nothing): growing by doubling
            // would add its own steps to the peak memory being measured.
            stamps: Mutex::new(Vec::with_capacity(STAMP_CAPACITY)),
            total: AtomicU64::new(0),
            per_conn: (0..conns).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Nanoseconds on the run clock (shared with the generator).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `when` on the run clock.
    fn ns_at(&self, when: Instant) -> u64 {
        (when - self.epoch).as_nanos() as u64
    }

    pub fn delivered(&self) -> u64 {
        // Relaxed: a progress counter; the stamps themselves are read
        // only after the lane thread has been joined.
        self.total.load(Ordering::Relaxed)
    }

    fn take_stamps(&self) -> Vec<Delivery> {
        std::mem::take(&mut *self.stamps.lock().expect("stamp lock: sink never panics"))
    }
}

impl Sink for StampSink {
    fn name(&self) -> &str {
        "stamp"
    }

    fn submit_batch(&self, batch: &SinkBatch) -> Result<(), SinkError> {
        let at_ns = self.now_ns();
        let mut tally = [0u64; MAX_CONNS];
        let conns = self.per_conn.len();
        let mut stamps = self.stamps.lock().expect("stamp lock: sink never panics");
        for record in &batch.records {
            let node: usize = record
                .node
                .get(2..)
                .and_then(|d| d.parse().ok())
                .unwrap_or(0);
            tally[node % conns] += 1;
            stamps.push(Delivery {
                key: message_key(&record.node, &record.message),
                at_ns,
                category: record.category.map_or(u8::MAX, |c| c.index() as u8),
            });
        }
        drop(stamps);
        for (conn, &n) in self.per_conn.iter().zip(&tally) {
            conn.fetch_add(n, Ordering::Relaxed);
        }
        self.total
            .fetch_add(batch.records.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

fn new_model(model: Model) -> Box<dyn BatchClassifier> {
    match model {
        Model::Cnb => Box::new(ComplementNaiveBayes::new(ComplementNbConfig::default())),
        Model::Knn => Box::new(KNearestNeighbors::new(KnnConfig::default())),
    }
}

/// The labelled training corpus. It does not depend on `--seed`: the
/// model is part of the program's configuration, the seed varies the
/// traffic. (A model per seed would make `weighted_f1` differ by ±0.5 %
/// between seeds, more than any approximation it is there to catch.)
pub fn training_corpus() -> Vec<(String, Category)> {
    datagen::corpus::as_pairs(&datagen::generate_corpus(&CorpusConfig {
        scale: CORPUS_SCALE,
        seed: FIXED_SEED,
        ..CorpusConfig::default()
    }))
}

pub fn train(model: Model, corpus: &[(String, Category)]) -> TraditionalPipeline {
    TraditionalPipeline::train(FeatureConfig::default(), new_model(model), corpus)
}

/// A feature pipeline and model trained apart, the way
/// `TraditionalPipeline::train` trains them together, for the replay's
/// isolated `transform_batch_csr` and `predict_csr` calls.
pub fn train_parts(
    model: Model,
    corpus: &[(String, Category)],
) -> (hetsyslog_core::FeaturePipeline, Box<dyn BatchClassifier>) {
    let mut pipeline = hetsyslog_core::FeaturePipeline::new(FeatureConfig::default());
    let messages: Vec<&str> = corpus.iter().map(|(m, _)| m.as_str()).collect();
    let features = pipeline.fit_transform(&messages);
    let labels: Vec<usize> = corpus.iter().map(|(_, c)| c.index()).collect();
    let mut model = new_model(model);
    model.fit(&hetsyslog_ml::Dataset::new(
        features,
        labels,
        Category::all_labels(),
    ));
    (pipeline, model)
}

/// One running instance of the system under test.
pub struct Rig {
    pub store: Arc<LogStore>,
    pub service: Arc<MonitorService>,
    pub sink: Arc<StampSink>,
    pub fan_out: Arc<FanOut>,
    pub listener: SyslogListener,
}

impl Rig {
    pub fn start(spec: &Spec, classifier: Arc<TraditionalPipeline>) -> Rig {
        let store = Arc::new(LogStore::with_lanes(2).with_sealing(spec.seal_threshold));
        let service = Arc::new(MonitorService::new(classifier));
        let sink = Arc::new(StampSink::new(spec.conns));
        let fan_out = FanOut::open(vec![SinkSpec::new(sink.clone())], None)
            .expect("a fan-out without a spill directory opens");
        let listener = SyslogListener::start(
            store.clone(),
            Some(service.clone()),
            ListenerConfig {
                fan_out: Some(fan_out.clone()),
                ..ListenerConfig::default()
            },
        )
        .expect("bind loopback listener");
        Rig {
            store,
            service,
            sink,
            fan_out,
            listener,
        }
    }

    fn wait_delivered(&self, expected: u64) -> bool {
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while self.sink.delivered() < expected {
            if Instant::now() >= give_up {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

/// Everything a run needs before its first byte is sent. Building it is
/// what `setup_s` times.
pub struct Setup {
    pub plan: Plan,
    pub classifier: Arc<TraditionalPipeline>,
    pub rig: Rig,
}

pub fn set_up(spec: &Spec, seed: u64, seconds: u64) -> Setup {
    let classifier = Arc::new(train(spec.model, &training_corpus()));
    let plan = Plan::build(spec, seed, seconds);
    let rig = Rig::start(spec, classifier.clone());
    Setup {
        plan,
        classifier,
        rig,
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).expect("connect to loopback listener");
    sock.set_nodelay(true).expect("set TCP_NODELAY");
    sock
}

/// Push `warmup_frames` frames through a throw-away rig so that lazy
/// set-up in the program, the allocator and the kernel's loopback path is
/// paid before the measured pass. The frames come from a fixed seed, so
/// the drained warm-up store holds the same records in every run.
///
/// Returns the analyst's query pair timed on that store: a quiescent
/// store of fixed content, so that `query_p50_ms` exists (and can
/// regress) on the workloads that run no analyst beside ingest. The pairs
/// look back from evenly spaced points of event time, so one burst of
/// matching messages does not decide the median.
pub fn warm_up(spec: &Spec, classifier: &Arc<TraditionalPipeline>) -> Vec<u64> {
    let frames = Spec {
        load: Load::Closed {
            pool: spec.warmup_frames,
            window: 0,
        },
        ..*spec
    };
    let plan = Plan::build(&frames, FIXED_SEED, 0);
    let rig = Rig::start(spec, classifier.clone());
    let addr = rig.listener.tcp_addr();
    std::thread::scope(|scope| {
        for conn in &plan.conns {
            scope.spawn(move || {
                connect(addr).write_all(&conn.wire).expect("warm-up write");
            });
        }
    });
    assert!(
        rig.wait_delivered(spec.warmup_frames as u64),
        "warm-up pass did not drain"
    );
    let (oldest, newest) = event_time_range(&plan);
    let terms = search_terms();
    let pairs = QUIESCENT_QUERY_PAIRS as i64;
    let query_ns = (1..=pairs)
        .map(|i| {
            let now_event = oldest + (newest - oldest) * i / pairs;
            // The fastest of three: a query the host interrupted says
            // nothing about the store.
            (0..3)
                .map(|_| query_pair(&rig.store, now_event, (oldest, newest), &terms))
                .min()
                .expect("three timings")
        })
        .collect();
    rig.listener.shutdown();
    query_ns
}

/// What one generator thread did.
struct SenderLog {
    /// Closed loop: run-clock time of each chunk `write`, in send order.
    /// Paced: run-clock time each frame was handed to the socket.
    at_ns: Vec<u64>,
    frames_sent: u64,
    cpu_s: f64,
}

fn sleep_until(when: Instant) {
    let now = Instant::now();
    if when > now {
        std::thread::sleep(when - now);
    }
}

fn closed_sender(
    addr: SocketAddr,
    conn: &ConnPlan,
    window: usize,
    sink: &StampSink,
    conn_index: usize,
    start: Instant,
    deadline: Instant,
) -> SenderLog {
    let mut sock = connect(addr);
    let delivered = &sink.per_conn[conn_index];
    let chunks = conn.frames().div_ceil(CHUNK_FRAMES);
    let mut at_ns = Vec::with_capacity(1 << 16);
    let mut sent = 0u64;
    sleep_until(start);
    let cpu0 = sysinfo::thread_cpu_seconds();
    'run: loop {
        for chunk in 0..chunks {
            let lo = chunk * CHUNK_FRAMES;
            let hi = (lo + CHUNK_FRAMES).min(conn.frames());
            let n = (hi - lo) as u64;
            // Relaxed: a progress counter, no data is read through it.
            while (sent + n).saturating_sub(delivered.load(Ordering::Relaxed)) > window as u64 {
                if Instant::now() >= deadline {
                    break 'run;
                }
                std::thread::sleep(WINDOW_POLL);
            }
            if Instant::now() >= deadline {
                break 'run;
            }
            at_ns.push(sink.now_ns());
            sock.write_all(&conn.wire[conn.ends[lo]..conn.ends[hi]])
                .expect("closed-loop write");
            sent += n;
        }
    }
    SenderLog {
        at_ns,
        frames_sent: sent,
        cpu_s: sysinfo::thread_cpu_seconds() - cpu0,
    }
}

fn paced_sender(addr: SocketAddr, conn: &ConnPlan, sink: &StampSink, start: Instant) -> SenderLog {
    let mut sock = connect(addr);
    let n = conn.frames();
    let mut at_ns = vec![0u64; n];
    sleep_until(start);
    let cpu0 = sysinfo::thread_cpu_seconds();
    let mut next = 0;
    let mut earliest_write = start;
    while next < n {
        let due = start + Duration::from_nanos(conn.due_ns[next]);
        sleep_until(due.max(earliest_write));
        // Everything due by now goes out in one write.
        let now = Instant::now();
        let elapsed = (now - start).as_nanos() as u64;
        let mut end = next + 1;
        while end < n && conn.due_ns[end] <= elapsed {
            end += 1;
        }
        let stamp = sink.now_ns();
        sock.write_all(&conn.wire[conn.ends[next]..conn.ends[end]])
            .expect("paced write");
        at_ns[next..end].fill(stamp);
        next = end;
        earliest_write = now + MIN_PAUSE;
    }
    SenderLog {
        at_ns,
        frames_sent: n as u64,
        cpu_s: sysinfo::thread_cpu_seconds() - cpu0,
    }
}

/// One analyst query pair: `search` over the trailing window of event
/// time, then `count_by_template` over everything.
fn query_pair(store: &LogStore, now_event: i64, all: (i64, i64), terms: &[String]) -> u64 {
    let started = Instant::now();
    black_box(store.search(now_event - SEARCH_WINDOW_S, now_event + 1, terms));
    black_box(store.count_by_template(all.0, all.1 + 1));
    started.elapsed().as_nanos() as u64
}

fn analyst(rig: &Rig, plan: &Plan, stop: &AtomicBool) -> (Vec<u64>, f64) {
    let conn = &plan.conns[0];
    let all = event_time_range(plan);
    let terms = search_terms();
    let mut pairs_ns = Vec::new();
    let cpu0 = sysinfo::thread_cpu_seconds();
    // Relaxed: a stop flag that publishes nothing else.
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(THINK_TIME);
        let ingested = rig.listener.stats().ingested.get();
        if ingested == 0 {
            continue;
        }
        // Event time of the newest frame stored so far (one relay
        // connection, so frames arrive in pool order, cycling).
        let newest = conn.msg[(ingested as usize - 1) % conn.frames()];
        let now_event = plan.messages.unix_seconds[newest as usize];
        pairs_ns.push(query_pair(&rig.store, now_event, all, &terms));
    }
    (pairs_ns, sysinfo::thread_cpu_seconds() - cpu0)
}

fn event_time_range(plan: &Plan) -> (i64, i64) {
    let times = &plan.messages.unix_seconds;
    (
        times.iter().copied().min().unwrap_or(0),
        times.iter().copied().max().unwrap_or(0),
    )
}

/// Counters the listener exposes, read after the drain.
pub struct InSitu {
    pub ingest: IngestSnapshot,
    pub monitor: MonitorStats,
    pub batch: BatchSnapshot,
    pub sinks: Vec<SinkSnapshot>,
    pub dead_letters: u64,
    pub stored: u64,
    pub segments: u64,
    pub shards: ShardTotals,
    pub reactors: ReactorTotals,
}

/// `ShardStats` summed over the shards.
#[derive(Default)]
pub struct ShardTotals {
    pub shards: u64,
    /// Frames processed by all workers, and by the busiest one.
    pub processed: u64,
    pub busiest: u64,
    pub stolen_frames: u64,
    /// Wall time the workers spent in classify and in store insert.
    pub classify_us: u64,
    pub insert_us: u64,
}

/// `ReactorStats` summed over the reactors.
#[derive(Default)]
pub struct ReactorTotals {
    pub wakeups: u64,
    pub reads: u64,
    pub read_bytes: u64,
}

/// Raw observations of one measured pass.
pub struct RunData {
    pub sends: Vec<Send>,
    pub deliveries: Vec<Delivery>,
    pub drained: bool,
    /// Send start to last delivery.
    pub wall_s: f64,
    pub process_cpu_s: f64,
    pub generator_cpu_s: f64,
    pub analyst_cpu_s: f64,
    pub peak_rss_mb: f64,
    /// False when the run ended short of the workload's RSS checkpoint and
    /// the peak at the drain was taken instead.
    pub rss_as_specified: bool,
    /// Paced: how late each frame was handed to the socket.
    pub late_ns: Vec<u64>,
    /// Analyst query-pair durations.
    pub query_ns: Vec<u64>,
    pub in_situ: InSitu,
}

/// The measured pass. Consumes the rig: the listener is shut down (a
/// graceful drain) before the counters are read.
pub fn run(
    spec: &Spec,
    plan: &Plan,
    rig: Rig,
    seconds: u64,
    quiescent_query_ns: Vec<u64>,
) -> RunData {
    let generators = spec.conns + usize::from(spec.analyst);
    assert!(
        generators <= sysinfo::nproc(),
        "{} needs {generators} generator threads but only {} CPUs are available; \
         more would measure the scheduler",
        spec.name,
        sysinfo::nproc()
    );
    let addr = rig.listener.tcp_addr();
    let baseline_rss_mb = sysinfo::reset_peak_rss();
    let start = Instant::now() + Duration::from_millis(100);
    let deadline = start + Duration::from_secs(seconds);
    let start_ns = rig.sink.ns_at(start);
    let stop_analyst = AtomicBool::new(false);

    let (logs, query, process_cpu_s, wall_s, drained, rss) = std::thread::scope(|scope| {
        let rig = &rig;
        let senders: Vec<_> = plan
            .conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || match spec.load {
                    Load::Closed { window, .. } => {
                        closed_sender(addr, conn, window, &rig.sink, c, start, deadline)
                    }
                    Load::Paced { .. } => paced_sender(addr, conn, &rig.sink, start),
                })
            })
            .collect();
        let analyst_thread = spec
            .analyst
            .then(|| scope.spawn(|| analyst(rig, plan, &stop_analyst)));
        sleep_until(start);
        let cpu0 = sysinfo::process_cpu_seconds();
        let own_cpu0 = sysinfo::thread_cpu_seconds();
        // Peak memory is read at two fixed counts of delivered records
        // (see `Spec::rss_checkpoint`), so a faster commit is not charged
        // for storing more in the same time.
        let (from, to) = (spec.rss_checkpoint / 5, spec.rss_checkpoint);
        let mut peak_at_from = None;
        let mut peak_at_to = None;
        while !senders.iter().all(|s| s.is_finished()) {
            let delivered = rig.sink.delivered();
            if peak_at_from.is_none() && delivered >= from {
                peak_at_from = Some(sysinfo::peak_rss_mb());
            }
            if peak_at_to.is_none() && delivered >= to {
                peak_at_to = Some(sysinfo::peak_rss_mb());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let logs: Vec<SenderLog> = senders
            .into_iter()
            .map(|s| s.join().expect("sender thread"))
            .collect();
        let sent: u64 = logs.iter().map(|l| l.frames_sent).sum();
        let drained = rig.wait_delivered(sent);
        let wall_s = start.elapsed().as_secs_f64();
        let process_cpu_s = sysinfo::process_cpu_seconds() - cpu0;
        // This thread's polling is the harness's cost, like the senders'.
        let own_cpu_s = sysinfo::thread_cpu_seconds() - own_cpu0;
        // Short of the checkpoint (a short `--seconds`): the growth up to
        // the drain, before the matcher builds its tables.
        let rss = (
            peak_at_to.unwrap_or_else(sysinfo::peak_rss_mb)
                - peak_at_from.unwrap_or(baseline_rss_mb),
            peak_at_to.is_some(),
        );
        stop_analyst.store(true, Ordering::Relaxed);
        let query = analyst_thread.map(|t| t.join().expect("analyst thread"));
        (logs, query, process_cpu_s - own_cpu_s, wall_s, drained, rss)
    });

    let (query_ns, analyst_cpu_s) = query.unwrap_or((quiescent_query_ns, 0.0));

    let shard_stats = rig.listener.shard_stats_handle();
    let reactor_stats = rig.listener.reactor_stats_handle();
    let batch_stats = rig.listener.batch_stats_handle();
    let dead_letters = rig.listener.dead_letters().total_recorded();
    let ingest = rig.listener.shutdown();
    let in_situ = InSitu {
        ingest,
        monitor: rig.service.stats(),
        batch: batch_stats.snapshot(),
        sinks: rig.fan_out.snapshots(),
        dead_letters,
        stored: rig.store.len() as u64,
        segments: rig.store.n_segments() as u64,
        shards: shard_stats
            .iter()
            .fold(ShardTotals::default(), |t, s| ShardTotals {
                shards: t.shards + 1,
                processed: t.processed + s.processed.get(),
                busiest: t.busiest.max(s.processed.get()),
                stolen_frames: t.stolen_frames + s.stolen_frames.get(),
                classify_us: t.classify_us + s.classify_us.sum(),
                insert_us: t.insert_us + s.insert_us.sum(),
            }),
        reactors: reactor_stats
            .iter()
            .fold(ReactorTotals::default(), |t, r| ReactorTotals {
                wakeups: t.wakeups + r.wakeups.get(),
                reads: t.reads + r.read_bytes.count(),
                read_bytes: t.read_bytes + r.read_bytes.sum(),
            }),
    };

    let deliveries = rig.sink.take_stamps();
    let generator_cpu_s = logs.iter().map(|l| l.cpu_s).sum();
    let (sends, late_ns) = expand_sends(spec, plan, &logs, start_ns);
    RunData {
        sends,
        deliveries,
        drained,
        wall_s,
        process_cpu_s,
        generator_cpu_s,
        analyst_cpu_s,
        peak_rss_mb: rss.0,
        rss_as_specified: rss.1,
        late_ns,
        query_ns,
        in_situ,
    }
}

/// One `Send` per frame written, per connection in send order, and for
/// paced workloads how late each frame went out.
fn expand_sends(
    spec: &Spec,
    plan: &Plan,
    logs: &[SenderLog],
    start_ns: u64,
) -> (Vec<Send>, Vec<u64>) {
    let total: u64 = logs.iter().map(|l| l.frames_sent).sum();
    let mut sends = Vec::with_capacity(total as usize);
    let mut late_ns = Vec::new();
    for (conn, log) in plan.conns.iter().zip(logs) {
        let frames = conn.frames();
        for seq in 0..log.frames_sent as usize {
            let k = seq % frames;
            let m = conn.msg[k] as usize;
            let due_ns = match spec.load {
                // Due when its chunk was handed to the socket.
                Load::Closed { .. } => {
                    let chunks = frames.div_ceil(CHUNK_FRAMES);
                    log.at_ns[(seq / frames) * chunks + k / CHUNK_FRAMES]
                }
                Load::Paced { .. } => {
                    let due = start_ns + conn.due_ns[k];
                    late_ns.push(log.at_ns[k].saturating_sub(due));
                    due
                }
            };
            sends.push(Send {
                key: plan.messages.key[m],
                node: plan.messages.node[m],
                seq: seq as u32,
                due_ns,
                msg: m as u32,
            });
        }
    }
    (sends, late_ns)
}
