//! `hetsyslog` — command-line front end.
//!
//! ```text
//! hetsyslog generate --scale 0.05 --seed 42 --out corpus.jsonl
//! hetsyslog train    --corpus corpus.jsonl --model cnb --out model.json
//! hetsyslog classify --model model.json [--explain]   (messages on stdin)
//! hetsyslog eval     --scale 0.02 [--drop-unimportant]
//! hetsyslog monitor  --frames 20000 --workers 4 [--conns 8] [--frontend reactor:threads=2]
//! hetsyslog top      --addr 127.0.0.1:9100 [--watch]
//! hetsyslog flight   export --addr 127.0.0.1:9100 --out flight.json
//! hetsyslog summarize --window 60
//! ```
//!
//! Every subcommand is deterministic under `--seed` and uses only the
//! library crates — the CLI adds no logic of its own.

use hetsyslog::core::persist::{SavedModel, SavedPipeline};
use hetsyslog::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit();
    };
    let opts = Opts::parse(&args[1..]);
    let result = match command.as_str() {
        "generate" => cmd_generate(&opts),
        "train" => cmd_train(&opts),
        "classify" => cmd_classify(&opts),
        "eval" => cmd_eval(&opts),
        "monitor" => cmd_monitor(&opts),
        "top" => cmd_top(&opts),
        "flight" => cmd_flight(&args[1..]),
        "templates" => cmd_templates(&opts),
        "summarize" => cmd_summarize(&opts),
        "--help" | "-h" | "help" => {
            usage_and_exit();
        }
        other => Err(format!("unknown command {other:?}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "hetsyslog — heterogeneous syslog analysis\n\n\
         USAGE:\n  hetsyslog <command> [options]\n\n\
         COMMANDS:\n\
         \x20 generate   --scale F --seed N --out FILE      write a labeled synthetic corpus (JSONL)\n\
         \x20 train      --corpus FILE --model NAME --out FILE   train and save a pipeline\n\
         \x20 classify   --model FILE [--explain]           classify stdin lines\n\
         \x20 eval       --scale F [--drop-unimportant]     run the Figure 3 evaluation\n\
         \x20 monitor    --frames N --workers N [--sink SPEC]... [--spill DIR]  simulate real-time monitoring\n\
         \x20            [--conns N] [--frontend reactor[:threads=N]]   over N loopback TCP connections\n\
         \x20 top        --addr HOST:PORT [--interval-ms N] one-shot dashboard from a /metrics scrape\n\
         \x20            [--watch [--iterations N]]         live refresh + /alerts panel (time-series ring)\n\
         \x20 flight     export --addr HOST:PORT [--out FILE]  dump the /flight time-series ring as JSON\n\
         \x20 templates  --frames N [--top K] [--histogram PATTERN --slot N]  mine the stream into a columnar store\n\
         \x20 summarize  --window MIN                       LLM status summary (future-work demo)\n\n\
         SINKS (repeatable --sink SPEC; --spill DIR adds durable spill-then-replay per sink):\n\
         \x20 file:DIR            append-only CRC-framed segment files\n\
         \x20 bulk[:k=v,...]      simulated bulk indexer (error=F stall_ms=N outage=START+DUR seed=N)\n\
         \x20 metrics             per-category log-to-metric counters\n\n\
         MODELS: lr ridge knn rf svc sgd nc cnb"
    );
    std::process::exit(2);
}

/// Minimal `--key value` / `--flag` option bag. Repeated `--key` values
/// are all kept, in order (`--sink file:out --sink bulk` yields both).
struct Opts {
    values: BTreeMap<String, String>,
    repeated: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut values = BTreeMap::new();
        let mut repeated = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = it.next().unwrap().clone();
                        values.insert(key.to_string(), value.clone());
                        repeated.push((key.to_string(), value));
                    }
                    _ => flags.push(key.to_string()),
                }
            }
        }
        Opts {
            values,
            repeated,
            flags,
        }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Every value a repeated `--key` was given, in command-line order.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.repeated
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number")),
            None => Ok(default),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer")),
            None => Ok(default),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

fn load_corpus(opts: &Opts) -> Result<Vec<(String, Category)>, String> {
    match opts.get("corpus") {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let corpus = datagen::corpus::read_jsonl(std::io::BufReader::new(file))
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(datagen::corpus::as_pairs(&corpus))
        }
        None => {
            let scale = opts.get_f64("scale", 0.02)?;
            let seed = opts.get_u64("seed", 42)?;
            Ok(datagen::corpus::as_pairs(&generate_corpus(&CorpusConfig {
                scale,
                seed,
                min_per_class: 12,
            })))
        }
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let scale = opts.get_f64("scale", 0.05)?;
    let seed = opts.get_u64("seed", 42)?;
    let corpus = generate_corpus(&CorpusConfig {
        scale,
        seed,
        min_per_class: 12,
    });
    let out: Box<dyn Write> = match opts.get("out") {
        Some(path) => Box::new(std::fs::File::create(path).map_err(|e| e.to_string())?),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut out = std::io::BufWriter::new(out);
    datagen::corpus::write_jsonl(&corpus, &mut out).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} labeled messages (scale {scale}, seed {seed})",
        corpus.len()
    );
    Ok(())
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    let model_name = opts.get("model").unwrap_or("cnb");
    let model = SavedModel::by_name(model_name).ok_or_else(|| {
        format!("unknown model {model_name:?} (try: lr ridge knn rf svc sgd nc cnb)")
    })?;
    let t0 = std::time::Instant::now();
    let pipeline = SavedPipeline::train(FeatureConfig::default(), model, &corpus);
    let seconds = t0.elapsed().as_secs_f64();
    let out = opts.get("out").unwrap_or("model.json");
    pipeline
        .save(std::path::Path::new(out))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "trained {} on {} messages in {seconds:.2}s → {out}",
        pipeline.name(),
        corpus.len()
    );
    Ok(())
}

fn cmd_classify(opts: &Opts) -> Result<(), String> {
    let model_path = opts.get("model").ok_or("--model FILE is required")?;
    let pipeline = SavedPipeline::load(std::path::Path::new(model_path))?;
    let explain = opts.has("explain");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        // Accept both raw message text and full syslog frames.
        let message = match parse(&line) {
            Ok(m) => m.message,
            Err(_) => line.clone(),
        };
        let p = pipeline.classify(&message);
        if explain {
            let tokens = pipeline.features.top_contributing_tokens(&message, 3);
            let ev: Vec<String> = tokens.iter().map(|(t, w)| format!("{t}:{w:.2}")).collect();
            writeln!(stdout, "{}\t{}\t[{}]", p.category, message, ev.join(", "))
                .map_err(|e| e.to_string())?;
        } else {
            writeln!(stdout, "{}\t{}", p.category, message).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_eval(opts: &Opts) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    let seed = opts.get_u64("seed", 42)?;
    let config = hetsyslog::core::eval::EvalConfig {
        seed,
        drop_unimportant: opts.has("drop-unimportant"),
        ..Default::default()
    };
    let mut models = paper_suite(seed);
    let (split, evals) = hetsyslog::core::eval::evaluate_suite(&corpus, &mut models, &config);
    println!(
        "{} train / {} test / {} features",
        split.train.len(),
        split.test.len(),
        split.train.n_features()
    );
    for e in &evals {
        println!(
            "{:<26} wF1={:.6} train={:>9.4}s test={:>9.4}s",
            e.report.model, e.report.weighted_f1, e.report.train_seconds, e.report.test_seconds
        );
    }
    Ok(())
}

/// Parse the repeated `--sink` specs into fan-out lanes:
///
/// * `file:DIR` — append-only CRC-framed segment files under `DIR`;
/// * `bulk[:k=v,…]` — simulated bulk indexer; options `error=F` (nack
///   rate), `stall_ms=N`, `outage=START+DUR` (seconds from first request),
///   `seed=N`;
/// * `metrics` — log-to-metric sink on the shared registry.
///
/// With `--spill DIR`, every lane gets a durable spill directory
/// `DIR/<sink-name>` (overload and outages become spill-then-replay
/// instead of drops).
fn parse_sink_specs(opts: &Opts, registry: &Registry) -> Result<Vec<SinkSpec>, String> {
    use std::time::Duration;
    let spill_root = opts.get("spill");
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut specs = Vec::new();
    for raw in opts.get_all("sink") {
        let (kind, arg) = match raw.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (raw, None),
        };
        let nth = *seen
            .entry(kind.to_string())
            .and_modify(|n| *n += 1)
            .or_insert(0);
        let name = if nth == 0 {
            kind.to_string()
        } else {
            format!("{kind}-{nth}")
        };
        let sink: Arc<dyn Sink> = match kind {
            "file" => {
                let dir = arg.ok_or("--sink file:DIR needs a directory")?;
                Arc::new(FileSink::new(name.clone(), dir).map_err(|e| format!("{dir}: {e}"))?)
            }
            "bulk" => {
                let mut plan = FaultPlan::healthy();
                for kv in arg.unwrap_or("").split(',').filter(|s| !s.is_empty()) {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("bad bulk option {kv:?} (want key=value)"))?;
                    let num = || -> Result<f64, String> {
                        v.parse()
                            .map_err(|_| format!("bulk {k}={v:?}: not a number"))
                    };
                    plan = match k {
                        "error" => plan.with_error_rate(num()?),
                        "stall_ms" => plan.with_stall(Duration::from_millis(num()? as u64)),
                        "seed" => plan.with_seed(num()? as u64),
                        "outage" => {
                            let (start, dur) = v.split_once('+').ok_or_else(|| {
                                format!("bulk outage={v:?}: want START+DUR seconds")
                            })?;
                            let secs = |s: &str| -> Result<Duration, String> {
                                s.parse::<f64>()
                                    .map(Duration::from_secs_f64)
                                    .map_err(|_| format!("bulk outage={v:?}: not numbers"))
                            };
                            plan.with_outage(secs(start)?, secs(dur)?)
                        }
                        other => return Err(format!("unknown bulk option {other:?}")),
                    };
                }
                Arc::new(BulkSink::new(name.clone(), plan))
            }
            "metrics" => Arc::new(MetricSink::new(name.clone(), registry)),
            other => {
                return Err(format!(
                    "unknown sink kind {other:?} (want file:DIR, bulk[:opts], or metrics)"
                ))
            }
        };
        let mut config = SinkLaneConfig::default();
        if let Some(root) = spill_root {
            config = config.with_spill(SpillConfig::new(std::path::Path::new(root).join(&name)));
        }
        specs.push(SinkSpec::with_config(sink, config));
    }
    Ok(specs)
}

/// Parse a `--frontend` spec: `reactor` or `reactor:threads=N`.
fn parse_frontend(spec: &str) -> Result<Frontend, String> {
    match spec.split_once(':') {
        None if spec == "reactor" => Ok(Frontend::Reactor { threads: 0 }),
        Some(("reactor", arg)) => {
            let n = arg
                .strip_prefix("threads=")
                .ok_or_else(|| format!("--frontend reactor:{arg}: want reactor:threads=N"))?
                .parse()
                .map_err(|_| format!("--frontend reactor:{arg}: thread count must be a number"))?;
            Ok(Frontend::Reactor { threads: n })
        }
        _ => Err(format!(
            "unknown front end {spec:?} (want reactor or reactor:threads=N)"
        )),
    }
}

fn cmd_monitor(opts: &Opts) -> Result<(), String> {
    let frames = opts.get_u64("frames", 20_000)? as usize;
    let workers = opts.get_u64("workers", 4)? as usize;
    let seed = opts.get_u64("seed", 42)?;
    let frontend = opts
        .get("frontend")
        .map(parse_frontend)
        .transpose()?
        .unwrap_or_default();
    let corpus = load_corpus(opts)?;
    let clf: Arc<dyn TextClassifier> = Arc::new(TraditionalPipeline::train(
        FeatureConfig::default(),
        Box::new(ComplementNaiveBayes::new(Default::default())),
        &corpus,
    ));
    let service = Arc::new(MonitorService::new(clf));
    let store = Arc::new(LogStore::new());
    let registry = Registry::new();
    let sink_specs = parse_sink_specs(opts, &registry)?;
    let fan_out = if sink_specs.is_empty() {
        None
    } else {
        Some(FanOut::open(sink_specs, Some(&registry)).map_err(|e| e.to_string())?)
    };
    let stream: Vec<String> = StreamGenerator::new(StreamConfig {
        seed,
        ..StreamConfig::default()
    })
    .take(frames)
    .map(|t| t.to_frame())
    .collect();
    let (ingested, seconds) =
        run_monitor_listener(opts, frontend, workers, &stream, &store, &service, &fan_out)?;
    let stats = service.stats();
    let rate = if seconds > 0.0 {
        ingested as f64 / seconds
    } else {
        0.0
    };
    println!(
        "ingested {} frames in {:.2}s ({:.2}M msgs/hour sustained)",
        ingested,
        seconds,
        rate * 3600.0 / 1e6
    );
    let actionable: u64 = Category::ALL
        .iter()
        .filter(|c| c.is_actionable())
        .map(|&c| stats.count(c))
        .sum();
    println!("{actionable} actionable");
    for &c in &Category::ALL {
        if stats.count(c) > 0 {
            println!("  {:<20} {}", c.label(), stats.count(c));
        }
    }
    let mut first = Vec::new();
    store.scan(i64::MIN, i64::MAX, &[], |r| match r.category {
        Some(c) if c.is_actionable() && first.len() < 3 => first.push((c, r.message.clone())),
        _ => {}
    });
    for (c, message) in first {
        println!("actionable: [{c}] {message} -> {}", c.suggested_action());
    }
    if let Some(fan_out) = &fan_out {
        // The listener's graceful drain already waited for sink acks (or
        // spilled the remainder): print each lane's delivery ledger.
        println!(
            "\n{:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "sink", "submitted", "delivered", "dropped", "spilled", "pending", "retries", "ledger"
        );
        for s in fan_out.snapshots() {
            println!(
                "{:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                s.sink,
                s.submitted,
                s.delivered,
                s.dropped,
                s.spilled,
                s.spilled_pending,
                s.retries,
                if s.ledger_balanced() { "OK" } else { "BROKEN" },
            );
        }
    }
    Ok(())
}

/// The monitor's one path: start a [`SyslogListener`] on loopback with
/// the requested reactor pool, replay the frame stream over `--conns`
/// octet-counting TCP senders — framing, shard routing, batched
/// classification, store and sink fan-out, end to end — wait for the
/// drain, and return `(ingested, seconds)`. The listener's graceful
/// shutdown also drains the sink fan-out.
fn run_monitor_listener(
    opts: &Opts,
    frontend: Frontend,
    workers: usize,
    stream: &[String],
    store: &Arc<LogStore>,
    service: &Arc<MonitorService>,
    fan_out: &Option<Arc<FanOut>>,
) -> Result<(u64, f64), String> {
    use std::net::TcpStream;
    use std::time::{Duration, Instant};
    let conns = (opts.get_u64("conns", 8)? as usize).max(1);
    let listener = SyslogListener::start(
        store.clone(),
        Some(service.clone()),
        ListenerConfig {
            frontend,
            workers,
            fan_out: fan_out.clone(),
            ..ListenerConfig::default()
        },
    )
    .map_err(|e| format!("start listener: {e}"))?;
    let addr = listener.tcp_addr();
    println!(
        "listener up: tcp={addr}, front end {frontend:?} ({} reactor thread(s)), {conns} connection(s)",
        listener.n_reactors(),
    );

    let started = Instant::now();
    let senders: Vec<_> = (0..conns)
        .map(|c| {
            let share: Vec<String> = stream.iter().skip(c).step_by(conns).cloned().collect();
            std::thread::spawn(move || -> Result<(), String> {
                let mut sock =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let mut wire = Vec::with_capacity(share.iter().map(|f| f.len() + 8).sum());
                for frame in &share {
                    wire.extend_from_slice(format!("{} {frame}", frame.len()).as_bytes());
                }
                sock.write_all(&wire).map_err(|e| format!("write: {e}"))
            })
        })
        .collect();
    for sender in senders {
        sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())??;
    }
    let expected = stream.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(300);
    while listener.stats().snapshot().ingested < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let seconds = started.elapsed().as_secs_f64();
    let report = listener.shutdown();
    if report.ingested < expected {
        return Err(format!(
            "listener drained only {} of {expected} frames: {report:?}",
            report.ingested
        ));
    }
    Ok((report.ingested, seconds))
}

/// `hetsyslog top` — a terminal dashboard over a live listener's scrape
/// endpoints (see [`ListenerConfig::serve_metrics`]). Every refresh
/// ingests the `/metrics` body into a client-side [`obs::TimeSeriesStore`]
/// ring — the same delta-aware windowed aggregates the in-process flight
/// recorder uses — so counter rates and histogram quantiles cover exactly
/// the observations inside the window. One-shot by default; `--watch`
/// keeps refreshing (and renders the `/alerts` state machine alongside).
fn cmd_top(opts: &Opts) -> Result<(), String> {
    let addr = opts
        .get("addr")
        .ok_or("--addr HOST:PORT of a /metrics endpoint is required")?;
    let interval_ms = opts.get_u64("interval-ms", 1000)?.max(10);
    let watch = opts.has("watch");
    let iterations = opts.get_u64("iterations", 0)?;
    let store = obs::TimeSeriesStore::new(obs::timeseries::DEFAULT_RING_CAPACITY);
    let ingest = || -> Result<(), String> {
        let body = obs::http_get(addr, "/metrics").map_err(|e| format!("{addr}: {e}"))?;
        store.ingest_scrape(&obs::parse_exposition(&body), store.now_ms(), unix_ms());
        Ok(())
    };
    // The aggregate window spans the newest few points, so the very first
    // render already has a counter delta to turn into a rate.
    let window_ms = interval_ms
        .saturating_mul(2)
        .saturating_add(interval_ms / 2);
    ingest()?;
    let mut round = 0u64;
    loop {
        round += 1;
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        ingest()?;
        let alerts = obs::http_get(addr, "/alerts").ok();
        let frame = render_dashboard(&store, addr, window_ms, alerts.as_deref());
        if watch {
            // Repaint in place; build the frame first so the clear and the
            // redraw land in one write (no visible flicker).
            print!("\x1b[2J\x1b[H{frame}");
            let _ = std::io::stdout().flush();
        } else {
            print!("{frame}");
        }
        if !watch || (iterations > 0 && round >= iterations) {
            return Ok(());
        }
    }
}

/// Wall-clock milliseconds since the Unix epoch (for flight timelines).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Render one dashboard frame from the client-side flight ring.
fn render_dashboard(
    store: &obs::TimeSeriesStore,
    addr: &str,
    window_ms: u64,
    alerts_json: Option<&str>,
) -> String {
    let mut out = String::new();
    let _ = write_dashboard(&mut out, store, addr, window_ms, alerts_json);
    out
}

fn write_dashboard(
    out: &mut String,
    store: &obs::TimeSeriesStore,
    addr: &str,
    window_ms: u64,
    alerts_json: Option<&str>,
) -> std::fmt::Result {
    use std::fmt::Write;
    let latest =
        |name: &str, labels: &[(&str, &str)]| store.latest(name, labels).map_or(0.0, |p| p.value);
    let rate = |name: &str| {
        store
            .window(name, &[], window_ms)
            .map_or(0.0, |w| w.rate_per_sec)
    };
    writeln!(out, "hetsyslog top — {addr} (window {window_ms}ms)\n")?;
    writeln!(
        out,
        "ingest   frames {:>10}  ({:>8.0}/s)   bytes {:>12}  ({:>10.0}/s)",
        latest("hetsyslog_ingest_frames_total", &[]) as u64,
        rate("hetsyslog_ingest_frames_total"),
        latest("hetsyslog_ingest_bytes_total", &[]) as u64,
        rate("hetsyslog_ingest_bytes_total"),
    )?;
    let udp = latest("hetsyslog_udp_datagrams_total", &[]);
    if udp > 0.0 {
        writeln!(
            out,
            "udp      datagrams {:>7}  ({:>8.0}/s)   bytes {:>12}",
            udp as u64,
            rate("hetsyslog_udp_datagrams_total"),
            latest("hetsyslog_udp_bytes_total", &[]) as u64,
        )?;
    }
    writeln!(
        out,
        "store    stored {:>10}  ({:>8.0}/s)   records {:>10}   shards {:>3}",
        latest("hetsyslog_ingest_stored_total", &[]) as u64,
        rate("hetsyslog_ingest_stored_total"),
        latest("hetsyslog_store_records_total", &[]) as u64,
        latest("hetsyslog_store_shards", &[]) as u64,
    )?;
    writeln!(
        out,
        "queue    depth {:>6}    dead letters {:>6}    dropped: queue_full={} parse_error={}",
        latest("hetsyslog_ingest_queue_depth", &[]) as u64,
        latest("hetsyslog_dead_letters_total", &[]) as u64,
        latest(
            "hetsyslog_ingest_dropped_total",
            &[("reason", "queue_full")]
        ),
        latest(
            "hetsyslog_ingest_dropped_total",
            &[("reason", "parse_error")]
        ),
    )?;
    writeln!(
        out,
        "batch    batches {:>9}  ({:>8.0}/s)   classified {:>10}  ({:>8.0}/s)\n",
        latest("hetsyslog_batch_batches_total", &[]) as u64,
        rate("hetsyslog_batch_batches_total"),
        latest("hetsyslog_batch_classified_total", &[]) as u64,
        rate("hetsyslog_batch_classified_total"),
    )?;

    // Per-pipeline-shard fabric view: one row per `shard=N` label seen on
    // the routed-frames family (absent on pre-sharding or detached runs).
    let keys = store.series_keys();
    let mut shard_ids: Vec<String> = keys
        .iter()
        .filter(|(name, _)| name == "hetsyslog_shard_frames_total")
        .filter_map(|(_, labels)| {
            labels
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
        })
        .collect();
    shard_ids.sort_by_key(|s| s.parse::<u64>().unwrap_or(u64::MAX));
    shard_ids.dedup();
    if !shard_ids.is_empty() {
        writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>8} {:>8} {:>14}",
            "shard", "routed/s", "done/s", "depth", "steals", "stolen frames"
        )?;
        for id in &shard_ids {
            let labels: &[(&str, &str)] = &[("shard", id.as_str())];
            let srate = |name: &str| {
                store
                    .window(name, labels, window_ms)
                    .map_or(0.0, |w| w.rate_per_sec)
            };
            writeln!(
                out,
                "{:<8} {:>10.0} {:>10.0} {:>8} {:>8} {:>14}",
                id,
                srate("hetsyslog_shard_frames_total"),
                srate("hetsyslog_shard_processed_total"),
                latest("hetsyslog_shard_queue_depth", labels) as u64,
                latest("hetsyslog_shard_steals_total", labels) as u64,
                latest("hetsyslog_shard_stolen_frames_total", labels) as u64,
            )?;
        }
        writeln!(out)?;
    }

    // Per-sink delivery ledger: one row per `sink=` label on the sink
    // stage's instruments (absent when no fan-out is attached).
    let mut sink_names: Vec<String> = keys
        .iter()
        .filter(|(name, _)| name == "hetsyslog_sink_submitted_total")
        .filter_map(|(_, labels)| {
            labels
                .iter()
                .find(|(k, _)| k == "sink")
                .map(|(_, v)| v.clone())
        })
        .collect();
    sink_names.sort();
    sink_names.dedup();
    if !sink_names.is_empty() {
        writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>9} {:>9} {:>9} {:>8}",
            "sink", "submitted/s", "delivered/s", "dropped", "inflight", "pending", "nacks"
        )?;
        for name in &sink_names {
            let labels: &[(&str, &str)] = &[("sink", name.as_str())];
            let srate = |n: &str| {
                store
                    .window(n, labels, window_ms)
                    .map_or(0.0, |w| w.rate_per_sec)
            };
            // Dropped is further split by `reason`; fold it per sink.
            let dropped: f64 = keys
                .iter()
                .filter(|(n, ls)| {
                    n == "hetsyslog_sink_dropped_total"
                        && ls.iter().any(|(k, v)| k == "sink" && v == name)
                })
                .map(|(n, ls)| {
                    let refs: Vec<(&str, &str)> =
                        ls.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                    latest(n, &refs)
                })
                .sum();
            writeln!(
                out,
                "{:<12} {:>12.0} {:>12.0} {:>9} {:>9} {:>9} {:>8}",
                name,
                srate("hetsyslog_sink_submitted_total"),
                srate("hetsyslog_sink_delivered_total"),
                dropped,
                latest("hetsyslog_sink_inflight", labels) as u64,
                latest("hetsyslog_spill_pending", labels) as u64,
                latest("hetsyslog_sink_nacks_total", labels) as u64,
            )?;
        }
        writeln!(out)?;
    }

    // Stage latency: quantiles over exactly the observations inside the
    // window (delta of cumulative snapshots); when the window saw nothing,
    // fall back to the lifetime distribution so an idle or drained
    // pipeline still shows meaningful figures.
    writeln!(
        out,
        "{:<20} {:>10} {:>10} {:>10} {:>12}",
        "stage", "p50(µs)", "p99(µs)", "obs/s", "samples"
    )?;
    for stage in [
        "decode",
        "parse",
        "tokenize_transform",
        "predict",
        "store_insert",
    ] {
        let labels: &[(&str, &str)] = &[("stage", stage)];
        let (p50, p99, obs_rate) =
            windowed_quantiles(store, "hetsyslog_stage_duration_us", labels, window_ms);
        let samples = store
            .latest("hetsyslog_stage_duration_us", labels)
            .and_then(|p| p.hist)
            .map_or(0, |h| h.count);
        writeln!(
            out,
            "{:<20} {:>10} {:>10} {:>10.0} {:>12}",
            stage, p50, p99, obs_rate, samples,
        )?;
    }

    write_model_panel(out, store, &keys, window_ms)?;
    if let Some(body) = alerts_json {
        write_alerts_panel(out, body)?;
    }
    Ok(())
}

/// Windowed `(p50, p99, observations/sec)` of a histogram series; falls
/// back to lifetime quantiles (rate 0) when nothing landed in the window.
fn windowed_quantiles(
    store: &obs::TimeSeriesStore,
    name: &str,
    labels: &[(&str, &str)],
    window_ms: u64,
) -> (u64, u64, f64) {
    match store.window(name, labels, window_ms) {
        Some(w) if w.delta_count > 0 => (w.p50, w.p99, w.rate_per_sec),
        _ => store
            .latest(name, labels)
            .and_then(|p| p.hist)
            .map_or((0, 0, 0.0), |h| (h.quantile(50.0), h.quantile(99.0), 0.0)),
    }
}

/// Model-quality panel: PSI drift score, per-model confidence margins,
/// and the prediction share by category (absent until the classify stage
/// exports `hetsyslog_model_*`).
fn write_model_panel(
    out: &mut String,
    store: &obs::TimeSeriesStore,
    keys: &[(String, obs::Labels)],
    window_ms: u64,
) -> std::fmt::Result {
    use std::fmt::Write;
    if let Some(psi) = store.latest("hetsyslog_model_drift_psi_milli", &[]) {
        writeln!(
            out,
            "\nmodel    drift PSI {:>5} milli   (0.25 = investigate, so alert at 250)",
            psi.value as i64
        )?;
        for (name, labels) in keys {
            if name != "hetsyslog_model_confidence_margin_milli" {
                continue;
            }
            let model = labels
                .iter()
                .find(|(k, _)| k == "model")
                .map_or("?", |(_, v)| v.as_str());
            let refs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let (p50, p99, _) = windowed_quantiles(store, name, &refs, window_ms);
            writeln!(
                out,
                "         margin[{model}]  p50 {:>6}m  p99 {:>6}m",
                p50, p99
            )?;
        }
    }
    // Prediction share per category (preferred); classified counts as the
    // fallback for pre-quality builds.
    let share_family = if keys
        .iter()
        .any(|(n, _)| n == "hetsyslog_model_predictions_total")
    {
        ("hetsyslog_model_predictions_total", "category")
    } else {
        ("hetsyslog_monitor_classified_total", "category")
    };
    let mut by_category: Vec<(String, f64)> = keys
        .iter()
        .filter(|(n, _)| n == share_family.0)
        .filter_map(|(n, labels)| {
            let category = labels.iter().find(|(k, _)| k == share_family.1)?;
            let refs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let value = store.latest(n, &refs).map_or(0.0, |p| p.value);
            (value > 0.0).then(|| (category.1.clone(), value))
        })
        .collect();
    by_category.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let total: f64 = by_category.iter().map(|(_, v)| v).sum();
    if !by_category.is_empty() {
        writeln!(out, "\npredictions by category:")?;
        for (category, n) in by_category {
            writeln!(
                out,
                "  {category:<28} {n:>10.0}  ({:>5.1}%)",
                100.0 * n / total.max(1.0)
            )?;
        }
    }
    Ok(())
}

/// Render the `/alerts` JSON document (rule statuses + recent
/// transitions) as the dashboard's alert panel.
fn write_alerts_panel(out: &mut String, body: &str) -> std::fmt::Result {
    use std::fmt::Write;
    let Ok(doc) = serde_json::from_str::<serde_json::Value>(body) else {
        return Ok(());
    };
    if let Some(alerts) = doc.get("alerts").and_then(|a| a.as_array()) {
        if !alerts.is_empty() {
            writeln!(
                out,
                "\n{:<9} {:<22} {:>5} {:>10}  condition",
                "state", "alert", "fired", "value"
            )?;
            for alert in alerts {
                let text = |key: &str| {
                    alert
                        .get(key)
                        .and_then(|v| v.as_str())
                        .unwrap_or("?")
                        .to_string()
                };
                let value = alert
                    .get("value")
                    .and_then(|v| v.as_f64())
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
                writeln!(
                    out,
                    "{:<9} {:<22} {:>5} {:>10}  {}",
                    text("state"),
                    text("name"),
                    alert
                        .get("fired_count")
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0),
                    value,
                    text("condition"),
                )?;
            }
        }
    }
    if let Some(events) = doc.get("events").and_then(|e| e.as_array()) {
        let recent: Vec<String> = events
            .iter()
            .rev()
            .take(5)
            .filter_map(|e| {
                Some(format!(
                    "[{}ms] {} → {}",
                    e.get("at_ms").and_then(|v| v.as_u64())?,
                    e.get("rule").and_then(|v| v.as_str())?,
                    e.get("transition").and_then(|v| v.as_str())?,
                ))
            })
            .collect();
        if !recent.is_empty() {
            writeln!(out, "recent:   {}", recent.join("   "))?;
        }
    }
    Ok(())
}

/// `hetsyslog flight export` — dump a live listener's flight-recorder
/// ring (`GET /flight`) as a JSON timeline for post-mortem analysis.
fn cmd_flight(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) != Some("export") {
        return Err("usage: hetsyslog flight export --addr HOST:PORT [--out FILE]".to_string());
    }
    let opts = Opts::parse(&args[1..]);
    let addr = opts
        .get("addr")
        .ok_or("--addr HOST:PORT of a listener with the flight recorder enabled is required")?;
    let body = obs::http_get(addr, "/flight").map_err(|e| {
        format!("{addr}: {e} (flight recorder off? see ListenerConfig::record_flight)")
    })?;
    let series = serde_json::from_str::<serde_json::Value>(&body)
        .ok()
        .and_then(|v| v.get("series").and_then(|s| s.as_array()).map(|a| a.len()))
        .unwrap_or(0);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {} bytes ({series} series) → {path}", body.len());
        }
        None => {
            println!("{body}");
            eprintln!("({series} series)");
        }
    }
    Ok(())
}

/// `hetsyslog templates` — run the synthetic stream into the log store,
/// seal it into template-mined columnar segments (DESIGN.md §6), and show
/// what the sealed tier knows without decompressing anything: rows per
/// template pattern, plus compression figures. With `--histogram PATTERN
/// --slot N` also prints the value distribution of one variable slot
/// (decompresses exactly one column per segment).
fn cmd_templates(opts: &Opts) -> Result<(), String> {
    let frames = opts.get_u64("frames", 20_000)? as usize;
    let seed = opts.get_u64("seed", 42)?;
    let top = opts.get_u64("top", 15)? as usize;
    let store = LogStore::new();
    let records = StreamGenerator::new(StreamConfig {
        seed,
        ..StreamConfig::default()
    })
    .take(frames)
    .enumerate()
    .map(|(i, tm)| hetsyslog::pipeline::LogRecord {
        id: i as u64,
        unix_seconds: tm.unix_seconds,
        node: tm.message.node.clone(),
        app: tm.message.app.clone(),
        severity: if tm.message.category.is_actionable() {
            Severity::Warning
        } else {
            Severity::Informational
        },
        facility: hetsyslog::syslog::Facility::Daemon,
        message: tm.message.text,
        category: Some(tm.message.category),
    });
    store.insert_batch(records);
    let mut jsonl = Vec::new();
    store.export_jsonl(&mut jsonl).map_err(|e| e.to_string())?;
    store.seal_all();
    let stats = store.segment_stats();

    let mut counts: Vec<(String, u64)> = store
        .count_by_template(i64::MIN, i64::MAX)
        .into_iter()
        .collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!(
        "{} records → {} segment(s), {} templates",
        store.len(),
        store.n_segments(),
        counts.len(),
    );
    println!(
        "{} JSONL bytes → {} encoded ({:.1}x compression)\n",
        jsonl.len(),
        stats.encoded_bytes,
        jsonl.len() as f64 / stats.encoded_bytes.max(1) as f64,
    );
    println!("{:>10}  template", "rows");
    for (pattern, n) in counts.iter().take(top) {
        println!("{n:>10}  {pattern}");
    }
    if counts.len() > top {
        println!("{:>10}  … {} more", "", counts.len() - top);
    }

    if let Some(pattern) = opts.get("histogram") {
        let slot = opts.get_u64("slot", 0)? as usize;
        let mut hist: Vec<(String, u64)> = store
            .variable_histogram(pattern, slot)
            .into_iter()
            .collect();
        if hist.is_empty() {
            return Err(format!(
                "no values for slot {slot} of template {pattern:?} (check `--top` output for exact patterns)"
            ));
        }
        hist.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        println!("\nslot {slot} of {pattern:?}:");
        for (value, n) in hist.iter().take(top) {
            println!("{n:>10}  {value}");
        }
        if hist.len() > top {
            println!("{:>10}  … {} more distinct values", "", hist.len() - top);
        }
    }
    Ok(())
}

fn cmd_summarize(opts: &Opts) -> Result<(), String> {
    let window = opts.get_u64("window", 60)?;
    let seed = opts.get_u64("seed", 42)?;
    let summarizer = llmsim::StatusSummarizer::new(llmsim::ModelPreset::falcon_40b());
    // Derive counts from a simulated window of traffic.
    let mut counts: BTreeMap<Category, u64> = BTreeMap::new();
    for tm in StreamGenerator::new(StreamConfig {
        seed,
        ..StreamConfig::default()
    })
    .take((window * 300 * 60 / 60) as usize)
    {
        *counts.entry(tm.message.category).or_default() += 1;
    }
    let counts: Vec<(Category, u64)> = counts.into_iter().collect();
    let r = summarizer.summarize_status(window, &counts);
    println!("{}", r.text);
    println!(
        "\n(modeled cost: {:.2}s on 4xA100 for {} prompt + {} generated tokens — a fine price \
         for one summary per hour, fatal for one per message)",
        r.inference_seconds, r.prompt_tokens, r.generated_tokens
    );
    Ok(())
}
