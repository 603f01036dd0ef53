//! The five workloads and the inputs generated for them.
//!
//! Names are permanent and rates are absolute, so results of different
//! commits compare. Everything here is derived from `--seed`: the same
//! seed gives the same corpus, messages, connection assignment, wire bytes
//! and schedule. All of it is built during set-up, never in the timed
//! window.

use crate::matcher::message_key;
use datagen::{StreamConfig, StreamGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Write;

/// Which classifier the workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Complement naive Bayes: the paper's recommended fast model.
    Cnb,
    /// kNN (k = 5): the slow-inference end of the paper's Fig. 3.
    Knn,
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: each connection cycles through its share of `pool`
    /// distinct frames and keeps at most `window` frames outstanding (sent
    /// but not yet delivered to the sink), so a slow system receives less.
    Closed { pool: usize, window: usize },
    /// Open loop: `rate` messages per second on a seeded schedule that
    /// does not slow when the system slows.
    Paced { rate: u64 },
}

/// One workload. See `benchmark/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub model: Model,
    pub load: Load,
    /// TCP connections, one sender thread each.
    pub conns: usize,
    /// Run the analyst thread beside ingest.
    pub analyst: bool,
    /// `LogStore::with_sealing` threshold, 0 for a hot-tier-only store.
    pub seal_threshold: usize,
    /// Frames pushed through a throw-away listener before measuring.
    pub warmup_frames: usize,
    /// Frames the traced single-thread replay covers.
    pub replay_frames: usize,
    /// `peak_rss_mb` is the growth of the peak resident set while the sink
    /// count goes from a fifth of this to this: the memory a fixed volume
    /// of data costs, whatever the speed. The end is well short of what
    /// this commit delivers in 10 s (a commit 30 % slower still reaches it).
    /// The first fifth is skipped because what the allocator re-touches of
    /// its free lists right after the reset differs by a few MB from run
    /// to run, which is a fifth of the whole on `paced_light`.
    pub rss_checkpoint: u64,
}

/// Frames outstanding per closed-loop connection: eight times the default
/// ring depth, so the rings stay full and `OverloadPolicy::Block` on the
/// reactor — not the window — is what limits the rate.
const WINDOW: usize = 8192;

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "sat_cnb",
        model: Model::Cnb,
        load: Load::Closed {
            pool: 500_000,
            window: WINDOW,
        },
        conns: 2,
        analyst: false,
        seal_threshold: 0,
        warmup_frames: 200_000,
        replay_frames: 120_000,
        rss_checkpoint: 1_500_000,
    },
    Spec {
        name: "sat_knn",
        model: Model::Knn,
        load: Load::Closed {
            pool: 30_000,
            window: WINDOW,
        },
        conns: 2,
        analyst: false,
        seal_threshold: 0,
        warmup_frames: 20_000,
        replay_frames: 12_000,
        rss_checkpoint: 200_000,
    },
    Spec {
        name: "paced_light",
        model: Model::Cnb,
        load: Load::Paced { rate: 6_000 },
        conns: 2,
        analyst: false,
        seal_threshold: 0,
        warmup_frames: 200_000,
        replay_frames: 60_000,
        rss_checkpoint: 56_000,
    },
    Spec {
        name: "paced_busy",
        model: Model::Cnb,
        load: Load::Paced { rate: 100_000 },
        conns: 2,
        analyst: false,
        seal_threshold: 0,
        warmup_frames: 200_000,
        replay_frames: 120_000,
        rss_checkpoint: 800_000,
    },
    Spec {
        name: "ingest_query",
        model: Model::Cnb,
        load: Load::Closed {
            pool: 300_000,
            window: 2 * WINDOW,
        },
        conns: 1,
        analyst: true,
        seal_threshold: 100_000,
        warmup_frames: 200_000,
        replay_frames: 120_000,
        rss_checkpoint: 800_000,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the inputs that do not vary with `--seed`: the training corpus
/// (see `live::training_corpus`) and the warm-up frames (see
/// `live::warm_up`).
pub const FIXED_SEED: u64 = 42;

/// Scale of the training corpus relative to the paper's 196 393 messages
/// (≈ 9.8 k messages; kNN inference cost is proportional to it).
pub const CORPUS_SCALE: f64 = 0.05;

/// Frames per closed-loop `write`, and the granularity of its due times.
pub const CHUNK_FRAMES: usize = 256;

/// Everything known about the generated messages, indexed by message.
#[derive(Debug, Default)]
pub struct Messages {
    pub key: Vec<u64>,
    pub node: Vec<u16>,
    /// `Category::index()` of the generator's label.
    pub label: Vec<u8>,
    /// Synthetic event time stamped into the frame.
    pub unix_seconds: Vec<i64>,
    /// `(connection, frame index on that connection)`.
    pub place: Vec<(u8, u32)>,
}

/// One connection's share of the workload.
#[derive(Debug, Default)]
pub struct ConnPlan {
    /// Octet-counted frames, back to back, in send order.
    pub wire: Vec<u8>,
    /// `ends[k]..ends[k + 1]` is frame `k`'s bytes (count prefix included).
    pub ends: Vec<usize>,
    /// Length of the message text, which is the tail of the frame.
    pub text_len: Vec<u32>,
    /// Message index of frame `k`.
    pub msg: Vec<u32>,
    /// Paced workloads: when frame `k` is due, nanoseconds after start.
    pub due_ns: Vec<u64>,
}

impl ConnPlan {
    pub fn frames(&self) -> usize {
        self.msg.len()
    }

    /// The message text of frame `k`, as the generator wrote it.
    pub fn text(&self, k: usize) -> &str {
        let end = self.ends[k + 1];
        std::str::from_utf8(&self.wire[end - self.text_len[k] as usize..end])
            .expect("generated frames are UTF-8")
    }
}

#[derive(Debug, Default)]
pub struct Plan {
    pub messages: Messages,
    pub conns: Vec<ConnPlan>,
}

impl Plan {
    /// Generate the workload's inputs. `seconds` sizes paced workloads
    /// (rate × seconds messages); closed-loop pools do not depend on it.
    pub fn build(spec: &Spec, seed: u64, seconds: u64) -> Plan {
        let n = match spec.load {
            Load::Closed { pool, .. } => pool,
            Load::Paced { rate } => (rate * seconds) as usize,
        };
        let mut plan = Plan {
            messages: Messages::default(),
            conns: (0..spec.conns).map(|_| ConnPlan::default()).collect(),
        };
        for conn in &mut plan.conns {
            conn.ends.push(0);
        }
        let stream = StreamGenerator::new(StreamConfig {
            seed,
            ..StreamConfig::default()
        });
        let mut burst = Vec::with_capacity(n);
        for (i, timed) in stream.take(n).enumerate() {
            let node_name = timed.message.node.as_str();
            let node: u16 = node_name
                .strip_prefix("cn")
                .and_then(|d| d.parse().ok())
                .expect("datagen nodes are cnNNNN");
            // A real node keeps one connection; every 4th node runs a
            // modern emitter.
            let c = node as usize % spec.conns;
            let frame = if node.is_multiple_of(4) {
                timed.to_frame_rfc5424()
            } else {
                timed.to_frame()
            };
            let conn = &mut plan.conns[c];
            write!(conn.wire, "{} ", frame.len()).expect("write to Vec");
            conn.wire.extend_from_slice(frame.as_bytes());
            conn.ends.push(conn.wire.len());
            conn.text_len.push(timed.message.text.len() as u32);
            conn.msg.push(i as u32);
            let m = &mut plan.messages;
            m.key.push(message_key(node_name, &timed.message.text));
            m.node.push(node);
            m.label.push(timed.message.category.index() as u8);
            m.unix_seconds.push(timed.unix_seconds);
            m.place.push((c as u8, conn.msg.len() as u32 - 1));
            burst.push(timed.in_burst);
        }
        if let Load::Paced { .. } = spec.load {
            let due = schedule(&burst, seed, seconds);
            for (i, &(c, _)) in plan.messages.place.iter().enumerate() {
                plan.conns[c as usize].due_ns.push(due[i]);
            }
        }
        plan
    }
}

/// Open-loop due times: seeded exponential gaps between non-burst
/// messages, burst messages back to back, the whole scaled so that the
/// `burst.len()` messages span exactly `seconds` — the mean offered rate
/// is the same for every seed, only the arrangement differs.
pub fn schedule(burst: &[bool], seed: u64, seconds: u64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5ced_u64);
    let mut gap = || -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln()
    };
    let mut at = 0.0f64;
    let mut due = Vec::with_capacity(burst.len());
    for &in_burst in burst {
        if !in_burst {
            at += gap();
        }
        due.push(at);
    }
    // One closing gap, so the last message is due before the run ends.
    let total = at + gap();
    let scale = seconds as f64 * 1e9 / total;
    due.into_iter().map(|d| (d * scale) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Spec = Spec {
        name: "tiny",
        model: Model::Cnb,
        load: Load::Paced { rate: 2_000 },
        conns: 2,
        analyst: false,
        seal_threshold: 0,
        warmup_frames: 0,
        replay_frames: 0,
        rss_checkpoint: 1,
    };

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name), Some(w));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = Plan::build(&TINY, 42, 1);
        let b = Plan::build(&TINY, 42, 1);
        let c = Plan::build(&TINY, 43, 1);
        assert_eq!(a.messages.key.len(), 2_000);
        for k in 0..2 {
            assert_eq!(a.conns[k].wire, b.conns[k].wire);
            assert_eq!(a.conns[k].due_ns, b.conns[k].due_ns);
            assert_eq!(a.conns[k].msg, b.conns[k].msg);
        }
        assert_eq!(a.messages.key, b.messages.key);
        assert_ne!(a.conns[0].wire, c.conns[0].wire);
        assert_ne!(a.conns[0].due_ns, c.conns[0].due_ns);
        assert_ne!(a.messages.key, c.messages.key);
    }

    #[test]
    fn frames_decode_back_to_the_plan() {
        let plan = Plan::build(&TINY, 7, 1);
        for (c, conn) in plan.conns.iter().enumerate() {
            let frames = syslog_model::FrameDecoder::new().push(&conn.wire);
            assert_eq!(frames.len(), conn.frames());
            for (k, frame) in frames.iter().enumerate() {
                let parsed = syslog_model::parse(frame).expect("generated frame parses");
                assert_eq!(parsed.message, conn.text(k));
                let m = conn.msg[k] as usize;
                let node = parsed.hostname.expect("generated frame has a host");
                assert_eq!(plan.messages.key[m], message_key(&node, &parsed.message));
                assert_eq!(plan.messages.node[m] as usize % plan.conns.len(), c);
                assert_eq!(plan.messages.place[m], (c as u8, k as u32));
                // Every 4th node speaks RFC 5424.
                let after_pri = frame.split_once('>').expect("frame has a PRI").1;
                assert_eq!(
                    after_pri.starts_with("1 "),
                    plan.messages.node[m].is_multiple_of(4)
                );
            }
        }
    }

    #[test]
    fn schedule_spans_the_run_and_bursts_are_back_to_back() {
        let mut burst = vec![false; 1000];
        for b in &mut burst[400..460] {
            *b = true;
        }
        let due = schedule(&burst, 9, 2);
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*due.last().unwrap() < 2_000_000_000);
        assert!(*due.last().unwrap() > 1_900_000_000, "scaled to the run");
        assert!(due[399..460].windows(2).all(|w| w[0] == w[1]));
        assert!(due[460] > due[459]);
        assert_eq!(due, schedule(&burst, 9, 2));
        assert_ne!(due, schedule(&burst, 10, 2));
    }
}
