//! Sharded live-pipeline plumbing: the connection→shard partitioner, the
//! per-shard ring fabric with steal handles, and per-shard instruments.
//!
//! The pre-shard listener funneled every connection into one bounded MPMC
//! queue, so at high fan-in all producers and all workers serialized on a
//! single lock. Here the queue is split into N independent SPSC rings
//! (`crossbeam::spsc`), one per pipeline shard: frames are partitioned
//! **hash-by-connection** (all of a connection's frames land on one shard,
//! in order) with a **round-robin fallback** for connectionless UDP
//! datagrams, and each shard's micro-batch worker drains only its own
//! ring. Two shards never touch the same queue lock, the same store lane
//! (see [`LogStore::insert_batch_affine`](crate::LogStore)), or the same
//! decoder — the path scales with cores instead of a lock.
//!
//! Hash placement alone would let one hot connection cap throughput at
//! 1/N, so each worker also holds a [`RingStealer`] on every sibling ring:
//! when its own ring is idle and a sibling's backlog reaches a full batch,
//! it **steals a whole contiguous batch** from the front of the skewed
//! ring. Claims (owner drains and steals alike) always take a contiguous
//! FIFO run in one critical section, so per-connection frame order is
//! preserved at claim granularity — exactly the ordering the single-queue
//! worker pool provided.

use crossbeam::spsc::{self, RingConsumer, RingProducer, RingStealer};
use obs::{Counter, Gauge, Histogram, Registry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub use crossbeam::channel::SendError;

/// Maps frame sources to pipeline shards.
///
/// TCP connections are placed by a SplitMix64 hash of the connection id,
/// so placement is stateless, stable for the connection's lifetime, and
/// uncorrelated with accept order. UDP datagrams carry no connection
/// identity and no intra-source ordering contract, so they round-robin
/// across shards for balance.
#[derive(Debug)]
pub struct Partitioner {
    shards: usize,
    round_robin: AtomicUsize,
}

/// SplitMix64 finalizer: cheap, well-mixed 64-bit hash for small keys.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Partitioner {
    /// A partitioner over `shards` shards (at least 1).
    pub fn new(shards: usize) -> Partitioner {
        Partitioner {
            shards: shards.max(1),
            round_robin: AtomicUsize::new(0),
        }
    }

    /// The shard owning a TCP connection's frames.
    pub fn shard_for_connection(&self, conn_id: u64) -> usize {
        (splitmix64(conn_id) % self.shards as u64) as usize
    }

    /// The shard for the next connectionless (UDP) frame.
    pub fn next_round_robin(&self) -> usize {
        self.round_robin.fetch_add(1, Ordering::Relaxed) % self.shards
    }
}

/// Per-shard instruments, all labeled `shard=<k>`:
/// [`ShardStats::registered`] puts them on a registry so a `/metrics`
/// scrape (and `hetsyslog top`) sees one series per shard. A listener
/// without telemetry registers them on a registry nobody scrapes.
#[derive(Debug)]
pub struct ShardStats {
    /// Frames routed into this shard's ring by the partitioner.
    pub routed: Arc<Counter>,
    /// Frames processed by this shard's worker (own ring + stolen).
    pub processed: Arc<Counter>,
    /// Frames waiting in this shard's ring, sampled at batch pickup.
    pub queue_depth: Arc<Gauge>,
    /// Whole batches this shard's worker stole from sibling rings.
    pub steals: Arc<Counter>,
    /// Frames this shard's worker stole from sibling rings.
    pub stolen_frames: Arc<Counter>,
    /// Batch sizes this shard's worker flushed (own and stolen).
    pub batch_frames: Arc<Histogram>,
    /// Classify-stage wall time for this shard's batches.
    pub classify_us: Arc<Histogram>,
    /// Store-insert-stage wall time for this shard's batches.
    pub insert_us: Arc<Histogram>,
}

impl ShardStats {
    /// Instruments for shard `shard` registered on `registry`, one series
    /// per shard under a `shard` label.
    pub fn registered(shard: usize, registry: &Registry) -> ShardStats {
        let shard_label = shard.to_string();
        let labeled: &[(&str, &str)] = &[("shard", shard_label.as_str())];
        let stage = |stage: &str| {
            registry.histogram(
                "hetsyslog_shard_stage_duration_us",
                "Per-shard, per-stage batch processing time in microseconds",
                &[("shard", shard_label.as_str()), ("stage", stage)],
            )
        };
        ShardStats {
            routed: registry.counter(
                "hetsyslog_shard_frames_total",
                "Frames routed into each pipeline shard's ring",
                labeled,
            ),
            processed: registry.counter(
                "hetsyslog_shard_processed_total",
                "Frames processed by each shard's worker, own ring plus stolen",
                labeled,
            ),
            queue_depth: registry.gauge(
                "hetsyslog_shard_queue_depth",
                "Frames waiting in each shard's ring, sampled at batch pickup",
                labeled,
            ),
            steals: registry.counter(
                "hetsyslog_shard_steals_total",
                "Whole batches each shard's worker stole from sibling rings",
                labeled,
            ),
            stolen_frames: registry.counter(
                "hetsyslog_shard_stolen_frames_total",
                "Frames each shard's worker stole from sibling rings",
                labeled,
            ),
            batch_frames: registry.histogram(
                "hetsyslog_shard_batch_frames",
                "Batch sizes each shard's worker flushed, own and stolen",
                labeled,
            ),
            classify_us: stage("classify"),
            insert_us: stage("store_insert"),
        }
    }
}

/// The consume side of one shard, handed to its worker thread: the shard's
/// own ring plus a steal handle on every sibling ring (tagged with the
/// sibling's shard index, for steal attribution).
pub struct ShardReceiver<T> {
    /// This shard's index.
    pub shard: usize,
    /// The shard's own ring.
    pub own: RingConsumer<T>,
    /// `(sibling_shard, stealer)` for every other shard's ring.
    pub siblings: Vec<(usize, RingStealer<T>)>,
}

impl<T> ShardReceiver<T> {
    /// Steal one contiguous batch of up to `max` items from the deepest
    /// sibling ring whose backlog has reached at least `threshold` items,
    /// appending to `buf`. Returns `(victim_shard, stolen)` when anything
    /// was claimed. The threshold keeps stealing confined to genuinely
    /// skewed shards: pulling one or two frames off a sibling that is
    /// about to drain them anyway buys nothing and costs a lock.
    pub fn steal_batch(
        &self,
        buf: &mut Vec<T>,
        max: usize,
        threshold: usize,
    ) -> Option<(usize, usize)> {
        let victim = self
            .siblings
            .iter()
            .map(|(shard, stealer)| (*shard, stealer, stealer.len()))
            .filter(|(_, _, depth)| *depth >= threshold.max(1))
            .max_by_key(|(_, _, depth)| *depth)?;
        let (victim_shard, stealer, _) = victim;
        let stolen = stealer.steal_into(buf, max);
        (stolen > 0).then_some((victim_shard, stolen))
    }
}

/// The produce side of the shard fabric, shared by every socket thread:
/// one single-producer ring per shard, each behind a mutex so that
/// multiple connections hashed to the same shard serialize only among
/// themselves (never across shards). Dropping the router drops every
/// producer, which is the workers' graceful-drain signal.
pub struct ShardRouter<T> {
    partitioner: Partitioner,
    producers: Vec<Mutex<RingProducer<T>>>,
}

impl<T> ShardRouter<T> {
    /// Build the fabric: `shards` rings whose capacities sum to (at least)
    /// `total_depth`, so the aggregate in-flight bound matches the
    /// single-queue configuration it replaces. Returns the shared router
    /// and one [`ShardReceiver`] per shard for the worker threads.
    pub fn build(shards: usize, total_depth: usize) -> (ShardRouter<T>, Vec<ShardReceiver<T>>) {
        let shards = shards.max(1);
        let per_shard = total_depth.max(1).div_ceil(shards);
        let (producers, consumers): (Vec<_>, Vec<_>) =
            (0..shards).map(|_| spsc::ring::<T>(per_shard)).unzip();
        let stealers: Vec<RingStealer<T>> = consumers.iter().map(|c| c.stealer()).collect();
        let receivers = consumers
            .into_iter()
            .enumerate()
            .map(|(shard, own)| ShardReceiver {
                shard,
                own,
                siblings: stealers
                    .iter()
                    .enumerate()
                    .filter(|(s, _)| *s != shard)
                    .map(|(s, stealer)| (s, stealer.clone()))
                    .collect(),
            })
            .collect();
        (
            ShardRouter {
                partitioner: Partitioner::new(shards),
                producers: producers.into_iter().map(Mutex::new).collect(),
            },
            receivers,
        )
    }

    /// The partitioner (for routing decisions and tests).
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Per-shard ring capacity.
    pub fn shard_capacity(&self) -> usize {
        self.producers[0].lock().capacity()
    }

    /// Blocking bulk enqueue onto `shard`'s ring (Block overload policy).
    pub fn send_many(
        &self,
        shard: usize,
        items: impl IntoIterator<Item = T>,
    ) -> Result<(), SendError<()>> {
        self.producers[shard].lock().send_many(items)
    }

    /// Non-blocking bulk enqueue onto `shard`'s ring (Shed overload
    /// policy); returns the rejected overflow tail for dead-letter
    /// accounting.
    pub fn try_send_many(
        &self,
        shard: usize,
        items: impl IntoIterator<Item = T>,
    ) -> Result<Vec<T>, SendError<Vec<T>>> {
        self.producers[shard].lock().try_send_many(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_placement_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            let p = Partitioner::new(shards);
            for conn in 1..200u64 {
                let s = p.shard_for_connection(conn);
                assert!(s < shards);
                assert_eq!(s, p.shard_for_connection(conn), "placement must be stable");
            }
        }
    }

    #[test]
    fn connection_placement_spreads_across_shards() {
        let shards = 4;
        let p = Partitioner::new(shards);
        let mut counts = vec![0usize; shards];
        for conn in 1..=1000u64 {
            counts[p.shard_for_connection(conn)] += 1;
        }
        for (shard, n) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(n),
                "shard {shard} got {n}/1000 connections — hash badly skewed"
            );
        }
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let p = Partitioner::new(3);
        let picks: Vec<usize> = (0..9).map(|_| p.next_round_robin()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn router_preserves_aggregate_depth_bound() {
        let (router, receivers) = ShardRouter::<u32>::build(4, 1024);
        assert_eq!(receivers.len(), 4);
        assert_eq!(router.shard_capacity(), 256);
        // Odd splits round up, never starving a shard.
        let (router, _rx) = ShardRouter::<u32>::build(3, 8);
        assert_eq!(router.shard_capacity(), 3);
        let (router, _rx) = ShardRouter::<u32>::build(4, 1);
        assert_eq!(router.shard_capacity(), 1);
    }

    #[test]
    fn steal_batch_honors_threshold_and_picks_deepest() {
        let (router, mut receivers) = ShardRouter::<u32>::build(3, 30);
        // Shard 1 has 4 queued, shard 2 has 7; shard 0 is the idle thief.
        router.send_many(1, 100..104).unwrap();
        router.send_many(2, 200..207).unwrap();
        let thief = receivers.remove(0);
        let mut buf = Vec::new();
        assert_eq!(
            thief.steal_batch(&mut buf, 8, 8),
            None,
            "no sibling at threshold"
        );
        let (victim, stolen) = thief.steal_batch(&mut buf, 8, 5).expect("shard 2 is deep");
        assert_eq!(victim, 2);
        assert_eq!(stolen, 7);
        assert_eq!(buf, vec![200, 201, 202, 203, 204, 205, 206]);
        let next = thief.steal_batch(&mut buf, 8, 1);
        assert_eq!(
            next,
            Some((1, 4)),
            "deep ring emptied, shallow one untouched"
        );
    }
}
