//! Property tests for the sharded live-path fabric (issue satellite): the
//! hash-by-connection partitioner preserves per-connection frame order and
//! exact total-frame accounting across shard counts {1, 2, 4, 8},
//! including when idle workers steal batches from sibling rings.
//!
//! The test is a deterministic single-threaded simulation of the worker
//! side: a proptest-driven schedule interleaves owner drains and steals
//! against the rings, every claimed batch is appended to a global claim
//! log, and the leftovers are drained at the end (the graceful-drain
//! path). The properties pinned:
//!
//! * **conservation** — every submitted frame is claimed exactly once;
//! * **per-connection order** — for each TCP connection, frame sequence
//!   numbers appear in submission order in the claim log (claims take
//!   contiguous FIFO runs, so steals cannot reorder a connection);
//! * **single-ring placement** — all of a connection's frames are claimed
//!   from one ring, whether by its owner or a thief.

use logpipeline::shard::ShardRouter;
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// A frame in flight: (connection id, per-connection sequence number).
type Frame = (u64, u64);

/// Run `schedule` against a `shards`-wide fabric fed with `conns` (one
/// entry per frame; 0 means UDP/round-robin) and return the claim log as
/// `(ring, batch)` entries.
fn simulate(
    shards: usize,
    conns: &[u64],
    schedule: &[(usize, usize)],
    max_batch: usize,
) -> Vec<(usize, Vec<Frame>)> {
    // Capacity comfortably above the frame count: the simulation drains
    // on a schedule, not concurrently, so nothing may block.
    let (router, receivers) = ShardRouter::<Frame>::build(shards, conns.len() * shards + shards);
    let mut seqs: HashMap<u64, u64> = HashMap::new();
    for &conn in conns {
        let seq = seqs.entry(conn).or_insert(0);
        let shard = if conn == 0 {
            router.partitioner().next_round_robin()
        } else {
            router.partitioner().shard_for_connection(conn)
        };
        router
            .send_many(shard, [(conn, *seq)])
            .expect("sized above frame count");
        *seq += 1;
    }

    let mut claims: Vec<(usize, Vec<Frame>)> = Vec::new();
    for &(shard_pick, op) in schedule {
        let shard = shard_pick % shards;
        let mut batch = Vec::new();
        let ring = if op == 2 {
            // Steal: threshold 1 so small simulated backlogs still steal.
            match receivers[shard].steal_batch(&mut batch, max_batch, 1) {
                Some((victim, _stolen)) => victim,
                None => continue,
            }
        } else {
            // Owner drain with an already-expired deadline: takes what is
            // queued, up to max_batch, without blocking.
            receivers[shard]
                .own
                .drain_into(&mut batch, max_batch, Instant::now());
            shard
        };
        if !batch.is_empty() {
            claims.push((ring, batch));
        }
    }
    // Graceful drain: every owner empties its own ring.
    for receiver in &receivers {
        loop {
            let mut batch = Vec::new();
            receiver
                .own
                .drain_into(&mut batch, max_batch, Instant::now());
            if batch.is_empty() {
                break;
            }
            claims.push((receiver.shard, batch));
        }
    }
    drop(router);
    claims
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation + per-connection order + single-ring placement, for
    /// every shard count, under an arbitrary drain/steal interleaving.
    #[test]
    fn partitioner_preserves_order_and_accounting_under_steals(
        conns in collection::vec(0u64..6, 1..160),
        schedule in collection::vec((0usize..8, 0usize..3), 0..120),
        max_batch in 1usize..16,
    ) {
        for shards in [1usize, 2, 4, 8] {
            let claims = simulate(shards, &conns, &schedule, max_batch);

            // Conservation: every frame claimed exactly once.
            let claimed: usize = claims.iter().map(|(_, b)| b.len()).sum();
            prop_assert_eq!(claimed, conns.len(), "shards={}", shards);

            // Claim batches never exceed the configured batch bound.
            for (_, batch) in &claims {
                prop_assert!(batch.len() <= max_batch);
            }

            // Per-connection order and placement, walking the claim log.
            let mut next_seq: HashMap<u64, u64> = HashMap::new();
            let mut ring_of: HashMap<u64, usize> = HashMap::new();
            for (ring, batch) in &claims {
                for &(conn, seq) in batch {
                    let expect = next_seq.entry(conn).or_insert(0);
                    if conn != 0 {
                        prop_assert_eq!(
                            seq, *expect,
                            "connection {} reordered at shards={}", conn, shards
                        );
                        let owner = ring_of.entry(conn).or_insert(*ring);
                        prop_assert_eq!(
                            *owner, *ring,
                            "connection {} split across rings at shards={}", conn, shards
                        );
                    }
                    *expect = (*expect).max(seq) + if conn == 0 { 0 } else { 1 };
                }
            }
            // Every UDP frame was still claimed exactly once (counted in
            // `claimed` above); round-robin placement intentionally gives
            // them no ordering contract.
        }
    }

    /// With steals disabled the claim log restricted to one ring is the
    /// ring's exact submission order — the same guarantee the single
    /// shared queue gave per worker.
    #[test]
    fn owner_only_drains_reproduce_ring_fifo(
        conns in collection::vec(1u64..5, 1..120),
        drains in collection::vec(0usize..8, 0..80),
        max_batch in 1usize..16,
    ) {
        for shards in [1usize, 2, 4, 8] {
            let schedule: Vec<(usize, usize)> =
                drains.iter().map(|&s| (s, 0)).collect();
            let claims = simulate(shards, &conns, &schedule, max_batch);
            // Concatenate claims per ring; per-connection seqs must be
            // strictly sequential from 0 within their ring.
            let mut per_conn: HashMap<u64, Vec<u64>> = HashMap::new();
            for (_, batch) in &claims {
                for &(conn, seq) in batch {
                    per_conn.entry(conn).or_default().push(seq);
                }
            }
            for (conn, seqs) in per_conn {
                let expected: Vec<u64> = (0..seqs.len() as u64).collect();
                prop_assert_eq!(
                    seqs, expected,
                    "connection {} out of order at shards={}", conn, shards
                );
            }
        }
    }
}
