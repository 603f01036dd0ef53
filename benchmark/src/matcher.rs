//! Matches what the sink delivered against what the generator sent.
//!
//! The match is keyed on `(node, message-text hash)`, never on position:
//! under saturation a stolen batch can overtake its owner's next batch, so
//! per-node order at the sink is not per-node order on the wire. Several
//! sends may carry the same key (the stream repeats itself, and closed-loop
//! workloads cycle their pool); deliveries of one key are paired with its
//! sends oldest first, which is exact as long as two sends of the same key
//! are further apart than any reordering (seconds versus a batch or two).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use textproc::hash::FxHasher;

/// Key of one message: FxHash over the node name and the message text.
/// The generator computes it from what it sends, the sink from the
/// `LogRecord` it receives; parse is lossless on both fields.
pub fn message_key(node: &str, text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(node.as_bytes());
    h.write_u8(0xff);
    h.write(text.as_bytes());
    h.finish()
}

/// One frame the generator sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    pub key: u64,
    pub node: u16,
    /// Position in the node's connection's send order.
    pub seq: u32,
    /// When the frame was due, nanoseconds on the run clock.
    pub due_ns: u64,
    /// Index into the workload's message table.
    pub msg: u32,
}

/// One record the sink received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    pub key: u64,
    pub at_ns: u64,
    /// `Category::index()` of the delivered record, `u8::MAX` if none.
    pub category: u8,
}

/// A delivery paired with the send it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub msg: u32,
    pub latency_ns: u64,
    pub category: u8,
}

#[derive(Debug, Default, PartialEq)]
pub struct MatchReport {
    /// One entry per delivery that found its send, in delivery order.
    pub pairs: Vec<Pair>,
    /// Deliveries with no unclaimed send of their key (duplicates, or
    /// records the generator never sent).
    pub unexpected: u64,
    /// Sends no delivery claimed (lost frames).
    pub missing: u64,
    /// Deliveries that arrived after a later send of the same node.
    pub reordered: u64,
}

impl MatchReport {
    /// Frames not delivered exactly once.
    pub fn failed(&self) -> u64 {
        self.unexpected + self.missing
    }
}

struct KeyQueue {
    /// Indices into `sends`, in send order.
    sends: Vec<u32>,
    next: usize,
}

/// Pair `deliveries` (in sink order) with `sends` (in send order per
/// connection; connections may be concatenated in any order because a
/// node, and so a key, belongs to exactly one connection).
pub fn match_deliveries(sends: &[Send], deliveries: &[Delivery]) -> MatchReport {
    let mut by_key: HashMap<u64, KeyQueue, BuildHasherDefault<FxHasher>> =
        HashMap::with_capacity_and_hasher(sends.len(), BuildHasherDefault::default());
    for (i, send) in sends.iter().enumerate() {
        by_key
            .entry(send.key)
            .or_insert_with(|| KeyQueue {
                sends: Vec::new(),
                next: 0,
            })
            .sends
            .push(i as u32);
    }
    let mut report = MatchReport {
        pairs: Vec::with_capacity(deliveries.len()),
        ..MatchReport::default()
    };
    // Highest send position seen so far per node, to count overtaking.
    let mut high_water: HashMap<u16, u32> = HashMap::new();
    for delivery in deliveries {
        let Some(queue) = by_key.get_mut(&delivery.key) else {
            report.unexpected += 1;
            continue;
        };
        let Some(&index) = queue.sends.get(queue.next) else {
            report.unexpected += 1;
            continue;
        };
        queue.next += 1;
        let send = &sends[index as usize];
        match high_water.get_mut(&send.node) {
            Some(high) if send.seq < *high => report.reordered += 1,
            Some(high) => *high = send.seq,
            None => {
                high_water.insert(send.node, send.seq);
            }
        }
        report.pairs.push(Pair {
            msg: send.msg,
            latency_ns: delivery.at_ns.saturating_sub(send.due_ns),
            category: delivery.category,
        });
    }
    report.missing = by_key
        .values()
        .map(|q| (q.sends.len() - q.next) as u64)
        .sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(key: u64, node: u16, seq: u32, due_ns: u64) -> Send {
        Send {
            key,
            node,
            seq,
            due_ns,
            msg: seq,
        }
    }

    fn delivery(key: u64, at_ns: u64) -> Delivery {
        Delivery {
            key,
            at_ns,
            category: 1,
        }
    }

    #[test]
    fn key_separates_node_from_text() {
        assert_eq!(message_key("cn0001", "abc"), message_key("cn0001", "abc"));
        assert_ne!(message_key("cn0001", "abc"), message_key("cn0002", "abc"));
        assert_ne!(message_key("cn0001", "abc"), message_key("cn0001", "abd"));
        assert_ne!(message_key("ab", "c"), message_key("a", "bc"));
    }

    #[test]
    fn reordering_does_not_change_latencies() {
        let sends = [
            send(10, 1, 0, 100),
            send(11, 1, 1, 200),
            send(12, 1, 2, 300),
            send(13, 2, 0, 150),
        ];
        let in_order = [
            delivery(10, 1100),
            delivery(11, 1200),
            delivery(13, 1150),
            delivery(12, 1300),
        ];
        // Node 1's second frame overtakes its first (a stolen batch).
        let overtaken = [
            delivery(11, 1200),
            delivery(10, 1100),
            delivery(13, 1150),
            delivery(12, 1300),
        ];
        let a = match_deliveries(&sends, &in_order);
        let b = match_deliveries(&sends, &overtaken);
        assert_eq!((a.failed(), a.reordered), (0, 0));
        assert_eq!((b.failed(), b.reordered), (0, 1));
        let mut la: Vec<(u32, u64)> = a.pairs.iter().map(|p| (p.msg, p.latency_ns)).collect();
        let mut lb: Vec<(u32, u64)> = b.pairs.iter().map(|p| (p.msg, p.latency_ns)).collect();
        la.sort_unstable();
        lb.sort_unstable();
        assert_eq!(
            la, lb,
            "each message keeps its own latency under reordering"
        );
        assert_eq!(la[0], (0, 1000));
    }

    #[test]
    fn repeated_keys_pair_oldest_first() {
        // The same message sent three times (a cycling pool).
        let sends = [send(7, 3, 0, 0), send(7, 3, 1, 1000), send(7, 3, 2, 2000)];
        let deliveries = [delivery(7, 50), delivery(7, 1050), delivery(7, 2050)];
        let r = match_deliveries(&sends, &deliveries);
        assert_eq!(r.failed(), 0);
        assert!(r.pairs.iter().all(|p| p.latency_ns == 50));
    }

    #[test]
    fn duplicates_and_losses_are_counted() {
        let sends = [send(1, 1, 0, 0), send(2, 1, 1, 0), send(3, 1, 2, 0)];
        // Key 1 delivered twice, key 3 never, key 99 never sent.
        let deliveries = [
            delivery(1, 10),
            delivery(1, 20),
            delivery(2, 30),
            delivery(99, 40),
        ];
        let r = match_deliveries(&sends, &deliveries);
        assert_eq!(r.pairs.len(), 2);
        assert_eq!(r.unexpected, 2);
        assert_eq!(r.missing, 1);
        assert_eq!(r.failed(), 3);
    }
}
