//! Offline shim for a bounded single-producer/single-consumer ring with a
//! batch-steal side door — the per-shard queue primitive of the sharded
//! live pipeline.
//!
//! Each pipeline shard owns exactly one [`RingProducer`] (fed by the
//! connections hashed to that shard) and one [`RingConsumer`] (its batch
//! worker). Neither handle is `Clone`, so the single-producer /
//! single-consumer discipline is enforced by the type system; the only
//! sanctioned third party is a [`RingStealer`], which claims a whole
//! contiguous run of items from the *front* of the ring in one critical
//! section, so an idle sibling worker can take a full batch off a skewed
//! shard without interleaving frames.
//!
//! Like every shim in this workspace, the implementation favors
//! correctness over micro-optimization: the ring is a `Mutex<VecDeque>`
//! with two condvars, and every operation is *batch-shaped* (one critical
//! section per `push_many`/`drain_into`/`steal_into`, not per item). The
//! structural win the pipeline takes from it — N independent queues, so
//! producers and consumers of different shards never touch the same lock —
//! is real regardless; the real crossbeam SPSC ring would only lower the
//! constant.

use crate::channel::DrainStatus;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

pub use crate::channel::{RecvError, RecvTimeoutError, SendError, TrySendError};

struct RingState<T> {
    queue: VecDeque<T>,
    producer_alive: bool,
    consumer_alive: bool,
}

struct RingShared<T> {
    state: Mutex<RingState<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> RingShared<T> {
    /// Wake the producer after `freed` slots opened up. One slot wakes one
    /// parked `push`; more than one must wake everything parked, or a
    /// producer blocked in `push_many` mid-batch could strand beside
    /// free capacity until the next drain — a lost wakeup.
    fn notify_freed(&self, freed: usize) {
        match freed {
            0 => {}
            1 => {
                self.not_full.notify_one();
            }
            _ => self.not_full.notify_all(),
        }
    }
}

/// The sending half: exactly one per ring.
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
}

/// The receiving half: exactly one per ring.
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
}

/// A cloneable side door that claims contiguous batches from the front of
/// the ring without blocking. Stealers never keep a ring alive: liveness
/// is decided by the producer and consumer handles alone.
pub struct RingStealer<T> {
    shared: Arc<RingShared<T>>,
}

impl<T> Clone for RingStealer<T> {
    fn clone(&self) -> Self {
        RingStealer {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Create a bounded SPSC ring holding at most `cap` in-flight items.
pub fn ring<T>(cap: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let shared = Arc::new(RingShared {
        state: Mutex::new(RingState {
            queue: VecDeque::with_capacity(cap.max(1)),
            producer_alive: true,
            consumer_alive: true,
        }),
        capacity: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
        },
        RingConsumer { shared },
    )
}

impl<T> RingProducer<T> {
    /// Block until there is room, then enqueue. Errors once the consumer
    /// is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if !state.consumer_alive {
                return Err(SendError(value));
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(value);
                self.shared.not_empty.notify_all();
                return Ok(());
            }
            state = self.shared.not_full.wait(state).unwrap();
        }
    }

    /// Enqueue without blocking; hands the value back when the ring is
    /// full (load shedding) or the consumer is gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut state = self.shared.state.lock().unwrap();
        if !state.consumer_alive {
            return Err(TrySendError::Disconnected(value));
        }
        if state.queue.len() >= self.shared.capacity {
            return Err(TrySendError::Full(value));
        }
        state.queue.push_back(value);
        self.shared.not_empty.notify_all();
        Ok(())
    }

    /// Enqueue every item, blocking whenever the ring is full: each run of
    /// free capacity is filled in one critical section with one
    /// notification. Errors once the consumer is gone; items pushed before
    /// the hangup stay queued.
    pub fn send_many(&self, items: impl IntoIterator<Item = T>) -> Result<(), SendError<()>> {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return Ok(());
        }
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if !state.consumer_alive {
                return Err(SendError(()));
            }
            let mut pushed = false;
            while state.queue.len() < self.shared.capacity {
                match items.next() {
                    Some(value) => {
                        state.queue.push_back(value);
                        pushed = true;
                    }
                    None => break,
                }
            }
            if pushed {
                self.shared.not_empty.notify_all();
            }
            if items.peek().is_none() {
                return Ok(());
            }
            state = self.shared.not_full.wait(state).unwrap();
        }
    }

    /// Enqueue as many items as fit right now and hand back the overflow
    /// tail (for dead-letter accounting), in one critical section. Errors
    /// with every item returned once the consumer is gone.
    pub fn try_send_many(
        &self,
        items: impl IntoIterator<Item = T>,
    ) -> Result<Vec<T>, SendError<Vec<T>>> {
        let mut items = items.into_iter();
        let mut state = self.shared.state.lock().unwrap();
        if !state.consumer_alive {
            return Err(SendError(items.collect()));
        }
        let mut pushed = false;
        while state.queue.len() < self.shared.capacity {
            match items.next() {
                Some(value) => {
                    state.queue.push_back(value);
                    pushed = true;
                }
                None => break,
            }
        }
        if pushed {
            self.shared.not_empty.notify_all();
        }
        drop(state);
        Ok(items.collect())
    }

    /// Items currently queued (a snapshot; racy by nature).
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.producer_alive = false;
        // Wake the consumer (and any stealer-coordinating waiters) so they
        // observe the hangup.
        self.shared.not_empty.notify_all();
    }
}

impl<T> RingConsumer<T> {
    /// Block until an item arrives. Errors once the ring is empty and the
    /// producer has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.notify_freed(1);
                return Ok(value);
            }
            if !state.producer_alive {
                return Err(RecvError);
            }
            state = self.shared.not_empty.wait(state).unwrap();
        }
    }

    /// Block until an item arrives or `deadline` passes. Items already
    /// queued are always delivered, even after the producer hung up.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.shared.notify_freed(1);
                return Ok(value);
            }
            if !state.producer_alive {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            let (guard, _timed_out) = self
                .shared
                .not_empty
                .wait_timeout(state, remaining)
                .unwrap();
            state = guard;
        }
    }

    /// Deadline-bounded batch drain: append to `buf` until it holds `max`
    /// items, `deadline` passes, or the producer hangs up — draining
    /// whatever is queued first, so a graceful shutdown loses nothing.
    /// Every run of queued items moves in one critical section.
    pub fn drain_into(&self, buf: &mut Vec<T>, max: usize, deadline: Instant) -> DrainStatus {
        let mut state = self.shared.state.lock().unwrap();
        loop {
            let before = buf.len();
            while buf.len() < max {
                match state.queue.pop_front() {
                    Some(value) => buf.push(value),
                    None => break,
                }
            }
            self.shared.notify_freed(buf.len() - before);
            if buf.len() >= max {
                return DrainStatus::Filled;
            }
            if !state.producer_alive {
                return DrainStatus::Disconnected;
            }
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return DrainStatus::DeadlineExpired;
            };
            let (guard, _timed_out) = self
                .shared
                .not_empty
                .wait_timeout(state, remaining)
                .unwrap();
            state = guard;
        }
    }

    /// A cloneable steal handle over this ring, for sibling workers.
    pub fn stealer(&self) -> RingStealer<T> {
        RingStealer {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Items currently queued (a snapshot; racy by nature).
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.consumer_alive = false;
        // Wake producers parked in send/send_many so they observe the
        // hangup.
        self.shared.not_full.notify_all();
    }
}

impl<T> RingStealer<T> {
    /// Claim up to `max` items from the *front* of the ring in one
    /// critical section, never blocking. The claim is contiguous and FIFO,
    /// so per-producer item order is preserved at claim granularity: a
    /// stolen batch holds strictly older items than anything the owner
    /// drains afterwards. Returns the number of items claimed (0 when the
    /// ring is empty or already disconnected and drained).
    pub fn steal_into(&self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut state = self.shared.state.lock().unwrap();
        let before = buf.len();
        while buf.len() - before < max {
            match state.queue.pop_front() {
                Some(value) => buf.push(value),
                None => break,
            }
        }
        let stolen = buf.len() - before;
        self.shared.notify_freed(stolen);
        stolen
    }

    /// Items currently queued (for picking the deepest victim).
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn soon(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn push_pop_roundtrip_in_order() {
        let (tx, rx) = ring::<u32>(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_deadline(soon(100)), Ok(1));
        assert_eq!(rx.recv_deadline(soon(100)), Ok(2));
        assert_eq!(rx.recv_deadline(soon(10)), Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn try_send_sheds_when_full_and_overflow_tail_is_returned() {
        let (tx, rx) = ring::<u32>(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        let rejected = tx.try_send_many(10..15).unwrap();
        assert_eq!(rejected, vec![10, 11, 12, 13, 14]);
        assert_eq!(rx.recv_deadline(soon(100)), Ok(1));
        assert_eq!(tx.try_send_many(20..22).unwrap(), vec![21]);
    }

    #[test]
    fn consumer_drop_disconnects_producer() {
        let (tx, rx) = ring::<u32>(2);
        drop(rx);
        assert!(tx.send(7).is_err());
        assert!(matches!(tx.try_send(8), Err(TrySendError::Disconnected(8))));
        assert!(tx.send_many(0..3).is_err());
    }

    #[test]
    fn producer_drop_flushes_backlog_then_disconnects() {
        let (tx, rx) = ring::<u32>(8);
        tx.send_many(0..3).unwrap();
        drop(tx);
        let mut buf = Vec::new();
        let status = rx.drain_into(&mut buf, 8, soon(10_000));
        assert_eq!(status, DrainStatus::Disconnected);
        assert_eq!(buf, vec![0, 1, 2]);
        assert_eq!(
            rx.recv_deadline(soon(100)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn drain_into_fills_to_max_and_leaves_the_rest() {
        let (tx, rx) = ring::<u32>(8);
        tx.send_many(0..6).unwrap();
        let mut buf = Vec::new();
        assert_eq!(rx.drain_into(&mut buf, 4, soon(5_000)), DrainStatus::Filled);
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn steal_claims_contiguous_front_batch() {
        let (tx, rx) = ring::<u32>(16);
        tx.send_many(0..10).unwrap();
        let stealer = rx.stealer();
        let mut stolen = Vec::new();
        assert_eq!(stealer.steal_into(&mut stolen, 4), 4);
        assert_eq!(stolen, vec![0, 1, 2, 3], "oldest items, in order");
        // The owner's next drain sees strictly newer items.
        let mut own = Vec::new();
        assert_eq!(
            rx.drain_into(&mut own, 16, soon(10)),
            DrainStatus::DeadlineExpired
        );
        assert_eq!(own, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(stealer.steal_into(&mut stolen, 4), 0, "nothing left");
    }

    #[test]
    fn steal_unblocks_a_parked_producer() {
        let (tx, rx) = ring::<u32>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let producer = std::thread::spawn(move || tx.send_many(2..6).is_ok());
        std::thread::sleep(Duration::from_millis(30));
        let stealer = rx.stealer();
        let mut got = Vec::new();
        // Two steals + drains must be enough to pass all 6 items through a
        // 2-deep ring, with the producer woken by the stealer's free-ups.
        while got.len() < 6 {
            if stealer.steal_into(&mut got, 2) == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert!(producer.join().unwrap());
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn stealers_do_not_keep_a_ring_alive() {
        let (tx, rx) = ring::<u32>(4);
        let stealer = rx.stealer();
        drop(rx);
        assert!(
            tx.send(1).is_err(),
            "stealer alone must not count as a consumer"
        );
        let mut buf = Vec::new();
        assert_eq!(stealer.steal_into(&mut buf, 4), 0);
    }
}
