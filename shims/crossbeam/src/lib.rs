//! Offline shim for `crossbeam`, reduced to what this workspace uses: the
//! bounded SPSC ring with a batch-steal side door in [`spsc`] — the
//! per-shard queue of the live pipeline — and, in [`channel`], the error
//! and status types its operations return (named and placed as in the
//! real crate, so call sites read the same).

pub mod channel {
    use std::fmt;

    /// Error returned when sending into a ring whose consumer is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned when receiving from an empty, disconnected ring.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    /// Error returned by a non-blocking send.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The ring is at capacity; the value is handed back.
        Full(T),
        /// The consumer has been dropped; the value is handed back.
        Disconnected(T),
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    /// Error returned by a deadline-bounded receive.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with the ring still empty.
        Timeout,
        /// The ring is empty and the producer has been dropped.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty, disconnected channel")
                }
            }
        }
    }

    /// Why a `drain_into` call stopped filling its batch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DrainStatus {
        /// The batch reached `max` items before the deadline.
        Filled,
        /// The deadline passed first; the batch holds whatever arrived.
        DeadlineExpired,
        /// The producer hung up; the batch holds everything that was left
        /// in the queue (nothing is lost on the way out).
        Disconnected,
    }
}

pub mod spsc;
