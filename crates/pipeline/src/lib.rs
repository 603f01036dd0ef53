//! Tivan-like log infrastructure (§4.2), in-process.
//!
//! The paper's collection stack is rsyslogd → Fluentd → OpenSearch with
//! Grafana on top: 8 Dell R530s storing thirty million records a month.
//! This crate is the in-process equivalent built for the same workload
//! shape:
//!
//! * [`topology`] — the heterogeneous test-bed model: racks, nodes,
//!   architectures (Darwin's defining property);
//! * [`record`] — the stored log record;
//! * [`store`] — a time-sharded, inverted-index log store (the OpenSearch
//!   stand-in) behind `parking_lot` locks, with a sealed columnar tier;
//! * [`columnar`] — template-mined columnar segments (LogShrink-style):
//!   per-segment template dictionary, delta/dictionary-encoded columns,
//!   block compression, template-native queries;
//! * [`query`] — boolean term + time-range + metadata queries;
//! * `live` (private) — the one live path: the shard workers'
//!   drain-up-to-`max_batch`-or-`max_delay` loop and what a worker does
//!   with a batch;
//! * [`listener`] — [`SyslogListener`], the live path's only driver (the
//!   rsyslog/Fluentd stand-in): fault-tolerant TCP/UDP syslog listeners
//!   with bounded-queue overload policies, idle timeouts, a dead-letter
//!   ring, and graceful drain; the reactors and
//!   [`SyslogListener::feed`] (frames handed over in process) are its
//!   two feeders;
//! * [`reactor`] — the event-driven socket front end: a pool of epoll
//!   reactor threads multiplexing the UDP socket and hundreds of
//!   nonblocking TCP connections;
//! * [`shard`] — the sharded live-path fabric: hash-by-connection
//!   partitioner, per-shard SPSC rings with work-stealing handles, and
//!   per-shard instruments;
//! * [`sink`] — the post-classification delivery stage (the
//!   OpenSearch/Grafana hand-off): a `Sink` trait with ack/nack, file /
//!   simulated-bulk / log-to-metric sinks, and a [`FanOut`] router with
//!   per-sink windows, retry/backoff, and spill-then-replay;
//! * [`spill`] — the durable disk buffer behind the sinks: CRC-framed,
//!   size-capped segment files with crash recovery and quarantine;
//! * [`views`] — the §4.5 monitoring views: frequency/temporal analysis
//!   with burst detection, positional (per-rack) analysis, and
//!   per-architecture anomaly comparison;
//! * [`monitor`] — the micro-batching counters the live path's workers
//!   keep.

pub mod columnar;
pub mod listener;
mod live;
pub mod monitor;
pub mod query;
pub mod reactor;
pub mod record;
pub mod sensors;
pub mod shard;
pub mod sink;
pub mod spill;
pub mod store;
pub mod testsupport;
pub mod topology;
pub mod views;

pub use columnar::{Segment, SegmentStats};
pub use listener::{
    DeadLetter, DeadLetterRing, DropReason, Frontend, IngestStats, ListenerConfig, OverloadPolicy,
    SyslogListener,
};
pub use monitor::{BatchStats, FlushReason};
pub use query::Query;
pub use reactor::ReactorStats;
pub use record::LogRecord;
pub use sensors::{compare_to_arch_peers, sensor_sweep, SensorReading, SensorVerdict};
pub use shard::{Partitioner, ShardReceiver, ShardRouter, ShardStats};
pub use sink::{
    BulkSink, FanOut, FaultPlan, FileSink, MetricSink, Sink, SinkBatch, SinkError, SinkLaneConfig,
    SinkSnapshot, SinkSpec,
};
pub use spill::{RecoveryReport, SpillBuffer, SpillConfig, SpillFrame};
pub use store::LogStore;
pub use topology::{Architecture, ClusterTopology, NodeInfo};
