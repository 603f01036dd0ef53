//! Time-sharded inverted-index log store — the OpenSearch stand-in.
//!
//! Records land in fixed-width time shards; each shard keeps its documents
//! plus an inverted index token → local doc offsets. Shards take a
//! `parking_lot::RwLock` each, so concurrent ingest threads writing to
//! different shards don't contend and queries proceed under read locks.
//!
//! Time sharding alone does not help the *live* path: a real-time stream
//! lands every record in the current hour, so N pipeline shards writing
//! concurrently would all serialize on one time shard's write lock. Each
//! time slot is therefore split into [`LogStore::with_lanes`] independent
//! **lanes** — one `RwLock<Shard>` each — and a pipeline shard passes its
//! own index to [`LogStore::insert_batch_affine`] so its batches take a
//! lane lock no other shard touches (store-shard affinity). Queries and
//! retention see the union of lanes; a single-lane store (the default) is
//! exactly the old layout.
//!
//! # Sealed columnar tier
//!
//! Verbatim storage is the scaling wall at millions-of-users traffic, so
//! hot shards **seal** into template-mined columnar segments
//! ([`crate::columnar::Segment`], DESIGN.md §6): automatically when a
//! lane shard reaches the [`LogStore::with_sealing`] document threshold,
//! or explicitly via [`LogStore::seal_all`]
//! (the hot-tier eviction path — records stay queryable, ~10–40×
//! smaller). Sealed rows remain visible to every query
//! ([`LogStore::scan`] decodes on demand), participate in
//! [`LogStore::len`] / [`LogStore::export_jsonl`], and are dropped by
//! [`LogStore::evict_before`] like hot rows. Template-native queries —
//! [`LogStore::count_by_template`], [`LogStore::variable_histogram`],
//! [`LogStore::template_scan`] — answer from segment dictionaries and
//! single variable columns without decompressing whole segments.
//!
//! # Lock order
//!
//! `shards` map → lane `Shard` → `sealed` map.
//!
//! # Instruments
//!
//! The store registers its instruments (record counter, shard gauge,
//! insert/seal latency, `hetsyslog_segment_*` / `hetsyslog_template_*`)
//! once, when it is built: on the registry given to
//! [`LogStore::with_registry`], else on a private one nobody scrapes.
//! They are plain atomics, so they sit outside the lock order.

use crate::columnar::Segment;
use crate::record::LogRecord;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use textproc::template::TemplateMiner;

/// Width of one time shard, seconds (hourly, like a rotating index).
pub const DEFAULT_SHARD_SECONDS: i64 = 3600;

#[derive(Debug, Default)]
struct Shard {
    docs: Vec<LogRecord>,
    /// token → offsets into `docs`, ascending.
    index: HashMap<String, Vec<u32>>,
}

impl Shard {
    fn insert(&mut self, record: LogRecord) {
        let offset = self.docs.len() as u32;
        // Stream tokens and look the index up by `&str`: a token String is
        // allocated only the first time a term is ever seen, not once per
        // occurrence. Indexing is on the hot ingest path in front of the
        // classifier, so per-token allocations dominate otherwise.
        let index = &mut self.index;
        textproc::Tokenizer::default()
            .tokenize_each(&record.message, |token| Self::post(index, token, offset));
        // Node and app are searchable terms too (Grafana-style filters).
        Self::post(index, &record.node, offset);
        Self::post(index, &record.app, offset);
        self.docs.push(record);
    }

    fn post(index: &mut HashMap<String, Vec<u32>>, token: &str, offset: u32) {
        if let Some(postings) = index.get_mut(token) {
            postings.push(offset);
        } else {
            index.insert(token.to_string(), vec![offset]);
        }
    }

    /// Offsets matching all `terms` (AND semantics); all offsets when
    /// `terms` is empty.
    fn matching(&self, terms: &[String]) -> Vec<u32> {
        if terms.is_empty() {
            return (0..self.docs.len() as u32).collect();
        }
        let mut postings: Vec<&Vec<u32>> = Vec::with_capacity(terms.len());
        for t in terms {
            match self.index.get(t) {
                Some(p) => postings.push(p),
                None => return Vec::new(),
            }
        }
        // Intersect starting from the rarest posting list.
        postings.sort_by_key(|p| p.len());
        let mut result: Vec<u32> = postings[0].clone();
        result.dedup();
        for p in &postings[1..] {
            result.retain(|o| p.binary_search(o).is_ok());
            if result.is_empty() {
                break;
            }
        }
        result
    }
}

/// The sealed-tier equivalent of the inverted-index match: `record`
/// satisfies every term when each term equals the node, equals the app,
/// or occurs among the message's tokens — exactly the postings the hot
/// tier would have indexed for it.
fn record_matches(record: &LogRecord, terms: &[String]) -> bool {
    terms.iter().all(|term| {
        if record.node == *term || record.app == *term {
            return true;
        }
        let mut hit = false;
        textproc::Tokenizer::default().tokenize_each(&record.message, |token| {
            hit |= token == term;
        });
        hit
    })
}

/// The store's instruments, registered once at construction.
#[derive(Debug)]
struct StoreMetrics {
    records: Arc<obs::Counter>,
    shards: Arc<obs::Gauge>,
    insert_us: Arc<obs::Histogram>,
    seal_us: Arc<obs::Histogram>,
    segments_sealed: Arc<obs::Counter>,
    segment_rows: Arc<obs::Counter>,
    segments_live: Arc<obs::Gauge>,
    segment_bytes: Arc<obs::Gauge>,
    segment_raw_bytes: Arc<obs::Gauge>,
    templates_mined: Arc<obs::Counter>,
    templates_live: Arc<obs::Gauge>,
}

impl StoreMetrics {
    fn registered(registry: &obs::Registry) -> StoreMetrics {
        let stage = |name: &str| {
            registry.histogram(
                "hetsyslog_stage_duration_us",
                "Per-stage batch processing time in microseconds",
                &[("stage", name)],
            )
        };
        StoreMetrics {
            records: registry.counter(
                "hetsyslog_store_records_total",
                "Records inserted into the time-sharded store",
                &[],
            ),
            shards: registry.gauge("hetsyslog_store_shards", "Open time shards", &[]),
            insert_us: stage("store_insert"),
            seal_us: stage("segment_seal"),
            segments_sealed: registry.counter(
                "hetsyslog_segment_sealed_total",
                "Columnar segments sealed from the hot tier",
                &[],
            ),
            segment_rows: registry.counter(
                "hetsyslog_segment_rows_total",
                "Records sealed into columnar segments",
                &[],
            ),
            segments_live: registry.gauge(
                "hetsyslog_segment_live",
                "Columnar segments currently queryable",
                &[],
            ),
            segment_bytes: registry.gauge(
                "hetsyslog_segment_bytes",
                "Encoded bytes across live columnar segments",
                &[],
            ),
            segment_raw_bytes: registry.gauge(
                "hetsyslog_segment_raw_bytes",
                "JSONL-equivalent bytes of the rows in live columnar segments",
                &[],
            ),
            templates_mined: registry.counter(
                "hetsyslog_template_mined_total",
                "Templates mined across all sealed segments (cumulative)",
                &[],
            ),
            templates_live: registry.gauge(
                "hetsyslog_template_live",
                "Distinct template patterns across live segments",
                &[],
            ),
        }
    }
}

/// One time window: `lanes` independently locked shards whose union is
/// the window's contents.
type TimeSlot = Vec<RwLock<Shard>>;

/// The sharded store.
#[derive(Debug)]
pub struct LogStore {
    shards: RwLock<BTreeMap<i64, TimeSlot>>,
    /// Sealed columnar segments, keyed by time-slot like `shards`; a slot
    /// accumulates one segment per seal event.
    sealed: RwLock<BTreeMap<i64, Vec<Arc<Segment>>>>,
    shard_seconds: i64,
    lanes: usize,
    /// Documents per lane shard that trigger an automatic seal
    /// (0 = never seal automatically).
    seal_threshold: usize,
    /// Mining similarity threshold for sealed segments.
    template_threshold: f64,
    next_id: AtomicU64,
    metrics: StoreMetrics,
}

impl Default for LogStore {
    fn default() -> LogStore {
        LogStore::new()
    }
}

impl LogStore {
    /// A store with hourly shards and a single lane.
    pub fn new() -> LogStore {
        LogStore::with_config(DEFAULT_SHARD_SECONDS, 1)
    }

    /// A store with custom shard width and a single lane.
    pub fn with_shard_seconds(shard_seconds: i64) -> LogStore {
        LogStore::with_config(shard_seconds, 1)
    }

    /// A store with hourly shards split into `lanes` write lanes — one per
    /// pipeline shard, so concurrent live writers never share a lock.
    pub fn with_lanes(lanes: usize) -> LogStore {
        LogStore::with_config(DEFAULT_SHARD_SECONDS, lanes)
    }

    /// A store with custom shard width and lane count.
    pub fn with_config(shard_seconds: i64, lanes: usize) -> LogStore {
        LogStore {
            shards: RwLock::new(BTreeMap::new()),
            sealed: RwLock::new(BTreeMap::new()),
            shard_seconds: shard_seconds.max(1),
            lanes: lanes.max(1),
            seal_threshold: 0,
            template_threshold: TemplateMiner::DEFAULT_THRESHOLD,
            next_id: AtomicU64::new(0),
            metrics: StoreMetrics::registered(&obs::Registry::new()),
        }
    }

    /// Export the store's instruments on `registry` (builder-style;
    /// without this call they record on a registry nobody scrapes). A
    /// construction-time builder: the instruments start from zero, so
    /// call it before the first insert.
    pub fn with_registry(mut self, registry: &obs::Registry) -> LogStore {
        self.metrics = StoreMetrics::registered(registry);
        self
    }

    /// Enable the sealed columnar tier: a lane shard reaching
    /// `threshold` documents is sealed into a columnar segment during the
    /// insert that crossed the threshold (builder-style; pass 0 to keep
    /// sealing manual via [`LogStore::seal_all`]).
    pub fn with_sealing(mut self, threshold: usize) -> LogStore {
        self.seal_threshold = threshold;
        self
    }

    fn new_slot(&self) -> TimeSlot {
        (0..self.lanes)
            .map(|_| RwLock::new(Shard::default()))
            .collect()
    }

    /// Refresh the live-segment gauges from the sealed tier. Takes the
    /// sealed-map read lock, so call it with no storage lock held.
    fn refresh_segment_gauges(&self) {
        let sealed = self.sealed.read();
        let mut segments = 0i64;
        let mut bytes = 0i64;
        let mut raw = 0i64;
        let mut patterns = std::collections::BTreeSet::new();
        for segment in sealed.values().flatten() {
            let stats = segment.stats();
            segments += 1;
            bytes += stats.encoded_bytes as i64;
            raw += stats.raw_bytes as i64;
            for p in segment.template_patterns() {
                patterns.insert(p.to_string());
            }
        }
        self.metrics.segments_live.set(segments);
        self.metrics.segment_bytes.set(bytes);
        self.metrics.segment_raw_bytes.set(raw);
        self.metrics.templates_live.set(patterns.len() as i64);
    }

    /// Allocate the next document id.
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_key(&self, unix_seconds: i64) -> i64 {
        unix_seconds.div_euclid(self.shard_seconds)
    }

    /// Seal `docs` into a columnar segment under `key` and count it. The
    /// caller chooses what locks it is holding (threshold seals run under
    /// the lane write lock so a concurrent scan never observes the rows
    /// missing); the sealed-map write lock is taken here, last in the
    /// lock order. The caller refreshes the segment gauges once its
    /// storage locks are released.
    fn seal_docs(&self, key: i64, docs: Vec<LogRecord>) {
        let started = Instant::now();
        let segment = Segment::build(&docs, self.template_threshold);
        self.metrics.segments_sealed.inc();
        self.metrics.segment_rows.add(segment.n_rows() as u64);
        self.metrics
            .templates_mined
            .add(segment.template_patterns().len() as u64);
        self.metrics.seal_us.record_duration_us(started.elapsed());
        self.sealed
            .write()
            .entry(key)
            .or_default()
            .push(Arc::new(segment));
    }

    /// Insert a record (its `id` should come from [`LogStore::allocate_id`]).
    /// A batch of one: multi-lane stores spread scalar inserts by record id.
    pub fn insert(&self, record: LogRecord) {
        self.insert_batch_affine(record.id as usize, std::iter::once(record))
    }

    /// Insert a batch of records, acquiring each time shard's write lock
    /// once per contiguous run instead of once per record. Records from a
    /// live stream land overwhelmingly in the current shard, so a batch of
    /// N costs ~1 lock acquisition instead of N. Multi-lane stores put
    /// un-hinted batches in lane 0; sharded pipeline workers use
    /// [`LogStore::insert_batch_affine`] instead.
    pub fn insert_batch(&self, records: impl IntoIterator<Item = LogRecord>) {
        self.insert_batch_affine(0, records)
    }

    /// [`LogStore::insert_batch`] with store-shard affinity: the whole
    /// batch lands in lane `lane_hint % lanes` of each time slot it spans.
    /// Pipeline shard `k` passing `lane_hint = k` into a store with as
    /// many lanes as shards makes the batched insert a single-shard fast
    /// path — its lane lock is never contended by another pipeline shard,
    /// only by readers.
    pub fn insert_batch_affine(
        &self,
        lane_hint: usize,
        records: impl IntoIterator<Item = LogRecord>,
    ) {
        let lane = lane_hint % self.lanes;
        let start = Instant::now();
        let mut inserted: u64 = 0;
        let mut sealed = false;
        let mut records = records.into_iter().peekable();
        while let Some(first) = records.next() {
            let key = self.shard_key(first.unix_seconds);
            // Ensure the slot exists, then hold one lane's write lock for
            // the whole run of records mapping to the same key.
            loop {
                let shards = self.shards.read();
                let Some(slot) = shards.get(&key) else {
                    drop(shards);
                    let n_shards = {
                        let mut shards = self.shards.write();
                        shards.entry(key).or_insert_with(|| self.new_slot());
                        shards.len()
                    };
                    // Refresh the gauge the moment the slot opens — not
                    // at end of batch — so a batch spanning a slot
                    // boundary never leaves it stale between runs.
                    self.metrics.shards.set(n_shards as i64);
                    continue;
                };
                let mut shard = slot[lane].write();
                shard.insert(first);
                inserted += 1;
                while records
                    .peek()
                    .is_some_and(|r| self.shard_key(r.unix_seconds) == key)
                {
                    shard.insert(records.next().expect("peeked"));
                    inserted += 1;
                }
                if self.seal_threshold > 0 && shard.docs.len() >= self.seal_threshold {
                    let docs = std::mem::take(&mut shard.docs);
                    shard.index.clear();
                    self.seal_docs(key, docs);
                    sealed = true;
                }
                break;
            }
        }
        if inserted > 0 {
            self.metrics.records.add(inserted);
            self.metrics.insert_us.record_duration_us(start.elapsed());
        }
        if sealed {
            self.refresh_segment_gauges();
        }
    }

    /// Total stored records (hot + sealed).
    pub fn len(&self) -> usize {
        self.hot_len() + self.sealed_len()
    }

    /// Records in the hot inverted-index tier.
    pub fn hot_len(&self) -> usize {
        self.shards
            .read()
            .values()
            .flat_map(|slot| slot.iter())
            .map(|s| s.read().docs.len())
            .sum()
    }

    /// Records in the sealed columnar tier.
    pub fn sealed_len(&self) -> usize {
        self.sealed
            .read()
            .values()
            .flatten()
            .map(|s| s.n_rows())
            .sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of open (hot) time shards.
    pub fn n_shards(&self) -> usize {
        self.shards.read().len()
    }

    /// Number of sealed columnar segments.
    pub fn n_segments(&self) -> usize {
        self.sealed.read().values().map(Vec::len).sum()
    }

    /// Aggregate sealed-tier stats (rows, distinct patterns per segment
    /// summed, encoded and raw bytes).
    pub fn segment_stats(&self) -> crate::columnar::SegmentStats {
        let sealed = self.sealed.read();
        let mut out = crate::columnar::SegmentStats {
            rows: 0,
            templates: 0,
            encoded_bytes: 0,
            raw_bytes: 0,
        };
        for segment in sealed.values().flatten() {
            let s = segment.stats();
            out.rows += s.rows;
            out.templates += s.templates;
            out.encoded_bytes += s.encoded_bytes;
            out.raw_bytes += s.raw_bytes;
        }
        out
    }

    /// Snapshot the live segments overlapping `[k_from, k_to]` slot keys.
    fn segments_in_range(&self, k_from: i64, k_to: i64) -> Vec<Arc<Segment>> {
        self.sealed
            .read()
            .range(k_from..=k_to)
            .flat_map(|(_, segs)| segs.iter().cloned())
            .collect()
    }

    /// Run `f` over every record in `[from, to)` matching all `terms`,
    /// in shard order — sealed segments first within each time slot
    /// (sealed rows predate hot ones), then hot lanes. The callback form
    /// avoids cloning the result set. Empty and reversed ranges return
    /// immediately without walking the shard map (and `to == i64::MIN`
    /// no longer overflows the shard-key computation).
    pub fn scan<F: FnMut(&LogRecord)>(&self, from: i64, to: i64, terms: &[String], mut f: F) {
        if to <= from {
            return;
        }
        let (k_from, k_to) = (self.shard_key(from), self.shard_key(to - 1));
        let sealed = self.segments_in_range(k_from, k_to);
        for segment in sealed {
            segment.scan_range(from, to, |rec| {
                if record_matches(rec, terms) {
                    f(rec);
                }
            });
        }
        let shards = self.shards.read();
        for (_, slot) in shards.range(k_from..=k_to) {
            for shard in slot {
                let shard = shard.read();
                for offset in shard.matching(terms) {
                    let rec = &shard.docs[offset as usize];
                    if rec.unix_seconds >= from && rec.unix_seconds < to {
                        f(rec);
                    }
                }
            }
        }
    }

    /// Collect matching records (convenience over [`LogStore::scan`]).
    pub fn search(&self, from: i64, to: i64, terms: &[String]) -> Vec<LogRecord> {
        let mut out = Vec::new();
        self.scan(from, to, terms, |r| out.push(r.clone()));
        out
    }

    // ------------------------------------------------ template queries

    /// Rows per template pattern over the sealed tier in `[from, to)`.
    /// Segments fully inside the range are answered from their header
    /// dictionaries — **zero blocks decompressed**; partially covered
    /// segments decode only template-id + timestamp columns. The hot
    /// tier is not mined (seal first, e.g. [`LogStore::seal_all`], to
    /// cover everything).
    pub fn count_by_template(&self, from: i64, to: i64) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        if to <= from {
            return counts;
        }
        let (k_from, k_to) = (self.shard_key(from), self.shard_key(to - 1));
        for segment in self.segments_in_range(k_from, k_to) {
            segment.count_rows_by_template(from, to, &mut counts);
        }
        counts
    }

    /// Histogram of the values in variable slot `slot` of every sealed
    /// template whose pattern equals `pattern`. Decompresses exactly one
    /// variable column per matching segment.
    pub fn variable_histogram(&self, pattern: &str, slot: usize) -> BTreeMap<String, u64> {
        let mut hist = BTreeMap::new();
        let segments: Vec<Arc<Segment>> = self
            .sealed
            .read()
            .values()
            .flat_map(|segs| segs.iter().cloned())
            .collect();
        for segment in segments {
            let Some(idx) = segment
                .template_patterns()
                .iter()
                .position(|p| *p == pattern)
            else {
                continue;
            };
            if let Some(values) = segment.variable_values(idx, slot) {
                for v in values {
                    *hist.entry(v).or_default() += 1;
                }
            }
        }
        hist
    }

    /// Run `f` over every sealed record whose template pattern equals
    /// `pattern`, decoding only those templates' variable columns.
    pub fn template_scan<F: FnMut(&LogRecord)>(&self, pattern: &str, mut f: F) {
        let segments: Vec<Arc<Segment>> = self
            .sealed
            .read()
            .values()
            .flat_map(|segs| segs.iter().cloned())
            .collect();
        for segment in segments {
            if let Some(idx) = segment
                .template_patterns()
                .iter()
                .position(|p| *p == pattern)
            {
                segment.template_scan(idx, &mut f);
            }
        }
    }

    // ------------------------------------------------------ seal / evict

    /// Seal every hot shard, regardless of age, into columnar segments:
    /// records stay queryable at a fraction of the bytes. Returns the
    /// number of records sealed. Lanes of one slot are merged into a
    /// single segment so the template dictionary spans the whole window.
    pub fn seal_all(&self) -> u64 {
        self.seal_slots_below(i64::MAX)
    }

    fn seal_slots_below(&self, cutoff_shard: i64) -> u64 {
        // Detach the eligible slots first so the expensive mining pass
        // runs without the map write lock; the lane contents move out
        // atomically, so no record is ever visible twice.
        let (detached, n_shards) = {
            let mut shards = self.shards.write();
            let keep = if cutoff_shard == i64::MAX {
                BTreeMap::new()
            } else {
                shards.split_off(&cutoff_shard)
            };
            let detached: Vec<(i64, TimeSlot)> =
                std::mem::replace(&mut *shards, keep).into_iter().collect();
            (detached, shards.len())
        };
        let mut rows = 0u64;
        for (key, slot) in detached {
            let mut docs: Vec<LogRecord> = Vec::new();
            for lane in slot {
                docs.extend(lane.into_inner().docs);
            }
            if docs.is_empty() {
                continue;
            }
            rows += docs.len() as u64;
            self.seal_docs(key, docs);
        }
        self.metrics.shards.set(n_shards as i64);
        if rows > 0 {
            self.refresh_segment_gauges();
        }
        rows
    }

    /// Drop whole shards older than `cutoff_unix_seconds` — the index
    /// lifecycle policy that let Tivan "store and search over thirty
    /// million log records a month" on eight servers without growing
    /// forever. Returns the number of records evicted, from both the hot
    /// and the sealed tier; the open-shard gauge is refreshed (it used
    /// to go stale here).
    ///
    /// Eviction is shard-granular (a shard is dropped only when its whole
    /// window is older than the cutoff), matching time-rotated indices.
    pub fn evict_before(&self, cutoff_unix_seconds: i64) -> u64 {
        let cutoff_shard = self.shard_key(cutoff_unix_seconds);
        let (evicted_hot, n_shards) = {
            let mut shards = self.shards.write();
            let keep = shards.split_off(&cutoff_shard);
            let evicted: u64 = shards
                .values()
                .flat_map(|slot| slot.iter())
                .map(|s| s.read().docs.len() as u64)
                .sum();
            *shards = keep;
            (evicted, shards.len())
        };
        let evicted_sealed: u64 = {
            let mut sealed = self.sealed.write();
            let keep = sealed.split_off(&cutoff_shard);
            let evicted = sealed.values().flatten().map(|s| s.n_rows() as u64).sum();
            *sealed = keep;
            evicted
        };
        self.metrics.shards.set(n_shards as i64);
        if evicted_sealed > 0 {
            // Segment gauges shrink; counters (cumulative) stay.
            self.refresh_segment_gauges();
        }
        evicted_hot + evicted_sealed
    }

    /// Snapshot every record as JSON lines, in shard order (sealed rows
    /// first within a slot, like [`LogStore::scan`]) — the
    /// OpenSearch-snapshot equivalent.
    pub fn export_jsonl<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<u64> {
        let mut count = 0u64;
        let keys: Vec<i64> = {
            let shards = self.shards.read();
            let sealed = self.sealed.read();
            let mut keys: Vec<i64> = shards.keys().chain(sealed.keys()).copied().collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        };
        for key in keys {
            for segment in self.segments_in_range(key, key) {
                let mut err = None;
                segment.scan_filtered(
                    |_| true,
                    |record| {
                        if err.is_some() {
                            return;
                        }
                        if let Err(e) = serde_json::to_writer(&mut writer, record)
                            .map_err(std::io::Error::other)
                            .and_then(|()| writer.write_all(b"\n"))
                        {
                            err = Some(e);
                        } else {
                            count += 1;
                        }
                    },
                );
                if let Some(e) = err {
                    return Err(e);
                }
            }
            let shards = self.shards.read();
            let Some(slot) = shards.get(&key) else {
                continue;
            };
            for shard in slot {
                let shard = shard.read();
                for record in &shard.docs {
                    serde_json::to_writer(&mut writer, record).map_err(std::io::Error::other)?;
                    writer.write_all(b"\n")?;
                    count += 1;
                }
            }
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsyslog_core::Category;
    use syslog_model::{Facility, Severity};

    fn rec(store: &LogStore, t: i64, node: &str, message: &str) -> LogRecord {
        LogRecord {
            id: store.allocate_id(),
            unix_seconds: t,
            node: node.to_string(),
            app: "kernel".to_string(),
            severity: Severity::Warning,
            facility: Facility::Kern,
            message: message.to_string(),
            category: Some(Category::ThermalIssue),
        }
    }

    #[test]
    fn insert_and_search_terms() {
        let store = LogStore::new();
        store.insert(rec(&store, 100, "cn01", "cpu temperature above threshold"));
        store.insert(rec(&store, 200, "cn02", "usb device attached"));
        store.insert(rec(&store, 300, "cn01", "cpu throttled again"));

        let hits = store.search(0, 1000, &["cpu".to_string()]);
        assert_eq!(hits.len(), 2);
        let hits = store.search(0, 1000, &["cpu".to_string(), "temperature".to_string()]);
        assert_eq!(hits.len(), 1);
        let hits = store.search(0, 1000, &["nonexistent".to_string()]);
        assert!(hits.is_empty());
    }

    #[test]
    fn node_and_app_are_searchable() {
        let store = LogStore::new();
        store.insert(rec(&store, 50, "cn07", "some message"));
        assert_eq!(store.search(0, 100, &["cn07".to_string()]).len(), 1);
        assert_eq!(store.search(0, 100, &["kernel".to_string()]).len(), 1);
    }

    #[test]
    fn time_range_is_half_open() {
        let store = LogStore::new();
        store.insert(rec(&store, 100, "a", "x marker"));
        store.insert(rec(&store, 200, "b", "x marker"));
        assert_eq!(store.search(100, 200, &["marker".to_string()]).len(), 1);
        assert_eq!(store.search(100, 201, &["marker".to_string()]).len(), 2);
    }

    #[test]
    fn sharding_by_time() {
        let store = LogStore::with_shard_seconds(60);
        for i in 0..10 {
            store.insert(rec(&store, i * 60, "n", "m"));
        }
        assert_eq!(store.n_shards(), 10);
        assert_eq!(store.len(), 10);
    }

    #[test]
    fn negative_times_shard_correctly() {
        let store = LogStore::with_shard_seconds(60);
        store.insert(rec(&store, -30, "n", "early marker"));
        assert_eq!(store.search(-100, 0, &["marker".to_string()]).len(), 1);
    }

    #[test]
    fn concurrent_ingest_is_consistent() {
        let store = std::sync::Arc::new(LogStore::with_shard_seconds(10));
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    let r = LogRecord {
                        id: store.allocate_id(),
                        unix_seconds: (t * 250 + i) as i64,
                        node: format!("cn{t}"),
                        app: "kernel".to_string(),
                        severity: Severity::Informational,
                        facility: Facility::Kern,
                        message: format!("msg {i} shared token"),
                        category: None,
                    };
                    store.insert(r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 1000);
        assert_eq!(store.search(0, 2000, &["shared".to_string()]).len(), 1000);
    }

    #[test]
    fn retention_evicts_old_shards_only() {
        let store = LogStore::with_shard_seconds(60);
        store.insert(rec(&store, 10, "a", "ancient marker"));
        store.insert(rec(&store, 70, "b", "old marker"));
        store.insert(rec(&store, 130, "c", "fresh marker"));
        assert_eq!(store.n_shards(), 3);
        // Cutoff inside the second shard: only the first is fully older.
        let evicted = store.evict_before(90);
        assert_eq!(evicted, 1);
        assert_eq!(store.len(), 2);
        assert!(store.search(0, 200, &["ancient".to_string()]).is_empty());
        assert_eq!(store.search(0, 200, &["old".to_string()]).len(), 1);
        // Shard-aligned cutoff evicts the second too.
        assert_eq!(store.evict_before(120), 1);
        assert_eq!(store.len(), 1);
        // Nothing left to evict below the cutoff.
        assert_eq!(store.evict_before(120), 0);
    }

    #[test]
    fn a_deeply_nested_line_is_rejected_not_overflowed() {
        let store = LogStore::new();
        let good = rec(&store, 10, "cn01", "cpu temperature high").to_json();
        assert!(LogRecord::from_json(&good).is_ok());
        assert!(LogRecord::from_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn lanes_are_query_transparent() {
        let store = LogStore::with_config(60, 4);
        // Affine batches from 4 "pipeline shards" into distinct lanes of
        // the same time slot; queries must see the union.
        for lane in 0..4usize {
            let batch: Vec<LogRecord> = (0..5)
                .map(|i| {
                    rec(
                        &store,
                        30,
                        &format!("cn{lane}"),
                        &format!("lane marker {i}"),
                    )
                })
                .collect();
            store.insert_batch_affine(lane, batch);
        }
        assert_eq!(store.len(), 20);
        assert_eq!(store.n_shards(), 1, "one time slot despite 4 lanes");
        assert_eq!(store.search(0, 60, &["marker".to_string()]).len(), 20);
        assert_eq!(store.search(0, 60, &["cn2".to_string()]).len(), 5);
        // Retention and export see every lane.
        let mut out = Vec::new();
        assert_eq!(store.export_jsonl(&mut out).unwrap(), 20);
        assert_eq!(store.evict_before(60), 20);
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_affine_ingest_into_one_time_slot_is_consistent() {
        // The live-path shape: every writer hits the same time slot, each
        // pins its own lane, so writes proceed without shared-lock
        // serialization and nothing is lost or duplicated.
        let store = std::sync::Arc::new(LogStore::with_config(3600, 4));
        let mut handles = Vec::new();
        for lane in 0..4usize {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for chunk in 0..10 {
                    let batch: Vec<LogRecord> = (0..25)
                        .map(|i| {
                            let mut r = rec(
                                &store,
                                100,
                                &format!("cn{lane}"),
                                &format!("burst {chunk} msg {i} shared token"),
                            );
                            r.category = None;
                            r
                        })
                        .collect();
                    store.insert_batch_affine(lane, batch);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 1000);
        assert_eq!(store.search(0, 3600, &["shared".to_string()]).len(), 1000);
    }

    #[test]
    fn duplicate_tokens_in_message_count_once() {
        let store = LogStore::new();
        store.insert(rec(&store, 1, "n", "cpu cpu cpu"));
        assert_eq!(store.search(0, 10, &["cpu".to_string()]).len(), 1);
    }

    // ----------------------------------------------- bugfix regressions

    #[test]
    fn scan_handles_empty_reversed_and_extreme_ranges() {
        let store = LogStore::with_shard_seconds(60);
        store.insert(rec(&store, 100, "n", "edge marker"));
        let count = |from, to| store.search(from, to, &[]).len();
        // `to == i64::MIN` used to compute `shard_key(i64::MIN - 1)` —
        // a debug-build overflow panic. Now an early empty return.
        assert_eq!(count(i64::MIN, i64::MIN), 0);
        assert_eq!(count(0, i64::MIN), 0);
        // Reversed and empty ranges return without walking the map.
        assert_eq!(count(200, 100), 0);
        assert_eq!(count(100, 100), 0);
        // Extreme-but-valid ranges still work.
        assert_eq!(count(i64::MIN, i64::MAX), 1);
        // count_by_template applies the same guard.
        assert!(store.count_by_template(0, i64::MIN).is_empty());
    }

    #[test]
    fn shard_gauge_tracks_slot_creation_eviction_and_sealing() {
        let registry = obs::Registry::new();
        let store = LogStore::with_shard_seconds(60).with_registry(&registry);
        let gauge = registry.gauge("hetsyslog_store_shards", "", &[]);
        assert_eq!(gauge.get(), 0);

        // Regression: a single batch spanning a slot boundary only
        // refreshed the gauge at end of batch; scalar inserts refreshed
        // mid-stream. Both now update the moment a slot opens.
        let batch: Vec<LogRecord> = [10, 70, 130]
            .iter()
            .map(|&t| rec(&store, t, "n", "span marker"))
            .collect();
        store.insert_batch(batch);
        assert_eq!(gauge.get(), 3);
        assert_eq!(store.n_shards(), 3);

        // Regression: eviction used to leave the gauge stale.
        store.evict_before(60);
        assert_eq!(gauge.get(), 2);
        assert_eq!(store.n_shards(), 2);

        // Sealing closes hot shards too, and the gauge follows.
        store.seal_all();
        assert_eq!(gauge.get(), 0);
        assert_eq!(store.n_shards(), 0);
        assert_eq!(store.len(), 2, "sealed rows still stored");
    }

    // ------------------------------------------------- sealed-tier tests

    #[test]
    fn scalar_insert_seals_at_threshold() {
        // Regression: the scalar insert's slow path (first record of a new
        // time slot) never checked the seal threshold.
        let store = LogStore::new().with_sealing(1);
        store.insert(rec(&store, 100, "cn01", "first record of its slot"));
        assert_eq!((store.sealed_len(), store.hot_len()), (1, 0));
    }

    #[test]
    fn threshold_sealing_keeps_rows_queryable() {
        let store = LogStore::with_shard_seconds(3600).with_sealing(10);
        for i in 0..25 {
            store.insert(rec(&store, 100 + i, "cn01", &format!("seal marker {i}")));
        }
        // Two automatic seals at 10 docs each; 5 rows stay hot.
        assert_eq!(store.n_segments(), 2);
        assert_eq!(store.sealed_len(), 20);
        assert_eq!(store.hot_len(), 5);
        assert_eq!(store.len(), 25);
        // Term + time queries span both tiers.
        assert_eq!(store.search(0, 4000, &["marker".to_string()]).len(), 25);
        assert_eq!(store.search(100, 105, &[]).len(), 5);
        // Sealed rows decode byte-identically.
        let hits = store.search(100, 101, &[]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].message, "seal marker 0");
        assert_eq!(hits[0].node, "cn01");
    }

    #[test]
    fn sealed_rows_query_export_and_evict_like_hot_rows() {
        let store = LogStore::with_shard_seconds(60);
        store.insert(rec(&store, 10, "a", "ancient marker"));
        store.insert(rec(&store, 70, "b", "old marker"));
        store.insert(rec(&store, 130, "c", "fresh marker"));
        // One segment per time slot.
        assert_eq!(store.seal_all(), 3);
        assert_eq!(store.n_shards(), 0);
        assert_eq!(store.n_segments(), 3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.search(0, 200, &["marker".to_string()]).len(), 3);
        assert_eq!(store.search(0, 200, &["ancient".to_string()]).len(), 1);
        let mut out = Vec::new();
        assert_eq!(store.export_jsonl(&mut out).unwrap(), 3);
        // Eviction drops sealed segments like hot shards.
        assert_eq!(store.evict_before(120), 2);
        assert_eq!(store.n_segments(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn template_queries_answer_from_sealed_segments() {
        let store = LogStore::with_shard_seconds(3600);
        for i in 0..30 {
            store.insert(rec(
                &store,
                100 + i,
                "cn01",
                &format!("temperature {}C on node cn{:02}", 80 + i, i % 4),
            ));
        }
        for i in 0..10 {
            store.insert(rec(
                &store,
                200 + i,
                "cn02",
                &format!("usb device {i} attached"),
            ));
        }
        assert!(
            store.count_by_template(0, 4000).is_empty(),
            "hot tier unmined"
        );
        store.seal_all();

        let counts = store.count_by_template(0, 4000);
        assert_eq!(counts.get("temperature <*> on node <*>"), Some(&30));
        assert_eq!(counts.get("usb device <*> attached"), Some(&10));
        // Partial range decodes timestamps: only the first 5 temperature rows.
        let partial = store.count_by_template(100, 105);
        assert_eq!(partial.get("temperature <*> on node <*>"), Some(&5));
        assert_eq!(partial.get("usb device <*> attached"), None);

        // Variable histogram over slot 1 (the node id).
        let hist = store.variable_histogram("temperature <*> on node <*>", 1);
        assert_eq!(hist.len(), 4);
        assert_eq!(hist.get("cn00"), Some(&8));
        assert_eq!(hist.get("cn01"), Some(&8));
        assert_eq!(hist.get("cn03"), Some(&7));

        // Template-filtered scan yields only matching rows, losslessly.
        let mut n = 0;
        store.template_scan("usb device <*> attached", |r| {
            assert!(r.message.starts_with("usb device "));
            n += 1;
        });
        assert_eq!(n, 10);
    }

    #[test]
    fn built_with_registry_exports_the_store_ledger() {
        let registry = obs::Registry::new();
        let store = LogStore::with_shard_seconds(60).with_registry(&registry);
        let records = registry.counter("hetsyslog_store_records_total", "", &[]);
        for i in 0..20 {
            store.insert(rec(&store, i, "n", &format!("carry marker {i}")));
        }
        assert_eq!(records.get(), store.len() as u64);
        store.seal_all();
        assert_eq!(records.get(), store.len() as u64, "sealing moves rows");
        assert_eq!(
            registry
                .counter("hetsyslog_segment_sealed_total", "", &[])
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter("hetsyslog_segment_rows_total", "", &[])
                .get(),
            20
        );
        assert!(
            registry
                .counter("hetsyslog_template_mined_total", "", &[])
                .get()
                >= 1
        );
        assert_eq!(registry.gauge("hetsyslog_segment_live", "", &[]).get(), 1);
        assert!(registry.gauge("hetsyslog_segment_bytes", "", &[]).get() > 0);
        let raw = registry.gauge("hetsyslog_segment_raw_bytes", "", &[]).get();
        assert!(raw > 0);
        assert!(registry.gauge("hetsyslog_template_live", "", &[]).get() >= 1);

        for i in 0..5 {
            store.insert(rec(&store, 600 + i, "n", &format!("carry marker {i}")));
        }
        store.seal_all();
        assert_eq!(
            registry
                .counter("hetsyslog_segment_sealed_total", "", &[])
                .get(),
            2
        );
        assert_eq!(
            registry
                .counter("hetsyslog_segment_rows_total", "", &[])
                .get(),
            25
        );
        assert_eq!(registry.gauge("hetsyslog_segment_live", "", &[]).get(), 2);
        assert_eq!(records.get(), store.len() as u64);
        // Evicting everything zeroes the live gauges, not the counters.
        assert_eq!(store.evict_before(i64::MAX.div_euclid(60)), 25);
        assert_eq!((records.get(), store.len()), (25, 0));
        assert_eq!(registry.gauge("hetsyslog_segment_live", "", &[]).get(), 0);
        assert_eq!(
            registry
                .counter("hetsyslog_segment_rows_total", "", &[])
                .get(),
            25
        );
    }
}
