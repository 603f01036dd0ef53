//! Template-mined columnar segments — the LogShrink-style cold tier
//! behind [`LogStore`](crate::LogStore) (ROADMAP item 2, DESIGN.md §6).
//!
//! A sealed batch of [`LogRecord`]s is collapsed into one [`Segment`]:
//!
//! * a **template dictionary** mined per segment
//!   ([`textproc::template`]: bucket by word count, similarity-cluster
//!   ≥ 0.5, non-constant positions → `<*>`),
//! * a **template-id column** (one varint per row),
//! * **delta-encoded timestamps** and record ids (zigzag varints over
//!   consecutive differences),
//! * **dictionary-encoded** node / app columns and raw byte columns for
//!   severity / facility / category,
//! * **per-slot variable columns**: the variable words of every row,
//!   grouped by `(template, slot)` so a histogram over one slot touches
//!   exactly one block,
//! * cheap **block compression** ([`compress_block`], an LZ77 variant
//!   with hash-chain matching — no external codec dependency), applied
//!   per column so template-native queries decompress only what they
//!   read.
//!
//! The round trip is lossless: [`Segment::scan_filtered`] with a keep-all
//! filter yields the original records byte-identically, in insert order. Template-native
//! queries ([`Segment::count_rows_by_template`],
//! [`Segment::variable_values`], [`Segment::template_scan`]) skip
//! decompression where possible: per-template row counts live in the
//! uncompressed header, so counting over a fully-covered segment reads
//! zero blocks.

use crate::record::LogRecord;
use hetsyslog_core::Category;
use syslog_model::{Facility, Severity};
use textproc::template::{Template, TemplateMiner, TemplateToken};

// ---------------------------------------------------------------- varints

/// Append `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-map a signed delta into varint-friendly space.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------- block compression

const LZ_MIN_MATCH: usize = 4;
const LZ_MAX_MATCH: usize = 1 << 12;
const LZ_WINDOW: usize = 1 << 16;
const LZ_HASH_BITS: u32 = 15;
const LZ_CHAIN_DEPTH: usize = 16;
const OP_LITERAL: u8 = 0;
const OP_MATCH: u8 = 1;

fn lz_hash(window: &[u8]) -> usize {
    let key = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (key.wrapping_mul(0x9e37_79b1) >> (32 - LZ_HASH_BITS)) as usize
}

/// Compress one column block: a greedy LZ77 with hash-chain match search
/// (64 KiB window, ≥ 4-byte matches). The format is a varint of the
/// uncompressed length followed by ops — `0x00 len bytes…` literal runs
/// and `0x01 len dist` back-references. Deterministic, allocation-light,
/// and fast enough for seal-time; repetitive variable columns (the
/// common case) shrink dramatically, already-dense ones cost two bytes
/// of framing per run.
pub fn compress_block(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    put_varint(&mut out, input.len() as u64);
    let mut head = vec![-1i64; 1 << LZ_HASH_BITS];
    let mut prev = vec![-1i64; input.len()];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(OP_LITERAL);
            put_varint(out, (to - from) as u64);
            out.extend_from_slice(&input[from..to]);
        }
    };
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + LZ_MIN_MATCH <= input.len() {
            let slot = lz_hash(&input[i..]);
            let mut candidate = head[slot];
            let mut depth = 0;
            while candidate >= 0 && depth < LZ_CHAIN_DEPTH {
                let c = candidate as usize;
                let dist = i - c;
                if dist > LZ_WINDOW {
                    break;
                }
                let limit = (input.len() - i).min(LZ_MAX_MATCH);
                let mut l = 0usize;
                while l < limit && input[c + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                }
                candidate = prev[c];
                depth += 1;
            }
            prev[i] = head[slot];
            head[slot] = i as i64;
        }
        if best_len >= LZ_MIN_MATCH {
            flush_literals(&mut out, literal_start, i);
            out.push(OP_MATCH);
            put_varint(&mut out, best_len as u64);
            put_varint(&mut out, best_dist as u64);
            // Index the interior of the match so later data can still
            // reference it (skipping the full chain insert for speed —
            // only every position's head slot is updated).
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + LZ_MIN_MATCH <= input.len() {
                let slot = lz_hash(&input[j..]);
                prev[j] = head[slot];
                head[slot] = j as i64;
                j += 1;
            }
            i = end;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, input.len());
    out
}

/// Decompress a [`compress_block`] block. Returns `None` on any
/// malformed input (bad op, out-of-window distance, length mismatch).
pub fn decompress_block(block: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let n = get_varint(block, &mut pos)? as usize;
    let mut out: Vec<u8> = Vec::with_capacity(n);
    while pos < block.len() {
        let op = block[pos];
        pos += 1;
        match op {
            OP_LITERAL => {
                let len = get_varint(block, &mut pos)? as usize;
                let bytes = block.get(pos..pos + len)?;
                out.extend_from_slice(bytes);
                pos += len;
            }
            OP_MATCH => {
                let len = get_varint(block, &mut pos)? as usize;
                let dist = get_varint(block, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                // Byte-by-byte: matches may overlap their own output.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return None,
        }
    }
    (out.len() == n).then_some(out)
}

// ----------------------------------------------------------- the segment

/// String helpers: length-prefixed concatenation for string columns.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_varint(buf, pos)? as usize;
    let bytes = buf.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

/// Encoded-but-queryable header data kept uncompressed: everything a
/// count-by-template needs without touching a block.
#[derive(Debug, Clone)]
struct TemplateEntry {
    template: Template,
    pattern: String,
    n_vars: usize,
    rows: u64,
}

/// One sealed, immutable columnar segment.
#[derive(Debug)]
pub struct Segment {
    n_rows: usize,
    min_unix: i64,
    max_unix: i64,
    templates: Vec<TemplateEntry>,
    /// Row-ordered compressed columns.
    template_ids: Vec<u8>,
    timestamps: Vec<u8>,
    record_ids: Vec<u8>,
    nodes: Vec<u8>,
    apps: Vec<u8>,
    flags: Vec<u8>,
    /// Per-`(template, slot)` variable columns; index via
    /// `var_block_offsets[template] + slot`.
    var_blocks: Vec<Vec<u8>>,
    var_block_offsets: Vec<usize>,
    /// Shared string dictionary for node/app values.
    strings: Vec<String>,
    /// What the rows cost as JSONL (the hot tier's at-rest format).
    raw_bytes: u64,
}

/// Summary statistics for telemetry and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Rows encoded.
    pub rows: u64,
    /// Distinct templates in the dictionary.
    pub templates: u64,
    /// Encoded size (headers + compressed blocks).
    pub encoded_bytes: u64,
    /// JSONL size of the same rows.
    pub raw_bytes: u64,
}

impl Segment {
    /// Mine templates over `records` and encode them columnar. `threshold`
    /// is the clustering similarity (use
    /// [`TemplateMiner::DEFAULT_THRESHOLD`]).
    pub fn build(records: &[LogRecord], threshold: f64) -> Segment {
        let mut miner = TemplateMiner::with_threshold(threshold);
        let row_templates: Vec<u32> = records.iter().map(|r| miner.observe(&r.message)).collect();
        let templates = miner.finalize();

        let mut entries: Vec<TemplateEntry> = templates
            .into_iter()
            .map(|t| TemplateEntry {
                pattern: t.pattern(),
                n_vars: t.n_vars(),
                rows: 0,
                template: t,
            })
            .collect();
        for &id in &row_templates {
            entries[id as usize].rows += 1;
        }

        // String dictionary over node/app (highly repetitive).
        let mut strings: Vec<String> = Vec::new();
        let mut string_ids: std::collections::HashMap<String, u64> =
            std::collections::HashMap::new();
        let mut intern = |s: &str, strings: &mut Vec<String>| -> u64 {
            if let Some(&id) = string_ids.get(s) {
                return id;
            }
            let id = strings.len() as u64;
            strings.push(s.to_string());
            string_ids.insert(s.to_string(), id);
            id
        };

        let mut template_ids = Vec::new();
        let mut timestamps = Vec::new();
        let mut record_ids = Vec::new();
        let mut nodes = Vec::new();
        let mut apps = Vec::new();
        let mut flags = Vec::new();
        let mut var_cols: Vec<Vec<u8>> = {
            let total: usize = entries.iter().map(|e| e.n_vars).sum();
            vec![Vec::new(); total]
        };
        let mut var_block_offsets = Vec::with_capacity(entries.len());
        let mut off = 0usize;
        for e in &entries {
            var_block_offsets.push(off);
            off += e.n_vars;
        }

        let mut prev_ts = 0i64;
        let mut prev_id = 0i64;
        let mut min_unix = i64::MAX;
        let mut max_unix = i64::MIN;
        let mut raw_bytes = 0u64;
        for (record, &tid) in records.iter().zip(&row_templates) {
            raw_bytes += record.to_json().len() as u64 + 1;
            put_varint(&mut template_ids, u64::from(tid));
            put_varint(
                &mut timestamps,
                zigzag(record.unix_seconds.wrapping_sub(prev_ts)),
            );
            prev_ts = record.unix_seconds;
            put_varint(
                &mut record_ids,
                zigzag((record.id as i64).wrapping_sub(prev_id)),
            );
            prev_id = record.id as i64;
            put_varint(&mut nodes, intern(&record.node, &mut strings));
            put_varint(&mut apps, intern(&record.app, &mut strings));
            flags.push(record.severity.code());
            flags.push(record.facility.code());
            flags.push(record.category.map_or(0xff, |c| c.index() as u8));
            min_unix = min_unix.min(record.unix_seconds);
            max_unix = max_unix.max(record.unix_seconds);
            let entry = &entries[tid as usize];
            let vars = entry
                .template
                .extract_vars(&record.message)
                .expect("record fits its mined template");
            let base = var_block_offsets[tid as usize];
            for (slot, var) in vars.iter().enumerate() {
                put_str(&mut var_cols[base + slot], var);
            }
        }
        if records.is_empty() {
            min_unix = 0;
            max_unix = 0;
        }

        Segment {
            n_rows: records.len(),
            min_unix,
            max_unix,
            templates: entries,
            template_ids: compress_block(&template_ids),
            timestamps: compress_block(&timestamps),
            record_ids: compress_block(&record_ids),
            nodes: compress_block(&nodes),
            apps: compress_block(&apps),
            flags: compress_block(&flags),
            var_blocks: var_cols.into_iter().map(|c| compress_block(&c)).collect(),
            var_block_offsets,
            strings,
            raw_bytes,
        }
    }

    /// Rows in the segment.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Rendered template patterns, dictionary order.
    pub fn template_patterns(&self) -> Vec<&str> {
        self.templates.iter().map(|e| e.pattern.as_str()).collect()
    }

    /// Size of the encoded segment: compressed blocks plus the header's
    /// template dictionary and string dictionary.
    pub fn encoded_bytes(&self) -> u64 {
        let blocks = self.template_ids.len()
            + self.timestamps.len()
            + self.record_ids.len()
            + self.nodes.len()
            + self.apps.len()
            + self.flags.len()
            + self.var_blocks.iter().map(Vec::len).sum::<usize>();
        let dict: usize = self
            .templates
            .iter()
            .map(|e| {
                e.template
                    .tokens()
                    .iter()
                    .map(|t| match t {
                        TemplateToken::Const(w) => w.len() + 2,
                        TemplateToken::Var => 1,
                    })
                    .sum::<usize>()
                    + 16
            })
            .sum();
        let strings: usize = self.strings.iter().map(|s| s.len() + 2).sum();
        (blocks + dict + strings + 64) as u64
    }

    /// JSONL bytes the rows would occupy in the hot tier.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Summary stats for telemetry.
    pub fn stats(&self) -> SegmentStats {
        SegmentStats {
            rows: self.n_rows as u64,
            templates: self.templates.len() as u64,
            encoded_bytes: self.encoded_bytes(),
            raw_bytes: self.raw_bytes,
        }
    }

    /// True when no row can fall inside `[from, to)`.
    pub fn disjoint_from(&self, from: i64, to: i64) -> bool {
        self.n_rows == 0 || to <= self.min_unix || from > self.max_unix
    }

    /// Per-template row counts restricted to `[from, to)`, accumulated
    /// into `acc` keyed by pattern. When the range covers the whole
    /// segment this is pure header arithmetic — **no block is
    /// decompressed**; a partial overlap decodes only the template-id and
    /// timestamp columns.
    pub fn count_rows_by_template(
        &self,
        from: i64,
        to: i64,
        acc: &mut std::collections::BTreeMap<String, u64>,
    ) {
        if self.disjoint_from(from, to) {
            return;
        }
        if from <= self.min_unix && self.max_unix < to {
            for e in &self.templates {
                *acc.entry(e.pattern.clone()).or_default() += e.rows;
            }
            return;
        }
        let tids = decompress_block(&self.template_ids).expect("segment template-id column");
        let tss = decompress_block(&self.timestamps).expect("segment timestamp column");
        let (mut tp, mut sp) = (0usize, 0usize);
        let mut prev_ts = 0i64;
        for _ in 0..self.n_rows {
            let tid = get_varint(&tids, &mut tp).expect("template id") as usize;
            let ts = prev_ts.wrapping_add(unzigzag(get_varint(&tss, &mut sp).expect("timestamp")));
            prev_ts = ts;
            if ts >= from && ts < to {
                *acc.entry(self.templates[tid].pattern.clone()).or_default() += 1;
            }
        }
    }

    /// Run `f` over every decoded row whose timestamp is in `[from, to)`,
    /// in insert order.
    pub fn scan_range<F: FnMut(&LogRecord)>(&self, from: i64, to: i64, mut f: F) {
        if self.disjoint_from(from, to) {
            return;
        }
        self.scan_filtered(
            |_| true,
            |r| {
                if r.unix_seconds >= from && r.unix_seconds < to {
                    f(r);
                }
            },
        );
    }

    /// Run `f` over decoded rows whose template id passes `keep`. Rows of
    /// excluded templates are skipped cheaply: their variable columns are
    /// never decompressed (the row-ordered metadata columns still stream
    /// past, since they are shared).
    pub fn scan_filtered<K, F>(&self, keep: K, mut f: F)
    where
        K: Fn(usize) -> bool,
        F: FnMut(&LogRecord),
    {
        if self.n_rows == 0 {
            return;
        }
        let tids = decompress_block(&self.template_ids).expect("segment template-id column");
        let tss = decompress_block(&self.timestamps).expect("segment timestamp column");
        let rids = decompress_block(&self.record_ids).expect("segment record-id column");
        let nodes = decompress_block(&self.nodes).expect("segment node column");
        let apps = decompress_block(&self.apps).expect("segment app column");
        let flags = decompress_block(&self.flags).expect("segment flags column");
        let kept: Vec<bool> = (0..self.templates.len()).map(&keep).collect();
        // Decode a template's variable columns only if it is kept and
        // actually has variables.
        let mut var_cols: Vec<Option<Vec<String>>> = vec![None; self.var_blocks.len()];
        for (t, e) in self.templates.iter().enumerate() {
            if !kept[t] {
                continue;
            }
            let base = self.var_block_offsets[t];
            for slot in 0..e.n_vars {
                let raw =
                    decompress_block(&self.var_blocks[base + slot]).expect("segment var column");
                let mut pos = 0usize;
                let mut vals = Vec::with_capacity(e.rows as usize);
                while pos < raw.len() {
                    vals.push(get_str(&raw, &mut pos).expect("segment var value"));
                }
                var_cols[base + slot] = Some(vals);
            }
        }

        let (mut tp, mut sp, mut ip, mut np, mut ap) = (0usize, 0usize, 0usize, 0usize, 0usize);
        let mut prev_ts = 0i64;
        let mut prev_id = 0i64;
        // Every kept row needs its variable *occurrence index*, which is
        // the count of earlier rows of the same template — so excluded
        // templates still advance their cursors.
        let mut row_of_template: Vec<usize> = vec![0; self.templates.len()];
        let mut scratch_vars: Vec<String> = Vec::new();
        for row in 0..self.n_rows {
            let tid = get_varint(&tids, &mut tp).expect("template id") as usize;
            let ts = prev_ts.wrapping_add(unzigzag(get_varint(&tss, &mut sp).expect("timestamp")));
            prev_ts = ts;
            let id = prev_id.wrapping_add(unzigzag(get_varint(&rids, &mut ip).expect("record id")));
            prev_id = id;
            let node = get_varint(&nodes, &mut np).expect("node id") as usize;
            let app = get_varint(&apps, &mut ap).expect("app id") as usize;
            let (sev, fac, cat) = (flags[row * 3], flags[row * 3 + 1], flags[row * 3 + 2]);
            let occurrence = row_of_template[tid];
            row_of_template[tid] += 1;
            if !kept[tid] {
                continue;
            }
            let e = &self.templates[tid];
            scratch_vars.clear();
            let base = self.var_block_offsets[tid];
            for slot in 0..e.n_vars {
                let col = var_cols[base + slot]
                    .as_ref()
                    .expect("kept template column");
                scratch_vars.push(col[occurrence].clone());
            }
            let record = LogRecord {
                id: id as u64,
                unix_seconds: ts,
                node: self.strings[node].clone(),
                app: self.strings[app].clone(),
                severity: Severity::from_code(sev).expect("stored severity code"),
                facility: Facility::from_code(fac).expect("stored facility code"),
                message: e.template.reconstruct(&scratch_vars),
                category: if cat != 0xff {
                    Category::from_index(cat as usize)
                } else {
                    None
                },
            };
            f(&record);
        }
    }

    /// Decode only the rows of template `template_idx` (dictionary
    /// order), via [`Segment::scan_filtered`].
    pub fn template_scan<F: FnMut(&LogRecord)>(&self, template_idx: usize, f: F) {
        self.scan_filtered(|t| t == template_idx, f);
    }

    /// The variable values of one `(template, slot)` column, row order.
    /// Decompresses exactly that one block. Returns `None` for an
    /// out-of-range template or slot.
    pub fn variable_values(&self, template_idx: usize, slot: usize) -> Option<Vec<String>> {
        let e = self.templates.get(template_idx)?;
        if slot >= e.n_vars {
            return None;
        }
        let raw = decompress_block(&self.var_blocks[self.var_block_offsets[template_idx] + slot])?;
        let mut pos = 0usize;
        let mut vals = Vec::with_capacity(e.rows as usize);
        while pos < raw.len() {
            vals.push(get_str(&raw, &mut pos)?);
        }
        Some(vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row, in insert order.
    fn decode_all(segment: &Segment) -> Vec<LogRecord> {
        let mut out = Vec::new();
        segment.scan_filtered(|_| true, |r| out.push(r.clone()));
        out
    }

    fn rec(id: u64, t: i64, node: &str, message: &str) -> LogRecord {
        LogRecord {
            id,
            unix_seconds: t,
            node: node.to_string(),
            app: "kernel".to_string(),
            severity: Severity::Warning,
            facility: Facility::Kern,
            message: message.to_string(),
            category: id.is_multiple_of(2).then_some(Category::ThermalIssue),
        }
    }

    fn sample_records(n: usize) -> Vec<LogRecord> {
        (0..n)
            .map(|i| {
                rec(
                    i as u64,
                    1_000 + i as i64,
                    &format!("cn{:02}", i % 7),
                    &format!(
                        "temperature {}C on node cn{:02} above threshold",
                        70 + i % 30,
                        i % 7
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn lz_roundtrip_basic() {
        for input in [
            b"".to_vec(),
            b"abc".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"abcabcabcabcabcabcabcabc".to_vec(),
            (0u8..=255).collect::<Vec<u8>>(),
            b"the quick brown fox jumps over the lazy dog the quick brown fox".to_vec(),
        ] {
            let compressed = compress_block(&input);
            assert_eq!(decompress_block(&compressed).as_deref(), Some(&input[..]));
        }
    }

    #[test]
    fn lz_compresses_repetitive_input() {
        let input = b"temperature 91C on node cn01\n".repeat(200);
        let compressed = compress_block(&input);
        assert!(
            compressed.len() * 10 < input.len(),
            "repetitive input should shrink >10x: {} -> {}",
            input.len(),
            compressed.len()
        );
    }

    #[test]
    fn lz_rejects_corrupt_blocks() {
        let good = compress_block(b"hello hello hello hello");
        assert!(decompress_block(&good[..good.len() - 1]).is_none());
        let mut bad_op = good.clone();
        // First op byte follows the uncompressed-length varint (1 byte).
        bad_op[1] = 7;
        assert!(decompress_block(&bad_op).is_none());
    }

    #[test]
    fn segment_roundtrip_is_lossless() {
        let records = sample_records(500);
        let segment = Segment::build(&records, TemplateMiner::DEFAULT_THRESHOLD);
        assert_eq!(segment.n_rows(), 500);
        assert_eq!(decode_all(&segment), records);
    }

    #[test]
    fn segment_compresses() {
        let records = sample_records(2000);
        let segment = Segment::build(&records, TemplateMiner::DEFAULT_THRESHOLD);
        let stats = segment.stats();
        assert!(
            stats.encoded_bytes * 5 <= stats.raw_bytes,
            "expected >= 5x compression: raw {} encoded {}",
            stats.raw_bytes,
            stats.encoded_bytes
        );
    }

    #[test]
    fn count_by_template_full_range_matches_header() {
        let records = sample_records(300);
        let segment = Segment::build(&records, TemplateMiner::DEFAULT_THRESHOLD);
        let mut counts = std::collections::BTreeMap::new();
        segment.count_rows_by_template(i64::MIN, i64::MAX, &mut counts);
        assert_eq!(counts.values().sum::<u64>(), 300);
        // Oracle: decode each template's rows and count them.
        let mut oracle: std::collections::BTreeMap<String, u64> = Default::default();
        for (idx, pattern) in segment.template_patterns().iter().enumerate() {
            segment.template_scan(idx, |_| {
                *oracle.entry(pattern.to_string()).or_default() += 1;
            });
        }
        assert_eq!(counts, oracle);
    }

    #[test]
    fn count_by_template_partial_range_decodes_columns() {
        let records = sample_records(100);
        let segment = Segment::build(&records, TemplateMiner::DEFAULT_THRESHOLD);
        let mut counts = std::collections::BTreeMap::new();
        // Rows 0..50 have timestamps 1000..1050.
        segment.count_rows_by_template(1_000, 1_050, &mut counts);
        assert_eq!(counts.values().sum::<u64>(), 50);
    }

    #[test]
    fn variable_values_reads_one_slot() {
        let records = sample_records(50);
        let segment = Segment::build(&records, TemplateMiner::DEFAULT_THRESHOLD);
        // One template: "temperature <*> on node <*> above threshold".
        assert_eq!(segment.template_patterns().len(), 1);
        let temps = segment.variable_values(0, 0).expect("slot 0");
        assert_eq!(temps.len(), 50);
        assert_eq!(temps[0], "70C");
        assert!(segment.variable_values(0, 99).is_none());
        assert!(segment.variable_values(9, 0).is_none());
    }

    #[test]
    fn template_scan_filters_rows() {
        let mut records = sample_records(40);
        for i in 0..10u64 {
            records.push(rec(
                100 + i,
                2_000 + i as i64,
                "cn99",
                &format!("usb device {i} attached"),
            ));
        }
        let segment = Segment::build(&records, TemplateMiner::DEFAULT_THRESHOLD);
        let patterns = segment.template_patterns();
        let usb = patterns
            .iter()
            .position(|p| p.starts_with("usb device"))
            .expect("usb template mined");
        let mut n = 0;
        segment.template_scan(usb, |r| {
            assert!(r.message.starts_with("usb device"));
            n += 1;
        });
        assert_eq!(n, 10);
    }

    #[test]
    fn scan_range_is_half_open() {
        let records = sample_records(10);
        let segment = Segment::build(&records, TemplateMiner::DEFAULT_THRESHOLD);
        let mut seen = 0;
        segment.scan_range(1_000, 1_005, |_| seen += 1);
        assert_eq!(seen, 5);
    }

    #[test]
    fn empty_segment() {
        let segment = Segment::build(&[], TemplateMiner::DEFAULT_THRESHOLD);
        assert_eq!(segment.n_rows(), 0);
        assert!(decode_all(&segment).is_empty());
        let mut counts = std::collections::BTreeMap::new();
        segment.count_rows_by_template(i64::MIN, i64::MAX, &mut counts);
        assert!(counts.is_empty());
    }
}
