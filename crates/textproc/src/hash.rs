//! A fast, non-cryptographic hasher for hot-path hash maps.
//!
//! Token interning and document-frequency counting hash millions of short
//! strings; SipHash (the std default) dominates profiles there. This is the
//! FxHash algorithm used by rustc — low quality but very fast. It has no
//! HashDoS protection, so on the live path it keys only maps whose keys
//! the operator chose (static lexicons, vocabularies and tables learned
//! from the training corpus); a map that stores keys taken from the
//! network keeps the std hasher. (See the Rust Performance Book,
//! "Hashing".)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc FxHash word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(value: T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one("throttle"), hash_one("throttle"));
        assert_eq!(hash_one(42u64), hash_one(42u64));
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(hash_one("cpu0"), hash_one("cpu1"));
        assert_ne!(hash_one("throttle"), hash_one("throttled"));
    }

    #[test]
    fn usable_in_collections() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        m.insert("temp".to_string(), 1);
        m.insert("temp".to_string(), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m["temp"], 2);

        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.extend([1, 2, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn spreads_low_bits() {
        // Sequential keys must not all collide in low bits (map buckets).
        let hashes: Vec<u64> = (0u64..64).map(hash_one).collect();
        let distinct_low: std::collections::HashSet<u64> =
            hashes.iter().map(|h| h & 0xff).collect();
        assert!(distinct_low.len() > 32, "low bits poorly distributed");
    }
}
