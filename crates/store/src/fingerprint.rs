//! The hash-compaction (fingerprint) backend.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mp_model::Encode;

use crate::backend::{birthday_bound, Inserted, StateStoreBackend, StoreStats};
use crate::fptable::FpTable;
use crate::hash::{hash_bytes, K0};

/// A visited-state set that stores only the low w bits of each key's
/// fingerprint ([`crate::hash_bytes`] of its encoding) instead of the key.
///
/// Memory per visited state drops from the full key size to one 8-byte
/// slot (11–21 bytes at 3/8–3/4 load) regardless of how large the protocol
/// state is, which is what makes the Table I/II protocol runs fit in memory
/// at larger parameters. The price is a bounded **omission probability**:
/// two distinct states whose hashes agree on the stored w bits are
/// conflated, and the subtree below the second one is silently skipped. See
/// the crate-level documentation ([`crate`]) for the exact soundness
/// contract; in short, `Verified` becomes probabilistic while
/// counterexamples stay exact.
///
/// The store is lock-striped like the sharded [`crate::ByteStore`], so it
/// is also safe (and fast) under the parallel engine.
#[derive(Debug)]
pub struct FingerprintStore<K> {
    shards: Vec<Mutex<FpTable>>,
    shard_bits: u32,
    mask: u64,
    bits: u32,
    hits: AtomicUsize,
    misses: AtomicUsize,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: Encode> FingerprintStore<K> {
    /// Creates a store keeping `bits`-bit fingerprints (clamped to
    /// `8..=64`) across `shards` stripes (rounded up to a power of two).
    pub fn new(bits: u32, shards: usize) -> Self {
        let bits = bits.clamp(8, 64);
        let shards = shards.max(1).next_power_of_two();
        FingerprintStore {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            shard_bits: shards.trailing_zeros(),
            mask: if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            },
            bits,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            _key: PhantomData,
        }
    }

    /// Fingerprint width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The kept (masked) fingerprint of a full one, and the shard it lives in.
    fn kept_and_shard(&self, full: u64) -> (u64, &Mutex<FpTable>) {
        let fp = full & self.mask;
        // The shard is derived from the fingerprint itself (Fibonacci
        // mixing of its bits), so equal fingerprints always land in the
        // same shard and membership is purely a function of the w-bit
        // fingerprint — the omission probability depends only on `bits`.
        let index = if self.shard_bits == 0 {
            0
        } else {
            (fp.wrapping_mul(K0) >> (64 - self.shard_bits)) as usize
        };
        (fp, &self.shards[index])
    }

    fn record(&self, present: bool) {
        if present {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<K: Encode> StateStoreBackend<K> for FingerprintStore<K> {
    fn insert_bytes(&self, bytes: &[u8]) -> Inserted {
        let full = hash_bytes(bytes);
        let (fp, shard) = self.kept_and_shard(full);
        let new = shard.lock().expect("shard poisoned").insert(fp);
        self.record(!new);
        Inserted {
            new,
            fp: full,
            token: full,
        }
    }

    fn contains_bytes(&self, bytes: &[u8]) -> bool {
        let (fp, shard) = self.kept_and_shard(hash_bytes(bytes));
        let present = shard.lock().expect("shard poisoned").contains(fp);
        self.record(present);
        present
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    fn stats(&self) -> StoreStats {
        let mut entries = 0;
        let mut approx_bytes = 0;
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            entries += shard.len();
            approx_bytes += shard.heap_bytes();
        }
        StoreStats {
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            approx_bytes,
            omission_probability: birthday_bound(entries, self.bits),
            ..Default::default()
        }
    }

    fn name(&self) -> &'static str {
        "fingerprint"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_clamped() {
        assert_eq!(FingerprintStore::<u64>::new(1, 1).bits(), 8);
        assert_eq!(FingerprintStore::<u64>::new(200, 1).bits(), 64);
        assert_eq!(FingerprintStore::<u64>::new(48, 1).bits(), 48);
    }

    #[test]
    fn distinct_keys_with_distinct_fingerprints_are_distinct() {
        let store = FingerprintStore::<String>::new(64, 8);
        assert!(store.insert("a".to_string()));
        assert!(store.insert("b".to_string()));
        assert!(!store.insert("a".to_string()));
        assert!(store.contains(&"b".to_string()));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn omission_probability_is_zero_when_empty_and_grows() {
        let store = FingerprintStore::<u64>::new(16, 1);
        assert_eq!(store.stats().omission_probability, 0.0);
        for k in 0u64..200 {
            store.insert(k);
        }
        let p = store.stats().omission_probability;
        assert!(p > 0.0 && p < 1.0, "p = {p}");
    }
}
