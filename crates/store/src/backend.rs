//! The backend trait and its statistics record.

use std::fmt;

use mp_model::Encode;

use crate::hash::with_encoded;

/// A snapshot of one backend's counters.
///
/// All backends use the unified accounting scheme: every membership query —
/// an [`StateStoreBackend::insert`] *or* a [`StateStoreBackend::contains`] —
/// counts as a **hit** when the key was already present and as a **miss**
/// otherwise. `hits + misses` therefore equals the total number of queries.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Number of distinct entries currently stored.
    pub entries: usize,
    /// Queries that found the key already present.
    pub hits: usize,
    /// Queries that did not find the key.
    pub misses: usize,
    /// Heap footprint of the store in bytes: everything its tables asked
    /// the allocator for (slot arrays, arena chunk capacity, bloom front,
    /// block indices). This is the number the engines report as "peak
    /// state-storage bytes"; it covers the store's own tables, not frontier
    /// queues or DFS stacks.
    pub approx_bytes: usize,
    /// Cumulative bytes of visited-set data written to disk as sorted runs
    /// (0 for the in-memory backends).
    pub spilled_bytes: usize,
    /// Cumulative bytes written while merging sorted runs during
    /// [`StateStoreBackend::maintain`] (0 for the in-memory backends).
    pub merge_bytes: usize,
    /// Upper bound on the probability that at least one state was wrongly
    /// treated as visited — `min(1, n² / 2^(w+1))` for the `n` entries at
    /// the backend's fingerprint width `w`: 0 for the exact backends, the
    /// price of a `Verified` verdict for the probabilistic ones.
    pub omission_probability: f64,
}

/// Birthday bound on a collision among `entries` uniformly distributed
/// `bits`-wide fingerprints (`bits ≤ 64`): the union bound over all pairs,
/// `x = n² / 2^(bits+1)`, capped at 1. The familiar `1 − exp(−x)` estimate
/// lies within `x²/2` below it, but `exp` would make every binary that
/// links a store load `libm.so` (0.3 MB resident) for one verdict-line
/// figure.
pub(crate) fn birthday_bound(entries: usize, bits: u32) -> f64 {
    let n = entries as f64;
    (n * n / (1u128 << (bits + 1)) as f64).min(1.0)
}

impl StoreStats {
    /// Total number of membership queries answered.
    pub(crate) fn queries(&self) -> usize {
        self.hits + self.misses
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries (~{} KiB), {} hits / {} queries",
            self.entries,
            self.approx_bytes / 1024,
            self.hits,
            self.queries()
        )
    }
}

/// The answer of [`StateStoreBackend::insert_bytes`] and
/// [`StateStoreBackend::insert_hashed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inserted {
    /// The key was not stored before.
    pub new: bool,
    /// The full 64-bit [`crate::hash_bytes`] of the key's encoding — all of
    /// it from every backend, also from one that keeps fewer bits. Two keys
    /// may share it: a caller that indexes by it confirms a match with `==`.
    pub fp: u64,
    /// The store's name for the key: equal for every insert of a stored
    /// key. The exact backends return where the key's bytes live (shard and
    /// arena offset), so distinct keys have distinct tokens; the
    /// probabilistic ones return `fp`, and conflating two keys under one
    /// token is the omission they already account for
    /// ([`StoreStats::omission_probability`]).
    pub token: u64,
}

/// A visited-state set that search engines insert into and query.
///
/// A backend identifies a key by its [`Encode`] bytes and implements only
/// the byte-level calls; the typed ones encode the key once into the
/// thread's scratch buffer and delegate.
///
/// All methods take `&self`: backends use interior mutability so that the
/// parallel engine can share one store across worker threads (all provided
/// backends are `Send + Sync`; the sequential engines simply pay one
/// uncontended lock per operation on the exact backend).
pub trait StateStoreBackend<K: Encode> {
    /// Inserts the key whose encoding is `bytes`: one hash, one table
    /// probe. Counts a hit when the key was already present, a miss
    /// otherwise, and reports what the probe learned (see [`Inserted`]).
    fn insert_bytes(&self, bytes: &[u8]) -> Inserted;

    /// Returns `true` if the key whose encoding is `bytes` is present.
    /// Counts a hit when found, a miss otherwise — the same accounting as
    /// [`StateStoreBackend::insert_bytes`].
    fn contains_bytes(&self, bytes: &[u8]) -> bool;

    /// Inserts a key; returns `true` if it was new. No backend keeps the
    /// key value itself (only its encoded bytes or their fingerprint), so
    /// this is [`StateStoreBackend::insert_ref`] for callers that own the
    /// key.
    fn insert(&self, key: K) -> bool {
        self.insert_ref(&key)
    }

    /// Inserts a borrowed key: one encode into the thread's scratch buffer,
    /// then [`StateStoreBackend::insert_bytes`]. Never clones.
    fn insert_ref(&self, key: &K) -> bool {
        self.insert_hashed(key).new
    }

    /// [`StateStoreBackend::insert_ref`] that also hands back what the
    /// probe learned about the key (see [`Inserted`]), so a caller can keep
    /// its own per-state data without encoding, hashing or holding the key
    /// again.
    fn insert_hashed(&self, key: &K) -> Inserted {
        with_encoded(key, |bytes| self.insert_bytes(bytes))
    }

    /// [`StateStoreBackend::contains_bytes`] of the key's encoding.
    fn contains(&self, key: &K) -> bool {
        with_encoded(key, |bytes| self.contains_bytes(bytes))
    }

    /// Number of distinct entries stored.
    fn len(&self) -> usize;

    /// Returns `true` if nothing has been stored yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    fn stats(&self) -> StoreStats;

    /// Short backend name ("exact", "sharded", "fingerprint", "runs").
    fn name(&self) -> &'static str;

    /// Gives the backend a chance to reorganise itself at a quiescent point
    /// — the BFS engines call this at level boundaries. The external-memory
    /// backend merges its sorted runs here so lookups stay cheap; the
    /// in-memory backends have nothing to do, hence the no-op default.
    fn maintain(&self) {}
}

/// The reporting label of a backend whose keys are canonical orbit
/// representatives. Single source of the `+canon` suffix convention for the
/// engines, which canonicalize their keys before they reach the store.
pub fn canonical_label(name: &'static str) -> &'static str {
    match name {
        "exact" => "exact+canon",
        "sharded" => "sharded+canon",
        "fingerprint" => "fingerprint+canon",
        "runs" => "runs+canon",
        _ => "canonical",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accessors() {
        let s = StoreStats {
            entries: 10,
            hits: 3,
            misses: 9,
            approx_bytes: 4096,
            ..Default::default()
        };
        assert_eq!(s.queries(), 12);
        assert!(s.to_string().contains("10 entries"));
    }

    #[test]
    fn birthday_bound_matches_the_documented_figures() {
        assert_eq!(birthday_bound(0, 48), 0.0);
        // The crate docs promise p < 1e-6 up to ~23 thousand states and
        // < 2% up to ~3 million at the default 48 bits.
        assert!(birthday_bound(23_000, 48) < 1.1e-6);
        assert!(birthday_bound(3_000_000, 48) < 0.02);
        assert_eq!(birthday_bound(4_096, 8), 1.0);
        let p = birthday_bound(1_000_000, 64);
        assert!((p / 2.710_505_4e-8 - 1.0).abs() < 1e-7, "p = {p}");
    }
}
