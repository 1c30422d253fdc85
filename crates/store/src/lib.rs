//! # mp-store — pluggable visited-state storage for stateful search
//!
//! The paper (DSN 2011, Section V-B) observes that the benefit of stateful
//! search "becomes significant with large state spaces" — which makes the
//! visited-state set the memory- and contention-critical data structure of
//! the whole checker. This crate turns it into a first-class subsystem: the
//! search engines of `mp-checker` program against the
//! [`StateStoreBackend`] trait and a [`StoreConfig`] selects a backend at
//! run time. A backend takes a key as its `mp-model` encoding
//! ([`StateStoreBackend::insert_bytes`]); the typed calls encode the key
//! **once** into a per-thread scratch buffer, and a caller that already
//! holds the bytes — the BFS worker, which keeps them as the state's
//! frontier record — passes them straight through. Every backend then
//! hashes the bytes **once** with [`hash_bytes`] and only then takes a
//! lock. What is kept per visited state differs:
//!
//! * [`ByteStore`] (`StoreConfig::Exact`, `StoreConfig::Sharded`) — the
//!   encoded bytes themselves, in an open-addressing table (a 16-bit tag
//!   and an arena offset per slot, equality by `memcmp`). Sound and exact.
//!   One shard is the default for the sequential engines; N shards,
//!   selected by the fingerprint's top bits, let the parallel BFS engine
//!   insert without a global mutex on the visited set.
//! * [`RunStore`] (`StoreConfig::Fingerprint`) — **hash compaction**: only
//!   the low w bits of the fingerprint are kept, a few bytes per visited
//!   state instead of the encoded key (a hundred bytes for protocol
//!   states), at the price of a bounded *omission* probability (see
//!   below). The fingerprints live in RAM up to a watermark and are then
//!   spilled to sorted on-disk runs fronted by a bloom filter, merged at
//!   BFS level boundaries ([`StateStoreBackend::maintain`]), so resident
//!   memory stays bounded however large the state space grows; an
//!   unbounded watermark keeps them all in RAM. It is sharded like
//!   [`ByteStore`], by the kept fingerprint's top bits.
//!
//! What the probe learned is an answer too: [`StateStoreBackend::insert_hashed`]
//! returns an [`Inserted`] — next to new/seen, the full 64 bits of
//! `hash_bytes(encode(key))` (all of them from every backend, also from one
//! that keeps only w of them or none) and the store's **token** for the
//! key, the same on every insert of a stored key. [`ByteStore`]'s token is
//! where the key's bytes live (shard and arena offset), so it names one key
//! only; the probabilistic backends have nothing but the fingerprint to
//! give, and two keys under one token is the omission they already bound.
//! The depth-first engines of `mp-checker` index their stack by the hash
//! (confirming each match with `==` against the state the frame holds) and
//! file what they remember of a state that left the stack under the token
//! alone, so a state is encoded and hashed once per transition, here, and
//! kept nowhere else.
//!
//! Identifying a key by its encoding requires `a == b ⇔ encode(a) ==
//! encode(b)`. The codec's round-trip contract gives `⇐`; `⇒` holds because
//! every `Encode` impl writes exactly the fields `Eq` compares, in canonical
//! (sorted-container) order.
//!
//! ## Soundness caveat of hash compaction
//!
//! With fingerprints, two distinct states whose hashes collide in the
//! stored w bits are indistinguishable: the second one is treated as
//! *already visited* and its successors are never explored. Consequently:
//!
//! * a **`Verified` verdict is probabilistic** — with `n` stored states and
//!   w-bit fingerprints, the probability that at least one state was
//!   wrongly omitted is at most `n² / 2^(w+1)` (birthday bound; reported
//!   as [`StoreStats::omission_probability`]);
//! * a **counterexample remains exact** — every reported violation is a
//!   real reachable state, because states on the path are re-executed from
//!   the initial state and properties are evaluated on full states, never
//!   on fingerprints.
//!
//! Pick the width against the expected state count: at the default of 48
//! bits the bound stays below 1e-6 up to ~23 thousand stored states and
//! below 2% up to ~3 million; beyond that it degrades quickly (at 23
//! million states it is ~0.9, i.e. `Verified` means little). Check
//! [`StoreStats::omission_probability`] after a run (the engines carry it
//! into their statistics and print it beside the verdict), widen toward 64
//! bits for larger sweeps, and use an exact backend for certification
//! runs.
//!
//! ## Hit accounting
//!
//! All backends count every membership query uniformly: a query (either
//! [`StateStoreBackend::insert`] finding the key present, or
//! [`StateStoreBackend::contains`] returning `true`) is a **hit**, any
//! other query is a **miss**. `ExplorationStats` in `mp-checker` reports
//! these numbers the same way for every engine.
//!
//! ## Spillable BFS frontiers
//!
//! The visited set is one of the two memory-critical structures of a
//! breadth-first run; the other is the **frontier** (two whole BFS levels
//! alive at once). [`Frontier`] queues each state as one framed byte record
//! — in the BFS engines the exact bytes the visited store was probed with —
//! and [`FrontierConfig`] sets its watermark: unbounded for the in-memory
//! default, or a size past which a level's records are appended to that
//! level's file, one file per level, and read back front to back. The order
//! is strictly FIFO either way, so spill-on and spill-off runs explore
//! identically. [`ParentLog`] keeps the BFS parent-pointer table as
//! fixed-width records under the same watermark, so counterexample paths
//! stay reconstructible.
//!
//! ## Checkpoint/resume
//!
//! Long sweeps survive being killed. A checkpointed run keeps its level
//! files and `parents.log` in the checkpoint directory — one copy of the
//! run's files — and at every completed level seals them and commits a
//! [`Manifest`] naming their valid prefixes, the counters and the run's
//! identity; resume reopens the same files at the last committed level,
//! producing byte-identical verdicts and statistics. All persisted byte
//! layouts are specified in `docs/ON_DISK_FORMATS.md`.
//!
//! ```
//! use mp_store::{FrontierBackend, FrontierConfig, PlainCodec};
//!
//! // A 1-byte watermark spills the tail at every pushed state.
//! let config = FrontierConfig::disk_with_watermark(1);
//! let mut frontier = config.build::<(u32, Vec<u8>), _>(PlainCodec);
//! for i in 0..10 {
//!     frontier.push((i, vec![0u8; 100]));
//! }
//! assert_eq!(frontier.advance_level(), 10);
//! assert_eq!(frontier.pop(), Some((0, vec![0u8; 100]))); // FIFO
//! let stats = frontier.stats();
//! assert!(stats.segments >= 9 && stats.spilled_bytes >= 900);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod checkpoint;
mod config;
mod files;
mod fptable;
mod frontier;
mod hash;
mod parent_log;
mod runstore;
mod table;

pub use backend::{canonical_label, Inserted, StateStoreBackend, StoreStats};
pub use checkpoint::{
    manifest_exists, CheckpointConfig, CheckpointError, FileMeta, Manifest, CHECKPOINT_VERSION,
};
pub use config::{StoreConfig, StoreImpl, DEFAULT_SHARDS};
pub use frontier::{
    Frontier, FrontierBackend, FrontierConfig, FrontierStats, ItemCodec, PlainCodec,
    DEFAULT_FRONTIER_WATERMARK,
};
pub use hash::hash_bytes;
pub use parent_log::{ParentLog, ParentRecord};
pub use runstore::{RunStore, DEFAULT_RUN_WATERMARK};
pub use table::ByteStore;

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random key stream (SplitMix64).
    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    /// The probabilistic store at the given width, stripes and watermark.
    fn layout(bits: u32, shards: usize, watermark_entries: usize) -> StoreConfig {
        StoreConfig::Fingerprint {
            bits,
            shards,
            watermark_entries,
        }
    }

    #[test]
    fn all_backends_agree_on_small_inputs() {
        // 256 keys with duplicates: every backend must report the same
        // sequence of insert results (64-bit fingerprints of u64 keys are
        // collision-free on this input).
        let mut input = keys(256, 7);
        input.extend(keys(256, 7));
        let configs = [
            StoreConfig::Exact,
            StoreConfig::sharded(),
            StoreConfig::Sharded { shards: 4 },
            StoreConfig::fingerprint(64),
            // A tiny watermark so the external-memory backend spills and
            // answers from its sorted runs, not just the RAM buffer.
            StoreConfig::runs_with_watermark(32),
        ];
        let expected: Vec<bool> = {
            let exact = StoreConfig::Exact.build::<u64>();
            input.iter().map(|k| exact.insert(*k)).collect()
        };
        for config in configs {
            let store = config.build::<u64>();
            let got: Vec<bool> = input.iter().map(|k| store.insert(*k)).collect();
            assert_eq!(got, expected, "{config} disagrees with exact");
            assert_eq!(store.len(), 256, "{config} has the wrong cardinality");
            assert_eq!(store.stats().hits, 256, "{config} miscounts hits");
        }
    }

    #[test]
    fn concurrent_inserts_are_exact_under_contention() {
        // 8 threads insert overlapping slices; afterwards the store must
        // contain exactly the union, and hits+misses must equal the total
        // number of insert calls.
        let input = keys(10_000, 99);
        for config in [
            StoreConfig::sharded(),
            StoreConfig::Sharded { shards: 2 },
            StoreConfig::fingerprint(64).for_parallel(),
            // About a dozen runs per shard, probed while other threads spill.
            StoreConfig::runs_with_watermark(input.len() / 12).for_parallel(),
        ] {
            let store = config.build::<u64>();
            std::thread::scope(|scope| {
                for t in 0..8 {
                    let store = &store;
                    let chunk = &input[t * 1000..(t * 1000 + 3000).min(input.len())];
                    scope.spawn(move || {
                        for k in chunk {
                            store.insert(*k);
                        }
                    });
                }
            });
            let unique: std::collections::HashSet<u64> = input.iter().copied().collect();
            assert_eq!(store.len(), unique.len());
            let stats = store.stats();
            assert_eq!(stats.entries, store.len());
            assert_eq!(stats.hits + stats.misses, 8 * 3000);
            // Every inserted key must be present.
            for k in &input {
                assert!(store.contains(k), "{config} lost a key");
            }
        }
    }

    #[test]
    fn fingerprint_store_uses_less_memory_than_exact() {
        // Keys are large (simulating protocol states); the fingerprint
        // store must report far fewer bytes.
        let big_keys: Vec<Vec<u64>> = keys(2_000, 5).into_iter().map(|k| vec![k; 16]).collect();
        let exact = StoreConfig::Exact.build::<Vec<u64>>();
        let fp = StoreConfig::fingerprint(48).build::<Vec<u64>>();
        for k in &big_keys {
            exact.insert_ref(k);
            fp.insert_ref(k);
        }
        assert_eq!(exact.len(), 2_000);
        assert_eq!(fp.len(), 2_000, "48-bit fingerprints must not collide here");
        let exact_bytes = exact.stats().approx_bytes;
        let fp_bytes = fp.stats().approx_bytes;
        assert!(
            fp_bytes * 4 < exact_bytes,
            "fingerprints ({fp_bytes}B) should be ≥4x smaller than exact ({exact_bytes}B)"
        );
    }

    #[test]
    fn narrow_fingerprints_collide_and_wide_ones_do_not() {
        // The insert results of the key stream, and the store they leave.
        let fill = |config: StoreConfig| {
            let store = config.build::<u64>();
            let new: Vec<bool> = keys(4_096, 3)
                .into_iter()
                .map(|k| store.insert(k))
                .collect();
            (store, new)
        };
        // An 8-bit fingerprint can hold at most 256 distinct values, zero
        // among them: the store keeps exactly the distinct kept ones.
        let kept: std::collections::BTreeSet<u64> = keys(4_096, 3)
            .iter()
            .map(|k| hash_bytes(&mp_model::encode_to_vec(k)) & 0xff)
            .collect();
        assert!(kept.contains(&0), "4 096 keys reach the zero fingerprint");
        let (narrow, _) = fill(layout(8, 4, usize::MAX));
        assert_eq!(narrow.len(), kept.len());
        assert!(narrow.stats().omission_probability > 0.99);
        // A spilling 16-bit store keeps the same set as an in-RAM one: the
        // mask applies before the shard, the buffer and the runs.
        let (in_ram, in_ram_new) = fill(layout(16, 4, usize::MAX));
        let (spilling, spilling_new) = fill(layout(16, 4, 64));
        assert_eq!(spilling_new, in_ram_new);
        assert!(in_ram.len() < 4_096, "16-bit fingerprints collide here");
        assert!(spilling.stats().spilled_bytes > 0);
        // 64 bits keep every key, spilled or not, under the same bound; the
        // exact backends omit nothing.
        let (wide, _) = fill(layout(64, 4, usize::MAX));
        let (runs, _) = fill(StoreConfig::runs_with_watermark(64));
        assert_eq!(wide.len(), 4_096);
        assert!(wide.stats().omission_probability < 1e-6);
        assert_eq!(
            runs.stats().omission_probability,
            wide.stats().omission_probability
        );
        assert_eq!(fill(StoreConfig::Exact).0.stats().omission_probability, 0.0);
    }

    #[test]
    fn an_unbounded_watermark_is_the_in_ram_fingerprint_store() {
        // The bloom front is sized at the first flush, which never comes.
        let unbounded = StoreConfig::runs_with_watermark(usize::MAX);
        assert_eq!(unbounded, StoreConfig::fingerprint(64));
        let runs = unbounded.build::<u64>();
        let fingerprint = StoreConfig::fingerprint(64).build::<u64>();
        let input = keys(4_096, 3);
        for k in input.iter().chain(&input) {
            assert_eq!(runs.insert(*k), fingerprint.insert(*k));
            assert!(runs.contains(k) && fingerprint.contains(k));
        }
        assert_eq!(runs.stats(), fingerprint.stats());
        assert_eq!(runs.stats().spilled_bytes, 0);
        assert_eq!(runs.name(), "fingerprint");
    }

    #[test]
    fn width_is_clamped() {
        for (bits, kept) in [(1, 8), (8, 8), (48, 48), (64, 64), (200, 64)] {
            assert_eq!(StoreConfig::fingerprint(bits), layout(kept, 1, usize::MAX));
        }
    }

    #[test]
    fn distinct_keys_with_distinct_fingerprints_are_distinct() {
        let store = layout(64, 8, usize::MAX).build::<String>();
        assert!(store.insert("a".to_string()));
        assert!(store.insert("b".to_string()));
        assert!(!store.insert("a".to_string()));
        assert!(store.contains(&"b".to_string()));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn omission_probability_is_zero_when_empty_and_grows() {
        let store = StoreConfig::fingerprint(16).build::<u64>();
        assert_eq!(store.stats().omission_probability, 0.0);
        for k in 0u64..200 {
            store.insert(k);
        }
        let p = store.stats().omission_probability;
        assert!(p > 0.0 && p < 1.0, "p = {p}");
    }

    #[test]
    fn contains_counts_hits_uniformly() {
        for config in [
            StoreConfig::Exact,
            StoreConfig::sharded(),
            StoreConfig::fingerprint(64),
            StoreConfig::runs_with_watermark(32),
        ] {
            let store = config.build::<u64>();
            assert!(!store.contains(&1)); // miss
            assert!(store.insert(1)); // miss
            assert!(store.contains(&1)); // hit
            assert!(!store.insert(1)); // hit
            let stats = store.stats();
            assert_eq!(stats.hits, 2, "{config}");
            assert_eq!(stats.misses, 2, "{config}");
        }
    }

    #[test]
    fn insert_ref_matches_insert_semantics_and_accounting() {
        let input = keys(512, 21);
        for config in [
            StoreConfig::Exact,
            StoreConfig::sharded(),
            StoreConfig::fingerprint(64),
            StoreConfig::fingerprint(32),
            StoreConfig::runs_with_watermark(32),
        ] {
            let by_value = config.build::<u64>();
            let by_ref = config.build::<u64>();
            let hashed = config.build::<u64>();
            let by_bytes = config.build::<u64>();
            for k in input.iter().chain(input.iter()) {
                let new = by_value.insert(*k);
                assert_eq!(new, by_ref.insert_ref(k), "{config}");
                // All 64 bits of the one fingerprint, whatever the backend
                // keeps — and the probabilistic backends have no other name
                // for a key.
                let encoded = mp_model::encode_to_vec(k);
                let fp = hash_bytes(&encoded);
                let inserted = hashed.insert_hashed(k);
                assert_eq!((inserted.new, inserted.fp), (new, fp), "{config}");
                assert_eq!(inserted.token == fp, !config.is_exact(), "{config}");
                // The typed call is the byte-level one after one encode.
                assert_eq!(by_bytes.insert_bytes(&encoded), inserted, "{config}");
                assert!(by_bytes.contains_bytes(&encoded), "{config}");
            }
            assert_eq!(by_value.len(), by_ref.len(), "{config}");
            assert_eq!(by_value.stats().hits, by_ref.stats().hits, "{config}");
            assert_eq!(by_value.stats().misses, by_ref.stats().misses, "{config}");
        }
    }

    #[test]
    fn config_labels_and_parallel_upgrade() {
        assert_eq!(StoreConfig::Exact.to_string(), "exact");
        assert_eq!(
            StoreConfig::sharded().to_string(),
            format!("sharded({DEFAULT_SHARDS})")
        );
        assert_eq!(
            StoreConfig::fingerprint(32).to_string(),
            "fingerprint(32-bit)"
        );
        // A width the store cannot keep is clamped, so the label (and the
        // checkpoint identity) names the width actually kept.
        assert_eq!(
            StoreConfig::fingerprint(200).to_string(),
            "fingerprint(64-bit)"
        );
        // The parallel engine silently upgrades single-lock stores.
        assert_eq!(StoreConfig::Exact.for_parallel(), StoreConfig::sharded());
        assert_eq!(
            StoreConfig::fingerprint(40).for_parallel(),
            layout(40, DEFAULT_SHARDS, usize::MAX)
        );
        let striped = layout(40, 8, usize::MAX);
        assert_eq!(striped.for_parallel(), striped);
        assert!(StoreConfig::Exact.is_exact());
        assert!(!StoreConfig::fingerprint(32).is_exact());
        // A spilling store: probabilistic, labelled by its watermark (the
        // total over all stripes, so the parallel upgrade keeps the label),
        // and by its width only below 64 bits.
        assert_eq!(
            StoreConfig::runs_with_watermark(512).to_string(),
            "runs(512)"
        );
        let parallel = StoreConfig::runs_with_watermark(512).for_parallel();
        assert_eq!(parallel, layout(64, DEFAULT_SHARDS, 512));
        assert_eq!(parallel.to_string(), "runs(512)");
        assert_eq!(parallel.build::<u64>().name(), "runs");
        assert_eq!(layout(16, 1, 512).to_string(), "runs(512, 16-bit)");
        assert!(!StoreConfig::runs().is_exact());
    }
}
