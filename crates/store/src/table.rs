//! The exact backend: an open-addressing table over encoded key bytes.
//!
//! A key is stored as the bytes `mp_model::Encode` produces for it —
//! appended once to a chunked arena — and found again through a slot array
//! of `(tag, offset)` words probed linearly from the fingerprint's low
//! bits. Equality is `memcmp` on the encodings, which is sound because the
//! codec is injective on `Eq` classes (`a == b ⇔ encode(a) == encode(b)`;
//! `tests/store_backends.rs` checks it on every protocol's reachable keys).
//! [`StoreConfig::Exact`](crate::StoreConfig) is this table with one shard,
//! [`StoreConfig::Sharded`](crate::StoreConfig) with N shards picked by the
//! fingerprint's top bits; hashing happens before a shard's lock is taken.

use std::marker::PhantomData;
use std::sync::Mutex;

use mp_model::{read_varint, write_varint, Encode};

use crate::backend::{Inserted, StateStoreBackend, StoreStats};
use crate::hash::hash_bytes;

/// Arena chunks fill up to this many bytes, so growing the arena never
/// copies (or briefly doubles) more than one chunk.
const CHUNK_BITS: u32 = 20;
const CHUNK_BYTES: usize = 1 << CHUNK_BITS;
/// Low slot bits: the entry's arena offset plus one (zero = empty slot).
/// 48 bits cover any address space, so the arena has no size cliff.
const OFFSET_BITS: u32 = 48;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;
/// Slots of a shard's first table; it doubles from here.
const INITIAL_SLOTS: usize = 64;

/// The slot tag: 16 fingerprint bits that neither the shard pick (top bits)
/// nor the slot index (low bits) of any realistic table uses.
fn tag_of(fp: u64) -> u64 {
    (fp >> 32) << OFFSET_BITS
}

/// One lock's worth of the table.
#[derive(Debug, Default)]
struct Shard {
    /// `tag << 48 | (offset + 1)`, or 0 when empty. Power-of-two length.
    slots: Vec<u64>,
    /// `varint(len) bytes` records; an offset is `chunk << CHUNK_BITS | at`.
    chunks: Vec<Vec<u8>>,
    entries: usize,
    hits: usize,
    misses: usize,
}

impl Shard {
    fn entry(&self, offset: u64) -> &[u8] {
        let chunk = &self.chunks[(offset >> CHUNK_BITS) as usize];
        let mut rest = &chunk[offset as usize & (CHUNK_BYTES - 1)..];
        let len = read_varint(&mut rest).expect("arena record length") as usize;
        &rest[..len]
    }

    /// The slot holding `bytes`, or the empty slot where it belongs.
    fn probe(&self, fp: u64, bytes: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let tag = tag_of(fp);
        let mut at = fp as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if slot & !OFFSET_MASK == tag && self.entry((slot & OFFSET_MASK) - 1) == bytes {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    fn contains(&mut self, fp: u64, bytes: &[u8]) -> bool {
        let present = !self.slots.is_empty() && self.probe(fp, bytes).is_ok();
        self.record(present);
        present
    }

    /// Returns whether `bytes` was new, and the slot that holds it now.
    fn insert(&mut self, fp: u64, bytes: &[u8], hash: fn(&[u8]) -> u64) -> (bool, usize) {
        // Grow at 3/4 load, before probing, so the probe's empty slot stays
        // valid for the insert.
        if (self.entries + 1) * 4 > self.slots.len() * 3 {
            self.grow(hash);
        }
        let (new, at) = match self.probe(fp, bytes) {
            Ok(at) => (false, at),
            Err(at) => {
                let offset = self.append(bytes);
                self.slots[at] = tag_of(fp) | (offset + 1);
                self.entries += 1;
                (true, at)
            }
        };
        self.record(!new);
        (new, at)
    }

    fn record(&mut self, present: bool) {
        if present {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Appends one record; records never straddle chunks, and one larger
    /// than a chunk gets a chunk of its own.
    fn append(&mut self, bytes: &[u8]) -> u64 {
        let fits =
            |chunk: &Vec<u8>| chunk.is_empty() || chunk.len() + bytes.len() + 10 <= CHUNK_BYTES;
        if !self.chunks.last().is_some_and(fits) {
            self.chunks.push(Vec::new());
        }
        let index = self.chunks.len() - 1;
        let chunk = &mut self.chunks[index];
        let offset = (index as u64) << CHUNK_BITS | chunk.len() as u64;
        assert!(offset < OFFSET_MASK, "visited-set arena exceeds 2^48 bytes");
        write_varint(bytes.len() as u64, chunk);
        chunk.extend_from_slice(bytes);
        offset
    }

    /// Doubles the slot array, re-deriving every entry's fingerprint from
    /// its arena record (slots keep only 16 tag bits — 8 bytes per state
    /// saved for two extra hashes per state over the table's lifetime).
    fn grow(&mut self, hash: fn(&[u8]) -> u64) {
        let slots = (self.slots.len() * 2).max(INITIAL_SLOTS);
        let mask = slots - 1;
        let mut table = vec![0u64; slots];
        for (index, chunk) in self.chunks.iter().enumerate() {
            let mut rest = chunk.as_slice();
            while !rest.is_empty() {
                let offset = (index as u64) << CHUNK_BITS | (chunk.len() - rest.len()) as u64;
                let len = read_varint(&mut rest).expect("arena record length") as usize;
                let (bytes, tail) = rest.split_at(len);
                rest = tail;
                let fp = hash(bytes);
                let mut at = fp as usize & mask;
                while table[at] != 0 {
                    at = (at + 1) & mask;
                }
                table[at] = tag_of(fp) | (offset + 1);
            }
        }
        self.slots = table;
    }

    /// Heap bytes held: the slot array, the chunk list and every chunk's
    /// capacity — what the allocator was asked for, not just what is used.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u64>()
            + self.chunks.capacity() * size_of::<Vec<u8>>()
            + self.chunks.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// The exact visited-state set (see the module docs): full keys, stored as
/// their encoded bytes, no omissions possible. One shard behind one
/// (uncontended) lock serves the sequential engines; with N shards,
/// concurrent inserters only contend when their fingerprints share the top
/// `log2 N` bits, which is what lets the parallel BFS engine insert without
/// a global lock on the visited set.
#[derive(Debug)]
pub struct ByteStore<K> {
    shards: Vec<Mutex<Shard>>,
    shard_bits: u32,
    name: &'static str,
    hash: fn(&[u8]) -> u64,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: Encode> ByteStore<K> {
    /// The single-shard table, reported as `"exact"`.
    pub(crate) fn exact() -> Self {
        Self::with_hash(1, "exact", hash_bytes)
    }

    /// A table striped across `shards` locks (rounded up to a power of two,
    /// between 1 and 2¹⁶), reported as `"sharded"`.
    pub fn sharded(shards: usize) -> Self {
        Self::with_hash(shards, "sharded", hash_bytes)
    }

    /// `hash` is a parameter only so tests can force every key onto one
    /// slot and tag.
    fn with_hash(shards: usize, name: &'static str, hash: fn(&[u8]) -> u64) -> Self {
        // 16 shard bits beside a 48-bit arena offset make a 64-bit token.
        let shards = shards.clamp(1, 1 << (64 - OFFSET_BITS)).next_power_of_two();
        ByteStore {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            shard_bits: shards.trailing_zeros(),
            name,
            hash,
            _key: PhantomData,
        }
    }

    /// Hashes `bytes`, then runs `f` under the lock of the shard the
    /// fingerprint's top bits select, passing that shard's index.
    fn with_shard<R>(&self, bytes: &[u8], f: impl FnOnce(&mut Shard, usize, u64) -> R) -> R {
        let fp = (self.hash)(bytes);
        let index = match self.shard_bits {
            0 => 0,
            bits => (fp >> (64 - bits)) as usize,
        };
        let mut shard = self.shards[index].lock().expect("shard poisoned");
        f(&mut shard, index, fp)
    }
}

impl<K: Encode> StateStoreBackend<K> for ByteStore<K> {
    fn insert_bytes(&self, bytes: &[u8]) -> Inserted {
        self.with_shard(bytes, |shard, index, fp| {
            let (new, slot) = shard.insert(fp, bytes, self.hash);
            // A record never moves, and no two share an offset of one shard.
            let offset = (shard.slots[slot] & OFFSET_MASK) - 1;
            let token = (index as u64) << OFFSET_BITS | offset;
            Inserted { new, fp, token }
        })
    }

    fn contains_bytes(&self, bytes: &[u8]) -> bool {
        self.with_shard(bytes, |shard, _, fp| shard.contains(fp, bytes))
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("shard poisoned").entries)
            .sum()
    }

    fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            stats.entries += shard.entries;
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.approx_bytes += shard.heap_bytes();
        }
        stats
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_is_a_power_of_two() {
        assert_eq!(ByteStore::<u64>::exact().shards.len(), 1);
        assert_eq!(ByteStore::<u64>::sharded(0).shards.len(), 1);
        assert_eq!(ByteStore::<u64>::sharded(3).shards.len(), 4);
        assert_eq!(ByteStore::<u64>::sharded(64).shards.len(), 64);
    }

    #[test]
    fn colliding_keys_are_all_stored_and_found_across_resizes() {
        // A constant hash puts every key on one shard, one home slot and
        // one tag: only the byte comparison tells them apart, and every
        // resize re-threads one long probe chain.
        let store = ByteStore::<(u64, String)>::with_hash(4, "sharded", |_| 0);
        let keys: Vec<(u64, String)> = (0..500).map(|i| (i % 7, format!("key-{i}"))).collect();
        let mut tokens = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let first = store.insert_hashed(key);
            assert!(first.new && first.fp == 0, "{key:?} is new");
            assert!(
                !tokens.contains(&first.token),
                "{key:?} has a token of its own"
            );
            tokens.push(first.token);
            assert!(!store.insert_ref(key), "{key:?} is now a hit");
            assert!(keys[..=i].iter().all(|k| store.contains(k)));
            assert!(keys[i + 1..].iter().take(3).all(|k| !store.contains(k)));
        }
        assert_eq!(store.len(), keys.len());
        let slots = store.shards[0].lock().unwrap().slots.len();
        assert!(slots >= 8 * INITIAL_SLOTS, "{slots} slots: several resizes");
        // Asking again, after every resize, returns each key's first token.
        let again = keys.iter().map(|key| store.insert_hashed(key));
        assert!(again
            .zip(&tokens)
            .all(|(hit, first)| !hit.new && hit.token == *first));
    }

    #[test]
    fn tokens_tell_shards_apart() {
        // Every shard's first record sits at arena offset 0.
        let store = ByteStore::<u64>::sharded(16);
        let mut tokens: Vec<u64> = (0..200).map(|k| store.insert_hashed(&k).token).collect();
        let firsts = tokens.iter().filter(|t| *t & OFFSET_MASK == 0).count();
        assert!(firsts > 1, "{firsts} shards used");
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), 200);
        assert_eq!(
            ByteStore::<u64>::sharded(usize::MAX >> 1).shards.len(),
            1 << 16
        );
    }

    #[test]
    fn keys_spread_across_shards_and_chunks() {
        let store = ByteStore::<(u64, Vec<u8>)>::sharded(16);
        for k in 0u64..20_000 {
            assert!(store.insert((k, vec![k as u8; 100])));
        }
        assert_eq!(store.len(), 20_000);
        let sizes: Vec<usize> = store
            .shards
            .iter()
            .map(|s| s.lock().unwrap().entries)
            .collect();
        let mean = 20_000 / 16;
        assert!(
            sizes
                .iter()
                .all(|n| (mean * 8 / 10..mean * 12 / 10).contains(n)),
            "top fingerprint bits must spread keys evenly: {sizes:?}"
        );
        // ~2 MB of records: every shard's arena stays one growing chunk,
        // a single-shard table of the same keys rolls over into several.
        let exact = ByteStore::<(u64, Vec<u8>)>::exact();
        for k in 0u64..20_000 {
            exact.insert((k, vec![k as u8; 100]));
        }
        assert!(exact.shards[0].lock().unwrap().chunks.len() >= 2);
        assert!((0u64..20_000).all(|k| exact.contains(&(k, vec![k as u8; 100]))));
    }

    #[test]
    fn oversized_records_get_their_own_chunk() {
        let store = ByteStore::<Vec<u8>>::exact();
        let big = vec![7u8; CHUNK_BYTES + 5];
        assert!(store.insert(vec![1]));
        assert!(store.insert_ref(&big));
        assert!(store.insert(vec![2]));
        assert!(!store.insert_ref(&big));
        assert!(store.contains(&vec![1]) && store.contains(&vec![2]));
        assert_eq!(store.shards[0].lock().unwrap().chunks.len(), 3);
    }

    #[test]
    fn reported_bytes_cover_the_stored_encodings() {
        let store = ByteStore::<Vec<u64>>::sharded(4);
        assert_eq!(store.stats().approx_bytes, 0, "nothing is pre-allocated");
        let mut encoded = 0;
        for k in 0u64..5_000 {
            let key = vec![k; 16];
            encoded += mp_model::encode_to_vec(&key).len();
            store.insert(key);
        }
        let reported = store.stats().approx_bytes;
        assert!(reported >= encoded + 5_000 * 8, "{reported} < {encoded}");
        assert!(reported < 4 * encoded, "{reported} vs {encoded} encoded");
    }
}
