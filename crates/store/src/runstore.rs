//! The probabilistic visited set: the low w bits of each key's fingerprint
//! ([`crate::hash_bytes`] of its encoding), in RAM up to a watermark and in
//! sorted runs on disk past it. Two keys that agree on the kept bits are
//! conflated — `Verified` verdicts become probabilistic (see the crate docs
//! for the soundness contract), while counterexamples stay exact.
//!
//! The store is split into **shards**, each behind its own lock and picked
//! by the kept fingerprint's top bits, so equal fingerprints always meet in
//! one shard. Each shard holds:
//!
//! * recent fingerprints in an in-memory **buffer**, an open-addressing
//!   table of 8-byte slots, two per entry at a power-of-two watermark;
//! * when the buffer reaches the shard's **watermark**, one more **sorted
//!   run** of delta-encoded fingerprints in a temporary file (see
//!   `docs/ON_DISK_FORMATS.md` in the repository for the byte layout);
//! * a **bloom filter** over everything it spilled, allocated at its first
//!   flush: a bloom miss proves the fingerprint was never spilled, so a
//!   genuinely new state touches no disk; a *maybe* binary-searches each
//!   run's in-memory block index, newest run first, reading back at most
//!   one block per run and decoding it up to the first fingerprint ≥ the
//!   key.
//!
//! An unbounded watermark (`usize::MAX`) never flushes and never allocates
//! a bloom filter: in-RAM hash compaction. Past the watermark a lookup
//! costs O(runs) block reads at worst, so the engines call
//! [`StateStoreBackend::maintain`] at BFS level boundaries, which merges
//! each shard's runs into one.
//!
//! ```
//! use mp_store::{RunStore, StateStoreBackend};
//!
//! // 64-bit fingerprints, one shard, a tiny watermark that forces several
//! // sorted runs onto disk.
//! let store: RunStore<u64> = RunStore::new(64, 1, 128);
//! for k in 0..1000u64 {
//!     assert!(store.insert(k), "every key is new");
//! }
//! for k in 0..1000u64 {
//!     assert!(store.contains(&k), "spilled keys stay visible");
//! }
//! store.maintain(); // merge the runs (the engines do this per BFS level)
//! let stats = store.stats();
//! assert_eq!(stats.entries, 1000);
//! assert!(stats.spilled_bytes > 0, "runs went to disk");
//! assert!(stats.merge_bytes > 0, "maintain rewrote them as one run");
//! ```

use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard};

use mp_model::{read_varint, write_varint, Encode};

use crate::backend::{birthday_bound, Inserted, StateStoreBackend, StoreStats};
use crate::files::SpillFile;
use crate::fptable::FpTable;
use crate::hash::{hash_bytes, K0};

/// Default run-flush watermark: fingerprints buffered in RAM before a
/// sorted run is written out (a table of 2 Mi slots, 16 MiB of buffer).
pub(crate) const DEFAULT_RUN_WATERMARK: usize = 1 << 20;

/// Fingerprints per encoded block of a sorted run. One block is the unit
/// of disk read on a lookup and the granularity of the in-memory block
/// index.
const BLOCK_ENTRIES: usize = 256;

/// One block of a sorted run: `count` fingerprints starting at `first_fp`,
/// stored as `varint(count) varint(first_fp) varint(gap)*` at
/// `offset..offset+len` in the run file.
#[derive(Clone, Copy, Debug)]
struct Block {
    first_fp: u64,
    offset: u64,
    len: usize,
    count: usize,
}

/// One sorted run on disk plus its in-memory block index.
#[derive(Debug)]
struct Run {
    file: SpillFile,
    index: Vec<Block>,
    entries: usize,
    /// The buffer every probe of this run reads its block into.
    raw: Vec<u8>,
}

impl Run {
    /// The run's fingerprints in order, one block resident at a time — the
    /// merge-side cursor.
    fn into_fps(self) -> impl Iterator<Item = u64> {
        let Run {
            mut file, index, ..
        } = self;
        index.into_iter().flat_map(move |block| {
            let mut raw = vec![0u8; block.len];
            file.read_at(block.offset, &mut raw);
            decode_block(&raw, block.count).collect::<Vec<_>>()
        })
    }

    /// Reads back at most one block, decoding it only up to `fp`.
    fn contains(&mut self, fp: u64) -> bool {
        // Last block whose first fingerprint is <= fp.
        let at = self.index.partition_point(|b| b.first_fp <= fp);
        if at == 0 {
            return false;
        }
        let block = self.index[at - 1];
        #[cfg(test)]
        tests::BLOCK_READS.with(|reads| reads.set(reads.get() + 1));
        self.raw.resize(block.len, 0);
        self.file.read_at(block.offset, &mut self.raw);
        decode_block(&self.raw, block.count).find(|&stored| stored >= fp) == Some(fp)
    }
}

/// The ascending fingerprints of one encoded block, decoded lazily.
fn decode_block(raw: &[u8], expected: usize) -> impl Iterator<Item = u64> + '_ {
    let mut input = raw;
    let mut next =
        move || read_varint(&mut input).unwrap_or_else(|e| panic!("corrupted run block: {e}"));
    let count = next() as usize;
    assert_eq!(count, expected, "run block count disagrees with the index");
    let mut fp = 0u64; // the first entry is absolute: a gap from zero
    (0..count).map(move |_| {
        fp += next();
        fp
    })
}

/// Streams sorted fingerprints into a new run file, block by block, so a
/// merge never holds more than one output block in memory.
struct RunWriter {
    file: SpillFile,
    index: Vec<Block>,
    entries: usize,
    bytes: usize,
    block: Vec<u64>,
    scratch: Vec<u8>,
}

impl RunWriter {
    fn new() -> Self {
        RunWriter {
            file: SpillFile::create("mp-runstore"),
            index: Vec::new(),
            entries: 0,
            bytes: 0,
            block: Vec::with_capacity(BLOCK_ENTRIES),
            scratch: Vec::new(),
        }
    }

    fn push(&mut self, fp: u64) {
        self.block.push(fp);
        if self.block.len() == BLOCK_ENTRIES {
            self.flush_block();
        }
    }

    fn flush_block(&mut self) {
        if self.block.is_empty() {
            return;
        }
        self.scratch.clear();
        write_varint(self.block.len() as u64, &mut self.scratch);
        let mut prev = 0u64;
        for (i, fp) in self.block.iter().enumerate() {
            let delta = if i == 0 { *fp } else { fp - prev };
            write_varint(delta, &mut self.scratch);
            prev = *fp;
        }
        self.file.write_at(self.bytes as u64, &self.scratch);
        self.index.push(Block {
            first_fp: self.block[0],
            offset: self.bytes as u64,
            len: self.scratch.len(),
            count: self.block.len(),
        });
        self.entries += self.block.len();
        self.bytes += self.scratch.len();
        self.block.clear();
    }

    fn finish(mut self) -> (Run, usize) {
        self.flush_block();
        let bytes = self.bytes;
        (
            Run {
                file: self.file,
                index: self.index,
                entries: self.entries,
                raw: Vec::new(),
            },
            bytes,
        )
    }
}

/// One lock's worth of the store: its buffer, bloom front and runs.
#[derive(Debug, Default)]
struct Shard {
    /// Fingerprints not yet spilled, drained sorted at the next run flush.
    buffer: FpTable,
    /// Bit array over everything spilled; a clear probe proves absence.
    /// Empty until the first flush.
    bloom: Box<[u64]>,
    bloom_mask: u64,
    runs: Vec<Run>,
    spilled_bytes: usize,
    merge_bytes: usize,
    hits: usize,
    misses: usize,
}

impl Shard {
    fn bloom_slots(&self, fp: u64) -> [usize; 2] {
        let h1 = fp & self.bloom_mask;
        let h2 = fp.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(32) & self.bloom_mask;
        [h1 as usize, h2 as usize]
    }

    fn bloom_set(&mut self, fp: u64) {
        for slot in self.bloom_slots(fp) {
            self.bloom[slot >> 6] |= 1u64 << (slot & 63);
        }
    }

    fn bloom_maybe(&self, fp: u64) -> bool {
        self.bloom_slots(fp)
            .iter()
            .all(|slot| self.bloom[slot >> 6] & (1u64 << (slot & 63)) != 0)
    }

    fn len(&self) -> usize {
        self.buffer.len() + self.runs.iter().map(|r| r.entries).sum::<usize>()
    }

    /// Probes the buffer, then (past the bloom) the runs newest first: a
    /// revisit is most often of a recent state.
    fn present(&mut self, fp: u64) -> bool {
        self.buffer.contains(fp)
            || (!self.runs.is_empty()
                && self.bloom_maybe(fp)
                && self.runs.iter_mut().rev().any(|run| run.contains(fp)))
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    fn contains(&mut self, fp: u64) -> bool {
        let present = self.present(fp);
        self.count(present);
        present
    }

    /// Adds `fp`, flushing a run when the buffer reaches `watermark`;
    /// returns whether it was new.
    fn insert(&mut self, fp: u64, watermark: usize) -> bool {
        // Before the first flush the buffer is the whole set: one probe.
        let new = (self.runs.is_empty() || !self.present(fp)) && self.buffer.insert(fp);
        if new && self.buffer.len() >= watermark {
            self.flush_run(watermark);
        }
        self.count(!new);
        new
    }

    /// Drains the buffer, sorted, into one new run and the bloom filter.
    fn flush_run(&mut self, watermark: usize) {
        if self.bloom.is_empty() {
            // 64 bits per watermark entry, rounded up to a power of two;
            // the buffer just held `watermark` entries, so this fits too.
            let bits = watermark
                .saturating_mul(64)
                .max(1 << 12)
                .next_power_of_two();
            self.bloom = vec![0u64; bits / 64].into_boxed_slice();
            self.bloom_mask = (bits - 1) as u64;
        }
        let mut writer = RunWriter::new();
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.drain_sorted(|fp| {
            self.bloom_set(fp);
            writer.push(fp);
        });
        self.buffer = buffer; // empty, its slot array kept for the next fill
        let (run, bytes) = writer.finish();
        self.spilled_bytes += bytes;
        self.runs.push(run);
    }

    fn merge_runs(&mut self) {
        if self.runs.len() <= 1 {
            return;
        }
        let mut cursors: Vec<_> = std::mem::take(&mut self.runs)
            .into_iter()
            .map(|run| run.into_fps().peekable())
            .collect();
        let mut writer = RunWriter::new();
        loop {
            // Fingerprints are globally unique across runs, so a plain
            // min-scan merge needs no tie-breaking. Run counts are small
            // (one per watermark flush since the last boundary), so the
            // O(runs)-per-entry scan beats heap bookkeeping.
            let mut best: Option<(u64, usize)> = None;
            for (i, cursor) in cursors.iter_mut().enumerate() {
                if let Some(&fp) = cursor.peek() {
                    if best.is_none_or(|(b, _)| fp < b) {
                        best = Some((fp, i));
                    }
                }
            }
            match best {
                Some((fp, i)) => {
                    cursors[i].next();
                    writer.push(fp);
                }
                None => break,
            }
        }
        let (run, bytes) = writer.finish();
        self.merge_bytes += bytes;
        self.runs.push(run);
    }

    /// Resident bytes: the bloom bit array, the buffer's slot array and
    /// each run's block index and probe buffer — not the runs on disk.
    fn resident_bytes(&self) -> usize {
        self.bloom.len() * 8
            + self.buffer.heap_bytes()
            + self
                .runs
                .iter()
                .map(|r| r.index.len() * std::mem::size_of::<Block>() + r.raw.capacity())
                .sum::<usize>()
    }
}

/// The probabilistic visited set. See the module docs for the layout and
/// [`crate::StoreConfig::Fingerprint`] for selecting it from a run
/// configuration.
#[derive(Debug)]
pub struct RunStore<K> {
    shards: Box<[Mutex<Shard>]>,
    shard_bits: u32,
    /// The low `bits` bits: the kept part of a fingerprint.
    mask: u64,
    bits: u32,
    /// Buffered fingerprints per shard before a run is flushed.
    watermark: usize,
    _key: PhantomData<fn(K) -> K>,
}

impl<K: Encode> RunStore<K> {
    /// Creates a store keeping `bits`-bit fingerprints (clamped to
    /// `8..=64`) across `shards` locks (rounded up to a power of two) that
    /// flushes sorted runs past `watermark_entries` buffered fingerprints
    /// in total (at least one per shard; `usize::MAX` never flushes).
    pub fn new(bits: u32, shards: usize, watermark_entries: usize) -> Self {
        let bits = bits.clamp(8, 64);
        let shards = shards.max(1).next_power_of_two();
        RunStore {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            shard_bits: shards.trailing_zeros(),
            mask: u64::MAX >> (64 - bits),
            bits,
            watermark: match watermark_entries {
                usize::MAX => usize::MAX,
                total => (total / shards).max(1),
            },
            _key: PhantomData,
        }
    }

    /// The kept fingerprint of a full one, locked in its shard. The shard
    /// is picked by Fibonacci mixing of the kept bits, so membership — and
    /// the omission probability — depends on them alone.
    fn shard(&self, full: u64) -> (u64, MutexGuard<'_, Shard>) {
        let fp = full & self.mask;
        let index = fp.wrapping_mul(K0).checked_shr(64 - self.shard_bits);
        (fp, lock(&self.shards[index.unwrap_or(0) as usize]))
    }
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().expect("run store shard poisoned")
}

impl<K: Encode> StateStoreBackend<K> for RunStore<K> {
    fn insert_bytes(&self, bytes: &[u8]) -> Inserted {
        let full = hash_bytes(bytes);
        let (fp, mut shard) = self.shard(full);
        Inserted {
            new: shard.insert(fp, self.watermark),
            fp: full,
            token: full,
        }
    }

    fn contains_bytes(&self, bytes: &[u8]) -> bool {
        let (fp, mut shard) = self.shard(hash_bytes(bytes));
        shard.contains(fp)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for shard in self.shards.iter() {
            let shard = lock(shard);
            stats.entries += shard.len();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.approx_bytes += shard.resident_bytes();
            stats.spilled_bytes += shard.spilled_bytes;
            stats.merge_bytes += shard.merge_bytes;
        }
        stats.omission_probability = birthday_bound(stats.entries, self.bits);
        stats
    }

    fn name(&self) -> &'static str {
        match self.watermark {
            usize::MAX => "fingerprint",
            _ => "runs",
        }
    }

    fn maintain(&self) {
        for shard in self.shards.iter() {
            lock(shard).merge_runs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Blocks this thread has read back from run files.
        pub(super) static BLOCK_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Sorted runs on disk, over all shards.
    fn run_count(store: &RunStore<u64>) -> usize {
        store.shards.iter().map(|s| lock(s).runs.len()).sum()
    }

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

    #[test]
    fn spilled_and_buffered_keys_agree_with_exact_semantics() {
        let input = keys(5_000, 11);
        let store: RunStore<u64> = RunStore::new(64, 1, 256);
        for k in &input {
            assert!(store.insert(*k), "first insert of {k} is new");
        }
        for k in &input {
            assert!(!store.insert(*k), "re-insert of {k} is a hit");
            assert!(store.contains(k));
        }
        assert_eq!(store.len(), input.len());
        assert!(run_count(&store) > 1, "the tiny watermark must multi-run");
        let stats = store.stats();
        assert_eq!(stats.entries, input.len());
        assert_eq!(stats.hits, 2 * input.len());
        assert_eq!(stats.misses, input.len());
        assert!(stats.spilled_bytes > 0);
    }

    #[test]
    fn maintain_merges_runs_and_preserves_membership() {
        let input = keys(3_000, 23);
        let store: RunStore<u64> = RunStore::new(64, 1, 200);
        for k in &input {
            store.insert(*k);
        }
        let runs_before = run_count(&store);
        assert!(runs_before > 1);
        store.maintain();
        assert_eq!(run_count(&store), 1, "maintain leaves a single run");
        for k in &input {
            assert!(store.contains(k), "membership survives the merge");
        }
        assert_eq!(store.len(), input.len());
        let stats = store.stats();
        assert!(stats.merge_bytes > 0, "the merge was accounted");
        // A second maintain with one run is a no-op.
        store.maintain();
        assert_eq!(store.stats().merge_bytes, stats.merge_bytes);
    }

    #[test]
    fn absent_keys_stay_absent_through_spills_and_merges() {
        let present = keys(2_000, 5);
        let absent = keys(2_000, 6);
        let store: RunStore<u64> = RunStore::new(64, 1, 128);
        for k in &present {
            store.insert(*k);
        }
        store.maintain();
        let absent: Vec<u64> = absent
            .into_iter()
            .filter(|k| !present.contains(k))
            .collect();
        for k in &absent {
            assert!(!store.contains(k), "{k} was never inserted");
        }
    }

    #[test]
    fn resident_bytes_stay_bounded_while_spill_grows() {
        let store: RunStore<u64> = RunStore::new(64, 1, 512);
        for k in keys(50_000, 77) {
            store.insert(k);
            store.maintain();
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 50_000);
        assert!(
            stats.approx_bytes < stats.spilled_bytes,
            "resident ({}) must undercut cumulative spill ({})",
            stats.approx_bytes,
            stats.spilled_bytes
        );
        // The dominant resident cost is the fixed bloom front, not a
        // per-entry table: 50k entries at 8B each would be 400kB; the
        // bloom for a 512-entry watermark is 32k bits = 4kB plus indices.
        assert!(stats.approx_bytes < 50_000 * 8);
    }

    #[test]
    fn blocks_round_trip_through_the_delta_encoding() {
        let mut writer = RunWriter::new();
        let fps: Vec<u64> = (0..1000u64).map(|i| i * i * 7919).collect();
        for fp in &fps {
            writer.push(*fp);
        }
        let (mut run, bytes) = writer.finish();
        assert!(bytes > 0);
        assert_eq!(run.entries, fps.len());
        // The early-stopping probe finds every member and no key between
        // two members.
        for fp in &fps {
            assert!(run.contains(*fp));
            assert!(!run.contains(fp + 1));
        }
        assert!(!run.contains(3));
        assert!(!run.contains(u64::MAX));
        assert_eq!(run.into_fps().collect::<Vec<_>>(), fps);
    }

    #[test]
    fn random_interleavings_agree_with_a_fingerprint_set() {
        use std::collections::BTreeSet;
        for watermark in [1, 7, 64] {
            let store: RunStore<u64> = RunStore::new(64, 1, watermark);
            let mut reference = BTreeSet::new();
            // A small key domain, so inserts and queries revisit keys in
            // the buffer, in unmerged runs and in merged ones.
            let draws = keys(6_000, watermark as u64);
            for (i, draw) in draws.iter().enumerate() {
                let key = (draw >> 8) % 1_500;
                let fp = hash_bytes(&mp_model::encode_to_vec(&key));
                match draw % 16 {
                    0 => store.maintain(),
                    1..=6 => assert_eq!(
                        store.contains(&key),
                        reference.contains(&fp),
                        "watermark {watermark}, step {i}: contains({key})"
                    ),
                    _ => assert_eq!(
                        store.insert(key),
                        reference.insert(fp),
                        "watermark {watermark}, step {i}: insert({key})"
                    ),
                }
                assert_eq!(store.len(), reference.len(), "watermark {watermark}");
            }
            assert!(store.stats().merge_bytes > 0, "watermark {watermark}");
        }
    }

    #[test]
    fn a_key_of_the_newest_run_costs_one_block_read() {
        let store: RunStore<u64> = RunStore::new(64, 1, 64);
        let input = keys(3 * 64, 31);
        for k in &input {
            store.insert(*k);
        }
        assert_eq!(run_count(&store), 3, "three flushes, nothing buffered");
        let reads = || BLOCK_READS.with(|reads| reads.get());
        for k in &input[2 * 64..] {
            let before = reads();
            assert!(store.contains(k));
            assert_eq!(reads() - before, 1, "{k} is found in the first run probed");
        }
    }
}
