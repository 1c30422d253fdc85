//! The BFS frontier: two level queues of framed byte records, one file per
//! level.
//!
//! Breadth-first search keeps two levels alive at once — the level being
//! expanded and the level being generated — and on fault-augmented models
//! those levels grow with the state space (the crash1+drop1 sweep cells are
//! ~20x the seed models). [`Frontier`] holds each level as byte records,
//! `record := varint(len) payload`, appended to an in-memory tail. Whenever
//! the tail reaches the configured **watermark** it is appended to the
//! level's file, `level_<k>.front` in the run directory, and the level is
//! read back front to back — file, then tail — when it is dequeued, so
//! memory held per level is bounded by the watermark. The run directory is
//! a scratch directory under [`std::env::temp_dir`] (a consumed level's
//! file is deleted when the next level is promoted), or the checkpoint
//! directory, where every level is sealed and kept as the checkpoint's data
//! ([`Frontier::keep_levels_in`], `crate::checkpoint`).
//! [`FrontierConfig::Mem`] is the same queue with an unbounded watermark.
//!
//! The payload is the caller's. The BFS engines of `mp-checker` push the
//! bytes their worker already encoded for the visited store, so a state is
//! encoded once; typed callers push and pop items through an [`ItemCodec`]
//! ([`FrontierBackend`]). Order is strictly FIFO whatever the watermark, so
//! an engine explores states in the identical order with spilling on or
//! off — byte-identical verdicts and state counts.
//!
//! Symmetry interaction is the engines' job: with orbit reduction active
//! they enqueue the *canonical representative* plus the permutation index δ
//! that produced it, and re-derive the concrete state on dequeue by
//! applying δ⁻¹ — so frontier bytes shrink with the orbit collapse while
//! exploration and counterexamples stay concrete (see `mp-checker`'s BFS
//! engines).

use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;

use mp_model::{read_varint, write_varint, Decode, DecodeError, Encode, Fnv64};
use mp_trace::{Phase, TraceHandle};

use crate::checkpoint::{level_name, CheckpointError, FileMeta, Manifest};
use crate::files::{RunDir, SpillFile};

/// Default in-memory watermark of the disk frontier: bytes of a level's
/// records buffered before they are spilled, and the size of a read-back
/// chunk.
pub(crate) const DEFAULT_FRONTIER_WATERMARK: usize = 32 << 20;

/// Where the BFS frontier may keep its records.
///
/// Carried by `CheckerConfig` in `mp-checker` next to [`StoreConfig`]
/// (visited set and frontier are the two memory-critical structures of a
/// stateful breadth-first run); `Copy` so configurations stay cheap to pass
/// around. Both variants build the one [`Frontier`]; they differ only in its
/// watermark.
///
/// [`StoreConfig`]: crate::StoreConfig
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierConfig {
    /// Keep every record in memory (the default): an unbounded watermark.
    #[default]
    Mem,
    /// Spill records to disk past a watermark.
    Disk {
        /// Bytes of records buffered in memory per level before they are
        /// appended to the level's file.
        watermark_bytes: usize,
    },
}

impl FrontierConfig {
    /// The disk-backed frontier with the default watermark.
    pub fn disk() -> Self {
        Self::disk_with_watermark(DEFAULT_FRONTIER_WATERMARK)
    }

    /// The disk-backed frontier with an explicit watermark (tiny watermarks
    /// force many spills per level, which is how the tests exercise the
    /// file path on small models).
    pub fn disk_with_watermark(watermark_bytes: usize) -> Self {
        FrontierConfig::Disk {
            watermark_bytes: watermark_bytes.max(1),
        }
    }

    /// Returns `true` if this configuration spills to disk (the engines
    /// append `+spill` to their strategy labels when it does).
    pub fn spills(&self) -> bool {
        matches!(self, FrontierConfig::Disk { .. })
    }

    /// Bytes buffered per level before they are spilled: `usize::MAX`,
    /// never, for [`FrontierConfig::Mem`]. The BFS parent log spills past
    /// the same watermark.
    pub fn watermark(&self) -> usize {
        match *self {
            FrontierConfig::Mem => usize::MAX,
            FrontierConfig::Disk { watermark_bytes } => watermark_bytes,
        }
    }

    /// Builds the frontier, typed for items `T` encoded by `codec`.
    pub fn build<T, C>(&self, codec: C) -> Frontier<T, C> {
        Frontier::new(self.watermark(), codec)
    }
}

impl std::fmt::Display for FrontierConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontierConfig::Mem => write!(f, "mem"),
            FrontierConfig::Disk { watermark_bytes } => {
                write!(f, "disk({} KiB watermark)", watermark_bytes / 1024)
            }
        }
    }
}

/// Encodes and decodes one frontier item.
///
/// The frontier is generic over the codec instead of bounding `T` directly
/// because some items carry non-serializable *configuration* next to their
/// data — an observer holding a spec handle, say. Plain data uses
/// [`PlainCodec`].
pub trait ItemCodec<T> {
    /// Appends the encoding of `item` to `out`.
    fn encode_item(&self, item: &T, out: &mut Vec<u8>);

    /// Decodes one item from the front of `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    fn decode_item(&self, input: &mut &[u8]) -> Result<T, DecodeError>;
}

/// The [`ItemCodec`] of plain data: delegates to the item's own
/// [`Encode`]/[`Decode`] implementation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainCodec;

impl<T: Encode + Decode> ItemCodec<T> for PlainCodec {
    fn encode_item(&self, item: &T, out: &mut Vec<u8>) {
        item.encode(out);
    }

    fn decode_item(&self, input: &mut &[u8]) -> Result<T, DecodeError> {
        T::decode(input)
    }
}

/// A snapshot of a frontier's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Peak bytes of records held at once: both levels plus the records a
    /// caller popped and has not yet [released](Frontier::release) — exact
    /// framed bytes.
    pub peak_bytes: usize,
    /// Total bytes written to level files over the run: the spilled records
    /// (0 in memory) and, in a checkpoint, every sealed level's tail.
    pub spilled_bytes: usize,
    /// Number of times a level's tail was spilled at the watermark.
    pub segments: usize,
}

/// A two-level BFS frontier of typed items: [`push`](FrontierBackend::push)
/// enqueues into the *next* level, [`pop`](FrontierBackend::pop) dequeues
/// the *current* level in FIFO order, and
/// [`advance_level`](FrontierBackend::advance_level) promotes next to
/// current when the current level is exhausted.
pub trait FrontierBackend<T> {
    /// Encodes an item into the next level.
    fn push(&mut self, item: T);

    /// Decodes the next item of the current level (FIFO), or `None` when
    /// the level is exhausted.
    fn pop(&mut self) -> Option<T>;

    /// Promotes the next level to current and returns its item count.
    ///
    /// # Panics
    ///
    /// Panics if the current level has not been fully dequeued.
    fn advance_level(&mut self) -> usize;

    /// Snapshot of the counters.
    fn stats(&self) -> FrontierStats;
}

/// Bytes of the LEB128 varint of `n`.
fn varint_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// The payload of the record at the front of `bytes`, if it is whole.
fn frame(bytes: &[u8]) -> Option<Range<usize>> {
    let mut rest = bytes;
    let len = usize::try_from(read_varint(&mut rest).ok()?).ok()?;
    let start = bytes.len() - rest.len();
    (len <= rest.len()).then_some(start..start + len)
}

/// One level: the records spilled to its file, then the RAM tail of those
/// under the watermark. The next level appends to it; the current one
/// streams the file back in chunks (a record may straddle two), then the
/// tail.
#[derive(Debug, Default)]
pub(crate) struct Level {
    /// `level_<k>.front`, opened by the first spill (or by sealing).
    file: Option<SpillFile>,
    /// Bytes of records in the file ahead of `tail`, and how many are read.
    spilled: u64,
    read: u64,
    tail: Vec<u8>,
    /// Records and framed bytes queued.
    items: usize,
    bytes: usize,
    /// Bytes read back; those from `at` on are not yet stepped past.
    buf: Vec<u8>,
    at: usize,
    /// FNV-64 of the file bytes written or read, when a checkpoint asks.
    hash: Option<Fnv64>,
}

impl Level {
    /// Writes the tail after the spilled records, creating the file
    /// `level_<number>.front` in `dir` first, and returns its length.
    fn write_tail(&mut self, dir: &RunDir, number: usize) -> usize {
        let file = self
            .file
            .get_or_insert_with(|| dir.create(&level_name(number)));
        file.write_at(self.spilled, &self.tail);
        if let Some(hash) = &mut self.hash {
            hash.write(&self.tail);
        }
        self.tail.len()
    }

    /// Steps past the next record and returns where it lies in `buf`: its
    /// first byte and its payload; `None` at the end of the level. Fails if
    /// the level ends inside a record.
    fn next(
        &mut self,
        chunk: usize,
        trace: &TraceHandle,
    ) -> Result<Option<(usize, Range<usize>)>, String> {
        loop {
            if let Some(payload) = frame(&self.buf[self.at..]) {
                let start = self.at;
                self.at += payload.end;
                return Ok(Some((start, start + payload.start..self.at)));
            }
            if self.read < self.spilled {
                let _io = trace.span(Phase::SpillIo);
                self.buf.drain(..self.at);
                self.at = 0;
                let old = self.buf.len();
                let n = (self.spilled - self.read).min(chunk as u64) as usize;
                self.buf.resize(old + n, 0);
                let file = self.file.as_mut().expect("a spilled level has a file");
                file.read_at(self.read, &mut self.buf[old..]);
                if let Some(hash) = &mut self.hash {
                    hash.write(&self.buf[old..]);
                }
                self.read += n as u64;
            } else if self.at < self.buf.len() {
                let left = self.buf.len() - self.at;
                return Err(format!(
                    "the level ends inside a record ({left} bytes left)"
                ));
            } else if self.tail.is_empty() {
                return Ok(None);
            } else {
                self.buf = std::mem::take(&mut self.tail);
                self.at = 0;
            }
        }
    }
}

/// Streams the file of `level` that `manifest` records, checking its
/// length before anything is read and its item count and checksum after,
/// and hands every record's payload to `each`. Returns the level, unread.
pub(crate) fn scan_level(
    dir: &RunDir,
    manifest: &Manifest,
    level: usize,
    each: &mut dyn FnMut(&[u8]),
) -> Result<Level, CheckpointError> {
    let name = level_name(level);
    let corrupt = |msg: String| CheckpointError::Corrupt(format!("{name}: {msg}"));
    let meta = manifest
        .file(&name)
        .ok_or_else(|| corrupt("no record".into()))?;
    let file = dir.open(&name)?;
    meta.check_len(&file)?;
    let (spilled, items, bytes) = (meta.bytes, meta.items, meta.bytes as usize);
    let hash = Some(Fnv64::new());
    let mut scan = Level {
        file: Some(file),
        spilled,
        hash,
        ..Level::default()
    };
    let (mut found, trace) = (0, TraceHandle::disabled());
    while let Some((_, payload)) = scan
        .next(DEFAULT_FRONTIER_WATERMARK, &trace)
        .map_err(corrupt)?
    {
        each(&scan.buf[payload]);
        found += 1;
    }
    meta.check(found, scan.hash.map_or(0, |h| h.finish()))?;
    Ok(Level {
        file: scan.file,
        spilled,
        items,
        bytes,
        ..Level::default()
    })
}

/// The BFS frontier. See the module docs for the layout: the write path
/// appends framed records to the next level's tail, which is spilled to the
/// level's file when the next record would take it past the watermark; the
/// read path streams the file back and then the tail, so FIFO order is
/// preserved exactly.
///
/// `T` and `C` type the [`FrontierBackend`] interface; the record interface
/// ([`push_record`](Frontier::push_record),
/// [`pop_records`](Frontier::pop_records)) ignores them, and the default
/// `Frontier` is the record queue alone.
///
/// # Panics
///
/// I/O errors on the level files and malformed records panic: the files
/// are written by this process alone, so either indicates a broken
/// environment (disk full) or a codec bug, and the engines have no partial
/// verdict to salvage.
#[derive(Debug)]
pub struct Frontier<T = (), C = PlainCodec> {
    codec: C,
    watermark: usize,
    /// The level being written, its number (the levels promoted so far),
    /// and the level being read.
    next: Level,
    number: usize,
    cur: Level,
    /// Declared after the levels, so their files close before a scratch
    /// directory is removed.
    dir: RunDir,
    /// Bytes popped by `pop_records` and not yet released.
    lent: usize,
    /// The typed `push` encodes here before framing.
    scratch: Vec<u8>,
    stats: FrontierStats,
    trace: TraceHandle,
    _marker: PhantomData<fn() -> T>,
}

impl<T, C> Frontier<T, C> {
    fn new(watermark: usize, codec: C) -> Self {
        Frontier {
            codec,
            watermark: watermark.max(1),
            next: Level::default(),
            number: 0,
            cur: Level::default(),
            dir: RunDir::scratch(),
            lent: 0,
            scratch: Vec::new(),
            stats: FrontierStats::default(),
            trace: TraceHandle::disabled(),
            _marker: PhantomData,
        }
    }

    /// Keeps every level file, from the next one on, in the checkpoint
    /// directory `dir` and checksums them for
    /// [`seal_level`](Frontier::seal_level). Call it on a fresh frontier.
    pub fn keep_levels_in(&mut self, dir: &Path) {
        self.dir = RunDir::kept(dir);
        self.next.hash = Some(Fnv64::new());
    }

    /// Reopens the levels of the checkpoint in `dir` on a fresh frontier:
    /// streams each committed level file once, checking it against
    /// `manifest`, and hands every record's payload to `each` (the engines
    /// rebuild their visited set from them). The last committed level's
    /// file then becomes the next level as it is, and later levels are
    /// written into `dir` as under [`keep_levels_in`](Frontier::keep_levels_in).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when a level file is shorter than its
    /// record, fails its checksum or item count, or ends inside a record;
    /// [`CheckpointError::Io`] when one cannot be opened.
    pub fn resume(
        &mut self,
        dir: &Path,
        manifest: &Manifest,
        mut each: impl FnMut(&[u8]),
    ) -> Result<(), CheckpointError> {
        self.dir = RunDir::kept(dir);
        // Every level is scanned; the last one scanned stays the next level.
        for level in 0..=manifest.level {
            self.next = scan_level(&self.dir, manifest, level, &mut each)?;
        }
        self.number = manifest.level;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.next.bytes);
        Ok(())
    }

    /// Enqueues one record, `varint(payload.len()) payload`, into the next
    /// level.
    pub fn push_record(&mut self, payload: &[u8]) {
        let framed = varint_len(payload.len()) + payload.len();
        let next = &mut self.next;
        if !next.tail.is_empty() && next.tail.len() + framed > self.watermark {
            let _io = self.trace.span(Phase::SpillIo);
            let spilled = next.write_tail(&self.dir, self.number);
            self.stats.spilled_bytes += spilled;
            self.stats.segments += 1;
            next.spilled += spilled as u64;
            next.tail.clear();
        }
        write_varint(payload.len() as u64, &mut next.tail);
        next.tail.extend_from_slice(payload);
        next.items += 1;
        next.bytes += framed;
        let held = self.cur.bytes + next.bytes + self.lent;
        self.stats.peak_bytes = self.stats.peak_bytes.max(held);
    }

    /// Moves up to `max` records of the current level, framed as pushed, to
    /// the end of `out` and returns how many it moved. Their bytes stay in
    /// [`FrontierStats::peak_bytes`] until the caller
    /// [releases](Frontier::release) them.
    pub fn pop_records(&mut self, max: usize, out: &mut Vec<u8>) -> usize {
        let mut popped = 0;
        while popped < max {
            let Some((start, payload)) = self.next_record() else {
                break;
            };
            out.extend_from_slice(&self.cur.buf[start..payload.end]);
            self.lent += payload.end - start;
            popped += 1;
        }
        popped
    }

    /// Hands back `bytes` of records taken by
    /// [`pop_records`](Frontier::pop_records): the caller is done with them.
    pub fn release(&mut self, bytes: usize) {
        self.lent -= bytes;
    }

    /// Seals the next level in the checkpoint directory: writes its tail
    /// after the spilled records, fsyncs the file, and returns its record
    /// for the manifest. The tail stays in RAM as the level's read cache.
    pub fn seal_level(&mut self) -> FileMeta {
        let _io = self.trace.span(Phase::SpillIo);
        let next = &mut self.next;
        let tail = next.write_tail(&self.dir, self.number);
        self.stats.spilled_bytes += tail;
        next.file
            .as_ref()
            .expect("write_tail opens the file")
            .sync();
        FileMeta {
            name: level_name(self.number),
            items: next.items,
            bytes: next.spilled + tail as u64,
            fnv: next.hash.map_or(0, |h| h.finish()),
        }
    }

    /// Promotes the next level to current and returns its record count.
    /// The consumed level's file is deleted, unless a checkpoint keeps it.
    ///
    /// # Panics
    ///
    /// Panics if the current level has not been fully dequeued.
    pub fn advance_level(&mut self) -> usize {
        let queued = self.cur.items;
        assert!(
            queued == 0,
            "advance_level with {queued} items still queued in the current level"
        );
        let mut buf = std::mem::take(&mut self.cur.buf);
        buf.clear();
        self.cur = std::mem::take(&mut self.next);
        (self.cur.buf, self.cur.hash) = (buf, None);
        self.next.hash = self.dir.keep.then(Fnv64::new);
        self.number += 1;
        self.cur.items
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }

    /// Short backend name: `"mem"` for an unbounded watermark, `"disk"`
    /// otherwise.
    pub fn name(&self) -> &'static str {
        if self.watermark == usize::MAX {
            "mem"
        } else {
            "disk"
        }
    }

    /// Attaches a run's [`TraceHandle`]: spill I/O is timed under
    /// [`Phase::SpillIo`], typed pushes and pops under
    /// [`Phase::FrontierEncode`] / [`Phase::FrontierDecode`], and spilled
    /// tail sizes are recorded.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Steps past the next record of the current level and returns where it
    /// lies in the read buffer: its first byte and its payload.
    fn next_record(&mut self) -> Option<(usize, Range<usize>)> {
        let chunk = self.watermark.min(DEFAULT_FRONTIER_WATERMARK);
        let (start, payload) = self
            .cur
            .next(chunk, &self.trace)
            .unwrap_or_else(|e| panic!("corrupted frontier level: {e}"))?;
        self.cur.items -= 1;
        self.cur.bytes -= payload.end - start;
        Some((start, payload))
    }
}

impl<T, C: ItemCodec<T>> FrontierBackend<T> for Frontier<T, C> {
    fn push(&mut self, item: T) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        {
            let _span = self.trace.span(Phase::FrontierEncode);
            self.codec.encode_item(&item, &mut scratch);
        }
        self.push_record(&scratch);
        self.scratch = scratch;
    }

    fn pop(&mut self) -> Option<T> {
        let (_, payload) = self.next_record()?;
        let _span = self.trace.span(Phase::FrontierDecode);
        let item = self
            .codec
            .decode_item(&mut &self.cur.buf[payload])
            .unwrap_or_else(|e| panic!("corrupted frontier record: {e}"));
        Some(item)
    }

    fn advance_level(&mut self) -> usize {
        Frontier::advance_level(self)
    }

    fn stats(&self) -> FrontierStats {
        Frontier::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Item = (usize, Vec<u8>);

    fn item(i: usize) -> Item {
        (i, vec![i as u8; i % 17])
    }

    fn drive<F: FrontierBackend<Item>>(frontier: &mut F, levels: &[usize]) -> Vec<Item> {
        let mut popped = Vec::new();
        let mut counter = 0;
        for (depth, &width) in levels.iter().enumerate() {
            for _ in 0..width {
                frontier.push(item(counter));
                counter += 1;
            }
            assert_eq!(frontier.advance_level(), width, "level {depth}");
            while let Some(it) = frontier.pop() {
                popped.push(it);
            }
            assert!(frontier.pop().is_none(), "level must stay exhausted");
        }
        assert_eq!(frontier.advance_level(), 0);
        popped
    }

    #[test]
    fn mem_and_disk_pop_in_identical_fifo_order() {
        // The unbounded watermark against one of 64 bytes, which forces
        // many segments per level.
        let levels = [1, 7, 40, 3, 25];
        let mut mem = FrontierConfig::Mem.build(PlainCodec);
        let mut disk = FrontierConfig::disk_with_watermark(64).build(PlainCodec);
        let from_mem = drive(&mut mem, &levels);
        let from_disk = drive(&mut disk, &levels);
        assert_eq!(from_mem, from_disk);
        assert_eq!(from_mem.len(), levels.iter().sum::<usize>());
        let stats = disk.stats();
        assert!(stats.segments > 1, "tiny watermark must multi-segment");
        assert!(stats.spilled_bytes > 0);
        assert_eq!(mem.stats().peak_bytes, stats.peak_bytes, "exact bytes");
        assert_eq!((disk.name(), mem.name()), ("disk", "mem"));
    }

    #[test]
    fn interleaved_push_pop_respects_levels() {
        // BFS interleaves: pop current while pushing successors to next.
        for config in [FrontierConfig::Mem, FrontierConfig::disk_with_watermark(32)] {
            let mut frontier = config.build::<Item, _>(PlainCodec);
            frontier.push(item(0));
            assert_eq!(frontier.advance_level(), 1);
            let mut seen = vec![];
            let mut next_id = 1;
            for _ in 0..4 {
                while let Some((id, _)) = frontier.pop() {
                    seen.push(id);
                    for _ in 0..2 {
                        frontier.push(item(next_id));
                        next_id += 1;
                    }
                }
                frontier.advance_level();
            }
            // 1 + 2 + 4 + 8 popped ids, in creation order per level.
            assert_eq!(seen, (0..15).collect::<Vec<_>>(), "{config}");
        }
    }

    #[test]
    fn disk_frontier_accounts_bytes_and_reclaims() {
        let mut disk = Frontier::<Item, _>::new(48, PlainCodec);
        let mut framed = 0;
        for i in 0..100 {
            framed += 1 + mp_model::encode_to_vec(&item(i)).len();
            disk.push(item(i));
        }
        let peak = disk.stats().peak_bytes;
        assert_eq!(peak, framed, "exact framed bytes");
        assert_eq!(disk.advance_level(), 100);
        while disk.pop().is_some() {}
        // Everything was dequeued; the peak stays, the queue is empty.
        assert_eq!(disk.stats().peak_bytes, peak);
        assert_eq!(disk.advance_level(), 0);
    }

    #[test]
    fn spill_files_stay_bounded_by_two_live_levels() {
        // Every level spills (watermark far below the level size); deleting
        // each consumed level's file must keep on-disk bytes bounded by the
        // two live levels even though the cumulative spill keeps growing.
        let mut disk = Frontier::<Item, _>::new(64, PlainCodec);
        let mut resident_peak = 0u64;
        for level in 0..10 {
            for i in 0..50 {
                disk.push(item(i));
            }
            assert_eq!(disk.advance_level(), 50, "level {level}");
            while disk.pop().is_some() {}
            let resident: u64 = std::fs::read_dir(&disk.dir.path)
                .unwrap()
                .map(|entry| entry.unwrap().metadata().unwrap().len())
                .sum();
            resident_peak = resident_peak.max(resident);
        }
        let cumulative = disk.stats().spilled_bytes as u64;
        assert!(
            resident_peak * 3 < cumulative,
            "resident spill ({resident_peak}B) must stay far below the \
             cumulative spill ({cumulative}B) — old levels are reclaimed"
        );
    }

    #[test]
    fn an_unbounded_frontier_opens_no_file() {
        let mut mem = FrontierConfig::Mem.build::<u64, _>(PlainCodec);
        for level in 0..2 {
            for i in 0..10_000u64 {
                mem.push(i);
            }
            assert_eq!(mem.advance_level(), 10_000, "level {level}");
            assert!((0..10_000).all(|i| mem.pop() == Some(i)));
        }
        assert_eq!(mem.stats().segments, 0);
        assert_eq!(mem.stats().spilled_bytes, 0);
        assert!(!mem.dir.path.exists(), "no spill file was opened");
    }

    #[test]
    fn a_record_longer_than_the_watermark_gets_a_segment_of_its_own() {
        let mut disk = Frontier::<(), PlainCodec>::new(16, PlainCodec);
        let long = [7u8; 40];
        disk.push_record(b"ab");
        disk.push_record(&long);
        disk.push_record(b"cd");
        // "ab" alone, then the long record alone; "cd" is the unspilled tail.
        assert_eq!(disk.stats().segments, 2);
        assert_eq!((disk.next.spilled, disk.next.tail.len()), (3 + 41, 3));
        assert_eq!(disk.advance_level(), 3);
        let mut out = Vec::new();
        assert_eq!(disk.pop_records(8, &mut out), 3);
        let mut expected = vec![2, b'a', b'b', 40];
        expected.extend_from_slice(&long);
        expected.extend_from_slice(&[2, b'c', b'd']);
        assert_eq!(out, expected, "records come back framed, in order");
    }

    #[test]
    fn empty_payloads_round_trip() {
        for config in [FrontierConfig::Mem, FrontierConfig::disk_with_watermark(2)] {
            let mut frontier = config.build::<(), _>(PlainCodec);
            for _ in 0..5 {
                frontier.push(());
            }
            frontier.push_record(&[]);
            assert_eq!(frontier.stats().peak_bytes, 6, "{config}: one byte each");
            assert_eq!(frontier.advance_level(), 6);
            assert_eq!(std::iter::from_fn(|| frontier.pop()).count(), 6, "{config}");
            assert_eq!(frontier.advance_level(), 0);
        }
    }

    #[test]
    fn typed_items_stay_fifo_across_segment_boundaries() {
        // Records of 2–18 bytes against a 20-byte watermark: segments end
        // between records of every size.
        let mut disk = Frontier::<Item, _>::new(20, PlainCodec);
        let items: Vec<Item> = (0..200).map(item).collect();
        for it in &items {
            disk.push(it.clone());
        }
        assert!(disk.stats().segments > 50);
        assert_eq!(disk.advance_level(), items.len());
        let popped: Vec<Item> = std::iter::from_fn(|| disk.pop()).collect();
        assert_eq!(popped, items);
    }

    #[test]
    fn popped_records_count_until_released() {
        let mut mem = FrontierConfig::Mem.build::<(), _>(PlainCodec);
        mem.push_record(&[1; 9]);
        assert_eq!(mem.advance_level(), 1);
        let mut chunk = Vec::new();
        assert_eq!(mem.pop_records(64, &mut chunk), 1);
        // The chunk is still held while its successor is pushed.
        mem.push_record(&[2; 9]);
        assert_eq!(mem.stats().peak_bytes, 20);
        mem.release(chunk.len());
        mem.push_record(&[3; 9]);
        assert_eq!(mem.stats().peak_bytes, 20);
    }

    #[test]
    #[should_panic(expected = "advance_level")]
    fn advancing_a_non_exhausted_level_panics() {
        let mut mem = FrontierConfig::Mem.build(PlainCodec);
        mem.push(item(1));
        mem.advance_level();
        mem.push(item(2));
        mem.advance_level(); // item 1 still queued
    }

    #[test]
    fn config_labels() {
        assert_eq!(FrontierConfig::Mem.to_string(), "mem");
        assert!(FrontierConfig::disk().to_string().starts_with("disk("));
        assert!(!FrontierConfig::Mem.spills());
        assert!(FrontierConfig::disk().spills());
        assert_eq!(FrontierConfig::Mem.watermark(), usize::MAX);
        assert_eq!(FrontierConfig::disk_with_watermark(0).watermark(), 1);
        assert_eq!(FrontierConfig::default(), FrontierConfig::Mem);
    }
}
