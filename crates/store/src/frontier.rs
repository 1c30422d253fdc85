//! Spillable BFS frontiers.
//!
//! Breadth-first search keeps two level queues alive at once — the level
//! being expanded and the level being generated — and on fault-augmented
//! models those levels grow with the state space (the crash1+drop1 sweep
//! cells are ~20x the seed models). The visited set already has compact
//! backends (hash compaction); this module gives the *frontier* the same
//! treatment so paper-scale budgets fit in memory:
//!
//! * [`MemFrontier`] — two in-memory `VecDeque`s, the default; byte-for-byte
//!   the behaviour the engines had before the frontier became pluggable;
//! * [`DiskFrontier`] — items are encoded (`mp-model`'s [`Encode`]/
//!   [`Decode`] codec) into an in-memory buffer; whenever the buffer
//!   reaches the configured **watermark** it is written to a temporary
//!   spill file as one fixed-size segment, and segments are read back
//!   sequentially, level by level, when the level is dequeued. Memory held
//!   per level is bounded by the watermark regardless of frontier size.
//!
//! Both implement [`FrontierBackend`] and preserve strict FIFO order, so an
//! engine driving either explores states in the identical order — spill on
//! and spill off produce byte-identical verdicts and state counts.
//!
//! Symmetry interaction is the engines' job: with orbit reduction active
//! they enqueue the *canonical representative* plus the permutation index δ
//! that produced it, and re-derive the concrete state on dequeue by
//! applying δ⁻¹ — so frontier bytes shrink with the orbit collapse while
//! exploration and counterexamples stay concrete (see `mp-checker`'s BFS
//! engines).

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mp_model::{read_delta_record, write_delta_record, Decode, DecodeError, Encode};
use mp_trace::{Histogram, Phase, TraceHandle};

/// Default in-memory watermark (and segment size) of the disk frontier:
/// one segment's worth of encoded states is buffered before it is spilled.
pub const DEFAULT_FRONTIER_WATERMARK: usize = 32 << 20;

/// Which frontier implementation the BFS engines should drive.
///
/// Carried by `CheckerConfig` in `mp-checker` next to [`StoreConfig`]
/// (visited set and frontier are the two memory-critical structures of a
/// stateful breadth-first run); `Copy` so configurations stay cheap to pass
/// around. Spill files are created under [`std::env::temp_dir`] and removed
/// when the frontier is dropped.
///
/// [`StoreConfig`]: crate::StoreConfig
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierConfig {
    /// Keep every frontier entry in memory (the default).
    #[default]
    Mem,
    /// Spill encoded entries to disk in watermark-sized segments.
    Disk {
        /// Bytes of encoded entries buffered in memory per level queue
        /// before a segment is written out (also the segment size).
        watermark_bytes: usize,
        /// Delta-encode each record against the previous record of its
        /// segment (BFS neighbours share most of their bytes, so segments
        /// shrink several-fold). Each segment stays self-contained: its
        /// first record is stored whole. See `docs/ON_DISK_FORMATS.md`.
        delta: bool,
    },
}

impl FrontierConfig {
    /// The disk-backed frontier with the default watermark.
    pub fn disk() -> Self {
        FrontierConfig::Disk {
            watermark_bytes: DEFAULT_FRONTIER_WATERMARK,
            delta: false,
        }
    }

    /// The disk-backed frontier with an explicit watermark (tiny watermarks
    /// force multi-segment spilling, which is how the tests exercise the
    /// segment machinery on small models).
    pub fn disk_with_watermark(watermark_bytes: usize) -> Self {
        FrontierConfig::Disk {
            watermark_bytes: watermark_bytes.max(1),
            delta: false,
        }
    }

    /// Like [`FrontierConfig::disk_with_watermark`], with delta-compressed
    /// segments (each record stored as its difference from the previous
    /// record of the segment).
    pub fn disk_delta_with_watermark(watermark_bytes: usize) -> Self {
        FrontierConfig::Disk {
            watermark_bytes: watermark_bytes.max(1),
            delta: true,
        }
    }

    /// Returns `true` if this configuration spills to disk (the engines
    /// append `+spill` to their strategy labels when it does).
    pub fn spills(&self) -> bool {
        matches!(self, FrontierConfig::Disk { .. })
    }

    /// Builds the frontier for item type `T` (enum dispatch, like
    /// [`StoreConfig::build`](crate::StoreConfig::build)).
    pub fn build<T, C: ItemCodec<T>>(&self, codec: C) -> FrontierImpl<T, C> {
        match *self {
            FrontierConfig::Mem => FrontierImpl::Mem(MemFrontier::new()),
            FrontierConfig::Disk {
                watermark_bytes,
                delta,
            } => FrontierImpl::Disk(Box::new(DiskFrontier::with_options(
                watermark_bytes,
                delta,
                codec,
            ))),
        }
    }
}

impl std::fmt::Display for FrontierConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontierConfig::Mem => write!(f, "mem"),
            FrontierConfig::Disk {
                watermark_bytes,
                delta,
            } => {
                let delta = if *delta { ", delta" } else { "" };
                write!(f, "disk({} KiB watermark{delta})", watermark_bytes / 1024)
            }
        }
    }
}

/// Encodes and decodes one frontier item.
///
/// The disk frontier is generic over the codec instead of bounding `T`
/// directly because some items carry non-serializable *configuration* next
/// to their data — an observer holding a spec handle, say. The engine
/// supplies a codec that knows how to rebuild such items from a template;
/// plain data uses [`PlainCodec`].
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
    /// Peak number of items queued at once (both level queues together).
    pub peak_items: usize,
    /// Peak bytes of queued payload: exact encoded bytes for the disk
    /// frontier, `peak_items * size_of::<T>()` for the in-memory frontier
    /// (an underestimate when items own heap data — the number exists for
    /// trend comparisons, not absolute accounting).
    pub peak_bytes: usize,
    /// Total bytes written to the spill file over the run (0 in memory).
    pub spilled_bytes: usize,
    /// Number of segments written to the spill file (0 in memory).
    pub segments: usize,
}

/// A two-level BFS frontier: [`push`](FrontierBackend::push) enqueues into
/// the *next* level, [`pop`](FrontierBackend::pop) dequeues the *current*
/// level in FIFO order, and [`advance_level`](FrontierBackend::advance_level)
/// promotes next to current when the current level is exhausted.
pub trait FrontierBackend<T> {
    /// Enqueues an item into the next level.
    fn push(&mut self, item: T);

    /// Dequeues the next item of the current level (FIFO), or `None` when
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

    /// Short backend name (`"mem"`, `"disk"`).
    fn name(&self) -> &'static str;

    /// Attaches a run's [`TraceHandle`] so the backend can attribute its
    /// encode/decode work and spill I/O to the trace phases
    /// ([`Phase::FrontierEncode`], [`Phase::FrontierDecode`],
    /// [`Phase::SpillIo`]) and record spilled segment sizes. The in-memory
    /// frontier does no such work, so the default is a no-op.
    fn set_trace(&mut self, _trace: TraceHandle) {}
}

/// A frontier built from a [`FrontierConfig`].
#[derive(Debug)]
pub enum FrontierImpl<T, C> {
    /// See [`MemFrontier`].
    Mem(MemFrontier<T>),
    /// See [`DiskFrontier`] (boxed: the disk frontier carries files,
    /// buffers and segment lists the in-memory variant has no use for).
    Disk(Box<DiskFrontier<T, C>>),
}

impl<T, C: ItemCodec<T>> FrontierBackend<T> for FrontierImpl<T, C> {
    fn push(&mut self, item: T) {
        match self {
            FrontierImpl::Mem(f) => f.push(item),
            FrontierImpl::Disk(f) => f.push(item),
        }
    }

    fn pop(&mut self) -> Option<T> {
        match self {
            FrontierImpl::Mem(f) => f.pop(),
            FrontierImpl::Disk(f) => f.pop(),
        }
    }

    fn advance_level(&mut self) -> usize {
        match self {
            FrontierImpl::Mem(f) => f.advance_level(),
            FrontierImpl::Disk(f) => f.advance_level(),
        }
    }

    fn stats(&self) -> FrontierStats {
        match self {
            FrontierImpl::Mem(f) => FrontierBackend::stats(f),
            FrontierImpl::Disk(f) => f.stats(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            FrontierImpl::Mem(f) => FrontierBackend::name(f),
            FrontierImpl::Disk(f) => f.name(),
        }
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        match self {
            FrontierImpl::Mem(f) => FrontierBackend::<T>::set_trace(f, trace),
            FrontierImpl::Disk(f) => f.set_trace(trace),
        }
    }
}

/// The in-memory frontier: two `VecDeque` level queues.
#[derive(Debug)]
pub struct MemFrontier<T> {
    current: VecDeque<T>,
    next: VecDeque<T>,
    peak_items: usize,
}

impl<T> MemFrontier<T> {
    /// Creates an empty frontier.
    pub fn new() -> Self {
        MemFrontier {
            current: VecDeque::new(),
            next: VecDeque::new(),
            peak_items: 0,
        }
    }
}

impl<T> Default for MemFrontier<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FrontierBackend<T> for MemFrontier<T> {
    fn push(&mut self, item: T) {
        self.next.push_back(item);
        self.peak_items = self.peak_items.max(self.current.len() + self.next.len());
    }

    fn pop(&mut self) -> Option<T> {
        self.current.pop_front()
    }

    fn advance_level(&mut self) -> usize {
        assert!(
            self.current.is_empty(),
            "advance_level with {} items still queued in the current level",
            self.current.len()
        );
        std::mem::swap(&mut self.current, &mut self.next);
        self.current.len()
    }

    fn stats(&self) -> FrontierStats {
        FrontierStats {
            peak_items: self.peak_items,
            peak_bytes: self.peak_items * std::mem::size_of::<T>(),
            spilled_bytes: 0,
            segments: 0,
        }
    }

    fn name(&self) -> &'static str {
        "mem"
    }
}

/// Names spill files uniquely within the process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-private scratch file under [`std::env::temp_dir`], deleted on
/// drop. I/O errors panic: nothing else writes the file, so they mean a
/// broken environment (disk full, `TMPDIR` gone).
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: File,
    path: PathBuf,
}

impl SpillFile {
    pub(crate) fn create(prefix: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}.bin",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot create spill file {}: {e}", path.display()));
        SpillFile { file, path }
    }

    /// Writes `bytes` at `offset` (reads move the cursor, so every access
    /// seeks).
    pub(crate) fn write_at(&mut self, offset: u64, bytes: &[u8]) {
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.write_all(bytes))
            .unwrap_or_else(|e| panic!("spill write to {}: {e}", self.path.display()));
    }

    /// Fills `buf` from `offset`.
    pub(crate) fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(buf))
            .unwrap_or_else(|e| panic!("spill read from {}: {e}", self.path.display()));
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One contiguous run of encoded records in the spill file.
#[derive(Clone, Copy, Debug)]
struct Segment {
    offset: u64,
    len: usize,
    items: usize,
}

/// The disk-backed frontier. See the module docs for the layout; the write
/// path appends watermark-sized segments of concatenated encoded records,
/// the read path streams them back in write order, so FIFO order is
/// preserved exactly.
///
/// Two spill files alternate, one per live level: the next level's
/// segments are written to one file while the current level's are read
/// from the other, and [`advance_level`](FrontierBackend::advance_level)
/// swaps their roles and truncates the fully-consumed one — so disk usage
/// stays bounded by the two live levels no matter how many levels the run
/// spills in total.
///
/// # Panics
///
/// I/O errors on the spill files and decode failures panic: the spill
/// files are process-private scratch space, so either indicates a broken
/// environment (disk full) or a codec bug, and the engines have no partial
/// verdict to salvage.
#[derive(Debug)]
pub struct DiskFrontier<T, C> {
    codec: C,
    /// The two alternating spill files; `files[write_file]` receives the
    /// next level's segments, the other one holds the current level's.
    files: [SpillFile; 2],
    write_file: usize,
    write_len: u64,
    watermark: usize,
    // The next level, being written: encoded records buffered until the
    // watermark, then spilled as one segment.
    next_buf: Vec<u8>,
    next_buf_items: usize,
    next_segments: Vec<Segment>,
    next_items: usize,
    next_bytes: usize,
    // The current level, being read: pending on-disk segments, then the
    // in-memory tail that never reached the watermark.
    cur_chunk: Vec<u8>,
    cur_pos: usize,
    cur_chunk_items: usize,
    cur_segments: VecDeque<Segment>,
    cur_tail: Vec<u8>,
    cur_tail_items: usize,
    cur_items: usize,
    cur_bytes: usize,
    // Delta compression (see `FrontierConfig::Disk { delta }`): the encoded
    // previous record of the write chain / read chain, and a scratch buffer
    // the next record is encoded into before it is delta-framed. Both
    // chains restart empty at every segment boundary, so each segment (and
    // the in-memory tail) decodes without its neighbours.
    delta: bool,
    prev_write: Vec<u8>,
    prev_read: Vec<u8>,
    scratch: Vec<u8>,
    stats: FrontierStats,
    trace: TraceHandle,
    _marker: PhantomData<fn() -> T>,
}

impl<T, C: ItemCodec<T>> DiskFrontier<T, C> {
    /// Creates a disk frontier spilling past `watermark` bytes per level.
    pub fn new(watermark: usize, codec: C) -> Self {
        Self::with_options(watermark, false, codec)
    }

    /// Creates a disk frontier, optionally delta-compressing each record
    /// against its predecessor in the segment (`delta = true`).
    pub fn with_options(watermark: usize, delta: bool, codec: C) -> Self {
        DiskFrontier {
            codec,
            files: [(); 2].map(|()| SpillFile::create("mp-frontier")),
            write_file: 0,
            write_len: 0,
            watermark: watermark.max(1),
            next_buf: Vec::new(),
            next_buf_items: 0,
            next_segments: Vec::new(),
            next_items: 0,
            next_bytes: 0,
            cur_chunk: Vec::new(),
            cur_pos: 0,
            cur_chunk_items: 0,
            cur_segments: VecDeque::new(),
            cur_tail: Vec::new(),
            cur_tail_items: 0,
            cur_items: 0,
            cur_bytes: 0,
            delta,
            prev_write: Vec::new(),
            prev_read: Vec::new(),
            scratch: Vec::new(),
            stats: FrontierStats::default(),
            trace: TraceHandle::disabled(),
            _marker: PhantomData,
        }
    }

    fn flush_next_buf(&mut self) {
        if self.next_buf.is_empty() {
            return;
        }
        let _io = self.trace.span(Phase::SpillIo);
        self.trace
            .record(Histogram::SpillSegmentBytes, self.next_buf.len() as u64);
        self.files[self.write_file].write_at(self.write_len, &self.next_buf);
        self.next_segments.push(Segment {
            offset: self.write_len,
            len: self.next_buf.len(),
            items: self.next_buf_items,
        });
        self.write_len += self.next_buf.len() as u64;
        self.stats.spilled_bytes += self.next_buf.len();
        self.stats.segments += 1;
        self.next_buf.clear();
        self.next_buf_items = 0;
        // Each segment is self-contained: the delta chain restarts, so the
        // next record is stored whole.
        self.prev_write.clear();
    }

    fn refill_chunk(&mut self) -> bool {
        // The read chain restarts with each segment (and with the tail),
        // mirroring the write side.
        self.prev_read.clear();
        if let Some(segment) = self.cur_segments.pop_front() {
            let _io = self.trace.span(Phase::SpillIo);
            self.cur_chunk.resize(segment.len, 0);
            self.files[1 - self.write_file].read_at(segment.offset, &mut self.cur_chunk);
            self.cur_pos = 0;
            self.cur_chunk_items = segment.items;
            return true;
        }
        if self.cur_tail_items > 0 {
            self.cur_chunk = std::mem::take(&mut self.cur_tail);
            self.cur_pos = 0;
            self.cur_chunk_items = self.cur_tail_items;
            self.cur_tail_items = 0;
            return true;
        }
        false
    }
}

impl<T, C: ItemCodec<T>> FrontierBackend<T> for DiskFrontier<T, C> {
    fn push(&mut self, item: T) {
        let start = self.next_buf.len();
        {
            let _span = self.trace.span(Phase::FrontierEncode);
            if self.delta {
                self.scratch.clear();
                self.codec.encode_item(&item, &mut self.scratch);
                write_delta_record(&self.prev_write, &self.scratch, &mut self.next_buf);
                std::mem::swap(&mut self.prev_write, &mut self.scratch);
            } else {
                self.codec.encode_item(&item, &mut self.next_buf);
            }
        }
        let record = self.next_buf.len() - start;
        self.next_buf_items += 1;
        self.next_items += 1;
        self.next_bytes += record;
        self.stats.peak_items = self.stats.peak_items.max(self.cur_items + self.next_items);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.cur_bytes + self.next_bytes);
        if self.next_buf.len() >= self.watermark {
            self.flush_next_buf();
        }
    }

    fn pop(&mut self) -> Option<T> {
        if self.cur_chunk_items == 0 && !self.refill_chunk() {
            return None;
        }
        let mut slice = &self.cur_chunk[self.cur_pos..];
        let before = slice.len();
        let item = {
            let _span = self.trace.span(Phase::FrontierDecode);
            if self.delta {
                let full = read_delta_record(&self.prev_read, &mut slice)
                    .unwrap_or_else(|e| panic!("corrupted frontier spill record: {e}"));
                let mut full_slice = full.as_slice();
                let item = self
                    .codec
                    .decode_item(&mut full_slice)
                    .unwrap_or_else(|e| panic!("corrupted frontier spill record: {e}"));
                self.prev_read = full;
                item
            } else {
                self.codec
                    .decode_item(&mut slice)
                    .unwrap_or_else(|e| panic!("corrupted frontier spill record: {e}"))
            }
        };
        self.cur_pos += before - slice.len();
        self.cur_chunk_items -= 1;
        self.cur_items -= 1;
        self.cur_bytes -= before - slice.len();
        Some(item)
    }

    fn advance_level(&mut self) -> usize {
        assert!(
            self.cur_items == 0,
            "advance_level with {} items still queued in the current level",
            self.cur_items
        );
        // Swap the two spill files: the one just written becomes the read
        // side, and the fully-consumed old read file is truncated and
        // becomes the write side — disk stays bounded by two live levels.
        self.write_file = 1 - self.write_file;
        self.write_len = 0;
        let _ = self.files[self.write_file].file.set_len(0);
        self.cur_segments = std::mem::take(&mut self.next_segments).into();
        self.cur_tail = std::mem::take(&mut self.next_buf);
        self.cur_tail_items = self.next_buf_items;
        self.next_buf_items = 0;
        self.cur_chunk.clear();
        self.cur_pos = 0;
        self.cur_chunk_items = 0;
        self.prev_write.clear();
        self.prev_read.clear();
        self.cur_items = self.next_items;
        self.cur_bytes = self.next_bytes;
        self.next_items = 0;
        self.next_bytes = 0;
        self.cur_items
    }

    fn stats(&self) -> FrontierStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "disk"
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
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
        let levels = [1, 7, 40, 3, 25];
        let mut mem = MemFrontier::new();
        // A watermark of 64 bytes forces many segments per level.
        let mut disk = DiskFrontier::new(64, PlainCodec);
        let from_mem = drive(&mut mem, &levels);
        let from_disk = drive(&mut disk, &levels);
        assert_eq!(from_mem, from_disk);
        assert_eq!(from_mem.len(), levels.iter().sum::<usize>());
        let stats = disk.stats();
        assert!(stats.segments > 1, "tiny watermark must multi-segment");
        assert!(stats.spilled_bytes > 0);
        assert_eq!(FrontierBackend::<Item>::name(&disk), "disk");
        assert_eq!(FrontierBackend::<Item>::name(&mem), "mem");
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
        let mut disk: DiskFrontier<Item, _> = DiskFrontier::new(48, PlainCodec);
        for i in 0..100 {
            disk.push(item(i));
        }
        let peak = disk.stats().peak_bytes;
        assert!(peak > 0);
        assert_eq!(disk.advance_level(), 100);
        while disk.pop().is_some() {}
        // Everything was dequeued; the peak stays, the queue is empty.
        assert_eq!(disk.stats().peak_bytes, peak);
        assert_eq!(disk.advance_level(), 0);
    }

    #[test]
    fn spill_files_stay_bounded_by_two_live_levels() {
        // Every level spills (watermark far below the level size); the two
        // alternating files must keep on-disk bytes bounded by the two
        // live levels even though the cumulative spill keeps growing.
        let mut disk: DiskFrontier<Item, _> = DiskFrontier::new(64, PlainCodec);
        let mut resident_peak = 0u64;
        for level in 0..10 {
            for i in 0..50 {
                disk.push(item(i));
            }
            assert_eq!(disk.advance_level(), 50, "level {level}");
            while disk.pop().is_some() {}
            let resident: u64 = disk
                .files
                .iter()
                .filter_map(|f| std::fs::metadata(&f.path).ok())
                .map(|m| m.len())
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
    fn delta_disk_frontier_pops_in_identical_fifo_order() {
        let levels = [1, 7, 40, 3, 25];
        let mut mem = MemFrontier::new();
        let mut delta: DiskFrontier<Item, _> = DiskFrontier::with_options(64, true, PlainCodec);
        let from_mem = drive(&mut mem, &levels);
        let from_delta = drive(&mut delta, &levels);
        assert_eq!(from_mem, from_delta);
        let stats = delta.stats();
        assert!(stats.segments > 1, "tiny watermark must multi-segment");
        assert!(stats.spilled_bytes > 0);
    }

    #[test]
    fn delta_segments_shrink_when_records_share_prefixes() {
        // Records with a long shared prefix (the common case for encoded
        // BFS neighbours): delta framing should cut the spill several-fold.
        type Rec = (Vec<u8>, usize);
        fn rec(i: usize) -> Rec {
            (vec![0xAB; 48], i)
        }
        let mut plain: DiskFrontier<Rec, _> = DiskFrontier::new(256, PlainCodec);
        let mut delta: DiskFrontier<Rec, _> = DiskFrontier::with_options(256, true, PlainCodec);
        for i in 0..200 {
            plain.push(rec(i));
            delta.push(rec(i));
        }
        assert_eq!(plain.advance_level(), 200);
        assert_eq!(delta.advance_level(), 200);
        let mut popped = 0;
        loop {
            match (plain.pop(), delta.pop()) {
                (Some(a), Some(b)) => {
                    assert_eq!(a, b);
                    popped += 1;
                }
                (None, None) => break,
                _ => panic!("plain and delta frontiers disagree on length"),
            }
        }
        assert_eq!(popped, 200);
        let (plain_spill, delta_spill) = (plain.stats().spilled_bytes, delta.stats().spilled_bytes);
        assert!(
            delta_spill * 2 < plain_spill,
            "delta spill ({delta_spill}B) must substantially undercut the \
             plain spill ({plain_spill}B)"
        );
    }

    #[test]
    #[should_panic(expected = "advance_level")]
    fn advancing_a_non_exhausted_level_panics() {
        let mut mem = MemFrontier::new();
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
        let delta = FrontierConfig::disk_delta_with_watermark(4096);
        assert!(delta.to_string().contains("delta"), "{delta}");
        assert!(delta.spills());
        assert_eq!(FrontierConfig::default(), FrontierConfig::Mem);
    }
}
