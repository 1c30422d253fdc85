//! The BFS frontier: two level queues of framed byte records.
//!
//! Breadth-first search keeps two level queues alive at once — the level
//! being expanded and the level being generated — and on fault-augmented
//! models those levels grow with the state space (the crash1+drop1 sweep
//! cells are ~20x the seed models). [`Frontier`] holds both as byte
//! records, `record := varint(len) payload` — the framing of checkpoint
//! level files — appended to an in-memory buffer. Whenever the buffer
//! reaches the configured **watermark** it is written to a temporary spill
//! file as one segment, and segments are read back sequentially, level by
//! level, when the level is dequeued. Memory held per level is bounded by
//! the watermark regardless of frontier size. [`FrontierConfig::Mem`] is the
//! same queue with an unbounded watermark: it never writes a segment and
//! never opens a file.
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

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mp_model::{read_varint, write_varint, Decode, DecodeError, Encode};
use mp_trace::{Histogram, Phase, TraceHandle};

/// Default in-memory watermark (and segment size) of the disk frontier:
/// one segment's worth of encoded states is buffered before it is spilled.
pub const DEFAULT_FRONTIER_WATERMARK: usize = 32 << 20;

/// Where the BFS frontier may keep its records.
///
/// Carried by `CheckerConfig` in `mp-checker` next to [`StoreConfig`]
/// (visited set and frontier are the two memory-critical structures of a
/// stateful breadth-first run); `Copy` so configurations stay cheap to pass
/// around. Both variants build the one [`Frontier`]; they differ only in its
/// watermark. Spill files are created under [`std::env::temp_dir`] on the
/// first spilled segment and removed when the frontier is dropped.
///
/// [`StoreConfig`]: crate::StoreConfig
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierConfig {
    /// Keep every record in memory (the default): an unbounded watermark.
    #[default]
    Mem,
    /// Spill records to disk in watermark-sized segments.
    Disk {
        /// Bytes of records buffered in memory per level queue before a
        /// segment is written out (also the segment size).
        watermark_bytes: usize,
    },
}

impl FrontierConfig {
    /// The disk-backed frontier with the default watermark.
    pub fn disk() -> Self {
        Self::disk_with_watermark(DEFAULT_FRONTIER_WATERMARK)
    }

    /// The disk-backed frontier with an explicit watermark (tiny watermarks
    /// force multi-segment spilling, which is how the tests exercise the
    /// segment machinery on small models).
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

    /// Bytes buffered per level queue before a segment is spilled:
    /// `usize::MAX`, never, for [`FrontierConfig::Mem`]. The BFS parent log
    /// spills past the same watermark.
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
    /// Peak bytes of records held at once: both level queues plus the
    /// records a caller popped and has not yet
    /// [released](Frontier::release) — exact framed bytes.
    pub peak_bytes: usize,
    /// Total bytes written to the spill file over the run (0 in memory).
    pub spilled_bytes: usize,
    /// Number of segments written to the spill file (0 in memory).
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

/// One contiguous run of framed records in the spill file.
#[derive(Clone, Copy, Debug)]
struct Segment {
    offset: u64,
    len: usize,
}

/// Bytes of the LEB128 varint of `n`.
fn varint_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// The BFS frontier. See the module docs for the layout: the write path
/// appends framed records to a buffer that is spilled as one segment when
/// the next record would take it past the watermark, the read path streams
/// segments back in write order, so FIFO order is preserved exactly. A
/// segment is larger than the watermark only when it holds a single record
/// that is.
///
/// Two spill files alternate, one per live level: the next level's
/// segments are written to one file while the current level's are read
/// from the other, and [`advance_level`](Frontier::advance_level) swaps
/// their roles and truncates the fully-consumed one — so disk usage stays
/// bounded by the two live levels no matter how many levels the run spills
/// in total. Both are opened by the first spilled segment.
///
/// `T` and `C` type the [`FrontierBackend`] interface; the record interface
/// ([`push_record`](Frontier::push_record),
/// [`pop_records`](Frontier::pop_records)) ignores them, and the default
/// `Frontier` is the record queue alone.
///
/// # Panics
///
/// I/O errors on the spill files and malformed records panic: the spill
/// files are process-private scratch space, so either indicates a broken
/// environment (disk full) or a codec bug, and the engines have no partial
/// verdict to salvage.
#[derive(Debug)]
pub struct Frontier<T = (), C = PlainCodec> {
    codec: C,
    watermark: usize,
    /// The two alternating spill files; `files[write_file]` receives the
    /// next level's segments, the other one holds the current level's.
    files: Option<[SpillFile; 2]>,
    write_file: usize,
    write_len: u64,
    // The next level, being written: records buffered until the watermark,
    // then spilled as one segment.
    next_buf: Vec<u8>,
    next_segments: Vec<Segment>,
    next_items: usize,
    next_bytes: usize,
    // The current level, being read: pending on-disk segments, then the
    // in-memory tail that never reached the watermark.
    cur_chunk: Vec<u8>,
    cur_pos: usize,
    cur_segments: VecDeque<Segment>,
    cur_tail: Vec<u8>,
    cur_items: usize,
    cur_bytes: usize,
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
            files: None,
            write_file: 0,
            write_len: 0,
            next_buf: Vec::new(),
            next_segments: Vec::new(),
            next_items: 0,
            next_bytes: 0,
            cur_chunk: Vec::new(),
            cur_pos: 0,
            cur_segments: VecDeque::new(),
            cur_tail: Vec::new(),
            cur_items: 0,
            cur_bytes: 0,
            lent: 0,
            scratch: Vec::new(),
            stats: FrontierStats::default(),
            trace: TraceHandle::disabled(),
            _marker: PhantomData,
        }
    }

    /// Enqueues one record, `varint(payload.len()) payload`, into the next
    /// level.
    pub fn push_record(&mut self, payload: &[u8]) {
        let framed = varint_len(payload.len()) + payload.len();
        if !self.next_buf.is_empty() && self.next_buf.len() + framed > self.watermark {
            self.flush_next_buf();
        }
        write_varint(payload.len() as u64, &mut self.next_buf);
        self.next_buf.extend_from_slice(payload);
        self.next_items += 1;
        self.next_bytes += framed;
        let held = self.cur_bytes + self.next_bytes + self.lent;
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
            out.extend_from_slice(&self.cur_chunk[start..payload.end]);
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

    /// Promotes the next level to current and returns its record count.
    ///
    /// # Panics
    ///
    /// Panics if the current level has not been fully dequeued.
    pub fn advance_level(&mut self) -> usize {
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
        if let Some(files) = &mut self.files {
            let _ = files[self.write_file].file.set_len(0);
        }
        self.cur_segments = std::mem::take(&mut self.next_segments).into();
        self.cur_tail = std::mem::take(&mut self.next_buf);
        self.cur_chunk.clear();
        self.cur_pos = 0;
        self.cur_items = std::mem::take(&mut self.next_items);
        self.cur_bytes = std::mem::take(&mut self.next_bytes);
        self.cur_items
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
    /// segment sizes are recorded.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn flush_next_buf(&mut self) {
        let _io = self.trace.span(Phase::SpillIo);
        self.trace
            .record(Histogram::SpillSegmentBytes, self.next_buf.len() as u64);
        let files = self
            .files
            .get_or_insert_with(|| [(); 2].map(|()| SpillFile::create("mp-frontier")));
        files[self.write_file].write_at(self.write_len, &self.next_buf);
        self.next_segments.push(Segment {
            offset: self.write_len,
            len: self.next_buf.len(),
        });
        self.write_len += self.next_buf.len() as u64;
        self.stats.spilled_bytes += self.next_buf.len();
        self.stats.segments += 1;
        self.next_buf.clear();
    }

    /// Makes the next segment (or the in-memory tail) of the current level
    /// the chunk being read; `false` when the level has nothing left.
    fn refill_chunk(&mut self) -> bool {
        if let Some(segment) = self.cur_segments.pop_front() {
            let _io = self.trace.span(Phase::SpillIo);
            self.cur_chunk.resize(segment.len, 0);
            let files = self.files.as_mut().expect("a spilled segment has a file");
            files[1 - self.write_file].read_at(segment.offset, &mut self.cur_chunk);
        } else if !self.cur_tail.is_empty() {
            self.cur_chunk = std::mem::take(&mut self.cur_tail);
        } else {
            return false;
        }
        self.cur_pos = 0;
        true
    }

    /// Steps past the next record of the current level and returns where it
    /// lies in the chunk being read: its first byte and its payload.
    fn next_record(&mut self) -> Option<(usize, Range<usize>)> {
        if self.cur_pos == self.cur_chunk.len() && !self.refill_chunk() {
            return None;
        }
        let start = self.cur_pos;
        let mut rest = &self.cur_chunk[start..];
        let len = read_varint(&mut rest)
            .ok()
            .and_then(|len| usize::try_from(len).ok())
            .filter(|&len| len <= rest.len())
            .unwrap_or_else(|| panic!("corrupted frontier record at byte {start} of a segment"));
        let payload = self.cur_chunk.len() - rest.len();
        self.cur_pos = payload + len;
        self.cur_items -= 1;
        self.cur_bytes -= self.cur_pos - start;
        Some((start, payload..self.cur_pos))
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
            .decode_item(&mut &self.cur_chunk[payload])
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
        // Every level spills (watermark far below the level size); the two
        // alternating files must keep on-disk bytes bounded by the two
        // live levels even though the cumulative spill keeps growing.
        let mut disk = Frontier::<Item, _>::new(64, PlainCodec);
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
                .flatten()
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
        assert!(mem.files.is_none(), "no spill file was opened");
    }

    #[test]
    fn a_record_longer_than_the_watermark_gets_a_segment_of_its_own() {
        let mut disk = Frontier::<(), PlainCodec>::new(16, PlainCodec);
        let long = [7u8; 40];
        disk.push_record(b"ab");
        disk.push_record(&long);
        disk.push_record(b"cd");
        // "ab" alone, then the long record alone; "cd" is the unspilled tail.
        let lens: Vec<usize> = disk.next_segments.iter().map(|s| s.len).collect();
        assert_eq!(lens, [3, 41]);
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
