//! The BFS parent log: one fixed-width record per stored state.
//!
//! A breadth-first search rebuilds a counterexample by walking parent
//! pointers from the violating state back to the root. The log keeps, for
//! state *i*, the index of the state it was first generated from and the
//! successor's **ordinal** in the parent's explore set — not the transition
//! instance itself: the engine replays the ordinals from the initial state
//! through the same reducer, so a record needs no codec and no heap.
//!
//! Records are [`ParentLog::WIDTH`] bytes, so record *i* lives at byte
//! `WIDTH × i` and random access needs no offset table. In memory the log
//! is one byte vector; under a bounded watermark the vector is only the
//! unflushed tail — past the watermark it is appended to `parents.log` in
//! the run directory and read back by `seek`. Without a checkpoint that is
//! a scratch directory, created by the first flush and removed on drop; a
//! checkpointed run keeps `parents.log` in its checkpoint directory
//! ([`ParentLog::in_checkpoint`]), where each commit flushes the tail and
//! fsyncs, so the file is the checkpoint's parent records as they are.

use std::path::Path;

use mp_model::Fnv64;
use mp_trace::{Histogram, Phase, TraceHandle};

use crate::checkpoint::{CheckpointError, FileMeta, Manifest, PARENTS_NAME};
use crate::files::{RunDir, SpillFile};

/// One parent-log record: `None` for the root, otherwise `(parent index,
/// ordinal of the successor in the parent's explore set)`.
pub type ParentRecord = Option<(usize, usize)>;

/// The low bits of a record's word hold the parent index, the rest the
/// ordinal. The all-ones word is the root, so a real parent index stays
/// below the all-ones field.
const PARENT_BITS: u32 = 40;
const PARENT_MASK: u64 = (1 << PARENT_BITS) - 1;
const ROOT: u64 = u64::MAX;

/// The append-only, randomly readable parent table of a BFS run. See the
/// module docs. An access that cannot be answered fails with a message
/// naming the offending index, record or length; I/O errors on the file
/// panic, like the disk frontier's.
pub struct ParentLog {
    /// The records not yet written to the file.
    buf: Vec<u8>,
    /// Bytes of `buf` that trigger a flush.
    watermark: usize,
    /// `parents.log`, opened by the first flush (at once in a checkpoint),
    /// in `dir`, which is declared after it so the file closes first.
    file: Option<SpillFile>,
    dir: RunDir,
    /// Records already written to the file.
    flushed: usize,
    /// FNV-64 of the file's records, kept in a checkpoint only.
    hash: Option<Fnv64>,
    trace: TraceHandle,
}

impl ParentLog {
    /// Bytes per record (one little-endian `u64`).
    pub(crate) const WIDTH: usize = 8;

    /// Creates a log that spills past `watermark` bytes of records — the
    /// frontier's (`FrontierConfig::watermark`), so an in-memory frontier's
    /// `usize::MAX` keeps it resident. Spill writes and read-backs are
    /// timed under `trace`'s [`Phase::SpillIo`].
    pub fn new(watermark: usize, trace: TraceHandle) -> Self {
        ParentLog {
            buf: Vec::new(),
            watermark: watermark.max(1),
            file: None,
            dir: RunDir::scratch(),
            flushed: 0,
            hash: None,
            trace,
        }
    }

    /// The log of a run checkpointing into `dir`: `parents.log` there,
    /// started empty or — given the checkpoint's `manifest` — reopened at
    /// its committed prefix. The prefix's length and checksum are verified,
    /// anything past it is truncated, and appending continues; nothing is
    /// read into RAM.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when the file is shorter than its
    /// record or fails its checksum; [`CheckpointError::Io`] when it cannot
    /// be opened.
    pub fn in_checkpoint(
        dir: &Path,
        manifest: Option<&Manifest>,
        watermark: usize,
        trace: TraceHandle,
    ) -> Result<Self, CheckpointError> {
        let mut log = ParentLog {
            dir: RunDir::kept(dir),
            hash: Some(Fnv64::new()),
            ..ParentLog::new(watermark, trace)
        };
        let Some(manifest) = manifest else {
            log.file = Some(log.dir.create(PARENTS_NAME));
            return Ok(log);
        };
        let missing = || CheckpointError::Corrupt(format!("no record for {PARENTS_NAME}"));
        let meta = manifest.file(PARENTS_NAME).ok_or_else(missing)?;
        let file = log.file.insert(log.dir.open(PARENTS_NAME)?);
        meta.check_len(file)?;
        let (mut hash, mut chunk) = (Fnv64::new(), vec![0; (1 << 16).min(meta.bytes as usize)]);
        for at in (0..meta.bytes).step_by(chunk.len().max(1)) {
            let n = chunk.len().min((meta.bytes - at) as usize);
            file.read_at(at, &mut chunk[..n]);
            hash.write(&chunk[..n]);
        }
        // A prefix that is not whole records counts one record more.
        let items = meta.bytes.div_ceil(Self::WIDTH as u64) as usize;
        meta.check(items, hash.finish())?;
        file.truncate(meta.bytes);
        (log.flushed, log.hash) = (items, Some(hash));
        Ok(log)
    }

    /// The bytes of `record`; fails on a parent index or ordinal too large
    /// for its field.
    pub(crate) fn encode(record: ParentRecord) -> Result<[u8; Self::WIDTH], String> {
        let Some((parent, ordinal)) = record else {
            return Ok(ROOT.to_le_bytes());
        };
        match (u64::try_from(parent), u64::try_from(ordinal)) {
            (Ok(p), Ok(o)) if p < PARENT_MASK && o <= ROOT >> PARENT_BITS => {
                Ok((o << PARENT_BITS | p).to_le_bytes())
            }
            _ => Err(format!(
                "parent log: index {parent} or ordinal {ordinal} does not fit its field"
            )),
        }
    }

    /// The record stored in `bytes`; fails unless they are exactly one
    /// record.
    fn decode(bytes: &[u8]) -> Result<ParentRecord, String> {
        let word = bytes.try_into().map(u64::from_le_bytes).map_err(|_| {
            let (width, got) = (Self::WIDTH, bytes.len());
            format!("parent log: a record is {width} bytes, got {got}")
        })?;
        if word == ROOT {
            return Ok(None);
        }
        let fields = (word & PARENT_MASK, word >> PARENT_BITS);
        match (usize::try_from(fields.0), usize::try_from(fields.1)) {
            (Ok(parent), Ok(ordinal)) => Ok(Some((parent, ordinal))),
            _ => Err(format!("parent log: record {fields:?} exceeds usize")),
        }
    }

    /// Appends a record and returns its index; fails on a parent index or
    /// ordinal too large for its field.
    pub fn push(&mut self, record: ParentRecord) -> Result<usize, String> {
        self.buf.extend_from_slice(&Self::encode(record)?);
        if self.buf.len() >= self.watermark {
            self.trace
                .record(Histogram::SpillSegmentBytes, self.buf.len() as u64);
            self.flush();
        }
        Ok(self.len() - 1)
    }

    /// Writes the records of a checkpointed log not yet in `parents.log`
    /// and fsyncs it: the returned record is the prefix a manifest commits.
    pub fn commit(&mut self) -> FileMeta {
        self.flush();
        let _io = self.trace.span(Phase::SpillIo);
        self.file.as_ref().expect("flush opens the file").sync();
        FileMeta {
            name: PARENTS_NAME.to_string(),
            items: self.flushed,
            bytes: (self.flushed * Self::WIDTH) as u64,
            fnv: self.hash.map_or(0, |h| h.finish()),
        }
    }

    /// Appends `buf` to the file, opening it first.
    fn flush(&mut self) {
        let _io = self.trace.span(Phase::SpillIo);
        let file = self
            .file
            .get_or_insert_with(|| self.dir.create(PARENTS_NAME));
        file.write_at((self.flushed * Self::WIDTH) as u64, &self.buf);
        if let Some(hash) = &mut self.hash {
            hash.write(&self.buf);
        }
        self.flushed += self.buf.len() / Self::WIDTH;
        self.buf.clear();
    }

    /// Reads the record at `index` back; fails if it was never pushed.
    fn get(&mut self, index: usize) -> Result<ParentRecord, String> {
        let len = self.len();
        if index >= len {
            return Err(format!(
                "parent log: index {index} out of range ({len} records)"
            ));
        }
        if index >= self.flushed {
            let start = (index - self.flushed) * Self::WIDTH;
            return Self::decode(&self.buf[start..start + Self::WIDTH]);
        }
        let file = self.file.as_mut().expect("flushed records imply a file");
        let _io = self.trace.span(Phase::SpillIo);
        let mut record = [0u8; Self::WIDTH];
        file.read_at((index * Self::WIDTH) as u64, &mut record);
        Self::decode(&record)
    }

    /// The ordinals along the parent chain from the root to `index`, in
    /// execution order — what the engine replays into a counterexample.
    /// Fails on an index out of range and on a record whose parent is not
    /// an earlier record (a replayed checkpoint log is outside input).
    pub fn ordinals_to(&mut self, index: usize) -> Result<Vec<usize>, String> {
        let mut ordinals = Vec::new();
        let mut at = index;
        while let Some((parent, ordinal)) = self.get(at)? {
            if parent >= at {
                return Err(format!(
                    "parent log: record {at} names parent {parent}, not an earlier record"
                ));
            }
            ordinals.push(ordinal);
            at = parent;
        }
        ordinals.reverse();
        Ok(ordinals)
    }

    /// Number of records pushed so far.
    fn len(&self) -> usize {
        self.flushed + self.buf.len() / Self::WIDTH
    }

    /// Total bytes written to `parents.log` (0 in memory mode).
    pub fn spilled_bytes(&self) -> usize {
        self.flushed * Self::WIDTH
    }

    /// Resident bytes of the log (feeds the `parent_log_bytes` gauge).
    pub fn approx_bytes(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize) -> ParentRecord {
        (i > 0).then_some((i / 2, i % 5))
    }

    #[test]
    fn records_round_trip_in_memory_and_across_watermark_flushes() {
        // 40 bytes = 5 records per flush, so 203 records leave 40 flushed
        // segments and a 3-record unflushed tail.
        for watermark in [usize::MAX, 40] {
            let mut log = ParentLog::new(watermark, TraceHandle::disabled());
            for i in 0..203 {
                assert_eq!(log.push(record(i)), Ok(i));
            }
            for i in [202, 0, 57, 199, 133, 1, 200] {
                assert_eq!(log.get(i), Ok(record(i)), "{watermark} record {i}");
            }
            // 202 → 101 → 50 → 25 → 12 → 6 → 3 → 1 → root.
            assert_eq!(log.ordinals_to(202), Ok(vec![1, 3, 1, 2, 0, 0, 1, 2]));
            let flushed = if watermark == 40 { 200 } else { 0 };
            assert_eq!(log.spilled_bytes(), flushed * ParentLog::WIDTH);
            assert_eq!(log.approx_bytes(), (203 - flushed) * ParentLog::WIDTH);
            assert_eq!(log.file.is_some(), flushed > 0, "opened by a flush");
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let name = format!("mp-parent-log-test-{}-{tag}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A manifest recording `parents` and nothing else: all a parent log
    /// reads of one.
    fn manifest(parents: FileMeta) -> Manifest {
        let mut manifest = Manifest::new(0, "bfs", "");
        manifest.files.push(parents);
        manifest
    }

    #[test]
    fn resume_truncates_uncommitted_parents_and_continues() {
        let dir = temp_dir("resume");
        let file = dir.join(PARENTS_NAME);
        let trace = TraceHandle::disabled;
        // 16 bytes flush every second record, so records pushed after the
        // commit reach the file — a crash would leave them there.
        let mut log = ParentLog::in_checkpoint(&dir, None, 16, trace()).unwrap();
        for i in 0..5 {
            log.push(record(i)).unwrap();
        }
        let committed = log.commit();
        assert_eq!((committed.items, committed.bytes), (5, 40));
        for i in 5..9 {
            log.push(record(i)).unwrap();
        }
        drop(log);
        assert_eq!(std::fs::metadata(&file).unwrap().len(), 72);

        let manifest = manifest(committed);
        let mut log = ParentLog::in_checkpoint(&dir, Some(&manifest), 16, trace()).unwrap();
        assert_eq!(std::fs::metadata(&file).unwrap().len(), 40, "truncated");
        assert_eq!(log.approx_bytes(), 0, "nothing was read into RAM");
        assert_eq!(log.push(Some((3, 7))), Ok(5), "appending continues");
        assert_eq!(log.ordinals_to(5), Ok(vec![1, 3, 7]));
        assert_eq!(log.get(4), Ok(record(4)));
        let next = log.commit();
        assert_eq!((next.items, next.bytes), (6, 48));
        // The continued checksum is the whole file's.
        let mut hash = Fnv64::new();
        hash.write(&std::fs::read(&file).unwrap());
        assert_eq!(next.fnv, hash.finish());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_tampered_parents_prefix() {
        let dir = temp_dir("tampered");
        let file = dir.join(PARENTS_NAME);
        let trace = TraceHandle::disabled;
        let mut log = ParentLog::in_checkpoint(&dir, None, usize::MAX, trace()).unwrap();
        for i in 0..3 {
            log.push(record(i)).unwrap();
        }
        let committed = log.commit();
        let resume = |meta: &FileMeta| {
            let manifest = manifest(meta.clone());
            let err = ParentLog::in_checkpoint(&dir, Some(&manifest), usize::MAX, trace())
                .err()
                .expect("the prefix must be refused");
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
            err.to_string()
        };
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[1] ^= 0x01;
        std::fs::write(&file, &bytes).unwrap();
        assert!(resume(&committed).contains("checksum"));
        // Lengths are checked against the file before anything is read.
        let inflated = FileMeta {
            bytes: 1 << 40,
            ..committed.clone()
        };
        assert!(resume(&inflated).contains("shorter than the 1099511627776 bytes"));
        let crowded = FileMeta {
            items: 4,
            ..committed.clone()
        };
        assert!(resume(&crowded).contains("3 records"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_and_malformed_accesses_fail_by_name() {
        let mut log = ParentLog::new(usize::MAX, TraceHandle::disabled());
        log.push(None).unwrap();
        let err = log.get(1).unwrap_err();
        assert!(err.contains("index 1 out of range (1 records)"), "{err}");
        assert!(log.ordinals_to(7).is_err());

        let err = log.push(Some((usize::MAX, 0))).unwrap_err();
        assert!(err.contains(&format!("index {}", usize::MAX)), "{err}");
        let err = log.push(Some((0, 1 << 24))).unwrap_err();
        assert!(err.contains("ordinal 16777216"), "{err}");
        assert_eq!(log.len(), 1, "a refused record is not appended");

        let err = ParentLog::decode(&[0; 7]).unwrap_err();
        assert!(err.contains("8 bytes, got 7"), "{err}");
        // A record naming itself as parent would never terminate the walk.
        log.buf
            .extend_from_slice(&ParentLog::encode(Some((1, 0))).unwrap());
        let err = log.ordinals_to(1).unwrap_err();
        assert!(err.contains("not an earlier record"), "{err}");
    }
}
