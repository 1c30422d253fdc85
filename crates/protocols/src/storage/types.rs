//! Settings, messages and local states of the regular storage model.

use std::collections::BTreeSet;
use std::fmt;

use mp_model::{combine, plain_signature, Kind, Message, Permutable, Permutation, ProcessId};

/// Timestamps of write operations (write `k` has timestamp `k`, the initial
/// value has timestamp 0).
pub(crate) type Timestamp = u8;

/// Stored values; write `k` writes value `k`.
pub type Value = u8;

/// A regular storage setting `(B, R)`: the number of base objects and
/// readers (paper, Section V-A "Protocol settings"). The protocol is
/// single-writer, so there is always exactly one writer process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StorageSetting {
    /// Number of base (storing) objects.
    pub base_objects: usize,
    /// Number of reader processes.
    pub readers: usize,
    /// Number of write operations the writer performs (2 in the paper-style
    /// workload: the interesting interleavings need at least two writes).
    pub writes: usize,
}

impl StorageSetting {
    /// Creates a setting with the default two-write workload; e.g.
    /// `StorageSetting::new(3, 1)` is the paper's Regular storage (3,1).
    ///
    /// # Panics
    ///
    /// Panics if there are no base objects or no readers.
    pub fn new(base_objects: usize, readers: usize) -> Self {
        Self::with_writes(base_objects, readers, 2)
    }

    /// Creates a setting with an explicit number of writes.
    ///
    /// # Panics
    ///
    /// Panics if there are no base objects, no readers, or no writes.
    pub(crate) fn with_writes(base_objects: usize, readers: usize, writes: usize) -> Self {
        assert!(
            base_objects > 0 && readers > 0 && writes > 0,
            "a storage setting needs base objects, readers and at least one write"
        );
        StorageSetting {
            base_objects,
            readers,
            writes,
        }
    }

    /// Total number of processes (writer + base objects + readers).
    pub fn num_processes(&self) -> usize {
        1 + self.base_objects + self.readers
    }

    /// A majority of the base objects — the quorum used by both write
    /// acknowledgements and read responses.
    pub fn majority(&self) -> usize {
        self.base_objects / 2 + 1
    }

    /// The writer's process id.
    pub(crate) fn writer(&self) -> ProcessId {
        ProcessId(0)
    }

    /// Process id of base object `i`.
    pub(crate) fn base_object(&self, i: usize) -> ProcessId {
        assert!(i < self.base_objects);
        ProcessId(1 + i)
    }

    /// Process id of reader `i`.
    pub(crate) fn reader(&self, i: usize) -> ProcessId {
        assert!(i < self.readers);
        ProcessId(1 + self.base_objects + i)
    }

    /// All base object ids.
    pub(crate) fn base_object_ids(&self) -> Vec<ProcessId> {
        (0..self.base_objects)
            .map(|i| self.base_object(i))
            .collect()
    }

    /// All reader ids.
    pub(crate) fn reader_ids(&self) -> Vec<ProcessId> {
        (0..self.readers).map(|i| self.reader(i)).collect()
    }

    /// Returns the reader index of a process id, if it is a reader.
    pub(crate) fn reader_index(&self, process: ProcessId) -> Option<usize> {
        let first = 1 + self.base_objects;
        if process.index() >= first && process.index() < first + self.readers {
            Some(process.index() - first)
        } else {
            None
        }
    }
}

impl fmt::Display for StorageSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.base_objects, self.readers)
    }
}

/// Regular storage messages.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StorageMessage {
    /// Writer asks a base object to store a timestamped value.
    Write {
        /// The timestamp of the write (1-based).
        ts: Timestamp,
        /// The value being written.
        value: Value,
    },
    /// A base object acknowledges a write.
    WriteAck {
        /// The timestamp being acknowledged.
        ts: Timestamp,
    },
    /// A reader asks a base object for its current contents.
    ReadReq,
    /// A base object answers a read request.
    ReadResp {
        /// The stored timestamp.
        ts: Timestamp,
        /// The stored value.
        value: Value,
    },
}

mp_model::codec!(enum StorageMessage {
    0 = Write { ts, value },
    1 = WriteAck { ts },
    2 = ReadReq,
    3 = ReadResp { ts, value },
});

impl Message for StorageMessage {
    fn kind(&self) -> Kind {
        match self {
            StorageMessage::Write { .. } => "WRITE",
            StorageMessage::WriteAck { .. } => "WRITE_ACK",
            StorageMessage::ReadReq => "READ_REQ",
            StorageMessage::ReadResp { .. } => "READ_RESP",
        }
    }
}

// Storage messages carry timestamps and values only.
impl Permutable for StorageMessage {
    fn permute(&self, _perm: &Permutation) -> Self {
        self.clone()
    }

    fn signature(&self) -> u64 {
        plain_signature(self)
    }
}

/// Local state of the writer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct WriterState {
    /// Number of completed writes.
    pub writes_done: Timestamp,
    /// `true` while a write is in progress (invoked, not yet acknowledged by
    /// a majority).
    pub writing: bool,
    /// Acknowledgement buffer used by the single-message model.
    pub ack_buffer: BTreeSet<ProcessId>,
}

/// Local state of a base object.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BaseObjectState {
    /// Highest timestamp stored.
    pub ts: Timestamp,
    /// The value stored with that timestamp.
    pub value: Value,
}

/// Phases of a reader.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum ReaderPhase {
    /// The read has not been invoked yet.
    #[default]
    Idle,
    /// The read request was sent to every base object.
    Reading,
    /// The read completed.
    Done,
}

/// Local state of a reader.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ReaderState {
    /// Current phase.
    pub phase: ReaderPhase,
    /// The (timestamp, value) the completed read returned.
    pub result: Option<(Timestamp, Value)>,
    /// Response buffer used by the single-message model
    /// (base object, timestamp, value).
    pub resp_buffer: BTreeSet<(ProcessId, Timestamp, Value)>,
}

mp_model::codec!(struct WriterState { writes_done, writing, ack_buffer });
mp_model::codec!(struct BaseObjectState { ts, value });
mp_model::codec!(enum ReaderPhase { 0 = Idle, 1 = Reading, 2 = Done });
mp_model::codec!(struct ReaderState { phase, result, resp_buffer });

/// Local state of any storage process.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StorageState {
    /// The single writer.
    Writer(WriterState),
    /// A base (storing) object.
    BaseObject(BaseObjectState),
    /// A reader.
    Reader(ReaderState),
}

mp_model::codec!(enum StorageState {
    0 = Writer(state),
    1 = BaseObject(state),
    2 = Reader(state),
});

// The single-message models buffer sender ids (write acknowledgements and
// read responses); symmetry reduction rewrites them with the permutation.
impl Permutable for StorageState {
    fn permute(&self, perm: &Permutation) -> Self {
        match self {
            StorageState::Writer(w) => StorageState::Writer(WriterState {
                writes_done: w.writes_done,
                writing: w.writing,
                ack_buffer: w.ack_buffer.permute(perm),
            }),
            StorageState::BaseObject(b) => StorageState::BaseObject(b.clone()),
            StorageState::Reader(r) => StorageState::Reader(ReaderState {
                phase: r.phase,
                result: r.result,
                resp_buffer: r.resp_buffer.permute(perm),
            }),
        }
    }

    // The role tag and plain data, plus the buffers' own signatures.
    fn signature(&self) -> u64 {
        match self {
            StorageState::Writer(w) => combine(
                plain_signature(&(0u8, w.writes_done, w.writing)),
                w.ack_buffer.signature(),
            ),
            StorageState::BaseObject(b) => plain_signature(&(1u8, b)),
            StorageState::Reader(r) => combine(
                plain_signature(&(2u8, r.phase, r.result)),
                r.resp_buffer.signature(),
            ),
        }
    }
}

impl StorageState {
    /// Returns the writer state.
    ///
    /// # Panics
    ///
    /// Panics if this is a different role.
    pub(crate) fn as_writer(&self) -> &WriterState {
        match self {
            StorageState::Writer(w) => w,
            other => panic!("expected the writer, found {other:?}"),
        }
    }

    /// Returns the base-object state.
    ///
    /// # Panics
    ///
    /// Panics if this is a different role.
    pub(crate) fn as_base_object(&self) -> &BaseObjectState {
        match self {
            StorageState::BaseObject(b) => b,
            other => panic!("expected a base object, found {other:?}"),
        }
    }

    /// Returns the reader state.
    ///
    /// # Panics
    ///
    /// Panics if this is a different role.
    pub(crate) fn as_reader(&self) -> &ReaderState {
        match self {
            StorageState::Reader(r) => r,
            other => panic!("expected a reader, found {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_majority() {
        let s = StorageSetting::new(3, 2);
        assert_eq!(s.num_processes(), 6);
        assert_eq!(s.majority(), 2);
        assert_eq!(s.writer(), ProcessId(0));
        assert_eq!(s.base_object(0), ProcessId(1));
        assert_eq!(s.base_object(2), ProcessId(3));
        assert_eq!(s.reader(0), ProcessId(4));
        assert_eq!(s.reader(1), ProcessId(5));
        assert_eq!(s.writes, 2);
        assert_eq!(s.to_string(), "(3,2)");
    }

    #[test]
    fn reader_index_resolution() {
        let s = StorageSetting::new(3, 2);
        assert_eq!(s.reader_index(ProcessId(4)), Some(0));
        assert_eq!(s.reader_index(ProcessId(5)), Some(1));
        assert_eq!(s.reader_index(ProcessId(0)), None);
        assert_eq!(s.reader_index(ProcessId(3)), None);
    }

    #[test]
    fn message_kinds() {
        assert_eq!(StorageMessage::Write { ts: 1, value: 1 }.kind(), "WRITE");
        assert_eq!(StorageMessage::WriteAck { ts: 1 }.kind(), "WRITE_ACK");
        assert_eq!(StorageMessage::ReadReq.kind(), "READ_REQ");
        assert_eq!(
            StorageMessage::ReadResp { ts: 0, value: 0 }.kind(),
            "READ_RESP"
        );
    }

    #[test]
    #[should_panic(expected = "base objects")]
    fn zero_base_objects_rejected() {
        StorageSetting::new(0, 1);
    }
}
