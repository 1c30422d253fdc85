//! Settings, messages and local states of the Paxos model.

use std::collections::BTreeSet;
use std::fmt;

use mp_model::{combine, plain_signature, Kind, Message, Permutable, Permutation, ProcessId};

/// Ballot numbers; proposer `i` always uses ballot `i + 1`, so one ballot per
/// proposer keeps the model finite (the standard protocol-level abstraction
/// for single-decree Paxos).
pub(crate) type Ballot = u8;

/// Proposed values; proposer `i` proposes value `i + 1`.
pub type Value = u8;

/// A Paxos protocol setting `(P, A, L)`: the number of proposers, acceptors
/// and learners (paper, Section V-A "Protocol settings").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PaxosSetting {
    /// Number of proposer processes.
    pub proposers: usize,
    /// Number of acceptor processes.
    pub acceptors: usize,
    /// Number of learner processes.
    pub learners: usize,
}

impl PaxosSetting {
    /// Creates a setting; e.g. `PaxosSetting::new(2, 3, 1)` is the paper's
    /// Paxos (2,3,1).
    ///
    /// # Panics
    ///
    /// Panics if any count is zero: a meaningful instance needs at least one
    /// process of each type.
    pub fn new(proposers: usize, acceptors: usize, learners: usize) -> Self {
        assert!(
            proposers > 0 && acceptors > 0 && learners > 0,
            "a Paxos setting needs at least one process of each type"
        );
        PaxosSetting {
            proposers,
            acceptors,
            learners,
        }
    }

    /// Total number of processes.
    pub fn num_processes(&self) -> usize {
        self.proposers + self.acceptors + self.learners
    }

    /// A majority of the acceptors (the quorum size of both the `READ_REPL`
    /// and the learner `ACCEPT` transitions).
    pub fn majority(&self) -> usize {
        self.acceptors / 2 + 1
    }

    /// Process id of proposer `i`.
    pub(crate) fn proposer(&self, i: usize) -> ProcessId {
        assert!(i < self.proposers);
        ProcessId(i)
    }

    /// Process id of acceptor `i`.
    pub(crate) fn acceptor(&self, i: usize) -> ProcessId {
        assert!(i < self.acceptors);
        ProcessId(self.proposers + i)
    }

    /// Process id of learner `i`.
    pub(crate) fn learner(&self, i: usize) -> ProcessId {
        assert!(i < self.learners);
        ProcessId(self.proposers + self.acceptors + i)
    }

    /// All acceptor ids.
    pub(crate) fn acceptor_ids(&self) -> Vec<ProcessId> {
        (0..self.acceptors).map(|i| self.acceptor(i)).collect()
    }

    /// All learner ids.
    pub(crate) fn learner_ids(&self) -> Vec<ProcessId> {
        (0..self.learners).map(|i| self.learner(i)).collect()
    }

    /// The ballot used by proposer `i`.
    pub(crate) fn ballot_of(&self, i: usize) -> Ballot {
        (i + 1) as Ballot
    }

    /// The value proposed by proposer `i`.
    pub(crate) fn value_of(&self, i: usize) -> Value {
        (i + 1) as Value
    }
}

impl fmt::Display for PaxosSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{})",
            self.proposers, self.acceptors, self.learners
        )
    }
}

/// Whether the learners follow the protocol or contain the injected bug.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PaxosVariant {
    /// Learners require a majority of `ACCEPT` messages with the *same*
    /// ballot and value before learning.
    #[default]
    Correct,
    /// "Faulty Paxos": learners do not compare the values received from the
    /// acceptors — any majority of `ACCEPT` messages makes them learn every
    /// value in the quorum (paper, Section V-A "Fault injection").
    FaultyLearner,
}

/// Paxos messages (phases 1a/1b/2a/2b, named as in the paper).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PaxosMessage {
    /// Phase 1a: a proposer asks the acceptors what they have accepted.
    Read {
        /// The proposer's ballot.
        ballot: Ballot,
    },
    /// Phase 1b: an acceptor's promise, carrying its previously accepted
    /// (ballot, value) pair if any.
    ReadRepl {
        /// The ballot being answered.
        ballot: Ballot,
        /// The highest (ballot, value) pair the acceptor accepted so far.
        accepted: Option<(Ballot, Value)>,
    },
    /// Phase 2a: the proposer asks the acceptors to accept a value.
    Write {
        /// The proposer's ballot.
        ballot: Ballot,
        /// The value to accept.
        value: Value,
    },
    /// Phase 2b: an acceptor tells the learners it accepted a value.
    Accept {
        /// The ballot under which the value was accepted.
        ballot: Ballot,
        /// The accepted value.
        value: Value,
    },
}

mp_model::codec!(enum PaxosMessage {
    0 = Read { ballot },
    1 = ReadRepl { ballot, accepted },
    2 = Write { ballot, value },
    3 = Accept { ballot, value },
});

impl Message for PaxosMessage {
    fn kind(&self) -> Kind {
        match self {
            PaxosMessage::Read { .. } => "READ",
            PaxosMessage::ReadRepl { .. } => "READ_REPL",
            PaxosMessage::Write { .. } => "WRITE",
            PaxosMessage::Accept { .. } => "ACCEPT",
        }
    }
}

// Paxos messages carry ballots and values but no process ids (sender
// identity lives in the envelope, which the symmetry layer maps itself).
impl Permutable for PaxosMessage {
    fn permute(&self, _perm: &Permutation) -> Self {
        self.clone()
    }

    fn signature(&self) -> u64 {
        plain_signature(self)
    }
}

/// Proposer phases.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum ProposerPhase {
    /// The proposer has not started its ballot yet.
    #[default]
    Idle,
    /// `READ` was broadcast; waiting for a majority of `READ_REPL`.
    ReadSent,
    /// `WRITE` was broadcast; the proposer is done.
    WriteSent,
}

/// Local state of a proposer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProposerState {
    /// Current phase.
    pub phase: ProposerPhase,
    /// Replies buffered by the single-message model (sender index, reply
    /// payload); unused by the quorum model.
    pub read_replies: BTreeSet<(ProcessId, Option<(Ballot, Value)>)>,
}

/// Local state of an acceptor.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct AcceptorState {
    /// Highest ballot promised (0 = none).
    pub promised: Ballot,
    /// Highest (ballot, value) accepted so far.
    pub accepted: Option<(Ballot, Value)>,
}

/// Local state of a learner.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LearnerState {
    /// Every value this learner has learned (a correct learner's set never
    /// holds more than one distinct value).
    pub learned: BTreeSet<Value>,
    /// `ACCEPT` messages buffered by the single-message model
    /// (sender, ballot, value); unused by the quorum model.
    pub accept_buffer: BTreeSet<(ProcessId, Ballot, Value)>,
}

mp_model::codec!(enum ProposerPhase { 0 = Idle, 1 = ReadSent, 2 = WriteSent });
mp_model::codec!(struct ProposerState { phase, read_replies });
mp_model::codec!(struct AcceptorState { promised, accepted });
mp_model::codec!(struct LearnerState { learned, accept_buffer });

/// Local state of any Paxos process.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PaxosState {
    /// A proposer.
    Proposer(ProposerState),
    /// An acceptor.
    Acceptor(AcceptorState),
    /// A learner.
    Learner(LearnerState),
}

mp_model::codec!(enum PaxosState {
    0 = Proposer(state),
    1 = Acceptor(state),
    2 = Learner(state),
});

// Local states permute the process ids buffered by the single-message
// models (read replies and accept buffers record senders); everything else
// is plain data.
impl Permutable for PaxosState {
    fn permute(&self, perm: &Permutation) -> Self {
        match self {
            PaxosState::Proposer(p) => PaxosState::Proposer(ProposerState {
                phase: p.phase,
                read_replies: p.read_replies.permute(perm),
            }),
            PaxosState::Acceptor(a) => PaxosState::Acceptor(a.clone()),
            PaxosState::Learner(l) => PaxosState::Learner(LearnerState {
                learned: l.learned.clone(),
                accept_buffer: l.accept_buffer.permute(perm),
            }),
        }
    }

    // The role tag and plain data, plus the buffers' own signatures.
    fn signature(&self) -> u64 {
        match self {
            PaxosState::Proposer(p) => {
                combine(plain_signature(&(0u8, p.phase)), p.read_replies.signature())
            }
            PaxosState::Acceptor(a) => plain_signature(&(1u8, a)),
            PaxosState::Learner(l) => combine(
                plain_signature(&(2u8, &l.learned)),
                l.accept_buffer.signature(),
            ),
        }
    }
}

impl PaxosState {
    /// Returns the proposer state.
    ///
    /// # Panics
    ///
    /// Panics if this is not a proposer.
    pub(crate) fn as_proposer(&self) -> &ProposerState {
        match self {
            PaxosState::Proposer(p) => p,
            other => panic!("expected a proposer state, found {other:?}"),
        }
    }

    /// Returns the acceptor state.
    ///
    /// # Panics
    ///
    /// Panics if this is not an acceptor.
    pub(crate) fn as_acceptor(&self) -> &AcceptorState {
        match self {
            PaxosState::Acceptor(a) => a,
            other => panic!("expected an acceptor state, found {other:?}"),
        }
    }

    /// Returns the learner state.
    ///
    /// # Panics
    ///
    /// Panics if this is not a learner.
    pub(crate) fn as_learner(&self) -> &LearnerState {
        match self {
            PaxosState::Learner(l) => l,
            other => panic!("expected a learner state, found {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setting_layout_is_contiguous() {
        let s = PaxosSetting::new(2, 3, 1);
        assert_eq!(s.num_processes(), 6);
        assert_eq!(s.proposer(0), ProcessId(0));
        assert_eq!(s.proposer(1), ProcessId(1));
        assert_eq!(s.acceptor(0), ProcessId(2));
        assert_eq!(s.acceptor(2), ProcessId(4));
        assert_eq!(s.learner(0), ProcessId(5));
        assert_eq!(s.majority(), 2);
        assert_eq!(s.to_string(), "(2,3,1)");
    }

    #[test]
    fn ballots_and_values_are_per_proposer() {
        let s = PaxosSetting::new(2, 3, 1);
        assert_eq!(s.ballot_of(0), 1);
        assert_eq!(s.ballot_of(1), 2);
        assert_eq!(s.value_of(1), 2);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_acceptors_is_rejected() {
        PaxosSetting::new(1, 0, 1);
    }

    #[test]
    fn message_kinds_match_paper_names() {
        assert_eq!(PaxosMessage::Read { ballot: 1 }.kind(), "READ");
        assert_eq!(
            PaxosMessage::ReadRepl {
                ballot: 1,
                accepted: None
            }
            .kind(),
            "READ_REPL"
        );
        assert_eq!(
            PaxosMessage::Write {
                ballot: 1,
                value: 1
            }
            .kind(),
            "WRITE"
        );
        assert_eq!(
            PaxosMessage::Accept {
                ballot: 1,
                value: 1
            }
            .kind(),
            "ACCEPT"
        );
    }

    #[test]
    fn state_accessors_panic_on_wrong_role() {
        let p = PaxosState::Proposer(ProposerState::default());
        assert_eq!(p.as_proposer().phase, ProposerPhase::Idle);
        let result = std::panic::catch_unwind(|| p.as_acceptor().promised);
        assert!(result.is_err());
    }
}
