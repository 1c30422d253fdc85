//! Settings, messages and local states of the Echo Multicast model.

use std::collections::BTreeMap;
use std::fmt;

use mp_model::{combine, plain_signature, Kind, Message, Permutable, Permutation, ProcessId};

/// Multicast payload values. Honest initiator `i` multicasts `10 + i`;
/// Byzantine initiator `b` equivocates between `100 + 2b` and `101 + 2b`.
pub type Value = u8;

/// An Echo Multicast setting `(HR, HI, BR, BI)`: honest receivers, honest
/// initiators, Byzantine receivers, Byzantine initiators (paper,
/// Section V-A "Protocol settings").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MulticastSetting {
    /// Number of honest receivers.
    pub honest_receivers: usize,
    /// Number of honest initiators.
    pub honest_initiators: usize,
    /// Number of Byzantine receivers.
    pub byzantine_receivers: usize,
    /// Number of Byzantine initiators.
    pub byzantine_initiators: usize,
}

impl MulticastSetting {
    /// Creates a setting; e.g. `MulticastSetting::new(3, 0, 1, 1)` is the
    /// paper's Echo Multicast (3,0,1,1).
    ///
    /// # Panics
    ///
    /// Panics if there are no receivers or no initiators at all.
    pub fn new(
        honest_receivers: usize,
        honest_initiators: usize,
        byzantine_receivers: usize,
        byzantine_initiators: usize,
    ) -> Self {
        assert!(
            honest_receivers + byzantine_receivers > 0,
            "a multicast setting needs at least one receiver"
        );
        assert!(
            honest_initiators + byzantine_initiators > 0,
            "a multicast setting needs at least one initiator"
        );
        MulticastSetting {
            honest_receivers,
            honest_initiators,
            byzantine_receivers,
            byzantine_initiators,
        }
    }

    /// Total number of receiver processes (honest + Byzantine).
    pub fn num_receivers(&self) -> usize {
        self.honest_receivers + self.byzantine_receivers
    }

    /// Total number of initiator processes.
    pub(crate) fn num_initiators(&self) -> usize {
        self.honest_initiators + self.byzantine_initiators
    }

    /// Total number of processes.
    pub fn num_processes(&self) -> usize {
        self.num_receivers() + self.num_initiators()
    }

    /// The number of Byzantine receivers the protocol is *configured* to
    /// tolerate: `f = floor((n - 1) / 3)` for `n` receivers. The "wrong
    /// agreement" experiments deliberately exceed this threshold with more
    /// actual Byzantine receivers.
    pub fn tolerated_faults(&self) -> usize {
        (self.num_receivers().saturating_sub(1)) / 3
    }

    /// The echo quorum size: more than `(n + f) / 2` distinct receivers must
    /// echo a value before it may be committed, which guarantees that two
    /// different values cannot both gather a quorum as long as at most `f`
    /// receivers are Byzantine.
    pub fn echo_quorum(&self) -> usize {
        (self.num_receivers() + self.tolerated_faults()) / 2 + 1
    }

    /// Process id of honest initiator `i`.
    pub(crate) fn honest_initiator(&self, i: usize) -> ProcessId {
        assert!(i < self.honest_initiators);
        ProcessId(i)
    }

    /// Process id of Byzantine initiator `i`.
    pub(crate) fn byzantine_initiator(&self, i: usize) -> ProcessId {
        assert!(i < self.byzantine_initiators);
        ProcessId(self.honest_initiators + i)
    }

    /// Process id of honest receiver `i`.
    pub(crate) fn honest_receiver(&self, i: usize) -> ProcessId {
        assert!(i < self.honest_receivers);
        ProcessId(self.num_initiators() + i)
    }

    /// Process id of Byzantine receiver `i`.
    pub(crate) fn byzantine_receiver(&self, i: usize) -> ProcessId {
        assert!(i < self.byzantine_receivers);
        ProcessId(self.num_initiators() + self.honest_receivers + i)
    }

    /// All receiver ids (honest first, then Byzantine).
    pub(crate) fn receiver_ids(&self) -> Vec<ProcessId> {
        (self.num_initiators()..self.num_processes())
            .map(ProcessId)
            .collect()
    }

    /// All honest receiver ids.
    pub(crate) fn honest_receiver_ids(&self) -> Vec<ProcessId> {
        (0..self.honest_receivers)
            .map(|i| self.honest_receiver(i))
            .collect()
    }

    /// All Byzantine receiver ids.
    pub(crate) fn byzantine_receiver_ids(&self) -> Vec<ProcessId> {
        (0..self.byzantine_receivers)
            .map(|i| self.byzantine_receiver(i))
            .collect()
    }

    /// The value multicast by honest initiator `i`.
    pub(crate) fn honest_value(&self, i: usize) -> Value {
        10 + i as Value
    }

    /// The two values a Byzantine initiator `i` equivocates between.
    pub(crate) fn byzantine_values(&self, i: usize) -> (Value, Value) {
        (100 + 2 * i as Value, 101 + 2 * i as Value)
    }

    /// The two halves of the honest receivers targeted by the equivocation
    /// attack: the first group receives the first value, the second group
    /// the other.
    pub(crate) fn attack_groups(&self) -> (Vec<ProcessId>, Vec<ProcessId>) {
        let honest = self.honest_receiver_ids();
        let split = honest.len().div_ceil(2);
        (honest[..split].to_vec(), honest[split..].to_vec())
    }
}

impl fmt::Display for MulticastSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{},{})",
            self.honest_receivers,
            self.honest_initiators,
            self.byzantine_receivers,
            self.byzantine_initiators
        )
    }
}

/// Echo Multicast messages.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MulticastMessage {
    /// The initiator proposes a payload to a receiver.
    Init {
        /// The initiator the multicast belongs to.
        initiator: ProcessId,
        /// The multicast payload.
        value: Value,
    },
    /// A receiver's signed echo, returned to the initiator.
    Echo {
        /// The initiator being echoed.
        initiator: ProcessId,
        /// The echoed payload.
        value: Value,
    },
    /// The initiator's commit, carrying (implicitly) the echo certificate.
    Commit {
        /// The initiator of the multicast.
        initiator: ProcessId,
        /// The committed payload.
        value: Value,
    },
}

mp_model::codec!(enum MulticastMessage {
    0 = Init { initiator, value },
    1 = Echo { initiator, value },
    2 = Commit { initiator, value },
});

impl Message for MulticastMessage {
    fn kind(&self) -> Kind {
        match self {
            MulticastMessage::Init { .. } => "INIT",
            MulticastMessage::Echo { .. } => "ECHO",
            MulticastMessage::Commit { .. } => "COMMIT",
        }
    }
}

// Multicast payloads name the initiator a message belongs to; symmetry
// reduction must rewrite that id along with the channel endpoints.
impl Permutable for MulticastMessage {
    fn permute(&self, perm: &Permutation) -> Self {
        match self {
            MulticastMessage::Init { initiator, value } => MulticastMessage::Init {
                initiator: perm.apply(*initiator),
                value: *value,
            },
            MulticastMessage::Echo { initiator, value } => MulticastMessage::Echo {
                initiator: perm.apply(*initiator),
                value: *value,
            },
            MulticastMessage::Commit { initiator, value } => MulticastMessage::Commit {
                initiator: perm.apply(*initiator),
                value: *value,
            },
        }
    }

    // The kind and the value; the initiator is what a permutation moves.
    fn signature(&self) -> u64 {
        let (MulticastMessage::Init { value, .. }
        | MulticastMessage::Echo { value, .. }
        | MulticastMessage::Commit { value, .. }) = self;
        plain_signature(&(self.kind(), value))
    }
}

/// Phases of an honest initiator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum InitiatorPhase {
    /// Not started.
    #[default]
    Idle,
    /// `INIT` was sent to every receiver.
    Sent,
    /// `COMMIT` was sent; the multicast is complete.
    Committed,
}

/// Local state of an honest initiator.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct HonestInitiatorState {
    /// Current phase.
    pub phase: InitiatorPhase,
    /// Echo buffer used by the single-message model (sender, value).
    pub echo_buffer: std::collections::BTreeSet<(ProcessId, Value)>,
}

/// Local state of a Byzantine (equivocating) initiator.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ByzantineInitiatorState {
    /// Whether the two conflicting `INIT`s have been sent.
    pub sent: bool,
    /// Whether the commit for the first value has been sent.
    pub committed_first: bool,
    /// Whether the commit for the second value has been sent.
    pub committed_second: bool,
    /// Echo buffer used by the single-message model (sender, value).
    pub echo_buffer: std::collections::BTreeSet<(ProcessId, Value)>,
}

/// Local state of an honest receiver.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct HonestReceiverState {
    /// The value this receiver echoed, per initiator (an honest receiver
    /// echoes at most one value per initiator).
    pub echoed: BTreeMap<ProcessId, Value>,
    /// The value this receiver delivered, per initiator.
    pub delivered: BTreeMap<ProcessId, Value>,
}

mp_model::codec!(enum InitiatorPhase { 0 = Idle, 1 = Sent, 2 = Committed });
mp_model::codec!(struct HonestInitiatorState { phase, echo_buffer });
mp_model::codec!(struct ByzantineInitiatorState {
    sent,
    committed_first,
    committed_second,
    echo_buffer,
});
mp_model::codec!(struct HonestReceiverState { echoed, delivered });

/// Local state of any Echo Multicast process.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MulticastState {
    /// An honest initiator.
    HonestInitiator(HonestInitiatorState),
    /// A Byzantine initiator.
    ByzantineInitiator(ByzantineInitiatorState),
    /// An honest receiver.
    HonestReceiver(HonestReceiverState),
    /// A Byzantine receiver (echoes anything; keeps no state).
    ByzantineReceiver,
}

mp_model::codec!(enum MulticastState {
    0 = HonestInitiator(state),
    1 = ByzantineInitiator(state),
    2 = HonestReceiver(state),
    3 = ByzantineReceiver,
});

// Per-initiator bookkeeping (echo buffers, echoed/delivered maps) is keyed
// by process id and must follow a permutation.
impl Permutable for MulticastState {
    fn permute(&self, perm: &Permutation) -> Self {
        match self {
            MulticastState::HonestInitiator(s) => {
                MulticastState::HonestInitiator(HonestInitiatorState {
                    phase: s.phase,
                    echo_buffer: s.echo_buffer.permute(perm),
                })
            }
            MulticastState::ByzantineInitiator(s) => {
                MulticastState::ByzantineInitiator(ByzantineInitiatorState {
                    sent: s.sent,
                    committed_first: s.committed_first,
                    committed_second: s.committed_second,
                    echo_buffer: s.echo_buffer.permute(perm),
                })
            }
            MulticastState::HonestReceiver(s) => {
                MulticastState::HonestReceiver(HonestReceiverState {
                    echoed: s.echoed.permute(perm),
                    delivered: s.delivered.permute(perm),
                })
            }
            MulticastState::ByzantineReceiver => MulticastState::ByzantineReceiver,
        }
    }

    // The role tag and plain data, plus the per-initiator bookkeeping's
    // own signatures.
    fn signature(&self) -> u64 {
        match self {
            MulticastState::HonestInitiator(s) => {
                combine(plain_signature(&(0u8, s.phase)), s.echo_buffer.signature())
            }
            MulticastState::ByzantineInitiator(s) => combine(
                plain_signature(&(1u8, s.sent, s.committed_first, s.committed_second)),
                s.echo_buffer.signature(),
            ),
            MulticastState::HonestReceiver(s) => combine(
                combine(plain_signature(&2u8), s.echoed.signature()),
                s.delivered.signature(),
            ),
            MulticastState::ByzantineReceiver => plain_signature(&3u8),
        }
    }
}

impl MulticastState {
    /// Returns the honest-initiator state.
    ///
    /// # Panics
    ///
    /// Panics if this is a different role.
    pub(crate) fn as_honest_initiator(&self) -> &HonestInitiatorState {
        match self {
            MulticastState::HonestInitiator(s) => s,
            other => panic!("expected an honest initiator, found {other:?}"),
        }
    }

    /// Returns the Byzantine-initiator state.
    ///
    /// # Panics
    ///
    /// Panics if this is a different role.
    pub(crate) fn as_byzantine_initiator(&self) -> &ByzantineInitiatorState {
        match self {
            MulticastState::ByzantineInitiator(s) => s,
            other => panic!("expected a Byzantine initiator, found {other:?}"),
        }
    }

    /// Returns the honest-receiver state.
    ///
    /// # Panics
    ///
    /// Panics if this is a different role.
    pub(crate) fn as_honest_receiver(&self) -> &HonestReceiverState {
        match self {
            MulticastState::HonestReceiver(s) => s,
            other => panic!("expected an honest receiver, found {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings_have_expected_quorums() {
        // (3,0,1,1): 4 receivers, f = 1, quorum = 3.
        let s = MulticastSetting::new(3, 0, 1, 1);
        assert_eq!(s.num_receivers(), 4);
        assert_eq!(s.tolerated_faults(), 1);
        assert_eq!(s.echo_quorum(), 3);
        assert!(s.byzantine_receivers <= s.tolerated_faults());
        // (2,1,0,1): 2 receivers, f = 0, quorum = 2 (all receivers).
        let s = MulticastSetting::new(2, 1, 0, 1);
        assert_eq!(s.echo_quorum(), 2);
        assert!(s.byzantine_receivers <= s.tolerated_faults());
        // (2,1,2,1): 4 receivers, f = 1 but 2 actual Byzantine receivers.
        let s = MulticastSetting::new(2, 1, 2, 1);
        assert_eq!(s.echo_quorum(), 3);
        assert!(s.byzantine_receivers > s.tolerated_faults());
        assert_eq!(s.to_string(), "(2,1,2,1)");
    }

    #[test]
    fn process_layout_is_contiguous() {
        let s = MulticastSetting::new(2, 1, 2, 1);
        assert_eq!(s.num_processes(), 6);
        assert_eq!(s.honest_initiator(0), ProcessId(0));
        assert_eq!(s.byzantine_initiator(0), ProcessId(1));
        assert_eq!(s.honest_receiver(0), ProcessId(2));
        assert_eq!(s.honest_receiver(1), ProcessId(3));
        assert_eq!(s.byzantine_receiver(0), ProcessId(4));
        assert_eq!(s.byzantine_receiver(1), ProcessId(5));
        assert_eq!(s.receiver_ids().len(), 4);
    }

    #[test]
    fn attack_groups_partition_honest_receivers() {
        let s = MulticastSetting::new(3, 0, 1, 1);
        let (a, b) = s.attack_groups();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        let mut all = a.clone();
        all.extend(b.clone());
        assert_eq!(all, s.honest_receiver_ids());
    }

    #[test]
    fn values_are_distinct() {
        let s = MulticastSetting::new(2, 2, 0, 2);
        assert_ne!(s.honest_value(0), s.honest_value(1));
        let (a0, b0) = s.byzantine_values(0);
        let (a1, b1) = s.byzantine_values(1);
        assert_ne!(a0, b0);
        assert_ne!(a0, a1);
        assert_ne!(b0, b1);
    }

    #[test]
    fn message_kinds() {
        let p = ProcessId(0);
        assert_eq!(
            MulticastMessage::Init {
                initiator: p,
                value: 1
            }
            .kind(),
            "INIT"
        );
        assert_eq!(
            MulticastMessage::Echo {
                initiator: p,
                value: 1
            }
            .kind(),
            "ECHO"
        );
        assert_eq!(
            MulticastMessage::Commit {
                initiator: p,
                value: 1
            }
            .kind(),
            "COMMIT"
        );
    }

    #[test]
    #[should_panic(expected = "at least one receiver")]
    fn zero_receivers_rejected() {
        MulticastSetting::new(0, 1, 0, 1);
    }
}
