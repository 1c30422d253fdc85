//! Enumeration of enabled transition instances ("enabled sets of messages").
//!
//! MP-Basset extends Basset's notion of an *enabled message* to an *enabled
//! set of messages* (paper, Section IV-A): a set `X` of messages is enabled
//! in state `s` if there is a transition `t` and a state `s'` such that
//! `s --t(X)--> s'`. A [`TransitionInstance`] is such a pair of a transition
//! and a concrete message set.
//!
//! The paper notes that in the worst case the enabled sets form the powerset
//! of all pending messages. The common case in fault-tolerant protocols,
//! however, is the *exact quorum transition* (Definition 2), which consumes
//! exactly `q` messages from `q` distinct senders; for those the enumeration
//! walks combinations of senders instead of the full powerset. Unbounded
//! [`QuorumSpec::AtLeast`]/[`QuorumSpec::Between`] transitions fall back to
//! enumerating all admissible sender-set sizes and are subject to a safety
//! valve: more than 2²⁰ candidate message sets for one transition in one
//! state panics.

use std::fmt;

use crate::channel::Pending;
use crate::{
    Envelope, GlobalState, InputSpec, Kind, LocalState, Message, ProcessId, ProtocolSpec,
    QuorumSpec, TransitionId, TransitionSpec,
};

/// A transition together with the concrete set of messages it consumes.
///
/// Instances are the unit scheduled by the model checker: executing an
/// instance consumes exactly `envelopes` from the incoming channels of
/// `process` and applies the transition's effect.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionInstance<M> {
    /// The transition being executed.
    pub transition: TransitionId,
    /// The process executing the transition.
    pub process: ProcessId,
    /// The messages consumed, in canonical (sorted) order; empty for
    /// internal transitions.
    pub envelopes: Vec<Envelope<M>>,
}

impl<M: Message> TransitionInstance<M> {
    /// Creates an instance, canonicalising the envelope order.
    pub fn new(
        transition: TransitionId,
        process: ProcessId,
        mut envelopes: Vec<Envelope<M>>,
    ) -> Self {
        envelopes.sort();
        TransitionInstance {
            transition,
            process,
            envelopes,
        }
    }

    /// Returns `senders(X)` for this instance: the distinct senders of the
    /// consumed messages.
    pub fn senders(&self) -> Vec<ProcessId> {
        crate::message::senders(&self.envelopes)
    }

    /// Returns `true` if this instance consumes messages from more than one
    /// sender, i.e. it is an execution of a quorum transition in the sense
    /// of Section II-A.
    pub fn is_quorum_execution(&self) -> bool {
        self.senders().len() > 1
    }
}

// Instances are the payload of the spillable parent-pointer tables the BFS
// engine rebuilds counterexample paths from.
impl<M: crate::Encode> crate::Encode for TransitionInstance<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.transition.encode(out);
        self.process.encode(out);
        self.envelopes.encode(out);
    }
}

impl<M: crate::Decode> crate::Decode for TransitionInstance<M> {
    fn decode(input: &mut &[u8]) -> Result<Self, crate::DecodeError> {
        Ok(TransitionInstance {
            transition: TransitionId::decode(input)?,
            process: ProcessId::decode(input)?,
            envelopes: Vec::decode(input)?,
        })
    }
}

impl<M: fmt::Debug> fmt::Debug for TransitionInstance<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}{:?}",
            self.transition, self.process, self.envelopes
        )
    }
}

/// Candidate message sets one quorum transition may generate in one state
/// before enumeration panics: the exponential worst case of an unbounded
/// quorum specification is a modelling mistake, and silently dropping
/// behaviours would be worse.
const MAX_CANDIDATES_PER_TRANSITION: usize = 1 << 20;

/// Enumerates all enabled instances of all transitions in `state`.
///
/// The result is deterministic: instances are produced in transition-id order
/// and, within a transition, in canonical message-set order.
pub fn enabled_instances<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &GlobalState<S, M>,
) -> Vec<TransitionInstance<M>> {
    let mut out = Vec::new();
    let mut scratch = QuorumScratch::default();
    for (id, _) in spec.transitions() {
        enabled_instances_of_into(spec, state, id, &mut scratch, &mut out);
    }
    out
}

/// Enumerates the enabled instances of a single transition in `state`.
pub fn enabled_instances_of<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &GlobalState<S, M>,
    transition: TransitionId,
) -> Vec<TransitionInstance<M>> {
    let mut out = Vec::new();
    enabled_instances_of_into(
        spec,
        state,
        transition,
        &mut QuorumScratch::default(),
        &mut out,
    );
    out
}

/// Returns `true` if `transition` has at least one enabled instance in
/// `state`, without materialising every instance.
pub fn is_enabled<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &GlobalState<S, M>,
    transition: TransitionId,
) -> bool {
    !enabled_instances_of(spec, state, transition).is_empty()
}

fn enabled_instances_of_into<'a, S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &'a GlobalState<S, M>,
    transition: TransitionId,
    scratch: &mut QuorumScratch<'a, M>,
    out: &mut Vec<TransitionInstance<M>>,
) {
    let t = spec.transition(transition);
    let process = t.process();
    // Most transitions of most states have an empty inbox: decide that from
    // the channel slice before paying for the enable filter or the guard.
    let pending: &'a [Pending<M>] = match t.input() {
        InputSpec::Internal => &[],
        InputSpec::Single { .. } | InputSpec::Quorum { .. } => {
            let pending = state.channels.incoming(process);
            if pending.is_empty() {
                return;
            }
            pending
        }
    };
    if !spec.admits(state, t) {
        // A global enable filter (e.g. an exhausted fault budget in
        // `mp-faults`) vetoes the transition in this state.
        return;
    }
    let local = state.local(process);
    // Entries the transition may consume: right kind, admissible sender. The
    // slice is sorted by `(sender, payload)`, and so is everything below.
    let consumable = |kind: Kind| {
        pending
            .iter()
            .filter(move |e| e.payload.kind() == kind && t.may_receive_from(e.sender))
    };
    match t.input() {
        InputSpec::Internal => {
            if t.guard_holds(local, &[]) {
                out.push(TransitionInstance::new(transition, process, Vec::new()));
            }
        }
        InputSpec::Single { kind } => {
            for entry in consumable(kind) {
                let env = Envelope::new(entry.sender, entry.payload.clone());
                if t.guard_holds(local, std::slice::from_ref(&env)) {
                    out.push(TransitionInstance::new(transition, process, vec![env]));
                }
            }
        }
        InputSpec::Quorum { kind, quorum } => {
            scratch.group_by_sender(consumable(kind));
            scratch.enumerate(t, transition, local, *quorum, out);
        }
    }
}

/// Working storage of the quorum enumeration, allocated at most once per
/// [`enabled_instances`] call and reused by every quorum transition of the
/// state.
struct QuorumScratch<'a, M> {
    /// The consumable entries of the current transition, sender-major.
    entries: Vec<&'a Pending<M>>,
    /// One range of `entries` per distinct sender, in sender order.
    groups: Vec<std::ops::Range<usize>>,
    /// The current candidate: per chosen sender its index in `groups` and
    /// the offset of the chosen payload inside that group.
    chosen: Vec<(usize, usize)>,
}

impl<M> Default for QuorumScratch<'_, M> {
    fn default() -> Self {
        QuorumScratch {
            entries: Vec::new(),
            groups: Vec::new(),
            chosen: Vec::new(),
        }
    }
}

impl<'a, M: Message> QuorumScratch<'a, M> {
    fn group_by_sender(&mut self, consumable: impl Iterator<Item = &'a Pending<M>>) {
        self.entries.clear();
        self.groups.clear();
        for entry in consumable {
            let at = self.entries.len();
            match self.groups.last_mut() {
                Some(group) if self.entries[group.start].sender == entry.sender => {
                    group.end = at + 1;
                }
                _ => self.groups.push(at..at + 1),
            }
            self.entries.push(entry);
        }
    }

    /// Pushes every enabled instance of the quorum transition `t` over the
    /// grouped entries: one message per chosen sender (Definition 2 of the
    /// paper; multiplicities above one are irrelevant because a step
    /// consumes at most one copy of a payload per sender), for every
    /// admissible quorum size ascending, every sender combination in
    /// lexicographic order and — where a sender has several distinct
    /// payloads of the kind pending — every payload choice, the first
    /// sender's choice most significant.
    fn enumerate<S: LocalState>(
        &mut self,
        t: &TransitionSpec<S, M>,
        transition: TransitionId,
        local: &S,
        quorum: QuorumSpec,
        out: &mut Vec<TransitionInstance<M>>,
    ) {
        let QuorumScratch {
            entries,
            groups,
            chosen,
        } = self;
        let senders = groups.len();
        let max_size = quorum.max_senders().unwrap_or(senders).min(senders);
        let mut candidates_generated = 0usize;
        // Validated specs never ask for an empty quorum.
        for size in quorum.min_senders().max(1)..=max_size {
            if !quorum.admits(size) {
                continue;
            }
            chosen.clear();
            chosen.extend((0..size).map(|group| (group, 0)));
            loop {
                candidates_generated += 1;
                assert!(
                    candidates_generated <= MAX_CANDIDATES_PER_TRANSITION,
                    "transition `{}` generated more than {} candidate message sets in one state; \
                     tighten its quorum specification",
                    t.name(),
                    MAX_CANDIDATES_PER_TRANSITION
                );
                let envelopes: Vec<Envelope<M>> = chosen
                    .iter()
                    .map(|&(group, offset)| {
                        let entry = entries[groups[group].start + offset];
                        Envelope::new(entry.sender, entry.payload.clone())
                    })
                    .collect();
                if t.guard_holds(local, &envelopes) {
                    out.push(TransitionInstance::new(transition, t.process(), envelopes));
                }
                // Next payload choice (an odometer, last sender fastest) ...
                let more_payloads = chosen.iter_mut().rev().any(|(group, offset)| {
                    *offset += 1;
                    if *offset < groups[*group].len() {
                        return true;
                    }
                    *offset = 0;
                    false
                });
                if more_payloads {
                    continue;
                }
                // ... and once those wrapped, the next sender combination:
                // advance the last position that is not yet at its final
                // value and restart everything after it.
                let Some(i) = (0..size).rfind(|&i| chosen[i].0 != i + senders - size) else {
                    break;
                };
                let next = chosen[i].0 + 1;
                for (k, slot) in chosen[i..].iter_mut().enumerate() {
                    *slot = (next + k, 0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, ProtocolSpec, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Vote(u8),
        Other,
    }
    crate::codec!(enum Msg { 0 = Vote(n), 1 = Other });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Vote(_) => "VOTE",
                Msg::Other => "OTHER",
            }
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// Protocol: process 0 collects VOTE messages; processes 1..=3 are voters
    /// (they have a trivial internal transition so the protocol validates).
    fn collector_protocol(quorum: QuorumSpec) -> ProtocolSpec<u32, Msg> {
        let mut b = ProtocolSpec::builder("collector");
        b = b.process("collector", 0u32);
        b = b.process("v1", 0).process("v2", 0).process("v3", 0);
        b = b.transition(
            TransitionSpec::builder("COLLECT", p(0))
                .quorum_input("VOTE", quorum)
                .effect(|l, msgs| Outcome::new(l + msgs.len() as u32))
                .build(),
        );
        b = b.transition(
            TransitionSpec::builder("NOOP", p(1))
                .internal()
                .guard(|_, _| false)
                .effect(|l, _| Outcome::new(*l))
                .build(),
        );
        b.build().unwrap()
    }

    fn state_with_votes(senders: &[usize]) -> GlobalState<u32, Msg> {
        let mut s = GlobalState::new(vec![0u32, 0, 0, 0]);
        for &i in senders {
            s.channels.send(p(i), p(0), Msg::Vote(i as u8));
        }
        s
    }

    /// The `(sender, vote)` pairs an instance consumes, for golden lists.
    fn votes(instance: &TransitionInstance<Msg>) -> Vec<(usize, u8)> {
        instance
            .envelopes
            .iter()
            .map(|e| match e.payload {
                Msg::Vote(v) => (e.sender.index(), v),
                Msg::Other => unreachable!("COLLECT consumes votes only"),
            })
            .collect()
    }

    #[test]
    fn combinations_enumeration() {
        let state = state_with_votes(&[1, 2, 3]);
        let count = |q| enabled_instances(&collector_protocol(QuorumSpec::Exact(q)), &state).len();
        assert_eq!(count(1), 3);
        assert_eq!(count(2), 3);
        assert_eq!(count(3), 1);
        // Sender combinations come out in lexicographic order.
        let pairs: Vec<_> = enabled_instances(&collector_protocol(QuorumSpec::Exact(2)), &state)
            .iter()
            .map(votes)
            .collect();
        assert_eq!(
            pairs,
            vec![
                vec![(1, 1), (2, 2)],
                vec![(1, 1), (3, 3)],
                vec![(2, 2), (3, 3)]
            ]
        );
    }

    #[test]
    fn payload_choices_step_like_an_odometer() {
        // 2 payloads from p1 × 1 from p2 × 3 from p3 (one of them twice: the
        // multiplicity must not multiply the choices).
        let mut s = state_with_votes(&[1, 2, 3]);
        s.channels.send(p(1), p(0), Msg::Vote(9));
        s.channels.send(p(3), p(0), Msg::Vote(7));
        s.channels.send(p(3), p(0), Msg::Vote(8));
        s.channels.send(p(3), p(0), Msg::Vote(8));
        let triples: Vec<_> = enabled_instances(&collector_protocol(QuorumSpec::Exact(3)), &s)
            .iter()
            .map(votes)
            .collect();
        // The first sender's choice is the most significant digit.
        assert_eq!(
            triples,
            vec![
                vec![(1, 1), (2, 2), (3, 3)],
                vec![(1, 1), (2, 2), (3, 7)],
                vec![(1, 1), (2, 2), (3, 8)],
                vec![(1, 9), (2, 2), (3, 3)],
                vec![(1, 9), (2, 2), (3, 7)],
                vec![(1, 9), (2, 2), (3, 8)],
            ]
        );
    }

    #[test]
    fn unbounded_quorums_list_sizes_ascending() {
        let mut s = state_with_votes(&[1, 3]);
        s.channels.send(p(3), p(0), Msg::Vote(4));
        s.channels.send(p(2), p(0), Msg::Other);
        let listed = |quorum| -> Vec<_> {
            enabled_instances(&collector_protocol(quorum), &s)
                .iter()
                .map(votes)
                .collect()
        };
        let singles = vec![vec![(1, 1)], vec![(3, 3)], vec![(3, 4)]];
        let pairs = vec![vec![(1, 1), (3, 3)], vec![(1, 1), (3, 4)]];
        assert_eq!(
            listed(QuorumSpec::AtLeast(1)),
            [singles.clone(), pairs.clone()].concat()
        );
        assert_eq!(listed(QuorumSpec::Between { min: 2, max: 3 }), pairs);
        assert_eq!(listed(QuorumSpec::Between { min: 1, max: 1 }), singles);
        assert!(listed(QuorumSpec::AtLeast(3)).is_empty());
    }

    #[test]
    fn enable_filter_is_not_consulted_for_an_empty_inbox() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let proto = collector_protocol(QuorumSpec::Exact(2)).with_enable_filter(
            move |_: &GlobalState<u32, Msg>, _: &TransitionSpec<u32, Msg>| {
                seen.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        assert!(enabled_instances(&proto, &state_with_votes(&[])).is_empty());
        // Only the internal NOOP reaches the filter: COLLECT has no mail.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(
            enabled_instances(&proto, &state_with_votes(&[1, 2])).len(),
            1
        );
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn exact_quorum_instances_enumerate_sender_pairs() {
        let proto = collector_protocol(QuorumSpec::Exact(2));
        let state = state_with_votes(&[1, 2, 3]);
        let instances = enabled_instances(&proto, &state);
        // Three acceptor pairs: {1,2}, {1,3}, {2,3}; the NOOP guard is false.
        assert_eq!(instances.len(), 3);
        assert!(instances.iter().all(|i| i.envelopes.len() == 2));
        assert!(instances.iter().all(|i| i.is_quorum_execution()));
    }

    #[test]
    fn exact_quorum_needs_enough_senders() {
        let proto = collector_protocol(QuorumSpec::Exact(2));
        let state = state_with_votes(&[2]);
        assert!(enabled_instances(&proto, &state).is_empty());
        assert!(!is_enabled(&proto, &state, TransitionId(0)));
    }

    #[test]
    fn at_least_quorum_enumerates_all_admissible_sizes() {
        let proto = collector_protocol(QuorumSpec::AtLeast(2));
        let state = state_with_votes(&[1, 2, 3]);
        let instances = enabled_instances(&proto, &state);
        // Size-2 sets: 3, size-3 sets: 1.
        assert_eq!(instances.len(), 4);
    }

    #[test]
    fn between_quorum_respects_bounds() {
        let proto = collector_protocol(QuorumSpec::Between { min: 1, max: 2 });
        let state = state_with_votes(&[1, 2, 3]);
        let instances = enabled_instances(&proto, &state);
        // Size-1 sets: 3, size-2 sets: 3.
        assert_eq!(instances.len(), 6);
    }

    #[test]
    fn guard_filters_instances() {
        let mut b = ProtocolSpec::builder("guarded");
        b = b
            .process("collector", 0u32)
            .process("v1", 0)
            .process("v2", 0);
        b = b.transition(
            TransitionSpec::builder("COLLECT", p(0))
                .quorum_input("VOTE", QuorumSpec::Exact(2))
                .guard(|_, msgs| {
                    msgs.iter()
                        .all(|e| matches!(e.payload, Msg::Vote(v) if v > 0))
                })
                .effect(|l, _| Outcome::new(*l))
                .build(),
        );
        let proto = b.build().unwrap();
        let mut s = GlobalState::new(vec![0u32, 0, 0]);
        s.channels.send(p(1), p(0), Msg::Vote(0));
        s.channels.send(p(2), p(0), Msg::Vote(5));
        assert!(enabled_instances(&proto, &s).is_empty());
        let mut s2 = GlobalState::new(vec![0u32, 0, 0]);
        s2.channels.send(p(1), p(0), Msg::Vote(1));
        s2.channels.send(p(2), p(0), Msg::Vote(5));
        assert_eq!(enabled_instances(&proto, &s2).len(), 1);
    }

    #[test]
    fn allowed_senders_restrict_instances() {
        let mut b = ProtocolSpec::builder("restricted");
        b = b
            .process("collector", 0u32)
            .process("v1", 0)
            .process("v2", 0)
            .process("v3", 0);
        b = b.transition(
            TransitionSpec::builder("COLLECT_12", p(0))
                .quorum_input("VOTE", QuorumSpec::Exact(2))
                .allowed_senders([p(1), p(2)])
                .effect(|l, _| Outcome::new(*l))
                .build(),
        );
        let proto = b.build().unwrap();
        let state = state_with_votes(&[1, 2, 3]);
        let instances = enabled_instances(&proto, &state);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].senders(), vec![p(1), p(2)]);
    }

    #[test]
    fn multiple_payloads_per_sender_multiply_choices() {
        let proto = collector_protocol(QuorumSpec::Exact(2));
        let mut s = GlobalState::new(vec![0u32, 0, 0, 0]);
        s.channels.send(p(1), p(0), Msg::Vote(1));
        s.channels.send(p(1), p(0), Msg::Vote(9));
        s.channels.send(p(2), p(0), Msg::Vote(2));
        let instances = enabled_instances(&proto, &s);
        // Sender set {1,2}: 2 payload choices for p1 × 1 for p2.
        assert_eq!(instances.len(), 2);
    }

    #[test]
    fn wrong_kind_messages_are_ignored() {
        let proto = collector_protocol(QuorumSpec::Exact(2));
        let mut s = GlobalState::new(vec![0u32, 0, 0, 0]);
        s.channels.send(p(1), p(0), Msg::Other);
        s.channels.send(p(2), p(0), Msg::Vote(2));
        assert!(enabled_instances(&proto, &s).is_empty());
    }

    #[test]
    fn internal_transitions_respect_guards() {
        let mut b = ProtocolSpec::builder("internal");
        b = b.process("a", 0u32);
        b = b.transition(
            TransitionSpec::builder("START", p(0))
                .internal()
                .guard(|l, _| *l == 0)
                .effect(|l, _| Outcome::new(l + 1))
                .build(),
        );
        let proto = b.build().unwrap();
        let s0: GlobalState<u32, Msg> = GlobalState::new(vec![0]);
        assert_eq!(enabled_instances(&proto, &s0).len(), 1);
        let s1: GlobalState<u32, Msg> = GlobalState::new(vec![1]);
        assert!(enabled_instances(&proto, &s1).is_empty());
    }

    #[test]
    fn instance_canonicalises_envelope_order() {
        let a = TransitionInstance::new(
            TransitionId(0),
            p(0),
            vec![
                Envelope::new(p(2), Msg::Vote(2)),
                Envelope::new(p(1), Msg::Vote(1)),
            ],
        );
        let b = TransitionInstance::new(
            TransitionId(0),
            p(0),
            vec![
                Envelope::new(p(1), Msg::Vote(1)),
                Envelope::new(p(2), Msg::Vote(2)),
            ],
        );
        assert_eq!(a, b);
    }
}
