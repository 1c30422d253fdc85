//! Conservative static analysis used by the refinement strategies.
//!
//! Quorum-split "can be further reduced by ruling out a process `i` that
//! never sends messages consumed by `t`" (paper, Section III-C,
//! Implementation). This module computes, for a transition, the set of
//! processes that could possibly send it a message, based on the Table-IV
//! style annotations of the other transitions. When annotations are missing
//! the analysis is conservative (the process is assumed to be a possible
//! sender), which can only make the split coarser, never unsound.

use std::collections::BTreeSet;

use mp_model::{
    InputSpec, Kind, LocalState, Message, ProcessId, ProtocolSpec, RecipientSet, TransitionId,
    TransitionSpec,
};

/// Returns the set of processes that may send a message consumed by
/// `transition`, i.e. the candidate members of its quorums.
pub fn candidate_senders<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    transition: TransitionId,
) -> BTreeSet<ProcessId> {
    let target = spec.transition(transition);
    let Some(kind) = target.input_kind() else {
        return BTreeSet::new();
    };
    let mut senders = BTreeSet::new();
    for process in spec.processes() {
        if process == target.process() {
            // A process never sends to itself in the message-passing model of
            // the paper (channels are between distinct processes in all its
            // examples); ruling it out matches the Paxos discussion where a
            // proposer never sends to another proposer.
            continue;
        }
        if !target.may_receive_from(process) {
            continue;
        }
        let could_send = spec
            .transitions_of(process)
            .iter()
            .any(|tid| may_send_kind_to(spec.transition(*tid), kind, target.process()));
        if could_send {
            senders.insert(process);
        }
    }
    senders
}

/// Returns `true` if transition `t` may send a message of `kind` to
/// `recipient`, interpreting missing annotations conservatively.
pub(crate) fn may_send_kind_to<S: LocalState, M: Message>(
    t: &TransitionSpec<S, M>,
    kind: Kind,
    recipient: ProcessId,
) -> bool {
    let ann = t.annotations();
    if matches!(ann.recipients, RecipientSet::None) {
        return false;
    }
    if !ann.recipients.may_send_to(recipient, t.allowed_senders()) {
        return false;
    }
    if ann.messages_out.is_empty() {
        return true;
    }
    ann.messages_out.contains(&kind)
}

/// Returns `true` if `t` is a single-message reply transition in the sense
/// of Definition 4, detectable from its annotations: it consumes exactly one
/// message and only sends to the senders of its input.
pub(crate) fn is_reply_transition<S: LocalState, M: Message>(t: &TransitionSpec<S, M>) -> bool {
    t.annotations().is_reply
        && matches!(
            t.annotations().recipients,
            RecipientSet::SendersOfInput | RecipientSet::None
        )
        && matches!(
            t.input(),
            InputSpec::Single { .. } | InputSpec::Quorum { .. }
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Outcome, QuorumSpec, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Vote,
        Other,
    }
    mp_model::codec!(enum Msg { 0 = Vote, 1 = Other });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Vote => "VOTE",
                Msg::Other => "OTHER",
            }
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn spec() -> ProtocolSpec<u8, Msg> {
        ProtocolSpec::builder("s")
            .process("collector", 0u8)
            .process("voter", 0u8)
            .process("silent", 0u8)
            .process("other-sender", 0u8)
            .transition(
                TransitionSpec::builder("VOTE", p(1))
                    .internal()
                    .sends(&["VOTE"])
                    .sends_to([p(0)])
                    .effect(|_, _| Outcome::new(1).send(p(0), Msg::Vote))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("SILENT", p(2))
                    .internal()
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("OTHER", p(3))
                    .internal()
                    .sends(&["OTHER"])
                    .sends_to([p(0)])
                    .effect(|_, _| Outcome::new(1).send(p(0), Msg::Other))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("COLLECT", p(0))
                    .quorum_input("VOTE", QuorumSpec::Exact(1))
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn candidate_senders_excludes_silent_and_wrong_kind() {
        let s = spec();
        let collect = s.transition_by_name("COLLECT").unwrap();
        let senders = candidate_senders(&s, collect);
        assert!(senders.contains(&p(1)), "the voter is a candidate");
        assert!(!senders.contains(&p(2)), "silent processes are excluded");
        assert!(!senders.contains(&p(3)), "wrong-kind senders are excluded");
        assert!(!senders.contains(&p(0)), "self is excluded");
    }

    #[test]
    fn internal_transition_has_no_candidate_senders() {
        let s = spec();
        let vote = s.transition_by_name("VOTE").unwrap();
        assert!(candidate_senders(&s, vote).is_empty());
    }

    #[test]
    fn may_send_kind_to_respects_annotations() {
        let s = spec();
        let vote = s.transition(s.transition_by_name("VOTE").unwrap());
        assert!(may_send_kind_to(vote, "VOTE", p(0)));
        assert!(!may_send_kind_to(vote, "VOTE", p(2)));
        assert!(!may_send_kind_to(vote, "OTHER", p(0)));
        let silent = s.transition(s.transition_by_name("SILENT").unwrap());
        assert!(!may_send_kind_to(silent, "VOTE", p(0)));
    }

    #[test]
    fn reply_detection() {
        let reply: TransitionSpec<u8, Msg> = TransitionSpec::builder("R", p(0))
            .single_input("VOTE")
            .reply()
            .effect(|l, _| Outcome::new(*l))
            .build();
        assert!(is_reply_transition(&reply));
        let not_reply: TransitionSpec<u8, Msg> = TransitionSpec::builder("N", p(0))
            .single_input("VOTE")
            .effect(|l, _| Outcome::new(*l))
            .build();
        assert!(!is_reply_transition(&not_reply));
    }
}
