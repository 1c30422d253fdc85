//! Reply-split refinement (paper, Section III-D).
//!
//! A *reply transition* only sends messages back to the senders of the
//! messages it consumed (Definition 4) — e.g. an acceptor answering a
//! proposer's `READ` with a `READ_REPL`. Reply-split is the quorum-split of
//! reply transitions: one copy per possible communication partner (set).
//! The extra benefit over a plain quorum-split is that the split copy can
//! also only *enable* transitions of its peers, which tightens the
//! can-enable relation used by static POR even further.

use mp_model::{LocalState, Message, ModelError, ProtocolSpec};

use crate::{
    candidate_senders, exact_quorum_size, is_reply_transition, quorum_split::subsets_of_size,
};

/// Splits a single reply transition (identified by name) into one copy per
/// possible set of communication partners.
///
/// # Errors
///
/// Returns an error if no transition has that name, the transition is not a
/// reply transition with an exact quorum size, or the resulting protocol
/// fails validation.
pub(crate) fn reply_split_transition<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    transition_name: &str,
) -> Result<ProtocolSpec<S, M>, ModelError> {
    let Some(target_id) = spec.transition_by_name(transition_name) else {
        return Err(ModelError::Validation(format!(
            "no transition named `{transition_name}`"
        )));
    };
    let target = spec.transition(target_id);
    if !is_reply_transition(target) {
        return Err(ModelError::Validation(format!(
            "transition `{transition_name}` is not annotated as a reply transition"
        )));
    }
    let Some(quorum_size) = exact_quorum_size(target) else {
        return Err(ModelError::Validation(format!(
            "reply transition `{transition_name}` does not have an exact quorum size"
        )));
    };

    let peers = candidate_senders(spec, target_id);
    if peers.len() < quorum_size {
        return Err(ModelError::InfeasibleQuorum {
            transition: transition_name.to_string(),
            detail: format!(
                "reply quorum of {quorum_size} cannot be formed from {} candidate peers",
                peers.len()
            ),
        });
    }

    let mut new_transitions = Vec::with_capacity(spec.num_transitions() + 4);
    for (id, t) in spec.transitions() {
        if id == target_id {
            for peer_set in subsets_of_size(&peers, quorum_size) {
                let suffix: Vec<String> = peer_set.iter().map(|p| p.index().to_string()).collect();
                let name = format!("{}_{}", t.name(), suffix.join("_"));
                new_transitions.push(t.restricted_copy(name, peer_set));
            }
        } else {
            new_transitions.push(t.clone());
        }
    }
    spec.with_transitions(new_transitions)
        .map(|p| p.renamed(format!("{}+rsplit({transition_name})", spec.name())))
}

/// Splits every unrestricted reply transition of the protocol that has more
/// than one candidate partner — the paper's "reply-split" table column.
pub(crate) fn reply_split_all<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
) -> Result<ProtocolSpec<S, M>, ModelError> {
    let targets: Vec<String> = spec
        .transitions()
        .filter(|(id, t)| {
            t.allowed_senders().is_none()
                && is_reply_transition(t)
                && exact_quorum_size(t).is_some()
                && candidate_senders(spec, *id).len() > exact_quorum_size(t).unwrap_or(usize::MAX)
        })
        .map(|(_, t)| t.name().to_string())
        .collect();
    let mut current = spec.clone();
    for name in targets {
        current = reply_split_transition(&current, &name)?;
    }
    Ok(current.renamed(format!("{}+reply-split", spec.name())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Kind, Outcome, ProcessId, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Read(u8),
        ReadRepl(u8),
    }
    mp_model::codec!(enum Msg { 0 = Read(n), 1 = ReadRepl(n) });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Read(_) => "READ",
                Msg::ReadRepl(_) => "READ_REPL",
            }
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// Two proposers (p0, p1) send READ to one acceptor (p2); the acceptor
    /// replies to whoever asked — the reply transition of Figure 6.
    fn read_reply() -> ProtocolSpec<u8, Msg> {
        let mk_read = |name: &str, me: usize| {
            TransitionSpec::builder(name.to_string(), p(me))
                .internal()
                .guard(|l, _| *l == 0)
                .sends(&["READ"])
                .sends_to([p(2)])
                .effect(move |_, _| Outcome::new(1).send(p(2), Msg::Read(me as u8)))
                .build()
        };
        ProtocolSpec::builder("read-reply")
            .process("proposer0", 0u8)
            .process("proposer1", 0u8)
            .process("acceptor", 0u8)
            .transition(mk_read("READ_0", 0))
            .transition(mk_read("READ_1", 1))
            .transition(
                TransitionSpec::builder("READ_ACC", p(2))
                    .single_input("READ")
                    .reply()
                    .sends(&["READ_REPL"])
                    .effect(|l, m: &[mp_model::Envelope<Msg>]| {
                        Outcome::new(*l).send(m[0].sender, Msg::ReadRepl(0))
                    })
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn reply_split_creates_one_copy_per_partner() {
        let spec = read_reply();
        let split = reply_split_transition(&spec, "READ_ACC").unwrap();
        assert_eq!(split.num_transitions(), 4);
        let names = split.transition_names().join(",");
        assert!(names.contains("READ_ACC_0"));
        assert!(names.contains("READ_ACC_1"));
        assert!(
            !names.contains("READ_ACC_2"),
            "the acceptor is not its own peer"
        );
    }

    #[test]
    fn split_copies_are_restricted_to_their_peer() {
        let spec = read_reply();
        let split = reply_split_transition(&spec, "READ_ACC").unwrap();
        let id = split.transition_by_name("READ_ACC_0").unwrap();
        let t = split.transition(id);
        assert!(t.may_receive_from(p(0)));
        assert!(!t.may_receive_from(p(1)));
        // The recipients of a reply-split copy resolve to the same peer set.
        assert!(t
            .annotations()
            .recipients
            .may_send_to(p(0), t.allowed_senders()));
        assert!(!t
            .annotations()
            .recipients
            .may_send_to(p(1), t.allowed_senders()));
    }

    #[test]
    fn non_reply_transitions_are_rejected() {
        let spec = read_reply();
        let err = reply_split_transition(&spec, "READ_0").unwrap_err();
        assert!(matches!(err, ModelError::Validation(_)));
    }

    #[test]
    fn reply_split_all_is_idempotent() {
        let spec = read_reply();
        let once = reply_split_all(&spec).unwrap();
        assert_eq!(once.num_transitions(), 4);
        let twice = reply_split_all(&once).unwrap();
        assert_eq!(twice.num_transitions(), 4);
    }

    #[test]
    fn single_partner_reply_is_not_split() {
        // With a single proposer the reply transition has one candidate
        // partner and reply_split_all leaves it alone (the paper notes
        // reply-split is ineffective with a single initiator).
        let spec = ProtocolSpec::builder("single")
            .process("proposer", 0u8)
            .process("acceptor", 0u8)
            .transition(
                TransitionSpec::builder("READ_0", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["READ"])
                    .sends_to([p(1)])
                    .effect(|_, _| Outcome::new(1).send(p(1), Msg::Read(0)))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("READ_ACC", p(1))
                    .single_input("READ")
                    .reply()
                    .sends(&["READ_REPL"])
                    .effect(|l, m: &[mp_model::Envelope<Msg>]| {
                        Outcome::new(*l).send(m[0].sender, Msg::ReadRepl(0))
                    })
                    .build(),
            )
            .build()
            .unwrap();
        let split = reply_split_all(&spec).unwrap();
        assert_eq!(split.num_transitions(), 2);
    }
}
