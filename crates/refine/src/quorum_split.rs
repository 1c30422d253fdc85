//! Quorum-split refinement (paper, Section III-C, Definition 3).
//!
//! An *exact* quorum transition `t` with threshold `q_t` is replaced by one
//! transition per possible quorum: for every set `Q_k` of `q_t` processes
//! that could send to `t`, a copy `t_k` is created that behaves exactly like
//! `t` but may only consume messages whose senders are exactly `Q_k`. By
//! Theorem 2 the refined protocol generates the same state graph; the gain is
//! that the static POR sees, for each `t_k`, a much smaller set of
//! transitions that can enable it or depend on it.

use std::collections::BTreeSet;

use mp_model::{
    InputSpec, LocalState, Message, ModelError, ProcessId, ProtocolSpec, QuorumSpec, TransitionSpec,
};

use crate::candidate_senders;

/// Splits a single exact-quorum transition (identified by name) into one
/// transition per possible quorum of senders.
///
/// # Errors
///
/// Returns an error if no transition has that name, the transition is not an
/// exact quorum transition, or the resulting protocol fails validation.
pub(crate) fn quorum_split_transition<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    transition_name: &str,
) -> Result<ProtocolSpec<S, M>, ModelError> {
    let Some(target_id) = spec.transition_by_name(transition_name) else {
        return Err(ModelError::Validation(format!(
            "no transition named `{transition_name}`"
        )));
    };
    let target = spec.transition(target_id);
    let Some(quorum_size) = exact_quorum_size(target) else {
        return Err(ModelError::Validation(format!(
            "transition `{transition_name}` is not an exact quorum transition"
        )));
    };

    let senders = candidate_senders(spec, target_id);
    if senders.len() < quorum_size {
        return Err(ModelError::InfeasibleQuorum {
            transition: transition_name.to_string(),
            detail: format!(
                "quorum of {quorum_size} cannot be formed from {} candidate senders",
                senders.len()
            ),
        });
    }

    let mut new_transitions = Vec::with_capacity(spec.num_transitions() + 8);
    for (id, t) in spec.transitions() {
        if id == target_id {
            for quorum in subsets_of_size(&senders, quorum_size) {
                let suffix: Vec<String> = quorum.iter().map(|p| p.index().to_string()).collect();
                let name = format!("{}__{}", t.name(), suffix.join("_"));
                new_transitions.push(t.restricted_copy(name, quorum));
            }
        } else {
            new_transitions.push(t.clone());
        }
    }
    spec.with_transitions(new_transitions)
        .map(|p| p.renamed(format!("{}+qsplit({transition_name})", spec.name())))
}

/// Splits *every* exact quorum transition with threshold at least two that is
/// not a reply transition — the paper's "quorum-split" table column, which
/// splits "only non-reply quorum transitions".
///
/// Transitions that already carry a sender restriction (i.e. have been split
/// before) are left untouched.
pub fn quorum_split_all<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
) -> Result<ProtocolSpec<S, M>, ModelError> {
    let targets: Vec<String> = spec
        .transitions()
        .filter(|(id, t)| {
            t.allowed_senders().is_none()
                && !t.annotations().is_reply
                && exact_quorum_size(t).map(|q| q >= 2).unwrap_or(false)
                && candidate_senders(spec, *id).len() > exact_quorum_size(t).unwrap_or(usize::MAX)
        })
        .map(|(_, t)| t.name().to_string())
        .collect();
    let mut current = spec.clone();
    for name in targets {
        current = quorum_split_transition(&current, &name)?;
    }
    Ok(current.renamed(format!("{}+quorum-split", spec.name())))
}

/// Returns the exact quorum size of a transition if it is an exact quorum
/// transition in the sense of Definition 2 (quorum inputs with a fixed size;
/// single-message transitions count with size one).
pub fn exact_quorum_size<S: LocalState, M: Message>(t: &TransitionSpec<S, M>) -> Option<usize> {
    match t.input() {
        InputSpec::Internal => None,
        InputSpec::Single { .. } => Some(1),
        InputSpec::Quorum { quorum, .. } => match quorum {
            QuorumSpec::Exact(q) => Some(*q),
            _ => None,
        },
    }
}

/// Enumerates all subsets of `items` with exactly `size` elements.
pub(crate) fn subsets_of_size(
    items: &BTreeSet<ProcessId>,
    size: usize,
) -> Vec<BTreeSet<ProcessId>> {
    let items: Vec<ProcessId> = items.iter().copied().collect();
    let mut out = Vec::new();
    let mut current = Vec::new();
    subsets_rec(&items, size, 0, &mut current, &mut out);
    out
}

fn subsets_rec(
    items: &[ProcessId],
    size: usize,
    start: usize,
    current: &mut Vec<ProcessId>,
    out: &mut Vec<BTreeSet<ProcessId>>,
) {
    if current.len() == size {
        out.push(current.iter().copied().collect());
        return;
    }
    let remaining = size - current.len();
    for i in start..items.len() {
        if items.len() - i < remaining {
            break;
        }
        current.push(items[i]);
        subsets_rec(items, size, i + 1, current, out);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Kind, Outcome, TransitionId};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Vote(u8),
    }
    mp_model::codec!(enum Msg { 0 = Vote(n) });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            "VOTE"
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// A collector that needs votes from 2 of 3 voters; voters vote once.
    fn collector() -> ProtocolSpec<u8, Msg> {
        let mut b = ProtocolSpec::builder("collector").process("collector", 0u8);
        for i in 1..=3 {
            b = b.process(format!("voter{i}"), 0u8);
        }
        for i in 1..=3usize {
            b = b.transition(
                TransitionSpec::builder(format!("VOTE_{i}"), p(i))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["VOTE"])
                    .sends_to([p(0)])
                    .effect(move |_, _| Outcome::new(1).send(p(0), Msg::Vote(i as u8)))
                    .build(),
            );
        }
        b.transition(
            TransitionSpec::builder("COLLECT", p(0))
                .quorum_input("VOTE", QuorumSpec::Exact(2))
                .sends_nothing()
                .effect(|_, _| Outcome::new(1))
                .build(),
        )
        .build()
        .unwrap()
    }

    #[test]
    fn subsets_enumeration_counts() {
        let set: BTreeSet<ProcessId> = [p(1), p(2), p(3), p(4)].into_iter().collect();
        assert_eq!(subsets_of_size(&set, 2).len(), 6);
        assert_eq!(subsets_of_size(&set, 4).len(), 1);
        assert_eq!(subsets_of_size(&set, 5).len(), 0);
        assert_eq!(subsets_of_size(&set, 0).len(), 1);
    }

    #[test]
    fn split_replaces_one_transition_with_binomial_many() {
        let spec = collector();
        assert_eq!(spec.num_transitions(), 4);
        let split = quorum_split_transition(&spec, "COLLECT").unwrap();
        // COLLECT is replaced by C(3,2) = 3 restricted copies.
        assert_eq!(split.num_transitions(), 3 + 3);
        let names = split.transition_names().join(",");
        assert!(names.contains("COLLECT__1_2"));
        assert!(names.contains("COLLECT__1_3"));
        assert!(names.contains("COLLECT__2_3"));
    }

    #[test]
    fn split_copies_are_sender_restricted() {
        let spec = collector();
        let split = quorum_split_transition(&spec, "COLLECT").unwrap();
        let id = split.transition_by_name("COLLECT__1_2").unwrap();
        let t = split.transition(id);
        assert!(t.may_receive_from(p(1)));
        assert!(t.may_receive_from(p(2)));
        assert!(!t.may_receive_from(p(3)));
    }

    #[test]
    fn splitting_unknown_transition_fails() {
        let spec = collector();
        assert!(quorum_split_transition(&spec, "NOPE").is_err());
    }

    #[test]
    fn splitting_non_quorum_transition_fails() {
        let spec = collector();
        let err = quorum_split_transition(&spec, "VOTE_1").unwrap_err();
        assert!(matches!(err, ModelError::Validation(_)));
    }

    #[test]
    fn quorum_split_all_splits_only_eligible_transitions() {
        let spec = collector();
        let split = quorum_split_all(&spec).unwrap();
        assert_eq!(split.num_transitions(), 6);
        assert!(split.name().contains("quorum-split"));
        // Idempotent: already-restricted copies are not split again.
        let again = quorum_split_all(&split).unwrap();
        assert_eq!(again.num_transitions(), 6);
    }

    #[test]
    fn exact_quorum_size_helper() {
        let spec = collector();
        assert_eq!(exact_quorum_size(spec.transition(TransitionId(3))), Some(2));
        assert_eq!(exact_quorum_size(spec.transition(TransitionId(0))), None);
    }
}
