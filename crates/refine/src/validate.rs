//! Validation of transition refinement (Theorem 2).
//!
//! Definition 1 of the paper: a transition system `TS'` is a transition
//! refinement of `TS` if both generate the same state graph. Theorem 2 proves
//! that quorum-split satisfies this; this module *checks* it on concrete
//! (small) protocol instances by materialising both state graphs and
//! comparing reachable states and the transition relation Δ. It is used by
//! the test suite, and it is also a useful safety net for hand-written split
//! models.

use mp_model::{LocalState, Message, ModelError, ProtocolSpec, StateGraph};

/// The result of comparing the state graphs of an original and a refined
/// protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefinementCheck {
    /// Number of reachable states of the original protocol.
    pub original_states: usize,
    /// Number of reachable states of the refined protocol.
    pub refined_states: usize,
    /// Number of edges (state pairs) of the original protocol.
    pub original_edges: usize,
    /// Number of edges (state pairs) of the refined protocol.
    pub refined_edges: usize,
    /// `true` iff the two protocols generate the same state graph.
    pub equivalent: bool,
}

/// Builds both state graphs (up to `max_states` states each) and checks that
/// they are identical, i.e. that `refined` really is a transition refinement
/// of `original`.
///
/// # Errors
///
/// Returns an error if either state graph exceeds `max_states`.
pub fn check_refinement<S: LocalState, M: Message>(
    original: &ProtocolSpec<S, M>,
    refined: &ProtocolSpec<S, M>,
    max_states: usize,
) -> Result<RefinementCheck, ModelError> {
    let g1 = StateGraph::build(original, max_states)?;
    let g2 = StateGraph::build(refined, max_states)?;
    Ok(RefinementCheck {
        original_states: g1.num_states(),
        refined_states: g2.num_states(),
        original_edges: g1.num_edges(),
        refined_edges: g2.num_edges(),
        equivalent: g1.same_state_graph(&g2),
    })
}

/// Convenience assertion used by tests: panics with a readable message when
/// the refinement check fails.
///
/// # Panics
///
/// Panics if the state graphs differ or cannot be built within `max_states`.
pub fn assert_refinement<S: LocalState, M: Message>(
    original: &ProtocolSpec<S, M>,
    refined: &ProtocolSpec<S, M>,
    max_states: usize,
) {
    let check = check_refinement(original, refined, max_states)
        .unwrap_or_else(|e| panic!("refinement check could not build the state graphs: {e}"));
    assert!(
        check.equivalent,
        "`{}` is not a transition refinement of `{}`: {} vs {} states, {} vs {} edges",
        refined.name(),
        original.name(),
        check.refined_states,
        check.original_states,
        check.refined_edges,
        check.original_edges,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{combined_split, quorum_split_all, reply_split_all};
    use mp_model::{Kind, Outcome, ProcessId, QuorumSpec, TransitionSpec};

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

    /// Two proposers race to collect a quorum of replies from three
    /// acceptors — small enough to materialise, rich enough that the split
    /// actually changes the transition set.
    fn two_proposer_phase1() -> ProtocolSpec<u8, Msg> {
        let mut b = ProtocolSpec::builder("phase1-2p");
        b = b.process("proposer0", 0u8).process("proposer1", 0u8);
        for i in 2..=4 {
            b = b.process(format!("acceptor{i}"), 0u8);
        }
        for me in 0..=1usize {
            b = b.transition(
                TransitionSpec::builder(format!("READ_{me}"), p(me))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["READ"])
                    .sends_to([p(2), p(3), p(4)])
                    .effect(move |_, _| {
                        Outcome::new(1)
                            .send(p(2), Msg::Read(me as u8))
                            .send(p(3), Msg::Read(me as u8))
                            .send(p(4), Msg::Read(me as u8))
                    })
                    .build(),
            );
        }
        for acc in 2..=4usize {
            b = b.transition(
                TransitionSpec::builder(format!("READ_ACC_{acc}"), p(acc))
                    .single_input("READ")
                    .reply()
                    .sends(&["READ_REPL"])
                    .effect(move |l, m: &[mp_model::Envelope<Msg>]| {
                        Outcome::new(*l).send(m[0].sender, Msg::ReadRepl(acc as u8))
                    })
                    .build(),
            );
        }
        for me in 0..=1usize {
            b = b.transition(
                TransitionSpec::builder(format!("READ_REPL_{me}"), p(me))
                    .quorum_input("READ_REPL", QuorumSpec::Exact(2))
                    .guard(|l, _| *l == 1)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(2))
                    .build(),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn quorum_split_is_a_refinement() {
        let spec = two_proposer_phase1();
        let split = quorum_split_all(&spec).unwrap();
        assert!(split.num_transitions() > spec.num_transitions());
        assert_refinement(&spec, &split, 200_000);
    }

    #[test]
    fn reply_split_is_a_refinement() {
        let spec = two_proposer_phase1();
        let split = reply_split_all(&spec).unwrap();
        assert!(split.num_transitions() > spec.num_transitions());
        assert_refinement(&spec, &split, 200_000);
    }

    #[test]
    fn combined_split_is_a_refinement() {
        let spec = two_proposer_phase1();
        let split = combined_split(&spec).unwrap();
        assert_refinement(&spec, &split, 200_000);
    }

    #[test]
    fn check_reports_numbers() {
        let spec = two_proposer_phase1();
        let split = quorum_split_all(&spec).unwrap();
        let check = check_refinement(&spec, &split, 200_000).unwrap();
        assert!(check.equivalent);
        assert_eq!(check.original_states, check.refined_states);
        assert_eq!(check.original_edges, check.refined_edges);
        assert!(check.original_states > 1);
    }

    #[test]
    fn a_genuinely_different_protocol_is_not_a_refinement() {
        let spec = two_proposer_phase1();
        // Remove one acceptor's reply: the state graph changes.
        let fewer: Vec<_> = spec
            .transitions()
            .filter(|(_, t)| t.name() != "READ_ACC_4")
            .map(|(_, t)| t.clone())
            .collect();
        let broken = spec.with_transitions(fewer).unwrap();
        let check = check_refinement(&spec, &broken, 200_000).unwrap();
        assert!(!check.equivalent);
    }

    #[test]
    fn state_limit_is_propagated() {
        let spec = two_proposer_phase1();
        let split = quorum_split_all(&spec).unwrap();
        assert!(check_refinement(&spec, &split, 3).is_err());
    }
}
