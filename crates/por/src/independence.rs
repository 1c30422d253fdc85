//! Static (unconditional) independence between transitions.
//!
//! MP-LPOR "uses a notion of independency that is unconditional, i.e., it is
//! not a function of the system state" and pre-computes it before the search
//! (paper, Section IV-B). This module derives that relation from the
//! transition specifications and their Table-IV annotations:
//!
//! Two transitions `t1` (of process `i`) and `t2` (of process `j`) are
//! **dependent** iff
//!
//! 1. `i == j` — they read/write the same local state and compete for the
//!    same incoming channels; or
//! 2. `t1` may send a message that `t2` can consume (`t1` *can communicate
//!    with* `t2`), or vice versa — executing one can enable, disable or
//!    change the effect of the other.
//!
//! Everything else commutes: the executions touch disjoint local states and
//! disjoint channels, so the resulting state is the same in either order.
//! The relation is deliberately conservative; transition refinement
//! (quorum-split, reply-split) makes it *more precise* by shrinking the set
//! of processes a transition can receive from or send to, which is exactly
//! how the paper's splits help POR.

use mp_model::{Kind, LocalState, Message, ProtocolSpec, TransitionId, TransitionSpec};

use crate::bits::BitRows;

/// Symmetric dependence relation over the transitions of a protocol,
/// pre-computed once before the search starts.
#[derive(Clone, Debug)]
pub struct IndependenceRelation {
    num_transitions: usize,
    /// Row `t`: the transitions dependent on `t` (including `t`).
    dependent: BitRows,
}

impl IndependenceRelation {
    /// Computes the unconditional dependence relation of `spec`.
    pub fn compute<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>) -> Self {
        let n = spec.num_transitions();
        let mut dependent = BitRows::empty(n);
        for (a_id, a) in spec.transitions() {
            for (b_id, b) in spec.transitions() {
                if a_id.index() > b_id.index() {
                    continue;
                }
                if transitions_dependent(a, b) {
                    dependent.insert(a_id, b_id);
                    dependent.insert(b_id, a_id);
                }
            }
        }
        IndependenceRelation {
            num_transitions: n,
            dependent,
        }
    }

    /// Returns the number of transitions covered by the relation.
    pub fn num_transitions(&self) -> usize {
        self.num_transitions
    }

    /// Returns `true` if the two transitions are (possibly) dependent.
    pub fn dependent(&self, a: TransitionId, b: TransitionId) -> bool {
        self.dependent.contains(a, b)
    }

    /// Returns `true` if the two transitions are (definitely) independent.
    pub fn independent(&self, a: TransitionId, b: TransitionId) -> bool {
        !self.dependent(a, b)
    }

    /// The transitions dependent on `t` (including `t` itself), as the words
    /// of a bitset.
    pub(crate) fn dependents_row(&self, t: TransitionId) -> &[u64] {
        self.dependent.row(t)
    }
}

/// Decides whether `a` may send a message that `b` can consume.
///
/// `a` can communicate with `b` iff some kind `k` that `a` may emit equals
/// `b`'s input kind, `a` may send to `b`'s process, and `b` may receive from
/// `a`'s process. Annotations are interpreted conservatively: a transition
/// with an unknown output alphabet is assumed to possibly send `b`'s input
/// kind.
pub(crate) fn can_communicate<S: LocalState, M: Message>(
    a: &TransitionSpec<S, M>,
    b: &TransitionSpec<S, M>,
) -> bool {
    let Some(b_kind) = b.input_kind() else {
        // `b` consumes no messages; `a` cannot affect it through channels.
        return false;
    };
    if !b.may_receive_from(a.process()) {
        return false;
    }
    if !a
        .annotations()
        .recipients
        .may_send_to(b.process(), a.allowed_senders())
    {
        return false;
    }
    may_emit_kind(a, b_kind)
}

/// Returns `true` if transition `a` may emit a message of kind `kind`,
/// according to its `messages_out` annotation (conservatively `true` when the
/// annotation is absent and the transition is not declared send-free).
pub(crate) fn may_emit_kind<S: LocalState, M: Message>(
    a: &TransitionSpec<S, M>,
    kind: Kind,
) -> bool {
    let ann = a.annotations();
    if matches!(ann.recipients, mp_model::RecipientSet::None) {
        return false;
    }
    if ann.messages_out.is_empty() {
        // Unknown output alphabet: be conservative.
        return true;
    }
    ann.messages_out.contains(&kind)
}

/// The underlying pairwise test used by [`IndependenceRelation::compute`].
///
/// Besides the two protocol rules (same process; possible communication),
/// a third rule covers **environment transitions** (fault injection,
/// `mp-faults`): two environment transitions of the *same budget class*
/// (or of unknown class) are dependent, even across processes. They draw
/// on a shared global fault budget enforced through the spec's enable
/// filter, so executing one can *disable* the other — a relationship
/// invisible to the channel-based communication test. Without this rule a
/// stubborn set could postpone an environment transition past the point
/// where the budget that admitted it is spent.
///
/// Environment transitions of *disjoint* budget classes (e.g. a crash and a
/// duplication, each with its own
/// [`Annotations::environment_class`](mp_model::Annotations::environment_class)
/// counter) cannot disable each other through the budget; for those the
/// ordinary communication test decides, so a crash at one process and a
/// message drop at another commute and POR may prune one of the two orders.
pub(crate) fn transitions_dependent<S: LocalState, M: Message>(
    a: &TransitionSpec<S, M>,
    b: &TransitionSpec<S, M>,
) -> bool {
    if a.process() == b.process() {
        return true;
    }
    if a.annotations().is_environment && b.annotations().is_environment {
        match (
            a.annotations().environment_class,
            b.annotations().environment_class,
        ) {
            // Disjoint budget counters: neither can exhaust the other's
            // budget, so only ordinary communication can make them
            // dependent (checked below).
            (Some(ca), Some(cb)) if ca != cb => {}
            // Same class, or unknown class: conservatively dependent.
            _ => return true,
        }
    }
    can_communicate(a, b) || can_communicate(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Outcome, ProcessId, ProtocolSpec, QuorumSpec, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Req,
        Ack,
    }
    mp_model::codec!(enum Msg { 0 = Req, 1 = Ack });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Req => "REQ",
                Msg::Ack => "ACK",
            }
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// p0 broadcasts REQ; p1 and p2 reply with ACK; p0 collects 2 ACKs.
    fn proto() -> ProtocolSpec<u8, Msg> {
        ProtocolSpec::builder("req-ack")
            .process("client", 0u8)
            .process("s1", 0u8)
            .process("s2", 0u8)
            .transition(
                TransitionSpec::builder("REQUEST", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["REQ"])
                    .sends_to([p(1), p(2)])
                    .effect(|_, _| Outcome::new(1).send(p(1), Msg::Req).send(p(2), Msg::Req))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("SERVE_1", p(1))
                    .single_input("REQ")
                    .reply()
                    .sends(&["ACK"])
                    .effect(|_, m| Outcome::new(1).send(m[0].sender, Msg::Ack))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("SERVE_2", p(2))
                    .single_input("REQ")
                    .reply()
                    .sends(&["ACK"])
                    .effect(|_, m| Outcome::new(1).send(m[0].sender, Msg::Ack))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("COLLECT", p(0))
                    .quorum_input("ACK", QuorumSpec::Exact(2))
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(2))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn same_process_transitions_are_dependent() {
        let spec = proto();
        let rel = IndependenceRelation::compute(&spec);
        // REQUEST (t0) and COLLECT (t3) both belong to p0.
        assert!(rel.dependent(TransitionId(0), TransitionId(3)));
    }

    #[test]
    fn servers_of_different_processes_are_independent() {
        let spec = proto();
        let rel = IndependenceRelation::compute(&spec);
        // SERVE_1 (p1) and SERVE_2 (p2): they reply to the client only, and
        // neither consumes what the other sends.
        assert!(rel.independent(TransitionId(1), TransitionId(2)));
    }

    #[test]
    fn sender_and_consumer_are_dependent() {
        let spec = proto();
        let rel = IndependenceRelation::compute(&spec);
        // REQUEST sends REQ consumed by SERVE_1 / SERVE_2.
        assert!(rel.dependent(TransitionId(0), TransitionId(1)));
        assert!(rel.dependent(TransitionId(0), TransitionId(2)));
        // SERVE_1 sends ACK consumed by COLLECT.
        assert!(rel.dependent(TransitionId(1), TransitionId(3)));
    }

    #[test]
    fn relation_is_symmetric_and_reflexive() {
        let spec = proto();
        let rel = IndependenceRelation::compute(&spec);
        for a in spec.transition_ids() {
            assert!(rel.dependent(a, a), "{a} must be dependent on itself");
            for b in spec.transition_ids() {
                assert_eq!(rel.dependent(a, b), rel.dependent(b, a));
            }
        }
    }

    #[test]
    fn dependents_of_lists_expected_transitions() {
        let spec = proto();
        let rel = IndependenceRelation::compute(&spec);
        let deps: Vec<TransitionId> = spec
            .transition_ids()
            .filter(|t| rel.dependent(TransitionId(1), *t))
            .collect();
        assert!(deps.contains(&TransitionId(0)));
        assert!(deps.contains(&TransitionId(1)));
        assert!(deps.contains(&TransitionId(3)));
        assert!(!deps.contains(&TransitionId(2)));
    }

    #[test]
    fn sender_restriction_removes_dependence() {
        // Quorum-split style restriction: a copy of COLLECT that may only
        // receive from p1 is independent of SERVE_2.
        let spec = proto();
        let collect = spec.transition(TransitionId(3));
        let restricted = collect.restricted_copy("COLLECT_1", [p(1)].into_iter().collect());
        let serve2 = spec.transition(TransitionId(2));
        assert!(!transitions_dependent(&restricted, serve2));
        assert!(transitions_dependent(collect, serve2));
    }

    #[test]
    fn reply_restriction_removes_dependence_on_non_peers() {
        // Reply-split style restriction: SERVE_1 restricted to peer p0 still
        // communicates with COLLECT (p0) but a hypothetical restriction to a
        // different peer would not.
        let spec = proto();
        let serve1 = spec.transition(TransitionId(1));
        let to_client = serve1.restricted_copy("SERVE_1_c", [p(0)].into_iter().collect());
        let collect = spec.transition(TransitionId(3));
        assert!(transitions_dependent(&to_client, collect));
        let to_other = serve1.restricted_copy("SERVE_1_x", [p(2)].into_iter().collect());
        // Restricted to replying to p2, it can no longer send ACK to p0.
        assert!(!transitions_dependent(&to_other, collect));
    }

    #[test]
    fn environment_budget_classes_decide_env_env_dependence() {
        let env = |name: &str, proc: usize, class: Option<Kind>| {
            let mut b = TransitionSpec::<u8, Msg>::builder(name.to_string(), p(proc))
                .internal()
                .sends_nothing()
                .effect(|l, _| Outcome::new(*l));
            b = match class {
                Some(c) => b.environment_class(c),
                None => b.environment(),
            };
            b.build()
        };
        let crash0 = env("FAULT_CRASH@p0", 0, Some("crash"));
        let crash1 = env("FAULT_CRASH@p1", 1, Some("crash"));
        let dup1 = env("FAULT_DUP@p1", 1, Some("dup"));
        let dup2 = env("FAULT_DUP@p2", 2, Some("dup"));
        let unknown2 = env("FAULT_MYSTERY@p2", 2, None);
        // Same class across processes: shared budget, dependent.
        assert!(transitions_dependent(&crash0, &crash1));
        assert!(transitions_dependent(&dup1, &dup2));
        // Same process: always dependent, whatever the classes.
        assert!(transitions_dependent(&crash1, &dup1));
        // Disjoint classes, disjoint processes, no communication: independent.
        assert!(!transitions_dependent(&crash0, &dup2));
        // Unknown class stays conservatively dependent on everything.
        assert!(transitions_dependent(&crash0, &unknown2));
        assert!(transitions_dependent(&dup1, &unknown2));
    }

    #[test]
    fn unknown_output_alphabet_is_conservative() {
        let a: TransitionSpec<u8, Msg> = TransitionSpec::builder("mystery", p(1))
            .internal()
            .effect(|l, _| Outcome::new(*l))
            .build();
        assert!(may_emit_kind(&a, "ACK"));
        assert!(may_emit_kind(&a, "REQ"));
        let b: TransitionSpec<u8, Msg> = TransitionSpec::builder("silent", p(1))
            .internal()
            .sends_nothing()
            .effect(|l, _| Outcome::new(*l))
            .build();
        assert!(!may_emit_kind(&b, "ACK"));
    }

    #[test]
    fn num_dependent_pairs_counts_unordered_pairs() {
        let spec = proto();
        let rel = IndependenceRelation::compute(&spec);
        // Pairs (unordered, incl. diagonal): t0-t0, t1-t1, t2-t2, t3-t3,
        // t0-t1, t0-t2, t0-t3, t1-t3, t2-t3 => 9.
        let ids: Vec<TransitionId> = spec.transition_ids().collect();
        let pairs = ids
            .iter()
            .flat_map(|a| ids.iter().filter(move |b| *b >= a).map(move |b| (*a, *b)));
        assert_eq!(pairs.filter(|(a, b)| rel.dependent(*a, *b)).count(), 9);
    }
}
