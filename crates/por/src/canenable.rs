//! The can-enable relation and necessary enabling transitions (NET).
//!
//! Static POR must "guess future paths": if a transition `t` in the stubborn
//! set is *disabled* in the current state, every transition that could enable
//! it must also be added, otherwise a relevant future interleaving could be
//! pruned (paper, Section III-A, "can-enabling transitions"). The set of
//! transitions that can enable `t` is its *necessary enabling transitions*
//! (the NET optimisation of LPOR mentioned in the paper's appendix).
//!
//! Transition refinement shrinks this relation: an unsplit quorum transition
//! can be enabled by *any* process that may send its input kind, whereas the
//! quorum-split copy restricted to peers `Q_k` can only be enabled by
//! transitions of processes in `Q_k`, and a reply-split transition can in
//! addition only *enable* transitions of its peers (Section III-D).

use mp_model::{LocalState, Message, ProtocolSpec, TransitionId};

use crate::bits::BitRows;
use crate::independence::can_communicate;

/// Pre-computed can-enable relation: row `t` of `enablers` holds every
/// transition that may turn `t` from disabled to enabled.
#[derive(Clone, Debug)]
pub struct CanEnable {
    enablers: BitRows,
}

impl CanEnable {
    /// Computes the relation for `spec`.
    pub fn compute<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>) -> Self {
        let n = spec.num_transitions();
        let mut enablers = BitRows::empty(n);
        for (a_id, a) in spec.transitions() {
            for (b_id, b) in spec.transitions() {
                if a_id == b_id {
                    continue;
                }
                let mut can_enable = false;
                // (1) `a` may deliver a message that `b` is waiting for.
                if can_communicate(a, b) {
                    can_enable = true;
                }
                // (2) `a` changes the local state that `b`'s guard reads:
                // only possible when they belong to the same process.
                if a.process() == b.process()
                    && a.annotations().writes_local
                    && b.annotations().reads_local
                {
                    can_enable = true;
                }
                // (3) `a` is an environment transition of `b`'s process: it
                // may rewrite that process's incoming channels (duplication
                // and corruption reinject messages under the *original*
                // sender, which the communication test in (1) cannot see)
                // and its fault bookkeeping, so conservatively it can enable
                // any co-located transition.
                if a.process() == b.process() && a.annotations().is_environment {
                    can_enable = true;
                }
                if can_enable {
                    enablers.insert(b_id, a_id);
                }
            }
        }
        CanEnable { enablers }
    }

    /// Returns the transitions that may enable `t` (its necessary enabling
    /// transitions).
    pub fn enablers_of(&self, t: TransitionId) -> Vec<TransitionId> {
        self.enablers.members(t).collect()
    }

    /// The set [`Self::enablers_of`] lists, as the words of a bitset.
    pub(crate) fn enablers_row(&self, t: TransitionId) -> &[u64] {
        self.enablers.row(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Kind, Outcome, ProcessId, QuorumSpec, TransitionSpec};

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

    /// Client (p0) broadcasts REQ to three servers (p1..p3); each server
    /// replies with ACK; the client collects a quorum of two ACKs.
    fn proto() -> ProtocolSpec<u8, Msg> {
        let mk_serve = |name: &str, me: usize| {
            TransitionSpec::builder(name.to_string(), p(me))
                .single_input("REQ")
                .reply()
                .sends(&["ACK"])
                .effect(|_, m: &[mp_model::Envelope<Msg>]| {
                    Outcome::new(1).send(m[0].sender, Msg::Ack)
                })
                .build()
        };
        ProtocolSpec::builder("req-ack")
            .process("client", 0u8)
            .process("s1", 0u8)
            .process("s2", 0u8)
            .process("s3", 0u8)
            .transition(
                TransitionSpec::builder("REQUEST", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["REQ"])
                    .sends_to([p(1), p(2), p(3)])
                    .effect(|_, _| {
                        Outcome::new(1)
                            .send(p(1), Msg::Req)
                            .send(p(2), Msg::Req)
                            .send(p(3), Msg::Req)
                    })
                    .build(),
            )
            .transition(mk_serve("SERVE_1", 1))
            .transition(mk_serve("SERVE_2", 2))
            .transition(mk_serve("SERVE_3", 3))
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
    fn request_enables_servers() {
        let spec = proto();
        let ce = CanEnable::compute(&spec);
        assert!(ce.enablers_of(TransitionId(1)).contains(&TransitionId(0)));
        assert!(ce.enablers_of(TransitionId(2)).contains(&TransitionId(0)));
    }

    #[test]
    fn servers_enable_collect() {
        let spec = proto();
        let ce = CanEnable::compute(&spec);
        let enablers = ce.enablers_of(TransitionId(4));
        assert!(enablers.contains(&TransitionId(1)));
        assert!(enablers.contains(&TransitionId(2)));
        assert!(enablers.contains(&TransitionId(3)));
        // REQUEST also counts: it shares p0's local state with COLLECT.
        assert!(enablers.contains(&TransitionId(0)));
    }

    #[test]
    fn servers_do_not_enable_each_other() {
        let spec = proto();
        let ce = CanEnable::compute(&spec);
        assert!(!ce.enablers_of(TransitionId(1)).contains(&TransitionId(2)));
        assert!(!ce.enablers_of(TransitionId(2)).contains(&TransitionId(1)));
    }

    #[test]
    fn quorum_split_restriction_shrinks_enablers() {
        let spec = proto();
        let collect = spec.transition(TransitionId(4));
        let split = collect.restricted_copy("COLLECT_12", [p(1), p(2)].into_iter().collect());
        let mut transitions: Vec<_> = spec.transitions().map(|(_, t)| t.clone()).collect();
        transitions[4] = split;
        let split_spec = spec.with_transitions(transitions).unwrap();
        let ce = CanEnable::compute(&split_spec);
        let enablers = ce.enablers_of(TransitionId(4));
        assert!(enablers.contains(&TransitionId(1)));
        assert!(enablers.contains(&TransitionId(2)));
        assert!(
            !enablers.contains(&TransitionId(3)),
            "SERVE_3 cannot enable the split COLLECT restricted to peers p1 and p2"
        );
    }

    #[test]
    fn num_pairs_decreases_with_refinement() {
        let spec = proto();
        let num_pairs = |spec: &ProtocolSpec<u8, Msg>| {
            let ce = CanEnable::compute(spec);
            let sizes = spec.transition_ids().map(|t| ce.enablers_of(t).len());
            sizes.sum::<usize>()
        };
        let before = num_pairs(&spec);
        let collect = spec.transition(TransitionId(4));
        let split = collect.restricted_copy("COLLECT_12", [p(1), p(2)].into_iter().collect());
        let mut transitions: Vec<_> = spec.transitions().map(|(_, t)| t.clone()).collect();
        transitions[4] = split;
        let split_spec = spec.with_transitions(transitions).unwrap();
        let after = num_pairs(&split_spec);
        assert!(
            after < before,
            "refinement must shrink the can-enable relation"
        );
    }
}
