//! Stubborn-set computation (the static POR of MP-Basset).
//!
//! A stubborn set in state `s` is a subset of the enabled transitions such
//! that exploring only that subset preserves the properties of interest
//! (paper, Section III-A, after Valmari). MP-LPOR is "essentially an SPOR
//! algorithm" whose independence information is pre-computed and
//! state-unconditional; this module implements that scheme:
//!
//! 1. pick a **seed transition** among the enabled ones by MP-Basset's
//!    *opposite transaction heuristic* (paper, Section V-B): the highest
//!    `priority` annotation wins — the transitions that start a protocol
//!    instance or keep one open — and a tie goes to the smaller transition
//!    id;
//! 2. close the working set: for every *enabled* transition in the set add
//!    all statically dependent transitions; for every *disabled* transition
//!    in the set add its necessary enabling transitions (the NET relation);
//! 3. if the resulting enabled subset is a strict reduction and the state
//!    has enabled *visible* transitions, add all of them and re-close —
//!    visible transitions are never postponed past the reduction.
//!
//! The stubborn set alone is not enough on cyclic state graphs: a reduced
//! search could postpone a transition around a cycle forever (the
//! **ignoring problem**). The searches in `mp-checker` therefore apply the
//! **cycle proviso** on top of the sets computed here: whenever a reduced
//! expansion closes a cycle back into the search stack, the state is
//! re-expanded with the pruned instances (kept in
//! [`Reduction::pruned`](crate::Reduction)) added back — i.e. the reduction
//! falls back to full expansion at that state. Visibility (rule 3) plus the
//! proviso gives the reachability-preservation guarantee listed in the
//! paper's appendix for invariants, and makes the reduction sound for the
//! liveness properties (termination / leads-to) of `mp-checker`, whose
//! lasso counterexamples are exactly cycles the proviso refuses to leave
//! reduced.
//!
//! The computation works on transition *ids*; the checker maps the chosen
//! ids back to the concrete [`TransitionInstance`](mp_model::TransitionInstance)s it enumerated.

use mp_model::{LocalState, Message, ProtocolSpec, TransitionId};

use crate::bits::{self, TransitionSet};
use crate::{CanEnable, IndependenceRelation};

/// Pre-computed data driving stubborn-set computation for one protocol.
#[derive(Clone, Debug)]
pub struct StubbornSets {
    independence: IndependenceRelation,
    can_enable: CanEnable,
    visible: TransitionSet,
}

/// The result of a stubborn-set computation in one state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StubbornSet {
    /// The enabled transitions that must be explored in this state.
    pub explore: TransitionSet,
    /// `true` if `explore` is a strict subset of the enabled transitions.
    pub reduced: bool,
    /// The seed transition the closure started from.
    pub seed: TransitionId,
}

impl StubbornSets {
    /// Pre-computes the independence and can-enable relations of `spec`.
    pub fn new<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>) -> Self {
        let independence = IndependenceRelation::compute(spec);
        let can_enable = CanEnable::compute(spec);
        let mut visible = TransitionSet::empty(spec.num_transitions());
        for (id, t) in spec.transitions() {
            if t.annotations().is_visible {
                visible.insert(id);
            }
        }
        StubbornSets {
            independence,
            can_enable,
            visible,
        }
    }

    /// Returns the pre-computed can-enable relation.
    pub fn can_enable(&self) -> &CanEnable {
        &self.can_enable
    }

    /// Computes a stubborn set for a state in which exactly the transitions
    /// in `enabled` have at least one enabled instance.
    ///
    /// Returns `None` when `enabled` is empty (deadlock state: nothing to
    /// explore, nothing to reduce).
    pub fn compute<S: LocalState, M: Message>(
        &self,
        spec: &ProtocolSpec<S, M>,
        enabled: &[TransitionId],
    ) -> Option<StubbornSet> {
        if enabled.is_empty() {
            return None;
        }
        Some(self.close_from(enabled, seed(spec, enabled)))
    }

    /// The stubborn set of a state enabling exactly `enabled`, closed from
    /// `seed` (one of `enabled`).
    fn close_from(&self, enabled: &[TransitionId], seed: TransitionId) -> StubbornSet {
        // One buffer, three sets side by side: `work` is the stubborn set
        // under construction, `todo` its members whose closure rule has not
        // been applied yet.
        let words = bits::words_for(self.independence.num_transitions());
        let mut buffer = vec![0u64; 3 * words];
        let (work, rest) = buffer.split_at_mut(words);
        let (enabled_set, todo) = rest.split_at_mut(words);
        for t in enabled {
            bits::insert(enabled_set, *t);
        }
        bits::insert(work, seed);
        bits::insert(todo, seed);
        self.close(enabled_set, work, todo);

        // Visibility condition: if we achieved a reduction but some enabled
        // visible transition would be postponed, add every enabled visible
        // transition (and its closure) so that property-relevant events are
        // never delayed past the reduction.
        if !bits::is_subset(enabled_set, work) {
            for &t in enabled {
                if self.visible.contains(t) && !bits::contains(work, t) {
                    bits::insert(work, t);
                    bits::insert(todo, t);
                }
            }
            self.close(enabled_set, work, todo);
        }

        // The explore set is the enabled part of the stubborn set; it keeps
        // the front of the buffer.
        for (kept, enabled) in work.iter_mut().zip(enabled_set.iter()) {
            *kept &= enabled;
        }
        let reduced = work != enabled_set;
        buffer.truncate(words);
        StubbornSet {
            explore: TransitionSet::from_words(buffer),
            reduced,
            seed,
        }
    }

    /// Saturates `work` under the stubborn-set rules, applying them to the
    /// members in `todo` (a subset of `work`) and to everything they pull
    /// in, until `todo` is empty.
    fn close(&self, enabled: &[u64], work: &mut [u64], todo: &mut [u64]) {
        while let Some(t) = bits::pop_first(todo) {
            // Enabled member: every dependent transition must be in the set,
            // otherwise a dependent interleaving could be missed. Disabled
            // member: a necessary enabling set must be included so that
            // paths which first enable `t` are represented.
            let pulled_in = if bits::contains(enabled, t) {
                self.independence.dependents_row(t)
            } else {
                self.can_enable.enablers_row(t)
            };
            bits::pull_in(work, pulled_in, todo);
        }
    }
}

/// The opposite transaction heuristic: the enabled transition with the
/// highest `priority` annotation, a tie going to the smaller id (the one
/// declared first). `enabled` is non-empty.
fn seed<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    enabled: &[TransitionId],
) -> TransitionId {
    *enabled
        .iter()
        .max_by_key(|t| {
            (
                spec.transition(**t).annotations().priority,
                std::cmp::Reverse(t.index()),
            )
        })
        .expect("a seed is chosen among enabled transitions")
}

/// The closure as it was before the bitsets: ordered sets, a work queue and
/// the relations read pair by pair or through their list accessors. Kept as
/// the reference the word-wise closure above is compared against; returns
/// the explore set and whether it reduces.
#[cfg(test)]
fn reference_close_from(
    sets: &StubbornSets,
    enabled: &[TransitionId],
    seed: TransitionId,
) -> (std::collections::BTreeSet<TransitionId>, bool) {
    use std::collections::BTreeSet;

    fn close(
        sets: &StubbornSets,
        start: TransitionId,
        enabled_set: &BTreeSet<TransitionId>,
        work: &mut BTreeSet<TransitionId>,
    ) {
        let mut queue: Vec<TransitionId> = Vec::new();
        if work.insert(start) {
            queue.push(start);
        }
        while let Some(t) = queue.pop() {
            let pulled_in: Vec<TransitionId> = if enabled_set.contains(&t) {
                (0..sets.independence.num_transitions())
                    .map(TransitionId)
                    .filter(|u| sets.independence.dependent(t, *u))
                    .collect()
            } else {
                sets.can_enable.enablers_of(t)
            };
            for next in pulled_in {
                if work.insert(next) {
                    queue.push(next);
                }
            }
        }
    }

    let enabled_set: BTreeSet<TransitionId> = enabled.iter().copied().collect();
    let mut work: BTreeSet<TransitionId> = BTreeSet::new();
    close(sets, seed, &enabled_set, &mut work);
    let mut explore: BTreeSet<TransitionId> = work.intersection(&enabled_set).copied().collect();
    if explore.len() < enabled_set.len() {
        let visible_enabled: Vec<TransitionId> = enabled_set
            .iter()
            .copied()
            .filter(|t| sets.visible.contains(*t))
            .collect();
        if visible_enabled.iter().any(|t| !explore.contains(t)) {
            for t in visible_enabled {
                close(sets, t, &enabled_set, &mut work);
            }
            explore = work.intersection(&enabled_set).copied().collect();
        }
    }
    let reduced = explore.len() < enabled_set.len();
    (explore, reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Kind, Message, Outcome, ProcessId, QuorumSpec, TransitionSpec};

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

    /// Two completely independent client/server pairs:
    /// p0 -> p1 (REQ/ACK) and p2 -> p3 (REQ/ACK).
    fn two_pairs() -> mp_model::ProtocolSpec<u8, Msg> {
        let mk_request = |name: &str, from: usize, to: usize| {
            TransitionSpec::builder(name.to_string(), p(from))
                .internal()
                .guard(|l, _| *l == 0)
                .sends(&["REQ"])
                .sends_to([p(to)])
                .priority(10)
                .effect(move |_, _| Outcome::new(1).send(p(to), Msg::Req))
                .build()
        };
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
        let mk_collect = |name: &str, me: usize, from: usize| {
            TransitionSpec::builder(name.to_string(), p(me))
                .quorum_input("ACK", QuorumSpec::Exact(1))
                .allowed_senders([p(from)])
                .sends_nothing()
                .priority(-10)
                .effect(|_, _| Outcome::new(2))
                .build()
        };
        mp_model::ProtocolSpec::builder("two-pairs")
            .process("c0", 0u8)
            .process("s0", 0u8)
            .process("c1", 0u8)
            .process("s1", 0u8)
            .transition(mk_request("REQ_A", 0, 1))
            .transition(mk_serve("SERVE_A", 1))
            .transition(mk_collect("COLLECT_A", 0, 1))
            .transition(mk_request("REQ_B", 2, 3))
            .transition(mk_serve("SERVE_B", 3))
            .transition(mk_collect("COLLECT_B", 2, 3))
            .build()
            .unwrap()
    }

    #[test]
    fn independent_pairs_are_reduced_to_one_component() {
        let spec = two_pairs();
        let sets = StubbornSets::new(&spec);
        // Both REQ_A (t0) and REQ_B (t3) are enabled in the initial state.
        let result = sets
            .compute(&spec, &[TransitionId(0), TransitionId(3)])
            .unwrap();
        assert!(result.reduced);
        assert_eq!(result.explore.len(), 1);
    }

    #[test]
    fn dependent_transitions_are_not_reduced() {
        let spec = two_pairs();
        let sets = StubbornSets::new(&spec);
        // SERVE_A (t1) and COLLECT_A (t2) belong to communicating processes:
        // SERVE_A sends the ACK that COLLECT_A consumes.
        let result = sets
            .compute(&spec, &[TransitionId(1), TransitionId(2)])
            .unwrap();
        assert_eq!(result.explore.len(), 2);
        assert!(!result.reduced);
    }

    #[test]
    fn deadlock_state_returns_none() {
        let spec = two_pairs();
        let sets = StubbornSets::new(&spec);
        assert!(sets.compute(&spec, &[]).is_none());
    }

    #[test]
    fn opposite_transaction_prefers_highest_priority() {
        // REQ_* have priority 10, SERVE_* 0 and COLLECT_* -10.
        let spec = two_pairs();
        let all: Vec<TransitionId> = spec.transition_ids().collect();
        assert_eq!(seed(&spec, &all), TransitionId(0), "a tie goes to REQ_A");
        assert_eq!(
            seed(&spec, &[TransitionId(3), TransitionId(0)]),
            TransitionId(0)
        );
        assert_eq!(
            seed(&spec, &[TransitionId(2), TransitionId(4)]),
            TransitionId(4),
            "SERVE_B outranks the earlier COLLECT_A"
        );
        assert_eq!(
            seed(&spec, &[TransitionId(5), TransitionId(2)]),
            TransitionId(2)
        );
    }

    #[test]
    fn priority_decides_the_seed() {
        let spec = two_pairs();
        let sets = StubbornSets::new(&spec);
        let result = sets
            .compute(&spec, &[TransitionId(0), TransitionId(2)])
            .unwrap();
        assert_eq!(result.seed, TransitionId(0), "REQ_A has priority 10");
        let mut transitions: Vec<_> = spec.transitions().map(|(_, t)| t.clone()).collect();
        transitions[2].annotations_mut().priority = 20;
        let spec = spec.with_transitions(transitions).unwrap();
        let sets = StubbornSets::new(&spec);
        let result = sets
            .compute(&spec, &[TransitionId(0), TransitionId(2)])
            .unwrap();
        assert_eq!(
            result.seed,
            TransitionId(2),
            "COLLECT_A now has priority 20"
        );
    }

    #[test]
    fn visible_transitions_are_never_postponed() {
        // Same protocol, but COLLECT_B is visible (it "decides").
        let spec = two_pairs();
        let mut transitions: Vec<_> = spec.transitions().map(|(_, t)| t.clone()).collect();
        transitions[5].annotations_mut().is_visible = true;
        let spec = spec.with_transitions(transitions).unwrap();
        let sets = StubbornSets::new(&spec);
        // Enabled: REQ_A (invisible, independent) and COLLECT_B (visible).
        let result = sets
            .compute(&spec, &[TransitionId(0), TransitionId(5)])
            .unwrap();
        assert!(
            result.explore.contains(TransitionId(5)),
            "the visible transition must be in every stubborn set that reduces"
        );
    }

    #[test]
    fn closure_includes_enablers_of_disabled_dependents() {
        // Force the seed to SERVE_A by ranking it above REQ_B's 10.
        let spec = two_pairs();
        let mut transitions: Vec<_> = spec.transitions().map(|(_, t)| t.clone()).collect();
        transitions[1].annotations_mut().priority = 20;
        let spec = spec.with_transitions(transitions).unwrap();
        let sets = StubbornSets::new(&spec);
        // Enabled: SERVE_A (t1) and REQ_B (t3). COLLECT_A (t2) is dependent
        // on SERVE_A but disabled, so its enablers (SERVE_A itself, REQ_A)
        // join the closure; since REQ_A is disabled too the closure stays on
        // the A side and REQ_B can be dropped.
        let result = sets
            .compute(&spec, &[TransitionId(1), TransitionId(3)])
            .unwrap();
        assert!(result.explore.contains(TransitionId(1)));
        assert!(!result.explore.contains(TransitionId(3)));
        assert!(result.reduced);
    }

    #[test]
    fn stubborn_set_is_subset_of_enabled() {
        let spec = two_pairs();
        let sets = StubbornSets::new(&spec);
        let enabled = [TransitionId(0), TransitionId(1), TransitionId(3)];
        let result = sets.compute(&spec, &enabled).unwrap();
        for t in result.explore.iter() {
            assert!(enabled.contains(&t));
        }
        assert!(!result.explore.is_empty());
    }

    /// Checks the word-wise closure against the reference from every
    /// enabled transition as the seed, and `compute` against the reference
    /// from the seed it chooses.
    fn assert_matches_reference<S: LocalState, M: Message>(
        sets: &StubbornSets,
        spec: &ProtocolSpec<S, M>,
        enabled: &[TransitionId],
    ) {
        let actual = |stubborn: StubbornSet| (stubborn.explore.iter().collect(), stubborn.reduced);
        for &from in enabled {
            assert_eq!(
                actual(sets.close_from(enabled, from)),
                reference_close_from(sets, enabled, from),
                "enabled: {enabled:?}, seed: {from:?}"
            );
        }
        match sets.compute(spec, enabled) {
            None => assert!(enabled.is_empty()),
            Some(stubborn) => {
                assert_eq!(stubborn.seed, seed(spec, enabled));
                assert_eq!(
                    actual(stubborn),
                    reference_close_from(sets, enabled, seed(spec, enabled)),
                    "enabled: {enabled:?}"
                );
            }
        }
    }

    /// SplitMix64, as in the other deterministic property tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// `count` random subsets of the transitions of `spec`, a mix of sparse
    /// ones (what a state enables) and dense ones.
    fn random_subsets<S: LocalState, M: Message>(
        spec: &ProtocolSpec<S, M>,
        seed: u64,
        count: usize,
    ) -> Vec<Vec<TransitionId>> {
        let mut rng = seed;
        (0..count)
            .map(|_| {
                let one_in = 2 + next(&mut rng) % 12;
                spec.transition_ids()
                    .filter(|_| next(&mut rng).is_multiple_of(one_in))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bitmask_closure_matches_reference_on_every_subset_of_the_small_specs() {
        let plain = two_pairs();
        let mut transitions: Vec<_> = plain.transitions().map(|(_, t)| t.clone()).collect();
        transitions[1].annotations_mut().is_visible = true;
        transitions[5].annotations_mut().is_visible = true;
        let with_visible = plain.with_transitions(transitions).unwrap();
        for spec in [&plain, &with_visible] {
            let n = spec.num_transitions();
            let sets = StubbornSets::new(spec);
            for mask in 0u32..1 << n {
                let enabled: Vec<TransitionId> = (0..n)
                    .filter(|t| mask & (1 << t) != 0)
                    .map(TransitionId)
                    .collect();
                assert_matches_reference(&sets, spec, &enabled);
            }
        }
    }

    /// A ring of 35 request/serve pairs: 70 transitions, so every set spans
    /// two words, with each server visible at every fifth position.
    fn ring() -> ProtocolSpec<u8, Msg> {
        const PAIRS: usize = 35;
        let mut builder = ProtocolSpec::builder("ring");
        for i in 0..PAIRS {
            builder = builder.process(format!("n{i}"), 0u8);
        }
        for i in 0..PAIRS {
            let to = (i + 1) % PAIRS;
            builder = builder.transition(
                TransitionSpec::builder(format!("REQ_{i}"), p(i))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["REQ"])
                    .sends_to([p(to)])
                    .priority((i % 7) as i32)
                    .effect(move |_, _| Outcome::new(1).send(p(to), Msg::Req))
                    .build(),
            );
            let mut serve = TransitionSpec::builder(format!("SERVE_{i}"), p(i))
                .single_input("REQ")
                .sends_nothing()
                .effect(|_, _| Outcome::new(2));
            if i % 5 == 0 {
                serve = serve.visible();
            }
            builder = builder.transition(serve.build());
        }
        builder.build().unwrap()
    }

    #[test]
    fn bitmask_closure_matches_reference_beyond_one_word() {
        let spec = ring();
        assert!(spec.num_transitions() > 64);
        let sets = StubbornSets::new(&spec);
        for enabled in random_subsets(&spec, 11, 500) {
            assert_matches_reference(&sets, &spec, &enabled);
        }
        // The relations themselves, bit for bit against the pairwise tests.
        for (a_id, a) in spec.transitions() {
            for (b_id, b) in spec.transitions() {
                assert_eq!(
                    sets.independence.dependent(a_id, b_id),
                    crate::independence::transitions_dependent(a, b)
                );
            }
            assert_eq!(sets.visible.contains(a_id), a.annotations().is_visible);
        }
    }

    #[test]
    fn bitmask_closure_matches_reference_on_fault_injected_paxos() {
        use mp_faults::FaultBudget;
        use mp_protocols::paxos::{faulty_quorum_model, PaxosSetting, PaxosVariant};
        let spec = faulty_quorum_model(
            PaxosSetting::new(2, 3, 1),
            PaxosVariant::Correct,
            FaultBudget::none().crashes(1).drops(1),
        );
        let sets = StubbornSets::new(&spec);
        for enabled in random_subsets(&spec, 12, 4000) {
            assert_matches_reference(&sets, &spec, &enabled);
        }
    }
}
