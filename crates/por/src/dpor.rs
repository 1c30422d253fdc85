//! Dynamic partial-order reduction (Flanagan–Godefroid) support.
//!
//! DPOR computes the stubborn set "on the fly" while the successors of a
//! state are visited (paper, Section III-A). The search itself is the one
//! depth-first core of `mp-checker`, remembering nothing of the states it
//! has met; DPOR is a hook of its invariant check, called after each
//! execution with the recipients of its sends ([`mp_model::execute`]).
//! This module provides the ingredients it needs:
//!
//! * [`DporSeed`] — the reducer a DPOR frame starts from: every enabled
//!   instance of the first enabled instance's process is explored (a
//!   process is Flanagan–Godefroid's backtrack unit, and a race only ever
//!   schedules instances of *another* process), the rest wait, pruned,
//!   until a race schedules one of them;
//! * [`ExecutedStep`] — a step read off the depth-first stack: a borrowed
//!   view of the instance a frame took, those recipients (kept in the
//!   frame) and its transition's annotations; DPOR keeps no step list of
//!   its own — and [`latest_racing_step`], which finds the most recent
//!   earlier step a new one races with (the dynamic analogue of
//!   [`crate::IndependenceRelation`]) in one backward scan of the stack, in
//!   whose frame a backtrack point has to be added.
//!
//! As in the paper, DPOR is only sound with stateless search (it must see
//! every path below a state again to install backtrack points), so MP-Basset
//! applies it to single-message models only; our engine imposes the same
//! discipline in the harness but the machinery itself is model-agnostic.

use mp_model::{
    Annotations, GlobalState, LocalState, Message, ProcessId, ProtocolSpec, TransitionInstance,
};

use crate::{Reducer, Reduction};

/// The seed of DPOR's reduction: the enabled instances of the first
/// enabled instance's process are explored, in enabled-list order, the
/// others stay pruned until a race schedules them (the backtrack set of
/// Flanagan–Godefroid starts as one process). A race schedules another
/// process, so a process's choice between its own instances — two local
/// moves, or one transition over different messages — is made here.
#[derive(Clone, Copy, Debug, Default)]
pub struct DporSeed;

impl<S: LocalState, M: Message> Reducer<S, M> for DporSeed {
    fn reduce(
        &self,
        _spec: &ProtocolSpec<S, M>,
        _state: &GlobalState<S, M>,
        mut instances: Vec<TransitionInstance<M>>,
    ) -> Reduction<M> {
        let process = instances.first().map(|i| i.process);
        let others = instances.iter().filter(|i| Some(i.process) != process);
        let mut pruned = Vec::with_capacity(others.count());
        pruned.extend(instances.extract_if(.., |i| Some(i.process) != process));
        // Every state with something enabled counts as reduced, even with
        // nothing pruned: which instances run there is DPOR's to decide.
        Reduction {
            reduced: !instances.is_empty(),
            explore: instances,
            pruned,
        }
    }

    fn name(&self) -> &'static str {
        "dpor"
    }
}

/// One executed step of the current stateless execution, read off the
/// depth-first stack: the instance a frame took, the recipients of its
/// sends in send order as the execution reported them (reinjected messages
/// go back to the executing process and are not listed), and its
/// transition's annotations. A view borrows all three; nothing is copied.
#[derive(Debug)]
pub struct ExecutedStep<'a, M> {
    /// The instance that was executed.
    pub instance: &'a TransitionInstance<M>,
    /// The recipients of the step's sends.
    pub sent_to: &'a [ProcessId],
    /// The executed transition's annotations: environment steps (fault
    /// injection) of one budget class share the global fault budget, so
    /// they race with each other even without a message between them.
    pub annotations: &'a Annotations,
}

impl<M> Clone for ExecutedStep<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for ExecutedStep<'_, M> {}

/// Returns `true` if the two concrete instances are dependent.
///
/// Two instances are dependent iff they are executed by the same process
/// (they compete for its local state and incoming channels), or one of them
/// consumed a message sent by the other's process (a direct communication).
pub(crate) fn instances_dependent<M: Message>(
    a: &TransitionInstance<M>,
    b: &TransitionInstance<M>,
) -> bool {
    if a.process == b.process {
        return true;
    }
    a.envelopes.iter().any(|e| e.sender == b.process)
        || b.envelopes.iter().any(|e| e.sender == a.process)
}

/// Dependence between executed steps: instance dependence plus the
/// "message delivery" causality (a step that sent a message to process `p`
/// causally precedes any later step of `p` that consumed it; conservatively,
/// any later step of `p`).
pub(crate) fn step_dependent<M: Message>(a: ExecutedStep<'_, M>, b: ExecutedStep<'_, M>) -> bool {
    if instances_dependent(a.instance, b.instance) {
        return true;
    }
    // Environment steps of the same (or unknown) budget class share a fault
    // budget counter: each can disable the other by exhausting it, so their
    // orders are never equivalent. Disjoint classes (e.g. a crash and a
    // duplication with separate budgets) cannot interfere through the
    // budget and fall through to the message-causality test.
    let (a_env, b_env) = (a.annotations, b.annotations);
    if a_env.is_environment && b_env.is_environment {
        match (a_env.environment_class, b_env.environment_class) {
            (Some(ca), Some(cb)) if ca != cb => {}
            _ => return true,
        }
    }
    a.sent_to.contains(&b.instance.process) || b.sent_to.contains(&a.instance.process)
}

/// Finds the most recent earlier step that *races* with step `latest`: it
/// is dependent with `latest` and not ordered before it through a chain of
/// dependent steps between them. Returns its index, if any; `step(i)` reads
/// the `i`-th step of the execution off the stack.
///
/// That is the most recent step dependent with `latest`, so one backward
/// scan from `latest − 1` finds it: a chain that orders an earlier step
/// before `latest` ends in a step dependent with `latest`, and no such
/// step lies between the most recent one and `latest`. Each call costs at
/// most `latest` dependence tests.
///
/// This is the point where the Flanagan–Godefroid algorithm installs a
/// backtrack obligation.
pub fn latest_racing_step<'a, M: Message>(
    step: impl Fn(usize) -> ExecutedStep<'a, M>,
    latest: usize,
) -> Option<usize> {
    let last = step(latest);
    (0..latest).rev().find(|&i| step_dependent(step(i), last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{Envelope, Kind, TransitionId};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Msg(u8);
    mp_model::codec!(struct Msg(n));

    impl Message for Msg {
        fn kind(&self) -> Kind {
            "MSG"
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn internal_instance(t: usize, proc: usize) -> TransitionInstance<Msg> {
        TransitionInstance::new(TransitionId(t), p(proc), Vec::new())
    }

    fn receive_instance(t: usize, proc: usize, from: usize) -> TransitionInstance<Msg> {
        TransitionInstance::new(
            TransitionId(t),
            p(proc),
            vec![Envelope::new(p(from), Msg(0))],
        )
    }

    /// What the stack holds of one step, owned.
    struct Recorded {
        instance: TransitionInstance<Msg>,
        sent_to: Vec<ProcessId>,
        annotations: Annotations,
    }

    impl Recorded {
        fn view(&self) -> ExecutedStep<'_, Msg> {
            ExecutedStep {
                instance: &self.instance,
                sent_to: &self.sent_to,
                annotations: &self.annotations,
            }
        }
    }

    /// A protocol step of `instance` that sent to `sent_to`.
    fn step(instance: TransitionInstance<Msg>, sent_to: Vec<ProcessId>) -> Recorded {
        Recorded {
            instance,
            sent_to,
            annotations: Annotations::default(),
        }
    }

    /// An environment step of `instance`, of budget class `class`, that
    /// sent nothing.
    fn environment_step(instance: TransitionInstance<Msg>, class: Option<Kind>) -> Recorded {
        let annotations = Annotations {
            is_environment: true,
            environment_class: class,
            ..Annotations::default()
        };
        Recorded {
            instance,
            sent_to: vec![],
            annotations,
        }
    }

    fn views(steps: &[Recorded]) -> Vec<ExecutedStep<'_, Msg>> {
        steps.iter().map(Recorded::view).collect()
    }

    /// The backward scan over `steps`, checked against the reference.
    fn racing(steps: &[Recorded], latest: usize) -> Option<usize> {
        let views = views(steps);
        let race = latest_racing_step(|i| views[i], latest);
        assert_eq!(race, reference_racing_step(&views, latest));
        race
    }

    // The reference relation: the race check as first written, with a
    // transitive closure per intermediate step.

    /// Returns `true` if step `earlier` happens-before step `later`: there
    /// is a causal chain of dependent steps from `earlier` to `later`.
    fn happens_before(steps: &[ExecutedStep<'_, Msg>], earlier: usize, later: usize) -> bool {
        assert!(earlier < later && later < steps.len());
        let mut reachable = vec![false; steps.len()];
        reachable[earlier] = true;
        for idx in (earlier + 1)..=later {
            reachable[idx] = (earlier..idx)
                .any(|prev| reachable[prev] && step_dependent(steps[prev], steps[idx]));
        }
        reachable[later]
    }

    /// Returns `true` if `earlier` is ordered before `latest` through a
    /// chain of dependent steps strictly between them.
    fn intermediate_ordering(
        steps: &[ExecutedStep<'_, Msg>],
        earlier: usize,
        latest: usize,
    ) -> bool {
        ((earlier + 1)..latest).any(|mid| {
            step_dependent(steps[earlier], steps[mid]) && happens_before(steps, mid, latest)
        })
    }

    /// The most recent earlier step dependent with `latest` and not
    /// ordered before it through intermediate steps.
    fn reference_racing_step(steps: &[ExecutedStep<'_, Msg>], latest: usize) -> Option<usize> {
        (0..latest).rev().find(|&candidate| {
            step_dependent(steps[candidate], steps[latest])
                && !intermediate_ordering(steps, candidate, latest)
        })
    }

    #[test]
    fn same_process_instances_are_dependent() {
        let a = internal_instance(0, 1);
        let b = internal_instance(1, 1);
        assert!(instances_dependent(&a, &b));
    }

    #[test]
    fn communicating_instances_are_dependent() {
        let sender = internal_instance(0, 0);
        let receiver = receive_instance(1, 2, 0);
        assert!(instances_dependent(&sender, &receiver));
        assert!(instances_dependent(&receiver, &sender));
    }

    #[test]
    fn unrelated_instances_are_independent() {
        let a = internal_instance(0, 0);
        let b = receive_instance(1, 2, 3);
        assert!(!instances_dependent(&a, &b));
    }

    #[test]
    fn happens_before_follows_dependence_chains() {
        // p0 sends to p1; p1 receives (dependent on step 0); p2 acts alone.
        let steps = [
            step(internal_instance(0, 0), vec![p(1)]),
            step(receive_instance(1, 1, 0), vec![]),
            step(internal_instance(2, 2), vec![]),
        ];
        let steps = views(&steps);
        assert!(happens_before(&steps, 0, 1));
        assert!(!happens_before(&steps, 0, 2));
        assert!(!happens_before(&steps, 1, 2));
    }

    #[test]
    fn happens_before_is_transitive() {
        // 0: p0 sends to p1; 1: p1 receives and sends to p2; 2: p2 receives.
        let steps = [
            step(internal_instance(0, 0), vec![p(1)]),
            step(receive_instance(1, 1, 0), vec![p(2)]),
            step(receive_instance(2, 2, 1), vec![]),
        ];
        assert!(happens_before(&views(&steps), 0, 2));
    }

    #[test]
    fn racing_step_is_detected() {
        // Two steps of the same process with an unrelated step in between:
        // the same-process pair races (its order is not forced by anything
        // in between).
        let steps = [
            step(internal_instance(0, 1), vec![]),
            step(internal_instance(1, 2), vec![]),
            step(internal_instance(2, 1), vec![]),
        ];
        assert_eq!(racing(&steps, 2), Some(0));
        assert_eq!(racing(&steps, 1), None);
    }

    #[test]
    fn ordered_pairs_are_not_races() {
        // 0: p0 sends to p1; 1: p1 receives from p0 and sends to p2;
        // 2: p2 receives from p1. Step 0 and step 2 are causally ordered via
        // step 1, so the only race candidate for step 2 is step 1.
        let steps = [
            step(internal_instance(0, 0), vec![p(1)]),
            step(receive_instance(1, 1, 0), vec![p(2)]),
            step(receive_instance(2, 2, 1), vec![]),
        ];
        assert_eq!(racing(&steps, 2), Some(1));
    }

    #[test]
    fn environment_steps_race_by_budget_class() {
        let crash0 = environment_step(internal_instance(0, 0), Some("crash"));
        let crash1 = environment_step(internal_instance(1, 1), Some("crash"));
        let dup2 = environment_step(internal_instance(2, 2), Some("dup"));
        let unknown3 = environment_step(internal_instance(3, 3), None);
        // Same class: shared budget, always a race.
        assert!(step_dependent(crash0.view(), crash1.view()));
        // Disjoint classes, no communication: no race.
        assert!(!step_dependent(crash0.view(), dup2.view()));
        // Unknown class: conservatively racing.
        assert!(step_dependent(crash0.view(), unknown3.view()));
    }

    #[test]
    fn independent_steps_have_no_race() {
        let steps = [
            step(internal_instance(0, 0), vec![]),
            step(internal_instance(1, 1), vec![]),
            step(internal_instance(2, 2), vec![]),
        ];
        assert_eq!(racing(&steps, 2), None);
        assert_eq!(racing(&steps, 1), None);
    }

    /// SplitMix64, as in the other deterministic property tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A random step of one of four processes: at most one consumed
    /// envelope, at most two recipients, and one in four an environment
    /// step of class crash, dup or unknown.
    fn random_step(rng: &mut u64) -> Recorded {
        let process = (next(rng) % 4) as usize;
        let envelopes = (0..next(rng) % 3 / 2)
            .map(|_| Envelope::new(p((next(rng) % 4) as usize), Msg(0)))
            .collect();
        let sent_to = (0..next(rng) % 5 / 2)
            .map(|_| p((next(rng) % 4) as usize))
            .collect();
        let is_environment = next(rng).is_multiple_of(4);
        let environment_class = [Some("crash"), Some("dup"), None][(next(rng) % 3) as usize];
        Recorded {
            instance: TransitionInstance::new(TransitionId(0), p(process), envelopes),
            sent_to,
            annotations: Annotations {
                is_environment,
                environment_class,
                ..Annotations::default()
            },
        }
    }

    #[test]
    fn the_backward_scan_finds_the_reference_race() {
        let mut rng = 0x5eed_d902;
        let (mut latests, mut races, mut passed_over) = (0, 0, 0);
        for _ in 0..10_000 {
            let len = 1 + (next(&mut rng) % 20) as usize;
            let steps: Vec<Recorded> = (0..len).map(|_| random_step(&mut rng)).collect();
            let views = views(&steps);
            for latest in 0..len {
                let race = latest_racing_step(|i| views[i], latest);
                assert_eq!(
                    race,
                    reference_racing_step(&views, latest),
                    "latest {latest} of {views:?}"
                );
                latests += 1;
                races += usize::from(race.is_some());
                // Older steps dependent with `latest` that the race hides.
                let dependent = |i: &usize| step_dependent(views[*i], views[latest]);
                passed_over += race.map_or(0, |r| (0..r).filter(dependent).count());
            }
        }
        assert!(latests > 100_000, "{latests} steps judged");
        assert!(races > latests / 2, "{races} races in {latests} steps");
        assert!(
            passed_over > latests,
            "{passed_over} dependent steps passed over"
        );
    }
}
