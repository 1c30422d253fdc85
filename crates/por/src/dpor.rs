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
//! * [`ExecutedStep`] — a step recorded from its instance, those recipients
//!   and its transition's annotations — and [`latest_racing_step`], which
//!   finds the most recent earlier step a new one races with (the dynamic
//!   analogue of [`crate::IndependenceRelation`]), in whose frame a
//!   backtrack point has to be added.
//!
//! As in the paper, DPOR is only sound with stateless search (it must see
//! every path below a state again to install backtrack points), so MP-Basset
//! applies it to single-message models only; our engine imposes the same
//! discipline in the harness but the machinery itself is model-agnostic.

use mp_model::{
    Annotations, GlobalState, Kind, LocalState, Message, ProcessId, ProtocolSpec,
    TransitionInstance,
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

/// One executed step of the current stateless execution, with enough
/// information to decide races against later steps.
#[derive(Clone, Debug)]
pub struct ExecutedStep<M> {
    /// The instance that was executed.
    pub instance: TransitionInstance<M>,
    /// The recipients of the step's sends, in send order, as the execution
    /// reported them. Reinjected messages (duplication, corruption) go
    /// back to the executing process and are not listed.
    pub sent_to: Vec<ProcessId>,
    /// `true` if the executed transition is an environment transition
    /// (fault injection). Environment steps of the same budget class share
    /// the global fault budget, so they race with each other even without
    /// a message between them.
    pub is_environment: bool,
    /// The budget class of an environment step (mirrors
    /// [`Annotations::environment_class`]): steps of *disjoint* classes
    /// draw on disjoint budget counters and do not race through the
    /// budget. `None` means unknown — conservatively racing with every
    /// other environment step.
    pub environment_class: Option<Kind>,
}

impl<M: Message> ExecutedStep<M> {
    /// Records the step that executed `instance`, sent to `sent_to` and
    /// whose transition carries `annotations`.
    pub fn new(
        instance: TransitionInstance<M>,
        sent_to: Vec<ProcessId>,
        annotations: &Annotations,
    ) -> Self {
        ExecutedStep {
            instance,
            sent_to,
            is_environment: annotations.is_environment,
            environment_class: annotations.environment_class,
        }
    }
}

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

/// Returns `true` if step `earlier` happens-before step `later` in the given
/// execution, i.e. there is a causal chain of dependent steps from `earlier`
/// to `later`.
///
/// `steps` is the executed prefix in order; `earlier` and `later` are indices
/// into it with `earlier < later`.
pub(crate) fn happens_before<M: Message>(
    steps: &[ExecutedStep<M>],
    earlier: usize,
    later: usize,
) -> bool {
    debug_assert!(earlier < later && later < steps.len());
    // Standard transitive closure over the dependence relation restricted to
    // the execution order. Executions explored by the stateless search are
    // short (bounded by the protocol's terminating runs), so the quadratic
    // scan is acceptable and keeps the code auditable.
    let mut reachable = vec![false; steps.len()];
    reachable[earlier] = true;
    for idx in (earlier + 1)..=later {
        if reachable[idx] {
            continue;
        }
        let depends_on_reachable =
            (earlier..idx).any(|prev| reachable[prev] && step_dependent(&steps[prev], &steps[idx]));
        if depends_on_reachable {
            reachable[idx] = true;
        }
    }
    reachable[later]
}

/// Dependence between executed steps: instance dependence plus the
/// "message delivery" causality (a step that sent a message to process `p`
/// causally precedes any later step of `p` that consumed it; conservatively,
/// any later step of `p`).
pub(crate) fn step_dependent<M: Message>(a: &ExecutedStep<M>, b: &ExecutedStep<M>) -> bool {
    if instances_dependent(&a.instance, &b.instance) {
        return true;
    }
    // Environment steps of the same (or unknown) budget class share a fault
    // budget counter: each can disable the other by exhausting it, so their
    // orders are never equivalent. Disjoint classes (e.g. a crash and a
    // duplication with separate budgets) cannot interfere through the
    // budget and fall through to the message-causality test.
    if a.is_environment && b.is_environment {
        match (a.environment_class, b.environment_class) {
            (Some(ca), Some(cb)) if ca != cb => {}
            _ => return true,
        }
    }
    a.sent_to.contains(&b.instance.process) || b.sent_to.contains(&a.instance.process)
}

/// Finds the most recent earlier step that *races* with `latest`: it is
/// dependent with `latest` and not ordered before it by happens-before
/// through intermediate steps. Returns its index, if any.
///
/// This is the point where the Flanagan–Godefroid algorithm installs a
/// backtrack obligation.
pub fn latest_racing_step<M: Message>(steps: &[ExecutedStep<M>], latest: usize) -> Option<usize> {
    debug_assert!(latest < steps.len());
    (0..latest).rev().find(|&candidate| {
        step_dependent(&steps[candidate], &steps[latest])
            && !intermediate_ordering(steps, candidate, latest)
    })
}

/// Returns `true` if `earlier` is ordered before `latest` through a chain of
/// dependent steps strictly between them (in which case the pair is not a
/// race: their order is already forced).
fn intermediate_ordering<M: Message>(
    steps: &[ExecutedStep<M>],
    earlier: usize,
    latest: usize,
) -> bool {
    ((earlier + 1)..latest).any(|mid| {
        step_dependent(&steps[earlier], &steps[mid]) && happens_before(steps, mid, latest)
    })
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

    /// A protocol step of `instance` that sent to `sent_to`.
    fn step(instance: TransitionInstance<Msg>, sent_to: Vec<ProcessId>) -> ExecutedStep<Msg> {
        ExecutedStep::new(instance, sent_to, &Annotations::default())
    }

    /// An environment step of `instance`, of budget class `class`, that
    /// sent nothing.
    fn environment_step(
        instance: TransitionInstance<Msg>,
        class: Option<Kind>,
    ) -> ExecutedStep<Msg> {
        let annotations = Annotations {
            is_environment: true,
            environment_class: class,
            ..Annotations::default()
        };
        ExecutedStep::new(instance, vec![], &annotations)
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
        let steps = vec![
            step(internal_instance(0, 0), vec![p(1)]),
            step(receive_instance(1, 1, 0), vec![]),
            step(internal_instance(2, 2), vec![]),
        ];
        assert!(happens_before(&steps, 0, 1));
        assert!(!happens_before(&steps, 0, 2));
        assert!(!happens_before(&steps, 1, 2));
    }

    #[test]
    fn happens_before_is_transitive() {
        // 0: p0 sends to p1; 1: p1 receives and sends to p2; 2: p2 receives.
        let steps = vec![
            step(internal_instance(0, 0), vec![p(1)]),
            step(receive_instance(1, 1, 0), vec![p(2)]),
            step(receive_instance(2, 2, 1), vec![]),
        ];
        assert!(happens_before(&steps, 0, 2));
    }

    #[test]
    fn racing_step_is_detected() {
        // Two steps of the same process with an unrelated step in between:
        // the same-process pair races (its order is not forced by anything
        // in between).
        let steps = vec![
            step(internal_instance(0, 1), vec![]),
            step(internal_instance(1, 2), vec![]),
            step(internal_instance(2, 1), vec![]),
        ];
        assert_eq!(latest_racing_step(&steps, 2), Some(0));
        assert_eq!(latest_racing_step(&steps, 1), None);
    }

    #[test]
    fn ordered_pairs_are_not_races() {
        // 0: p0 sends to p1; 1: p1 receives from p0 and sends to p2;
        // 2: p2 receives from p1. Step 0 and step 2 are causally ordered via
        // step 1, so the only race candidate for step 2 is step 1.
        let steps = vec![
            step(internal_instance(0, 0), vec![p(1)]),
            step(receive_instance(1, 1, 0), vec![p(2)]),
            step(receive_instance(2, 2, 1), vec![]),
        ];
        assert_eq!(latest_racing_step(&steps, 2), Some(1));
    }

    #[test]
    fn environment_steps_race_by_budget_class() {
        let crash0 = environment_step(internal_instance(0, 0), Some("crash"));
        let crash1 = environment_step(internal_instance(1, 1), Some("crash"));
        let dup2 = environment_step(internal_instance(2, 2), Some("dup"));
        let unknown3 = environment_step(internal_instance(3, 3), None);
        // Same class: shared budget, always a race.
        assert!(step_dependent(&crash0, &crash1));
        // Disjoint classes, no communication: no race.
        assert!(!step_dependent(&crash0, &dup2));
        // Unknown class: conservatively racing.
        assert!(step_dependent(&crash0, &unknown3));
    }

    #[test]
    fn independent_steps_have_no_race() {
        let steps = vec![
            step(internal_instance(0, 0), vec![]),
            step(internal_instance(1, 1), vec![]),
            step(internal_instance(2, 2), vec![]),
        ];
        assert_eq!(latest_racing_step(&steps, 2), None);
        assert_eq!(latest_racing_step(&steps, 1), None);
    }
}
