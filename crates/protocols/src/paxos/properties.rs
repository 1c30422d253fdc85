//! Paxos properties: the consensus safety invariant and the liveness
//! properties (termination, leads-to) the fault sweeps ask about.

use std::collections::BTreeSet;

use mp_checker::{Invariant, NullObserver, Property};
use mp_model::GlobalState;

use super::types::{PaxosMessage, PaxosSetting, PaxosState, Value};

/// Returns the set of values learned by any learner in `state`.
pub(crate) fn values_learned(
    setting: PaxosSetting,
    state: &GlobalState<PaxosState, PaxosMessage>,
) -> BTreeSet<Value> {
    let mut values = BTreeSet::new();
    for k in 0..setting.learners {
        values.extend(
            state
                .local(setting.learner(k))
                .as_learner()
                .learned
                .iter()
                .copied(),
        );
    }
    values
}

/// The consensus invariant checked in the paper's Paxos experiments:
///
/// * **agreement** — no two learned values differ (across learners and
///   across multiple learning events of the same learner);
/// * **validity** — every learned value was proposed by some proposer.
///
/// Both are state-local predicates over the learner states, so they are
/// checkable as invariants in the sense of Section II-A.
pub fn consensus_property(
    setting: PaxosSetting,
) -> Invariant<PaxosState, PaxosMessage, NullObserver> {
    Invariant::new(
        "consensus",
        move |state: &GlobalState<PaxosState, PaxosMessage>, _| {
            let learned = values_learned(setting, state);
            if learned.len() > 1 {
                return Err(format!(
                    "agreement violated: learners learned {} distinct values {:?}",
                    learned.len(),
                    learned
                ));
            }
            let proposed: BTreeSet<Value> = (0..setting.proposers)
                .map(|i| setting.value_of(i))
                .collect();
            if let Some(bad) = learned.iter().find(|v| !proposed.contains(v)) {
                return Err(format!(
                    "validity violated: learned value {bad} was never proposed"
                ));
            }
            Ok(())
        },
    )
}

/// The **termination** property of the Paxos experiments: every fair
/// maximal execution eventually learns some value ("is consensus actually
/// reached?", not just "is it never violated?"). On the seed model this
/// holds; under a fault budget it distinguishes budgets the protocol can
/// ride out from those that kill liveness — a crashed majority of acceptors
/// yields a fair lasso in which no learner ever learns.
pub fn termination_property(
    setting: PaxosSetting,
) -> Property<PaxosState, PaxosMessage, NullObserver> {
    Property::termination("paxos-termination", move |state, _| {
        !values_learned(setting, state).is_empty()
    })
}

/// The **leads-to** property `accepted ⇝ learned`: whenever some acceptor
/// has accepted a value, some learner eventually learns one (on every fair
/// maximal execution). Sharper than [`termination_property`]: executions on
/// which no acceptor ever accepts are vacuously fine, so a fault that stops
/// the protocol *before* phase 2 does not violate it, while a fault that
/// stops it between acceptance and learning does.
pub fn accepted_leads_to_learned(
    setting: PaxosSetting,
) -> Property<PaxosState, PaxosMessage, NullObserver> {
    Property::leads_to(
        "accepted-leads-to-learned",
        move |state: &GlobalState<PaxosState, PaxosMessage>, _: &NullObserver| {
            (0..setting.acceptors).any(|i| {
                state
                    .local(setting.acceptor(i))
                    .as_acceptor()
                    .accepted
                    .is_some()
            })
        },
        move |state: &GlobalState<PaxosState, PaxosMessage>, _: &NullObserver| {
            !values_learned(setting, state).is_empty()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paxos::{quorum_model, PaxosVariant};
    use mp_checker::PropertyStatus;
    use mp_model::ProcessId;

    fn state_with_learned(
        setting: PaxosSetting,
        learned: &[(usize, Value)],
    ) -> GlobalState<PaxosState, PaxosMessage> {
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let mut state = spec.initial_state();
        for (learner, value) in learned {
            let id: ProcessId = setting.learner(*learner);
            if let PaxosState::Learner(l) = state.local_mut(id) {
                l.learned.insert(*value);
            }
        }
        state
    }

    #[test]
    fn initial_state_satisfies_consensus() {
        let setting = PaxosSetting::new(2, 3, 2);
        let prop = consensus_property(setting);
        let state = state_with_learned(setting, &[]);
        assert!(prop.evaluate(&state, &NullObserver).holds());
    }

    #[test]
    fn single_learned_value_is_fine() {
        let setting = PaxosSetting::new(2, 3, 2);
        let prop = consensus_property(setting);
        let state = state_with_learned(setting, &[(0, 1), (1, 1)]);
        assert!(prop.evaluate(&state, &NullObserver).holds());
        assert_eq!(values_learned(setting, &state).len(), 1);
    }

    #[test]
    fn disagreement_between_learners_is_caught() {
        let setting = PaxosSetting::new(2, 3, 2);
        let prop = consensus_property(setting);
        let state = state_with_learned(setting, &[(0, 1), (1, 2)]);
        match prop.evaluate(&state, &NullObserver) {
            PropertyStatus::Violated(reason) => assert!(reason.contains("agreement")),
            PropertyStatus::Holds => panic!("expected a violation"),
        }
    }

    #[test]
    fn seed_paxos_terminates_and_leads_to_learning() {
        use mp_checker::Checker;
        let setting = PaxosSetting::new(1, 2, 1);
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let report = Checker::new(&spec, termination_property(setting)).run();
        assert!(report.verdict.is_verified(), "{report}");
        let report = Checker::new(&spec, accepted_leads_to_learned(setting)).run();
        assert!(report.verdict.is_verified(), "{report}");
    }

    #[test]
    fn unproposed_value_is_caught() {
        let setting = PaxosSetting::new(1, 3, 1);
        let prop = consensus_property(setting);
        let state = state_with_learned(setting, &[(0, 9)]);
        match prop.evaluate(&state, &NullObserver) {
            PropertyStatus::Violated(reason) => assert!(reason.contains("validity")),
            PropertyStatus::Holds => panic!("expected a violation"),
        }
    }
}
