//! Echo Multicast properties: the agreement safety invariant and the
//! delivery liveness properties.

use std::collections::{BTreeMap, BTreeSet};

use mp_checker::{Invariant, NullObserver, Property};
use mp_model::{GlobalState, ProcessId};

use super::types::{InitiatorPhase, MulticastMessage, MulticastSetting, MulticastState, Value};

/// Returns, per initiator, the set of distinct values delivered by honest
/// receivers in `state`.
pub(crate) fn deliveries_per_initiator(
    setting: MulticastSetting,
    state: &GlobalState<MulticastState, MulticastMessage>,
) -> BTreeMap<ProcessId, BTreeSet<Value>> {
    let mut out: BTreeMap<ProcessId, BTreeSet<Value>> = BTreeMap::new();
    for r in 0..setting.honest_receivers {
        let receiver = state.local(setting.honest_receiver(r)).as_honest_receiver();
        for (initiator, value) in &receiver.delivered {
            out.entry(*initiator).or_default().insert(*value);
        }
    }
    out
}

/// The agreement property of consistent multicast: "no two processes receive
/// different messages" (paper, Section V-A) — per initiator, all honest
/// receivers that deliver must deliver the same value.
pub fn agreement_property(
    setting: MulticastSetting,
) -> Invariant<MulticastState, MulticastMessage, NullObserver> {
    Invariant::new(
        "agreement",
        move |state: &GlobalState<MulticastState, MulticastMessage>, _| {
            for (initiator, values) in deliveries_per_initiator(setting, state) {
                if values.len() > 1 {
                    return Err(format!(
                        "agreement violated: honest receivers delivered {values:?} for initiator {initiator}"
                    ));
                }
            }
            Ok(())
        },
    )
}

/// Returns `true` if every honest receiver has delivered a value from every
/// *honest* initiator (Byzantine initiators are under no obligation to get
/// their equivocation delivered).
pub(crate) fn all_honest_delivered(
    setting: MulticastSetting,
    state: &GlobalState<MulticastState, MulticastMessage>,
) -> bool {
    (0..setting.honest_initiators).all(|i| {
        let initiator = setting.honest_initiator(i);
        (0..setting.honest_receivers).all(|r| {
            state
                .local(setting.honest_receiver(r))
                .as_honest_receiver()
                .delivered
                .contains_key(&initiator)
        })
    })
}

/// The **delivery termination** property: every fair maximal execution ends
/// with every honest receiver having delivered every honest initiator's
/// multicast. Holds on the seed models; a crash or a lost `COMMIT` breaks
/// it with a quiescent lasso.
pub fn delivery_termination_property(
    setting: MulticastSetting,
) -> Property<MulticastState, MulticastMessage, NullObserver> {
    Property::termination("multicast-delivery", move |state, _| {
        all_honest_delivered(setting, state)
    })
}

/// The **leads-to** property `committed ⇝ delivered`: whenever some honest
/// initiator has committed its multicast, every honest receiver eventually
/// delivers it (for all committed honest initiators). Vacuous on executions
/// where no honest initiator assembles its echo certificate, so it isolates
/// the commit-to-delivery half of the protocol.
pub(crate) fn committed_leads_to_delivered(
    setting: MulticastSetting,
) -> Property<MulticastState, MulticastMessage, NullObserver> {
    let committed: Vec<usize> = (0..setting.honest_initiators).collect();
    let trigger_ids = committed.clone();
    Property::leads_to(
        "committed-leads-to-delivered",
        move |state: &GlobalState<MulticastState, MulticastMessage>, _: &NullObserver| {
            trigger_ids.iter().any(|&i| {
                state
                    .local(setting.honest_initiator(i))
                    .as_honest_initiator()
                    .phase
                    == InitiatorPhase::Committed
            })
        },
        move |state: &GlobalState<MulticastState, MulticastMessage>, _: &NullObserver| {
            committed.iter().all(|&i| {
                let initiator = setting.honest_initiator(i);
                let is_committed =
                    state.local(initiator).as_honest_initiator().phase == InitiatorPhase::Committed;
                !is_committed
                    || (0..setting.honest_receivers).all(|r| {
                        state
                            .local(setting.honest_receiver(r))
                            .as_honest_receiver()
                            .delivered
                            .contains_key(&initiator)
                    })
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo_multicast::quorum_model;
    use mp_checker::PropertyStatus;

    #[test]
    fn empty_state_satisfies_agreement() {
        let setting = MulticastSetting::new(2, 1, 0, 1);
        let spec = quorum_model(setting);
        let prop = agreement_property(setting);
        assert!(prop.evaluate(&spec.initial_state(), &NullObserver).holds());
    }

    #[test]
    fn conflicting_deliveries_are_caught() {
        let setting = MulticastSetting::new(2, 0, 0, 1);
        let spec = quorum_model(setting);
        let mut state = spec.initial_state();
        let byz = setting.byzantine_initiator(0);
        for (r, value) in [(0usize, 1u8), (1usize, 2u8)] {
            if let MulticastState::HonestReceiver(s) = state.local_mut(setting.honest_receiver(r)) {
                s.delivered.insert(byz, value);
            }
        }
        let prop = agreement_property(setting);
        match prop.evaluate(&state, &NullObserver) {
            PropertyStatus::Violated(reason) => assert!(reason.contains("agreement")),
            PropertyStatus::Holds => panic!("expected a violation"),
        }
        assert_eq!(deliveries_per_initiator(setting, &state)[&byz].len(), 2);
    }

    #[test]
    fn seed_multicast_delivers_on_every_fair_execution() {
        use mp_checker::Checker;
        let setting = MulticastSetting::new(2, 1, 0, 1);
        let spec = quorum_model(setting);
        let report = Checker::new(&spec, delivery_termination_property(setting)).run();
        assert!(report.verdict.is_verified(), "{report}");
        let report = Checker::new(&spec, committed_leads_to_delivered(setting)).run();
        assert!(report.verdict.is_verified(), "{report}");
    }

    #[test]
    fn same_value_deliveries_are_fine() {
        let setting = MulticastSetting::new(2, 1, 0, 0);
        let spec = quorum_model(setting);
        let mut state = spec.initial_state();
        let init = setting.honest_initiator(0);
        for r in 0..2 {
            if let MulticastState::HonestReceiver(s) = state.local_mut(setting.honest_receiver(r)) {
                s.delivered.insert(init, 10);
            }
        }
        let prop = agreement_property(setting);
        assert!(prop.evaluate(&state, &NullObserver).holds());
    }
}
