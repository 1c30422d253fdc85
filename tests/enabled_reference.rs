//! `enabled_instances` against the definition, on every reachable state.
//!
//! "A set `X` of messages is enabled in state `s` if there is a transition
//! `t` and a state `s'` such that `s --t(X)--> s'`" (paper, Section IV-A).
//! The reference below enumerates literally that — every subset of the
//! distinct messages pending for the executing process, kept if it fits the
//! transition's input shape, sender restriction and quorum bounds and passes
//! the enable filter and the guard — and must agree, as a set, with the
//! slice-walking enumeration of `mp-model` on each reachable state of the
//! three protocols' small settings, with and without injected faults
//! (duplication puts multiplicities above one into the channels, crash and
//! drop exercise the enable filter).
//!
//! The recipients `execute` reports for a step are checked the same way,
//! against the definition: the receivers of the effect's sends, in order,
//! with reinjected messages left out.

use std::collections::BTreeSet;

use mp_basset::faults::FaultBudget;
use mp_basset::model::message::senders;
use mp_basset::model::{
    enabled_instances, execute, Envelope, GlobalState, InputSpec, LocalState, Message,
    ProtocolSpec, QuorumSpec, StateGraph, TransitionInstance,
};
use mp_basset::protocols::echo_multicast::{self, MulticastSetting};
use mp_basset::protocols::paxos::{self, PaxosSetting, PaxosVariant};
use mp_basset::protocols::storage::{self, StorageSetting};

fn by_definition<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &GlobalState<S, M>,
) -> BTreeSet<TransitionInstance<M>> {
    let mut enabled = BTreeSet::new();
    for (id, t) in spec.transitions() {
        if !spec.admits(state, t) {
            continue;
        }
        let local = state.local(t.process());
        let (kind, sizes) = match t.input() {
            InputSpec::Internal => {
                if t.guard_holds(local, &[]) {
                    enabled.insert(TransitionInstance::new(id, t.process(), Vec::new()));
                }
                continue;
            }
            InputSpec::Single { kind } => (*kind, QuorumSpec::Exact(1)),
            InputSpec::Quorum { kind, quorum } => (*kind, *quorum),
        };
        let mut pending: Vec<Envelope<M>> = state.channels.pending_for(t.process()).collect();
        pending.dedup();
        assert!(pending.len() < 16, "2^{} subsets", pending.len());
        for mask in 1u32..1 << pending.len() {
            let chosen: Vec<Envelope<M>> = pending
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, e)| e.clone())
                .collect();
            if sizes.admits(chosen.len())
                && senders(&chosen).len() == chosen.len()
                && chosen
                    .iter()
                    .all(|e| e.kind() == kind && t.may_receive_from(e.sender))
                && t.guard_holds(local, &chosen)
            {
                enabled.insert(TransitionInstance::new(id, t.process(), chosen));
            }
        }
    }
    enabled
}

/// Compares on every state of the state graph of `spec` and returns how
/// many there were.
fn agrees_everywhere<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>) -> usize {
    let graph = StateGraph::build(spec, 100_000).expect("a small setting");
    for state in (0..graph.num_states()).map(|i| graph.state(i)) {
        let listed = enabled_instances(spec, state);
        let as_set: BTreeSet<_> = listed.iter().cloned().collect();
        assert_eq!(as_set.len(), listed.len(), "an instance is listed twice");
        assert_eq!(as_set, by_definition(spec, state), "in {state:?}");
    }
    graph.num_states()
}

#[test]
fn paxos_enumeration_matches_the_definition() {
    let setting = PaxosSetting::new(1, 3, 1);
    let states = agrees_everywhere(&paxos::quorum_model(setting, PaxosVariant::Correct));
    assert!(states >= 100, "{states}");
    let faults = FaultBudget::none().crashes(1).drops(1).dups(1);
    let states = agrees_everywhere(&paxos::faulty_quorum_model(
        PaxosSetting::new(1, 2, 1),
        PaxosVariant::Correct,
        faults,
    ));
    assert!(states >= 100, "{states}");
}

#[test]
fn echo_multicast_enumeration_matches_the_definition() {
    let setting = MulticastSetting::new(3, 1, 0, 1);
    let states = agrees_everywhere(&echo_multicast::quorum_model(setting));
    assert!(states >= 100, "{states}");
    let states = agrees_everywhere(&echo_multicast::faulty_quorum_model(
        MulticastSetting::new(2, 1, 0, 1),
        FaultBudget::none().drops(1).dups(1),
    ));
    assert!(states >= 100, "{states}");
}

#[test]
fn storage_enumeration_matches_the_definition() {
    let setting = StorageSetting::new(2, 1);
    let states = agrees_everywhere(&storage::quorum_model(setting));
    assert!(states >= 100, "{states}");
    let states = agrees_everywhere(&storage::faulty_quorum_model(
        setting,
        FaultBudget::none().crashes(1).dups(1),
    ));
    assert!(states >= 100, "{states}");
}

/// Checks on every state of the state graph of `spec` that `execute`
/// reports, for every enabled instance, the receivers of its effect's
/// sends in send order. Returns how many instances were checked and how
/// many of them reinjected a message.
fn recipients_are_the_sends<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
) -> (usize, usize) {
    let graph = StateGraph::build(spec, 100_000).expect("a small setting");
    let (mut checked, mut reinjecting) = (0, 0);
    for state in (0..graph.num_states()).map(|i| graph.state(i)) {
        for instance in enabled_instances(spec, state) {
            let transition = spec.transition(instance.transition);
            let outcome = transition.apply(state.local(instance.process), &instance.envelopes);
            let receivers: Vec<_> = outcome.sends.iter().map(|(to, _)| *to).collect();
            let (_, sent_to) = execute(spec, state, &instance).expect("an enabled instance");
            assert_eq!(sent_to, receivers, "{instance:?} in {state:?}");
            checked += 1;
            reinjecting += usize::from(!outcome.reinjects.is_empty());
        }
    }
    (checked, reinjecting)
}

#[test]
fn execute_reports_the_receivers_of_the_sends() {
    let setting = PaxosSetting::new(1, 2, 1);
    let (checked, _) =
        recipients_are_the_sends(&paxos::single_message_model(setting, PaxosVariant::Correct));
    assert!(checked >= 20, "{checked}");
    // The two fault kinds whose outcomes reinject.
    let none = FaultBudget::none();
    for budget in [none.dups(1), none.corruptions(1)] {
        let spec = paxos::faulty_quorum_model(setting, PaxosVariant::Correct, budget);
        let (checked, reinjecting) = recipients_are_the_sends(&spec);
        assert!(checked >= 20 && reinjecting > 0, "{checked}, {reinjecting}");
    }
}
