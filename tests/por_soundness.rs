//! The soundness of the reduction strategies on the evaluation protocols:
//! every engine × reduction combination keeps the verdict of the reference
//! search on the Paxos, multicast and storage cells, correct and faulty,
//! and SPOR never stores more states than the unreduced search (both
//! judged by [`common::differential`]); and the reductions' own pins: the
//! independence rule for environment transitions, and the stateless
//! enumerator's and DPOR's trees, node for node.

mod common;

use common::differential::{faulted_multicast_cell, faulted_paxos_cell, multicast_cell};
use common::differential::{paxos_cell, storage_cell, Tally};
use common::{rejects, tree};
use mp_basset::checker::{Checker, CheckerConfig, Invariant, NullObserver, RunReport};
use mp_basset::faults::FaultBudget;
use mp_basset::model::{LocalState, Message, ProtocolSpec};
use mp_basset::por::{IndependenceRelation, StubbornSets};
use mp_basset::protocols::echo_multicast::{
    agreement_property, quorum_model as multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    consensus_property, quorum_model as paxos, single_message_model as paxos_single, PaxosSetting,
    PaxosVariant,
};
use mp_basset::protocols::paxos::{faulty_consensus_property, faulty_quorum_model};
use mp_basset::refine::SplitStrategy;

#[test]
fn paxos_verdicts_agree_across_engines() {
    let mut tally = Tally::default();
    paxos_cell((2, 2, 1), PaxosVariant::Correct, &mut tally);
    assert_eq!((tally.verified, tally.symmetric), (1, 1), "{tally:?}");
}

#[test]
fn multicast_verdicts_agree_across_engines() {
    // The safe setting, and the over-threshold attack.
    let mut tally = Tally::default();
    for setting in [
        MulticastSetting::new(2, 1, 0, 1),
        MulticastSetting::new(2, 0, 2, 1),
    ] {
        multicast_cell(setting, &mut tally);
    }
    assert_eq!((tally.verified, tally.violated), (1, 1), "{tally:?}");
}

#[test]
fn storage_verdicts_agree_across_engines() {
    // Regularity holds; the wrong regularity is violated.
    let mut tally = Tally::default();
    for wrong in [false, true] {
        storage_cell(wrong, &mut tally);
    }
    assert_eq!((tally.verified, tally.violated), (1, 1), "{tally:?}");
}

#[test]
fn refined_models_keep_the_same_verdicts_under_spor() {
    // Every split strategy, under SPOR, on the faulty-learner Paxos quorum
    // model (which needs three acceptors to go wrong).
    let mut tally = Tally::default();
    paxos_cell((2, 2, 1), PaxosVariant::FaultyLearner, &mut tally);
    assert_eq!(tally.splits, SplitStrategy::ALL.len(), "{tally:?}");
    assert_eq!(tally.verified, 1, "{tally:?}");
}

#[test]
fn spor_never_explores_more_states_than_unreduced_dfs() {
    let mut tally = Tally::default();
    paxos_cell((1, 3, 1), PaxosVariant::Correct, &mut tally);
    assert_eq!(tally.verified, 1, "{tally:?}");
}

#[test]
fn fault_augmented_verdicts_agree_across_engines() {
    // Benign faults: consensus holds; a crash does not stop the
    // over-threshold multicast attack.
    let mut tally = Tally::default();
    let none = FaultBudget::none();
    faulted_paxos_cell(none.crashes(1).drops(1), &mut tally);
    let attack = MulticastSetting::new(2, 0, 2, 1);
    faulted_multicast_cell(attack, none.crashes(1), &mut tally);
    assert_eq!((tally.verified, tally.violated), (1, 1), "{tally:?}");
}

#[test]
fn spor_on_fault_augmented_models_never_explores_more_states() {
    // One duplication, or one corruption, which consensus survives (two
    // break validity).
    let mut tally = Tally::default();
    let none = FaultBudget::none();
    for budget in [none.dups(1), none.corruptions(1)] {
        faulted_paxos_cell(budget, &mut tally);
    }
    assert_eq!(tally.verified, 2, "{tally:?}");
}

#[test]
fn environment_transitions_depend_by_budget_class() {
    // The independence rule for fault injection: environment transitions of
    // the *same budget class* are dependent, even across processes — they
    // share a budget counter, so one can disable the other. Without this,
    // SPOR could postpone a fault past the point where the budget that
    // admitted it is spent. Transitions of *disjoint* classes (crash vs
    // duplication, each with its own counter) cannot interfere through the
    // budget, so across processes they are independent.
    let setting = PaxosSetting::new(1, 2, 1);
    let budget = FaultBudget::none().crashes(1).drops(1).dups(1);
    let spec = faulty_quorum_model(setting, PaxosVariant::Correct, budget);
    let rel = IndependenceRelation::compute(&spec);
    let environment = spec
        .transitions()
        .filter(|(_, t)| t.annotations().is_environment);
    let environment: Vec<_> = environment.map(|(id, _)| id).collect();
    // A crash per process, and the message faults.
    assert!(environment.len() >= 6, "{environment:?}");
    let mut cross_class_independent = 0usize;
    for &a in &environment {
        for &b in &environment {
            let (ta, tb) = (spec.transition(a), spec.transition(b));
            let same_class =
                ta.annotations().environment_class == tb.annotations().environment_class;
            let pair = format!("{} and {}", ta.name(), tb.name());
            if same_class || ta.process() == tb.process() {
                assert!(rel.dependent(a, b), "{pair} must be dependent");
            } else {
                assert!(rel.independent(a, b), "{pair} must be independent");
                cross_class_independent += 1;
            }
        }
    }
    assert!(
        cross_class_independent > 0,
        "the grid must contain at least one disjoint-class pair"
    );
    // And the can-enable relation knows an environment transition may
    // enable any co-located transition (duplication/corruption reinject
    // messages under the original sender).
    let sets = StubbornSets::new(&spec);
    for &e in &environment {
        let process = spec.transition(e).process();
        for &co in spec.transitions_of(process).iter().filter(|&&co| co != e) {
            let pair = (spec.transition(e).name(), spec.transition(co).name());
            let enables = sets.can_enable().enablers_of(co).contains(&e);
            assert!(enables, "{pair:?}: the first may enable the second");
        }
    }
}

/// A stateless run of `invariant` on `spec`, with DPOR or without.
fn stateless<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    invariant: Invariant<S, M>,
    dpor: bool,
) -> RunReport {
    let config = CheckerConfig::stateless(dpor);
    Checker::new(spec, invariant).config(config).run()
}

#[test]
fn dpor_stateless_agrees_on_fault_augmented_models() {
    // The stateless DPOR engine tracks environment steps through the
    // executed-step dependence; it must find the corruption bug and verify
    // the benign-budget model like the stateful engines do.
    let (setting, none) = (PaxosSetting::new(1, 2, 1), FaultBudget::none());
    let property = faulty_consensus_property(setting);
    let benign = faulty_quorum_model(setting, PaxosVariant::Correct, none.drops(1));
    let report = stateless(&benign, property.clone(), true);
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(tree(&report), (62, 61, 8, 0), "{report}");

    let byzantine = faulty_quorum_model(setting, PaxosVariant::Correct, none.corruptions(2));
    let report = stateless(&byzantine, property.clone(), true);
    let cx = report.verdict.counterexample().expect("the corruption bug");
    rejects(&byzantine, &property, NullObserver, cx);
    assert_eq!(tree(&report), (11, 11, 9, 0), "{report}");
}

#[test]
fn dpor_stateless_agrees_on_small_instances() {
    // Stateless search revisits states, so keep the instance tiny.
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    let report = stateless(&spec, consensus_property(setting), true);
    assert!(report.verdict.is_verified(), "{report}");

    let broken = MulticastSetting::new(2, 1, 2, 1);
    let spec = multicast(broken);
    let report = stateless(&spec, agreement_property(broken), true);
    let cx = report.verdict.counterexample().expect("the attack");
    rejects(&spec, &agreement_property(broken), NullObserver, cx);

    // Paxos (1,3,1) single-message consensus under DPOR: the benchmark's
    // `quick.paxos-dpor` cell.
    let single = PaxosSetting::new(1, 3, 1);
    let spec = paxos_single(single, PaxosVariant::Correct);
    let report = stateless(&spec, consensus_property(single), true);
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(tree(&report), (47_798, 47_797, 13, 0), "{report}");

    // The plain enumerator's tree on the Paxos (2,2,1) quorum model.
    let setting = PaxosSetting::new(2, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    let report = stateless(&spec, consensus_property(setting), false);
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(tree(&report), (30_929, 30_928, 15, 0), "{report}");
}

#[test]
fn disjoint_class_independence_is_sound() {
    // Crash and duplication budgets active at once: disjoint classes, each
    // with its own counter, are independent across processes.
    let mut tally = Tally::default();
    faulted_paxos_cell(FaultBudget::none().crashes(1).dups(1), &mut tally);
    assert_eq!(tally.verified, 1, "{tally:?}");
}
