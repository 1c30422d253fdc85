//! Integration test for the soundness of the reduction strategies on the
//! evaluation protocols: every engine/reduction combination must produce the
//! same verdict as the unreduced stateful search, for both correct and
//! faulty variants.

use mp_basset::checker::{Checker, CheckerConfig, Invariant, NullObserver, Observer, RunReport};
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
use mp_basset::protocols::storage::{
    quorum_model as storage, regularity_property, wrong_regularity_property, RegularityObserver,
    StorageSetting,
};
use mp_basset::refine::SplitStrategy;

/// Runs every engine × reduction combination and checks that the verdicts
/// agree with the unreduced stateful ground truth.
fn verdicts_agree<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: impl Fn() -> Invariant<S, M, O>,
    observer: O,
    expect_violation: bool,
) where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let configs = [
        ("dfs-unreduced", CheckerConfig::stateful_dfs(), false),
        ("dfs-spor", CheckerConfig::stateful_dfs(), true),
        ("bfs-unreduced", CheckerConfig::stateful_bfs(), false),
        ("bfs-spor", CheckerConfig::stateful_bfs(), true),
        ("parallel-spor", CheckerConfig::parallel_bfs(2), true),
    ];
    for (label, config, spor) in configs {
        let checker = Checker::with_observer(spec, property(), observer.clone()).config(config);
        let checker = if spor { checker.spor() } else { checker };
        let report = checker.run();
        assert_eq!(
            report.verdict.is_violated(),
            expect_violation,
            "{label} disagrees on {}: {report}",
            spec.name()
        );
    }
}

#[test]
fn paxos_verdicts_agree_across_engines() {
    let setting = PaxosSetting::new(2, 2, 1);
    verdicts_agree(
        &paxos(setting, PaxosVariant::Correct),
        || consensus_property(setting),
        NullObserver,
        false,
    );
    let faulty_setting = PaxosSetting::new(2, 3, 1);
    verdicts_agree(
        &paxos(faulty_setting, PaxosVariant::FaultyLearner),
        || consensus_property(faulty_setting),
        NullObserver,
        true,
    );
}

#[test]
fn multicast_verdicts_agree_across_engines() {
    let safe = MulticastSetting::new(2, 1, 0, 1);
    verdicts_agree(
        &multicast(safe),
        || agreement_property(safe),
        NullObserver,
        false,
    );
    let broken = MulticastSetting::new(2, 1, 2, 1);
    verdicts_agree(
        &multicast(broken),
        || agreement_property(broken),
        NullObserver,
        true,
    );
}

#[test]
fn storage_verdicts_agree_across_engines() {
    let setting = StorageSetting::new(2, 1);
    verdicts_agree(
        &storage(setting),
        || regularity_property(setting),
        RegularityObserver::new(setting),
        false,
    );
    verdicts_agree(
        &storage(setting),
        || wrong_regularity_property(setting),
        RegularityObserver::new(setting),
        true,
    );
}

#[test]
fn refined_models_keep_the_same_verdicts_under_spor() {
    let setting = MulticastSetting::new(2, 1, 2, 1);
    let base = multicast(setting);
    for strategy in SplitStrategy::ALL {
        let split = strategy.apply(&base).unwrap();
        let report = Checker::new(&split, agreement_property(setting))
            .spor()
            .run();
        assert!(
            report.verdict.is_violated(),
            "{} must still expose the attack: {report}",
            strategy.label()
        );
    }
}

#[test]
fn spor_never_explores_more_states_than_unreduced_dfs() {
    let setting = PaxosSetting::new(1, 3, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    let unreduced = Checker::new(&spec, consensus_property(setting)).run();
    let reduced = Checker::new(&spec, consensus_property(setting))
        .spor()
        .run();
    assert!(unreduced.verdict.is_verified());
    assert!(reduced.verdict.is_verified());
    assert!(
        reduced.stats.states <= unreduced.stats.states,
        "SPOR explored {} states, unreduced {}",
        reduced.stats.states,
        unreduced.stats.states
    );
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
    let spec = faulty_quorum_model(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1).drops(1).dups(1),
    );
    let rel = IndependenceRelation::compute(&spec);
    let environment: Vec<_> = spec
        .transitions()
        .filter(|(_, t)| t.annotations().is_environment)
        .map(|(id, _)| id)
        .collect();
    assert!(
        environment.len() >= 6,
        "crash per process + message faults expected, got {}",
        environment.len()
    );
    let mut cross_class_independent = 0usize;
    for &a in &environment {
        for &b in &environment {
            let (ta, tb) = (spec.transition(a), spec.transition(b));
            let same_class =
                ta.annotations().environment_class == tb.annotations().environment_class;
            if same_class || ta.process() == tb.process() {
                assert!(
                    rel.dependent(a, b),
                    "environment transitions {} and {} share a budget counter or a \
                     process and must be dependent",
                    ta.name(),
                    tb.name()
                );
            } else {
                assert!(
                    rel.independent(a, b),
                    "environment transitions {} and {} draw on disjoint budgets at \
                     different processes and must be independent",
                    ta.name(),
                    tb.name()
                );
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
        for co in spec.transitions_of(process) {
            if *co == e {
                continue;
            }
            assert!(
                sets.can_enable().enablers_of(*co).contains(&e),
                "{} must count as a potential enabler of {}",
                spec.transition(e).name(),
                spec.transition(*co).name()
            );
        }
    }
}

#[test]
fn fault_augmented_verdicts_agree_across_engines() {
    let setting = PaxosSetting::new(1, 2, 1);
    // Benign faults: safety holds; Byzantine corruption: validity breaks.
    let benign = faulty_quorum_model(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1).drops(1),
    );
    verdicts_agree(
        &benign,
        || faulty_consensus_property(setting),
        NullObserver,
        false,
    );
    let byzantine = faulty_quorum_model(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().corruptions(2),
    );
    verdicts_agree(
        &byzantine,
        || faulty_consensus_property(setting),
        NullObserver,
        true,
    );
}

#[test]
fn spor_on_fault_augmented_models_never_explores_more_states() {
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = faulty_quorum_model(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1).dups(1),
    );
    let unreduced = Checker::new(&spec, faulty_consensus_property(setting)).run();
    let reduced = Checker::new(&spec, faulty_consensus_property(setting))
        .spor()
        .run();
    assert!(unreduced.verdict.is_verified());
    assert!(reduced.verdict.is_verified());
    assert!(reduced.stats.states <= unreduced.stats.states);
}

/// A stateless run's tree, node for node: (expansions, transitions, depth,
/// revisits). DPOR's tree depends on the order it takes its backtrack
/// points in, so these pins move if that order does.
fn tree(report: &RunReport) -> (usize, usize, usize, usize) {
    let s = &report.stats;
    (
        s.expansions,
        s.transitions_executed,
        s.max_depth,
        s.revisits,
    )
}

#[test]
fn dpor_stateless_agrees_on_fault_augmented_models() {
    // The stateless DPOR engine tracks environment steps through the
    // executed-step dependence; it must find the corruption bug and verify
    // the benign-budget model like the stateful engines do.
    let setting = PaxosSetting::new(1, 2, 1);
    let benign = faulty_quorum_model(setting, PaxosVariant::Correct, FaultBudget::none().drops(1));
    let report = Checker::new(&benign, faulty_consensus_property(setting))
        .config(CheckerConfig::stateless(true))
        .run();
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(tree(&report), (54, 53, 8, 0), "{report}");

    let byzantine = faulty_quorum_model(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().corruptions(2),
    );
    let report = Checker::new(&byzantine, faulty_consensus_property(setting))
        .config(CheckerConfig::stateless(true))
        .run();
    assert!(report.verdict.is_violated(), "{report}");
    assert_eq!(tree(&report), (15, 15, 9, 0), "{report}");
}

#[test]
fn disjoint_class_independence_is_sound() {
    // Soundness check for the refined rule: with crash and duplication
    // budgets active at once (disjoint classes, now partially independent),
    // the reduced search must agree with the unreduced one on the verdict —
    // and, since the reduction only prunes commuting interleavings of a
    // terminating protocol, on nothing less than a verified full sweep.
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = faulty_quorum_model(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1).dups(1),
    );
    let unreduced = Checker::new(&spec, faulty_consensus_property(setting)).run();
    let reduced = Checker::new(&spec, faulty_consensus_property(setting))
        .spor()
        .run();
    assert!(unreduced.verdict.is_verified(), "{unreduced}");
    assert!(reduced.verdict.is_verified(), "{reduced}");
    assert!(
        reduced.stats.states <= unreduced.stats.states,
        "SPOR explored {} states, unreduced {}",
        reduced.stats.states,
        unreduced.stats.states
    );

    // The BFS engine re-counts the same reachable set: reduced or not, no
    // state that matters is lost (state-count agreement of the full graphs
    // is checked via the unreduced engines agreeing with each other).
    let bfs = Checker::new(&spec, faulty_consensus_property(setting))
        .config(CheckerConfig::stateful_bfs())
        .run();
    assert_eq!(
        bfs.stats.states, unreduced.stats.states,
        "unreduced BFS and DFS must count the same states"
    );
}

#[test]
fn dpor_stateless_agrees_on_small_instances() {
    // Stateless search revisits states, so keep the instance tiny.
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    let report = Checker::new(&spec, consensus_property(setting))
        .config(CheckerConfig::stateless(true))
        .run();
    assert!(report.verdict.is_verified(), "{report}");

    let broken = MulticastSetting::new(2, 1, 2, 1);
    let spec = multicast(broken);
    let report = Checker::new(&spec, agreement_property(broken))
        .config(CheckerConfig::stateless(true))
        .run();
    assert!(report.verdict.is_violated(), "{report}");

    // Paxos (1,3,1) single-message consensus under DPOR: the benchmark's
    // `quick.paxos-dpor` cell.
    let single = PaxosSetting::new(1, 3, 1);
    let spec = paxos_single(single, PaxosVariant::Correct);
    let report = Checker::new(&spec, consensus_property(single))
        .config(CheckerConfig::stateless(true))
        .run();
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(tree(&report), (47_798, 47_797, 13, 0), "{report}");

    // The plain enumerator's tree on the Paxos (2,2,1) quorum model.
    let setting = PaxosSetting::new(2, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    let report = Checker::new(&spec, consensus_property(setting))
        .config(CheckerConfig::stateless(false))
        .run();
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(tree(&report), (30_929, 30_928, 15, 0), "{report}");
}
