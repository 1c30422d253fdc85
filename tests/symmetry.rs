//! Integration tests for the process-symmetry (orbit) reduction
//! (`mp-symmetry`) on the evaluation protocols:
//!
//! * the validated groups have the expected orders (and the deliberately
//!   asymmetric Paxos variant — acceptors seeded with distinct accepted
//!   values — degenerates to identity),
//! * the stateless trees under symmetry are pinned, and
//! * lasso counterexamples found modulo symmetry still replay concretely,
//!   and
//! * symmetry on and off agree on every safety and liveness verdict, under
//!   every engine, reduction and store, with symmetry on storing at most as
//!   many states (strictly fewer on the Paxos crash cell), judged by
//!   [`common::differential`].

mod common;

use common::differential::{faulted_paxos_cell, faulted_storage_cell, Tally};
use common::{lasso_is_genuine, tree, Msg};
use mp_basset::checker::Property;
use mp_basset::checker::{Checker, CheckerConfig, CounterexampleStep, Invariant, NullObserver};
use mp_basset::faults::FaultBudget;
use mp_basset::model::{GlobalState, Outcome, ProcessId, ProtocolSpec, TransitionSpec};
use mp_basset::protocols::echo_multicast::{
    self, faulty_quorum_model as faulty_multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    self, faulty_consensus_property, faulty_quorum_model as faulty_paxos,
    faulty_termination_property, quorum_model_with_acceptor_values, PaxosSetting, PaxosVariant,
};
use mp_basset::protocols::storage::{
    self, faulty_quorum_model as faulty_storage, faulty_read_completion_property, StorageSetting,
};
use mp_basset::symmetry::{RoleMap, SymmetryGroup};

// ---------------------------------------------------------------------------
// (a) Validated group orders.
// ---------------------------------------------------------------------------

#[test]
fn validated_groups_have_expected_orders() {
    // Paxos (1,2,1): 2 interchangeable acceptors, 1 learner -> order 2.
    let (setting, crash1) = (PaxosSetting::new(1, 2, 1), FaultBudget::none().crashes(1));
    let spec = faulty_paxos(setting, PaxosVariant::Correct, crash1);
    let group = SymmetryGroup::build(&spec, &paxos::symmetry_roles(setting));
    assert_eq!(group.order(), 2, "two acceptors swap");

    // Regular storage (2,1): 2 interchangeable base objects -> order 2.
    let setting = StorageSetting::new(2, 1);
    let spec = faulty_storage(setting, crash1);
    let group = SymmetryGroup::build(&spec, &storage::symmetry_roles(setting));
    assert_eq!(group.order(), 2, "two base objects swap");

    // Echo multicast (2,1,0,1): the equivocation attack splits the two
    // honest receivers into different attack groups, so the declared role
    // degenerates — the correct answer, not a missed optimisation.
    let setting = MulticastSetting::new(2, 1, 0, 1);
    let spec = faulty_multicast(setting, FaultBudget::none());
    let group = SymmetryGroup::build(&spec, &echo_multicast::symmetry_roles(setting));
    assert!(group.is_trivial(), "attack groups break receiver symmetry");

    // The wrong-agreement setting (2,1,2,1) has two interchangeable
    // *Byzantine* receivers: they cooperate with both halves of the attack.
    let setting = MulticastSetting::new(2, 1, 2, 1);
    let spec = mp_basset::protocols::echo_multicast::quorum_model(setting);
    let group = SymmetryGroup::build(&spec, &echo_multicast::symmetry_roles(setting));
    assert_eq!(group.order(), 2, "Byzantine receivers swap");
}

#[test]
fn asymmetric_acceptor_values_degenerate_to_identity() {
    let setting = PaxosSetting::new(1, 2, 1);
    let roles = paxos::symmetry_roles(setting);

    // Equal seeds: the swap is still a symmetry.
    let symmetric =
        quorum_model_with_acceptor_values(setting, PaxosVariant::Correct, &[None, None]);
    assert_eq!(SymmetryGroup::build(&symmetric, &roles).order(), 2);

    // Distinct seeds: acceptor 0 has accepted (1, 1), acceptor 1 nothing —
    // the initial state is no longer a fixed point of the swap, so the
    // group must collapse to the identity.
    let asymmetric =
        quorum_model_with_acceptor_values(setting, PaxosVariant::Correct, &[Some((1, 1)), None]);
    let group = SymmetryGroup::build(&asymmetric, &roles);
    assert!(
        group.is_trivial(),
        "distinct acceptor initial values must reject the swap"
    );

    // And the degenerate reduction is a no-op: identical verdict and state
    // count with symmetry nominally on.
    let checker = Checker::new(&asymmetric, paxos::consensus_property(setting));
    let off = checker.run();
    let on = checker.with_role_symmetry(&roles).run();
    assert_eq!(off.verdict.is_violated(), on.verdict.is_violated());
    assert_eq!(off.stats.states, on.stats.states, "identity group = no-op");
}

// ---------------------------------------------------------------------------
// (b) The stateless trees under symmetry.
// ---------------------------------------------------------------------------

#[test]
fn stateless_trees_under_symmetry_are_pinned() {
    let setting = PaxosSetting::new(1, 2, 1);
    let roles = paxos::symmetry_roles(setting);
    // The stateless safety trees (expansions, transitions, depth, revisits)
    // without and with DPOR. Paxos makes progress on every step, so no
    // successor's orbit is ever on its path and the orbit cut stays idle
    // here; the togglers of section (d) are where it fires.
    let none = FaultBudget::none();
    for (budget, trees) in [
        (none, [(20, 19, 8, 0), (8, 7, 8, 0)]),
        (none.crashes(1), [(233, 232, 9, 0), (108, 107, 9, 0)]),
    ] {
        let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
        for dpor in [false, true] {
            let report = Checker::new(&spec, faulty_consensus_property(setting))
                .with_role_symmetry(&roles)
                .config(CheckerConfig::stateless(dpor))
                .run();
            assert!(report.verdict.is_verified(), "{report}");
            assert_eq!(tree(&report), trees[usize::from(dpor)], "{report}");
            let label = ["stateless+sym(2)", "stateless+dpor (symmetry ignored)"];
            assert_eq!(report.strategy, label[usize::from(dpor)]);
        }
    }
}

// ---------------------------------------------------------------------------
// (c) Counterexamples stay concrete and replayable.
// ---------------------------------------------------------------------------

#[test]
fn symmetric_lassos_replay_concretely() {
    // Paxos (1,2,1) + crash budget 1: the lasso's crash targets a concrete
    // acceptor even though only one crash orbit was explored.
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = faulty_paxos(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1),
    );
    let terminates = faulty_termination_property(setting);
    let report = Checker::new(&spec, terminates.clone())
        .with_role_symmetry(&paxos::symmetry_roles(setting))
        .run();
    let cx = report.verdict.counterexample().expect("no termination");
    assert!(cx.is_lasso);
    // The stem names a concrete crash victim.
    let crash = |s: &CounterexampleStep| s.transition.starts_with("FAULT_CRASH");
    assert!(cx.steps.iter().any(crash), "{cx}");
    lasso_is_genuine(&spec, &terminates, cx);

    // Storage under loss: same check on the second protocol family.
    let setting = StorageSetting::new(2, 1);
    let lossy = faulty_storage(setting, FaultBudget::none().drops(1));
    let completes = faulty_read_completion_property(setting);
    let report = Checker::new(&lossy, completes.clone())
        .with_role_symmetry(&storage::symmetry_roles(setting))
        .run();
    let cx = report.verdict.counterexample().expect("a blocked read");
    lasso_is_genuine(&lossy, &completes, cx);
}

// ---------------------------------------------------------------------------
// (d) A cyclic model where the lasso closes modulo a non-identity
//     permutation: the reported cycle must be the unrolled concrete one.
// ---------------------------------------------------------------------------

#[test]
fn non_identity_cycle_closures_unroll_to_concrete_lassos() {
    // A symmetric toggler pair: both processes flip a bit forever. The
    // concrete graph is the 4-cycle square over {0,1}²; the orbit {[0,1],
    // [1,0]} means the DFS closes cycles *modulo the swap* (e.g. reaching
    // [0,1] while [1,0] is on the stack), so a reported lasso must be the
    // δ-unrolled concrete cycle, not the quotient segment.
    let flip = |p: usize| {
        let flip = TransitionSpec::builder(format!("flip{p}"), ProcessId(p)).internal();
        flip.sends_nothing()
            .effect(|l, _| Outcome::new(1 - *l))
            .build()
    };
    let togglers: ProtocolSpec<u8, Msg> = ProtocolSpec::builder("togglers")
        .process("a", 0u8)
        .process("b", 0u8)
        .transition(flip(0))
        .transition(flip(1))
        .build()
        .unwrap();
    let roles = RoleMap::new(2).role([ProcessId(0), ProcessId(1)]);
    assert_eq!(SymmetryGroup::build(&togglers, &roles).order(), 2);

    // "some local reaches 2" never holds, and a fair cycle exists (the full
    // square executes both flips), so termination is violated either way.
    let never = Property::termination("reaches-2", |s: &GlobalState<u8, Msg>, _: &NullObserver| {
        s.locals.contains(&2)
    });
    let off = Checker::new(&togglers, never.clone()).run();
    let on = Checker::new(&togglers, never.clone())
        .with_role_symmetry(&roles)
        .run();
    assert!(off.verdict.is_violated(), "{off}");
    assert!(on.verdict.is_violated(), "{on}");

    // The symmetric run's lasso replays concretely: the cycle returns
    // exactly to its entry state and starves no required transition.
    let cx = on.verdict.counterexample().unwrap();
    assert!(cx.is_lasso);
    assert!(!cx.cycle.is_empty(), "the togglers never quiesce: {cx}");
    lasso_is_genuine(&togglers, &never, cx);
    assert!(
        cx.cycle.iter().any(|s| s.transition == "flip0")
            && cx.cycle.iter().any(|s| s.transition == "flip1"),
        "a weakly-fair cycle must execute both togglers: {cx}"
    );

    // The stateless enumerator cuts a branch whose orbit is already on its
    // path: [1,0] → [1,1] → [0,1] stops at the swap of [1,0]. Without that
    // cut the togglers' tree is infinite.
    let report = Checker::new(&togglers, Invariant::always_true("true"))
        .with_role_symmetry(&roles)
        .config(CheckerConfig::stateless(false))
        .run();
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(report.strategy, "stateless+sym(2)");
    assert_eq!(tree(&report), (5, 10, 3, 6), "{report}");
}

// ---------------------------------------------------------------------------
// (e) Symmetry on and off agree on every verdict.
// ---------------------------------------------------------------------------

#[test]
fn symmetry_on_and_off_agree_on_every_verdict() {
    let crash1 = FaultBudget::none().crashes(1);
    let mut paxos = Tally::default();
    faulted_paxos_cell(crash1, &mut paxos);
    assert_eq!(
        paxos.symmetry_strict, 1,
        "the crash cell collapses orbits: {paxos:?}"
    );
    let mut tally = Tally::default();
    faulted_storage_cell(crash1, &mut tally);
    assert_eq!(tally.symmetric, 1, "{tally:?}");
}
