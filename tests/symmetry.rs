//! Integration tests for the process-symmetry (orbit) reduction
//! (`mp-symmetry`) across the evaluation protocols, the fault layer, the
//! property classes, the reduction strategies and the store backends:
//!
//! * the validated groups have the expected orders (and the deliberately
//!   asymmetric Paxos variant — acceptors seeded with distinct accepted
//!   values — degenerates to identity),
//! * symmetry-on and symmetry-off agree on **every** safety and liveness
//!   verdict across the fault-budget grid, with SPOR on and off and with
//!   every store backend, while symmetry-on explores at most as many (and
//!   on the Paxos/storage crash cells strictly fewer) states,
//! * every engine agrees under symmetry, and
//! * lasso counterexamples found modulo symmetry still replay concretely.

use mp_basset::checker::{
    Checker, CheckerConfig, Counterexample, NullObserver, Observer, SearchStrategy,
};
use mp_basset::faults::FaultBudget;
use mp_basset::model::{
    enabled_instances, execute_enabled, GlobalState, LocalState, Message, Permutable, ProtocolSpec,
};
use mp_basset::protocols::echo_multicast::{
    self, faulty_agreement_property, faulty_delivery_termination_property,
    faulty_quorum_model as faulty_multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    self, faulty_consensus_property, faulty_quorum_model as faulty_paxos,
    faulty_termination_property, quorum_model_with_acceptor_values, PaxosSetting, PaxosVariant,
};
use mp_basset::protocols::storage::{
    self, faulty_quorum_model as faulty_storage, faulty_read_completion_property,
    faulty_regularity_observer, faulty_regularity_property, StorageSetting,
};
use mp_basset::store::StoreConfig;
use mp_basset::symmetry::{RoleMap, SymmetryGroup};

fn paxos_setting() -> PaxosSetting {
    PaxosSetting::new(1, 2, 1)
}

fn multicast_setting() -> MulticastSetting {
    MulticastSetting::new(2, 1, 0, 1)
}

fn storage_setting() -> StorageSetting {
    StorageSetting::new(2, 1)
}

fn budgets() -> [(&'static str, FaultBudget); 3] {
    [
        ("none", FaultBudget::none()),
        ("crash1", FaultBudget::none().crashes(1)),
        ("drop1", FaultBudget::none().drops(1)),
    ]
}

// ---------------------------------------------------------------------------
// (a) Validated group orders.
// ---------------------------------------------------------------------------

#[test]
fn validated_groups_have_expected_orders() {
    // Paxos (1,2,1): 2 interchangeable acceptors, 1 learner -> order 2.
    let spec = faulty_paxos(
        paxos_setting(),
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1),
    );
    let group = SymmetryGroup::build(&spec, &paxos::symmetry_roles(paxos_setting()));
    assert_eq!(group.order(), 2, "two acceptors swap");

    // Regular storage (2,1): 2 interchangeable base objects -> order 2.
    let spec = faulty_storage(storage_setting(), FaultBudget::none().crashes(1));
    let group = SymmetryGroup::build(&spec, &storage::symmetry_roles(storage_setting()));
    assert_eq!(group.order(), 2, "two base objects swap");

    // Echo multicast (2,1,0,1): the equivocation attack splits the two
    // honest receivers into different attack groups, so the declared role
    // degenerates — the correct answer, not a missed optimisation.
    let spec = faulty_multicast(multicast_setting(), FaultBudget::none());
    let group = SymmetryGroup::build(&spec, &echo_multicast::symmetry_roles(multicast_setting()));
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
    let setting = paxos_setting();
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
    let off = Checker::new(
        &asymmetric,
        mp_basset::protocols::paxos::consensus_property(setting),
    )
    .run();
    let on = Checker::new(
        &asymmetric,
        mp_basset::protocols::paxos::consensus_property(setting),
    )
    .with_role_symmetry(&roles)
    .run();
    assert_eq!(off.verdict.is_violated(), on.verdict.is_violated());
    assert_eq!(off.stats.states, on.stats.states, "identity group = no-op");
}

// ---------------------------------------------------------------------------
// (b) Symmetry-on/off verdict agreement across the whole matrix.
// ---------------------------------------------------------------------------

/// Runs safety + liveness with and without symmetry under one strategy and
/// backend; asserts verdict agreement and returns (states_off, states_on)
/// of the safety run.
#[allow(clippy::too_many_arguments)]
fn agree_cell<S, M, O>(
    label: &str,
    spec: &ProtocolSpec<S, M>,
    roles: &RoleMap,
    safety: mp_basset::checker::Invariant<S, M, O>,
    liveness: &mp_basset::checker::Property<S, M, NullObserver>,
    observer: O,
    spor: bool,
    store: StoreConfig,
) -> (usize, usize)
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    let config = CheckerConfig::stateful_dfs().with_store(store);
    let liveness_run = |symmetry: bool| {
        let checker =
            Checker::with_observer(spec, liveness.clone(), NullObserver).config(config.clone());
        let checker = if spor { checker.spor() } else { checker };
        if symmetry {
            checker.with_role_symmetry(roles).run()
        } else {
            checker.run()
        }
    };

    // Safety.
    let safety_run = |symmetry: bool| {
        let checker =
            Checker::with_observer(spec, safety.clone(), observer.clone()).config(config.clone());
        let checker = if spor { checker.spor() } else { checker };
        if symmetry {
            checker.with_role_symmetry(roles).run()
        } else {
            checker.run()
        }
    };
    let safety_off = safety_run(false);
    let safety_on = safety_run(true);
    assert_eq!(
        safety_off.verdict.is_violated(),
        safety_on.verdict.is_violated(),
        "{label}: safety verdicts disagree ({} vs {})",
        safety_off.verdict,
        safety_on.verdict
    );
    assert!(
        safety_on.stats.states <= safety_off.stats.states,
        "{label}: symmetry must not grow the explored set ({} vs {})",
        safety_on.stats.states,
        safety_off.stats.states
    );

    // Liveness.
    let liveness_off = liveness_run(false);
    let liveness_on = liveness_run(true);
    assert_eq!(
        liveness_off.verdict.is_violated(),
        liveness_on.verdict.is_violated(),
        "{label}: liveness verdicts disagree ({} vs {})",
        liveness_off.verdict,
        liveness_on.verdict
    );

    (safety_off.stats.states, safety_on.stats.states)
}

#[test]
fn symmetry_on_and_off_agree_on_every_verdict() {
    let stores = [
        StoreConfig::Exact,
        StoreConfig::sharded(),
        StoreConfig::fingerprint(48),
    ];
    let mut paxos_crash_collapsed = false;
    for (budget_label, budget) in budgets() {
        for spor in [false, true] {
            for store in stores {
                let label =
                    |proto: &str| format!("{proto}/{budget_label}/spor={spor}/store={store}");

                let setting = paxos_setting();
                let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
                let (off, on) = agree_cell(
                    &label("paxos"),
                    &spec,
                    &paxos::symmetry_roles(setting),
                    faulty_consensus_property(setting),
                    &faulty_termination_property(setting),
                    NullObserver,
                    spor,
                    store,
                );
                if budget_label == "crash1" {
                    assert!(
                        on < off,
                        "paxos crash cells must collapse orbits ({on} vs {off})"
                    );
                    paxos_crash_collapsed = true;
                }

                let setting = multicast_setting();
                let spec = faulty_multicast(setting, budget);
                agree_cell(
                    &label("multicast"),
                    &spec,
                    &echo_multicast::symmetry_roles(setting),
                    faulty_agreement_property(setting),
                    &faulty_delivery_termination_property(setting),
                    NullObserver,
                    spor,
                    store,
                );

                let setting = storage_setting();
                let spec = faulty_storage(setting, budget);
                agree_cell(
                    &label("storage"),
                    &spec,
                    &storage::symmetry_roles(setting),
                    faulty_regularity_property(setting),
                    &faulty_read_completion_property(setting),
                    faulty_regularity_observer(setting),
                    spor,
                    store,
                );
            }
        }
    }
    assert!(paxos_crash_collapsed);
}

// ---------------------------------------------------------------------------
// (c) Every engine agrees under symmetry.
// ---------------------------------------------------------------------------

#[test]
fn every_engine_agrees_under_symmetry() {
    let setting = paxos_setting();
    let roles = paxos::symmetry_roles(setting);
    // The stateless safety trees (expansions, transitions, depth, revisits)
    // without and with DPOR. Paxos makes progress on every step, so no
    // successor's orbit is ever on its path and the orbit cut stays idle
    // here; the togglers of section (e) are where it fires.
    for (budget, expect_violation, trees) in [
        (FaultBudget::none(), false, [(20, 19, 8, 0), (8, 7, 8, 0)]),
        (
            FaultBudget::none().crashes(1),
            true,
            [(233, 232, 9, 0), (104, 103, 9, 0)],
        ),
    ] {
        let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
        for config in [
            CheckerConfig::stateful_dfs(),
            CheckerConfig::stateful_bfs(),
            CheckerConfig::parallel_bfs(2),
            CheckerConfig::stateless(false),
            CheckerConfig::stateless(true),
        ] {
            let report = Checker::new(&spec, faulty_termination_property(setting))
                .with_role_symmetry(&roles)
                .config(config.clone())
                .run();
            assert_eq!(
                report.verdict.is_violated(),
                expect_violation,
                "strategy {:?} with symmetry disagrees on budget {budget}: {report}",
                config.strategy
            );
            // Safety too.
            let report = Checker::new(&spec, faulty_consensus_property(setting))
                .with_role_symmetry(&roles)
                .config(config.clone())
                .run();
            assert!(
                report.verdict.is_verified(),
                "strategy {:?} with symmetry broke consensus: {report}",
                config.strategy
            );
            if let SearchStrategy::Stateless { dpor } = config.strategy {
                let s = &report.stats;
                let tree = (
                    s.expansions,
                    s.transitions_executed,
                    s.max_depth,
                    s.revisits,
                );
                assert_eq!(tree, trees[usize::from(dpor)], "{report}");
                let label = ["stateless+sym(2)", "stateless+dpor (symmetry ignored)"];
                assert_eq!(report.strategy, label[usize::from(dpor)]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (d) Counterexamples stay concrete and replayable.
// ---------------------------------------------------------------------------

/// Replays a counterexample by matching names/processes/senders against the
/// enabled instances (same helper as tests/liveness.rs).
fn replay<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    cx: &Counterexample,
) -> (GlobalState<S, M>, GlobalState<S, M>) {
    let step = |state: &GlobalState<S, M>,
                step: &mp_basset::checker::CounterexampleStep|
     -> GlobalState<S, M> {
        let matching: Vec<_> = enabled_instances(spec, state)
            .into_iter()
            .filter(|i| {
                spec.transition(i.transition).name() == step.transition
                    && i.process == step.process
                    && i.senders() == step.consumed_from
            })
            .collect();
        assert!(
            !matching.is_empty(),
            "step `{step}` has no matching enabled instance during replay"
        );
        execute_enabled(spec, state, &matching[0])
    };
    let mut state = spec.initial_state();
    for s in &cx.steps {
        state = step(&state, s);
    }
    let entry = state.clone();
    for s in &cx.cycle {
        state = step(&state, s);
    }
    (entry, state)
}

#[test]
fn symmetric_lassos_replay_concretely() {
    // Paxos (1,2,1) + crash budget 1: the lasso's crash targets a concrete
    // acceptor even though only one crash orbit was explored.
    let setting = paxos_setting();
    let spec = faulty_paxos(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1),
    );
    let report = Checker::new(&spec, faulty_termination_property(setting))
        .with_role_symmetry(&paxos::symmetry_roles(setting))
        .run();
    let cx = report
        .verdict
        .counterexample()
        .expect("crash budget 1 breaks termination");
    assert!(cx.is_lasso);
    assert!(
        cx.steps
            .iter()
            .any(|s| s.transition.starts_with("FAULT_CRASH")),
        "the stem names a concrete crash victim: {cx}"
    );
    let (entry, after_cycle) = replay(&spec, cx);
    if cx.cycle.is_empty() {
        assert!(
            enabled_instances(&spec, &entry).is_empty(),
            "a quiescent lasso ends with nothing enabled"
        );
    } else {
        assert_eq!(entry, after_cycle, "one cycle unrolling returns to entry");
    }

    // Storage under loss: same check on the second protocol family.
    let setting = storage_setting();
    let lossy = faulty_storage(setting, FaultBudget::none().drops(1));
    let report = Checker::new(&lossy, faulty_read_completion_property(setting))
        .with_role_symmetry(&storage::symmetry_roles(setting))
        .run();
    let cx = report
        .verdict
        .counterexample()
        .expect("loss blocks the read");
    let (entry, after_cycle) = replay(&lossy, cx);
    if cx.cycle.is_empty() {
        assert!(enabled_instances(&lossy, &entry).is_empty());
    } else {
        assert_eq!(entry, after_cycle);
    }
}

// ---------------------------------------------------------------------------
// (e) A cyclic model where the lasso closes modulo a non-identity
//     permutation: the reported cycle must be the unrolled concrete one.
// ---------------------------------------------------------------------------

#[test]
fn non_identity_cycle_closures_unroll_to_concrete_lassos() {
    use mp_basset::checker::Property;
    use mp_basset::model::{Outcome, ProcessId, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Tok;
    mp_model::codec!(struct Tok);
    impl Message for Tok {
        fn kind(&self) -> &'static str {
            "TOK"
        }
    }
    impl Permutable for Tok {
        fn permute(&self, _perm: &mp_basset::model::Permutation) -> Self {
            Tok
        }
    }

    // A symmetric toggler pair: both processes flip a bit forever. The
    // concrete graph is the 4-cycle square over {0,1}²; the orbit {[0,1],
    // [1,0]} means the DFS closes cycles *modulo the swap* (e.g. reaching
    // [0,1] while [1,0] is on the stack), so a reported lasso must be the
    // δ-unrolled concrete cycle, not the quotient segment.
    let togglers: ProtocolSpec<u8, Tok> = ProtocolSpec::builder("togglers")
        .process("a", 0u8)
        .process("b", 0u8)
        .transition(
            TransitionSpec::builder("flip0", ProcessId(0))
                .internal()
                .sends_nothing()
                .effect(|l, _| Outcome::new(1 - *l))
                .build(),
        )
        .transition(
            TransitionSpec::builder("flip1", ProcessId(1))
                .internal()
                .sends_nothing()
                .effect(|l, _| Outcome::new(1 - *l))
                .build(),
        )
        .build()
        .unwrap();
    let roles = RoleMap::new(2).role([ProcessId(0), ProcessId(1)]);
    assert_eq!(SymmetryGroup::build(&togglers, &roles).order(), 2);

    // "some local reaches 2" never holds, and a fair cycle exists (the full
    // square executes both flips), so termination is violated either way.
    let never = Property::termination("reaches-2", |s: &GlobalState<u8, Tok>, _: &NullObserver| {
        s.locals.contains(&2)
    });
    let off = Checker::new(&togglers, never.clone()).run();
    let on = Checker::new(&togglers, never)
        .with_role_symmetry(&roles)
        .run();
    assert!(off.verdict.is_violated(), "{off}");
    assert!(on.verdict.is_violated(), "{on}");

    // The symmetric run's lasso replays concretely: the cycle returns
    // exactly to its entry state and starves no required transition.
    let cx = on.verdict.counterexample().unwrap();
    assert!(cx.is_lasso);
    assert!(!cx.cycle.is_empty(), "the togglers never quiesce: {cx}");
    let (entry, after_cycle) = replay(&togglers, cx);
    assert_eq!(entry, after_cycle, "the unrolled cycle closes exactly");
    assert!(
        cx.cycle.iter().any(|s| s.transition == "flip0")
            && cx.cycle.iter().any(|s| s.transition == "flip1"),
        "a weakly-fair cycle must execute both togglers: {cx}"
    );

    // The stateless enumerator cuts a branch whose orbit is already on its
    // path: [1,0] → [1,1] → [0,1] stops at the swap of [1,0]. Without that
    // cut the togglers' tree is infinite.
    let report = Checker::new(
        &togglers,
        mp_basset::checker::Invariant::always_true("true"),
    )
    .with_role_symmetry(&roles)
    .config(CheckerConfig::stateless(false))
    .run();
    assert!(report.verdict.is_verified(), "{report}");
    assert_eq!(report.strategy, "stateless+sym(2)");
    let s = &report.stats;
    let tree = (
        s.expansions,
        s.transitions_executed,
        s.max_depth,
        s.revisits,
    );
    assert_eq!(tree, (5, 10, 3, 6), "{report}");
}
