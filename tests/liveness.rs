//! Integration tests for the liveness property classes (termination,
//! leads-to) across the evaluation protocols, the fault layer and the
//! reduction strategies:
//!
//! * termination is verified on the seed protocols,
//! * a crashed majority yields a **fair non-terminating lasso** for Paxos,
//! * SPOR on and off agree on every liveness verdict (cycle proviso), and
//! * lasso counterexamples replay deterministically step by step.

use mp_basset::checker::{
    Checker, CheckerConfig, Counterexample, Property, SearchStrategy, Verdict,
};
use mp_basset::faults::FaultBudget;
use mp_basset::model::{
    enabled_instances, execute_enabled, GlobalState, LocalState, Message, Permutable, ProtocolSpec,
};
use mp_basset::protocols::echo_multicast::{
    self, delivery_termination_property, faulty_committed_leads_to_delivered,
    faulty_delivery_termination_property, faulty_quorum_model as faulty_multicast,
    quorum_model as multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    self, accepted_leads_to_learned, faulty_accepted_leads_to_learned,
    faulty_quorum_model as faulty_paxos, faulty_termination_property, quorum_model as paxos,
    termination_property, PaxosSetting, PaxosVariant,
};
use mp_basset::protocols::storage::{
    faulty_quorum_model as faulty_storage, faulty_read_completion_property,
    faulty_reading_leads_to_done, quorum_model as storage, read_completion_property,
    reading_leads_to_done, StorageSetting,
};
use mp_basset::store::StoreConfig;
use mp_basset::symmetry::RoleMap;

// ---------------------------------------------------------------------------
// (a) Termination verified on the seed protocols.
// ---------------------------------------------------------------------------

#[test]
fn seed_protocols_satisfy_their_liveness_properties() {
    let paxos_setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos(paxos_setting, PaxosVariant::Correct);
    assert!(
        Checker::new(&spec, termination_property(paxos_setting))
            .run()
            .verdict
            .is_verified(),
        "seed Paxos must always learn a value"
    );
    assert!(
        Checker::new(&spec, accepted_leads_to_learned(paxos_setting))
            .run()
            .verdict
            .is_verified()
    );

    let multicast_setting = MulticastSetting::new(2, 1, 0, 1);
    assert!(
        Checker::new(
            &multicast(multicast_setting),
            delivery_termination_property(multicast_setting)
        )
        .run()
        .verdict
        .is_verified(),
        "seed multicast must always deliver the honest initiator's value"
    );

    let storage_setting = StorageSetting::new(2, 1);
    assert!(
        Checker::new(
            &storage(storage_setting),
            read_completion_property(storage_setting)
        )
        .run()
        .verdict
        .is_verified(),
        "seed storage reads must always complete"
    );
    assert!(Checker::new(
        &storage(storage_setting),
        reading_leads_to_done(storage_setting)
    )
    .run()
    .verdict
    .is_verified());
}

// ---------------------------------------------------------------------------
// (b) A crashed majority yields a fair non-terminating lasso for Paxos.
// ---------------------------------------------------------------------------

#[test]
fn paxos_crashed_majority_yields_fair_lasso() {
    // (1,2,1): the acceptor quorum is 2, so crashing one acceptor removes
    // the majority. Termination holds with crash budget 0 and fails with
    // crash budget 1 — the ROADMAP's "does Paxos still terminate with one
    // crash?" now has a real answer instead of a technical deadlock.
    let setting = PaxosSetting::new(1, 2, 1);

    let zero = faulty_paxos(setting, PaxosVariant::Correct, FaultBudget::none());
    assert!(
        Checker::new(&zero, faulty_termination_property(setting))
            .run()
            .verdict
            .is_verified(),
        "Paxos terminates with crash budget 0"
    );

    let crashy = faulty_paxos(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1),
    );
    let report = Checker::new(&crashy, faulty_termination_property(setting)).run();
    let cx = report
        .verdict
        .counterexample()
        .expect("crash budget 1 must break termination");
    assert!(cx.is_lasso, "liveness counterexamples are lassos: {cx}");
    assert!(
        cx.steps
            .iter()
            .any(|s| s.transition.starts_with("FAULT_CRASH")),
        "the stem must contain the crash that kills the majority: {cx}"
    );
    // The crash is fairness-exempt: the violation is not "the environment
    // was forced to act" but "after it acted, the fair remainder of the run
    // cannot learn".
    assert!(report.strategy.contains("liveness-dfs"));
}

// ---------------------------------------------------------------------------
// (c) SPOR on and off agree on every liveness verdict.
// ---------------------------------------------------------------------------

fn spor_agrees<S, M>(label: &str, spec: &ProtocolSpec<S, M>, property: &Property<S, M>) -> bool
where
    S: LocalState,
    M: Message,
{
    let unreduced = Checker::new(spec, property.clone()).run();
    let reduced = Checker::new(spec, property.clone()).spor().run();
    assert!(
        !matches!(unreduced.verdict, Verdict::LimitReached { .. }),
        "{label}: unreduced run must complete"
    );
    assert_eq!(
        unreduced.verdict.is_violated(),
        reduced.verdict.is_violated(),
        "{label}: SPOR and unreduced disagree ({} vs {})",
        unreduced.verdict,
        reduced.verdict
    );
    unreduced.verdict.is_violated()
}

#[test]
fn spor_and_unreduced_agree_on_every_liveness_verdict() {
    let budgets = [
        ("none", FaultBudget::none()),
        ("crash1", FaultBudget::none().crashes(1)),
        ("drop1", FaultBudget::none().drops(1)),
    ];

    let paxos_setting = PaxosSetting::new(1, 2, 1);
    let multicast_setting = MulticastSetting::new(2, 1, 0, 1);
    let storage_setting = StorageSetting::new(2, 1);

    let mut violations = 0usize;
    for (name, budget) in budgets {
        let spec = faulty_paxos(paxos_setting, PaxosVariant::Correct, budget);
        violations += usize::from(spor_agrees(
            &format!("paxos/termination/{name}"),
            &spec,
            &faulty_termination_property(paxos_setting),
        ));
        violations += usize::from(spor_agrees(
            &format!("paxos/leads-to/{name}"),
            &spec,
            &faulty_accepted_leads_to_learned(paxos_setting),
        ));

        let spec = faulty_multicast(multicast_setting, budget);
        violations += usize::from(spor_agrees(
            &format!("multicast/termination/{name}"),
            &spec,
            &faulty_delivery_termination_property(multicast_setting),
        ));
        violations += usize::from(spor_agrees(
            &format!("multicast/leads-to/{name}"),
            &spec,
            &faulty_committed_leads_to_delivered(multicast_setting),
        ));

        let spec = faulty_storage(storage_setting, budget);
        violations += usize::from(spor_agrees(
            &format!("storage/termination/{name}"),
            &spec,
            &faulty_read_completion_property(storage_setting),
        ));
        violations += usize::from(spor_agrees(
            &format!("storage/leads-to/{name}"),
            &spec,
            &faulty_reading_leads_to_done(storage_setting),
        ));
    }
    assert!(
        violations > 0,
        "the grid must contain both verified and violated cells"
    );
}

#[test]
fn every_engine_produces_the_same_liveness_verdict() {
    // The four engines dispatch on the property class; the BFS engines
    // route liveness to the lasso DFS, the stateless strategy runs it under
    // the path memory. All must agree. The stateless rows' trees are
    // pinned: (expansions, transitions, depth, revisits) and the lasso's
    // (stem, cycle) lengths.
    let setting = PaxosSetting::new(1, 2, 1);
    for (budget, expect_violation, tree, lasso) in [
        (FaultBudget::none(), false, (16, 19, 7, 0), None),
        (
            FaultBudget::none().crashes(1),
            true,
            (10, 14, 8, 0),
            Some((7, 0)),
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
                .config(config.clone())
                .run();
            assert_eq!(
                report.verdict.is_violated(),
                expect_violation,
                "strategy {:?} disagrees on budget {budget}: {report}",
                config.strategy
            );
            if let SearchStrategy::Stateless { dpor } = config.strategy {
                let s = &report.stats;
                let found = (
                    s.expansions,
                    s.transitions_executed,
                    s.max_depth,
                    s.revisits,
                );
                assert_eq!(found, tree, "{report}");
                let cx = report.verdict.counterexample();
                assert_eq!(cx.map(|cx| (cx.steps.len(), cx.cycle.len())), lasso);
                let label = if dpor {
                    "stateless-liveness (dpor falls back to full expansion)"
                } else {
                    "stateless-liveness"
                };
                assert_eq!(report.strategy, label);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (d) Lasso counterexamples replay deterministically.
// ---------------------------------------------------------------------------

/// Replays a counterexample on `spec` by matching each step's transition
/// name, executing process and consumed senders against the enabled
/// instances, returning the state after the stem and after the cycle.
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
fn lasso_counterexamples_replay_deterministically() {
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = faulty_paxos(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1),
    );

    // Two runs of the same configuration produce the identical lasso.
    let first = Checker::new(&spec, faulty_termination_property(setting)).run();
    let second = Checker::new(&spec, faulty_termination_property(setting)).run();
    let cx1 = first.verdict.counterexample().expect("violation expected");
    let cx2 = second.verdict.counterexample().expect("violation expected");
    assert_eq!(cx1, cx2, "the lasso search is deterministic");

    // The stem replays from the initial state; a quiescent lasso ends in a
    // state with no enabled transition, a cyclic lasso returns to its entry
    // state after one unrolling.
    let (entry, after_cycle) = replay(&spec, cx1);
    if cx1.cycle.is_empty() {
        assert!(
            enabled_instances(&spec, &entry).is_empty(),
            "a quiescent lasso must end in a state with nothing enabled"
        );
    } else {
        assert_eq!(entry, after_cycle, "one cycle unrolling returns to entry");
    }

    // Same for a cyclic (non-quiescent) lasso from a toy protocol: the
    // storage model under loss produces a quiescent one, the pure toggler
    // in mp-checker's unit tests covers the cyclic shape; here we replay
    // the storage lasso too.
    let storage_setting = StorageSetting::new(2, 1);
    let lossy = faulty_storage(storage_setting, FaultBudget::none().drops(1));
    let report = Checker::new(&lossy, faulty_read_completion_property(storage_setting)).run();
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
// (e) The liveness search agrees with itself under every store backend, with
//     symmetry off and on.
// ---------------------------------------------------------------------------

/// Runs the liveness DFS on one cell under the four store backends (and,
/// given roles, again under symmetry): within a symmetry setting every
/// backend must reproduce the exact store's verdict class, counters and
/// lasso shape; across the two only the verdict class is comparable. Every
/// reported lasso must replay, and every revisit is one store hit.
fn backends_agree<S, M>(
    label: &str,
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M>,
    roles: Option<&RoleMap>,
) where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    let mut violated = None;
    let symmetries = if roles.is_some() {
        vec![None, roles]
    } else {
        vec![None]
    };
    for roles in symmetries {
        let mut exact = None;
        for store in [
            StoreConfig::Exact,
            StoreConfig::sharded(),
            StoreConfig::fingerprint(64),
            StoreConfig::runs_with_watermark(32),
        ] {
            let label = format!("{label}/symmetry={}/{store}", roles.is_some());
            let checker = Checker::new(spec, property.clone())
                .config(CheckerConfig::stateful_dfs().with_store(store));
            let report = match roles {
                Some(roles) => checker.with_role_symmetry(roles).run(),
                None => checker.run(),
            };
            let stats = &report.stats;
            assert_eq!(stats.store_hits, stats.revisits, "{label}: {report}");
            let lasso = report.verdict.counterexample().map(|cx| {
                let (entry, after_cycle) = replay(spec, cx);
                if cx.cycle.is_empty() {
                    assert!(enabled_instances(spec, &entry).is_empty(), "{label}: {cx}");
                } else {
                    assert_eq!(entry, after_cycle, "{label}: {cx}");
                }
                (cx.steps.len(), cx.cycle.len())
            });
            let verified = report.verdict.is_verified();
            assert_eq!(verified, lasso.is_none(), "{label}: {report}");
            let row = (lasso, stats.states, stats.transitions_executed);
            assert_eq!(&row, exact.get_or_insert(row), "{label}: {report}");
            assert_eq!(&verified, violated.get_or_insert(verified), "{label}");
        }
    }
}

#[test]
fn liveness_agrees_across_store_backends_and_symmetry() {
    let setting = PaxosSetting::new(1, 2, 1);
    for (label, budget) in [
        ("paxos/none", FaultBudget::none()),
        ("paxos/crash1", FaultBudget::none().crashes(1)),
    ] {
        let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
        let roles = paxos::symmetry_roles(setting);
        let learns = faulty_termination_property(setting);
        backends_agree(label, &spec, &learns, Some(&roles));
    }

    let setting = MulticastSetting::new(2, 1, 0, 1);
    let spec = faulty_multicast(setting, FaultBudget::none().dups(1));
    let roles = echo_multicast::symmetry_roles(setting);
    let delivery = faulty_delivery_termination_property(setting);
    backends_agree("multicast/dup1", &spec, &delivery, Some(&roles));

    // The one-process graph whose only all-pending cycle closes through a
    // cross edge (locals i=0, u=1, g=2, v=3, w=4; trigger {u, v}, goal {g};
    // the fair run u→v→w→u never reaches g): the SCC backstop, and with it
    // the pending-node lookup, under every backend.
    use mp_basset::model::{Outcome, ProcessId, TransitionSpec};
    let mut builder = ProtocolSpec::<u8, String>::builder("cross-edge").process("only", 0u8);
    for (from, to) in [(0u8, 1u8), (1, 2), (1, 3), (2, 3), (3, 4), (4, 1)] {
        builder = builder.transition(
            TransitionSpec::builder(format!("{from}{to}"), ProcessId(0))
                .internal()
                .guard(move |l: &u8, _| *l == from)
                .sends_nothing()
                .visible()
                .effect(move |_, _| Outcome::new(to))
                .build(),
        );
    }
    let spec = builder.build().unwrap();
    let trigger_leads_to_goal = Property::leads_to(
        "trigger-leads-to-goal",
        |s: &GlobalState<u8, String>, _| s.locals[0] == 1 || s.locals[0] == 3,
        |s: &GlobalState<u8, String>, _| s.locals[0] == 2,
    );
    backends_agree("cross-edge", &spec, &trigger_leads_to_goal, None);
}
