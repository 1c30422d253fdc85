//! Integration tests for the liveness property classes (termination,
//! leads-to) across the evaluation protocols and the fault layer:
//!
//! * termination is verified on the seed protocols,
//! * a crashed majority yields a **fair non-terminating lasso** for Paxos,
//! * every engine routes liveness to a search that agrees, with the
//!   stateless trees pinned, and
//! * lasso counterexamples replay deterministically step by step, and
//! * SPOR on and off, every store backend and symmetry on and off agree on
//!   every liveness verdict, judged by [`common::differential`].

mod common;

use common::differential::{faulted_multicast_cell, faulted_paxos_cell};
use common::differential::{faulted_storage_cell, Tally};
use common::{lasso_is_genuine, tree};
use mp_basset::checker::{Checker, CheckerConfig, CounterexampleStep, Property, SearchStrategy};
use mp_basset::faults::FaultBudget;
use mp_basset::model::{LocalState, Message, ProtocolSpec};
use mp_basset::protocols::echo_multicast::{
    delivery_termination_property, quorum_model as multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    accepted_leads_to_learned, faulty_quorum_model as faulty_paxos, faulty_termination_property,
    quorum_model as paxos, termination_property, PaxosSetting, PaxosVariant,
};
use mp_basset::protocols::storage::{
    faulty_quorum_model as faulty_storage, faulty_read_completion_property,
    quorum_model as storage, read_completion_property, reading_leads_to_done, StorageSetting,
};

// ---------------------------------------------------------------------------
// (a) Termination verified on the seed protocols.
// ---------------------------------------------------------------------------

/// Whether `property` holds on `spec`, by the default search.
fn holds<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>, property: Property<S, M>) -> bool {
    Checker::new(spec, property).run().verdict.is_verified()
}

#[test]
fn seed_protocols_satisfy_their_liveness_properties() {
    // Paxos always learns a value, multicast always delivers the honest
    // initiator's value, and storage reads always complete.
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    assert!(holds(&spec, termination_property(setting)));
    assert!(holds(&spec, accepted_leads_to_learned(setting)));
    let setting = MulticastSetting::new(2, 1, 0, 1);
    assert!(holds(
        &multicast(setting),
        delivery_termination_property(setting)
    ));
    let setting = StorageSetting::new(2, 1);
    assert!(holds(&storage(setting), read_completion_property(setting)));
    assert!(holds(&storage(setting), reading_leads_to_done(setting)));
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
    assert!(holds(&zero, faulty_termination_property(setting)));

    let crash1 = FaultBudget::none().crashes(1);
    let crashy = faulty_paxos(setting, PaxosVariant::Correct, crash1);
    let report = Checker::new(&crashy, faulty_termination_property(setting)).run();
    let cx = report.verdict.counterexample().expect("no termination");
    assert!(cx.is_lasso, "liveness counterexamples are lassos: {cx}");
    // The stem holds the crash that kills the majority.
    let crash = |s: &CounterexampleStep| s.transition.starts_with("FAULT_CRASH");
    assert!(cx.steps.iter().any(crash), "{cx}");
    // The crash is fairness-exempt: the violation is not "the environment
    // was forced to act" but "after it acted, the fair remainder of the run
    // cannot learn".
    assert!(report.strategy.contains("liveness-dfs"));
}

#[test]
fn every_engine_produces_the_same_liveness_verdict() {
    // The four engines dispatch on the property class; the BFS engines
    // route liveness to the lasso DFS, the stateless strategy runs it under
    // the path memory. All must agree. The stateless rows' trees are
    // pinned: (expansions, transitions, depth, revisits) and the lasso's
    // (stem, cycle) lengths.
    let (setting, none) = (PaxosSetting::new(1, 2, 1), FaultBudget::none());
    for (budget, expect_violation, pinned, lasso) in [
        (none, false, (16, 19, 7, 0), None),
        (none.crashes(1), true, (10, 14, 8, 0), Some((7, 0))),
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
            let label = format!("{:?} on {budget}: {report}", config.strategy);
            assert_eq!(report.verdict.is_violated(), expect_violation, "{label}");
            if let SearchStrategy::Stateless { dpor } = config.strategy {
                assert_eq!(tree(&report), pinned, "{report}");
                let cx = report.verdict.counterexample();
                assert_eq!(cx.map(|cx| (cx.steps.len(), cx.cycle.len())), lasso);
                let fallback = dpor.then_some(" (dpor falls back to full expansion)");
                let label = format!("stateless-liveness{}", fallback.unwrap_or(""));
                assert_eq!(report.strategy, label);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (c) Lasso counterexamples replay deterministically.
// ---------------------------------------------------------------------------

#[test]
fn lasso_counterexamples_replay_deterministically() {
    let setting = PaxosSetting::new(1, 2, 1);
    let crash1 = FaultBudget::none().crashes(1);
    let spec = faulty_paxos(setting, PaxosVariant::Correct, crash1);

    // Two runs of the same configuration produce the identical lasso.
    let first = Checker::new(&spec, faulty_termination_property(setting)).run();
    let second = Checker::new(&spec, faulty_termination_property(setting)).run();
    let cx1 = first.verdict.counterexample().expect("violation expected");
    let cx2 = second.verdict.counterexample().expect("violation expected");
    assert_eq!(cx1, cx2, "the lasso search is deterministic");

    // The stem replays from the initial state; a quiescent lasso ends in a
    // state with no enabled transition, a cyclic lasso returns to its entry
    // state after one unrolling.
    lasso_is_genuine(&spec, &faulty_termination_property(setting), cx1);

    // The storage model under loss produces a quiescent lasso too.
    let setting = StorageSetting::new(2, 1);
    let lossy = faulty_storage(setting, FaultBudget::none().drops(1));
    let completes = faulty_read_completion_property(setting);
    let report = Checker::new(&lossy, completes.clone()).run();
    let cx = report.verdict.counterexample().expect("a blocked read");
    lasso_is_genuine(&lossy, &completes, cx);
}

// ---------------------------------------------------------------------------
// (d) SPOR, stores and symmetry agree on every liveness verdict.
// ---------------------------------------------------------------------------

#[test]
fn spor_and_unreduced_agree_on_every_liveness_verdict() {
    let mut tally = Tally::default();
    let setting = MulticastSetting::new(2, 1, 0, 1);
    let none = FaultBudget::none();
    for budget in [none, none.crashes(1)] {
        faulted_multicast_cell(setting, budget, &mut tally);
    }
    faulted_storage_cell(none, &mut tally);
    assert_eq!(tally.liveness, 6, "{tally:?}");
    assert!(tally.liveness_violated > 0, "{tally:?}");
}

#[test]
fn liveness_agrees_across_store_backends_and_symmetry() {
    let mut tally = Tally::default();
    let setting = MulticastSetting::new(2, 1, 0, 1);
    faulted_multicast_cell(setting, FaultBudget::none().dups(1), &mut tally);
    faulted_paxos_cell(FaultBudget::none().drops(1), &mut tally);
    assert_eq!((tally.liveness, tally.symmetric), (4, 1), "{tally:?}");
}
