//! Integration tests for the disk-backed (spillable) BFS frontier
//! (`mp-store`'s `FrontierConfig::Disk` driven by the breadth-first
//! engines):
//!
//! * spill-on and spill-off runs agree **exactly** — verdict, state count,
//!   transition count and search depth — across the evaluation protocols,
//!   the fault-budget grid and symmetry on/off (the frontiers are strictly
//!   FIFO, so the exploration order is identical),
//! * a tiny watermark forces multi-segment spilling and the run still
//!   reproduces the in-memory result bit for bit,
//! * counterexamples found by a spilled run carry the same concrete path
//!   as the in-memory run and replay step by step from the initial state,
//! * pooled runs (`parallel_bfs`) of the three violated debugging cells
//!   return counterexamples as short as the sequential run's, on either
//!   frontier and with symmetry on or off, and
//! * with symmetry on, the spilled frontier holds canonical orbit
//!   representatives, so its peak bytes shrink with the orbit collapse
//!   (≥ 1.4x on the Paxos crash cells).

use mp_basset::checker::{
    Checker, CheckerConfig, Counterexample, Invariant, NullObserver, Observer, PropertyStatus,
    RunReport,
};
use mp_basset::faults::FaultBudget;
use mp_basset::model::{
    enabled_instances, execute_enabled, GlobalState, LocalState, Message, Permutable, ProtocolSpec,
};
use mp_basset::protocols::echo_multicast::{
    self, agreement_property, faulty_agreement_property, faulty_quorum_model as faulty_multicast,
    quorum_model as multicast_quorum, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    self, consensus_property, faulty_consensus_property, faulty_quorum_model as faulty_paxos,
    quorum_model as paxos_quorum, PaxosSetting, PaxosVariant,
};
use mp_basset::protocols::storage::{
    self, faulty_quorum_model as faulty_storage, faulty_regularity_observer,
    faulty_regularity_property, quorum_model as storage_quorum, wrong_regularity_property,
    RegularityObserver, StorageSetting,
};
use mp_basset::store::FrontierConfig;
use mp_basset::symmetry::RoleMap;

/// Small enough that every grid cell writes several spill segments.
const TINY_WATERMARK: usize = 512;

fn budgets() -> [(&'static str, FaultBudget); 3] {
    [
        ("none", FaultBudget::none()),
        ("crash1", FaultBudget::none().crashes(1)),
        ("drop1", FaultBudget::none().drops(1)),
    ]
}

/// Asserts that two runs of the same check explored identically.
fn assert_identical(label: &str, mem: &RunReport, disk: &RunReport) {
    assert_eq!(
        mem.verdict.to_string(),
        disk.verdict.to_string(),
        "{label}: verdicts differ"
    );
    assert_eq!(mem.stats.states, disk.stats.states, "{label}: state counts");
    assert_eq!(
        mem.stats.transitions_executed, disk.stats.transitions_executed,
        "{label}: transition counts"
    );
    assert_eq!(mem.stats.max_depth, disk.stats.max_depth, "{label}: depth");
    assert_eq!(disk.stats.frontier_backend, "disk", "{label}");
    assert!(
        disk.strategy.ends_with("+spill"),
        "{label}: {}",
        disk.strategy
    );
}

// ---------------------------------------------------------------------------
// (a) Spill on/off agreement across protocols × budgets × symmetry.
// ---------------------------------------------------------------------------

#[test]
fn spill_matches_mem_across_protocols_budgets_and_symmetry() {
    fn grid_cell<S, M, O>(
        label: &str,
        spec: &ProtocolSpec<S, M>,
        roles: &mp_basset::symmetry::RoleMap,
        property: mp_basset::checker::Invariant<S, M, O>,
        observer: O,
        collapse: &mut Vec<(String, usize, usize)>,
    ) where
        S: LocalState + mp_basset::model::Permutable,
        M: Message + mp_basset::model::Permutable,
        O: mp_basset::checker::Observer<S, M> + mp_basset::model::Permutable + Ord,
    {
        for symmetry in [false, true] {
            let run = |frontier: FrontierConfig| {
                let checker = Checker::with_observer(spec, property.clone(), observer.clone())
                    .spor()
                    .config(CheckerConfig::stateful_bfs().with_frontier(frontier));
                let checker = if symmetry {
                    checker.with_role_symmetry(roles)
                } else {
                    checker
                };
                checker.run()
            };
            let mem = run(FrontierConfig::Mem);
            // A one-byte watermark flushes a segment per enqueued state, so
            // even the small zero-budget cells round-trip through disk.
            let disk = run(FrontierConfig::disk_with_watermark(1));
            let label = format!("{label} sym={symmetry}");
            assert_identical(&label, &mem, &disk);
            assert!(
                disk.stats.frontier_spilled_bytes > 0,
                "{label}: the one-byte watermark must force spilling"
            );
            collapse.push((label, usize::from(symmetry), disk.stats.frontier_peak_bytes));
        }
    }

    let mut collapse = Vec::new();

    let setting = PaxosSetting::new(1, 2, 1);
    let roles = paxos::symmetry_roles(setting);
    for (name, budget) in budgets() {
        let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
        grid_cell(
            &format!("paxos/{name}"),
            &spec,
            &roles,
            faulty_consensus_property(setting),
            mp_basset::checker::NullObserver,
            &mut collapse,
        );
    }

    let setting = MulticastSetting::new(2, 1, 0, 1);
    let roles = echo_multicast::symmetry_roles(setting);
    for (name, budget) in budgets() {
        let spec = faulty_multicast(setting, budget);
        grid_cell(
            &format!("multicast/{name}"),
            &spec,
            &roles,
            faulty_agreement_property(setting),
            mp_basset::checker::NullObserver,
            &mut collapse,
        );
    }

    let setting = StorageSetting::new(2, 1);
    let roles = storage::symmetry_roles(setting);
    for (name, budget) in budgets() {
        let spec = faulty_storage(setting, budget);
        grid_cell(
            &format!("storage/{name}"),
            &spec,
            &roles,
            faulty_regularity_property(setting),
            faulty_regularity_observer(setting),
            &mut collapse,
        );
    }

    // Symmetry never grows the spilled frontier: compare each sym=true
    // entry with its sym=false sibling.
    for pair in collapse.chunks(2) {
        let [(label, _, plain), (_, _, sym)] = pair else {
            panic!("grid cells come in sym off/on pairs");
        };
        assert!(
            sym <= plain,
            "{label}: symmetric frontier ({sym}B) exceeds plain ({plain}B)"
        );
    }
}

// ---------------------------------------------------------------------------
// (b) Orbit collapse is visible in the spilled frontier bytes.
// ---------------------------------------------------------------------------

#[test]
fn symmetry_shrinks_spilled_frontier_bytes_on_paxos_crash_cells() {
    let setting = PaxosSetting::new(1, 2, 1);
    let roles = paxos::symmetry_roles(setting);
    let spec = faulty_paxos(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1),
    );
    let run = |symmetry: bool| {
        let checker = Checker::new(&spec, faulty_consensus_property(setting))
            .spor()
            .config(
                CheckerConfig::stateful_bfs()
                    .with_frontier(FrontierConfig::disk_with_watermark(TINY_WATERMARK)),
            );
        let checker = if symmetry {
            checker.with_role_symmetry(&roles)
        } else {
            checker
        };
        checker.run()
    };
    let plain = run(false);
    let sym = run(true);
    assert!(plain.verdict.is_verified() && sym.verdict.is_verified());
    let ratio =
        plain.stats.frontier_peak_bytes as f64 / sym.stats.frontier_peak_bytes.max(1) as f64;
    assert!(
        ratio >= 1.4,
        "spilling canonical representatives must shrink the crash-cell \
         frontier by the orbit collapse: {}B plain vs {}B symmetric ({ratio:.2}x)",
        plain.stats.frontier_peak_bytes,
        sym.stats.frontier_peak_bytes
    );
}

// ---------------------------------------------------------------------------
// (c) Counterexamples from spilled runs: identical and concretely replayable.
// ---------------------------------------------------------------------------

/// Replays a safety counterexample from the initial state by matching each
/// recorded step against the enabled instances (same helper shape as the
/// symmetry/liveness integration tests).
fn replay<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    cx: &Counterexample,
) -> GlobalState<S, M> {
    let mut ends = replay_observed(spec, cx, NullObserver);
    ends.swap_remove(0).0
}

/// [`replay`], folding `observer` along the path. A step names the senders
/// it consumed from but not the payloads, so several enabled instances can
/// match it; every match is followed and every end point returned, first
/// matches first.
fn replay_observed<S: LocalState, M: Message, O: Observer<S, M>>(
    spec: &ProtocolSpec<S, M>,
    cx: &Counterexample,
    observer: O,
) -> Vec<(GlobalState<S, M>, O)> {
    let mut ends = vec![(spec.initial_state(), observer)];
    for step in &cx.steps {
        let mut next = Vec::new();
        for (state, observer) in &ends {
            for instance in enabled_instances(spec, state) {
                if spec.transition(instance.transition).name() == step.transition
                    && instance.process == step.process
                    && instance.senders() == step.consumed_from
                {
                    let post = execute_enabled(spec, state, &instance);
                    let observed = observer.update(spec, state, &instance, &post);
                    let end = (post, observed);
                    if !next.contains(&end) {
                        next.push(end);
                    }
                }
            }
        }
        assert!(
            !next.is_empty(),
            "step `{step}` has no matching enabled instance during replay"
        );
        ends = next;
    }
    ends
}

#[test]
fn spilled_counterexample_replays_concretely() {
    // The paper's injected learner bug on Paxos (2,3,1): two proposers can
    // drive a faulty learner into learning two different values.
    let setting = PaxosSetting::new(2, 3, 1);
    let spec = paxos_quorum(setting, PaxosVariant::FaultyLearner);
    let property = consensus_property(setting);
    let run = |frontier: FrontierConfig| {
        Checker::new(&spec, consensus_property(setting))
            .spor()
            .config(CheckerConfig::stateful_bfs().with_frontier(frontier))
            .run()
    };
    let mem = run(FrontierConfig::Mem);
    let disk = run(FrontierConfig::disk_with_watermark(TINY_WATERMARK));
    assert!(disk.stats.frontier_spilled_bytes > 0);

    let mem_cx = mem.verdict.counterexample().expect("bug must be found");
    let disk_cx = disk.verdict.counterexample().expect("bug must be found");
    // FIFO frontiers: the spilled run finds the *same* shortest path, even
    // though its parent table lived in spill segments.
    assert_eq!(mem_cx.steps, disk_cx.steps);
    assert_eq!(mem_cx.len(), disk_cx.len());

    // And the recorded path is a real execution ending in a violation.
    let violating = replay(&spec, disk_cx);
    assert!(matches!(
        property.evaluate(&violating, &mp_basset::checker::NullObserver),
        PropertyStatus::Violated(_)
    ));
}

/// One violated debugging cell through the sequential search and the pool
/// at 1–3 threads, on both frontiers, symmetry off and on: every
/// counterexample is as short as the sequential one and replays from the
/// initial state to a state the property rejects; at one thread it *is* the
/// sequential one.
fn assert_pooled_counterexamples_are_shortest<S, M, O>(
    label: &str,
    spec: &ProtocolSpec<S, M>,
    property: impl Fn() -> Invariant<S, M, O>,
    observer: O,
    roles: &RoleMap,
) where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    for frontier in [FrontierConfig::Mem, FrontierConfig::disk_with_watermark(64)] {
        for symmetry in [false, true] {
            let run = |config: CheckerConfig| {
                let checker = Checker::with_observer(spec, property(), observer.clone())
                    .spor()
                    .config(config.with_frontier(frontier));
                if symmetry {
                    checker.with_role_symmetry(roles).run()
                } else {
                    checker.run()
                }
            };
            let sequential = run(CheckerConfig::stateful_bfs());
            let shortest = sequential
                .verdict
                .counterexample()
                .unwrap_or_else(|| panic!("{label}: the bug must be found"));
            assert!(!shortest.is_empty(), "{label}");
            for threads in 1..=3 {
                let tag = format!("{label} threads={threads} sym={symmetry} {frontier}");
                let pooled = run(CheckerConfig::parallel_bfs(threads));
                let cx = pooled
                    .verdict
                    .counterexample()
                    .unwrap_or_else(|| panic!("{tag}: the bug must be found"));
                assert_eq!(cx.len(), shortest.len(), "{tag}: not a shortest path");
                // The end point the engine reported must be among the
                // path's, and the property must reject it.
                let rejected = replay_observed(spec, cx, observer.clone())
                    .into_iter()
                    .filter(|(end, _)| format!("{end:#?}") == cx.violating_state)
                    .any(|(end, observed)| {
                        matches!(
                            property().evaluate(&end, &observed),
                            PropertyStatus::Violated(_)
                        )
                    });
                assert!(rejected, "{tag}: the path does not end in a violation");
                if threads == 1 {
                    assert_eq!(cx.steps, shortest.steps, "{tag}");
                    assert_eq!(
                        pooled.stats.counters(),
                        sequential.stats.counters(),
                        "{tag}"
                    );
                }
            }
        }
    }
}

#[test]
fn pooled_counterexamples_are_shortest_paths_to_a_violation() {
    let setting = PaxosSetting::new(2, 3, 1);
    assert_pooled_counterexamples_are_shortest(
        "faulty-learner Paxos",
        &paxos_quorum(setting, PaxosVariant::FaultyLearner),
        || consensus_property(setting),
        NullObserver,
        &paxos::symmetry_roles(setting),
    );
    let setting = StorageSetting::new(3, 2);
    assert_pooled_counterexamples_are_shortest(
        "wrong-regularity storage",
        &storage_quorum(setting),
        || wrong_regularity_property(setting),
        RegularityObserver::new(setting),
        &storage::symmetry_roles(setting),
    );
    let setting = MulticastSetting::new(2, 1, 2, 1);
    assert_pooled_counterexamples_are_shortest(
        "wrong-agreement multicast",
        &multicast_quorum(setting),
        || agreement_property(setting),
        NullObserver,
        &echo_multicast::symmetry_roles(setting),
    );
}

// ---------------------------------------------------------------------------
// (d) The tiny watermark genuinely multi-segments.
// ---------------------------------------------------------------------------

#[test]
fn tiny_watermark_forces_multi_segment_spilling() {
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = faulty_paxos(
        setting,
        PaxosVariant::Correct,
        FaultBudget::none().crashes(1).drops(1),
    );
    let report = Checker::new(&spec, faulty_consensus_property(setting))
        .config(
            CheckerConfig::stateful_bfs()
                .with_frontier(FrontierConfig::disk_with_watermark(TINY_WATERMARK)),
        )
        .run();
    assert!(report.verdict.is_verified());
    // Multiple segments: total spilled bytes are several watermarks' worth.
    assert!(
        report.stats.frontier_spilled_bytes >= 4 * TINY_WATERMARK,
        "expected at least 4 segments, spilled only {} bytes",
        report.stats.frontier_spilled_bytes
    );
    // The mem run agrees (the unreduced crash1+drop1 cell is the largest
    // in the sweep — exactly the shape the spill exists for).
    let mem = Checker::new(&spec, faulty_consensus_property(setting))
        .config(CheckerConfig::stateful_bfs())
        .run();
    assert_eq!(mem.stats.states, report.stats.states);
    assert_eq!(mem.verdict.to_string(), report.verdict.to_string());
}
