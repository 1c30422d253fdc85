//! Integration tests for the disk-backed (spillable) BFS frontier
//! (`mp-store`'s `FrontierConfig::Disk` driven by the breadth-first
//! engines):
//!
//! * with symmetry on, the spilled frontier holds canonical orbit
//!   representatives, so its peak bytes shrink with the orbit collapse
//!   (≥ 1.4x on the Paxos crash cells),
//! * counterexamples found by a spilled run carry the same concrete path
//!   as the in-memory run and replay step by step from the initial state,
//!   and
//! * a tiny watermark forces multi-segment spilling and the run still
//!   reproduces the in-memory result, and
//! * spilled runs explore exactly as in-memory ones, and pooled
//!   counterexamples are as short as the sequential ones, across protocols,
//!   budgets and symmetry, judged by [`common::differential`].

mod common;

use common::differential::{faulted_multicast_cell, faulted_storage_cell, Tally};
use common::rejects;
use mp_basset::checker::{Checker, CheckerConfig, NullObserver};
use mp_basset::faults::FaultBudget;
use mp_basset::protocols::echo_multicast::MulticastSetting;
use mp_basset::protocols::paxos::{
    self, consensus_property, faulty_consensus_property, faulty_quorum_model as faulty_paxos,
    quorum_model as paxos_quorum, PaxosSetting, PaxosVariant,
};
use mp_basset::store::FrontierConfig;

/// Small enough that every run writes several spill segments.
const TINY_WATERMARK: usize = 512;

fn tiny() -> FrontierConfig {
    FrontierConfig::disk_with_watermark(TINY_WATERMARK)
}

// ---------------------------------------------------------------------------
// (a) Orbit collapse is visible in the spilled frontier bytes.
// ---------------------------------------------------------------------------

#[test]
fn symmetry_shrinks_spilled_frontier_bytes_on_paxos_crash_cells() {
    let setting = PaxosSetting::new(1, 2, 1);
    let crash1 = FaultBudget::none().crashes(1);
    let spec = faulty_paxos(setting, PaxosVariant::Correct, crash1);
    let config = CheckerConfig::stateful_bfs().with_frontier(tiny());
    let checker = Checker::new(&spec, faulty_consensus_property(setting))
        .spor()
        .config(config);
    let plain = checker.run();
    let sym = checker
        .with_role_symmetry(&paxos::symmetry_roles(setting))
        .run();
    assert!(plain.verdict.is_verified() && sym.verdict.is_verified());
    // Spilling canonical representatives shrinks the frontier by the orbit
    // collapse.
    let peak = (
        plain.stats.frontier_peak_bytes,
        sym.stats.frontier_peak_bytes,
    );
    let ratio = peak.0 as f64 / peak.1.max(1) as f64;
    assert!(ratio >= 1.4, "{peak:?} bytes: {ratio:.2}x");
}

// ---------------------------------------------------------------------------
// (b) Counterexamples from spilled runs: identical and concretely replayable.
// ---------------------------------------------------------------------------

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
    let disk = run(tiny());
    assert!(disk.stats.frontier_spilled_bytes > 0);

    let mem_cx = mem.verdict.counterexample().expect("bug must be found");
    let disk_cx = disk.verdict.counterexample().expect("bug must be found");
    // FIFO frontiers: the spilled run finds the *same* shortest path, even
    // though its parent table lived in spill segments.
    assert_eq!(mem_cx.steps, disk_cx.steps);
    assert_eq!(mem_cx.len(), disk_cx.len());

    // And the recorded path is a real execution ending in a violation.
    rejects(&spec, &property, NullObserver, disk_cx);
}

// ---------------------------------------------------------------------------
// (c) The tiny watermark genuinely multi-segments.
// ---------------------------------------------------------------------------

#[test]
fn tiny_watermark_forces_multi_segment_spilling() {
    let setting = PaxosSetting::new(1, 2, 1);
    let budget = FaultBudget::none().crashes(1).drops(1);
    let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
    let run = |config| {
        let checker = Checker::new(&spec, faulty_consensus_property(setting));
        checker.config(config).run()
    };
    let report = run(CheckerConfig::stateful_bfs().with_frontier(tiny()));
    assert!(report.verdict.is_verified());
    // Multiple segments: total spilled bytes are several watermarks' worth.
    let spilled = report.stats.frontier_spilled_bytes;
    assert!(spilled >= 4 * TINY_WATERMARK, "{spilled} bytes");
    // The mem run agrees (the unreduced crash1+drop1 cell is the largest
    // in the sweep — exactly the shape the spill exists for).
    let mem = run(CheckerConfig::stateful_bfs());
    assert_eq!(mem.stats.states, report.stats.states);
    assert_eq!(mem.verdict.to_string(), report.verdict.to_string());
}

// ---------------------------------------------------------------------------
// (d) Spill against the in-memory frontier, and pooled counterexamples.
// ---------------------------------------------------------------------------

#[test]
fn spill_matches_mem_across_protocols_budgets_and_symmetry() {
    let mut tally = Tally::default();
    let drop1 = FaultBudget::none().drops(1);
    faulted_multicast_cell(MulticastSetting::new(2, 1, 0, 1), drop1, &mut tally);
    faulted_storage_cell(drop1, &mut tally);
    assert_eq!((tally.cells, tally.symmetric), (2, 1), "{tally:?}");
}

#[test]
fn pooled_counterexamples_are_shortest_paths_to_a_violation() {
    // The over-threshold multicast attack, with one message drop.
    let mut tally = Tally::default();
    let attack = MulticastSetting::new(2, 0, 2, 1);
    faulted_multicast_cell(attack, FaultBudget::none().drops(1), &mut tally);
    assert_eq!(tally.violated, 1, "{tally:?}");
}
