//! The differential driver's pins: one-spec cells, each judged by
//! [`common::differential`] against the reference search, that failed on an
//! engine before. The protocol cells and the generated seed set are judged
//! by the tests of the behaviour they cover (`por_soundness.rs`,
//! `store_backends.rs`, `fault_injection.rs`, `symmetry.rs`, `liveness.rs`,
//! `frontier_spill.rs`, `proptest_end_to_end.rs`).

mod common;

use common::differential::{generated, Tally};
use common::{GenLiveness, GenSpec, GenTransition, Rng, Watch};
use mp_basset::checker::Checker;
use mp_basset::faults::FaultBudget;
use mp_basset::model::InputSpec;

// ---------------------------------------------------------------------------
// Hand-written cells.
// ---------------------------------------------------------------------------

/// Internal `(process, from, to)` moves over `locals` values each, with one
/// role of `members`, watching process 0 for `bad`, and a liveness property
/// over process 0.
fn internal(
    locals: &[u8],
    moves: &[(usize, u8, u8)],
    members: &[usize],
    bad: u8,
    trigger: Option<Vec<u8>>,
    goal: &[u8],
) -> Tally {
    let step = |&(process, from, to): &(usize, u8, u8)| GenTransition {
        process,
        from,
        to,
        input: InputSpec::Internal,
        senders: None,
        payload: None,
        sends: Vec::new(),
    };
    let (goal, processes) = (goal.to_vec(), vec![0]);
    let gen = GenSpec {
        locals: locals.to_vec(),
        transitions: moves.iter().map(step).collect(),
        members: members.to_vec(),
        watch: Watch {
            processes,
            value: bad,
            at_least: 1,
        },
        liveness: GenLiveness {
            process: 0,
            trigger,
            goal,
            unfair: false,
        },
        budget: FaultBudget::none(),
        conservative: false,
    };
    let mut tally = Tally::default();
    let cell = generated(format!("{gen:?}"), &gen).expect("a valid spec");
    cell.judge(&mut tally);
    tally
}

#[test]
fn dpor_explores_every_instance_of_its_process() {
    // `0→1` and `0→2` are one process's choice; a race never schedules it.
    let tally = internal(&[3], &[(0, 0, 1), (0, 0, 2)], &[], 2, None, &[1]);
    assert_eq!(tally.violated, 1);
}

#[test]
fn bfs_deadlocks_are_as_short_as_violations() {
    // Local 1 is a 1-step deadlock; local 3 a 2-step violation found first.
    internal(&[4], &[(0, 0, 2), (0, 0, 1), (0, 2, 3)], &[], 3, None, &[3]);
}

#[test]
fn symmetric_liveness_falls_back_to_the_exact_search_once() {
    // Two members toggle while the coordinator's move to its goal stays
    // enabled: every cycle starves that move, so termination holds. The
    // quotient's cycle candidates send the search to its symmetry-free
    // re-run, which judges them itself instead of re-running again.
    let moves = [(0, 0, 1), (1, 0, 1), (1, 1, 0), (2, 0, 1), (2, 1, 0)];
    let tally = internal(&[2, 2, 2], &moves, &[1, 2], 2, None, &[1]);
    assert_eq!((tally.symmetric, tally.verified), (1, 1));
}

#[test]
fn cross_edge_lasso_is_found_by_the_scc_backstop() {
    // Locals i=0, u=1, g=2, v=3, w=4; trigger {u, v}, goal {g}: the fair
    // run u→v→w→u never reaches g, and its only all-pending cycle closes
    // through a cross edge.
    let moves = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 1)].map(|(from, to)| (0, from, to));
    let tally = internal(&[5], &moves, &[], 5, Some(vec![1, 3]), &[2]);
    assert_eq!(tally.backstop, 1);
}

#[test]
fn liveness_without_fairness_runs_unreduced() {
    // Violated without fairness; the stubborn sets, which lack the LTL-X
    // visibility condition, answered `verified` on each under SPOR.
    let mut tally = Tally::default();
    for seed in [1699, 1710, 2450, 2618, 2726] {
        let gen = GenSpec::generate(&mut Rng(seed));
        assert!(gen.liveness.unfair, "seed {seed}: {gen:?}");
        let cell = generated(format!("seed {seed}: {gen:?}"), &gen).expect("a valid spec");
        cell.judge(&mut tally);
        let built = gen.build().expect("a valid spec");
        let report = Checker::new(&built.spec, built.liveness).spor().run();
        let label = &report.strategy;
        assert!(!label.contains("+spor"), "seed {seed}: {label}");
        assert!(
            label.ends_with("(spor falls back to full expansion)"),
            "{label}"
        );
    }
    assert_eq!(
        (tally.liveness, tally.liveness_violated),
        (5, 5),
        "{tally:?}"
    );
}
