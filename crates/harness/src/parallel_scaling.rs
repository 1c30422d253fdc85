//! Thread-scaling benchmark of the pooled (`parallel_bfs`) mode of the
//! breadth-first core.
//!
//! Each cell of the sweep runs one protocol/property pair with
//! `parallel_bfs(N)` at every thread count of the grid (same SPOR
//! reduction, same store, same frontier) and compares it against a
//! sequential BFS reference run. Two things are measured and one is
//! asserted:
//!
//! * **speedup** — wall-clock time of the 1-thread pooled run (no helper
//!   thread: every chunk is expanded on the calling thread) divided by
//!   the N-thread run of the same cell family. This is the number the
//!   `BENCH_parallel_scaling.json` baseline tracks and `bench_gate`
//!   guards against regressions (a pooled engine whose 4-thread run gets
//!   *slower* relative to its own 1-thread run has lost scaling
//!   efficiency, whatever the absolute times are);
//! * **cores** — `std::thread::available_parallelism()` of the machine
//!   that produced the row, recorded so a baseline captured on a small
//!   box is legible: speedup is bounded by the physical parallelism, and
//!   a 1-core container honestly reports speedups near 1.0;
//! * **agreement** — verdict and every order-independent counter
//!   (states, transitions, max depth) of each pooled run must equal the
//!   sequential reference. Helper threads reorder expansions within a
//!   level; they must never change what is explored.

use std::time::Duration;

use mp_checker::{Checker, CheckerConfig, NullObserver};
use mp_protocols::echo_multicast::{
    agreement_property, quorum_model as multicast_quorum, symmetry_roles as multicast_roles,
    MulticastSetting,
};
use mp_protocols::paxos::{
    consensus_property, quorum_model as paxos_quorum, symmetry_roles as paxos_roles, PaxosSetting,
    PaxosVariant,
};

use crate::bench_gate::{JsonValue, Row};
use crate::report::{run_row, short_verdict, Outcome};
use crate::Budget;

/// The worker-pool sizes every cell family is swept over.
pub const THREAD_GRID: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock ratio with microsecond resolution and a 1 µs floor, so
/// smoke-scale cells (whole runs inside a millisecond) never divide by
/// zero.
fn ratio(base: Duration, run: Duration) -> f64 {
    base.as_micros().max(1) as f64 / run.as_micros().max(1) as f64
}

#[allow(clippy::too_many_arguments)] // a scaling cell genuinely has this many axes
fn push_family<S, M>(
    label: &str,
    property_label: &str,
    spec: &mp_model::ProtocolSpec<S, M>,
    property: impl Fn() -> mp_checker::Invariant<S, M, NullObserver>,
    roles: Option<&mp_symmetry::RoleMap>,
    thread_grid: &[usize],
    budget: &Budget,
    (rows, failures): (&mut Vec<Row>, &mut Vec<String>),
) where
    S: mp_model::LocalState + mp_model::Permutable,
    M: mp_model::Message + mp_model::Permutable,
{
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = |config: CheckerConfig| {
        let checker = Checker::new(spec, property())
            .spor()
            .config(budget.apply(config));
        match roles {
            Some(roles) => checker.with_role_symmetry(roles).run(),
            None => checker.run(),
        }
    };
    // The sequential BFS reference every pooled run must agree with.
    let reference = run(CheckerConfig::stateful_bfs());
    let mut base_time = None;
    for &threads in thread_grid {
        let report = run(CheckerConfig::parallel_bfs(threads));
        let base = *base_time.get_or_insert(report.stats.elapsed);
        let agrees = report.verdict.to_string() == reference.verdict.to_string()
            && report.stats.counters() == reference.stats.counters();
        let sym = if roles.is_some() { "+sym" } else { "" };
        let strategy = format!("parallel-bfs({threads})+SPOR{sym}");
        let verdict = short_verdict(&report.verdict);
        if !agrees {
            failures.push(format!(
                "PARALLEL ENGINE DISAGREEMENT: {label} / {property_label} / {strategy}: pooled run \
                 diverged from sequential BFS ({verdict}, {} states)",
                report.stats.states
            ));
        }
        let mut row = run_row(label, property_label, &strategy, &verdict, &report);
        let speedup = ratio(base, report.stats.elapsed);
        row.insert("speedup".to_string(), JsonValue::ratio(speedup));
        row.insert("cores".to_string(), cores.into());
        rows.push(row);
    }
}

/// Sweeps the pooled engine over `thread_grid` on a Paxos and an echo
/// multicast quorum cell, each with symmetry off and on: one row per
/// pooled run (`threads`, the fractional `speedup` vs the family's
/// 1-thread run, which `bench_gate` fails on a drop beyond 35%, and the
/// producing machine's `cores`), and one failure line per run whose
/// verdict or counters differ from the sequential BFS reference. Rows come
/// back in family-major order: all thread counts of one family before the
/// next. Cell sizes matter here: wall-clock ratios on cells that finish
/// in a millisecond are pure scheduler noise, so the benchmark default
/// ([`bench_cells`]) picks models in the tens of thousands of states
/// (hundreds of milliseconds per run) while tests and the agreement
/// probe use [`smoke_cells`].
pub fn parallel_scaling_sweep(
    thread_grid: &[usize],
    paxos: PaxosSetting,
    multicast: MulticastSetting,
    budget: &Budget,
) -> Outcome {
    let (mut rows, mut failures) = (Vec::new(), Vec::new());

    let setting = paxos;
    let spec = paxos_quorum(setting, PaxosVariant::Correct);
    let roles = paxos_roles(setting);
    let label = format!("Paxos {setting} quorum");
    for sym in [false, true] {
        push_family(
            &label,
            "Consensus",
            &spec,
            || consensus_property(setting),
            sym.then_some(&roles),
            thread_grid,
            budget,
            (&mut rows, &mut failures),
        );
    }

    let setting = multicast;
    let spec = multicast_quorum(setting);
    let roles = multicast_roles(setting);
    let label = format!("Echo Multicast {setting} quorum");
    for sym in [false, true] {
        push_family(
            &label,
            "Agreement",
            &spec,
            || agreement_property(setting),
            sym.then_some(&roles),
            thread_grid,
            budget,
            (&mut rows, &mut failures),
        );
    }

    (rows, failures)
}

/// The benchmark-scale cell pair: Paxos `(2,3,1)` (~27k states, hundreds
/// of milliseconds per run — large enough that wall-clock ratios carry
/// signal) and echo multicast `(3,1,1,1)` (~4k states, with a Byzantine
/// receiver so the pooled engine is also benchmarked under fault
/// transitions).
pub fn bench_cells() -> (PaxosSetting, MulticastSetting) {
    (
        PaxosSetting::new(2, 3, 1),
        MulticastSetting::new(3, 1, 1, 1),
    )
}

/// The smoke-scale cell pair (a few dozen to a few hundred states):
/// right for agreement testing and CI smoke runs, useless for timing.
pub fn smoke_cells() -> (PaxosSetting, MulticastSetting) {
    (
        PaxosSetting::new(1, 2, 1),
        MulticastSetting::new(2, 1, 0, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_gate::{compare, parse_rows, render_rows};
    use crate::report::{num, text};

    #[test]
    fn sweep_rows_agree_with_sequential_bfs_and_carry_speedups() {
        let (paxos, multicast) = smoke_cells();
        let (rows, failures) = parallel_scaling_sweep(&[1, 2], paxos, multicast, &Budget::small());
        // 2 protocols × sym off/on × 2 thread counts.
        assert_eq!(rows.len(), 8);
        assert!(failures.is_empty(), "{failures:?}");
        for row in &rows {
            assert_eq!(row["completed"], JsonValue::Bool(true));
            assert!(num(row, "speedup") > 0.0);
            assert!(num(row, "cores") >= 1.0);
            let one = text(row, "strategy").contains("(1)");
            assert_eq!(num(row, "threads"), if one { 1.0 } else { 2.0 });
        }
        // The 1-thread row of each family defines the baseline: speedup 1.
        for family in rows.chunks(2) {
            assert_eq!(num(&family[0], "speedup"), 1.0);
        }
        // Symmetry rows are labelled apart from the plain rows so the
        // bench gate keys them separately.
        assert!(rows.iter().any(|r| text(r, "strategy").ends_with("+sym")));
    }

    #[test]
    fn json_rows_parse_back_through_the_bench_gate() {
        let (paxos, multicast) = smoke_cells();
        let (rows, _) = parallel_scaling_sweep(&[1, 2], paxos, multicast, &Budget::small());
        let parsed = parse_rows(&render_rows(&rows)).expect("gate must parse the emit");
        assert_eq!(parsed, rows);
        for row in &parsed {
            assert!(num(row, "speedup") > 0.0);
            assert!(num(row, "threads") >= 1.0);
            assert!(num(row, "cores") >= 1.0);
            assert_eq!(crate::report::tests::phase_keys(row), 0, "untraced");
        }
        crate::report::tests::assert_baseline_fields(
            include_str!("../../../BENCH_parallel_scaling.json"),
            &rows,
        );
        // Strategy labels keep every row key unique per thread count, and
        // the rows gate clean against themselves.
        let keys: std::collections::BTreeSet<String> =
            parsed.iter().map(crate::bench_gate::row_key).collect();
        assert_eq!(keys.len(), parsed.len(), "row keys must be unique");
        let report = compare("scaling", &parsed, &parsed);
        assert!(report.passed() && report.warnings.is_empty(), "{report:?}");
        // A traced run's row carries all nine phases, in µs.
        let traced = Budget::small().with_trace(mp_checker::Tracer::to_writer(
            false,
            Box::new(std::io::sink()),
        ));
        let (rows, _) = parallel_scaling_sweep(&[1], paxos, multicast, &traced);
        assert_eq!(
            crate::report::tests::phase_keys(&rows[0]),
            mp_trace::PHASE_COUNT
        );
    }

    #[test]
    fn probe_is_silent_when_engines_agree() {
        let (paxos, multicast) = smoke_cells();
        let (_, failures) = parallel_scaling_sweep(&[2], paxos, multicast, &Budget::small());
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// The full agreement matrix: every thread count of the grid × all
    /// three evaluation protocols × symmetry off/on × in-memory and disk
    /// frontiers. Verdicts and order-independent counters must match the
    /// sequential BFS reference everywhere — helper threads may reorder
    /// expansions within a level, never change what is explored.
    #[test]
    fn pooled_engine_agrees_with_sequential_bfs_across_the_matrix() {
        use mp_protocols::storage::{
            quorum_model as storage_quorum, regularity_property, symmetry_roles as storage_roles,
            RegularityObserver, StorageSetting,
        };
        use mp_store::FrontierConfig;

        for frontier in [FrontierConfig::Mem, FrontierConfig::disk_with_watermark(64)] {
            let budget = Budget::small().with_frontier(frontier);

            // Paxos and echo multicast (NullObserver cells) through the
            // sweep itself.
            let (paxos, multicast) = smoke_cells();
            let (rows, failures) = parallel_scaling_sweep(&THREAD_GRID, paxos, multicast, &budget);
            assert_eq!(rows.len(), 2 * 2 * THREAD_GRID.len());
            assert!(failures.is_empty(), "under {frontier:?}: {failures:?}");

            // Regular storage carries a history-variable observer, which
            // the pooled engine must permute and thread exactly like the
            // sequential one.
            let setting = StorageSetting::new(2, 1);
            let spec = storage_quorum(setting);
            let roles = storage_roles(setting);
            for sym in [false, true] {
                let run = |config: CheckerConfig| {
                    let checker = Checker::with_observer(
                        &spec,
                        regularity_property(setting),
                        RegularityObserver::new(setting),
                    )
                    .spor()
                    .config(budget.apply(config));
                    if sym {
                        checker.with_role_symmetry(&roles).run()
                    } else {
                        checker.run()
                    }
                };
                let reference = run(CheckerConfig::stateful_bfs());
                assert!(reference.verdict.is_verified());
                for threads in THREAD_GRID {
                    let pooled = run(CheckerConfig::parallel_bfs(threads));
                    assert_eq!(
                        pooled.verdict.to_string(),
                        reference.verdict.to_string(),
                        "storage sym={sym} threads={threads} {frontier:?}"
                    );
                    assert_eq!(
                        pooled.stats.counters(),
                        reference.stats.counters(),
                        "storage sym={sym} threads={threads} {frontier:?}"
                    );
                    assert_eq!(pooled.stats.worker_threads, threads);
                    assert_eq!(pooled.stats.worker_spawns, threads - 1);
                }
            }
        }
    }
}
