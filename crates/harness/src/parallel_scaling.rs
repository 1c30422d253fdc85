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
use crate::report::short_verdict;
use crate::{Budget, Measurement};

/// The worker-pool sizes every cell family is swept over.
pub const THREAD_GRID: [usize; 4] = [1, 2, 4, 8];

/// One row of the thread-scaling sweep: a pooled run at one thread count,
/// with its speedup relative to the 1-thread run of the same cell family
/// and its agreement with the sequential BFS reference.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// The pooled run's measurement (strategy label
    /// `parallel-bfs(N)+SPOR[+sym]`, `threads` set by the engine).
    pub measurement: Measurement,
    /// Wall-clock speedup vs the 1-thread run of the same family
    /// (1.0 by definition for the 1-thread row).
    pub speedup: f64,
    /// Available parallelism of the machine that produced the row.
    pub cores: usize,
    /// `true` when verdict, states, transitions and max depth all match
    /// the sequential BFS reference run.
    pub agrees: bool,
}

impl ScalingRow {
    /// The row's `BENCH_parallel_scaling.json` fields: the measurement's,
    /// plus the fractional `speedup` and the producing machine's `cores`.
    /// `speedup` is a gated field (`bench_gate` fails a run whose speedup
    /// drops by more than 35% against the committed baseline); `cores`
    /// is informational.
    pub fn row(&self) -> Row {
        let mut row = self.measurement.row();
        row.insert("speedup".to_string(), JsonValue::ratio(self.speedup));
        row.insert("cores".to_string(), self.cores.into());
        row
    }
}

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
    rows: &mut Vec<ScalingRow>,
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
        let mut measurement = Measurement::of(label, property_label, strategy, verdict, &report);
        measurement.as_expected = agrees;
        rows.push(ScalingRow {
            measurement,
            speedup: ratio(base, report.stats.elapsed),
            cores,
            agrees,
        });
    }
}

/// Sweeps the pooled engine over `thread_grid` on a Paxos and an echo
/// multicast quorum cell, each with symmetry off and on. Rows come back
/// in family-major order: all thread counts of one family before the
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
) -> Vec<ScalingRow> {
    let mut rows = Vec::new();

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
            &mut rows,
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
            &mut rows,
        );
    }

    rows
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

/// Cross-engine agreement probe for the `fault_sweep` subcommand's
/// `--threads N` flag: runs the sweep's protocol cells on the pooled
/// engine at `threads` workers and returns one human-readable line per
/// cell that *disagrees* with the sequential BFS reference (empty =
/// everything agrees, the subcommand prints OK).
pub fn parallel_agreement_probe(threads: usize, budget: &Budget) -> Vec<String> {
    let (paxos, multicast) = smoke_cells();
    parallel_scaling_sweep(&[threads], paxos, multicast, budget)
        .into_iter()
        .filter(|row| !row.agrees)
        .map(|row| {
            format!(
                "{} / {} / {}: pooled run diverged from sequential BFS ({}, {} states)",
                row.measurement.protocol,
                row.measurement.property,
                row.measurement.strategy,
                row.measurement.verdict,
                row.measurement.states
            )
        })
        .collect()
}

/// Renders the scaling sweep as a small text table.
pub fn render_parallel_sweep(rows: &[ScalingRow]) -> String {
    let mut out = String::from(
        "configuration                                  | thr |   states |     time | speedup | vs sequential\n",
    );
    out.push_str(
        "-----------------------------------------------+-----+----------+----------+---------+--------------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<46} | {:>3} | {:>8} | {:>8} | {:>6.2}x | {}\n",
            format!(
                "{} [{}]",
                row.measurement.protocol, row.measurement.strategy
            ),
            row.measurement.threads,
            row.measurement.states,
            row.measurement.time_label(),
            row.speedup,
            if row.agrees { "agree" } else { "DISAGREE" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_gate::{compare, parse_rows, render_rows};

    #[test]
    fn sweep_rows_agree_with_sequential_bfs_and_carry_speedups() {
        let (paxos, multicast) = smoke_cells();
        let rows = parallel_scaling_sweep(&[1, 2], paxos, multicast, &Budget::small());
        // 2 protocols × sym off/on × 2 thread counts.
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.agrees, "{}", render_parallel_sweep(&rows));
            assert!(row.measurement.completed);
            assert!(row.speedup > 0.0);
            assert!(row.cores >= 1);
            assert_eq!(
                row.measurement.threads,
                if row.measurement.strategy.contains("(1)") {
                    1
                } else {
                    2
                }
            );
        }
        // The 1-thread row of each family defines the baseline: speedup 1.
        for family in rows.chunks(2) {
            assert_eq!(family[0].speedup, 1.0);
        }
        // Symmetry rows are labelled apart from the plain rows so the
        // bench gate keys them separately.
        assert!(rows
            .iter()
            .any(|r| r.measurement.strategy.ends_with("+sym")));
        let rendered = render_parallel_sweep(&rows);
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("agree"));
    }

    #[test]
    fn json_rows_parse_back_through_the_bench_gate() {
        let (paxos, multicast) = smoke_cells();
        let rows = parallel_scaling_sweep(&[1, 2], paxos, multicast, &Budget::small());
        let emitted: Vec<Row> = rows.iter().map(ScalingRow::row).collect();
        let parsed = parse_rows(&render_rows(&emitted)).expect("gate must parse the emit");
        assert_eq!(parsed, emitted);
        for row in &parsed {
            assert!(matches!(row.get("speedup"), Some(JsonValue::Num(s)) if *s > 0.0));
            assert!(matches!(row.get("threads"), Some(JsonValue::Num(t)) if *t >= 1.0));
            assert!(matches!(row.get("cores"), Some(JsonValue::Num(c)) if *c >= 1.0));
            assert_eq!(crate::report::tests::phase_keys(row), 0, "untraced");
        }
        // Strategy labels keep every row key unique per thread count, and
        // the rows gate clean against themselves.
        let keys: std::collections::BTreeSet<String> =
            parsed.iter().map(crate::bench_gate::row_key).collect();
        assert_eq!(keys.len(), parsed.len(), "row keys must be unique");
        let report = compare("scaling", &parsed, &parsed);
        assert!(report.passed() && report.warnings.is_empty(), "{report:?}");
        // A traced run's row carries all nine phases, in µs.
        let mut traced = rows[0].clone();
        traced.measurement.phases =
            mp_trace::PhaseTimes::from_nanos([1_000; mp_trace::PHASE_COUNT]);
        assert_eq!(
            crate::report::tests::phase_keys(&traced.row()),
            mp_trace::PHASE_COUNT
        );
    }

    #[test]
    fn probe_is_silent_when_engines_agree() {
        assert!(parallel_agreement_probe(2, &Budget::small()).is_empty());
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
            let rows = parallel_scaling_sweep(&THREAD_GRID, paxos, multicast, &budget);
            assert_eq!(rows.len(), 2 * 2 * THREAD_GRID.len());
            for row in &rows {
                assert!(
                    row.agrees,
                    "disagreement under {frontier:?}:\n{}",
                    render_parallel_sweep(&rows)
                );
            }

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
