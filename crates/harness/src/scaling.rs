//! Section II-C — state-space inflation of single-message models.
//!
//! The paper argues that replacing a quorum transition that consumes `l`
//! messages by single-message transitions inflates the state space by
//! roughly `(k + l)²`. This experiment measures the actual inflation on two
//! families:
//!
//! * the parametric quorum-collection protocol of
//!   [`mp_protocols::sweep`], sweeping the quorum size, and
//! * Paxos with a growing number of acceptors (hence a growing majority).

use mp_checker::{Checker, CheckerConfig, NullObserver};
use mp_model::StateGraph;
use mp_protocols::paxos::{
    consensus_property, quorum_model, single_message_model, symmetry_roles, PaxosSetting,
    PaxosVariant,
};
use mp_protocols::sweep::{collect_model, collect_soundness_property, CollectSetting};
use mp_store::StoreConfig;

use crate::report::omission_note;
use crate::runner::run_cell;
use crate::{Budget, CellStrategy, Measurement};

/// One point of the quorum-size sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScalingPoint {
    /// Description of the configuration (voters, quorum).
    pub label: String,
    /// Quorum size of the collect transition.
    pub quorum: usize,
    /// Reachable states of the quorum-transition model.
    pub quorum_states: usize,
    /// Reachable states of the single-message model.
    pub single_states: usize,
}

impl ScalingPoint {
    /// The measured inflation factor (single-message / quorum states).
    pub fn inflation(&self) -> f64 {
        self.single_states as f64 / self.quorum_states as f64
    }
}

/// Sweeps the quorum size of the collection protocol and returns the state
/// counts of both modelling styles (full state graphs, no reduction — this
/// measures model size, not search quality).
pub fn collect_sweep(voters: usize, collectors: usize, max_states: usize) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for quorum in 1..=voters {
        let setting = CollectSetting::new(voters, quorum, collectors);
        let quorum_states = StateGraph::build(&collect_model(setting, true), max_states)
            .map(|g| g.num_states())
            .unwrap_or(max_states);
        let single_states = StateGraph::build(&collect_model(setting, false), max_states)
            .map(|g| g.num_states())
            .unwrap_or(max_states);
        points.push(ScalingPoint {
            label: format!("collect: {voters} voters, quorum {quorum}, {collectors} collector(s)"),
            quorum,
            quorum_states,
            single_states,
        });
    }
    points
}

/// Measures quorum vs single-message Paxos as the number of acceptors (and
/// with it the majority quorum) grows, using SPOR for both so the comparison
/// matches Table I's middle and right columns. The two modelling styles get
/// distinct protocol labels so every row has a unique
/// (protocol, property, strategy) key — which is what the CI bench gate
/// matches baseline rows on.
pub fn paxos_sweep(max_acceptors: usize, budget: &Budget) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for acceptors in 1..=max_acceptors {
        let setting = PaxosSetting::new(1, acceptors, 1);
        rows.push(run_cell(
            &format!("Paxos {setting} single-message"),
            "Consensus",
            false,
            &single_message_model(setting, PaxosVariant::Correct),
            consensus_property(setting),
            NullObserver,
            CellStrategy::SporStateful,
            budget,
        ));
        rows.push(run_cell(
            &format!("Paxos {setting} quorum"),
            "Consensus",
            false,
            &quorum_model(setting, PaxosVariant::Correct),
            consensus_property(setting),
            NullObserver,
            CellStrategy::SporStateful,
            budget,
        ));
    }
    rows
}

/// One row of the symmetry (orbit-reduction) scaling comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct SymmetryPoint {
    /// Configuration label, e.g. "Paxos (1,3,1) quorum".
    pub label: String,
    /// Order of the validated symmetry group (acceptors! × learners!).
    pub group_order: usize,
    /// States of the plain SPOR run.
    pub states: usize,
    /// States of the SPOR+symmetry run (orbit representatives).
    pub sym_states: usize,
    /// Wall time of the plain run.
    pub time: std::time::Duration,
    /// Wall time of the symmetric run.
    pub sym_time: std::time::Duration,
    /// `true` if both runs produced the same verdict class.
    pub verdicts_agree: bool,
}

impl SymmetryPoint {
    /// The orbit-collapse ratio (plain states per symmetric state).
    pub(crate) fn state_ratio(&self) -> f64 {
        self.states as f64 / self.sym_states.max(1) as f64
    }

    /// The wall-time ratio (plain time per symmetric time; > 1 means the
    /// reduction also paid for itself in time).
    pub(crate) fn time_ratio(&self) -> f64 {
        let sym = self.sym_time.as_secs_f64();
        if sym == 0.0 {
            1.0
        } else {
            self.time.as_secs_f64() / sym
        }
    }
}

/// Measures the orbit collapse of the Paxos acceptor symmetry as the
/// acceptor set grows: the validated group order is `acceptors!`, so the
/// reduction compounds with the quorum-model savings. Returns the per-point
/// ratios plus `Measurement` rows (strategy-labelled by the engine, e.g.
/// `SPOR+sym(6)`) that the `quorum_scaling` subcommand appends to
/// `BENCH_quorum_scaling.json` so the trajectory is gated in CI.
pub fn paxos_symmetry_sweep(
    max_acceptors: usize,
    budget: &Budget,
) -> (Vec<SymmetryPoint>, Vec<Measurement>) {
    use mp_symmetry::SymmetryGroup;

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for acceptors in 1..=max_acceptors {
        let setting = PaxosSetting::new(1, acceptors, 1);
        let label = format!("Paxos {setting} quorum");
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let roles = symmetry_roles(setting);
        let group_order = SymmetryGroup::build(&spec, &roles).order();
        let run = |symmetry: bool| {
            let checker = Checker::new(&spec, consensus_property(setting))
                .spor()
                .config(budget.apply(CheckerConfig::stateful_dfs()));
            let checker = if symmetry {
                checker.with_role_symmetry(&roles)
            } else {
                checker
            };
            checker.run()
        };
        let plain = run(false);
        let sym = run(true);
        points.push(SymmetryPoint {
            label: label.clone(),
            group_order,
            states: plain.stats.states,
            sym_states: sym.stats.states,
            time: plain.stats.elapsed,
            sym_time: sym.stats.elapsed,
            verdicts_agree: plain.verdict.is_violated() == sym.verdict.is_violated()
                && plain.verdict.is_verified() == sym.verdict.is_verified(),
        });
        let strategy = format!("SPOR+sym({group_order})");
        let mut m = Measurement::of(&label, "Consensus", strategy, sym.verdict.to_string(), &sym);
        m.as_expected = sym.verdict.is_verified();
        rows.push(m);
    }
    (points, rows)
}

/// Renders the symmetry scaling comparison as a small text table.
pub fn render_symmetry_sweep(points: &[SymmetryPoint]) -> String {
    let mut out = String::from(
        "configuration                |  |G| |   states | sym states | state ratio | time ratio | verdicts\n",
    );
    out.push_str(
        "-----------------------------+------+----------+------------+-------------+------------+---------\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<28} | {:>4} | {:>8} | {:>10} | {:>10.2}x | {:>9.2}x | {}\n",
            p.label,
            p.group_order,
            p.states,
            p.sym_states,
            p.state_ratio(),
            p.time_ratio(),
            if p.verdicts_agree {
                "agree"
            } else {
                "DISAGREE"
            }
        ));
    }
    out
}

/// One row of the disk-frontier (spill) scaling comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierPoint {
    /// Configuration label, e.g. "Paxos (1,3,1) quorum".
    pub label: String,
    /// States explored (identical for both frontiers by construction).
    pub states: usize,
    /// Peak frontier bytes of the spilled run (exact encoded bytes).
    pub disk_peak_bytes: usize,
    /// Total bytes the spilled run wrote to disk.
    pub spilled_bytes: usize,
    /// `true` if the spilled run reproduced the in-memory run's verdict
    /// and state count exactly.
    pub agrees: bool,
}

/// Watermark of the scaling sweep's spilled runs. The growing-acceptor
/// quorum models have frontier levels of a few hundred bytes to a few KiB,
/// so this is small enough that every point past the trivial one writes
/// real spill segments.
pub(crate) const SCALING_SPILL_WATERMARK: usize = 64;

/// Measures the disk-backed BFS frontier on the growing-acceptor Paxos
/// quorum models: every point runs the consensus check twice — in-memory
/// frontier vs disk frontier at `SCALING_SPILL_WATERMARK` (small enough
/// to force multi-segment spilling) — and asserts exact verdict/state
/// agreement. Returns the per-point byte accounting plus
/// `Measurement` rows (strategy `"SPOR (BFS+spill)"`, `frontier_bytes`
/// recorded) that the `quorum_scaling` subcommand appends to
/// `BENCH_quorum_scaling.json` so the spill trajectory is gated in CI.
pub fn paxos_frontier_sweep(
    max_acceptors: usize,
    budget: &Budget,
) -> (Vec<FrontierPoint>, Vec<Measurement>) {
    use mp_store::FrontierConfig;

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for acceptors in 1..=max_acceptors {
        let setting = PaxosSetting::new(1, acceptors, 1);
        let label = format!("Paxos {setting} quorum");
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let run = |frontier: FrontierConfig| {
            Checker::new(&spec, consensus_property(setting))
                .spor()
                .config(
                    budget
                        .clone()
                        .with_frontier(frontier)
                        .apply(CheckerConfig::stateful_bfs()),
                )
                .run()
        };
        let mem = run(FrontierConfig::Mem);
        let disk = run(FrontierConfig::disk_with_watermark(SCALING_SPILL_WATERMARK));
        points.push(FrontierPoint {
            label: label.clone(),
            states: disk.stats.states,
            disk_peak_bytes: disk.stats.frontier_peak_bytes,
            spilled_bytes: disk.stats.frontier_spilled_bytes,
            agrees: mem.verdict.to_string() == disk.verdict.to_string()
                && mem.stats.states == disk.stats.states,
        });
        let strategy = "SPOR (BFS+spill)".to_string();
        let mut m = Measurement::of(
            &label,
            "Consensus",
            strategy,
            disk.verdict.to_string(),
            &disk,
        );
        m.as_expected = disk.verdict.is_verified();
        rows.push(m);
    }
    (points, rows)
}

/// Renders the frontier scaling comparison as a small text table.
pub fn render_frontier_sweep(points: &[FrontierPoint]) -> String {
    let mut out = String::from(
        "configuration                |   states | frontier peak | spilled bytes | mem vs disk\n",
    );
    out.push_str(
        "-----------------------------+----------+---------------+---------------+------------\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<28} | {:>8} | {:>12}B | {:>12}B | {}\n",
            p.label,
            p.states,
            p.disk_peak_bytes,
            p.spilled_bytes,
            if p.agrees { "agree" } else { "DISAGREE" }
        ));
    }
    out
}

/// One row of the visited-store backend comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct StorePoint {
    /// Backend label ("exact", "sharded(64)", "fingerprint(48-bit)").
    pub backend: String,
    /// States explored.
    pub states: usize,
    /// Approximate peak bytes held by the visited-state store.
    pub store_bytes: usize,
    /// Verdict string of the run.
    pub verdict: String,
    /// The store's omission bound (0 for the exact backends).
    pub omission_probability: f64,
}

/// Verifies one quorum-scaling configuration of the collection protocol
/// with each `mp-store` backend under stateful DFS, so the memory savings
/// of hash compaction are measurable on the same workload. All backends
/// must report the same verdict (the fingerprint verdict is probabilistic
/// in theory, exact in practice at these state counts).
pub fn store_backend_sweep(
    setting: CollectSetting,
    quorum_style: bool,
    budget: &Budget,
) -> Vec<StorePoint> {
    let spec = collect_model(setting, quorum_style);
    [
        StoreConfig::Exact,
        StoreConfig::sharded(),
        StoreConfig::fingerprint(48),
    ]
    .into_iter()
    .map(|store| {
        let report = Checker::new(&spec, collect_soundness_property(setting))
            .config(
                budget
                    .clone()
                    .with_store(store)
                    .apply(CheckerConfig::stateful_dfs()),
            )
            .run();
        StorePoint {
            backend: store.to_string(),
            states: report.stats.states,
            store_bytes: report.stats.store_bytes,
            verdict: report.verdict.to_string(),
            omission_probability: report.stats.store_omission_probability,
        }
    })
    .collect()
}

/// Renders the store comparison as a small text table.
pub fn render_store_sweep(points: &[StorePoint]) -> String {
    let mut out = String::from("backend              |    states | store bytes | verdict\n");
    out.push_str("---------------------+-----------+-------------+---------\n");
    for p in points {
        out.push_str(&format!(
            "{:<20} | {:>9} | {:>11} | {}{}\n",
            p.backend,
            p.states,
            p.store_bytes,
            p.verdict,
            omission_note(p.omission_probability)
        ));
    }
    out
}

/// Renders the collect sweep as a small text table.
pub fn render_sweep(points: &[ScalingPoint]) -> String {
    let mut out =
        String::from("quorum size | quorum-model states | single-message states | inflation\n");
    out.push_str("------------+---------------------+-----------------------+----------\n");
    for p in points {
        out.push_str(&format!(
            "{:>11} | {:>19} | {:>21} | {:>8.2}x\n",
            p.quorum,
            p.quorum_states,
            p.single_states,
            p.inflation()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflation_grows_with_quorum_size() {
        let points = collect_sweep(3, 1, 1_000_000);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.single_states >= p.quorum_states));
        assert!(
            points.last().unwrap().inflation() >= points.first().unwrap().inflation(),
            "inflation must not shrink as the quorum grows: {points:?}"
        );
        let rendered = render_sweep(&points);
        assert!(rendered.contains("inflation"));
        assert_eq!(rendered.lines().count(), 2 + points.len());
    }

    #[test]
    fn store_sweep_saves_memory_without_changing_the_verdict() {
        let points = store_backend_sweep(CollectSetting::new(3, 2, 1), false, &Budget::small());
        assert_eq!(points.len(), 3);
        let exact = &points[0];
        let fingerprint = &points[2];
        assert!(points.iter().all(|p| p.verdict == exact.verdict));
        assert!(points.iter().all(|p| p.states == exact.states));
        assert!(
            fingerprint.store_bytes < exact.store_bytes,
            "hash compaction must shrink the store: {points:?}"
        );
        let rendered = render_store_sweep(&points);
        assert!(rendered.contains("fingerprint"));
    }

    #[test]
    fn frontier_sweep_spills_and_agrees() {
        let (points, rows) = paxos_frontier_sweep(2, &Budget::small());
        assert_eq!(points.len(), 2);
        assert_eq!(rows.len(), 2);
        assert!(points.iter().all(|p| p.agrees), "{points:?}");
        assert!(points.iter().all(|p| p.disk_peak_bytes > 0));
        assert!(rows.iter().all(|r| r.strategy == "SPOR (BFS+spill)"));
        assert!(rows.iter().all(|r| r.frontier_bytes > 0));
        let rendered = render_frontier_sweep(&points);
        assert!(rendered.contains("frontier peak"));
        assert!(rendered.contains("agree"));
    }

    #[test]
    fn paxos_sweep_prefers_quorum_models() {
        let rows = paxos_sweep(2, &Budget::small());
        assert_eq!(rows.len(), 4);
        // For each acceptor count the quorum model (odd rows) must not be
        // larger than the single-message model (even rows).
        for pair in rows.chunks(2) {
            assert!(pair[1].states <= pair[0].states, "{pair:?}");
        }
    }
}
