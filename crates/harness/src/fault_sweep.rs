//! Budgeted fault-injection sweeps across the evaluation protocols.
//!
//! The generic fault layer (`mp-faults`) turns every protocol of the
//! evaluation into a *family* of fault workloads. This experiment sweeps a
//! grid of [`FaultBudget`]s over Paxos, Echo Multicast and regular storage,
//! with SPOR on and off and with every visited-store backend, reporting
//! verdict, states, store bytes and wall time per cell — plus a **liveness
//! column**: for every cell the protocol's termination property (Paxos
//! "some value eventually learned", multicast delivery, read completion)
//! is checked under the same budget and strategy, and the verdict
//! (`verified`, or a fair-cycle/quiescence lasso) is recorded alongside the
//! safety verdict. These invariants are machine-checked by the
//! `fault_sweep` subcommand (and the integration tests):
//!
//! * all store backends agree on the verdict of every cell,
//! * the all-zero budget reproduces the seed models' state counts exactly,
//! * the **disk-spilled BFS frontier agrees** with the in-memory frontier
//!   on every cell's verdict class and state count (each cell is probed
//!   with `FrontierConfig::disk` at a deliberately tiny watermark, with
//!   and without symmetry, and the spilled frontier's peak bytes are
//!   recorded — with symmetry the frontier holds canonical orbit
//!   representatives, so the `frontier_ratio` column tracks the orbit
//!   collapse), and
//! * **symmetry on and off agree** on every safety and liveness verdict
//!   (each cell is run twice — without and with the protocol's
//!   `mp-symmetry` role declaration — and the symmetric state count and
//!   state-count ratio are recorded per cell, so the orbit-collapse
//!   trajectory lands in `BENCH_fault_sweep.json` alongside the verdicts).

use std::time::Duration;

use mp_checker::{
    Checker, CheckerConfig, CheckpointConfig, Invariant, NullObserver, Observer, Property,
};
use mp_faults::FaultBudget;
use mp_model::{LocalState, Message, Permutable, ProtocolSpec};
use mp_protocols::echo_multicast::{
    agreement_property, faulty_agreement_property, faulty_delivery_termination_property,
    faulty_quorum_model as faulty_multicast, quorum_model as multicast, MulticastSetting,
};
use mp_protocols::paxos::{
    consensus_property, faulty_consensus_property, faulty_quorum_model as faulty_paxos,
    faulty_termination_property, quorum_model as paxos, PaxosSetting, PaxosVariant,
};
use mp_protocols::storage::{
    faulty_quorum_model as faulty_storage, faulty_read_completion_property,
    faulty_regularity_observer, faulty_regularity_property, quorum_model as storage,
    regularity_property, RegularityObserver, StorageSetting,
};
use mp_store::{FrontierConfig, StoreConfig};
use mp_symmetry::RoleMap;

use crate::bench_gate::{insert_phases, row, JsonValue, Row};
use crate::report::omission_note;
use crate::Budget;

/// One cell of the fault sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCell {
    /// Protocol and setting, e.g. "Paxos (1,2,1)".
    pub protocol: String,
    /// The fault budget label, e.g. "crashes=1,drops=1" or "none".
    pub budget: String,
    /// "SPOR" or "unreduced" (both stateful DFS).
    pub strategy: String,
    /// Visited-store backend label.
    pub backend: String,
    /// Verdict string of the safety (invariant) run.
    pub verdict: String,
    /// The safety run's store omission bound (0 for the exact backends);
    /// the text table prints it beside the verdict.
    pub omission_probability: f64,
    /// Verdict string of the liveness (termination) run under the same
    /// budget and strategy: `"verified"`, or a lasso description such as
    /// `"fair lasso (4 stem + 0 cycle steps)"`.
    pub liveness: String,
    /// States stored by the safety run.
    pub states: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// Approximate peak bytes held by the visited-state store.
    pub store_bytes: usize,
    /// Bytes of visited-set data the store spilled to disk as sorted runs
    /// (non-zero only for the external-memory `runs` backend).
    pub store_spilled_bytes: usize,
    /// Bytes the store wrote while merging its sorted runs at level
    /// boundaries (non-zero only for the `runs` backend).
    pub store_merge_bytes: usize,
    /// Wall-clock time of the run.
    pub time: Duration,
    /// Verdict string of the safety run with symmetry reduction on.
    pub sym_verdict: String,
    /// Verdict string of the liveness run with symmetry reduction on.
    pub sym_liveness: String,
    /// States stored by the symmetric safety run (orbit representatives).
    pub sym_states: usize,
    /// Wall-clock time of the symmetric safety run.
    pub sym_time: Duration,
    /// Peak frontier bytes of the disk-spilled BFS probe of this cell
    /// (safety property, `FrontierConfig::disk` at the sweep watermark,
    /// symmetry off). One probe per (protocol, budget, strategy) group —
    /// the number is backend-independent, like the liveness column.
    pub frontier_bytes: usize,
    /// Peak frontier bytes of the disk-spilled BFS probe with symmetry on:
    /// the frontier then holds canonical orbit representatives, so this
    /// shrinks by roughly the orbit collapse.
    pub sym_frontier_bytes: usize,
    /// `true` iff the spilled BFS probes (plain and symmetric) reproduced
    /// the in-memory-frontier verdict class and state count exactly. The
    /// `fault_sweep` subcommand exits non-zero when any cell disagrees, like
    /// backend and symmetry disagreement.
    pub spill_agrees: bool,
    /// Per-phase wall-clock breakdown of the plain safety run (all zero
    /// when tracing is disabled). A traced row carries it as flat
    /// `phase_<name>_us` fields so the CI gate can watch phase shares drift.
    pub phases: mp_trace::PhaseTimes,
}

impl FaultCell {
    /// The cell's `BENCH_fault_sweep.json` fields (phases on traced rows
    /// only), so external tooling — the CI bench-regression gate included —
    /// can track the verdict and orbit-collapse trajectory.
    pub fn row(&self) -> Row {
        let mut row = row([
            ("protocol", self.protocol.as_str().into()),
            ("budget", self.budget.as_str().into()),
            ("strategy", self.strategy.as_str().into()),
            ("backend", self.backend.as_str().into()),
            ("verdict", self.verdict.as_str().into()),
            ("liveness", self.liveness.as_str().into()),
            ("states", self.states.into()),
            ("transitions", self.transitions.into()),
            ("store_bytes", self.store_bytes.into()),
            ("store_spilled_bytes", self.store_spilled_bytes.into()),
            ("store_merge_bytes", self.store_merge_bytes.into()),
            ("time_ms", JsonValue::millis(self.time)),
            ("sym_verdict", self.sym_verdict.as_str().into()),
            ("sym_liveness", self.sym_liveness.as_str().into()),
            ("sym_states", self.sym_states.into()),
            ("sym_time_ms", JsonValue::millis(self.sym_time)),
            ("state_ratio", JsonValue::ratio(self.state_ratio())),
            ("frontier_bytes", self.frontier_bytes.into()),
            ("sym_frontier_bytes", self.sym_frontier_bytes.into()),
            ("frontier_ratio", JsonValue::ratio(self.frontier_ratio())),
            ("spill_agrees", JsonValue::Bool(self.spill_agrees)),
        ]);
        insert_phases(&mut row, &self.phases);
        row
    }

    /// Orbit-collapse ratio of the cell: plain states per symmetric state
    /// (1.0 = no collapse; the Paxos crash cells sit near the group order).
    pub fn state_ratio(&self) -> f64 {
        self.states as f64 / self.sym_states.max(1) as f64
    }

    /// Frontier-collapse ratio of the cell: plain spilled frontier bytes
    /// per symmetric spilled frontier bytes. Tracks [`state_ratio`]
    /// (spilling canonical representatives shrinks the frontier by the
    /// orbit size, not just the visited set).
    ///
    /// [`state_ratio`]: FaultCell::state_ratio
    pub fn frontier_ratio(&self) -> f64 {
        self.frontier_bytes as f64 / self.sym_frontier_bytes.max(1) as f64
    }
}

/// Watermark of the sweep's disk-frontier probes: small enough that every
/// non-trivial cell spills its levels many times, so the sweep exercises
/// the level files on every run.
pub const SWEEP_SPILL_WATERMARK: usize = 4096;

/// Buffer watermark (in entries) of the sweep's external-memory `runs`
/// visited-store backend: small enough that the larger fault cells spill
/// sorted fingerprint runs to disk and merge them at level boundaries.
pub const SWEEP_RUN_WATERMARK: usize = 4096;

/// Flattens one sweep-cell coordinate into a filesystem-safe checkpoint
/// subdirectory name: lowercase, alphanumerics kept, everything else
/// collapsed to `-`.
fn cell_slug(parts: &[&str]) -> String {
    let mut slug = String::new();
    for part in parts {
        if !slug.is_empty() && !slug.ends_with('-') {
            slug.push('-');
        }
        for ch in part.chars() {
            if ch.is_ascii_alphanumeric() {
                slug.push(ch.to_ascii_lowercase());
            } else if !slug.ends_with('-') {
                slug.push('-');
            }
        }
    }
    slug.trim_matches('-').to_string()
}

/// The comparison class of a verdict string: `"verified"`, `"violated"` or
/// `"bounded"`. Symmetric and plain runs may legitimately report different
/// counterexample *shapes* (a different path or lasso of the same orbit),
/// so agreement is judged on the class, never on the rendered string.
pub fn verdict_class(verdict: &str) -> &'static str {
    if verdict.contains("counterexample") || verdict.contains("lasso") {
        "violated"
    } else if verdict.contains("verified") {
        "verified"
    } else {
        "bounded"
    }
}

/// The visited-store backends every cell is run with. The `runs` backend
/// is the external-memory visited set: a bloom front in RAM plus sorted
/// fingerprint runs on disk, merged at BFS level boundaries.
pub fn sweep_backends() -> Vec<StoreConfig> {
    vec![
        StoreConfig::Exact,
        StoreConfig::sharded(),
        StoreConfig::fingerprint(48),
        StoreConfig::runs_with_watermark(SWEEP_RUN_WATERMARK),
    ]
}

/// The default budget grid: no faults, one fault of each class alone, and
/// one mixed budget.
pub fn budget_grid() -> Vec<FaultBudget> {
    vec![
        FaultBudget::none(),
        FaultBudget::none().crashes(1),
        FaultBudget::none().drops(1),
        FaultBudget::none().dups(1),
        FaultBudget::none().crashes(1).drops(1),
    ]
}

/// Renders a liveness verdict for the sweep's liveness column.
fn liveness_label(report: &mp_checker::RunReport) -> String {
    match &report.verdict {
        mp_checker::Verdict::Violated(cx) if cx.is_lasso => format!(
            "fair lasso ({} stem + {} cycle steps)",
            cx.steps.len(),
            cx.cycle.len()
        ),
        verdict => verdict.to_string(),
    }
}

#[allow(clippy::too_many_arguments)] // a sweep cell genuinely has this many axes
fn run_cells<S, M, O>(
    protocol: &str,
    budget_label: &str,
    spec: &ProtocolSpec<S, M>,
    roles: &RoleMap,
    property: Invariant<S, M, O>,
    liveness: &Property<S, M, NullObserver>,
    observer: O,
    run_budget: &Budget,
    out: &mut Vec<FaultCell>,
) where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    for spor in [false, true] {
        // The liveness verdict is backend-independent (the lasso search
        // runs on the exact store): one run per strategy and symmetry
        // setting, recorded in every backend row of the group.
        let liveness_verdict = |symmetry: bool| {
            let budget = run_budget.clone().with_store(StoreConfig::Exact);
            let config = budget.apply(CheckerConfig::stateful_dfs());
            let checker =
                Checker::with_observer(spec, liveness.clone(), NullObserver).config(config);
            let checker = if spor { checker.spor() } else { checker };
            let checker = if symmetry {
                checker.with_role_symmetry(roles)
            } else {
                checker
            };
            liveness_label(&checker.run())
        };
        let liveness_plain = liveness_verdict(false);
        let liveness_sym = liveness_verdict(true);
        let safety = |config: CheckerConfig, symmetry: bool| {
            let checker =
                Checker::with_observer(spec, property.clone(), observer.clone()).config(config);
            let checker = if spor { checker.spor() } else { checker };
            if symmetry {
                checker.with_role_symmetry(roles).run()
            } else {
                checker.run()
            }
        };

        // The disk-frontier probe (one per strategy and symmetry setting,
        // like liveness): a BFS run of the safety property with the
        // spilled frontier at the sweep watermark, checked against the
        // in-memory frontier for verdict-class and state-count agreement.
        let frontier_probe = |symmetry: bool| -> (usize, bool) {
            let run = |frontier: FrontierConfig| {
                let config = run_budget.clone().with_frontier(frontier);
                safety(config.apply(CheckerConfig::stateful_bfs()), symmetry)
            };
            let mem = run(FrontierConfig::Mem);
            let disk = run(FrontierConfig::disk_with_watermark(SWEEP_SPILL_WATERMARK));
            let agrees = verdict_class(&mem.verdict.to_string())
                == verdict_class(&disk.verdict.to_string())
                && mem.stats.states == disk.stats.states;
            (disk.stats.frontier_peak_bytes, agrees)
        };
        let (frontier_bytes, plain_spill_agrees) = frontier_probe(false);
        let (sym_frontier_bytes, sym_spill_agrees) = frontier_probe(true);
        let spill_agrees = plain_spill_agrees && sym_spill_agrees;

        for store in sweep_backends() {
            let run = |symmetry: bool| {
                // A spilling budget (the subcommand's `--spill` flag) moves the
                // safety cells onto the BFS engine so the whole sweep
                // drives the disk frontier; the models are acyclic, so BFS
                // and DFS explore the same (reduced) state graph. A
                // checkpointing budget does the same — checkpoint/resume is
                // a level-synchronous (BFS) contract.
                let bfs = run_budget.frontier.spills() || run_budget.checkpoint_dir.is_some();
                let mut config = run_budget.clone().with_store(store).apply(if bfs {
                    CheckerConfig::stateful_bfs()
                } else {
                    CheckerConfig::stateful_dfs()
                });
                if let Some(root) = &run_budget.checkpoint_dir {
                    // One subdirectory per cell coordinate, so every cell
                    // of a killed sweep resumes from its own manifest.
                    let slug = cell_slug(&[
                        protocol,
                        budget_label,
                        if spor { "spor" } else { "unreduced" },
                        &store.to_string(),
                        if symmetry { "sym" } else { "plain" },
                    ]);
                    config.checkpoint = Some(CheckpointConfig::new(root.join(slug)));
                }
                safety(config, symmetry)
            };
            let report = run(false);
            let sym_report = run(true);
            out.push(FaultCell {
                protocol: protocol.to_string(),
                budget: budget_label.to_string(),
                strategy: if spor { "SPOR" } else { "unreduced" }.to_string(),
                backend: store.to_string(),
                verdict: report.verdict.to_string(),
                omission_probability: report.stats.store_omission_probability,
                liveness: liveness_plain.clone(),
                states: report.stats.states,
                transitions: report.stats.transitions_executed,
                store_bytes: report.stats.store_bytes,
                store_spilled_bytes: report.stats.store_spilled_bytes,
                store_merge_bytes: report.stats.store_merge_bytes,
                time: report.stats.elapsed,
                sym_verdict: sym_report.verdict.to_string(),
                sym_liveness: liveness_sym.clone(),
                sym_states: sym_report.stats.states,
                sym_time: sym_report.stats.elapsed,
                frontier_bytes,
                sym_frontier_bytes,
                spill_agrees,
                phases: report.stats.phases.clone(),
            });
        }
    }
}

/// Runs the full fault sweep: each protocol under every budget of the grid
/// (plus a corruption budget for Paxos, which has a Byzantine mutator),
/// SPOR on/off, every store backend.
pub fn fault_sweep(run_budget: &Budget) -> Vec<FaultCell> {
    fault_sweep_grid(run_budget, &budget_grid(), true)
}

/// Runs the fault sweep over an explicit budget grid. `with_corruption`
/// additionally appends the Byzantine-corruption budget to the Paxos rows.
/// The `fault_sweep` subcommand's `--smoke` mode uses this with a reduced grid
/// so CI can watch the verdict/liveness trajectory per PR.
pub fn fault_sweep_grid(
    run_budget: &Budget,
    budgets: &[FaultBudget],
    with_corruption: bool,
) -> Vec<FaultCell> {
    let mut cells = Vec::new();

    let paxos_setting = PaxosSetting::new(1, 2, 1);
    let paxos_label = format!("Paxos {paxos_setting}");
    let paxos_roles = mp_protocols::paxos::symmetry_roles(paxos_setting);
    let mut paxos_budgets = budgets.to_vec();
    if with_corruption {
        paxos_budgets.push(FaultBudget::none().corruptions(2));
    }
    for budget in paxos_budgets {
        let spec = faulty_paxos(paxos_setting, PaxosVariant::Correct, budget);
        run_cells(
            &paxos_label,
            &budget.to_string(),
            &spec,
            &paxos_roles,
            faulty_consensus_property(paxos_setting),
            &faulty_termination_property(paxos_setting),
            NullObserver,
            run_budget,
            &mut cells,
        );
    }

    let multicast_setting = MulticastSetting::new(2, 1, 0, 1);
    let multicast_label = format!("Echo Multicast {multicast_setting}");
    let multicast_roles = mp_protocols::echo_multicast::symmetry_roles(multicast_setting);
    for budget in budgets {
        let spec = faulty_multicast(multicast_setting, *budget);
        run_cells(
            &multicast_label,
            &budget.to_string(),
            &spec,
            &multicast_roles,
            faulty_agreement_property(multicast_setting),
            &faulty_delivery_termination_property(multicast_setting),
            NullObserver,
            run_budget,
            &mut cells,
        );
    }

    let storage_setting = StorageSetting::new(2, 1);
    let storage_label = format!("Regular storage {storage_setting}");
    let storage_roles = mp_protocols::storage::symmetry_roles(storage_setting);
    for budget in budgets {
        let spec = faulty_storage(storage_setting, *budget);
        run_cells(
            &storage_label,
            &budget.to_string(),
            &spec,
            &storage_roles,
            faulty_regularity_property(storage_setting),
            &faulty_read_completion_property(storage_setting),
            faulty_regularity_observer(storage_setting),
            run_budget,
            &mut cells,
        );
    }

    cells
}

/// The sweep's three agreement checks, each as the line it prints when all
/// cells agree and one message per cell that does not:
///
/// * **store backends** — within each (protocol, budget, strategy) group
///   every backend reports the same safety verdict and state count (the
///   liveness verdict is computed once per group, so it cannot disagree);
/// * **symmetry** — the symmetric run has the plain run's safety and
///   liveness *verdict class* and explores no more states;
/// * **spill** — the spilled BFS probes reproduced the in-memory
///   frontier's verdict class and state count, with and without symmetry.
pub fn agreement_checks(cells: &[FaultCell]) -> [(&'static str, Vec<String>); 3] {
    let cell = |c: &FaultCell| {
        format!(
            "{} / {} / {} / {}",
            c.protocol, c.budget, c.strategy, c.backend
        )
    };
    let backends = cells.iter().filter(|cell| {
        let reference = cells.iter().find(|c| {
            (&c.protocol, &c.budget, &c.strategy) == (&cell.protocol, &cell.budget, &cell.strategy)
        });
        reference.is_some_and(|r| (&r.verdict, r.states) != (&cell.verdict, cell.states))
    });
    let symmetry = cells.iter().filter(|c| {
        verdict_class(&c.verdict) != verdict_class(&c.sym_verdict)
            || verdict_class(&c.liveness) != verdict_class(&c.sym_liveness)
            || c.sym_states > c.states
    });
    let spill = cells.iter().filter(|c| !c.spill_agrees);
    [
        (
            "store-backend agreement: OK (every backend reports the same verdict per cell)",
            backends
                .map(|c| format!("BACKEND DISAGREEMENT: {}: {}", cell(c), c.verdict))
                .collect(),
        ),
        (
            "symmetry agreement: OK (orbit reduction preserves every safety/liveness verdict)",
            symmetry
                .map(|c| {
                    format!(
                        "SYMMETRY DISAGREEMENT: {}: safety {} vs {}, liveness {} vs {}, \
                         states {} vs {}",
                        cell(c),
                        c.verdict,
                        c.sym_verdict,
                        c.liveness,
                        c.sym_liveness,
                        c.states,
                        c.sym_states
                    )
                })
                .collect(),
        ),
        (
            "frontier-spill agreement: OK (disk and in-memory frontiers explore identically)",
            spill
                .map(|c| format!("FRONTIER SPILL DISAGREEMENT: {}", cell(c)))
                .collect(),
        ),
    ]
}

/// A seed-consistency check row: state counts of the base model vs the
/// all-zero-budget fault-augmented model under the same strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedCheck {
    /// Protocol label.
    pub protocol: String,
    /// "SPOR" or "unreduced".
    pub strategy: String,
    /// States of the seed (base) model.
    pub base_states: usize,
    /// States of the zero-budget fault-augmented model.
    pub faulted_states: usize,
}

impl SeedCheck {
    /// `true` if the zero budget reproduced the seed exactly.
    pub fn matches(&self) -> bool {
        self.base_states == self.faulted_states
    }
}

/// Verifies that injecting an all-zero budget reproduces the seed models'
/// state counts exactly, under both the unreduced and the SPOR search.
pub fn zero_budget_seed_checks(run_budget: &Budget) -> Vec<SeedCheck> {
    #[allow(clippy::too_many_arguments)] // one spec/property/observer triple per side
    fn pair<S, M, O, FS, FM, FO2>(
        protocol: &str,
        base_spec: &ProtocolSpec<S, M>,
        base_property: impl Fn() -> Invariant<S, M, O>,
        base_observer: impl Fn() -> O,
        faulted_spec: &ProtocolSpec<FS, FM>,
        faulted_property: impl Fn() -> Invariant<FS, FM, FO2>,
        faulted_observer: impl Fn() -> FO2,
        run_budget: &Budget,
        out: &mut Vec<SeedCheck>,
    ) where
        S: LocalState,
        M: Message,
        O: Observer<S, M>,
        FS: LocalState,
        FM: Message,
        FO2: Observer<FS, FM>,
    {
        for spor in [false, true] {
            let config = run_budget.apply(CheckerConfig::stateful_dfs());
            let base = Checker::with_observer(base_spec, base_property(), base_observer())
                .config(config.clone());
            let base = if spor { base.spor() } else { base };
            let faulted =
                Checker::with_observer(faulted_spec, faulted_property(), faulted_observer())
                    .config(config);
            let faulted = if spor { faulted.spor() } else { faulted };
            out.push(SeedCheck {
                protocol: protocol.to_string(),
                strategy: if spor { "SPOR" } else { "unreduced" }.to_string(),
                base_states: base.run().stats.states,
                faulted_states: faulted.run().stats.states,
            });
        }
    }

    let mut checks = Vec::new();

    let paxos_setting = PaxosSetting::new(1, 2, 1);
    pair(
        &format!("Paxos {paxos_setting}"),
        &paxos(paxos_setting, PaxosVariant::Correct),
        || consensus_property(paxos_setting),
        || NullObserver,
        &faulty_paxos(paxos_setting, PaxosVariant::Correct, FaultBudget::none()),
        || faulty_consensus_property(paxos_setting),
        || NullObserver,
        run_budget,
        &mut checks,
    );

    let multicast_setting = MulticastSetting::new(2, 1, 0, 1);
    pair(
        &format!("Echo Multicast {multicast_setting}"),
        &multicast(multicast_setting),
        || agreement_property(multicast_setting),
        || NullObserver,
        &faulty_multicast(multicast_setting, FaultBudget::none()),
        || faulty_agreement_property(multicast_setting),
        || NullObserver,
        run_budget,
        &mut checks,
    );

    let storage_setting = StorageSetting::new(2, 1);
    pair(
        &format!("Regular storage {storage_setting}"),
        &storage(storage_setting),
        || regularity_property(storage_setting),
        || RegularityObserver::new(storage_setting),
        &faulty_storage(storage_setting, FaultBudget::none()),
        || faulty_regularity_property(storage_setting),
        || faulty_regularity_observer(storage_setting),
        run_budget,
        &mut checks,
    );

    checks
}

/// Renders the sweep as an aligned text table (with the symmetry on/off
/// state counts and the orbit-collapse ratio per cell).
pub fn render_fault_sweep(cells: &[FaultCell]) -> String {
    let mut out = String::from(
        "protocol                  | budget              | strategy  | backend             |   states | sym stat | ratio | store KiB | front KiB | sym front | time     | verdict                        | liveness\n",
    );
    out.push_str(
        "--------------------------+---------------------+-----------+---------------------+----------+----------+-------+-----------+-----------+-----------+----------+--------------------------------+---------\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{:<25} | {:<19} | {:<9} | {:<19} | {:>8} | {:>8} | {:>5.2} | {:>9} | {:>9} | {:>9} | {:>8} | {:<30} | {}\n",
            c.protocol,
            c.budget,
            c.strategy,
            c.backend,
            c.states,
            c.sym_states,
            c.state_ratio(),
            c.store_bytes / 1024,
            c.frontier_bytes / 1024,
            c.sym_frontier_bytes / 1024,
            format!("{:.1?}", c.time),
            format!("{}{}", c.verdict, omission_note(c.omission_probability)),
            c.liveness
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_budget() -> Budget {
        Budget {
            max_states: 50_000,
            time_limit: Some(Duration::from_secs(20)),
            ..Budget::default()
        }
    }

    #[test]
    fn zero_budget_reproduces_seed_state_counts() {
        for check in zero_budget_seed_checks(&tiny_budget()) {
            assert!(
                check.matches(),
                "{} [{}]: base {} vs faulted {}",
                check.protocol,
                check.strategy,
                check.base_states,
                check.faulted_states
            );
        }
    }

    #[test]
    fn sweep_backends_agree_on_a_small_grid() {
        // One protocol, two budgets, to keep the unit test fast; the full
        // grid is exercised by the subcommand and the integration tests.
        let run_budget = tiny_budget();
        let setting = PaxosSetting::new(1, 2, 1);
        let roles = mp_protocols::paxos::symmetry_roles(setting);
        let mut cells = Vec::new();
        for budget in [FaultBudget::none(), FaultBudget::none().drops(1)] {
            let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
            run_cells(
                "Paxos",
                &budget.to_string(),
                &spec,
                &roles,
                faulty_consensus_property(setting),
                &faulty_termination_property(setting),
                NullObserver,
                &run_budget,
                &mut cells,
            );
        }
        assert_eq!(cells.len(), 2 * 2 * 4);
        for (check, disagreements) in agreement_checks(&cells) {
            assert!(disagreements.is_empty(), "{check}: {disagreements:?}");
        }
        // A cell that differs from its group is reported by every check it
        // breaks, and only by those.
        let mut broken = cells.clone();
        broken[1].states += 1;
        broken[1].spill_agrees = false;
        let reported = agreement_checks(&broken).map(|(_, bad)| bad.len());
        assert_eq!(reported, [1, 0, 1]);
        // The spilled-frontier probes ran and recorded real byte counts,
        // and symmetry never grows the frontier.
        assert!(cells.iter().all(|c| c.frontier_bytes > 0));
        assert!(cells
            .iter()
            .all(|c| c.sym_frontier_bytes <= c.frontier_bytes));
        assert!(cells.iter().all(|c| c.verdict == "verified"));
        // Symmetry never grows the explored set, and the fault cells (two
        // interchangeable acceptors) must genuinely collapse orbits.
        assert!(cells.iter().all(|c| c.sym_states <= c.states));
        assert!(
            cells
                .iter()
                .filter(|c| c.budget != "none")
                .all(|c| c.state_ratio() > 1.0),
            "drop cells must collapse: {cells:?}"
        );
        // The liveness column: zero-budget Paxos terminates; a single lost
        // message can strand a quorum, a fair quiescent lasso.
        assert!(cells
            .iter()
            .filter(|c| c.budget == "none")
            .all(|c| c.liveness == "verified" && c.sym_liveness == "verified"));
        assert!(cells
            .iter()
            .filter(|c| c.budget != "none")
            .all(|c| c.liveness.contains("lasso") && c.sym_liveness.contains("lasso")));
        // Every row carries the full column set, and none of these untraced
        // runs a phase field; a traced cell carries all nine, in µs.
        let rows: Vec<Row> = cells.iter().map(FaultCell::row).collect();
        for row in &rows {
            for field in [
                "liveness",
                "sym_states",
                "state_ratio",
                "frontier_bytes",
                "sym_frontier_bytes",
                "store_spilled_bytes",
                "store_merge_bytes",
            ] {
                assert!(row.contains_key(field), "{field} missing: {row:?}");
            }
            assert_eq!(row["spill_agrees"], JsonValue::Bool(true));
            assert_eq!(crate::report::tests::phase_keys(row), 0);
        }
        let mut traced = cells[0].clone();
        traced.phases = mp_trace::PhaseTimes::from_nanos([1_000; mp_trace::PHASE_COUNT]);
        assert_eq!(
            crate::report::tests::phase_keys(&traced.row()),
            mp_trace::PHASE_COUNT
        );
        // The rows parse back unchanged and gate clean against themselves.
        use crate::bench_gate::{compare, parse_rows, render_rows};
        let parsed = parse_rows(&render_rows(&rows)).unwrap();
        assert_eq!(parsed, rows);
        let report = compare("sweep", &parsed, &parsed, 0.10);
        assert!(report.passed() && report.warnings.is_empty(), "{report:?}");
        let table = render_fault_sweep(&cells);
        assert!(table.contains("fingerprint"));
        assert!(table.contains("runs("));
        assert!(table.contains("liveness"));
        assert!(table.contains("ratio"));
        assert!(table.contains("front KiB"));
    }

    #[test]
    fn cell_slugs_are_filesystem_safe_and_distinct() {
        let a = cell_slug(&["Paxos (1,2,1)", "crashes=1", "spor", "runs(4096)", "sym"]);
        assert_eq!(a, "paxos-1-2-1-crashes-1-spor-runs-4096-sym");
        let b = cell_slug(&["Paxos (1,2,1)", "crashes=1", "spor", "runs(4096)", "plain"]);
        assert_ne!(a, b);
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }

    #[test]
    fn verdict_classes_compare_shapes_not_strings() {
        assert_eq!(verdict_class("verified"), "verified");
        assert_eq!(verdict_class("counterexample found (3 steps)"), "violated");
        assert_eq!(
            verdict_class("fair lasso (7 stem + 0 cycle steps)"),
            "violated"
        );
        assert_eq!(verdict_class("limit reached: state limit of 10"), "bounded");
    }
}
