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

use crate::bench_gate::{row, JsonValue, Row};
use crate::report::{insert_optional_fields, num, text, Outcome};
use crate::Budget;

/// The ratio of two counts, with the denominator floored at 1.
fn count_ratio(a: usize, b: usize) -> JsonValue {
    JsonValue::ratio(a as f64 / b.max(1) as f64)
}

/// Watermark of the sweep's disk-frontier probes: small enough that every
/// non-trivial cell spills its levels many times, so the sweep exercises
/// the level files on every run.
pub const SWEEP_SPILL_WATERMARK: usize = 4096;

/// Buffer watermark (in entries) of the sweep's external-memory `runs`
/// visited-store backend: small enough that the larger fault cells spill
/// sorted fingerprint runs to disk and merge them at level boundaries.
pub(crate) const SWEEP_RUN_WATERMARK: usize = 4096;

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

/// The comparison class of a verdict string — a `Verdict`'s display or a
/// measurement row's short form (`CE (n steps)`, `bounded (…)`):
/// `"verified"`, `"violated"` or `"bounded"`. Symmetric and plain runs may
/// legitimately report different counterexample *shapes* (a different path
/// or lasso of the same orbit), so agreement is judged on the class, never
/// on the rendered string.
pub(crate) fn verdict_class(verdict: &str) -> &'static str {
    if verdict.contains("counterexample") || verdict.contains("lasso") || verdict.starts_with("CE ")
    {
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
pub(crate) fn sweep_backends() -> Vec<StoreConfig> {
    vec![
        StoreConfig::Exact,
        StoreConfig::sharded(),
        StoreConfig::fingerprint(48),
        StoreConfig::runs_with_watermark(SWEEP_RUN_WATERMARK),
    ]
}

/// The default budget grid: no faults, one fault of each class alone, and
/// one mixed budget.
pub(crate) fn budget_grid() -> Vec<FaultBudget> {
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
    out: &mut Vec<Row>,
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
            let (stats, sym_stats) = (&report.stats, &sym_report.stats);
            // One row per cell: the plain safety run, its symmetric twin,
            // the group's liveness verdicts and disk-frontier probes.
            let mut cell = row([
                ("protocol", protocol.into()),
                ("budget", budget_label.into()),
                ("strategy", if spor { "SPOR" } else { "unreduced" }.into()),
                ("backend", store.to_string().into()),
                ("verdict", report.verdict.to_string().into()),
                ("liveness", liveness_plain.as_str().into()),
                ("states", stats.states.into()),
                ("transitions", stats.transitions_executed.into()),
                ("store_bytes", stats.store_bytes.into()),
                ("store_spilled_bytes", stats.store_spilled_bytes.into()),
                ("store_merge_bytes", stats.store_merge_bytes.into()),
                ("time_ms", JsonValue::millis(stats.elapsed)),
                ("sym_verdict", sym_report.verdict.to_string().into()),
                ("sym_liveness", liveness_sym.as_str().into()),
                ("sym_states", sym_stats.states.into()),
                ("sym_time_ms", JsonValue::millis(sym_stats.elapsed)),
                ("state_ratio", count_ratio(stats.states, sym_stats.states)),
                ("frontier_bytes", frontier_bytes.into()),
                ("sym_frontier_bytes", sym_frontier_bytes.into()),
                (
                    "frontier_ratio",
                    count_ratio(frontier_bytes, sym_frontier_bytes),
                ),
                ("spill_agrees", JsonValue::Bool(spill_agrees)),
            ]);
            insert_optional_fields(&mut cell, stats);
            out.push(cell);
        }
    }
}

/// Runs the full fault sweep: each protocol under every budget of the grid
/// (plus a corruption budget for Paxos, which has a Byzantine mutator),
/// SPOR on/off, every store backend.
pub fn fault_sweep(run_budget: &Budget) -> Outcome {
    fault_sweep_grid(run_budget, &budget_grid(), true)
}

/// Runs the fault sweep over an explicit budget grid. `with_corruption`
/// additionally appends the Byzantine-corruption budget to the Paxos rows.
/// The `fault_sweep` subcommand's `--smoke` mode uses this with a reduced grid
/// so CI can watch the verdict/liveness trajectory per PR. Returns one row
/// per cell and the failures of the sweep's agreement checks over them
/// (`agreement_failures`).
pub fn fault_sweep_grid(
    run_budget: &Budget,
    budgets: &[FaultBudget],
    with_corruption: bool,
) -> Outcome {
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

    let failures = agreement_failures(&cells);
    (cells, failures)
}

/// The sweep's three agreement checks, one failure line per cell that
/// breaks one:
///
/// * **store backends** — within each (protocol, budget, strategy) group
///   every backend reports the same safety verdict and state count (the
///   liveness verdict is computed once per group, so it cannot disagree);
/// * **symmetry** — the symmetric run has the plain run's safety and
///   liveness *verdict class* and explores no more states;
/// * **spill** — the spilled BFS probes reproduced the in-memory
///   frontier's verdict class and state count, with and without symmetry.
pub(crate) fn agreement_failures(cells: &[Row]) -> Vec<String> {
    let cell = |c: &Row| {
        let [protocol, budget, strategy, backend] =
            ["protocol", "budget", "strategy", "backend"].map(|f| text(c, f));
        format!("{protocol} / {budget} / {strategy} / {backend}")
    };
    let group = |c: &Row| ["protocol", "budget", "strategy"].map(|f| c[f].clone());
    let outcome = |c: &Row| (c["verdict"].clone(), c["states"].clone());
    let class = |c: &Row, field: &str| verdict_class(text(c, field));
    let backends = cells.iter().filter(|c| {
        let reference = cells.iter().find(|r| group(r) == group(c));
        reference.is_some_and(|r| outcome(r) != outcome(c))
    });
    let symmetry = cells.iter().filter(|c| {
        class(c, "verdict") != class(c, "sym_verdict")
            || class(c, "liveness") != class(c, "sym_liveness")
            || num(c, "sym_states") > num(c, "states")
    });
    let spill = cells
        .iter()
        .filter(|c| c["spill_agrees"] != JsonValue::Bool(true));
    let backends =
        backends.map(|c| format!("BACKEND DISAGREEMENT: {}: {}", cell(c), text(c, "verdict")));
    let symmetry = symmetry.map(|c| {
        let [verdict, sym_verdict, liveness, sym_liveness] =
            ["verdict", "sym_verdict", "liveness", "sym_liveness"].map(|f| text(c, f));
        format!(
            "SYMMETRY DISAGREEMENT: {}: safety {verdict} vs {sym_verdict}, liveness {liveness} \
             vs {sym_liveness}, states {} vs {}",
            cell(c),
            c["states"],
            c["sym_states"]
        )
    });
    let spill = spill.map(|c| format!("FRONTIER SPILL DISAGREEMENT: {}", cell(c)));
    backends.chain(symmetry).chain(spill).collect()
}

/// Verifies that injecting an all-zero budget reproduces the seed models'
/// state counts exactly, under both the unreduced and the SPOR search: one
/// row per (protocol, strategy) with `base_states` and `faulted_states`,
/// and one failure line per row where they differ.
pub fn zero_budget_seed_checks(run_budget: &Budget) -> Outcome {
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
        out: &mut Vec<Row>,
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
            out.push(row([
                ("protocol", protocol.into()),
                ("strategy", if spor { "SPOR" } else { "unreduced" }.into()),
                ("base_states", base.run().stats.states.into()),
                ("faulted_states", faulted.run().stats.states.into()),
            ]));
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

    let failures = checks
        .iter()
        .filter(|c| c["base_states"] != c["faulted_states"])
        .map(|c| {
            format!(
                "SEED MISMATCH: {} [{}]: base {} states, zero-budget {} states",
                text(c, "protocol"),
                text(c, "strategy"),
                c["base_states"],
                c["faulted_states"]
            )
        })
        .collect();
    (checks, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_budget() -> Budget {
        Budget {
            max_states: 50_000,
            time_limit: Some(Duration::from_secs(20)),
            ..Budget::default()
        }
    }

    #[test]
    fn zero_budget_reproduces_seed_state_counts() {
        let (checks, failures) = zero_budget_seed_checks(&tiny_budget());
        assert_eq!(checks.len(), 6);
        assert!(failures.is_empty(), "{failures:?}");
        for check in &checks {
            assert_eq!(num(check, "base_states"), num(check, "faulted_states"));
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
        let failures = agreement_failures(&cells);
        assert!(failures.is_empty(), "{failures:?}");
        // A cell that differs from its group is reported by every check it
        // breaks, and only by those.
        let mut broken = cells.clone();
        let states = num(&broken[1], "states");
        broken[1].insert("states".to_string(), JsonValue::Num(states + 1.0));
        broken[1].insert("spill_agrees".to_string(), JsonValue::Bool(false));
        let reported = agreement_failures(&broken);
        let count = |prefix: &str| reported.iter().filter(|l| l.starts_with(prefix)).count();
        assert_eq!(
            [count("BACKEND"), count("SYMMETRY"), count("FRONTIER SPILL")],
            [1, 0, 1],
            "{reported:?}"
        );
        // The spilled-frontier probes ran and recorded real byte counts,
        // and symmetry never grows the frontier.
        assert!(cells.iter().all(|c| num(c, "frontier_bytes") > 0.0));
        assert!(cells
            .iter()
            .all(|c| num(c, "sym_frontier_bytes") <= num(c, "frontier_bytes")));
        assert!(cells.iter().all(|c| text(c, "verdict") == "verified"));
        // Symmetry never grows the explored set, and the fault cells (two
        // interchangeable acceptors) must genuinely collapse orbits.
        assert!(cells
            .iter()
            .all(|c| num(c, "sym_states") <= num(c, "states")));
        assert!(
            cells
                .iter()
                .filter(|c| text(c, "budget") != "none")
                .all(|c| num(c, "state_ratio") > 1.0),
            "drop cells must collapse: {cells:?}"
        );
        // The liveness column: zero-budget Paxos terminates; a single lost
        // message can strand a quorum, a fair quiescent lasso.
        fn liveness(c: &Row) -> [&str; 2] {
            [text(c, "liveness"), text(c, "sym_liveness")]
        }
        assert!(cells
            .iter()
            .filter(|c| text(c, "budget") == "none")
            .all(|c| liveness(c) == ["verified"; 2]));
        assert!(cells
            .iter()
            .filter(|c| text(c, "budget") != "none")
            .all(|c| liveness(c).iter().all(|l| l.contains("lasso"))));
        // Every row carries the committed baseline's columns — the omission
        // bound on the probabilistic stores' rows only — and none of these
        // untraced runs a phase field.
        crate::report::tests::assert_baseline_fields(
            include_str!("../../../BENCH_fault_sweep.json"),
            &cells,
        );
        for c in &cells {
            let probabilistic = ["fingerprint", "runs"]
                .iter()
                .any(|b| text(c, "backend").starts_with(b));
            assert_eq!(c.contains_key("omission_probability"), probabilistic);
            assert_eq!(c["spill_agrees"], JsonValue::Bool(true));
            assert_eq!(crate::report::tests::phase_keys(c), 0);
        }
        // A traced cell carries all nine phases, in µs.
        let sink = mp_checker::Tracer::to_writer(false, Box::new(std::io::sink()));
        let mut traced = Vec::new();
        run_cells(
            "Paxos",
            "none",
            &faulty_paxos(setting, PaxosVariant::Correct, FaultBudget::none()),
            &roles,
            faulty_consensus_property(setting),
            &faulty_termination_property(setting),
            NullObserver,
            &run_budget.clone().with_trace(sink),
            &mut traced,
        );
        assert!(traced
            .iter()
            .all(|c| crate::report::tests::phase_keys(c) == mp_trace::PHASE_COUNT));
        // The rows parse back unchanged and gate clean against themselves.
        use crate::bench_gate::{compare, parse_rows, render_rows};
        let parsed = parse_rows(&render_rows(&cells)).unwrap();
        assert_eq!(parsed, cells);
        let report = compare("sweep", &parsed, &parsed);
        assert!(report.passed() && report.warnings.is_empty(), "{report:?}");
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
        assert_eq!(verdict_class("CE (11 steps)"), "violated");
        assert_eq!(verdict_class("bounded (state limit of 10)"), "bounded");
    }
}
