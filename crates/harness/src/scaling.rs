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
use mp_store::{FrontierConfig, StoreConfig};

use crate::bench_gate::{row, JsonValue, Row};
use crate::fault_sweep::verdict_class;
use crate::report::{contradicted, insert_optional_fields, run_row, text, Outcome};
use crate::runner::run_cell;
use crate::{Budget, CellStrategy};

/// Sweeps the quorum size of the collection protocol: one row per quorum
/// size with the reachable states of both modelling styles
/// (`quorum_states`, `single_states`) and their ratio, `inflation` (full
/// state graphs, no reduction — this measures model size, not search
/// quality).
pub fn collect_sweep(voters: usize, collectors: usize, max_states: usize) -> Vec<Row> {
    (1..=voters)
        .map(|quorum| {
            let setting = CollectSetting::new(voters, quorum, collectors);
            let states = |quorum_style| {
                StateGraph::build(&collect_model(setting, quorum_style), max_states)
                    .map_or(max_states, |g| g.num_states())
            };
            let (quorum_states, single_states) = (states(true), states(false));
            row([
                (
                    "protocol",
                    format!("collect: {voters} voters, {collectors} collector(s)").into(),
                ),
                ("quorum", quorum.into()),
                ("quorum_states", quorum_states.into()),
                ("single_states", single_states.into()),
                (
                    "inflation",
                    JsonValue::ratio(single_states as f64 / quorum_states as f64),
                ),
            ])
        })
        .collect()
}

/// Measures quorum vs single-message Paxos as the number of acceptors (and
/// with it the majority quorum) grows, using SPOR for both so the comparison
/// matches Table I's middle and right columns. The two modelling styles get
/// distinct protocol labels so every row has a unique
/// (protocol, property, strategy) key — which is what the CI bench gate
/// matches baseline rows on. A failure line names each run that did not
/// verify.
pub fn paxos_sweep(max_acceptors: usize, budget: &Budget) -> Outcome {
    let mut rows = Vec::new();
    for acceptors in 1..=max_acceptors {
        let setting = PaxosSetting::new(1, acceptors, 1);
        for (style, spec) in [
            (
                "single-message",
                single_message_model(setting, PaxosVariant::Correct),
            ),
            ("quorum", quorum_model(setting, PaxosVariant::Correct)),
        ] {
            rows.push(run_cell(
                &format!("Paxos {setting} {style}"),
                "Consensus",
                &spec,
                consensus_property(setting),
                NullObserver,
                CellStrategy::SporStateful,
                budget,
            ));
        }
    }
    let failures = rows.iter().filter_map(|r| contradicted(r, false)).collect();
    (rows, failures)
}

/// The quorum half of [`paxos_sweep`] on the parallel BFS worker pool at
/// `threads` workers: its rows carry a `threads` field and a strategy
/// label of their own (`parallel-bfs(N)+SPOR`), so they join the bench
/// file without perturbing the sequential keys.
pub fn pooled_paxos_sweep(max_acceptors: usize, threads: usize, budget: &Budget) -> Outcome {
    let rows: Vec<Row> = (1..=max_acceptors)
        .map(|acceptors| {
            let setting = PaxosSetting::new(1, acceptors, 1);
            run_cell(
                &format!("Paxos {setting} quorum"),
                "Consensus",
                &quorum_model(setting, PaxosVariant::Correct),
                consensus_property(setting),
                NullObserver,
                CellStrategy::ParallelBfs { threads },
                budget,
            )
        })
        .collect();
    let failures = rows.iter().filter_map(|r| contradicted(r, false)).collect();
    (rows, failures)
}

/// Measures the orbit collapse of the Paxos acceptor symmetry as the
/// acceptor set grows: the validated group order is `acceptors!`, so the
/// reduction compounds with the quorum-model savings. Each point runs SPOR
/// with and without symmetry; the row is the symmetric run's (strategy
/// `SPOR+sym(k)`, k the group order), and a failure line names each point
/// whose two runs disagree on the verdict class or that did not verify.
pub fn paxos_symmetry_sweep(max_acceptors: usize, budget: &Budget) -> Outcome {
    use mp_symmetry::SymmetryGroup;

    let (mut rows, mut failures) = (Vec::new(), Vec::new());
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
        let strategy = format!("SPOR+sym({group_order})");
        let (plain, sym) = (run(false).verdict.to_string(), run(true));
        let row = run_row(
            &label,
            "Consensus",
            &strategy,
            &sym.verdict.to_string(),
            &sym,
        );
        if verdict_class(&plain) != verdict_class(text(&row, "verdict")) {
            failures.push(format!(
                "SYMMETRY DISAGREEMENT: {label}: {plain} without symmetry, {} with",
                sym.verdict
            ));
        }
        failures.extend(contradicted(&row, false));
        rows.push(row);
    }
    (rows, failures)
}

/// Watermark of the scaling sweep's spilled runs. The growing-acceptor
/// quorum models have frontier levels of a few hundred bytes to a few KiB,
/// so this is small enough that every point past the trivial one writes
/// real spill segments.
pub(crate) const SCALING_SPILL_WATERMARK: usize = 64;

/// Measures the disk-backed BFS frontier on the growing-acceptor Paxos
/// quorum models: every point runs the consensus check twice — in-memory
/// frontier vs disk frontier at `SCALING_SPILL_WATERMARK` (small enough
/// to force multi-segment spilling). The row is the spilled run's
/// (strategy `"SPOR (BFS+spill)"`, its peak in `frontier_bytes`), and a
/// failure line names each point whose spilled run did not reproduce the
/// in-memory run's verdict and state count exactly, or did not verify.
pub fn paxos_frontier_sweep(max_acceptors: usize, budget: &Budget) -> Outcome {
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
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
        let (mem_verdict, disk_verdict) = (mem.verdict.to_string(), disk.verdict.to_string());
        if (&mem_verdict, mem.stats.states) != (&disk_verdict, disk.stats.states) {
            failures.push(format!(
                "FRONTIER SPILL DISAGREEMENT: {label}: in memory {mem_verdict} ({} states), \
                 spilled {disk_verdict} ({} states)",
                mem.stats.states, disk.stats.states
            ));
        }
        let row = run_row(
            &label,
            "Consensus",
            "SPOR (BFS+spill)",
            &disk_verdict,
            &disk,
        );
        failures.extend(contradicted(&row, false));
        rows.push(row);
    }
    (rows, failures)
}

/// Verifies one quorum-scaling configuration of the collection protocol
/// with each `mp-store` backend under stateful DFS, so the memory savings
/// of hash compaction are measurable on the same workload: one row per
/// backend (`backend`, `states`, `store_bytes`, `verdict`, and
/// `omission_probability` for the probabilistic one). A failure line names
/// each backend whose verdict or state count differs from the exact
/// store's (the fingerprint verdict is probabilistic in theory, exact in
/// practice at these state counts).
pub fn store_backend_sweep(
    setting: CollectSetting,
    quorum_style: bool,
    budget: &Budget,
) -> Outcome {
    let spec = collect_model(setting, quorum_style);
    let rows: Vec<Row> = [
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
        let mut row = row([
            ("backend", store.to_string().into()),
            ("states", report.stats.states.into()),
            ("store_bytes", report.stats.store_bytes.into()),
            ("verdict", report.verdict.to_string().into()),
        ]);
        insert_optional_fields(&mut row, &report.stats);
        row
    })
    .collect();
    let agrees =
        |r: &Row| (&r["verdict"], &r["states"]) == (&rows[0]["verdict"], &rows[0]["states"]);
    let failures = rows
        .iter()
        .filter(|r| !agrees(r))
        .map(|r| {
            format!(
                "BACKEND DISAGREEMENT: {}: {}",
                text(r, "backend"),
                text(r, "verdict")
            )
        })
        .collect();
    (rows, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::num;

    #[test]
    fn inflation_grows_with_quorum_size() {
        let rows = collect_sweep(3, 1, 1_000_000);
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| num(r, "single_states") >= num(r, "quorum_states")));
        assert!(
            num(&rows[2], "inflation") >= num(&rows[0], "inflation"),
            "inflation must not shrink as the quorum grows: {rows:?}"
        );
    }

    #[test]
    fn store_sweep_saves_memory_without_changing_the_verdict() {
        let (rows, failures) =
            store_backend_sweep(CollectSetting::new(3, 2, 1), false, &Budget::small());
        assert_eq!(rows.len(), 3);
        assert!(failures.is_empty(), "{failures:?}");
        let (exact, fingerprint) = (&rows[0], &rows[2]);
        assert!(rows.iter().all(|r| r["verdict"] == exact["verdict"]));
        assert!(rows.iter().all(|r| r["states"] == exact["states"]));
        assert!(
            num(fingerprint, "store_bytes") < num(exact, "store_bytes"),
            "hash compaction must shrink the store: {rows:?}"
        );
        // The omission bound rides on the probabilistic row only.
        assert!(num(fingerprint, "omission_probability") > 0.0);
        assert!(!exact.contains_key("omission_probability"));
    }

    #[test]
    fn frontier_sweep_spills_and_agrees() {
        let (rows, failures) = paxos_frontier_sweep(2, &Budget::small());
        assert_eq!(rows.len(), 2);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(rows
            .iter()
            .all(|r| text(r, "strategy") == "SPOR (BFS+spill)"));
        assert!(rows.iter().all(|r| num(r, "frontier_bytes") > 0.0));
    }

    #[test]
    fn paxos_sweep_prefers_quorum_models() {
        let (rows, failures) = paxos_sweep(2, &Budget::small());
        assert_eq!(rows.len(), 4);
        assert!(failures.is_empty(), "{failures:?}");
        // For each acceptor count the quorum model (odd rows) must not be
        // larger than the single-message model (even rows).
        for pair in rows.chunks(2) {
            assert!(
                num(&pair[1], "states") <= num(&pair[0], "states"),
                "{pair:?}"
            );
        }
    }

    #[test]
    fn quorum_scaling_rows_carry_the_baseline_fields() {
        let budget = Budget::small();
        let (mut rows, _) = paxos_sweep(2, &budget);
        let (sym, failures) = paxos_symmetry_sweep(3, &budget);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(text(&sym[2], "strategy"), "SPOR+sym(6)");
        rows.extend(sym);
        rows.extend(paxos_frontier_sweep(2, &budget).0);
        crate::report::tests::assert_baseline_fields(
            include_str!("../../../BENCH_quorum_scaling.json"),
            &rows,
        );
    }
}
