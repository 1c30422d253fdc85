//! The debugging experiments (across Tables I–II).
//!
//! "The proposed optimizations can also find bugs fast using little memory"
//! — this experiment measures the resources needed to find the *first*
//! counterexample in the faulty protocol variants, under the quorum model
//! with SPOR and, for comparison, the unreduced search. Breadth-first search
//! is used so that the reported counterexamples are shortest ones.

use mp_checker::{Checker, CheckerConfig, NullObserver, Verdict};
use mp_protocols::echo_multicast::{
    agreement_property, quorum_model as multicast_quorum, MulticastSetting,
};
use mp_protocols::paxos::{
    consensus_property, quorum_model as paxos_quorum, PaxosSetting, PaxosVariant,
};
use mp_protocols::storage::{
    quorum_model as storage_quorum, wrong_regularity_property, RegularityObserver, StorageSetting,
};

use crate::bench_gate::Row;
use crate::report::{contradicted, run_row, short_verdict, Outcome};
use crate::Budget;

fn measure<S, M, O>(
    protocol: &str,
    property: &str,
    spec: &mp_model::ProtocolSpec<S, M>,
    prop: mp_checker::Invariant<S, M, O>,
    observer: O,
    spor: bool,
    budget: &Budget,
) -> Row
where
    S: mp_model::LocalState,
    M: mp_model::Message,
    O: mp_checker::Observer<S, M>,
{
    let config = budget.apply(CheckerConfig::stateful_bfs());
    let checker = Checker::with_observer(spec, prop, observer).config(config);
    let checker = if spor { checker.spor() } else { checker };
    let report = checker.run();
    let verdict = match &report.verdict {
        Verdict::Verified => "verified (unexpected)".to_string(),
        verdict => short_verdict(verdict),
    };
    let strategy = if spor {
        "SPOR (BFS)"
    } else {
        "unreduced (BFS)"
    };
    run_row(protocol, property, strategy, &verdict, &report)
}

/// Runs the bug-finding experiments on the three faulty targets: one row
/// per (target, strategy), and one line per target that verified.
pub fn debugging_experiments(budget: &Budget) -> Outcome {
    let mut rows = Vec::new();

    let paxos_setting = PaxosSetting::new(2, 3, 1);
    let paxos = paxos_quorum(paxos_setting, PaxosVariant::FaultyLearner);
    for spor in [false, true] {
        rows.push(measure(
            &format!("Faulty Paxos {paxos_setting}"),
            "Consensus",
            &paxos,
            consensus_property(paxos_setting),
            NullObserver,
            spor,
            budget,
        ));
    }

    let multicast_setting = MulticastSetting::new(2, 1, 2, 1);
    let multicast = multicast_quorum(multicast_setting);
    for spor in [false, true] {
        rows.push(measure(
            &format!("Echo Multicast {multicast_setting}"),
            "Wrong agreement",
            &multicast,
            agreement_property(multicast_setting),
            NullObserver,
            spor,
            budget,
        ));
    }

    let storage_setting = StorageSetting::new(3, 2);
    let storage = storage_quorum(storage_setting);
    for spor in [false, true] {
        rows.push(measure(
            &format!("Regular storage {storage_setting}"),
            "Wrong regularity",
            &storage,
            wrong_regularity_property(storage_setting),
            RegularityObserver::new(storage_setting),
            spor,
            budget,
        ));
    }

    let failures = rows.iter().filter_map(|r| contradicted(r, true)).collect();
    (rows, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{num, text};

    #[test]
    fn every_faulty_target_yields_a_counterexample_quickly() {
        let (rows, failures) = debugging_experiments(&Budget::default());
        assert_eq!(rows.len(), 6);
        assert!(failures.is_empty(), "{failures:?}");
        for row in &rows {
            let (protocol, verdict) = (text(row, "protocol"), text(row, "verdict"));
            assert!(
                verdict.starts_with("CE"),
                "{protocol} / {} should produce a counterexample, got {verdict}",
                text(row, "strategy"),
            );
            assert!(
                num(row, "states") < 150_000.0,
                "bug finding should need few states, {protocol} needed {}",
                num(row, "states")
            );
        }
        crate::report::tests::assert_baseline_fields(
            include_str!("../../../BENCH_debugging.json"),
            &rows,
        );
    }
}
