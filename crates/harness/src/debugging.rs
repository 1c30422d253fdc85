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

use crate::report::short_verdict;
use crate::{Budget, Measurement};

fn measure<S, M, O>(
    protocol: &str,
    property: &str,
    spec: &mp_model::ProtocolSpec<S, M>,
    prop: mp_checker::Invariant<S, M, O>,
    observer: O,
    spor: bool,
    budget: &Budget,
) -> Measurement
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
    let mut m = Measurement::of(protocol, property, strategy.to_string(), verdict, &report);
    m.as_expected = report.verdict.is_violated() || !m.completed;
    m
}

/// Runs the bug-finding experiments on the three faulty targets and returns
/// one measurement per (target, strategy).
pub fn debugging_experiments(budget: &Budget) -> Vec<Measurement> {
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

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_faulty_target_yields_a_counterexample_quickly() {
        let rows = debugging_experiments(&Budget::default());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(
                row.verdict.starts_with("CE"),
                "{} / {} should produce a counterexample, got {}",
                row.protocol,
                row.strategy,
                row.verdict
            );
            assert!(
                row.states < 150_000,
                "bug finding should need few states, {} needed {}",
                row.protocol,
                row.states
            );
        }
    }
}
