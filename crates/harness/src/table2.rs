//! Table II — "Transition refinement in action".
//!
//! Every protocol is modelled with quorum transitions and checked under
//! SPOR, once unsplit and once for each refinement strategy (reply-split,
//! quorum-split, combined-split). As in the paper, dynamic POR is not
//! combined with refinement: split transitions of the same process are
//! inter-dependent, so refinement cannot help DPOR.

use mp_checker::NullObserver;
use mp_protocols::echo_multicast::{
    agreement_property, quorum_model as multicast_quorum, MulticastSetting,
};
use mp_protocols::paxos::{consensus_property, quorum_model as paxos_quorum, PaxosVariant};
use mp_protocols::storage::{
    quorum_model as storage_quorum, regularity_property, wrong_regularity_property,
    RegularityObserver, StorageSetting,
};
use mp_refine::SplitStrategy;

use crate::bench_gate::{JsonValue, Row};
use crate::report::{contradicted, Outcome};
use crate::runner::run_cell;
use crate::{Budget, CellStrategy};

/// Runs every row of Table II: its rows, and one line per verdict that
/// contradicts the row's expectation.
///
/// `full` selects the paper-scale settings (Paxos (2,3,1) and Echo Multicast
/// (3,1,1,1)); the bounded default replaces them with smaller instances so
/// the table finishes quickly.
pub fn table_ii(budget: &Budget, full: bool) -> Outcome {
    let (mut rows, mut failures) = (Vec::new(), Vec::new());
    let mut push = |mut row: Row, strategy: SplitStrategy, expect_ce: bool| {
        row.insert("strategy".to_string(), JsonValue::from(strategy.label()));
        failures.extend(contradicted(&row, expect_ce));
        rows.push(row);
    };

    // --- Paxos ----------------------------------------------------------
    // As in Table I, the faulty-learner row always uses the paper's (2,3,1)
    // setting because the bug needs at least three acceptors to manifest.
    for (variant, prop_label, expect_ce) in [
        (PaxosVariant::Correct, "Consensus", false),
        (PaxosVariant::FaultyLearner, "Consensus (faulty)", true),
    ] {
        let setting = if expect_ce {
            mp_protocols::paxos::PaxosSetting::new(2, 3, 1)
        } else {
            crate::table1::paxos_setting(full)
        };
        let base = paxos_quorum(setting, variant);
        let label = if expect_ce {
            format!("Faulty Paxos {setting}")
        } else {
            format!("Paxos {setting}")
        };
        for strategy in SplitStrategy::ALL {
            let split = strategy
                .apply(&base)
                .expect("refinement of the Paxos model succeeds");
            let row = run_cell(
                &label,
                prop_label,
                &split,
                consensus_property(setting),
                NullObserver,
                CellStrategy::SporStateful,
                budget,
            );
            push(row, strategy, expect_ce);
        }
    }

    // --- Echo Multicast --------------------------------------------------
    let mut multicast_rows: Vec<(MulticastSetting, &str, bool)> = vec![
        (MulticastSetting::new(3, 0, 1, 1), "Agreement", false),
        (MulticastSetting::new(2, 1, 0, 1), "Agreement", false),
        (MulticastSetting::new(2, 1, 2, 1), "Wrong agreement", true),
    ];
    if full {
        multicast_rows.insert(2, (MulticastSetting::new(3, 1, 1, 1), "Agreement", false));
    }
    for (setting, prop_label, expect_ce) in multicast_rows {
        let base = multicast_quorum(setting);
        let label = format!("Echo Multicast {setting}");
        for strategy in SplitStrategy::ALL {
            let split = strategy
                .apply(&base)
                .expect("refinement of the multicast model succeeds");
            let row = run_cell(
                &label,
                prop_label,
                &split,
                agreement_property(setting),
                NullObserver,
                CellStrategy::SporStateful,
                budget,
            );
            push(row, strategy, expect_ce);
        }
    }

    // --- Regular storage -------------------------------------------------
    let storage_rows: Vec<(StorageSetting, &str, bool)> = vec![
        (StorageSetting::new(3, 1), "Regularity", false),
        (StorageSetting::new(3, 2), "Wrong regularity", true),
    ];
    for (setting, prop_label, expect_ce) in storage_rows {
        let base = storage_quorum(setting);
        let label = format!("Regular storage {setting}");
        for strategy in SplitStrategy::ALL {
            let split = strategy
                .apply(&base)
                .expect("refinement of the storage model succeeds");
            let property = if expect_ce {
                wrong_regularity_property(setting)
            } else {
                regularity_property(setting)
            };
            let row = run_cell(
                &label,
                prop_label,
                &split,
                property,
                RegularityObserver::new(setting),
                CellStrategy::SporStateful,
                budget,
            );
            push(row, strategy, expect_ce);
        }
    }

    (rows, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::text;

    #[test]
    fn bounded_table_ii_has_all_rows_and_expected_verdicts() {
        let (rows, failures) = table_ii(&Budget::small(), false);
        // 7 protocol rows × 4 split strategies.
        assert_eq!(rows.len(), 28);
        assert!(failures.is_empty(), "{failures:?}");
        crate::report::tests::assert_baseline_fields(
            include_str!("../../../BENCH_table_ii.json"),
            &rows,
        );
        let strategies: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| text(r, "strategy")).collect();
        assert!(strategies.contains("combined-split"));
        assert!(strategies.contains("reply-split"));
        assert!(strategies.contains("quorum-split"));
    }
}
