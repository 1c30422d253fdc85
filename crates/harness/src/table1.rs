//! Table I — "Quorum semantics results".
//!
//! For every protocol setting of the paper's Table I, three cells are
//! measured:
//!
//! 1. the single-message ("no quorum") model under stateless DPOR — the
//!    Basset baseline (for regular storage the paper used unreduced stateful
//!    search instead, because its DPOR does not preserve the property; we do
//!    the same);
//! 2. the single-message model under SPOR (stateful);
//! 3. the quorum model under SPOR (stateful) — "our quorum results", in
//!    the `SPOR (quorum)` column.

use mp_checker::{Invariant, NullObserver, Observer};
use mp_model::{LocalState, Message, ProtocolSpec};
use mp_protocols::echo_multicast::{
    agreement_property, quorum_model as multicast_quorum, single_message_model as multicast_single,
    MulticastSetting,
};
use mp_protocols::paxos::{
    consensus_property, quorum_model as paxos_quorum, single_message_model as paxos_single,
    PaxosSetting, PaxosVariant,
};
use mp_protocols::storage::{
    quorum_model as storage_quorum, regularity_property, single_message_model as storage_single,
    wrong_regularity_property, RegularityObserver, StorageSetting,
};

use crate::bench_gate::{JsonValue, Row};
use crate::report::{contradicted, Outcome};
use crate::runner::run_cell;
use crate::{Budget, CellStrategy};

/// Column label of the third cell. The table finds a cell by protocol,
/// property and strategy label, so the quorum cell needs a label of its own
/// next to the single-message SPOR cell.
const QUORUM_SPOR: &str = "SPOR (quorum)";

/// The Paxos settings used in the default (bounded) and `--full` runs. The
/// paper's Paxos (2,3,1) is tractable but long; the bounded default uses
/// (2,2,1) so the whole table finishes in minutes, and the full run uses the
/// paper's setting.
pub(crate) fn paxos_setting(full: bool) -> PaxosSetting {
    if full {
        PaxosSetting::new(2, 3, 1)
    } else {
        PaxosSetting::new(2, 2, 1)
    }
}

/// One protocol row of the table: the single-message model under
/// `baseline` and under SPOR, then the quorum model under SPOR. A verdict
/// that contradicts `expect_ce` adds a line to `failures`.
#[allow(clippy::too_many_arguments)] // a table row genuinely has this many axes
fn push_row<S, M, O>(
    (rows, failures): (&mut Vec<Row>, &mut Vec<String>),
    (protocol, property_label): (&str, &str),
    expect_ce: bool,
    baseline: CellStrategy,
    (single, quorum): (&ProtocolSpec<S, M>, &ProtocolSpec<S, M>),
    property: impl Fn() -> Invariant<S, M, O>,
    observer: O,
    budget: &Budget,
) where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let cells = [
        (single, baseline, None),
        (single, CellStrategy::SporStateful, None),
        (quorum, CellStrategy::SporStateful, Some(QUORUM_SPOR)),
    ];
    for (spec, strategy, label) in cells {
        let (property, observer) = (property(), observer.clone());
        let mut row = run_cell(
            protocol,
            property_label,
            spec,
            property,
            observer,
            strategy,
            budget,
        );
        if let Some(label) = label {
            row.insert("strategy".to_string(), JsonValue::from(label));
        }
        failures.extend(contradicted(&row, expect_ce));
        rows.push(row);
    }
}

/// Runs every row of Table I: its rows, and one line per verdict that
/// contradicts the row's expectation.
///
/// `full` selects the paper-scale protocol settings; the default uses
/// slightly smaller instances so that the entire table completes quickly.
pub fn table_i(budget: &Budget, full: bool) -> Outcome {
    let (mut rows, mut failures) = (Vec::new(), Vec::new());

    // --- Paxos ----------------------------------------------------------
    // The faulty-learner bug needs at least three acceptors to manifest
    // (with two, the majority is every acceptor and mixed-ballot quorums
    // cannot form), so the Faulty Paxos row always uses the paper's (2,3,1)
    // setting; it is cheap because the counterexample is found early.
    for (variant, prop_label, expect_ce) in [
        (PaxosVariant::Correct, "Consensus", false),
        (PaxosVariant::FaultyLearner, "Consensus (faulty)", true),
    ] {
        let (setting, row_label) = if expect_ce {
            let setting = PaxosSetting::new(2, 3, 1);
            (setting, format!("Faulty Paxos {setting}"))
        } else {
            let setting = paxos_setting(full);
            (setting, format!("Paxos {setting}"))
        };
        push_row(
            (&mut rows, &mut failures),
            (&row_label, prop_label),
            expect_ce,
            CellStrategy::DporStateless,
            (
                &paxos_single(setting, variant),
                &paxos_quorum(setting, variant),
            ),
            || consensus_property(setting),
            NullObserver,
            budget,
        );
    }

    // --- Echo Multicast --------------------------------------------------
    for (setting, prop_label, expect_ce) in [
        (MulticastSetting::new(3, 0, 1, 1), "Agreement", false),
        (MulticastSetting::new(2, 1, 0, 1), "Agreement", false),
        (MulticastSetting::new(2, 1, 2, 1), "Wrong agreement", true),
    ] {
        push_row(
            (&mut rows, &mut failures),
            (&format!("Echo Multicast {setting}"), prop_label),
            expect_ce,
            CellStrategy::DporStateless,
            (&multicast_single(setting), &multicast_quorum(setting)),
            || agreement_property(setting),
            NullObserver,
            budget,
        );
    }

    // --- Regular storage -------------------------------------------------
    // The paper's DPOR does not preserve this property; like the paper we
    // fall back to unreduced (stateful) search for the first column.
    for (setting, prop_label, expect_ce) in [
        (StorageSetting::new(3, 1), "Regularity", false),
        (StorageSetting::new(3, 2), "Wrong regularity", true),
    ] {
        push_row(
            (&mut rows, &mut failures),
            (&format!("Regular storage {setting}"), prop_label),
            expect_ce,
            CellStrategy::UnreducedStateful,
            (&storage_single(setting), &storage_quorum(setting)),
            || {
                if expect_ce {
                    wrong_regularity_property(setting)
                } else {
                    regularity_property(setting)
                }
            },
            RegularityObserver::new(setting),
            budget,
        );
    }

    (rows, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::text;

    #[test]
    fn bounded_table_i_has_all_rows_and_expected_verdicts() {
        let (rows, failures) = table_i(&Budget::small(), false);
        // 7 protocol rows × 3 strategies.
        assert_eq!(rows.len(), 21);
        assert!(failures.is_empty(), "{failures:?}");
        // At least the cheap debugging rows (Faulty Paxos, wrong agreement)
        // must find their counterexamples even under the small budget; the
        // storage wrong-regularity cells may legitimately hit the bound.
        assert!(
            rows.iter()
                .filter(|r| text(r, "protocol").contains("Faulty Paxos")
                    || text(r, "property") == "Wrong agreement")
                .any(|r| text(r, "verdict").starts_with("CE")),
            "no counterexample found in the debugging rows"
        );
        crate::report::tests::assert_baseline_fields(
            include_str!("../../../BENCH_table_i.json"),
            &rows,
        );
    }
}
