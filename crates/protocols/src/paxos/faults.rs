//! Budgeted fault injection for the Paxos models.
//!
//! The paper injects its Paxos bug by hand (the `FaultyLearner` variant);
//! with `mp-faults` the same protocol family extends to *generic* fault
//! workloads: "does Paxos still satisfy consensus with one crash and two
//! dropped messages?" becomes one [`FaultBudget`] away.

use mp_checker::{Invariant, NullObserver, Property};
use mp_faults::{lift_invariant, lift_property, FaultBudget, FaultInjector, FaultLocal, Mutator};
use mp_model::{Envelope, ProtocolSpec};

use super::model::quorum_model;
use super::properties::{accepted_leads_to_learned, consensus_property, termination_property};
use super::types::{PaxosMessage, PaxosSetting, PaxosState, PaxosVariant};

/// The offset added to corrupted Paxos values. Proposed values are small
/// (`i + 1` per proposer), so any corrupted value is recognisably
/// unproposed and trips the validity half of the consensus property.
pub(crate) const CORRUPT_VALUE_OFFSET: u8 = 100;

/// The default Byzantine mutation for Paxos: shift the value carried by a
/// `WRITE` or `ACCEPT` message out of the proposed range, leaving the
/// ballot untouched. `READ`/`READ_REPL` messages are not corrupted — the
/// interesting lies are about values.
pub(crate) fn value_mutator() -> Mutator<PaxosMessage> {
    std::sync::Arc::new(|env: &Envelope<PaxosMessage>| match &env.payload {
        PaxosMessage::Write { ballot, value } => vec![PaxosMessage::Write {
            ballot: *ballot,
            value: value.wrapping_add(CORRUPT_VALUE_OFFSET),
        }],
        PaxosMessage::Accept { ballot, value } => vec![PaxosMessage::Accept {
            ballot: *ballot,
            value: value.wrapping_add(CORRUPT_VALUE_OFFSET),
        }],
        _ => Vec::new(),
    })
}

/// The quorum-transition Paxos model wrapped with a fault budget. The
/// corruption class uses `value_mutator`.
pub fn faulty_quorum_model(
    setting: PaxosSetting,
    variant: PaxosVariant,
    budget: FaultBudget,
) -> ProtocolSpec<FaultLocal<PaxosState>, PaxosMessage> {
    FaultInjector::new(budget)
        .mutator({
            let m = value_mutator();
            move |env: &Envelope<PaxosMessage>| m(env)
        })
        .inject(&quorum_model(setting, variant))
        .expect("a valid Paxos model stays valid under fault injection")
}

/// The consensus property lifted to the fault-augmented state space.
pub fn faulty_consensus_property(
    setting: PaxosSetting,
) -> Invariant<FaultLocal<PaxosState>, PaxosMessage, NullObserver> {
    lift_invariant(consensus_property(setting))
}

/// The termination property ("some value is eventually learned") lifted to
/// the fault-augmented state space. Environment transitions are
/// fairness-exempt, so zero-budget injection verifies exactly like the seed
/// model, while a crashed majority yields a fair non-terminating lasso.
pub fn faulty_termination_property(
    setting: PaxosSetting,
) -> Property<FaultLocal<PaxosState>, PaxosMessage, NullObserver> {
    lift_property(termination_property(setting))
}

/// The `accepted ⇝ learned` leads-to property lifted to the fault-augmented
/// state space.
pub fn faulty_accepted_leads_to_learned(
    setting: PaxosSetting,
) -> Property<FaultLocal<PaxosState>, PaxosMessage, NullObserver> {
    lift_property(accepted_leads_to_learned(setting))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_checker::{Checker, CheckerConfig};

    #[test]
    fn consensus_survives_crashes_and_drops() {
        // Safety (agreement + validity) is crash- and loss-tolerant: the
        // system may get stuck, but never learns inconsistently.
        let setting = PaxosSetting::new(1, 2, 1);
        let budget = FaultBudget::none().crashes(1).drops(1);
        let spec = faulty_quorum_model(setting, PaxosVariant::Correct, budget);
        let report = Checker::new(&spec, faulty_consensus_property(setting))
            .spor()
            .run();
        assert!(report.verdict.is_verified(), "{report}");
    }

    #[test]
    fn corrupted_accepts_break_validity() {
        // With both ACCEPT messages of the learner's quorum corrupted to
        // the same out-of-range value, the (correct!) learner learns a
        // value nobody proposed — the generic replacement for the
        // hand-coded FaultyLearner debugging target.
        let setting = PaxosSetting::new(1, 2, 1);
        let budget = FaultBudget::none().corruptions(2);
        let spec = faulty_quorum_model(setting, PaxosVariant::Correct, budget);
        let report = Checker::new(&spec, faulty_consensus_property(setting))
            .config(CheckerConfig::stateful_bfs())
            .run();
        assert!(report.verdict.is_violated(), "{report}");
        let cx = report.verdict.counterexample().unwrap();
        assert!(
            cx.steps
                .iter()
                .any(|s| s.to_string().contains("FAULT_CORRUPT")),
            "the counterexample must show the environment lying: {cx}"
        );
    }

    #[test]
    fn crashed_majority_yields_a_fair_non_terminating_lasso() {
        // (1,2,1): the acceptor quorum is 2, so one crashed acceptor already
        // removes the majority. Safety survives (consensus holds), but
        // termination does not: the environment can crash an acceptor and
        // the fair remainder of the run never learns.
        let setting = PaxosSetting::new(1, 2, 1);
        let budget = FaultBudget::none().crashes(1);
        let spec = faulty_quorum_model(setting, PaxosVariant::Correct, budget);
        let report = Checker::new(&spec, faulty_termination_property(setting))
            .spor()
            .run();
        let cx = report.verdict.counterexample().expect("must violate");
        assert!(cx.is_lasso, "liveness counterexamples are lassos");
        assert!(
            cx.steps
                .iter()
                .any(|s| s.transition.starts_with("FAULT_CRASH")),
            "the stem must contain the crash: {cx}"
        );
    }

    #[test]
    fn termination_holds_with_zero_crash_budget() {
        let setting = PaxosSetting::new(1, 2, 1);
        let spec = faulty_quorum_model(setting, PaxosVariant::Correct, FaultBudget::none());
        let report = Checker::new(&spec, faulty_termination_property(setting)).run();
        assert!(report.verdict.is_verified(), "{report}");
        let report = Checker::new(&spec, faulty_accepted_leads_to_learned(setting)).run();
        assert!(report.verdict.is_verified(), "{report}");
    }

    #[test]
    fn zero_budget_matches_the_base_model() {
        let setting = PaxosSetting::new(1, 2, 1);
        let base = quorum_model(setting, PaxosVariant::Correct);
        let faulty = faulty_quorum_model(setting, PaxosVariant::Correct, FaultBudget::none());
        let base_report = Checker::new(&base, consensus_property(setting)).run();
        let faulty_report = Checker::new(&faulty, faulty_consensus_property(setting)).run();
        assert!(base_report.verdict.is_verified());
        assert!(faulty_report.verdict.is_verified());
        assert_eq!(base_report.stats.states, faulty_report.stats.states);
    }
}
