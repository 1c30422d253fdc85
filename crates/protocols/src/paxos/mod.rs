//! Single-decree Paxos consensus (paper, Section V-A, protocol (a)).
//!
//! Paxos solves consensus with crash faults: at most one value may be
//! chosen, provided a minority of processes crash. The model follows the
//! paper's phase naming — `READ` (1a), `READ_REPL` (1b), `WRITE` (2a),
//! `ACCEPT` (2b) — and its process types:
//!
//! * **proposers** start a ballot by sending `READ` to every acceptor and,
//!   on a majority quorum of `READ_REPL` replies, send `WRITE` with either
//!   the highest previously-accepted value in the quorum or their own value
//!   (the quorum transition of Figure 2);
//! * **acceptors** promise to the highest ballot they have seen, accept
//!   `WRITE`s not older than their promise, and forward `ACCEPT` to every
//!   learner (Figure 6 shows the `READ` reply transition);
//! * **learners** output a value once a majority of acceptors sent `ACCEPT`
//!   for the same ballot and value.
//!
//! Two model flavours are provided, matching Table I's columns:
//! [`quorum_model`] uses quorum transitions for `READ_REPL` and `ACCEPT`;
//! [`single_message_model`] simulates them with counters in the local state
//! (the style of Figure 3). The "Faulty Paxos" debugging target — learners
//! that "do not compare the values received from the acceptors" — is
//! available from both via [`PaxosVariant::FaultyLearner`].
//!
//! Crash faults are not modelled explicitly: as the paper argues, exploring
//! all interleavings subsumes crashes because a crashed process is simply
//! one that takes no further steps.

mod faults;
mod model;
mod properties;
mod single;
mod types;

pub use faults::{
    faulty_accepted_leads_to_learned, faulty_consensus_property, faulty_quorum_model,
    faulty_termination_property,
};
pub use model::{quorum_model, quorum_model_with_acceptor_values};

/// The role declaration for symmetry reduction (`mp-symmetry`): acceptors
/// are interchangeable and learners are interchangeable, while proposers
/// stay fixed points — each proposer runs a distinct ballot and proposes a
/// distinct value, so swapping them is *not* a symmetry (and the
/// declaration deliberately leaves them out rather than relying on
/// validation, which cannot see inside guard/effect closures). The same
/// declaration is valid for the fault-augmented models of
/// [`faulty_quorum_model`]: injected environment transitions are generated
/// per process from the same loop, and the consensus/termination properties
/// quantify over learner *sets*, invariant under both roles.
pub fn symmetry_roles(setting: PaxosSetting) -> mp_symmetry::RoleMap {
    mp_symmetry::RoleMap::new(setting.num_processes())
        .role(setting.acceptor_ids())
        .role(setting.learner_ids())
}
pub use properties::{accepted_leads_to_learned, consensus_property, termination_property};
pub use single::single_message_model;
pub use types::{
    AcceptorState, LearnerState, PaxosMessage, PaxosSetting, PaxosState, PaxosVariant,
    ProposerState,
};

#[cfg(test)]
mod tests {
    use super::*;
    use mp_checker::{Checker, CheckerConfig};
    use mp_model::StateGraph;

    #[test]
    fn small_paxos_verifies_consensus() {
        // One proposer cannot conflict with anyone: quick sanity check.
        let setting = PaxosSetting::new(1, 3, 1);
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let report = Checker::new(&spec, consensus_property(setting))
            .spor()
            .run();
        assert!(report.verdict.is_verified(), "{}", report);
        assert!(report.stats.states > 10);
    }

    #[test]
    fn two_proposer_paxos_verifies_consensus_with_spor() {
        let setting = PaxosSetting::new(2, 2, 1);
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let report = Checker::new(&spec, consensus_property(setting))
            .spor()
            .run();
        assert!(report.verdict.is_verified(), "{}", report);
    }

    #[test]
    fn faulty_learner_violates_consensus() {
        let setting = PaxosSetting::new(2, 3, 1);
        let spec = quorum_model(setting, PaxosVariant::FaultyLearner);
        let report = Checker::new(&spec, consensus_property(setting))
            .config(CheckerConfig::stateful_bfs())
            .run();
        assert!(
            report.verdict.is_violated(),
            "the faulty learner must mix ballots and learn two values: {}",
            report
        );
        let cx = report.verdict.counterexample().unwrap();
        assert!(cx.len() >= 5, "a real run is needed before the bug shows");
    }

    #[test]
    fn correct_paxos_2_3_1_is_safe_on_a_sample() {
        // The full (2,3,1) instance is exercised by the harness; here we
        // bound the exploration to keep unit tests fast and only check that
        // no violation is found within the bound.
        let setting = PaxosSetting::new(2, 3, 1);
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let report = Checker::new(&spec, consensus_property(setting))
            .spor()
            .config(CheckerConfig::stateful_dfs().with_max_states(30_000))
            .run();
        assert!(!report.verdict.is_violated(), "{}", report);
    }

    #[test]
    fn quorum_and_single_message_models_reach_the_same_decisions() {
        let setting = PaxosSetting::new(1, 3, 1);
        let quorum = quorum_model(setting, PaxosVariant::Correct);
        let single = single_message_model(setting, PaxosVariant::Correct);
        let report_q = Checker::new(&quorum, consensus_property(setting))
            .spor()
            .run();
        let report_s = Checker::new(&single, consensus_property(setting))
            .spor()
            .run();
        assert!(report_q.verdict.is_verified());
        assert!(report_s.verdict.is_verified());
        assert!(
            report_s.stats.states > report_q.stats.states,
            "single-message model ({}) must be larger than the quorum model ({})",
            report_s.stats.states,
            report_q.stats.states
        );
    }

    #[test]
    fn single_message_model_also_exposes_the_faulty_learner() {
        let setting = PaxosSetting::new(2, 3, 1);
        let spec = single_message_model(setting, PaxosVariant::FaultyLearner);
        let report = Checker::new(&spec, consensus_property(setting))
            .config(CheckerConfig::stateful_bfs())
            .run();
        assert!(report.verdict.is_violated(), "{}", report);
    }

    #[test]
    fn state_graph_of_tiny_instance_is_reasonable() {
        let setting = PaxosSetting::new(1, 1, 1);
        let spec = quorum_model(setting, PaxosVariant::Correct);
        let graph = StateGraph::build(&spec, 10_000).unwrap();
        // A single chain: initial, after READ, after the acceptor's reply,
        // after READ_REPL (quorum of 1), after WRITE_ACC, after the learner
        // quorum — 6 states in total.
        assert_eq!(graph.num_states(), 6);
    }
}
