//! Echo Multicast — Byzantine-tolerant consistent multicast (paper,
//! Section V-A, protocol (b); Reiter's Rampart echo multicast).
//!
//! An initiator sends its payload (`INIT`) to every receiver; receivers sign
//! and return an `ECHO`; once the initiator has gathered echoes for the same
//! payload from more than `(n + f) / 2` receivers it sends a `COMMIT`
//! carrying that echo certificate, and receivers deliver the payload. The
//! *agreement* property says no two honest receivers deliver different
//! payloads for the same initiator; it holds as long as at most `f` of the
//! `n` receivers are Byzantine.
//!
//! Byzantine behaviour follows the paper's attack strategies:
//!
//! * a **Byzantine initiator** equivocates — it sends one value to one half
//!   of the honest receivers and another value to the other half (and both
//!   values to the Byzantine receivers), then commits every value for which
//!   it can assemble a certificate;
//! * a **Byzantine receiver** confirms (signs) everything it receives,
//!   cooperating with the equivocation.
//!
//! The "wrong agreement" debugging configuration of Table I is simply a
//! setting whose actual number of Byzantine receivers exceeds the tolerated
//! threshold ([`MulticastSetting::tolerated_faults`]); agreement is then
//! violated and the checker returns a counterexample.

mod faults;
mod model;
mod properties;
mod single;
mod types;

pub use faults::{
    faulty_agreement_property, faulty_committed_leads_to_delivered,
    faulty_delivery_termination_property, faulty_quorum_model,
};
pub use model::quorum_model;
pub use properties::{agreement_property, delivery_termination_property};
pub use single::single_message_model;
pub use types::{
    ByzantineInitiatorState, HonestInitiatorState, HonestReceiverState, InitiatorPhase,
    MulticastMessage, MulticastSetting, MulticastState,
};

/// The role declaration for symmetry reduction (`mp-symmetry`): honest
/// receivers form one candidate role, Byzantine receivers another;
/// initiators are fixed points (they multicast distinct values). Note that
/// the equivocation attack deliberately *breaks* honest-receiver symmetry —
/// a Byzantine initiator sends one value to the first attack group and
/// another to the second, so permutations that mix the groups fail
/// structural validation (the initiator's recipient sets do not map onto
/// themselves) and the validated group shrinks accordingly, down to
/// identity for the (2,1,0,1) evaluation setting. That degeneration is the
/// correct answer, not a missed optimisation: the attack really does
/// distinguish those receivers.
pub fn symmetry_roles(setting: MulticastSetting) -> mp_symmetry::RoleMap {
    mp_symmetry::RoleMap::new(setting.num_processes())
        .role(setting.honest_receiver_ids())
        .role(setting.byzantine_receiver_ids())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_checker::{Checker, CheckerConfig};

    #[test]
    fn multicast_3011_satisfies_agreement() {
        // Table I row: Echo Multicast (3,0,1,1) — verified.
        let setting = MulticastSetting::new(3, 0, 1, 1);
        let spec = quorum_model(setting);
        let report = Checker::new(&spec, agreement_property(setting))
            .spor()
            .run();
        assert!(report.verdict.is_verified(), "{}", report);
    }

    #[test]
    fn multicast_2101_satisfies_agreement() {
        // Table I row: Echo Multicast (2,1,0,1) — verified (the equivocating
        // initiator cannot gather a full quorum for either value).
        let setting = MulticastSetting::new(2, 1, 0, 1);
        let spec = quorum_model(setting);
        let report = Checker::new(&spec, agreement_property(setting))
            .spor()
            .run();
        assert!(report.verdict.is_verified(), "{}", report);
    }

    #[test]
    fn multicast_2121_violates_agreement() {
        // Table I row: Echo Multicast (2,1,2,1) "wrong agreement" — the two
        // Byzantine receivers exceed the tolerated threshold and the
        // equivocating initiator gets certificates for both values.
        let setting = MulticastSetting::new(2, 1, 2, 1);
        assert!(setting.byzantine_receivers > setting.tolerated_faults());
        let spec = quorum_model(setting);
        let report = Checker::new(&spec, agreement_property(setting))
            .config(CheckerConfig::stateful_bfs())
            .run();
        assert!(report.verdict.is_violated(), "{}", report);
        let cx = report.verdict.counterexample().unwrap();
        assert!(
            cx.len() >= 6,
            "the attack needs init, echoes, two commits and two deliveries"
        );
    }

    #[test]
    fn single_message_model_agrees_on_the_verdicts() {
        let safe = MulticastSetting::new(2, 1, 0, 1);
        let spec = single_message_model(safe);
        let report = Checker::new(&spec, agreement_property(safe)).spor().run();
        assert!(report.verdict.is_verified(), "{}", report);

        let unsafe_setting = MulticastSetting::new(2, 1, 2, 1);
        let spec = single_message_model(unsafe_setting);
        let report = Checker::new(&spec, agreement_property(unsafe_setting))
            .config(CheckerConfig::stateful_bfs())
            .run();
        assert!(report.verdict.is_violated(), "{}", report);
    }

    #[test]
    fn quorum_model_is_smaller_than_single_message_model() {
        let setting = MulticastSetting::new(2, 1, 0, 1);
        let q = Checker::new(&quorum_model(setting), agreement_property(setting))
            .spor()
            .run();
        let s = Checker::new(&single_message_model(setting), agreement_property(setting))
            .spor()
            .run();
        assert!(
            q.stats.states < s.stats.states,
            "quorum {} vs single-message {}",
            q.stats.states,
            s.stats.states
        );
    }
}
