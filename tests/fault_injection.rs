//! Integration tests for the `mp-faults` subsystem: exact zero-budget
//! equivalence with the seed models, and deterministic-PRNG property tests
//! showing the fault wrapper never *removes* behaviours — every unfaulted
//! trace is still executable under an all-zero budget (and under any
//! budget, since budgets only gate the environment's extra transitions).
//! Every engine and store keeps the verdicts of fault-augmented Paxos and
//! of the multicast attack, judged by [`common::differential`].
//!
//! The random traces are drawn by the shared seeded [`Rng`], so every run
//! checks the same fixed set of cases and failures reproduce exactly.

mod common;

use common::differential::{faulted_multicast_cell, faulted_paxos_cell, Tally};
use common::Rng;
use mp_basset::faults::{inject, project_state, FaultBudget};
use mp_basset::harness::fault_sweep::zero_budget_seed_checks;
use mp_basset::harness::{num, text, Budget};
use mp_basset::model::{enabled_instances, execute_enabled, TransitionInstance};
use mp_basset::protocols::echo_multicast::MulticastSetting;
use mp_basset::protocols::paxos::{quorum_model as paxos, PaxosSetting, PaxosVariant};

#[test]
fn all_backends_agree_on_fault_augmented_paxos() {
    let mut tally = Tally::default();
    faulted_paxos_cell(FaultBudget::none(), &mut tally);
    assert_eq!((tally.verified, tally.liveness), (1, 2), "{tally:?}");
}

#[test]
fn faulted_multicast_attack_survives_all_backends() {
    // The over-threshold attack keeps its counterexample when the
    // environment may also duplicate one message.
    let mut tally = Tally::default();
    let attack = MulticastSetting::new(2, 0, 2, 1);
    faulted_multicast_cell(attack, FaultBudget::none().dups(1), &mut tally);
    assert_eq!(tally.violated, 1, "{tally:?}");
}

#[test]
fn zero_budget_reproduces_every_seed_model_exactly() {
    let (checks, failures) = zero_budget_seed_checks(&Budget::small());
    assert!(failures.is_empty(), "{failures:?}");
    for check in &checks {
        assert_eq!(
            num(check, "base_states"),
            num(check, "faulted_states"),
            "{} [{}]: base explored vs zero-budget injection",
            text(check, "protocol"),
            text(check, "strategy"),
        );
    }
}

/// Every trace of the base model must be executable step-by-step on the
/// fault-augmented model, for the all-zero budget *and* for a generous
/// budget (faults only add behaviours, they never remove protocol steps),
/// with projected states equal along the whole trace.
#[test]
fn random_base_traces_replay_under_injection() {
    let setting = PaxosSetting::new(1, 2, 1);
    let base = paxos(setting, PaxosVariant::Correct);
    let none = FaultBudget::none();
    let budgets = [none, none.crashes(2).drops(2).dups(1)];
    let faulted: Vec<_> = budgets.iter().map(|b| inject(&base, *b).unwrap()).collect();

    let mut rng = Rng(7);
    for _case in 0..24 {
        let mut base_state = base.initial_state();
        let mut fault_states: Vec<_> = faulted.iter().map(|f| f.initial_state()).collect();
        for _step in 0..40 {
            let options = enabled_instances(&base, &base_state);
            if options.is_empty() {
                break;
            }
            let instance = &options[rng.below(options.len())];
            base_state = execute_enabled(&base, &base_state, instance);
            for (f, fs) in faulted.iter().zip(fault_states.iter_mut()) {
                // Wrapped protocol transitions keep ids and inputs, so the
                // *same* instance must be enabled on the faulted model.
                let same = |i: &TransitionInstance<_>| {
                    i.transition == instance.transition && i.envelopes == instance.envelopes
                };
                let mirrored = enabled_instances(f, fs).into_iter().find(same);
                let mirrored = mirrored.expect("the base instance is executable");
                *fs = execute_enabled(f, fs, &mirrored);
                assert_eq!(project_state(fs), base_state, "{}", f.name());
            }
        }
    }
}

/// The converse direction for protocol steps: a fault-free path through the
/// fault-augmented model (never choosing environment transitions) visits
/// exactly the base model's behaviours.
#[test]
fn random_faultfree_faulted_traces_project_onto_base() {
    let setting = MulticastSetting::new(2, 1, 0, 1);
    let base = mp_basset::protocols::echo_multicast::quorum_model(setting);
    let faulted = inject(&base, FaultBudget::none().crashes(1).drops(1)).unwrap();
    let mut rng = Rng(23);
    for _case in 0..16 {
        let mut state = faulted.initial_state();
        let mut base_state = base.initial_state();
        for _step in 0..40 {
            let protocol = |i: &TransitionInstance<_>| {
                !faulted
                    .transition(i.transition)
                    .annotations()
                    .is_environment
            };
            let enabled = enabled_instances(&faulted, &state).into_iter();
            let protocol_options: Vec<_> = enabled.filter(protocol).collect();
            if protocol_options.is_empty() {
                break;
            }
            let instance = &protocol_options[rng.below(protocol_options.len())];
            state = execute_enabled(&faulted, &state, instance);
            base_state = execute_enabled(&base, &base_state, instance);
            assert_eq!(project_state(&state), base_state);
        }
    }
}
