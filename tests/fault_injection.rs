//! Integration tests for the `mp-faults` subsystem: store-backend
//! agreement on fault-augmented models, exact zero-budget equivalence with
//! the seed models, and deterministic-PRNG property tests showing the
//! fault wrapper never *removes* behaviours — every unfaulted trace is
//! still executable under an all-zero budget (and under any budget, since
//! budgets only gate the environment's extra transitions).
//!
//! The random traces are drawn by a small deterministic PRNG instead of
//! `proptest` (this build environment is offline), so every run checks the
//! same fixed set of cases and failures reproduce exactly.

use mp_basset::checker::{Checker, CheckerConfig, StoreConfig};
use mp_basset::faults::{inject, project_state, FaultBudget};
use mp_basset::harness::fault_sweep::zero_budget_seed_checks;
use mp_basset::harness::Budget;
use mp_basset::model::{enabled_instances, execute_enabled};
use mp_basset::protocols::echo_multicast::{
    faulty_agreement_property, faulty_quorum_model as faulty_multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    faulty_consensus_property, faulty_quorum_model as faulty_paxos, quorum_model as paxos,
    PaxosSetting, PaxosVariant,
};

const BACKENDS: [StoreConfig; 3] = [
    StoreConfig::Exact,
    StoreConfig::sharded(),
    StoreConfig::fingerprint(48),
];

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

#[test]
fn all_backends_agree_on_fault_augmented_paxos() {
    // A verifying budget (benign faults) and a violating one (corruption):
    // every stateful engine × backend combination must agree.
    let setting = PaxosSetting::new(1, 2, 1);
    for (budget, expect_violation) in [
        (FaultBudget::none().crashes(1).drops(1), false),
        (FaultBudget::none().corruptions(2), true),
    ] {
        let spec = faulty_paxos(setting, PaxosVariant::Correct, budget);
        for engine in [
            CheckerConfig::stateful_dfs(),
            CheckerConfig::stateful_bfs(),
            CheckerConfig::parallel_bfs(2),
        ] {
            let mut states = None;
            for store in BACKENDS {
                let report = Checker::new(&spec, faulty_consensus_property(setting))
                    .spor()
                    .config(engine.clone().with_store(store))
                    .run();
                assert_eq!(
                    report.verdict.is_violated(),
                    expect_violation,
                    "budget {budget} under {} with {store}: {report}",
                    report.strategy
                );
                if expect_violation {
                    continue; // early-stop state counts may differ per order
                }
                let expected = *states.get_or_insert(report.stats.states);
                assert_eq!(
                    report.stats.states, expected,
                    "state count differs under {} with {store}",
                    report.strategy
                );
            }
        }
    }
}

#[test]
fn zero_budget_reproduces_every_seed_model_exactly() {
    for check in zero_budget_seed_checks(&Budget::small()) {
        assert!(
            check.matches(),
            "{} [{}]: base explored {} states, zero-budget injection {}",
            check.protocol,
            check.strategy,
            check.base_states,
            check.faulted_states
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
    let budgets = [
        FaultBudget::none(),
        FaultBudget::none().crashes(2).drops(2).dups(1),
    ];
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
                let mirrored = enabled_instances(f, fs)
                    .into_iter()
                    .find(|i| {
                        i.transition == instance.transition && i.envelopes == instance.envelopes
                    })
                    .unwrap_or_else(|| {
                        panic!("base instance {instance:?} not executable on {}", f.name())
                    });
                *fs = execute_enabled(f, fs, &mirrored);
                assert_eq!(
                    project_state(fs),
                    base_state,
                    "projection diverged on {}",
                    f.name()
                );
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
            let protocol_options: Vec<_> = enabled_instances(&faulted, &state)
                .into_iter()
                .filter(|i| {
                    !faulted
                        .transition(i.transition)
                        .annotations()
                        .is_environment
                })
                .collect();
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

#[test]
fn faulted_multicast_attack_survives_all_backends() {
    // The over-threshold Byzantine configuration keeps its counterexample
    // when the environment may also duplicate one message.
    let setting = MulticastSetting::new(2, 1, 2, 1);
    let spec = faulty_multicast(setting, FaultBudget::none().dups(1));
    for store in BACKENDS {
        let report = Checker::new(&spec, faulty_agreement_property(setting))
            .spor()
            .config(CheckerConfig::stateful_dfs().with_store(store))
            .run();
        assert!(
            report.verdict.is_violated(),
            "the attack must survive under {store}: {report}"
        );
    }
}
