//! A parametric quorum-collection protocol used for the Section II-C
//! state-space analysis.
//!
//! Section II-C of the paper argues analytically that expressing a quorum
//! transition through single-message transitions inflates the state space by
//! roughly `(k + l)²` where `l` is the quorum size. This module provides the
//! smallest protocol family exhibiting that effect: `c` independent
//! collectors each waiting for a quorum of `q` votes from `n` voters. The
//! harness's `quorum_scaling` subcommand sweeps `n` and `q` over this
//! family and reports the measured ratio between the two modelling styles.

use std::collections::BTreeSet;

use mp_checker::{Invariant, NullObserver};
use mp_model::{
    Envelope, GlobalState, Kind, Message, Outcome, ProcessId, ProtocolSpec, QuorumSpec,
    TransitionSpec,
};

/// Messages of the collection protocol.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vote {
    /// The collector the vote is addressed to.
    pub collector: u8,
}

mp_model::codec!(struct Vote { collector });

impl Message for Vote {
    fn kind(&self) -> Kind {
        "VOTE"
    }
}

/// Local state of collection-protocol processes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CollectState {
    /// A voter; `true` once it has voted.
    Voter(bool),
    /// A collector: the votes buffered so far (single-message model only)
    /// and whether the quorum has been collected.
    Collector {
        /// Senders of buffered votes (single-message model).
        votes: BTreeSet<ProcessId>,
        /// `true` once the quorum was reached.
        done: bool,
    },
}

mp_model::codec!(enum CollectState {
    0 = Voter(voted),
    1 = Collector { votes, done },
});

/// Parameters of the collection protocol family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CollectSetting {
    /// Number of voters.
    pub voters: usize,
    /// Quorum size each collector waits for.
    pub quorum: usize,
    /// Number of collectors (each voter votes for every collector).
    pub collectors: usize,
}

impl CollectSetting {
    /// Creates a setting.
    ///
    /// # Panics
    ///
    /// Panics if the quorum is zero or larger than the number of voters, or
    /// if there are no collectors.
    pub fn new(voters: usize, quorum: usize, collectors: usize) -> Self {
        assert!(
            quorum > 0 && quorum <= voters,
            "quorum must be in 1..=voters"
        );
        assert!(collectors > 0, "at least one collector is required");
        CollectSetting {
            voters,
            quorum,
            collectors,
        }
    }

    /// Process id of collector `i`.
    pub(crate) fn collector(&self, i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// Process id of voter `i`.
    pub(crate) fn voter(&self, i: usize) -> ProcessId {
        ProcessId(self.collectors + i)
    }
}

/// Builds the collection protocol with quorum transitions (`quorum = true`)
/// or with single-message buffering transitions (`quorum = false`).
pub fn collect_model(setting: CollectSetting, quorum: bool) -> ProtocolSpec<CollectState, Vote> {
    let mut builder = ProtocolSpec::builder(format!(
        "collect(v={},q={},c={},{})",
        setting.voters,
        setting.quorum,
        setting.collectors,
        if quorum { "quorum" } else { "single" }
    ));
    for i in 0..setting.collectors {
        builder = builder.process(
            format!("collector{i}"),
            CollectState::Collector {
                votes: BTreeSet::new(),
                done: false,
            },
        );
    }
    for i in 0..setting.voters {
        builder = builder.process(format!("voter{i}"), CollectState::Voter(false));
    }

    let collectors: Vec<ProcessId> = (0..setting.collectors)
        .map(|i| setting.collector(i))
        .collect();
    for i in 0..setting.voters {
        let me = setting.voter(i);
        let collectors_for_vote = collectors.clone();
        builder = builder.transition(
            TransitionSpec::builder(format!("VOTE_{i}"), me)
                .internal()
                .guard(|local: &CollectState, _| matches!(local, CollectState::Voter(false)))
                .sends(&["VOTE"])
                .sends_to(collectors_for_vote.clone())
                .priority(10)
                .effect(move |_, _| {
                    let mut outcome = Outcome::new(CollectState::Voter(true));
                    for (c, target) in collectors_for_vote.iter().enumerate() {
                        outcome = outcome.send(*target, Vote { collector: c as u8 });
                    }
                    outcome
                })
                .build(),
        );
    }

    for c in 0..setting.collectors {
        let me = setting.collector(c);
        let q = setting.quorum;
        if quorum {
            builder = builder.transition(
                TransitionSpec::builder(format!("COLLECT_{c}"), me)
                    .quorum_input("VOTE", QuorumSpec::Exact(q))
                    .guard(move |local: &CollectState, _| {
                        matches!(local, CollectState::Collector { done: false, .. })
                    })
                    .sends_nothing()
                    .visible()
                    .priority(-10)
                    .effect(|_, _| {
                        Outcome::new(CollectState::Collector {
                            votes: BTreeSet::new(),
                            done: true,
                        })
                    })
                    .build(),
            );
        } else {
            builder = builder.transition(
                TransitionSpec::builder(format!("COLLECT_{c}"), me)
                    .single_input("VOTE")
                    .guard(move |local: &CollectState, _| {
                        matches!(local, CollectState::Collector { done: false, .. })
                    })
                    .sends_nothing()
                    .visible()
                    .priority(-10)
                    .effect(move |local: &CollectState, msgs: &[Envelope<Vote>]| {
                        let CollectState::Collector { votes, done } = local else {
                            return Outcome::new(local.clone());
                        };
                        let mut votes = votes.clone();
                        votes.insert(msgs[0].sender);
                        let done = *done || votes.len() >= q;
                        if done {
                            votes.clear();
                        }
                        Outcome::new(CollectState::Collector { votes, done })
                    })
                    .build(),
            );
        }
    }

    builder
        .build()
        .expect("the collection protocol is structurally valid")
}

/// A trivial invariant for pure state-space measurement runs over the
/// collection protocol.
pub fn collect_true_property() -> Invariant<CollectState, Vote, NullObserver> {
    Invariant::always_true("state-space measurement")
}

/// Invariant stating that a collector is only done when a quorum of voters
/// has voted — used as a sanity property in tests.
pub fn collect_soundness_property(
    setting: CollectSetting,
) -> Invariant<CollectState, Vote, NullObserver> {
    Invariant::new(
        "collector-done-implies-quorum-voted",
        move |state: &GlobalState<CollectState, Vote>, _| {
            let voted = (0..setting.voters)
                .filter(|i| matches!(state.local(setting.voter(*i)), CollectState::Voter(true)))
                .count();
            for c in 0..setting.collectors {
                if matches!(
                    state.local(setting.collector(c)),
                    CollectState::Collector { done: true, .. }
                ) && voted < setting.quorum
                {
                    return Err(format!(
                        "collector {c} finished with only {voted} voters having voted"
                    ));
                }
            }
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_checker::Checker;
    use mp_model::StateGraph;

    #[test]
    fn quorum_and_single_models_have_same_terminal_behaviour() {
        let setting = CollectSetting::new(3, 2, 1);
        for quorum in [true, false] {
            let spec = collect_model(setting, quorum);
            let report = Checker::new(&spec, collect_soundness_property(setting)).run();
            assert!(report.verdict.is_verified(), "{}", report);
        }
    }

    #[test]
    fn single_message_model_is_larger_and_grows_with_quorum() {
        let mut ratios = Vec::new();
        for q in [1usize, 2, 3] {
            let setting = CollectSetting::new(3, q, 1);
            let quorum = StateGraph::build(&collect_model(setting, true), 1_000_000)
                .unwrap()
                .num_states();
            let single = StateGraph::build(&collect_model(setting, false), 1_000_000)
                .unwrap()
                .num_states();
            assert!(single >= quorum);
            ratios.push(single as f64 / quorum as f64);
        }
        assert!(
            ratios[2] > ratios[0],
            "the inflation must grow with the quorum size: {ratios:?}"
        );
    }

    #[test]
    #[should_panic(expected = "quorum must be")]
    fn oversized_quorum_is_rejected() {
        CollectSetting::new(2, 3, 1);
    }
}
