//! The reducer interface used by the search engines of `mp-checker`.
//!
//! A reducer looks at a state and the enabled transition instances and
//! selects the subset that must be explored. [`NoReduction`] explores
//! everything (the unreduced baseline of the paper's Table I for regular
//! storage); [`SporReducer`] explores a stubborn set computed by
//! [`StubbornSets`]; dynamic POR only seeds each state with
//! [`crate::DporSeed`] — the rest of it happens during the stateless search
//! of `mp-checker`, which schedules pruned instances as races show up.

use mp_model::{GlobalState, LocalState, Message, ProtocolSpec, TransitionId, TransitionInstance};
use mp_trace::{Phase, TraceHandle};

use crate::StubbornSets;

/// Decision of a reducer for one state.
#[derive(Clone, Debug)]
pub struct Reduction<M> {
    /// The instances the search must explore from this state.
    pub explore: Vec<TransitionInstance<M>>,
    /// The enabled instances the reducer pruned (empty when not reduced).
    /// The search keeps them at hand for the **cycle/ignoring proviso**: if
    /// a reduced expansion closes a cycle back into the search stack, the
    /// state is re-expanded with these instances added back, so no enabled
    /// transition is postponed around a cycle forever. This is what makes
    /// stubborn-set reduction sound for cyclic state graphs — and, together
    /// with the visibility condition, for the liveness properties of
    /// `mp-checker` (termination / leads-to).
    pub pruned: Vec<TransitionInstance<M>>,
    /// `true` if some enabled instance was pruned.
    pub reduced: bool,
}

/// A strategy that selects which enabled instances to explore in each state.
pub trait Reducer<S: LocalState, M: Message>: Send + Sync {
    /// Selects the instances to explore from `state`.
    ///
    /// `instances` holds every enabled instance of every transition in
    /// `state`; implementations must return a non-empty subset whenever
    /// `instances` is non-empty.
    fn reduce(
        &self,
        spec: &ProtocolSpec<S, M>,
        state: &GlobalState<S, M>,
        instances: Vec<TransitionInstance<M>>,
    ) -> Reduction<M>;

    /// [`Reducer::reduce`] timed under [`Phase::StubbornSet`]. Engines call
    /// this form; a disabled handle makes it identical to `reduce` (no
    /// clock read).
    fn reduce_traced(
        &self,
        spec: &ProtocolSpec<S, M>,
        state: &GlobalState<S, M>,
        instances: Vec<TransitionInstance<M>>,
        trace: &TraceHandle,
    ) -> Reduction<M> {
        let _span = trace.span(Phase::StubbornSet);
        self.reduce(spec, state, instances)
    }

    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;
}

/// Explores every enabled instance (no reduction).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoReduction;

impl<S: LocalState, M: Message> Reducer<S, M> for NoReduction {
    fn reduce(
        &self,
        _spec: &ProtocolSpec<S, M>,
        _state: &GlobalState<S, M>,
        instances: Vec<TransitionInstance<M>>,
    ) -> Reduction<M> {
        Reduction {
            explore: instances,
            pruned: Vec::new(),
            reduced: false,
        }
    }

    fn name(&self) -> &'static str {
        "unreduced"
    }
}

/// Static partial-order reduction using pre-computed stubborn sets
/// (the MP-LPOR analogue).
#[derive(Clone, Debug)]
pub struct SporReducer {
    sets: StubbornSets,
}

impl SporReducer {
    /// Builds the reducer for `spec`: the relations of its stubborn sets
    /// are computed once, here.
    pub fn new<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>) -> Self {
        SporReducer {
            sets: StubbornSets::new(spec),
        }
    }
}

impl<S: LocalState, M: Message> Reducer<S, M> for SporReducer {
    fn reduce(
        &self,
        spec: &ProtocolSpec<S, M>,
        _state: &GlobalState<S, M>,
        instances: Vec<TransitionInstance<M>>,
    ) -> Reduction<M> {
        let mut enabled: Vec<TransitionId> = instances.iter().map(|i| i.transition).collect();
        enabled.sort_unstable();
        enabled.dedup();
        match self.sets.compute(spec, &enabled) {
            Some(stubborn) if stubborn.reduced => {
                let (explore, pruned) = instances
                    .into_iter()
                    .partition(|i| stubborn.explore.contains(i.transition));
                Reduction {
                    explore,
                    pruned,
                    reduced: true,
                }
            }
            // Nothing pruned (or nothing enabled): the instances go back as
            // they came.
            _ => Reduction {
                explore: instances,
                pruned: Vec::new(),
                reduced: false,
            },
        }
    }

    fn name(&self) -> &'static str {
        "spor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{enabled_instances, Kind, Outcome, ProcessId, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Tok;
    mp_model::codec!(struct Tok);

    impl Message for Tok {
        fn kind(&self) -> Kind {
            "TOK"
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// Two independent one-step processes (the diamond of Figure 4(a)).
    fn diamond() -> ProtocolSpec<u8, Tok> {
        ProtocolSpec::builder("diamond")
            .process("a", 0u8)
            .process("b", 0u8)
            .transition(
                TransitionSpec::builder("t1", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("t2", p(1))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn no_reduction_keeps_everything() {
        let spec = diamond();
        let state = spec.initial_state();
        let instances = enabled_instances(&spec, &state);
        let red = <NoReduction as Reducer<u8, Tok>>::reduce(
            &NoReduction,
            &spec,
            &state,
            instances.clone(),
        );
        assert_eq!(red.explore.len(), instances.len());
        assert!(!red.reduced);
        assert_eq!(
            <NoReduction as Reducer<u8, Tok>>::name(&NoReduction),
            "unreduced"
        );
    }

    #[test]
    fn spor_prunes_independent_branch() {
        let spec = diamond();
        let state = spec.initial_state();
        let instances = enabled_instances(&spec, &state);
        assert_eq!(instances.len(), 2);
        let reducer = SporReducer::new(&spec);
        let red = reducer.reduce(&spec, &state, instances);
        assert_eq!(
            red.explore.len(),
            1,
            "Figure 4(a): one representative order suffices"
        );
        assert!(red.reduced);
        assert_eq!(
            red.pruned.len(),
            1,
            "the pruned branch must be kept for the cycle proviso"
        );
        assert_eq!(<SporReducer as Reducer<u8, Tok>>::name(&reducer), "spor");
    }

    #[test]
    fn spor_on_empty_instance_list_is_identity() {
        let spec = diamond();
        let state = spec.initial_state();
        let reducer = SporReducer::new(&spec);
        let red = reducer.reduce(&spec, &state, Vec::new());
        assert!(red.explore.is_empty());
        assert!(!red.reduced);
    }

    #[test]
    fn traced_reduce_times_the_stubborn_set_phase() {
        use mp_trace::{SharedBuffer, Tracer};
        let spec = diamond();
        let state = spec.initial_state();
        let instances = enabled_instances(&spec, &state);
        let reducer = SporReducer::new(&spec);
        let tracer = Tracer::to_writer(false, Box::new(SharedBuffer::new()));
        let run = tracer.begin_run("diamond", "test", "p");
        let red = reducer.reduce_traced(&spec, &state, instances.clone(), &run.handle());
        assert_eq!(
            red.explore,
            reducer.reduce(&spec, &state, instances).explore
        );
        assert_eq!(red.explore.len(), 1);
        assert!(run.phase_times().nanos(Phase::StubbornSet) > 0);
        run.finish("verified");
        // The disabled handle times nothing and stays free.
        let red = reducer.reduce_traced(
            &spec,
            &state,
            enabled_instances(&spec, &state),
            &TraceHandle::disabled(),
        );
        assert!(!red.explore.is_empty());
    }

    #[test]
    fn spor_never_returns_empty_for_nonempty_input() {
        let spec = diamond();
        let state = spec.initial_state();
        let instances = enabled_instances(&spec, &state);
        let reducer = SporReducer::new(&spec);
        let red = reducer.reduce(&spec, &state, instances);
        assert!(!red.explore.is_empty());
    }
}
