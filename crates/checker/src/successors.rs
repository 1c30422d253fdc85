//! The successor step: every search of the crate reaches a state's
//! successors through one [`Successors`], built once per run from the spec,
//! the reducer, the symmetry and the trace handle — the enabled instances,
//! the reducer's explore set, execution with the observer update, the store
//! key, and the replay of recorded steps.
//!
//! A recorded step is an **ordinal into the state's choices**: the
//! reducer's explore set followed by the instances it pruned, the order the
//! depth-first core runs them in once the cycle proviso has appended the
//! pruned ones. The BFS parent log records ordinals inside the explore set;
//! the liveness search's tree and pending graph record them past it too.
//! Every recorded path, whoever recorded it, is rebuilt by
//! [`Successors::replay`].

use std::sync::Arc;

use mp_model::{
    enabled_instances, execute, Encode, GlobalState, LocalState, Message, ProcessId, ProtocolSpec,
    TransitionInstance,
};
use mp_por::{Reducer, Reduction};
use mp_symmetry::Symmetry;
use mp_trace::{Phase, TraceHandle};

use crate::Observer;

/// The successor step of one run (see the module docs).
pub(crate) struct Successors<'a, S, M: Ord, O> {
    pub(crate) spec: &'a ProtocolSpec<S, M>,
    reducer: &'a dyn Reducer<S, M>,
    /// `None` for the trivial group: keys are then plain encodings.
    pub(crate) symmetry: Option<&'a dyn Symmetry<S, M, O>>,
    pub(crate) trace: TraceHandle,
}

impl<'a, S, M, O> Successors<'a, S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    pub(crate) fn new(
        spec: &'a ProtocolSpec<S, M>,
        reducer: &'a dyn Reducer<S, M>,
        symmetry: &'a Arc<dyn Symmetry<S, M, O>>,
        trace: TraceHandle,
    ) -> Self {
        Successors {
            spec,
            reducer,
            symmetry: (!symmetry.is_trivial()).then_some(symmetry.as_ref()),
            trace,
        }
    }

    /// This step off the run's clock: what re-executing a recorded cycle
    /// or component uses.
    pub(crate) fn untimed(&self) -> Self {
        Successors {
            trace: TraceHandle::disabled(),
            ..*self
        }
    }

    /// Everything enabled in `state`, in [`enabled_instances`] order.
    pub(crate) fn enabled(&self, state: &GlobalState<S, M>) -> Vec<TransitionInstance<M>> {
        let _span = self.trace.span(Phase::Expansion);
        enabled_instances(self.spec, state)
    }

    /// The reducer's split of `enabled`, everything enabled in `state`.
    pub(crate) fn reduce(
        &self,
        state: &GlobalState<S, M>,
        enabled: Vec<TransitionInstance<M>>,
    ) -> Reduction<M> {
        self.reducer
            .reduce_traced(self.spec, state, enabled, &self.trace)
    }

    /// The choices of `state` (see the module docs): the explore set, then
    /// the pruned instances — everything enabled, each once.
    pub(crate) fn choices(&self, state: &GlobalState<S, M>) -> Vec<TransitionInstance<M>> {
        let Reduction {
            mut explore,
            mut pruned,
            ..
        } = self.reduce(state, self.enabled(state));
        explore.append(&mut pruned);
        explore
    }

    /// The pair the enabled `instance` leads to from `(state, observer)`,
    /// and the recipients of its sends ([`mp_model::execute`]).
    pub(crate) fn execute(
        &self,
        state: &GlobalState<S, M>,
        observer: &O,
        instance: &TransitionInstance<M>,
    ) -> ((GlobalState<S, M>, O), Vec<ProcessId>) {
        let _span = self.trace.span(Phase::Expansion);
        let (next, sent_to) = execute(self.spec, state, instance).expect("an enabled instance");
        let next_observer = observer.update(self.spec, state, instance, &next);
        ((next, next_observer), sent_to)
    }

    /// Appends the store key of `(state, observer)` to `out` and returns
    /// the group element that maps the pair to the one the key encodes.
    /// Under a non-trivial group the key is the canonical representative's
    /// encoding, written without building it
    /// ([`Symmetry::canonical_encode`]); without one it is the plain
    /// encoding, element 0, timed as the store lookup it is for.
    pub(crate) fn key(&self, state: &GlobalState<S, M>, observer: &O, out: &mut Vec<u8>) -> usize {
        if let Some(symmetry) = self.symmetry {
            return symmetry.canonical_encode(state, observer, out, &self.trace);
        }
        let _span = self.trace.span(Phase::StoreLookup);
        state.encode(out);
        observer.encode(out);
        0
    }

    /// Re-executes recorded ordinals from the pair `at`, leaving it at the
    /// pair they end in: step *k* takes the `ordinals[k]`-th of the
    /// [`choices`](Self::choices) of the state reached so far. Returns the
    /// path; an ordinal past the choices is a named failure, never a wrong
    /// path.
    pub(crate) fn replay(
        &self,
        at: &mut (GlobalState<S, M>, O),
        ordinals: &[usize],
    ) -> Result<Vec<TransitionInstance<M>>, String> {
        let mut path = Vec::with_capacity(ordinals.len());
        for (step, &ordinal) in ordinals.iter().enumerate() {
            let choices = self.choices(&at.0);
            let available = choices.len();
            let instance = choices.into_iter().nth(ordinal).ok_or_else(|| {
                format!(
                    "replay: ordinal {ordinal} outside the choices \
                     ({available} instances) at step {step}"
                )
            })?;
            *at = self.execute(&at.0, &at.1, &instance).0;
            path.push(instance);
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::{independent, Tok};
    use crate::NullObserver;
    use mp_por::SporReducer;
    use mp_symmetry::NoSymmetry;

    #[test]
    fn replaying_an_ordinal_outside_the_choices_fails_by_name() {
        let spec = independent(2, 1);
        let spor = SporReducer::new(&spec);
        let no_symmetry: Arc<dyn Symmetry<u8, Tok, NullObserver>> = Arc::new(NoSymmetry);
        let step = Successors::new(&spec, &spor, &no_symmetry, TraceHandle::disabled());
        let initial = || (spec.initial_state(), NullObserver);
        let reduced = step.reduce(&spec.initial_state(), step.enabled(&spec.initial_state()));
        assert_eq!((reduced.explore.len(), reduced.pruned.len()), (1, 1));
        // Ordinal 1 is past the explore set: the first pruned instance,
        // `step1`, which the proviso would have appended.
        let mut end = initial();
        let path = step.replay(&mut end, &[1, 0]).unwrap();
        assert_eq!(path[0], reduced.pruned[0]);
        assert_eq!((path.len(), end.0.locals), (2, vec![1, 1]));
        // Two choices at the root, one after `step1`.
        let err = step.replay(&mut initial(), &[2]).unwrap_err();
        assert!(
            err.contains("ordinal 2 outside the choices (2 instances) at step 0"),
            "{err}"
        );
        let err = step.replay(&mut initial(), &[1, 1]).unwrap_err();
        assert!(
            err.contains("ordinal 1 outside the choices (1 instances) at step 1"),
            "{err}"
        );
    }
}
