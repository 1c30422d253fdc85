//! History observers (ghost state).
//!
//! The paper's specifications are Java assertions that may peek at the state
//! of remote processes (its footnote 7 calls this a "hack"). The sound
//! equivalent in this reproduction is an **observer**: a deterministic
//! history variable folded by the checker into every explored state. The
//! observer sees each executed step together with the pre- and post-state and
//! can record whatever the property needs (e.g. "which writes had completed
//! when this read was invoked" for the regular-storage regularity property).
//!
//! Because the observer value is part of the explored state, stateful search
//! remains sound; because observer-relevant transitions are annotated
//! *visible*, partial-order reduction never postpones them past the
//! reduction (see `mp-por`).

use std::fmt::Debug;
use std::hash::Hash;

use mp_model::{
    DecodeError, Encode, GlobalState, LocalState, Message, ProtocolSpec, TransitionInstance,
};

/// A deterministic history variable updated on every executed transition.
///
/// Observers are part of the stored state, so the disk-backed BFS frontier
/// (`mp-store`) must be able to spill and restore them: every observer is
/// [`Encode`], and [`Observer::decode_like`] rebuilds one from its encoded
/// bytes. Decoding takes `&self` as a *template* because some observers
/// carry non-serializable configuration next to their history (a base-spec
/// handle, say, in `mp-faults`' lifted observer): the template — in
/// practice the run's initial observer — supplies the configuration, the
/// bytes supply the history. Plain observers ignore the template and
/// delegate to their [`Decode`](mp_model::Decode) implementation.
pub trait Observer<S: LocalState, M: Message>:
    Clone + Eq + Hash + Debug + Send + Sync + Encode + 'static
{
    /// Returns the observer value after `instance` was executed, taking the
    /// system from `pre` to `post`.
    fn update(
        &self,
        spec: &ProtocolSpec<S, M>,
        pre: &GlobalState<S, M>,
        instance: &TransitionInstance<M>,
        post: &GlobalState<S, M>,
    ) -> Self;

    /// Rebuilds an observer from the bytes its [`Encode`] wrote, inheriting
    /// any non-serialized configuration from `self` (see the trait docs).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated or malformed input.
    fn decode_like(&self, input: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// The trivial observer: records nothing and costs nothing. Used by every
/// property that is expressible directly over the global state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NullObserver;

// The trivial observer embeds no process ids: symmetry reduction
// (`mp-symmetry`) canonicalizes it as plain data.
impl mp_model::Permutable for NullObserver {
    fn permute(&self, _perm: &mp_model::Permutation) -> Self {
        NullObserver
    }
}

mp_model::codec!(struct NullObserver);

impl<S: LocalState, M: Message> Observer<S, M> for NullObserver {
    fn update(
        &self,
        _spec: &ProtocolSpec<S, M>,
        _pre: &GlobalState<S, M>,
        _instance: &TransitionInstance<M>,
        _post: &GlobalState<S, M>,
    ) -> Self {
        NullObserver
    }

    fn decode_like(&self, input: &mut &[u8]) -> Result<Self, DecodeError> {
        mp_model::Decode::decode(input)
    }
}

/// An observer that counts how many times each transition (by id) has been
/// executed along the current path. Mostly useful in tests and debugging;
/// note that including it in the state distinguishes paths that would
/// otherwise merge, so it inflates the state space.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct TransitionCountObserver {
    counts: Vec<(usize, u32)>,
}

impl TransitionCountObserver {
    /// Creates an observer with all counts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns how many times transition `index` has fired on this path.
    pub fn count(&self, index: usize) -> u32 {
        self.counts
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Returns the total number of steps observed.
    pub fn total(&self) -> u32 {
        self.counts.iter().map(|(_, c)| c).sum()
    }
}

mp_model::codec!(struct TransitionCountObserver { counts });

impl<S: LocalState, M: Message> Observer<S, M> for TransitionCountObserver {
    fn decode_like(&self, input: &mut &[u8]) -> Result<Self, DecodeError> {
        mp_model::Decode::decode(input)
    }

    fn update(
        &self,
        _spec: &ProtocolSpec<S, M>,
        _pre: &GlobalState<S, M>,
        instance: &TransitionInstance<M>,
        _post: &GlobalState<S, M>,
    ) -> Self {
        let mut next = self.clone();
        let idx = instance.transition.index();
        match next.counts.iter_mut().find(|(i, _)| *i == idx) {
            Some((_, c)) => *c += 1,
            None => {
                next.counts.push((idx, 1));
                next.counts.sort_unstable();
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::Tok;
    use mp_model::{Outcome, ProcessId, ProtocolSpec, TransitionId, TransitionSpec};

    fn tiny_spec() -> ProtocolSpec<u8, Tok> {
        ProtocolSpec::builder("tiny")
            .process("a", 0u8)
            .transition(
                TransitionSpec::builder("step", ProcessId(0))
                    .internal()
                    .effect(|l: &u8, _| Outcome::new(l.wrapping_add(1)))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn null_observer_is_constant() {
        let spec = tiny_spec();
        let s = spec.initial_state();
        let inst = TransitionInstance::new(TransitionId(0), ProcessId(0), Vec::new());
        let o = NullObserver;
        assert_eq!(o.update(&spec, &s, &inst, &s), NullObserver);
    }

    #[test]
    fn transition_count_observer_counts_steps() {
        let spec = tiny_spec();
        let s = spec.initial_state();
        let inst = TransitionInstance::new(TransitionId(0), ProcessId(0), Vec::new());
        let o = TransitionCountObserver::new();
        assert_eq!(o.count(0), 0);
        let o = Observer::<u8, Tok>::update(&o, &spec, &s, &inst, &s);
        let o = Observer::<u8, Tok>::update(&o, &spec, &s, &inst, &s);
        assert_eq!(o.count(0), 2);
        assert_eq!(o.count(1), 0);
        assert_eq!(o.total(), 2);
    }

    #[test]
    fn distinct_histories_are_distinct_observers() {
        let spec = tiny_spec();
        let s = spec.initial_state();
        let inst = TransitionInstance::new(TransitionId(0), ProcessId(0), Vec::new());
        let zero = TransitionCountObserver::new();
        let one = Observer::<u8, Tok>::update(&zero, &spec, &s, &inst, &s);
        assert_ne!(zero, one);
    }
}
