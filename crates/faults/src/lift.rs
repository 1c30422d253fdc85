//! Lifting base-model properties and observers to fault-augmented models.
//!
//! A fault-augmented state is the base state plus fault bookkeeping; the
//! properties of interest ("no two learners disagree") are stated over the
//! base state. The helpers here evaluate a base [`Invariant`] or
//! [`Property`] (and, for history properties, a base [`Observer`]) on the
//! projection that forgets the bookkeeping, so every existing property —
//! safety *and* liveness — works unchanged under fault injection.
//!
//! Liveness interacts with fault injection through **fairness**: the
//! injected environment transitions are
//! [`Annotations::is_environment`](mp_model::Annotations::is_environment),
//! which the default
//! [`Fairness::WeakProtocol`](mp_checker::Fairness) policy of a lifted
//! liveness property exempts — an execution on which no fault happens is
//! fair, so a crash is never "unfairly required", while an execution that
//! spends its crash budget and then starves the protocol *is* a legitimate
//! counterexample (e.g. Paxos with a crashed majority).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mp_checker::{Invariant, NullObserver, Observer, Property, PropertyStatus};
use mp_model::{GlobalState, LocalState, Message, ProtocolSpec, TransitionInstance};

use crate::{project_state, FaultLocal};

/// Lifts an observer-free invariant to the fault-augmented state space by
/// evaluating it on the projected base state.
pub fn lift_invariant<S: LocalState, M: Message>(
    invariant: Invariant<S, M, NullObserver>,
) -> Invariant<FaultLocal<S>, M, NullObserver> {
    let name = invariant.name().to_string();
    Invariant::new(
        name,
        move |state: &GlobalState<FaultLocal<S>, M>, _| match invariant
            .evaluate(&project_state(state), &NullObserver)
        {
            PropertyStatus::Holds => Ok(()),
            PropertyStatus::Violated(reason) => Err(reason),
        },
    )
}

/// Lifts any observer-free [`Property`] — safety, termination or leads-to —
/// to the fault-augmented state space by evaluating its predicates on the
/// projected base state. The property class, name and fairness policy are
/// preserved; for liveness this is what lets the same property answer
/// "does Paxos still terminate?" under any [`FaultBudget`](crate::FaultBudget).
pub fn lift_property<S: LocalState, M: Message>(
    property: Property<S, M, NullObserver>,
) -> Property<FaultLocal<S>, M, NullObserver> {
    property.on_projected_state(project_state)
}

/// A base observer running inside a fault-augmented exploration.
///
/// Environment (fault) steps are invisible to the wrapped observer — they
/// are the environment acting, not the protocol — and protocol steps are
/// forwarded with pre-/post-states projected to the base state space. The
/// wrapped base spec is carried along because [`Observer::update`] receives
/// the spec of the *running* model, whose type is the fault-augmented one.
///
/// Equality and hashing (what makes the observer part of the stored state)
/// are delegated to the inner observer; the spec handle is configuration,
/// not history.
pub struct LiftedObserver<S: LocalState, M: Message, O> {
    base_spec: Arc<ProtocolSpec<S, M>>,
    /// The wrapped base observer.
    pub inner: O,
}

impl<S: LocalState, M: Message, O> LiftedObserver<S, M, O> {
    /// Wraps `inner` for a run of the fault-augmented version of
    /// `base_spec`.
    pub fn new(base_spec: ProtocolSpec<S, M>, inner: O) -> Self {
        LiftedObserver {
            base_spec: Arc::new(base_spec),
            inner,
        }
    }
}

impl<S: LocalState, M: Message, O: Clone> Clone for LiftedObserver<S, M, O> {
    fn clone(&self) -> Self {
        LiftedObserver {
            base_spec: self.base_spec.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl<S: LocalState, M: Message, O: PartialEq> PartialEq for LiftedObserver<S, M, O> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl<S: LocalState, M: Message, O: Eq> Eq for LiftedObserver<S, M, O> {}

impl<S: LocalState, M: Message, O: PartialEq + PartialOrd> PartialOrd for LiftedObserver<S, M, O> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.inner.partial_cmp(&other.inner)
    }
}

impl<S: LocalState, M: Message, O: Eq + Ord> Ord for LiftedObserver<S, M, O> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.inner.cmp(&other.inner)
    }
}

// Symmetry reduction canonicalizes the whole stored pair, observer
// included: the wrapped base observer is rewritten, the spec handle is
// configuration and stays.
impl<S, M, O> mp_model::Permutable for LiftedObserver<S, M, O>
where
    S: LocalState,
    M: Message,
    O: mp_model::Permutable,
{
    fn permute(&self, perm: &mp_model::Permutation) -> Self {
        LiftedObserver {
            base_spec: self.base_spec.clone(),
            inner: self.inner.permute(perm),
        }
    }
}

impl<S: LocalState, M: Message, O: Hash> Hash for LiftedObserver<S, M, O> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
    }
}

// Only the wrapped observer's history is serialized; the base-spec handle
// is configuration and is re-supplied by the decode template (see
// `Observer::decode_like` — this observer is why decoding is
// template-based).
impl<S: LocalState, M: Message, O: mp_model::Encode> mp_model::Encode for LiftedObserver<S, M, O> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inner.encode(out);
    }
}

impl<S: LocalState, M: Message, O: fmt::Debug> fmt::Debug for LiftedObserver<S, M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LiftedObserver").field(&self.inner).finish()
    }
}

impl<S, M, O> Observer<FaultLocal<S>, M> for LiftedObserver<S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    fn update(
        &self,
        spec: &ProtocolSpec<FaultLocal<S>, M>,
        pre: &GlobalState<FaultLocal<S>, M>,
        instance: &TransitionInstance<M>,
        post: &GlobalState<FaultLocal<S>, M>,
    ) -> Self {
        if spec
            .transition(instance.transition)
            .annotations()
            .is_environment
        {
            // The environment acted; the protocol history is unchanged.
            return self.clone();
        }
        // Wrapped protocol transitions keep the base ids and names, so the
        // instance is meaningful to the base observer as-is.
        let inner = self.inner.update(
            &self.base_spec,
            &project_state(pre),
            instance,
            &project_state(post),
        );
        LiftedObserver {
            base_spec: self.base_spec.clone(),
            inner,
        }
    }

    fn decode_like(&self, input: &mut &[u8]) -> Result<Self, mp_model::DecodeError> {
        Ok(LiftedObserver {
            base_spec: self.base_spec.clone(),
            inner: self.inner.decode_like(input)?,
        })
    }
}

/// Lifts an invariant that reads a history observer: the lifted invariant
/// evaluates the base invariant on the projected state and the inner
/// observer of the [`LiftedObserver`] the checker folds along.
pub fn lift_observed_invariant<S, M, O>(
    invariant: Invariant<S, M, O>,
) -> Invariant<FaultLocal<S>, M, LiftedObserver<S, M, O>>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let name = invariant.name().to_string();
    Invariant::new(
        name,
        move |state: &GlobalState<FaultLocal<S>, M>, observer: &LiftedObserver<S, M, O>| {
            match invariant.evaluate(&project_state(state), &observer.inner) {
                PropertyStatus::Holds => Ok(()),
                PropertyStatus::Violated(reason) => Err(reason),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inject, FaultBudget};
    use mp_checker::{Checker, TransitionCountObserver};
    use mp_model::{Outcome, ProcessId, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Tick;
    mp_model::codec!(struct Tick);
    impl Message for Tick {
        fn kind(&self) -> &'static str {
            "TICK"
        }
    }

    fn counter() -> ProtocolSpec<u8, Tick> {
        ProtocolSpec::builder("counter")
            .process("c", 0u8)
            .transition(
                TransitionSpec::builder("inc", ProcessId(0))
                    .internal()
                    .guard(|l, _| *l < 3)
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(l + 1))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn lifted_invariant_sees_the_projected_state() {
        let spec = counter();
        let faulty = inject(&spec, FaultBudget::none().crashes(1)).unwrap();
        let below = Invariant::new("below-3", |s: &GlobalState<u8, Tick>, _| {
            if s.locals[0] <= 3 {
                Ok(())
            } else {
                Err("overflow".into())
            }
        });
        let report = Checker::new(&faulty, lift_invariant(below)).run();
        assert!(report.verdict.is_verified(), "{report}");

        let never_2 = Invariant::new("never-2", |s: &GlobalState<u8, Tick>, _| {
            if s.locals[0] == 2 {
                Err("reached 2".into())
            } else {
                Ok(())
            }
        });
        let report = Checker::new(&faulty, lift_invariant(never_2)).run();
        assert!(report.verdict.is_violated(), "{report}");
    }

    #[test]
    fn lifted_liveness_property_sees_the_projected_state() {
        use mp_checker::Property;
        let spec = counter();
        // Termination on the base model: the counter always reaches 3.
        let terminates =
            Property::termination("reaches-3", |s: &GlobalState<u8, Tick>, _| s.locals[0] == 3);
        let base = Checker::new(&spec, terminates.clone()).run();
        assert!(base.verdict.is_verified(), "{base}");

        // Under a crash budget the environment may stop the counter early;
        // the crash is fairness-exempt, so an execution without the crash is
        // fair — but the crashed execution quiesces before the goal, a
        // legitimate fair counterexample.
        let faulty = inject(&spec, FaultBudget::none().crashes(1)).unwrap();
        let report = Checker::new(&faulty, lift_property(terminates.clone())).run();
        let cx = report
            .verdict
            .counterexample()
            .expect("crash blocks the goal");
        assert!(cx.is_lasso);
        assert!(
            cx.steps
                .iter()
                .any(|s| s.transition.contains("FAULT_CRASH")),
            "the lasso stem must show the crash: {cx}"
        );

        // Zero budget: structurally the seed, termination verified again.
        let zero = inject(&spec, FaultBudget::none()).unwrap();
        let report = Checker::new(&zero, lift_property(terminates)).run();
        assert!(report.verdict.is_verified(), "{report}");
    }

    #[test]
    fn lifted_observer_ignores_environment_steps() {
        let spec = counter();
        let faulty = inject(&spec, FaultBudget::none().crashes(1)).unwrap();
        // Count protocol steps through the lifted observer; crashing must
        // not add counts. The invariant allows at most 3 increments, which
        // holds on every path, so the run verifies and has explored crash
        // interleavings (more states than the base model's 4).
        let observer = LiftedObserver::new(spec.clone(), TransitionCountObserver::new());
        let at_most_3 = Invariant::new(
            "at-most-3-incs",
            |_: &GlobalState<u8, Tick>, o: &TransitionCountObserver| {
                if o.count(0) <= 3 {
                    Ok(())
                } else {
                    Err("too many increments observed".into())
                }
            },
        );
        let report =
            Checker::with_observer(&faulty, lift_observed_invariant(at_most_3), observer).run();
        assert!(report.verdict.is_verified(), "{report}");
        assert!(report.stats.states > 4, "crash interleavings must exist");
    }
}
