//! Properties: safety invariants *and* liveness (termination / leads-to)
//! over global states and observers.
//!
//! MP-Basset specifications are "a set of Java assertions ... the
//! specification restricts to invariants (or global predicates)" (paper,
//! appendix). This module started with the same class — an [`Invariant`] is
//! a named predicate evaluated in every visited state — and generalises it
//! to a [`Property`] with three classes:
//!
//! * [`PropertyClass::Safety`] — today's invariants, unchanged semantics
//!   (and unchanged cost: the engines run the exact same search);
//! * [`PropertyClass::Termination`] — every *fair* maximal execution reaches
//!   a quiescent/goal state;
//! * [`PropertyClass::LeadsTo`] — every state satisfying a trigger predicate
//!   `p` is eventually followed by a state satisfying a goal predicate `q`
//!   on every fair maximal execution (`p ⇝ q`).
//!
//! Liveness counterexamples are **lassos** (a stem plus a cycle the system
//! can repeat forever, or a stem ending in a premature quiescent state); the
//! [`Fairness`] policy decides which infinite executions count. The default,
//! [`Fairness::WeakProtocol`], exempts environment transitions (fault
//! injection, `mp-faults`): a crash is never "unfairly required" to happen,
//! but the protocol itself may not be starved.

use std::fmt;
use std::sync::Arc;

use mp_model::{GlobalState, LocalState, Message};

/// The outcome of evaluating a property in one state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PropertyStatus {
    /// The property holds in this state.
    Holds,
    /// The property is violated; the string explains how.
    Violated(String),
}

impl PropertyStatus {
    /// Returns `true` if the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, PropertyStatus::Holds)
    }
}

/// A named invariant over global states and an observer value.
///
/// # Examples
///
/// ```
/// use mp_checker::{Invariant, NullObserver};
/// use mp_model::GlobalState;
///
/// // "no process ever reaches local state 99"
/// let inv: Invariant<u32, String, NullObserver> = Invariant::new(
///     "no-99",
///     |state: &GlobalState<u32, String>, _obs: &NullObserver| {
///         if state.locals.iter().any(|l| *l == 99) {
///             Err("a process reached 99".to_string())
///         } else {
///             Ok(())
///         }
///     },
/// );
/// let ok: GlobalState<u32, String> = GlobalState::new(vec![0, 1]);
/// assert!(inv.evaluate(&ok, &NullObserver).holds());
/// ```
pub struct Invariant<S, M: Ord, O = crate::NullObserver> {
    name: String,
    #[allow(clippy::type_complexity)]
    check: Arc<dyn Fn(&GlobalState<S, M>, &O) -> Result<(), String> + Send + Sync>,
}

// Manual impl: an `Invariant` is a name plus an `Arc`'d predicate, clonable
// whatever the state/message/observer types are (a derive would demand
// `S: Clone` etc. needlessly).
impl<S, M: Ord, O> Clone for Invariant<S, M, O> {
    fn clone(&self) -> Self {
        Invariant {
            name: self.name.clone(),
            check: self.check.clone(),
        }
    }
}

impl<S: LocalState, M: Message, O> Invariant<S, M, O> {
    /// Creates an invariant from a closure returning `Err(reason)` on
    /// violation.
    pub fn new<F>(name: impl Into<String>, check: F) -> Self
    where
        F: Fn(&GlobalState<S, M>, &O) -> Result<(), String> + Send + Sync + 'static,
    {
        Invariant {
            name: name.into(),
            check: Arc::new(check),
        }
    }

    /// Creates the trivial invariant that holds in every state — useful for
    /// pure state-space measurement runs (the "how many states are there"
    /// experiments of Section II-C).
    pub fn always_true(name: impl Into<String>) -> Self {
        Invariant::new(name, |_, _| Ok(()))
    }

    /// Returns the name of the invariant.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the invariant in a state.
    pub fn evaluate(&self, state: &GlobalState<S, M>, observer: &O) -> PropertyStatus {
        match (self.check)(state, observer) {
            Ok(()) => PropertyStatus::Holds,
            Err(reason) => PropertyStatus::Violated(reason),
        }
    }
}

impl<S, M: Ord, O> fmt::Debug for Invariant<S, M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invariant")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// A named boolean predicate over a global state and an observer value, used
/// as the trigger (`p`) and goal (`q`) predicates of liveness properties.
pub(crate) type StatePredicate<S, M, O> = Arc<dyn Fn(&GlobalState<S, M>, &O) -> bool + Send + Sync>;

/// Which class a [`Property`] belongs to; the engines dispatch on this.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PropertyClass {
    /// A state invariant: checked in every visited state (the class
    /// MP-Basset supports).
    Safety,
    /// Every fair maximal execution reaches a quiescent/goal state.
    Termination,
    /// Every state satisfying the trigger predicate is followed by a state
    /// satisfying the goal predicate on every fair maximal execution.
    LeadsTo,
}

impl fmt::Display for PropertyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyClass::Safety => write!(f, "safety"),
            PropertyClass::Termination => write!(f, "termination"),
            PropertyClass::LeadsTo => write!(f, "leads-to"),
        }
    }
}

/// Which infinite executions count when checking a liveness property.
///
/// A lasso (cycle) counterexample is only reported when the cycle is *fair*
/// under the chosen policy: weak fairness rejects cycles that starve a
/// transition instance enabled in every state of the cycle but never
/// executed in it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Fairness {
    /// No fairness assumption: every maximal execution counts, including
    /// schedules that starve a continuously enabled process forever.
    Unfair,
    /// Weak fairness over *protocol* transitions; environment transitions
    /// (fault injection, [`Annotations::is_environment`](mp_model::Annotations))
    /// are exempt — the environment may always decline to act, so a crash is
    /// never "unfairly required" to happen. This is the default.
    #[default]
    WeakProtocol,
}

impl Fairness {
    /// Returns `true` if a transition with the given environment flag is
    /// subject to the weak-fairness requirement under this policy.
    pub fn requires(&self, is_environment: bool) -> bool {
        match self {
            Fairness::Unfair => false,
            Fairness::WeakProtocol => !is_environment,
        }
    }
}

impl fmt::Display for Fairness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fairness::Unfair => write!(f, "unfair"),
            Fairness::WeakProtocol => write!(f, "weak-fair (environment exempt)"),
        }
    }
}

enum PropertyKind<S, M: Ord, O> {
    Safety(Invariant<S, M, O>),
    Termination {
        goal: StatePredicate<S, M, O>,
    },
    LeadsTo {
        trigger: StatePredicate<S, M, O>,
        goal: StatePredicate<S, M, O>,
    },
}

impl<S, M: Ord, O> Clone for PropertyKind<S, M, O> {
    fn clone(&self) -> Self {
        match self {
            PropertyKind::Safety(inv) => PropertyKind::Safety(inv.clone()),
            PropertyKind::Termination { goal } => PropertyKind::Termination { goal: goal.clone() },
            PropertyKind::LeadsTo { trigger, goal } => PropertyKind::LeadsTo {
                trigger: trigger.clone(),
                goal: goal.clone(),
            },
        }
    }
}

/// A verification property: a safety invariant or a liveness
/// (termination / leads-to) obligation, with a [`Fairness`] policy for the
/// liveness classes.
///
/// Every [`Invariant`] converts into a safety `Property` via `From`, so
/// existing invariant-based call sites keep working unchanged:
///
/// ```
/// use mp_checker::{Fairness, Invariant, NullObserver, Property, PropertyClass};
/// use mp_model::GlobalState;
///
/// // Safety, from an invariant (the pre-refactor API):
/// let safety: Property<u32, String, NullObserver> =
///     Invariant::always_true("true").into();
/// assert_eq!(safety.class(), PropertyClass::Safety);
///
/// // Termination: every fair maximal execution reaches a state where some
/// // process counted to 2.
/// let term: Property<u32, String, NullObserver> =
///     Property::termination("counts-to-2", |s: &GlobalState<u32, String>, _: &NullObserver| {
///         s.locals.iter().any(|l| *l == 2)
///     });
/// assert_eq!(term.class(), PropertyClass::Termination);
/// assert_eq!(term.fairness(), Fairness::WeakProtocol);
/// ```
pub struct Property<S, M: Ord, O = crate::NullObserver> {
    name: String,
    fairness: Fairness,
    kind: PropertyKind<S, M, O>,
}

impl<S, M: Ord, O> Clone for Property<S, M, O> {
    fn clone(&self) -> Self {
        Property {
            name: self.name.clone(),
            fairness: self.fairness,
            kind: self.kind.clone(),
        }
    }
}

impl<S: LocalState, M: Message, O> From<Invariant<S, M, O>> for Property<S, M, O> {
    fn from(invariant: Invariant<S, M, O>) -> Self {
        Property::safety(invariant)
    }
}

impl<S: LocalState, M: Message, O> Property<S, M, O> {
    /// Wraps an invariant as a safety property (also available via `From`).
    pub(crate) fn safety(invariant: Invariant<S, M, O>) -> Self {
        Property {
            name: invariant.name().to_string(),
            fairness: Fairness::default(),
            kind: PropertyKind::Safety(invariant),
        }
    }

    /// Creates a termination property: every fair maximal execution reaches
    /// a state where `goal` holds (the quiescent/goal states). Fair maximal
    /// executions that deadlock before the goal, or loop forever through
    /// non-goal states, are counterexamples (lassos).
    pub fn termination<F>(name: impl Into<String>, goal: F) -> Self
    where
        F: Fn(&GlobalState<S, M>, &O) -> bool + Send + Sync + 'static,
    {
        Property {
            name: name.into(),
            fairness: Fairness::default(),
            kind: PropertyKind::Termination {
                goal: Arc::new(goal),
            },
        }
    }

    /// Creates a leads-to property `p ⇝ q`: on every fair maximal
    /// execution, every state where `trigger` holds is eventually followed
    /// by a state where `goal` holds. A state satisfying both discharges its
    /// own obligation immediately.
    pub fn leads_to<P, Q>(name: impl Into<String>, trigger: P, goal: Q) -> Self
    where
        P: Fn(&GlobalState<S, M>, &O) -> bool + Send + Sync + 'static,
        Q: Fn(&GlobalState<S, M>, &O) -> bool + Send + Sync + 'static,
    {
        Property {
            name: name.into(),
            fairness: Fairness::default(),
            kind: PropertyKind::LeadsTo {
                trigger: Arc::new(trigger),
                goal: Arc::new(goal),
            },
        }
    }

    /// Replaces the fairness policy (builder style; meaningful for the
    /// liveness classes only). The default is [`Fairness::WeakProtocol`].
    pub fn with_fairness(mut self, fairness: Fairness) -> Self {
        self.fairness = fairness;
        self
    }

    /// Returns the name of the property.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the property class the engines dispatch on.
    pub fn class(&self) -> PropertyClass {
        match &self.kind {
            PropertyKind::Safety(_) => PropertyClass::Safety,
            PropertyKind::Termination { .. } => PropertyClass::Termination,
            PropertyKind::LeadsTo { .. } => PropertyClass::LeadsTo,
        }
    }

    /// Returns the fairness policy applied to liveness counterexamples.
    pub fn fairness(&self) -> Fairness {
        self.fairness
    }

    /// Returns the wrapped invariant if this is a safety property.
    pub fn as_safety(&self) -> Option<&Invariant<S, M, O>> {
        match &self.kind {
            PropertyKind::Safety(inv) => Some(inv),
            _ => None,
        }
    }

    /// Returns `true` for the liveness classes (termination / leads-to).
    pub(crate) fn is_liveness(&self) -> bool {
        !matches!(self.kind, PropertyKind::Safety(_))
    }

    /// The liveness obligation in the initial state: for termination the
    /// obligation is armed from the start (unless the initial state is
    /// already a goal state); for leads-to it arms when the trigger holds.
    pub fn initial_pending(&self, state: &GlobalState<S, M>, observer: &O) -> bool {
        let inherited = matches!(self.kind, PropertyKind::Termination { .. });
        self.step_pending(inherited, state, observer)
    }

    /// Folds the liveness obligation along one step: a goal state discharges
    /// it, a trigger state (leads-to only) arms it, any other state inherits
    /// it. Safety properties never carry an obligation.
    pub fn step_pending(&self, inherited: bool, state: &GlobalState<S, M>, observer: &O) -> bool {
        match &self.kind {
            PropertyKind::Safety(_) => false,
            PropertyKind::Termination { goal } => inherited && !goal(state, observer),
            PropertyKind::LeadsTo { trigger, goal } => {
                if goal(state, observer) {
                    false
                } else if trigger(state, observer) {
                    true
                } else {
                    inherited
                }
            }
        }
    }

    /// Returns `true` if a discharged obligation can never re-arm on any
    /// extension of the execution — exactly the termination class, whose
    /// goal states are closed: the search may prune below them.
    pub(crate) fn discharged_forever(&self) -> bool {
        matches!(self.kind, PropertyKind::Termination { .. })
    }

    /// Transports the property to another state space via a projection of
    /// global states (the observer type is unchanged). This is how
    /// `mp-faults` lifts base-model properties to fault-augmented models:
    /// the projection forgets the fault bookkeeping.
    pub fn on_projected_state<S2>(
        self,
        project: impl Fn(&GlobalState<S2, M>) -> GlobalState<S, M> + Send + Sync + 'static,
    ) -> Property<S2, M, O>
    where
        S2: LocalState,
        O: Send + Sync + 'static,
        S: 'static,
        M: 'static,
    {
        let project = Arc::new(project);
        let fairness = self.fairness;
        let name = self.name;
        let kind = match self.kind {
            PropertyKind::Safety(inv) => {
                let project = project.clone();
                PropertyKind::Safety(Invariant::new(
                    name.clone(),
                    move |state: &GlobalState<S2, M>, observer: &O| match inv
                        .evaluate(&project(state), observer)
                    {
                        PropertyStatus::Holds => Ok(()),
                        PropertyStatus::Violated(reason) => Err(reason),
                    },
                ))
            }
            PropertyKind::Termination { goal } => PropertyKind::Termination {
                goal: {
                    let project = project.clone();
                    Arc::new(move |state: &GlobalState<S2, M>, observer: &O| {
                        goal(&project(state), observer)
                    })
                },
            },
            PropertyKind::LeadsTo { trigger, goal } => PropertyKind::LeadsTo {
                trigger: {
                    let project = project.clone();
                    Arc::new(move |state: &GlobalState<S2, M>, observer: &O| {
                        trigger(&project(state), observer)
                    })
                },
                goal: Arc::new(move |state: &GlobalState<S2, M>, observer: &O| {
                    goal(&project(state), observer)
                }),
            },
        };
        Property {
            name,
            fairness,
            kind,
        }
    }
}

impl<S, M: Ord, O> fmt::Debug for Property<S, M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Property")
            .field("name", &self.name)
            .field(
                "class",
                &match &self.kind {
                    PropertyKind::Safety(_) => "safety",
                    PropertyKind::Termination { .. } => "termination",
                    PropertyKind::LeadsTo { .. } => "leads-to",
                },
            )
            .field("fairness", &self.fairness)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullObserver;

    type St = GlobalState<u32, String>;

    fn no_big(limit: u32) -> Invariant<u32, String, NullObserver> {
        Invariant::new(format!("no-local-above-{limit}"), move |s: &St, _| match s
            .locals
            .iter()
            .find(|l| **l > limit)
        {
            Some(l) => Err(format!("local state {l} exceeds {limit}")),
            None => Ok(()),
        })
    }

    #[test]
    fn invariant_holds_and_violates() {
        let inv = no_big(10);
        assert!(inv
            .evaluate(&GlobalState::new(vec![1, 2]), &NullObserver)
            .holds());
        let status = inv.evaluate(&GlobalState::new(vec![1, 20]), &NullObserver);
        match status {
            PropertyStatus::Violated(reason) => assert!(reason.contains("20")),
            PropertyStatus::Holds => panic!("expected violation"),
        }
    }

    #[test]
    fn always_true_never_violates() {
        let inv: Invariant<u32, String, NullObserver> = Invariant::always_true("true");
        assert!(inv
            .evaluate(&GlobalState::new(vec![u32::MAX]), &NullObserver)
            .holds());
        assert_eq!(inv.name(), "true");
    }

    #[test]
    fn debug_shows_name() {
        let inv = no_big(1);
        assert!(format!("{inv:?}").contains("no-local-above-1"));
    }

    #[test]
    fn invariant_converts_into_safety_property() {
        let prop: Property<u32, String, NullObserver> = no_big(3).into();
        assert_eq!(prop.class(), PropertyClass::Safety);
        assert!(!prop.is_liveness());
        assert!(prop.as_safety().is_some());
        assert_eq!(prop.name(), "no-local-above-3");
        // Safety properties carry no liveness obligation.
        let s = GlobalState::new(vec![0u32]);
        assert!(!prop.initial_pending(&s, &NullObserver));
        assert!(!prop.step_pending(true, &s, &NullObserver));
    }

    #[test]
    fn termination_obligation_folds_along_goal_states() {
        let prop: Property<u32, String, NullObserver> =
            Property::termination("reach-2", |s: &St, _| s.locals.contains(&2));
        assert_eq!(prop.class(), PropertyClass::Termination);
        assert!(prop.discharged_forever());
        let not_goal = GlobalState::new(vec![0u32]);
        let goal = GlobalState::new(vec![2u32]);
        assert!(prop.initial_pending(&not_goal, &NullObserver));
        assert!(!prop.initial_pending(&goal, &NullObserver));
        // Once discharged, the obligation never re-arms.
        assert!(!prop.step_pending(false, &not_goal, &NullObserver));
        assert!(prop.step_pending(true, &not_goal, &NullObserver));
        assert!(!prop.step_pending(true, &goal, &NullObserver));
    }

    #[test]
    fn leads_to_obligation_arms_and_discharges() {
        let prop: Property<u32, String, NullObserver> = Property::leads_to(
            "1-leads-to-2",
            |s: &St, _| s.locals[0] == 1,
            |s: &St, _| s.locals[0] == 2,
        );
        assert_eq!(prop.class(), PropertyClass::LeadsTo);
        assert!(!prop.discharged_forever());
        let idle = GlobalState::new(vec![0u32]);
        let trigger = GlobalState::new(vec![1u32]);
        let goal = GlobalState::new(vec![2u32]);
        assert!(!prop.initial_pending(&idle, &NullObserver));
        assert!(prop.initial_pending(&trigger, &NullObserver));
        assert!(prop.step_pending(false, &trigger, &NullObserver));
        assert!(prop.step_pending(true, &idle, &NullObserver));
        assert!(!prop.step_pending(true, &goal, &NullObserver));
    }

    #[test]
    fn fairness_policies_classify_transitions() {
        assert!(!Fairness::Unfair.requires(false));
        assert!(!Fairness::Unfair.requires(true));
        assert!(Fairness::WeakProtocol.requires(false));
        assert!(!Fairness::WeakProtocol.requires(true));
        let prop: Property<u32, String, NullObserver> =
            Property::termination("t", |_: &St, _| false).with_fairness(Fairness::Unfair);
        assert_eq!(prop.fairness(), Fairness::Unfair);
    }

    #[test]
    fn projection_transports_all_classes() {
        // Project a (state, shadow) pair space back to the plain space by
        // halving every local.
        let project = |s: &GlobalState<u32, String>| {
            GlobalState::new(s.locals.iter().map(|l| l / 2).collect::<Vec<u32>>())
        };
        let safety: Property<u32, String, NullObserver> = no_big(3).into();
        let lifted = safety.on_projected_state(project);
        let ok = GlobalState::new(vec![6u32]); // projects to 3
        let bad = GlobalState::new(vec![8u32]); // projects to 4
        let inv = lifted.as_safety().unwrap();
        assert!(inv.evaluate(&ok, &NullObserver).holds());
        assert!(!inv.evaluate(&bad, &NullObserver).holds());

        let term: Property<u32, String, NullObserver> =
            Property::termination("reach-2", |s: &St, _| s.locals[0] == 2);
        let lifted = term.on_projected_state(project);
        let goal = GlobalState::new(vec![4u32]); // projects to 2
        assert!(!lifted.initial_pending(&goal, &NullObserver));
        assert!(lifted.initial_pending(&ok, &NullObserver));
    }
}
