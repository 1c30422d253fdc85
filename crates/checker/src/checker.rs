//! The top-level [`Checker`] facade.
//!
//! A [`Checker`] bundles a protocol, a property, an observer, a reduction
//! strategy and a [`CheckerConfig`], and dispatches to one of the search
//! engines. It is the API every example, test and benchmark in this
//! repository goes through.

use std::sync::Arc;

use mp_model::{LocalState, Message, Permutable, ProtocolSpec};
use mp_por::{NoReduction, Reducer, SporReducer};
use mp_symmetry::{NoSymmetry, OrbitReduction, RoleMap, Symmetry, SymmetryGroup};

use crate::{
    bfs::run_bfs,
    dfs::{run_stateful_dfs, stateless_search},
    CheckerConfig, NullObserver, Observer, Property, RunReport, SearchStrategy,
};

/// A configured model-checking run.
///
/// # Examples
///
/// ```
/// use mp_checker::{Checker, Invariant};
/// use mp_model::{GlobalState, Message, Outcome, ProcessId, ProtocolSpec, TransitionSpec};
///
/// #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
/// struct Tick;
/// mp_model::codec!(struct Tick);
/// impl Message for Tick {
///     fn kind(&self) -> &'static str { "TICK" }
/// }
///
/// let spec: ProtocolSpec<u8, Tick> = ProtocolSpec::builder("counter")
///     .process("c", 0u8)
///     .transition(
///         TransitionSpec::builder("inc", ProcessId(0))
///             .internal()
///             .guard(|l, _| *l < 3)
///             .effect(|l, _| Outcome::new(l + 1))
///             .build(),
///     )
///     .build()
///     .unwrap();
///
/// let report = Checker::new(&spec, Invariant::new("below-10", |s: &GlobalState<u8, Tick>, _| {
///     if s.locals[0] < 10 { Ok(()) } else { Err("overflow".into()) }
/// }))
/// .run();
/// assert!(report.verdict.is_verified());
/// assert_eq!(report.stats.states, 4);
/// ```
pub struct Checker<'a, S, M: Ord, O = NullObserver> {
    spec: &'a ProtocolSpec<S, M>,
    property: Property<S, M, O>,
    initial_observer: O,
    reducer: Arc<dyn Reducer<S, M>>,
    symmetry: Arc<dyn Symmetry<S, M, O>>,
    config: CheckerConfig,
}

impl<'a, S, M> Checker<'a, S, M, NullObserver>
where
    S: LocalState,
    M: Message,
{
    /// Creates a checker with the trivial observer, no reduction and the
    /// default configuration (stateful DFS). Accepts an [`Invariant`]
    /// (converted to a safety property) or any [`Property`] — safety,
    /// termination or leads-to.
    ///
    /// [`Invariant`]: crate::Invariant
    pub fn new(
        spec: &'a ProtocolSpec<S, M>,
        property: impl Into<Property<S, M, NullObserver>>,
    ) -> Self {
        Checker {
            spec,
            property: property.into(),
            initial_observer: NullObserver,
            reducer: Arc::new(NoReduction),
            symmetry: Arc::new(NoSymmetry),
            config: CheckerConfig::default(),
        }
    }
}

impl<'a, S, M, O> Checker<'a, S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    /// Creates a checker with an explicit observer initial value. Accepts an
    /// [`Invariant`](crate::Invariant) (converted to a safety property) or
    /// any [`Property`].
    pub fn with_observer(
        spec: &'a ProtocolSpec<S, M>,
        property: impl Into<Property<S, M, O>>,
        initial_observer: O,
    ) -> Self {
        Checker {
            spec,
            property: property.into(),
            initial_observer,
            reducer: Arc::new(NoReduction),
            symmetry: Arc::new(NoSymmetry),
            config: CheckerConfig::default(),
        }
    }

    /// Uses static partial-order reduction (builder style).
    pub fn spor(mut self) -> Self {
        self.reducer = Arc::new(SporReducer::new(self.spec));
        self
    }

    /// Disables reduction (builder style; the default).
    pub fn unreduced(mut self) -> Self {
        self.reducer = Arc::new(NoReduction);
        self
    }

    /// Installs an explicit symmetry reduction (builder style). Every
    /// engine then inserts only canonical orbit representatives into its
    /// visited store; see `mp-symmetry` for the soundness contract.
    pub fn symmetry(mut self, symmetry: impl Symmetry<S, M, O> + 'static) -> Self {
        self.symmetry = Arc::new(symmetry);
        self
    }

    /// Builds and installs the orbit reduction of a role declaration
    /// (builder style): each role is split into blocks of members whose
    /// swaps validate against the protocol, and the group is the product of
    /// the blocks' symmetric groups, so an asymmetric model degenerates to
    /// the identity group and the run is unaffected.
    pub fn with_role_symmetry(self, roles: &RoleMap) -> Self
    where
        S: Permutable,
        M: Permutable,
        O: Permutable + Ord,
    {
        let group = SymmetryGroup::build(self.spec, roles);
        self.symmetry(OrbitReduction::new(group))
    }

    /// Replaces the configuration (builder style).
    pub fn config(mut self, config: CheckerConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the configured engine and returns its report.
    pub fn run(&self) -> RunReport {
        let bfs = |threads| {
            run_bfs(
                self.spec,
                &self.property,
                &self.initial_observer,
                self.reducer.as_ref(),
                &self.symmetry,
                threads,
                &self.config,
            )
        };
        match self.config.strategy {
            SearchStrategy::StatefulDfs => run_stateful_dfs(
                self.spec,
                &self.property,
                &self.initial_observer,
                self.reducer.as_ref(),
                &self.symmetry,
                &self.config,
            ),
            SearchStrategy::StatefulBfs => bfs(None),
            SearchStrategy::ParallelBfs { threads } => bfs(Some(threads)),
            SearchStrategy::Stateless { dpor } => stateless_search(
                self.spec,
                &self.property,
                &self.initial_observer,
                dpor,
                &self.symmetry,
                &self.config,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::{independent, Tok};
    use crate::Invariant;
    use mp_model::GlobalState;

    #[test]
    fn all_strategies_agree_on_verification() {
        let spec = independent(3, 1);
        let strategies = [
            CheckerConfig::stateful_dfs(),
            CheckerConfig::stateful_bfs(),
            CheckerConfig::stateless(false),
            CheckerConfig::stateless(true),
            CheckerConfig::parallel_bfs(2),
        ];
        for config in strategies {
            let report = Checker::new(&spec, Invariant::always_true("true"))
                .config(config.clone())
                .run();
            assert!(
                report.verdict.is_verified(),
                "strategy {:?} failed to verify",
                config.strategy
            );
        }
    }

    #[test]
    fn all_strategies_agree_on_violation() {
        let spec = independent(2, 2);
        let property = || {
            Invariant::new("never-both-2", |s: &GlobalState<u8, Tok>, _| {
                if s.locals.iter().all(|l| *l == 2) {
                    Err("both counters reached 2".into())
                } else {
                    Ok(())
                }
            })
        };
        let strategies = [
            CheckerConfig::stateful_dfs(),
            CheckerConfig::stateful_bfs(),
            CheckerConfig::stateless(false),
            CheckerConfig::stateless(true),
            CheckerConfig::parallel_bfs(2),
        ];
        for config in strategies {
            let report = Checker::new(&spec, property()).config(config.clone()).run();
            assert!(
                report.verdict.is_violated(),
                "strategy {:?} missed the violation",
                config.strategy
            );
        }
    }

    #[test]
    fn spor_reduces_states_through_the_facade() {
        let spec = independent(4, 1);
        let unreduced = Checker::new(&spec, Invariant::always_true("true")).run();
        let reduced = Checker::new(&spec, Invariant::always_true("true"))
            .spor()
            .run();
        assert_eq!(unreduced.stats.states, 16);
        assert!(reduced.stats.states < unreduced.stats.states);
        assert!(reduced.verdict.is_verified());
    }

    #[test]
    fn strategy_label_reflects_engine_and_reducer() {
        let spec = independent(2, 1);
        let report = Checker::new(&spec, Invariant::always_true("true"))
            .spor()
            .config(CheckerConfig::stateful_bfs())
            .run();
        assert!(report.strategy.contains("bfs"));
        assert!(report.strategy.contains("spor"));
        let text = report.to_string();
        assert!(text.contains("verified"));
    }
}
