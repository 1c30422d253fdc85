//! Liveness search: fairness-aware lasso detection for termination and
//! leads-to properties.
//!
//! A liveness property is violated by a *maximal execution*, not by a single
//! state: either an infinite execution that loops through a cycle without
//! ever discharging the outstanding obligation, or a finite maximal
//! execution that quiesces (deadlocks) with the obligation still pending.
//! Both are reported as **lassos** ([`Counterexample::lasso`]): a stem from
//! the initial state plus a cycle (possibly empty for the quiescent case).
//!
//! The search explores the product of the protocol state, the observer and
//! one **obligation bit** ("is a goal state still owed on this path?"),
//! folded by [`Property::step_pending`]. Every engine runs the depth-first
//! core of [`crate::dfs`] with the **lasso detector** of this module as its
//! mode (the stateless strategy under the path memory): every cycle of a
//! directed graph contains a back edge, so a DFS that is told of each
//! successor it meets on its stack finds a cycle whenever one exists. A
//! detected cycle is a counterexample iff
//!
//! 1. every product state on it carries the obligation bit, and
//! 2. it is *fair* under the property's [`Fairness`] policy: no transition
//!    instance that fairness requires (by default, any non-environment
//!    instance) is enabled in every state of the cycle yet never executed
//!    in it. Environment (fault) transitions are exempt by default, so a
//!    crash is never "unfairly required" to happen.
//!
//! Every candidate cycle — closed exactly, unrolled under symmetry, or
//! stitched from a strongly connected component — is judged the same way:
//! it is re-executed from its entry state (`fair_pending_cycle`), which
//! checks both conditions on the enabled sets met along the way. No frame
//! keeps an enabled set: a frame's note is its node in the recorded graph,
//! and a recorded step is an ordinal into its state's choices
//! (`Successors::choices`), the order the core runs them in.
//!
//! **Partial-order reduction.** The core applies the cycle/ignoring proviso
//! at every back edge: whenever a reduced expansion closes a cycle back
//! into the DFS stack, the state is re-expanded with the pruned instances
//! ([`mp_por::Reduction::pruned`]) added back, so no enabled transition is
//! ignored around a cycle. Soundness additionally requires the transitions
//! that can change the property's trigger/goal predicates to be annotated
//! *visible* (as the bundled protocols do); the integration tests assert
//! that SPOR on and off agree on every liveness verdict across the
//! evaluation protocols. Without fairness that is not enough: the stubborn
//! sets lack the visibility condition of LTL-X, and a reduced search can
//! answer `verified` on a violated generated cell. A property with
//! [`Fairness::Unfair`] therefore runs unreduced, and its strategy label
//! says that the reducer fell back to full expansion.
//!
//! **Completeness.** The on-stack detector alone is sound but not
//! complete: the stack segment closed by a back edge is the DFS *tree*
//! path, which can route through a discharged (goal) state even though a
//! different, all-pending cycle reaches the same product state via a cross
//! edge to an already-visited node. The stateful search therefore runs a
//! second pass when the DFS finds nothing: it records the **pending
//! subgraph** (obligation-carrying product states and the edges between
//! them — as node numbers filed under the store's token for the state and
//! ordinals into the source state's choices, with the depth-first tree to
//! replay a node's state from) during the search and then checks its
//! strongly connected components (the `scc` submodule). An SCC admits a
//! fair cycle iff every
//! instance the fairness policy requires that is enabled in *every* state
//! of the SCC is executed by some edge inside it — exact for weak fairness,
//! because the all-states/all-required-edges covering walk is then itself a
//! fair cycle, and conversely a globally-enabled-but-never-executed
//! instance starves every cycle the SCC contains. The pass reconstructs a
//! concrete lasso — the stem is the entry node's depth-first tree path,
//! replayed by `Successors::replay`, as an on-stack lasso's stem is the
//! stack; the cycle is a covering walk inside the SCC — and re-executes the
//! cycle before reporting it, so reported counterexamples stay replayable.
//! The stem is a path the search took, not a shortest one. Under a
//! probabilistic store, whose tokens may conflate two states, a lasso that
//! does not re-execute is dropped like any other omission of that store.
//!
//! **Symmetry.** With a non-trivial [`Symmetry`], store and stack are keyed
//! by canonical orbit representatives while the exploration stays concrete,
//! so cycles are detected **modulo the group**. When the closing
//! permutation is the identity the concrete cycle closes exactly and the
//! usual pending/fairness checks apply; otherwise the cycle is
//! **un-canonicalized** by unrolling the closing element `δ` until it
//! returns to the identity (`e →A→ δ(e) →δ(A)→ δ²(e) → … → e`, by
//! equivariance of the transition relation; `unroll_symmetric_cycle`), and
//! the unrolled concrete lasso is re-executed to validate enabledness, the
//! pending obligation and fairness before it is reported — reported lassos
//! are always genuine concrete executions with concrete process ids. The
//! SCC backstop judges fairness on per-node concrete enabled sets, which
//! mix orbit members under symmetry; to stay exact the search therefore
//! *falls back to the symmetry-free search* whenever the recorded quotient
//! pending subgraph contains a cycle candidate at all (rare: the evaluation
//! protocols' fault-augmented models are acyclic in their budget counters,
//! so verified runs record no pending cycles and never pay the fallback).

mod scc;

use std::sync::Arc;

use mp_model::{GlobalState, LocalState, Message, ProtocolSpec, TransitionInstance};
use mp_por::{NoReduction, Reducer};
use mp_symmetry::{NoSymmetry, Symmetry};
use mp_trace::Phase;

use crate::dfs::{label, path, search, End, Frame, Key, Memory, Mode, Visit};
use crate::successors::Successors;
use crate::{
    CheckerConfig, Counterexample, Fairness, Observer, Property, PropertyClass, RunReport,
};
use scc::{Backstop, PendingGraph};

fn violation_reason(class: PropertyClass, quiescent: bool, fairness: Fairness) -> String {
    match (class, quiescent) {
        (PropertyClass::Termination, true) => {
            "the execution quiesces before reaching the goal (no transition enabled)".to_string()
        }
        (PropertyClass::Termination, false) => {
            format!("{fairness} cycle: the system can loop forever without reaching the goal")
        }
        (PropertyClass::LeadsTo, true) => {
            "a trigger state is never followed by a goal state: the execution quiesces \
             with the obligation outstanding"
                .to_string()
        }
        (PropertyClass::LeadsTo, false) => format!(
            "{fairness} cycle with a triggered obligation outstanding: no goal state follows"
        ),
        (PropertyClass::Safety, _) => unreachable!("safety has no liveness violations"),
    }
}

/// The instances the fairness policy insists on that are enabled in every
/// one of the given states (of a cycle, or of an SCC).
fn required_everywhere<'a, S, M>(
    spec: &ProtocolSpec<S, M>,
    fairness: Fairness,
    enabled_per_state: &[&'a [TransitionInstance<M>]],
) -> Vec<&'a TransitionInstance<M>>
where
    S: LocalState,
    M: Message,
{
    let (first, rest) = enabled_per_state
        .split_first()
        .expect("a cycle has at least one state");
    let mut required: Vec<&TransitionInstance<M>> = first
        .iter()
        .filter(|i| fairness.requires(spec.transition(i.transition).annotations().is_environment))
        .collect();
    for enabled in rest {
        required.retain(|i| enabled.contains(i));
    }
    required
}

/// The shared weak-fairness test used by every cycle detector in this
/// module: a cycle (or SCC) given by the enabled sets of its states and the
/// instances it executes is **fair** iff no instance the policy requires is
/// enabled in every state yet never executed.
fn cycle_fair<S, M>(
    spec: &ProtocolSpec<S, M>,
    fairness: Fairness,
    enabled_per_state: &[&[TransitionInstance<M>]],
    executed: &[&TransitionInstance<M>],
) -> bool
where
    S: LocalState,
    M: Message,
{
    let required = required_everywhere(spec, fairness, enabled_per_state);
    required.iter().all(|i| executed.contains(i))
}

/// Re-executes `cycle` from the pending product state `entry`: `true` iff
/// every instance is enabled where it is taken, the obligation stays
/// pending throughout, the walk returns exactly to `entry`, and the cycle
/// is fair on the concrete enabled sets met along the way.
fn fair_pending_cycle<S, M, O>(
    successors: &Successors<'_, S, M, O>,
    property: &Property<S, M, O>,
    entry: (&GlobalState<S, M>, &O),
    cycle: &[TransitionInstance<M>],
) -> bool
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let mut state = entry.0.clone();
    let mut observer = entry.1.clone();
    let mut enabled_sets: Vec<Vec<TransitionInstance<M>>> = Vec::new();
    for instance in cycle {
        let enabled = successors.enabled(&state);
        if !enabled.contains(instance) {
            return false;
        }
        (state, observer) = successors.execute(&state, &observer, instance).0;
        if !property.step_pending(true, &state, &observer) {
            return false;
        }
        enabled_sets.push(enabled);
    }
    if state != *entry.0 || observer != *entry.1 {
        return false;
    }
    let enabled_refs: Vec<&[TransitionInstance<M>]> =
        enabled_sets.iter().map(|v| v.as_slice()).collect();
    let executed: Vec<&TransitionInstance<M>> = cycle.iter().collect();
    let fairness = property.fairness();
    cycle_fair(successors.spec, fairness, &enabled_refs, &executed)
}

/// Un-canonicalizes a cycle that closed modulo a permutation. The DFS
/// found `e →segment→ f` with `canon(e) = canon(f)` via elements
/// `g_e(e) = c = g_f(f)`, so `f = δ(e)` with `δ = g_f⁻¹ ∘ g_e`. By
/// equivariance, repeating the segment with `δ`-powers applied walks
/// `e → δ(e) → δ²(e) → … → δᵏ(e) = e` where `k` is the order of `δ` — a
/// genuine concrete cycle when the role declaration is semantically
/// symmetric, and the segment itself when `δ` is the identity. Returns the
/// unrolled instance list; the caller validates it by re-execution
/// ([`fair_pending_cycle`]), which rejects a permuted instance that
/// a structurally-validated but semantically asymmetric role declaration
/// makes non-executable — the conservative answer.
fn unroll_symmetric_cycle<S, M, O>(
    symmetry: &dyn Symmetry<S, M, O>,
    (entry_elem, closing_elem): (usize, usize),
    segment: &[TransitionInstance<M>],
) -> Vec<TransitionInstance<M>>
where
    S: LocalState,
    M: Message,
{
    // δ = g_f⁻¹ ∘ g_e; its order is bounded by the group order.
    let delta = symmetry.compose(symmetry.inverse(closing_elem), entry_elem);
    let mut unrolled: Vec<TransitionInstance<M>> = Vec::new();
    let mut power = 0usize; // identity
    loop {
        for instance in segment {
            unrolled.push(symmetry.permute_instance(power, instance));
        }
        power = symmetry.compose(delta, power);
        if power == 0 {
            return unrolled;
        }
    }
}

/// The lasso detector: the [`Mode`] that makes the depth-first core a
/// liveness search. The tag of a product state is its obligation bit, and
/// its frame note is its node in the recorded graph (0 when none is
/// recorded): an edge is that node and the frame's [`Frame::ordinal`].
struct Lasso<'a, S, M: Ord, O> {
    property: &'a Property<S, M, O>,
    initial_observer: &'a O,
    /// The visited store keeps whole keys ([`mp_store::StoreConfig::is_exact`]).
    exact_store: bool,
    /// The pending subgraph for the SCC backstop — none under the path
    /// memory, which meets every elementary cycle on the stack.
    graph: Option<PendingGraph>,
}

impl<S, M, O> Lasso<'_, S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    fn lasso(
        &self,
        spec: &ProtocolSpec<S, M>,
        quiescent: bool,
        stem: &[TransitionInstance<M>],
        cycle: &[TransitionInstance<M>],
        entry: &GlobalState<S, M>,
    ) -> Counterexample {
        let property = self.property;
        let reason = violation_reason(property.class(), quiescent, property.fairness());
        Counterexample::lasso(spec, property.name(), reason, stem, cycle, entry)
    }
}

impl<S, M, O> Mode<S, M, O> for Lasso<'_, S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    const ENGINE: &'static str = "liveness-dfs";
    type Tag = bool;
    type Note = u32;

    fn property_name(&self) -> &str {
        self.property.name()
    }

    fn initial_tag(&self, state: &GlobalState<S, M>, observer: &O) -> bool {
        self.property.initial_pending(state, observer)
    }

    fn step(&self, inherited: bool, state: &GlobalState<S, M>, observer: &O) -> bool {
        self.property.step_pending(inherited, state, observer)
    }

    fn first_visit(
        &mut self,
        stack: &[Frame<S, M, O, Self>],
        at: &Key<S, M, O, bool>,
        token: u64,
        enabled: &[TransitionInstance<M>],
        successors: &Successors<'_, S, M, O>,
    ) -> Visit<u32> {
        let pending = at.2;
        if enabled.is_empty() && pending {
            // A maximal finite execution with the obligation pending: the
            // system stutters in this quiescent state forever.
            return Visit::Violated(self.lasso(successors.spec, true, &path(stack), &[], &at.0));
        }
        if enabled.is_empty() || !pending && self.property.discharged_forever() {
            // Quiescent and discharged: a satisfying maximal execution. Or
            // termination: goal states are closed — no extension of this
            // branch can ever violate.
            return Visit::Prune;
        }
        let Some(graph) = &mut self.graph else {
            return Visit::Expand(0);
        };
        let node = graph.add_node(
            stack.last().map(|top| (top.note, top.ordinal())),
            pending.then_some(token),
        );
        if let Some(top) = stack.last().filter(|top| pending && top.at.2) {
            graph.add_edge(top.note, node, top.ordinal());
        }
        Visit::Expand(node)
    }

    fn back_edge(
        &mut self,
        stack: &[Frame<S, M, O, Self>],
        entry: usize,
        elem: usize,
        successors: &Successors<'_, S, M, O>,
    ) -> Option<Counterexample> {
        let cycle = &stack[entry..];
        let top = cycle.last().expect("a cycle has at least one state");
        if let (Some(graph), true) = (&mut self.graph, top.at.2 && cycle[0].at.2) {
            graph.add_edge(top.note, cycle[0].note, top.ordinal());
        }
        // Violating cycle: the obligation is outstanding in every product
        // state of the cycle, and the cycle is fair.
        if !cycle.iter().all(|f| f.at.2) {
            return None;
        }
        let mut steps = path(cycle);
        if let Some(symmetry) = successors.symmetry {
            // Closed modulo the group: un-canonicalize by unrolling the
            // closing element (the segment itself when it closes exactly).
            steps = unroll_symmetric_cycle(symmetry, (cycle[0].elem, elem), &steps);
        }
        let entry_pair = (&cycle[0].at.0, &cycle[0].at.1);
        if !fair_pending_cycle(&successors.untimed(), self.property, entry_pair, &steps) {
            return None;
        }
        let stem = path(&stack[..entry]);
        Some(self.lasso(successors.spec, false, &stem, &steps, &cycle[0].at.0))
    }

    fn cross_edge(&mut self, top: &Frame<S, M, O, Self>, pending: bool, token: u64) {
        // A cross or forward edge; if it stays within the pending subgraph,
        // record it — the SCC pass finds the cycles the on-stack detector
        // cannot see from the tree path alone.
        let Some(graph) = &mut self.graph else { return };
        if top.at.2 && pending {
            if let Some(to) = graph.find(token) {
                graph.add_edge(top.note, to, top.ordinal());
            }
        }
    }

    fn end(&mut self, successors: &Successors<'_, S, M, O>) -> End<Self> {
        // The on-stack detector saw no fair violating cycle, but it only
        // examines DFS tree segments — check the strongly connected
        // components of the recorded pending subgraph (see the module docs).
        let Some(graph) = &self.graph else {
            // The path memory met every elementary cycle on the stack.
            return End::Verified;
        };
        if successors.symmetry.is_some() {
            // Under symmetry the recorded per-node enabled sets mix orbit
            // members, so the SCC fairness test is not exact on the
            // quotient; fall back to the symmetry-free search — whose step
            // has no symmetry — when (and only when) a cycle candidate
            // exists at all.
            if graph.has_cycle_candidate() {
                return End::ExactRerun(Lasso {
                    graph: Some(PendingGraph::default()),
                    ..*self
                });
            }
            return End::Verified;
        }
        let _span = successors.trace.span(Phase::SccBackstop);
        let backstop = Backstop {
            successors: successors.untimed(),
            property: self.property,
            initial_observer: self.initial_observer,
            exact_store: self.exact_store,
        };
        (backstop.violation(graph)).map_or(End::Verified, End::Violated)
    }

    fn heap_bytes(&self) -> usize {
        self.graph.as_ref().map_or(0, PendingGraph::heap_bytes)
    }
}

/// Runs the stateful liveness search: the depth-first core of
/// [`crate::dfs`] over `(state, observer, obligation)` product states with
/// the lasso detector of this module. Called by every stateful engine when
/// the property is a liveness property. A property without fairness runs
/// unreduced, whatever `reducer` is (see the module docs); the strategy
/// label then says that the reducer fell back to full expansion.
pub(crate) fn run_liveness_dfs<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    reducer: &dyn Reducer<S, M>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    config: &CheckerConfig,
) -> RunReport
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    debug_assert!(property.is_liveness(), "dispatched on property class");
    let mode = Lasso {
        property,
        initial_observer,
        exact_store: config.store.is_exact(),
        graph: Some(PendingGraph::default()),
    };
    let unreduced = Reducer::<S, M>::name(&NoReduction);
    let (reducer, strategy): (&dyn Reducer<S, M>, _) =
        if property.fairness() == Fairness::Unfair && reducer.name() != unreduced {
            let head = label(Lasso::<S, M, O>::ENGINE, unreduced, symmetry);
            let note = format!("({} falls back to full expansion)", reducer.name());
            (&NoReduction, Some(format!("{head} {note}")))
        } else {
            (reducer, None)
        };
    search(
        spec,
        initial_observer,
        reducer,
        symmetry,
        config,
        Memory::store(&config.store),
        strategy,
        mode,
    )
}

/// Runs the stateless liveness search: the lasso detector on the core
/// remembering only the path, unreduced and concrete. Every elementary
/// cycle is then met on the stack, so no pending graph is recorded and no
/// SCC backstop runs.
pub(crate) fn stateless_lasso<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    config: &CheckerConfig,
    strategy: String,
) -> RunReport
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    debug_assert!(property.is_liveness(), "dispatched on property class");
    let no_symmetry: Arc<dyn Symmetry<S, M, O>> = Arc::new(NoSymmetry);
    let mode = Lasso {
        property,
        initial_observer,
        exact_store: false,
        graph: None,
    };
    search(
        spec,
        initial_observer,
        &NoReduction,
        &no_symmetry,
        config,
        Memory::Path,
        Some(strategy),
        mode,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::{toggler_and_mover, Tok};
    use crate::{Checker, NullObserver, Property};
    use mp_model::{
        enabled_instances, execute_enabled, Outcome, Permutable, Permutation, ProcessId,
        TransitionSpec,
    };
    use mp_por::NoReduction;
    use mp_symmetry::{NoSymmetry, OrbitReduction, RoleMap, SymmetryGroup};
    use mp_trace::TraceHandle;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn no_sym() -> Arc<dyn Symmetry<u8, Tok, NullObserver>> {
        Arc::new(NoSymmetry)
    }

    /// The stateful liveness search through the facade, unreduced.
    fn dfs(spec: &ProtocolSpec<u8, Tok>, property: &Property<u8, Tok, NullObserver>) -> RunReport {
        Checker::new(spec, property.clone()).run()
    }

    /// The stateless path enumerator through the facade.
    fn stateless(
        spec: &ProtocolSpec<u8, Tok>,
        property: &Property<u8, Tok, NullObserver>,
        dpor: bool,
    ) -> RunReport {
        let config = CheckerConfig::stateless(dpor);
        Checker::new(spec, property.clone()).config(config).run()
    }

    /// A process counting 0..=steps; terminates at `steps`.
    fn counter(steps: u8) -> ProtocolSpec<u8, Tok> {
        ProtocolSpec::builder("counter")
            .process("c", 0u8)
            .transition(
                TransitionSpec::builder("inc", p(0))
                    .internal()
                    .guard(move |l, _| *l < steps)
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(l + 1))
                    .build(),
            )
            .build()
            .unwrap()
    }

    /// A toggler that flips a bit forever (pure cycle, no quiescence).
    pub(super) fn toggler() -> ProtocolSpec<u8, Tok> {
        ProtocolSpec::builder("toggler")
            .process("t", 0u8)
            .transition(
                TransitionSpec::builder("toggle", p(0))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(1 - *l))
                    .build(),
            )
            .build()
            .unwrap()
    }

    pub(super) fn reaches(value: u8) -> Property<u8, Tok, NullObserver> {
        Property::termination(
            format!("reaches-{value}"),
            move |s: &GlobalState<u8, Tok>, _| s.locals[0] == value,
        )
    }

    #[test]
    fn terminating_counter_verifies_termination() {
        let spec = counter(3);
        let report = dfs(&spec, &reaches(3));
        assert!(report.verdict.is_verified(), "{report}");
        assert!(report.strategy.contains("liveness-dfs"));
    }

    #[test]
    fn counter_stuck_before_goal_yields_quiescent_lasso() {
        // The counter stops at 2 but the goal is 5: every maximal execution
        // quiesces with the obligation outstanding.
        let spec = counter(2);
        let report = dfs(&spec, &reaches(5));
        let cx = report.verdict.counterexample().expect("must violate");
        assert!(cx.is_lasso);
        assert!(cx.cycle.is_empty(), "quiescent lasso has no cycle");
        assert_eq!(cx.steps.len(), 2, "two increments reach the stuck state");
        assert!(cx.reason.contains("quiesces"));
    }

    #[test]
    fn toggler_never_reaching_goal_yields_fair_cycle() {
        let spec = toggler();
        let report = dfs(&spec, &reaches(5));
        let cx = report.verdict.counterexample().expect("must violate");
        assert!(cx.is_lasso);
        assert!(!cx.cycle.is_empty(), "the toggle loop is the cycle");
        assert!(cx.reason.contains("cycle"));
    }

    #[test]
    fn weak_fairness_rejects_starving_cycles() {
        // Toggler + a mover that reaches the goal in one step. The toggle
        // cycle never reaches the goal, but the mover is enabled in every
        // state of that cycle and never executed — weak fairness rejects
        // the cycle, and since the mover's step leads to the goal in every
        // interleaving, termination holds.
        let spec = toggler_and_mover();
        let goal = Property::termination("mover-done", |s: &GlobalState<u8, Tok>, _| {
            *s.local(p(1)) == 1
        });
        let fair = dfs(&spec, &goal);
        assert!(
            fair.verdict.is_verified(),
            "weak fairness must reject the starving toggle cycle: {fair}"
        );
        // Without fairness the starving schedule is legitimate.
        let unfair = dfs(&spec, &goal.clone().with_fairness(Fairness::Unfair));
        assert!(
            unfair.verdict.is_violated(),
            "without fairness the toggle loop is a counterexample: {unfair}"
        );
        // SPOR agrees with the unreduced verdicts (cycle proviso at work).
        let fair_spor = Checker::new(&spec, goal.clone()).spor().run();
        assert!(fair_spor.verdict.is_verified(), "{fair_spor}");
    }

    #[test]
    fn leads_to_holds_on_counter() {
        // 1 leads to 3 on the counter that counts to 3.
        let spec = counter(3);
        let prop = Property::leads_to(
            "1-leads-to-3",
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 1,
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 3,
        );
        let report = dfs(&spec, &prop);
        assert!(report.verdict.is_verified(), "{report}");
        // ...but 1 never leads to 5.
        let prop = Property::leads_to(
            "1-leads-to-5",
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 1,
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 5,
        );
        let report = dfs(&spec, &prop);
        assert!(report.verdict.is_violated(), "{report}");
    }

    #[test]
    fn stateless_liveness_agrees_with_stateful() {
        for steps in [2u8, 3] {
            for goal in [2u8, 5] {
                let spec = counter(steps);
                let stateful = dfs(&spec, &reaches(goal));
                let stateless = stateless(&spec, &reaches(goal), false);
                assert_eq!(
                    stateful.verdict.is_verified(),
                    stateless.verdict.is_verified(),
                    "steps={steps} goal={goal}"
                );
            }
        }
        // And on the cyclic toggler, where the stateless search must cut
        // the cycle instead of descending forever.
        let spec = toggler();
        let report = stateless(&spec, &reaches(5), true);
        assert!(report.verdict.is_violated(), "{report}");
        assert!(report.strategy.contains("full expansion"));
    }

    /// Regression test for the cross-edge completeness hole: the DFS tree
    /// path into the violating cycle routes through a goal state, so the
    /// on-stack segment at the back edge contains a discharged state and is
    /// rejected — the genuine all-pending cycle closes via a cross edge to
    /// an already-visited node and is only caught by the phase-2 SCC pass.
    ///
    /// One process, locals i=0, u=1, g=2, v=3, w=4; edges 0→1, 1→2, 1→3,
    /// 2→3, 3→4, 4→1; trigger {1, 3}, goal {2}. The fair run 1→3→4→1 never
    /// reaches the goal.
    #[test]
    fn cross_edge_cycles_are_found_by_the_scc_pass() {
        let edge = |name: &str, from: u8, to: u8| {
            TransitionSpec::builder(name.to_string(), p(0))
                .internal()
                .guard(move |l: &u8, _| *l == from)
                .sends_nothing()
                .visible()
                .effect(move |_, _| Outcome::new(to))
                .build()
        };
        let spec: ProtocolSpec<u8, Tok> = ProtocolSpec::builder("cross-edge")
            .process("only", 0u8)
            .transition(edge("iu", 0, 1))
            .transition(edge("ug", 1, 2))
            .transition(edge("uv", 1, 3))
            .transition(edge("gv", 2, 3))
            .transition(edge("vw", 3, 4))
            .transition(edge("wu", 4, 1))
            .build()
            .unwrap();
        let prop = Property::leads_to(
            "trigger-leads-to-goal",
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 1 || s.locals[0] == 3,
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 2,
        );
        let stateful = dfs(&spec, &prop);
        let cx = stateful
            .verdict
            .counterexample()
            .expect("the u→v→w→u cycle never reaches g");
        assert!(cx.is_lasso);
        assert!(
            !cx.cycle.is_empty(),
            "a genuine cycle, not a deadlock: {cx}"
        );
        // The stateless path enumerator agrees (it sees every elementary
        // cycle directly).
        let stateless = stateless(&spec, &prop, false);
        assert!(stateless.verdict.is_violated(), "{stateless}");
        // And SPOR agrees too (single process: nothing to reduce, but the
        // code path exercises the recorded reduced subgraph).
        let spor = Checker::new(&spec, prop.clone()).spor().run();
        assert!(spor.verdict.is_violated(), "{spor}");
    }

    /// A fingerprint store can report an unseen pending state as visited
    /// (hash collision); the pending-graph recording must drop the edge —
    /// matching that backend's probabilistic-`Verified` contract — rather
    /// than panic. An 8-bit fingerprint over a ~400-state grid guarantees
    /// collisions.
    #[test]
    fn fingerprint_store_liveness_degrades_gracefully() {
        use mp_store::StoreConfig;
        let mut builder = ProtocolSpec::builder("grid");
        for i in 0..2 {
            builder = builder.process(format!("c{i}"), 0u8);
        }
        for i in 0..2 {
            builder = builder.transition(
                TransitionSpec::builder(format!("inc{i}"), p(i))
                    .internal()
                    .guard(|l, _| *l < 20)
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(l + 1))
                    .build(),
            );
        }
        let spec: ProtocolSpec<u8, Tok> = builder.build().unwrap();
        let prop = Property::termination("both-at-20", |s: &GlobalState<u8, Tok>, _| {
            s.locals.iter().all(|l| *l == 20)
        });
        let report = run_liveness_dfs(
            &spec,
            &prop,
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default().with_store(StoreConfig::fingerprint(8)),
        );
        assert!(report.verdict.is_verified(), "{report}");
        assert_eq!(report.stats.store_backend, "fingerprint");
    }

    #[test]
    fn goal_in_initial_state_is_trivially_verified() {
        let spec = counter(3);
        let report = dfs(&spec, &reaches(0));
        assert!(report.verdict.is_verified());
        assert_eq!(report.stats.states, 1, "goal states are closed: no search");
    }

    impl Permutable for Tok {
        fn permute(&self, _: &Permutation) -> Self {
            Tok
        }
    }

    /// Two interchangeable processes, each flipping its own bit forever.
    #[test]
    fn a_swap_closed_segment_unrolls_to_the_concrete_square() {
        let mut builder = ProtocolSpec::builder("togglers");
        for i in 0..2 {
            builder = builder.process(format!("t{i}"), 0u8).transition(
                TransitionSpec::builder(format!("flip{i}"), ProcessId(i))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(1 - *l))
                    .build(),
            );
        }
        let spec: ProtocolSpec<u8, Tok> = builder.build().unwrap();
        let roles = RoleMap::new(2).role([ProcessId(0), ProcessId(1)]);
        let symmetry: Arc<dyn Symmetry<u8, Tok, NullObserver>> =
            Arc::new(OrbitReduction::new(SymmetryGroup::build(&spec, &roles)));

        // [1,0] →flip0→ [0,0] →flip1→ [0,1]: the segment ends in the swap
        // image of where it began, not in the state itself.
        let entry = GlobalState::new(vec![1u8, 0]);
        let segment = enabled_instances(&spec, &entry); // flip0, flip1
        let run = |from: &GlobalState<u8, Tok>, instances: &[TransitionInstance<Tok>]| {
            let step = |s, i| execute_enabled(&spec, &s, i);
            instances.iter().fold(from.clone(), step)
        };
        let state = run(&entry, &segment);
        assert_eq!(state, GlobalState::new(vec![0u8, 1]));
        let (canon_entry, _, entry_elem) = symmetry.canonicalize(&entry, &NullObserver);
        let (canon_end, _, closing_elem) = symmetry.canonicalize(&state, &NullObserver);
        assert_eq!(canon_entry, canon_end);
        assert_ne!(entry_elem, closing_elem, "closed by the swap only");

        let successors = Successors::new(&spec, &NoReduction, &symmetry, TraceHandle::disabled());
        let unroll = |property: &Property<u8, Tok, NullObserver>| {
            let cycle = unroll_symmetric_cycle(&*symmetry, (entry_elem, closing_elem), &segment);
            let at = (&entry, &NullObserver);
            fair_pending_cycle(&successors, property, at, &cycle).then_some(cycle)
        };
        let never = Property::termination("reaches-2", |s: &GlobalState<u8, Tok>, _| {
            s.locals.contains(&2)
        });
        let exact = unroll_symmetric_cycle(&*symmetry, (entry_elem, entry_elem), &segment);
        assert_eq!(exact, segment, "a cycle that closes exactly is its segment");
        let cycle = unroll(&never).expect("the square is a fair all-pending cycle");
        let processes: Vec<usize> = cycle.iter().map(|i| i.process.0).collect();
        assert_eq!(processes, [0, 1, 1, 0], "the segment, then its swap image");
        assert_eq!(
            run(&entry, &cycle),
            entry,
            "the unrolled cycle closes exactly"
        );

        // The same walk passes through [0,0]: a goal there discharges the
        // obligation and the cycle is no violation.
        let both_zero =
            Property::termination("both-0", |s: &GlobalState<u8, Tok>, _| s.locals == [0, 0]);
        assert_eq!(unroll(&both_zero), None);
    }
}
