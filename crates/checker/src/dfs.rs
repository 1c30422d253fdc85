//! The one stateful depth-first core.
//!
//! This is the workhorse engine of the reproduction (the analogue of
//! MP-Basset's stateful search inside JPF). `search` is the only
//! depth-first loop of the crate: it keeps one stack of `Frame`s, asks
//! the configured [`Reducer`] which enabled instances to explore in each
//! state and identifies every product state by **one** query of the backend
//! selected by [`CheckerConfig::store`]. Each iteration pops an exhausted
//! frame or executes the top frame's next instance, canonicalizes the
//! successor, inserts it, and then the answer of that one insert decides:
//!
//! * *seen and on the stack* — a **back edge**. The stack (cycle) proviso
//!   fires unconditionally: a frame that was expanded with a reduced set is
//!   re-expanded fully, so no enabled transition is ignored around a cycle
//!   (the "ignoring problem" of partial-order reduction);
//! * *seen, not on the stack* — a **cross edge**;
//! * *new* — a **first visit**: limits are checked and a frame is pushed.
//!
//! What those three events and the end of the search *mean* is the only
//! thing the property classes differ in, and they say it through a
//! `Mode`: the invariant check ([`run_stateful_dfs`], below) evaluates the
//! invariant at every first visit; the lasso detector of [`crate::liveness`]
//! judges cycles at back edges, records cross edges and checks strongly
//! connected components at the end.
//!
//! **Identity.** The store hands back the 64-bit fingerprint it computed
//! for the insert and its own token for the key
//! ([`StateStoreBackend::insert_hashed`]). The stack is indexed by the
//! fingerprint (`FpIndex`) and a match is confirmed with `==` against the
//! key the frame holds, so on-stack membership is exact under every
//! backend — with a fingerprint store only the *visited* set is
//! probabilistic, never the proviso or a reported cycle. What a mode
//! remembers of a state that has left the stack it files under the token.
//! No state is hashed or cloned a second time to find out where the search
//! has met it before.
//!
//! **Symmetry.** With a non-trivial [`Symmetry`], exploration stays
//! concrete but store and stack are keyed by canonical orbit
//! representatives: a successor whose orbit was already visited is pruned
//! (a symmetric sibling's subtree covers it), and one whose orbit is on the
//! stack closes a cycle *in the quotient graph*. Counterexample paths remain
//! fully concrete.

use std::sync::Arc;
use std::time::Instant;

use mp_model::{
    enabled_instances, execute_enabled, Encode, GlobalState, LocalState, Message, ProtocolSpec,
    TransitionInstance,
};
use mp_por::Reducer;
use mp_store::{Inserted, StateStoreBackend};
use mp_symmetry::{NoSymmetry, Symmetry};
use mp_trace::{Counter, Gauge, Phase, TraceHandle};

use crate::fp_index::FpIndex;
use crate::{
    liveness::run_liveness_dfs, CheckerConfig, Counterexample, ExplorationStats, Invariant,
    Observer, Property, PropertyStatus, RunReport, Verdict,
};

/// A product state: protocol state, observer and the mode's path-dependent
/// tag. This is the visited-store key; with symmetry on, the stored key is
/// the canonical representative of `(state, observer)` with the same tag.
pub(crate) type Key<S, M, O, T> = (GlobalState<S, M>, O, T);

/// What a first visit means to the property class.
pub(crate) enum Visit<N> {
    /// Expand the state; `N` rides on its frame.
    Expand(N),
    /// Nothing below this state can matter: do not expand it.
    Prune,
    /// The execution ending here violates the property.
    Violated(Counterexample),
}

/// What the end of an exhausted search means to the property class.
pub(crate) enum End<H> {
    /// No violation.
    Verified,
    /// A violation only visible on the whole explored graph.
    Violated(Counterexample),
    /// The quotient graph cannot be judged exactly: repeat the search
    /// without symmetry, with this fresh mode.
    ExactRerun(H),
}

/// What a property class adds to the depth-first core (see the module
/// docs). The core owns the stack, the store, the proviso, the limits and
/// the statistics; a mode only interprets the events.
pub(crate) trait Mode<S, M: Ord, O>: Sized {
    /// Engine name, the head of the strategy label.
    const ENGINE: &'static str;
    /// The path-dependent part of a product state, stored beside
    /// `(state, observer)`: nothing for invariants, the obligation bit for
    /// liveness.
    type Tag: Copy + Eq + Encode;
    /// Per-frame data of the mode.
    type Note;

    /// Name of the property under check, for traces and counterexamples.
    fn property_name(&self) -> &str;

    /// The tag of the initial state.
    fn initial_tag(&self, state: &GlobalState<S, M>, observer: &O) -> Self::Tag;

    /// The tag of a successor, given its predecessor's.
    fn step(&self, inherited: Self::Tag, state: &GlobalState<S, M>, observer: &O) -> Self::Tag;

    /// `at` was inserted as new, under the store's `token`; `stack` is the
    /// path to it ([`path`]) and `enabled` everything enabled in it.
    fn first_visit(
        &mut self,
        stack: &[Frame<S, M, O, Self>],
        at: &Key<S, M, O, Self::Tag>,
        token: u64,
        enabled: &[TransitionInstance<M>],
    ) -> Visit<Self::Note>;

    /// The top frame's last instance led to the product state that
    /// `stack[entry]` is on the stack with, reached through group element
    /// `elem`.
    fn back_edge(
        &mut self,
        _stack: &[Frame<S, M, O, Self>],
        _entry: usize,
        _elem: usize,
    ) -> Option<Counterexample> {
        None
    }

    /// `top`'s last instance led to a product state tagged `tag` that the
    /// store knows as `token` and that is not on the stack.
    fn cross_edge(&mut self, _top: &Frame<S, M, O, Self>, _tag: Self::Tag, _token: u64) {}

    /// The stack ran empty without a violation.
    fn end(&mut self, _trace: &TraceHandle) -> End<Self> {
        End::Verified
    }

    /// Heap bytes of what the mode remembers beyond the stack and the
    /// store — the depth-first analogue of the BFS parent log.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// One state on the depth-first stack.
pub(crate) struct Frame<S, M: Ord, O, H: Mode<S, M, O>> {
    /// The concrete product state.
    pub(crate) at: Key<S, M, O, H::Tag>,
    /// Its canonical orbit representative (`None` when symmetry is off:
    /// the state is its own key).
    canon: Option<Key<S, M, O, H::Tag>>,
    /// The store's fingerprint of [`Frame::key`].
    fp: u64,
    /// Index of the group element that canonicalizes `at` (0 = identity).
    pub(crate) elem: usize,
    /// Instances chosen by the reducer, explored in order.
    explore: Vec<TransitionInstance<M>>,
    /// Instances pruned by the reducer, re-added if the proviso fires.
    pruned: Vec<TransitionInstance<M>>,
    next: usize,
    reduced: bool,
    /// The mode's own data.
    pub(crate) note: H::Note,
}

impl<S, M: Ord, O, H: Mode<S, M, O>> Frame<S, M, O, H> {
    /// The key this frame is visited and on the stack under.
    pub(crate) fn key(&self) -> &Key<S, M, O, H::Tag> {
        self.canon.as_ref().unwrap_or(&self.at)
    }

    /// The instance last executed from this state: the one that leads to
    /// the frame above, or — on the top frame — to the successor at hand.
    pub(crate) fn taken(&self) -> &TransitionInstance<M> {
        &self.explore[self.next - 1]
    }
}

/// The instances executed along `stack`, each frame's [`Frame::taken`].
pub(crate) fn path<S, M: Ord + Clone, O, H: Mode<S, M, O>>(
    stack: &[Frame<S, M, O, H>],
) -> Vec<TransitionInstance<M>> {
    stack.iter().map(|f| f.taken().clone()).collect()
}

#[allow(clippy::too_many_arguments)] // a DFS frame genuinely has this many parts
fn make_frame<S, M, O, H>(
    spec: &ProtocolSpec<S, M>,
    reducer: &dyn Reducer<S, M>,
    stats: &mut ExplorationStats,
    trace: &TraceHandle,
    at: Key<S, M, O, H::Tag>,
    canon: Option<Key<S, M, O, H::Tag>>,
    (fp, elem): (u64, usize),
    enabled: Vec<TransitionInstance<M>>,
    note: H::Note,
) -> Frame<S, M, O, H>
where
    S: LocalState,
    M: Message,
    H: Mode<S, M, O>,
{
    let reduction = reducer.reduce_traced(spec, &at.0, enabled, trace);
    if reduction.reduced {
        stats.reduced_states += 1;
    }
    Frame {
        at,
        canon,
        fp,
        elem,
        explore: reduction.explore,
        pruned: reduction.pruned,
        next: 0,
        reduced: reduction.reduced,
        note,
    }
}

/// Runs the depth-first core under `mode` and returns the report.
pub(crate) fn search<S, M, O, H>(
    spec: &ProtocolSpec<S, M>,
    initial_observer: &O,
    reducer: &dyn Reducer<S, M>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    config: &CheckerConfig,
    mut mode: H,
) -> RunReport
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
    H: Mode<S, M, O>,
{
    let start = Instant::now();
    let mut stats = ExplorationStats::new();
    let trivial = symmetry.is_trivial();
    let strategy = if trivial {
        format!("{}+{}", H::ENGINE, reducer.name())
    } else {
        format!("{}+{}+{}", H::ENGINE, reducer.name(), symmetry.label())
    };
    let trace = config
        .trace
        .begin_run(spec.name(), &strategy, mode.property_name());
    let store = config.store.build::<Key<S, M, O, H::Tag>>();
    let mut stack: Vec<Frame<S, M, O, H>> = Vec::new();
    let mut on_stack = FpIndex::default();

    let verdict = 'search: {
        let initial = spec.initial_state();
        let observer = initial_observer.clone();
        let tag = mode.initial_tag(&initial, &observer);
        // The product state to look at next: the initial one, then whatever
        // the top frame's next instance leads to.
        let mut arrival = Some((initial, observer, tag));
        loop {
            let at = match arrival.take() {
                Some(first) => first,
                None => {
                    let depth = stack.len();
                    let Some(top) = stack.last_mut() else { break };
                    stats.max_depth = stats.max_depth.max(depth);
                    trace.add(Counter::Depth, depth as u64);
                    if top.next >= top.explore.len() {
                        let frame = stack.pop().expect("stack checked non-empty");
                        on_stack.remove(frame.fp, depth - 1);
                        continue;
                    }
                    let _span = trace.span(Phase::Expansion);
                    let instance = &top.explore[top.next];
                    let state = execute_enabled(spec, &top.at.0, instance);
                    let observer = top.at.1.update(spec, &top.at.0, instance, &state);
                    let tag = mode.step(top.at.2, &state, &observer);
                    top.next += 1;
                    stats.transitions_executed += 1;
                    trace.add(Counter::Transitions, 1);
                    (state, observer, tag)
                }
            };

            // Membership is judged on the canonical orbit representative;
            // exploration stays concrete.
            let (canon, elem) = if trivial {
                (None, 0)
            } else {
                let (s, o, elem) = symmetry.canonicalize_traced(&at.0, &at.1, &trace);
                (Some((s, o, at.2)), elem)
            };
            let key = canon.as_ref().unwrap_or(&at);
            // The one identity query per transition: a duplicate is a store
            // hit = one revisit, and the fingerprint finds it on the stack.
            let Inserted { new, fp, token } = {
                let _span = trace.span(Phase::StoreLookup);
                store.insert_hashed(key)
            };
            if !new {
                if let Some(entry) = on_stack.find(fp, |i| stack[i].key() == key) {
                    // Cycle proviso: the successor closes a cycle into the
                    // stack (exactly, or modulo a symmetry permutation) — a
                    // reduced expansion may not be left around it.
                    let top = stack.last_mut().expect("a revisit has a source");
                    if top.reduced {
                        top.explore.append(&mut top.pruned);
                        top.reduced = false;
                        stats.proviso_expansions += 1;
                    }
                    if let Some(cx) = mode.back_edge(&stack, entry, elem) {
                        break 'search Verdict::Violated(Box::new(cx));
                    }
                } else {
                    let top = stack.last().expect("a revisit has a source");
                    mode.cross_edge(top, key.2, token);
                }
                stats.revisits += 1;
                trace.add(Counter::Revisits, 1);
                continue;
            }
            stats.states += 1;
            trace.add(Counter::States, 1);

            let enabled = {
                let _span = trace.span(Phase::Expansion);
                enabled_instances(spec, &at.0)
            };
            let note = match mode.first_visit(&stack, &at, token, &enabled) {
                Visit::Expand(note) => note,
                Visit::Prune => continue,
                Visit::Violated(cx) => break 'search Verdict::Violated(Box::new(cx)),
            };
            if stats.states > config.max_states {
                break 'search Verdict::LimitReached {
                    what: format!("state limit of {}", config.max_states),
                };
            }
            if let Some(limit) = config.time_limit.filter(|l| start.elapsed() > *l) {
                break 'search Verdict::LimitReached {
                    what: format!("time limit of {limit:?}"),
                };
            }
            stats.expansions += 1;
            trace.add(Counter::Expansions, 1);
            on_stack.insert(fp, stack.len());
            stack.push(make_frame(
                spec,
                reducer,
                &mut stats,
                &trace,
                at,
                canon,
                (fp, elem),
                enabled,
                note,
            ));
        }

        match mode.end(&trace) {
            End::Verified => Verdict::Verified,
            End::Violated(cx) => Verdict::Violated(Box::new(cx)),
            End::ExactRerun(fresh) => {
                // The re-run gets what is left of the caller's wall-clock
                // budget and its own trace run; close this one first so the
                // NDJSON stream stays a sequence of complete runs.
                let spent = start.elapsed();
                let mut exact = config.clone();
                if let Some(limit) = config.time_limit {
                    let Some(remaining) = limit.checked_sub(spent) else {
                        break 'search Verdict::LimitReached {
                            what: format!("time limit of {limit:?}"),
                        };
                    };
                    exact.time_limit = Some(remaining);
                }
                trace.finish("fallback");
                let no_symmetry: Arc<dyn Symmetry<S, M, O>> = Arc::new(NoSymmetry);
                let mut report =
                    search(spec, initial_observer, reducer, &no_symmetry, &exact, fresh);
                report.stats.elapsed += spent;
                report.strategy = format!("{strategy} (scc fallback: {})", report.strategy);
                return report;
            }
        }
    };

    stats.elapsed = start.elapsed();
    let store_stats = store.stats();
    let label = if trivial {
        store.name()
    } else {
        mp_store::canonical_label(store.name())
    };
    stats.record_store(label, store_stats);
    stats.phases = trace.phase_times();
    // No level structure here, so memory gauges are sampled once at the end
    // (peak == final for a grow-only store).
    if trace.is_enabled() {
        let bytes = store_stats.approx_bytes as u64;
        trace.sample_gauge(Gauge::StoreBytes, bytes);
        trace.sample_gauge(Gauge::CanonicalCacheBytes, if trivial { 0 } else { bytes });
        trace.sample_gauge(Gauge::ParentLogBytes, mode.heap_bytes() as u64);
    }
    trace.finish(match &verdict {
        Verdict::Verified => "verified",
        Verdict::Violated(_) => "violated",
        Verdict::LimitReached { .. } => "limit",
    });
    RunReport {
        verdict,
        stats,
        strategy,
    }
}

/// The invariant check: every first visit evaluates the invariant (and,
/// when asked, reports a state with nothing enabled as a deadlock).
struct Safety<'a, S, M: Ord, O> {
    spec: &'a ProtocolSpec<S, M>,
    invariant: &'a Invariant<S, M, O>,
    check_deadlocks: bool,
}

impl<S: LocalState, M: Message, O> Mode<S, M, O> for Safety<'_, S, M, O> {
    const ENGINE: &'static str = "stateful-dfs";
    type Tag = ();
    type Note = ();

    fn property_name(&self) -> &str {
        self.invariant.name()
    }

    fn initial_tag(&self, _: &GlobalState<S, M>, _: &O) {}

    fn step(&self, (): (), _: &GlobalState<S, M>, _: &O) {}

    fn first_visit(
        &mut self,
        stack: &[Frame<S, M, O, Self>],
        at: &Key<S, M, O, ()>,
        _token: u64,
        enabled: &[TransitionInstance<M>],
    ) -> Visit<()> {
        let reason = match self.invariant.evaluate(&at.0, &at.1) {
            PropertyStatus::Violated(reason) => reason,
            PropertyStatus::Holds if !(self.check_deadlocks && enabled.is_empty()) => {
                return Visit::Expand(());
            }
            PropertyStatus::Holds if stack.is_empty() => "deadlock in the initial state".into(),
            PropertyStatus::Holds => "deadlock: no transition enabled".into(),
        };
        let (name, steps) = (self.invariant.name(), path(stack));
        Visit::Violated(Counterexample::new(self.spec, name, reason, &steps, &at.0))
    }
}

/// Runs a stateful depth-first search and returns the report.
///
/// Dispatches on the property class: a safety property runs the core
/// with the invariant check; liveness properties (termination / leads-to)
/// run it with the fairness-aware lasso detector of [`crate::liveness`].
pub fn run_stateful_dfs<S, M, O>(
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
    let Some(invariant) = property.as_safety() else {
        return run_liveness_dfs(spec, property, initial_observer, reducer, symmetry, config);
    };
    let mode = Safety {
        spec,
        invariant,
        check_deadlocks: config.check_deadlocks,
    };
    search(spec, initial_observer, reducer, symmetry, config, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::{below, independent, toggler_and_mover, verify, Tok};
    use crate::{Checker, NullObserver};
    use mp_model::ProcessId;
    use mp_store::StoreConfig;

    #[test]
    fn unreduced_dfs_counts_the_full_product() {
        // 3 processes × 2 steps each: (2+1)^3 = 27 states.
        let report = verify(&independent(3, 2), CheckerConfig::default());
        assert!(report.verdict.is_verified());
        assert_eq!(report.stats.states, 27);
    }

    #[test]
    fn spor_dfs_explores_fewer_states() {
        let spec = independent(3, 2);
        let report = Checker::new(&spec, Invariant::always_true("true"))
            .spor()
            .run();
        assert!(report.verdict.is_verified());
        // Fully independent: one linearisation suffices => 7 states on a line.
        assert_eq!(report.stats.states, 7);
    }

    #[test]
    fn all_store_backends_agree_on_the_state_count() {
        for store in [
            StoreConfig::Exact,
            StoreConfig::sharded(),
            StoreConfig::fingerprint(64),
        ] {
            let config = CheckerConfig::default().with_store(store);
            let report = verify(&independent(3, 2), config);
            assert!(report.verdict.is_verified(), "{store} failed");
            assert_eq!(report.stats.states, 27, "{store} state count");
            assert_eq!(
                report.stats.store_hits, report.stats.revisits,
                "{store} hits"
            );
            assert!(report.stats.store_bytes > 0, "{store} bytes");
        }
    }

    #[test]
    fn violation_is_reported_with_path() {
        let report = Checker::new(&independent(2, 3), below(3)).run();
        let cx = report.verdict.counterexample().expect("violation expected");
        assert_eq!(
            cx.len(),
            3,
            "shortest possible path has 3 steps; DFS found {}",
            cx.len()
        );
        assert!(cx.reason.contains("reached 3"));
    }

    #[test]
    fn initial_state_violation_gives_empty_counterexample() {
        let report = Checker::new(&independent(1, 1), below(0)).run();
        let cx = report.verdict.counterexample().unwrap();
        assert!(cx.is_empty());
        // Store stats are recorded even on the initial-state early return.
        assert_eq!(report.stats.store_backend, "exact");
    }

    #[test]
    fn state_limit_stops_the_search() {
        let config = CheckerConfig::default().with_max_states(5);
        let report = verify(&independent(3, 3), config);
        assert!(matches!(report.verdict, Verdict::LimitReached { .. }));
        assert!(report.stats.states <= 6);
    }

    #[test]
    fn deadlock_detection_reports_terminal_states() {
        let config = CheckerConfig::default().with_deadlock_check(true);
        let report = verify(&independent(1, 1), config);
        let cx = report.verdict.counterexample().expect("a deadlock");
        assert!(cx.reason.contains("deadlock"));
    }

    /// Without the cycle proviso a naive reduction could postpone the mover
    /// around the toggle cycle forever.
    #[test]
    fn cycle_proviso_keeps_search_sound_on_cycles() {
        let spec = toggler_and_mover();
        let property: Invariant<u8, Tok, NullObserver> =
            Invariant::new("mover-never-moves", |s: &GlobalState<u8, Tok>, _| {
                if *s.local(ProcessId(1)) == 1 {
                    Err("mover moved".into())
                } else {
                    Ok(())
                }
            });
        let report = Checker::new(&spec, property).spor().run();
        assert!(
            report.verdict.is_violated(),
            "the reduced search must still find the mover's step"
        );
    }
}
