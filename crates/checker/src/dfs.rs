//! The one depth-first core.
//!
//! This is the workhorse engine of the reproduction (the analogue of
//! MP-Basset's stateful search inside JPF, and of Basset's stateless one).
//! `search` is the only depth-first loop of the crate: it keeps one stack
//! of `Frame`s, steps through the run's `Successors` (the configured
//! [`Reducer`] picks what to explore) and asks its **memory** once per
//! transition whether it has met the successor before. Each iteration pops
//! an exhausted frame or executes the top frame's next instance, encodes
//! the successor's key and looks it up, and then the answer decides:
//!
//! * *met, on the stack* — a **back edge**. The stack (cycle) proviso
//!   fires unconditionally: a frame that was expanded with a reduced set is
//!   re-expanded fully, so no enabled transition is ignored around a cycle
//!   (the "ignoring problem" of partial-order reduction);
//! * *met, not on the stack* — a **cross edge**;
//! * *new* — a **first visit**: limits are checked and a frame is pushed.
//!
//! **Memory.** What the search remembers of a state is the only difference
//! between stateful and stateless depth-first search. The *store* memory is
//! the visited store of [`CheckerConfig::store`] (the stateful searches).
//! The *path* memory meets a successor again only if it `==` the key of a
//! frame on the stack (stateless liveness, and stateless safety under
//! symmetry, which cuts a branch whose orbit is on its path). The *nothing*
//! memory meets every successor for the first time and encodes or hashes
//! no state (stateless safety). The last two follow cycles around, so they
//! stop at [`CheckerConfig::max_depth`].
//!
//! What those three events and the end of the search *mean* is the only
//! thing the property classes differ in, and they say it through a
//! `Mode`: the invariant check ([`run_stateful_dfs`], below) evaluates the
//! invariant at every first visit; the lasso detector of [`crate::liveness`]
//! judges cycles at back edges, records cross edges and checks strongly
//! connected components at the end.
//!
//! **Dynamic POR** is a hook of the invariant check under the nothing
//! memory. [`DporSeed`] explores every enabled instance of a frame's first
//! enabled process and prunes the rest, so a frame's unexplored instances
//! are DPOR's backtrack set minus its done set; a race schedules one of the
//! pruned ones. DPOR keeps no path of its own: a frame's note holds the
//! recipients of the step it took, and the race check reads each step off
//! the stack as an [`ExecutedStep`] view.
//!
//! **Identity.** The frames' keys lie back to back in one byte stack. The
//! store hands back the 64-bit fingerprint it computed for the insert and
//! its own token for the key ([`StateStoreBackend::insert_bytes`]). The
//! stack is indexed by the fingerprint (`FpIndex`) and a match is confirmed
//! against the frame's key bytes, so on-stack membership is exact under every
//! backend — with a fingerprint store only the *visited* set is
//! probabilistic, never the proviso or a reported cycle. What a mode
//! remembers of a state that has left the stack it files under the token.
//! No state is hashed or cloned a second time to find out where the search
//! has met it before.
//!
//! **Symmetry.** With a non-trivial [`Symmetry`], exploration stays
//! concrete but memory and stack are keyed by canonical orbit
//! representatives, encoded straight from the concrete state and never
//! built: a successor whose orbit was already visited is pruned
//! (a symmetric sibling's subtree covers it), and one whose orbit is on the
//! stack closes a cycle *in the quotient graph*. Counterexample paths remain
//! fully concrete.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use mp_model::{
    Encode, GlobalState, LocalState, Message, ProcessId, ProtocolSpec, TransitionInstance,
};
use mp_por::{latest_racing_step, DporSeed, ExecutedStep, NoReduction, Reducer, Reduction};
use mp_store::{Inserted, StateStoreBackend, StoreConfig, StoreImpl};
use mp_symmetry::{NoSymmetry, Symmetry};
use mp_trace::{Counter, Gauge, Phase, TraceHandle};

use crate::fp_index::FpIndex;
use crate::successors::Successors;
use crate::{
    liveness::{run_liveness_dfs, stateless_lasso},
    CheckerConfig, Counterexample, ExplorationStats, Invariant, Observer, Property, PropertyStatus,
    RunReport, Verdict,
};

/// A product state: protocol state, observer and the mode's path-dependent
/// tag. This is the visited-store key; with symmetry on, the stored key is
/// the canonical representative of `(state, observer)` with the same tag.
pub(crate) type Key<S, M, O, T> = (GlobalState<S, M>, O, T);

/// What the core remembers of the states it has met (see the module docs).
pub(crate) enum Memory<K> {
    /// The visited store, and the stack indexed by the fingerprints it
    /// hands back.
    Store(StoreImpl<K>, FpIndex),
    /// The stack alone.
    Path,
    /// Nothing.
    Nothing,
}

impl<K: Encode> Memory<K> {
    /// The visited store `config` selects.
    pub(crate) fn store(config: &StoreConfig) -> Self {
        Memory::Store(config.build(), FpIndex::default())
    }

    /// The one question per transition: has the search met the key
    /// encoded as `key`, and is it on the stack? `depth` frames are, and
    /// `is_at(i)` says whether `key` is the key of the `i`-th. Without a
    /// store, fingerprint and token are zero.
    fn meet(
        &self,
        key: &[u8],
        depth: usize,
        is_at: impl Fn(usize) -> bool,
        trace: &TraceHandle,
    ) -> (Inserted, Option<usize>) {
        let entry = match self {
            Memory::Store(store, on_stack) => {
                let inserted = {
                    let _span = trace.span(Phase::StoreLookup);
                    store.insert_bytes(key)
                };
                let entry = if inserted.new {
                    None
                } else {
                    on_stack.find(inserted.fp, is_at)
                };
                return (inserted, entry);
            }
            Memory::Path => (0..depth).find(|&i| is_at(i)),
            Memory::Nothing => None,
        };
        let new = entry.is_none();
        (
            Inserted {
                new,
                fp: 0,
                token: 0,
            },
            entry,
        )
    }

    /// How many frames the stack may hold: a store meets every cycle.
    fn depth_limit(&self, config: &CheckerConfig) -> usize {
        match self {
            Memory::Store(..) => usize::MAX,
            Memory::Path | Memory::Nothing => config.max_depth,
        }
    }
}

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
/// docs). The core owns the stack, the memory, the proviso, the limits and
/// the statistics; a mode only interprets the events.
pub(crate) trait Mode<S, M: Ord, O>: Sized {
    /// Engine name, the head of a stateful run's strategy label.
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

    /// The top frame of `stack` just executed its [`Frame::taken`], sending
    /// to `sent_to`; a mode that needs them later keeps them in that
    /// frame's note (DPOR does). Every hook that steps or reports gets the
    /// run's `successors`.
    fn executed(
        &mut self,
        _stack: &mut [Frame<S, M, O, Self>],
        _sent_to: Vec<ProcessId>,
        _successors: &Successors<'_, S, M, O>,
    ) {
    }

    /// `at` was met for the first time, under the store's `token`; `stack`
    /// is the path to it ([`path`]) and `enabled` everything enabled in it.
    fn first_visit(
        &mut self,
        stack: &[Frame<S, M, O, Self>],
        at: &Key<S, M, O, Self::Tag>,
        token: u64,
        enabled: &[TransitionInstance<M>],
        successors: &Successors<'_, S, M, O>,
    ) -> Visit<Self::Note>;

    /// The top frame's last instance led to the product state that
    /// `stack[entry]` is on the stack with, reached through group element
    /// `elem`.
    fn back_edge(
        &mut self,
        _stack: &[Frame<S, M, O, Self>],
        _entry: usize,
        _elem: usize,
        _successors: &Successors<'_, S, M, O>,
    ) -> Option<Counterexample> {
        None
    }

    /// `top`'s last instance led to a product state tagged `tag` that the
    /// store knows as `token` and that is not on the stack.
    fn cross_edge(&mut self, _top: &Frame<S, M, O, Self>, _tag: Self::Tag, _token: u64) {}

    /// The stack ran empty without a violation.
    fn end(&mut self, _successors: &Successors<'_, S, M, O>) -> End<Self> {
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
    /// Where the encoding of its key lies in the search's key stack.
    key: Range<usize>,
    /// The store's fingerprint of that key.
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
    /// The instance last executed from this state: the one that leads to
    /// the frame above, or — on the top frame — to the successor at hand.
    pub(crate) fn taken(&self) -> &TransitionInstance<M> {
        &self.explore[self.ordinal()]
    }

    /// Where [`Frame::taken`] stands among the state's choices
    /// ([`Successors::choices`]) — under every reducer but DPOR, whose
    /// scheduling reorders what is left to explore.
    pub(crate) fn ordinal(&self) -> usize {
        self.next - 1
    }
}

/// The instances executed along `stack`, each frame's [`Frame::taken`].
pub(crate) fn path<S, M: Ord + Clone, O, H: Mode<S, M, O>>(
    stack: &[Frame<S, M, O, H>],
) -> Vec<TransitionInstance<M>> {
    stack.iter().map(|f| f.taken().clone()).collect()
}

/// The strategy label of a stateful run: the engine, the reducer and any
/// symmetry.
pub(crate) fn label<S, M: Ord, O>(
    engine: &str,
    reducer: &str,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
) -> String {
    if symmetry.is_trivial() {
        format!("{engine}+{reducer}")
    } else {
        format!("{engine}+{reducer}+{}", symmetry.label())
    }
}

/// Runs the depth-first core under `mode`, remembering what `memory`
/// does, and returns the report labelled `strategy` — by default the
/// engine, the reducer and any symmetry.
#[allow(clippy::too_many_arguments)] // a search genuinely has this many inputs
pub(crate) fn search<S, M, O, H>(
    spec: &ProtocolSpec<S, M>,
    initial_observer: &O,
    reducer: &dyn Reducer<S, M>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    config: &CheckerConfig,
    mut memory: Memory<Key<S, M, O, H::Tag>>,
    strategy: Option<String>,
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
    let strategy = strategy.unwrap_or_else(|| label(H::ENGINE, reducer.name(), symmetry));
    let trace = config
        .trace
        .begin_run(spec.name(), &strategy, mode.property_name());
    let successors = Successors::new(spec, reducer, symmetry, trace.handle());
    // The nothing memory compares no keys, so it encodes none.
    let keyed = !matches!(memory, Memory::Nothing);
    let max_depth = memory.depth_limit(config);
    let mut stack: Vec<Frame<S, M, O, H>> = Vec::new();
    // The frames' keys, encoded back to back; the key of the product state
    // at hand follows the top frame's.
    let mut keys: Vec<u8> = Vec::new();

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
                        if let Memory::Store(_, on_stack) = &mut memory {
                            on_stack.remove(frame.fp, depth - 1);
                        }
                        continue;
                    }
                    let instance = &top.explore[top.next];
                    let ((state, observer), sent_to) =
                        successors.execute(&top.at.0, &top.at.1, instance);
                    let tag = mode.step(top.at.2, &state, &observer);
                    top.next += 1;
                    stats.transitions_executed += 1;
                    trace.add(Counter::Transitions, 1);
                    mode.executed(&mut stack, sent_to, &successors);
                    (state, observer, tag)
                }
            };

            // Membership is judged on the key — under symmetry the encoded
            // canonical orbit representative; exploration stays concrete.
            let here = stack.last().map_or(0, |top| top.key.end);
            keys.truncate(here);
            let elem = if keyed {
                let elem = successors.key(&at.0, &at.1, &mut keys);
                at.2.encode(&mut keys);
                elem
            } else {
                0
            };
            let key = &keys[here..];
            // The one identity query per transition: a duplicate is one
            // revisit, and the memory knows whether it is on the stack.
            let is_at = |i: usize| keys[stack[i].key.clone()] == *key;
            let (Inserted { new, fp, token }, on_stack) =
                memory.meet(key, stack.len(), is_at, &trace);
            if !new {
                // Counted first: a lasso closed at this edge ends the search.
                stats.revisits += 1;
                if let Some(entry) = on_stack {
                    // Cycle proviso: the successor closes a cycle into the
                    // stack (exactly, or modulo a symmetry permutation) — a
                    // reduced expansion may not be left around it.
                    let top = stack.last_mut().expect("a revisit has a source");
                    if top.reduced {
                        top.explore.append(&mut top.pruned);
                        top.reduced = false;
                        stats.proviso_expansions += 1;
                    }
                    if let Some(cx) = mode.back_edge(&stack, entry, elem, &successors) {
                        break 'search Verdict::Violated(Box::new(cx));
                    }
                } else {
                    let top = stack.last().expect("a revisit has a source");
                    mode.cross_edge(top, at.2, token);
                }
                continue;
            }
            stats.states += 1;
            trace.add(Counter::States, 1);

            let enabled = successors.enabled(&at.0);
            let note = match mode.first_visit(&stack, &at, token, &enabled, &successors) {
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
            if stack.len() >= max_depth {
                break 'search Verdict::LimitReached {
                    what: format!("depth limit of {max_depth}"),
                };
            }
            stats.expansions += 1;
            if let Memory::Store(_, on_stack) = &mut memory {
                on_stack.insert(fp, stack.len());
            }
            let Reduction {
                explore,
                pruned,
                reduced,
            } = successors.reduce(&at.0, enabled);
            stats.reduced_states += usize::from(reduced);
            stack.push(Frame {
                at,
                key: here..keys.len(),
                fp,
                elem,
                explore,
                pruned,
                next: 0,
                reduced,
                note,
            });
        }

        match mode.end(&successors) {
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
                let mut report = search(
                    spec,
                    initial_observer,
                    reducer,
                    &no_symmetry,
                    &exact,
                    Memory::store(&config.store),
                    None,
                    fresh,
                );
                report.stats.elapsed += spent;
                report.strategy = format!("{strategy} (scc fallback: {})", report.strategy);
                return report;
            }
        }
    };

    stats.elapsed = start.elapsed();
    if let Memory::Store(store, _) = &memory {
        let store_stats = store.stats();
        let trivial = successors.symmetry.is_none();
        let label = if trivial {
            store.name()
        } else {
            mp_store::canonical_label(store.name())
        };
        stats.record_store(label, store_stats);
        // No level structure here, so memory gauges are sampled once at the
        // end (peak == final for a grow-only store).
        if trace.is_enabled() {
            let bytes = store_stats.approx_bytes as u64;
            trace.sample_gauge(Gauge::StoreBytes, bytes);
            trace.sample_gauge(Gauge::CanonicalCacheBytes, if trivial { 0 } else { bytes });
            trace.sample_gauge(Gauge::ParentLogBytes, mode.heap_bytes() as u64);
        }
    } else {
        stats.store_backend = "none".to_string();
    }
    stats.phases = trace.phase_times();
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
/// when asked, reports a state with nothing enabled as a deadlock). Under
/// DPOR each frame's note holds the recipients of the step it took, so the
/// race check reads every step of the execution off the stack.
struct Safety<'a, S, M: Ord, O> {
    invariant: &'a Invariant<S, M, O>,
    check_deadlocks: bool,
    dpor: bool,
}

impl<S: LocalState, M: Message, O: Observer<S, M>> Mode<S, M, O> for Safety<'_, S, M, O> {
    const ENGINE: &'static str = "stateful-dfs";
    type Tag = ();
    type Note = Vec<ProcessId>;

    fn property_name(&self) -> &str {
        self.invariant.name()
    }

    fn initial_tag(&self, _: &GlobalState<S, M>, _: &O) {}

    fn step(&self, (): (), _: &GlobalState<S, M>, _: &O) {}

    /// Under DPOR: records `sent_to` on the top frame and schedules the
    /// other order in the frame whose step races with the one just taken.
    fn executed(
        &mut self,
        stack: &mut [Frame<S, M, O, Self>],
        sent_to: Vec<ProcessId>,
        successors: &Successors<'_, S, M, O>,
    ) {
        if !self.dpor {
            return;
        }
        let _span = successors.trace.span(Phase::StubbornSet);
        let latest = stack.len() - 1;
        stack[latest].note = sent_to;
        let spec = successors.spec;
        let step = |i: usize| {
            let frame = &stack[i];
            let instance = frame.taken();
            ExecutedStep {
                instance,
                sent_to: &frame.note,
                annotations: spec.transition(instance.transition).annotations(),
            }
        };
        if let Some(racing) = latest_racing_step(step, latest) {
            // The step `stack[racing]` took: the other order must be
            // explored from there too.
            let process = stack[latest].taken().process;
            schedule(&mut stack[racing], process);
        }
    }

    fn first_visit(
        &mut self,
        stack: &[Frame<S, M, O, Self>],
        at: &Key<S, M, O, ()>,
        _token: u64,
        enabled: &[TransitionInstance<M>],
        successors: &Successors<'_, S, M, O>,
    ) -> Visit<Self::Note> {
        let reason = match self.invariant.evaluate(&at.0, &at.1) {
            PropertyStatus::Violated(reason) => reason,
            PropertyStatus::Holds if !(self.check_deadlocks && enabled.is_empty()) => {
                return Visit::Expand(Vec::new());
            }
            PropertyStatus::Holds if stack.is_empty() => "deadlock in the initial state".into(),
            PropertyStatus::Holds => "deadlock: no transition enabled".into(),
        };
        let (name, steps) = (self.invariant.name(), path(stack));
        let spec = successors.spec;
        Visit::Violated(Counterexample::new(spec, name, reason, &steps, &at.0))
    }
}

/// DPOR: a later step of `process` races with the step `frame` took, so
/// `frame` must also run `process`'s first instance it has not run yet —
/// or, with nothing of `process` enabled there, everything. Scheduled
/// instances run in enabled-list order, which is transition order and,
/// among one transition's instances, the order `explore` and `pruned` keep
/// them in: a stable sort by transition restores it, and an instance of
/// `process` already scheduled was taken off `pruned` ahead of the rest.
fn schedule<S, M, O>(frame: &mut Frame<S, M, O, Safety<'_, S, M, O>>, process: ProcessId)
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let Frame {
        explore,
        pruned,
        next,
        ..
    } = frame;
    let of_process = |i: &TransitionInstance<M>| i.process == process;
    match pruned.iter().position(of_process) {
        // Each instance of `process` here ran or is scheduled.
        None if explore.iter().any(of_process) => return,
        None => explore.append(pruned),
        Some(first) => {
            let scheduled = explore[*next..].iter().find(|i| of_process(i));
            if scheduled.is_some_and(|i| i.transition <= pruned[first].transition) {
                return;
            }
            explore.push(pruned.remove(first));
        }
    }
    explore[*next..].sort_by_key(|i| i.transition);
}

/// Runs a stateful depth-first search and returns the report.
///
/// Dispatches on the property class: a safety property runs the core
/// with the invariant check; liveness properties (termination / leads-to)
/// run it with the fairness-aware lasso detector of [`crate::liveness`].
pub(crate) fn run_stateful_dfs<S, M, O>(
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
        invariant,
        check_deadlocks: config.check_deadlocks,
        dpor: false,
    };
    search(
        spec,
        initial_observer,
        reducer,
        symmetry,
        config,
        Memory::store(&config.store),
        None,
        mode,
    )
}

/// Runs the stateless search ([`crate::SearchStrategy::Stateless`]), with
/// Flanagan–Godefroid DPOR when `dpor` is `true`; the checker's reducer does
/// not apply. Safety runs under the nothing memory, which DPOR prunes
/// through [`DporSeed`] and the invariant check's hook. Liveness runs the
/// lasso detector under the path memory, fully expanded: DPOR tracks safety
/// races, not ignored cycles.
///
/// **Symmetry** cuts a branch whose orbit is already on the path — the path
/// memory over canonical keys. Every violating path has an
/// orbit-repetition-free witness (splice out the segment between the
/// repetition and map the suffix through the connecting permutation), so
/// the cut search still finds a violation iff one exists. DPOR installs
/// backtrack points in ancestors while exploring the subtree below them,
/// and a cut would drop the races inside it, so DPOR ignores symmetry, as
/// does the liveness search. The labels say so.
pub(crate) fn stateless_search<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    dpor: bool,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    config: &CheckerConfig,
) -> RunReport
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let mut strategy = String::from("stateless");
    let Some(invariant) = property.as_safety() else {
        strategy.push_str("-liveness");
        if dpor {
            strategy.push_str(" (dpor falls back to full expansion)");
        }
        if !symmetry.is_trivial() {
            strategy.push_str(" (symmetry ignored)");
        }
        return stateless_lasso(spec, property, initial_observer, config, strategy);
    };
    let mode = Safety {
        invariant,
        check_deadlocks: config.check_deadlocks,
        dpor,
    };
    let (reducer, memory): (&dyn Reducer<S, M>, _) = if dpor {
        strategy.push_str("+dpor");
        if !symmetry.is_trivial() {
            strategy.push_str(" (symmetry ignored)");
        }
        (&DporSeed, Memory::Nothing)
    } else if symmetry.is_trivial() {
        (&NoReduction, Memory::Nothing)
    } else {
        strategy = format!("{strategy}+{}", symmetry.label());
        (&NoReduction, Memory::Path)
    };
    search(
        spec,
        initial_observer,
        reducer,
        symmetry,
        config,
        memory,
        Some(strategy),
        mode,
    )
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
