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
//! folded by [`Property::step_pending`]. The stateful engine is a DFS with
//! an **on-stack cycle detector**: every cycle of a directed graph contains
//! a back edge, so a DFS that checks each successor against the stack finds
//! a cycle whenever one exists. A detected cycle is a counterexample iff
//!
//! 1. every product state on it carries the obligation bit, and
//! 2. it is *fair* under the property's [`Fairness`] policy: no transition
//!    instance that fairness requires (by default, any non-environment
//!    instance) is enabled in every state of the cycle yet never executed
//!    in it. Environment (fault) transitions are exempt by default, so a
//!    crash is never "unfairly required" to happen.
//!
//! **Partial-order reduction.** Running with a reducer, the search applies
//! the cycle/ignoring proviso unconditionally: whenever a reduced expansion
//! closes a cycle back into the DFS stack, the state is re-expanded with
//! the pruned instances ([`mp_por::Reduction::pruned`]) added back, so no
//! enabled transition is ignored around a cycle. Soundness additionally
//! requires the transitions that can change the property's trigger/goal
//! predicates to be annotated *visible* (as the bundled protocols do);
//! the integration tests assert that SPOR on and off agree on every
//! liveness verdict across the evaluation protocols.
//!
//! **Completeness.** The on-stack detector alone is sound but not
//! complete: the stack segment closed by a back edge is the DFS *tree*
//! path, which can route through a discharged (goal) state even though a
//! different, all-pending cycle reaches the same product state via a cross
//! edge to an already-visited node. The stateful search therefore runs a
//! second pass when the DFS finds nothing: it records the **pending
//! subgraph** (obligation-carrying product states and the edges between
//! them) during the search and then checks its strongly connected
//! components. An SCC admits a fair cycle iff every instance the fairness
//! policy requires that is enabled in *every* state of the SCC is executed
//! by some edge inside it — exact for weak fairness, because the
//! all-states/all-required-edges covering walk is then itself a fair
//! cycle, and conversely a globally-enabled-but-never-executed instance
//! starves every cycle the SCC contains. The pass reconstructs a concrete
//! lasso (stem via a product BFS, cycle via a covering walk inside the
//! SCC), so reported counterexamples stay replayable.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use mp_store::StateStoreBackend;

use mp_model::{
    enabled_instances, execute_enabled, GlobalState, LocalState, Message, ProtocolSpec,
    TransitionInstance,
};
use mp_por::Reducer;
use mp_symmetry::{NoSymmetry, Symmetry};
use mp_trace::{Counter, Gauge, Phase};

use crate::{
    CheckerConfig, Counterexample, ExplorationStats, Fairness, Observer, Property, PropertyClass,
    RunReport, Verdict,
};

struct Frame<S, M: Ord, O> {
    state: GlobalState<S, M>,
    observer: O,
    /// `true` while a goal state is still owed on this path.
    pending: bool,
    /// The key this frame occupies in the `on_stack` map: the concrete
    /// product key, or its canonical orbit representative when symmetry
    /// reduction is active.
    stack_key: (GlobalState<S, M>, O, bool),
    /// Index of the symmetry-group element that canonicalizes this frame's
    /// concrete state (`0` = identity; always `0` when symmetry is off).
    /// Cycles that close modulo symmetry compose these to recover the
    /// concrete closing permutation.
    elem: usize,
    /// Instance that led into this state (`None` for the initial state).
    incoming: Option<TransitionInstance<M>>,
    /// Every enabled instance in this state (pre-reduction); the fairness
    /// check of the cycle detector intersects these along the cycle.
    all_enabled: Vec<TransitionInstance<M>>,
    /// Instances chosen by the reducer, explored in order.
    explore: Vec<TransitionInstance<M>>,
    /// Instances pruned by the reducer, re-added if the proviso fires.
    pruned: Vec<TransitionInstance<M>>,
    next: usize,
    reduced: bool,
    /// Index of this state in the recorded pending subgraph (`Some` iff
    /// `pending`); phase 2 runs SCC detection over that graph.
    node: Option<usize>,
}

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
    if fairness == Fairness::Unfair {
        return true;
    }
    let (first, rest) = enabled_per_state
        .split_first()
        .expect("a cycle has at least one state");
    // Candidates: instances the policy insists on, enabled at the entry...
    let mut starved: Vec<&TransitionInstance<M>> = first
        .iter()
        .filter(|i| fairness.requires(spec.transition(i.transition).annotations().is_environment))
        .collect();
    // ...and in every other state of the cycle...
    for enabled in rest {
        starved.retain(|i| enabled.contains(i));
    }
    // ...that the cycle never executes.
    starved.retain(|i| !executed.contains(i));
    starved.is_empty()
}

/// [`cycle_fair`] applied to a DFS stack segment plus its closing edge.
fn stack_cycle_is_fair<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    frames: &[Frame<S, M, O>],
    closing: &TransitionInstance<M>,
    fairness: Fairness,
) -> bool
where
    S: LocalState,
    M: Message,
{
    let enabled: Vec<&[TransitionInstance<M>]> =
        frames.iter().map(|f| f.all_enabled.as_slice()).collect();
    let mut executed: Vec<&TransitionInstance<M>> = frames[1..]
        .iter()
        .filter_map(|f| f.incoming.as_ref())
        .collect();
    executed.push(closing);
    cycle_fair(spec, fairness, &enabled, &executed)
}

/// The pending subgraph recorded during the stateful search: one node per
/// obligation-carrying product state, with its full (pre-reduction) enabled
/// set and the explored edges to other pending product states. Nodes are
/// `Arc`-shared between the node list and the lookup map, so each pending
/// product state is cloned exactly once.
type PendingNode<S, M, O> = std::sync::Arc<(GlobalState<S, M>, O)>;

struct PendingGraph<S, M: Ord, O> {
    nodes: Vec<PendingNode<S, M, O>>,
    enabled: Vec<Vec<TransitionInstance<M>>>,
    edges: Vec<Vec<(usize, TransitionInstance<M>)>>,
    /// Node lookup, keyed by the *canonical* `(state, observer)` pair (the
    /// concrete pair itself when symmetry is off) — cross edges are resolved
    /// by the same key the visited store uses.
    ids: HashMap<(GlobalState<S, M>, O), usize>,
}

impl<S, M, O> PendingGraph<S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    fn new() -> Self {
        PendingGraph {
            nodes: Vec::new(),
            enabled: Vec::new(),
            edges: Vec::new(),
            ids: HashMap::new(),
        }
    }

    fn add_node(
        &mut self,
        state: &GlobalState<S, M>,
        observer: &O,
        canonical: (GlobalState<S, M>, O),
        enabled: &[TransitionInstance<M>],
    ) -> usize {
        let id = self.nodes.len();
        let node = std::sync::Arc::new((state.clone(), observer.clone()));
        self.nodes.push(node);
        self.enabled.push(enabled.to_vec());
        self.edges.push(Vec::new());
        self.ids.insert(canonical, id);
        id
    }

    /// Looks up the node of a revisited pending product state by its
    /// canonical key. Returns `None` when the state has no node — possible
    /// only with a hash-compaction (fingerprint) store, where a collision
    /// can report an unseen state as visited; the edge is then silently
    /// dropped, which keeps the (already documented)
    /// probabilistic-`Verified` contract of that backend instead of
    /// panicking.
    fn try_id_of(&self, canonical: &(GlobalState<S, M>, O)) -> Option<usize> {
        self.ids.get(canonical).copied()
    }

    fn add_edge(&mut self, from: usize, to: usize, instance: TransitionInstance<M>) {
        self.edges[from].push((to, instance));
    }

    /// Returns `true` if some strongly connected component of the recorded
    /// subgraph contains an internal edge (i.e. a cycle candidate exists).
    fn has_cycle_candidate(&self) -> bool {
        tarjan_sccs(self).into_iter().any(|scc| {
            let member: HashSet<usize> = scc.iter().copied().collect();
            scc.iter()
                .any(|&v| self.edges[v].iter().any(|(w, _)| member.contains(w)))
        })
    }
}

/// Iterative Tarjan SCC over the pending subgraph; returns the components.
fn tarjan_sccs<S, M: Ord, O>(graph: &PendingGraph<S, M, O>) -> Vec<Vec<usize>> {
    let n = graph.nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut scc_stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next-edge-offset) explicit DFS stack.
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut edge)) = work.last_mut() {
            if *edge == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                scc_stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&(w, _)) = graph.edges[v].get(*edge) {
                *edge += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut component = Vec::new();
                    while let Some(w) = scc_stack.pop() {
                        on_stack[w] = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(component);
                }
            }
        }
    }
    sccs
}

/// Shortest instance-labelled path from `from` to a node satisfying `done`,
/// restricted to `allowed` nodes of the pending subgraph. Returns the node
/// reached and the edge path.
fn bfs_within<S: LocalState, M: Message, O>(
    graph: &PendingGraph<S, M, O>,
    allowed: &[bool],
    from: usize,
    done: impl Fn(usize) -> bool,
) -> Option<(usize, Vec<TransitionInstance<M>>)> {
    if done(from) {
        return Some((from, Vec::new()));
    }
    let mut parent: HashMap<usize, (usize, TransitionInstance<M>)> = HashMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for (w, instance) in &graph.edges[v] {
            if !allowed[*w] || *w == from || parent.contains_key(w) {
                continue;
            }
            parent.insert(*w, (v, instance.clone()));
            if done(*w) {
                let mut path = Vec::new();
                let mut at = *w;
                while at != from {
                    let (prev, inst) = parent[&at].clone();
                    path.push(inst);
                    at = prev;
                }
                path.reverse();
                return Some((*w, path));
            }
            queue.push_back(*w);
        }
    }
    None
}

/// Phase 2 of the stateful search: SCC-based fair-cycle detection over the
/// recorded pending subgraph, run when the on-stack detector found nothing.
/// Returns the reconstructed lasso of the first violating component, if any.
fn pending_scc_violation<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    graph: &PendingGraph<S, M, O>,
    fairness: Fairness,
) -> Option<Counterexample>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    for scc in tarjan_sccs(graph) {
        let mut member = vec![false; graph.nodes.len()];
        for &v in &scc {
            member[v] = true;
        }
        // Internal edges: the cycles of this component are built from them.
        let internal: Vec<(usize, usize, &TransitionInstance<M>)> = scc
            .iter()
            .flat_map(|&v| {
                graph.edges[v]
                    .iter()
                    .filter(|(w, _)| member[*w])
                    .map(move |(w, i)| (v, *w, i))
            })
            .collect();
        if internal.is_empty() {
            continue; // trivial component: no cycle at all
        }
        let enabled: Vec<&[TransitionInstance<M>]> =
            scc.iter().map(|&v| graph.enabled[v].as_slice()).collect();
        let executed: Vec<&TransitionInstance<M>> = internal.iter().map(|&(_, _, i)| i).collect();
        if !cycle_fair(spec, fairness, &enabled, &executed) {
            // Some required instance is enabled everywhere in the component
            // but never executed inside it: every cycle in here is unfair.
            continue;
        }

        // A fair cycle exists: the covering walk that visits every state of
        // the component and executes one edge per required instance. Build
        // it by stitching BFS paths inside the component.
        let entry = scc[0];
        let mut cycle: Vec<TransitionInstance<M>> = Vec::new();
        let mut at = entry;
        let mut to_visit: Vec<usize> = scc.clone();
        // Required instances enabled in every component state, and one
        // internal edge executing each (they exist: the component is fair).
        let mut required_edges: Vec<(usize, usize, TransitionInstance<M>)> = {
            let mut candidates: Vec<&TransitionInstance<M>> = graph.enabled[entry]
                .iter()
                .filter(|i| {
                    fairness.requires(spec.transition(i.transition).annotations().is_environment)
                })
                .collect();
            for &v in &scc {
                candidates.retain(|i| graph.enabled[v].contains(i));
            }
            candidates
                .iter()
                .map(|c| {
                    let &(v, w, i) = internal
                        .iter()
                        .find(|(_, _, i)| *i == *c)
                        .expect("fair component executes every required instance");
                    (v, w, i.clone())
                })
                .collect()
        };
        loop {
            to_visit.retain(|&v| v != at);
            if let Some(pos) = required_edges.iter().position(|(v, _, _)| *v == at) {
                let (_, w, i) = required_edges.remove(pos);
                cycle.push(i);
                at = w;
                continue;
            }
            if let Some((reached, path)) = bfs_within(graph, &member, at, |v| {
                to_visit.contains(&v) || required_edges.iter().any(|(from, _, _)| *from == v)
            }) {
                cycle.extend(path);
                at = reached;
                continue;
            }
            break;
        }
        // Close the walk back to the entry state.
        if at != entry {
            let (_, path) = bfs_within(graph, &member, at, |v| v == entry)
                .expect("the component is strongly connected");
            cycle.extend(path);
        } else if cycle.is_empty() {
            // Single-node component: its cycle is a self-loop edge.
            cycle.push(internal[0].2.clone());
        }

        // Stem: product-graph BFS from the initial state to the entry node.
        let stem = stem_to(spec, property, initial_observer, graph, entry);
        return Some(Counterexample::lasso(
            spec,
            property.name(),
            violation_reason(property.class(), false, fairness),
            &stem,
            &cycle,
            &graph.nodes[entry].0,
        ));
    }
    None
}

/// Breadth-first path from the initial product state to the pending-graph
/// node `target`, re-executing the protocol (shortest stem for the lasso).
fn stem_to<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    graph: &PendingGraph<S, M, O>,
    target: usize,
) -> Vec<TransitionInstance<M>>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let goal = &graph.nodes[target];
    let initial = spec.initial_state();
    let observer = initial_observer.clone();
    let pending = property.initial_pending(&initial, &observer);
    let start_key = (initial, observer, pending);
    if pending && start_key.0 == goal.0 && start_key.1 == goal.1 {
        return Vec::new();
    }
    let mut visited: HashSet<(GlobalState<S, M>, O, bool)> = HashSet::from([start_key.clone()]);
    let mut parents: Vec<(usize, TransitionInstance<M>)> = Vec::new();
    let mut keys: Vec<(GlobalState<S, M>, O, bool)> = vec![start_key];
    let mut frontier = vec![0usize];
    while !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for &at in &frontier {
            let (state, observer, pending) = keys[at].clone();
            for instance in enabled_instances(spec, &state) {
                let next_state = execute_enabled(spec, &state, &instance);
                let next_observer = observer.update(spec, &state, &instance, &next_state);
                let next_pending = property.step_pending(pending, &next_state, &next_observer);
                let key = (next_state, next_observer, next_pending);
                if !visited.insert(key.clone()) {
                    continue;
                }
                let idx = keys.len();
                keys.push(key.clone());
                parents.push((at, instance));
                if next_pending && key.0 == goal.0 && key.1 == goal.1 {
                    // Reconstruct the path.
                    let mut path = Vec::new();
                    let mut cursor = idx;
                    while cursor != 0 {
                        let (prev, inst) = parents[cursor - 1].clone();
                        path.push(inst);
                        cursor = prev;
                    }
                    path.reverse();
                    return path;
                }
                next_frontier.push(idx);
            }
        }
        frontier = next_frontier;
    }
    unreachable!("every pending-graph node was reached during the search")
}

/// Runs the stateful liveness search: a depth-first search over
/// `(state, observer, obligation)` product states with an on-stack cycle
/// detector and the cycle/ignoring proviso for reduced expansions. Called by
/// every stateful engine when the property is a liveness property.
///
/// **Symmetry.** With a non-trivial [`Symmetry`], the visited store and the
/// on-stack map are keyed by canonical orbit representatives while the
/// exploration stays concrete, so cycles are detected **modulo the group**:
/// a successor whose canonical product key is on the stack closes a quotient
/// cycle. When the closing permutation is the identity the concrete cycle
/// closes exactly and the usual pending/fairness checks apply; otherwise the
/// cycle is **un-canonicalized** by unrolling the closing element `δ` until
/// it returns to the identity (`e →A→ δ(e) →δ(A)→ δ²(e) → … → e`, by
/// equivariance of the transition relation), and the unrolled concrete lasso
/// is re-executed to validate enabledness, the pending obligation and
/// fairness before it is reported — reported lassos are always genuine
/// concrete executions with concrete process ids. The phase-2 SCC backstop
/// judges fairness on per-node concrete enabled sets, which mix orbit
/// members under symmetry; to stay exact it therefore *falls back to the
/// symmetry-free search* whenever the recorded quotient pending subgraph
/// contains a cycle candidate at all (rare: the evaluation protocols'
/// fault-augmented models are acyclic in their budget counters, so verified
/// runs record no pending cycles and never pay the fallback).
pub fn run_liveness_dfs<S, M, O>(
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
    let start = Instant::now();
    let mut stats = ExplorationStats::new();
    let trivial = symmetry.is_trivial();
    let strategy = if trivial {
        format!("liveness-dfs+{}", reducer.name())
    } else {
        format!("liveness-dfs+{}+{}", reducer.name(), symmetry.label())
    };
    let fairness = property.fairness();
    let trace = config
        .trace
        .begin_run(spec.name(), &strategy, property.name());

    // Keys are canonicalized by this engine (the on-stack map and the
    // pending graph need them too).
    let store = config.store.build::<(GlobalState<S, M>, O, bool)>();
    let store_label = |name: &'static str| -> &'static str {
        if trivial {
            name
        } else {
            mp_store::canonical_label(name)
        }
    };
    // Canonical product key + canonicalizing element of a concrete state.
    let canon = |state: &GlobalState<S, M>, observer: &O, pending: bool| {
        if trivial {
            ((state.clone(), observer.clone(), pending), 0usize)
        } else {
            let (s, o, elem) = symmetry.canonicalize_traced(state, observer, &trace);
            ((s, o, pending), elem)
        }
    };
    let mut on_stack: HashMap<(GlobalState<S, M>, O, bool), usize> = HashMap::new();
    let mut stack: Vec<Frame<S, M, O>> = Vec::new();
    // The pending subgraph recorded for the phase-2 SCC backstop (see the
    // module docs on completeness).
    let mut pending_graph: PendingGraph<S, M, O> = PendingGraph::new();

    macro_rules! finish {
        ($verdict:expr) => {{
            let verdict = $verdict;
            stats.elapsed = start.elapsed();
            stats.record_store(store_label(store.name()), store.stats());
            stats.phases = trace.phase_times();
            // This engine has no level structure, so memory gauges are
            // sampled once at the end (peak == final for a grow-only store).
            if trace.is_enabled() {
                let bytes = store.stats().approx_bytes as u64;
                trace.sample_gauge(Gauge::StoreBytes, bytes);
                trace.sample_gauge(Gauge::CanonicalCacheBytes, if trivial { 0 } else { bytes });
            }
            trace.finish(match &verdict {
                Verdict::Verified => "verified",
                Verdict::Violated(_) => "violated",
                Verdict::LimitReached { .. } => "limit",
            });
            return RunReport {
                verdict,
                stats,
                strategy,
            };
        }};
    }

    let initial = spec.initial_state();
    let observer = initial_observer.clone();
    let pending = property.initial_pending(&initial, &observer);
    let (initial_key, initial_elem) = canon(&initial, &observer, pending);
    store.insert(initial_key.clone());
    stats.states = 1;
    trace.add(Counter::States, 1);

    let all = {
        let _span = trace.span(Phase::Expansion);
        enabled_instances(spec, &initial)
    };
    if all.is_empty() {
        // The initial state is already maximal.
        let verdict = if pending {
            let cx = Counterexample::lasso(
                spec,
                property.name(),
                violation_reason(property.class(), true, fairness),
                &[],
                &[],
                &initial,
            );
            Verdict::Violated(Box::new(cx))
        } else {
            Verdict::Verified
        };
        finish!(verdict);
    }
    if !pending && property.discharged_forever() {
        // Termination goal already holds initially: every execution has
        // reached it before taking a single step.
        finish!(Verdict::Verified);
    }

    stats.expansions = 1;
    trace.add(Counter::Expansions, 1);
    let first_node = pending.then(|| {
        pending_graph.add_node(
            &initial,
            &observer,
            (initial_key.0.clone(), initial_key.1.clone()),
            &all,
        )
    });
    let first = make_frame(
        spec,
        reducer,
        &mut stats,
        initial,
        observer,
        pending,
        initial_key,
        initial_elem,
        None,
        all,
        first_node,
        &trace,
    );
    on_stack.insert(first.stack_key.clone(), 0);
    stack.push(first);

    while !stack.is_empty() {
        stats.max_depth = stats.max_depth.max(stack.len());
        trace.add(Counter::Depth, stack.len() as u64);
        let top_index = stack.len() - 1;
        if stack[top_index].next >= stack[top_index].explore.len() {
            let frame = stack.pop().expect("stack checked non-empty");
            on_stack.remove(&frame.stack_key);
            continue;
        }

        let (instance, next_state, next_observer, next_pending) = {
            let _span = trace.span(Phase::Expansion);
            let top = &mut stack[top_index];
            let instance = top.explore[top.next].clone();
            top.next += 1;
            let next_state = execute_enabled(spec, &top.state, &instance);
            let next_observer = top
                .observer
                .update(spec, &top.state, &instance, &next_state);
            let next_pending = property.step_pending(top.pending, &next_state, &next_observer);
            (instance, next_state, next_observer, next_pending)
        };
        stats.transitions_executed += 1;
        trace.add(Counter::Transitions, 1);
        let key = (next_state, next_observer, next_pending);
        // Membership, the on-stack map and the pending graph are judged on
        // the canonical orbit key; exploration stays concrete.
        let canon_pair = (!trivial).then(|| canon(&key.0, &key.1, key.2));
        let probe = canon_pair.as_ref().map(|(k, _)| k).unwrap_or(&key);
        let celem = canon_pair.as_ref().map(|(_, e)| *e).unwrap_or(0);
        let top_node = stack[top_index].node;

        if let Some(&entry) = on_stack.get(probe) {
            // The successor closes a cycle into the DFS stack — exactly, or
            // modulo a symmetry permutation.
            if let (Some(from), true) = (top_node, key.2) {
                let to = stack[entry].node.expect("pending frames carry a node");
                pending_graph.add_edge(from, to, instance.clone());
            }
            //
            // Cycle/ignoring proviso (always on for liveness): a reduced
            // expansion may not be left around a cycle — re-expand fully.
            {
                let top = &mut stack[top_index];
                if top.reduced {
                    let mut pruned = std::mem::take(&mut top.pruned);
                    top.explore.append(&mut pruned);
                    top.reduced = false;
                    stats.proviso_expansions += 1;
                }
            }
            // Violating cycle: the obligation is outstanding in every
            // product state of the cycle, and the cycle is fair.
            if key.2 && stack[entry..].iter().all(|f| f.pending) {
                let entry_elem = stack[entry].elem;
                if celem == entry_elem {
                    // The concrete cycle closes exactly (same canonical key
                    // and same canonicalizing element force state equality).
                    if stack_cycle_is_fair(spec, &stack[entry..], &instance, fairness) {
                        let stem: Vec<TransitionInstance<M>> = stack[..=entry]
                            .iter()
                            .filter_map(|f| f.incoming.clone())
                            .collect();
                        let mut cycle: Vec<TransitionInstance<M>> = stack[entry + 1..]
                            .iter()
                            .filter_map(|f| f.incoming.clone())
                            .collect();
                        cycle.push(instance);
                        let cx = Counterexample::lasso(
                            spec,
                            property.name(),
                            violation_reason(property.class(), false, fairness),
                            &stem,
                            &cycle,
                            &stack[entry].state,
                        );
                        finish!(Verdict::Violated(Box::new(cx)));
                    }
                } else {
                    // The cycle closes through a non-identity permutation:
                    // un-canonicalize by unrolling the closing element and
                    // validate the concrete lasso by re-execution.
                    let mut segment: Vec<TransitionInstance<M>> = stack[entry + 1..]
                        .iter()
                        .filter_map(|f| f.incoming.clone())
                        .collect();
                    segment.push(instance.clone());
                    if let Some(cycle) = unroll_symmetric_cycle(
                        spec,
                        property,
                        symmetry,
                        fairness,
                        &stack[entry],
                        entry_elem,
                        celem,
                        &segment,
                    ) {
                        let stem: Vec<TransitionInstance<M>> = stack[..=entry]
                            .iter()
                            .filter_map(|f| f.incoming.clone())
                            .collect();
                        let cx = Counterexample::lasso(
                            spec,
                            property.name(),
                            violation_reason(property.class(), false, fairness),
                            &stem,
                            &cycle,
                            &stack[entry].state,
                        );
                        finish!(Verdict::Violated(Box::new(cx)));
                    }
                }
            }
            stats.revisits += 1;
            trace.add(Counter::Revisits, 1);
            continue;
        }

        let inserted = {
            let _span = trace.span(Phase::StoreLookup);
            store.insert_ref(probe)
        };
        if !inserted {
            // A cross or forward edge; if it stays within the pending
            // subgraph, record it — phase 2 finds the cycles the on-stack
            // detector cannot see from the tree path alone.
            if let (Some(from), true) = (top_node, key.2) {
                // `None` only under a fingerprint-store collision; see
                // [`PendingGraph::try_id_of`].
                if let Some(to) = pending_graph.try_id_of(&(probe.0.clone(), probe.1.clone())) {
                    pending_graph.add_edge(from, to, instance.clone());
                }
            }
            stats.revisits += 1;
            trace.add(Counter::Revisits, 1);
            continue;
        }
        let stack_key = match canon_pair {
            Some((k, _)) => k,
            None => key.clone(),
        };
        let (next_state, next_observer, next_pending) = key;
        stats.states += 1;
        trace.add(Counter::States, 1);

        if store.len() > config.max_states {
            finish!(Verdict::LimitReached {
                what: format!("state limit of {}", config.max_states),
            });
        }
        if let Some(limit) = config.time_limit {
            if start.elapsed() > limit {
                finish!(Verdict::LimitReached {
                    what: format!("time limit of {limit:?}"),
                });
            }
        }

        let all = {
            let _span = trace.span(Phase::Expansion);
            enabled_instances(spec, &next_state)
        };
        if all.is_empty() {
            if next_pending {
                // A maximal finite execution with the obligation pending:
                // the system stutters in this quiescent state forever.
                let mut stem: Vec<TransitionInstance<M>> =
                    stack.iter().filter_map(|f| f.incoming.clone()).collect();
                stem.push(instance);
                let cx = Counterexample::lasso(
                    spec,
                    property.name(),
                    violation_reason(property.class(), true, fairness),
                    &stem,
                    &[],
                    &next_state,
                );
                finish!(Verdict::Violated(Box::new(cx)));
            }
            // Quiescent and discharged: a satisfying maximal execution.
            continue;
        }
        if !next_pending && property.discharged_forever() {
            // Termination: goal states are closed — no extension of this
            // branch can ever violate, so prune below it.
            continue;
        }

        stats.expansions += 1;
        trace.add(Counter::Expansions, 1);
        let node = next_pending.then(|| {
            pending_graph.add_node(
                &next_state,
                &next_observer,
                (stack_key.0.clone(), stack_key.1.clone()),
                &all,
            )
        });
        if let (Some(from), Some(to)) = (top_node, node) {
            pending_graph.add_edge(from, to, instance.clone());
        }
        let frame = make_frame(
            spec,
            reducer,
            &mut stats,
            next_state,
            next_observer,
            next_pending,
            stack_key,
            celem,
            Some(instance),
            all,
            node,
            &trace,
        );
        on_stack.insert(frame.stack_key.clone(), stack.len());
        stack.push(frame);
    }

    // Phase 2: the on-stack detector saw no fair violating cycle, but it
    // only examines DFS tree segments — check the strongly connected
    // components of the recorded pending subgraph (see the module docs).
    if !trivial {
        // Under symmetry the recorded per-node enabled sets mix orbit
        // members, so the SCC fairness test is not exact on the quotient;
        // fall back to the symmetry-free search when (and only when) a
        // cycle candidate exists at all. The fallback runs inside the
        // caller's remaining wall-clock budget, and the symmetric pass's
        // elapsed time is folded back into the returned report.
        if pending_graph.has_cycle_candidate() {
            let spent = start.elapsed();
            let mut exact_config = config.clone();
            if let Some(limit) = config.time_limit {
                let Some(remaining) = limit.checked_sub(spent) else {
                    finish!(Verdict::LimitReached {
                        what: format!("time limit of {limit:?}"),
                    });
                };
                exact_config.time_limit = Some(remaining);
            }
            // The fallback re-runs the whole search symmetry-free with its
            // own trace run; close this run first so the NDJSON stream stays
            // a sequence of complete runs.
            stats.phases = trace.phase_times();
            trace.finish("fallback");
            let exact: Arc<dyn Symmetry<S, M, O>> = Arc::new(NoSymmetry);
            let mut report = run_liveness_dfs(
                spec,
                property,
                initial_observer,
                reducer,
                &exact,
                &exact_config,
            );
            report.stats.elapsed += spent;
            report.strategy = format!("{strategy} (scc fallback: {})", report.strategy);
            return report;
        }
    } else {
        let scc_violation = {
            let _span = trace.span(Phase::SccBackstop);
            pending_scc_violation(spec, property, initial_observer, &pending_graph, fairness)
        };
        if let Some(cx) = scc_violation {
            finish!(Verdict::Violated(Box::new(cx)));
        }
    }

    finish!(Verdict::Verified)
}

/// Un-canonicalizes a cycle that closed modulo a non-identity permutation.
///
/// The DFS found `e →segment→ f` with `canon(e) = canon(f)` via elements
/// `g_e(e) = c = g_f(f)`, so `f = δ(e)` with `δ = g_f⁻¹ ∘ g_e`. By
/// equivariance, repeating the segment with `δ`-powers applied walks
/// `e → δ(e) → δ²(e) → … → δᵏ(e) = e` where `k` is the order of `δ` — a
/// genuine concrete cycle. The unrolled instance list is validated by
/// re-execution (each step enabled, the obligation pending throughout, the
/// walk returning exactly to the entry product state) and by the weak
/// fairness test on the concrete enabled sets collected along the way.
/// Returns the unrolled cycle when it is a real fair violation; `None`
/// otherwise (including when a structurally-validated but semantically
/// asymmetric role declaration makes a permuted instance non-executable —
/// the conservative answer).
#[allow(clippy::too_many_arguments)] // the cycle context genuinely has this many parts
fn unroll_symmetric_cycle<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    fairness: Fairness,
    entry: &Frame<S, M, O>,
    entry_elem: usize,
    closing_elem: usize,
    segment: &[TransitionInstance<M>],
) -> Option<Vec<TransitionInstance<M>>>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
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
            break;
        }
    }

    // Validate the unrolled lasso by concrete re-execution.
    let mut state = entry.state.clone();
    let mut observer = entry.observer.clone();
    let mut enabled_sets: Vec<Vec<TransitionInstance<M>>> = Vec::new();
    for instance in &unrolled {
        let enabled = enabled_instances(spec, &state);
        if !enabled.contains(instance) {
            return None;
        }
        let next_state = execute_enabled(spec, &state, instance);
        let next_observer = observer.update(spec, &state, instance, &next_state);
        if !property.step_pending(true, &next_state, &next_observer) {
            return None;
        }
        enabled_sets.push(enabled);
        state = next_state;
        observer = next_observer;
    }
    if state != entry.state || observer != entry.observer {
        return None;
    }
    let enabled_refs: Vec<&[TransitionInstance<M>]> =
        enabled_sets.iter().map(|v| v.as_slice()).collect();
    let executed: Vec<&TransitionInstance<M>> = unrolled.iter().collect();
    if !cycle_fair(spec, fairness, &enabled_refs, &executed) {
        return None;
    }
    Some(unrolled)
}

#[allow(clippy::too_many_arguments)] // a product-state frame genuinely has this many parts
fn make_frame<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    reducer: &dyn Reducer<S, M>,
    stats: &mut ExplorationStats,
    state: GlobalState<S, M>,
    observer: O,
    pending: bool,
    stack_key: (GlobalState<S, M>, O, bool),
    elem: usize,
    incoming: Option<TransitionInstance<M>>,
    all_enabled: Vec<TransitionInstance<M>>,
    node: Option<usize>,
    trace: &mp_trace::TraceHandle,
) -> Frame<S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let reduction = reducer.reduce_traced(spec, &state, all_enabled.clone(), trace);
    if reduction.reduced {
        stats.reduced_states += 1;
    }
    Frame {
        state,
        observer,
        pending,
        stack_key,
        elem,
        incoming,
        all_enabled,
        explore: reduction.explore,
        pruned: reduction.pruned,
        next: 0,
        reduced: reduction.reduced,
        node,
    }
}

/// Runs the stateless liveness search: a depth-first enumeration of paths
/// with an on-path cycle detector. The stateless engine keeps no visited
/// set, so every elementary cycle is eventually traversed and checked.
///
/// Dynamic POR is a *safety* algorithm (its backtrack sets track races, not
/// ignored cycles); for liveness the ignoring proviso would force full
/// expansion around every cycle, so this search conservatively explores the
/// full tree — the documented fallback when `dpor` is requested. The flag
/// only changes the strategy label.
pub fn run_stateless_liveness<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    dpor: bool,
    config: &CheckerConfig,
) -> RunReport
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    debug_assert!(property.is_liveness(), "dispatched on property class");
    let start = Instant::now();
    let mut stats = ExplorationStats::new();
    stats.store_backend = "none".to_string();
    let strategy = if dpor {
        "stateless-liveness (dpor falls back to full expansion)".to_string()
    } else {
        "stateless-liveness".to_string()
    };
    let fairness = property.fairness();
    let trace = config
        .trace
        .begin_run(spec.name(), &strategy, property.name());

    struct PathFrame<S, M: Ord, O> {
        state: GlobalState<S, M>,
        observer: O,
        pending: bool,
        incoming: Option<TransitionInstance<M>>,
        enabled: Vec<TransitionInstance<M>>,
        next: usize,
    }

    let finish = |mut stats: ExplorationStats, verdict: Verdict| -> RunReport {
        stats.elapsed = start.elapsed();
        stats.phases = trace.phase_times();
        trace.finish(match &verdict {
            Verdict::Verified => "verified",
            Verdict::Violated(_) => "violated",
            Verdict::LimitReached { .. } => "limit",
        });
        RunReport {
            verdict,
            stats,
            strategy: strategy.clone(),
        }
    };

    let initial = spec.initial_state();
    let observer = initial_observer.clone();
    let pending = property.initial_pending(&initial, &observer);
    stats.states = 1;
    trace.add(Counter::States, 1);

    let enabled = {
        let _span = trace.span(Phase::Expansion);
        enabled_instances(spec, &initial)
    };
    if enabled.is_empty() {
        let verdict = if pending {
            let cx = Counterexample::lasso(
                spec,
                property.name(),
                violation_reason(property.class(), true, fairness),
                &[],
                &[],
                &initial,
            );
            Verdict::Violated(Box::new(cx))
        } else {
            Verdict::Verified
        };
        return finish(stats, verdict);
    }
    if !pending && property.discharged_forever() {
        return finish(stats, Verdict::Verified);
    }

    stats.expansions = 1;
    trace.add(Counter::Expansions, 1);
    let mut stack: Vec<PathFrame<S, M, O>> = vec![PathFrame {
        state: initial,
        observer,
        pending,
        incoming: None,
        enabled,
        next: 0,
    }];

    while !stack.is_empty() {
        stats.max_depth = stats.max_depth.max(stack.len());
        trace.add(Counter::Depth, stack.len() as u64);
        let top_index = stack.len() - 1;
        if stack[top_index].next >= stack[top_index].enabled.len() {
            stack.pop();
            continue;
        }
        let (instance, next_state, next_observer, next_pending) = {
            let _span = trace.span(Phase::Expansion);
            let top = &mut stack[top_index];
            let instance = top.enabled[top.next].clone();
            top.next += 1;
            let next_state = execute_enabled(spec, &top.state, &instance);
            let next_observer = top
                .observer
                .update(spec, &top.state, &instance, &next_state);
            let next_pending = property.step_pending(top.pending, &next_state, &next_observer);
            (instance, next_state, next_observer, next_pending)
        };
        stats.transitions_executed += 1;
        trace.add(Counter::Transitions, 1);

        // On-path cycle detection.
        if let Some(entry) = stack.iter().position(|f| {
            f.state == next_state && f.observer == next_observer && f.pending == next_pending
        }) {
            let cycle_frames = &stack[entry..];
            let fair = {
                let enabled: Vec<&[TransitionInstance<M>]> =
                    cycle_frames.iter().map(|f| f.enabled.as_slice()).collect();
                let mut executed: Vec<&TransitionInstance<M>> = cycle_frames[1..]
                    .iter()
                    .filter_map(|f| f.incoming.as_ref())
                    .collect();
                executed.push(&instance);
                cycle_fair(spec, fairness, &enabled, &executed)
            };
            if next_pending && cycle_frames.iter().all(|f| f.pending) && fair {
                let stem: Vec<TransitionInstance<M>> = stack[..=entry]
                    .iter()
                    .filter_map(|f| f.incoming.clone())
                    .collect();
                let mut cycle: Vec<TransitionInstance<M>> = stack[entry + 1..]
                    .iter()
                    .filter_map(|f| f.incoming.clone())
                    .collect();
                cycle.push(instance);
                let cx = Counterexample::lasso(
                    spec,
                    property.name(),
                    violation_reason(property.class(), false, fairness),
                    &stem,
                    &cycle,
                    &stack[entry].state,
                );
                return finish(stats, Verdict::Violated(Box::new(cx)));
            }
            // Cut the cycle: re-descending would loop forever.
            stats.revisits += 1;
            trace.add(Counter::Revisits, 1);
            continue;
        }

        stats.states += 1;
        trace.add(Counter::States, 1);
        if stats.expansions >= config.max_states {
            let verdict = Verdict::LimitReached {
                what: format!("expansion limit of {}", config.max_states),
            };
            return finish(stats, verdict);
        }
        if let Some(limit) = config.time_limit {
            if start.elapsed() > limit {
                let verdict = Verdict::LimitReached {
                    what: format!("time limit of {limit:?}"),
                };
                return finish(stats, verdict);
            }
        }
        if stack.len() >= config.max_depth {
            let verdict = Verdict::LimitReached {
                what: format!("depth limit of {}", config.max_depth),
            };
            return finish(stats, verdict);
        }

        let enabled = {
            let _span = trace.span(Phase::Expansion);
            enabled_instances(spec, &next_state)
        };
        if enabled.is_empty() {
            if next_pending {
                let mut stem: Vec<TransitionInstance<M>> =
                    stack.iter().filter_map(|f| f.incoming.clone()).collect();
                stem.push(instance);
                let cx = Counterexample::lasso(
                    spec,
                    property.name(),
                    violation_reason(property.class(), true, fairness),
                    &stem,
                    &[],
                    &next_state,
                );
                return finish(stats, Verdict::Violated(Box::new(cx)));
            }
            continue;
        }
        if !next_pending && property.discharged_forever() {
            continue;
        }

        stats.expansions += 1;
        trace.add(Counter::Expansions, 1);
        stack.push(PathFrame {
            state: next_state,
            observer: next_observer,
            pending: next_pending,
            incoming: Some(instance),
            enabled,
            next: 0,
        });
    }

    finish(stats, Verdict::Verified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullObserver, Property};
    use mp_model::{Kind, Outcome, ProcessId, TransitionSpec};
    use mp_por::{NoReduction, SporReducer};

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

    fn no_sym() -> Arc<dyn Symmetry<u8, Tok, NullObserver>> {
        Arc::new(NoSymmetry)
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
    fn toggler() -> ProtocolSpec<u8, Tok> {
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

    fn reaches(value: u8) -> Property<u8, Tok, NullObserver> {
        Property::termination(
            format!("reaches-{value}"),
            move |s: &GlobalState<u8, Tok>, _| s.locals[0] == value,
        )
    }

    #[test]
    fn terminating_counter_verifies_termination() {
        let spec = counter(3);
        let report = run_liveness_dfs(
            &spec,
            &reaches(3),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(report.verdict.is_verified(), "{report}");
        assert!(report.strategy.contains("liveness-dfs"));
    }

    #[test]
    fn counter_stuck_before_goal_yields_quiescent_lasso() {
        // The counter stops at 2 but the goal is 5: every maximal execution
        // quiesces with the obligation outstanding.
        let spec = counter(2);
        let report = run_liveness_dfs(
            &spec,
            &reaches(5),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        let cx = report.verdict.counterexample().expect("must violate");
        assert!(cx.is_lasso);
        assert!(cx.cycle.is_empty(), "quiescent lasso has no cycle");
        assert_eq!(cx.steps.len(), 2, "two increments reach the stuck state");
        assert!(cx.reason.contains("quiesces"));
    }

    #[test]
    fn toggler_never_reaching_goal_yields_fair_cycle() {
        let spec = toggler();
        let report = run_liveness_dfs(
            &spec,
            &reaches(5),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
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
        let spec: ProtocolSpec<u8, Tok> = ProtocolSpec::builder("toggle+move")
            .process("toggler", 0u8)
            .process("mover", 0u8)
            .transition(
                TransitionSpec::builder("toggle", p(0))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(1 - *l))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("move", p(1))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .visible()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap();
        let goal = Property::termination("mover-done", |s: &GlobalState<u8, Tok>, _| {
            *s.local(p(1)) == 1
        });
        let fair = run_liveness_dfs(
            &spec,
            &goal,
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(
            fair.verdict.is_verified(),
            "weak fairness must reject the starving toggle cycle: {fair}"
        );
        // Without fairness the starving schedule is legitimate.
        let unfair = run_liveness_dfs(
            &spec,
            &goal.clone().with_fairness(Fairness::Unfair),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(
            unfair.verdict.is_violated(),
            "without fairness the toggle loop is a counterexample: {unfair}"
        );
        // SPOR agrees with the unreduced verdicts (cycle proviso at work).
        let reducer = SporReducer::new(&spec);
        let fair_spor = run_liveness_dfs(
            &spec,
            &goal,
            &NullObserver,
            &reducer,
            &no_sym(),
            &CheckerConfig::default(),
        );
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
        let report = run_liveness_dfs(
            &spec,
            &prop,
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(report.verdict.is_verified(), "{report}");
        // ...but 1 never leads to 5.
        let prop = Property::leads_to(
            "1-leads-to-5",
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 1,
            |s: &GlobalState<u8, Tok>, _: &NullObserver| s.locals[0] == 5,
        );
        let report = run_liveness_dfs(
            &spec,
            &prop,
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(report.verdict.is_violated(), "{report}");
    }

    #[test]
    fn stateless_liveness_agrees_with_stateful() {
        for steps in [2u8, 3] {
            for goal in [2u8, 5] {
                let spec = counter(steps);
                let stateful = run_liveness_dfs(
                    &spec,
                    &reaches(goal),
                    &NullObserver,
                    &NoReduction,
                    &no_sym(),
                    &CheckerConfig::default(),
                );
                let stateless = run_stateless_liveness(
                    &spec,
                    &reaches(goal),
                    &NullObserver,
                    false,
                    &CheckerConfig::stateless(false),
                );
                assert_eq!(
                    stateful.verdict.is_verified(),
                    stateless.verdict.is_verified(),
                    "steps={steps} goal={goal}"
                );
            }
        }
        // And on the cyclic toggler, where the stateless engine must cut
        // the cycle instead of descending forever.
        let spec = toggler();
        let report = run_stateless_liveness(
            &spec,
            &reaches(5),
            &NullObserver,
            true,
            &CheckerConfig::stateless(true),
        );
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
        let stateful = run_liveness_dfs(
            &spec,
            &prop,
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
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
        let stateless = run_stateless_liveness(
            &spec,
            &prop,
            &NullObserver,
            false,
            &CheckerConfig::stateless(false),
        );
        assert!(stateless.verdict.is_violated(), "{stateless}");
        // And SPOR agrees too (single process: nothing to reduce, but the
        // code path exercises the recorded reduced subgraph).
        let reducer = SporReducer::new(&spec);
        let spor = run_liveness_dfs(
            &spec,
            &prop,
            &NullObserver,
            &reducer,
            &no_sym(),
            &CheckerConfig::default(),
        );
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
        let report = run_liveness_dfs(
            &spec,
            &reaches(0),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(report.verdict.is_verified());
        assert_eq!(report.stats.states, 1, "goal states are closed: no search");
    }
}
