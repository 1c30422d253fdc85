//! The SCC backstop of the stateful liveness search: the graph recorded
//! while the lasso detector runs, and the strongly-connected-component
//! check over it that finds the fair cycles a depth-first tree path cannot
//! show (see the completeness note in [`crate::liveness`]).
//!
//! The graph remembers ids, not states: a node is a number, found again by
//! the token the visited store names its state with
//! ([`mp_store::Inserted::token`]), and a step is an ordinal into its source
//! state's choices ([`Successors::choices`]). What a node *was* — its
//! state, the path to it, what was enabled in it — is rebuilt by replaying
//! the ordinals of the depth-first tree from the initial state, once, and
//! only for components that can hold a cycle at all.

use std::collections::VecDeque;

use mp_model::{GlobalState, LocalState, Message, TransitionInstance};

use super::{cycle_fair, fair_pending_cycle, required_everywhere, violation_reason};
use crate::fp_index::StoreWordMap;
use crate::successors::Successors;
use crate::{Counterexample, Observer, Property};

/// `(from, to, ordinal)`: an explored edge, and where the executed instance
/// stands among the choices of the source state.
type Edge = (u32, u32, u32);

/// The parent of the root.
const NO_NODE: u32 = u32::MAX;

/// One node per product state the search expanded, and the explored edges
/// between the obligation-carrying (pending) ones.
#[derive(Default)]
pub(super) struct PendingGraph {
    /// The depth-first tree: each node's parent and the ordinal of the
    /// instance that led here. These are steps the search executed, so the
    /// path to a node replays exactly under every store.
    parents: Vec<(u32, u32)>,
    /// Edges between pending nodes, in the order the search met them.
    edges: Vec<Edge>,
    /// Pending nodes by store token.
    by_token: StoreWordMap<u32>,
}

impl PendingGraph {
    /// Adds the state reached through `parent = (node, ordinal)`; a
    /// pending state is filed under the store's `token` for it.
    pub(super) fn add_node(&mut self, parent: Option<(u32, usize)>, token: Option<u64>) -> u32 {
        let node = u32::try_from(self.parents.len()).ok();
        let node = node.filter(|n| *n != NO_NODE).expect("2^32 product states");
        let (parent, ordinal) = parent.unwrap_or((NO_NODE, 0));
        self.parents.push((parent, ordinal as u32));
        if let Some(token) = token {
            self.by_token.insert(token, node);
        }
        node
    }

    pub(super) fn add_edge(&mut self, from: u32, to: u32, ordinal: usize) {
        self.edges.push((from, to, ordinal as u32));
    }

    /// The ordinals of the depth-first tree path from the root to `node`.
    fn ordinals_to(&self, node: u32) -> Vec<usize> {
        let mut ordinals = Vec::new();
        let mut cursor = self.parents[node as usize];
        while cursor.0 != NO_NODE {
            ordinals.push(cursor.1 as usize);
            cursor = self.parents[cursor.0 as usize];
        }
        ordinals.reverse();
        ordinals
    }

    /// The pending node filed under `token`. `None` when the state has no
    /// node — possible for a pending state only with a hash-compaction
    /// store, where a collision can report an unseen state as visited; the
    /// caller then drops the edge, which keeps the (already documented)
    /// probabilistic-`Verified` contract of that backend.
    pub(super) fn find(&self, token: u64) -> Option<u32> {
        self.by_token.get(&token).copied()
    }

    /// Heap bytes of the three tables (hashbrown keeps one control byte
    /// beside every slot).
    pub(super) fn heap_bytes(&self) -> usize {
        self.parents.capacity() * size_of::<(u32, u32)>()
            + self.edges.capacity() * size_of::<Edge>()
            + self.by_token.capacity() * (size_of::<(u64, u32)>() + 1)
    }

    /// Returns `true` if some strongly connected component of the recorded
    /// graph contains an internal edge (i.e. a cycle candidate exists).
    pub(super) fn has_cycle_candidate(&self) -> bool {
        let sccs = tarjan_sccs(&Adjacency::new(self.parents.len(), &self.edges));
        let component = |v: u32| sccs.place[v as usize].0;
        self.edges
            .iter()
            .any(|&(v, w, _)| component(v) == component(w))
    }
}

/// A recorded edge names no instance of its source state: two states share
/// a token, which only a probabilistic store lets happen.
struct Conflated;

/// The SCC check over a finished search's graph, and the re-execution it
/// rebuilds states with.
pub(super) struct Backstop<'a, S, M: Ord, O> {
    /// The run's step, off its clock: recorded ordinals index its choices.
    pub(super) successors: Successors<'a, S, M, O>,
    pub(super) property: &'a Property<S, M, O>,
    pub(super) initial_observer: &'a O,
    /// The store's tokens are one per state: every recorded edge is real,
    /// and a component that does not replay is a bug, not an omission.
    pub(super) exact_store: bool,
}

impl<S, M, O> Backstop<'_, S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    /// SCC-based fair-cycle detection, run when the on-stack detector found
    /// nothing. Returns the reconstructed lasso of the first violating
    /// component, if any.
    pub(super) fn violation(&self, graph: &PendingGraph) -> Option<Counterexample> {
        let out = Adjacency::new(graph.parents.len(), &graph.edges);
        let sccs = tarjan_sccs(&out);
        for (c, scc) in sccs.iter().enumerate() {
            // Internal edges, on member positions: the cycles of this
            // component are built from them.
            let mut internal: Vec<Edge> = Vec::new();
            for &e in scc.iter().flat_map(|&v| out.of(v)) {
                let (v, w, ordinal) = graph.edges[e as usize];
                let ((_, from), (component, to)) = (sccs.place[v as usize], sccs.place[w as usize]);
                if component == c as u32 {
                    internal.push((from, to, ordinal));
                }
            }
            if internal.is_empty() {
                continue; // trivial component: no cycle at all
            }
            // The entry's tree path: steps the search executed.
            let successors = &self.successors;
            let mut goal = (
                successors.spec.initial_state(),
                self.initial_observer.clone(),
            );
            let stem = successors.replay(&mut goal, &graph.ordinals_to(scc[0]));
            let stem = stem.unwrap_or_else(|e| panic!("tree-path {e}"));
            // Built from recorded edges, reported only if it re-executes.
            let entry = (&goal.0, &goal.1);
            let cycle = match self.covering_cycle(&goal, scc.len(), &internal) {
                Ok(None) => continue,
                Ok(Some(cycle)) if fair_pending_cycle(successors, self.property, entry, &cycle) => {
                    cycle
                }
                _ => {
                    assert!(!self.exact_store, "a recorded component does not replay");
                    continue;
                }
            };
            let property = self.property;
            return Some(Counterexample::lasso(
                successors.spec,
                property.name(),
                violation_reason(property.class(), false, property.fairness()),
                &stem,
                &cycle,
                &goal.0,
            ));
        }
        None
    }

    /// Judges one component, given on member positions `0..members` with
    /// position 0 in state `entry` and `internal` its (one or more) edges.
    /// If it admits a fair cycle, returns the covering walk that visits
    /// every state and executes one edge per required instance, stitched
    /// from shortest paths inside the component.
    fn covering_cycle(
        &self,
        entry: &(GlobalState<S, M>, O),
        members: usize,
        internal: &[Edge],
    ) -> Result<Option<Vec<TransitionInstance<M>>>, Conflated> {
        // Re-execute the component along its own edges: what is enabled in
        // every member (its choices), and with that the instance every edge
        // names.
        let out = Adjacency::new(members, internal);
        let mut enabled = vec![Vec::new(); members];
        let mut reached = vec![false; members];
        reached[0] = true;
        let mut queue = VecDeque::from([(0u32, entry.clone())]);
        while let Some((v, at)) = queue.pop_front() {
            let here = self.successors.choices(&at.0);
            for &e in out.of(v) {
                let (_, w, ordinal) = internal[e as usize];
                let instance = here.get(ordinal as usize).ok_or(Conflated)?;
                if !std::mem::replace(&mut reached[w as usize], true) {
                    queue.push_back((w, self.successors.execute(&at.0, &at.1, instance).0));
                }
            }
            enabled[v as usize] = here;
        }
        let instance = |&(v, _, ordinal): &Edge| &enabled[v as usize][ordinal as usize];
        let executed: Vec<&TransitionInstance<M>> = internal.iter().map(instance).collect();
        let sets: Vec<&[TransitionInstance<M>]> = enabled.iter().map(Vec::as_slice).collect();
        let (spec, fairness) = (self.successors.spec, self.property.fairness());
        if !cycle_fair(spec, fairness, &sets, &executed) {
            // Some required instance is enabled everywhere in the component
            // but never executed inside it: every cycle in here is unfair.
            return Ok(None);
        }

        // Required instances enabled in every component state, and one
        // internal edge executing each (they exist: the component is
        // fair); `owed` counts them by source.
        let mut required: Vec<u32> = required_everywhere(spec, fairness, &sets)
            .into_iter()
            .map(|c| executed.iter().position(|i| *i == c))
            .map(|e| e.expect("fair component executes every required instance") as u32)
            .collect();
        let source = |e: u32| internal[e as usize].0 as usize;
        let mut owed = vec![0u32; members];
        required.iter().for_each(|&e| owed[source(e)] += 1);
        let mut unvisited = vec![true; members];
        let mut search = Search::new(&out);
        let mut walk: Vec<u32> = Vec::new();
        let mut at = 0u32;
        loop {
            unvisited[at as usize] = false;
            let path = if owed[at as usize] > 0 {
                owed[at as usize] -= 1;
                let next = required.iter().position(|&e| source(e) == at as usize);
                vec![required.remove(next.expect("counted in `owed`"))]
            } else {
                let wanted = |v: u32| unvisited[v as usize] || owed[v as usize] > 0;
                match search.shortest_path(at, wanted) {
                    Some(path) => path,
                    None => break,
                }
            };
            walk.extend(path);
            at = internal[walk[walk.len() - 1] as usize].1;
        }
        // Close the walk back to the entry state.
        if at != 0 {
            let home = search.shortest_path(at, |v| v == 0);
            walk.extend(home.expect("the component is strongly connected"));
        } else if walk.is_empty() {
            walk.push(0); // single-node component: its cycle is a self-loop edge
        }
        let cycle = walk.iter().map(|&e| executed[e as usize].clone());
        Ok(Some(cycle.collect()))
    }
}

/// Out-edges per node, flat: the ids (indices into `edges`) of node `v`'s
/// edges, in recording order, are `ids[start[v]..start[v + 1]]`.
struct Adjacency<'e> {
    edges: &'e [Edge],
    start: Vec<usize>,
    ids: Vec<u32>,
}

impl<'e> Adjacency<'e> {
    /// Counting sort of the edge ids by source (stable).
    fn new(nodes: usize, edges: &'e [Edge]) -> Self {
        let mut start = vec![0usize; nodes + 1];
        for &(v, _, _) in edges {
            start[v as usize + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut ids = vec![0; edges.len()];
        for (e, &(v, _, _)) in edges.iter().enumerate() {
            ids[next[v as usize]] = e as u32;
            next[v as usize] += 1;
        }
        Adjacency { edges, start, ids }
    }

    fn of(&self, v: u32) -> &[u32] {
        &self.ids[self.start[v as usize]..self.start[v as usize + 1]]
    }
}

/// Repeated shortest-path searches over one graph. The marks carry the
/// number of the search that made them, so a new search clears nothing.
struct Search<'a> {
    out: &'a Adjacency<'a>,
    /// Per node: the search that last reached it, and by which edge.
    marks: Vec<(u32, u32)>,
    searches: u32,
}

impl<'a> Search<'a> {
    fn new(out: &'a Adjacency<'a>) -> Self {
        let marks = vec![(0, 0); out.start.len() - 1];
        Search {
            out,
            marks,
            searches: 0,
        }
    }

    /// The edge ids of a shortest path from `from` to another node
    /// satisfying `done`.
    fn shortest_path(&mut self, from: u32, done: impl Fn(u32) -> bool) -> Option<Vec<u32>> {
        self.searches += 1;
        self.marks[from as usize].0 = self.searches;
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            for &e in self.out.of(v) {
                let w = self.out.edges[e as usize].1;
                if self.marks[w as usize].0 == self.searches {
                    continue;
                }
                self.marks[w as usize] = (self.searches, e);
                if done(w) {
                    let mut path = Vec::new();
                    let mut cursor = w;
                    while cursor != from {
                        let by = self.marks[cursor as usize].1;
                        path.push(by);
                        cursor = self.out.edges[by as usize].0;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(w);
            }
        }
        None
    }
}

/// The strongly connected components of a graph, in the order Tarjan's
/// algorithm completes them.
struct Sccs {
    /// Every node's component and its position among the members.
    place: Vec<(u32, u32)>,
    /// Members of all components, one component after the other.
    members: Vec<u32>,
    /// Where each component ends in `members`.
    ends: Vec<usize>,
}

impl Sccs {
    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(&0).chain(&self.ends);
        starts.zip(&self.ends).map(|(&a, &b)| &self.members[a..b])
    }
}

/// Iterative Tarjan SCC.
fn tarjan_sccs(out: &Adjacency) -> Sccs {
    const UNSEEN: u32 = u32::MAX;
    let n = out.start.len() - 1;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut scc_stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Sccs {
        place: vec![(0, 0); n],
        members: Vec::with_capacity(n),
        ends: Vec::new(),
    };

    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        // (node, next-edge-offset) explicit DFS stack.
        let mut work: Vec<(u32, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut edge)) = work.last_mut() {
            let vi = v as usize;
            if *edge == 0 {
                index[vi] = next_index;
                low[vi] = next_index;
                next_index += 1;
                scc_stack.push(v);
                on_stack[vi] = true;
            }
            if let Some(&e) = out.of(v).get(*edge) {
                let w = out.edges[e as usize].1;
                *edge += 1;
                if index[w as usize] == UNSEEN {
                    work.push((w, 0));
                } else if on_stack[w as usize] {
                    low[vi] = low[vi].min(index[w as usize]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent as usize] = low[parent as usize].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    let (component, start) = (sccs.ends.len() as u32, sccs.members.len());
                    while let Some(w) = scc_stack.pop() {
                        on_stack[w as usize] = false;
                        sccs.place[w as usize] = (component, (sccs.members.len() - start) as u32);
                        sccs.members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.ends.push(sccs.members.len());
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::bfs::tests::Tok;
    use crate::liveness::tests::{reaches, toggler};
    use crate::{CounterexampleStep, NullObserver};
    use mp_model::{Outcome, ProcessId, ProtocolSpec, TransitionSpec};
    use mp_por::{NoReduction, Reducer, SporReducer};
    use mp_symmetry::{NoSymmetry, Symmetry};
    use mp_trace::TraceHandle;

    /// The backstop over `graph` with `reducer`'s step.
    fn judge<S: LocalState>(
        reducer: &dyn Reducer<S, Tok>,
        graph: &PendingGraph,
        spec: &ProtocolSpec<S, Tok>,
        property: &Property<S, Tok, NullObserver>,
        exact_store: bool,
    ) -> Option<Counterexample> {
        let no_symmetry: Arc<dyn Symmetry<S, Tok, NullObserver>> = Arc::new(NoSymmetry);
        let backstop = Backstop {
            successors: Successors::new(spec, reducer, &no_symmetry, TraceHandle::disabled()),
            property,
            initial_observer: &NullObserver,
            exact_store,
        };
        backstop.violation(graph)
    }

    #[test]
    fn tarjan_separates_cycles_from_their_tails() {
        // 0 → 1 → 2 → 0 is one component, its exit 3 → 4 two trivial ones.
        let edges = [(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 0), (3, 4, 0)];
        let found = tarjan_sccs(&Adjacency::new(5, &edges));
        let mut sccs: Vec<Vec<u32>> = found.iter().map(<[u32]>::to_vec).collect();
        sccs.iter_mut().for_each(|scc| scc.sort_unstable());
        sccs.sort();
        assert_eq!(sccs, [vec![0, 1, 2], vec![3], vec![4]]);
        assert_eq!(found.place[0].0, found.place[2].0);
        assert_ne!(found.place[3].0, found.place[4].0);
    }

    /// The backstop on its own, over a hand-recorded graph: a toggler's two
    /// states, both pending, each with an edge to the other.
    #[test]
    fn a_recorded_fair_component_becomes_a_replayable_lasso() {
        let (spec, never) = (toggler(), reaches(5));
        let mut graph = PendingGraph::default();
        let root = graph.add_node(None, Some(70));
        let flipped = graph.add_node(Some((root, 0)), Some(7));
        assert!(!graph.has_cycle_candidate());
        graph.add_edge(root, flipped, 0);
        graph.add_edge(flipped, root, 0);
        assert!(graph.has_cycle_candidate());
        // A token is the whole identity: no key is kept to tell nodes apart.
        assert_eq!(graph.find(70), Some(root));
        assert_eq!(graph.find(7), Some(flipped));
        assert_eq!(graph.find(8), None);
        assert!(graph.heap_bytes() >= 2 * 8 + 2 * 12);

        let cx = judge(&NoReduction, &graph, &spec, &never, true);
        let cx = cx.expect("the toggle loop is fair and never reaches 5");
        assert!(cx.is_lasso);
        assert_eq!(cx.cycle.len(), 2, "{cx}");
        // The stem is the tree path to whichever state the walk enters at.
        assert!(cx.steps.len() <= 1, "{cx}");
    }

    /// Recorded ordinals index the choices of the run's step, not enabled
    /// lists. Under SPOR, `(t, 0)` has the choices `[crash, toggle]` (the
    /// stubborn set is the crash; the proviso appends the toggle) against
    /// the enabled order `[toggle, crash]`: the tree and both edges of the
    /// toggle loop take ordinal 1. The loop is fair, since a crash is an
    /// environment step.
    #[test]
    fn a_component_recorded_past_the_explore_set_replays() {
        let spec: ProtocolSpec<u8, Tok> = ProtocolSpec::builder("toggle+crash")
            .process("toggler", 0u8)
            .process("crasher", 0u8)
            .transition(
                TransitionSpec::builder("toggle", ProcessId(0))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(1 - *l))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("crash", ProcessId(1))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .environment()
                    .priority(1)
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap();
        let mut graph = PendingGraph::default();
        let root = graph.add_node(None, Some(1));
        let flipped = graph.add_node(Some((root, 1)), Some(2));
        graph.add_edge(root, flipped, 1);
        graph.add_edge(flipped, root, 1);
        let spor = SporReducer::new(&spec);
        let cx = judge(&spor, &graph, &spec, &reaches(5), true);
        let cx = cx.expect("the toggle loop is fair and never reaches 5");
        // Entered at `(1, 0)` through the toggle; the loop toggles back.
        let names = |steps: &[CounterexampleStep]| -> Vec<String> {
            steps.iter().map(|s| s.transition.clone()).collect()
        };
        assert_eq!(names(&cx.steps), ["toggle"], "{cx}");
        assert_eq!(names(&cx.cycle), ["toggle", "toggle"], "{cx}");
        let entry = GlobalState::<u8, Tok>::new(vec![1, 0]);
        assert_eq!(cx.violating_state, format!("{entry:#?}"));
    }

    /// What a probabilistic store can record when two states share a token:
    /// an edge that names no instance, and one whose instance leads
    /// elsewhere. Neither becomes a lasso.
    #[test]
    fn a_conflated_edge_is_dropped_not_reported() {
        let (spec, never) = (toggler(), reaches(5));
        let mut no_such_instance = PendingGraph::default();
        let root = no_such_instance.add_node(None, Some(1));
        let flipped = no_such_instance.add_node(Some((root, 0)), Some(2));
        no_such_instance.add_edge(root, flipped, 0);
        no_such_instance.add_edge(flipped, root, 3);
        let mut leads_elsewhere = PendingGraph::default();
        let root = leads_elsewhere.add_node(None, Some(1));
        leads_elsewhere.add_edge(root, root, 0);
        for graph in [no_such_instance, leads_elsewhere] {
            assert!(graph.has_cycle_candidate());
            let found = judge(&NoReduction, &graph, &spec, &never, false);
            assert!(found.is_none(), "{found:?}");
        }
    }

    /// A ring of 10⁴ pending states: the covering walk is as long as the
    /// component and is put together in passes over it, not per step.
    #[test]
    fn a_large_component_is_covered_in_linear_passes() {
        const RING: u32 = 10_000;
        let spec: ProtocolSpec<u32, Tok> = ProtocolSpec::builder("ring")
            .process("r", 0u32)
            .transition(
                TransitionSpec::builder("next", ProcessId(0))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new((*l + 1) % RING))
                    .build(),
            )
            .build()
            .unwrap();
        let never = Property::termination("never", |_: &GlobalState<u32, Tok>, _| false);
        let mut graph = PendingGraph::default();
        for node in 0..RING {
            let parent = node.checked_sub(1).map(|p| (p, 0));
            assert_eq!(graph.add_node(parent, Some(node.into())), node);
            graph.add_edge(node, (node + 1) % RING, 0);
        }
        let cx =
            judge(&NoReduction, &graph, &spec, &never, true).expect("the ring never terminates");
        assert_eq!(cx.cycle.len(), RING as usize);
        assert_eq!(
            cx.steps.len(),
            RING as usize - 1,
            "entered at the last node"
        );
    }
}
