//! The SCC backstop of the stateful liveness search: the pending subgraph
//! recorded while the lasso detector runs, and the strongly-connected-
//! component check over it that finds the fair cycles a depth-first tree
//! path cannot show (see the completeness note in [`crate::liveness`]).

use std::collections::{HashMap, VecDeque};

use mp_model::{
    enabled_instances, execute_enabled, LocalState, Message, ProtocolSpec, TransitionInstance,
};
use mp_store::{StateStoreBackend, StoreConfig};

use super::{cycle_fair, required_everywhere, violation_reason};
use crate::dfs::Key;
use crate::fp_index::FpIndex;
use crate::{Counterexample, Observer, Property};

/// An edge of the pending subgraph: the target node and the position of the
/// executed instance in the source node's enabled list.
type Edge = (usize, usize);

/// One node per obligation-carrying product state the search expanded, with
/// its full (pre-reduction) enabled set and the explored edges to other
/// pending product states.
pub(super) struct PendingGraph<S, M: Ord, O> {
    /// The key each node is visited under (canonical with symmetry on),
    /// moved in when the node's frame leaves the stack — until then the
    /// stack finds the state first.
    keys: Vec<Option<Key<S, M, O, bool>>>,
    enabled: Vec<Vec<TransitionInstance<M>>>,
    edges: Vec<Vec<Edge>>,
    /// Nodes whose frame has left the stack, by store fingerprint.
    closed: FpIndex,
}

impl<S, M, O> PendingGraph<S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    pub(super) fn new() -> Self {
        PendingGraph {
            keys: Vec::new(),
            enabled: Vec::new(),
            edges: Vec::new(),
            closed: FpIndex::default(),
        }
    }

    pub(super) fn add_node(&mut self, enabled: Vec<TransitionInstance<M>>) -> usize {
        self.keys.push(None);
        self.enabled.push(enabled);
        self.edges.push(Vec::new());
        self.keys.len() - 1
    }

    /// Everything enabled in the node's state.
    pub(super) fn enabled(&self, node: usize) -> &[TransitionInstance<M>] {
        &self.enabled[node]
    }

    pub(super) fn add_edge(&mut self, from: usize, to: usize, instance: &TransitionInstance<M>) {
        let at = self.enabled[from].iter().position(|i| i == instance);
        let at = at.expect("a reducer explores enabled instances only");
        self.edges[from].push((to, at));
    }

    /// The node's frame left the stack: the graph takes over its key.
    pub(super) fn close(&mut self, node: usize, fp: u64, key: Key<S, M, O, bool>) {
        self.keys[node] = Some(key);
        self.closed.insert(fp, node);
    }

    /// The closed node of `key`. `None` when the state has no node —
    /// possible for a pending state only with a hash-compaction store,
    /// where a collision can report an unseen state as visited; the caller
    /// then drops the edge, which keeps the (already documented)
    /// probabilistic-`Verified` contract of that backend.
    pub(super) fn find(&self, fp: u64, key: &Key<S, M, O, bool>) -> Option<usize> {
        self.closed.find(fp, |n| self.keys[n].as_ref() == Some(key))
    }

    /// Returns `true` if some strongly connected component of the recorded
    /// subgraph contains an internal edge (i.e. a cycle candidate exists).
    pub(super) fn has_cycle_candidate(&self) -> bool {
        let mut component = vec![usize::MAX; self.edges.len()];
        for (c, scc) in tarjan_sccs(&self.edges).iter().enumerate() {
            scc.iter().for_each(|&v| component[v] = c);
        }
        let mut all = self.edges.iter().enumerate();
        all.any(|(v, out)| out.iter().any(|&(w, _)| component[w] == component[v]))
    }

    /// SCC-based fair-cycle detection over the recorded subgraph, run when
    /// the on-stack detector found nothing. Returns the reconstructed lasso
    /// of the first violating component, if any.
    pub(super) fn violation(
        &self,
        spec: &ProtocolSpec<S, M>,
        property: &Property<S, M, O>,
        initial_observer: &O,
    ) -> Option<Counterexample> {
        let fairness = property.fairness();
        for scc in tarjan_sccs(&self.edges) {
            let mut member = vec![false; self.edges.len()];
            for &v in &scc {
                member[v] = true;
            }
            // Internal edges: the cycles of this component are built from them.
            let internal: Vec<(usize, usize, &TransitionInstance<M>)> = scc
                .iter()
                .flat_map(|&v| {
                    let inside = self.edges[v].iter().filter(|(w, _)| member[*w]);
                    inside.map(move |&(w, at)| (v, w, &self.enabled[v][at]))
                })
                .collect();
            if internal.is_empty() {
                continue; // trivial component: no cycle at all
            }
            let enabled: Vec<&[TransitionInstance<M>]> =
                scc.iter().map(|&v| self.enabled(v)).collect();
            let executed: Vec<&TransitionInstance<M>> =
                internal.iter().map(|&(_, _, i)| i).collect();
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
            let mut required_edges: Vec<(usize, usize, &TransitionInstance<M>)> =
                required_everywhere(spec, fairness, &enabled)
                    .into_iter()
                    .map(|c| {
                        let found = internal.iter().find(|(_, _, i)| *i == c);
                        *found.expect("fair component executes every required instance")
                    })
                    .collect();
            loop {
                to_visit.retain(|&v| v != at);
                if let Some(pos) = required_edges.iter().position(|(v, _, _)| *v == at) {
                    let (_, w, i) = required_edges.remove(pos);
                    cycle.push(i.clone());
                    at = w;
                    continue;
                }
                if let Some((reached, path)) = self.bfs_within(&member, at, |v| {
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
                let (_, path) = self
                    .bfs_within(&member, at, |v| v == entry)
                    .expect("the component is strongly connected");
                cycle.extend(path);
            } else if cycle.is_empty() {
                // Single-node component: its cycle is a self-loop edge.
                cycle.push(internal[0].2.clone());
            }

            // Stem: product-graph BFS from the initial state to the entry node.
            let goal = self.keys[entry].as_ref();
            let goal = goal.expect("the search is over: every frame has left the stack");
            return Some(Counterexample::lasso(
                spec,
                property.name(),
                violation_reason(property.class(), false, fairness),
                &stem_to(spec, property, initial_observer, goal),
                &cycle,
                &goal.0,
            ));
        }
        None
    }

    /// Shortest instance-labelled path from `from` to a node satisfying
    /// `done`, restricted to `allowed` nodes. Returns the node reached and
    /// the edge path.
    fn bfs_within(
        &self,
        allowed: &[bool],
        from: usize,
        done: impl Fn(usize) -> bool,
    ) -> Option<(usize, Vec<TransitionInstance<M>>)> {
        if done(from) {
            return Some((from, Vec::new()));
        }
        let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            for &(w, at) in &self.edges[v] {
                if !allowed[w] || w == from || parent.contains_key(&w) {
                    continue;
                }
                parent.insert(w, (v, at));
                if done(w) {
                    let mut path = Vec::new();
                    let mut cursor = w;
                    while cursor != from {
                        let (prev, at) = parent[&cursor];
                        path.push(self.enabled[prev][at].clone());
                        cursor = prev;
                    }
                    path.reverse();
                    return Some((w, path));
                }
                queue.push_back(w);
            }
        }
        None
    }
}

/// Iterative Tarjan SCC over an adjacency list; returns the components.
fn tarjan_sccs(edges: &[Vec<Edge>]) -> Vec<Vec<usize>> {
    let n = edges.len();
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
            if let Some(&(w, _)) = edges[v].get(*edge) {
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

/// Breadth-first path from the initial product state to `goal`,
/// re-executing the protocol (shortest stem for the lasso).
fn stem_to<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    goal: &Key<S, M, O, bool>,
) -> Vec<TransitionInstance<M>>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let initial = spec.initial_state();
    let observer = initial_observer.clone();
    let pending = property.initial_pending(&initial, &observer);
    let start = (initial, observer, pending);
    if start == *goal {
        return Vec::new();
    }
    let visited = StoreConfig::Exact.build::<Key<S, M, O, bool>>();
    visited.insert_ref(&start);
    let mut parents: Vec<(usize, TransitionInstance<M>)> = Vec::new();
    let mut keys = vec![start];
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
                if !visited.insert_ref(&key) {
                    continue;
                }
                parents.push((at, instance));
                if key == *goal {
                    let mut path = Vec::new();
                    let mut cursor = keys.len();
                    while cursor != 0 {
                        let (prev, inst) = parents[cursor - 1].clone();
                        path.push(inst);
                        cursor = prev;
                    }
                    path.reverse();
                    return path;
                }
                next_frontier.push(keys.len());
                keys.push(key);
            }
        }
        frontier = next_frontier;
    }
    unreachable!("every pending-graph node was reached during the search")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::tests::Tok;
    use crate::liveness::tests::{reaches, toggler};
    use crate::NullObserver;
    use mp_model::GlobalState;

    #[test]
    fn tarjan_separates_cycles_from_their_tails() {
        // 0 → 1 → 2 → 0 is one component, its exit 3 → 4 two trivial ones.
        let edges: Vec<Vec<Edge>> = [vec![1], vec![2], vec![0, 3], vec![4], vec![]]
            .into_iter()
            .map(|out| out.into_iter().map(|w| (w, 0)).collect())
            .collect();
        let mut sccs = tarjan_sccs(&edges);
        sccs.iter_mut().for_each(|scc| scc.sort_unstable());
        sccs.sort();
        assert_eq!(sccs, [vec![0, 1, 2], vec![3], vec![4]]);
    }

    /// The backstop on its own, over a hand-recorded graph: a toggler's two
    /// states, both pending, each with an edge to the other.
    #[test]
    fn a_recorded_fair_component_becomes_a_replayable_lasso() {
        let (spec, never) = (toggler(), reaches(5));
        let states = [spec.initial_state(), GlobalState::new(vec![1u8])];
        let mut graph: PendingGraph<u8, Tok, NullObserver> = PendingGraph::new();
        for state in &states {
            graph.add_node(enabled_instances(&spec, state));
        }
        assert!(!graph.has_cycle_candidate());
        for (from, to) in [(0, 1), (1, 0)] {
            let toggle = graph.enabled(from)[0].clone();
            graph.add_edge(from, to, &toggle);
        }
        assert!(graph.has_cycle_candidate());
        // Both nodes forced under one fingerprint: found apart by their keys.
        for (node, state) in states.iter().enumerate() {
            graph.close(node, 7, (state.clone(), NullObserver, true));
        }
        assert_eq!(
            graph.find(7, &(states[1].clone(), NullObserver, true)),
            Some(1)
        );
        assert_eq!(
            graph.find(7, &(states[1].clone(), NullObserver, false)),
            None
        );

        let cx = graph
            .violation(&spec, &never, &NullObserver)
            .expect("the toggle loop is fair and never reaches 5");
        assert!(cx.is_lasso);
        assert_eq!(cx.cycle.len(), 2, "{cx}");
        // The stem is the shortest way to whichever state the walk enters at.
        assert!(cx.steps.len() <= 1, "{cx}");
    }
}
