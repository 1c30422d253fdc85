//! Explicit state-graph construction.
//!
//! The semantics of a message-passing protocol is a state graph (Kripke
//! structure) `(S, S0, Δ)` (paper, Section II-A). For small instances the
//! full graph can be materialised; this is used by the transition-refinement
//! validation (Theorem 2 states that a refined protocol generates *the same*
//! state graph) and by tests that compare reduced explorations against the
//! ground truth.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::{successors, GlobalState, LocalState, Message, ModelError, ProtocolSpec, TransitionId};

/// An explicit state graph with states interned as dense indices.
#[derive(Clone, Debug)]
pub struct StateGraph<S, M: Message> {
    states: Vec<GlobalState<S, M>>,
    index: HashMap<GlobalState<S, M>, usize>,
    edges: Vec<Vec<(TransitionId, usize)>>,
}

impl<S: LocalState, M: Message> StateGraph<S, M> {
    /// Builds the full state graph of `spec` by breadth-first exploration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LimitExceeded`] if more than `max_states`
    /// distinct states are reachable.
    pub fn build(spec: &ProtocolSpec<S, M>, max_states: usize) -> Result<Self, ModelError> {
        let initial_state = spec.initial_state();
        let mut graph = StateGraph {
            states: vec![initial_state.clone()],
            index: HashMap::from([(initial_state, 0)]),
            edges: vec![Vec::new()],
        };
        let mut queue = VecDeque::from([0usize]);
        while let Some(current) = queue.pop_front() {
            let state = graph.states[current].clone();
            for (instance, next_state) in successors(spec, &state) {
                let next_index = match graph.index.get(&next_state) {
                    Some(&i) => i,
                    None => {
                        if graph.states.len() >= max_states {
                            return Err(ModelError::LimitExceeded {
                                what: "state graph states".into(),
                                limit: max_states,
                            });
                        }
                        let i = graph.states.len();
                        graph.states.push(next_state.clone());
                        graph.index.insert(next_state, i);
                        graph.edges.push(Vec::new());
                        queue.push_back(i);
                        i
                    }
                };
                graph.edges[current].push((instance.transition, next_index));
            }
        }
        Ok(graph)
    }

    /// Returns the number of distinct reachable states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Returns the number of edges, counting parallel edges produced by
    /// different transitions once each.
    pub fn num_edges(&self) -> usize {
        self.edge_set().len()
    }

    /// Returns the state with the given index; index 0 is the initial
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn state(&self, index: usize) -> &GlobalState<S, M> {
        &self.states[index]
    }

    /// Returns the set of state pairs `Δ ⊆ S × S`, ignoring transition
    /// labels. Two protocols generate the same state graph iff they have the
    /// same reachable states and the same Δ — which is exactly the condition
    /// of Definition 1 (transition refinement).
    pub(crate) fn edge_set(&self) -> BTreeSet<(usize, usize)> {
        let mut set = BTreeSet::new();
        for (from, outs) in self.edges.iter().enumerate() {
            for (_, to) in outs {
                set.insert((from, *to));
            }
        }
        set
    }

    /// Checks whether this graph and `other` are isomorphic *as state
    /// graphs over the same state space*: the same set of reachable global
    /// states and the same transition relation Δ (transition labels are
    /// ignored, per Definition 1 of the paper).
    pub fn same_state_graph(&self, other: &StateGraph<S, M>) -> bool {
        if self.num_states() != other.num_states() {
            return false;
        }
        // Map this graph's indices into the other graph's indices via the
        // actual global states.
        let mut mapping = vec![usize::MAX; self.num_states()];
        for (i, state) in self.states.iter().enumerate() {
            match other.index.get(state) {
                Some(&j) => mapping[i] = j,
                None => return false,
            }
        }
        let ours: BTreeSet<(usize, usize)> = self
            .edge_set()
            .into_iter()
            .map(|(a, b)| (mapping[a], mapping[b]))
            .collect();
        ours == other.edge_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kind, Outcome, ProcessId, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Token(u8);
    crate::codec!(struct Token(n));

    impl Message for Token {
        fn kind(&self) -> Kind {
            "TOKEN"
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// Two independent processes, each making one internal step: the state
    /// graph is the classic commuting diamond of Figure 4(a).
    fn diamond() -> ProtocolSpec<u8, Token> {
        ProtocolSpec::builder("diamond")
            .process("a", 0u8)
            .process("b", 0u8)
            .transition(
                TransitionSpec::builder("t1", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("t2", p(1))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn diamond_has_four_states_and_four_edges() {
        let graph = StateGraph::build(&diamond(), 1000).unwrap();
        assert_eq!(graph.num_states(), 4);
        assert_eq!(graph.num_edges(), 4);
    }

    #[test]
    fn state_limit_is_enforced() {
        let err = StateGraph::build(&diamond(), 2).unwrap_err();
        assert!(matches!(err, ModelError::LimitExceeded { .. }));
    }

    #[test]
    fn same_state_graph_is_reflexive() {
        let g1 = StateGraph::build(&diamond(), 1000).unwrap();
        let g2 = StateGraph::build(&diamond(), 1000).unwrap();
        assert!(g1.same_state_graph(&g2));
        assert!(g2.same_state_graph(&g1));
    }

    #[test]
    fn different_protocols_have_different_graphs() {
        let g1 = StateGraph::build(&diamond(), 1000).unwrap();
        // A protocol where only process a moves.
        let single = ProtocolSpec::builder("single")
            .process("a", 0u8)
            .process("b", 0u8)
            .transition(
                TransitionSpec::builder("t1", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap();
        let g2 = StateGraph::<u8, Token>::build(&single, 1000).unwrap();
        assert!(!g1.same_state_graph(&g2));
        assert!(!g2.same_state_graph(&g1));
    }

    #[test]
    fn renaming_transitions_preserves_the_state_graph() {
        // Definition 1 in action: a copy of the diamond with renamed
        // transitions generates the same state graph.
        let renamed = ProtocolSpec::builder("diamond-renamed")
            .process("a", 0u8)
            .process("b", 0u8)
            .transition(
                TransitionSpec::builder("alpha", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("beta", p(1))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap();
        let g1 = StateGraph::build(&diamond(), 1000).unwrap();
        let g2 = StateGraph::build(&renamed, 1000).unwrap();
        assert!(g1.same_state_graph(&g2));
    }

    #[test]
    fn state_set_contains_initial_state() {
        let proto = diamond();
        let graph = StateGraph::build(&proto, 1000).unwrap();
        assert_eq!(graph.state(0), &proto.initial_state());
    }
}
