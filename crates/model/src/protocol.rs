//! Protocol specifications: a set of processes, their initial local states
//! and their transitions.
//!
//! A message-passing protocol is "specified by defining a set `T_i` of
//! transitions for each process `i`" (paper, Section II-A). A
//! [`ProtocolSpec`] is the flat list of all transitions of all processes,
//! together with the initial local state of every process and human-readable
//! metadata used in reports and counterexamples.

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

use crate::{
    GlobalState, InputSpec, LocalState, Message, ModelError, ProcessId, QuorumSpec, TransitionId,
    TransitionSpec,
};

/// A global enable filter: a state-dependent admission predicate consulted
/// before a transition's instances are enumerated.
///
/// Ordinary guards only see the local state of the executing process; an
/// enable filter sees the whole [`GlobalState`] and can therefore express
/// *global* side conditions — the motivating use is the fault budget of
/// `mp-faults`, where an environment transition is admissible only while the
/// system-wide number of crashes/drops/duplications/corruptions is below its
/// budget. The filter must be **monotone against itself**: it may depend on
/// state components that only its own (environment) transitions modify, and
/// `mp-por` keeps SPOR/DPOR sound by treating environment transitions as
/// mutually dependent.
///
/// The filter receives the transition *spec* (not its id) so that it stays
/// valid across [`ProtocolSpec::with_transitions`] (refinement renumbers
/// ids but preserves names and annotations).
pub(crate) type EnableFilter<S, M> =
    Arc<dyn Fn(&GlobalState<S, M>, &TransitionSpec<S, M>) -> bool + Send + Sync>;

/// A complete protocol model.
///
/// Build one with [`ProtocolBuilder`]; the builder validates the model on
/// [`ProtocolBuilder::build`].
#[derive(Clone)]
pub struct ProtocolSpec<S, M: Ord> {
    name: String,
    process_names: Vec<String>,
    initial_locals: Vec<S>,
    transitions: Vec<TransitionSpec<S, M>>,
    transitions_by_process: Vec<Vec<TransitionId>>,
    enable_filter: Option<EnableFilter<S, M>>,
}

impl<S: LocalState, M: Message> ProtocolSpec<S, M> {
    /// Starts building a protocol named `name`.
    pub fn builder(name: impl Into<String>) -> ProtocolBuilder<S, M> {
        ProtocolBuilder::new(name)
    }

    /// Returns the protocol name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of processes.
    pub fn num_processes(&self) -> usize {
        self.initial_locals.len()
    }

    /// Returns the display name of a process.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn process_name(&self, process: ProcessId) -> &str {
        &self.process_names[process.index()]
    }

    /// Returns all process ids of the protocol.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.num_processes()).map(ProcessId)
    }

    /// Returns the initial global state (all channels empty).
    pub fn initial_state(&self) -> GlobalState<S, M> {
        GlobalState::new(self.initial_locals.clone())
    }

    /// Returns the number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Returns all transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.num_transitions()).map(TransitionId)
    }

    /// Returns the transition with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; use [`ProtocolSpec::get`] for a
    /// fallible lookup.
    pub fn transition(&self, id: TransitionId) -> &TransitionSpec<S, M> {
        &self.transitions[id.index()]
    }

    /// Returns the transition with the given id, if it exists.
    pub fn get(&self, id: TransitionId) -> Option<&TransitionSpec<S, M>> {
        self.transitions.get(id.index())
    }

    /// Returns the id of the transition with the given name, if any.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name() == name)
            .map(TransitionId)
    }

    /// Iterates over `(id, spec)` pairs of all transitions.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &TransitionSpec<S, M>)> {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (TransitionId(i), t))
    }

    /// Returns the ids of the transitions executed by `process`.
    pub fn transitions_of(&self, process: ProcessId) -> &[TransitionId] {
        &self.transitions_by_process[process.index()]
    }

    /// Replaces the transition list wholesale, revalidating the protocol.
    ///
    /// This is the primitive used by transition refinement: the process set
    /// and initial states stay identical, only the transition set changes.
    ///
    /// # Errors
    ///
    /// Returns an error if the new transition set fails validation (unknown
    /// processes, duplicate names, infeasible quorums, ...).
    pub fn with_transitions(
        &self,
        transitions: Vec<TransitionSpec<S, M>>,
    ) -> Result<Self, ModelError> {
        let mut builder = ProtocolBuilder::new(self.name.clone());
        for (name, local) in self.process_names.iter().zip(self.initial_locals.iter()) {
            builder = builder.process(name.clone(), local.clone());
        }
        for t in transitions {
            builder = builder.transition(t);
        }
        let mut spec = builder.build()?;
        // The enable filter is keyed on transition specs, not ids, so it
        // survives refinement's renumbering unchanged.
        spec.enable_filter = self.enable_filter.clone();
        Ok(spec)
    }

    /// Installs a global `EnableFilter` (builder style). The filter is
    /// consulted by [`enabled_instances`](crate::enabled_instances) before a
    /// transition's instances are enumerated; returning `false` makes the
    /// transition disabled in that state.
    pub fn with_enable_filter<F>(mut self, filter: F) -> Self
    where
        F: Fn(&GlobalState<S, M>, &TransitionSpec<S, M>) -> bool + Send + Sync + 'static,
    {
        self.enable_filter = Some(Arc::new(filter));
        self
    }

    /// Returns `true` if `transition` passes the enable filter in `state`
    /// (trivially `true` when no filter is installed). Guards and channel
    /// contents are judged separately by the enabledness enumeration.
    pub fn admits(&self, state: &GlobalState<S, M>, transition: &TransitionSpec<S, M>) -> bool {
        match &self.enable_filter {
            Some(filter) => filter(state, transition),
            None => true,
        }
    }

    /// Returns a copy of this protocol with a different name (used by the
    /// refinement strategies to label split models).
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        let mut copy = self.clone();
        copy.name = name.into();
        copy
    }

    /// Returns the names of all transitions, in id order.
    pub fn transition_names(&self) -> Vec<&str> {
        self.transitions.iter().map(|t| t.name()).collect()
    }

    /// A stable 64-bit fingerprint of the protocol's *structure*: its name,
    /// process names, and transition (name, executing-process) pairs in id
    /// order. Guards and effects are opaque closures, so behavioural changes
    /// that keep the structure identical are not detected — the fingerprint
    /// identifies *which model was configured*, not its semantics.
    ///
    /// The checkpoint manifests of `mp-store` persist this value and refuse
    /// to resume a run against a protocol whose structure has changed (a
    /// renamed transition, a different process count); see the
    /// `docs/ON_DISK_FORMATS.md` compatibility policy.
    pub fn structure_fingerprint(&self) -> u64 {
        let mut h = crate::codec::Fnv64::new();
        h.write(self.name.as_bytes());
        h.write_u64(self.process_names.len() as u64);
        for name in &self.process_names {
            h.write(name.as_bytes());
        }
        h.write_u64(self.transitions.len() as u64);
        for t in &self.transitions {
            h.write(t.name().as_bytes());
            h.write_u64(t.process().0 as u64);
        }
        h.finish()
    }
}

impl<S, M: Ord> fmt::Debug for ProtocolSpec<S, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolSpec")
            .field("name", &self.name)
            .field("processes", &self.process_names)
            .field("num_transitions", &self.transitions.len())
            .field("enable_filter", &self.enable_filter.is_some())
            .finish_non_exhaustive()
    }
}

/// Builder for [`ProtocolSpec`].
///
/// # Examples
///
/// ```
/// use mp_model::{Outcome, ProcessId, ProtocolSpec, TransitionSpec};
///
/// let protocol: ProtocolSpec<u32, String> = ProtocolSpec::builder("demo")
///     .process("client", 0u32)
///     .process("server", 0u32)
///     .transition(
///         TransitionSpec::builder("REQUEST", ProcessId(0))
///             .internal()
///             .guard(|local, _| *local == 0)
///             .sends(&["STRING"])
///             .effect(|_, _| Outcome::new(1).send(ProcessId(1), "req".to_string()))
///             .build(),
///     )
///     .transition(
///         TransitionSpec::builder("SERVE", ProcessId(1))
///             .single_input("STRING")
///             .effect(|local, _| Outcome::new(local + 1))
///             .build(),
///     )
///     .build()
///     .expect("valid protocol");
/// assert_eq!(protocol.num_processes(), 2);
/// assert_eq!(protocol.num_transitions(), 2);
/// ```
pub struct ProtocolBuilder<S, M> {
    name: String,
    process_names: Vec<String>,
    initial_locals: Vec<S>,
    transitions: Vec<TransitionSpec<S, M>>,
}

impl<S: LocalState, M: Message> ProtocolBuilder<S, M> {
    /// Starts a builder for a protocol named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProtocolBuilder {
            name: name.into(),
            process_names: Vec::new(),
            initial_locals: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Declares a process with a display name and initial local state, and
    /// returns the builder. Processes are numbered in declaration order.
    pub fn process(mut self, name: impl Into<String>, initial: S) -> Self {
        self.process_names.push(name.into());
        self.initial_locals.push(initial);
        self
    }

    /// Adds a transition.
    pub fn transition(mut self, spec: TransitionSpec<S, M>) -> Self {
        self.transitions.push(spec);
        self
    }

    /// Adds a transition (by-reference variant for loop-heavy construction).
    pub fn add_transition(&mut self, spec: TransitionSpec<S, M>) {
        self.transitions.push(spec);
    }

    /// Validates and builds the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the protocol is structurally invalid:
    /// no processes/transitions, initial-state mismatch, transitions of
    /// unknown processes, duplicate transition names, sender restrictions
    /// mentioning unknown processes, or quorums larger than the candidate
    /// sender set.
    pub fn build(self) -> Result<ProtocolSpec<S, M>, ModelError> {
        let num_processes = self.process_names.len();
        if num_processes == 0 || self.transitions.is_empty() {
            return Err(ModelError::EmptyProtocol);
        }
        if self.initial_locals.len() != num_processes {
            return Err(ModelError::InitialStateMismatch {
                processes: num_processes,
                initial_states: self.initial_locals.len(),
            });
        }

        let mut names: HashSet<&str> = HashSet::new();
        for t in &self.transitions {
            if t.process().index() >= num_processes {
                return Err(ModelError::UnknownProcess {
                    process: t.process(),
                    num_processes,
                });
            }
            if !names.insert(t.name()) {
                return Err(ModelError::DuplicateTransitionName {
                    name: t.name().to_string(),
                });
            }
            if let Some(senders) = t.allowed_senders() {
                if let Some(bad) = senders.iter().find(|p| p.index() >= num_processes) {
                    return Err(ModelError::UnknownProcess {
                        process: *bad,
                        num_processes,
                    });
                }
            }
            if let InputSpec::Quorum { quorum, .. } = t.input() {
                let candidate_senders = t
                    .allowed_senders()
                    .map(BTreeSet::len)
                    .unwrap_or(num_processes);
                let min = quorum.min_senders();
                if min == 0 {
                    return Err(ModelError::InfeasibleQuorum {
                        transition: t.name().to_string(),
                        detail: "quorum size zero; use an internal transition instead".into(),
                    });
                }
                if min > candidate_senders {
                    return Err(ModelError::InfeasibleQuorum {
                        transition: t.name().to_string(),
                        detail: format!(
                            "quorum needs {min} senders but only {candidate_senders} processes may send to it"
                        ),
                    });
                }
                if let QuorumSpec::Between { min, max } = quorum {
                    if min > max {
                        return Err(ModelError::InfeasibleQuorum {
                            transition: t.name().to_string(),
                            detail: format!("empty quorum range {min}..={max}"),
                        });
                    }
                }
            }
        }

        let mut transitions_by_process = vec![Vec::new(); num_processes];
        for (i, t) in self.transitions.iter().enumerate() {
            transitions_by_process[t.process().index()].push(TransitionId(i));
        }

        Ok(ProtocolSpec {
            name: self.name,
            process_names: self.process_names,
            initial_locals: self.initial_locals,
            transitions: self.transitions,
            transitions_by_process,
            enable_filter: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;

    type S = u32;
    type M = String;

    fn internal(name: &str, p: usize) -> TransitionSpec<S, M> {
        TransitionSpec::builder(name.to_string(), ProcessId(p))
            .internal()
            .effect(|l, _| Outcome::new(l + 1))
            .build()
    }

    #[test]
    fn build_minimal_protocol() {
        let proto: ProtocolSpec<S, M> = ProtocolSpec::builder("p")
            .process("a", 0)
            .transition(internal("t0", 0))
            .build()
            .unwrap();
        assert_eq!(proto.name(), "p");
        assert_eq!(proto.num_processes(), 1);
        assert_eq!(proto.num_transitions(), 1);
        assert_eq!(proto.process_name(ProcessId(0)), "a");
        assert_eq!(proto.transition_by_name("t0"), Some(TransitionId(0)));
        assert_eq!(proto.transition_by_name("nope"), None);
        assert_eq!(proto.transitions_of(ProcessId(0)), &[TransitionId(0)]);
        let init = proto.initial_state();
        assert_eq!(init.locals, vec![0]);
    }

    #[test]
    fn empty_protocol_is_rejected() {
        let err = ProtocolSpec::<S, M>::builder("p").build().unwrap_err();
        assert_eq!(err, ModelError::EmptyProtocol);
        let err = ProtocolSpec::<S, M>::builder("p")
            .process("a", 0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::EmptyProtocol);
    }

    #[test]
    fn unknown_process_is_rejected() {
        let err = ProtocolSpec::<S, M>::builder("p")
            .process("a", 0)
            .transition(internal("t0", 3))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownProcess { .. }));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let err = ProtocolSpec::<S, M>::builder("p")
            .process("a", 0)
            .transition(internal("t", 0))
            .transition(internal("t", 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateTransitionName { .. }));
    }

    #[test]
    fn infeasible_quorum_is_rejected() {
        let t: TransitionSpec<S, M> = TransitionSpec::builder("q", ProcessId(0))
            .quorum_input("STRING", crate::QuorumSpec::Exact(5))
            .effect(|l, _| Outcome::new(*l))
            .build();
        let err = ProtocolSpec::builder("p")
            .process("a", 0)
            .process("b", 0)
            .transition(t)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InfeasibleQuorum { .. }));
    }

    #[test]
    fn allowed_senders_out_of_range_rejected() {
        let t: TransitionSpec<S, M> = TransitionSpec::builder("q", ProcessId(0))
            .single_input("STRING")
            .allowed_senders([ProcessId(9)])
            .effect(|l, _| Outcome::new(*l))
            .build();
        let err = ProtocolSpec::builder("p")
            .process("a", 0)
            .process("b", 0)
            .transition(t)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownProcess { .. }));
    }

    #[test]
    fn with_transitions_replaces_and_revalidates() {
        let proto: ProtocolSpec<S, M> = ProtocolSpec::builder("p")
            .process("a", 0)
            .process("b", 1)
            .transition(internal("t0", 0))
            .build()
            .unwrap();
        let replaced = proto
            .with_transitions(vec![internal("x", 0), internal("y", 1)])
            .unwrap();
        assert_eq!(replaced.num_transitions(), 2);
        assert_eq!(replaced.num_processes(), 2);
        assert_eq!(replaced.initial_state().locals, vec![0, 1]);
        assert!(proto.with_transitions(vec![internal("x", 7)]).is_err());
    }

    #[test]
    fn renamed_keeps_structure() {
        let proto: ProtocolSpec<S, M> = ProtocolSpec::builder("p")
            .process("a", 0)
            .transition(internal("t0", 0))
            .build()
            .unwrap();
        let renamed = proto.renamed("p-split");
        assert_eq!(renamed.name(), "p-split");
        assert_eq!(renamed.num_transitions(), proto.num_transitions());
    }
}
