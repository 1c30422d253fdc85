//! Transitions: guards, effects, quorum specifications and POR annotations.
//!
//! A transition `t ∈ T_i` of process `i` can consume zero or more messages
//! from the incoming channels of `i`, change the local state of `i`, and send
//! messages (paper, Section II-A). A transition that can consume more than
//! one message in a single step is a **quorum transition**; one that consumes
//! at most one message is a **single-message transition**; one that consumes
//! none is an *internal* transition (the paper models these through "fake
//! messages" sent by the driver, see the appendix — we model them directly).
//!
//! Each transition carries [`Annotations`] mirroring Table IV of the paper:
//! they describe, state-unconditionally, which message kinds the transition
//! may consume and send and to whom, whether it is a reply transition,
//! whether it is visible to the property, and its seed-selection priority.
//! The static partial-order reduction in `mp-por` is driven entirely by these
//! annotations, exactly like MP-LPOR.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::{Envelope, Kind, LocalState, Message, ProcessId};

/// How many messages (from how many distinct senders) a quorum transition
/// consumes in one step.
///
/// [`QuorumSpec::Exact`] corresponds to the paper's *exact quorum transition*
/// (Definition 2): every execution consumes messages from exactly `q`
/// distinct senders. This is the class of transitions that quorum-split
/// refinement applies to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QuorumSpec {
    /// Messages from exactly this many distinct senders.
    Exact(usize),
    /// Messages from at least this many distinct senders (the guard decides
    /// which subsets are acceptable). Enumeration of candidate sets is
    /// exponential in the number of senders; use sparingly.
    AtLeast(usize),
    /// Messages from between `min` and `max` distinct senders (inclusive).
    Between {
        /// Minimum number of distinct senders.
        min: usize,
        /// Maximum number of distinct senders.
        max: usize,
    },
}

impl QuorumSpec {
    /// Returns the exact quorum size if this is an exact quorum.
    pub(crate) fn exact_size(&self) -> Option<usize> {
        match self {
            QuorumSpec::Exact(q) => Some(*q),
            _ => None,
        }
    }

    /// Returns the smallest number of senders any execution may involve.
    pub(crate) fn min_senders(&self) -> usize {
        match self {
            QuorumSpec::Exact(q) => *q,
            QuorumSpec::AtLeast(q) => *q,
            QuorumSpec::Between { min, .. } => *min,
        }
    }

    /// Returns the largest number of senders any execution may involve, if
    /// bounded.
    pub(crate) fn max_senders(&self) -> Option<usize> {
        match self {
            QuorumSpec::Exact(q) => Some(*q),
            QuorumSpec::AtLeast(_) => None,
            QuorumSpec::Between { max, .. } => Some(*max),
        }
    }

    /// Returns `true` if consuming messages from `k` distinct senders is
    /// admissible under this specification.
    pub fn admits(&self, k: usize) -> bool {
        match self {
            QuorumSpec::Exact(q) => k == *q,
            QuorumSpec::AtLeast(q) => k >= *q,
            QuorumSpec::Between { min, max } => k >= *min && k <= *max,
        }
    }
}

impl fmt::Display for QuorumSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumSpec::Exact(q) => write!(f, "exactly {q}"),
            QuorumSpec::AtLeast(q) => write!(f, "at least {q}"),
            QuorumSpec::Between { min, max } => write!(f, "between {min} and {max}"),
        }
    }
}

/// What a transition consumes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InputSpec {
    /// The transition consumes no messages (driver-triggered in the paper's
    /// terminology; e.g. a Paxos proposer starting a ballot).
    Internal,
    /// The transition consumes a single message of the given kind.
    Single {
        /// Kind of the consumed message.
        kind: Kind,
    },
    /// The transition consumes a set of messages of the given kind from a
    /// quorum of distinct senders.
    Quorum {
        /// Kind of the consumed messages.
        kind: Kind,
        /// Admissible quorum sizes.
        quorum: QuorumSpec,
    },
}

impl InputSpec {
    /// Returns the kind of message this transition consumes, if any.
    pub fn kind(&self) -> Option<Kind> {
        match self {
            InputSpec::Internal => None,
            InputSpec::Single { kind } => Some(kind),
            InputSpec::Quorum { kind, .. } => Some(kind),
        }
    }

    /// Returns `true` if this is a quorum input (may consume more than one
    /// message in a step).
    pub fn is_quorum(&self) -> bool {
        matches!(self, InputSpec::Quorum { .. })
    }
}

/// The recipients a transition may send messages to, described
/// state-unconditionally for the benefit of static POR.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum RecipientSet {
    /// The transition never sends messages.
    None,
    /// The transition may send to any process (the conservative default).
    #[default]
    All,
    /// The transition only ever sends to the listed processes.
    Only(BTreeSet<ProcessId>),
    /// The transition only sends to the senders of the messages it consumed
    /// (a *reply transition*, paper Definition 4). When the transition is
    /// additionally restricted to a fixed sender set (quorum-/reply-split),
    /// the possible recipients shrink to that set.
    SendersOfInput,
}

impl RecipientSet {
    /// Returns `true` if the transition may send some message to `target`.
    /// A reply transition restricted to a fixed sender set
    /// (`allowed_senders`, set by the splits) replies only within it; an
    /// unrestricted one may reply to any process.
    pub fn may_send_to(
        &self,
        target: ProcessId,
        allowed_senders: Option<&BTreeSet<ProcessId>>,
    ) -> bool {
        match self {
            RecipientSet::None => false,
            RecipientSet::All => true,
            RecipientSet::Only(set) => set.contains(&target),
            RecipientSet::SendersOfInput => match allowed_senders {
                Some(set) => set.contains(&target),
                None => true,
            },
        }
    }
}

/// State-unconditional annotations of a transition, mirroring Table IV of the
/// paper.
///
/// The defaults are deliberately conservative (a transition may send any kind
/// to anyone, reads and writes its local state, is not visible); conservative
/// annotations can only make partial-order reduction *less* aggressive, never
/// unsound.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Annotations {
    /// Message kinds this transition may send (`messageOut()` in Table IV).
    pub messages_out: Vec<Kind>,
    /// Processes this transition may send to (`senders()`/`recipients()` in
    /// Table IV, folded into one description).
    pub recipients: RecipientSet,
    /// `true` if this is a reply transition (Definition 4): it only sends to
    /// the senders of the messages it consumed.
    pub is_reply: bool,
    /// Seed-transition priority for the POR heuristics (`priority()`);
    /// larger means preferred as the first transition of a stubborn set.
    pub priority: i32,
    /// `true` if the transition may change the truth value of the property
    /// under verification (`isVisible()`); visible transitions are never
    /// pruned by the reduction.
    pub is_visible: bool,
    /// `true` if the guard reads the local state (`isStateSensitive()`).
    pub reads_local: bool,
    /// `true` if the effect writes the local state (`isWrite()`).
    pub writes_local: bool,
    /// `true` if this is an **environment transition**: it models the
    /// environment (crash, message loss/duplication/corruption from
    /// `mp-faults`) rather than the protocol. Environment transitions share
    /// a global fault budget, so `mp-por` treats any two of them as
    /// mutually dependent (unless their [`Annotations::environment_class`]es
    /// prove their budgets disjoint) and assumes one may enable any
    /// transition of its own process (it can rewrite that process's channels
    /// and local bookkeeping arbitrarily). Liveness checking (`mp-checker`)
    /// additionally exempts environment transitions from fairness: a crash
    /// is never *required* to happen.
    pub is_environment: bool,
    /// The budget class of an environment transition (e.g. `"crash"`,
    /// `"drop"`). Two environment transitions of *different* classes draw on
    /// disjoint budget counters, so neither can disable the other by
    /// exhausting a shared budget; `mp-por` uses this to declare them
    /// independent when they also pass the ordinary communication test.
    /// `None` (the default) means "unknown class": conservatively dependent
    /// on every other environment transition.
    pub environment_class: Option<Kind>,
}

impl Default for Annotations {
    fn default() -> Self {
        Annotations {
            messages_out: Vec::new(),
            recipients: RecipientSet::All,
            is_reply: false,
            priority: 0,
            is_visible: false,
            reads_local: true,
            writes_local: true,
            is_environment: false,
            environment_class: None,
        }
    }
}

/// The result of executing a transition: the new local state of the executing
/// process and the messages it sends.
///
/// # Examples
///
/// ```
/// use mp_model::{Outcome, ProcessId};
///
/// let out = Outcome::new(5u32).send(ProcessId(1), "hi".to_string());
/// assert_eq!(out.next_local, 5);
/// assert_eq!(out.sends.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outcome<S, M> {
    /// The local state of the executing process after the transition.
    pub next_local: S,
    /// Messages sent by the transition, as `(recipient, payload)` pairs.
    pub sends: Vec<(ProcessId, M)>,
    /// Messages placed back into the incoming channels of the *executing*
    /// process, as `(original sender, payload)` pairs. Ordinary protocol
    /// transitions never use this; it exists for *environment* transitions
    /// (fault injection, `mp-faults`) that duplicate or mutate a pending
    /// message while preserving who appears to have sent it — the sender
    /// identity matters because quorum transitions count distinct senders.
    pub reinjects: Vec<(ProcessId, M)>,
}

impl<S, M> Outcome<S, M> {
    /// Creates an outcome that moves to `next_local` and sends nothing.
    pub fn new(next_local: S) -> Self {
        Outcome {
            next_local,
            sends: Vec::new(),
            reinjects: Vec::new(),
        }
    }

    /// Adds a message send to the outcome (builder style).
    pub fn send(mut self, to: ProcessId, message: M) -> Self {
        self.sends.push((to, message));
        self
    }

    /// Adds message sends to several recipients (builder style).
    pub fn broadcast<I: IntoIterator<Item = ProcessId>>(mut self, to: I, message: M) -> Self
    where
        M: Clone,
    {
        for recipient in to {
            self.sends.push((recipient, message.clone()));
        }
        self
    }

    /// Places a message back into the incoming channels of the executing
    /// process, attributed to `sender` (builder style). See
    /// [`Outcome::reinjects`].
    pub fn reinject(mut self, sender: ProcessId, message: M) -> Self {
        self.reinjects.push((sender, message));
        self
    }
}

/// Guard function type: decides whether a transition is enabled for a given
/// local state and candidate message set (paper: `g_t`).
pub(crate) type Guard<S, M> = Arc<dyn Fn(&S, &[Envelope<M>]) -> bool + Send + Sync>;

/// Effect function type: the local state transition function `ls_t` together
/// with the messages to send.
pub(crate) type Effect<S, M> = Arc<dyn Fn(&S, &[Envelope<M>]) -> Outcome<S, M> + Send + Sync>;

/// A transition specification.
///
/// Use [`TransitionSpec::builder`] (or the convenience constructors on
/// [`ProtocolBuilder`](crate::ProtocolBuilder)) to create one.
#[derive(Clone)]
pub struct TransitionSpec<S, M> {
    name: String,
    process: ProcessId,
    input: InputSpec,
    allowed_senders: Option<BTreeSet<ProcessId>>,
    guard: Option<Guard<S, M>>,
    effect: Effect<S, M>,
    annotations: Annotations,
}

impl<S: LocalState, M: Message> TransitionSpec<S, M> {
    /// Starts building a transition named `name`, executed by `process`.
    pub fn builder(name: impl Into<String>, process: ProcessId) -> TransitionBuilder<S, M> {
        TransitionBuilder::new(name, process)
    }

    /// Returns the (unique, human-readable) name of the transition.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the process executing this transition.
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// Returns the input specification of the transition.
    pub fn input(&self) -> &InputSpec {
        &self.input
    }

    /// Returns the kind of message the transition consumes, if any.
    pub fn input_kind(&self) -> Option<Kind> {
        self.input.kind()
    }

    /// Returns `true` if the transition is a quorum transition.
    pub fn is_quorum(&self) -> bool {
        self.input.is_quorum()
    }

    /// Returns the restriction on sender processes, if any.
    ///
    /// `None` means "messages from any process are acceptable". Quorum-split
    /// and reply-split refinement produce transitions with a fixed sender
    /// set (`quorumPeers()` in Table IV).
    pub fn allowed_senders(&self) -> Option<&BTreeSet<ProcessId>> {
        self.allowed_senders.as_ref()
    }

    /// Returns `true` if messages from `sender` may be consumed by this
    /// transition.
    pub fn may_receive_from(&self, sender: ProcessId) -> bool {
        match &self.allowed_senders {
            Some(set) => set.contains(&sender),
            None => true,
        }
    }

    /// Returns the POR annotations of the transition.
    pub fn annotations(&self) -> &Annotations {
        &self.annotations
    }

    /// Returns a mutable reference to the POR annotations.
    pub fn annotations_mut(&mut self) -> &mut Annotations {
        &mut self.annotations
    }

    /// Evaluates the guard on a local state and candidate message set.
    ///
    /// A transition without an explicit guard is enabled for any candidate
    /// set that matches its [`InputSpec`].
    pub fn guard_holds(&self, local: &S, messages: &[Envelope<M>]) -> bool {
        match &self.guard {
            Some(guard) => guard(local, messages),
            None => true,
        }
    }

    /// Applies the effect of the transition.
    pub fn apply(&self, local: &S, messages: &[Envelope<M>]) -> Outcome<S, M> {
        (self.effect)(local, messages)
    }

    /// Returns a copy of this transition with a different name, sender
    /// restriction and annotations — the primitive used by the refinement
    /// strategies in `mp-refine`.
    pub fn restricted_copy(
        &self,
        name: impl Into<String>,
        allowed_senders: BTreeSet<ProcessId>,
    ) -> Self {
        let mut copy = self.clone();
        copy.name = name.into();
        copy.allowed_senders = Some(allowed_senders);
        copy
    }

    /// Returns `true` if this transition is an *exact* quorum transition
    /// (Definition 2), i.e. its input specifies a fixed quorum size.
    pub fn is_exact_quorum(&self) -> bool {
        matches!(
            self.input,
            InputSpec::Quorum {
                quorum: QuorumSpec::Exact(_),
                ..
            }
        )
    }

    /// Returns the exact quorum size, if this is an exact quorum transition.
    /// Single-message transitions are exact quorum transitions of size one
    /// (as noted below Definition 3 in the paper).
    pub fn exact_quorum_size(&self) -> Option<usize> {
        match &self.input {
            InputSpec::Internal => None,
            InputSpec::Single { .. } => Some(1),
            InputSpec::Quorum { quorum, .. } => quorum.exact_size(),
        }
    }
}

impl<S, M> fmt::Debug for TransitionSpec<S, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransitionSpec")
            .field("name", &self.name)
            .field("process", &self.process)
            .field("input", &self.input)
            .field("allowed_senders", &self.allowed_senders)
            .field("annotations", &self.annotations)
            .finish_non_exhaustive()
    }
}

/// Builder for [`TransitionSpec`].
///
/// # Examples
///
/// ```
/// use mp_model::{Outcome, ProcessId, QuorumSpec, TransitionSpec};
///
/// let t: TransitionSpec<u32, String> = TransitionSpec::builder("COLLECT", ProcessId(0))
///     .quorum_input("STRING", QuorumSpec::Exact(2))
///     .guard(|_local, msgs| msgs.len() == 2)
///     .effect(|local, _msgs| Outcome::new(local + 1))
///     .build();
/// assert!(t.is_exact_quorum());
/// assert_eq!(t.exact_quorum_size(), Some(2));
/// ```
pub struct TransitionBuilder<S, M> {
    name: String,
    process: ProcessId,
    input: InputSpec,
    allowed_senders: Option<BTreeSet<ProcessId>>,
    guard: Option<Guard<S, M>>,
    effect: Option<Effect<S, M>>,
    annotations: Annotations,
}

impl<S: LocalState, M: Message> TransitionBuilder<S, M> {
    /// Starts a builder for a transition named `name`, executed by `process`.
    pub fn new(name: impl Into<String>, process: ProcessId) -> Self {
        TransitionBuilder {
            name: name.into(),
            process,
            input: InputSpec::Internal,
            allowed_senders: None,
            guard: None,
            effect: None,
            annotations: Annotations::default(),
        }
    }

    /// Declares the transition internal (consumes no messages).
    pub fn internal(mut self) -> Self {
        self.input = InputSpec::Internal;
        self
    }

    /// Declares the transition a single-message transition consuming `kind`.
    pub fn single_input(mut self, kind: Kind) -> Self {
        self.input = InputSpec::Single { kind };
        self
    }

    /// Declares the transition a quorum transition consuming `kind` messages
    /// from a `quorum` of distinct senders.
    pub fn quorum_input(mut self, kind: Kind, quorum: QuorumSpec) -> Self {
        self.input = InputSpec::Quorum { kind, quorum };
        self
    }

    /// Restricts the processes whose messages this transition may consume
    /// (`quorumPeers()` in Table IV). Used by the refinement strategies.
    pub fn allowed_senders<I: IntoIterator<Item = ProcessId>>(mut self, senders: I) -> Self {
        self.allowed_senders = Some(senders.into_iter().collect());
        self
    }

    /// Sets the guard predicate.
    pub fn guard<F>(mut self, guard: F) -> Self
    where
        F: Fn(&S, &[Envelope<M>]) -> bool + Send + Sync + 'static,
    {
        self.guard = Some(Arc::new(guard));
        self
    }

    /// Sets the effect (local state transition function plus sends).
    pub fn effect<F>(mut self, effect: F) -> Self
    where
        F: Fn(&S, &[Envelope<M>]) -> Outcome<S, M> + Send + Sync + 'static,
    {
        self.effect = Some(Arc::new(effect));
        self
    }

    /// Declares the message kinds this transition may send.
    pub fn sends(mut self, kinds: &[Kind]) -> Self {
        self.annotations.messages_out = kinds.to_vec();
        self
    }

    /// Declares that the transition never sends messages.
    pub fn sends_nothing(mut self) -> Self {
        self.annotations.messages_out = Vec::new();
        self.annotations.recipients = RecipientSet::None;
        self
    }

    /// Declares the processes the transition may send to.
    pub fn sends_to<I: IntoIterator<Item = ProcessId>>(mut self, recipients: I) -> Self {
        self.annotations.recipients = RecipientSet::Only(recipients.into_iter().collect());
        self
    }

    /// Declares the transition a reply transition: it only sends to the
    /// senders of the messages it consumed (Definition 4).
    pub fn reply(mut self) -> Self {
        self.annotations.is_reply = true;
        self.annotations.recipients = RecipientSet::SendersOfInput;
        self
    }

    /// Sets the seed-selection priority used by the POR heuristics.
    pub fn priority(mut self, priority: i32) -> Self {
        self.annotations.priority = priority;
        self
    }

    /// Marks the transition visible to the property under verification.
    pub fn visible(mut self) -> Self {
        self.annotations.is_visible = true;
        self
    }

    /// Marks the transition as an environment transition (fault injection);
    /// see [`Annotations::is_environment`].
    pub fn environment(mut self) -> Self {
        self.annotations.is_environment = true;
        self
    }

    /// Marks the transition as an environment transition of the given budget
    /// class (implies [`TransitionBuilder::environment`]); see
    /// [`Annotations::environment_class`].
    pub fn environment_class(mut self, class: Kind) -> Self {
        self.annotations.is_environment = true;
        self.annotations.environment_class = Some(class);
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if no effect was provided; every transition must define its
    /// local state transition function.
    pub fn build(self) -> TransitionSpec<S, M> {
        let effect = self
            .effect
            .unwrap_or_else(|| panic!("transition `{}` has no effect", self.name));
        TransitionSpec {
            name: self.name,
            process: self.process,
            input: self.input,
            allowed_senders: self.allowed_senders,
            guard: self.guard,
            effect,
            annotations: self.annotations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S = u32;
    type M = String;

    fn mk_internal() -> TransitionSpec<S, M> {
        TransitionSpec::builder("start", ProcessId(0))
            .internal()
            .effect(|local, _| Outcome::new(local + 1))
            .build()
    }

    #[test]
    fn quorum_spec_admits() {
        assert!(QuorumSpec::Exact(2).admits(2));
        assert!(!QuorumSpec::Exact(2).admits(3));
        assert!(QuorumSpec::AtLeast(2).admits(5));
        assert!(!QuorumSpec::AtLeast(2).admits(1));
        assert!(QuorumSpec::Between { min: 1, max: 3 }.admits(2));
        assert!(!QuorumSpec::Between { min: 1, max: 3 }.admits(4));
    }

    #[test]
    fn quorum_spec_bounds() {
        assert_eq!(QuorumSpec::Exact(3).exact_size(), Some(3));
        assert_eq!(QuorumSpec::AtLeast(3).exact_size(), None);
        assert_eq!(QuorumSpec::AtLeast(3).min_senders(), 3);
        assert_eq!(QuorumSpec::AtLeast(3).max_senders(), None);
        assert_eq!(
            QuorumSpec::Between { min: 2, max: 4 }.max_senders(),
            Some(4)
        );
        assert_eq!(QuorumSpec::Exact(1).to_string(), "exactly 1");
    }

    #[test]
    fn internal_transition_defaults() {
        let t = mk_internal();
        assert_eq!(t.name(), "start");
        assert_eq!(t.process(), ProcessId(0));
        assert_eq!(t.input_kind(), None);
        assert!(!t.is_quorum());
        assert!(t.may_receive_from(ProcessId(5)));
        assert!(t.guard_holds(&0, &[]));
        assert_eq!(t.exact_quorum_size(), None);
    }

    #[test]
    fn single_message_is_exact_quorum_of_one() {
        let t: TransitionSpec<S, M> = TransitionSpec::builder("recv", ProcessId(1))
            .single_input("STRING")
            .effect(|l, _| Outcome::new(*l))
            .build();
        assert_eq!(t.exact_quorum_size(), Some(1));
        assert!(
            !t.is_exact_quorum(),
            "is_exact_quorum refers to quorum inputs only"
        );
    }

    #[test]
    fn guard_and_effect_are_invoked() {
        let t: TransitionSpec<S, M> = TransitionSpec::builder("collect", ProcessId(0))
            .quorum_input("STRING", QuorumSpec::Exact(2))
            .guard(|_, msgs| msgs.len() == 2)
            .effect(|local, msgs| {
                Outcome::new(local + msgs.len() as u32).send(ProcessId(1), "ack".to_string())
            })
            .build();
        let envs = vec![
            Envelope::new(ProcessId(1), "a".to_string()),
            Envelope::new(ProcessId(2), "b".to_string()),
        ];
        assert!(t.guard_holds(&0, &envs));
        assert!(!t.guard_holds(&0, &envs[..1]));
        let out = t.apply(&0, &envs);
        assert_eq!(out.next_local, 2);
        assert_eq!(out.sends, vec![(ProcessId(1), "ack".to_string())]);
    }

    #[test]
    fn restricted_copy_limits_senders() {
        let t: TransitionSpec<S, M> = TransitionSpec::builder("collect", ProcessId(0))
            .quorum_input("STRING", QuorumSpec::Exact(2))
            .effect(|l, _| Outcome::new(*l))
            .build();
        let restricted = t.restricted_copy(
            "collect_12",
            [ProcessId(1), ProcessId(2)].into_iter().collect(),
        );
        assert_eq!(restricted.name(), "collect_12");
        assert!(restricted.may_receive_from(ProcessId(1)));
        assert!(!restricted.may_receive_from(ProcessId(3)));
        assert!(t.may_receive_from(ProcessId(3)));
    }

    #[test]
    fn recipient_set_resolution() {
        let none = RecipientSet::None;
        assert!(!none.may_send_to(ProcessId(0), None));

        let all = RecipientSet::All;
        assert!(all.may_send_to(ProcessId(3), None));

        let only: RecipientSet = RecipientSet::Only([ProcessId(1)].into_iter().collect());
        assert!(only.may_send_to(ProcessId(1), None));
        assert!(!only.may_send_to(ProcessId(2), None));

        let reply = RecipientSet::SendersOfInput;
        let senders: BTreeSet<ProcessId> = [ProcessId(2)].into_iter().collect();
        assert!(reply.may_send_to(ProcessId(2), Some(&senders)));
        assert!(!reply.may_send_to(ProcessId(1), Some(&senders)));
    }

    #[test]
    fn builder_annotations() {
        let t: TransitionSpec<S, M> = TransitionSpec::builder("reply", ProcessId(2))
            .single_input("STRING")
            .reply()
            .sends(&["STRING"])
            .priority(7)
            .visible()
            .effect(|l, _| Outcome::new(*l))
            .build();
        let a = t.annotations();
        assert!(a.is_reply);
        assert_eq!(a.priority, 7);
        assert!(a.is_visible);
        assert_eq!(a.messages_out, vec!["STRING"]);
        assert_eq!(a.recipients, RecipientSet::SendersOfInput);
    }

    #[test]
    #[should_panic(expected = "has no effect")]
    fn builder_without_effect_panics() {
        let _: TransitionSpec<S, M> = TransitionSpec::builder("broken", ProcessId(0))
            .internal()
            .build();
    }

    #[test]
    fn outcome_builders() {
        let out: Outcome<u32, String> = Outcome::new(1)
            .send(ProcessId(0), "a".to_string())
            .broadcast([ProcessId(1), ProcessId(2)], "b".to_string());
        assert_eq!(out.sends.len(), 3);
        assert_eq!(out.sends[1], (ProcessId(1), "b".to_string()));
        assert_eq!(out.sends[2], (ProcessId(2), "b".to_string()));
    }
}
