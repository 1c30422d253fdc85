//! The fault injector: wrapping a protocol into a fault-augmented model.

use std::collections::BTreeSet;
use std::sync::Arc;

use mp_model::{
    Envelope, InputSpec, Kind, LocalState, Message, ModelError, Outcome, ProcessId, ProtocolSpec,
    TransitionSpec,
};

use crate::local::{corruptions_used, crashes_used, drops_used, dups_used};
use crate::{FaultBudget, FaultLocal};

/// Name prefix of crash environment transitions (`FAULT_CRASH@p1`).
pub(crate) const CRASH_PREFIX: &str = "FAULT_CRASH@";
/// Budget class of crash transitions ([`Annotations::environment_class`](mp_model::Annotations)).
pub(crate) const CRASH_CLASS: Kind = "crash";
/// Budget class of message-loss transitions.
pub(crate) const DROP_CLASS: Kind = "drop";
/// Budget class of duplication transitions.
pub(crate) const DUP_CLASS: Kind = "dup";
/// Budget class of corruption transitions.
pub(crate) const CORRUPT_CLASS: Kind = "corrupt";
/// Name prefix of message-loss environment transitions (`FAULT_DROP_ACK@p0`).
pub(crate) const DROP_PREFIX: &str = "FAULT_DROP_";
/// Name prefix of duplication environment transitions (`FAULT_DUP_ACK@p0`).
pub(crate) const DUP_PREFIX: &str = "FAULT_DUP_";
/// Name prefix of corruption environment transitions
/// (`FAULT_CORRUPT_ACK_v0@p0`).
pub(crate) const CORRUPT_PREFIX: &str = "FAULT_CORRUPT_";

/// A pluggable Byzantine message mutation: given a pending envelope, returns
/// the corrupted payload candidates the environment may replace it with.
/// Returning an empty vector means the message is not corruptible. The
/// function must be deterministic — the first candidate is the one the
/// generated environment transition (`…_v0`) applies, and counterexample
/// replay re-applies effects.
pub type Mutator<M> = Arc<dyn Fn(&Envelope<M>) -> Vec<M> + Send + Sync>;

/// Builds fault-augmented models from base protocols.
///
/// The injector wraps every base transition so that it operates on the
/// protocol part of [`FaultLocal`] and is disabled once its process crashed,
/// then appends **environment transitions** owned by the victim process:
///
/// * `FAULT_CRASH@pj` — crash-stop: sets the crashed flag, after which all
///   of `pj`'s protocol transitions are disabled (the paper's crash model:
///   a crashed process simply takes no further steps — here made explicit
///   and budgeted);
/// * `FAULT_DROP_K@pj` — consumes one pending message of kind `K` addressed
///   to `pj` without any protocol effect (message loss);
/// * `FAULT_DUP_K@pj` — consumes one pending message and reinjects two
///   copies under the original sender (duplication);
/// * `FAULT_CORRUPT_K_vI@pj` — consumes one pending message and reinjects
///   mutation `I` produced by the pluggable [`Mutator`] (Byzantine
///   corruption), again under the original sender so quorum counting is
///   unaffected.
///
/// All environment transitions are governed by a global [`FaultBudget`]
/// carried in the augmented local states and enforced through the model's
/// enable filter; an exhausted budget disables the whole class, pruning the
/// search. Fault classes with a zero budget generate **no transitions at
/// all**, so a [`FaultBudget::none`] injection is structurally identical to
/// the base model (same transition ids, names, annotations) and explores
/// exactly the same number of states, reduced or not.
///
/// # Examples
///
/// ```
/// use mp_faults::{FaultBudget, FaultInjector};
/// use mp_model::{Message, Outcome, ProcessId, ProtocolSpec, TransitionSpec};
///
/// #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
/// struct Ping;
/// mp_model::codec!(struct Ping);
/// impl Message for Ping {
///     fn kind(&self) -> &'static str { "PING" }
/// }
///
/// let base: ProtocolSpec<u8, Ping> = ProtocolSpec::builder("ping")
///     .process("a", 0u8)
///     .process("b", 0u8)
///     .transition(
///         TransitionSpec::builder("SEND", ProcessId(0))
///             .internal()
///             .guard(|l, _| *l == 0)
///             .sends(&["PING"])
///             .effect(|_, _| Outcome::new(1).send(ProcessId(1), Ping))
///             .build(),
///     )
///     .transition(
///         TransitionSpec::builder("RECV", ProcessId(1))
///             .single_input("PING")
///             .effect(|_, _| Outcome::new(1))
///             .build(),
///     )
///     .build()
///     .unwrap();
///
/// let faulty = FaultInjector::new(FaultBudget::none().crashes(1).drops(1))
///     .inject(&base)
///     .unwrap();
/// // 2 wrapped protocol transitions + 2 crashes + 1 drop (only RECV
/// // consumes a kind, so only process b gets a drop transition).
/// assert_eq!(faulty.num_transitions(), 5);
/// ```
pub struct FaultInjector<M: Message> {
    budget: FaultBudget,
    mutator: Option<Mutator<M>>,
}

impl<M: Message> FaultInjector<M> {
    /// Creates an injector for the given budget. By default every process
    /// is a fault target, droppable/duplicable/corruptible kinds are
    /// inferred per process from the kinds its transitions consume, and at
    /// most one corruption variant per message is generated.
    pub fn new(budget: FaultBudget) -> Self {
        FaultInjector {
            budget,
            mutator: None,
        }
    }

    /// Installs the Byzantine mutation function (builder style). Without a
    /// mutator, a corruption budget generates no transitions.
    pub fn mutator<F>(mut self, mutator: F) -> Self
    where
        F: Fn(&Envelope<M>) -> Vec<M> + Send + Sync + 'static,
    {
        self.mutator = Some(Arc::new(mutator));
        self
    }

    /// Wraps `base` into the fault-augmented model.
    ///
    /// The wrapped protocol transitions keep their ids, names, inputs,
    /// sender restrictions and annotations; environment transitions are
    /// appended after them and marked with
    /// [`Annotations::is_environment`](mp_model::Annotations), which
    /// `mp-por` uses to keep SPOR/DPOR sound under injection.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the base protocol fails revalidation
    /// (possible only for specs hand-built outside `ProtocolBuilder`).
    pub fn inject<S: LocalState>(
        &self,
        base: &ProtocolSpec<S, M>,
    ) -> Result<ProtocolSpec<FaultLocal<S>, M>, ModelError> {
        let mut builder = ProtocolSpec::builder(format!("{}+faults", base.name()));
        let initial = base.initial_state();
        for p in base.processes() {
            builder = builder.process(
                base.process_name(p).to_string(),
                FaultLocal::healthy(initial.locals[p.index()].clone()),
            );
        }

        for (_, t) in base.transitions() {
            builder = builder.transition(wrap_protocol_transition(t));
        }

        for p in base.processes() {
            if self.budget.max_crashes > 0 {
                builder = builder.transition(crash_transition(p));
            }
            for kind in self.kinds_consumed_by(base, p) {
                if self.budget.max_drops > 0 {
                    builder = builder.transition(drop_transition(p, kind));
                }
                if self.budget.max_dups > 0 {
                    builder = builder.transition(dup_transition(p, kind));
                }
                if self.budget.max_corruptions > 0 {
                    if let Some(mutator) = &self.mutator {
                        builder = builder.transition(corrupt_transition(p, kind, mutator.clone()));
                    }
                }
            }
        }

        let budget = self.budget;
        Ok(builder.build()?.with_enable_filter(move |state, t| {
            if !t.annotations().is_environment {
                return true;
            }
            let name = t.name();
            if name.starts_with(CRASH_PREFIX) {
                crashes_used(state) < budget.max_crashes
            } else if name.starts_with(DROP_PREFIX) {
                drops_used(state) < budget.max_drops
            } else if name.starts_with(DUP_PREFIX) {
                dups_used(state) < budget.max_dups
            } else if name.starts_with(CORRUPT_PREFIX) {
                corruptions_used(state) < budget.max_corruptions
            } else {
                true
            }
        }))
    }

    /// The message kinds process `p` can consume, in deterministic order,
    /// intersected with the explicit kind list if one was given.
    fn kinds_consumed_by<S: LocalState>(
        &self,
        base: &ProtocolSpec<S, M>,
        p: ProcessId,
    ) -> Vec<Kind> {
        let consumed: BTreeSet<Kind> = base
            .transitions_of(p)
            .iter()
            .filter_map(|id| base.transition(*id).input_kind())
            .collect();
        consumed.into_iter().collect()
    }
}

/// Injects faults with the default injector configuration (all processes,
/// inferred kinds, no mutator).
pub fn inject<S: LocalState, M: Message>(
    base: &ProtocolSpec<S, M>,
    budget: FaultBudget,
) -> Result<ProtocolSpec<FaultLocal<S>, M>, ModelError> {
    FaultInjector::new(budget).inject(base)
}

/// Wraps one protocol transition: same name/input/senders/annotations, but
/// guard and effect operate on the protocol part of [`FaultLocal`] and the
/// transition is disabled once its process crashed.
fn wrap_protocol_transition<S: LocalState, M: Message>(
    t: &TransitionSpec<S, M>,
) -> TransitionSpec<FaultLocal<S>, M> {
    let mut b = TransitionSpec::builder(t.name().to_string(), t.process());
    b = match t.input() {
        InputSpec::Internal => b.internal(),
        InputSpec::Single { kind } => b.single_input(kind),
        InputSpec::Quorum { kind, quorum } => b.quorum_input(kind, *quorum),
    };
    if let Some(senders) = t.allowed_senders() {
        b = b.allowed_senders(senders.iter().copied());
    }
    let guard_base = t.clone();
    let effect_base = t.clone();
    let mut wrapped = b
        .guard(move |local: &FaultLocal<S>, msgs| {
            !local.crashed && guard_base.guard_holds(&local.inner, msgs)
        })
        .effect(move |local: &FaultLocal<S>, msgs| {
            let out = effect_base.apply(&local.inner, msgs);
            let mut next = local.clone();
            next.inner = out.next_local;
            Outcome {
                next_local: next,
                sends: out.sends,
                reinjects: out.reinjects,
            }
        })
        .build();
    *wrapped.annotations_mut() = t.annotations().clone();
    wrapped
}

fn crash_transition<S: LocalState, M: Message>(p: ProcessId) -> TransitionSpec<FaultLocal<S>, M> {
    TransitionSpec::builder(format!("{CRASH_PREFIX}{p}"), p)
        .internal()
        .guard(|local: &FaultLocal<S>, _| !local.crashed)
        .sends_nothing()
        .priority(-100)
        .environment_class(CRASH_CLASS)
        .effect(|local: &FaultLocal<S>, _| {
            let mut next = local.clone();
            next.crashed = true;
            Outcome::new(next)
        })
        .build()
}

fn drop_transition<S: LocalState, M: Message>(
    p: ProcessId,
    kind: Kind,
) -> TransitionSpec<FaultLocal<S>, M> {
    TransitionSpec::builder(format!("{DROP_PREFIX}{kind}@{p}"), p)
        .single_input(kind)
        .sends_nothing()
        .priority(-100)
        .environment_class(DROP_CLASS)
        .effect(|local: &FaultLocal<S>, _| {
            let mut next = local.clone();
            next.drops += 1;
            Outcome::new(next)
        })
        .build()
}

fn dup_transition<S: LocalState, M: Message>(
    p: ProcessId,
    kind: Kind,
) -> TransitionSpec<FaultLocal<S>, M> {
    TransitionSpec::builder(format!("{DUP_PREFIX}{kind}@{p}"), p)
        .single_input(kind)
        .sends(&[kind])
        .sends_to([p])
        .priority(-100)
        .environment_class(DUP_CLASS)
        .effect(|local: &FaultLocal<S>, msgs: &[Envelope<M>]| {
            let env = &msgs[0];
            let mut next = local.clone();
            next.dups += 1;
            Outcome::new(next)
                .reinject(env.sender, env.payload.clone())
                .reinject(env.sender, env.payload.clone())
        })
        .build()
}

fn corrupt_transition<S: LocalState, M: Message>(
    p: ProcessId,
    kind: Kind,
    mutator: Mutator<M>,
) -> TransitionSpec<FaultLocal<S>, M> {
    let guard_mutator = mutator.clone();
    TransitionSpec::builder(format!("{CORRUPT_PREFIX}{kind}_v0@{p}"), p)
        .single_input(kind)
        // Mutations may change the message kind, so leave `messages_out`
        // unspecified (conservatively "any kind") but pin the recipient to
        // the victim process itself.
        .sends_to([p])
        .priority(-100)
        .environment_class(CORRUPT_CLASS)
        .guard(move |_: &FaultLocal<S>, msgs| !guard_mutator(&msgs[0]).is_empty())
        .effect(move |local: &FaultLocal<S>, msgs| {
            let env = &msgs[0];
            let mutated = mutator(env)[0].clone();
            let mut next = local.clone();
            next.corruptions += 1;
            Outcome::new(next).reinject(env.sender, mutated)
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{enabled_instances, execute_enabled, StateGraph};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Req(u8),
        Ack,
    }
    mp_model::codec!(enum Msg { 0 = Req(n), 1 = Ack });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Req(_) => "REQ",
                Msg::Ack => "ACK",
            }
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// p0 sends REQ to p1; p1 acks; p0 collects the ack.
    fn base() -> ProtocolSpec<u8, Msg> {
        ProtocolSpec::builder("req-ack")
            .process("client", 0u8)
            .process("server", 0u8)
            .transition(
                TransitionSpec::builder("REQUEST", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["REQ"])
                    .effect(|_, _| Outcome::new(1).send(p(1), Msg::Req(7)))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("SERVE", p(1))
                    .single_input("REQ")
                    .reply()
                    .sends(&["ACK"])
                    .effect(|_, m: &[Envelope<Msg>]| Outcome::new(1).send(m[0].sender, Msg::Ack))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("COLLECT", p(0))
                    .single_input("ACK")
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(2))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn zero_budget_is_structurally_identical() {
        let spec = base();
        let faulty = inject(&spec, FaultBudget::none()).unwrap();
        assert_eq!(faulty.num_transitions(), spec.num_transitions());
        for (id, t) in spec.transitions() {
            assert_eq!(faulty.transition(id).name(), t.name());
        }
        let base_states = StateGraph::build(&spec, 10_000).unwrap().num_states();
        let faulty_states = StateGraph::build(&faulty, 10_000).unwrap().num_states();
        assert_eq!(base_states, faulty_states);
    }

    #[test]
    fn crash_disables_protocol_transitions() {
        let spec = base();
        let faulty = inject(&spec, FaultBudget::none().crashes(1)).unwrap();
        let s0 = faulty.initial_state();
        // Crash the client before it sends anything.
        let crash = enabled_instances(&faulty, &s0)
            .into_iter()
            .find(|i| {
                faulty
                    .transition(i.transition)
                    .name()
                    .starts_with(CRASH_PREFIX)
                    && i.process == p(0)
            })
            .expect("client crash enabled");
        let s1 = execute_enabled(&faulty, &s0, &crash);
        assert!(s1.local(p(0)).crashed);
        // REQUEST is now disabled; with the crash budget spent, the only
        // remaining option would be the server's crash — but the budget of
        // one is exhausted, so the system is dead.
        assert!(enabled_instances(&faulty, &s1).is_empty());
    }

    #[test]
    fn drop_consumes_without_effect_and_budget_prunes() {
        let spec = base();
        let faulty = inject(&spec, FaultBudget::none().drops(1)).unwrap();
        let mut state = faulty.initial_state();
        // REQUEST.
        let req = enabled_instances(&faulty, &state)
            .into_iter()
            .find(|i| faulty.transition(i.transition).name() == "REQUEST")
            .unwrap();
        state = execute_enabled(&faulty, &state, &req);
        // Drop the REQ at the server.
        let drop = enabled_instances(&faulty, &state)
            .into_iter()
            .find(|i| {
                faulty
                    .transition(i.transition)
                    .name()
                    .starts_with(DROP_PREFIX)
            })
            .expect("drop enabled while a REQ is pending");
        state = execute_enabled(&faulty, &state, &drop);
        assert_eq!(state.pending_messages(), 0);
        assert_eq!(state.local(p(1)).drops, 1);
        assert_eq!(
            state.local(p(1)).inner,
            0,
            "the protocol never saw the message"
        );
        // Budget exhausted: no further drops anywhere.
        assert!(enabled_instances(&faulty, &state).is_empty());
    }

    #[test]
    fn duplication_preserves_the_original_sender() {
        let spec = base();
        let faulty = inject(&spec, FaultBudget::none().dups(1)).unwrap();
        let mut state = faulty.initial_state();
        let req = enabled_instances(&faulty, &state)
            .into_iter()
            .find(|i| faulty.transition(i.transition).name() == "REQUEST")
            .unwrap();
        state = execute_enabled(&faulty, &state, &req);
        let dup = enabled_instances(&faulty, &state)
            .into_iter()
            .find(|i| {
                faulty
                    .transition(i.transition)
                    .name()
                    .starts_with(DUP_PREFIX)
            })
            .unwrap();
        state = execute_enabled(&faulty, &state, &dup);
        assert_eq!(state.pending_messages(), 2);
        let env = Envelope::new(p(0), Msg::Req(7));
        assert_eq!(
            state.channels.pending_count(p(1), &env),
            2,
            "both copies must still appear to come from the client"
        );
    }

    #[test]
    fn corruption_applies_the_mutator_variant() {
        let spec = base();
        let faulty = FaultInjector::new(FaultBudget::none().corruptions(1))
            .mutator(|env: &Envelope<Msg>| match &env.payload {
                Msg::Req(v) => vec![Msg::Req(v.wrapping_add(100))],
                Msg::Ack => Vec::new(),
            })
            .inject(&spec)
            .unwrap();
        let mut state = faulty.initial_state();
        let req = enabled_instances(&faulty, &state)
            .into_iter()
            .find(|i| faulty.transition(i.transition).name() == "REQUEST")
            .unwrap();
        state = execute_enabled(&faulty, &state, &req);
        let corrupt = enabled_instances(&faulty, &state)
            .into_iter()
            .find(|i| {
                faulty
                    .transition(i.transition)
                    .name()
                    .starts_with(CORRUPT_PREFIX)
            })
            .expect("corrupt enabled: the mutator offers a candidate");
        state = execute_enabled(&faulty, &state, &corrupt);
        let env = Envelope::new(p(0), Msg::Req(107));
        assert_eq!(state.channels.pending_count(p(1), &env), 1);
        assert_eq!(state.local(p(1)).corruptions, 1);
    }

    #[test]
    fn uncorruptible_kinds_generate_disabled_variants() {
        // ACK is not corruptible (mutator returns no candidates): the
        // variant transition exists but never fires.
        let spec = base();
        let faulty = FaultInjector::new(FaultBudget::none().corruptions(2))
            .mutator(|env: &Envelope<Msg>| match &env.payload {
                Msg::Req(v) => vec![Msg::Req(v + 1)],
                Msg::Ack => Vec::new(),
            })
            .inject(&spec)
            .unwrap();
        let graph = StateGraph::build(&faulty, 100_000).unwrap();
        assert!(graph.num_states() > 0);
    }

    #[test]
    fn budgeted_state_space_grows_with_the_budget() {
        let spec = base();
        let zero = StateGraph::build(&inject(&spec, FaultBudget::none()).unwrap(), 100_000)
            .unwrap()
            .num_states();
        let one_drop = StateGraph::build(
            &inject(&spec, FaultBudget::none().drops(1)).unwrap(),
            100_000,
        )
        .unwrap()
        .num_states();
        let more = StateGraph::build(
            &inject(&spec, FaultBudget::none().crashes(1).drops(2).dups(1)).unwrap(),
            100_000,
        )
        .unwrap()
        .num_states();
        assert!(zero < one_drop, "{zero} vs {one_drop}");
        assert!(one_drop < more, "{one_drop} vs {more}");
    }
}
