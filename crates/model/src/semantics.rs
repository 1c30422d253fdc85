//! Execution semantics: applying transition instances to global states.
//!
//! `s --t(X)--> s'` holds iff the guard of `t` is true for `X` in `s`, and
//! `s'` equals `s` except that (1) the messages in `X` are removed from the
//! input channels of the executing process, (2) its local state is updated by
//! the local state transition function, and (3) zero or more messages are
//! added to outgoing channels (paper, Section II-A).

use crate::{
    enabled_instances, GlobalState, LocalState, Message, ModelError, ProcessId, ProtocolSpec,
    TransitionInstance,
};

/// Executes a transition instance in `state`, returning the successor state
/// and the recipients of the step's sends in send order, one per send;
/// reinjected messages go back to the executing process and are not listed.
///
/// # Errors
///
/// Returns [`ModelError::NotEnabled`] if the instance's messages are not all
/// pending or its guard does not hold in `state`, and
/// [`ModelError::UnknownTransition`] if the instance refers to a transition
/// that is not part of `spec`.
pub fn execute<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &GlobalState<S, M>,
    instance: &TransitionInstance<M>,
) -> Result<(GlobalState<S, M>, Vec<ProcessId>), ModelError> {
    let t = spec
        .get(instance.transition)
        .ok_or(ModelError::UnknownTransition {
            transition: instance.transition,
        })?;
    let process = instance.process;
    let local = state.local(process);
    if !t.guard_holds(local, &instance.envelopes) {
        return Err(ModelError::NotEnabled {
            transition: t.name().to_string(),
        });
    }

    let mut next = state.clone();
    for envelope in &instance.envelopes {
        if !next.channels.consume(process, envelope) {
            return Err(ModelError::NotEnabled {
                transition: t.name().to_string(),
            });
        }
    }
    let outcome = t.apply(local, &instance.envelopes);
    *next.local_mut(process) = outcome.next_local;
    // Collected in place: the recipients reuse the sends' buffer.
    let sent_to = outcome
        .sends
        .into_iter()
        .map(|(recipient, message)| {
            next.channels.send(process, recipient, message);
            recipient
        })
        .collect();
    for (sender, message) in outcome.reinjects {
        next.channels.send(sender, process, message);
    }
    Ok((next, sent_to))
}

/// Executes an instance that is known to be enabled.
///
/// # Panics
///
/// Panics if the instance is in fact not enabled; use [`execute`] when that
/// is not statically known.
pub fn execute_enabled<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &GlobalState<S, M>,
    instance: &TransitionInstance<M>,
) -> GlobalState<S, M> {
    execute(spec, state, instance)
        .unwrap_or_else(|e| panic!("instance {instance:?} expected to be enabled: {e}"))
        .0
}

/// Returns every `(instance, successor)` pair reachable from `state` in one
/// step.
pub fn successors<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    state: &GlobalState<S, M>,
) -> Vec<(TransitionInstance<M>, GlobalState<S, M>)> {
    enabled_instances(spec, state)
        .into_iter()
        .map(|inst| {
            let next = execute_enabled(spec, state, &inst);
            (inst, next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Envelope, Kind, Outcome, ProcessId, QuorumSpec, TransitionId, TransitionSpec};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    enum Msg {
        Req,
        Ack(u8),
    }
    crate::codec!(enum Msg { 0 = Req, 1 = Ack(n) });

    impl Message for Msg {
        fn kind(&self) -> Kind {
            match self {
                Msg::Req => "REQ",
                Msg::Ack(_) => "ACK",
            }
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// Client (p0) broadcasts REQ to both servers (p1, p2); each server acks;
    /// the client collects a quorum of 2 acks and terminates.
    fn request_ack_protocol() -> ProtocolSpec<u8, Msg> {
        ProtocolSpec::builder("request-ack")
            .process("client", 0u8)
            .process("server1", 0u8)
            .process("server2", 0u8)
            .transition(
                TransitionSpec::builder("REQUEST", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["REQ"])
                    .effect(|_, _| Outcome::new(1).send(p(1), Msg::Req).send(p(2), Msg::Req))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("SERVE_1", p(1))
                    .single_input("REQ")
                    .reply()
                    .sends(&["ACK"])
                    .effect(|_, msgs| Outcome::new(1).send(msgs[0].sender, Msg::Ack(1)))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("SERVE_2", p(2))
                    .single_input("REQ")
                    .reply()
                    .sends(&["ACK"])
                    .effect(|_, msgs| Outcome::new(1).send(msgs[0].sender, Msg::Ack(2)))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("COLLECT", p(0))
                    .quorum_input("ACK", QuorumSpec::Exact(2))
                    .guard(|l, _| *l == 1)
                    .sends_nothing()
                    .effect(|_, _| Outcome::new(2))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn execute_internal_transition() {
        let proto = request_ack_protocol();
        let s0 = proto.initial_state();
        let insts = enabled_instances(&proto, &s0);
        assert_eq!(insts.len(), 1);
        let (s1, sent_to) = execute(&proto, &s0, &insts[0]).unwrap();
        assert_eq!(sent_to, [p(1), p(2)]);
        assert_eq!(*s1.local(p(0)), 1);
        assert_eq!(s1.pending_messages(), 2);
    }

    #[test]
    fn reinjects_are_not_reported_as_recipients() {
        let proto = ProtocolSpec::builder("send-and-reinject")
            .process("p0", 0u8)
            .process("p1", 0u8)
            .process("p2", 0u8)
            .transition(
                TransitionSpec::builder("FAN_OUT", p(0))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends(&["REQ"])
                    .effect(|_, _| {
                        Outcome::new(1)
                            .send(p(2), Msg::Req)
                            .reinject(p(1), Msg::Ack(1))
                            .send(p(1), Msg::Req)
                    })
                    .build(),
            )
            .build()
            .unwrap();
        let s0 = proto.initial_state();
        let insts = enabled_instances(&proto, &s0);
        let (s1, sent_to) = execute(&proto, &s0, &insts[0]).unwrap();
        assert_eq!(sent_to, [p(2), p(1)], "the sends, in send order");
        // The reinject went back to p0, attributed to p1.
        let reinjected: Vec<_> = s1.channels.pending_for(p(0)).collect();
        assert_eq!(reinjected, [Envelope::new(p(1), Msg::Ack(1))]);
        assert_eq!(s1.pending_messages(), 3);
    }

    #[test]
    fn full_run_reaches_terminal_state() {
        let proto = request_ack_protocol();
        let mut state = proto.initial_state();
        let mut steps = 0;
        loop {
            let succ = successors(&proto, &state);
            if succ.is_empty() {
                break;
            }
            state = succ[0].1.clone();
            steps += 1;
            assert!(steps < 10, "protocol should terminate quickly");
        }
        assert!(enabled_instances(&proto, &state).is_empty(), "a deadlock");
        assert_eq!(*state.local(p(0)), 2, "client collected the ack quorum");
        assert_eq!(*state.local(p(1)), 1);
        assert_eq!(*state.local(p(2)), 1);
        assert_eq!(state.pending_messages(), 0);
    }

    #[test]
    fn executing_non_enabled_instance_fails() {
        let proto = request_ack_protocol();
        let s0 = proto.initial_state();
        // COLLECT with fabricated envelopes that are not pending.
        let bogus = TransitionInstance::new(
            TransitionId(3),
            p(0),
            vec![
                Envelope::new(p(1), Msg::Ack(1)),
                Envelope::new(p(2), Msg::Ack(2)),
            ],
        );
        let err = execute(&proto, &s0, &bogus).unwrap_err();
        assert!(matches!(err, ModelError::NotEnabled { .. }));
    }

    #[test]
    fn unknown_transition_is_reported() {
        let proto = request_ack_protocol();
        let s0 = proto.initial_state();
        let bogus = TransitionInstance::new(TransitionId(99), p(0), Vec::new());
        let err = execute(&proto, &s0, &bogus).unwrap_err();
        assert!(matches!(err, ModelError::UnknownTransition { .. }));
    }

    #[test]
    fn execution_does_not_mutate_source_state() {
        let proto = request_ack_protocol();
        let s0 = proto.initial_state();
        let insts = enabled_instances(&proto, &s0);
        let _ = execute(&proto, &s0, &insts[0]).unwrap();
        assert_eq!(s0, proto.initial_state());
    }

    #[test]
    fn quorum_execution_consumes_all_messages() {
        let proto = request_ack_protocol();
        // Drive to the state where both acks are pending.
        let mut state = proto.initial_state();
        for _ in 0..3 {
            let succ = successors(&proto, &state);
            state = succ[0].1.clone();
        }
        assert_eq!(state.pending_messages(), 2);
        let insts = enabled_instances(&proto, &state);
        let collect = insts
            .iter()
            .find(|i| i.transition == TransitionId(3))
            .expect("collect enabled");
        assert!(collect.senders().len() > 1, "a quorum execution");
        let (done, sent_to) = execute(&proto, &state, collect).unwrap();
        assert_eq!(done.pending_messages(), 0);
        assert!(sent_to.is_empty());
    }
}
