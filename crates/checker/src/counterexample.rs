//! Counterexamples: finite violating paths and liveness **lassos**.
//!
//! "A counterexample is a path that violates the property" (paper, Section
//! II-A). When the search finds a violating state it reconstructs the path
//! from the initial state and reports the sequence of executed transitions,
//! the violating state and the reason returned by the property.
//!
//! Liveness properties (termination, leads-to) are violated by *maximal
//! executions*, not single states; their counterexamples are lassos: a
//! finite **stem** from the initial state followed by a **cycle** the system
//! can repeat forever without discharging the outstanding obligation. A
//! lasso with an empty cycle denotes a maximal finite execution — the system
//! deadlocks (quiesces) with the obligation still pending and stutters in
//! that final state forever.

use std::fmt;

use mp_model::{GlobalState, LocalState, Message, ProcessId, ProtocolSpec, TransitionInstance};

/// One step of a counterexample path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterexampleStep {
    /// Name of the executed transition.
    pub transition: String,
    /// Process that executed it.
    pub process: ProcessId,
    /// Display name of that process in the protocol.
    pub process_name: String,
    /// The senders of the messages consumed by the step (empty for internal
    /// transitions).
    pub consumed_from: Vec<ProcessId>,
}

impl CounterexampleStep {
    /// Builds a step record from a transition instance.
    pub(crate) fn from_instance<S: LocalState, M: Message>(
        spec: &ProtocolSpec<S, M>,
        instance: &TransitionInstance<M>,
    ) -> Self {
        CounterexampleStep {
            transition: spec.transition(instance.transition).name().to_string(),
            process: instance.process,
            process_name: spec.process_name(instance.process).to_string(),
            consumed_from: instance.senders(),
        }
    }
}

impl fmt::Display for CounterexampleStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.transition, self.process_name)?;
        if !self.consumed_from.is_empty() {
            let senders: Vec<String> = self.consumed_from.iter().map(|p| p.to_string()).collect();
            write!(f, " consuming from {{{}}}", senders.join(", "))?;
        }
        Ok(())
    }
}

/// A property-violating execution: the path from the initial state and the
/// violating state itself. Liveness violations additionally carry a
/// [`cycle`](Counterexample::cycle) — see the module docs on lassos.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// Name of the violated property.
    pub property: String,
    /// Explanation returned by the property check.
    pub reason: String,
    /// The executed steps, in order. For a lasso this is the **stem**: the
    /// path from the initial state to the cycle entry (or to the premature
    /// quiescent state when `cycle` is empty).
    pub steps: Vec<CounterexampleStep>,
    /// The steps of the repeatable cycle of a lasso, in order; executing
    /// them from the violating state returns to it. Empty for safety
    /// counterexamples and for deadlock-style liveness counterexamples
    /// (the system stutters in the final state).
    pub cycle: Vec<CounterexampleStep>,
    /// `true` for liveness counterexamples (a lasso: stem + cycle, or stem +
    /// stutter when `cycle` is empty).
    pub is_lasso: bool,
    /// A rendering of the violating global state: the first violating state
    /// for safety, the cycle-entry (or quiescent) state for lassos.
    pub violating_state: String,
}

impl Counterexample {
    /// Builds a counterexample from a path of instances ending in
    /// `violating_state`.
    pub fn new<S: LocalState, M: Message>(
        spec: &ProtocolSpec<S, M>,
        property: impl Into<String>,
        reason: impl Into<String>,
        path: &[TransitionInstance<M>],
        violating_state: &GlobalState<S, M>,
    ) -> Self {
        Counterexample {
            property: property.into(),
            reason: reason.into(),
            steps: path
                .iter()
                .map(|i| CounterexampleStep::from_instance(spec, i))
                .collect(),
            cycle: Vec::new(),
            is_lasso: false,
            violating_state: format!("{violating_state:#?}"),
        }
    }

    /// Builds a lasso counterexample: `stem` leads from the initial state to
    /// `entry_state`, and `cycle` (possibly empty, meaning the execution
    /// ends and stutters there) returns to it.
    pub(crate) fn lasso<S: LocalState, M: Message>(
        spec: &ProtocolSpec<S, M>,
        property: impl Into<String>,
        reason: impl Into<String>,
        stem: &[TransitionInstance<M>],
        cycle: &[TransitionInstance<M>],
        entry_state: &GlobalState<S, M>,
    ) -> Self {
        Counterexample {
            property: property.into(),
            reason: reason.into(),
            steps: stem
                .iter()
                .map(|i| CounterexampleStep::from_instance(spec, i))
                .collect(),
            cycle: cycle
                .iter()
                .map(|i| CounterexampleStep::from_instance(spec, i))
                .collect(),
            is_lasso: true,
            violating_state: format!("{entry_state:#?}"),
        }
    }

    /// Length of the counterexample (number of transitions: stem plus, for
    /// lassos, one unrolling of the cycle).
    pub fn len(&self) -> usize {
        self.steps.len() + self.cycle.len()
    }

    /// Returns `true` if the violation occurs already in the initial state
    /// (safety) or the initial state itself is the quiescent/looping state
    /// of a stem-less lasso.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty() && self.cycle.is_empty()
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_lasso {
            writeln!(
                f,
                "lasso counterexample to `{}` ({} stem + {} cycle steps): {}",
                self.property,
                self.steps.len(),
                self.cycle.len(),
                self.reason
            )?;
        } else {
            writeln!(
                f,
                "counterexample to `{}` ({} steps): {}",
                self.property,
                self.steps.len(),
                self.reason
            )?;
        }
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>3}. {}", i + 1, step)?;
        }
        if self.is_lasso {
            if self.cycle.is_empty() {
                writeln!(f, "  ... execution ends here (stutters forever)")?;
            } else {
                writeln!(f, "  cycle (repeats forever):")?;
                for (i, step) in self.cycle.iter().enumerate() {
                    writeln!(f, "  {:>3}. {}", self.steps.len() + i + 1, step)?;
                }
            }
        }
        writeln!(f, "violating state:")?;
        for line in self.violating_state.lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::{
        Envelope, Kind, Outcome, ProcessId, ProtocolSpec, TransitionId, TransitionSpec,
    };

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Ping;
    mp_model::codec!(struct Ping);

    impl Message for Ping {
        fn kind(&self) -> Kind {
            "PING"
        }
    }

    fn spec() -> ProtocolSpec<u8, Ping> {
        ProtocolSpec::builder("cx")
            .process("sender", 0u8)
            .process("receiver", 0u8)
            .transition(
                TransitionSpec::builder("SEND", ProcessId(0))
                    .internal()
                    .effect(|_, _| Outcome::new(1).send(ProcessId(1), Ping))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("RECV", ProcessId(1))
                    .single_input("PING")
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn steps_render_transition_and_process() {
        let spec = spec();
        let inst = TransitionInstance::new(
            TransitionId(1),
            ProcessId(1),
            vec![Envelope::new(ProcessId(0), Ping)],
        );
        let step = CounterexampleStep::from_instance(&spec, &inst);
        assert_eq!(step.transition, "RECV");
        assert_eq!(step.process_name, "receiver");
        assert_eq!(step.consumed_from, vec![ProcessId(0)]);
        let rendered = step.to_string();
        assert!(rendered.contains("RECV"));
        assert!(rendered.contains("p0"));
    }

    #[test]
    fn counterexample_display_lists_path() {
        let spec = spec();
        let path = vec![
            TransitionInstance::new(TransitionId(0), ProcessId(0), Vec::new()),
            TransitionInstance::new(
                TransitionId(1),
                ProcessId(1),
                vec![Envelope::new(ProcessId(0), Ping)],
            ),
        ];
        let state = spec.initial_state();
        let cx = Counterexample::new(&spec, "agreement", "values differ", &path, &state);
        assert_eq!(cx.len(), 2);
        assert!(!cx.is_empty());
        let text = cx.to_string();
        assert!(text.contains("agreement"));
        assert!(text.contains("SEND"));
        assert!(text.contains("RECV"));
        assert!(text.contains("values differ"));
    }

    #[test]
    fn empty_counterexample_means_initial_violation() {
        let spec = spec();
        let state = spec.initial_state();
        let cx = Counterexample::new(&spec, "inv", "bad init", &[], &state);
        assert!(cx.is_empty());
        assert_eq!(cx.len(), 0);
        assert!(!cx.is_lasso);
    }

    #[test]
    fn lasso_display_shows_stem_and_cycle() {
        let spec = spec();
        let stem = vec![TransitionInstance::new(
            TransitionId(0),
            ProcessId(0),
            Vec::new(),
        )];
        let cycle = vec![TransitionInstance::new(
            TransitionId(1),
            ProcessId(1),
            vec![Envelope::new(ProcessId(0), Ping)],
        )];
        let state = spec.initial_state();
        let cx = Counterexample::lasso(&spec, "termination", "fair cycle", &stem, &cycle, &state);
        assert!(cx.is_lasso);
        assert_eq!(cx.len(), 2);
        let text = cx.to_string();
        assert!(text.contains("lasso counterexample"));
        assert!(text.contains("cycle (repeats forever)"));
        assert!(text.contains("RECV"));
    }

    #[test]
    fn deadlock_lasso_has_empty_cycle() {
        let spec = spec();
        let stem = vec![TransitionInstance::new(
            TransitionId(0),
            ProcessId(0),
            Vec::new(),
        )];
        let state = spec.initial_state();
        let cx = Counterexample::lasso(&spec, "termination", "stuck", &stem, &[], &state);
        assert!(cx.is_lasso);
        assert!(cx.cycle.is_empty());
        assert_eq!(cx.len(), 1);
        assert!(cx.to_string().contains("stutters forever"));
    }
}
