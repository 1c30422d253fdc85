//! # mp-faults — generic fault injection for message-passing protocols
//!
//! The paper this repository reproduces is about model checking
//! **fault-tolerant** protocols, and its evaluation injects faults by
//! hand-editing each protocol (the "Faulty Paxos" learner, equivocating
//! multicast initiators). This crate makes fault injection *generic*: it
//! wraps any [`ProtocolSpec`](mp_model::ProtocolSpec) into a fault-augmented
//! model in which the **environment** may, subject to a [`FaultBudget`]:
//!
//! * **crash-stop** a process (its transitions are disabled forever),
//! * **drop** a pending message,
//! * **duplicate** a pending message (under the original sender), and
//! * **corrupt** a pending message with a pluggable Byzantine [`Mutator`].
//!
//! Faults are ordinary MP transitions owned by the victim process — an
//! environment transition of process `j` can consume and reinject messages
//! addressed to `j` — marked with the `is_environment` annotation. The
//! budget is carried in the augmented local states ([`FaultLocal`]) and
//! enforced globally through the model's enable filter, so exhausted
//! budgets prune the search and a zero budget reproduces the base model
//! exactly. `mp-por` treats environment transitions as mutually dependent,
//! which keeps SPOR and DPOR sound under injection.
//!
//! ```
//! use mp_checker::{Checker, Invariant};
//! use mp_faults::{inject, lift_invariant, FaultBudget};
//! use mp_model::{GlobalState, Message, Outcome, ProcessId, ProtocolSpec, TransitionSpec};
//!
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! struct Ping;
//! mp_model::codec!(struct Ping);
//! impl Message for Ping {
//!     fn kind(&self) -> &'static str { "PING" }
//! }
//!
//! let base: ProtocolSpec<u8, Ping> = ProtocolSpec::builder("ping")
//!     .process("a", 0u8)
//!     .process("b", 0u8)
//!     .transition(
//!         TransitionSpec::builder("SEND", ProcessId(0))
//!             .internal()
//!             .guard(|l, _| *l == 0)
//!             .sends(&["PING"])
//!             .effect(|_, _| Outcome::new(1).send(ProcessId(1), Ping))
//!             .build(),
//!     )
//!     .transition(
//!         TransitionSpec::builder("RECV", ProcessId(1))
//!             .single_input("PING")
//!             .effect(|_, _| Outcome::new(1))
//!             .build(),
//!     )
//!     .build()
//!     .unwrap();
//!
//! // "Does the receiver always eventually get the ping?" — not under loss:
//! // with one drop allowed there is a run where b consumed nothing but the
//! // system is done. (Stated as an invariant over a terminal flag here.)
//! let faulty = inject(&base, FaultBudget::none().drops(1)).unwrap();
//! let delivered = Invariant::new("sender-implies-receiver", |s: &GlobalState<u8, Ping>, _| {
//!     // Bogus "specification" for demonstration: b must have received
//!     // whenever a has sent and nothing is in flight.
//!     if s.locals[0] == 1 && s.locals[1] == 0 && s.pending_messages() == 0 {
//!         Err("message was lost".into())
//!     } else {
//!         Ok(())
//!     }
//! });
//! let report = Checker::new(&faulty, lift_invariant(delivered)).run();
//! assert!(report.verdict.is_violated(), "loss breaks delivery: {report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
mod inject;
mod lift;
mod local;

pub use budget::FaultBudget;
pub use inject::{inject, FaultInjector, Mutator};
pub use lift::{lift_invariant, lift_observed_invariant, lift_property, LiftedObserver};
pub use local::{project_state, FaultLocal};
