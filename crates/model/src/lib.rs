//! # mp-model — the message-passing computation model with quorum transitions
//!
//! This crate is the modelling layer of a Rust reproduction of *"Efficient
//! Model Checking of Fault-Tolerant Distributed Protocols"* (Bokor, Kinder,
//! Serafini, Suri — DSN 2011). It plays the role of the paper's **MP
//! language**: protocols are described as a set of processes with guarded
//! transitions that may consume a *set* of messages in one atomic step
//! (**quorum transitions**), change the local state of the executing process,
//! and send messages.
//!
//! The crate provides:
//!
//! * the structural vocabulary — [`ProcessId`], [`Message`], [`Envelope`],
//!   [`Channels`], [`GlobalState`];
//! * transition specifications — [`TransitionSpec`], [`InputSpec`],
//!   [`QuorumSpec`], [`Outcome`], and the Table-IV style [`Annotations`]
//!   consumed by the partial-order reduction in `mp-por`;
//! * protocol specifications — [`ProtocolSpec`] and [`ProtocolBuilder`];
//! * the operational semantics — [`enabled_instances`], [`execute`],
//!   [`successors`], and the explicit [`StateGraph`] used to validate
//!   transition refinement (Theorem 2 of the paper);
//! * the compact state codec — [`Encode`], [`Decode`] and the
//!   [`codec!`](crate::codec!) macro — that lets the disk-backed BFS
//!   frontier of `mp-store` spill encoded states to disk.
//!
//! # Example: a quorum transition
//!
//! The Paxos proposer of Figure 2 in the paper consumes `READ_REPL` messages
//! from a majority of acceptors in a single step. Its MP-Basset counterpart:
//!
//! ```
//! use mp_model::{codec, Message, Outcome, ProcessId, QuorumSpec, TransitionSpec};
//!
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! enum Msg { ReadRepl(u32), Write(u32) }
//! codec!(enum Msg { 0 = ReadRepl(v), 1 = Write(v) });
//!
//! impl Message for Msg {
//!     fn kind(&self) -> &'static str {
//!         match self {
//!             Msg::ReadRepl(_) => "READ_REPL",
//!             Msg::Write(_) => "WRITE",
//!         }
//!     }
//! }
//!
//! let acceptors = [ProcessId(1), ProcessId(2), ProcessId(3)];
//! let majority = acceptors.len() / 2 + 1;
//! let read_repl = TransitionSpec::<u32, Msg>::builder("READ_REPL", ProcessId(0))
//!     .quorum_input("READ_REPL", QuorumSpec::Exact(majority))
//!     .sends(&["WRITE"])
//!     .effect(move |_local, msgs| {
//!         // select the highest READ_REPL value among the quorum
//!         let highest = msgs.iter().map(|m| match m.payload {
//!             Msg::ReadRepl(v) => v,
//!             _ => 0,
//!         }).max().unwrap_or(0);
//!         Outcome::new(1).broadcast(acceptors, Msg::Write(highest))
//!     })
//!     .build();
//! assert!(read_repl.is_exact_quorum());
//! ```
//!
//! The higher layers of the reproduction live in sibling crates:
//! `mp-por` (partial-order reduction), `mp-checker` (search engines),
//! `mp-refine` (quorum-/reply-split refinement) and `mp-protocols`
//! (Paxos, Echo Multicast, regular storage).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod codec;
pub mod enabled;
pub mod error;
pub mod graph;
pub mod ids;
pub mod message;
pub mod permute;
pub mod protocol;
pub mod semantics;
pub mod state;
pub mod transition;

pub use channel::Channels;
pub use codec::{
    decode_from_slice, encode_to_vec, read_varint, write_varint, Decode, DecodeError, Encode, Fnv64,
};
pub use enabled::{enabled_instances, enabled_instances_of, is_enabled, TransitionInstance};
pub use error::ModelError;
pub use graph::StateGraph;
pub use ids::{ProcessId, TransitionId};
pub use message::{Envelope, Kind, Message};
pub use permute::{combine, plain_signature, Permutable, Permutation};
pub use protocol::{EnableFilter, ProtocolBuilder, ProtocolSpec};
pub use semantics::{execute, execute_enabled, is_deadlock, successors};
pub use state::{GlobalState, LocalState};
pub use transition::{
    Annotations, Effect, Guard, InputSpec, Outcome, QuorumSpec, RecipientSet, TransitionBuilder,
    TransitionSpec,
};
