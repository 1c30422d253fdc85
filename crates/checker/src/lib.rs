//! # mp-checker — explicit-state model checking engines
//!
//! This crate is the search layer of the MP-Basset reproduction (DSN 2011,
//! "Efficient Model Checking of Fault-Tolerant Distributed Protocols"). It
//! takes a protocol model from `mp-model`, a reduction strategy from
//! `mp-por`, and an [`Invariant`] property, and exhaustively explores the
//! protocol-level state space:
//!
//! * **stateful DFS** — the default engine, with a visited-state store and a
//!   cycle proviso that keeps partial-order reduction sound for invariants;
//! * **stateful BFS** — finds shortest counterexamples (useful for the
//!   paper's debugging experiments);
//! * **stateless DFS** — no visited set, required by dynamic POR
//!   (Flanagan–Godefroid), matching the way Basset runs DPOR in the paper;
//! * **parallel BFS** — an extension exploiting the natural parallelism of
//!   protocol-level models.
//!
//! The stateful engines store visited `(state, observer)` pairs in a
//! pluggable backend from the `mp-store` crate, selected by
//! [`CheckerConfig::store`]: exact, lock-striped sharded (for the parallel
//! engine), or hash-compaction fingerprints. **The fingerprint backend
//! trades a bounded omission probability for order-of-magnitude memory
//! savings** — a `Verified` verdict becomes probabilistic while
//! counterexamples stay exact; see the `mp-store` crate-level documentation
//! for the precise soundness contract before using it on certification
//! runs.
//!
//! Properties come in three classes ([`Property`]): **safety** invariants
//! (the class MP-Basset supports), evaluated over the global state and an
//! optional [`Observer`] history variable — the sound counterpart of the
//! paper's "assertions that peek at remote state" — plus two **liveness**
//! classes, **termination** (every fair maximal execution reaches a
//! quiescent/goal state) and **leads-to** (`p ⇝ q`). Liveness properties
//! carry a [`Fairness`] policy that by default exempts environment (fault)
//! transitions — a crash is never "unfairly required" to happen — and their
//! counterexamples are **lassos** (stem + repeatable cycle, or stem +
//! stutter for premature quiescence); see the [`liveness`] module. Every
//! engine dispatches on the property class, so the same protocol, fault
//! configuration and reducer answer both "can this go wrong?" and "does
//! this always finish?".
//!
//! ```
//! use mp_checker::{Checker, CheckerConfig, Invariant};
//! use mp_model::{GlobalState, Message, Outcome, ProcessId, ProtocolSpec, TransitionSpec};
//!
//! #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
//! struct Ping;
//! mp_model::codec!(struct Ping);
//! impl Message for Ping {
//!     fn kind(&self) -> &'static str { "PING" }
//! }
//!
//! // Two processes ping each other once.
//! let spec: ProtocolSpec<u8, Ping> = ProtocolSpec::builder("ping")
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
//! let report = Checker::new(
//!     &spec,
//!     Invariant::new("receiver-only-after-sender", |s: &GlobalState<u8, Ping>, _| {
//!         if s.locals[1] == 1 && s.locals[0] == 0 {
//!             Err("receiver done before sender sent".into())
//!         } else {
//!             Ok(())
//!         }
//!     }),
//! )
//! .spor()
//! .config(CheckerConfig::stateful_dfs())
//! .run();
//! assert!(report.verdict.is_verified());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod checker;
pub mod config;
pub mod counterexample;
pub mod dfs;
pub mod liveness;
mod obs;
pub mod observer;
pub mod parallel;
pub mod property;
pub mod stateless;
pub mod stats;

pub use checker::Checker;
pub use config::{CheckerConfig, RunReport, SearchStrategy, Verdict};
pub use counterexample::{Counterexample, CounterexampleStep};
pub use liveness::{run_liveness_dfs, run_stateless_liveness};
pub use observer::{NullObserver, Observer, TransitionCountObserver};
pub use property::{
    all_of, Fairness, Invariant, Property, PropertyClass, PropertyStatus, StatePredicate,
};
pub use stats::{ExplorationStats, StatsCounters};
// Visited-state storage lives in the `mp-store` subsystem; the most-used
// names are re-exported here so engine callers need only one import.
pub use mp_store::{
    CheckpointConfig, CheckpointError, Manifest, StateStoreBackend, StoreConfig, StoreStats,
};
// Observability lives in the `mp-trace` subsystem; the tracer and its
// options are re-exported so harnesses can configure tracing without a
// direct dependency.
pub use mp_trace::{TraceOptions, Tracer};

pub use bfs::run_stateful_bfs;
pub use dfs::run_stateful_dfs;
pub use parallel::run_parallel_bfs;
pub use stateless::run_stateless;
