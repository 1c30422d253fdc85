//! # mp-basset — efficient model checking of fault-tolerant distributed protocols
//!
//! Umbrella crate of the Rust reproduction of *"Efficient Model Checking of
//! Fault-Tolerant Distributed Protocols"* (Bokor, Kinder, Serafini, Suri —
//! DSN 2011). It re-exports the individual layers so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`model`] (`mp-model`) — the message-passing computation model with
//!   quorum transitions (the paper's MP language analogue);
//! * [`trace`] (`mp-trace`) — zero-dependency observability: phase timers,
//!   an atomic metrics registry, progress heartbeats and NDJSON run traces
//!   shared by every engine and the harness;
//! * [`por`] (`mp-por`) — static (stubborn-set / MP-LPOR style) and dynamic
//!   partial-order reduction;
//! * [`store`] (`mp-store`) — pluggable visited-state backends (exact,
//!   sharded lock-striped concurrent, hash-compaction fingerprints, each
//!   optionally behind canonical-key insertion) and spillable BFS
//!   frontiers (in-memory, or one file per level on disk);
//! * [`symmetry`] (`mp-symmetry`) — process-symmetry (orbit) reduction:
//!   validated role permutation groups and the canonicalization every
//!   engine applies at store-insertion time;
//! * [`checker`] (`mp-checker`) — stateful/stateless/parallel explicit-state
//!   search engines, safety + liveness (termination / leads-to) properties
//!   with fairness policies, observers, and path/lasso counterexamples;
//! * [`refine`] (`mp-refine`) — quorum-split, reply-split and combined-split
//!   transition refinement (Theorems 1–2);
//! * [`faults`] (`mp-faults`) — generic, budgeted fault injection (crash /
//!   loss / duplication / Byzantine corruption) wrapping any protocol;
//! * [`protocols`] (`mp-protocols`) — Paxos, Echo Multicast and regular
//!   storage models, with quorum/single-message variants and injected bugs;
//! * [`harness`] (`mp-harness`) — the Table I / Table II / Section II-C
//!   experiment reproduction.
//!
//! See `README.md` for a quickstart and feature tour, and
//! `docs/ARCHITECTURE.md` for the crate map, the data flow of a check and
//! the engine comparison.

#![forbid(unsafe_code)]

pub use mp_checker as checker;
pub use mp_faults as faults;
pub use mp_harness as harness;
pub use mp_model as model;
pub use mp_por as por;
pub use mp_protocols as protocols;
pub use mp_refine as refine;
pub use mp_store as store;
pub use mp_symmetry as symmetry;
pub use mp_trace as trace;

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        // A trivial end-to-end use of every re-exported layer.
        let setting = crate::protocols::paxos::PaxosSetting::new(1, 1, 1);
        let spec = crate::protocols::paxos::quorum_model(
            setting,
            crate::protocols::paxos::PaxosVariant::Correct,
        );
        let report = crate::checker::Checker::new(
            &spec,
            crate::protocols::paxos::consensus_property(setting),
        )
        .spor()
        .run();
        assert!(report.verdict.is_verified());
    }
}
