//! # mp-checker — explicit-state model checking engines
//!
//! This crate is the search layer of the MP-Basset reproduction (DSN 2011,
//! "Efficient Model Checking of Fault-Tolerant Distributed Protocols"). It
//! takes a protocol model from `mp-model`, a reduction strategy from
//! `mp-por`, and an [`Invariant`] property, and exhaustively explores the
//! protocol-level state space:
//!
//! * **stateful DFS** — the default engine: one depth-first core (`dfs`)
//!   with a visited-state store and a cycle proviso that keeps
//!   partial-order reduction sound, run as an invariant check or, for
//!   liveness properties, with the lasso detector of `liveness`;
//! * **stateful BFS** — finds shortest counterexamples (useful for the
//!   paper's debugging experiments);
//! * **stateless DFS** — the same core remembering only the path
//!   (liveness, or safety under symmetry) or nothing at all (safety), as
//!   dynamic POR (Flanagan–Godefroid) requires; DPOR is a hook of the
//!   invariant check, the way Basset runs it in the paper;
//! * **parallel BFS** — an extension exploiting the natural parallelism of
//!   protocol-level models: the same level loop as the stateful BFS (see
//!   `bfs`) with helper threads, same verdicts, counters and shortest
//!   counterexamples.
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
//! stutter for premature quiescence); see the `liveness` module. Every
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

mod bfs;
pub mod checker;
pub mod config;
mod counterexample;
mod dfs;
mod fp_index;
mod liveness;
mod obs;
mod observer;
mod pool;
mod property;
pub mod stats;
mod successors;

pub use checker::Checker;
pub use config::{CheckerConfig, RunReport, SearchStrategy, Verdict};
pub use counterexample::{Counterexample, CounterexampleStep};
pub use observer::{NullObserver, Observer, TransitionCountObserver};
pub use property::{Fairness, Invariant, Property, PropertyClass, PropertyStatus};
pub use stats::{ExplorationStats, StatsCounters};
// Visited-state storage lives in the `mp-store` subsystem; the most-used
// names are re-exported here so engine callers need only one import.
pub use mp_store::{
    CheckpointConfig, CheckpointError, Manifest, StateStoreBackend, StoreConfig, StoreStats,
};
// Observability lives in the `mp-trace` subsystem; the tracer and its
// options are re-exported so harnesses can configure tracing without a
// direct dependency.
pub use mp_trace::Tracer;

/// The pooled (`ParallelBfs`) strategy of the breadth-first core in `bfs`
/// against its sequential one, on the fixtures of that module's tests.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::bfs::tests::{below, independent, verify};
        use crate::{Checker, CheckerConfig, Invariant};
        use mp_store::{FrontierConfig, StoreConfig};

        #[test]
        fn parallel_bfs_counts_the_same_states_as_sequential() {
            let report = verify(&independent(3, 2), CheckerConfig::parallel_bfs(2));
            assert!(report.verdict.is_verified());
            assert_eq!(report.stats.states, 27);
            // The exact default is upgraded to the lock-striped store.
            assert_eq!(report.stats.store_backend, "sharded");
            assert_eq!(report.stats.frontier_backend, "mem");
        }

        #[test]
        fn parallel_bfs_detects_violations() {
            let report = Checker::new(&independent(2, 3), below(3))
                .config(CheckerConfig::parallel_bfs(2))
                .run();
            let cx = report.verdict.counterexample().expect("a violation");
            assert_eq!(cx.len(), 3, "the shortest path, not an empty one");
            assert_eq!(cx.reason, "reached 3");
        }

        #[test]
        fn parallel_bfs_with_spor_reduces() {
            let spec = independent(4, 1);
            let unreduced = verify(&spec, CheckerConfig::parallel_bfs(2));
            let reduced = Checker::new(&spec, Invariant::always_true("true"))
                .spor()
                .config(CheckerConfig::parallel_bfs(2))
                .run();
            assert!(unreduced.verdict.is_verified());
            assert!(reduced.verdict.is_verified());
            assert!(reduced.stats.states < unreduced.stats.states);
        }

        #[test]
        fn zero_threads_means_auto() {
            let report = verify(&independent(2, 1), CheckerConfig::parallel_bfs(0));
            assert!(report.verdict.is_verified());
            assert_eq!(report.stats.states, 4);
            assert!(report.stats.worker_threads >= 1);
        }

        #[test]
        fn pool_spawns_exactly_threads_workers_per_run() {
            // Ten levels: a pool that spawned per level would start dozens
            // of threads. The calling thread is one of the three workers.
            let report = verify(&independent(3, 3), CheckerConfig::parallel_bfs(3));
            assert!(report.verdict.is_verified());
            assert_eq!(report.stats.states, 64);
            assert_eq!(report.stats.worker_threads, 3);
            assert_eq!(
                report.stats.worker_spawns, 2,
                "helpers are spawned once per run, and the caller is not spawned"
            );
        }

        #[test]
        fn fingerprint_store_agrees_and_uses_less_memory() {
            let spec = independent(4, 2);
            let exact = verify(&spec, CheckerConfig::parallel_bfs(2));
            let fp = verify(
                &spec,
                CheckerConfig::parallel_bfs(2).with_store(StoreConfig::fingerprint(48)),
            );
            assert!(exact.verdict.is_verified());
            assert!(fp.verdict.is_verified());
            assert_eq!(fp.stats.states, exact.stats.states);
            assert_eq!(fp.stats.store_backend, "fingerprint");
            assert!(
                fp.stats.store_bytes < exact.stats.store_bytes,
                "fingerprints ({}) must be smaller than full keys ({})",
                fp.stats.store_bytes,
                exact.stats.store_bytes
            );
        }

        #[test]
        fn disk_frontier_agrees_with_mem_frontier() {
            let spec = independent(3, 3);
            let run = |frontier| {
                verify(
                    &spec,
                    CheckerConfig::parallel_bfs(2).with_frontier(frontier),
                )
            };
            let mem = run(FrontierConfig::Mem);
            let disk = run(FrontierConfig::disk_with_watermark(64));
            assert!(mem.verdict.is_verified() && disk.verdict.is_verified());
            assert_eq!(mem.stats.counters(), disk.stats.counters());
            assert_eq!(disk.stats.frontier_backend, "disk");
            assert!(disk.stats.frontier_spilled_bytes > 0);
            assert!(disk.strategy.ends_with("+spill"));
        }
    }
}

/// The stateless strategy of the depth-first core in `dfs` — the tree of
/// every path, with and without dynamic POR — through the facade.
#[cfg(test)]
mod stateless {
    mod tests {
        use crate::bfs::tests::{independent, toggler_and_mover, verify, Tok};
        use crate::{Checker, CheckerConfig, Invariant, NullObserver, Verdict};
        use mp_model::{GlobalState, Outcome, ProcessId, ProtocolSpec, TransitionSpec};

        fn p(i: usize) -> ProcessId {
            ProcessId(i)
        }

        /// Sender sends to two receivers; receivers consume. The receives
        /// are independent of each other but dependent on the send.
        fn fan_out() -> ProtocolSpec<u8, Tok> {
            ProtocolSpec::builder("fan-out")
                .process("sender", 0u8)
                .process("r1", 0u8)
                .process("r2", 0u8)
                .transition(
                    TransitionSpec::builder("SEND", p(0))
                        .internal()
                        .guard(|l, _| *l == 0)
                        .sends(&["TOK"])
                        .effect(|_, _| Outcome::new(1).send(p(1), Tok).send(p(2), Tok))
                        .build(),
                )
                .transition(
                    TransitionSpec::builder("RECV_1", p(1))
                        .single_input("TOK")
                        .sends_nothing()
                        .effect(|_, _| Outcome::new(1))
                        .build(),
                )
                .transition(
                    TransitionSpec::builder("RECV_2", p(2))
                        .single_input("TOK")
                        .sends_nothing()
                        .effect(|_, _| Outcome::new(1))
                        .build(),
                )
                .build()
                .unwrap()
        }

        #[test]
        fn stateless_full_search_counts_all_paths() {
            // 2 independent processes × 2 steps: the stateless tree has a
            // node per path prefix, strictly more than the 9 distinct states.
            let report = verify(&independent(2, 2), CheckerConfig::stateless(false));
            assert!(report.verdict.is_verified());
            assert!(report.stats.states > 9);
        }

        #[test]
        fn dpor_explores_fewer_nodes_than_full_stateless() {
            let spec = independent(3, 2);
            let full = verify(&spec, CheckerConfig::stateless(false));
            let dpor = verify(&spec, CheckerConfig::stateless(true));
            assert!(full.verdict.is_verified());
            assert!(dpor.verdict.is_verified());
            assert!(
                dpor.stats.states < full.stats.states,
                "DPOR ({}) must explore fewer nodes than full stateless ({})",
                dpor.stats.states,
                full.stats.states
            );
        }

        #[test]
        fn dpor_explores_dependent_interleavings() {
            // The two receives are dependent on the send but independent of
            // each other; DPOR must still execute both of them (in some
            // order) and reach the terminal state where everyone is done.
            let property = Invariant::new("not-all-done", |s: &GlobalState<u8, Tok>, _| {
                if s.locals.iter().all(|l| *l == 1) && s.pending_messages() == 0 {
                    Err("terminal state reached".into())
                } else {
                    Ok(())
                }
            });
            let report = Checker::new(&fan_out(), property)
                .config(CheckerConfig::stateless(true))
                .run();
            assert!(
                report.verdict.is_violated(),
                "DPOR must reach the terminal state"
            );
            assert_eq!(report.verdict.counterexample().unwrap().len(), 3);
        }

        #[test]
        fn dpor_finds_violations_that_need_both_orders() {
            // A final-state property of two independent steps: DPOR runs
            // one order only, and must still reach the state both orders
            // end in, like the full search does.
            let spec = independent(2, 1);
            let both_done = || {
                Invariant::new("both-done", |s: &GlobalState<u8, Tok>, _: &NullObserver| {
                    if s.locals.iter().all(|l| *l == 1) {
                        Err("both finished".into())
                    } else {
                        Ok(())
                    }
                })
            };
            for dpor in [false, true] {
                let report = Checker::new(&spec, both_done())
                    .config(CheckerConfig::stateless(dpor))
                    .run();
                assert!(report.verdict.is_violated(), "dpor={dpor}: {report}");
            }
        }

        #[test]
        fn depth_limit_stops_cyclic_exploration() {
            // A toggling process never terminates; the stateless search must
            // be cut off by the depth bound.
            let mut config = CheckerConfig::stateless(false);
            config.max_depth = 50;
            let report = verify(&toggler_and_mover(), config);
            assert!(matches!(report.verdict, Verdict::LimitReached { .. }));
            assert_eq!(report.stats.max_depth, 50);
        }

        #[test]
        fn expansion_limit_is_respected() {
            let config = CheckerConfig::stateless(false).with_max_states(10);
            let report = verify(&independent(3, 3), config);
            assert!(matches!(report.verdict, Verdict::LimitReached { .. }));
        }
    }
}
