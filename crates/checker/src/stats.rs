//! Exploration statistics.
//!
//! The paper reports two numbers per experiment — visited states and wall
//! clock time (Tables I and II). [`ExplorationStats`] records those plus a
//! few internals (transitions executed, peak depth, how many states were
//! expanded with a reduced transition set) that the harness uses to explain
//! *why* a strategy wins.

use std::fmt;
use std::time::Duration;

use mp_store::{FrontierStats, StoreStats};
use mp_trace::PhaseTimes;

/// Counters collected during one model-checking run.
///
/// The struct deliberately does **not** implement `PartialEq`: it mixes
/// deterministic search counters with wall-clock and byte measurements that
/// vary run to run. Agreement assertions should compare the
/// [`ExplorationStats::counters`] view, which carries only the
/// deterministic fields.
#[derive(Clone, Debug, Default)]
pub struct ExplorationStats {
    /// Number of distinct states stored (stateful search) or expanded
    /// (stateless search). This is the "States" column of Tables I and II.
    pub states: usize,
    /// Number of state expansions. For stateful search this equals
    /// [`ExplorationStats::states`] unless the search stopped early; for
    /// stateless search it counts every node of the explored tree.
    pub expansions: usize,
    /// Number of transition executions performed.
    pub transitions_executed: usize,
    /// Number of times a successor was already known (stateful search).
    pub revisits: usize,
    /// Number of states in which the reducer pruned at least one enabled
    /// instance.
    pub reduced_states: usize,
    /// Number of states in which the cycle proviso forced full expansion.
    pub proviso_expansions: usize,
    /// Maximum search depth reached.
    pub max_depth: usize,
    /// Threads of a `ParallelBfs` run, the calling one included (0 for
    /// every other strategy). This is the `threads` column of the scaling
    /// benchmarks.
    pub worker_threads: usize,
    /// OS threads actually started over the whole run. The breadth-first
    /// core spawns its helpers once, and the calling thread is a worker
    /// itself, so the contract is `worker_spawns == worker_threads − 1`
    /// (0 at one thread) however many levels or chunks the search
    /// processed — a regression to spawn-per-level shows up here (and in
    /// the test that asserts it).
    pub worker_spawns: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Name of the visited-state backend used ("exact", "sharded",
    /// "fingerprint", or "none" for a stateless run).
    pub store_backend: String,
    /// Membership queries that found the state already stored, as counted
    /// uniformly by the backend (`mp-store` unified hit accounting). For
    /// the stateful engines this equals [`ExplorationStats::revisits`].
    pub store_hits: usize,
    /// Approximate peak heap footprint of the visited-state store in
    /// bytes. This is the number the fingerprint backend shrinks.
    pub store_bytes: usize,
    /// Bytes of visited-set data the store wrote to disk as sorted runs (0
    /// for the in-memory backends; see `mp-store`'s `RunStore`).
    pub store_spilled_bytes: usize,
    /// Bytes the store wrote while merging its sorted runs at level
    /// boundaries (0 for the in-memory backends).
    pub store_merge_bytes: usize,
    /// The store's estimate of the probability that at least one state was
    /// wrongly treated as visited (`mp_store::StoreStats`): 0 for the exact
    /// backends; for `fingerprint` and `runs` it qualifies a `Verified`
    /// verdict and is printed wherever the verdict is.
    pub store_omission_probability: f64,
    /// Name of the frontier backend the BFS engines drove ("mem", "disk";
    /// empty for depth-first runs, stateless ones included, which have no
    /// frontier).
    pub frontier_backend: String,
    /// Peak bytes held by the BFS frontier: the exact framed records of
    /// both levels plus the chunks being expanded (see
    /// [`mp_store::FrontierStats::peak_bytes`]). With symmetry
    /// reduction the frontier holds canonical orbit representatives, so
    /// this number shrinks with the orbit collapse.
    pub frontier_peak_bytes: usize,
    /// Total bytes the frontier and the path-reconstruction tables spilled
    /// to disk over the run (0 for the in-memory frontier).
    pub frontier_spilled_bytes: usize,
    /// Wall-clock time attributed to each instrumented phase of the run
    /// (all zero when tracing is disabled — the engines only pay for the
    /// clock reads when a [`mp_trace::Tracer`] is installed).
    pub phases: PhaseTimes,
}

/// The deterministic counters of an [`ExplorationStats`] record — every
/// field that depends only on the protocol, property and strategy, none
/// that depend on wall-clock time, heap layout or store sizing. Two runs
/// of the same configured search must produce equal `StatsCounters`; this
/// is what tests and the sweep harness assert instead of comparing whole
/// stats structs and excluding the noisy fields by hand.
///
/// Pool-shape fields ([`ExplorationStats::worker_threads`],
/// [`ExplorationStats::worker_spawns`]) are deliberately absent: agreement
/// is asserted *across* engines and thread counts, and the pool shape is
/// exactly what varies between the compared runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsCounters {
    /// Distinct states stored/expanded ([`ExplorationStats::states`]).
    pub states: usize,
    /// State expansions ([`ExplorationStats::expansions`]).
    pub expansions: usize,
    /// Transition executions ([`ExplorationStats::transitions_executed`]).
    pub transitions_executed: usize,
    /// Already-known successors ([`ExplorationStats::revisits`]).
    pub revisits: usize,
    /// States expanded with a reduced set ([`ExplorationStats::reduced_states`]).
    pub reduced_states: usize,
    /// Proviso-forced full expansions ([`ExplorationStats::proviso_expansions`]).
    pub proviso_expansions: usize,
    /// Peak search depth ([`ExplorationStats::max_depth`]).
    pub max_depth: usize,
}

impl ExplorationStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the deterministic-counter view used for agreement
    /// assertions (see [`StatsCounters`]).
    pub fn counters(&self) -> StatsCounters {
        StatsCounters {
            states: self.states,
            expansions: self.expansions,
            transitions_executed: self.transitions_executed,
            revisits: self.revisits,
            reduced_states: self.reduced_states,
            proviso_expansions: self.proviso_expansions,
            max_depth: self.max_depth,
        }
    }

    /// Throughput in states per second (0 if the run was instantaneous).
    pub fn states_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of expanded states in which a reduction was achieved.
    pub fn reduction_ratio(&self) -> f64 {
        if self.expansions == 0 {
            0.0
        } else {
            self.reduced_states as f64 / self.expansions as f64
        }
    }

    /// Copies the backend's counters into this record (called by every
    /// stateful engine just before it returns).
    pub fn record_store(&mut self, name: &str, store: StoreStats) {
        self.store_backend = name.to_string();
        self.store_hits = store.hits;
        self.store_bytes = store.approx_bytes;
        self.store_spilled_bytes = store.spilled_bytes;
        self.store_merge_bytes = store.merge_bytes;
        self.store_omission_probability = store.omission_probability;
    }

    /// Copies the frontier's counters into this record (called by the BFS
    /// engines just before they return). `extra_spilled` folds in the
    /// bytes the path-reconstruction log wrote next to the frontier's level
    /// files; under a checkpoint the sum is the data files' bytes.
    pub fn record_frontier(&mut self, name: &str, frontier: FrontierStats, extra_spilled: usize) {
        self.frontier_backend = name.to_string();
        self.frontier_peak_bytes = frontier.peak_bytes;
        self.frontier_spilled_bytes = frontier.spilled_bytes + extra_spilled;
    }
}

impl fmt::Display for ExplorationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, {:.1?} ({:.0} states/s, {:.0}% states reduced, max depth {})",
            self.states,
            self.transitions_executed,
            self.elapsed,
            self.states_per_second(),
            self.reduction_ratio() * 100.0,
            self.max_depth
        )?;
        if !self.store_backend.is_empty() && self.store_backend != "none" {
            write!(
                f,
                " [{} store: ~{} KiB, {} hits",
                self.store_backend,
                self.store_bytes / 1024,
                self.store_hits
            )?;
            if self.store_omission_probability > 0.0 {
                write!(f, ", omission ≤ {:.1e}", self.store_omission_probability)?;
            }
            write!(f, "]")?;
        }
        if !self.frontier_backend.is_empty() {
            write!(
                f,
                " [{} frontier: peak ~{} KiB, {} KiB spilled]",
                self.frontier_backend,
                self.frontier_peak_bytes / 1024,
                self.frontier_spilled_bytes / 1024
            )?;
        }
        if !self.phases.is_zero() {
            write!(f, " [phases:")?;
            for (phase, time) in self.phases.iter() {
                if !time.is_zero() {
                    write!(f, " {}={}ms", phase.name(), time.as_millis())?;
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = ExplorationStats::new();
        assert_eq!(s.states, 0);
        assert_eq!(s.states_per_second(), 0.0);
        assert_eq!(s.reduction_ratio(), 0.0);
    }

    #[test]
    fn throughput_and_ratio() {
        let s = ExplorationStats {
            states: 1000,
            expansions: 500,
            reduced_states: 250,
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((s.states_per_second() - 500.0).abs() < 1e-9);
        assert!((s.reduction_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_states_and_time() {
        let s = ExplorationStats {
            states: 42,
            transitions_executed: 100,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("42 states"));
        assert!(text.contains("100 transitions"));
    }

    #[test]
    fn counters_view_ignores_timing_and_size_fields() {
        let mut a = ExplorationStats {
            states: 10,
            expansions: 10,
            transitions_executed: 25,
            revisits: 5,
            max_depth: 4,
            elapsed: Duration::from_millis(3),
            store_bytes: 4096,
            ..Default::default()
        };
        let mut b = a.clone();
        // Perturb every noisy field; the counters view must still agree.
        b.elapsed = Duration::from_secs(9);
        b.store_bytes = 1;
        b.store_backend = "exact".into();
        b.frontier_peak_bytes = 777;
        b.phases = PhaseTimes::from_nanos([1; mp_trace::PHASE_COUNT]);
        assert_eq!(a.counters(), b.counters());
        // ...and a real counter difference must show up.
        a.revisits += 1;
        assert_ne!(a.counters(), b.counters());
    }

    #[test]
    fn display_mentions_phases_when_nonzero() {
        let mut nanos = [0u64; mp_trace::PHASE_COUNT];
        nanos[0] = 5_000_000;
        let s = ExplorationStats {
            states: 1,
            phases: PhaseTimes::from_nanos(nanos),
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("[phases:"), "{text}");
        assert!(text.contains("expansion=5ms"), "{text}");
    }

    #[test]
    fn display_mentions_store_when_recorded() {
        let mut s = ExplorationStats::new();
        s.record_store(
            "fingerprint",
            StoreStats {
                entries: 10,
                hits: 4,
                misses: 10,
                approx_bytes: 2048,
                omission_probability: 1.2e-9,
                ..Default::default()
            },
        );
        assert_eq!(s.store_hits, 4);
        assert_eq!(s.store_bytes, 2048);
        let text = s.to_string();
        assert!(text.contains("fingerprint store"));
        assert!(text.contains("4 hits, omission ≤ 1.2e-9]"), "{text}");
        // An exact store omits nothing and says nothing.
        s.record_store("exact", StoreStats::default());
        assert!(!s.to_string().contains("omission"));
    }
}
