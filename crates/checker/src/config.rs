//! Checker configuration and run reports.

use std::fmt;
use std::time::Duration;

use mp_store::{CheckpointConfig, FrontierConfig, StoreConfig};
use mp_trace::Tracer;

use crate::{Counterexample, ExplorationStats};

/// Which search engine to use.
///
/// The paper's experiments use three engines: unreduced or SPOR-reduced
/// *stateful* search (MP-Basset), and *stateless* search for DPOR (Basset);
/// see the footnotes of Table I. The parallel strategy is an extension of
/// this reproduction: the same breadth-first core with helper threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchStrategy {
    /// Depth-first search with a visited-state store (stateful search).
    #[default]
    StatefulDfs,
    /// Breadth-first search with a visited-state store. Finds shortest
    /// counterexamples.
    StatefulBfs,
    /// Stateless depth-first search (no visited set); required by dynamic
    /// POR, which must revisit subtrees to install backtrack points.
    Stateless {
        /// Enable Flanagan–Godefroid dynamic POR.
        dpor: bool,
    },
    /// The breadth-first search of [`SearchStrategy::StatefulBfs`] on
    /// several threads (extension): same verdicts, counters and shortest
    /// counterexamples, over a lock-striped visited store.
    ParallelBfs {
        /// Number of threads, the calling one included (0 = number of
        /// available CPUs).
        threads: usize,
    },
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchStrategy::StatefulDfs => write!(f, "stateful-dfs"),
            SearchStrategy::StatefulBfs => write!(f, "stateful-bfs"),
            SearchStrategy::Stateless { dpor: true } => write!(f, "stateless-dpor"),
            SearchStrategy::Stateless { dpor: false } => write!(f, "stateless"),
            SearchStrategy::ParallelBfs { threads } => write!(f, "parallel-bfs({threads})"),
        }
    }
}

/// Configuration of a model-checking run.
#[derive(Clone, Debug)]
pub struct CheckerConfig {
    /// Search engine.
    pub strategy: SearchStrategy,
    /// State budget: a search stops with a `state limit` verdict once it has
    /// met this many states for the first time — stored states, or tree
    /// nodes for a stateless run.
    pub max_states: usize,
    /// Maximum path depth of the depth-first searches that remember the path
    /// or nothing of a state (the stateless strategy): without a store they
    /// would follow a cycle forever. Store-backed searches ignore it.
    pub max_depth: usize,
    /// Treat deadlock states (no enabled transition) as violations. Off by
    /// default because terminating protocols end in technical deadlocks.
    pub check_deadlocks: bool,
    /// Optional wall-clock budget; the run stops with a limit verdict when
    /// it is exceeded.
    pub time_limit: Option<Duration>,
    /// Which visited-state backend the stateful engines use (`mp-store`).
    /// The parallel engine upgrades [`StoreConfig::Exact`] to the sharded
    /// store so workers never serialise on a global visited-set lock; a
    /// stateless run builds no store and ignores this field. Selecting a
    /// fingerprint store makes `Verified` verdicts probabilistic — see the
    /// `mp-store` crate docs for the soundness contract.
    pub store: StoreConfig,
    /// Where the breadth-first engines keep their frontier (`mp-store`).
    /// Either way a queued state is the exact bytes its worker encoded for
    /// the visited store. The in-memory frontier, the default, keeps them
    /// all; the disk frontier spills them past its watermark so paper-scale
    /// fault sweeps fit in memory next to the visited set (strategy labels
    /// gain a `+spill` suffix). Exploration order is identical either way,
    /// so verdicts and state counts are byte-identical. Depth-first runs,
    /// stateless ones included, have no frontier: they ignore this field.
    pub frontier: FrontierConfig,
    /// Checkpoint/resume directory for the breadth-first engines
    /// (`mp-store`). When set, every completed BFS level is persisted
    /// (frontier entries, parent records, counters plus a versioned
    /// manifest) and a later run pointed at the same directory resumes at
    /// the last committed level with byte-identical verdicts and counters.
    /// The manifest records the spec fingerprint and this configuration's
    /// identity, so resuming under a different protocol or search
    /// configuration is refused. Depth-first runs, stateless ones included,
    /// ignore this field. See `docs/ON_DISK_FORMATS.md` for the layout.
    pub checkpoint: Option<CheckpointConfig>,
    /// Observability sink (`mp-trace`). The default disabled tracer makes
    /// every instrumentation point a no-op — no clock reads, no atomics
    /// beyond one pointer check. An enabled tracer gives each run a
    /// heartbeat (progress lines / NDJSON events), per-phase wall-clock
    /// attribution (reported in [`ExplorationStats::phases`]) and metric
    /// histograms. Verdicts and state counts are identical either way.
    pub trace: Tracer,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            strategy: SearchStrategy::StatefulDfs,
            max_states: 20_000_000,
            max_depth: 100_000,
            check_deadlocks: false,
            time_limit: None,
            store: StoreConfig::Exact,
            frontier: FrontierConfig::Mem,
            checkpoint: None,
            trace: Tracer::disabled(),
        }
    }
}

impl CheckerConfig {
    /// Configuration for a stateful depth-first run (the default).
    pub fn stateful_dfs() -> Self {
        Self::default()
    }

    /// Configuration for a stateful breadth-first run.
    pub fn stateful_bfs() -> Self {
        CheckerConfig {
            strategy: SearchStrategy::StatefulBfs,
            ..Self::default()
        }
    }

    /// Configuration for a stateless run, optionally with dynamic POR.
    ///
    /// DPOR orders dependent steps only and tracks no visibility, so it is
    /// sound only for invariants that read one process's state: on
    /// generated specs whose invariant relates two processes it answers
    /// `verified` on two violated cells, which the differential tests pin.
    pub fn stateless(dpor: bool) -> Self {
        CheckerConfig {
            strategy: SearchStrategy::Stateless { dpor },
            ..Self::default()
        }
    }

    /// Configuration for the parallel breadth-first engine.
    pub fn parallel_bfs(threads: usize) -> Self {
        CheckerConfig {
            strategy: SearchStrategy::ParallelBfs { threads },
            ..Self::default()
        }
    }

    /// Sets the state limit (builder style).
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Enables or disables deadlock checking (builder style).
    pub fn with_deadlock_check(mut self, check: bool) -> Self {
        self.check_deadlocks = check;
        self
    }

    /// Selects the visited-state backend (builder style).
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = store;
        self
    }

    /// Selects the BFS frontier backend (builder style);
    /// [`FrontierConfig::disk`] or
    /// [`FrontierConfig::disk_with_watermark`] turn on spilling.
    pub fn with_frontier(mut self, frontier: FrontierConfig) -> Self {
        self.frontier = frontier;
        self
    }

    /// Enables checkpoint/resume for the breadth-first engines (builder
    /// style): completed levels are persisted under the configured
    /// directory and a later run pointed at the same directory resumes at
    /// the last committed level.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// The configuration-identity string persisted in checkpoint manifests
    /// and re-validated on resume. It covers every field that changes what
    /// the search explores (strategy, store, frontier, deadlock checking)
    /// and deliberately omits run *budgets* (state, depth and time limits)
    /// and observability settings — resuming with a bigger budget or a
    /// different tracer is exactly the point. The trailing `proviso=true`
    /// is a fixed literal of checkpoint format v2: the cycle proviso was a
    /// field once, and no run ever wrote another value. With the deadlock
    /// check on, the field reads `deadlocks=first-visit`: a deadlock is
    /// judged when a state is first generated, so a committed level holds
    /// judged states only. Builds that judged at dequeue wrote
    /// `deadlocks=true` and left their last level unjudged; such a
    /// checkpoint is refused.
    pub(crate) fn checkpoint_identity(&self) -> String {
        let deadlocks = if self.check_deadlocks {
            "first-visit"
        } else {
            "false"
        };
        format!(
            "strategy={} store={} frontier={} deadlocks={deadlocks} proviso=true",
            self.strategy, self.store, self.frontier
        )
    }

    /// Installs an observability tracer (builder style); every engine then
    /// emits a run header, heartbeat progress, a phase summary and a final
    /// verdict event for each run it executes.
    pub fn with_trace(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }
}

/// Outcome of a model-checking run.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The property holds in every explored state and the exploration was
    /// exhaustive (within the configured strategy's guarantees).
    Verified,
    /// A counterexample was found.
    Violated(Box<Counterexample>),
    /// A resource limit (states, depth, time) stopped the run before it
    /// finished; the property was not violated in the explored portion.
    LimitReached {
        /// Which limit stopped the run.
        what: String,
    },
}

impl Verdict {
    /// Returns `true` if the run verified the property exhaustively.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified)
    }

    /// Returns `true` if a counterexample was found.
    pub fn is_violated(&self) -> bool {
        matches!(self, Verdict::Violated(_))
    }

    /// Returns the counterexample, if any.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Violated(cx) => Some(cx),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified => write!(f, "verified"),
            Verdict::Violated(cx) => write!(f, "counterexample found ({} steps)", cx.len()),
            Verdict::LimitReached { what } => write!(f, "limit reached: {what}"),
        }
    }
}

/// The report returned by every engine: verdict plus statistics.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The verdict of the run.
    pub verdict: Verdict,
    /// Exploration statistics.
    pub stats: ExplorationStats,
    /// Name of the strategy that produced this report (engine + reducer).
    pub strategy: String,
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.strategy, self.verdict, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = CheckerConfig::default();
        assert_eq!(c.strategy, SearchStrategy::StatefulDfs);
        assert!(!c.check_deadlocks);
        assert!(c.time_limit.is_none());
        assert_eq!(c.store, StoreConfig::Exact);
        assert_eq!(c.frontier, FrontierConfig::Mem);
    }

    #[test]
    fn builder_methods_compose() {
        let mut c = CheckerConfig::stateless(true)
            .with_max_states(10)
            .with_deadlock_check(true)
            .with_store(StoreConfig::fingerprint(32))
            .with_frontier(FrontierConfig::disk_with_watermark(1024));
        c.max_depth = 20;
        c.time_limit = Some(Duration::from_secs(1));
        assert_eq!(c.strategy, SearchStrategy::Stateless { dpor: true });
        assert_eq!(c.max_states, 10);
        assert_eq!(c.max_depth, 20);
        assert!(c.check_deadlocks);
        assert_eq!(c.time_limit, Some(Duration::from_secs(1)));
        assert_eq!(c.store, StoreConfig::fingerprint(32));
        assert_eq!(
            c.frontier,
            FrontierConfig::Disk {
                watermark_bytes: 1024
            }
        );
    }

    #[test]
    fn checkpoint_identity_covers_semantics_not_budgets() {
        let base = CheckerConfig::stateful_bfs();
        let id = base.checkpoint_identity();
        // Byte for byte what earlier commits wrote into their manifests.
        assert_eq!(
            id,
            "strategy=stateful-bfs store=exact frontier=mem deadlocks=false proviso=true"
        );
        // Budgets and tracing may differ between the killed run and the
        // resumed one; the identity must not change.
        assert_eq!(
            base.clone().with_max_states(7).checkpoint_identity(),
            id,
            "state budget must not be part of the identity"
        );
        // Anything that changes what the search explores must change it.
        assert_ne!(
            base.clone()
                .with_store(StoreConfig::fingerprint(32))
                .checkpoint_identity(),
            id
        );
        assert_ne!(
            base.clone()
                .with_frontier(FrontierConfig::disk_with_watermark(64))
                .checkpoint_identity(),
            id
        );
        let deadlocks = base.with_deadlock_check(true).checkpoint_identity();
        assert_eq!(
            deadlocks,
            id.replace("deadlocks=false", "deadlocks=first-visit")
        );
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(SearchStrategy::StatefulDfs.to_string(), "stateful-dfs");
        assert_eq!(SearchStrategy::StatefulBfs.to_string(), "stateful-bfs");
        assert_eq!(
            SearchStrategy::Stateless { dpor: true }.to_string(),
            "stateless-dpor"
        );
        assert_eq!(
            SearchStrategy::ParallelBfs { threads: 4 }.to_string(),
            "parallel-bfs(4)"
        );
    }

    #[test]
    fn verdict_accessors() {
        assert!(Verdict::Verified.is_verified());
        assert!(!Verdict::Verified.is_violated());
        assert!(Verdict::Verified.counterexample().is_none());
        let lim = Verdict::LimitReached {
            what: "states".into(),
        };
        assert!(!lim.is_verified());
        assert!(lim.to_string().contains("states"));
    }
}
