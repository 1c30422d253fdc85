//! Shared experiment-cell runner.

use std::path::PathBuf;
use std::time::Duration;

use mp_checker::{Checker, CheckerConfig, Invariant, Observer, Tracer};
use mp_model::{LocalState, Message, ProtocolSpec};
use mp_store::{FrontierConfig, StoreConfig};

use crate::bench_gate::Row;
use crate::report::{run_row, short_verdict};

/// Resource budget applied to every experiment cell. The defaults keep the
/// whole table runnable on a laptop in minutes; `--full` on the subcommands
/// lifts them to paper-scale.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum states stored/expanded per cell.
    pub max_states: usize,
    /// Wall-clock budget per cell.
    pub time_limit: Option<Duration>,
    /// Visited-store backend used by the stateful cells (`mp-store`). The
    /// exact store is the default; a fingerprint store lets paper-scale
    /// sweeps fit in memory at the price of a probabilistic `Verified`.
    pub store: StoreConfig,
    /// BFS frontier backend used by the breadth-first cells (`mp-store`).
    /// The in-memory frontier is the default; the disk frontier spills
    /// encoded states past its watermark so paper-scale sweeps keep their
    /// level queues on disk next to a compact visited set.
    pub frontier: FrontierConfig,
    /// Observability sink (`mp-trace`) forwarded into every cell's
    /// [`CheckerConfig`]. The default disabled tracer keeps every
    /// instrumentation point a no-op; the subcommands' `--progress` /
    /// `--trace PATH` flags install an enabled one.
    pub trace: Tracer,
    /// Root directory for per-cell checkpoint/resume state (`None` runs
    /// without checkpoints). Each cell checkpoints into its own
    /// subdirectory, so a killed sweep resumes every cell at its last
    /// committed BFS level. [`Budget::apply`] does **not** forward this —
    /// the sweep derives the per-cell [`mp_checker::CheckpointConfig`]
    /// itself.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_states: 150_000,
            time_limit: Some(Duration::from_secs(30)),
            store: StoreConfig::Exact,
            frontier: FrontierConfig::Mem,
            trace: Tracer::disabled(),
            checkpoint_dir: None,
        }
    }
}

impl Budget {
    /// An effectively unbounded budget (paper-scale runs).
    pub fn unbounded() -> Self {
        Budget {
            max_states: usize::MAX / 2,
            time_limit: None,
            ..Self::default()
        }
    }

    /// A tight budget used by smoke tests and benchmarks.
    pub fn small() -> Self {
        Budget {
            max_states: 20_000,
            time_limit: Some(Duration::from_secs(10)),
            ..Self::default()
        }
    }

    /// Selects the visited-store backend (builder style).
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = store;
        self
    }

    /// Selects the BFS frontier backend (builder style).
    pub fn with_frontier(mut self, frontier: FrontierConfig) -> Self {
        self.frontier = frontier;
        self
    }

    /// Installs an observability tracer (builder style); every cell run
    /// under this budget then emits heartbeat/NDJSON events and records its
    /// phase breakdown.
    pub fn with_trace(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// Roots per-cell checkpoint directories under `dir` (builder style).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Applies the budget's limits, store, frontier and tracer choices to a
    /// configuration.
    pub fn apply(&self, mut config: CheckerConfig) -> CheckerConfig {
        config.max_states = self.max_states;
        config.time_limit = self.time_limit;
        config.store = self.store;
        config.frontier = self.frontier;
        config.trace = self.trace.clone();
        config
    }
}

/// The search/reduction strategies appearing as columns in the paper's
/// tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellStrategy {
    /// Unreduced stateful depth-first search.
    UnreducedStateful,
    /// Stateful depth-first search with static POR (the MP-LPOR analogue).
    SporStateful,
    /// Stateless depth-first search with dynamic POR (the Basset baseline).
    DporStateless,
    /// SPOR-reduced breadth-first search on the persistent worker pool
    /// (extension; `0` threads = available CPUs). Verdicts and counter
    /// sums match the sequential cells; only the wall clock moves.
    ParallelBfs {
        /// Worker-pool size.
        threads: usize,
    },
}

impl CellStrategy {
    /// Column label used in reports.
    pub fn label(&self) -> String {
        match self {
            CellStrategy::UnreducedStateful => "unreduced".to_string(),
            CellStrategy::SporStateful => "SPOR".to_string(),
            CellStrategy::DporStateless => "DPOR (stateless)".to_string(),
            CellStrategy::ParallelBfs { threads } => format!("parallel-bfs({threads})+SPOR"),
        }
    }
}

/// Runs one experiment cell: a protocol + property + observer under a
/// strategy and budget, returning its row (`report::run_row`).
pub fn run_cell<S, M, O>(
    protocol_label: &str,
    property_label: &str,
    spec: &ProtocolSpec<S, M>,
    property: Invariant<S, M, O>,
    observer: O,
    strategy: CellStrategy,
    budget: &Budget,
) -> Row
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let checker = Checker::with_observer(spec, property, observer);
    let checker = match strategy {
        CellStrategy::UnreducedStateful => checker
            .unreduced()
            .config(budget.apply(CheckerConfig::stateful_dfs())),
        CellStrategy::SporStateful => checker
            .spor()
            .config(budget.apply(CheckerConfig::stateful_dfs())),
        CellStrategy::DporStateless => checker.config(budget.apply(CheckerConfig::stateless(true))),
        CellStrategy::ParallelBfs { threads } => checker
            .spor()
            .config(budget.apply(CheckerConfig::parallel_bfs(threads))),
    };
    let report = checker.run();
    let verdict = short_verdict(&report.verdict);
    run_row(
        protocol_label,
        property_label,
        &strategy.label(),
        &verdict,
        &report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_gate::JsonValue;
    use crate::report::{num, text};
    use mp_checker::NullObserver;
    use mp_protocols::sweep::{collect_model, collect_soundness_property, CollectSetting};

    #[test]
    fn run_cell_produces_sensible_measurements() {
        let setting = CollectSetting::new(3, 2, 1);
        let spec = collect_model(setting, true);
        let m = run_cell(
            "collect(3,2,1)",
            "soundness",
            &spec,
            collect_soundness_property(setting),
            NullObserver,
            CellStrategy::SporStateful,
            &Budget::small(),
        );
        assert_eq!(m["completed"], JsonValue::Bool(true));
        assert_eq!(crate::report::contradicted(&m, false), None);
        assert_eq!(text(&m, "verdict"), "verified");
        assert!(num(&m, "states") > 1.0);
        assert_eq!(text(&m, "strategy"), "SPOR");
    }

    #[test]
    fn budget_limits_are_applied() {
        let setting = CollectSetting::new(4, 2, 2);
        let spec = collect_model(setting, false);
        let tiny = Budget {
            max_states: 10,
            time_limit: None,
            ..Budget::default()
        };
        let m = run_cell(
            "collect",
            "true",
            &spec,
            mp_protocols::sweep::collect_true_property(),
            NullObserver,
            CellStrategy::UnreducedStateful,
            &tiny,
        );
        assert_eq!(m["completed"], JsonValue::Bool(false));
        assert!(text(&m, "verdict").contains("bounded"));
    }

    #[test]
    fn budget_store_choice_reaches_the_engine() {
        let setting = CollectSetting::new(3, 2, 1);
        let spec = collect_model(setting, true);
        let exact = run_cell(
            "collect(3,2,1)",
            "soundness",
            &spec,
            collect_soundness_property(setting),
            NullObserver,
            CellStrategy::SporStateful,
            &Budget::small(),
        );
        let fp = run_cell(
            "collect(3,2,1)",
            "soundness",
            &spec,
            collect_soundness_property(setting),
            NullObserver,
            CellStrategy::SporStateful,
            &Budget::small().with_store(mp_store::StoreConfig::fingerprint(48)),
        );
        assert_eq!(text(&exact, "verdict"), text(&fp, "verdict"));
        assert_eq!(num(&exact, "states"), num(&fp, "states"));
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(CellStrategy::SporStateful.label(), "SPOR");
        assert_eq!(CellStrategy::DporStateless.label(), "DPOR (stateless)");
    }
}
