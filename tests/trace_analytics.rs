//! Integration tests for the trace analytics layer (`mp_trace::analyze`)
//! over traces emitted by the real engines: the summary fold must agree
//! with the engine's own counters, a trace diffed against itself must be
//! all-zero, the folded-stack flame export must be well-formed, and the
//! per-level `level_summary` time-series must tile the search exactly —
//! level widths summing to the total number of stored states.

use mp_basset::checker::{Checker, CheckerConfig};
use mp_basset::protocols::paxos::{
    consensus_property, quorum_model as paxos, PaxosSetting, PaxosVariant,
};
use mp_basset::trace::analyze::{analyze_stream, diff, RunSummary};
use mp_basset::trace::{SharedBuffer, Tracer};

/// Runs correct Paxos under `config` with a capturing tracer, returning
/// the engine report and the analyzed run summary.
fn traced_paxos(config: CheckerConfig) -> (mp_basset::checker::RunReport, RunSummary) {
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    let buf = SharedBuffer::new();
    let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
    let report = Checker::new(&spec, consensus_property(setting))
        .spor()
        .config(config.with_trace(tracer))
        .run();
    let ndjson = buf.contents();
    let mut runs = analyze_stream(ndjson.lines())
        .unwrap_or_else(|e| panic!("analyzer rejected an engine trace: {e}\n{ndjson}"));
    assert_eq!(runs.len(), 1, "exactly one traced run");
    (report, runs.remove(0))
}

#[test]
fn summaries_agree_with_the_engines_own_counters() {
    for config in [
        CheckerConfig::stateful_bfs(),
        CheckerConfig::stateful_dfs(),
        CheckerConfig::parallel_bfs(2),
    ] {
        let label = config.strategy.to_string();
        let (report, summary) = traced_paxos(config);
        assert!(report.verdict.is_verified(), "{label}");
        assert!(summary.clean, "{label}");
        assert_eq!(summary.verdict, "verified", "{label}");
        assert_eq!(summary.states, report.stats.states as u64, "{label}");
        assert_eq!(
            summary.transitions, report.stats.transitions_executed as u64,
            "{label}"
        );
        assert!(
            summary.phase_total_us() > 0,
            "{label}: traced run must accumulate phase time"
        );
        assert!(summary.throughput.samples >= 1, "{label}");
    }
}

#[test]
fn self_diff_of_an_engine_trace_is_all_zero() {
    let (_, summary) = traced_paxos(CheckerConfig::stateful_bfs());
    let d = diff(&summary, &summary);
    assert!(d.is_zero(), "self-diff must be zero: {d:?}");
    assert_eq!(d.throughput_ratio, 1.0);
}

#[test]
fn flame_export_is_folded_stack_shaped() {
    let (_, summary) = traced_paxos(CheckerConfig::stateful_bfs());
    let stacks = summary.folded_stacks();
    assert!(!stacks.is_empty());
    for line in &stacks {
        // Collapsed-stack format: `frame;frame <count>` with an integer
        // count — what speedscope/inferno ingest directly.
        let (frames, count) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no count separator: {line}"));
        assert!(
            frames.starts_with(&summary.strategy),
            "root frame must be the engine: {line}"
        );
        assert!(frames.contains(';'), "{line}");
        count
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("non-integer count in `{line}`: {e}"));
    }
}

#[test]
fn bfs_level_widths_tile_the_search_exactly() {
    // Every stored state is queued once and popped in exactly one level, so
    // on a run-to-exhaustion BFS the level widths must sum to the total
    // state count — the time-series tiles the search with no gap and no
    // double count. Checked for both BFS engines, with and without spill.
    for (label, config) in [
        ("stateful-bfs", CheckerConfig::stateful_bfs()),
        (
            "stateful-bfs+spill",
            CheckerConfig::stateful_bfs()
                .with_frontier(mp_basset::store::FrontierConfig::disk_with_watermark(256)),
        ),
        ("parallel-bfs", CheckerConfig::parallel_bfs(2)),
    ] {
        let (report, summary) = traced_paxos(config);
        assert!(report.verdict.is_verified(), "{label}");
        assert!(!summary.levels.is_empty(), "{label}: BFS must emit levels");
        let width_sum: u64 = summary.levels.iter().map(|l| l.width).sum();
        assert_eq!(
            width_sum, summary.states,
            "{label}: level widths must sum to the state count"
        );
        // new_states tiles the successors the same way: everything except
        // the pre-seeded root is first stored during some level.
        let new_sum: u64 = summary.levels.iter().map(|l| l.new_states).sum();
        assert_eq!(new_sum, summary.states - 1, "{label}");
        // Levels arrive in order, starting at depth 1.
        for (i, level) in summary.levels.iter().enumerate() {
            assert_eq!(level.level, i as u64 + 1, "{label}: contiguous levels");
        }
        assert_eq!(
            summary.levels.len() as u64,
            summary.peak_depth,
            "{label}: one level_summary per depth"
        );
    }
}

#[test]
fn memory_gauges_reach_the_stream_with_plausible_values() {
    use mp_basset::trace::Gauge;
    for (config, has_frontier) in [
        (CheckerConfig::stateful_bfs(), true),
        (CheckerConfig::stateful_dfs(), false),
    ] {
        let label = config.strategy.to_string();
        let (report, summary) = traced_paxos(config);
        let store_peak = summary.gauge(Gauge::StoreBytes);
        assert!(store_peak > 0, "traced {label} must sample the store gauge");
        assert_eq!(
            store_peak, report.stats.store_bytes as u64,
            "{label}: peak store gauge equals the final store footprint (grow-only)"
        );
        assert_eq!(
            summary.gauge(Gauge::FrontierBytes) > 0,
            has_frontier,
            "{label}"
        );
        // Symmetry off: the canonical-cache gauge must stay zero.
        assert_eq!(summary.gauge(Gauge::CanonicalCacheBytes), 0, "{label}");
    }
}
