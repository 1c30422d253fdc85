//! Integration tests for the `mp-trace` observability subsystem as wired
//! through the real engines: the parallel-BFS worker threads must
//! contribute to the shared atomic counters so that their sum equals the
//! sequential totals exactly, and every engine's traced run must emit an
//! NDJSON stream whose lines each read into the one `Event` type and write
//! back byte for byte, and which passes the event-order check of
//! `analyze_stream` (what `mp-harness trace_report check` runs).

use mp_basset::checker::{Checker, CheckerConfig, CheckpointConfig};
use mp_basset::faults::FaultBudget;
use mp_basset::protocols::paxos::{
    consensus_property, faulty_consensus_property, faulty_quorum_model,
    faulty_termination_property, quorum_model as paxos, PaxosSetting, PaxosVariant,
};
use mp_basset::trace::analyze::{analyze_stream, RunSummary};
use mp_basset::trace::event::{Body, Event};
use mp_basset::trace::{SharedBuffer, Tracer};

/// Runs correct Paxos under `config`, returning the report. With `trace`
/// installed the engine emits NDJSON into the caller's buffer.
fn run_paxos(config: CheckerConfig, trace: Tracer) -> mp_basset::checker::RunReport {
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    Checker::new(&spec, consensus_property(setting))
        .spor()
        .config(config.with_trace(trace))
        .run()
}

/// The `(states, transitions)` of the stream's last verdict event.
fn verdict_counts(ndjson: &str) -> (u64, u64) {
    let verdict = ndjson.lines().rev().find_map(|line| {
        match Event::parse(line).expect("the line reads").body {
            Body::Verdict {
                states,
                transitions,
                ..
            } => Some((states, transitions)),
            _ => None,
        }
    });
    verdict.unwrap_or_else(|| panic!("no verdict event in the stream:\n{ndjson}"))
}

/// Reads every line of `ndjson` into an [`Event`], checks that it writes
/// back byte for byte, and folds the stream into its one run.
fn round_trip(label: &str, ndjson: &str) -> RunSummary {
    for line in ndjson.lines() {
        let event = Event::parse(line).unwrap_or_else(|e| panic!("{label}: {e}\n{line}"));
        assert_eq!(event.to_line(), line, "{label}: byte-for-byte round trip");
    }
    let mut runs = analyze_stream(ndjson.lines())
        .unwrap_or_else(|e| panic!("{label}: invalid trace: {e}\n{ndjson}"));
    assert_eq!(runs.len(), 1, "{label}: exactly one traced run");
    assert!(runs[0].clean, "{label}: the run must end cleanly");
    runs.remove(0)
}

#[test]
fn parallel_bfs_thread_contributions_sum_to_the_sequential_totals() {
    // Sequential baseline: deterministic counters and untraced run.
    let sequential = run_paxos(CheckerConfig::stateful_bfs(), Tracer::disabled());
    assert!(sequential.verdict.is_verified());

    for threads in [2, 4] {
        // The caller folds every chunk's tally — its own and the
        // helpers' — into the trace counters; the verdict event carries
        // their sum.
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let parallel = run_paxos(CheckerConfig::parallel_bfs(threads), tracer);
        assert!(parallel.verdict.is_verified());

        // Engine-level determinism: the counters view (timing excluded)
        // must agree exactly with the sequential search.
        assert_eq!(
            parallel.stats.counters(),
            sequential.stats.counters(),
            "parallel-bfs({threads}) diverged from sequential BFS"
        );

        // Trace-level exactness: the trace counters must hold the same
        // totals the report does.
        let expected = (
            sequential.stats.states as u64,
            sequential.stats.transitions_executed as u64,
        );
        assert_eq!(
            verdict_counts(&buf.contents()),
            expected,
            "traced counters under parallel-bfs({threads})"
        );
    }
}

#[test]
fn traced_engine_runs_emit_schema_valid_ndjson() {
    for config in [
        CheckerConfig::stateful_bfs(),
        CheckerConfig::stateful_dfs(),
        CheckerConfig::parallel_bfs(2),
        CheckerConfig::stateless(true),
    ] {
        let label = config.strategy.to_string();
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let report = run_paxos(config, tracer);
        assert!(report.verdict.is_verified(), "{label}");

        let ndjson = buf.contents();
        let run = round_trip(&label, &ndjson);
        assert_eq!(
            (run.states, verdict_counts(&ndjson).0),
            (report.stats.states as u64, report.stats.states as u64),
            "{label}: verdict event must carry the engine's state count"
        );
    }
}

#[test]
fn liveness_and_resumed_runs_write_lines_of_the_one_schema() {
    // The liveness DFS, on the crash cell whose termination fails.
    let setting = PaxosSetting::new(1, 2, 1);
    let crash = FaultBudget::none().crashes(1);
    let spec = faulty_quorum_model(setting, PaxosVariant::Correct, crash);
    let buf = SharedBuffer::new();
    let report = Checker::new(&spec, faulty_termination_property(setting))
        .config(
            CheckerConfig::stateful_dfs()
                .with_trace(Tracer::to_writer(false, Box::new(buf.clone()))),
        )
        .run();
    assert!(
        report.strategy.contains("liveness-dfs"),
        "{}",
        report.strategy
    );
    let run = round_trip(&report.strategy, &buf.contents());
    assert_eq!(run.verdict, "violated");

    // A BFS killed by a state limit, then resumed from its checkpoint.
    let dir = std::env::temp_dir().join(format!("mp-basset-trace-resume-{}", std::process::id()));
    let budget = FaultBudget::none().crashes(1).drops(1);
    let spec = faulty_quorum_model(setting, PaxosVariant::Correct, budget);
    let bfs = |max_states: usize, trace: Tracer| {
        let config = CheckerConfig::stateful_bfs()
            .with_checkpoint(CheckpointConfig::new(&dir))
            .with_max_states(max_states)
            .with_trace(trace);
        Checker::new(&spec, faulty_consensus_property(setting))
            .spor()
            .config(config)
            .run()
    };
    assert!(!bfs(30, Tracer::disabled()).verdict.is_verified());
    let buf = SharedBuffer::new();
    let resumed = bfs(usize::MAX, Tracer::to_writer(false, Box::new(buf.clone())));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(resumed.verdict.is_verified());
    let run = round_trip("resumed stateful-bfs", &buf.contents());
    let (level, states) = run.resumed_from.expect("a resume event");
    assert!(level > 0, "{level}");
    // The run's own counters hold this session's work; with the states the
    // checkpoint restored they make up the report's total.
    assert_eq!(states + run.states, resumed.stats.states as u64);
}

#[test]
fn tracing_does_not_change_the_search() {
    // The acceptance criterion: with tracing enabled the verdict and every
    // deterministic counter are identical to the untraced run.
    let untraced = run_paxos(CheckerConfig::stateful_bfs(), Tracer::disabled());
    let buf = SharedBuffer::new();
    let traced = run_paxos(
        CheckerConfig::stateful_bfs(),
        Tracer::to_writer(false, Box::new(buf.clone())),
    );
    assert_eq!(untraced.verdict.is_verified(), traced.verdict.is_verified());
    assert_eq!(untraced.stats.counters(), traced.stats.counters());
    // The traced run additionally accumulated a phase breakdown; the
    // untraced run must not have paid for one.
    assert!(untraced.stats.phases.is_zero());
    assert!(!buf.contents().is_empty());
}
