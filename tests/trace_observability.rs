//! Integration tests for the `mp-trace` observability subsystem as wired
//! through the real engines: the parallel-BFS worker threads must
//! contribute to the shared atomic counters so that their sum equals the
//! sequential totals exactly, and a traced engine run must emit an NDJSON
//! stream that passes the schema/ordering validator (`trace_check`'s
//! library core).

use mp_basset::checker::{Checker, CheckerConfig};
use mp_basset::protocols::paxos::{
    consensus_property, quorum_model as paxos, PaxosSetting, PaxosVariant,
};
use mp_basset::trace::validate::{parse_flat_object, validate_stream, Value};
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

/// The integer value of `field` in the stream's last event of kind
/// `event` (the verdict event, for the fields this test reads).
fn last_event_int(ndjson: &str, event: &str, field: &str) -> u64 {
    let line = ndjson
        .lines()
        .rfind(|l| {
            parse_flat_object(l)
                .map(|f| f.get("event") == Some(&Value::Str(event.to_string())))
                .unwrap_or(false)
        })
        .unwrap_or_else(|| panic!("no {event} event in the stream:\n{ndjson}"));
    match parse_flat_object(line)
        .expect("verdict line parses")
        .get(field)
    {
        Some(Value::Int(n)) => *n,
        other => panic!("field {field} of {event} is {other:?}"),
    }
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
        let ndjson = buf.contents();
        assert_eq!(
            last_event_int(&ndjson, "verdict", "states"),
            sequential.stats.states as u64,
            "traced state counter under parallel-bfs({threads})"
        );
        assert_eq!(
            last_event_int(&ndjson, "verdict", "transitions"),
            sequential.stats.transitions_executed as u64,
            "traced transition counter under parallel-bfs({threads})"
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
        let summary = validate_stream(ndjson.lines())
            .unwrap_or_else(|e| panic!("{label}: invalid trace: {e}\n{ndjson}"));
        assert_eq!(summary.runs, 1, "{label}: exactly one traced run");
        assert_eq!(summary.clean_runs, 1, "{label}: the run must end cleanly");
        assert_eq!(summary.aborted_runs, 0, "{label}");
        assert_eq!(
            last_event_int(&ndjson, "verdict", "states"),
            report.stats.states as u64,
            "{label}: verdict event must carry the engine's state count"
        );
    }
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
