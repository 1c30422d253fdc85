//! Markdown rendering behind the `trace_report` subcommand.
//!
//! `mp_trace::analyze` turns an NDJSON trace into [`RunSummary`] values;
//! this module turns those into the human-facing artifacts CI publishes:
//! per-run summary tables, cross-run diff tables (the `diff` subcommand),
//! the per-level timeline, and the
//! folded-stack flamegraph text. Everything renders to GitHub-flavoured
//! markdown except [`flame_text`], which is the raw collapsed-stack format
//! speedscope and inferno ingest, and [`check`], one line per file naming
//! its [`Class`].

use mp_trace::analyze::{analyze_stream, diff, RunSummary, StreamError};
use mp_trace::{Gauge, Phase};

/// Reads and folds a whole trace file.
///
/// # Errors
///
/// The file being unreadable, or any validation error from
/// [`analyze_stream`], as a displayable message naming the path.
pub fn load_runs(path: &str) -> Result<Vec<RunSummary>, String> {
    let contents =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    analyze_stream(contents.lines()).map_err(|e| format!("{path}: {e}"))
}

/// What `trace_report check` finds in one trace file, least severe first;
/// the process exits with the worst class across its files. Invalid ranks
/// above truncated because a corrupt byte stream is a worse sign than a
/// run that was cut off, and both above a run that honestly reported its
/// own abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Every run completed with `clean:true`.
    Clean,
    /// Well-formed, but at least one run ended `clean:false`: its producer
    /// panicked or was dropped mid-run.
    Aborted,
    /// Ends inside a run or holds no completed run.
    Truncated,
    /// A schema or event-order violation, or an unreadable file.
    Invalid,
}

impl Class {
    /// The process exit code: 0 clean, 1 invalid, 2 truncated, 3 aborted.
    pub fn exit_code(self) -> i32 {
        match self {
            Class::Clean => 0,
            Class::Invalid => 1,
            Class::Truncated => 2,
            Class::Aborted => 3,
        }
    }
}

/// Classifies one trace's `contents` and renders its report line.
pub fn check(path: &str, contents: &str) -> (Class, String) {
    match analyze_stream(contents.lines()) {
        Ok(runs) => {
            let aborted = runs.iter().filter(|r| !r.clean).count();
            if aborted > 0 {
                let line = format!(
                    "{path}: ABORTED — {aborted} of {} run(s) ended with clean:false \
                     (the checker stopped early and said so); the stream is schema-valid",
                    runs.len()
                );
                return (Class::Aborted, line);
            }
            (
                Class::Clean,
                format!("{path}: OK — {} clean run(s)", runs.len()),
            )
        }
        Err(StreamError::Truncated(e)) => (
            Class::Truncated,
            format!("{path}: TRUNCATED — {e} (killed process, filled disk, or an incomplete copy)"),
        ),
        Err(StreamError::Invalid(e)) => (Class::Invalid, format!("{path}: INVALID — {e}")),
    }
}

/// `protocol · strategy · property`, the run identity used in headings and
/// for pairing runs across two traces.
fn run_label(run: &RunSummary) -> String {
    format!("{} · {} · {}", run.protocol, run.strategy, run.property)
}

fn fmt_bytes(bytes: u64) -> String {
    match bytes {
        0..=1023 => format!("{bytes} B"),
        1024..=1048575 => format!("{:.1} KiB", bytes as f64 / 1024.0),
        _ => format!("{:.1} MiB", bytes as f64 / 1048576.0),
    }
}

/// Renders one gauge peak: every gauge is a byte figure except the
/// parallel pool's busiest-worker time, which is microseconds.
fn fmt_gauge(gauge: Gauge, peak: u64) -> String {
    match gauge {
        Gauge::WorkerBusyUs => format!("{peak} µs"),
        _ => fmt_bytes(peak),
    }
}

/// Renders one run's summary tables (verdict/counters and the checkpoint it
/// resumed from, then the non-zero phases with their shares, then the
/// non-zero memory gauges).
fn run_summary_markdown(run: &RunSummary) -> String {
    let mut out = format!("### {}\n\n", run_label(run));
    out.push_str("| metric | value |\n|---|---|\n");
    out.push_str(&format!(
        "| verdict | {}{} |\n",
        run.verdict,
        if run.clean { "" } else { " (aborted)" }
    ));
    out.push_str(&format!("| states | {} |\n", run.states));
    out.push_str(&format!("| transitions | {} |\n", run.transitions));
    out.push_str(&format!("| elapsed | {} ms |\n", run.elapsed_ms));
    out.push_str(&format!("| peak depth | {} |\n", run.peak_depth));
    out.push_str(&format!(
        "| throughput p50 / p90 / max | {} / {} / {} states/s |\n",
        run.throughput.p50, run.throughput.p90, run.throughput.max
    ));
    if !run.levels.is_empty() {
        out.push_str(&format!("| BFS levels recorded | {} |\n", run.levels.len()));
    }
    if let Some((level, states)) = run.resumed_from {
        out.push_str(&format!(
            "| resumed from level | {level} ({states} states) |\n"
        ));
    }

    let total_us = run.phase_total_us();
    if total_us > 0 {
        out.push_str("\n| phase | time (µs) | share |\n|---|---|---|\n");
        for phase in Phase::ALL {
            let us = run.phase_us(phase);
            if us > 0 {
                out.push_str(&format!(
                    "| {} | {us} | {:.1}% |\n",
                    phase.name(),
                    run.phase_share(phase) * 100.0
                ));
            }
        }
        out.push_str(&format!("| **total traced** | **{total_us}** | |\n"));
    } else {
        out.push_str("\n_No traced phase time (untraced or instantaneous run)._\n");
    }

    if Gauge::ALL.iter().any(|g| run.gauge(*g) > 0) {
        out.push_str("\n| gauge | peak |\n|---|---|\n");
        for gauge in Gauge::ALL {
            let peak = run.gauge(gauge);
            if peak > 0 {
                out.push_str(&format!(
                    "| {} | {} |\n",
                    gauge.name(),
                    fmt_gauge(gauge, peak)
                ));
            }
        }
    }
    out
}

/// The `summary` subcommand: one section per run in the trace.
pub fn summary_markdown(path: &str, runs: &[RunSummary]) -> String {
    let mut out = format!("## Trace summary: `{path}`\n\n{} run(s).\n\n", runs.len());
    for run in runs {
        out.push_str(&run_summary_markdown(run));
        out.push('\n');
    }
    out
}

/// Pairs runs of two traces by identity label in order of appearance
/// (duplicate labels match positionally), returning the pairs plus the
/// labels left unmatched on each side.
fn pair_runs<'a>(
    a: &'a [RunSummary],
    b: &'a [RunSummary],
) -> (
    Vec<(&'a RunSummary, &'a RunSummary)>,
    Vec<String>,
    Vec<String>,
) {
    let mut pairs = Vec::new();
    let mut unmatched_a = Vec::new();
    let mut used = vec![false; b.len()];
    for run_a in a {
        let label = run_label(run_a);
        match b
            .iter()
            .enumerate()
            .find(|(i, run_b)| !used[*i] && run_label(run_b) == label)
        {
            Some((i, run_b)) => {
                used[i] = true;
                pairs.push((run_a, run_b));
            }
            None => unmatched_a.push(label),
        }
    }
    let unmatched_b = b
        .iter()
        .enumerate()
        .filter(|(i, _)| !used[*i])
        .map(|(_, r)| run_label(r))
        .collect();
    (pairs, unmatched_a, unmatched_b)
}

/// The `diff` subcommand: counter/throughput/phase-share deltas per paired
/// run (`b − a`; a positive delta means the second trace is bigger).
pub fn diff_markdown(
    path_a: &str,
    path_b: &str,
    runs_a: &[RunSummary],
    runs_b: &[RunSummary],
) -> String {
    let mut out = format!("## Trace diff: `{path_a}` → `{path_b}`\n\n");
    let (pairs, unmatched_a, unmatched_b) = pair_runs(runs_a, runs_b);
    if pairs.is_empty() {
        out.push_str("_No runs with matching identities to compare._\n");
    }
    for (a, b) in &pairs {
        let d = diff(a, b);
        out.push_str(&format!("### {}\n\n", run_label(a)));
        out.push_str("| metric | a | b | delta |\n|---|---|---|---|\n");
        out.push_str(&format!(
            "| states | {} | {} | {:+} |\n",
            a.states, b.states, d.states_delta
        ));
        out.push_str(&format!(
            "| transitions | {} | {} | {:+} |\n",
            a.transitions, b.transitions, d.transitions_delta
        ));
        out.push_str(&format!(
            "| peak depth | {} | {} | {:+} |\n",
            a.peak_depth, b.peak_depth, d.depth_delta
        ));
        out.push_str(&format!(
            "| elapsed (ms) | {} | {} | {:+} |\n",
            a.elapsed_ms, b.elapsed_ms, d.elapsed_ms_delta
        ));
        out.push_str(&format!(
            "| throughput p50 (states/s) | {} | {} | {:.2}× |\n",
            a.throughput.p50, b.throughput.p50, d.throughput_ratio
        ));
        for (i, gauge) in Gauge::ALL.iter().enumerate() {
            if a.gauge(*gauge) > 0 || b.gauge(*gauge) > 0 {
                out.push_str(&format!(
                    "| {} peak | {} | {} | {:+} {} |\n",
                    gauge.name(),
                    fmt_gauge(*gauge, a.gauge(*gauge)),
                    fmt_gauge(*gauge, b.gauge(*gauge)),
                    d.gauge_delta[i],
                    if matches!(gauge, Gauge::WorkerBusyUs) {
                        "µs"
                    } else {
                        "B"
                    }
                ));
            }
        }
        if d.phase_share_delta.iter().any(|x| *x != 0.0) {
            out.push_str("\n| phase | share a | share b | Δ (pts) |\n|---|---|---|---|\n");
            for (i, phase) in Phase::ALL.iter().enumerate() {
                if a.phase_us(*phase) == 0 && b.phase_us(*phase) == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "| {} | {:.1}% | {:.1}% | {:+.1} |\n",
                    phase.name(),
                    a.phase_share(*phase) * 100.0,
                    b.phase_share(*phase) * 100.0,
                    d.phase_share_delta[i] * 100.0
                ));
            }
        }
        out.push('\n');
    }
    for label in unmatched_a {
        out.push_str(&format!("_Only in `{path_a}`: {label}_\n"));
    }
    for label in unmatched_b {
        out.push_str(&format!("_Only in `{path_b}`: {label}_\n"));
    }
    out
}

/// The `timeline` subcommand: the per-level `level_summary` time-series of
/// every run that recorded one.
pub fn timeline_markdown(path: &str, runs: &[RunSummary]) -> String {
    let mut out = format!("## Level timeline: `{path}`\n\n");
    let mut any = false;
    for run in runs {
        if run.levels.is_empty() {
            continue;
        }
        any = true;
        out.push_str(&format!("### {}\n\n", run_label(run)));
        out.push_str(
            "| level | width | new states | store hits | frontier bytes | duration (µs) |\n\
             |---|---|---|---|---|---|\n",
        );
        for level in &run.levels {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                level.level,
                level.width,
                level.new_states,
                level.store_hits,
                level.frontier_bytes,
                level.duration_us
            ));
        }
        out.push('\n');
    }
    if !any {
        out.push_str("_No level_summary events (non-BFS engines, or a pre-level trace)._\n");
    }
    out
}

/// The `flame` subcommand: folded `engine;phase <µs>` stacks of every run,
/// ready for `speedscope` or inferno's `flamegraph.pl` descendants.
pub fn flame_text(runs: &[RunSummary]) -> String {
    let mut out = String::new();
    for run in runs {
        for line in run.folded_stacks() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_trace::{Counter, SharedBuffer, Tracer};

    fn traced_runs(spec: &[(&str, u64)]) -> Vec<RunSummary> {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        for (strategy, states) in spec {
            let run = tracer.begin_run("paxos", strategy, "agreement");
            run.add(Counter::States, *states);
            run.sample_gauge(Gauge::StoreBytes, states * 100);
            {
                let _g = run.span(Phase::Expansion);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            run.finish("verified");
            drop(run);
        }
        let text = buf.contents();
        analyze_stream(text.lines()).unwrap()
    }

    #[test]
    fn summary_renders_one_section_per_run() {
        let runs = traced_runs(&[("bfs", 10), ("dfs", 10)]);
        let md = summary_markdown("t.ndjson", &runs);
        assert!(md.contains("2 run(s)"));
        assert!(md.contains("### paxos · bfs · agreement"));
        assert!(md.contains("### paxos · dfs · agreement"));
        assert!(md.contains("| states | 10 |"));
        assert!(md.contains("| expansion |"));
        assert!(md.contains("| store_bytes | 1000 B |"), "{md}");
    }

    #[test]
    fn summary_reports_the_resume_level() {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let run = tracer.begin_run("paxos", "stateful-bfs", "agreement");
        run.resume(4, 1234);
        run.finish("verified");
        drop(run);
        let runs = analyze_stream(buf.contents().lines()).unwrap();
        let md = summary_markdown("t.ndjson", &runs);
        assert!(
            md.contains("| resumed from level | 4 (1234 states) |"),
            "{md}"
        );
        let fresh = summary_markdown("t.ndjson", &traced_runs(&[("bfs", 1)]));
        assert!(!fresh.contains("resumed"), "{fresh}");
    }

    #[test]
    fn diff_pairs_runs_by_identity_and_reports_deltas() {
        let a = traced_runs(&[("bfs", 10), ("dfs", 5)]);
        let b = traced_runs(&[("dfs", 5), ("bfs", 25)]);
        let md = diff_markdown("a.ndjson", "b.ndjson", &a, &b);
        // Order-insensitive pairing: bfs pairs with bfs despite reordering.
        assert!(md.contains("### paxos · bfs · agreement"));
        assert!(md.contains("| states | 10 | 25 | +15 |"), "{md}");
        assert!(md.contains("| states | 5 | 5 | +0 |"), "{md}");
        assert!(!md.contains("Only in"));
    }

    #[test]
    fn diff_reports_unmatched_runs() {
        let a = traced_runs(&[("bfs", 10)]);
        let b = traced_runs(&[("parallel", 10)]);
        let md = diff_markdown("a.ndjson", "b.ndjson", &a, &b);
        assert!(md.contains("No runs with matching identities"));
        assert!(md.contains("Only in `a.ndjson`: paxos · bfs · agreement"));
        assert!(md.contains("Only in `b.ndjson`: paxos · parallel · agreement"));
    }

    #[test]
    fn timeline_handles_runs_without_levels() {
        let runs = traced_runs(&[("dfs", 3)]);
        let md = timeline_markdown("t.ndjson", &runs);
        assert!(md.contains("No level_summary events"));
    }

    #[test]
    fn flame_lines_are_collapsed_stacks() {
        let runs = traced_runs(&[("bfs", 10)]);
        let text = flame_text(&runs);
        assert!(!text.is_empty());
        for line in text.lines() {
            let (frames, count) = line.rsplit_once(' ').expect("count-terminated");
            assert!(frames.contains(';'), "{line}");
            assert!(count.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn bytes_format_rounds_to_sensible_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * 1048576), "3.0 MiB");
    }

    #[test]
    fn worker_busy_gauge_formats_as_microseconds_not_bytes() {
        assert_eq!(fmt_gauge(Gauge::WorkerBusyUs, 1500), "1500 µs");
        assert_eq!(fmt_gauge(Gauge::StoreBytes, 2048), "2.0 KiB");
    }

    #[test]
    fn summary_reports_worker_busy_for_pool_runs() {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let run = tracer.begin_run("paxos", "pool-bfs(4)", "agreement");
        run.add(Counter::States, 10);
        run.sample_gauge(Gauge::WorkerBusyUs, 1234);
        run.finish("verified");
        drop(run);
        let text = buf.contents();
        let runs = analyze_stream(text.lines()).unwrap();
        let md = summary_markdown("t.ndjson", &runs);
        assert!(md.contains("| worker_busy_us | 1234 µs |"), "{md}");
    }

    fn one_run(finish: bool) -> String {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let run = tracer.begin_run("p", "s", "prop");
        run.add(Counter::States, 7);
        if finish {
            run.finish("verified");
        }
        drop(run); // without finish(), Drop flushes the aborted tail
        buf.contents()
    }

    fn class_of(contents: &str) -> Class {
        check("test.ndjson", contents).0
    }

    #[test]
    fn clean_stream_exits_zero() {
        let class = class_of(&one_run(true));
        assert_eq!((class, class.exit_code()), (Class::Clean, 0));
    }

    #[test]
    fn invalid_stream_exits_one() {
        let class = class_of("{\"event\":\"mystery\"}\n");
        assert_eq!((class, class.exit_code()), (Class::Invalid, 1));
        // A run with no progress event breaks the event order.
        let no_progress: String = one_run(true)
            .lines()
            .filter(|l| !l.contains("\"event\":\"progress\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(class_of(&no_progress), Class::Invalid);
    }

    #[test]
    fn truncated_stream_exits_two() {
        let header = one_run(true).lines().next().unwrap().to_owned();
        let class = class_of(&header);
        assert_eq!((class, class.exit_code()), (Class::Truncated, 2));
        // The empty stream is truncation too — no completed run to speak of.
        assert_eq!(class_of(""), Class::Truncated);
    }

    #[test]
    fn aborted_run_exits_three() {
        let class = class_of(&one_run(false));
        assert_eq!((class, class.exit_code()), (Class::Aborted, 3));
    }

    #[test]
    fn messages_name_the_failure_class() {
        let (_, line) = check("t", &one_run(true));
        assert!(line.starts_with("t: OK — 1 clean run(s)"), "{line}");
        let (_, line) = check("t", &one_run(false));
        assert!(line.contains("ABORTED"), "{line}");
        let header = one_run(true).lines().next().unwrap().to_owned();
        let (_, line) = check("t", &header);
        assert!(line.contains("TRUNCATED"), "{line}");
        let (_, line) = check("t", "not json");
        assert!(line.contains("INVALID"), "{line}");
        assert!(!line.contains('\n'), "one line per file: {line}");
    }

    #[test]
    fn severity_order_prefers_invalid() {
        assert!(Class::Invalid > Class::Truncated);
        assert!(Class::Truncated > Class::Aborted);
        assert!(Class::Aborted > Class::Clean);
    }
}
