//! The one result shape of every experiment: a bench [`Row`]. The fields
//! of a checker run, the two field accessors and the one text table.

use mp_checker::{ExplorationStats, RunReport, Verdict};

use crate::bench_gate::{row, JsonValue, Row};
use crate::fault_sweep::verdict_class;

/// What an experiment returns: its rows, and one line for each self-check
/// it failed (none when every check passed).
pub type Outcome = (Vec<Row>, Vec<String>);

/// The row of one checker run under the given labels: `protocol`,
/// `property`, `strategy`, `states`, `transitions`, `time_ms`, `verdict`,
/// `completed` (the run finished within its budget) and `frontier_bytes`
/// (the BFS frontier's peak; 0 for the depth-first and stateless runs),
/// plus the [`insert_optional_fields`] that apply.
pub(crate) fn run_row(
    protocol: &str,
    property: &str,
    strategy: &str,
    verdict: &str,
    report: &RunReport,
) -> Row {
    let stats = &report.stats;
    let mut row = row([
        ("protocol", protocol.into()),
        ("property", property.into()),
        ("strategy", strategy.into()),
        ("states", stats.states.into()),
        ("transitions", stats.transitions_executed.into()),
        ("time_ms", JsonValue::millis(stats.elapsed)),
        ("verdict", verdict.into()),
        (
            "completed",
            JsonValue::Bool(!matches!(report.verdict, Verdict::LimitReached { .. })),
        ),
        ("frontier_bytes", stats.frontier_peak_bytes.into()),
    ]);
    insert_optional_fields(&mut row, stats);
    row
}

/// Adds the fields a run carries only where they apply: `threads` on a
/// worker-pool run, `omission_probability` under a probabilistic visited
/// store (`fingerprint`, `runs`), and one `phase_<name>_us` field per
/// phase on a traced run (a disabled tracer reports all-zero phases).
pub(crate) fn insert_optional_fields(row: &mut Row, stats: &ExplorationStats) {
    if stats.worker_threads > 0 {
        row.insert("threads".to_string(), stats.worker_threads.into());
    }
    if stats.store_omission_probability > 0.0 {
        row.insert(
            "omission_probability".to_string(),
            JsonValue::Num(stats.store_omission_probability),
        );
    }
    if !stats.phases.is_zero() {
        for (phase, time) in stats.phases.iter() {
            row.insert(
                format!("phase_{}_us", phase.name()),
                JsonValue::Num(time.as_micros() as f64),
            );
        }
    }
}

/// The number in a row's `field`.
///
/// # Panics
///
/// If the row has no such field or it is not a number.
pub fn num(row: &Row, field: &str) -> f64 {
    match row.get(field) {
        Some(JsonValue::Num(n)) => *n,
        other => panic!("field `{field}` is not a number: {other:?} in {row:?}"),
    }
}

/// The text in a row's `field`.
///
/// # Panics
///
/// If the row has no such field or it is not a string.
pub fn text<'a>(row: &'a Row, field: &str) -> &'a str {
    match row.get(field) {
        Some(JsonValue::Str(s)) => s,
        other => panic!("field `{field}` is not a string: {other:?} in {row:?}"),
    }
}

/// The tables' short verdict: `verified`, `CE (n steps)` or `bounded (why)`.
pub(crate) fn short_verdict(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Verified => "verified".to_string(),
        Verdict::Violated(cx) => format!("CE ({} steps)", cx.len()),
        Verdict::LimitReached { what } => format!("bounded ({what})"),
    }
}

/// The failure line of a run row whose verdict contradicts its
/// expectation (a counterexample, or none); a bounded run contradicts
/// nothing.
pub(crate) fn contradicted(row: &Row, expect_violation: bool) -> Option<String> {
    let verdict = text(row, "verdict");
    let expected = if expect_violation {
        "violated"
    } else {
        "verified"
    };
    let class = verdict_class(verdict);
    (class != "bounded" && class != expected).then(|| {
        format!(
            "UNEXPECTED VERDICT: {} / {} / {}: {verdict}, expected {expected}",
            text(row, "protocol"),
            text(row, "property"),
            text(row, "strategy")
        )
    })
}

/// Renders `rows` as a text table of `columns`: a header, a rule, then one
/// line per row. Each column is as wide as its widest cell; numbers align
/// right, text left, and a field the row lacks prints as `-`.
pub fn render_text(columns: &[&str], rows: &[Row]) -> String {
    let cell = |row: &Row, column: &str| match row.get(column) {
        Some(JsonValue::Str(s)) => (s.clone(), false),
        Some(JsonValue::Num(n)) if n.fract() != 0.0 && n.abs() < 1e-3 => (format!("{n:.1e}"), true),
        Some(value) => (value.to_string(), matches!(value, JsonValue::Num(_))),
        None => ("-".to_string(), false),
    };
    let cells: Vec<Vec<(String, bool)>> = rows
        .iter()
        .map(|row| columns.iter().map(|c| cell(row, c)).collect())
        .collect();
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| {
            cells
                .iter()
                .map(|line| line[i].0.chars().count())
                .fold(columns[i].len(), usize::max)
        })
        .collect();
    let line = |values: Vec<(String, bool)>| {
        let padded: Vec<String> = values
            .iter()
            .zip(&widths)
            .map(|((value, right), &width)| match right {
                true => format!("{value:>width$}"),
                false => format!("{value:<width$}"),
            })
            .collect();
        padded.join(" | ").trim_end().to_string() + "\n"
    };
    let mut out = line(columns.iter().map(|c| (c.to_string(), false)).collect());
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out += &(rule.join("-+-") + "\n");
    for values in cells {
        out += &line(values);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mp_trace::PhaseTimes;
    use std::time::Duration;

    fn sample(states: usize) -> RunReport {
        RunReport {
            verdict: Verdict::Verified,
            stats: ExplorationStats {
                states,
                transitions_executed: states * 2,
                elapsed: Duration::from_millis(1500),
                ..ExplorationStats::default()
            },
            strategy: String::new(),
        }
    }

    #[test]
    fn threads_field_marks_parallel_rows_only() {
        let mut pooled = sample(10);
        pooled.stats.worker_threads = 4;
        let sequential = run_row("p", "q", "SPOR", "verified", &sample(10));
        assert_eq!(sequential.get("threads"), None);
        let pooled = run_row("p", "q", "parallel-bfs(4)+SPOR", "verified", &pooled);
        assert_eq!(pooled.get("threads"), Some(&JsonValue::Num(4.0)));
        // The omission bound likewise marks the probabilistic stores only.
        assert_eq!(sequential.get("omission_probability"), None);
        let mut fingerprint = sample(10);
        fingerprint.stats.store_omission_probability = 2.5e-12;
        let row = run_row("p", "q", "SPOR", "verified", &fingerprint);
        assert_eq!(num(&row, "omission_probability"), 2.5e-12);
    }

    #[test]
    fn a_contradicted_expectation_is_a_failure_line() {
        let row = |verdict: &str| run_row("p", "q", "s", verdict, &sample(1));
        assert_eq!(contradicted(&row("verified"), false), None);
        assert_eq!(contradicted(&row("CE (3 steps)"), true), None);
        let line = contradicted(&row("verified (unexpected)"), true).unwrap();
        assert_eq!(
            line,
            "UNEXPECTED VERDICT: p / q / s: verified (unexpected), expected violated"
        );
        assert!(contradicted(&row("CE (3 steps)"), false).is_some());
        // A bounded run contradicts neither expectation.
        for expect_violation in [false, true] {
            assert_eq!(contradicted(&row("bounded (time)"), expect_violation), None);
        }
    }

    #[test]
    fn table_contains_all_cells() {
        let mut rows: Vec<Row> = [
            ("Paxos (2,3,1)", "SPOR", 100),
            ("Storage (3,1)", "SPOR", 50),
        ]
        .iter()
        .map(|(p, s, n)| run_row(p, "q", s, "verified", &sample(*n)))
        .collect();
        // A cell wider than any other and a twin of the first row's key.
        let mut wide = sample(150_001);
        wide.verdict = Verdict::LimitReached {
            what: "state limit of 150000".to_string(),
        };
        rows.push(run_row(
            "Paxos (2,3,1)",
            "q",
            "DPOR (stateless)",
            "bounded (state limit of 150000)",
            &wide,
        ));
        rows.push(rows[0].clone());
        let columns = [
            "protocol",
            "strategy",
            "states",
            "verdict",
            "completed",
            "threads",
        ];
        let table = render_text(&columns, &rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + rows.len(), "{table}");
        assert!(lines[0].starts_with("protocol "));
        for (line, row) in lines[2..].iter().zip(&rows) {
            assert!(line.contains(text(row, "strategy")), "{line}");
            assert!(line.contains(&num(row, "states").to_string()), "{line}");
            assert!(line.ends_with('-'), "a missing field prints as `-`: {line}");
        }
        assert!(lines[4].contains("150001 | bounded (state limit of 150000) | false"));
        // Every column separator sits at the same offset on every line.
        let bars =
            |line: &str| -> Vec<usize> { line.match_indices(" | ").map(|(i, _)| i).collect() };
        assert!(
            lines[2..].iter().all(|l| bars(l) == bars(lines[0])),
            "{table}"
        );
        assert!(render_text(&["a"], &[]).ends_with("a\n-\n"));
    }

    #[test]
    fn json_is_an_array_of_objects() {
        let rows = vec![
            run_row("p1", "q", "s1", "verified", &sample(10)),
            run_row("p2", "q", "s2", "verified", &sample(20)),
        ];
        let json = crate::bench_gate::render_rows(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"protocol\"").count(), 2);
        assert!(json.contains("\"states\":10"));
        assert!(json.contains("\"time_ms\":1500"));
        // Exactly one separating comma between the two objects.
        assert_eq!(json.matches("},\n").count(), 1);
        // The rows parse back unchanged and gate clean against themselves.
        let parsed = crate::bench_gate::parse_rows(&json).unwrap();
        assert_eq!(parsed, rows);
        let report = crate::bench_gate::compare("t", &parsed, &parsed);
        assert!(report.passed() && report.warnings.is_empty());
    }

    /// The phase keys of a row, asserting they are the microsecond family.
    pub(crate) fn phase_keys(row: &Row) -> usize {
        let keys: Vec<&String> = row.keys().filter(|k| k.starts_with("phase_")).collect();
        assert!(keys.iter().all(|k| k.ends_with("_us")), "{keys:?}");
        keys.len()
    }

    /// Asserts that `rows` come in the field-name shapes, phases aside, of
    /// the committed baseline `baseline`: a misspelt, lost or extra field
    /// fails here instead of in the CI gate.
    pub(crate) fn assert_baseline_fields(baseline: &str, rows: &[Row]) {
        use std::collections::BTreeSet;
        let shapes = |rows: &[Row]| -> BTreeSet<Vec<String>> {
            rows.iter()
                .map(|row| {
                    let fields = row.keys().filter(|k| !k.starts_with("phase_"));
                    fields.cloned().collect()
                })
                .collect()
        };
        let committed = crate::bench_gate::parse_rows(baseline).unwrap();
        assert_eq!(shapes(rows), shapes(&committed));
    }

    #[test]
    fn phase_fields_are_microseconds_on_traced_rows_only() {
        let mut report = sample(1);
        assert_eq!(
            phase_keys(&run_row("p", "q", "s", "verified", &report)),
            0,
            "an untraced row has no phase field"
        );
        let mut nanos = [0u64; mp_trace::PHASE_COUNT];
        nanos[0] = 7_000_000; // 7 ms of expansion
        nanos[1] = 250_000; // 250 µs of store lookup
        report.stats.phases = PhaseTimes::from_nanos(nanos);
        let row = run_row("p", "q", "s", "verified", &report);
        assert_eq!(phase_keys(&row), mp_trace::PHASE_COUNT);
        assert_eq!(row["phase_expansion_us"], JsonValue::Num(7000.0));
        assert_eq!(row["phase_store_lookup_us"], JsonValue::Num(250.0));
        assert_eq!(row["phase_scc_backstop_us"], JsonValue::Num(0.0));
    }
}
