//! Measurement rows and their text, CSV and bench-row renderings.

use std::fmt;
use std::time::Duration;

use mp_checker::{RunReport, Verdict};
use mp_trace::PhaseTimes;

use crate::bench_gate::{insert_phases, row, JsonValue, Row};

/// One cell of an evaluation table: a protocol/property/strategy combination
/// with the measured state count and time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Measurement {
    /// Protocol and setting, e.g. "Paxos (2,3,1)".
    pub protocol: String,
    /// Property under verification, e.g. "Consensus".
    pub property: String,
    /// Search strategy label, e.g. "SPOR" or "DPOR (stateless)".
    pub strategy: String,
    /// Number of states stored/expanded.
    pub states: usize,
    /// Number of transitions executed.
    pub transitions: usize,
    /// Wall-clock time of the run.
    pub time: Duration,
    /// The verdict string ("verified", "CE (n steps)", "bounded (...)" ).
    pub verdict: String,
    /// `false` if the run hit its budget before finishing.
    pub completed: bool,
    /// `true` if the verdict matches the expectation for the row (verified
    /// vs counterexample), or the run was bounded.
    pub as_expected: bool,
    /// Peak bytes queued in the BFS frontier, when the row was produced by
    /// a breadth-first engine (0 for the depth-first and stateless rows,
    /// which have no frontier). Recorded in `BENCH_*.json` so the CI gate
    /// can watch the spill trajectory.
    pub frontier_bytes: usize,
    /// Worker-pool size when the row was produced by the parallel BFS
    /// engine (0 for the sequential rows). Every parallel-engine row in a
    /// `BENCH_*.json` carries this as a `threads` field; sequential rows
    /// omit it.
    pub threads: usize,
    /// Per-phase wall-clock breakdown of the run (all zero when tracing is
    /// disabled). A traced row carries it as flat `phase_<name>_us` fields
    /// so the CI gate can watch a phase's *share* of the traced time drift.
    pub phases: PhaseTimes,
}

impl Measurement {
    /// The measurement of one run under the given labels: its counters,
    /// wall time, frontier peak, pool size and phases. `completed` is
    /// whether it finished within its budget; `as_expected` is `true`.
    pub(crate) fn of(
        protocol: &str,
        property: &str,
        strategy: String,
        verdict: String,
        report: &RunReport,
    ) -> Self {
        let stats = &report.stats;
        Measurement {
            protocol: protocol.to_string(),
            property: property.to_string(),
            strategy,
            states: stats.states,
            transitions: stats.transitions_executed,
            time: stats.elapsed,
            verdict,
            completed: !matches!(report.verdict, Verdict::LimitReached { .. }),
            as_expected: true,
            frontier_bytes: stats.frontier_peak_bytes,
            threads: stats.worker_threads,
            phases: stats.phases.clone(),
        }
    }

    /// The row's `BENCH_*.json` fields. `threads` appears on parallel-engine
    /// rows only, the phase fields on traced rows only.
    pub fn row(&self) -> Row {
        let mut row = row([
            ("protocol", self.protocol.as_str().into()),
            ("property", self.property.as_str().into()),
            ("strategy", self.strategy.as_str().into()),
            ("states", self.states.into()),
            ("transitions", self.transitions.into()),
            ("time_ms", JsonValue::millis(self.time)),
            ("verdict", self.verdict.as_str().into()),
            ("completed", JsonValue::Bool(self.completed)),
            ("frontier_bytes", self.frontier_bytes.into()),
        ]);
        if self.threads > 0 {
            row.insert("threads".to_string(), self.threads.into());
        }
        insert_phases(&mut row, &self.phases);
        row
    }

    /// Human-readable duration (e.g. `1.2s`, `350ms`).
    pub(crate) fn time_label(&self) -> String {
        let secs = self.time.as_secs_f64();
        if secs >= 60.0 {
            format!("{:.0}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
        } else if secs >= 1.0 {
            format!("{secs:.2}s")
        } else {
            format!("{:.0}ms", secs * 1000.0)
        }
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / {}: {} states in {} ({})",
            self.protocol,
            self.property,
            self.strategy,
            self.states,
            self.time_label(),
            self.verdict
        )
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

/// What a verdict line appends when the run's visited store was
/// probabilistic (`ExplorationStats::store_omission_probability`): nothing
/// for the exact backends, the omission bound that qualifies `verified`
/// for `fingerprint` and `runs`.
pub(crate) fn omission_note(probability: f64) -> String {
    if probability > 0.0 {
        format!(" (omission ≤ {probability:.1e})")
    } else {
        String::new()
    }
}

/// Renders measurements as an aligned text table grouped the way the paper's
/// tables are: one line per protocol row, one column pair (states, time) per
/// strategy.
pub fn render_table(title: &str, rows: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&"=".repeat(title.len()));
    out.push('\n');

    // Preserve first-appearance order of protocols and strategies.
    let mut protocols: Vec<(String, String)> = Vec::new();
    let mut strategies: Vec<String> = Vec::new();
    for row in rows {
        let key = (row.protocol.clone(), row.property.clone());
        if !protocols.contains(&key) {
            protocols.push(key);
        }
        if !strategies.contains(&row.strategy) {
            strategies.push(row.strategy.clone());
        }
    }

    let proto_width = protocols
        .iter()
        .map(|(p, prop)| p.len() + prop.len() + 3)
        .chain(["protocol / property".len()])
        .max()
        .unwrap_or(20);
    let col_width = 26usize;

    out.push_str(&format!("{:<proto_width$}", "protocol / property"));
    for s in &strategies {
        out.push_str(&format!(" | {s:^col_width$}"));
    }
    out.push('\n');
    out.push_str(&format!("{:<proto_width$}", ""));
    for _ in &strategies {
        out.push_str(&format!(" | {:^col_width$}", "states / time / verdict"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(proto_width + strategies.len() * (col_width + 3)));
    out.push('\n');

    for (protocol, property) in &protocols {
        out.push_str(&format!(
            "{:<proto_width$}",
            format!("{protocol} [{property}]")
        ));
        for strategy in &strategies {
            let cell = rows.iter().find(|r| {
                &r.protocol == protocol && &r.property == property && &r.strategy == strategy
            });
            match cell {
                Some(m) => {
                    let marker = if m.completed { "" } else { ">" };
                    out.push_str(&format!(
                        " | {:^col_width$}",
                        format!(
                            "{}{} / {} / {}",
                            marker,
                            m.states,
                            m.time_label(),
                            m.verdict
                        )
                    ));
                }
                None => out.push_str(&format!(" | {:^col_width$}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders measurements as CSV (one row per measurement).
pub fn render_csv(rows: &[Measurement]) -> String {
    let mut out =
        String::from("protocol,property,strategy,states,transitions,time_ms,verdict,completed\n");
    for m in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            m.protocol,
            m.property,
            m.strategy,
            m.states,
            m.transitions,
            m.time.as_millis(),
            m.verdict.replace(',', ";"),
            m.completed
        ));
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample(protocol: &str, strategy: &str, states: usize) -> Measurement {
        Measurement {
            protocol: protocol.to_string(),
            property: "p".to_string(),
            strategy: strategy.to_string(),
            states,
            transitions: states * 2,
            time: Duration::from_millis(1500),
            verdict: "verified".to_string(),
            completed: true,
            as_expected: true,
            frontier_bytes: 0,
            threads: 0,
            phases: PhaseTimes::default(),
        }
    }

    #[test]
    fn threads_field_marks_parallel_rows_only() {
        let mut pooled = sample("p", "parallel-bfs(4)+SPOR", 10);
        pooled.threads = 4;
        assert_eq!(sample("p", "SPOR", 10).row().get("threads"), None);
        assert_eq!(pooled.row().get("threads"), Some(&JsonValue::Num(4.0)));
    }

    #[test]
    fn time_labels() {
        let mut m = sample("a", "s", 1);
        assert_eq!(m.time_label(), "1.50s");
        m.time = Duration::from_millis(20);
        assert_eq!(m.time_label(), "20ms");
        m.time = Duration::from_secs(90);
        assert_eq!(m.time_label(), "1m30s");
    }

    #[test]
    fn table_contains_all_cells() {
        let rows = vec![
            sample("Paxos (2,3,1)", "SPOR", 100),
            sample("Paxos (2,3,1)", "DPOR (stateless)", 400),
            sample("Storage (3,1)", "SPOR", 50),
        ];
        let table = render_table("Table I", &rows);
        assert!(table.contains("Table I"));
        assert!(table.contains("Paxos (2,3,1)"));
        assert!(table.contains("Storage (3,1)"));
        assert!(table.contains("SPOR"));
        assert!(table.contains("DPOR (stateless)"));
        assert!(table.contains("100"));
        // The storage row has no DPOR cell: rendered as '-'.
        assert!(table.contains('-'));
    }

    #[test]
    fn json_is_an_array_of_objects() {
        let rows: Vec<Row> = [sample("p1", "s1", 10), sample("p2", "s2", 20)]
            .iter()
            .map(Measurement::row)
            .collect();
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

    #[test]
    fn phase_fields_are_microseconds_on_traced_rows_only() {
        let mut m = sample("p", "s", 1);
        assert_eq!(
            phase_keys(&m.row()),
            0,
            "an untraced row has no phase field"
        );
        let mut nanos = [0u64; mp_trace::PHASE_COUNT];
        nanos[0] = 7_000_000; // 7 ms of expansion
        nanos[1] = 250_000; // 250 µs of store lookup
        m.phases = PhaseTimes::from_nanos(nanos);
        let row = m.row();
        assert_eq!(phase_keys(&row), mp_trace::PHASE_COUNT);
        assert_eq!(row["phase_expansion_us"], JsonValue::Num(7000.0));
        assert_eq!(row["phase_store_lookup_us"], JsonValue::Num(250.0));
        assert_eq!(row["phase_scc_backstop_us"], JsonValue::Num(0.0));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let rows = vec![sample("p1", "s1", 10)];
        let csv = render_csv(&rows);
        assert!(csv.starts_with("protocol,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("p1,p,s1,10,20,1500,verified,true"));
    }

    #[test]
    fn display_is_one_line() {
        let m = sample("p", "s", 5);
        assert_eq!(m.to_string().lines().count(), 1);
    }
}
