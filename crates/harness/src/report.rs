//! Measurement rows and plain-text/CSV rendering.

use std::fmt;
use std::time::Duration;

use mp_trace::PhaseTimes;

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
    /// disabled, which is the default for every bench baseline). Emitted
    /// into `BENCH_*.json` as flat `phase_<name>_ms` fields so the CI gate
    /// can watch a phase's *share* of the traced time drift.
    pub phases: PhaseTimes,
}

impl Measurement {
    /// Human-readable duration (e.g. `1.2s`, `350ms`).
    pub fn time_label(&self) -> String {
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

/// What a verdict line appends when the run's visited store was
/// probabilistic (`ExplorationStats::store_omission_probability`): nothing
/// for the exact backends, the omission bound that qualifies `verified`
/// for `fingerprint` and `runs`.
pub fn omission_note(probability: f64) -> String {
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

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the flat phase-time JSON fields of a phase breakdown (leading
/// comma included), shared by every `BENCH_*.json` emitter. Each phase gets
/// a `phase_<name>_ms` field (the historical unit, kept for old baselines)
/// and a `phase_<name>_us` sibling — smoke-scale runs finish whole phases
/// inside a millisecond, so the `_ms` column reads all-zero exactly where
/// the share-drift gate needs signal most. `bench_gate` prefers the `_us`
/// family when both sides of a comparison carry it.
pub fn phase_json_fields(phases: &PhaseTimes) -> String {
    let mut out = String::new();
    for (phase, time) in phases.iter() {
        out.push_str(&format!(
            ",\"phase_{}_ms\":{},\"phase_{}_us\":{}",
            phase.name(),
            time.as_millis(),
            phase.name(),
            time.as_micros()
        ));
    }
    out
}

/// Renders measurements as a JSON array (for the `BENCH_*.json` files the
/// binaries can emit so the bench trajectory is machine-readable).
pub fn render_json(rows: &[Measurement]) -> String {
    let mut out = String::from("[\n");
    for (i, m) in rows.iter().enumerate() {
        let threads_field = if m.threads > 0 {
            format!(",\"threads\":{}", m.threads)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  {{\"protocol\":\"{}\",\"property\":\"{}\",\"strategy\":\"{}\",\"states\":{},\
             \"transitions\":{},\"time_ms\":{},\"verdict\":\"{}\",\"completed\":{},\
             \"frontier_bytes\":{}{}{}}}{}\n",
            json_escape(&m.protocol),
            json_escape(&m.property),
            json_escape(&m.strategy),
            m.states,
            m.transitions,
            m.time.as_millis(),
            json_escape(&m.verdict),
            m.completed,
            m.frontier_bytes,
            threads_field,
            phase_json_fields(&m.phases),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Parses the shared `--json [PATH]` CLI convention of the harness
/// binaries: returns `None` when `--json` is absent, `Some(default)` when it
/// is given without a path (the next argument is another flag or missing),
/// and `Some(path)` otherwise. Keeping the convention in one place is what
/// lets every binary emit its `BENCH_*.json`.
pub fn json_output_path(args: &[String], default: &str) -> Option<String> {
    let at = args.iter().position(|a| a == "--json")?;
    match args.get(at + 1) {
        Some(next) if !next.starts_with("--") => Some(next.clone()),
        _ => Some(default.to_string()),
    }
}

/// Writes measurement rows as a JSON array to `path` and reports the write
/// on stderr — the shared tail of every binary's `--json` handling.
///
/// # Panics
///
/// Panics when the file cannot be written; the binaries treat that as fatal.
pub fn write_json_rows(path: &str, rows: &[Measurement]) {
    std::fs::write(path, render_json(rows)).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {} rows to {path}", rows.len());
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
mod tests {
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
        let json = render_json(&[sample("p", "SPOR", 10), pooled]);
        assert_eq!(json.matches("\"threads\":").count(), 1, "{json}");
        assert!(json.contains("\"threads\":4"), "{json}");
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
        let rows = vec![sample("p1", "s1", 10), sample("p2", "s2", 20)];
        let json = render_json(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"protocol\"").count(), 2);
        assert!(json.contains("\"states\":10"));
        assert!(json.contains("\"time_ms\":1500"));
        // Exactly one separating comma between the two objects.
        assert_eq!(json.matches("},\n").count(), 1);
        // Every row carries the full flat phase breakdown (zeros when
        // tracing was disabled).
        assert_eq!(json.matches("\"phase_expansion_ms\":").count(), 2);
        assert_eq!(json.matches("\"phase_expansion_us\":").count(), 2);
        assert_eq!(json.matches("\"phase_scc_backstop_ms\":0").count(), 2);
    }

    #[test]
    fn phase_fields_report_milliseconds_and_microseconds() {
        let mut nanos = [0u64; mp_trace::PHASE_COUNT];
        nanos[0] = 7_000_000; // 7 ms of expansion
        nanos[1] = 250_000; // 250 µs of store lookup — invisible in ms
        let mut m = sample("p", "s", 1);
        m.phases = PhaseTimes::from_nanos(nanos);
        let json = render_json(&[m]);
        assert!(json.contains("\"phase_expansion_ms\":7"), "{json}");
        assert!(json.contains("\"phase_expansion_us\":7000"), "{json}");
        // The sub-millisecond phase only shows up in the _us column.
        assert!(json.contains("\"phase_store_lookup_ms\":0"), "{json}");
        assert!(json.contains("\"phase_store_lookup_us\":250"), "{json}");
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
    fn json_output_path_follows_the_flag_convention() {
        let to_args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(json_output_path(&to_args(&["bin"]), "d.json"), None);
        assert_eq!(
            json_output_path(&to_args(&["bin", "--json"]), "d.json"),
            Some("d.json".to_string())
        );
        assert_eq!(
            json_output_path(&to_args(&["bin", "--json", "out.json"]), "d.json"),
            Some("out.json".to_string())
        );
        assert_eq!(
            json_output_path(&to_args(&["bin", "--json", "--full"]), "d.json"),
            Some("d.json".to_string())
        );
    }

    #[test]
    fn display_is_one_line() {
        let m = sample("p", "s", 5);
        assert_eq!(m.to_string().lines().count(), 1);
    }
}
