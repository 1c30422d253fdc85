//! The bench-row schema and the CI bench-regression gate.
//!
//! The harness subcommands write their results as flat JSON arrays
//! (`BENCH_fault_sweep.json`, `BENCH_quorum_scaling.json`, ...) of [`Row`]s,
//! rendered by [`render_rows`] and read back by [`parse_rows`], and the
//! repository commits a baseline snapshot of each. This module compares a
//! freshly generated file against its committed baseline and classifies
//! every difference:
//!
//! * **errors** (fail the job): a verdict/liveness *class* change on a
//!   matched row, any change of a state or transition count on a row that
//!   ran to the end on both sides, a thread-scaling `speedup` drop beyond
//!   `SPEEDUP_TOLERANCE`, a `completed: true` baseline row that no longer
//!   completes, or a baseline row that disappeared entirely;
//! * **warnings** (annotate, don't fail): wall-time and store-byte noise,
//!   and rows that are new in the fresh file (schema growth is deliberate).
//!
//! [`parse_rows`] reads exactly the layout [`render_rows`] writes, one
//! object per line through the trace parser `mp_trace::validate::
//! parse_flat_object`, and rejects anything else loudly rather than
//! guessing (no external JSON dependency in this offline workspace).

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::time::Duration;

use mp_trace::analyze::{diff as trace_diff, RunSummary};
use mp_trace::validate::{parse_flat_object, Value};
use mp_trace::Phase;

use crate::fault_sweep::verdict_class;
use crate::trace_report::{pair_runs, run_label};

/// A scalar JSON value of a bench row.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A string field (labels and verdicts).
    Str(String),
    /// A numeric field (counts, times, ratios).
    Num(f64),
    /// A boolean field (`completed`).
    Bool(bool),
}

/// Renders the value as a JSON literal. A string escapes `"`, `\`, newline
/// and tab, all of which [`parse_rows`] unescapes.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            JsonValue::Num(n) => write!(f, "{n}"),
            JsonValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl JsonValue {
    /// A ratio rounded to three decimals, the precision of every ratio
    /// column.
    pub(crate) fn ratio(value: f64) -> Self {
        JsonValue::Num((value * 1000.0).round() / 1000.0)
    }

    /// Whole milliseconds of a wall-clock time (the `*time_ms` columns).
    pub(crate) fn millis(time: Duration) -> Self {
        JsonValue::Num(time.as_millis() as f64)
    }
}

/// One bench row: field name to scalar value, ordered by field name.
pub type Row = BTreeMap<String, JsonValue>;

/// Builds a row from `(field, value)` pairs.
pub(crate) fn row<const N: usize>(fields: [(&str, JsonValue); N]) -> Row {
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Renders rows as a `BENCH_*.json` array, one flat object per line —
/// the inverse of [`parse_rows`].
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .iter()
            .map(|(k, v)| format!("{}:{v}", JsonValue::from(k.as_str())))
            .collect();
        let separator = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("  {{{}}}{separator}\n", fields.join(",")));
    }
    out.push_str("]\n");
    out
}

/// Parses a `BENCH_*.json` file in the layout [`render_rows`] writes: `[`,
/// one flat object per line with a `,` after every one but the last, then
/// `]` and nothing after it. Each object is read by the trace's
/// [`parse_flat_object`], which refuses nesting, `null` and duplicate keys.
///
/// # Errors
///
/// Returns the first structural problem, prefixed with its line number.
pub fn parse_rows(input: &str) -> Result<Vec<Row>, String> {
    let lines: Vec<&str> = input.trim_end().lines().map(str::trim).collect();
    let ["[", body @ .., "]"] = lines.as_slice() else {
        return Err("expected `[` on the first line and `]` on the last".to_string());
    };
    let row = |(i, line): (usize, &&str)| {
        let lineno = i + 2;
        let object = match line.strip_suffix(',') {
            Some(object) if i + 1 < body.len() => object,
            _ if i + 1 < body.len() => return Err(format!("line {lineno}: expected `,`")),
            _ => line,
        };
        let fields = parse_flat_object(object).map_err(|e| format!("line {lineno}: {e}"))?;
        let value = |value| match value {
            Value::Str(s) => JsonValue::Str(s),
            Value::Int(n) => JsonValue::Num(n as f64),
            Value::Float(x) => JsonValue::Num(x),
            Value::Bool(b) => JsonValue::Bool(b),
        };
        Ok(fields.into_iter().map(|(k, v)| (k, value(v))).collect())
    };
    body.iter().enumerate().map(row).collect()
}

/// Field names whose string values are verdicts (compared by class, and
/// excluded from the row key).
const VERDICT_FIELDS: [&str; 4] = ["verdict", "liveness", "sym_verdict", "sym_liveness"];

/// Numeric fields compared exactly. State and transition counts are
/// deterministic for every search that feeds the baselines, so any change
/// is a change of behaviour — a lost reduction as much as a blow-up — and
/// a deliberate one re-commits the baseline. Only a row that hit a limit
/// on either side ([`hit_limit`]) is exempt: its counts measure the budget.
const GATED_COUNTS: [&str; 3] = ["states", "sym_states", "transitions"];

/// The allowed relative drop of the thread-scaling `speedup` column of
/// `BENCH_parallel_scaling.json`, the one wall-clock field that fails the
/// job: 35%, wide enough for timing noise on a shared runner. A 4-thread
/// run losing scaling efficiency beyond it is a pool regression even when
/// the absolute wall times sit inside the noise band (both sides ran on the
/// same class of machine, so the *ratio* is comparable where the times are
/// not). A gain beyond it warns.
pub(crate) const SPEEDUP_TOLERANCE: f64 = 0.35;

/// `true` when a row's search stopped at a limit: `completed: false`, or a
/// verdict field of the `bounded` class.
fn hit_limit(row: &Row) -> bool {
    row.get("completed") == Some(&JsonValue::Bool(false))
        || VERDICT_FIELDS.iter().any(|field| {
            matches!(row.get(*field), Some(JsonValue::Str(v)) if verdict_class(v) == "bounded")
        })
}

/// `true` for a per-phase wall-clock field (`phase_<name>_us`). Individually
/// phase fields are as noisy as `time_ms`, so the generic numeric rules skip
/// them; instead the gate compares each phase's *share* of the total traced
/// time, which is stable run to run — a phase suddenly doubling its fraction
/// flags an algorithmic shift even when absolute times sit inside the noise
/// band.
fn is_phase_field(field: &str) -> bool {
    field.starts_with("phase_") && field.ends_with("_us")
}

/// Absolute share-of-traced-time drift (in fractional points) beyond which
/// a phase field warns: 0.20 = a phase moved by more than 20 percentage
/// points of the traced total.
pub(crate) const PHASE_SHARE_DRIFT: f64 = 0.20;

/// Trace-level phase-drift check (behind `bench_gate --trace-baseline` /
/// `--trace-fresh`): pairs the runs of two analyzed NDJSON traces by
/// `protocol · strategy · property` identity and returns one warning per
/// phase whose share of traced time moved by more than
/// `PHASE_SHARE_DRIFT`. Traces see every phase at full µs resolution and
/// per run rather than per aggregated bench row, so this catches drifts the
/// row-level gate smooths over; like the row-level share rule it only ever
/// warns.
pub fn trace_phase_drift(
    label: &str,
    baseline: &[RunSummary],
    fresh: &[RunSummary],
) -> Vec<String> {
    let (pairs, unpaired, _) = pair_runs(baseline, fresh);
    let mut warnings = Vec::new();
    for (base_run, fresh_run) in pairs {
        let d = trace_diff(base_run, fresh_run);
        for (p, phase) in Phase::ALL.iter().enumerate() {
            if d.phase_share_delta[p].abs() > PHASE_SHARE_DRIFT {
                warnings.push(format!(
                    "{label}: {} share of traced time drifted on {}: {:.0}% -> {:.0}%",
                    phase.name(),
                    run_label(base_run),
                    base_run.phase_share(*phase) * 100.0,
                    fresh_run.phase_share(*phase) * 100.0
                ));
            }
        }
    }
    warnings.extend(
        unpaired
            .into_iter()
            .map(|key| format!("{label}: trace run has no fresh counterpart: {key}")),
    );
    warnings
}

/// Numeric fields that only warn (wall-time and memory noise). Frontier
/// bytes are hardware-independent in principle but track encoded-state
/// sizes, which legitimately change when protocol state types grow — drift
/// annotates, verdict/state regressions still fail through the gated
/// fields.
const NOISY_FIELDS: [&str; 6] = [
    "time_ms",
    "sym_time_ms",
    "store_bytes",
    "frontier_bytes",
    "sym_frontier_bytes",
    "frontier_ratio",
];

/// The identity of a row: every non-verdict string field, in field order.
pub(crate) fn row_key(row: &Row) -> String {
    row.iter()
        .filter_map(|(k, v)| match v {
            JsonValue::Str(s) if !VERDICT_FIELDS.contains(&k.as_str()) => Some(format!("{k}={s}")),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join(" / ")
}

/// Outcome of a gate comparison.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Job-failing findings.
    pub errors: Vec<String>,
    /// Annotation-only findings.
    pub warnings: Vec<String>,
}

impl GateReport {
    /// `true` when nothing fails the job.
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Compares a fresh bench file against its baseline: counts exactly,
/// `speedup` within `SPEEDUP_TOLERANCE`; wall-time and memory fields only
/// ever warn. Rows are matched by `row_key`; duplicate keys are matched in
/// order of appearance.
pub fn compare(label: &str, baseline: &[Row], fresh: &[Row]) -> GateReport {
    let mut report = GateReport::default();
    let mut fresh_by_key: BTreeMap<String, Vec<&Row>> = BTreeMap::new();
    for row in fresh {
        fresh_by_key.entry(row_key(row)).or_default().push(row);
    }
    let mut used: BTreeMap<String, usize> = BTreeMap::new();

    for base_row in baseline {
        let key = row_key(base_row);
        let cursor = used.entry(key.clone()).or_insert(0);
        let Some(fresh_row) = fresh_by_key.get(&key).and_then(|rows| rows.get(*cursor)) else {
            report
                .errors
                .push(format!("{label}: baseline row vanished: {key}"));
            continue;
        };
        *cursor += 1;
        let limited = hit_limit(base_row) || hit_limit(fresh_row);

        for (field, base_value) in base_row {
            let Some(fresh_value) = fresh_row.get(field) else {
                // An untraced fresh run writes no phase fields; a column
                // that vanished is anything else.
                if !is_phase_field(field) {
                    report
                        .errors
                        .push(format!("{label}: field `{field}` vanished from {key}"));
                }
                continue;
            };
            match (base_value, fresh_value) {
                (JsonValue::Str(b), JsonValue::Str(f))
                    if VERDICT_FIELDS.contains(&field.as_str())
                        && verdict_class(b) != verdict_class(f) =>
                {
                    report.errors.push(format!(
                        "{label}: {field} changed class on {key}: `{b}` -> `{f}`"
                    ));
                }
                (JsonValue::Num(b), JsonValue::Num(f))
                    if GATED_COUNTS.contains(&field.as_str()) && b != f && !limited =>
                {
                    report
                        .errors
                        .push(format!("{label}: {field} changed on {key}: {b} -> {f}"));
                }
                // A beyond-tolerance *gain* is good news but leaves a stale
                // floor: later drops down to the old baseline would pass
                // unnoticed. Warn so the baseline gets refreshed.
                (JsonValue::Num(b), JsonValue::Num(f)) if field == "speedup" => {
                    let percent = SPEEDUP_TOLERANCE * 100.0;
                    if b - f > b * SPEEDUP_TOLERANCE {
                        report.errors.push(format!(
                            "{label}: speedup dropped beyond {percent:.0}% on {key}: {b} -> {f}"
                        ));
                    } else if f - b > b * SPEEDUP_TOLERANCE {
                        report.warnings.push(format!(
                            "{label}: speedup improved beyond {percent:.0}% on {key}: {b} -> {f} \
                             — refresh the committed baseline to re-tighten the gate"
                        ));
                    }
                }
                // Wall-time noise: annotate large swings, never fail.
                (JsonValue::Num(b), JsonValue::Num(f))
                    if NOISY_FIELDS.contains(&field.as_str()) && *f > (*b + 1.0) * 2.0 =>
                {
                    report
                        .warnings
                        .push(format!("{label}: {field} drifted on {key}: {b} -> {f}"));
                }
                (JsonValue::Bool(true), JsonValue::Bool(false)) if field == "completed" => {
                    report.errors.push(format!(
                        "{label}: {key} no longer completes within its budget"
                    ));
                }
                _ => {}
            }
        }

        // Phase share-of-traced-time drift (warning only). Judged only when
        // both sides actually traced — an untraced row carries no phase
        // fields, so disabled tracing changes nothing in the gate.
        let phase_total = |row: &Row| -> f64 {
            row.iter()
                .filter(|(k, _)| is_phase_field(k))
                .filter_map(|(_, v)| match v {
                    JsonValue::Num(n) => Some(*n),
                    _ => None,
                })
                .sum()
        };
        let base_total = phase_total(base_row);
        let fresh_total = phase_total(fresh_row);
        if base_total > 0.0 && fresh_total > 0.0 {
            for (field, base_value) in base_row {
                let (JsonValue::Num(b), Some(JsonValue::Num(f))) =
                    (base_value, fresh_row.get(field))
                else {
                    continue;
                };
                if !is_phase_field(field) {
                    continue;
                }
                let base_share = b / base_total;
                let fresh_share = f / fresh_total;
                if (fresh_share - base_share).abs() > PHASE_SHARE_DRIFT {
                    report.warnings.push(format!(
                        "{label}: {field} share of traced time drifted on {key}: \
                         {:.0}% -> {:.0}%",
                        base_share * 100.0,
                        fresh_share * 100.0
                    ));
                }
            }
        }
    }

    // Fresh rows with keys the baseline never had: fine (schema growth),
    // but surfaced so the baseline gets refreshed consciously.
    for (key, rows) in &fresh_by_key {
        let consumed = used.get(key).copied().unwrap_or(0);
        if rows.len() > consumed {
            report.warnings.push(format!(
                "{label}: {} new row(s) not in the baseline: {key}",
                rows.len() - consumed
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"protocol":"Paxos (1,2,1)","budget":"none","strategy":"SPOR","backend":"exact","verdict":"verified","liveness":"verified","states":10,"transitions":11,"store_bytes":958,"time_ms":0,"sym_verdict":"verified","sym_liveness":"verified","sym_states":10,"sym_time_ms":0,"state_ratio":1.000},
  {"protocol":"Paxos (1,2,1)","budget":"crashes=1","strategy":"SPOR","backend":"exact","verdict":"verified","liveness":"fair lasso (7 stem + 0 cycle steps)","states":50,"transitions":84,"store_bytes":3688,"time_ms":2,"sym_verdict":"verified","sym_liveness":"fair lasso (7 stem + 0 cycle steps)","sym_states":30,"sym_time_ms":1,"state_ratio":1.667}
]"#;

    /// Parses flat objects laid out one per line, as `render_rows` writes.
    fn rows(objects: &[&str]) -> Vec<Row> {
        parse_rows(&format!("[\n{}\n]\n", objects.join(",\n"))).unwrap()
    }

    #[test]
    fn parses_the_bench_format() {
        let rows = parse_rows(SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("protocol"),
            Some(&JsonValue::Str("Paxos (1,2,1)".to_string()))
        );
        assert_eq!(rows[1].get("states"), Some(&JsonValue::Num(50.0)));
        assert_eq!(rows[1].get("state_ratio"), Some(&JsonValue::Num(1.667)));
        assert!(row_key(&rows[0]).contains("budget=none"));
        assert!(!row_key(&rows[0]).contains("verdict"));
        assert!(parse_rows("[\n]\n").unwrap().is_empty());
        assert!(parse_rows("{\"oops\":1}").is_err());
        assert!(
            parse_rows("[\n{\"a\":[1]}\n]\n").is_err(),
            "nested arrays rejected"
        );

        // The writer escapes exactly what the parser unescapes.
        let mut tricky = rows.clone();
        tricky[0].insert(
            "protocol".to_string(),
            JsonValue::from("say \"hi\" \\ to C:\\tmp\n\tthen"),
        );
        tricky[1].insert("odd \"key\"".to_string(), JsonValue::ratio(2.0 / 3.0));
        assert_eq!(parse_rows(&render_rows(&tricky)).unwrap(), tricky);
        assert_eq!(render_rows(&[]), "[\n]\n");
        assert!(parse_rows(&render_rows(&[])).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_and_data_after_the_array_are_refused() {
        for (input, problem) in [
            (
                "[\n  {\"a\":1,\"a\":2}\n]\n",
                "line 2: duplicate field \"a\"",
            ),
            ("[\n  {\"a\":1}\n]\n{\"a\":2}\n", "`]` on the last"),
            ("[\n  {\"a\":1}\n]\n]\n", "line 2: expected `,`"),
            ("[\n  {\"a\":1}\n  {\"a\":2}\n]\n", "line 2: expected `,`"),
            ("[\n  {\"a\":1},\n]\n", "line 2: trailing data ','"),
            ("[{\"a\":1}]\n", "`[` on the first line"),
        ] {
            let err = parse_rows(input).unwrap_err();
            assert!(err.contains(problem), "{input:?}: {err}");
        }
    }

    #[test]
    fn committed_bench_files_round_trip_byte_for_byte() {
        let files = [
            (
                "BENCH_debugging",
                include_str!("../../../BENCH_debugging.json"),
                6,
            ),
            (
                "BENCH_fault_sweep",
                include_str!("../../../BENCH_fault_sweep.json"),
                72,
            ),
            (
                "BENCH_parallel_scaling",
                include_str!("../../../BENCH_parallel_scaling.json"),
                16,
            ),
            (
                "BENCH_quorum_scaling",
                include_str!("../../../BENCH_quorum_scaling.json"),
                14,
            ),
            (
                "BENCH_table_i",
                include_str!("../../../BENCH_table_i.json"),
                21,
            ),
            (
                "BENCH_table_ii",
                include_str!("../../../BENCH_table_ii.json"),
                28,
            ),
        ];
        for (label, text, count) in files {
            let rows = parse_rows(text).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(rows.len(), count, "{label}");
            assert_eq!(render_rows(&rows), text, "{label}");
            let report = compare(label, &rows, &rows);
            assert!(report.passed(), "{label}: {:?}", report.errors);
        }
    }

    #[test]
    fn identical_files_pass() {
        let rows = parse_rows(SAMPLE).unwrap();
        let report = compare("sweep", &rows, &rows);
        assert!(report.passed(), "{:?}", report.errors);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn verdict_class_change_fails() {
        let baseline = parse_rows(SAMPLE).unwrap();
        let mut fresh = baseline.clone();
        fresh[0].insert(
            "verdict".to_string(),
            JsonValue::Str("counterexample found (3 steps)".to_string()),
        );
        let report = compare("sweep", &baseline, &fresh);
        assert!(!report.passed());
        assert!(report.errors[0].contains("verdict changed class"));

        // Lasso shape changes within the violated class do NOT fail.
        let mut fresh = baseline.clone();
        fresh[1].insert(
            "liveness".to_string(),
            JsonValue::Str("fair lasso (9 stem + 2 cycle steps)".to_string()),
        );
        assert!(compare("sweep", &baseline, &fresh).passed());
    }

    #[test]
    fn state_regressions_fail_and_time_noise_warns() {
        let baseline = parse_rows(SAMPLE).unwrap();
        // Any count change fails, a rise or a fall, however small.
        for (field, value) in [("states", 51.0), ("states", 49.0), ("sym_states", 29.0)] {
            let mut fresh = baseline.clone();
            fresh[1].insert(field.to_string(), JsonValue::Num(value));
            let report = compare("sweep", &baseline, &fresh);
            assert!(!report.passed());
            assert!(
                report.errors[0].contains(&format!("{field} changed")),
                "{:?}",
                report.errors
            );
        }

        // A row that hit a limit on either side counts its budget, not
        // the behaviour: its counts are not compared.
        let limited = rows(&[
            r#"{"protocol":"p","completed":true,"states":10,"transitions":12,"verdict":"verified"}"#,
            r#"{"protocol":"q","completed":false,"states":10,"transitions":12,"verdict":"verified"}"#,
        ]);
        let mut fresh = limited.clone();
        fresh[0].insert(
            "verdict".to_string(),
            JsonValue::from("bounded (state limit of 10)"),
        );
        fresh[1].insert("states".to_string(), JsonValue::Num(11.0));
        let report = compare("sweep", &limited, &fresh);
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(report.errors[0].contains("verdict changed class"));
        fresh[0].insert("transitions".to_string(), JsonValue::Num(13.0));
        assert_eq!(compare("sweep", &limited, &fresh).errors.len(), 1);

        // Time drift: warning only.
        let mut fresh = baseline.clone();
        fresh[1].insert("time_ms".to_string(), JsonValue::Num(500.0));
        let report = compare("sweep", &baseline, &fresh);
        assert!(report.passed());
        assert!(report.warnings.iter().any(|w| w.contains("time_ms")));
    }

    #[test]
    fn speedup_drops_fail_and_gains_only_warn() {
        let baseline = rows(&[
            r#"{"protocol":"Paxos (1,3,1) quorum","strategy":"parallel-bfs(4)+SPOR","states":100,"speedup":2.8,"cores":8,"time_ms":10}"#,
        ]);

        // Identical speedup: silent.
        assert!(compare("scaling", &baseline, &baseline).passed());

        // Within tolerance: fine.
        let mut fresh = baseline.clone();
        fresh[0].insert("speedup".to_string(), JsonValue::Num(2.0)); // -29%
        assert!(compare("scaling", &baseline, &fresh).passed());

        // Beyond tolerance: the scaling efficiency regressed — fail.
        let mut fresh = baseline.clone();
        fresh[0].insert("speedup".to_string(), JsonValue::Num(1.6)); // -43%
        let report = compare("scaling", &baseline, &fresh);
        assert!(!report.passed());
        assert!(
            report.errors[0].contains("speedup dropped"),
            "{:?}",
            report.errors
        );

        // A large gain passes but warns about the stale baseline.
        let mut fresh = baseline.clone();
        fresh[0].insert("speedup".to_string(), JsonValue::Num(4.0)); // +43%
        let report = compare("scaling", &baseline, &fresh);
        assert!(report.passed(), "{:?}", report.errors);
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("speedup improved")),
            "{:?}",
            report.warnings
        );

        // The cores column is informational: a different machine shape
        // never fails or warns by itself.
        let mut fresh = baseline.clone();
        fresh[0].insert("cores".to_string(), JsonValue::Num(1.0));
        let report = compare("scaling", &baseline, &fresh);
        assert!(report.passed());
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn vanished_rows_fail_and_new_rows_warn() {
        let baseline = parse_rows(SAMPLE).unwrap();
        let fresh = vec![baseline[0].clone()];
        let report = compare("sweep", &baseline, &fresh);
        assert!(!report.passed());
        assert!(report.errors[0].contains("vanished"));

        let mut extended = baseline.clone();
        let mut extra = baseline[0].clone();
        extra.insert("budget".to_string(), JsonValue::Str("drops=1".to_string()));
        extended.push(extra);
        let report = compare("sweep", &baseline, &extended);
        assert!(report.passed());
        assert!(report.warnings.iter().any(|w| w.contains("new row")));
    }

    #[test]
    fn phase_share_drift_warns_but_never_fails() {
        // 90/10 split between two phases in the baseline...
        let baseline = rows(&[
            r#"{"protocol":"p","time_ms":100,"phase_expansion_us":900,"phase_store_lookup_us":100}"#,
        ]);
        // ...vs a 50/50 split in the fresh file: a 40-point share shift.
        let fresh = rows(&[
            r#"{"protocol":"p","time_ms":100,"phase_expansion_us":500,"phase_store_lookup_us":500}"#,
        ]);
        let report = compare("sweep", &baseline, &fresh);
        assert!(report.passed(), "{:?}", report.errors);
        let shares: Vec<_> = report
            .warnings
            .iter()
            .filter(|w| w.contains("share"))
            .collect();
        assert_eq!(
            shares.len(),
            2,
            "one warning per drifting phase: {shares:?}"
        );
        assert!(shares[0].contains("phase_expansion_us share"), "{shares:?}");

        // Doubling every phase together keeps the shares put: no warning.
        let scaled = rows(&[
            r#"{"protocol":"p","time_ms":200,"phase_expansion_us":1800,"phase_store_lookup_us":200}"#,
        ]);
        let report = compare("sweep", &baseline, &scaled);
        assert!(report.passed());
        assert!(!report.warnings.iter().any(|w| w.contains("share")));

        // An untraced row carries no phase fields and is inert on either
        // side: tracing landing later, or a traced baseline gated against
        // an untraced run, neither warns nor fails.
        let untraced = rows(&[r#"{"protocol":"p","time_ms":100}"#]);
        for (base, fresh) in [(&untraced, &fresh), (&baseline, &untraced)] {
            let report = compare("sweep", base, fresh);
            assert!(report.passed(), "{:?}", report.errors);
            assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        }
    }

    #[test]
    fn trace_phase_drift_pairs_runs_and_warns_on_share_moves() {
        use mp_trace::PHASE_COUNT;
        let run = |strategy: &str, phases_us: [u64; PHASE_COUNT]| RunSummary {
            protocol: "paxos".to_string(),
            strategy: strategy.to_string(),
            property: "agreement".to_string(),
            phases_us,
            ..Default::default()
        };
        let mut even = [0u64; PHASE_COUNT];
        even[0] = 500;
        even[1] = 500;
        let mut skewed = [0u64; PHASE_COUNT];
        skewed[0] = 900;
        skewed[1] = 100;
        // Same shares → silent; a 40-point move → one warning per phase.
        assert!(trace_phase_drift("t", &[run("bfs", even)], &[run("bfs", even)]).is_empty());
        let warnings = trace_phase_drift("t", &[run("bfs", even)], &[run("bfs", skewed)]);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("expansion share"), "{warnings:?}");
        // Unpaired baseline runs are surfaced, not silently skipped.
        let unpaired = trace_phase_drift("t", &[run("bfs", even)], &[run("dfs", even)]);
        assert!(unpaired[0].contains("no fresh counterpart"), "{unpaired:?}");
    }

    #[test]
    fn duplicate_keys_match_in_order() {
        // Two baseline rows with the same key but different counts must
        // match the fresh rows positionally.
        let baseline = rows(&[
            r#"{"protocol":"p","states":10}"#,
            r#"{"protocol":"p","states":100}"#,
        ]);
        let fresh = rows(&[
            r#"{"protocol":"p","states":10}"#,
            r#"{"protocol":"p","states":100}"#,
        ]);
        assert!(compare("dup", &baseline, &fresh).passed());
        let swapped = rows(&[
            r#"{"protocol":"p","states":200}"#,
            r#"{"protocol":"p","states":100}"#,
        ]);
        assert!(!compare("dup", &baseline, &swapped).passed());
    }
}
