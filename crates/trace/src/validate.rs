//! Schema validation for the NDJSON trace stream — no external JSON crate.
//!
//! The emitter writes *flat* objects only (string / integer / boolean
//! values, no nesting). [`parse_flat_object`] reads exactly that shape plus
//! decimal numbers, which the bench rows of `mp-harness` use, and rejects
//! everything else. [`validate_line`] checks one event against the schema
//! and refuses decimals; the per-run event order is enforced by the one
//! pass over a stream, [`analyze_stream`](crate::analyze::analyze_stream).

use std::collections::HashMap;

use crate::metrics::Histogram;
use crate::phase::Phase;

/// A value of a flat JSON object: the three shapes the trace emitter
/// writes, plus the decimals a bench row may hold.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A non-negative integer (every numeric trace field is a count or a
    /// duration).
    Int(u64),
    /// Any other JSON number: a fraction, an exponent or a sign. No trace
    /// event holds one.
    Float(f64),
    /// A JSON boolean.
    Bool(bool),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
        }
    }
}

/// The event class of a validated line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Run start: protocol, strategy, property, schema version.
    RunHeader,
    /// Periodic or final progress sample.
    Progress,
    /// Per-BFS-level time-series sample (schema 2).
    LevelSummary,
    /// Checkpoint-resume marker: the engine rebuilt its state from a
    /// manifest (schema 3).
    Resume,
    /// Per-phase wall-clock and histogram summaries.
    PhaseSummary,
    /// Final verdict of the run.
    Verdict,
}

/// Parses one flat JSON object (the shape of a trace event and of a bench
/// row). Rejects nested arrays/objects, null, duplicate keys and trailing
/// garbage.
pub fn parse_flat_object(line: &str) -> Result<HashMap<String, Value>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = HashMap::new();

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while chars.next_if(|(_, c)| c.is_ascii_whitespace()).is_some() {}
    };

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected '\"', found {other:?}")),
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, c) = chars.next().ok_or("truncated \\u escape")?;
                            code =
                                code * 16 + c.to_digit(16).ok_or(format!("bad hex digit {c:?}"))?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("line does not start with '{'".to_string()),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                other => return Err(format!("expected ':' after key {key:?}, found {other:?}")),
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some((_, '"')) => Value::Str(parse_string(&mut chars)?),
                Some((_, 't' | 'f' | '-' | '0'..='9')) => {
                    let mut token = String::new();
                    while let Some((_, c)) = chars
                        .next_if(|(_, c)| c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.'))
                    {
                        token.push(c);
                    }
                    let is_number = |extra: &[u8]| {
                        token
                            .bytes()
                            .all(|b| b.is_ascii_digit() || extra.contains(&b))
                    };
                    match token.as_str() {
                        "true" => Value::Bool(true),
                        "false" => Value::Bool(false),
                        digits if is_number(b"") => {
                            Value::Int(digits.parse().map_err(|e| format!("field {key:?}: {e}"))?)
                        }
                        number => match number.parse() {
                            Ok(x) if is_number(b"-+.eE") => Value::Float(x),
                            _ => return Err(format!("field {key:?}: bad literal {number:?}")),
                        },
                    }
                }
                Some((_, '{' | '[')) => {
                    return Err(format!(
                        "field {key:?}: nested values are not part of the schema"
                    ))
                }
                other => return Err(format!("field {key:?}: unexpected value start {other:?}")),
            };
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate field {key:?}"));
            }
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing data {c:?} at byte {i}"));
    }
    Ok(fields)
}

fn require<'a>(
    fields: &'a HashMap<String, Value>,
    event: &str,
    key: &str,
) -> Result<&'a Value, String> {
    fields
        .get(key)
        .ok_or_else(|| format!("{event}: missing field {key:?}"))
}

fn require_int(fields: &HashMap<String, Value>, event: &str, key: &str) -> Result<u64, String> {
    match require(fields, event, key)? {
        Value::Int(n) => Ok(*n),
        other => Err(format!(
            "{event}: field {key:?} must be an integer, found {}",
            other.kind()
        )),
    }
}

fn require_str<'a>(
    fields: &'a HashMap<String, Value>,
    event: &str,
    key: &str,
) -> Result<&'a str, String> {
    match require(fields, event, key)? {
        Value::Str(s) => Ok(s),
        other => Err(format!(
            "{event}: field {key:?} must be a string, found {}",
            other.kind()
        )),
    }
}

fn require_bool(fields: &HashMap<String, Value>, event: &str, key: &str) -> Result<bool, String> {
    match require(fields, event, key)? {
        Value::Bool(b) => Ok(*b),
        other => Err(format!(
            "{event}: field {key:?} must be a boolean, found {}",
            other.kind()
        )),
    }
}

/// Validates one NDJSON line against the event schema and returns its
/// event kind plus parsed fields.
pub fn validate_line(line: &str) -> Result<(EventKind, HashMap<String, Value>), String> {
    let fields = parse_flat_object(line)?;
    if let Some(key) = fields
        .keys()
        .find(|k| matches!(fields[*k], Value::Float(_)))
    {
        return Err(format!("field {key:?}: floats are not part of the schema"));
    }
    let event = require_str(&fields, "event", "event")?.to_string();
    require_int(&fields, &event, "seq")?;
    require_str(&fields, &event, "protocol")?;
    require_str(&fields, &event, "strategy")?;
    let kind = match event.as_str() {
        "run_header" => {
            let schema = require_int(&fields, &event, "schema")?;
            // Schema 2 added `elapsed_us` + memory gauges to progress
            // events and the `level_summary` event; schema 3 added the
            // `resume` event. Streams of every version validate (each
            // addition is optional fields plus a new event kind, so older
            // streams remain well-formed).
            if !(1..=3).contains(&schema) {
                return Err(format!("run_header: unsupported schema version {schema}"));
            }
            require_str(&fields, &event, "property")?;
            EventKind::RunHeader
        }
        "progress" => {
            for key in [
                "elapsed_ms",
                "states",
                "transitions",
                "depth",
                "states_per_sec",
            ] {
                require_int(&fields, &event, key)?;
            }
            // Schema-2 additions, validated for type when present.
            for key in crate::metrics::Gauge::ALL.map(|g| g.name()) {
                if fields.contains_key(key) {
                    require_int(&fields, &event, key)?;
                }
            }
            for key in ["elapsed_us", "steals"] {
                if fields.contains_key(key) {
                    require_int(&fields, &event, key)?;
                }
            }
            require_bool(&fields, &event, "final")?;
            EventKind::Progress
        }
        "level_summary" => {
            for key in [
                "level",
                "width",
                "new_states",
                "store_hits",
                "frontier_bytes",
                "duration_us",
            ] {
                require_int(&fields, &event, key)?;
            }
            EventKind::LevelSummary
        }
        "resume" => {
            for key in ["level", "states"] {
                require_int(&fields, &event, key)?;
            }
            EventKind::Resume
        }
        "phase_summary" => {
            require_int(&fields, &event, "elapsed_ms")?;
            for phase in Phase::ALL {
                require_int(&fields, &event, &format!("{}_us", phase.name()))?;
            }
            for hist in Histogram::ALL {
                require_int(&fields, &event, &format!("{}_count", hist.name()))?;
                require_int(&fields, &event, &format!("{}_sum", hist.name()))?;
                require_int(&fields, &event, &format!("{}_max", hist.name()))?;
                require_str(&fields, &event, &format!("{}_buckets", hist.name()))?;
            }
            EventKind::PhaseSummary
        }
        "verdict" => {
            require_str(&fields, &event, "verdict")?;
            require_bool(&fields, &event, "clean")?;
            for key in ["states", "transitions", "elapsed_ms"] {
                require_int(&fields, &event, key)?;
            }
            EventKind::Verdict
        }
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok((kind, fields))
}

#[cfg(test)]
mod tests {
    //! The per-run ordering contract is checked here through
    //! [`analyze_stream`], the one pass over a stream.
    use super::*;
    use crate::analyze::{analyze_stream, StreamError};
    use crate::{Counter, SharedBuffer, Tracer};

    fn is_invalid(result: Result<Vec<crate::analyze::RunSummary>, StreamError>, what: &str) {
        assert!(
            matches!(&result, Err(StreamError::Invalid(e)) if e.contains(what)),
            "expected Invalid({what}), got {result:?}"
        );
    }

    /// A schema-valid `phase_summary` line with every phase and histogram
    /// field zero.
    fn phase_summary(seq: u64) -> String {
        let mut line = format!(
            r#"{{"event":"phase_summary","seq":{seq},"protocol":"p","strategy":"s","elapsed_ms":0"#
        );
        for p in Phase::ALL {
            line.push_str(&format!(",\"{}_us\":0", p.name()));
        }
        for h in Histogram::ALL {
            line.push_str(&format!(
                ",\"{n}_count\":0,\"{n}_sum\":0,\"{n}_max\":0,\"{n}_buckets\":\"\"",
                n = h.name()
            ));
        }
        line.push('}');
        line
    }

    /// The emitter's output for one run, finished or dropped.
    fn emitted(finish: bool) -> String {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let run = tracer.begin_run("p", "s", "prop");
        run.add(Counter::States, 1);
        if finish {
            run.finish("verified");
        }
        drop(run);
        buf.contents()
    }

    #[test]
    fn parser_accepts_flat_objects_only() {
        let ok = parse_flat_object(r#"{"a":"x","b":12,"c":true,"d":false}"#).unwrap();
        assert_eq!(ok.get("a"), Some(&Value::Str("x".to_string())));
        assert_eq!(ok.get("b"), Some(&Value::Int(12)));
        assert_eq!(ok.get("c"), Some(&Value::Bool(true)));
        assert!(parse_flat_object(r#"{"a":{"nested":1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a":[1,2]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":null}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_flat_object(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1.2.3}"#).is_err());
        // Decimals parse (bench rows hold ratios); the trace schema refuses
        // them in `validate_line`.
        let numbers = parse_flat_object(r#"{"a":1.5,"b":-2,"c":2.5e3,"d":0}"#).unwrap();
        assert_eq!(numbers.get("a"), Some(&Value::Float(1.5)));
        assert_eq!(numbers.get("b"), Some(&Value::Float(-2.0)));
        assert_eq!(numbers.get("c"), Some(&Value::Float(2500.0)));
        assert_eq!(numbers.get("d"), Some(&Value::Int(0)));
    }

    #[test]
    fn escapes_round_trip() {
        let fields = parse_flat_object(r#"{"s":"quote \" slash \\ nl \n uni A"}"#).unwrap();
        assert_eq!(
            fields.get("s"),
            Some(&Value::Str("quote \" slash \\ nl \n uni A".to_string()))
        );
    }

    #[test]
    fn real_emitter_output_validates() {
        let text = emitted(true) + &emitted(false);
        let runs = analyze_stream(text.lines()).unwrap();
        let clean: Vec<bool> = runs.iter().map(|r| r.clean).collect();
        assert_eq!(clean, [true, false]);
        assert!(runs.iter().all(|r| r.throughput.samples >= 1));
    }

    #[test]
    fn stream_ordering_is_enforced() {
        let header = r#"{"event":"run_header","seq":0,"protocol":"p","strategy":"s","schema":1,"property":"x"}"#;
        let verdict = r#"{"event":"verdict","seq":1,"protocol":"p","strategy":"s","verdict":"verified","clean":true,"states":1,"transitions":0,"elapsed_ms":0}"#;
        // Verdict without progress/summary events.
        is_invalid(
            analyze_stream([header, verdict]),
            "without a progress event",
        );
        // Verdict before any header.
        is_invalid(analyze_stream([verdict]), "outside a run");
        // A header inside an open run.
        is_invalid(analyze_stream([header, header]), "still open");
        // Truncated stream.
        let err = analyze_stream([header]).unwrap_err();
        assert!(
            matches!(&err, StreamError::Truncated(e) if e.contains("missing verdict")),
            "{err:?}"
        );
        // Empty stream.
        assert!(matches!(analyze_stream([]), Err(StreamError::Truncated(_))));
    }

    #[test]
    fn a_run_needs_one_progress_and_exactly_one_phase_summary() {
        let text = emitted(true);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(analyze_stream(lines.iter().copied()).unwrap().len(), 1);
        let is_event = |line: &&str, event: &str| line.contains(&format!("\"event\":\"{event}\""));

        // The progress event dropped.
        let no_progress = lines.iter().copied().filter(|l| !is_event(l, "progress"));
        is_invalid(analyze_stream(no_progress), "without a progress event");
        // The phase_summary doubled.
        let doubled = lines.iter().copied().flat_map(|l| {
            let copies = if is_event(&l, "phase_summary") { 2 } else { 1 };
            std::iter::repeat_n(l, copies)
        });
        is_invalid(analyze_stream(doubled), "duplicate phase_summary");
        // The phase_summary dropped.
        let no_summary = lines
            .iter()
            .copied()
            .filter(|l| !is_event(l, "phase_summary"));
        is_invalid(analyze_stream(no_summary), "without a phase_summary");
        // No run at all.
        let none = StreamError::Truncated("stream contains no completed run".to_string());
        assert_eq!(analyze_stream("\n\n".lines()), Err(none));
    }

    #[test]
    fn level_summaries_validate_and_obey_the_ordering() {
        let header = r#"{"event":"run_header","seq":0,"protocol":"p","strategy":"s","schema":2,"property":"x"}"#;
        let level = r#"{"event":"level_summary","seq":1,"protocol":"p","strategy":"s","level":1,"width":3,"new_states":2,"store_hits":1,"frontier_bytes":96,"duration_us":40}"#;
        let progress = r#"{"event":"progress","seq":2,"protocol":"p","strategy":"s","elapsed_ms":0,"elapsed_us":120,"states":3,"transitions":2,"depth":1,"states_per_sec":25000,"store_bytes":64,"frontier_bytes":96,"parent_log_bytes":24,"canonical_cache_bytes":0,"final":true}"#;
        let phase = phase_summary(3);
        let verdict = r#"{"event":"verdict","seq":4,"protocol":"p","strategy":"s","verdict":"verified","clean":true,"states":3,"transitions":2,"elapsed_ms":0}"#;
        let runs = analyze_stream([header, level, progress, phase.as_str(), verdict]).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].levels.len(), 1);

        // A level_summary after the phase_summary violates the ordering.
        is_invalid(
            analyze_stream([header, progress, phase.as_str(), level, verdict]),
            "after the phase_summary",
        );
        // ...and outside a run it is rejected outright.
        is_invalid(analyze_stream([level]), "outside a run");
        // A missing field is a schema error.
        let bad = r#"{"event":"level_summary","seq":1,"protocol":"p","strategy":"s","level":1}"#;
        assert!(validate_line(bad).unwrap_err().contains("width"));
    }

    #[test]
    fn resume_events_validate_and_obey_the_ordering() {
        let header = r#"{"event":"run_header","seq":0,"protocol":"p","strategy":"s","schema":3,"property":"x"}"#;
        let resume =
            r#"{"event":"resume","seq":1,"protocol":"p","strategy":"s","level":4,"states":1234}"#;
        let progress = r#"{"event":"progress","seq":2,"protocol":"p","strategy":"s","elapsed_ms":0,"states":3,"transitions":2,"depth":1,"states_per_sec":25000,"final":true}"#;
        let phase = phase_summary(3);
        let verdict = r#"{"event":"verdict","seq":4,"protocol":"p","strategy":"s","verdict":"verified","clean":true,"states":3,"transitions":2,"elapsed_ms":0}"#;
        let runs = analyze_stream([header, resume, progress, phase.as_str(), verdict]).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].resumed_from, Some(4));

        // A resume after the phase_summary violates the ordering.
        is_invalid(
            analyze_stream([header, progress, phase.as_str(), resume, verdict]),
            "after the phase_summary",
        );
        // ...as does a progress event.
        is_invalid(
            analyze_stream([header, progress, phase.as_str(), progress, verdict]),
            "after the phase_summary",
        );
        // ...and outside a run it is rejected outright.
        is_invalid(analyze_stream([resume]), "outside a run");
        // A missing field is a schema error, as is an unsupported version.
        let bad = r#"{"event":"resume","seq":1,"protocol":"p","strategy":"s","level":1}"#;
        assert!(validate_line(bad).unwrap_err().contains("states"));
        let bad_schema = r#"{"event":"run_header","seq":0,"protocol":"p","strategy":"s","schema":4,"property":"x"}"#;
        assert!(validate_line(bad_schema)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn classification_separates_truncated_aborted_and_invalid() {
        let clean_text = emitted(true);
        let runs = analyze_stream(clean_text.lines()).unwrap();
        assert!(runs.iter().all(|r| r.clean));

        // Dropping without finish -> well-formed but aborted.
        let text = clean_text.clone() + &emitted(false);
        let runs = analyze_stream(text.lines()).unwrap();
        assert_eq!(runs.len(), 2);
        assert!(runs[0].clean);
        assert!(!runs[1].clean);
        assert_eq!(runs[1].verdict, "aborted");

        // Cutting the stream mid-run -> truncated, not invalid.
        let truncated: Vec<&str> = clean_text.lines().take(1).collect();
        assert!(matches!(
            analyze_stream(truncated),
            Err(StreamError::Truncated(_))
        ));
        assert!(matches!(analyze_stream([]), Err(StreamError::Truncated(_))));

        // Garbage -> invalid.
        assert!(matches!(
            analyze_stream(["{\"event\":\"nope\"}"]),
            Err(StreamError::Invalid(_))
        ));
    }

    #[test]
    fn unknown_events_and_bad_types_are_rejected() {
        let err = validate_line(r#"{"event":"mystery","seq":0,"protocol":"p","strategy":"s"}"#)
            .unwrap_err();
        assert!(err.contains("unknown event"), "{err}");
        let err = validate_line(
            r#"{"event":"progress","seq":0,"protocol":"p","strategy":"s","elapsed_ms":"fast","states":1,"transitions":1,"depth":1,"states_per_sec":1,"final":true}"#,
        )
        .unwrap_err();
        assert!(err.contains("must be an integer"), "{err}");
        // A decimal anywhere in a trace line is refused.
        let err = validate_line(
            r#"{"event":"progress","seq":0,"protocol":"p","strategy":"s","elapsed_ms":1.5,"states":1,"transitions":1,"depth":1,"states_per_sec":1,"final":true}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "field \"elapsed_ms\": floats are not part of the schema"
        );
    }
}
