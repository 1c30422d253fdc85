//! The refusal cases of the one trace schema. Reading a line into an
//! [`Event`] is the validation, and the per-run event order is checked by
//! the one pass over a stream, [`analyze_stream`]; these tests drive both
//! with the emitter's own output and with hand-broken lines.

mod tests {
    use crate::analyze::{analyze_stream, RunSummary, StreamError};
    use crate::event::{parse_flat_object, Body, Event, LevelSummary, Value};
    use crate::{Counter, SharedBuffer, Tracer, PHASE_COUNT};

    fn is_invalid(result: Result<Vec<RunSummary>, StreamError>, what: &str) {
        assert!(
            matches!(&result, Err(StreamError::Invalid(e)) if e.contains(what)),
            "expected Invalid({what}), got {result:?}"
        );
    }

    fn refusal(line: &str) -> String {
        Event::parse(line).expect_err(line)
    }

    fn line(seq: u64, body: Body) -> String {
        let event = Event {
            seq,
            protocol: "p".to_string(),
            strategy: "s".to_string(),
            body,
        };
        event.to_line()
    }

    fn header(seq: u64) -> String {
        line(
            seq,
            Body::RunHeader {
                property: "x".to_string(),
            },
        )
    }

    fn progress(seq: u64) -> String {
        let body = Body::Progress {
            elapsed_us: 120,
            states: 3,
            transitions: 2,
            depth: 1,
            gauges: [64, 96, 24, 0, 0],
            is_final: true,
        };
        line(seq, body)
    }

    fn phase_summary(seq: u64) -> String {
        let phases_us = [0; PHASE_COUNT];
        line(seq, Body::PhaseSummary { phases_us })
    }

    fn verdict(seq: u64) -> String {
        let body = Body::Verdict {
            verdict: "verified".to_string(),
            clean: true,
            states: 3,
            transitions: 2,
            elapsed_ms: 0,
        };
        line(seq, body)
    }

    /// The emitter's output for one run, finished or dropped.
    fn emitted(finish: bool) -> String {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let run = tracer.begin_run("p", "s", "prop");
        run.add(Counter::States, 1);
        run.resume(2, 5);
        run.level_summary(&LevelSummary::default());
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
        // Decimals parse (bench rows hold ratios); a trace event refuses
        // them.
        let numbers = parse_flat_object(r#"{"a":1.5,"b":-2,"c":2.5e3,"d":0}"#).unwrap();
        assert_eq!(numbers.get("a"), Some(&Value::Float(1.5)));
        assert_eq!(numbers.get("b"), Some(&Value::Float(-2.0)));
        assert_eq!(numbers.get("c"), Some(&Value::Float(2500.0)));
        assert_eq!(numbers.get("d"), Some(&Value::Int(0)));
        // A line that is no flat object is no event either.
        assert!(refusal("not json").contains("does not start with"));
    }

    #[test]
    fn escapes_round_trip() {
        let fields = parse_flat_object(r#"{"s":"quote \" slash \\ nl \n uni A"}"#).unwrap();
        assert_eq!(
            fields.get("s"),
            Some(&Value::Str("quote \" slash \\ nl \n uni A".to_string()))
        );
        // Through the event writer and back, control characters included.
        let event = Event {
            seq: 0,
            protocol: "has \"quotes\"\n\t\u{1}".to_string(),
            strategy: "s\\tray".to_string(),
            body: Body::RunHeader {
                property: "p".to_string(),
            },
        };
        assert_eq!(Event::parse(&event.to_line()), Ok(event));
    }

    #[test]
    fn real_emitter_output_validates() {
        let text = emitted(true) + &emitted(false);
        for line in text.lines() {
            let event = Event::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(event.to_line(), line, "byte-for-byte round trip");
        }
        assert_eq!(
            text.lines().next(),
            Some(
                r#"{"event":"run_header","seq":0,"protocol":"p","strategy":"s","schema":4,"property":"prop"}"#
            )
        );
        let runs = analyze_stream(text.lines()).unwrap();
        let clean: Vec<bool> = runs.iter().map(|r| r.clean).collect();
        assert_eq!(clean, [true, false]);
        assert!(runs.iter().all(|r| r.throughput.samples >= 1));
        assert!(runs.iter().all(|r| r.resumed_from == Some((2, 5))));
    }

    #[test]
    fn stream_ordering_is_enforced() {
        let (header, verdict) = (header(0), verdict(1));
        let (header, verdict) = (header.as_str(), verdict.as_str());
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
        let level = r#"{"event":"level_summary","seq":1,"protocol":"p","strategy":"s","level":1,"width":3,"new_states":2,"store_hits":1,"frontier_bytes":96,"duration_us":40}"#;
        let (header, progress, phase, verdict) =
            (header(0), progress(2), phase_summary(3), verdict(4));
        let (header, progress, phase, verdict) = (
            header.as_str(),
            progress.as_str(),
            phase.as_str(),
            verdict.as_str(),
        );
        let runs = analyze_stream([header, level, progress, phase, verdict]).unwrap();
        assert_eq!(runs.len(), 1);
        let expected = LevelSummary {
            level: 1,
            width: 3,
            new_states: 2,
            store_hits: 1,
            frontier_bytes: 96,
            duration_us: 40,
        };
        assert_eq!(runs[0].levels, [expected]);
        assert_eq!(runs[0].throughput.max, 3 * 1_000_000 / 120);

        // A level_summary after the phase_summary violates the ordering.
        is_invalid(
            analyze_stream([header, progress, phase, level, verdict]),
            "after the phase_summary",
        );
        // ...and outside a run it is rejected outright.
        is_invalid(analyze_stream([level]), "outside a run");
        // A missing field is a schema error naming the field.
        let bad = r#"{"event":"level_summary","seq":1,"protocol":"p","strategy":"s","level":1}"#;
        assert_eq!(refusal(bad), "level_summary: missing field \"width\"");
    }

    #[test]
    fn resume_events_validate_and_obey_the_ordering() {
        let resume =
            r#"{"event":"resume","seq":1,"protocol":"p","strategy":"s","level":4,"states":1234}"#;
        let (header, progress, phase, verdict) =
            (header(0), progress(2), phase_summary(3), verdict(4));
        let (header, progress, phase, verdict) = (
            header.as_str(),
            progress.as_str(),
            phase.as_str(),
            verdict.as_str(),
        );
        let runs = analyze_stream([header, resume, progress, phase, verdict]).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].resumed_from, Some((4, 1234)));

        // A resume after the phase_summary violates the ordering.
        is_invalid(
            analyze_stream([header, progress, phase, resume, verdict]),
            "after the phase_summary",
        );
        // ...as does a progress event.
        is_invalid(
            analyze_stream([header, progress, phase, progress, verdict]),
            "after the phase_summary",
        );
        // ...and outside a run it is rejected outright.
        is_invalid(analyze_stream([resume]), "outside a run");
        // A missing field is a schema error, as is any version but this one.
        let bad = r#"{"event":"resume","seq":1,"protocol":"p","strategy":"s","level":1}"#;
        assert_eq!(refusal(bad), "resume: missing field \"states\"");
        for old in [1, 3, 5] {
            let header = header.replace("\"schema\":4", &format!("\"schema\":{old}"));
            let expected = format!("run_header: unsupported schema version {old}");
            assert_eq!(refusal(&header), expected);
            is_invalid(analyze_stream([header.as_str()]), &expected);
        }
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
        let good = progress(0);
        assert!(Event::parse(&good).is_ok());
        // Unknown event, and no event at all.
        let err = refusal(r#"{"event":"mystery","seq":0,"protocol":"p","strategy":"s"}"#);
        assert_eq!(err, "unknown event kind \"mystery\"");
        assert_eq!(refusal(r#"{"seq":0}"#), "missing field \"event\"");
        assert_eq!(
            refusal(r#"{"event":7}"#),
            "field \"event\" must be a string, found an integer"
        );
        // A missing field, by name.
        let missing = good.replace(",\"depth\":1", "");
        assert_eq!(refusal(&missing), "progress: missing field \"depth\"");
        // An extra field, by name: the fields of schema 3 progress events
        // and the never-written `steals` among them.
        for extra in ["elapsed_ms", "states_per_sec", "steals"] {
            let line = good.replace("}", &format!(",\"{extra}\":1}}"));
            let expected = format!("progress: unexpected field \"{extra}\"");
            assert_eq!(refusal(&line), expected);
        }
        // A mistyped field, by name and by both types.
        let mistyped = good.replace("\"states\":3", "\"states\":\"fast\"");
        assert_eq!(
            refusal(&mistyped),
            "progress: field \"states\" must be an integer, found a string"
        );
        let mistyped = good.replace("\"final\":true", "\"final\":1");
        assert_eq!(
            refusal(&mistyped),
            "progress: field \"final\" must be a boolean, found an integer"
        );
        // A decimal anywhere in a trace line is refused.
        let float = good.replace("\"elapsed_us\":120", "\"elapsed_us\":1.5");
        assert_eq!(
            refusal(&float),
            "field \"elapsed_us\": floats are not part of the schema"
        );
        // Through the stream pass, each refusal carries its line number.
        let header = header(0);
        is_invalid(
            analyze_stream([header.as_str(), missing.as_str()]),
            "line 2: progress: missing field \"depth\"",
        );
    }
}
