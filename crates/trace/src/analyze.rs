//! The consumption side of the trace stream: fold NDJSON into answers.
//!
//! [`analyze_stream`] is the one pass over a trace: it checks every line
//! against the [`validate`](crate::validate) schema and every run against
//! the event order, and folds each completed run into a [`RunSummary`]:
//! final counters, per-phase microseconds and shares, throughput
//! percentiles over the progress samples, the per-level time series, reconstructed histograms and peak
//! memory gauges. On top of that sit [`diff`] — the cross-run comparison
//! (phase-share deltas, counter deltas, throughput ratio) behind
//! `trace_report diff` and the bench gate's phase-drift decisions — and
//! [`RunSummary::folded_stacks`], the `engine;phase <µs>` folded-stack
//! export that speedscope and inferno-style flamegraph tools consume
//! directly.

use std::collections::HashMap;
use std::fmt;

use crate::metrics::{
    bucket_index, Gauge, Histogram, HistogramSummary, GAUGE_COUNT, HISTOGRAM_COUNT,
};
use crate::phase::{Phase, PHASE_COUNT};
use crate::tracer::LevelSummary;
use crate::validate::{validate_line, EventKind, Value};

/// Percentiles of the `states_per_sec` figures across a run's progress
/// events (nearest-rank; all zero when the run emitted no samples, which
/// cannot happen for a well-formed stream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThroughputStats {
    /// Number of progress samples folded in.
    pub samples: usize,
    /// Median states/second.
    pub p50: u64,
    /// 90th-percentile states/second.
    pub p90: u64,
    /// Fastest observed sample.
    pub max: u64,
}

impl ThroughputStats {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let rank = |p: usize| samples[(samples.len() * p).div_ceil(100).max(1) - 1];
        ThroughputStats {
            samples: samples.len(),
            p50: rank(50),
            p90: rank(90),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Everything one completed run's events fold down to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Protocol label from the run header.
    pub protocol: String,
    /// Strategy (engine) label from the run header.
    pub strategy: String,
    /// Property label from the run header.
    pub property: String,
    /// The final verdict string.
    pub verdict: String,
    /// `false` when the run ended in the `Drop`-flushed `"aborted"` tail.
    pub clean: bool,
    /// Final state count (from the verdict event).
    pub states: u64,
    /// Final transition count (from the verdict event).
    pub transitions: u64,
    /// Total wall-clock of the run, milliseconds.
    pub elapsed_ms: u64,
    /// Peak search depth / BFS level (from the last progress sample).
    pub peak_depth: u64,
    /// Accumulated microseconds per phase, indexed like [`Phase::ALL`].
    pub phases_us: [u64; PHASE_COUNT],
    /// Reconstructed histograms, indexed like [`Histogram::ALL`].
    pub histograms: [HistogramSummary; HISTOGRAM_COUNT],
    /// Peak memory gauges, indexed like [`Gauge::ALL`] (all zero for
    /// schema-1 streams, which predate the gauges).
    pub gauges: [u64; GAUGE_COUNT],
    /// The per-level time series (empty for non-BFS engines).
    pub levels: Vec<LevelSummary>,
    /// The BFS level this run resumed from when it was rebuilt from a
    /// checkpoint (`None` for uninterrupted runs and pre-schema-3 streams).
    pub resumed_from: Option<u64>,
    /// Throughput percentiles over the progress samples.
    pub throughput: ThroughputStats,
}

impl RunSummary {
    /// Microseconds accumulated in `phase`.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phases_us[phase.index()]
    }

    /// Sum of all phase times, microseconds (0 = the run was untraced or
    /// never entered a timed section).
    pub fn phase_total_us(&self) -> u64 {
        self.phases_us.iter().sum()
    }

    /// `phase`'s share of the total traced time, in [0, 1] (0.0 when
    /// nothing was traced).
    pub fn phase_share(&self, phase: Phase) -> f64 {
        let total = self.phase_total_us();
        if total == 0 {
            0.0
        } else {
            self.phase_us(phase) as f64 / total as f64
        }
    }

    /// Peak value of `gauge`.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()]
    }

    /// Reconstructed summary of `histogram`.
    pub fn histogram(&self, histogram: Histogram) -> &HistogramSummary {
        &self.histograms[histogram.index()]
    }

    /// The run's phase breakdown as folded-stack lines — one
    /// `engine;phase <µs>` line per non-zero phase, the collapsed format
    /// speedscope and inferno's `flamegraph.pl` descendants ingest
    /// directly. Untimed wall-clock (total elapsed minus the phase sum) is
    /// exported as an `(untimed)` frame so the graph's root spans the real
    /// run length.
    pub fn folded_stacks(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for phase in Phase::ALL {
            let us = self.phase_us(phase);
            if us > 0 {
                lines.push(format!("{};{} {us}", self.strategy, phase.name()));
            }
        }
        let untimed = (self.elapsed_ms * 1_000).saturating_sub(self.phase_total_us());
        if untimed > 0 && self.phase_total_us() > 0 {
            lines.push(format!("{};(untimed) {untimed}", self.strategy));
        }
        lines
    }
}

/// The cross-run comparison `diff` produces: all deltas are `b - a`, so a
/// positive number means the second run is bigger/slower.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDiff {
    /// Per-phase share-of-traced-time delta (fractional points), indexed
    /// like [`Phase::ALL`]. All zero when either run was untraced.
    pub phase_share_delta: [f64; PHASE_COUNT],
    /// State-count delta.
    pub states_delta: i64,
    /// Transition-count delta.
    pub transitions_delta: i64,
    /// Peak-depth delta.
    pub depth_delta: i64,
    /// Wall-clock delta, milliseconds.
    pub elapsed_ms_delta: i64,
    /// Peak-gauge deltas, indexed like [`Gauge::ALL`].
    pub gauge_delta: [i64; GAUGE_COUNT],
    /// Median-throughput ratio `b/a` (1.0 when both medians are zero).
    pub throughput_ratio: f64,
}

impl RunDiff {
    /// `true` when the two runs agreed on every compared figure (the
    /// self-diff contract: `diff(a, a).is_zero()`).
    pub fn is_zero(&self) -> bool {
        self.phase_share_delta.iter().all(|d| *d == 0.0)
            && self.states_delta == 0
            && self.transitions_delta == 0
            && self.depth_delta == 0
            && self.elapsed_ms_delta == 0
            && self.gauge_delta.iter().all(|d| *d == 0)
            && self.throughput_ratio == 1.0
    }
}

/// Compares two run summaries (see [`RunDiff`] for the sign conventions).
pub fn diff(a: &RunSummary, b: &RunSummary) -> RunDiff {
    let mut phase_share_delta = [0.0; PHASE_COUNT];
    if a.phase_total_us() > 0 && b.phase_total_us() > 0 {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            phase_share_delta[i] = b.phase_share(*phase) - a.phase_share(*phase);
        }
    }
    let throughput_ratio = match (a.throughput.p50, b.throughput.p50) {
        (0, 0) => 1.0,
        (0, _) => f64::INFINITY,
        (a_med, b_med) => b_med as f64 / a_med as f64,
    };
    RunDiff {
        phase_share_delta,
        states_delta: b.states as i64 - a.states as i64,
        transitions_delta: b.transitions as i64 - a.transitions as i64,
        depth_delta: b.peak_depth as i64 - a.peak_depth as i64,
        elapsed_ms_delta: b.elapsed_ms as i64 - a.elapsed_ms as i64,
        gauge_delta: std::array::from_fn(|i| b.gauges[i] as i64 - a.gauges[i] as i64),
        throughput_ratio,
    }
}

fn get_int(fields: &HashMap<String, Value>, key: &str) -> u64 {
    match fields.get(key) {
        Some(Value::Int(n)) => *n,
        _ => 0,
    }
}

fn get_str(fields: &HashMap<String, Value>, key: &str) -> String {
    match fields.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// Rebuilds a [`HistogramSummary`] from its four `phase_summary` fields
/// (the compact `lower_bound:count` bucket string plus count/sum/max).
fn parse_histogram(fields: &HashMap<String, Value>, name: &str) -> HistogramSummary {
    let mut summary = HistogramSummary {
        count: get_int(fields, &format!("{name}_count")),
        sum: get_int(fields, &format!("{name}_sum")),
        max: get_int(fields, &format!("{name}_max")),
        ..Default::default()
    };
    let compact = get_str(fields, &format!("{name}_buckets"));
    for pair in compact.split(',').filter(|p| !p.is_empty()) {
        let Some((lb, n)) = pair.split_once(':') else {
            continue;
        };
        let (Ok(lb), Ok(n)) = (lb.parse::<u64>(), n.parse::<u64>()) else {
            continue;
        };
        summary.buckets[bucket_index(lb)] += n;
    }
    summary
}

/// Why [`analyze_stream`] refused a stream. Both carry a message, prefixed
/// with the offending line number where one exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// A line failed the schema or the per-run event order: an emitter bug
    /// or a corrupted file.
    Invalid(String),
    /// Every line validates, but the stream ends inside a run or holds no
    /// completed run: a killed process, a filled disk or an incomplete
    /// copy.
    Truncated(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Invalid(e) | StreamError::Truncated(e) => f.write_str(e),
        }
    }
}

/// Folds a whole NDJSON stream into one [`RunSummary`] per completed run,
/// in stream order. Every line must pass `validate_line`, and every run
/// must read `run_header → (progress | level_summary | resume)* →
/// phase_summary → verdict` with at least one `progress` event; runs are
/// sequential, so no event stands outside a run. A run that ended in the
/// `Drop`-flushed tail is a summary with `clean == false`, not an error.
///
/// # Errors
///
/// [`StreamError::Invalid`] at the first schema or order violation;
/// [`StreamError::Truncated`] when the stream ends inside a run or holds no
/// completed run.
pub fn analyze_stream<'a, I>(lines: I) -> Result<Vec<RunSummary>, StreamError>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut runs = Vec::new();
    let mut current: Option<RunSummary> = None;
    let mut throughput_samples: Vec<u64> = Vec::new();
    let mut summarized = false;
    for (idx, line) in lines.into_iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let invalid = |msg: &str| StreamError::Invalid(format!("line {}: {msg}", idx + 1));
        let (kind, fields) = validate_line(line).map_err(|e| invalid(&e))?;
        let event = || get_str(&fields, "event");
        if kind == EventKind::RunHeader {
            if current.is_some() {
                return Err(invalid("run_header while the previous run is still open"));
            }
            throughput_samples.clear();
            summarized = false;
            current = Some(RunSummary {
                protocol: get_str(&fields, "protocol"),
                strategy: get_str(&fields, "strategy"),
                property: get_str(&fields, "property"),
                ..Default::default()
            });
            continue;
        }
        let Some(run) = current.as_mut() else {
            return Err(invalid(&format!("{} outside a run", event())));
        };
        match kind {
            EventKind::Progress | EventKind::LevelSummary | EventKind::Resume if summarized => {
                return Err(invalid(&format!("{} after the phase_summary", event())));
            }
            EventKind::RunHeader => unreachable!("handled above"),
            EventKind::Progress => {
                throughput_samples.push(get_int(&fields, "states_per_sec"));
                run.peak_depth = run.peak_depth.max(get_int(&fields, "depth"));
                for (i, gauge) in Gauge::ALL.iter().enumerate() {
                    run.gauges[i] = run.gauges[i].max(get_int(&fields, gauge.name()));
                }
            }
            EventKind::LevelSummary => run.levels.push(LevelSummary {
                level: get_int(&fields, "level"),
                width: get_int(&fields, "width"),
                new_states: get_int(&fields, "new_states"),
                store_hits: get_int(&fields, "store_hits"),
                frontier_bytes: get_int(&fields, "frontier_bytes"),
                duration_us: get_int(&fields, "duration_us"),
            }),
            EventKind::Resume => run.resumed_from = Some(get_int(&fields, "level")),
            EventKind::PhaseSummary => {
                if summarized {
                    return Err(invalid("duplicate phase_summary"));
                }
                summarized = true;
                for (i, phase) in Phase::ALL.iter().enumerate() {
                    run.phases_us[i] = get_int(&fields, &format!("{}_us", phase.name()));
                }
                for (i, hist) in Histogram::ALL.iter().enumerate() {
                    run.histograms[i] = parse_histogram(&fields, hist.name());
                }
            }
            EventKind::Verdict => {
                if throughput_samples.is_empty() {
                    return Err(invalid("verdict without a progress event"));
                }
                if !summarized {
                    return Err(invalid("verdict without a phase_summary"));
                }
                run.verdict = get_str(&fields, "verdict");
                run.clean = matches!(fields.get("clean"), Some(Value::Bool(true)));
                run.states = get_int(&fields, "states");
                run.transitions = get_int(&fields, "transitions");
                run.elapsed_ms = get_int(&fields, "elapsed_ms");
                run.throughput =
                    ThroughputStats::from_samples(std::mem::take(&mut throughput_samples));
                runs.extend(current.take());
            }
        }
    }
    let truncated = match (&current, runs.is_empty()) {
        (Some(_), _) => "stream ends inside an open run (missing verdict)",
        (None, true) => "stream contains no completed run",
        (None, false) => return Ok(runs),
    };
    Err(StreamError::Truncated(truncated.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, SharedBuffer, Tracer};

    fn emit_run(tracer: &Tracer, states: u64, with_level: bool) {
        let run = tracer.begin_run("paxos", "stateful-bfs+spor", "agreement");
        run.add(Counter::States, states);
        run.add(Counter::Transitions, states * 2);
        run.add(Counter::Depth, 3);
        run.sample_gauge(Gauge::StoreBytes, 4096);
        run.record(Histogram::LevelWidth, states);
        {
            let _g = run.span(Phase::Expansion);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if with_level {
            run.level_summary(&LevelSummary {
                level: 1,
                width: 1,
                new_states: states - 1,
                store_hits: 0,
                frontier_bytes: 64,
                duration_us: 50,
            });
        }
        run.finish("verified");
        drop(run);
    }

    fn traced(states: u64, with_level: bool) -> RunSummary {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        emit_run(&tracer, states, with_level);
        let text = buf.contents();
        let mut runs = analyze_stream(text.lines()).unwrap();
        assert_eq!(runs.len(), 1);
        runs.remove(0)
    }

    #[test]
    fn summaries_fold_the_emitted_events() {
        let summary = traced(10, true);
        assert_eq!(summary.protocol, "paxos");
        assert_eq!(summary.strategy, "stateful-bfs+spor");
        assert_eq!(summary.verdict, "verified");
        assert!(summary.clean);
        assert_eq!(summary.states, 10);
        assert_eq!(summary.transitions, 20);
        assert_eq!(summary.peak_depth, 3);
        assert_eq!(summary.gauge(Gauge::StoreBytes), 4096);
        assert_eq!(summary.levels.len(), 1);
        assert_eq!(summary.levels[0].new_states, 9);
        assert!(summary.phase_us(Phase::Expansion) >= 1_000);
        assert!(summary.phase_share(Phase::Expansion) > 0.99);
        assert_eq!(summary.histogram(Histogram::LevelWidth).count, 1);
        assert_eq!(summary.histogram(Histogram::LevelWidth).sum, 10);
        assert!(summary.throughput.samples >= 1);
        assert!(summary.throughput.max >= summary.throughput.p50);
    }

    #[test]
    fn self_diff_is_all_zero() {
        let summary = traced(10, true);
        let d = diff(&summary, &summary);
        assert!(d.is_zero(), "{d:?}");
    }

    #[test]
    fn diff_signs_follow_b_minus_a() {
        let a = traced(10, false);
        let b = traced(25, false);
        let d = diff(&a, &b);
        assert_eq!(d.states_delta, 15);
        assert_eq!(d.transitions_delta, 30);
        assert!(d.throughput_ratio > 0.0);
        assert!(!d.is_zero());
    }

    #[test]
    fn untraced_runs_produce_no_share_deltas() {
        let a = RunSummary {
            states: 5,
            ..Default::default()
        };
        let b = traced(10, false);
        let d = diff(&a, &b);
        assert!(d.phase_share_delta.iter().all(|x| *x == 0.0));
        assert_eq!(d.states_delta, 5);
    }

    #[test]
    fn folded_stacks_are_speedscope_shaped() {
        let summary = traced(10, false);
        let stacks = summary.folded_stacks();
        assert!(!stacks.is_empty());
        for line in &stacks {
            // "<frames> <count>": frames are `;`-separated, count numeric.
            let (frames, count) = line.rsplit_once(' ').expect("space-separated count");
            assert!(frames.starts_with("stateful-bfs+spor;"), "{line}");
            assert!(count.parse::<u64>().is_ok(), "{line}");
        }
        assert!(stacks.iter().any(|l| l.contains(";expansion ")));
    }

    #[test]
    fn histogram_buckets_round_trip_through_the_compact_string() {
        let mut fields = HashMap::new();
        fields.insert("h_count".to_string(), Value::Int(5));
        fields.insert("h_sum".to_string(), Value::Int(14));
        fields.insert("h_max".to_string(), Value::Int(8));
        fields.insert(
            "h_buckets".to_string(),
            Value::Str("0:1,1:1,2:2,8:1".into()),
        );
        let h = parse_histogram(&fields, "h");
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets_compact(), "0:1,1:1,2:2,8:1");
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        emit_run(&tracer, 3, false);
        let text = buf.contents();
        let partial: Vec<&str> = text.lines().take(2).collect();
        let err = analyze_stream(partial).unwrap_err();
        assert!(
            matches!(&err, StreamError::Truncated(e) if e.contains("missing verdict")),
            "{err}"
        );
    }

    #[test]
    fn multiple_runs_fold_in_stream_order() {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        emit_run(&tracer, 4, false);
        emit_run(&tracer, 9, true);
        let text = buf.contents();
        let runs = analyze_stream(text.lines()).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].states, 4);
        assert_eq!(runs[1].states, 9);
        assert_eq!(runs[1].levels.len(), 1);
    }
}
