//! The tracer: run-scoped spans, counters, heartbeat and NDJSON emission.
//!
//! A [`Tracer`] is a cheap, cloneable handle configured once per process
//! (or per sweep) and carried by value inside `CheckerConfig`. Calling
//! [`Tracer::begin_run`] opens one **run** — a single engine invocation —
//! and returns a [`RunTrace`] guard that owns the run's metrics
//! [`Registry`](crate::Snapshot) and, when enabled, a heartbeat sampler
//! thread. Dropping the guard without [`TraceHandle::finish`] still flushes
//! a final progress/phase-summary/verdict tail (verdict `"aborted"`,
//! `clean:false`), so a panicking or killed run leaves a usable trace.
//!
//! The disabled tracer ([`Tracer::disabled`], also `Default`) costs one
//! branch per call: no clock is read, no atomics touched, no thread
//! spawned.

use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
use crate::phase::{Phase, PhaseTimes};

/// One BFS level's worth of time-series data, emitted as a `level_summary`
/// NDJSON event by the breadth-first engines at the end of every level.
/// Together the events form the per-run time series the `trace_report
/// timeline` subcommand renders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelSummary {
    /// The BFS level (1-based; level 1 expands the initial state).
    pub level: u64,
    /// Number of frontier entries the level started with.
    pub width: u64,
    /// States first inserted into the visited store during this level.
    pub new_states: u64,
    /// Visited-store hits (revisited successors) during this level.
    pub store_hits: u64,
    /// Peak bytes queued in the frontier so far.
    pub frontier_bytes: u64,
    /// Wall-clock the level took, in microseconds.
    pub duration_us: u64,
}

/// How a [`Tracer`] reports: stderr heartbeat lines, NDJSON events, or both.
#[derive(Debug, Default)]
pub struct TraceOptions {
    /// Emit human-readable progress lines to stderr.
    pub progress: bool,
    /// Write machine-readable NDJSON events to this file (created or
    /// truncated).
    pub ndjson: Option<PathBuf>,
}

impl TraceOptions {
    /// Options with everything off (yields a disabled tracer).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables stderr progress lines (builder style).
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Routes NDJSON events to `path` (builder style).
    pub fn with_ndjson(mut self, path: impl Into<PathBuf>) -> Self {
        self.ndjson = Some(path.into());
        self
    }
}

const DEFAULT_INTERVAL: Duration = Duration::from_secs(1);

/// Tracer internals shared by every run it opens (one sweep = one sink).
struct Shared {
    progress: bool,
    interval: Duration,
    /// NDJSON sink; `None` when only stderr progress was requested.
    /// One mutex serialises whole lines, so events from a heartbeat racing
    /// a finishing run never interleave mid-line.
    sink: Option<Mutex<Box<dyn Write + Send>>>,
    /// Global event sequence number across all runs of this tracer.
    seq: AtomicU64,
}

impl Shared {
    fn write_line(&self, line: &str) {
        if let Some(sink) = &self.sink {
            let mut w = sink.lock().expect("trace sink poisoned");
            // A full disk must not take the checker down with it.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
}

/// The observability handle carried by `CheckerConfig`.
///
/// Cloning is cheap (an `Arc` bump); the `Default` tracer is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer: every call is a single branch.
    pub fn disabled() -> Self {
        Tracer { shared: None }
    }

    /// Builds a tracer from [`TraceOptions`]; opens (and truncates) the
    /// NDJSON file if one was requested. All-off options yield a disabled
    /// tracer.
    pub fn from_options(options: TraceOptions) -> io::Result<Self> {
        let sink: Option<Mutex<Box<dyn Write + Send>>> = match &options.ndjson {
            Some(path) => {
                let file = std::fs::File::create(path)?;
                Some(Mutex::new(Box::new(io::BufWriter::new(file))))
            }
            None => None,
        };
        if !options.progress && sink.is_none() {
            return Ok(Self::disabled());
        }
        Ok(Tracer {
            shared: Some(Arc::new(Shared {
                progress: options.progress,
                interval: DEFAULT_INTERVAL,
                sink,
                seq: AtomicU64::new(0),
            })),
        })
    }

    /// Tracer that writes NDJSON lines to an arbitrary writer — the test
    /// and doc-example entry point (see [`SharedBuffer`]).
    pub fn to_writer(progress: bool, writer: Box<dyn Write + Send>) -> Self {
        Tracer {
            shared: Some(Arc::new(Shared {
                progress,
                interval: DEFAULT_INTERVAL,
                sink: Some(Mutex::new(writer)),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// `false` for the no-op tracer.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens one traced run and emits its `run_header` event. The returned
    /// guard owns the run's registry and heartbeat; hold it for the whole
    /// engine invocation.
    pub fn begin_run(&self, protocol: &str, strategy: &str, property: &str) -> RunTrace {
        let Some(shared) = &self.shared else {
            return RunTrace {
                handle: TraceHandle { inner: None },
                heartbeat: None,
            };
        };
        let inner = Arc::new(RunInner {
            shared: shared.clone(),
            registry: Registry::new(),
            start: Instant::now(),
            protocol: protocol.to_string(),
            strategy: strategy.to_string(),
            property: property.to_string(),
            finished: Mutex::new(false),
            stop: Condvar::new(),
        });
        inner.emit_header();
        let heartbeat = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("mp-trace-heartbeat".to_string())
                .spawn(move || inner.heartbeat_loop())
                .ok()
        };
        RunTrace {
            handle: TraceHandle { inner: Some(inner) },
            heartbeat,
        }
    }
}

struct RunInner {
    shared: Arc<Shared>,
    registry: Registry,
    start: Instant,
    protocol: String,
    strategy: String,
    property: String,
    /// `true` once the final tail (progress + phase_summary + verdict) was
    /// emitted. Guarded by a mutex — not an atomic — so the heartbeat can
    /// never slip a progress event after the verdict, and so the condvar
    /// below has something to wait on.
    finished: Mutex<bool>,
    stop: Condvar,
}

impl RunInner {
    fn next_seq(&self) -> u64 {
        self.shared.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn heartbeat_loop(&self) {
        let mut finished = self.finished.lock().expect("trace run lock poisoned");
        // A run can finish before this thread first takes the lock: its
        // wake-up is gone by then, so look before every wait.
        while !*finished {
            let (guard, _timeout) = self
                .stop
                .wait_timeout(finished, self.shared.interval)
                .expect("trace run lock poisoned");
            finished = guard;
            if !*finished {
                self.emit_progress(false);
                self.stderr_progress();
            }
        }
    }

    fn header(&self, event: &str, line: &mut String) {
        line.push_str("{\"event\":\"");
        line.push_str(event);
        line.push_str("\",\"seq\":");
        line.push_str(&self.next_seq().to_string());
        push_str_field(line, "protocol", &self.protocol);
        push_str_field(line, "strategy", &self.strategy);
    }

    fn emit_header(&self) {
        let mut line = String::new();
        self.header("run_header", &mut line);
        line.push_str(",\"schema\":3");
        push_str_field(&mut line, "property", &self.property);
        line.push('}');
        self.shared.write_line(&line);
    }

    /// Emits one `progress` event. Callers hold the `finished` lock or run
    /// before any finish can happen, so ordering relative to the verdict is
    /// safe.
    fn emit_progress(&self, is_final: bool) {
        let snap = self.registry.snapshot();
        let elapsed_us = (self.start.elapsed().as_micros() as u64).max(1);
        let states = snap.counter(Counter::States);
        let mut line = String::new();
        self.header("progress", &mut line);
        push_u64_field(&mut line, "elapsed_ms", elapsed_us / 1_000);
        push_u64_field(&mut line, "elapsed_us", elapsed_us);
        push_u64_field(&mut line, "states", states);
        push_u64_field(&mut line, "transitions", snap.counter(Counter::Transitions));
        push_u64_field(&mut line, "depth", snap.counter(Counter::Depth));
        // Throughput from microseconds: the old `states*1000/elapsed_ms`
        // over-reported by up to 1000x on sub-millisecond runs.
        push_u64_field(
            &mut line,
            "states_per_sec",
            states.saturating_mul(1_000_000) / elapsed_us,
        );
        for gauge in Gauge::ALL {
            push_u64_field(&mut line, gauge.name(), snap.gauge(gauge));
        }
        line.push_str(",\"final\":");
        line.push_str(if is_final { "true" } else { "false" });
        line.push('}');
        self.shared.write_line(&line);
    }

    /// Emits one `level_summary` event, unless the run already finished
    /// (the tail's ordering contract puts every level before the
    /// phase_summary).
    fn emit_level_summary(&self, level: &LevelSummary) {
        let finished = self.finished.lock().expect("trace run lock poisoned");
        if *finished {
            return;
        }
        let mut line = String::new();
        self.header("level_summary", &mut line);
        push_u64_field(&mut line, "level", level.level);
        push_u64_field(&mut line, "width", level.width);
        push_u64_field(&mut line, "new_states", level.new_states);
        push_u64_field(&mut line, "store_hits", level.store_hits);
        push_u64_field(&mut line, "frontier_bytes", level.frontier_bytes);
        push_u64_field(&mut line, "duration_us", level.duration_us);
        line.push('}');
        self.shared.write_line(&line);
    }

    /// Emits one `resume` event, unless the run already finished. The BFS
    /// engines call this exactly once, before the first resumed level, when
    /// a checkpoint manifest rebuilt their state.
    fn emit_resume(&self, level: u64, states: u64) {
        let finished = self.finished.lock().expect("trace run lock poisoned");
        if *finished {
            return;
        }
        let mut line = String::new();
        self.header("resume", &mut line);
        push_u64_field(&mut line, "level", level);
        push_u64_field(&mut line, "states", states);
        line.push('}');
        self.shared.write_line(&line);
    }

    fn emit_phase_summary(&self, snap: &Snapshot) {
        let mut line = String::new();
        self.header("phase_summary", &mut line);
        push_u64_field(
            &mut line,
            "elapsed_ms",
            self.start.elapsed().as_millis() as u64,
        );
        for phase in Phase::ALL {
            push_u64_field(
                &mut line,
                &format!("{}_us", phase.name()),
                snap.phases.nanos(phase) / 1_000,
            );
        }
        for hist in Histogram::ALL {
            let h = snap.histogram(hist);
            push_u64_field(&mut line, &format!("{}_count", hist.name()), h.count);
            push_u64_field(&mut line, &format!("{}_sum", hist.name()), h.sum);
            push_u64_field(&mut line, &format!("{}_max", hist.name()), h.max);
            push_str_field(
                &mut line,
                &format!("{}_buckets", hist.name()),
                &h.buckets_compact(),
            );
        }
        line.push('}');
        self.shared.write_line(&line);
    }

    fn emit_verdict(&self, verdict: &str, clean: bool, snap: &Snapshot) {
        let mut line = String::new();
        self.header("verdict", &mut line);
        push_str_field(&mut line, "verdict", verdict);
        line.push_str(",\"clean\":");
        line.push_str(if clean { "true" } else { "false" });
        push_u64_field(&mut line, "states", snap.counter(Counter::States));
        push_u64_field(&mut line, "transitions", snap.counter(Counter::Transitions));
        push_u64_field(
            &mut line,
            "elapsed_ms",
            self.start.elapsed().as_millis() as u64,
        );
        line.push('}');
        self.shared.write_line(&line);
    }

    fn stderr_progress(&self) {
        if !self.shared.progress {
            return;
        }
        let snap = self.registry.snapshot();
        let elapsed = self.start.elapsed();
        let states = snap.counter(Counter::States);
        let sps = states as f64 / elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "[mp-trace] {}/{}: {} states ({:.0}/s), {} transitions, depth {}, {:.1}s",
            self.protocol,
            self.strategy,
            states,
            sps,
            snap.counter(Counter::Transitions),
            snap.counter(Counter::Depth),
            elapsed.as_secs_f64()
        );
    }

    fn stderr_verdict(&self, verdict: &str) {
        if !self.shared.progress {
            return;
        }
        let snap = self.registry.snapshot();
        eprintln!(
            "[mp-trace] {}/{}: {} — {} states in {:.1}s",
            self.protocol,
            self.strategy,
            verdict,
            snap.counter(Counter::States),
            self.start.elapsed().as_secs_f64()
        );
    }

    /// Emits the final tail exactly once; later calls are no-ops.
    fn finish_with(&self, verdict: &str, clean: bool) {
        let mut finished = self.finished.lock().expect("trace run lock poisoned");
        if *finished {
            return;
        }
        *finished = true;
        // Wake the heartbeat so it exits instead of sleeping out its
        // interval.
        self.stop.notify_all();
        // Every run gets at least one progress event, even sub-interval
        // ones — the acceptance contract of the NDJSON stream.
        self.emit_progress(true);
        let snap = self.registry.snapshot();
        self.emit_phase_summary(&snap);
        self.emit_verdict(verdict, clean, &snap);
        self.stderr_verdict(verdict);
    }
}

fn push_str_field(line: &mut String, key: &str, value: &str) {
    line.push_str(",\"");
    line.push_str(key);
    line.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                line.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => line.push(c),
        }
    }
    line.push('"');
}

fn push_u64_field(line: &mut String, key: &str, value: u64) {
    line.push_str(",\"");
    line.push_str(key);
    line.push_str("\":");
    line.push_str(&value.to_string());
}

/// A cheap, cloneable view of one traced run, shared with subsystems that
/// outlive no one — the frontier, the reducer, parallel workers. All
/// methods take `&self` and are thread-safe.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<RunInner>>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl TraceHandle {
    /// A disabled handle (what `Default` yields): every call is one branch.
    pub fn disabled() -> Self {
        TraceHandle { inner: None }
    }

    /// `false` for the disabled handle.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span attributing wall-clock to `phase` until the guard
    /// drops. Disabled handles read no clock.
    #[must_use = "a span only measures while its guard is alive"]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        SpanGuard {
            active: self
                .inner
                .as_deref()
                .map(|inner| (inner, phase, Instant::now())),
        }
    }

    /// Bumps `counter` by `n` ([`Counter::Depth`] folds in with `max`).
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.add(counter, n);
        }
    }

    /// Records one `value` sample into `histogram`.
    pub fn record(&self, histogram: Histogram, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.record(histogram, value);
        }
    }

    /// Samples `bytes` into `gauge`; the registry keeps the peak, which the
    /// heartbeat and every later progress line then report.
    pub fn sample_gauge(&self, gauge: Gauge, bytes: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.sample_gauge(gauge, bytes);
        }
    }

    /// Emits one `level_summary` event (a no-op when disabled or after the
    /// run finished). The BFS engines call this at the end of every level.
    pub fn level_summary(&self, level: &LevelSummary) {
        if let Some(inner) = &self.inner {
            inner.emit_level_summary(level);
        }
    }

    /// Emits one `resume` event recording that the engine rebuilt its state
    /// from a checkpoint: `level` is the last completed BFS level in the
    /// manifest, `states` the visited-store size after the rebuild. A no-op
    /// when disabled or after the run finished.
    pub fn resume(&self, level: u64, states: u64) {
        if let Some(inner) = &self.inner {
            inner.emit_resume(level, states);
        }
    }

    /// Accumulated per-phase wall-clock so far (all zero when disabled).
    pub fn phase_times(&self) -> PhaseTimes {
        match &self.inner {
            Some(inner) => inner.registry.phase_times(),
            None => PhaseTimes::new(),
        }
    }

    /// Current registry snapshot (all zero when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// Emits the final progress, phase-summary and verdict events
    /// (`clean:true`) and stops the heartbeat. Idempotent; the engine calls
    /// this on every ordinary return path, while a panic or early drop
    /// falls back to the `Drop` tail of [`RunTrace`].
    pub fn finish(&self, verdict: &str) {
        if let Some(inner) = &self.inner {
            inner.finish_with(verdict, true);
        }
    }
}

/// Run-level guard returned by [`Tracer::begin_run`].
///
/// Dereferences to [`TraceHandle`] for all recording calls. Dropping it
/// joins the heartbeat thread and — if [`TraceHandle::finish`] was never
/// called — flushes an `"aborted"` tail (`clean:false`), which is what
/// keeps traces of panicking or limit-killed runs usable.
pub struct RunTrace {
    handle: TraceHandle,
    heartbeat: Option<JoinHandle<()>>,
}

impl fmt::Debug for RunTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunTrace")
            .field("enabled", &self.handle.is_enabled())
            .finish()
    }
}

impl std::ops::Deref for RunTrace {
    type Target = TraceHandle;

    fn deref(&self) -> &TraceHandle {
        &self.handle
    }
}

impl RunTrace {
    /// A cloneable view to hand to helpers (frontier, reducer, workers).
    pub fn handle(&self) -> TraceHandle {
        self.handle.clone()
    }
}

impl Drop for RunTrace {
    fn drop(&mut self) {
        if let Some(inner) = &self.handle.inner {
            inner.finish_with("aborted", false);
        }
        if let Some(heartbeat) = self.heartbeat.take() {
            let _ = heartbeat.join();
        }
    }
}

/// RAII span guard; its lifetime is the measured interval.
pub struct SpanGuard<'a> {
    active: Option<(&'a RunInner, Phase, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, phase, started)) = self.active.take() {
            inner
                .registry
                .add_phase_nanos(phase, started.elapsed().as_nanos() as u64);
        }
    }
}

/// An in-memory `Write` whose contents can be read back through any clone —
/// the doc-example and test sink for [`Tracer::to_writer`].
#[derive(Clone, Default)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.bytes.lock().expect("buffer poisoned")).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_buffer() -> (SharedBuffer, Tracer) {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        (buf, tracer)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let run = tracer.begin_run("p", "s", "prop");
        run.add(Counter::States, 5);
        {
            let _g = run.span(Phase::Expansion);
        }
        run.record(Histogram::LevelWidth, 3);
        assert!(run.phase_times().is_zero());
        assert_eq!(run.snapshot().counter(Counter::States), 0);
        run.finish("verified");
    }

    #[test]
    fn finish_emits_the_full_event_tail() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "stateful-dfs+spor", "agreement");
        run.add(Counter::States, 10);
        run.add(Counter::Transitions, 25);
        run.add(Counter::Depth, 4);
        run.finish("verified");
        drop(run);
        let text = buf.contents();
        let events: Vec<&str> = text.lines().collect();
        assert_eq!(events.len(), 4, "header + progress + summary + verdict");
        assert!(events[0].contains("\"event\":\"run_header\""));
        assert!(events[0].contains("\"property\":\"agreement\""));
        assert!(events[1].contains("\"event\":\"progress\""));
        assert!(events[1].contains("\"states\":10"));
        assert!(events[1].contains("\"final\":true"));
        assert!(events[2].contains("\"event\":\"phase_summary\""));
        assert!(events[3].contains("\"event\":\"verdict\""));
        assert!(events[3].contains("\"verdict\":\"verified\""));
        assert!(events[3].contains("\"clean\":true"));
    }

    #[test]
    fn dropping_without_finish_flushes_an_aborted_tail() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "bfs", "p");
        run.add(Counter::States, 3);
        drop(run);
        let text = buf.contents();
        assert!(text.contains("\"verdict\":\"aborted\""));
        assert!(text.contains("\"clean\":false"));
        assert!(text.contains("\"event\":\"phase_summary\""));
    }

    #[test]
    fn panic_unwinding_still_flushes_the_tail() {
        let (buf, tracer) = traced_buffer();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let run = tracer.begin_run("demo", "dfs", "p");
            run.add(Counter::States, 1);
            panic!("engine blew up");
        }));
        assert!(result.is_err());
        let text = buf.contents();
        assert!(text.contains("\"verdict\":\"aborted\""));
        assert!(text.contains("\"clean\":false"));
    }

    #[test]
    fn finish_is_idempotent_and_drop_adds_nothing_after() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "dfs", "p");
        run.finish("verified");
        run.finish("violated");
        drop(run);
        let text = buf.contents();
        assert_eq!(text.matches("\"event\":\"verdict\"").count(), 1);
        assert!(text.contains("\"verdict\":\"verified\""));
        assert!(!text.contains("\"verdict\":\"violated\""));
    }

    #[test]
    fn spans_accumulate_into_their_phase() {
        let (_buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "dfs", "p");
        {
            let _g = run.span(Phase::Canonicalize);
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _g = run.span(Phase::Canonicalize);
        }
        let times = run.phase_times();
        assert!(times.nanos(Phase::Canonicalize) >= 2_000_000);
        assert_eq!(times.nanos(Phase::SpillIo), 0);
        run.finish("verified");
    }

    #[test]
    fn heartbeat_emits_periodic_progress() {
        let buf = SharedBuffer::new();
        let tracer = Tracer {
            shared: Some(Arc::new(Shared {
                progress: false,
                interval: Duration::from_millis(5),
                sink: Some(Mutex::new(Box::new(buf.clone()))),
                seq: AtomicU64::new(0),
            })),
        };
        let run = tracer.begin_run("demo", "dfs", "p");
        std::thread::sleep(Duration::from_millis(40));
        run.finish("verified");
        drop(run);
        let text = buf.contents();
        let periodic = text
            .lines()
            .filter(|l| l.contains("\"event\":\"progress\"") && l.contains("\"final\":false"))
            .count();
        assert!(periodic >= 1, "expected periodic progress events:\n{text}");
        // The verdict is the last line — nothing interleaves after it.
        assert!(text.trim_end().ends_with('}'));
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"event\":\"verdict\""));
    }

    #[test]
    fn level_summaries_and_gauges_land_in_the_stream() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "stateful-bfs", "p");
        run.add(Counter::States, 3);
        run.sample_gauge(Gauge::StoreBytes, 2048);
        run.sample_gauge(Gauge::StoreBytes, 1024); // below the peak: ignored
        run.level_summary(&LevelSummary {
            level: 1,
            width: 1,
            new_states: 2,
            store_hits: 0,
            frontier_bytes: 96,
            duration_us: 41,
        });
        run.finish("verified");
        drop(run);
        let text = buf.contents();
        let level_line = text
            .lines()
            .find(|l| l.contains("\"event\":\"level_summary\""))
            .expect("level_summary emitted");
        assert!(level_line.contains("\"level\":1"));
        assert!(level_line.contains("\"new_states\":2"));
        assert!(level_line.contains("\"duration_us\":41"));
        let progress = text
            .lines()
            .find(|l| l.contains("\"event\":\"progress\""))
            .expect("progress emitted");
        assert!(progress.contains("\"store_bytes\":2048"), "{progress}");
        assert!(progress.contains("\"canonical_cache_bytes\":0"));
        assert!(progress.contains("\"elapsed_us\":"));
        // The summary precedes the phase_summary (ordering contract).
        let level_at = text.find("level_summary").unwrap();
        let summary_at = text.find("phase_summary").unwrap();
        assert!(level_at < summary_at);
    }

    #[test]
    fn resume_events_land_in_the_stream_and_respect_finish() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "stateful-bfs", "p");
        run.resume(4, 1234);
        run.finish("verified");
        run.resume(9, 9999);
        drop(run);
        let text = buf.contents();
        let resume_line = text
            .lines()
            .find(|l| l.contains("\"event\":\"resume\""))
            .expect("resume emitted");
        assert!(resume_line.contains("\"level\":4"));
        assert!(resume_line.contains("\"states\":1234"));
        assert!(!text.contains("\"level\":9"), "post-finish resume dropped");
    }

    #[test]
    fn level_summaries_after_finish_are_dropped() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "stateful-bfs", "p");
        run.finish("verified");
        run.level_summary(&LevelSummary::default());
        drop(run);
        assert!(!buf.contents().contains("level_summary"));
    }

    #[test]
    fn sub_millisecond_throughput_is_not_inflated() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("demo", "stateful-bfs", "p");
        run.add(Counter::States, 100);
        run.finish("verified");
        drop(run);
        let progress = buf
            .contents()
            .lines()
            .find(|l| l.contains("\"event\":\"progress\""))
            .unwrap()
            .to_string();
        let sps: u64 = progress
            .split("\"states_per_sec\":")
            .nth(1)
            .unwrap()
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // 100 states in a few microseconds is millions/s, far below the
        // 100 states * 1000 = 100_000/s floor the old ms-based formula
        // reported for *any* sub-millisecond run... but crucially it must
        // not exceed the physical bound of 100 states per elapsed_us
        // microseconds scaled to a second.
        let elapsed_us: u64 = progress
            .split("\"elapsed_us\":")
            .nth(1)
            .unwrap()
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(sps, 100 * 1_000_000 / elapsed_us.max(1));
    }

    #[test]
    fn strings_are_json_escaped() {
        let (buf, tracer) = traced_buffer();
        let run = tracer.begin_run("has \"quotes\"\n", "s\\tray", "p");
        run.finish("verified");
        drop(run);
        let text = buf.contents();
        assert!(text.contains("has \\\"quotes\\\"\\n"));
        assert!(text.contains("s\\\\tray"));
    }

    #[test]
    fn sequence_numbers_are_global_across_runs() {
        let (buf, tracer) = traced_buffer();
        let a = tracer.begin_run("p1", "s", "prop");
        a.finish("verified");
        drop(a);
        let b = tracer.begin_run("p2", "s", "prop");
        b.finish("verified");
        drop(b);
        let text = buf.contents();
        assert!(text.contains("\"seq\":0"));
        assert!(text.contains("\"seq\":7"), "8 events across two runs");
    }
}
