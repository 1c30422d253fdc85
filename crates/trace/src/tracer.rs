//! The tracer: run-scoped spans, counters, heartbeat and NDJSON emission.
//!
//! A [`Tracer`] is a cheap, cloneable handle configured once per process
//! (or per sweep) and carried by value inside `CheckerConfig`. Calling
//! [`Tracer::begin_run`] opens one **run** — a single engine invocation —
//! and returns a [`RunTrace`] guard that owns the run's metrics registry
//! and, when enabled, a heartbeat sampler thread. Every line it writes is
//! one [`Event`]. Dropping the guard without [`TraceHandle::finish`] still
//! flushes a final progress/phase-summary/verdict tail (verdict
//! `"aborted"`, `clean:false`), so a panicking or killed run leaves a
//! usable trace.
//!
//! The disabled tracer ([`Tracer::disabled`], also `Default`) costs one
//! branch per call: no clock is read, no atomics touched, no thread
//! spawned.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::event::{Body, Event, LevelSummary};
use crate::metrics::{Counter, Gauge, Registry};
use crate::phase::{Phase, PhaseTimes};

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

    /// A tracer that writes stderr heartbeat lines when `progress` is set
    /// and NDJSON events to `ndjson` (created or truncated) when given;
    /// with neither, the disabled tracer.
    pub fn new(progress: bool, ndjson: Option<&Path>) -> io::Result<Self> {
        let sink: Option<Mutex<Box<dyn Write + Send>>> = match ndjson {
            Some(path) => {
                let file = std::fs::File::create(path)?;
                Some(Mutex::new(Box::new(io::BufWriter::new(file))))
            }
            None => None,
        };
        if !progress && sink.is_none() {
            return Ok(Self::disabled());
        }
        Ok(Tracer {
            shared: Some(Arc::new(Shared {
                progress,
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
            finished: Mutex::new(false),
            stop: Condvar::new(),
        });
        inner.emit(Body::RunHeader {
            property: property.to_string(),
        });
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
    /// `true` once the final tail (progress + phase_summary + verdict) was
    /// emitted. Guarded by a mutex — not an atomic — so the heartbeat can
    /// never slip a progress event after the verdict, and so the condvar
    /// below has something to wait on.
    finished: Mutex<bool>,
    stop: Condvar,
}

impl RunInner {
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

    fn emit(&self, body: Body) {
        let event = Event {
            seq: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            protocol: self.protocol.clone(),
            strategy: self.strategy.clone(),
            body,
        };
        self.shared.write_line(&event.to_line());
    }

    /// Emits one `progress` event. Callers hold the `finished` lock or run
    /// before any finish can happen, so ordering relative to the verdict is
    /// safe.
    fn emit_progress(&self, is_final: bool) {
        let registry = &self.registry;
        self.emit(Body::Progress {
            elapsed_us: (self.start.elapsed().as_micros() as u64).max(1),
            states: registry.counter(Counter::States),
            transitions: registry.counter(Counter::Transitions),
            depth: registry.counter(Counter::Depth),
            gauges: registry.gauges(),
            is_final,
        });
    }

    /// Emits `body` unless the run already finished: the tail's ordering
    /// contract puts every `level_summary` and `resume` before the
    /// `phase_summary`.
    fn emit_unless_finished(&self, body: Body) {
        let finished = self.finished.lock().expect("trace run lock poisoned");
        if !*finished {
            self.emit(body);
        }
    }

    fn emit_tail(&self, verdict: &str, clean: bool) {
        let phases = self.registry.phase_times();
        self.emit(Body::PhaseSummary {
            phases_us: Phase::ALL.map(|phase| phases.nanos(phase) / 1_000),
        });
        self.emit(Body::Verdict {
            verdict: verdict.to_string(),
            clean,
            states: self.registry.counter(Counter::States),
            transitions: self.registry.counter(Counter::Transitions),
            elapsed_ms: self.start.elapsed().as_millis() as u64,
        });
    }

    fn stderr_progress(&self) {
        if !self.shared.progress {
            return;
        }
        let elapsed = self.start.elapsed();
        let states = self.registry.counter(Counter::States);
        let sps = states as f64 / elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "[mp-trace] {}/{}: {} states ({:.0}/s), {} transitions, depth {}, {:.1}s",
            self.protocol,
            self.strategy,
            states,
            sps,
            self.registry.counter(Counter::Transitions),
            self.registry.counter(Counter::Depth),
            elapsed.as_secs_f64()
        );
    }

    fn stderr_verdict(&self, verdict: &str) {
        if !self.shared.progress {
            return;
        }
        eprintln!(
            "[mp-trace] {}/{}: {} — {} states in {:.1}s",
            self.protocol,
            self.strategy,
            verdict,
            self.registry.counter(Counter::States),
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
        self.emit_tail(verdict, clean);
        self.stderr_verdict(verdict);
    }
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
            inner.emit_unless_finished(Body::LevelSummary(*level));
        }
    }

    /// Emits one `resume` event recording that the engine rebuilt its state
    /// from a checkpoint: `level` is the last completed BFS level in the
    /// manifest, `states` the visited-store size after the rebuild. A no-op
    /// when disabled or after the run finished.
    pub fn resume(&self, level: u64, states: u64) {
        if let Some(inner) = &self.inner {
            inner.emit_unless_finished(Body::Resume { level, states });
        }
    }

    /// Accumulated per-phase wall-clock so far (all zero when disabled).
    pub fn phase_times(&self) -> PhaseTimes {
        match &self.inner {
            Some(inner) => inner.registry.phase_times(),
            None => PhaseTimes::default(),
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
        assert!(!run.is_enabled());
        assert!(run.phase_times().is_zero());
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
        let text = buf.contents();
        let elapsed_us = text
            .lines()
            .find_map(|line| match Event::parse(line).unwrap().body {
                Body::Progress { elapsed_us, .. } => Some(elapsed_us),
                _ => None,
            })
            .unwrap();
        // The analyzer derives throughput from microseconds: 100 states in
        // a few of them is millions per second, where the old
        // `states*1000/elapsed_ms` reported 100 000/s for *any*
        // sub-millisecond run.
        let runs = crate::analyze::analyze_stream(text.lines()).unwrap();
        assert_eq!(runs[0].throughput.max, 100 * 1_000_000 / elapsed_us);
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
