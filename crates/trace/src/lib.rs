//! # mp-trace — zero-dependency tracing, metrics and progress reporting
//!
//! The observability layer of the MP-Basset reproduction. Everything is
//! `std`-only — no external crates — because paper-scale certification runs
//! must be observable in the same hermetic environment they are verified
//! in. Three pillars:
//!
//! * **Phase timers** — RAII [`SpanGuard`]s attribute wall-clock to a fixed
//!   [`Phase`] taxonomy (expansion, store lookup, canonicalization,
//!   frontier encode/decode, spill I/O, stubborn-set computation, SCC
//!   backstop). A disabled tracer reads no clock at all.
//! * **Metrics registry** — atomic [`Counter`]s (states, transitions,
//!   depth) and peak [`Gauge`]s, safely shared across the parallel
//!   engine's worker threads by `&`-borrow.
//! * **Progress heartbeat** — a sampler thread snapshots the registry
//!   periodically and emits human-readable stderr lines and/or
//!   machine-readable NDJSON events. Every line is one [`event::Event`]
//!   (`run_header`, `progress`, `level_summary`, `resume`,
//!   `phase_summary`, `verdict`), written and read through one field list
//!   with no external JSON dependency; [`analyze`] reads a stream back:
//!   one pass that reads each line into an event, checks the per-run event
//!   order and folds each run into a summary. `mp-harness trace_report`
//!   renders those summaries and `trace_report check` classifies streams
//!   for CI.
//!
//! A run that panics or returns early still flushes its tail: dropping the
//! [`RunTrace`] guard emits the final progress, phase summary and an
//! `"aborted"` verdict.
//!
//! ```
//! use mp_trace::{Counter, Phase, SharedBuffer, Tracer};
//!
//! let buf = SharedBuffer::new();
//! let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
//! let run = tracer.begin_run("demo", "stateful-dfs", "invariant");
//! {
//!     let _span = run.span(Phase::Expansion); // timed until the guard drops
//!     run.add(Counter::States, 42);
//! }
//! run.finish("verified");
//! drop(run);
//!
//! let text = buf.contents();
//! assert!(text.starts_with("{\"event\":\"run_header\""));
//! let runs = mp_trace::analyze::analyze_stream(text.lines()).unwrap();
//! assert_eq!(runs.len(), 1);
//! assert!(runs[0].clean);
//! assert_eq!(runs[0].states, 42);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod event;
mod metrics;
mod phase;
mod tracer;
#[cfg(test)]
mod validate;

pub use event::LevelSummary;
pub use metrics::{Counter, Gauge};
pub use phase::{Phase, PhaseTimes, PHASE_COUNT};
pub use tracer::{RunTrace, SharedBuffer, SpanGuard, TraceHandle, Tracer};
