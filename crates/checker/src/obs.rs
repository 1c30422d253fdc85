//! Engine-side observability helpers: per-level time-series bookkeeping
//! shared by the BFS engines.
//!
//! The `level_summary` NDJSON event wants *per-level deltas* (new states,
//! store hits) on top of cumulative counters the store reports, plus the
//! level's wall-clock. [`LevelObserver`] keeps the previous level's
//! cumulative figures and the level-start instant so each engine's level
//! loop stays two calls long. Everything here is gated on the tracer: a
//! disabled tracer means [`LevelObserver::enabled`] is `false`, the engines
//! skip the store/frontier stats reads entirely, and no clock is touched —
//! preserving the invariant that an untraced run does no extra work.

use std::time::Instant;

use mp_trace::{LevelSummary, TraceHandle};

/// Rolling state for per-level `level_summary` emission. See module docs.
pub(crate) struct LevelObserver {
    enabled: bool,
    level_start: Option<Instant>,
    prev_states: u64,
    prev_hits: u64,
}

impl LevelObserver {
    /// Captures whether `trace` is live; a disabled trace makes every other
    /// method a no-op and `enabled()` lets callers skip stats reads.
    pub fn new(trace: &TraceHandle) -> Self {
        LevelObserver {
            enabled: trace.is_enabled(),
            level_start: None,
            prev_states: 0,
            prev_hits: 0,
        }
    }

    /// `true` when the run is traced — callers gate their stats reads on
    /// this so untraced runs skip the bookkeeping entirely.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the pre-search baseline (the root state the engines insert
    /// before the level loop), so level 1's `new_states` counts only what
    /// the level itself discovered and the per-level deltas tile the
    /// search: `Σ new_states = states − 1`. Gate the stats reads on
    /// [`enabled`](Self::enabled), like `end_level`.
    pub fn seed(&mut self, store_states: u64, store_hits: u64) {
        self.prev_states = store_states;
        self.prev_hits = store_hits;
    }

    /// Marks the start of a level (reads the clock only when enabled).
    pub(crate) fn begin_level(&mut self) {
        if self.enabled {
            self.level_start = Some(Instant::now());
        }
    }

    /// Folds the level's cumulative end-state into a [`LevelSummary`] with
    /// per-level deltas, advancing the rolling baseline. `store_states` and
    /// `store_hits` are cumulative; `frontier_bytes` is reported as given
    /// (the engines pass the frontier's peak so far).
    pub(crate) fn end_level(
        &mut self,
        level: u64,
        width: u64,
        store_states: u64,
        store_hits: u64,
        frontier_bytes: u64,
    ) -> LevelSummary {
        let duration_us = self
            .level_start
            .take()
            .map_or(0, |t| t.elapsed().as_micros() as u64);
        let summary = LevelSummary {
            level,
            width,
            new_states: store_states.saturating_sub(self.prev_states),
            store_hits: store_hits.saturating_sub(self.prev_hits),
            frontier_bytes,
            duration_us,
        };
        self.prev_states = store_states;
        self.prev_hits = store_hits;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_trace::{SharedBuffer, Tracer};

    #[test]
    fn disabled_traces_disable_the_observer() {
        let tracer = Tracer::disabled();
        let run = tracer.begin_run("p", "s", "prop");
        let obs = LevelObserver::new(&run.handle());
        assert!(!obs.enabled());
    }

    #[test]
    fn levels_report_deltas_not_cumulative_counts() {
        let buf = SharedBuffer::new();
        let tracer = Tracer::to_writer(false, Box::new(buf.clone()));
        let run = tracer.begin_run("p", "s", "prop");
        let mut obs = LevelObserver::new(&run.handle());
        assert!(obs.enabled());
        obs.seed(1, 0); // the pre-inserted root

        obs.begin_level();
        let first = obs.end_level(1, 1, 5, 2, 128);
        assert_eq!(first.new_states, 4, "root doesn't count as discovered");
        assert_eq!(first.store_hits, 2);

        obs.begin_level();
        let second = obs.end_level(2, 4, 12, 9, 256);
        assert_eq!(second.new_states, 7, "12 total - 5 prior");
        assert_eq!(second.store_hits, 7, "9 total - 2 prior");
        assert_eq!(second.frontier_bytes, 256);
        run.finish("verified");
    }
}
