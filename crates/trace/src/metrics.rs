//! The atomic metrics registry: counters, gauges and phase clocks.
//!
//! One [`Registry`] lives inside every traced run. All mutation goes
//! through `&self` with relaxed atomics, so the parallel BFS engine's
//! worker threads share it through a plain borrow — per-thread
//! contributions sum exactly because every bump is a single
//! `fetch_add`/`fetch_max` on the shared cell.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::phase::{Phase, PhaseTimes, PHASE_COUNT};

/// A monotonically increasing run counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Distinct states stored (stateful) or expanded (stateless).
    States,
    /// Transition executions.
    Transitions,
    /// Search depth / BFS level — recorded as a **high-water mark**, not a
    /// sum: `add` folds the argument in with `max`.
    Depth,
}

/// Number of counters.
const COUNTER_COUNT: usize = 3;

/// A gauge of the registry: an instantaneous figure the engines *sample*
/// (as opposed to the monotone [`Counter`]s they bump). Each gauge is
/// folded in with `fetch_max`, so what the registry reports is the
/// **peak** observed so far — exactly what progress lines and the
/// heartbeat need for "how big did this run get" questions, and stable
/// under racing samplers (the max of two peaks is the peak). All gauges
/// except [`Gauge::WorkerBusyUs`] are byte figures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gauge {
    /// Approximate heap bytes of the visited store's tables.
    StoreBytes,
    /// Peak bytes queued in the BFS frontier (exact encoded bytes for the
    /// disk frontier, a `size_of`-based estimate in memory).
    FrontierBytes,
    /// Resident bytes of the parent-pointer path log (offsets + unspilled
    /// buffer for the disk log, the record vector in memory); for a
    /// depth-first liveness run, of the recorded graph its SCC backstop
    /// judges (tree records, edge list, token index).
    ParentLogBytes,
    /// Bytes of canonical orbit representatives held by the visited store
    /// on behalf of the symmetry reduction (0 on symmetry-off runs, where
    /// keys are concrete states).
    CanonicalCacheBytes,
    /// Microseconds of expansion work done by the busiest worker of the
    /// parallel BFS pool (each worker samples its own accumulated busy
    /// time, so the `fetch_max` fold keeps the straggler). **Not** a byte
    /// figure, unlike every other gauge.
    WorkerBusyUs,
}

/// Number of gauges in [`Gauge::ALL`].
pub(crate) const GAUGE_COUNT: usize = 5;

impl Gauge {
    /// Every gauge, in emission order.
    pub const ALL: [Gauge; GAUGE_COUNT] = [
        Gauge::StoreBytes,
        Gauge::FrontierBytes,
        Gauge::ParentLogBytes,
        Gauge::CanonicalCacheBytes,
        Gauge::WorkerBusyUs,
    ];

    /// Stable snake_case name used in NDJSON progress events.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::StoreBytes => "store_bytes",
            Gauge::FrontierBytes => "frontier_bytes",
            Gauge::ParentLogBytes => "parent_log_bytes",
            Gauge::CanonicalCacheBytes => "canonical_cache_bytes",
            Gauge::WorkerBusyUs => "worker_busy_us",
        }
    }

    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// The shared atomic registry of one traced run.
pub(crate) struct Registry {
    counters: [AtomicU64; COUNTER_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn add(&self, counter: Counter, n: u64) {
        let cell = &self.counters[counter as usize];
        match counter {
            Counter::Depth => {
                cell.fetch_max(n, Ordering::Relaxed);
            }
            _ => {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn sample_gauge(&self, gauge: Gauge, bytes: u64) {
        self.gauges[gauge.index()].fetch_max(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_phase_nanos(&self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    pub(crate) fn phase_times(&self) -> PhaseTimes {
        PhaseTimes::from_nanos(std::array::from_fn(|i| {
            self.phase_nanos[i].load(Ordering::Relaxed)
        }))
    }

    pub(crate) fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Peak value of every gauge, indexed like [`Gauge::ALL`].
    pub(crate) fn gauges(&self) -> [u64; GAUGE_COUNT] {
        std::array::from_fn(|g| self.gauges[g].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_keep_their_peak() {
        let r = Registry::new();
        r.sample_gauge(Gauge::StoreBytes, 100);
        r.sample_gauge(Gauge::StoreBytes, 4096);
        r.sample_gauge(Gauge::StoreBytes, 512);
        assert_eq!(r.gauges()[Gauge::StoreBytes.index()], 4096);
        assert_eq!(r.gauges()[Gauge::FrontierBytes.index()], 0);
        let mut names: Vec<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GAUGE_COUNT);
    }

    #[test]
    fn depth_is_a_high_water_mark() {
        let r = Registry::new();
        r.add(Counter::Depth, 3);
        r.add(Counter::Depth, 7);
        r.add(Counter::Depth, 5);
        r.add(Counter::States, 2);
        r.add(Counter::States, 2);
        assert_eq!(r.counter(Counter::Depth), 7);
        assert_eq!(r.counter(Counter::States), 4);
    }

    #[test]
    fn registry_sums_exactly_across_threads() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        r.add(Counter::Transitions, 1);
                        r.sample_gauge(Gauge::StoreBytes, i);
                    }
                });
            }
        });
        assert_eq!(r.counter(Counter::Transitions), 4000);
        assert_eq!(r.gauges()[Gauge::StoreBytes.index()], 999);
    }
}
