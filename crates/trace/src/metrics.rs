//! The atomic metrics registry: counters and log₂-bucket histograms.
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
    /// State expansions.
    Expansions,
    /// Successors whose key was already visited.
    Revisits,
    /// Search depth / BFS level — recorded as a **high-water mark**, not a
    /// sum: `add` folds the argument in with `max`.
    Depth,
}

/// Number of counters in [`Counter::ALL`].
pub(crate) const COUNTER_COUNT: usize = 5;

impl Counter {
    /// Every counter, in emission order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::States,
        Counter::Transitions,
        Counter::Expansions,
        Counter::Revisits,
        Counter::Depth,
    ];

    /// Stable snake_case name used in NDJSON progress events.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::States => "states",
            Counter::Transitions => "transitions",
            Counter::Expansions => "expansions",
            Counter::Revisits => "revisits",
            Counter::Depth => "depth",
        }
    }

    const fn index(self) -> usize {
        match self {
            Counter::States => 0,
            Counter::Transitions => 1,
            Counter::Expansions => 2,
            Counter::Revisits => 3,
            Counter::Depth => 4,
        }
    }
}

/// A log₂-bucket histogram of the registry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Histogram {
    /// Orbit sizes observed by the symmetry reduction.
    OrbitSize,
    /// Sizes of the instance sets the partial-order reducer selected.
    StubbornSetSize,
    /// Number of states per BFS level.
    LevelWidth,
    /// Bytes per spilled frontier segment.
    SpillSegmentBytes,
    /// Frontier entries per BFS work chunk (how full each chunk ran).
    BatchOccupancy,
}

/// Number of histograms in [`Histogram::ALL`].
pub(crate) const HISTOGRAM_COUNT: usize = 5;

impl Histogram {
    /// Every histogram, in emission order.
    pub const ALL: [Histogram; HISTOGRAM_COUNT] = [
        Histogram::OrbitSize,
        Histogram::StubbornSetSize,
        Histogram::LevelWidth,
        Histogram::SpillSegmentBytes,
        Histogram::BatchOccupancy,
    ];

    /// Stable snake_case name used in NDJSON phase-summary fields
    /// (`<name>_count`, `<name>_sum`, `<name>_max`, `<name>_buckets`).
    pub const fn name(self) -> &'static str {
        match self {
            Histogram::OrbitSize => "orbit_size",
            Histogram::StubbornSetSize => "stubborn_set_size",
            Histogram::LevelWidth => "level_width",
            Histogram::SpillSegmentBytes => "spill_segment_bytes",
            Histogram::BatchOccupancy => "batch_occupancy",
        }
    }

    pub(crate) const fn index(self) -> usize {
        match self {
            Histogram::OrbitSize => 0,
            Histogram::StubbornSetSize => 1,
            Histogram::LevelWidth => 2,
            Histogram::SpillSegmentBytes => 3,
            Histogram::BatchOccupancy => 4,
        }
    }
}

/// A gauge of the registry: an instantaneous figure the engines *sample*
/// (as opposed to the monotone [`Counter`]s they bump). Each gauge is
/// folded in with `fetch_max`, so what the snapshot reports is the
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
        match self {
            Gauge::StoreBytes => 0,
            Gauge::FrontierBytes => 1,
            Gauge::ParentLogBytes => 2,
            Gauge::CanonicalCacheBytes => 3,
            Gauge::WorkerBusyUs => 4,
        }
    }
}

/// Number of log₂ buckets per histogram: bucket 0 holds the value 0,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the last bucket
/// absorbs everything above.
pub(crate) const BUCKETS: usize = 33;

/// Maps a value to its log₂ bucket.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Smallest value that lands in bucket `index` (the label the summary
/// string uses).
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Sample count per log₂ bucket.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSummary {
    fn default() -> Self {
        HistogramSummary {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSummary {
    /// Compact `lower_bound:count` rendering of the non-empty buckets
    /// (e.g. `"1:3,2:5,4:1"`), used in the NDJSON `<name>_buckets` field.
    pub(crate) fn buckets_compact(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", bucket_lower_bound(i), n));
        }
        out
    }
}

/// Point-in-time snapshot of a run's whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values, indexed like [`Counter::ALL`].
    pub counters: [u64; COUNTER_COUNT],
    /// Accumulated per-phase wall-clock.
    pub phases: PhaseTimes,
    /// Histogram summaries, indexed like [`Histogram::ALL`].
    pub histograms: [HistogramSummary; HISTOGRAM_COUNT],
    /// Peak gauge values, indexed like [`Gauge::ALL`].
    pub gauges: [u64; GAUGE_COUNT],
}

impl Snapshot {
    /// Value of `counter` in this snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Peak value of `gauge` in this snapshot.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()]
    }

    /// Summary of `histogram` in this snapshot.
    pub fn histogram(&self, histogram: Histogram) -> &HistogramSummary {
        &self.histograms[histogram.index()]
    }
}

/// The shared atomic registry of one traced run.
pub(crate) struct Registry {
    counters: [AtomicU64; COUNTER_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    hist_buckets: [[AtomicU64; BUCKETS]; HISTOGRAM_COUNT],
    hist_count: [AtomicU64; HISTOGRAM_COUNT],
    hist_sum: [AtomicU64; HISTOGRAM_COUNT],
    hist_max: [AtomicU64; HISTOGRAM_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            hist_count: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_sum: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_max: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn add(&self, counter: Counter, n: u64) {
        let cell = &self.counters[counter.index()];
        match counter {
            Counter::Depth => {
                cell.fetch_max(n, Ordering::Relaxed);
            }
            _ => {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record(&self, histogram: Histogram, value: u64) {
        let h = histogram.index();
        self.hist_buckets[h][bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.hist_count[h].fetch_add(1, Ordering::Relaxed);
        self.hist_sum[h].fetch_add(value, Ordering::Relaxed);
        self.hist_max[h].fetch_max(value, Ordering::Relaxed);
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

    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            phases: self.phase_times(),
            histograms: std::array::from_fn(|h| HistogramSummary {
                count: self.hist_count[h].load(Ordering::Relaxed),
                sum: self.hist_sum[h].load(Ordering::Relaxed),
                max: self.hist_max[h].load(Ordering::Relaxed),
                buckets: std::array::from_fn(|b| self.hist_buckets[h][b].load(Ordering::Relaxed)),
            }),
            gauges: std::array::from_fn(|g| self.gauges[g].load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 is the value 0; bucket i ≥ 1 spans [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for i in 1..BUCKETS - 1 {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(lb * 2 - 1), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(lb * 2), i + 1, "first value past bucket {i}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_max_and_buckets() {
        let r = Registry::new();
        for v in [0, 1, 2, 3, 8] {
            r.record(Histogram::OrbitSize, v);
        }
        let s = r.snapshot();
        let h = s.histogram(Histogram::OrbitSize);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 14);
        assert_eq!(h.max, 8);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets_compact(), "0:1,1:1,2:2,8:1");
    }

    #[test]
    fn gauges_keep_their_peak() {
        let r = Registry::new();
        r.sample_gauge(Gauge::StoreBytes, 100);
        r.sample_gauge(Gauge::StoreBytes, 4096);
        r.sample_gauge(Gauge::StoreBytes, 512);
        let s = r.snapshot();
        assert_eq!(s.gauge(Gauge::StoreBytes), 4096);
        assert_eq!(s.gauge(Gauge::FrontierBytes), 0);
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
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::Depth), 7);
        assert_eq!(s.counter(Counter::States), 4);
    }

    #[test]
    fn registry_sums_exactly_across_threads() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        r.add(Counter::Transitions, 1);
                        r.record(Histogram::LevelWidth, i % 17);
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::Transitions), 4000);
        assert_eq!(s.histogram(Histogram::LevelWidth).count, 4000);
    }
}
