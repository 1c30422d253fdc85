//! The fixed phase taxonomy of a model-checking run.
//!
//! Every span opened through [`crate::TraceHandle::span`] is attributed to
//! one of the phases below; the accumulated wall-clock per phase is what the
//! `phase_summary` NDJSON event and the harness's `phase_<name>_us` bench
//! fields report. The set is closed on purpose: a fixed enum keeps the accumulator
//! a plain array of atomics (no string interning, no hashing on the hot
//! path) and keeps every consumer — engines, bench gate, validator — in
//! agreement about what exists.

use std::time::Duration;

/// A phase of a model-checking run that spans are attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Computing enabled instances, executing transitions and updating
    /// observers — the raw successor-generation work.
    Expansion,
    /// Visited-store membership tests and inserts.
    StoreLookup,
    /// Canonicalizing `(state, observer)` pairs under a symmetry group.
    Canonicalize,
    /// Encoding frontier entries for the disk-backed frontier.
    FrontierEncode,
    /// Decoding frontier entries read back from spill segments.
    FrontierDecode,
    /// Spill-file reads and writes of the disk frontier and spill log.
    SpillIo,
    /// Stubborn-set computation inside the partial-order reducer, and
    /// DPOR's on-the-fly one (its race check and scheduling).
    StubbornSet,
    /// The Tarjan SCC backstop pass of the liveness engine.
    SccBackstop,
    /// Merging sorted fingerprint runs of the external-memory visited store.
    RunMerge,
}

/// Number of phases in [`Phase::ALL`].
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// Every phase, in emission order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Expansion,
        Phase::StoreLookup,
        Phase::Canonicalize,
        Phase::FrontierEncode,
        Phase::FrontierDecode,
        Phase::SpillIo,
        Phase::StubbornSet,
        Phase::SccBackstop,
        Phase::RunMerge,
    ];

    /// Stable snake_case name used in NDJSON fields (`<name>_us`) and the
    /// harness's bench rows (`phase_<name>_ms`).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Expansion => "expansion",
            Phase::StoreLookup => "store_lookup",
            Phase::Canonicalize => "canonicalize",
            Phase::FrontierEncode => "frontier_encode",
            Phase::FrontierDecode => "frontier_decode",
            Phase::SpillIo => "spill_io",
            Phase::StubbornSet => "stubborn_set",
            Phase::SccBackstop => "scc_backstop",
            Phase::RunMerge => "run_merge",
        }
    }

    /// Index into per-phase accumulator arrays.
    pub(crate) const fn index(self) -> usize {
        match self {
            Phase::Expansion => 0,
            Phase::StoreLookup => 1,
            Phase::Canonicalize => 2,
            Phase::FrontierEncode => 3,
            Phase::FrontierDecode => 4,
            Phase::SpillIo => 5,
            Phase::StubbornSet => 6,
            Phase::SccBackstop => 7,
            Phase::RunMerge => 8,
        }
    }
}

/// Accumulated wall-clock per [`Phase`], as copied out of a run's registry.
///
/// Phases time *sections* of a run, not a partition of it: untimed work
/// (property evaluation, bookkeeping) belongs to no phase, and a run with
/// tracing disabled reports all zeros. Equality compares the recorded
/// nanosecond totals, which makes the type usable inside comparable
/// snapshots — but two repetitions of the same run will of course differ,
/// which is why the harness treats phase fields as noisy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; PHASE_COUNT],
}

impl PhaseTimes {
    /// All-zero phase times (what a disabled tracer reports).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from raw per-phase nanosecond totals (indexed like
    /// [`Phase::ALL`]). Mostly useful for constructing fixtures in tests
    /// of code that consumes phase breakdowns.
    pub fn from_nanos(nanos: [u64; PHASE_COUNT]) -> Self {
        PhaseTimes { nanos }
    }

    /// Nanoseconds accumulated in `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// The accumulated time of `phase` as a [`Duration`].
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos(phase))
    }

    /// Whole milliseconds accumulated in `phase` (the bench-row resolution).
    pub fn millis(&self, phase: Phase) -> u64 {
        self.nanos(phase) / 1_000_000
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// `true` when nothing was recorded (tracing disabled, or a run that
    /// never entered a timed section).
    pub fn is_zero(&self) -> bool {
        self.nanos.iter().all(|n| *n == 0)
    }

    /// Iterates `(phase, accumulated time)` pairs in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, Duration)> + '_ {
        Phase::ALL.iter().map(|p| (*p, self.get(*p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
        for name in names {
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn indices_cover_the_array() {
        let mut seen = [false; PHASE_COUNT];
        for p in Phase::ALL {
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn times_accumulate_and_total() {
        let mut nanos = [0u64; PHASE_COUNT];
        nanos[Phase::Expansion.index()] = 2_000_000;
        nanos[Phase::SpillIo.index()] = 500_000;
        let t = PhaseTimes::from_nanos(nanos);
        assert_eq!(t.millis(Phase::Expansion), 2);
        assert_eq!(t.get(Phase::SpillIo), Duration::from_micros(500));
        assert_eq!(t.total(), Duration::from_nanos(2_500_000));
        assert!(!t.is_zero());
        assert!(PhaseTimes::new().is_zero());
    }
}
