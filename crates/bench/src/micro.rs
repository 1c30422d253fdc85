//! A tiny, dependency-free timing harness for the `harness = false`
//! benches (a Criterion stand-in that works offline).
//!
//! Usage mirrors Criterion's group API closely enough that the benches read
//! the same:
//!
//! ```
//! use mp_bench::micro::Group;
//! let mut group = Group::new("demo");
//! group.sample_size(5);
//! group.bench("add", || std::hint::black_box(2 + 2));
//! group.finish();
//! ```

use std::time::{Duration, Instant};

/// A named group of benchmarks, printed as one block of aligned rows.
pub struct Group {
    name: String,
    samples: usize,
    ops: u32,
    rows: Vec<(String, Duration, Duration, Duration)>,
}

impl Group {
    /// Creates a group with the default of 10 samples per benchmark.
    pub fn new(name: impl Into<String>) -> Self {
        Group {
            name: name.into(),
            samples: 10,
            ops: 1,
            rows: Vec::new(),
        }
    }

    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Declares that each following benchmark closure performs `ops`
    /// operations; its row then reads time per operation.
    pub fn per_op(&mut self, ops: usize) -> &mut Self {
        self.ops = u32::try_from(ops.max(1)).expect("operation count fits u32");
        self
    }

    /// Runs `f` once for warm-up and `samples` timed times, recording
    /// min/mean/max. The closure's result is passed through
    /// [`std::hint::black_box`] so the work is not optimised away.
    pub fn bench<T>(&mut self, label: impl Into<String>, mut f: impl FnMut() -> T) -> &mut Self {
        std::hint::black_box(f());
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(f());
            let elapsed = start.elapsed() / self.ops;
            min = min.min(elapsed);
            max = max.max(elapsed);
            total += elapsed;
        }
        let mean = total / self.samples as u32;
        self.rows.push((label.into(), min, mean, max));
        self
    }

    /// Prints the group's rows. Called automatically on drop if forgotten.
    pub fn finish(&mut self) {
        if self.rows.is_empty() {
            return;
        }
        let width = self.rows.iter().map(|(l, ..)| l.len()).max().unwrap_or(0);
        println!("{} ({} samples)", self.name, self.samples);
        for (label, min, mean, max) in self.rows.drain(..) {
            println!(
                "  {label:<width$}  min {:>10}  mean {:>10}  max {:>10}",
                fmt_duration(min),
                fmt_duration(mean),
                fmt_duration(max),
            );
        }
        println!();
    }
}

impl Drop for Group {
    fn drop(&mut self) {
        self.finish();
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_a_row_per_call() {
        let mut group = Group::new("test");
        group.sample_size(2);
        group.bench("a", || 1 + 1).bench("b", || 2 + 2);
        assert_eq!(group.rows.len(), 2);
        assert!(group
            .rows
            .iter()
            .all(|(_, min, mean, max)| min <= mean && mean <= max));
        group.finish();
        assert!(group.rows.is_empty());
    }

    #[test]
    fn durations_format_with_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
