//! What a child process does with one cell: check it (timed or traced),
//! probe its layers, count its states with the engine-free reference
//! search, or time its set-up.

use std::fs::File;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mp_checker::{Checker, CheckerConfig, Observer, SearchStrategy, Tracer, Verdict};
use mp_model::{LocalState, Message, Permutable};
use mp_trace::Phase;

use crate::env;
use crate::json::Json;
use crate::stats::median;
use crate::workloads::Cell;
use crate::{naive, probes};

/// One unit of child work.
pub enum Job {
    /// One `Checker::run()`. With `trace`, the engine's tracer writes its
    /// NDJSON there and the result carries the phase times. `plain` swaps
    /// the cell's strategy for the engine's simplest one — unreduced BFS,
    /// exact store, no symmetry — which `derive-answers` holds against the
    /// reference search.
    Check { trace: Option<PathBuf>, plain: bool },
    /// Time the public functions of every layer on the cell's path over a
    /// seeded sample of reachable states.
    Probe {
        workload: String,
        seed: u64,
        sample: usize,
        spans: PathBuf,
    },
    /// The reference count: plain BFS over `mp_model::successors` and a
    /// std `HashSet`, giving up beyond `max_states`.
    Naive { max_states: usize },
    /// Everything a check does before `Checker::run()`, over and over for
    /// `seconds`: the median time of one set-up, at a reference clock.
    Setup { seconds: f64 },
}

/// `build` makes the cell from nothing; every job but `Setup` calls it once.
pub fn execute<S, M, O>(
    build: impl Fn() -> Cell<S, M, O>,
    job: &Job,
    started: Instant,
) -> Result<Json, String>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    match job {
        Job::Check { trace, plain } => {
            let cell = if *plain { plain_bfs(build()) } else { build() };
            check(cell, trace.as_ref(), started)
        }
        Job::Probe {
            workload,
            seed,
            sample,
            spans,
        } => probes::probe(&build(), workload, *seed, *sample, spans),
        Job::Naive { max_states } => Ok(naive::count(&build(), *max_states)),
        Job::Setup { seconds } => Ok(setup(build, *seconds)),
    }
}

/// The checker of `cell`, ready to run: reduction, symmetry and engine
/// configuration applied.
fn checker<S, M, O>(cell: &Cell<S, M, O>, config: CheckerConfig) -> Checker<'_, S, M, O>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    let mut checker =
        Checker::with_observer(&cell.spec, cell.property.clone(), cell.observer.clone());
    if cell.spor {
        checker = checker.spor();
    }
    if let Some(roles) = &cell.roles {
        checker = checker.with_role_symmetry(roles);
    }
    checker.config(config)
}

/// Rounds of the spin a set-up pass is measured against.
const SPIN_ROUNDS: u32 = 4096;

/// What one spin counts as: its usual time on the box this was built on
/// (5.9 to 7.5 µs there, about 3.5 GHz).
const SPIN_REFERENCE_S: f64 = 7e-6;

/// A fixed chain of dependent register operations (xorshift rounds): the
/// same number of core cycles every time, so its duration reads the clock
/// speed of the moment.
fn spin() -> Duration {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..SPIN_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed()
}

/// Sets the check up again and again — spec build, fault injection,
/// stubborn-set precomputation, symmetry-group validation — and times each
/// pass against a spin taken just before it. A pass is tens of microseconds
/// of cache-resident work, so its time follows the core clock, which on a
/// shared host changes by a quarter for minutes at a time; the ratio to the
/// spin does not. Reported is the median ratio times [`SPIN_REFERENCE_S`]:
/// the set-up time at the reference clock. The first third of `seconds`
/// only warms up; the rest holds thousands of samples.
fn setup<S, M, O>(build: impl Fn() -> Cell<S, M, O>, seconds: f64) -> Json
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    let begun = Instant::now();
    let warm = Duration::from_secs_f64(seconds / 3.0);
    let end = Duration::from_secs_f64(seconds);
    let (mut ratios, mut spins) = (Vec::new(), Vec::new());
    loop {
        let spin = spin().as_secs_f64();
        let start = Instant::now();
        let cell = build();
        let ready = checker(&cell, cell.config.clone());
        black_box(&ready);
        let pass = start.elapsed().as_secs_f64();
        drop(ready);
        if begun.elapsed() >= warm {
            ratios.push(pass / spin);
            spins.push(spin);
        }
        if begun.elapsed() >= end {
            break;
        }
    }
    Json::obj()
        .set("setup_s", median(&ratios) * SPIN_REFERENCE_S)
        .set("spin_s", median(&spins))
        .set("samples", ratios.len())
}

fn plain_bfs<S, M: Ord, O>(mut cell: Cell<S, M, O>) -> Cell<S, M, O> {
    cell.spor = false;
    cell.roles = None;
    cell.config = CheckerConfig::stateful_bfs();
    cell
}

fn check<S, M, O>(
    cell: Cell<S, M, O>,
    trace: Option<&PathBuf>,
    started: Instant,
) -> Result<Json, String>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    let mut config = cell.config.clone();
    if let Some(path) = trace {
        let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        config = config.with_trace(Tracer::to_writer(false, Box::new(BufWriter::new(file))));
    }
    let stateless = matches!(config.strategy, SearchStrategy::Stateless { .. });

    let checker = checker(&cell, config);
    // What this one process paid before the search, cold.
    let mut out = Json::obj().set("cold_setup_s", started.elapsed().as_secs_f64());

    let run_started = Instant::now();
    let report = checker.run();
    let wall_s = run_started.elapsed().as_secs_f64();
    drop(checker);

    let stats = &report.stats;
    let (verdict, ce_len, lasso) = match &report.verdict {
        Verdict::Verified => ("verified", None, false),
        Verdict::Violated(cx) => ("violated", Some(cx.len()), cx.is_lasso),
        Verdict::LimitReached { .. } => ("limit", None, false),
    };
    out.insert("verdict", verdict);
    out.insert("verdict_text", report.verdict.to_string());
    out.insert("ce_len", ce_len);
    out.insert("lasso", lasso);
    // The paper's "States" column: stored states, or tree nodes for the
    // stateless search, which stores nothing.
    out.insert(
        "states",
        if stateless {
            stats.expansions
        } else {
            stats.states
        },
    );
    out.insert("transitions", stats.transitions_executed);
    out.insert("depth", stats.max_depth);
    out.insert("reduced_states", stats.reduced_states);
    out.insert("expansions", stats.expansions);
    out.insert("wall_s", wall_s);
    out.insert("strategy", report.strategy.clone());
    out.insert("plain_cell", cell.plain_cell);
    out.insert("worker_threads", stats.worker_threads);
    out.insert("worker_spawns", stats.worker_spawns);
    if !stateless {
        out.insert("store_backend", stats.store_backend.clone());
        out.insert("store_hits", stats.store_hits);
        out.insert("store_bytes", stats.store_bytes);
        out.insert("frontier_peak_bytes", stats.frontier_peak_bytes);
    }
    out.insert(
        "spill_bytes",
        stats.store_spilled_bytes + stats.store_merge_bytes + stats.frontier_spilled_bytes,
    );
    if trace.is_some() {
        let mut phases = Json::obj();
        for phase in Phase::ALL {
            phases.insert(phase.name(), stats.phases.get(phase).as_secs_f64());
        }
        out.insert("phases", phases);
    }
    // Read last: the high-water mark then covers the whole run.
    out.insert("peak_rss_bytes", env::peak_rss_bytes());
    Ok(out)
}
