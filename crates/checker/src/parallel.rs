//! Level-synchronous parallel breadth-first search over a persistent
//! work-stealing worker pool (extension).
//!
//! The paper's engines are single-threaded (a JPF limitation); this engine
//! is an extension showing that the protocol-level models of `mp-model`
//! parallelise naturally. The visited set is a shared `mp-store` backend,
//! selected by [`CheckerConfig::store`] with one twist: the plain exact
//! store would serialise every worker on its single mutex, so
//! [`StoreConfig::for_parallel`](mp_store::StoreConfig::for_parallel)
//! upgrades it to the lock-striped sharded store — there is **no global
//! mutex on the visited set**. A fingerprint store can be selected
//! explicitly for large runs (probabilistic `Verified`; see the `mp-store`
//! docs).
//!
//! # Pool lifecycle
//!
//! Exactly `threads` OS workers are spawned **once per run** and live for
//! the whole search (the spawn count is reported in
//! [`ExplorationStats::worker_spawns`] and asserted by a test). Earlier
//! revisions re-spawned a scoped thread set for every batch of every level;
//! at paper scale that paid a spawn/join barrier thousands of times per
//! run. The coordinator (the calling thread) keeps sole ownership of the
//! frontier — [`FrontierBackend`] is a `&mut self` API — and feeds the pool
//! through per-worker deques.
//!
//! # Stealing protocol
//!
//! Each worker owns a deque of work chunks. The coordinator deals the
//! chunks of a batch round-robin across the deques; a worker pops from the
//! *front* of its own deque and, when that is empty, scans the other
//! workers and steals from the *back* of the first non-empty victim (one
//! [`Counter::Steals`] bump per stolen chunk). A worker that finds nothing
//! anywhere parks on a condvar until the coordinator deals more work or
//! shuts the pool down. Two amortizations ride on the chunk granularity:
//! each worker buffers its first-visit successors thread-locally and
//! flushes them to the coordinator in one block per chunk, and successor
//! canonicalization is batched — one [`Phase::Canonicalize`] span (and one
//! [`Phase::StoreLookup`] span) covers a whole chunk's run of successors
//! instead of one span pair per successor.
//!
//! # Termination detection
//!
//! Termination is detected at level boundaries: the coordinator counts the
//! chunks it dealt (`outstanding`), workers count them back down as they
//! finish, and a level is complete exactly when the frontier's current
//! level is drained *and* `outstanding` is zero. Only then does the
//! coordinator advance the frontier level, so exploration remains strictly
//! level-synchronous — verdicts, state counts and peak depth are identical
//! to the sequential BFS. With the disk frontier selected (`+spill`
//! strategy suffix) only the in-flight chunks plus the spill watermark are
//! resident at a time, because flushed successor blocks stream into the
//! (spilling) next level as the coordinator receives them.
//!
//! Symmetry composes the same way as in the sequential engine: entries
//! carry canonical representatives plus δ, and workers reconstruct the
//! concrete state before expanding. The engine checks invariants and
//! counts states; it does not reconstruct counterexample *paths* — the
//! violating state is reported with the depth and store size at violation
//! time — so the sequential engines remain the right tool for debugging
//! runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mp_store::{
    canonical_label, manifest_exists, CheckpointWriter, FrontierBackend, ItemCodec, Manifest,
    StateStoreBackend,
};

use mp_model::{
    enabled_instances, execute_enabled, GlobalState, LocalState, Message, ProtocolSpec,
};
use mp_por::Reducer;
use mp_symmetry::Symmetry;
use mp_trace::{Counter, Gauge, Histogram, Phase, TraceHandle};

use crate::{
    bfs::{Entry, EntryCodec},
    liveness::run_liveness_dfs,
    obs::LevelObserver,
    CheckerConfig, Counterexample, ExplorationStats, Observer, Property, PropertyStatus, RunReport,
    Verdict,
};

/// Upper bound on a blind park. The condvar protocol below has no lost
/// wakeups by construction (every producer notifies while holding the same
/// mutex the waiter re-checks under), so this timeout never matters for
/// progress — it is a belt-and-braces guard that turns any future protocol
/// bug into a bounded slowdown instead of a hung CI job.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Locks a mutex, ignoring poisoning. Every mutex in the pool guards plain
/// collections that stay structurally valid if a worker panics mid-run; by
/// not re-panicking here the coordinator can still drain the pool and let
/// the thread scope propagate the original panic instead of deadlocking.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared coordination state of the persistent worker pool. One instance
/// lives on the coordinator's stack for the duration of a run; workers
/// reach it by reference through the thread scope.
struct Pool<T> {
    /// One work deque per worker: the owner pops from the front, thieves
    /// pop from the back (so a steal takes the chunk the owner would reach
    /// last).
    queues: Vec<Mutex<VecDeque<Vec<T>>>>,
    /// Chunks currently sitting in deques. Announced *before* the deque
    /// push and decremented only after a successful pop, so the count never
    /// underflows; a worker that reads a stale positive value simply
    /// rescans.
    queued: AtomicUsize,
    /// Chunks dealt to the pool and not yet fully expanded. The
    /// coordinator's level-boundary termination test is `queued == 0` on
    /// the frontier side plus `outstanding == 0` here.
    outstanding: AtomicUsize,
    /// Workers park here when every deque is empty.
    idle: Mutex<()>,
    idle_cvar: Condvar,
    /// First-visit successor blocks flushed by workers, awaiting the
    /// coordinator (which alone may touch the frontier).
    discovered: Mutex<Vec<T>>,
    /// Entries buffered in `discovered` (updated under its lock; read
    /// lock-free by the coordinator to skip a needless lock).
    ready: AtomicUsize,
    /// The coordinator parks here waiting for flushes or completions.
    progress: Mutex<()>,
    progress_cvar: Condvar,
    /// Run-over flag: workers exit their take loop once the deques drain.
    shutdown: AtomicBool,
    /// OS threads actually started — the one-spawn-per-run contract made
    /// observable (surfaces as [`ExplorationStats::worker_spawns`]).
    spawned: AtomicUsize,
}

impl<T> Pool<T> {
    fn new(workers: usize) -> Self {
        Pool {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cvar: Condvar::new(),
            discovered: Mutex::new(Vec::new()),
            ready: AtomicUsize::new(0),
            progress: Mutex::new(()),
            progress_cvar: Condvar::new(),
            shutdown: AtomicBool::new(false),
            spawned: AtomicUsize::new(0),
        }
    }

    /// Deals one chunk into `worker`'s deque and wakes a parked worker.
    fn submit(&self, worker: usize, chunk: Vec<T>) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.queued.fetch_add(1, Ordering::SeqCst);
        lock(&self.queues[worker]).push_back(chunk);
        // Notify while holding the idle mutex: a worker that re-checked
        // `queued` under this mutex and decided to wait cannot miss this.
        let _guard = lock(&self.idle);
        self.idle_cvar.notify_one();
    }

    /// Takes the next chunk for `worker`: its own deque first, then a steal
    /// sweep over the victims, then a park. Returns the chunk plus whether
    /// it was stolen; `None` once the pool is shut down and drained.
    fn take(&self, worker: usize) -> Option<(Vec<T>, bool)> {
        loop {
            if let Some(chunk) = lock(&self.queues[worker]).pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some((chunk, false));
            }
            for offset in 1..self.queues.len() {
                let victim = (worker + offset) % self.queues.len();
                if let Some(chunk) = lock(&self.queues[victim]).pop_back() {
                    self.queued.fetch_sub(1, Ordering::SeqCst);
                    return Some((chunk, true));
                }
            }
            let guard = lock(&self.idle);
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if self.queued.load(Ordering::SeqCst) == 0 {
                let _ = self.idle_cvar.wait_timeout(guard, PARK_TIMEOUT);
            }
        }
    }

    /// Flushes a worker's thread-local block of first-visit successors to
    /// the coordinator.
    fn flush(&self, block: &mut Vec<T>) {
        if block.is_empty() {
            return;
        }
        let mut buffer = lock(&self.discovered);
        self.ready.fetch_add(block.len(), Ordering::SeqCst);
        buffer.append(block);
        drop(buffer);
        let _guard = lock(&self.progress);
        self.progress_cvar.notify_all();
    }

    /// Takes every successor entry flushed so far (coordinator side).
    fn drain_ready(&self) -> Vec<T> {
        if self.ready.load(Ordering::SeqCst) == 0 {
            return Vec::new();
        }
        let mut buffer = lock(&self.discovered);
        self.ready.store(0, Ordering::SeqCst);
        std::mem::take(&mut *buffer)
    }

    /// Parks the coordinator until a worker flushes successors or finishes
    /// a chunk (bounded by [`PARK_TIMEOUT`]).
    fn wait_progress(&self) {
        let guard = lock(&self.progress);
        if self.outstanding.load(Ordering::SeqCst) != 0 && self.ready.load(Ordering::SeqCst) == 0 {
            let _ = self.progress_cvar.wait_timeout(guard, PARK_TIMEOUT);
        }
    }

    /// Shuts the pool down: workers finish any chunks still queued, then
    /// their take loops return `None`.
    fn finish(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = lock(&self.idle);
        self.idle_cvar.notify_all();
    }
}

/// Decrements `outstanding` and wakes the coordinator when dropped — a
/// drop guard so a panicking worker still counts its chunk back down and
/// the coordinator drains instead of waiting forever (the panic itself is
/// re-raised by the thread scope's join).
struct Completion<'a, T>(&'a Pool<T>);

impl<T> Drop for Completion<'_, T> {
    fn drop(&mut self) {
        self.0.outstanding.fetch_sub(1, Ordering::SeqCst);
        let _guard = lock(&self.0.progress);
        self.0.progress_cvar.notify_all();
    }
}

/// Shuts the pool down when dropped, so a coordinator panic (a frontier
/// I/O failure, say) releases the workers and the scope can join instead
/// of deadlocking.
struct FinishOnDrop<'a, T>(&'a Pool<T>);

impl<T> Drop for FinishOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// Canonicalizes and keys one chunk's worth of freshly generated
/// successors. This is the batched half of the pool's amortization: a
/// single [`Phase::Canonicalize`] span covers the whole run of successors
/// (the sequential engines open one per successor) and a single
/// [`Phase::StoreLookup`] span covers the insert sweep. First-visit
/// entries are appended to `block` carrying the canonical representative
/// plus δ; `pending` is left empty for the next chunk.
fn insert_chunk_successors<S, M, O>(
    trivial: bool,
    symmetry: &dyn Symmetry<S, M, O>,
    store: &mp_store::StoreImpl<(GlobalState<S, M>, O)>,
    trace: &TraceHandle,
    pending: &mut Vec<(GlobalState<S, M>, O)>,
    block: &mut Vec<Entry<S, M, O>>,
) where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    if pending.is_empty() {
        return;
    }
    if trivial {
        let _lookup = trace.span(Phase::StoreLookup);
        for concrete in pending.drain(..) {
            if store.insert_ref(&concrete) {
                trace.add(Counter::States, 1);
                block.push((0, 0, concrete.0, concrete.1));
            } else {
                trace.add(Counter::Revisits, 1);
            }
        }
        return;
    }
    let keys: Vec<(GlobalState<S, M>, O, usize)> = {
        let _span = trace.span(Phase::Canonicalize);
        pending
            .iter()
            .map(|(state, observer)| symmetry.canonicalize(state, observer))
            .collect()
    };
    if trace.is_enabled() {
        // Same orbit accounting `canonicalize_traced` would have done,
        // kept off the untraced path because it costs an extra group sweep.
        for (state, observer) in pending.iter() {
            trace.record(
                Histogram::OrbitSize,
                symmetry.orbit_size(state, observer) as u64,
            );
        }
    }
    pending.clear();
    let _lookup = trace.span(Phase::StoreLookup);
    for (canonical_state, canonical_observer, delta) in keys {
        let key = (canonical_state, canonical_observer);
        if store.insert_ref(&key) {
            trace.add(Counter::States, 1);
            block.push((0, delta, key.0, key.1));
        } else {
            trace.add(Counter::Revisits, 1);
        }
    }
}

/// Runs a parallel breadth-first search over `threads` workers
/// (0 = available parallelism).
///
/// Dispatches on the property class: safety properties run the pooled
/// level-synchronous search below (see the module docs for the pool
/// lifecycle, stealing protocol and termination detection). Liveness
/// properties need a cycle-capable search, which a level-synchronous
/// frontier cannot provide, so they are routed to the (sequential)
/// fairness-aware liveness DFS of [`crate::liveness`] — the report's
/// strategy label says so.
///
/// With a non-trivial [`Symmetry`], workers canonicalize each successor
/// once (batched per chunk); the canonical pair is both the shared-store
/// key and the frontier payload (alongside δ), so only one member per
/// orbit enters the next level and frontier bytes shrink with the orbit
/// collapse.
pub fn run_parallel_bfs<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    reducer: &dyn Reducer<S, M>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    threads: usize,
    config: &CheckerConfig,
) -> RunReport
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    if property.is_liveness() {
        return run_liveness_dfs(spec, property, initial_observer, reducer, symmetry, config);
    }
    let property = property
        .as_safety()
        .expect("a non-liveness property is a safety invariant");
    let start = Instant::now();
    let mut stats = ExplorationStats::new();
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    stats.worker_threads = threads;
    let trivial = symmetry.is_trivial();
    let mut strategy = format!("parallel-bfs({threads})+{}", reducer.name());
    if !trivial {
        strategy.push('+');
        strategy.push_str(&symmetry.label());
    }
    if config.frontier.spills() {
        strategy.push_str("+spill");
    }
    let trace = config
        .trace
        .begin_run(spec.name(), &strategy, property.name());

    let initial = spec.initial_state();
    let initial_observer = initial_observer.clone();

    // Like the sequential BFS, keys are canonicalized once per successor
    // (inside the workers) before they reach the lock-striped store.
    let store = config
        .store
        .for_parallel()
        .build::<(GlobalState<S, M>, O)>();
    let store_name = if trivial {
        store.name()
    } else {
        canonical_label(store.name())
    };
    let mut frontier = config.frontier.build(EntryCodec {
        template: initial_observer.clone(),
    });
    frontier.set_trace(trace.handle());

    // Checkpoint identity mirrors the sequential BFS: protocol structure,
    // the full strategy label and the semantic configuration fields. The
    // strategy label embeds the worker count, so a resume under a different
    // thread count (or engine, reducer, symmetry) is refused.
    let spec_fp = spec.structure_fingerprint();
    let identity = format!(
        "{} sym={}",
        config.checkpoint_identity(),
        if trivial {
            "off".to_string()
        } else {
            symmetry.label()
        }
    );
    let every = config
        .checkpoint
        .as_ref()
        .map(|c| c.every_levels.max(1))
        .unwrap_or(1);
    let entry_codec = EntryCodec {
        template: initial_observer.clone(),
    };
    let mut ckpt: Option<CheckpointWriter> = None;
    let mut scratch: Vec<u8> = Vec::new();
    // Committed counter totals from a resumed manifest. The worker-side
    // atomics restart at zero on a resume, so the finalization below adds
    // these bases back in.
    let mut expansions_base = 0usize;
    let mut transitions_base = 0usize;
    let mut reduced_base = 0usize;
    let mut revisits_base = 0usize;

    let violation: Mutex<Option<Counterexample>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let transitions_executed = AtomicUsize::new(0);
    let reduced_states = AtomicUsize::new(0);
    let expansions = AtomicUsize::new(0);
    // The BFS level currently being expanded, mirrored for the workers so
    // a violation report can say how deep it was found.
    let depth_now = AtomicUsize::new(0);
    let mut depth = 0usize;

    macro_rules! ckpt_write {
        ($result:expr) => {
            $result.unwrap_or_else(|e| panic!("checkpoint write failed: {e}"))
        };
    }
    // At a level boundary the pool is idle, so the cumulative store and
    // atomic counter reads below are stable snapshots. This engine does no
    // path reconstruction and no proviso accounting, hence the fixed zero.
    macro_rules! ckpt_counters {
        () => {
            [
                ("states", store.len() as u64),
                (
                    "expansions",
                    (expansions_base + expansions.load(Ordering::SeqCst)) as u64,
                ),
                (
                    "transitions",
                    (transitions_base + transitions_executed.load(Ordering::SeqCst)) as u64,
                ),
                ("revisits", (revisits_base + store.stats().hits) as u64),
                (
                    "reduced_states",
                    (reduced_base + reduced_states.load(Ordering::SeqCst)) as u64,
                ),
                ("proviso_expansions", 0u64),
                ("max_depth", depth as u64),
            ]
        };
    }

    let resume_manifest = match &config.checkpoint {
        Some(c) if manifest_exists(&c.dir) => {
            let manifest = Manifest::load(&c.dir)
                .unwrap_or_else(|e| panic!("checkpoint manifest in {}: {e}", c.dir.display()));
            manifest
                .validate(spec_fp, &strategy, &identity)
                .unwrap_or_else(|e| panic!("refusing to resume from {}: {e}", c.dir.display()));
            Some(manifest)
        }
        _ => None,
    };

    if let Some(manifest) = &resume_manifest {
        let dir = &config
            .checkpoint
            .as_ref()
            .expect("a resume manifest implies a checkpoint config")
            .dir;
        // Rebuild the visited set from every committed level; the last one
        // also re-seeds the frontier, exactly as the original run left it.
        for level in 0..=manifest.level {
            let raws = manifest
                .read_level(dir, level)
                .unwrap_or_else(|e| panic!("checkpoint in {}: {e}", dir.display()));
            let last = level == manifest.level;
            for raw in raws {
                let mut input = raw.as_slice();
                let entry = entry_codec
                    .decode_item(&mut input)
                    .unwrap_or_else(|e| panic!("corrupted checkpoint entry: {e}"));
                if last {
                    store.insert((entry.2.clone(), entry.3.clone()));
                    frontier.push(entry);
                } else {
                    store.insert((entry.2, entry.3));
                }
            }
        }
        depth = manifest.level;
        expansions_base = manifest.counter("expansions") as usize;
        transitions_base = manifest.counter("transitions") as usize;
        reduced_base = manifest.counter("reduced_states") as usize;
        revisits_base = manifest.counter("revisits") as usize;
        ckpt = Some(
            CheckpointWriter::resume(dir, manifest)
                .unwrap_or_else(|e| panic!("cannot resume checkpoint in {}: {e}", dir.display())),
        );
        trace.resume(depth as u64, store.len() as u64);
    } else {
        if let PropertyStatus::Violated(reason) = property.evaluate(&initial, &initial_observer) {
            stats.states = 1;
            trace.add(Counter::States, 1);
            stats.elapsed = start.elapsed();
            stats.record_store(store_name, store.stats());
            stats.record_frontier(frontier.name(), frontier.stats(), 0);
            stats.phases = trace.phase_times();
            trace.finish("violated");
            let cx = Counterexample::new(spec, property.name(), reason, &[], &initial);
            return RunReport {
                verdict: Verdict::Violated(Box::new(cx)),
                stats,
                strategy,
            };
        }

        let (entry_state, entry_observer, initial_delta) = if trivial {
            (initial, initial_observer, 0)
        } else {
            symmetry.canonicalize_traced(&initial, &initial_observer, &trace)
        };
        store.insert((entry_state.clone(), entry_observer.clone()));
        trace.add(Counter::States, 1);
        let root_entry = (0, initial_delta, entry_state, entry_observer);
        if let Some(c) = &config.checkpoint {
            let mut writer = CheckpointWriter::new(&c.dir)
                .unwrap_or_else(|e| panic!("cannot start checkpoint in {}: {e}", c.dir.display()));
            ckpt_write!(writer.begin_level(0));
            scratch.clear();
            entry_codec.encode_item(&root_entry, &mut scratch);
            ckpt_write!(writer.push_entry(&scratch));
            ckpt_write!(writer.seal_level());
            ckpt_write!(writer.commit(0, spec_fp, &strategy, &identity, &ckpt_counters!()));
            ckpt = Some(writer);
        }
        frontier.push(root_entry);
    }

    // The coordinator deals one batch at a time; with the disk frontier
    // this (plus the watermark) bounds the resident level size.
    let batch_size = if config.batch_size == 0 {
        threads * 64
    } else {
        config.batch_size
    };
    let pool: Pool<Entry<S, M, O>> = Pool::new(threads);
    let mut limit: Option<String> = None;
    let mut level_obs = LevelObserver::new(&trace);
    if level_obs.enabled() {
        level_obs.seed(store.len() as u64, store.stats().hits as u64);
    }

    std::thread::scope(|scope| {
        // Releases the workers even if the coordinator code below panics.
        let _finish = FinishOnDrop(&pool);
        for id in 0..threads {
            let pool = &pool;
            let store = &store;
            let violation = &violation;
            let stop = &stop;
            let transitions_executed = &transitions_executed;
            let reduced_states = &reduced_states;
            let expansions = &expansions;
            let depth_now = &depth_now;
            let symmetry = Arc::clone(symmetry);
            let trace = trace.handle();
            let spawned = std::thread::Builder::new()
                .name(format!("mp-pbfs-{id}"))
                .spawn_scoped(scope, move || {
                    pool.spawned.fetch_add(1, Ordering::SeqCst);
                    let timed = trace.is_enabled();
                    let mut busy_us = 0u64;
                    // Thread-local buffers, reused across chunks: freshly
                    // generated successors awaiting the batched
                    // canonicalize+insert, and the first-visit block
                    // flushed to the coordinator.
                    let mut pending: Vec<(GlobalState<S, M>, O)> = Vec::new();
                    let mut block: Vec<Entry<S, M, O>> = Vec::new();
                    while let Some((chunk, stolen)) = pool.take(id) {
                        let _completion = Completion(pool);
                        if stolen {
                            trace.add(Counter::Steals, 1);
                        }
                        let started = timed.then(Instant::now);
                        for (_, delta, key_state, key_observer) in &chunk {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            // δ⁻¹ recovers the concrete state the entry
                            // was generated as.
                            let reconstructed;
                            let (state, observer) = if *delta == 0 {
                                (key_state, key_observer)
                            } else {
                                reconstructed = symmetry.apply_element(
                                    symmetry.inverse(*delta),
                                    key_state,
                                    key_observer,
                                );
                                (&reconstructed.0, &reconstructed.1)
                            };
                            expansions.fetch_add(1, Ordering::Relaxed);
                            trace.add(Counter::Expansions, 1);
                            let all = {
                                let _span = trace.span(Phase::Expansion);
                                enabled_instances(spec, state)
                            };
                            let reduction = reducer.reduce_traced(spec, state, all, &trace);
                            if reduction.reduced {
                                reduced_states.fetch_add(1, Ordering::Relaxed);
                            }
                            for instance in reduction.explore {
                                let (next_state, next_observer) = {
                                    let _span = trace.span(Phase::Expansion);
                                    let ns = execute_enabled(spec, state, &instance);
                                    let no = observer.update(spec, state, &instance, &ns);
                                    (ns, no)
                                };
                                transitions_executed.fetch_add(1, Ordering::Relaxed);
                                trace.add(Counter::Transitions, 1);
                                if let PropertyStatus::Violated(reason) =
                                    property.evaluate(&next_state, &next_observer)
                                {
                                    let cx = Counterexample::new(
                                        spec,
                                        property.name(),
                                        format!(
                                            "{reason} (path not tracked by the parallel \
                                             engine; violated at depth {} with {} states \
                                             stored)",
                                            depth_now.load(Ordering::Relaxed),
                                            store.len(),
                                        ),
                                        &[],
                                        &next_state,
                                    );
                                    *lock(violation) = Some(cx);
                                    stop.store(true, Ordering::Relaxed);
                                    break;
                                }
                                pending.push((next_state, next_observer));
                            }
                        }
                        insert_chunk_successors(
                            trivial,
                            symmetry.as_ref(),
                            store,
                            &trace,
                            &mut pending,
                            &mut block,
                        );
                        if let Some(started) = started {
                            busy_us += started.elapsed().as_micros() as u64;
                            trace.sample_gauge(Gauge::WorkerBusyUs, busy_us);
                        }
                        pool.flush(&mut block);
                    }
                });
            if let Err(err) = spawned {
                // FinishOnDrop releases the workers already running.
                panic!("failed to spawn parallel BFS worker {id}: {err}");
            }
        }

        'levels: loop {
            let width = frontier.advance_level();
            if width == 0 || stop.load(Ordering::Relaxed) {
                break;
            }
            trace.record(Histogram::LevelWidth, width as u64);
            depth += 1;
            depth_now.store(depth, Ordering::Relaxed);
            trace.add(Counter::Depth, depth as u64);
            level_obs.begin_level();
            if let Some(writer) = ckpt.as_mut() {
                ckpt_write!(writer.begin_level(depth));
            }

            let mut next_worker = 0usize;
            loop {
                // Stream flushed successor blocks into the next frontier
                // level as they arrive — with the disk frontier this keeps
                // residency bounded by the watermark, not the level width.
                // The checkpoint tee rides here because the coordinator is
                // the only thread allowed to touch the writer.
                for entry in pool.drain_ready() {
                    if let Some(writer) = ckpt.as_mut() {
                        scratch.clear();
                        entry_codec.encode_item(&entry, &mut scratch);
                        ckpt_write!(writer.push_entry(&scratch));
                    }
                    frontier.push(entry);
                }
                let mut batch = Vec::with_capacity(batch_size);
                while batch.len() < batch_size {
                    match frontier.pop() {
                        Some(entry) => batch.push(entry),
                        None => break,
                    }
                }
                if batch.is_empty() {
                    // Level drained on the frontier side; it is complete
                    // once the workers have counted every chunk back down.
                    if pool.outstanding.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    pool.wait_progress();
                } else {
                    trace.record(Histogram::BatchOccupancy, batch.len() as u64);
                    let chunk_size = batch.len().div_ceil(threads).max(1);
                    let mut entries = batch.into_iter();
                    loop {
                        let chunk: Vec<_> = entries.by_ref().take(chunk_size).collect();
                        if chunk.is_empty() {
                            break;
                        }
                        pool.submit(next_worker, chunk);
                        next_worker = (next_worker + 1) % threads;
                    }
                }
                if store.len() >= config.max_states {
                    limit = Some(format!("state limit of {}", config.max_states));
                    stop.store(true, Ordering::Relaxed);
                    break 'levels;
                }
                if let Some(time_limit) = config.time_limit {
                    if start.elapsed() > time_limit {
                        limit = Some(format!("time limit of {time_limit:?}"));
                        stop.store(true, Ordering::Relaxed);
                        break 'levels;
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    break 'levels;
                }
            }
            // A flush can land between the last drain and the final
            // `outstanding` read; collect it before advancing the level.
            for entry in pool.drain_ready() {
                if let Some(writer) = ckpt.as_mut() {
                    scratch.clear();
                    entry_codec.encode_item(&entry, &mut scratch);
                    ckpt_write!(writer.push_entry(&scratch));
                }
                frontier.push(entry);
            }
            if stop.load(Ordering::Relaxed) {
                break 'levels;
            }
            // The level is complete: fold the store's in-memory buffer into
            // its sorted runs (a no-op for the purely in-memory backends)
            // and commit the checkpoint.
            {
                let _span = trace.span(Phase::RunMerge);
                store.maintain();
            }
            if let Some(writer) = ckpt.as_mut() {
                ckpt_write!(writer.seal_level());
                if depth.is_multiple_of(every) {
                    ckpt_write!(writer.commit(
                        depth,
                        spec_fp,
                        &strategy,
                        &identity,
                        &ckpt_counters!()
                    ));
                }
            }

            // Per-level time-series and memory gauges (the pool is idle at
            // a level boundary, so the cumulative store figures are stable
            // here); `enabled()` keeps the stats reads off the untraced
            // path. This engine keeps no parent log — that gauge stays at
            // its default 0.
            if level_obs.enabled() {
                let store_stats = store.stats();
                let frontier_stats = frontier.stats();
                let summary = level_obs.end_level(
                    depth as u64,
                    width as u64,
                    store.len() as u64,
                    store_stats.hits as u64,
                    frontier_stats.peak_bytes as u64,
                );
                trace.level_summary(&summary);
                trace.sample_gauge(Gauge::StoreBytes, store_stats.approx_bytes as u64);
                trace.sample_gauge(Gauge::FrontierBytes, frontier_stats.peak_bytes as u64);
                let canon_bytes = if trivial { 0 } else { store_stats.approx_bytes };
                trace.sample_gauge(Gauge::CanonicalCacheBytes, canon_bytes as u64);
            }
        }

        // Wait for in-flight chunks so the counters below are final (on a
        // stop the per-entry stop check makes the workers skim through
        // whatever is still queued).
        while pool.outstanding.load(Ordering::SeqCst) != 0 {
            pool.wait_progress();
        }
        // FinishOnDrop shuts the pool down; the scope joins the workers.
    });
    stats.worker_spawns = pool.spawned.load(Ordering::SeqCst);

    stats.states = store.len();
    stats.expansions = expansions_base + expansions.load(Ordering::Relaxed);
    stats.transitions_executed = transitions_base + transitions_executed.load(Ordering::Relaxed);
    stats.reduced_states = reduced_base + reduced_states.load(Ordering::Relaxed);
    stats.max_depth = depth;
    stats.elapsed = start.elapsed();
    stats.record_store(store_name, store.stats());
    // The store's unified hit accounting is the revisit count for a
    // stateful engine (see `ExplorationStats::store_hits`); the workers
    // have no per-thread revisit field to sum by hand. On a resume the
    // rebuild inserts were all misses, so the committed run's hits come
    // back via the manifest's revisit counter.
    stats.store_hits += revisits_base;
    stats.revisits = stats.store_hits;
    stats.record_frontier(frontier.name(), frontier.stats(), 0);
    stats.phases = trace.phase_times();

    let verdict = match lock(&violation).take() {
        Some(cx) => {
            trace.finish("violated");
            Verdict::Violated(Box::new(cx))
        }
        None => match limit {
            Some(what) => {
                trace.finish("limit");
                Verdict::LimitReached { what }
            }
            None => {
                trace.finish("verified");
                Verdict::Verified
            }
        },
    };
    RunReport {
        verdict,
        stats,
        strategy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Invariant, NullObserver};
    use mp_model::{Kind, Outcome, ProcessId, TransitionSpec};
    use mp_por::{NoReduction, SporReducer};
    use mp_store::{FrontierConfig, StoreConfig};

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Tok;
    mp_model::codec!(struct Tok);

    impl Message for Tok {
        fn kind(&self) -> Kind {
            "TOK"
        }
    }

    fn no_sym() -> Arc<dyn Symmetry<u8, Tok, NullObserver>> {
        Arc::new(mp_symmetry::NoSymmetry)
    }

    fn independent(n: usize, steps: u8) -> ProtocolSpec<u8, Tok> {
        let mut builder = ProtocolSpec::builder("independent");
        for i in 0..n {
            builder = builder.process(format!("w{i}"), 0u8);
        }
        for i in 0..n {
            builder = builder.transition(
                TransitionSpec::builder(format!("step{i}"), ProcessId(i))
                    .internal()
                    .guard(move |l, _| *l < steps)
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(l + 1))
                    .build(),
            );
        }
        builder.build().unwrap()
    }

    #[test]
    fn parallel_bfs_counts_the_same_states_as_sequential() {
        let spec = independent(3, 2);
        let report = run_parallel_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            2,
            &CheckerConfig::parallel_bfs(2),
        );
        assert!(report.verdict.is_verified());
        assert_eq!(report.stats.states, 27);
        // The exact default is upgraded to the lock-striped store.
        assert_eq!(report.stats.store_backend, "sharded");
        assert_eq!(report.stats.frontier_backend, "mem");
    }

    #[test]
    fn parallel_bfs_detects_violations() {
        let spec = independent(2, 3);
        let property: Invariant<u8, Tok, NullObserver> =
            Invariant::new("below-3", |s: &GlobalState<u8, Tok>, _| {
                if s.locals.iter().any(|l| *l >= 3) {
                    Err("reached 3".into())
                } else {
                    Ok(())
                }
            });
        let report = run_parallel_bfs(
            &spec,
            &property.into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            2,
            &CheckerConfig::parallel_bfs(2),
        );
        assert!(report.verdict.is_violated());
    }

    #[test]
    fn violation_message_reports_depth_and_store_size() {
        let spec = independent(2, 3);
        let property: Invariant<u8, Tok, NullObserver> =
            Invariant::new("below-3", |s: &GlobalState<u8, Tok>, _| {
                if s.locals.iter().any(|l| *l >= 3) {
                    Err("reached 3".into())
                } else {
                    Ok(())
                }
            });
        let report = run_parallel_bfs(
            &spec,
            &property.into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            2,
            &CheckerConfig::parallel_bfs(2),
        );
        let cx = report
            .verdict
            .counterexample()
            .expect("a violation was found");
        assert!(
            cx.reason.contains("violated at depth") && cx.reason.contains("states stored"),
            "the parallel engine must report where the violation was found: {}",
            cx.reason
        );
    }

    #[test]
    fn parallel_bfs_with_spor_reduces() {
        let spec = independent(4, 1);
        let reducer = SporReducer::new(&spec);
        let unreduced = run_parallel_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            2,
            &CheckerConfig::parallel_bfs(2),
        );
        let reduced = run_parallel_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &reducer,
            &no_sym(),
            2,
            &CheckerConfig::parallel_bfs(2),
        );
        assert!(unreduced.verdict.is_verified());
        assert!(reduced.verdict.is_verified());
        assert!(reduced.stats.states < unreduced.stats.states);
    }

    #[test]
    fn zero_threads_means_auto() {
        let spec = independent(2, 1);
        let report = run_parallel_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            0,
            &CheckerConfig::parallel_bfs(0),
        );
        assert!(report.verdict.is_verified());
        assert_eq!(report.stats.states, 4);
        assert!(report.stats.worker_threads >= 1);
    }

    #[test]
    fn pool_spawns_exactly_threads_workers_per_run() {
        // Multi-level search with a tiny batch size: the per-batch scoped
        // engine this pool replaced would have spawned a thread set for
        // every one of the dozens of batches. The persistent pool must
        // start exactly `threads` OS threads for the whole run.
        let spec = independent(3, 3);
        let report = run_parallel_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            3,
            &CheckerConfig::parallel_bfs(3).with_batch_size(2),
        );
        assert!(report.verdict.is_verified());
        assert_eq!(report.stats.states, 64);
        assert_eq!(report.stats.worker_threads, 3);
        assert_eq!(
            report.stats.worker_spawns, 3,
            "the pool must spawn once per run, not once per batch"
        );
    }

    #[test]
    fn batch_size_knob_does_not_change_the_exploration() {
        let spec = independent(3, 2);
        let run = |batch_size: usize| {
            run_parallel_bfs(
                &spec,
                &Invariant::always_true("true").into(),
                &NullObserver,
                &NoReduction,
                &no_sym(),
                2,
                &CheckerConfig::parallel_bfs(2).with_batch_size(batch_size),
            )
        };
        let auto = run(0);
        let tiny = run(1);
        let wide = run(1024);
        assert!(auto.verdict.is_verified());
        assert!(tiny.verdict.is_verified());
        assert!(wide.verdict.is_verified());
        assert_eq!(auto.stats.counters(), tiny.stats.counters());
        assert_eq!(auto.stats.counters(), wide.stats.counters());
    }

    #[test]
    fn idle_workers_steal_from_the_back_of_a_victims_deque() {
        let pool: Pool<u32> = Pool::new(2);
        pool.submit(0, vec![1]);
        pool.submit(0, vec![2]);
        let (own, stolen) = pool.take(0).expect("worker 0 has queued work");
        assert_eq!(own, vec![1], "owners pop from the front");
        assert!(!stolen);
        let (theft, stolen) = pool.take(1).expect("worker 1 can steal");
        assert_eq!(theft, vec![2], "thieves pop from the back");
        assert!(stolen, "a cross-deque take must count as a steal");
        pool.finish();
        assert!(pool.take(0).is_none());
        assert!(pool.take(1).is_none());
    }

    #[test]
    fn fingerprint_store_agrees_and_uses_less_memory() {
        let spec = independent(4, 2);
        let exact = run_parallel_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            2,
            &CheckerConfig::parallel_bfs(2),
        );
        let fp = run_parallel_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            2,
            &CheckerConfig::parallel_bfs(2).with_store(StoreConfig::fingerprint(48)),
        );
        assert!(exact.verdict.is_verified());
        assert!(fp.verdict.is_verified());
        assert_eq!(fp.stats.states, exact.stats.states);
        assert_eq!(fp.stats.store_backend, "fingerprint");
        assert!(
            fp.stats.store_bytes < exact.stats.store_bytes,
            "fingerprints ({}) must be smaller than full keys ({})",
            fp.stats.store_bytes,
            exact.stats.store_bytes
        );
    }

    #[test]
    fn disk_frontier_agrees_with_mem_frontier() {
        let spec = independent(3, 3);
        let run = |frontier: FrontierConfig| {
            run_parallel_bfs(
                &spec,
                &Invariant::always_true("true").into(),
                &NullObserver,
                &NoReduction,
                &no_sym(),
                2,
                &CheckerConfig::parallel_bfs(2).with_frontier(frontier),
            )
        };
        let mem = run(FrontierConfig::Mem);
        let disk = run(FrontierConfig::disk_with_watermark(64));
        assert!(mem.verdict.is_verified() && disk.verdict.is_verified());
        assert_eq!(mem.stats.states, disk.stats.states);
        assert_eq!(disk.stats.frontier_backend, "disk");
        assert!(disk.stats.frontier_spilled_bytes > 0);
        assert!(disk.strategy.ends_with("+spill"));
    }
}
