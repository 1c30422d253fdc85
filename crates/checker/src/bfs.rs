//! Breadth-first search: one level-synchronous core for the sequential
//! ([`SearchStrategy::StatefulBfs`](crate::SearchStrategy)) and the pooled
//! ([`SearchStrategy::ParallelBfs`](crate::SearchStrategy)) strategy.
//!
//! Explores states level by level, which makes the first counterexample
//! found a shortest one — convenient for the paper's debugging experiments
//! ("finding the first bug ... requires little resources"). Every stored
//! state gets one fixed-width record in `mp-store`'s [`ParentLog`] (parent
//! index + the successor's ordinal in the parent's explore set); a
//! counterexample is rebuilt by walking that chain and replaying the
//! ordinals from the initial state through the same reducer.
//!
//! # One loop, `threads` workers
//!
//! The calling thread owns the frontier, the parent log and the checkpoint
//! manifest, and is itself a worker. It cuts the current level into chunks
//! of `CHUNK_ENTRIES` (64) frontier records and offers each to the bounded
//! queue of `pool.rs`, which `threads − 1` helper threads — spawned once
//! per run — serve. Whenever the queue is full the caller expands the
//! chunk itself, so at most `2 × helpers` chunks wait, and with zero
//! helpers (the sequential strategy, or `parallel_bfs(1)`) every chunk is
//! expanded in place, in FIFO order: sequential BFS is this loop without
//! helpers, not a second engine. One `expand_chunk` serves caller and
//! helpers; it returns the chunk's first-visit successors, encoded, and a
//! plain tally, and only the caller `admit`s them — assigns the node index,
//! appends the parent record, pushes the frontier record. A
//! level ends when the frontier's current level is drained and every chunk
//! has come back, so verdicts, counters and peak depth do not depend on the
//! thread count; with helpers only the order *within* a level does.
//!
//! The pooled strategy upgrades a single-lock visited store to its
//! lock-striped equivalent
//! ([`StoreConfig::for_parallel`](mp_store::StoreConfig::for_parallel)), so
//! there is no global mutex on the visited set.
//!
//! # Frontier, spill and symmetry
//!
//! The level queues are a `mp-store` [`Frontier`] of byte records
//! `varint(node) varint(δ) key`, `key` being the bytes the visited store
//! was probed with: a state is encoded once, by the worker that finds it,
//! and decoded once, by the worker that expands it. With
//! [`FrontierConfig::Disk`](mp_store::FrontierConfig) (strategy suffix
//! `+spill`) the records and the parent log spill past the watermark, with
//! byte-identical verdicts and counts (the order is FIFO either way). With a
//! checkpoint, the frontier's level files and the parent log's
//! `parents.log` live in the checkpoint directory, and each completed level
//! seals both and commits the manifest naming them: the checkpoint is the
//! run's own files, written once. With a
//! non-trivial [`Symmetry`] each successor is canonicalized **once**; the
//! canonical pair `(ŝ, ô)` is the key, alongside the group element δ that
//! produced it. On dequeue the concrete state is recovered as
//! `apply_element(δ⁻¹, ŝ)`, so frontier (and spill) bytes shrink with the
//! orbit collapse while exploration, properties and counterexample paths
//! all stay concrete.
//!
//! # Partial-order reduction
//!
//! The reducer is applied to every expanded state, unconditionally. A
//! breadth-first search has no stack, so the cycle proviso of the DFS
//! engine does not apply here; that is sound on acyclic state graphs (all
//! three protocols in the paper terminate), while on a cyclic one a
//! reduced BFS can postpone a transition forever — check cyclic models
//! with the DFS engine, whose proviso covers them.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mp_store::{
    canonical_label, manifest_exists, Frontier, Manifest, ParentLog, ParentRecord, PlainCodec,
    StateStoreBackend, StoreImpl,
};

use mp_model::{
    read_varint, write_varint, Decode, DecodeError, Encode, GlobalState, LocalState, Message,
    ProtocolSpec,
};
use mp_por::Reducer;
use mp_symmetry::Symmetry;
use mp_trace::{Counter, Gauge, Histogram, Phase, TraceHandle};

use crate::{
    liveness::run_liveness_dfs,
    obs::LevelObserver,
    pool::{Pool, StopOnDrop, CHUNK_ENTRIES},
    successors::Successors,
    CheckerConfig, Counterexample, ExplorationStats, Invariant, Observer, Property, PropertyStatus,
    RunReport, Verdict,
};

/// Decodes the frontier record `varint(len) varint(node) varint(δ) state
/// observer` at the front of `records` and steps past it: the node index
/// in the parent log, the group element δ that produced the canonical
/// orbit representative (0 = identity), and the representative's store
/// key, its observer rebuilt from the run's initial one as the template
/// (see [`Observer::decode_like`]).
fn decode_record<S: LocalState, M: Message, O: Observer<S, M>>(
    template: &O,
    records: &mut &[u8],
) -> Result<(usize, usize, GlobalState<S, M>, O), DecodeError> {
    // The frontier checked the length; the fields consume exactly that.
    read_varint(records)?;
    Ok((
        Decode::decode(records)?,
        Decode::decode(records)?,
        Decode::decode(records)?,
        template.decode_like(records)?,
    ))
}

/// The first violation a chunk met, which ended it.
struct Violation<S, M: Ord> {
    /// The node being expanded.
    node: usize,
    /// The violating successor's ordinal.
    ordinal: usize,
    reason: String,
    state: GlobalState<S, M>,
}

/// What expanding one chunk produced.
struct Expanded<S, M: Ord> {
    /// First-visit successors, in generation order: `(parent's node index,
    /// ordinal in the parent's explore set, its range of `bodies`)`.
    fresh: Vec<(usize, usize, Range<usize>)>,
    /// Each one's `varint(δ) key`: its frontier record but the node index.
    bodies: Vec<u8>,
    /// Bytes of the chunk, which the frontier counts until `admit`.
    chunk_bytes: usize,
    violation: Option<Violation<S, M>>,
    expansions: usize,
    transitions: usize,
    reduced: usize,
    revisits: usize,
}

/// The read-only half of a run, shared by the caller and the helpers.
struct Expander<'a, S, M: Ord, O> {
    successors: &'a Successors<'a, S, M, O>,
    property: &'a Invariant<S, M, O>,
    /// The decode template of observers (the run's initial observer).
    template: &'a O,
    store: &'a StoreImpl<(GlobalState<S, M>, O)>,
    check_deadlocks: bool,
    pool: &'a Pool<u8, Expanded<S, M>>,
}

impl<S, M, O> Expander<'_, S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    /// Decodes and expands the records of one chunk in order. Per
    /// successor: execute, encode its key, insert it, and — on a first
    /// visit only — evaluate the property (and, when asked, report a
    /// successor with nothing enabled as a deadlock) and keep the encoding
    /// for the frontier. Judging both where a state is generated keeps a
    /// deadlock's path as short as an invariant violation's.
    fn expand_chunk(&self, chunk: Vec<u8>) -> Expanded<S, M> {
        let (successors, trace) = (self.successors, &self.successors.trace);
        let mut out = Expanded {
            // At least one successor per entry is the common case.
            fresh: Vec::with_capacity(CHUNK_ENTRIES),
            bodies: Vec::with_capacity(chunk.len()),
            chunk_bytes: chunk.len(),
            violation: None,
            expansions: 0,
            transitions: 0,
            reduced: 0,
            revisits: 0,
        };
        let mut records = chunk.as_slice();
        // A successor's key, reused across the chunk.
        let mut key = Vec::new();
        while !records.is_empty() {
            if self.pool.stopped() {
                break;
            }
            let (node, delta, key_state, key_observer) = {
                let _span = trace.span(Phase::FrontierDecode);
                decode_record(self.template, &mut records)
                    .unwrap_or_else(|e| panic!("corrupted frontier record: {e}"))
            };
            // δ⁻¹ maps the stored orbit representative back to the concrete
            // state this entry was generated as.
            let (state, observer) = match successors.symmetry {
                Some(symmetry) if delta != 0 => {
                    symmetry.apply_element(symmetry.inverse(delta), &key_state, &key_observer)
                }
                _ => (key_state, key_observer),
            };
            out.expansions += 1;
            let reduction = successors.reduce(&state, successors.enabled(&state));
            out.reduced += usize::from(reduction.reduced);

            for (ordinal, instance) in reduction.explore.into_iter().enumerate() {
                let concrete = successors.execute(&state, &observer, &instance).0;
                out.transitions += 1;
                // The successor's one encoding: the store probes it, and a
                // first visit keeps it, after its δ, as its body.
                key.clear();
                let delta = successors.key(&concrete.0, &concrete.1, &mut key);
                let first_visit = {
                    let _lookup = trace.span(Phase::StoreLookup);
                    self.store.insert_bytes(&key).new
                };
                if !first_visit {
                    out.revisits += 1;
                    continue;
                }
                let reason = match self.property.evaluate(&concrete.0, &concrete.1) {
                    PropertyStatus::Violated(reason) => Some(reason),
                    PropertyStatus::Holds if self.check_deadlocks => successors
                        .enabled(&concrete.0)
                        .is_empty()
                        .then(|| "deadlock: no transition enabled".to_string()),
                    PropertyStatus::Holds => None,
                };
                if let Some(reason) = reason {
                    out.violation = Some(Violation {
                        node,
                        ordinal,
                        reason,
                        state: concrete.0,
                    });
                    return out;
                }
                let start = out.bodies.len();
                write_varint(delta as u64, &mut out.bodies);
                out.bodies.extend_from_slice(&key);
                out.fresh.push((node, ordinal, start..out.bodies.len()));
            }
        }
        out
    }
}

/// The counters a checkpoint commits, by their manifest names.
fn counters(stats: &mut ExplorationStats) -> [(&'static str, &mut usize); 7] {
    [
        ("states", &mut stats.states),
        ("expansions", &mut stats.expansions),
        ("transitions", &mut stats.transitions_executed),
        ("revisits", &mut stats.revisits),
        ("reduced_states", &mut stats.reduced_states),
        ("proviso_expansions", &mut stats.proviso_expansions),
        ("max_depth", &mut stats.max_depth),
    ]
}

/// Why a run ended before the frontier ran dry.
enum Stop {
    Violated(Box<Counterexample>),
    Limit(String),
}

/// The caller-owned half of a run: everything `admit` and the level loop
/// write.
struct Search<'a, S, M: Ord, O> {
    successors: &'a Successors<'a, S, M, O>,
    /// The run's initial observer, where a replay starts.
    initial_observer: &'a O,
    property_name: &'a str,
    config: &'a CheckerConfig,
    start: Instant,
    stats: ExplorationStats,
    /// The last completed level.
    depth: usize,
    nodes: ParentLog,
    frontier: Frontier,
    /// The checkpoint directory and the manifest its next commit extends.
    ckpt: Option<(PathBuf, Manifest)>,
    /// The frontier record being enqueued.
    record: Vec<u8>,
    trace: TraceHandle,
    strategy: String,
}

impl<S: LocalState, M: Message, O: Observer<S, M>> Search<'_, S, M, O> {
    /// The one place a state enters the search: assigns its node index,
    /// appends its parent record, and pushes its frontier record —
    /// `varint(node)` before the `varint(δ) key` body its worker encoded.
    fn enqueue(&mut self, parent: ParentRecord, body: &[u8]) {
        let index = self.nodes.push(parent).unwrap_or_else(|e| panic!("{e}"));
        self.record.clear();
        write_varint(index as u64, &mut self.record);
        self.record.extend_from_slice(body);
        self.frontier.push_record(&self.record);
        self.stats.states += 1;
        self.trace.add(Counter::States, 1);
    }

    /// Folds one chunk's result into the search, in generation order.
    fn admit(&mut self, out: Expanded<S, M>) -> Result<(), Stop> {
        self.stats.expansions += out.expansions;
        self.stats.transitions_executed += out.transitions;
        self.stats.reduced_states += out.reduced;
        self.stats.revisits += out.revisits;
        self.trace.add(Counter::Expansions, out.expansions as u64);
        self.trace.add(Counter::Transitions, out.transitions as u64);
        self.trace.add(Counter::Revisits, out.revisits as u64);
        for (parent, ordinal, body) in out.fresh {
            if self.stats.states >= self.config.max_states {
                let what = format!("state limit of {}", self.config.max_states);
                return Err(Stop::Limit(what));
            }
            self.enqueue(Some((parent, ordinal)), &out.bodies[body]);
        }
        self.frontier.release(out.chunk_bytes);
        let Some(violation) = out.violation else {
            return Ok(());
        };
        // The violating successor was stored, though never enqueued.
        self.stats.states += 1;
        self.trace.add(Counter::States, 1);
        let mut ordinals = self
            .nodes
            .ordinals_to(violation.node)
            .unwrap_or_else(|e| panic!("{e}"));
        ordinals.push(violation.ordinal);
        let Violation { reason, state, .. } = violation;
        let successors = self.successors;
        let mut end = (
            successors.spec.initial_state(),
            self.initial_observer.clone(),
        );
        let path = successors
            .replay(&mut end, &ordinals)
            .unwrap_or_else(|e| panic!("parent-log {e}"));
        assert!(
            end.0 == state,
            "parent-log replay: the path does not end in the violating state"
        );
        let cx = Counterexample::new(successors.spec, self.property_name, reason, &path, &state);
        Err(Stop::Violated(Box::new(cx)))
    }

    /// Publishes `self.depth` as the last complete level of a checkpointed
    /// run: seals its level file and the parent log, then commits the
    /// manifest naming them.
    fn commit(&mut self) {
        let Some((dir, manifest)) = self.ckpt.as_mut() else {
            return;
        };
        let (level, parents) = (self.frontier.seal_level(), self.nodes.commit());
        let counters = counters(&mut self.stats).map(|(name, value)| (name, *value as u64));
        manifest
            .commit(dir, level, parents, &counters)
            .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
    }

    /// Reopens the checkpoint in `dir` at its last committed level: the
    /// visited set is rebuilt from every committed level file's keys, that
    /// level's file becomes the next level as it is, and the parent log
    /// continues at its committed prefix. The rebuild inserts are all store
    /// misses, so the caller folds the committed part's hits
    /// (`stats.revisits`) back in at the end.
    fn resume<K: Encode>(&mut self, dir: &Path, manifest: Manifest, store: &StoreImpl<K>) {
        // A level file's payloads are frontier records, `varint(node)
        // varint(δ) key`.
        let insert = |mut key: &[u8]| {
            read_varint(&mut key)
                .and_then(|_| read_varint(&mut key))
                .unwrap_or_else(|e| panic!("corrupted checkpoint entry: {e}"));
            store.insert_bytes(key);
        };
        let watermark = self.config.frontier.watermark();
        let nodes = self.frontier.resume(dir, &manifest, insert).and_then(|()| {
            ParentLog::in_checkpoint(dir, Some(&manifest), watermark, self.trace.clone())
        });
        self.nodes = nodes.unwrap_or_else(|e| panic!("checkpoint in {}: {e}", dir.display()));
        self.depth = manifest.level;
        for (name, value) in counters(&mut self.stats) {
            *value = manifest.counter(name) as usize;
        }
        self.ckpt = Some((dir.to_path_buf(), manifest));
        self.trace
            .resume(self.depth as u64, self.stats.states as u64);
    }

    /// The level loop: runs until the frontier is empty or a [`Stop`].
    fn levels(&mut self, expander: &Expander<'_, S, M, O>) -> Result<(), Stop> {
        let (store, pool, trace) = (expander.store, expander.pool, self.trace.clone());
        let mut level_obs = LevelObserver::new(&trace);
        if level_obs.enabled() {
            level_obs.seed(store.len() as u64, store.stats().hits as u64);
        }
        loop {
            let width = self.frontier.advance_level();
            if width == 0 {
                return Ok(());
            }
            trace.record(Histogram::LevelWidth, width as u64);
            self.depth += 1;
            self.stats.max_depth = self.stats.max_depth.max(self.depth);
            trace.add(Counter::Depth, self.depth as u64);
            level_obs.begin_level();

            loop {
                let mut chunk = Vec::new();
                let entries = self.frontier.pop_records(CHUNK_ENTRIES, &mut chunk);
                // Block only once the level has nothing left to hand out;
                // it is complete when nothing is outstanding either.
                let finished = pool.collect(chunk.is_empty());
                if chunk.is_empty() && finished.is_empty() {
                    break;
                }
                for out in finished {
                    self.admit(out)?;
                }
                if !chunk.is_empty() {
                    trace.record(Histogram::BatchOccupancy, entries as u64);
                    if let Err(chunk) = pool.submit(chunk) {
                        self.admit(expander.expand_chunk(chunk))?;
                    }
                }
                if let Some(limit) = self.config.time_limit {
                    if self.start.elapsed() > limit {
                        return Err(Stop::Limit(format!("time limit of {limit:?}")));
                    }
                }
            }

            // Level boundary: let the external-memory store merge its
            // sorted runs (a no-op for the in-memory backends), then
            // persist the completed level.
            {
                let _span = trace.span(Phase::RunMerge);
                store.maintain();
            }
            self.commit();

            // Per-level time-series and memory gauges (the helpers are idle
            // at a level boundary, so the cumulative store figures are
            // stable); `enabled()` keeps every stats read off the untraced
            // path.
            if level_obs.enabled() {
                let store_stats = store.stats();
                let frontier_stats = self.frontier.stats();
                let summary = level_obs.end_level(
                    self.depth as u64,
                    width as u64,
                    store.len() as u64,
                    store_stats.hits as u64,
                    frontier_stats.peak_bytes as u64,
                );
                trace.level_summary(&summary);
                trace.sample_gauge(Gauge::StoreBytes, store_stats.approx_bytes as u64);
                trace.sample_gauge(Gauge::FrontierBytes, frontier_stats.peak_bytes as u64);
                trace.sample_gauge(Gauge::ParentLogBytes, self.nodes.approx_bytes() as u64);
                // With symmetry on, the visited store *is* the canonical-
                // representative cache (keys are pre-canonicalized orbit
                // reps).
                let canon_bytes = if expander.successors.symmetry.is_some() {
                    store_stats.approx_bytes
                } else {
                    0
                };
                trace.sample_gauge(Gauge::CanonicalCacheBytes, canon_bytes as u64);
            }
        }
    }
}

/// Runs a breadth-first search on `threads` threads and returns the
/// report: `None` is the sequential strategy (label `stateful-bfs`, the
/// configured store, one thread), `Some(n)` the pooled one (label
/// `parallel-bfs(n)`, lock-striped store, `n` threads with 0 = available
/// parallelism). See the module docs.
///
/// Dispatches on the property class: safety properties run the level loop.
/// Liveness properties need a cycle-capable search — a breadth-first
/// frontier has no stack to detect lassos against — so they are routed to
/// the fairness-aware liveness DFS of [`crate::liveness`] (the report's
/// strategy label says so).
pub(crate) fn run_bfs<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    reducer: &dyn Reducer<S, M>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
    threads: Option<usize>,
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
    let (mut strategy, threads, store_config) = match threads {
        None => ("stateful-bfs".to_string(), 1, config.store),
        Some(requested) => {
            let threads = match requested {
                0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                n => n,
            };
            stats.worker_threads = threads;
            let label = format!("parallel-bfs({threads})");
            (label, threads, config.store.for_parallel())
        }
    };
    let trivial = symmetry.is_trivial();
    strategy.push('+');
    strategy.push_str(reducer.name());
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
    let successors = Successors::new(spec, reducer, symmetry, trace.handle());

    // Keys are encoded by `expand_chunk`, once per successor, and shared
    // between the store probe and the frontier record.
    let store = store_config.build::<(GlobalState<S, M>, O)>();
    let store_name = if trivial {
        store.name()
    } else {
        canonical_label(store.name())
    };
    // The canonicalizer is part of a symmetric run's identity: a build that
    // chose representatives another way stored other keys, so its
    // checkpoints must not resume. Every group is canonicalized by sorting.
    let sym_label = if trivial {
        "off".to_string()
    } else {
        format!("{}/sorted", symmetry.label())
    };
    // What a checkpoint manifest pins besides the configuration: the
    // protocol structure and the full strategy label (strategy + thread
    // count + reducer + symmetry + spill), so a resume under anything that
    // would explore a different state space is refused.
    let identity = format!("{} sym={sym_label}", config.checkpoint_identity());
    let fresh = Manifest::new(spec.structure_fingerprint(), &strategy, &identity);
    let mut search = Search {
        successors: &successors,
        initial_observer,
        property_name: property.name(),
        config,
        start,
        stats,
        depth: 0,
        nodes: ParentLog::new(config.frontier.watermark(), trace.handle()),
        frontier: config.frontier.build(PlainCodec),
        ckpt: None,
        record: Vec::new(),
        trace: trace.handle(),
        strategy,
    };
    search.frontier.set_trace(trace.handle());

    let mut resumed_hits = 0;
    let mut stop = None;
    match &config.checkpoint {
        Some(c) if manifest_exists(&c.dir) => {
            let manifest = Manifest::load(&c.dir)
                .unwrap_or_else(|e| panic!("checkpoint manifest in {}: {e}", c.dir.display()));
            manifest
                .validate(fresh.spec_fingerprint, &fresh.engine, &fresh.config)
                .unwrap_or_else(|e| panic!("refusing to resume from {}: {e}", c.dir.display()));
            search.resume(&c.dir, manifest, &store);
            resumed_hits = search.stats.revisits;
        }
        checkpoint => {
            let initial = spec.initial_state();
            let initial_observer = initial_observer.clone();
            let violated = match property.evaluate(&initial, &initial_observer) {
                PropertyStatus::Violated(reason) => Some(reason),
                PropertyStatus::Holds => (config.check_deadlocks
                    && successors.enabled(&initial).is_empty())
                .then(|| "deadlock in the initial state".to_string()),
            };
            if let Some(reason) = violated {
                search.stats.states = 1;
                trace.add(Counter::States, 1);
                let cx = Counterexample::new(spec, property.name(), reason, &[], &initial);
                stop = Some(Stop::Violated(Box::new(cx)));
            } else {
                // Validated groups fix the initial state, so its canonical
                // form is itself; the root is keyed like every successor
                // anyway, so the key discipline has no exceptions.
                let mut key = Vec::new();
                let root_delta = successors.key(&initial, &initial_observer, &mut key);
                store.insert_bytes(&key);
                let mut body = Vec::new();
                write_varint(root_delta as u64, &mut body);
                body.extend_from_slice(&key);
                if let Some(c) = checkpoint {
                    let watermark = config.frontier.watermark();
                    search.nodes =
                        ParentLog::in_checkpoint(&c.dir, None, watermark, trace.handle())
                            .unwrap_or_else(|e| {
                                panic!("cannot start checkpoint in {}: {e}", c.dir.display())
                            });
                    search.frontier.keep_levels_in(&c.dir);
                    search.ckpt = Some((c.dir.clone(), fresh));
                }
                search.enqueue(None, &body);
                search.commit();
            }
        }
    }

    let pool = Pool::new(threads - 1);
    let expander = Expander {
        successors: &successors,
        property,
        template: initial_observer,
        store: &store,
        check_deadlocks: config.check_deadlocks,
        pool: &pool,
    };
    let stop = stop.or_else(|| {
        std::thread::scope(|scope| {
            // Releases the helpers on every way out, a panic included.
            let _stop = StopOnDrop(&pool);
            for id in 1..threads {
                let expander = &expander;
                let helper = move || {
                    let mut busy_us = 0u64;
                    expander.pool.serve(|chunk| {
                        let trace = &expander.successors.trace;
                        let started = trace.is_enabled().then(Instant::now);
                        let out = expander.expand_chunk(chunk);
                        if let Some(started) = started {
                            busy_us += started.elapsed().as_micros() as u64;
                            trace.sample_gauge(Gauge::WorkerBusyUs, busy_us);
                        }
                        out
                    });
                };
                std::thread::Builder::new()
                    .name(format!("mp-bfs-{id}"))
                    .spawn_scoped(scope, helper)
                    .unwrap_or_else(|e| panic!("failed to spawn BFS helper {id}: {e}"));
                search.stats.worker_spawns += 1;
            }
            search.levels(&expander).err()
        })
    });

    let Search {
        mut stats,
        nodes,
        frontier,
        strategy,
        ..
    } = search;
    stats.elapsed = start.elapsed();
    stats.record_store(store_name, store.stats());
    stats.store_hits += resumed_hits;
    stats.record_frontier(frontier.name(), frontier.stats(), nodes.spilled_bytes());
    stats.phases = trace.phase_times();
    let (label, verdict) = match stop {
        None => ("verified", Verdict::Verified),
        Some(Stop::Violated(cx)) => ("violated", Verdict::Violated(cx)),
        Some(Stop::Limit(what)) => ("limit", Verdict::LimitReached { what }),
    };
    trace.finish(label);
    RunReport {
        verdict,
        stats,
        strategy,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Checker, NullObserver};
    use mp_model::{Kind, Outcome, ProcessId, TransitionSpec};
    use mp_store::FrontierConfig;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub(crate) struct Tok;
    mp_model::codec!(struct Tok);

    impl Message for Tok {
        fn kind(&self) -> Kind {
            "TOK"
        }
    }

    /// `n` processes, each counting to `steps` on its own.
    pub(crate) fn independent(n: usize, steps: u8) -> ProtocolSpec<u8, Tok> {
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

    /// A cyclic protocol: one process toggles its bit forever, the other
    /// makes a single visible move.
    pub(crate) fn toggler_and_mover() -> ProtocolSpec<u8, Tok> {
        ProtocolSpec::builder("toggle+move")
            .process("toggler", 0u8)
            .process("mover", 0u8)
            .transition(
                TransitionSpec::builder("toggle", ProcessId(0))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(1 - *l))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("move", ProcessId(1))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .visible()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap()
    }

    /// Violated as soon as any counter reaches `limit`.
    pub(crate) fn below(limit: u8) -> Invariant<u8, Tok, NullObserver> {
        Invariant::new("below", move |s: &GlobalState<u8, Tok>, _| {
            if s.locals.iter().any(|l| *l >= limit) {
                Err(format!("reached {limit}"))
            } else {
                Ok(())
            }
        })
    }

    pub(crate) fn verify(spec: &ProtocolSpec<u8, Tok>, config: CheckerConfig) -> RunReport {
        Checker::new(spec, Invariant::always_true("true"))
            .config(config)
            .run()
    }

    #[test]
    fn bfs_and_dfs_agree_on_state_counts() {
        let bfs = verify(&independent(3, 2), CheckerConfig::stateful_bfs());
        assert!(bfs.verdict.is_verified());
        assert_eq!(bfs.stats.states, 27);
        assert_eq!(bfs.stats.frontier_backend, "mem");
        assert_eq!((bfs.stats.worker_threads, bfs.stats.worker_spawns), (0, 0));
    }

    #[test]
    fn bfs_finds_shortest_counterexample() {
        let report = Checker::new(&independent(2, 4), below(2))
            .config(CheckerConfig::stateful_bfs())
            .run();
        let cx = report.verdict.counterexample().unwrap();
        assert_eq!(cx.len(), 2, "BFS must find the 2-step shortest violation");
    }

    #[test]
    fn bfs_with_spor_still_verifies() {
        let report = Checker::new(&independent(3, 2), Invariant::always_true("true"))
            .spor()
            .config(CheckerConfig::stateful_bfs())
            .run();
        assert!(report.verdict.is_verified());
        assert!(report.stats.states < 27);
    }

    #[test]
    fn bfs_state_limit() {
        let config = CheckerConfig::stateful_bfs().with_max_states(4);
        let report = verify(&independent(3, 3), config);
        assert!(matches!(report.verdict, Verdict::LimitReached { .. }));
        assert_eq!(report.stats.states, 4);
    }

    #[test]
    fn bfs_deadlock_check() {
        let config = CheckerConfig::stateful_bfs().with_deadlock_check(true);
        let report = verify(&independent(1, 1), config);
        let cx = report.verdict.counterexample().expect("the end state");
        assert_eq!(cx.len(), 1, "the path to the deadlocked state");
    }

    #[test]
    fn frontier_peak_counts_the_chunk_in_flight() {
        // Level 1 is the root alone, one chunk: it is still held while its
        // one successor is pushed, so the peak is both records.
        let spec = independent(1, 1);
        let report = verify(&spec, CheckerConfig::stateful_bfs());
        let record = |node: usize, local: u8| {
            let mut state = spec.initial_state();
            state.locals = vec![local];
            1 + mp_model::encode_to_vec(&(node, 0usize, state, NullObserver)).len()
        };
        assert_eq!(report.stats.states, 2);
        assert_eq!(
            report.stats.frontier_peak_bytes,
            record(0, 0) + record(1, 1)
        );
    }

    #[test]
    fn disk_frontier_matches_mem_frontier_exactly() {
        // A tiny watermark forces multi-segment spilling even on this small
        // model; verdict, state count and counterexample must be identical.
        let spec = independent(3, 3);
        let run = |frontier| verify(&spec, CheckerConfig::stateful_bfs().with_frontier(frontier));
        let mem = run(FrontierConfig::Mem);
        let disk = run(FrontierConfig::disk_with_watermark(64));
        assert!(mem.verdict.is_verified() && disk.verdict.is_verified());
        assert_eq!(mem.stats.counters(), disk.stats.counters());
        assert_eq!(disk.stats.frontier_backend, "disk");
        assert!(
            disk.stats.frontier_spilled_bytes > 0,
            "watermark must spill"
        );
        assert!(disk.strategy.ends_with("+spill"));
        assert!(!mem.strategy.contains("spill"));
    }

    #[test]
    fn spilled_counterexample_path_is_identical() {
        let spec = independent(2, 4);
        let run = |frontier| {
            Checker::new(&spec, below(3))
                .config(CheckerConfig::stateful_bfs().with_frontier(frontier))
                .run()
        };
        let mem = run(FrontierConfig::Mem);
        let disk = run(FrontierConfig::disk_with_watermark(16));
        let mem_cx = mem.verdict.counterexample().unwrap();
        let disk_cx = disk.verdict.counterexample().unwrap();
        assert_eq!(mem_cx.len(), 3);
        assert_eq!(mem_cx.steps, disk_cx.steps, "identical concrete path");
    }

    #[test]
    fn one_pooled_thread_is_the_sequential_search() {
        let spec = independent(3, 3);
        for property in [|| Invariant::always_true("true"), || below(3)] {
            let run = |config| Checker::new(&spec, property()).config(config).run();
            let sequential = run(CheckerConfig::stateful_bfs());
            let pooled = run(CheckerConfig::parallel_bfs(1));
            assert_eq!(pooled.stats.worker_threads, 1);
            assert_eq!(pooled.stats.worker_spawns, 0, "the caller is the worker");
            assert_eq!(pooled.verdict.to_string(), sequential.verdict.to_string());
            assert_eq!(pooled.stats.counters(), sequential.stats.counters());
            assert_eq!(
                pooled.verdict.counterexample().map(|cx| &cx.steps),
                sequential.verdict.counterexample().map(|cx| &cx.steps),
            );
        }
    }
}
