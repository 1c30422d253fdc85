//! Stateful breadth-first search over a pluggable, spillable frontier.
//!
//! Explores states level by level, which makes the first counterexample
//! found a shortest one — convenient for the paper's debugging experiments
//! ("finding the first bug ... requires little resources"). The engine keeps
//! a parent pointer per stored state so counterexample paths can be rebuilt.
//!
//! The level queues and the parent-pointer table are driven through
//! `mp-store`'s [`FrontierBackend`] and [`SpillLog`]: with the default
//! in-memory frontier the behaviour is the classic two-queue BFS; with
//! [`FrontierConfig::Disk`](mp_store::FrontierConfig) selected
//! (`CheckerConfig::frontier`, strategy suffix `+spill`) encoded states are
//! spilled to watermark-sized segments and read back level by level, so the
//! resident set stays bounded by the watermark while verdicts and state
//! counts remain byte-identical (both frontiers are strictly FIFO).
//!
//! With a non-trivial [`Symmetry`] the engine canonicalizes each successor
//! **once** and uses the canonical pair `(ŝ, ô)` both as the visited-store
//! key and as the frontier payload, alongside the group element δ that
//! produced it. On dequeue the concrete state is recovered as
//! `apply_element(δ⁻¹, ŝ)`, and the parent table records concrete
//! transition instances — so frontier (and spill) bytes shrink with the
//! orbit collapse while exploration, properties and counterexample paths
//! all stay concrete.
//!
//! Note on soundness with POR: a breadth-first search has no stack, so the
//! cycle proviso of the DFS engine does not apply. On cyclic state graphs
//! the BFS engine therefore only applies the reducer when the protocol's
//! state graph is known to be acyclic (all three protocols in the paper
//! terminate); for safety it falls back to full expansion whenever it
//! re-encounters a state that is still in the frontier of the same level.

use std::sync::Arc;
use std::time::Instant;

use mp_store::{
    canonical_label, manifest_exists, CheckpointWriter, FrontierBackend, ItemCodec, Manifest,
    PlainCodec, SpillLog, StateStoreBackend,
};

use mp_model::{
    enabled_instances, execute_enabled, DecodeError, Encode, GlobalState, LocalState, Message,
    ProtocolSpec, TransitionInstance,
};
use mp_por::Reducer;
use mp_symmetry::Symmetry;
use mp_trace::{Counter, Gauge, Histogram, Phase, TraceHandle};

use crate::{
    liveness::run_liveness_dfs, obs::LevelObserver, CheckerConfig, Counterexample,
    ExplorationStats, Observer, Property, PropertyStatus, RunReport, Verdict,
};

/// A frontier entry of the BFS engines: `(parent-table index, δ, state,
/// observer)`, where the state/observer pair is the canonical orbit
/// representative and δ the group element that produced it (0 = identity,
/// so symmetry-free runs carry the concrete state unchanged). The parallel
/// engine reconstructs no paths and leaves the index at 0.
pub(crate) type Entry<S, M, O> = (usize, usize, GlobalState<S, M>, O);

/// One parent-table record: `None` for the root, `Some((parent index,
/// incoming instance))` for every other state.
pub(crate) type PathEntry<M> = Option<(usize, TransitionInstance<M>)>;

/// The frontier item codec of the BFS engines: plain data goes through the
/// `mp-model` codec, the observer is rebuilt with the run's initial
/// observer as the decode template (see [`Observer::decode_like`]).
pub(crate) struct EntryCodec<O> {
    pub(crate) template: O,
}

impl<S, M, O> ItemCodec<Entry<S, M, O>> for EntryCodec<O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    fn encode_item(&self, item: &Entry<S, M, O>, out: &mut Vec<u8>) {
        item.0.encode(out);
        item.1.encode(out);
        item.2.encode(out);
        item.3.encode(out);
    }

    fn decode_item(&self, input: &mut &[u8]) -> Result<Entry<S, M, O>, DecodeError> {
        Ok((
            mp_model::Decode::decode(input)?,
            mp_model::Decode::decode(input)?,
            mp_model::Decode::decode(input)?,
            self.template.decode_like(input)?,
        ))
    }
}

/// What [`insert_successor`] returns for a first-visit successor: the
/// group element δ plus the canonical representative (`None` = the
/// concrete pair itself is the representative, so callers can move it into
/// the frontier entry without a clone).
pub(crate) type FreshSuccessor<S, M, O> = (usize, Option<(GlobalState<S, M>, O)>);

/// Canonicalizes a freshly generated successor once and inserts its
/// visited-store key — the canonical orbit representative under a
/// non-trivial group (`trivial` is hoisted by the engines so hot loops skip
/// the dyn call), the concrete pair itself otherwise.
///
/// Returns `None` when the key was already visited.
pub(crate) fn insert_successor<S, M, O>(
    trivial: bool,
    symmetry: &dyn Symmetry<S, M, O>,
    store: &mp_store::StoreImpl<(GlobalState<S, M>, O)>,
    concrete: &(GlobalState<S, M>, O),
    trace: &TraceHandle,
) -> Option<FreshSuccessor<S, M, O>>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let (canonical, delta) = if trivial {
        (None, 0)
    } else {
        let (cs, co, e) = symmetry.canonicalize_traced(&concrete.0, &concrete.1, trace);
        (Some((cs, co)), e)
    };
    let _lookup = trace.span(Phase::StoreLookup);
    let inserted = match &canonical {
        Some(key) => store.insert_ref(key),
        None => store.insert_ref(concrete),
    };
    inserted.then_some((delta, canonical))
}

/// Rebuilds the instance path from the root to node `at` out of the
/// (possibly spilled) parent table.
fn rebuild_path<M: Message>(
    nodes: &mut SpillLog<PathEntry<M>, PlainCodec>,
    mut at: usize,
) -> Vec<TransitionInstance<M>> {
    let mut path = Vec::new();
    while let Some((parent, instance)) = nodes.get(at) {
        path.push(instance);
        at = parent;
    }
    path.reverse();
    path
}

/// Runs a stateful breadth-first search and returns the report.
///
/// Dispatches on the property class: safety properties run the level-by-level
/// search below. Liveness properties need a cycle-capable search — a
/// breadth-first frontier has no stack to detect lassos against — so they
/// are routed to the fairness-aware liveness DFS of [`crate::liveness`]
/// (the report's strategy label says so).
///
/// With a non-trivial [`Symmetry`], successors are canonicalized once and
/// the canonical representatives keyed into the visited store *and* carried
/// by the frontier (see the module docs); exploration and counterexample
/// paths stay concrete.
pub fn run_stateful_bfs<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M, O>,
    initial_observer: &O,
    reducer: &dyn Reducer<S, M>,
    symmetry: &Arc<dyn Symmetry<S, M, O>>,
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
    let trivial = symmetry.is_trivial();
    let mut strategy = format!("stateful-bfs+{}", reducer.name());
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

    // Keys are canonicalized by this engine (one canonicalization per
    // successor, shared between the store key and the frontier entry).
    let store = config.store.build::<(GlobalState<S, M>, O)>();
    let store_name = if trivial {
        store.name()
    } else {
        canonical_label(store.name())
    };
    let mut nodes: SpillLog<PathEntry<M>, PlainCodec> = config.frontier.build_log(PlainCodec);
    nodes.set_trace(trace.handle());
    let mut frontier = config.frontier.build(EntryCodec {
        template: initial_observer.clone(),
    });
    frontier.set_trace(trace.handle());

    // Checkpoint identity: the manifest records the protocol structure, the
    // full strategy label (engine + reducer + symmetry + spill) and the
    // semantic configuration fields, so a resume under anything that would
    // explore a different state space is refused.
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
    let mut store_hits_base = 0usize;

    macro_rules! finish_stats {
        ($verdict:expr) => {
            stats.elapsed = start.elapsed();
            stats.record_store(store_name, store.stats());
            stats.store_hits += store_hits_base;
            stats.record_frontier(frontier.name(), frontier.stats(), nodes.spilled_bytes());
            stats.phases = trace.phase_times();
            trace.finish($verdict);
        };
    }
    macro_rules! ckpt_write {
        ($result:expr) => {
            $result.unwrap_or_else(|e| panic!("checkpoint write failed: {e}"))
        };
    }
    macro_rules! ckpt_counters {
        () => {
            [
                ("states", stats.states as u64),
                ("expansions", stats.expansions as u64),
                ("transitions", stats.transitions_executed as u64),
                ("revisits", stats.revisits as u64),
                ("reduced_states", stats.reduced_states as u64),
                ("proviso_expansions", stats.proviso_expansions as u64),
                ("max_depth", stats.max_depth as u64),
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

    let mut depth = 0usize;
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
        // Replay the parent log so node indices keep their meaning for
        // counterexample reconstruction.
        for raw in manifest
            .read_parents(dir)
            .unwrap_or_else(|e| panic!("checkpoint in {}: {e}", dir.display()))
        {
            let mut input = raw.as_slice();
            let record: PathEntry<M> = mp_model::Decode::decode(&mut input)
                .unwrap_or_else(|e| panic!("corrupted checkpoint parent record: {e}"));
            nodes.push(record);
        }
        depth = manifest.level;
        stats.states = manifest.counter("states") as usize;
        stats.expansions = manifest.counter("expansions") as usize;
        stats.transitions_executed = manifest.counter("transitions") as usize;
        stats.revisits = manifest.counter("revisits") as usize;
        stats.reduced_states = manifest.counter("reduced_states") as usize;
        stats.proviso_expansions = manifest.counter("proviso_expansions") as usize;
        stats.max_depth = manifest.counter("max_depth") as usize;
        // The rebuild inserts are all store misses, so the final hit count
        // needs the committed run's hits folded back in (hits == revisits
        // for the stateful engines).
        store_hits_base = stats.revisits;
        ckpt = Some(
            CheckpointWriter::resume(dir, manifest)
                .unwrap_or_else(|e| panic!("cannot resume checkpoint in {}: {e}", dir.display())),
        );
        trace.resume(depth as u64, stats.states as u64);
    } else {
        if let PropertyStatus::Violated(reason) = property.evaluate(&initial, &initial_observer) {
            stats.states = 1;
            trace.add(Counter::States, 1);
            finish_stats!("violated");
            let cx = Counterexample::new(spec, property.name(), reason, &[], &initial);
            return RunReport {
                verdict: Verdict::Violated(Box::new(cx)),
                stats,
                strategy,
            };
        }

        // Validated groups fix the initial state, so its canonical form is
        // itself; canonicalize anyway so the key discipline has no exceptions
        // (mirrors the DFS engine).
        let (entry_state, entry_observer, initial_delta) = if trivial {
            (initial, initial_observer, 0)
        } else {
            symmetry.canonicalize_traced(&initial, &initial_observer, &trace)
        };
        store.insert((entry_state.clone(), entry_observer.clone()));
        let root = nodes.push(None);
        let root_entry = (root, initial_delta, entry_state, entry_observer);
        stats.states = 1;
        trace.add(Counter::States, 1);
        if let Some(c) = &config.checkpoint {
            let mut writer = CheckpointWriter::new(&c.dir)
                .unwrap_or_else(|e| panic!("cannot start checkpoint in {}: {e}", c.dir.display()));
            ckpt_write!(writer.begin_level(0));
            scratch.clear();
            entry_codec.encode_item(&root_entry, &mut scratch);
            ckpt_write!(writer.push_entry(&scratch));
            scratch.clear();
            let root_record: PathEntry<M> = None;
            root_record.encode(&mut scratch);
            ckpt_write!(writer.push_parent(&scratch));
            ckpt_write!(writer.seal_level());
            ckpt_write!(writer.commit(0, spec_fp, &strategy, &identity, &ckpt_counters!()));
            ckpt = Some(writer);
        }
        frontier.push(root_entry);
    }
    let mut level_obs = LevelObserver::new(&trace);
    if level_obs.enabled() {
        level_obs.seed(store.len() as u64, store.stats().hits as u64);
    }
    loop {
        let width = frontier.advance_level();
        if width == 0 {
            break;
        }
        trace.record(Histogram::LevelWidth, width as u64);
        depth += 1;
        stats.max_depth = stats.max_depth.max(depth);
        trace.add(Counter::Depth, depth as u64);
        level_obs.begin_level();
        if let Some(writer) = ckpt.as_mut() {
            ckpt_write!(writer.begin_level(depth));
        }

        while let Some((node_idx, delta, key_state, key_observer)) = frontier.pop() {
            // δ⁻¹ maps the stored orbit representative back to the concrete
            // state this entry was generated as.
            let (state, observer) = if delta == 0 {
                (key_state, key_observer)
            } else {
                symmetry.apply_element(symmetry.inverse(delta), &key_state, &key_observer)
            };
            stats.expansions += 1;
            trace.add(Counter::Expansions, 1);

            let all = {
                let _span = trace.span(Phase::Expansion);
                enabled_instances(spec, &state)
            };
            if config.check_deadlocks && all.is_empty() {
                let path = rebuild_path(&mut nodes, node_idx);
                finish_stats!("violated");
                let cx = Counterexample::new(
                    spec,
                    property.name(),
                    "deadlock: no transition enabled",
                    &path,
                    &state,
                );
                return RunReport {
                    verdict: Verdict::Violated(Box::new(cx)),
                    stats,
                    strategy,
                };
            }
            let reduction = reducer.reduce_traced(spec, &state, all, &trace);
            if reduction.reduced {
                stats.reduced_states += 1;
            }

            for instance in reduction.explore {
                let concrete = {
                    let _span = trace.span(Phase::Expansion);
                    let next_state = execute_enabled(spec, &state, &instance);
                    let next_observer = observer.update(spec, &state, &instance, &next_state);
                    (next_state, next_observer)
                };
                stats.transitions_executed += 1;
                trace.add(Counter::Transitions, 1);

                let Some((delta, canonical)) =
                    insert_successor(trivial, symmetry.as_ref(), &store, &concrete, &trace)
                else {
                    stats.revisits += 1;
                    trace.add(Counter::Revisits, 1);
                    continue;
                };

                if let PropertyStatus::Violated(reason) =
                    property.evaluate(&concrete.0, &concrete.1)
                {
                    let mut path = rebuild_path(&mut nodes, node_idx);
                    path.push(instance);
                    stats.states += 1;
                    trace.add(Counter::States, 1);
                    finish_stats!("violated");
                    let cx = Counterexample::new(spec, property.name(), reason, &path, &concrete.0);
                    return RunReport {
                        verdict: Verdict::Violated(Box::new(cx)),
                        stats,
                        strategy,
                    };
                }

                if stats.states >= config.max_states {
                    finish_stats!("limit");
                    return RunReport {
                        verdict: Verdict::LimitReached {
                            what: format!("state limit of {}", config.max_states),
                        },
                        stats,
                        strategy,
                    };
                }
                if let Some(limit) = config.time_limit {
                    if start.elapsed() > limit {
                        finish_stats!("limit");
                        return RunReport {
                            verdict: Verdict::LimitReached {
                                what: format!("time limit of {limit:?}"),
                            },
                            stats,
                            strategy,
                        };
                    }
                }

                let record = Some((node_idx, instance));
                if let Some(writer) = ckpt.as_mut() {
                    scratch.clear();
                    record.encode(&mut scratch);
                    ckpt_write!(writer.push_parent(&scratch));
                }
                let new_index = nodes.push(record);
                let (entry_state, entry_observer) = match canonical {
                    Some(key) => key,
                    None => concrete,
                };
                let entry = (new_index, delta, entry_state, entry_observer);
                if let Some(writer) = ckpt.as_mut() {
                    scratch.clear();
                    entry_codec.encode_item(&entry, &mut scratch);
                    ckpt_write!(writer.push_entry(&scratch));
                }
                frontier.push(entry);
                stats.states += 1;
                trace.add(Counter::States, 1);
            }
        }

        // Level boundary: let the external-memory store merge its sorted
        // runs (a no-op for the in-memory backends), then persist the
        // completed level.
        {
            let _span = trace.span(Phase::RunMerge);
            store.maintain();
        }
        if let Some(writer) = ckpt.as_mut() {
            ckpt_write!(writer.seal_level());
            if depth.is_multiple_of(every) {
                ckpt_write!(writer.commit(depth, spec_fp, &strategy, &identity, &ckpt_counters!()));
            }
        }

        // Per-level time-series and memory gauges; `enabled()` keeps every
        // stats read off the untraced path.
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
            trace.sample_gauge(Gauge::ParentLogBytes, nodes.approx_bytes() as u64);
            // With symmetry on, the visited store *is* the canonical-
            // representative cache (keys are pre-canonicalized orbit reps).
            let canon_bytes = if trivial { 0 } else { store_stats.approx_bytes };
            trace.sample_gauge(Gauge::CanonicalCacheBytes, canon_bytes as u64);
        }
    }

    finish_stats!("verified");
    RunReport {
        verdict: Verdict::Verified,
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
    use mp_store::FrontierConfig;

    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    struct Tok;
    mp_model::codec!(struct Tok);

    impl Message for Tok {
        fn kind(&self) -> Kind {
            "TOK"
        }
    }

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
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
                TransitionSpec::builder(format!("step{i}"), p(i))
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
    fn bfs_and_dfs_agree_on_state_counts() {
        let spec = independent(3, 2);
        let bfs = run_stateful_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::stateful_bfs(),
        );
        assert!(bfs.verdict.is_verified());
        assert_eq!(bfs.stats.states, 27);
        assert_eq!(bfs.stats.frontier_backend, "mem");
    }

    #[test]
    fn bfs_finds_shortest_counterexample() {
        let spec = independent(2, 4);
        let property: Invariant<u8, Tok, NullObserver> =
            Invariant::new("below-2", |s: &GlobalState<u8, Tok>, _| {
                if s.locals.iter().any(|l| *l >= 2) {
                    Err("reached 2".into())
                } else {
                    Ok(())
                }
            });
        let report = run_stateful_bfs(
            &spec,
            &property.into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::stateful_bfs(),
        );
        let cx = report.verdict.counterexample().unwrap();
        assert_eq!(cx.len(), 2, "BFS must find the 2-step shortest violation");
    }

    #[test]
    fn bfs_with_spor_still_verifies() {
        let spec = independent(3, 2);
        let reducer = SporReducer::new(&spec);
        let report = run_stateful_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &reducer,
            &no_sym(),
            &CheckerConfig::stateful_bfs(),
        );
        assert!(report.verdict.is_verified());
        assert!(report.stats.states < 27);
    }

    #[test]
    fn bfs_state_limit() {
        let spec = independent(3, 3);
        let report = run_stateful_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::stateful_bfs().with_max_states(4),
        );
        assert!(matches!(report.verdict, Verdict::LimitReached { .. }));
    }

    #[test]
    fn bfs_deadlock_check() {
        let spec = independent(1, 1);
        let report = run_stateful_bfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::stateful_bfs().with_deadlock_check(true),
        );
        assert!(report.verdict.is_violated());
    }

    #[test]
    fn disk_frontier_matches_mem_frontier_exactly() {
        // A tiny watermark forces multi-segment spilling even on this small
        // model; verdict, state count and counterexample must be identical.
        let spec = independent(3, 3);
        let run = |frontier: FrontierConfig| {
            run_stateful_bfs(
                &spec,
                &Invariant::always_true("true").into(),
                &NullObserver,
                &NoReduction,
                &no_sym(),
                &CheckerConfig::stateful_bfs().with_frontier(frontier),
            )
        };
        let mem = run(FrontierConfig::Mem);
        let disk = run(FrontierConfig::disk_with_watermark(64));
        assert!(mem.verdict.is_verified() && disk.verdict.is_verified());
        assert_eq!(mem.stats.states, disk.stats.states);
        assert_eq!(
            mem.stats.transitions_executed,
            disk.stats.transitions_executed
        );
        assert_eq!(mem.stats.max_depth, disk.stats.max_depth);
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
        let property = || -> Invariant<u8, Tok, NullObserver> {
            Invariant::new("below-3", |s: &GlobalState<u8, Tok>, _| {
                if s.locals.iter().any(|l| *l >= 3) {
                    Err("reached 3".into())
                } else {
                    Ok(())
                }
            })
        };
        let run = |frontier: FrontierConfig| {
            run_stateful_bfs(
                &spec,
                &property().into(),
                &NullObserver,
                &NoReduction,
                &no_sym(),
                &CheckerConfig::stateful_bfs().with_frontier(frontier),
            )
        };
        let mem = run(FrontierConfig::Mem);
        let disk = run(FrontierConfig::disk_with_watermark(16));
        let mem_cx = mem.verdict.counterexample().unwrap();
        let disk_cx = disk.verdict.counterexample().unwrap();
        assert_eq!(mem_cx.len(), disk_cx.len());
        assert_eq!(mem_cx.steps, disk_cx.steps, "identical concrete path");
    }
}
