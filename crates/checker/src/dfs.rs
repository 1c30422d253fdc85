//! Stateful depth-first search.
//!
//! This is the workhorse engine of the reproduction (the analogue of
//! MP-Basset's stateful search inside JPF). It stores every visited
//! `(state, observer)` pair in the backend selected by
//! [`CheckerConfig::store`], asks the configured [`Reducer`] which enabled
//! instances to explore in each state, checks the invariant in every state,
//! and applies the **stack (cycle) proviso**: if a reduced expansion produces
//! a successor that is still on the DFS stack, the state is re-expanded fully
//! so that no transition is ignored forever (the "ignoring problem" of
//! partial-order reduction).
//!
//! The `on_stack` set used by the proviso is always exact (it is bounded by
//! the search depth), so with a fingerprint store only the *visited* set is
//! probabilistic, never the proviso.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use mp_store::StateStoreBackend;

use mp_model::{
    enabled_instances, execute_enabled, GlobalState, LocalState, Message, ProtocolSpec,
    TransitionInstance,
};
use mp_por::Reducer;
use mp_symmetry::Symmetry;
use mp_trace::{Counter, Phase, TraceHandle};

use crate::{
    liveness::run_liveness_dfs, CheckerConfig, Counterexample, ExplorationStats, Observer,
    Property, PropertyStatus, RunReport, Verdict,
};

struct Frame<S, M: Ord, O> {
    state: GlobalState<S, M>,
    observer: O,
    /// The key this frame occupies in the `on_stack` set: the concrete
    /// `(state, observer)` pair, or its canonical orbit representative when
    /// symmetry reduction is active.
    stack_key: (GlobalState<S, M>, O),
    /// Instance that led into this state (None for the initial state).
    incoming: Option<TransitionInstance<M>>,
    /// Instances chosen by the reducer, explored in order.
    explore: Vec<TransitionInstance<M>>,
    /// Instances pruned by the reducer, re-added if the proviso fires.
    pruned: Vec<TransitionInstance<M>>,
    next: usize,
    reduced: bool,
}

/// Runs a stateful depth-first search and returns the report.
///
/// Dispatches on the property class: safety properties run the invariant
/// search below (unchanged semantics and state counts); liveness properties
/// (termination / leads-to) run the fairness-aware lasso search of
/// [`crate::liveness`], which this engine's on-stack cycle detector was
/// built for.
///
/// With a non-trivial [`Symmetry`], exploration stays concrete but the
/// visited store and the proviso's on-stack set are keyed by canonical
/// orbit representatives: a successor whose orbit was already visited is
/// pruned (a symmetric sibling's subtree covers it), and a successor whose
/// orbit is on the DFS stack closes a cycle *in the quotient graph*, firing
/// the cycle proviso. Counterexample paths remain fully concrete.
pub fn run_stateful_dfs<S, M, O>(
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
    let strategy = if trivial {
        format!("stateful-dfs+{}", reducer.name())
    } else {
        format!("stateful-dfs+{}+{}", reducer.name(), symmetry.label())
    };
    let trace = config
        .trace
        .begin_run(spec.name(), &strategy, property.name());

    // Keys are canonicalized by this engine (the on-stack proviso needs
    // them too).
    let store = config.store.build::<(GlobalState<S, M>, O)>();
    let store_label = |trivial: bool, name: &'static str| -> &'static str {
        if trivial {
            name
        } else {
            mp_store::canonical_label(name)
        }
    };
    let mut on_stack: HashSet<(GlobalState<S, M>, O)> = HashSet::new();
    let mut stack: Vec<Frame<S, M, O>> = Vec::new();

    let initial = spec.initial_state();
    let initial_observer = initial_observer.clone();

    macro_rules! finish_stats {
        ($verdict:expr) => {
            stats.elapsed = start.elapsed();
            stats.record_store(store_label(trivial, store.name()), store.stats());
            stats.phases = trace.phase_times();
            trace.finish($verdict);
        };
    }

    // Check the initial state before exploring.
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
    // itself; canonicalize anyway so the key discipline has no exceptions.
    let initial_key = if trivial {
        (initial.clone(), initial_observer.clone())
    } else {
        let (s, o, _) = symmetry.canonicalize_traced(&initial, &initial_observer, &trace);
        (s, o)
    };
    store.insert(initial_key.clone());
    on_stack.insert(initial_key.clone());
    stats.states = 1;
    stats.expansions = 1;
    trace.add(Counter::States, 1);
    trace.add(Counter::Expansions, 1);
    let first_frame = make_frame(
        spec,
        reducer,
        &mut stats,
        config,
        initial,
        initial_observer,
        initial_key,
        None,
        &trace,
    );
    if config.check_deadlocks && first_frame.explore.is_empty() && first_frame.pruned.is_empty() {
        finish_stats!("violated");
        let cx = Counterexample::new(
            spec,
            property.name(),
            "deadlock in the initial state",
            &[],
            &first_frame.state,
        );
        return RunReport {
            verdict: Verdict::Violated(Box::new(cx)),
            stats,
            strategy,
        };
    }
    stack.push(first_frame);

    while !stack.is_empty() {
        stats.max_depth = stats.max_depth.max(stack.len());
        trace.add(Counter::Depth, stack.len() as u64);
        let top = stack.last_mut().expect("stack checked non-empty");

        if top.next >= top.explore.len() {
            // Frame exhausted.
            let frame = stack.pop().expect("non-empty stack");
            on_stack.remove(&frame.stack_key);
            continue;
        }

        let instance = top.explore[top.next].clone();
        top.next += 1;
        let key = {
            let _span = trace.span(Phase::Expansion);
            let next_state = execute_enabled(spec, &top.state, &instance);
            let next_observer = top
                .observer
                .update(spec, &top.state, &instance, &next_state);
            (next_state, next_observer)
        };
        stats.transitions_executed += 1;
        trace.add(Counter::Transitions, 1);

        // With symmetry on, membership and the proviso are judged on the
        // canonical orbit representative; exploration stays concrete.
        let canon = (!trivial).then(|| {
            let (s, o, _) = symmetry.canonicalize_traced(&key.0, &key.1, &trace);
            (s, o)
        });
        let probe = canon.as_ref().unwrap_or(&key);

        // Cycle proviso: the successor closes a cycle into the DFS stack
        // (exactly, or modulo a symmetry permutation) and the current state
        // was expanded with a reduced set — re-expand it fully so no enabled
        // transition is postponed around the cycle.
        if config.cycle_proviso && top.reduced && on_stack.contains(probe) {
            top.explore.append(&mut top.pruned);
            top.reduced = false;
            stats.proviso_expansions += 1;
        }

        // A single insert doubles as the membership test (unified hit
        // accounting: a duplicate is a store hit = one revisit); the
        // by-reference form clones the key only when it is actually new.
        let inserted = {
            let _span = trace.span(Phase::StoreLookup);
            store.insert_ref(probe)
        };
        if !inserted {
            stats.revisits += 1;
            trace.add(Counter::Revisits, 1);
            continue;
        }

        let stack_key = match canon {
            Some(c) => c,
            None => key.clone(),
        };
        let (next_state, next_observer) = key;

        // Property check on the newly discovered state.
        if let PropertyStatus::Violated(reason) = property.evaluate(&next_state, &next_observer) {
            let mut path: Vec<TransitionInstance<M>> =
                stack.iter().filter_map(|f| f.incoming.clone()).collect();
            path.push(instance);
            stats.states += 1;
            trace.add(Counter::States, 1);
            finish_stats!("violated");
            let cx = Counterexample::new(spec, property.name(), reason, &path, &next_state);
            return RunReport {
                verdict: Verdict::Violated(Box::new(cx)),
                stats,
                strategy,
            };
        }

        if store.len() > config.max_states {
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

        on_stack.insert(stack_key.clone());
        stats.states += 1;
        stats.expansions += 1;
        trace.add(Counter::States, 1);
        trace.add(Counter::Expansions, 1);

        let frame = make_frame(
            spec,
            reducer,
            &mut stats,
            config,
            next_state,
            next_observer,
            stack_key,
            Some(instance.clone()),
            &trace,
        );

        if config.check_deadlocks && frame.explore.is_empty() && frame.pruned.is_empty() {
            let mut path: Vec<TransitionInstance<M>> =
                stack.iter().filter_map(|f| f.incoming.clone()).collect();
            path.push(instance);
            finish_stats!("violated");
            let cx = Counterexample::new(
                spec,
                property.name(),
                "deadlock: no transition enabled",
                &path,
                &frame.state,
            );
            return RunReport {
                verdict: Verdict::Violated(Box::new(cx)),
                stats,
                strategy,
            };
        }

        stack.push(frame);
    }

    finish_stats!("verified");
    RunReport {
        verdict: Verdict::Verified,
        stats,
        strategy,
    }
}

#[allow(clippy::too_many_arguments)] // a DFS frame genuinely has this many parts
fn make_frame<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    reducer: &dyn Reducer<S, M>,
    stats: &mut ExplorationStats,
    _config: &CheckerConfig,
    state: GlobalState<S, M>,
    observer: O,
    stack_key: (GlobalState<S, M>, O),
    incoming: Option<TransitionInstance<M>>,
    trace: &TraceHandle,
) -> Frame<S, M, O>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let all = {
        let _span = trace.span(Phase::Expansion);
        enabled_instances(spec, &state)
    };
    let reduction = reducer.reduce_traced(spec, &state, all, trace);
    if reduction.reduced {
        stats.reduced_states += 1;
    }
    Frame {
        state,
        observer,
        stack_key,
        incoming,
        explore: reduction.explore,
        pruned: reduction.pruned,
        next: 0,
        reduced: reduction.reduced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Invariant, NullObserver};
    use mp_model::{Kind, Outcome, ProcessId, TransitionSpec};
    use mp_por::{NoReduction, SporReducer};

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

    /// `n` independent processes each taking `steps` internal steps.
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
    fn unreduced_dfs_counts_the_full_product() {
        // 3 processes × 2 steps each: (2+1)^3 = 27 states.
        let spec = independent(3, 2);
        let report = run_stateful_dfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(report.verdict.is_verified());
        assert_eq!(report.stats.states, 27);
    }

    #[test]
    fn spor_dfs_explores_fewer_states() {
        let spec = independent(3, 2);
        let reducer = SporReducer::new(&spec);
        let report = run_stateful_dfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &reducer,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(report.verdict.is_verified());
        assert!(
            report.stats.states < 27,
            "independent processes must be interleaved in fewer orders, got {}",
            report.stats.states
        );
        // Fully independent: one linearisation suffices => 7 states on a line.
        assert_eq!(report.stats.states, 7);
    }

    #[test]
    fn all_store_backends_agree_on_the_state_count() {
        use mp_store::StoreConfig;
        let spec = independent(3, 2);
        for store in [
            StoreConfig::Exact,
            StoreConfig::sharded(),
            StoreConfig::fingerprint(64),
        ] {
            let report = run_stateful_dfs(
                &spec,
                &Invariant::always_true("true").into(),
                &NullObserver,
                &NoReduction,
                &no_sym(),
                &CheckerConfig::default().with_store(store),
            );
            assert!(report.verdict.is_verified(), "{store} failed");
            assert_eq!(report.stats.states, 27, "{store} state count");
            assert_eq!(
                report.stats.store_hits, report.stats.revisits,
                "{store} hits"
            );
            assert!(report.stats.store_bytes > 0, "{store} bytes");
        }
    }

    #[test]
    fn violation_is_reported_with_path() {
        let spec = independent(2, 3);
        let property: Invariant<u8, Tok, NullObserver> =
            Invariant::new("below-3", |s: &GlobalState<u8, Tok>, _| {
                if s.locals.iter().any(|l| *l >= 3) {
                    Err("a process reached 3".into())
                } else {
                    Ok(())
                }
            });
        let report = run_stateful_dfs(
            &spec,
            &property.into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        let cx = report.verdict.counterexample().expect("violation expected");
        assert_eq!(
            cx.len(),
            3,
            "shortest possible path has 3 steps; DFS found {}",
            cx.len()
        );
        assert!(cx.reason.contains("reached 3"));
    }

    #[test]
    fn initial_state_violation_gives_empty_counterexample() {
        let spec = independent(1, 1);
        let property: Invariant<u8, Tok, NullObserver> =
            Invariant::new("never", |_: &GlobalState<u8, Tok>, _| {
                Err("init is bad".into())
            });
        let report = run_stateful_dfs(
            &spec,
            &property.into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default(),
        );
        let cx = report.verdict.counterexample().unwrap();
        assert!(cx.is_empty());
        // Store stats are recorded even on the initial-state early return.
        assert_eq!(report.stats.store_backend, "exact");
    }

    #[test]
    fn state_limit_stops_the_search() {
        let spec = independent(3, 3);
        let report = run_stateful_dfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default().with_max_states(5),
        );
        assert!(matches!(report.verdict, Verdict::LimitReached { .. }));
        assert!(report.stats.states <= 6);
    }

    #[test]
    fn deadlock_detection_reports_terminal_states() {
        let spec = independent(1, 1);
        let report = run_stateful_dfs(
            &spec,
            &Invariant::always_true("true").into(),
            &NullObserver,
            &NoReduction,
            &no_sym(),
            &CheckerConfig::default().with_deadlock_check(true),
        );
        assert!(report.verdict.is_violated());
        let cx = report.verdict.counterexample().unwrap();
        assert!(cx.reason.contains("deadlock"));
    }

    /// A cyclic protocol: one process toggles its bit forever, the other
    /// makes a single visible move. Without the cycle proviso a naive
    /// reduction could postpone the second process forever.
    #[test]
    fn cycle_proviso_keeps_search_sound_on_cycles() {
        let spec: ProtocolSpec<u8, Tok> = ProtocolSpec::builder("cycle")
            .process("toggler", 0u8)
            .process("mover", 0u8)
            .transition(
                TransitionSpec::builder("toggle", p(0))
                    .internal()
                    .sends_nothing()
                    .effect(|l, _| Outcome::new(1 - *l))
                    .build(),
            )
            .transition(
                TransitionSpec::builder("move", p(1))
                    .internal()
                    .guard(|l, _| *l == 0)
                    .sends_nothing()
                    .visible()
                    .effect(|_, _| Outcome::new(1))
                    .build(),
            )
            .build()
            .unwrap();
        let property: Invariant<u8, Tok, NullObserver> =
            Invariant::new("mover-never-moves", |s: &GlobalState<u8, Tok>, _| {
                if *s.local(p(1)) == 1 {
                    Err("mover moved".into())
                } else {
                    Ok(())
                }
            });
        let reducer = SporReducer::new(&spec);
        let report = run_stateful_dfs(
            &spec,
            &property.into(),
            &NullObserver,
            &reducer,
            &no_sym(),
            &CheckerConfig::default(),
        );
        assert!(
            report.verdict.is_violated(),
            "the reduced search must still find the mover's step"
        );
    }
}
