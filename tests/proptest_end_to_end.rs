//! Property-based end-to-end tests: on pseudo-randomly generated instances
//! of the parametric quorum-collection protocol, (1) quorum-split
//! refinement always preserves the state graph, and (2) SPOR always agrees
//! with the unreduced search and never explores more states; and (3) on
//! generated cyclic specs the stateful liveness search agrees with itself
//! under every visited store and with the stateless path enumerator.
//!
//! The instances are drawn by a small deterministic PRNG instead of
//! `proptest` (this build environment is offline), so every run checks the
//! same fixed set of cases and failures reproduce exactly.

use mp_basset::checker::{
    Checker, CheckerConfig, Counterexample, CounterexampleStep, Fairness, NullObserver, Property,
    Verdict,
};
use mp_basset::model::{
    enabled_instances, execute_enabled, GlobalState, Outcome, ProcessId, ProtocolSpec,
    TransitionSpec,
};
use mp_basset::protocols::sweep::{collect_model, collect_soundness_property, CollectSetting};
use mp_basset::refine::{check_refinement, SplitStrategy};
use mp_basset::store::StoreConfig;
use mp_basset::trace::analyze::analyze_stream;
use mp_basset::trace::{Gauge, Phase, SharedBuffer, Tracer};

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// A valid (voters, quorum, collectors) triple with voters in 2..5,
    /// quorum in 1..4 limited by voters, collectors in 1..3 — the ranges of
    /// the original proptest strategies.
    fn setting(&mut self) -> CollectSetting {
        loop {
            let voters = 2 + self.below(3);
            let quorum = 1 + self.below(3);
            let collectors = 1 + self.below(2);
            if quorum <= voters {
                return CollectSetting::new(voters, quorum, collectors);
            }
        }
    }
}

const CASES: usize = 16;

#[test]
fn splits_preserve_state_graph() {
    let mut rng = Rng(11);
    for _ in 0..CASES {
        let setting = rng.setting();
        let base = collect_model(setting, true);
        for strategy in SplitStrategy::ALL {
            let split = strategy.apply(&base).unwrap();
            let check = check_refinement(&base, &split, 500_000).unwrap();
            assert!(
                check.equivalent,
                "{} broke the state graph for {setting:?}",
                strategy.label()
            );
        }
    }
}

#[test]
fn spor_is_sound_and_never_larger() {
    let mut rng = Rng(12);
    for _ in 0..CASES {
        let setting = rng.setting();
        for quorum_style in [true, false] {
            let spec = collect_model(setting, quorum_style);
            let unreduced = Checker::new(&spec, collect_soundness_property(setting)).run();
            let reduced = Checker::new(&spec, collect_soundness_property(setting))
                .spor()
                .run();
            assert!(unreduced.verdict.is_verified());
            assert!(reduced.verdict.is_verified());
            assert!(reduced.stats.states <= unreduced.stats.states);
        }
    }
}

type Cell = (ProtocolSpec<u8, String>, Property<u8, String>);

impl Rng {
    /// A set of local values, each in with probability 1/3.
    fn third_of(&mut self, locals: u8) -> Vec<u8> {
        (0..locals).filter(|_| self.below(3) == 0).collect()
    }

    /// A cyclic liveness cell: 1–2 processes, each a random directed graph
    /// over its ≤ 6 local values (one visible internal transition per
    /// edge, no parallel edges, value 0 initial), and a termination or
    /// leads-to property whose trigger and goal are random sets of one
    /// process's values, under weak fairness or none.
    fn liveness_cell(&mut self) -> (Cell, bool) {
        let processes = 1 + self.below(2);
        let mut builder = ProtocolSpec::<u8, String>::builder("generated");
        for p in 0..processes {
            builder = builder.process(format!("p{p}"), 0u8);
        }
        let mut sizes = Vec::new();
        for p in 0..processes {
            let locals = 2 + self.below(if processes == 1 { 5 } else { 3 }) as u8;
            sizes.push(locals);
            let mut edges: Vec<(u8, u8)> = Vec::new();
            for _ in 0..locals as usize + self.below(locals as usize + 1) {
                let edge = (
                    self.below(locals as usize) as u8,
                    self.below(locals as usize) as u8,
                );
                if !edges.contains(&edge) {
                    edges.push(edge);
                }
            }
            for (from, to) in edges {
                builder = builder.transition(
                    TransitionSpec::builder(format!("p{p}:{from}>{to}"), ProcessId(p))
                        .internal()
                        .guard(move |l: &u8, _| *l == from)
                        .sends_nothing()
                        .visible()
                        .effect(move |_, _| Outcome::new(to))
                        .build(),
                );
            }
        }
        let (on_trigger, on_goal) = (self.below(processes), self.below(processes));
        let (trigger, goal) = (
            self.third_of(sizes[on_trigger]),
            self.third_of(sizes[on_goal]),
        );
        let is_goal =
            move |s: &GlobalState<u8, String>, _: &NullObserver| goal.contains(&s.locals[on_goal]);
        let property = if self.below(2) == 0 {
            Property::termination("reaches-goal", is_goal)
        } else {
            let is_trigger = move |s: &GlobalState<u8, String>, _: &NullObserver| {
                trigger.contains(&s.locals[on_trigger])
            };
            Property::leads_to("trigger-leads-to-goal", is_trigger, is_goal)
        };
        let unfair = self.below(2) == 0;
        let fairness = if unfair {
            Fairness::Unfair
        } else {
            Fairness::WeakProtocol
        };
        // The path enumerator judges elementary cycles only. That is every
        // cycle there is without fairness, and with one process too (an
        // instance is enabled in one local value only, so no cycle through
        // two values starves one); two processes can need a figure-eight.
        let enumerator_complete = unfair || processes == 1;
        (
            (builder.build().unwrap(), property.with_fairness(fairness)),
            enumerator_complete,
        )
    }
}

/// Re-executes a lasso step by step and judges it from the definitions: the
/// stem leads to the entry, the cycle returns to it, the obligation is
/// pending at the entry and stays so, a lasso without a cycle ends with
/// nothing enabled, and under weak fairness no instance is enabled all
/// around the cycle yet never taken.
fn lasso_is_genuine((spec, property): &Cell, cx: &Counterexample) {
    let instance_of = |state: &GlobalState<u8, String>, step: &CounterexampleStep| {
        let mut enabled = enabled_instances(spec, state).into_iter();
        let found = enabled.find(|i| spec.transition(i.transition).name() == step.transition);
        found.unwrap_or_else(|| panic!("step `{step}` is not enabled: {cx}"))
    };
    let mut state = spec.initial_state();
    let mut pending = property.initial_pending(&state, &NullObserver);
    for step in &cx.steps {
        state = execute_enabled(spec, &state, &instance_of(&state, step));
        pending = property.step_pending(pending, &state, &NullObserver);
    }
    assert!(pending, "the obligation is owed at the entry: {cx}");
    let entry = state.clone();
    let mut starved = enabled_instances(spec, &entry);
    assert_eq!(cx.cycle.is_empty(), starved.is_empty(), "{cx}");
    for step in &cx.cycle {
        starved.retain(|i| enabled_instances(spec, &state).contains(i));
        let taken = instance_of(&state, step);
        state = execute_enabled(spec, &state, &taken);
        starved.retain(|i| *i != taken);
        assert!(property.step_pending(true, &state, &NullObserver), "{cx}");
    }
    assert_eq!(state, entry, "{cx}");
    let fair = property.fairness() == Fairness::Unfair || starved.is_empty();
    assert!(fair, "{starved:?} starve on {cx}");
}

#[test]
fn liveness_on_generated_cyclic_specs_agrees_across_stores_and_with_the_enumerator() {
    let mut rng = Rng(13);
    let (mut violated, mut by_backstop, mut compared) = (0, 0, 0);
    for case in 0..96 {
        let (cell, enumerator_complete) = rng.liveness_cell();
        let (spec, property) = &cell;
        let reference = Checker::new(spec, property.clone())
            .config(CheckerConfig::stateless(false))
            .run();
        let limit = matches!(reference.verdict, Verdict::LimitReached { .. });
        assert!(!limit, "case {case}: {reference}");

        let mut exact = None;
        for store in [
            StoreConfig::Exact,
            StoreConfig::sharded(),
            StoreConfig::fingerprint(64),
            StoreConfig::runs_with_watermark(32),
        ] {
            let buffer = SharedBuffer::new();
            let tracer = Tracer::to_writer(false, Box::new(buffer.clone()));
            let config = CheckerConfig::stateful_dfs().with_store(store);
            let report = Checker::new(spec, property.clone())
                .config(config.with_trace(tracer))
                .run();
            let label = format!("case {case} on {store}: {report}");
            let lasso = report.verdict.counterexample().map(|cx| {
                lasso_is_genuine(&cell, cx);
                (cx.steps.len(), cx.cycle.len())
            });
            assert_eq!(report.verdict.is_verified(), lasso.is_none(), "{label}");
            let row = (
                lasso,
                report.stats.states,
                report.stats.transitions_executed,
            );
            assert_eq!(&row, exact.get_or_insert(row), "{label}");
            if reference.verdict.is_violated() || enumerator_complete {
                let agree = reference.verdict.is_violated() == report.verdict.is_violated();
                assert!(agree, "{label}\nagainst {reference}");
            }

            // Nothing closed on the stack, so the search ran to its end and
            // the lasso is the backstop's, rebuilt by replay.
            let backstop = report.stats.phases.nanos(Phase::SccBackstop) > 0;
            by_backstop += usize::from(backstop && lasso.is_some());
            let runs = analyze_stream(buffer.contents().lines()).expect("a valid trace");
            let graph_bytes = runs[0].gauge(Gauge::ParentLogBytes);
            let expanded = report.stats.expansions as u64;
            assert!(graph_bytes >= 8 * expanded, "{graph_bytes} B, {label}");
        }
        violated += usize::from(reference.verdict.is_violated());
        compared += usize::from(enumerator_complete);
    }
    assert!((16..=80).contains(&violated), "{violated} of 96 violated");
    assert!(compared >= 32, "{compared} cells compared both ways");
    assert!(
        by_backstop >= 4,
        "{by_backstop} lassos came from the SCC backstop"
    );
}
