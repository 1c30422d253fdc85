//! What the integration tests share: the one SplitMix64 [`Rng`], the spec
//! generator [`GenSpec`], the unreduced reference search [`Reference`], the
//! one counterexample replay checker ([`replay`], with
//! [`lasso_is_genuine`] and [`rejects`] judging what it replays to), and
//! the one [`differential`] driver that judges every engine row of a cell
//! against the reference.
//!
//! Every test binary compiles this module and uses a part of it.
#![allow(dead_code)]

pub mod differential;

use std::collections::HashMap;

use mp_basset::checker::RunReport;
use mp_basset::checker::{Counterexample, Fairness, Invariant, NullObserver, Observer, Property};
use mp_basset::checker::{CounterexampleStep, PropertyStatus};
use mp_basset::faults::{inject, lift_invariant, lift_property, FaultBudget, FaultLocal};
use mp_basset::model::{
    enabled_instances, execute_enabled, successors, Envelope, GlobalState, InputSpec, Kind,
    LocalState, Message, ModelError, Outcome, Permutable, Permutation, ProcessId, ProtocolSpec,
    QuorumSpec, TransitionInstance, TransitionSpec,
};
use mp_basset::symmetry::RoleMap;

/// SplitMix64: a seeded, reproducible stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Each of `0..n`, in with probability 1/3.
    fn third_of(&mut self, n: usize) -> Vec<u8> {
        (0..n as u8).filter(|_| self.below(3) == 0).collect()
    }
}

// ---------------------------------------------------------------------------
// The generator.
// ---------------------------------------------------------------------------

/// The message kinds a generated spec sends and consumes.
const KINDS: [Kind; 2] = ["A", "B"];

/// A generated message: an index into `KINDS` and a payload.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Msg(pub u8, pub u8);
mp_model::codec!(struct Msg(kind, payload));

impl Message for Msg {
    fn kind(&self) -> Kind {
        KINDS[usize::from(self.0)]
    }
}

impl Permutable for Msg {
    fn permute(&self, _perm: &Permutation) -> Self {
        self.clone()
    }
}

/// One transition: `process` moves its local value `from → to`, consuming
/// `input` (from `senders` only, if given; each payload equal to `payload`,
/// if given) and sending `sends`.
#[derive(Clone, Debug)]
pub struct GenTransition {
    pub process: usize,
    pub from: u8,
    pub to: u8,
    pub input: InputSpec,
    pub senders: Option<Vec<usize>>,
    pub payload: Option<u8>,
    pub sends: Vec<(usize, Msg)>,
}

/// The invariant: violated once `at_least` of `processes` hold `value`.
#[derive(Clone, Debug)]
pub struct Watch {
    pub processes: Vec<usize>,
    pub value: u8,
    pub at_least: usize,
}

/// The liveness property over `process`'s value: termination (every fair
/// run reaches `goal`) without a trigger, leads-to with one.
#[derive(Clone, Debug)]
pub struct GenLiveness {
    pub process: usize,
    pub trigger: Option<Vec<u8>>,
    pub goal: Vec<u8>,
    pub unfair: bool,
}

/// A generated spec, as data: its `Debug` rendering rebuilds it.
///
/// Every process starts at local value 0 and moves only by its
/// transitions' `from → to` guards. Below its *send threshold* a process
/// only moves up, and only those moves send; at or above it, it moves
/// freely (in half the specs to its own value too) but never below it
/// again. So each process sends a bounded number of messages and every
/// spec is finite, while the moves above the threshold (for a process that
/// never sends, every move) may close cycles.
#[derive(Clone, Debug)]
pub struct GenSpec {
    /// Each process's number of local values.
    pub locals: Vec<u8>,
    pub transitions: Vec<GenTransition>,
    /// One declared role (empty: none). Members have identical transitions.
    pub members: Vec<usize>,
    pub watch: Watch,
    pub liveness: GenLiveness,
    pub budget: FaultBudget,
    /// Keep the default annotations — any recipient, any kind, reads and
    /// writes — and make every transition visible.
    pub conservative: bool,
}

/// A built [`GenSpec`]: the fault-injected spec and its lifted properties.
pub struct Built {
    pub spec: ProtocolSpec<FaultLocal<u8>, Msg>,
    pub invariant: Invariant<FaultLocal<u8>, Msg, NullObserver>,
    pub liveness: Property<FaultLocal<u8>, Msg>,
    pub roles: Option<RoleMap>,
}

impl GenSpec {
    /// Draws a spec: 2–4 processes with 2–5 local values each, or a
    /// coordinator with 2–3 members in one role.
    pub fn generate(rng: &mut Rng) -> GenSpec {
        let role = rng.below(3) == 0;
        let n = if role {
            3 + rng.below(2)
        } else {
            2 + rng.below(3)
        };
        let members: Vec<usize> = if role { (1..n).collect() } else { Vec::new() };
        let mut domain = || 2 + rng.below(4) as u8;
        let member = domain();
        let locals: Vec<u8> = (0..n)
            .map(|p| if p > 0 && role { member } else { domain() })
            .collect();
        let mut transitions: Vec<GenTransition> = Vec::new();
        for (p, &values) in locals.iter().enumerate() {
            if role && p > 1 {
                // A member's transitions are the first member's, moved.
                let first = transitions.iter().filter(|t| t.process == 1);
                let moved: Vec<_> = first
                    .map(|t| GenTransition {
                        process: p,
                        ..t.clone()
                    })
                    .collect();
                transitions.extend(moved);
                continue;
            }
            let d = usize::from(values);
            // Half the processes never send: their threshold is 0.
            let threshold = rng.below(2) * (1 + rng.below(((d - 1) / 2).max(1)));
            for _ in 0..d + rng.below(3) {
                let from = rng.below(d);
                let to = match from < threshold {
                    true => from + 1 + rng.below(d - from - 1),
                    false => threshold + rng.below(d - threshold),
                };
                // A coordinator hears its members, a member its coordinator.
                let senders = match (role, p) {
                    (true, 0) => (rng.below(2) == 0).then(|| members.clone()),
                    (true, _) => (rng.below(2) == 0).then(|| vec![0]),
                    _ => (rng.below(3) == 0).then(|| {
                        let some: Vec<usize> = (0..n).filter(|_| rng.below(2) == 0).collect();
                        if some.is_empty() {
                            vec![rng.below(n)]
                        } else {
                            some
                        }
                    }),
                };
                // One quorum in eight may ask for one sender too many.
                let candidates = senders.as_ref().map_or(n, Vec::len);
                let q = 1 + rng.below(candidates) + usize::from(rng.below(8) == 0);
                let kind = KINDS[rng.below(2)];
                // Above the threshold, moves are mostly internal, so that
                // cycles close.
                let free = from >= threshold && rng.below(3) != 0;
                let input = match rng.below(6) {
                    _ if free => InputSpec::Internal,
                    0 | 1 => InputSpec::Internal,
                    2 | 5 => InputSpec::Single { kind },
                    3 => InputSpec::Quorum {
                        kind,
                        quorum: QuorumSpec::Exact(q),
                    },
                    _ => InputSpec::Quorum {
                        kind,
                        quorum: QuorumSpec::AtLeast(q),
                    },
                };
                let internal = input == InputSpec::Internal;
                let payload = (!internal && rng.below(3) == 0).then(|| rng.below(2) as u8);
                let mut sends = Vec::new();
                if from < threshold && rng.below(2) == 0 {
                    let msg = Msg(rng.below(2) as u8, rng.below(2) as u8);
                    match (role, p) {
                        (true, 0) => sends.extend(members.iter().map(|&m| (m, msg.clone()))),
                        (true, _) => sends.push((0, msg)),
                        _ => {
                            for _ in 0..1 + rng.below(2) {
                                sends.push((rng.below(n), Msg(rng.below(2) as u8, msg.1)));
                            }
                        }
                    }
                }
                let (from, to) = (from as u8, to as u8);
                let senders = senders.filter(|_| !internal);
                transitions.push(GenTransition {
                    process: p,
                    from,
                    to,
                    input,
                    senders,
                    payload,
                    sends,
                });
            }
        }
        // The properties read processes the group fixes, or all members.
        let watched = match role {
            true if rng.below(2) == 0 => members.clone(),
            true => vec![0],
            false => vec![rng.below(n)],
        };
        let values = usize::from(locals[watched[0]]);
        let value = 1 + rng.below(values - 1) as u8;
        let at_least = watched.len().min(2);
        let process = if role { 0 } else { rng.below(n) };
        let values = usize::from(locals[process]);
        let trigger = (rng.below(2) == 0).then(|| rng.third_of(values));
        let (goal, unfair) = (rng.third_of(values), rng.below(2) == 0);
        let none = FaultBudget::none();
        let budget = [none, none.crashes(1), none.drops(1), none.dups(1)][rng.below(4)];
        // Half the specs keep their self-loops: under weak fairness a cycle
        // must then take another process's self-loop too, a figure-eight
        // only the SCC backstop finds.
        if rng.below(2) == 0 {
            transitions.retain(|t| t.from != t.to);
        }
        GenSpec {
            locals,
            transitions,
            members,
            watch: Watch {
                processes: watched,
                value,
                at_least,
            },
            liveness: GenLiveness {
                process,
                trigger,
                goal,
                unfair,
            },
            budget,
            conservative: false,
        }
    }

    /// Builds the spec, injects the budget and lifts the properties. A
    /// spec `ProtocolSpec::build` refuses (an infeasible quorum) is an
    /// error.
    pub fn build(&self) -> Result<Built, ModelError> {
        let mut builder = ProtocolSpec::<u8, Msg>::builder("generated");
        for p in 0..self.locals.len() {
            builder = builder.process(format!("p{p}"), 0u8);
        }
        // The transitions of a process a property reads are visible.
        let read = |p| self.watch.processes.contains(&p) || self.liveness.process == p;
        for (i, t) in self.transitions.iter().enumerate() {
            let name = format!("t{i}:p{}:{}>{}", t.process, t.from, t.to);
            let mut b = TransitionSpec::builder(name, ProcessId(t.process));
            b = match t.input {
                InputSpec::Internal => b.internal(),
                InputSpec::Single { kind } => b.single_input(kind),
                InputSpec::Quorum { kind, quorum } => b.quorum_input(kind, quorum),
            };
            if let Some(senders) = &t.senders {
                b = b.allowed_senders(senders.iter().map(|&p| ProcessId(p)));
            }
            let (from, to, payload, sends) = (t.from, t.to, t.payload, t.sends.clone());
            let consumes = move |consumed: &[Envelope<Msg>]| {
                payload.is_none_or(|v| consumed.iter().all(|e| e.payload.1 == v))
            };
            b = b.guard(move |l: &u8, consumed| *l == from && consumes(consumed));
            b = b.effect(move |_, _| {
                let outcome = Outcome::new(to);
                sends
                    .iter()
                    .fold(outcome, |o, (r, m)| o.send(ProcessId(*r), m.clone()))
            });
            if !self.conservative && t.sends.is_empty() {
                b = b.sends_nothing();
            } else if !self.conservative {
                let mut kinds: Vec<Kind> = t.sends.iter().map(|(_, m)| m.kind()).collect();
                kinds.dedup();
                b = b
                    .sends(&kinds)
                    .sends_to(t.sends.iter().map(|(r, _)| ProcessId(*r)));
            }
            if self.conservative || read(t.process) {
                b = b.visible();
            }
            builder = builder.transition(b.build());
        }
        let spec = inject(&builder.build()?, self.budget)?;

        let Watch {
            processes,
            value,
            at_least,
        } = self.watch.clone();
        let invariant = Invariant::new("watch", move |s: &GlobalState<u8, Msg>, _| {
            let holding = processes.iter().filter(|&&p| s.locals[p] == value).count();
            match holding >= at_least {
                true => Err(format!("{at_least} of {processes:?} hold {value}")),
                false => Ok(()),
            }
        });
        let GenLiveness {
            process,
            trigger,
            goal,
            unfair,
        } = self.liveness.clone();
        let holds = |values: Vec<u8>| {
            move |s: &GlobalState<u8, Msg>, _: &NullObserver| values.contains(&s.locals[process])
        };
        let liveness = match trigger {
            None => Property::termination("reaches-goal", holds(goal)),
            Some(trigger) => {
                Property::leads_to("trigger-leads-to-goal", holds(trigger), holds(goal))
            }
        };
        let fairness = if unfair {
            Fairness::Unfair
        } else {
            Fairness::WeakProtocol
        };
        let members = self.members.iter().map(|&p| ProcessId(p));
        let roles = RoleMap::new(self.locals.len()).role(members);
        Ok(Built {
            spec,
            invariant: lift_invariant(invariant),
            liveness: lift_property(liveness.with_fairness(fairness)),
            roles: (!self.members.is_empty()).then_some(roles),
        })
    }
}

// ---------------------------------------------------------------------------
// The reference search.
// ---------------------------------------------------------------------------

/// The unreduced, exact breadth-first graph of `(state, observer)` pairs,
/// built from `mp_model::successors` and `Observer::update` alone: the
/// ground truth every engine row is judged against.
pub struct Reference<S, M: Ord, O> {
    /// The distinct pairs in breadth-first order, the root first.
    pub pairs: Vec<(GlobalState<S, M>, O)>,
    /// Each pair's breadth-first depth.
    pub depth: Vec<usize>,
    /// The successors of each expanded pair, in generation order and
    /// revisits included, as indices into `pairs`.
    pub edges: Vec<Vec<usize>>,
}

impl<S: LocalState, M: Message, O: Observer<S, M>> Reference<S, M, O> {
    /// Searches from the initial state, expanding pairs until `limit`
    /// distinct ones are known.
    pub fn search(spec: &ProtocolSpec<S, M>, observer: O, limit: usize) -> Self {
        let root = (spec.initial_state(), observer);
        let mut index = HashMap::from([(root.clone(), 0)]);
        let mut graph = Reference {
            pairs: vec![root],
            depth: vec![0],
            edges: Vec::new(),
        };
        while graph.edges.len() < graph.pairs.len() && graph.pairs.len() < limit {
            let at = graph.edges.len();
            let (state, observer) = graph.pairs[at].clone();
            let mut out = Vec::new();
            for (instance, successor) in successors(spec, &state) {
                let observed = observer.update(spec, &state, &instance, &successor);
                let pair = (successor, observed);
                let next = graph.pairs.len();
                let to = *index.entry(pair.clone()).or_insert(next);
                if to == next {
                    graph.pairs.push(pair);
                    graph.depth.push(graph.depth[at] + 1);
                }
                out.push(to);
            }
            graph.edges.push(out);
        }
        graph
    }

    /// Every pair was expanded.
    pub fn complete(&self) -> bool {
        self.edges.len() == self.pairs.len()
    }

    pub fn transitions(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The query stream an engine sends its visited store: the root, then
    /// every generated successor, revisits included.
    pub fn stream(&self) -> Vec<(GlobalState<S, M>, O)> {
        let successors = self.edges.iter().flatten();
        let indices = std::iter::once(&0).chain(successors);
        indices.map(|&i| self.pairs[i].clone()).collect()
    }

    /// The shortest invariant-violation depth.
    pub fn violation(&self, invariant: &Invariant<S, M, O>) -> Option<usize> {
        let bad = |(s, o): &_| matches!(invariant.evaluate(s, o), PropertyStatus::Violated(_));
        self.pairs.iter().position(bad).map(|i| self.depth[i])
    }

    /// The shortest deadlock depth: a pair with no successor.
    pub fn deadlock(&self) -> Option<usize> {
        let first = self.edges.iter().position(Vec::is_empty);
        first.map(|i| self.depth[i])
    }

    /// Whether the graph has a cycle: peeling pairs without predecessors
    /// leaves some.
    pub fn cyclic(&self) -> bool {
        let mut predecessors = vec![0usize; self.pairs.len()];
        self.edges
            .iter()
            .flatten()
            .for_each(|&to| predecessors[to] += 1);
        let mut free: Vec<usize> = (0..self.pairs.len())
            .filter(|&i| predecessors[i] == 0)
            .collect();
        let mut peeled = 0;
        while let Some(at) = free.pop() {
            peeled += 1;
            for &to in &self.edges[at] {
                predecessors[to] -= 1;
                if predecessors[to] == 0 {
                    free.push(to);
                }
            }
        }
        peeled < self.pairs.len()
    }
}

/// A run's tree, node for node: (expansions, transitions, depth,
/// revisits). The stateless trees are pinned by it; DPOR's depends on the
/// order it takes its backtrack points in.
pub fn tree(report: &RunReport) -> (usize, usize, usize, usize) {
    let s = &report.stats;
    (
        s.expansions,
        s.transitions_executed,
        s.max_depth,
        s.revisits,
    )
}

// ---------------------------------------------------------------------------
// The replay checker.
// ---------------------------------------------------------------------------

/// One concrete run a counterexample's steps name.
pub struct Replayed<S, M: Ord, O> {
    pub stem: Vec<TransitionInstance<M>>,
    pub cycle: Vec<TransitionInstance<M>>,
    /// The pair the stem ends in (a lasso's entry, which its cycle returns
    /// to).
    pub end: (GlobalState<S, M>, O),
}

type Run<S, M, O> = (Vec<TransitionInstance<M>>, (GlobalState<S, M>, O));

/// Follows `steps` from `runs`. A step names its transition, process and
/// consumed senders but not the payloads, so every enabled instance that
/// matches is followed; runs that reach the same pair merge.
fn follow<S: LocalState, M: Message, O: Observer<S, M>>(
    spec: &ProtocolSpec<S, M>,
    mut runs: Vec<Run<S, M, O>>,
    steps: &[CounterexampleStep],
) -> Vec<Run<S, M, O>> {
    for step in steps {
        let mut next: Vec<Run<S, M, O>> = Vec::new();
        for (path, (state, observer)) in &runs {
            for instance in enabled_instances(spec, state) {
                if spec.transition(instance.transition).name() != step.transition
                    || instance.process != step.process
                    || instance.senders() != step.consumed_from
                {
                    continue;
                }
                let post = execute_enabled(spec, state, &instance);
                let observed = observer.update(spec, state, &instance, &post);
                let end = (post, observed);
                if next.iter().all(|(_, other)| *other != end) {
                    let mut path = path.clone();
                    path.push(instance);
                    next.push((path, end));
                }
            }
        }
        runs = next;
    }
    runs
}

/// Replays `cx` from the initial state with `observer` folded along: the
/// runs whose stem ends in a state rendered as `cx.violating_state` and,
/// for a lasso, whose cycle returns to that same pair. Panics if there is
/// none.
pub fn replay<S: LocalState, M: Message, O: Observer<S, M>>(
    spec: &ProtocolSpec<S, M>,
    cx: &Counterexample,
    observer: O,
) -> Vec<Replayed<S, M, O>> {
    let start = vec![(Vec::new(), (spec.initial_state(), observer))];
    let mut replayed = Vec::new();
    for (stem, end) in follow(spec, start, &cx.steps) {
        if format!("{:#?}", end.0) != cx.violating_state {
            continue;
        }
        // A lasso's cycle returns to the pair its stem ends in.
        for (cycle, back) in follow(spec, vec![(Vec::new(), end.clone())], &cx.cycle) {
            if back == end {
                let (stem, end) = (stem.clone(), end.clone());
                replayed.push(Replayed { stem, cycle, end });
            }
        }
    }
    assert!(!replayed.is_empty(), "does not replay to its state: {cx}");
    replayed
}

/// Asserts that the safety counterexample `cx` replays to a pair
/// `invariant` rejects or, for a deadlock, to a state with nothing
/// enabled.
pub fn rejects<S: LocalState, M: Message, O: Observer<S, M>>(
    spec: &ProtocolSpec<S, M>,
    invariant: &Invariant<S, M, O>,
    observer: O,
    cx: &Counterexample,
) {
    assert!(!cx.is_lasso, "{cx}");
    let deadlock = cx.reason.starts_with("deadlock");
    let rejected = replay(spec, cx, observer)
        .iter()
        .any(|Replayed { end: (s, o), .. }| {
            let status = invariant.evaluate(s, o);
            match deadlock {
                true => enabled_instances(spec, s).is_empty(),
                false => matches!(status, PropertyStatus::Violated(_)),
            }
        });
    assert!(rejected, "does not end in a violation: {cx}");
}

/// Asserts that some run `cx` replays to is a genuine lasso, judged from
/// the definitions: the obligation is owed at the entry and stays owed
/// around the cycle, a lasso without a cycle ends with nothing enabled,
/// and no instance the fairness policy requires is enabled all around the
/// cycle yet never taken.
pub fn lasso_is_genuine<S: LocalState, M: Message>(
    spec: &ProtocolSpec<S, M>,
    property: &Property<S, M>,
    cx: &Counterexample,
) {
    assert!(cx.is_lasso, "{cx}");
    let genuine = |run: &Replayed<S, M, NullObserver>| {
        let mut state = spec.initial_state();
        let mut pending = property.initial_pending(&state, &NullObserver);
        for instance in &run.stem {
            state = execute_enabled(spec, &state, instance);
            pending = property.step_pending(pending, &state, &NullObserver);
        }
        let enabled = enabled_instances(spec, &state);
        if !pending || run.cycle.is_empty() != enabled.is_empty() {
            return false;
        }
        let required = |i: &TransitionInstance<M>| {
            let transition = spec.transition(i.transition);
            property
                .fairness()
                .requires(transition.annotations().is_environment)
        };
        let mut starved: Vec<_> = enabled.into_iter().filter(required).collect();
        for instance in &run.cycle {
            let enabled = enabled_instances(spec, &state);
            starved.retain(|i| enabled.contains(i) && i != instance);
            state = execute_enabled(spec, &state, instance);
            if !property.step_pending(true, &state, &NullObserver) {
                return false;
            }
        }
        starved.is_empty()
    };
    let runs = replay(spec, cx, NullObserver);
    assert!(runs.iter().any(genuine), "not a genuine lasso: {cx}");
}
