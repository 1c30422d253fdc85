//! One differential driver: every engine, reduction, store, frontier and
//! symmetry row of a `(spec, property, observer, roles)` cell is judged
//! against one reference search, on the hand-written protocol cells and on
//! a fixed seed set of generated specs. The tests that feed it name their
//! cells and assert what the [`Tally`] of them must include.
//!
//! **Ground truth.** Safety comes from [`Reference`], the unreduced
//! breadth-first graph of `(state, observer)` pairs: its pairs and
//! transitions, the shortest invariant-violation and deadlock depths, and
//! whether it is cyclic. Liveness comes from the unreduced, exact-store,
//! symmetry-free DFS verdict, every lasso judged from the definitions by
//! [`lasso_is_genuine`], and the stateless enumerator where it is
//! complete.
//!
//! **Rows.** With the deadlock check off and on, and symmetry off and (if
//! the cell's roles validate a group) on: the DFS ± SPOR under the four
//! stores; the sequential BFS ± SPOR on the in-memory and a
//! one-byte-watermark disk frontier, `parallel_bfs(1)`, and
//! `parallel_bfs(2)` (SPOR under the four stores); a kill and resume of the
//! unreduced sequential BFS; the stateless enumerator and DPOR on acyclic
//! cells;
//! every split strategy under SPOR on cells with exact quorum transitions;
//! and the liveness DFS ± SPOR ± symmetry under the four stores, plus the
//! stateless path enumerator. A deadlock is judged in the engine core, so
//! with the check on only the exact store and the in-memory frontier run.
//!
//! **Checks.** Every row's verdict class is the truth's, with two
//! documented exceptions, both of which may answer `verified` against a
//! violated truth, never the reverse, and are counted: a SPOR BFS row on a
//! cyclic cell, because the BFS applies the reducer without a cycle
//! proviso; and a DPOR row on a cell whose invariant relates two or more
//! processes, because DPOR orders dependent steps only and tracks no
//! visibility. Every counterexample replays
//! to a pair the property rejects, to a deadlock, or is a genuine fair
//! lasso. An unreduced BFS row's counterexample is a shortest one, a SPOR
//! BFS row's is no shorter, and the pooled one is as long as the
//! sequential one. An unreduced, symmetry-free stateful row that verifies
//! has the reference's pairs and transitions; SPOR stores at most the
//! unreduced count and symmetry at most the symmetry-off count; the spill,
//! resume and `parallel_bfs(1)` rows have the sequential in-memory row's
//! counters, and the probabilistic stores the exact store's.
//!
//! To add a cell, build a [`Cell`] and call [`Cell::judge`]; a generated
//! spec is a [`GenSpec`] literal.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use super::{lasso_is_genuine, rejects, GenSpec, Msg, Reference, Rng};
use mp_basset::checker::{
    Checker, CheckerConfig, CheckpointConfig, Fairness, Invariant, NullObserver, Observer,
    Property, RunReport, SearchStrategy, Verdict,
};
use mp_basset::faults::{FaultBudget, FaultLocal};
use mp_basset::model::{LocalState, Message, Permutable, ProtocolSpec};
use mp_basset::protocols::echo_multicast::{self, MulticastSetting};
use mp_basset::protocols::paxos::{self, PaxosSetting, PaxosVariant};
use mp_basset::protocols::storage::{self, RegularityObserver, StorageSetting};
use mp_basset::protocols::sweep::{collect_model, collect_soundness_property, CollectSetting};
use mp_basset::refine::{check_refinement, SplitStrategy};
use mp_basset::store::{FrontierConfig, StoreConfig};
use mp_basset::symmetry::{RoleMap, SymmetryGroup};
use mp_basset::trace::analyze::analyze_stream;
use mp_basset::trace::{Gauge, Phase, SharedBuffer, Tracer};

/// The stores of the DFS rows, the pooled SPOR rows and the liveness rows.
const STORES: [StoreConfig; 4] = [
    StoreConfig::Exact,
    StoreConfig::sharded(),
    StoreConfig::fingerprint(48),
    StoreConfig::runs_with_watermark(64),
];

/// The stateless rows stop at this many expanded nodes, and are then
/// counted, not judged.
const STATELESS_CAP: usize = 2_000;

/// Under the pool the runs store's 64 shards flush a run per insert, so
/// its pooled row runs on cells of at most this many pairs.
const POOLED_RUNS_PAIRS: usize = 500;

/// What the judged cells and rows amounted to.
#[derive(Default, Debug)]
pub struct Tally {
    pub cells: usize,
    pub rows: usize,
    pub cyclic: usize,
    pub violated: usize,
    pub verified: usize,
    /// Generated cells with a quorum input, with a fault budget; cells
    /// with a group order > 1.
    pub quorum: usize,
    pub faults: usize,
    pub symmetric: usize,
    /// Cells on which the SPOR DFS stored strictly fewer states than the
    /// unreduced one (deadlock check and symmetry off).
    pub spor_strict: usize,
    /// SPOR BFS rows that answered `verified` on a violated cyclic cell.
    pub bfs_spor_misses: usize,
    /// DPOR rows that answered `verified` on a violated cell whose
    /// invariant relates processes, and the names of their cells.
    pub dpor_misses: usize,
    pub dpor_missed: Vec<String>,
    /// Stateless rows that met [`STATELESS_CAP`].
    pub capped: usize,
    /// Liveness truths whose lasso the SCC backstop found.
    pub backstop: usize,
    /// Cells on which the symmetric DFS stored strictly fewer states than
    /// the symmetry-off one (deadlock check and SPOR off).
    pub symmetry_strict: usize,
    /// Split-strategy rows.
    pub splits: usize,
    /// Liveness properties judged, those violated, and those the complete
    /// stateless enumerator judged too.
    pub liveness: usize,
    pub liveness_violated: usize,
    pub enumerated: usize,
}

/// One cell: a spec, its invariant and observer, its roles and its
/// observer-free liveness properties.
pub struct Cell<S, M: Ord, O> {
    name: String,
    spec: ProtocolSpec<S, M>,
    invariant: Invariant<S, M, O>,
    observer: O,
    roles: Option<Roles<S, M, O>>,
    liveness: Vec<Property<S, M>>,
    /// The invariant relates two or more processes' states.
    relating: bool,
}

/// A cell's roles: the order of the group they validate, and how they
/// configure a safety and a liveness checker. Only cells with roles need
/// [`Permutable`] types.
struct Roles<S, M: Ord, O> {
    order: usize,
    safety: Configure<S, M, O>,
    liveness: Configure<S, M, NullObserver>,
}

type Configure<S, M, O> = Box<dyn for<'a> Fn(Checker<'a, S, M, O>) -> Checker<'a, S, M, O>>;

impl<S, M, O> Cell<S, M, O>
where
    S: LocalState + Permutable,
    M: Message + Permutable,
    O: Observer<S, M> + Permutable + Ord,
{
    /// Declares the cell's roles: the symmetry rows run if they validate a
    /// group of order > 1.
    pub fn roles(self, roles: Option<RoleMap>) -> Self {
        let roles = roles.map(|map| {
            let order = SymmetryGroup::build(&self.spec, &map).order();
            let twin = map.clone();
            Roles {
                order,
                safety: Box::new(move |checker| checker.with_role_symmetry(&map)),
                liveness: Box::new(move |checker| checker.with_role_symmetry(&twin)),
            }
        });
        Cell { roles, ..self }
    }
}

impl<S: LocalState, M: Message, O: Observer<S, M> + Ord> Cell<S, M, O> {
    pub fn new(
        name: String,
        spec: ProtocolSpec<S, M>,
        invariant: Invariant<S, M, O>,
        observer: O,
    ) -> Self {
        let (roles, liveness, relating) = (None, Vec::new(), false);
        Cell {
            name,
            spec,
            invariant,
            observer,
            roles,
            liveness,
            relating,
        }
    }

    pub fn liveness(self, liveness: Vec<Property<S, M>>) -> Self {
        Cell { liveness, ..self }
    }

    /// Searches the reference graph and judges every row against it.
    pub fn judge(self, tally: &mut Tally) {
        let truth = Reference::search(&self.spec, self.observer.clone(), usize::MAX);
        judge(&self, &truth, tally);
    }
}

/// One `(deadlock check, symmetry)` setting of a cell and its truth.
struct Rows<'a, S, M: Ord, O> {
    cell: &'a Cell<S, M, O>,
    truth: &'a Reference<S, M, O>,
    deadlocks: bool,
    symmetry: bool,
    /// The shortest violation depth under this deadlock setting.
    shortest: Option<usize>,
}

impl<'a, S: LocalState, M: Message, O: Observer<S, M> + Ord> Rows<'a, S, M, O> {
    fn new(
        cell: &'a Cell<S, M, O>,
        truth: &'a Reference<S, M, O>,
        deadlocks: bool,
        symmetry: bool,
    ) -> Self {
        let violation = truth.violation(&cell.invariant);
        let deadlock = truth.deadlock().filter(|_| deadlocks);
        let shortest = violation.into_iter().chain(deadlock).min();
        Rows {
            cell,
            truth,
            deadlocks,
            symmetry,
            shortest,
        }
    }

    fn label(&self, row: &str) -> String {
        let (cell, dl, sym) = (&self.cell.name, self.deadlocks, self.symmetry);
        format!("{cell} [{row} deadlocks={dl} sym={sym}]")
    }

    /// Runs one row.
    fn report(&self, config: CheckerConfig, spor: bool) -> RunReport {
        let (cell, config) = (self.cell, config.with_deadlock_check(self.deadlocks));
        let (invariant, observer) = (cell.invariant.clone(), cell.observer.clone());
        let checker = Checker::with_observer(&cell.spec, invariant, observer).config(config);
        let checker = if spor { checker.spor() } else { checker };
        match &cell.roles {
            Some(roles) if self.symmetry => (roles.safety)(checker).run(),
            _ => checker.run(),
        }
    }

    /// Runs one row and judges its verdict and counterexample on their
    /// own.
    fn run(&self, row: &str, config: CheckerConfig, spor: bool, tally: &mut Tally) -> RunReport {
        let (bfs, stateless, dpor) = match config.strategy {
            SearchStrategy::StatefulBfs | SearchStrategy::ParallelBfs { .. } => {
                (true, false, false)
            }
            SearchStrategy::Stateless { dpor } => (false, true, dpor),
            SearchStrategy::StatefulDfs => (false, false, false),
        };
        let report = self.report(config, spor);
        tally.rows += 1;
        let (label, verdict) = (self.label(row), &report.verdict);
        if stateless && matches!(verdict, Verdict::LimitReached { .. }) {
            tally.capped += 1;
            return report;
        }
        let truth = self.shortest.is_some();
        if verdict.is_violated() != truth {
            // The BFS applies SPOR without a cycle proviso; DPOR orders
            // dependent steps only and tracks no visibility, so it may skip
            // a state two processes reach together.
            let bfs_spor = bfs && spor && self.truth.cyclic();
            let dpor_relating = dpor && self.cell.relating;
            let excused = truth && verdict.is_verified() && (bfs_spor || dpor_relating);
            assert!(excused, "{label}: {report}; truth: {:?}", self.shortest);
            tally.bfs_spor_misses += usize::from(bfs_spor);
            tally.dpor_misses += usize::from(!bfs_spor);
            let name = &self.cell.name;
            if !bfs_spor && tally.dpor_missed.last() != Some(name) {
                tally.dpor_missed.push(name.clone());
            }
        }
        if let Some(cx) = verdict.counterexample() {
            let cell = self.cell;
            rejects(&cell.spec, &cell.invariant, cell.observer.clone(), cx);
            let (len, shortest) = (cx.len(), self.shortest.expect("a violated truth"));
            assert!(len >= shortest, "{label}: shorter than the truth: {cx}");
            assert!(
                !bfs || spor || len == shortest,
                "{label}: not shortest: {cx}"
            );
        }
        report
    }

    /// The four stores agree with the exact one on everything.
    fn stores(&self, row: &str, config: CheckerConfig, spor: bool, tally: &mut Tally) -> RunReport {
        let exact = self.run(row, config.clone(), spor, tally);
        let pooled = matches!(config.strategy, SearchStrategy::ParallelBfs { .. });
        let large = self.truth.pairs.len() > POOLED_RUNS_PAIRS;
        let others = match (self.deadlocks, pooled && large) {
            (true, _) => &[][..],
            (false, true) => &STORES[1..3],
            (false, false) => &STORES[1..],
        };
        for store in others {
            let row = format!("{row} {store}");
            let report = self.run(&row, config.clone().with_store(*store), spor, tally);
            let (violated, label) = (report.verdict.is_violated(), self.label(&row));
            assert_eq!(violated, exact.verdict.is_violated(), "{label}");
            // A pooled run stops wherever its threads met the violation.
            if !(pooled && violated) {
                assert_eq!(report.stats.counters(), exact.stats.counters(), "{label}");
            }
        }
        exact
    }

    /// A checkpointed sequential BFS stopped halfway and resumed ends as
    /// the uninterrupted `mem` run did.
    fn kill_and_resume(&self, mem: &RunReport, tally: &mut Tally) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let name = format!("mp-basset-differential-{}-{n}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let config = CheckerConfig::stateful_bfs().with_checkpoint(CheckpointConfig::new(&dir));
        let half = (mem.stats.states / 2).max(1);
        self.report(config.clone().with_max_states(half), false);
        self.same_as("bfs resumed", config, false, mem, tally);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs a row that must explore as the sequential in-memory row `mem`
    /// did: same counters and counterexample.
    fn same_as(
        &self,
        row: &str,
        config: CheckerConfig,
        spor: bool,
        mem: &RunReport,
        tally: &mut Tally,
    ) -> RunReport {
        let report = self.run(row, config, spor, tally);
        let label = self.label(row);
        assert_eq!(report.stats.counters(), mem.stats.counters(), "{label}");
        let steps = |r: &RunReport| r.verdict.counterexample().map(|cx| cx.steps.clone());
        assert_eq!(steps(&report), steps(mem), "{label}");
        report
    }
}

fn verified(report: &RunReport) -> bool {
    report.verdict.is_verified()
}

/// Whether `spec` has an exact quorum transition, which the split
/// strategies refine.
fn splittable<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>) -> bool {
    spec.transitions().any(|(_, t)| t.is_exact_quorum())
}

/// Judges every row of `cell` against its reference graph `truth`.
pub fn judge<S: LocalState, M: Message, O: Observer<S, M> + Ord>(
    cell: &Cell<S, M, O>,
    truth: &Reference<S, M, O>,
    tally: &mut Tally,
) {
    assert!(truth.complete(), "{}: no reference", cell.name);
    let violation = truth.violation(&cell.invariant);
    let reachable = (truth.pairs.len(), truth.transitions());
    let cyclic = truth.cyclic();
    tally.cells += 1;
    tally.cyclic += usize::from(cyclic);
    tally.violated += usize::from(violation.is_some());
    tally.verified += usize::from(violation.is_none());
    // Symmetry rows run where the declared roles validate a group.
    let symmetric = cell.roles.as_ref().is_some_and(|roles| roles.order > 1);
    tally.symmetric += usize::from(symmetric);
    let symmetries: &[bool] = if symmetric { &[false, true] } else { &[false] };
    let counted = |r: &RunReport| (r.stats.states, r.stats.transitions_executed);
    for deadlocks in [false, true] {
        // Per row, the stored states of a verifying symmetry-off and
        // symmetry-on run.
        let (mut plain, mut orbits) = (HashMap::new(), HashMap::new());
        for &symmetry in symmetries {
            let rows = Rows::new(cell, truth, deadlocks, symmetry);
            let mut judged = |row: &str, report: &RunReport, unreduced: bool| {
                if !verified(report) {
                    return;
                }
                if !symmetry {
                    plain.insert(row.to_string(), report.stats.states);
                    if unreduced {
                        assert_eq!(counted(report), reachable, "{}", rows.label(row));
                    }
                } else if let Some(&off) = plain.get(row) {
                    assert!(report.stats.states <= off, "{}: {report}", rows.label(row));
                    orbits.insert(row.to_string(), report.stats.states);
                }
            };
            // SPOR stores at most the unreduced count; is it fewer?
            let at_most = |row: &str, spor: &RunReport, full: &RunReport| {
                let (both, label) = (verified(spor) && verified(full), rows.label(row));
                assert!(!both || spor.stats.states <= full.stats.states, "{label}");
                both && spor.stats.states < full.stats.states
            };

            let dfs = CheckerConfig::stateful_dfs();
            let full = rows.stores("dfs", dfs.clone(), false, tally);
            judged("dfs", &full, true);
            let spor = rows.stores("dfs+spor", dfs, true, tally);
            judged("dfs+spor", &spor, false);
            let strict = at_most("dfs+spor", &spor, &full);
            tally.spor_strict += usize::from(strict && !deadlocks && !symmetry);

            let mut mems = Vec::new();
            for spor in [false, true] {
                let tag = if spor { "bfs+spor" } else { "bfs" };
                let mem = rows.run(tag, CheckerConfig::stateful_bfs(), spor, tally);
                judged(tag, &mem, !spor);
                if !deadlocks {
                    let disk = FrontierConfig::disk_with_watermark(1);
                    let spill = CheckerConfig::stateful_bfs().with_frontier(disk);
                    let spilled = rows.same_as(&format!("{tag} disk"), spill, spor, &mem, tally);
                    let label = rows.label(tag);
                    assert!(spilled.stats.frontier_spilled_bytes > 0, "{label}");
                    let pool = CheckerConfig::parallel_bfs(1);
                    rows.same_as(&format!("{tag} pool(1)"), pool, spor, &mem, tally);
                }
                let row = format!("{tag} pool(2)");
                let pool = match spor {
                    true => rows.stores(&row, CheckerConfig::parallel_bfs(2), spor, tally),
                    false => rows.run(&row, CheckerConfig::parallel_bfs(2), spor, tally),
                };
                let length = |r: &RunReport| r.verdict.counterexample().map(|cx| cx.len());
                assert_eq!(length(&pool), length(&mem), "{}", rows.label(&row));
                if verified(&pool) {
                    assert_eq!(counted(&pool), counted(&mem), "{}", rows.label(&row));
                }
                // `checkpoint_resume.rs` kills and resumes SPOR runs.
                if !deadlocks && !symmetry && !spor {
                    rows.kill_and_resume(&mem, tally);
                }
                mems.push(mem);
            }
            at_most("bfs+spor", &mems[1], &mems[0]);

            if !cyclic {
                for dpor in [false, true] {
                    let config = CheckerConfig::stateless(dpor).with_max_states(STATELESS_CAP);
                    rows.run(&format!("stateless dpor={dpor}"), config, false, tally);
                }
            }
        }
        if let (Some(off), Some(on), false) = (plain.get("dfs"), orbits.get("dfs"), deadlocks) {
            tally.symmetry_strict += usize::from(on < off);
        }
    }

    if splittable(&cell.spec) {
        for strategy in SplitStrategy::ALL {
            let label = format!("{} [{}]", cell.name, strategy.label());
            let split = strategy.apply(&cell.spec).expect("a split");
            let check = check_refinement(&cell.spec, &split, truth.pairs.len()).expect("a graph");
            assert!(check.equivalent, "{label}: the split changed the graph");
            let checker =
                Checker::with_observer(&split, cell.invariant.clone(), cell.observer.clone());
            let report = checker.spor().run();
            tally.rows += 1;
            tally.splits += 1;
            let violated = report.verdict.is_violated();
            assert_eq!(violated, violation.is_some(), "{label}: {report}");
            if let Some(cx) = report.verdict.counterexample() {
                rejects(&split, &cell.invariant, cell.observer.clone(), cx);
            }
        }
    }

    for property in &cell.liveness {
        judge_liveness(cell, property, symmetries, tally);
    }
}

/// Judges the liveness rows of one property of `cell`.
fn judge_liveness<S: LocalState, M: Message, O>(
    cell: &Cell<S, M, O>,
    property: &Property<S, M>,
    symmetries: &[bool],
    tally: &mut Tally,
) {
    let spec = &cell.spec;
    let name = format!("{} / {}", cell.name, property.name());
    let buffer = SharedBuffer::new();
    let traced = Tracer::to_writer(false, Box::new(buffer.clone()));
    let config = CheckerConfig::stateful_dfs().with_trace(traced);
    let truth = Checker::new(spec, property.clone()).config(config).run();
    let violated = truth.verdict.is_violated();
    assert!(violated || verified(&truth), "{name}: {truth}");
    tally.liveness += 1;
    tally.liveness_violated += usize::from(violated);
    // The liveness graph keeps a fixed-width parent record per expansion;
    // a lasso found once nothing closed on the stack is the SCC
    // backstop's, rebuilt by replay.
    let runs = analyze_stream(buffer.contents().lines()).expect("a valid trace");
    let graph_bytes = runs[0].gauge(Gauge::ParentLogBytes);
    let expanded = truth.stats.expansions as u64;
    assert!(graph_bytes >= 8 * expanded, "{name}: {graph_bytes} B");
    let backstop = truth.stats.phases.nanos(Phase::SccBackstop) > 0;
    tally.backstop += usize::from(backstop && violated);
    for &symmetry in symmetries {
        for spor in [false, true] {
            let mut exact = None;
            for store in STORES {
                let label = format!("{name} [liveness spor={spor} sym={symmetry} {store}]");
                let config = CheckerConfig::stateful_dfs().with_store(store);
                let checker = Checker::new(spec, property.clone()).config(config);
                let checker = if spor { checker.spor() } else { checker };
                let report = match &cell.roles {
                    Some(roles) if symmetry => (roles.liveness)(checker).run(),
                    _ => checker.run(),
                };
                tally.rows += 1;
                assert_eq!(report.verdict.is_violated(), violated, "{label}: {report}");
                let lasso = report.verdict.counterexample().map(|cx| {
                    lasso_is_genuine(spec, property, cx);
                    (cx.steps.len(), cx.cycle.len())
                });
                // Every revisit is one store hit, the one a lasso closes on
                // included.
                let stats = &report.stats;
                assert_eq!(stats.store_hits, stats.revisits, "{label}: {report}");
                let row = (lasso, stats.states, stats.transitions_executed);
                assert_eq!(&row, exact.get_or_insert(row), "{label}: {report}");
            }
        }
    }
    // The path enumerator judges elementary cycles only: every cycle there
    // is without fairness, and with one process too (each transition is
    // enabled at one local value, so no cycle through two values starves
    // one); more processes can need a figure-eight.
    let complete = property.fairness() == Fairness::Unfair || spec.num_processes() == 1;
    let config = CheckerConfig::stateless(false).with_max_states(STATELESS_CAP);
    let report = Checker::new(spec, property.clone()).config(config).run();
    tally.rows += 1;
    let label = format!("{name} [stateless liveness]");
    match &report.verdict {
        Verdict::LimitReached { .. } => tally.capped += 1,
        Verdict::Violated(cx) => {
            lasso_is_genuine(spec, property, cx);
            assert!(violated, "{label}: {report}");
        }
        Verdict::Verified => assert!(!complete || !violated, "{label}: {report}"),
    }
    let capped = matches!(report.verdict, Verdict::LimitReached { .. });
    tally.enumerated += usize::from(complete && !capped);
}

/// Conservative annotations only weaken the reduction: the SPOR rows of
/// a cell with them keep their verdicts.
pub fn judge_conservative<S: LocalState, M: Message, O: Observer<S, M> + Ord>(
    cell: &Cell<S, M, O>,
    truth: &Reference<S, M, O>,
    tally: &mut Tally,
) {
    for deadlocks in [false, true] {
        let rows = Rows::new(cell, truth, deadlocks, false);
        rows.run("dfs+spor", CheckerConfig::stateful_dfs(), true, tally);
        rows.run("bfs+spor", CheckerConfig::stateful_bfs(), true, tally);
    }
    for property in &cell.liveness {
        let violated = |checker: Checker<'_, S, M>| checker.run().verdict.is_violated();
        let truth = violated(Checker::new(&cell.spec, property.clone()));
        let reduced = violated(Checker::new(&cell.spec, property.clone()).spor());
        assert_eq!(reduced, truth, "{} / {}", cell.name, property.name());
    }
}

/// A [`GenSpec`] as a cell; `None` if `ProtocolSpec::build` refuses it.
pub fn generated(name: String, gen: &GenSpec) -> Option<Cell<FaultLocal<u8>, Msg, NullObserver>> {
    let built = gen.build().ok()?;
    let cell = Cell::new(name, built.spec, built.invariant, NullObserver);
    let relating = gen.watch.processes.len() > 1;
    let cell = Cell { relating, ..cell };
    Some(cell.liveness(vec![built.liveness]).roles(built.roles))
}

// ---------------------------------------------------------------------------
// The protocol cells.
// ---------------------------------------------------------------------------

/// Judges Paxos `setting` of `variant`, under its roles if it has two or
/// more proposers.
pub fn paxos_cell((p, a, l): (usize, usize, usize), variant: PaxosVariant, tally: &mut Tally) {
    let setting = PaxosSetting::new(p, a, l);
    let spec = paxos::quorum_model(setting, variant);
    let invariant = paxos::consensus_property(setting);
    let name = format!("paxos{setting} {variant:?}");
    let cell = Cell::new(name, spec, invariant, NullObserver);
    let roles = (p > 1).then(|| paxos::symmetry_roles(setting));
    cell.roles(roles).judge(tally);
}

/// Judges echo multicast `setting`'s agreement under its roles.
pub fn multicast_cell(setting: MulticastSetting, tally: &mut Tally) {
    let spec = echo_multicast::quorum_model(setting);
    let invariant = echo_multicast::agreement_property(setting);
    let cell = Cell::new(format!("multicast{setting}"), spec, invariant, NullObserver);
    let roles = echo_multicast::symmetry_roles(setting);
    cell.roles(Some(roles)).judge(tally);
}

/// Judges storage (2,1)'s regularity, or the wrong regularity if `wrong`,
/// with its observer and under its roles.
pub fn storage_cell(wrong: bool, tally: &mut Tally) {
    let setting = StorageSetting::new(2, 1);
    let invariant = match wrong {
        false => storage::regularity_property(setting),
        true => storage::wrong_regularity_property(setting),
    };
    let name = format!("storage{setting} {}", invariant.name());
    let observer = RegularityObserver::new(setting);
    let cell = Cell::new(name, storage::quorum_model(setting), invariant, observer);
    cell.roles(Some(storage::symmetry_roles(setting)))
        .judge(tally);
}

/// Judges Paxos (1,2,1) under `budget`, with its liveness properties when
/// the budget allows at most one fault.
pub fn faulted_paxos_cell(budget: FaultBudget, tally: &mut Tally) {
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos::faulty_quorum_model(setting, PaxosVariant::Correct, budget);
    let invariant = paxos::faulty_consensus_property(setting);
    let name = format!("paxos{setting} {budget}");
    let cell = Cell::new(name, spec, invariant, NullObserver);
    let terminates = paxos::faulty_termination_property(setting);
    let mut liveness = vec![terminates, paxos::faulty_accepted_leads_to_learned(setting)];
    liveness.retain(|_| budget.total() <= 1);
    let cell = cell.roles(Some(paxos::symmetry_roles(setting)));
    cell.liveness(liveness).judge(tally);
}

/// Judges echo multicast `setting` under `budget`, with its liveness
/// properties on the safe setting (2,1,0,1).
pub fn faulted_multicast_cell(setting: MulticastSetting, budget: FaultBudget, tally: &mut Tally) {
    let safe = MulticastSetting::new(2, 1, 0, 1);
    let spec = echo_multicast::faulty_quorum_model(setting, budget);
    let invariant = echo_multicast::faulty_agreement_property(setting);
    let name = format!("multicast{setting} {budget}");
    let cell = Cell::new(name, spec, invariant, NullObserver);
    let delivers = echo_multicast::faulty_delivery_termination_property(setting);
    let commits = echo_multicast::faulty_committed_leads_to_delivered(setting);
    let liveness = [delivers, commits].into_iter().filter(|_| setting == safe);
    let cell = cell.roles(Some(echo_multicast::symmetry_roles(setting)));
    cell.liveness(liveness.collect()).judge(tally);
}

/// Judges storage (2,1) under `budget`, with its observer and liveness
/// properties.
pub fn faulted_storage_cell(budget: FaultBudget, tally: &mut Tally) {
    let setting = StorageSetting::new(2, 1);
    let spec = storage::faulty_quorum_model(setting, budget);
    let invariant = storage::faulty_regularity_property(setting);
    let observer = storage::faulty_regularity_observer(setting);
    let name = format!("storage{setting} {budget}");
    let cell = Cell::new(name, spec, invariant, observer);
    let completes = storage::faulty_read_completion_property(setting);
    let liveness = vec![completes, storage::faulty_reading_leads_to_done(setting)];
    let cell = cell.roles(Some(storage::symmetry_roles(setting)));
    cell.liveness(liveness).judge(tally);
}

/// Judges the soundness of the collection protocol in its settings with
/// 1–2 collectors and a quorum of 1–3 of 2–4 voters (of 2–3 voters with
/// single messages, whose 4-voter graphs take seconds unoptimised).
pub fn collect_cells(quorum: bool, tally: &mut Tally) {
    for voters in 2..4 + usize::from(quorum) {
        for size in 1..=voters.min(3) {
            for collectors in 1..3 {
                let setting = CollectSetting::new(voters, size, collectors);
                let name = format!("collect{setting:?} quorum={quorum}");
                let (spec, invariant) = (
                    collect_model(setting, quorum),
                    collect_soundness_property(setting),
                );
                Cell::new(name, spec, invariant, NullObserver).judge(tally);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The generated seed set.
// ---------------------------------------------------------------------------

/// The seeds of the tier-1 set.
pub const SEEDS: Range<u64> = 0..200;

/// Generated specs whose reference graph has more pairs are skipped.
const GENERATED_LIMIT: usize = 400;

/// The three disjoint parts of the generated seed set, one per test.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Part {
    /// Cells whose reference graph is cyclic.
    Cyclic,
    /// Acyclic cells with an exact quorum transition: the split rows run.
    Split,
    /// The other acyclic cells.
    Plain,
}

/// Judges every generated cell of `seeds` in `part`, and each one's
/// conservative twin on its SPOR rows.
pub fn generated_cells(part: Part, seeds: Range<u64>) -> Tally {
    let mut tally = Tally::default();
    let (mut refused, mut large) = (0, 0);
    for seed in seeds {
        let gen = GenSpec::generate(&mut Rng(seed));
        let Some(cell) = generated(format!("seed {seed}: {gen:?}"), &gen) else {
            refused += 1;
            continue;
        };
        let truth = Reference::search(&cell.spec, NullObserver, GENERATED_LIMIT);
        if !truth.complete() {
            large += 1;
            continue;
        }
        let of = match (truth.cyclic(), splittable(&cell.spec)) {
            (true, _) => Part::Cyclic,
            (false, true) => Part::Split,
            (false, false) => Part::Plain,
        };
        if of != part {
            continue;
        }
        let quorum = gen.transitions.iter().any(|t| t.input.is_quorum());
        tally.quorum += usize::from(quorum);
        tally.faults += usize::from(!gen.budget.is_zero());
        judge(&cell, &truth, &mut tally);
        let conservative = GenSpec {
            conservative: true,
            ..gen
        };
        let cell = generated(format!("seed {seed}: {conservative:?}"), &conservative).unwrap();
        judge_conservative(&cell, &truth, &mut tally);
    }
    println!("{part:?}: {tally:?}, {refused} refused, {large} larger than {GENERATED_LIMIT} pairs");
    tally
}
