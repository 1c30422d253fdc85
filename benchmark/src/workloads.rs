//! The pinned cells: six workloads, their `--quick` stand-ins and the
//! untimed oracle cells.
//!
//! A cell is everything one `Checker::run()` needs — spec, property,
//! observer, reduction, symmetry roles, engine configuration — built from
//! `mp-protocols`/`mp-faults` exactly the way an operator would build it.
//! The checker only ever sees the generated `ProtocolSpec`; nothing here
//! reaches into an engine. Every cell has a different `(S, M, O)` type
//! triple, so jobs are generic functions and [`dispatch`] is the one place
//! that names the concrete types.

use std::time::{Duration, Instant};

use mp_checker::{CheckerConfig, NullObserver, Property};
use mp_faults::FaultBudget;
use mp_model::{LocalState, Message, ProtocolSpec};
use mp_protocols::{echo_multicast as mc, paxos, storage};
use mp_refine::SplitStrategy;
use mp_store::{FrontierConfig, StoreConfig};
use mp_symmetry::RoleMap;

use crate::jobs::{self, Job};
use crate::json::Json;

/// A workload of `BENCHMARK.json`: its name and the one-line reason it is
/// in the suite (the README has the long form).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The six workloads, in the order results are reported.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paxos-1m-ext",
        why: "Paxos (2,3,1) crash1+drop1, SPOR, BFS on runs store + disk frontier: the 10^6-state row, only user of run probe/merge, spill I/O and the codec",
    },
    Workload {
        name: "storage-ram",
        why: "Regular storage (3,1) crash1+drop1 + observer, unreduced BFS, exact store in RAM: store_lookup and expansion dominate, no POR, no disk",
    },
    Workload {
        name: "storage-par2",
        why: "Same cell as storage-ram on parallel-bfs(2) with the sharded store: concurrent inserts through the pool, the 2-thread speed-up",
    },
    Workload {
        name: "paxos-sym",
        why: "Cell of paxos-1m-ext in RAM under role symmetry (group order 6): canonicalize is the largest phase here and zero elsewhere",
    },
    Workload {
        name: "mc-live",
        why: "Echo Multicast (3,1,1,1) dup1 delivery termination, SPOR, liveness DFS: the depth-first path, no frontier, no BFS",
    },
    Workload {
        name: "paxos-dpor",
        why: "Paxos (2,2,1) single-message under stateless DPOR, Table I's Basset column: no store, symmetry or frontier, only enabled/execute/DPOR",
    },
];

/// The untimed oracle cells of `answers.json` (each well under 0.5 s).
pub const ORACLES: [&str; 10] = [
    "oracle.faulty-paxos",
    "oracle.mc-wrong-agreement",
    "oracle.storage-wrong-regularity",
    "oracle.paxos-crash-termination",
    "oracle.paxos-131-quorum",
    "oracle.paxos-131-single",
    "oracle.paxos-131-zero-budget",
    "oracle.mc-unsplit",
    "oracle.mc-combined-split",
    "oracle.storage-21-unreduced",
];

/// The oracle cells small enough for `run --quick`.
pub const QUICK_ORACLES: [&str; 3] = [
    "oracle.paxos-131-quorum",
    "oracle.paxos-131-single",
    "oracle.paxos-131-zero-budget",
];

/// The cell `run --quick` substitutes for a workload: the same code path on
/// a model that finishes in milliseconds.
pub fn quick_cell(workload: &str) -> String {
    format!("quick.{workload}")
}

/// One fully built check.
pub struct Cell<S, M: Ord, O> {
    pub spec: ProtocolSpec<S, M>,
    pub property: Property<S, M, O>,
    pub observer: O,
    /// Static POR on (`Checker::spor`) or unreduced.
    pub spor: bool,
    /// Role declaration for `Checker::with_role_symmetry`, if any.
    pub roles: Option<RoleMap>,
    pub config: CheckerConfig,
    /// Time `mp_faults::inject` took, for the cells that inject.
    pub inject: Option<Duration>,
    /// Visited states of the same cell without symmetry, for the orbit
    /// collapse; only the symmetric cells name one.
    pub plain_cell: Option<&'static str>,
}

impl<S: LocalState, M: Message, O> Cell<S, M, O> {
    fn new(
        spec: ProtocolSpec<S, M>,
        property: impl Into<Property<S, M, O>>,
        observer: O,
        config: CheckerConfig,
    ) -> Self {
        Cell {
            spec,
            property: property.into(),
            observer,
            spor: false,
            roles: None,
            config,
            inject: None,
            plain_cell: None,
        }
    }

    fn spor(mut self) -> Self {
        self.spor = true;
        self
    }
}

/// `mp_faults::inject`, timed. The protocol crates' `faulty_quorum_model`
/// helpers are this call plus a corruption mutator no budget here uses.
fn injected<S: LocalState, M: Message>(
    base: &ProtocolSpec<S, M>,
    budget: FaultBudget,
) -> (ProtocolSpec<mp_faults::FaultLocal<S>, M>, Duration) {
    let start = Instant::now();
    let spec = mp_faults::inject(base, budget).expect("fault injection keeps a valid model valid");
    (spec, start.elapsed())
}

fn crash1_drop1() -> FaultBudget {
    FaultBudget::none().crashes(1).drops(1)
}

/// The operator's external-memory configuration of `paxos-1m-ext`: the
/// visited set as sorted fingerprint runs, the frontier spilled past 1 MiB.
fn external_bfs(run_watermark: usize, frontier_watermark: usize) -> CheckerConfig {
    CheckerConfig::stateful_bfs()
        .with_store(StoreConfig::runs_with_watermark(run_watermark))
        .with_frontier(FrontierConfig::disk_with_watermark(frontier_watermark))
}

type FaultyPaxos =
    Cell<mp_faults::FaultLocal<paxos::PaxosState>, paxos::PaxosMessage, NullObserver>;

fn faulty_paxos(
    setting: paxos::PaxosSetting,
    budget: FaultBudget,
    config: CheckerConfig,
) -> FaultyPaxos {
    let base = paxos::quorum_model(setting, paxos::PaxosVariant::Correct);
    let (spec, inject) = injected(&base, budget);
    let mut cell = Cell::new(
        spec,
        paxos::faulty_consensus_property(setting),
        NullObserver,
        config,
    )
    .spor();
    cell.inject = Some(inject);
    cell
}

fn symmetric(
    mut cell: FaultyPaxos,
    setting: paxos::PaxosSetting,
    plain: &'static str,
) -> FaultyPaxos {
    cell.roles = Some(paxos::symmetry_roles(setting));
    cell.plain_cell = Some(plain);
    cell
}

fn faulty_storage(
    setting: storage::StorageSetting,
    budget: FaultBudget,
    config: CheckerConfig,
) -> Cell<
    mp_faults::FaultLocal<storage::StorageState>,
    storage::StorageMessage,
    mp_faults::LiftedObserver<
        storage::StorageState,
        storage::StorageMessage,
        storage::RegularityObserver,
    >,
> {
    let (spec, inject) = injected(&storage::quorum_model(setting), budget);
    let mut cell = Cell::new(
        spec,
        storage::faulty_regularity_property(setting),
        storage::faulty_regularity_observer(setting),
        config,
    );
    cell.inject = Some(inject);
    cell
}

fn multicast_liveness(
    setting: mc::MulticastSetting,
    budget: FaultBudget,
) -> Cell<mp_faults::FaultLocal<mc::MulticastState>, mc::MulticastMessage, NullObserver> {
    let (spec, inject) = injected(&mc::quorum_model(setting), budget);
    let mut cell = Cell::new(
        spec,
        mc::faulty_delivery_termination_property(setting),
        NullObserver,
        CheckerConfig::stateful_dfs(),
    )
    .spor();
    cell.inject = Some(inject);
    cell
}

fn paxos_dpor(
    setting: paxos::PaxosSetting,
) -> Cell<paxos::PaxosState, paxos::PaxosMessage, NullObserver> {
    Cell::new(
        paxos::single_message_model(setting, paxos::PaxosVariant::Correct),
        paxos::consensus_property(setting),
        NullObserver,
        CheckerConfig::stateless(true),
    )
}

/// Echo Multicast (2,1,0,1) agreement under SPOR, unsplit or refined: the
/// Table II pair whose combined-split count must not exceed the unsplit one.
fn multicast_split(
    strategy: SplitStrategy,
) -> Cell<mc::MulticastState, mc::MulticastMessage, NullObserver> {
    let setting = mc::MulticastSetting::new(2, 1, 0, 1);
    let spec = strategy
        .apply(&mc::quorum_model(setting))
        .expect("refinement of the multicast model succeeds");
    Cell::new(
        spec,
        mc::agreement_property(setting),
        NullObserver,
        CheckerConfig::stateful_dfs(),
    )
    .spor()
}

/// Builds the named cell and runs `job` on it. `started` is when the
/// process began, so a run job can report everything up to
/// `Checker::run()` as set-up.
pub fn dispatch(name: &str, job: &Job, started: Instant) -> Result<Json, String> {
    let p231 = paxos::PaxosSetting::new(2, 3, 1);
    let p131 = paxos::PaxosSetting::new(1, 3, 1);
    let s31 = storage::StorageSetting::new(3, 1);
    let s21 = storage::StorageSetting::new(2, 1);
    // Every arm builds a differently typed cell and hands its builder to the
    // same job; the set-up job builds it many times over.
    macro_rules! go {
        ($cell:expr) => {
            jobs::execute(|| $cell, job, started)
        };
    }
    match name {
        "paxos-1m-ext" => go!(faulty_paxos(
            p231,
            crash1_drop1(),
            external_bfs(65_536, 1 << 20)
        )),
        "storage-ram" => go!(faulty_storage(
            s31,
            crash1_drop1(),
            CheckerConfig::stateful_bfs()
        )),
        "storage-par2" => go!(faulty_storage(
            s31,
            crash1_drop1(),
            CheckerConfig::parallel_bfs(2)
        )),
        "paxos-sym" => go!(symmetric(
            faulty_paxos(p231, crash1_drop1(), CheckerConfig::stateful_bfs()),
            p231,
            "paxos-1m-ext",
        )),
        "mc-live" => go!(multicast_liveness(
            mc::MulticastSetting::new(3, 1, 1, 1),
            FaultBudget::none().dups(1),
        )),
        "paxos-dpor" => go!(paxos_dpor(paxos::PaxosSetting::new(2, 2, 1))),

        // `--quick`: every engine, store and frontier of the real suite on
        // Paxos (1,3,1)-sized models. Watermarks shrink with the models so
        // the run store still spills and merges and the frontier still
        // writes segments.
        "quick.paxos-1m-ext" => go!(faulty_paxos(p131, crash1_drop1(), external_bfs(256, 1024))),
        "quick.storage-ram" => go!(faulty_storage(
            s21,
            FaultBudget::none().crashes(1),
            CheckerConfig::stateful_bfs(),
        )),
        "quick.storage-par2" => go!(faulty_storage(
            s21,
            FaultBudget::none().crashes(1),
            CheckerConfig::parallel_bfs(2),
        )),
        "quick.paxos-sym" => go!(symmetric(
            faulty_paxos(p131, crash1_drop1(), CheckerConfig::stateful_bfs()),
            p131,
            "quick.paxos-1m-ext",
        )),
        "quick.mc-live" => go!(multicast_liveness(
            mc::MulticastSetting::new(2, 1, 0, 1),
            FaultBudget::none().dups(1),
        )),
        "quick.paxos-dpor" => go!(paxos_dpor(p131)),

        "oracle.faulty-paxos" => go!(Cell::new(
            paxos::quorum_model(p231, paxos::PaxosVariant::FaultyLearner),
            paxos::consensus_property(p231),
            NullObserver,
            CheckerConfig::stateful_dfs(),
        )
        .spor()),
        "oracle.mc-wrong-agreement" => {
            let setting = mc::MulticastSetting::new(2, 1, 2, 1);
            go!(Cell::new(
                mc::quorum_model(setting),
                mc::agreement_property(setting),
                NullObserver,
                CheckerConfig::stateful_dfs(),
            )
            .spor())
        }
        "oracle.storage-wrong-regularity" => {
            let setting = storage::StorageSetting::new(3, 2);
            go!(Cell::new(
                storage::quorum_model(setting),
                storage::wrong_regularity_property(setting),
                storage::RegularityObserver::new(setting),
                CheckerConfig::stateful_dfs(),
            )
            .spor())
        }
        "oracle.paxos-crash-termination" => go!({
            let base = paxos::quorum_model(p231, paxos::PaxosVariant::Correct);
            let (spec, _) = injected(&base, FaultBudget::none().crashes(1));
            Cell::new(
                spec,
                paxos::faulty_termination_property(p231),
                NullObserver,
                CheckerConfig::stateful_dfs(),
            )
            .spor()
        }),
        "oracle.paxos-131-quorum" => go!(Cell::new(
            paxos::quorum_model(p131, paxos::PaxosVariant::Correct),
            paxos::consensus_property(p131),
            NullObserver,
            CheckerConfig::stateful_dfs(),
        )
        .spor()),
        "oracle.paxos-131-single" => go!(Cell::new(
            paxos::single_message_model(p131, paxos::PaxosVariant::Correct),
            paxos::consensus_property(p131),
            NullObserver,
            CheckerConfig::stateful_dfs(),
        )
        .spor()),
        "oracle.paxos-131-zero-budget" => go!(faulty_paxos(
            p131,
            FaultBudget::none(),
            CheckerConfig::stateful_dfs()
        )),
        "oracle.mc-unsplit" => go!(multicast_split(SplitStrategy::Unsplit)),
        "oracle.mc-combined-split" => {
            go!(multicast_split(SplitStrategy::CombinedSplit))
        }
        "oracle.storage-21-unreduced" => go!(Cell::new(
            storage::quorum_model(s21),
            storage::regularity_property(s21),
            storage::RegularityObserver::new(s21),
            CheckerConfig::stateful_bfs(),
        )),
        other => Err(format!("unknown cell `{other}`")),
    }
}
