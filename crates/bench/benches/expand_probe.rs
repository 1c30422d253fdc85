//! Per-layer rows for successor construction ("Data flow of a check" steps
//! 2 to 5): what one `enabled_instances`, one `execute_enabled`, one state
//! clone + drop, one `SporReducer::reduce` and one encode cost on real
//! states — the first [`STATES`] reachable states, breadth first, of regular
//! storage (3,1) and Paxos (2,3,1) under crash1+drop1, the cells of the
//! pinned benchmark's `storage-*` and `paxos-1m-ext`/`paxos-sym` workloads —
//! and, on the Paxos states under `paxos-sym`'s role group, one
//! `canonicalize` beside the full sweep it replaced. Every row is the time
//! of one operation.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;

use mp_bench::micro::Group;
use mp_faults::FaultBudget;
use mp_model::{
    enabled_instances, execute_enabled, Encode, GlobalState, LocalState, Message, Permutable,
    ProtocolSpec,
};
use mp_por::{Reducer, SporReducer};
use mp_protocols::paxos::{self, PaxosSetting, PaxosVariant};
use mp_protocols::storage::{self, StorageSetting};
use mp_symmetry::{OrbitReduction, RoleMap, Symmetry, SymmetryGroup};

const STATES: usize = 20_000;
const SAMPLES: usize = 10;

fn reachable<S: LocalState, M: Message>(spec: &ProtocolSpec<S, M>) -> Vec<GlobalState<S, M>> {
    let root = spec.initial_state();
    let mut seen = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root.clone()]);
    let mut states = vec![root];
    while let Some(state) = queue.pop_front() {
        for instance in enabled_instances(spec, &state) {
            let successor = execute_enabled(spec, &state, &instance);
            if states.len() < STATES && seen.insert(successor.clone()) {
                queue.push_back(successor.clone());
                states.push(successor);
            }
        }
        if states.len() == STATES {
            break;
        }
    }
    assert_eq!(states.len(), STATES, "the cell is larger than the sample");
    states
}

/// The sweep `canonicalize` replaced: every image built in full, the first
/// strictly smaller one kept.
fn full_sweep<S, M>(
    group: &SymmetryGroup<S, M>,
    state: &GlobalState<S, M>,
) -> (GlobalState<S, M>, usize)
where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    let mut best = (state.clone(), 0);
    for (i, elem) in group.elements().iter().enumerate().skip(1) {
        let image = state.permute(elem.permutation());
        if image < best.0 {
            best = (image, i);
        }
    }
    best
}

fn probe<S, M>(cell: &str, spec: &ProtocolSpec<S, M>, roles: Option<&RoleMap>)
where
    S: LocalState + Permutable,
    M: Message + Permutable,
{
    let states = reachable(spec);
    let instances: Vec<_> = states.iter().map(|s| enabled_instances(spec, s)).collect();
    let fired: usize = instances.iter().map(Vec::len).sum();
    let reducer = SporReducer::new(spec);

    let mut group = Group::new(format!(
        "expand_probe/{cell} crash1+drop1, {STATES} states, {:.2} enabled instances each",
        fired as f64 / STATES as f64
    ));
    group.sample_size(SAMPLES);
    group.per_op(STATES);
    group.bench("enabled_instances", || {
        for state in &states {
            black_box(enabled_instances(spec, state));
        }
    });
    group.bench("GlobalState clone + drop", || {
        for state in &states {
            black_box(state.clone());
        }
    });
    let mut scratch = Vec::new();
    group.bench("encode into scratch", || {
        for state in &states {
            scratch.clear();
            state.encode(&mut scratch);
            black_box(&scratch);
        }
    });
    // `reduce` takes its instances by value: one copy per timed call, made
    // outside the clock.
    let mut copies = vec![instances.clone(); SAMPLES + 1];
    group.bench("SporReducer::reduce", || {
        let copy = copies.pop().expect("one copy per call");
        for (state, enabled) in states.iter().zip(copy) {
            black_box(reducer.reduce(spec, state, enabled));
        }
    });
    if let Some(roles) = roles {
        let reduction: OrbitReduction<S, M, ()> =
            OrbitReduction::new(SymmetryGroup::build(spec, roles));
        let validated = reduction.group();
        for state in &states {
            let (representative, _, elem) = reduction.canonicalize(state, &());
            assert_eq!((representative, elem), full_sweep(validated, state));
        }
        let order = validated.order();
        group.bench(format!("canonicalize (order {order})"), || {
            for state in &states {
                black_box(reduction.canonicalize(state, &()));
            }
        });
        group.bench("full sweep (the former canonicalize)", || {
            for state in &states {
                black_box(full_sweep(validated, state));
            }
        });
    }
    group.per_op(fired);
    group.bench("execute_enabled", || {
        for (state, enabled) in states.iter().zip(&instances) {
            for instance in enabled {
                black_box(execute_enabled(spec, state, instance));
            }
        }
    });
    group.finish();
}

fn main() {
    let budget = FaultBudget::none().crashes(1).drops(1);
    probe(
        "storage(3,1)",
        &storage::faulty_quorum_model(StorageSetting::new(3, 1), budget),
        None,
    );
    let setting = PaxosSetting::new(2, 3, 1);
    probe(
        "paxos(2,3,1)",
        &paxos::faulty_quorum_model(setting, PaxosVariant::Correct, budget),
        Some(&paxos::symmetry_roles(setting)),
    );
}
