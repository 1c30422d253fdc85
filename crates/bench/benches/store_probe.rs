//! Per-layer rows for the visited-set query ("Data flow of a check" step
//! 6): what one encode, one hash and one table probe cost on real keys —
//! the `(state, observer)` pairs of regular storage (3,1) under crash1+drop1
//! with the lifted regularity observer, the cell whose wall-clock the store
//! dominates. Every row is the time for all [`KEYS`] keys.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;

use mp_bench::micro::Group;
use mp_checker::{Observer, StateStoreBackend, StoreConfig};
use mp_faults::FaultBudget;
use mp_model::{encode_to_vec, successors, Encode};
use mp_protocols::storage::{faulty_quorum_model, faulty_regularity_observer, StorageSetting};
use mp_store::hash_bytes;

const KEYS: usize = 20_000;

/// The first [`KEYS`] distinct keys of the cell in breadth-first order.
fn keys() -> Vec<impl Encode> {
    let setting = StorageSetting::new(3, 1);
    let spec = faulty_quorum_model(setting, FaultBudget::none().crashes(1).drops(1));
    let root = (spec.initial_state(), faulty_regularity_observer(setting));
    let mut seen = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root.clone()]);
    let mut keys = vec![root];
    while let Some((state, observer)) = queue.pop_front() {
        for (instance, successor) in successors(&spec, &state) {
            let observed = observer.update(&spec, &state, &instance, &successor);
            let pair = (successor, observed);
            if keys.len() < KEYS && seen.insert(pair.clone()) {
                queue.push_back(pair.clone());
                keys.push(pair);
            }
        }
        if keys.len() == KEYS {
            break;
        }
    }
    assert_eq!(keys.len(), KEYS, "the cell has 569 106 reachable keys");
    keys
}

fn main() {
    let keys = keys();
    let encoded: Vec<Vec<u8>> = keys.iter().map(encode_to_vec).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();

    let mut group = Group::new(format!(
        "store_probe/storage(3,1) crash1+drop1, {KEYS} keys, {} encoded bytes each",
        bytes / KEYS
    ));
    group.sample_size(20);
    group.bench("hash_bytes", || {
        encoded.iter().fold(0, |acc, e| acc ^ hash_bytes(e))
    });
    let mut scratch = Vec::new();
    group.bench("encode into scratch", || {
        for key in &keys {
            scratch.clear();
            key.encode(&mut scratch);
            black_box(&scratch);
        }
    });
    let backends = [
        ("exact", StoreConfig::Exact),
        ("sharded", StoreConfig::sharded()),
        ("fingerprint-48", StoreConfig::fingerprint(48)),
        // An eighth of the keys per sorted run: hits are answered from disk.
        ("runs", StoreConfig::runs_with_watermark(KEYS / 8)),
    ];
    for (label, config) in backends {
        group.bench(format!("{label}: probe new"), || {
            let store = config.build();
            keys.iter().filter(|key| store.insert_ref(*key)).count()
        });
        let store = config.build();
        for key in &keys {
            store.insert_ref(key);
        }
        store.maintain();
        group.bench(format!("{label}: probe hit"), || {
            keys.iter().filter(|key| store.insert_ref(*key)).count()
        });
    }
    group.finish();
}
