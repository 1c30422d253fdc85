//! Integration test for the `mp-store` subsystem: every visited-store
//! backend must return the identical verdict (and, at these state counts,
//! identical state counts) on the tier-1 evaluation models, across the
//! stateful engines; hash compaction must measurably shrink the store on a
//! quorum-scaling configuration; and on real protocol keys the encoding the
//! stores compare must identify keys exactly as `Eq` does, spread evenly
//! under the fingerprint hash, and drive all four backends to the same
//! answers as a `HashSet` of the keys themselves.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::Barrier;

use mp_basset::checker::{
    Checker, CheckerConfig, NullObserver, Observer, StateStoreBackend, StoreConfig,
};
use mp_basset::faults::FaultBudget;
use mp_basset::harness::scaling::store_backend_sweep;
use mp_basset::harness::Budget;
use mp_basset::model::{
    encode_to_vec, successors, Encode, GlobalState, LocalState, Message, ProtocolSpec,
};
use mp_basset::protocols::echo_multicast::{
    agreement_property, quorum_model as multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    consensus_property, quorum_model as paxos, PaxosSetting, PaxosVariant,
};
use mp_basset::protocols::storage;
use mp_basset::protocols::sweep::CollectSetting;
use mp_basset::store::hash_bytes;

const BACKENDS: [StoreConfig; 4] = [
    StoreConfig::Exact,
    StoreConfig::sharded(),
    StoreConfig::fingerprint(48),
    // Spills runs on these models, and under `parallel_bfs(2)` each of
    // the 64 shards spills its own.
    StoreConfig::runs_with_watermark(64),
];

fn engines() -> [CheckerConfig; 3] {
    [
        CheckerConfig::stateful_dfs(),
        CheckerConfig::stateful_bfs(),
        CheckerConfig::parallel_bfs(2),
    ]
}

#[test]
fn all_backends_verify_correct_paxos_identically() {
    let setting = PaxosSetting::new(1, 2, 1);
    let spec = paxos(setting, PaxosVariant::Correct);
    for engine in engines() {
        let mut states = None;
        for store in BACKENDS {
            let report = Checker::new(&spec, consensus_property(setting))
                .spor()
                .config(engine.clone().with_store(store))
                .run();
            assert!(
                report.verdict.is_verified(),
                "paxos must verify under {} with {store}",
                report.strategy
            );
            let expected = *states.get_or_insert(report.stats.states);
            assert_eq!(
                report.stats.states, expected,
                "state count differs under {} with {store}",
                report.strategy
            );
        }
    }
}

#[test]
fn all_backends_find_the_paxos_bug() {
    let setting = PaxosSetting::new(2, 3, 1);
    let spec = paxos(setting, PaxosVariant::FaultyLearner);
    for engine in engines() {
        for store in BACKENDS {
            let report = Checker::new(&spec, consensus_property(setting))
                .spor()
                .config(engine.clone().with_store(store))
                .run();
            assert!(
                report.verdict.is_violated(),
                "the injected bug must be found under {} with {store}",
                report.strategy
            );
        }
    }
}

#[test]
fn all_backends_agree_on_echo_multicast() {
    // A correct setting (verified) and the wrong-agreement setting
    // (violated), both from the paper's evaluation.
    for (setting, expect_violation) in [
        (MulticastSetting::new(3, 0, 1, 1), false),
        (MulticastSetting::new(2, 1, 2, 1), true),
    ] {
        let spec = multicast(setting);
        for engine in engines() {
            for store in BACKENDS {
                let report = Checker::new(&spec, agreement_property(setting))
                    .spor()
                    .config(engine.clone().with_store(store))
                    .run();
                assert_eq!(
                    report.verdict.is_violated(),
                    expect_violation,
                    "multicast{setting} under {} with {store}",
                    report.strategy
                );
            }
        }
    }
}

#[test]
fn fingerprints_shrink_the_store_on_the_quorum_scaling_run() {
    // The acceptance configuration: a quorum-scaling sweep point verified
    // with every backend; the fingerprint store must complete it with the
    // same verdict and measurably lower peak state-storage bytes.
    let points = store_backend_sweep(CollectSetting::new(4, 2, 1), false, &Budget::small());
    let exact = &points[0];
    let fingerprint = &points[2];
    assert_eq!(exact.backend, "exact");
    assert_eq!(fingerprint.backend, "fingerprint(48-bit)");
    assert_eq!(exact.verdict, fingerprint.verdict);
    assert_eq!(exact.states, fingerprint.states);
    assert!(
        fingerprint.store_bytes * 2 < exact.store_bytes,
        "fingerprint store ({} B) must be well under the exact store ({} B)",
        fingerprint.store_bytes,
        exact.store_bytes
    );
}

/// Every `(state, observer)` pair a breadth-first search of `spec`
/// generates, revisits included, until `distinct` different ones were seen —
/// the query stream an engine sends its visited store.
fn query_stream<S, M, O>(
    spec: &ProtocolSpec<S, M>,
    observer: O,
    distinct: usize,
) -> Vec<(GlobalState<S, M>, O)>
where
    S: LocalState,
    M: Message,
    O: Observer<S, M>,
{
    let root = (spec.initial_state(), observer);
    let mut seen = HashSet::from([root.clone()]);
    let mut queue = VecDeque::from([root.clone()]);
    let mut stream = vec![root];
    while let Some((state, observer)) = queue.pop_front() {
        if seen.len() >= distinct {
            break;
        }
        for (instance, successor) in successors(spec, &state) {
            let observed = observer.update(spec, &state, &instance, &successor);
            let pair = (successor, observed);
            if seen.insert(pair.clone()) {
                queue.push_back(pair.clone());
            }
            stream.push(pair);
        }
    }
    stream
}

/// For every query, the index of the first `Eq`-equal key in the stream,
/// as a `HashMap` of the keys themselves sees it: std `Eq` + `Hash`, the
/// semantics the stores had before they compared encoded bytes.
fn identities<K: Eq + Hash>(stream: &[K]) -> Vec<usize> {
    let mut first = HashMap::new();
    stream
        .iter()
        .enumerate()
        .map(|(i, key)| *first.entry(key).or_insert(i))
        .collect()
}

/// The byte table's soundness condition: a == b ⇔ encode(a) == encode(b).
fn assert_encoding_matches_eq<K: Encode + Eq + Hash>(name: &str, stream: &[K]) {
    let encoded: Vec<Vec<u8>> = stream.iter().map(encode_to_vec).collect();
    assert_eq!(
        identities(&encoded),
        identities(stream),
        "{name}: encodings and Eq disagree on which queries are revisits"
    );
}

/// χ² of `hashes` over the `buckets` values of `bucket`, against its mean
/// (`buckets − 1`) plus six standard deviations (`√(2·(buckets − 1))`).
fn assert_uniform(what: &str, hashes: &[u64], buckets: usize, bucket: impl Fn(u64) -> usize) {
    let mut counts = vec![0f64; buckets];
    for &h in hashes {
        counts[bucket(h)] += 1.0;
    }
    let expected = hashes.len() as f64 / buckets as f64;
    let chi2: f64 = counts
        .iter()
        .map(|c| (c - expected).powi(2) / expected)
        .sum();
    let dof = (buckets - 1) as f64;
    assert!(
        chi2 < dof + 6.0 * (2.0 * dof).sqrt(),
        "{what}: χ² = {chi2:.0} over {buckets} buckets"
    );
}

/// Encoded protocol states differ in a few low-entropy bytes; the three bit
/// ranges the byte table reads must each still look uniform.
fn assert_fingerprints_spread<K: Encode + Eq + Hash>(name: &str, stream: &[K]) {
    let distinct: HashSet<&K> = stream.iter().collect();
    let hashes: Vec<u64> = distinct
        .iter()
        .map(|key| hash_bytes(&encode_to_vec(*key)))
        .collect();
    let unique: HashSet<u64> = hashes.iter().copied().collect();
    assert_eq!(unique.len(), hashes.len(), "{name}: 64-bit collision");
    assert_uniform(&format!("{name} shard bits"), &hashes, 64, |h| {
        (h >> 58) as usize
    });
    assert_uniform(&format!("{name} slot bits"), &hashes, 1024, |h| {
        (h & 1023) as usize
    });
    assert_uniform(&format!("{name} tag bits"), &hashes, 256, |h| {
        (h >> 32 & 255) as usize
    });
}

/// All four backends answer the stream exactly as a `HashSet` of the keys
/// does — insert-result sequence, cardinality, hits and misses — and the
/// sharded stores (exact, in-RAM fingerprints, spilling runs) stay exact
/// when four threads race over overlapping slices.
fn assert_backends_agree<K: Encode + Eq + Hash + Sync>(name: &str, stream: &[K]) {
    let mut reference = HashSet::new();
    let expected: Vec<bool> = stream.iter().map(|key| reference.insert(key)).collect();
    for config in [
        StoreConfig::Exact,
        StoreConfig::sharded(),
        StoreConfig::fingerprint(64),
        // Spills a dozen sorted runs, so most hits are answered from disk.
        StoreConfig::runs_with_watermark(reference.len() / 12),
    ] {
        let store = config.build::<K>();
        let got: Vec<bool> = stream.iter().map(|key| store.insert_ref(key)).collect();
        assert!(got == expected, "{name}: {config} disagrees with HashSet");
        let stats = store.stats();
        assert_eq!(store.len(), reference.len(), "{name}: {config}");
        assert_eq!(stats.misses, reference.len(), "{name}: {config}");
        assert_eq!(
            stats.hits,
            stream.len() - reference.len(),
            "{name}: {config}"
        );
        assert_eq!(
            stats.omission_probability > 0.0,
            !config.is_exact(),
            "{name}: {config}"
        );
    }

    let threads = 4;
    let stride = stream.len() / (threads + 1);
    let covered: HashSet<&K> = stream[..(threads + 1) * stride].iter().collect();
    for config in [
        StoreConfig::sharded(),
        StoreConfig::fingerprint(64).for_parallel(),
        StoreConfig::runs_with_watermark(reference.len() / 12).for_parallel(),
    ] {
        let store = config.build::<K>();
        let start = Barrier::new(threads);
        let new: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (store, start) = (&store, &start);
                    // Neighbouring slices overlap by half.
                    let slice = &stream[t * stride..(t + 2) * stride];
                    scope.spawn(move || {
                        start.wait();
                        slice.iter().filter(|key| store.insert_ref(key)).count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(
            new,
            covered.len(),
            "{name}: {config}: a racing insert won twice or never"
        );
        assert_eq!(store.len(), covered.len(), "{name}: {config}");
        let stats = store.stats();
        assert_eq!(
            stats.hits + stats.misses,
            threads * 2 * stride,
            "{name}: {config}"
        );
        assert!(
            covered.iter().all(|key| store.contains(key)),
            "{name}: {config}"
        );
    }
}

fn check_keys<K: Encode + Eq + Hash + Sync>(name: &str, stream: &[K]) {
    let distinct: HashSet<&K> = stream.iter().collect();
    assert!(distinct.len() >= KEYS, "{name}: {} keys", distinct.len());
    assert!(
        stream.len() > 2 * distinct.len(),
        "{name}: too few revisits"
    );
    assert_encoding_matches_eq(name, stream);
    assert_fingerprints_spread(name, stream);
    assert_backends_agree(name, stream);
}

/// Distinct keys per protocol: enough for the χ² of 1024 slot buckets.
const KEYS: usize = 10_000;

/// Crash, drop and duplicate at once, so every fault counter of the lifted
/// local states takes more than one value among the keys.
fn faults() -> FaultBudget {
    FaultBudget::none().crashes(1).drops(1).dups(1)
}

#[test]
fn paxos_keys_are_stored_by_their_encoding() {
    let setting = PaxosSetting::new(2, 3, 1);
    let spec =
        mp_basset::protocols::paxos::faulty_quorum_model(setting, PaxosVariant::Correct, faults());
    check_keys("paxos", &query_stream(&spec, NullObserver, KEYS));
}

#[test]
fn multicast_keys_are_stored_by_their_encoding() {
    let setting = MulticastSetting::new(3, 1, 1, 1);
    let spec = mp_basset::protocols::echo_multicast::faulty_quorum_model(setting, faults());
    check_keys("multicast", &query_stream(&spec, NullObserver, KEYS));
}

#[test]
fn storage_keys_with_their_history_observer_are_stored_by_their_encoding() {
    // The key's second half is the fault-lifted `RegularityObserver`, whose
    // `Eq` and encoding both ignore its base-spec handle.
    let setting = storage::StorageSetting::new(3, 1);
    let spec = storage::faulty_quorum_model(setting, faults());
    let history = storage::faulty_regularity_observer(setting);
    check_keys("storage", &query_stream(&spec, history, KEYS));
}
