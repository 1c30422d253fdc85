//! Integration test for the `mp-store` subsystem on real protocol keys:
//! hash compaction must measurably shrink the store on a quorum-scaling
//! configuration, and the encoding the stores compare must identify keys
//! exactly as `Eq` does, spread evenly under the fingerprint hash, and
//! drive all four backends to the same answers as a `HashSet` of the keys
//! themselves. Every backend keeps every engine's verdicts and counts on
//! Paxos and echo multicast, judged by [`common::differential`].

mod common;

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Barrier;

use common::differential::{faulted_paxos_cell, multicast_cell, paxos_cell, Tally};
use common::Reference;
use mp_basset::checker::{NullObserver, StateStoreBackend, StoreConfig};
use mp_basset::faults::FaultBudget;
use mp_basset::harness::scaling::store_backend_sweep;
use mp_basset::harness::{num, text, Budget};
use mp_basset::model::{encode_to_vec, Encode};
use mp_basset::protocols::echo_multicast::{
    faulty_quorum_model as faulty_multicast, MulticastSetting,
};
use mp_basset::protocols::paxos::{
    faulty_quorum_model as faulty_paxos, PaxosSetting, PaxosVariant,
};
use mp_basset::protocols::storage;
use mp_basset::protocols::sweep::CollectSetting;
use mp_basset::store::hash_bytes;

#[test]
fn all_backends_verify_correct_paxos_identically() {
    let mut tally = Tally::default();
    paxos_cell((1, 2, 1), PaxosVariant::Correct, &mut tally);
    assert_eq!(tally.verified, 1, "{tally:?}");
}

#[test]
fn all_backends_find_the_paxos_bug() {
    // Two corrupted messages break validity.
    let mut tally = Tally::default();
    faulted_paxos_cell(FaultBudget::none().corruptions(2), &mut tally);
    assert_eq!(tally.violated, 1, "{tally:?}");
}

#[test]
fn all_backends_agree_on_echo_multicast() {
    let mut tally = Tally::default();
    multicast_cell(MulticastSetting::new(3, 0, 1, 1), &mut tally);
    assert_eq!(tally.verified, 1, "{tally:?}");
}

#[test]
fn fingerprints_shrink_the_store_on_the_quorum_scaling_run() {
    // The acceptance configuration: a quorum-scaling sweep point verified
    // with every backend; the fingerprint store must complete it with the
    // same verdict and measurably lower peak state-storage bytes.
    let (points, failures) =
        store_backend_sweep(CollectSetting::new(4, 2, 1), false, &Budget::small());
    assert!(failures.is_empty(), "{failures:?}");
    let (exact, fingerprint) = (&points[0], &points[2]);
    assert_eq!(text(exact, "backend"), "exact");
    assert_eq!(text(fingerprint, "backend"), "fingerprint(48-bit)");
    assert_eq!(text(exact, "verdict"), text(fingerprint, "verdict"));
    assert_eq!(num(exact, "states"), num(fingerprint, "states"));
    let bytes = (num(fingerprint, "store_bytes"), num(exact, "store_bytes"));
    assert!(
        bytes.0 * 2.0 < bytes.1,
        "well under the exact store: {bytes:?}"
    );
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
    let hash = |key: &&K| hash_bytes(&encode_to_vec(*key));
    let hashes: Vec<u64> = distinct.iter().map(hash).collect();
    let unique: HashSet<u64> = hashes.iter().copied().collect();
    assert_eq!(unique.len(), hashes.len(), "{name}: 64-bit collision");
    let bits = |range: &str| format!("{name} {range} bits");
    assert_uniform(&bits("shard"), &hashes, 64, |h| (h >> 58) as usize);
    assert_uniform(&bits("slot"), &hashes, 1024, |h| (h & 1023) as usize);
    assert_uniform(&bits("tag"), &hashes, 256, |h| (h >> 32 & 255) as usize);
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
        let (stats, label) = (store.stats(), format!("{name}: {config}"));
        let (distinct, revisits) = (reference.len(), stream.len() - reference.len());
        assert_eq!((store.len(), stats.misses), (distinct, distinct), "{label}");
        assert_eq!(stats.hits, revisits, "{label}");
        let exact = stats.omission_probability == 0.0;
        assert_eq!(exact, config.is_exact(), "{label}");
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
        // A racing insert wins once, never twice or never.
        let (stats, label) = (store.stats(), format!("{name}: {config}"));
        assert_eq!(
            (new, store.len()),
            (covered.len(), covered.len()),
            "{label}"
        );
        assert_eq!(stats.hits + stats.misses, threads * 2 * stride, "{label}");
        assert!(covered.iter().all(|key| store.contains(key)), "{label}");
    }
}

fn check_keys<K: Encode + Eq + Hash + Sync>(name: &str, stream: &[K]) {
    let distinct: HashSet<&K> = stream.iter().collect();
    assert!(distinct.len() >= KEYS, "{name}: {} keys", distinct.len());
    assert!(stream.len() > 2 * distinct.len(), "{name}: few revisits");
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
    let spec = faulty_paxos(setting, PaxosVariant::Correct, faults());
    let stream = Reference::search(&spec, NullObserver, KEYS).stream();
    check_keys("paxos", &stream);
}

#[test]
fn multicast_keys_are_stored_by_their_encoding() {
    let setting = MulticastSetting::new(3, 1, 1, 1);
    let spec = faulty_multicast(setting, faults());
    let stream = Reference::search(&spec, NullObserver, KEYS).stream();
    check_keys("multicast", &stream);
}

#[test]
fn storage_keys_with_their_history_observer_are_stored_by_their_encoding() {
    // The key's second half is the fault-lifted `RegularityObserver`, whose
    // `Eq` and encoding both ignore its base-spec handle.
    let setting = storage::StorageSetting::new(3, 1);
    let spec = storage::faulty_quorum_model(setting, faults());
    let history = storage::faulty_regularity_observer(setting);
    check_keys("storage", &Reference::search(&spec, history, KEYS).stream());
}
