//! Fingerprint → index map of the depth-first engines.
//!
//! The visited store already hashes every key it is asked about
//! ([`mp_store::StateStoreBackend::insert_bytes`]); this map lets the
//! engine find the DFS frame a state is on from that value, without hashing
//! or cloning the state a second time. A fingerprint only narrows the
//! search: every lookup confirms a candidate against the key its owner
//! holds, and two keys under one fingerprint are both kept, so the
//! answer is exact whatever the store keeps of the key.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of maps keyed by what the store returned for an insert. A
/// fingerprint is already uniformly mixed, a token may be an arena offset:
/// one multiply-and-fold round serves both.
#[derive(Default)]
pub(crate) struct StoreWord(u64);

impl Hasher for StoreWord {
    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprints and tokens are hashed as one u64");
    }

    fn write_u64(&mut self, word: u64) {
        let mixed = word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = mixed ^ (mixed >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map from fingerprints or tokens.
pub(crate) type StoreWordMap<V> = HashMap<u64, V, BuildHasherDefault<StoreWord>>;

/// An exact multimap from fingerprints to caller-owned indices.
#[derive(Default)]
pub(crate) struct FpIndex {
    first: StoreWordMap<usize>,
    /// Entries whose fingerprint another live entry already occupies —
    /// empty unless two different keys collide on all 64 bits.
    collided: Vec<(u64, usize)>,
}

impl FpIndex {
    /// Records `index` under `fp`; the caller has checked it is not there.
    pub(crate) fn insert(&mut self, fp: u64, index: usize) {
        if let Some(&other) = self.first.get(&fp) {
            debug_assert_ne!(other, index);
            self.collided.push((fp, index));
        } else {
            self.first.insert(fp, index);
        }
    }

    /// The index recorded under `fp` whose owner `is_it` confirms.
    pub(crate) fn find(&self, fp: u64, mut is_it: impl FnMut(usize) -> bool) -> Option<usize> {
        let &first = self.first.get(&fp)?;
        if is_it(first) {
            return Some(first);
        }
        let rest = self.collided.iter().filter(|(f, _)| *f == fp);
        rest.map(|&(_, i)| i).find(|&i| is_it(i))
    }

    /// Forgets `index` under `fp`; other entries of `fp` stay findable.
    pub(crate) fn remove(&mut self, fp: u64, index: usize) {
        if self.first.get(&fp) == Some(&index) {
            match self.collided.iter().position(|(f, _)| *f == fp) {
                Some(at) => self.first.insert(fp, self.collided.swap_remove(at).1),
                None => self.first.remove(&fp),
            };
        } else if let Some(at) = self.collided.iter().position(|e| *e == (fp, index)) {
            self.collided.swap_remove(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_keys_under_one_fingerprint_stay_apart() {
        // The owner's keys, by index; 0, 1 and 3 are forced under one fingerprint.
        let keys = ["a", "b", "c", "d"];
        let mut index = FpIndex::default();
        for (i, fp) in [(0, 7), (1, 7), (2, 8), (3, 7)] {
            index.insert(fp, i);
        }
        let find = |index: &FpIndex, fp, key: &str| index.find(fp, |i| keys[i] == key);
        assert_eq!(find(&index, 7, "a"), Some(0));
        assert_eq!(find(&index, 7, "b"), Some(1));
        assert_eq!(find(&index, 7, "d"), Some(3));
        assert_eq!(find(&index, 8, "c"), Some(2));
        // A fingerprint match alone decides nothing.
        assert_eq!(find(&index, 7, "c"), None);
        assert_eq!(find(&index, 9, "a"), None);
        // Removing the first holder promotes a collided one; the rest stay.
        index.remove(7, 0);
        assert_eq!(find(&index, 7, "a"), None);
        assert_eq!(find(&index, 7, "b"), Some(1));
        assert_eq!(find(&index, 7, "d"), Some(3));
        index.remove(7, 3);
        index.remove(7, 1);
        assert_eq!(find(&index, 7, "b"), None);
        assert_eq!(find(&index, 8, "c"), Some(2));
    }
}
