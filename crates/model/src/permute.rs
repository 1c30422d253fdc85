//! Process-index permutations and the [`Permutable`] trait.
//!
//! Fault-tolerant protocols are full of *interchangeable* processes: the
//! acceptors of Paxos, the base objects of a replicated register, the
//! replicas of a quorum system. Swapping two such processes maps every
//! execution of the model onto another execution — the state graph is
//! invariant under the swap. The symmetry-reduction layer (`mp-symmetry`)
//! exploits this by storing only one representative per orbit of the
//! permutation group; this module provides the vocabulary it builds on:
//!
//! * [`Permutation`] — a bijection on process indices;
//! * [`Permutable`] — "this value can be rewritten under a process
//!   permutation". Local states and messages that embed [`ProcessId`]s
//!   (reply buffers, initiator fields, ...) must map them; plain data is
//!   invariant. Its [`signature`](Permutable::signature) is a hash that a
//!   permutation cannot change, which is what lets canonicalization sort
//!   processes instead of trying every permutation;
//! * [`combine`] and [`plain_signature`] — the building blocks of
//!   signatures.
//!
//! [`GlobalState::permute`](crate::GlobalState::permute) and
//! [`Channels::permute`](crate::Channels::permute) lift a permutation to
//! whole states: local states move to their new index *and* are rewritten,
//! channel endpoints are remapped, payloads are rewritten.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use crate::ProcessId;

/// A bijection on the process indices `0..n`.
///
/// `map[i]` is the index process `i` is sent to.
///
/// # Examples
///
/// ```
/// use mp_model::{Permutation, ProcessId};
///
/// let swap = Permutation::from_map(vec![0, 2, 1]).unwrap();
/// assert_eq!(swap.apply(ProcessId(1)), ProcessId(2));
/// assert_eq!(swap.inverse(), swap); // a transposition is its own inverse
/// assert!(Permutation::identity(3).is_identity());
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `n` processes.
    pub fn identity(n: usize) -> Self {
        Permutation {
            map: (0..n).collect(),
        }
    }

    /// Builds a permutation from an explicit index map (`map[i]` = image of
    /// process `i`). Returns `None` if `map` is not a bijection on
    /// `0..map.len()`.
    pub fn from_map(map: Vec<usize>) -> Option<Self> {
        let n = map.len();
        // One bit per image seen: a word on the stack up to 64 processes.
        let (mut word, mut words);
        let seen: &mut [u64] = if n <= 64 {
            word = [0];
            &mut word
        } else {
            words = vec![0; n.div_ceil(64)];
            &mut words
        };
        for &image in &map {
            let bit = 1 << (image % 64);
            if image >= n || seen[image / 64] & bit != 0 {
                return None;
            }
            seen[image / 64] |= bit;
        }
        Some(Permutation { map })
    }

    /// Number of process indices the permutation acts on.
    pub(crate) fn degree(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &image)| i == image)
    }

    /// Applies the permutation to a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn apply_index(&self, index: usize) -> usize {
        self.map[index]
    }

    /// Applies the permutation to a process id.
    ///
    /// # Panics
    ///
    /// Panics if the process is out of range.
    pub fn apply(&self, process: ProcessId) -> ProcessId {
        ProcessId(self.map[process.index()])
    }

    /// Exchanges the images of `a` and `b`, making `self` the composition
    /// `self ∘ (a b)`: still a bijection, with no check and no allocation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.map.swap(a, b);
    }

    /// The composition "`self` after `other`": the result maps `i` to
    /// `self(other(i))`.
    ///
    /// # Panics
    ///
    /// Panics if the degrees differ.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.degree(), other.degree(), "degree mismatch");
        Permutation {
            map: other.map.iter().map(|&i| self.map[i]).collect(),
        }
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.map.len()];
        for (i, &image) in self.map.iter().enumerate() {
            inv[image] = i;
        }
        Permutation { map: inv }
    }
}

/// A value that can be rewritten under a process permutation.
///
/// The contract: `permute` must map every embedded [`ProcessId`] through the
/// permutation and leave everything else untouched. Types with no embedded
/// process ids implement it as the identity (the blanket impls below cover
/// the common plain-data types).
///
/// [`signature`](Permutable::signature) must not see the permutation:
/// `x.permute(p).signature() == x.signature()` for every `p`. So it hashes
/// what `permute` leaves alone and skips the process ids themselves (the
/// impl for [`ProcessId`] is a constant). `mp-symmetry` sorts the members
/// of a role by signature and tries permutations only among members whose
/// signatures tie. A type that keeps the default `0` ties every member, so
/// its runs fall back to trying every permutation: still correct, only
/// slower. A collision between different values likewise only adds a tie.
pub trait Permutable: Sized {
    /// Rewrites every embedded process id through `perm`.
    fn permute(&self, perm: &Permutation) -> Self;

    /// A hash of `self` that every permutation preserves (see the trait
    /// docs); `0`, the default, is always valid.
    fn signature(&self) -> u64 {
        0
    }
}

/// The SplitMix64 finalizer: spreads every input bit over the output.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds the signature `part` into `seed` by position: the result depends
/// on the order of the parts, as a struct's fields or a tuple's do.
pub fn combine(seed: u64, part: u64) -> u64 {
    mix(seed.rotate_left(23) ^ part.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// The signature of plain data, which no permutation changes: its [`Hash`],
/// one cheap multiply per written word, then one [`combine`]-grade mix.
/// Stable within one build, which is all a signature needs.
pub fn plain_signature<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = SignatureHasher(0);
    value.hash(&mut hasher);
    mix(hasher.0)
}

/// A [`Hasher`] that folds each written word in with one multiply (the
/// FxHash step); [`plain_signature`] mixes the result once.
struct SignatureHasher(u64);

impl SignatureHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SignatureHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// A process id is exactly what a permutation rewrites: its signature says
// only that there is one.
impl Permutable for ProcessId {
    fn permute(&self, perm: &Permutation) -> Self {
        perm.apply(*self)
    }

    fn signature(&self) -> u64 {
        0x243f_6a88_85a3_08d3
    }
}

/// Identity implementations for plain-data types that cannot embed a
/// process id; their signature hashes the value.
macro_rules! identity_permutable {
    ($($t:ty),* $(,)?) => {
        $(impl Permutable for $t {
            fn permute(&self, _perm: &Permutation) -> Self {
                self.clone()
            }

            fn signature(&self) -> u64 {
                plain_signature(self)
            }
        })*
    };
}

identity_permutable!(
    (),
    bool,
    char,
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    String,
    &'static str,
);

// Containers whose order a permutation keeps combine their parts by
// position; sets and maps, which a permutation may reorder, by a wrapping
// sum.
impl<T: Permutable> Permutable for Option<T> {
    fn permute(&self, perm: &Permutation) -> Self {
        self.as_ref().map(|v| v.permute(perm))
    }

    fn signature(&self) -> u64 {
        match self {
            None => combine(0, 0),
            Some(v) => combine(1, v.signature()),
        }
    }
}

impl<T: Permutable> Permutable for Vec<T> {
    fn permute(&self, perm: &Permutation) -> Self {
        self.iter().map(|v| v.permute(perm)).collect()
    }

    fn signature(&self) -> u64 {
        self.iter()
            .fold(self.len() as u64, |seed, v| combine(seed, v.signature()))
    }
}

impl<T: Permutable + Ord> Permutable for BTreeSet<T> {
    fn permute(&self, perm: &Permutation) -> Self {
        self.iter().map(|v| v.permute(perm)).collect()
    }

    fn signature(&self) -> u64 {
        let sum = self
            .iter()
            .fold(0u64, |sum, v| sum.wrapping_add(v.signature()));
        combine(self.len() as u64, sum)
    }
}

impl<K: Permutable + Ord, V: Permutable> Permutable for BTreeMap<K, V> {
    fn permute(&self, perm: &Permutation) -> Self {
        self.iter()
            .map(|(k, v)| (k.permute(perm), v.permute(perm)))
            .collect()
    }

    fn signature(&self) -> u64 {
        let sum = self.iter().fold(0u64, |sum, (k, v)| {
            sum.wrapping_add(combine(k.signature(), v.signature()))
        });
        combine(self.len() as u64, sum)
    }
}

impl<A: Permutable, B: Permutable> Permutable for (A, B) {
    fn permute(&self, perm: &Permutation) -> Self {
        (self.0.permute(perm), self.1.permute(perm))
    }

    fn signature(&self) -> u64 {
        combine(self.0.signature(), self.1.signature())
    }
}

impl<A: Permutable, B: Permutable, C: Permutable> Permutable for (A, B, C) {
    fn permute(&self, perm: &Permutation) -> Self {
        (
            self.0.permute(perm),
            self.1.permute(perm),
            self.2.permute(perm),
        )
    }

    fn signature(&self) -> u64 {
        combine(
            combine(self.0.signature(), self.1.signature()),
            self.2.signature(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_map_rejects_non_bijections() {
        assert!(Permutation::from_map(vec![0, 0]).is_none());
        assert!(Permutation::from_map(vec![0, 2]).is_none());
        let mut wide: Vec<usize> = (0..70).rev().collect();
        assert!(Permutation::from_map(wide.clone()).is_some());
        wide[0] = 3;
        assert!(Permutation::from_map(wide).is_none());
        assert!(Permutation::from_map(vec![1, 0]).is_some());
    }

    #[test]
    fn compose_applies_right_then_left() {
        // other: 0->1->2->0 (cycle), self: swap 0,1.
        let cycle = Permutation::from_map(vec![1, 2, 0]).unwrap();
        let swap = Permutation::from_map(vec![1, 0, 2]).unwrap();
        let composed = swap.compose(&cycle);
        // i -> swap(cycle(i)): 0->swap(1)=0, 1->swap(2)=2, 2->swap(0)=1.
        assert_eq!(composed, Permutation::from_map(vec![0, 2, 1]).unwrap());
        // Swapping two images composes with their transposition first.
        let mut swapped = cycle.clone();
        swapped.swap(0, 1);
        assert_eq!(swapped, cycle.compose(&swap));
    }

    #[test]
    fn inverse_undoes() {
        let p = Permutation::from_map(vec![2, 0, 1]).unwrap();
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn permutable_containers_map_pids() {
        let swap = Permutation::from_map(vec![1, 0]).unwrap();
        let set: BTreeSet<(ProcessId, u8)> = [(ProcessId(0), 7u8), (ProcessId(1), 9u8)]
            .into_iter()
            .collect();
        let mapped = set.permute(&swap);
        assert!(mapped.contains(&(ProcessId(1), 7)));
        assert!(mapped.contains(&(ProcessId(0), 9)));
        assert_eq!(5u32.permute(&swap), 5);
        assert_eq!(Some(ProcessId(0)).permute(&swap), Some(ProcessId(1)));
        assert_eq!("x".to_string().permute(&swap), "x");
    }

    #[test]
    fn signatures_ignore_the_permutation_but_not_the_data() {
        let cycle = Permutation::from_map(vec![1, 2, 0]).unwrap();
        let set: BTreeSet<(ProcessId, u8)> = [(ProcessId(0), 7u8), (ProcessId(2), 9u8)]
            .into_iter()
            .collect();
        let map: BTreeMap<ProcessId, u8> = [(ProcessId(0), 1), (ProcessId(1), 2)].into();
        let list = vec![Some(ProcessId(1)), None];
        assert_eq!(set.permute(&cycle).signature(), set.signature());
        assert_eq!(map.permute(&cycle).signature(), map.signature());
        assert_eq!(list.permute(&cycle).signature(), list.signature());
        assert_eq!(ProcessId(0).signature(), ProcessId(2).signature());
        // The data still tells values apart: the payloads, the positions.
        let other: BTreeSet<(ProcessId, u8)> = [(ProcessId(0), 7u8)].into_iter().collect();
        assert_ne!(other.signature(), set.signature());
        assert_ne!((1u8, 2u8).signature(), (2u8, 1u8).signature());
        assert_ne!(list.signature(), vec![None, Some(ProcessId(1))].signature());
    }
}
