//! Sets of transitions as bit vectors.
//!
//! The static relations of this crate (dependence, necessary enablers,
//! visibility) and the stubborn set of a state are all sets over the
//! transitions of one protocol. They are stored as `u64` words sized by the
//! protocol's transition count, so the closure in [`crate::stubborn`] is a
//! handful of word ORs per member instead of ordered-set inserts.

use mp_model::TransitionId;

const WORD: usize = u64::BITS as usize;

/// Words a set over `num_transitions` transitions takes.
pub(crate) fn words_for(num_transitions: usize) -> usize {
    num_transitions.div_ceil(WORD)
}

// The set operations, on bare word slices: the closure keeps its three
// working sets side by side in one buffer, the relations keep one row per
// transition in another, and [`TransitionSet`] wraps a buffer of its own.

pub(crate) fn contains(words: &[u64], t: TransitionId) -> bool {
    words[t.index() / WORD] & (1 << (t.index() % WORD)) != 0
}

pub(crate) fn insert(words: &mut [u64], t: TransitionId) {
    words[t.index() / WORD] |= 1 << (t.index() % WORD);
}

/// Removes and returns the member with the smallest id.
pub(crate) fn pop_first(words: &mut [u64]) -> Option<TransitionId> {
    let (i, word) = words.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
    let bit = word.trailing_zeros() as usize;
    *word &= *word - 1;
    Some(TransitionId(i * WORD + bit))
}

pub(crate) fn is_subset(words: &[u64], of: &[u64]) -> bool {
    words.iter().zip(of).all(|(a, b)| a & !b == 0)
}

/// Adds every member of `row` to `words`; the ones that were not members
/// before are added to `fresh` too.
pub(crate) fn pull_in(words: &mut [u64], row: &[u64], fresh: &mut [u64]) {
    for ((mine, theirs), fresh) in words.iter_mut().zip(row).zip(fresh) {
        let new = theirs & !*mine;
        *mine |= new;
        *fresh |= new;
    }
}

fn count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

fn members(words: &[u64]) -> impl Iterator<Item = TransitionId> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        std::iter::successors((word != 0).then_some(word), |w| {
            let rest = w & (w - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |w| TransitionId(i * WORD + w.trailing_zeros() as usize))
    })
}

/// A set of transitions of one protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransitionSet {
    words: Vec<u64>,
}

impl TransitionSet {
    /// The empty set over a protocol of `num_transitions` transitions.
    pub fn empty(num_transitions: usize) -> Self {
        TransitionSet {
            words: vec![0; words_for(num_transitions)],
        }
    }

    /// The set whose bits are `words` ([`words_for`] of them).
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        TransitionSet { words }
    }

    /// Adds `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a transition of the protocol the set was sized
    /// for.
    pub fn insert(&mut self, t: TransitionId) {
        insert(&mut self.words, t);
    }

    /// Returns `true` if `t` is a member.
    pub fn contains(&self, t: TransitionId) -> bool {
        contains(&self.words, t)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        count(&self.words)
    }

    /// Returns `true` if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = TransitionId> + '_ {
        members(&self.words)
    }
}

/// One transition set per transition (a relation), row-major in a single
/// allocation.
#[derive(Clone, Debug)]
pub(crate) struct BitRows {
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// The empty relation over `num_transitions` transitions.
    pub(crate) fn empty(num_transitions: usize) -> Self {
        let words_per_row = words_for(num_transitions);
        BitRows {
            words_per_row,
            words: vec![0; num_transitions * words_per_row],
        }
    }

    pub(crate) fn insert(&mut self, row: TransitionId, member: TransitionId) {
        let start = row.index() * self.words_per_row;
        insert(&mut self.words[start..start + self.words_per_row], member);
    }

    pub(crate) fn row(&self, row: TransitionId) -> &[u64] {
        let start = row.index() * self.words_per_row;
        &self.words[start..start + self.words_per_row]
    }

    pub(crate) fn contains(&self, row: TransitionId, member: TransitionId) -> bool {
        contains(self.row(row), member)
    }

    pub(crate) fn members(&self, row: TransitionId) -> impl Iterator<Item = TransitionId> + '_ {
        members(self.row(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(members: &[usize]) -> TransitionSet {
        let mut set = TransitionSet::empty(130);
        members.iter().for_each(|t| set.insert(TransitionId(*t)));
        set
    }

    #[test]
    fn sets_span_word_boundaries() {
        assert!(TransitionSet::empty(130).is_empty());
        let mut set = of(&[0, 63, 64, 127, 128, 129, 64]);
        assert_eq!(set.len(), 6);
        assert!(set.contains(TransitionId(128)) && !set.contains(TransitionId(65)));
        let listed: Vec<usize> = set.iter().map(|t| t.index()).collect();
        assert_eq!(listed, vec![0, 63, 64, 127, 128, 129]);
        assert_eq!(TransitionSet::empty(0).iter().count(), 0);
        for expected in [0, 63, 64] {
            assert_eq!(pop_first(&mut set.words), Some(TransitionId(expected)));
        }
        assert_eq!(set.len(), 3);
        assert_eq!(pop_first(&mut TransitionSet::empty(70).words), None);
    }

    #[test]
    fn set_algebra_works_word_by_word() {
        assert!(is_subset(&of(&[1, 65]).words, &of(&[1, 2, 65]).words));
        assert!(!is_subset(&of(&[1, 66]).words, &of(&[1, 2, 65]).words));

        let mut rows = BitRows::empty(130);
        for member in [2, 5, 129] {
            rows.insert(TransitionId(7), TransitionId(member));
        }
        let (mut work, mut fresh) = (of(&[2, 3]), of(&[3]));
        pull_in(&mut work.words, rows.row(TransitionId(7)), &mut fresh.words);
        assert_eq!(work, of(&[2, 3, 5, 129]));
        assert_eq!(fresh, of(&[3, 5, 129]), "only the new members are fresh");
    }

    #[test]
    fn rows_are_independent_sets() {
        let mut rows = BitRows::empty(70);
        rows.insert(TransitionId(0), TransitionId(69));
        rows.insert(TransitionId(69), TransitionId(0));
        rows.insert(TransitionId(69), TransitionId(64));
        assert!(rows.contains(TransitionId(0), TransitionId(69)));
        assert!(!rows.contains(TransitionId(1), TransitionId(69)));
        let last: Vec<usize> = rows.members(TransitionId(69)).map(|t| t.index()).collect();
        assert_eq!(last, vec![0, 64]);
    }
}
