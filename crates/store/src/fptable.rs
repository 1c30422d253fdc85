//! The in-RAM set of fingerprints in each shard of the probabilistic
//! store, its buffer before a run flush: open addressing that grows at
//! 3/4 load, probing linearly from the fingerprint's low bits (`fold64`
//! already mixed every input bit into them, so there is no second hash).

#[derive(Debug, Default)]
pub(crate) struct FpTable {
    /// Fingerprints, or 0 when empty. Power-of-two length once allocated.
    slots: Vec<u64>,
    /// Non-zero members, all in `slots`.
    filled: usize,
    /// Whether the zero fingerprint, which no slot can hold, is a member.
    zero: bool,
}

impl FpTable {
    pub(crate) fn len(&self) -> usize {
        self.filled + usize::from(self.zero)
    }

    /// Heap bytes held: the slot array's capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u64>()
    }

    /// The slot holding `fp` (non-zero), or the empty slot where it belongs.
    fn slot(&self, fp: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = fp as usize & mask;
        while self.slots[at] != 0 && self.slots[at] != fp {
            at = (at + 1) & mask;
        }
        at
    }

    pub(crate) fn contains(&self, fp: u64) -> bool {
        match fp {
            0 => self.zero,
            _ => !self.slots.is_empty() && self.slots[self.slot(fp)] == fp,
        }
    }

    /// Adds `fp`; returns whether it was new.
    pub(crate) fn insert(&mut self, fp: u64) -> bool {
        if fp == 0 {
            return !std::mem::replace(&mut self.zero, true);
        }
        if (self.filled + 1) * 4 > self.slots.len() * 3 {
            let slots = (self.slots.len() * 2).max(64);
            let old = std::mem::replace(&mut self.slots, vec![0; slots]);
            for fp in old.into_iter().filter(|&fp| fp != 0) {
                let at = self.slot(fp);
                self.slots[at] = fp;
            }
        }
        let at = self.slot(fp);
        if self.slots[at] == fp {
            return false;
        }
        self.slots[at] = fp;
        self.filled += 1;
        true
    }

    /// Hands every member to `each` in ascending order and leaves the
    /// table empty, its slot array kept for the next fill.
    pub(crate) fn drain_sorted(&mut self, mut each: impl FnMut(u64)) {
        let slots = self.slots.len();
        self.slots.retain(|&fp| fp != 0);
        self.slots.sort_unstable();
        if std::mem::take(&mut self.zero) {
            each(0);
        }
        self.slots.drain(..).for_each(&mut each);
        self.slots.resize(slots, 0);
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// A deterministic pseudo-random fingerprint stream (SplitMix64).
    fn fingerprints(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    fn drained(table: &mut FpTable) -> Vec<u64> {
        let mut out = Vec::new();
        table.drain_sorted(|fp| out.push(fp));
        out
    }

    #[test]
    fn the_zero_fingerprint_is_stored_and_found() {
        let mut table = FpTable::default();
        assert!(!table.contains(0));
        assert!(table.insert(0));
        assert!(!table.insert(0));
        assert!(table.contains(0) && !table.contains(1));
        assert_eq!(table.len(), 1);
        assert_eq!(table.heap_bytes(), 0, "zero needs no slot");
        assert!(table.insert(1));
        assert_eq!(drained(&mut table), [0, 1]);
        assert!(!table.contains(0));
    }

    #[test]
    fn agrees_with_a_btree_set_across_resizes() {
        // Half of the stream repeats, and narrowed fingerprints pile onto
        // few home slots, so probe chains wrap and resizes re-thread them.
        let mut input = fingerprints(10_000, 41);
        input.extend(fingerprints(5_000, 41));
        input.extend(fingerprints(2_000, 43).iter().map(|fp| fp & 0xfff0_0000));
        let mut table = FpTable::default();
        let mut reference = BTreeSet::new();
        for (i, fp) in input.iter().enumerate() {
            assert_eq!(table.contains(*fp), reference.contains(fp), "query {i}");
            assert_eq!(table.insert(*fp), reference.insert(*fp), "insert {i}");
            assert_eq!(table.len(), reference.len());
        }
        assert!(table.slots.len() >= 64 * 64, "several resizes");
        assert!(
            table.filled * 4 <= table.slots.len() * 3,
            "load stays <= 3/4"
        );
        assert!(reference.iter().all(|fp| table.contains(*fp)));
        assert!(fingerprints(1_000, 47)
            .iter()
            .all(|fp| !table.contains(*fp)));
    }

    #[test]
    fn drain_sorted_ascends_empties_and_keeps_capacity() {
        let input = fingerprints(3_000, 53);
        let mut table = FpTable::default();
        for fp in &input {
            table.insert(*fp);
        }
        let capacity = table.heap_bytes();
        let out = drained(&mut table);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert_eq!(
            out,
            input
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
        assert_eq!(table.len(), 0);
        assert!(
            table.slots.iter().all(|slot| *slot == 0),
            "every slot cleared"
        );
        assert_eq!(table.heap_bytes(), capacity, "capacity is kept");
        assert!(input.iter().all(|fp| !table.contains(*fp)));
        // The emptied table fills again without reallocating.
        for fp in &input {
            assert!(table.insert(*fp));
        }
        assert_eq!(table.heap_bytes(), capacity);
        assert_eq!(drained(&mut table), out);
    }
}
