//! The key index: external vertex key → live vertex slot.
//!
//! Each key is stored once, in its vertex record; the index holds only slot
//! ids. It is an open-addressing table with linear probing: an entry is a
//! slot id and 32 bits of the key's hash, so a probe compares keys only on a
//! hash match, and removal shifts the rest of the probe run back instead of
//! leaving tombstones. Its size follows the live vertices, not every key the
//! stream has named, and once it has grown it neither allocates nor rehashes.

use crate::hash::FxHasher;
use std::hash::Hasher;

/// An empty table entry.
const EMPTY: u32 = u32::MAX;

/// Hash of a vertex key. The upper half of the multiply is the mixed one.
#[inline]
pub(crate) fn key_hash(key: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(key.as_bytes());
    (h.finish() >> 32) as u32
}

#[derive(Debug, Clone, Default)]
pub(crate) struct KeyIndex {
    /// `(hash, slot)` pairs; `slot == EMPTY` marks a free entry. The length
    /// is zero or a power of two, at most half full.
    table: Vec<(u32, u32)>,
    len: usize,
}

impl KeyIndex {
    #[inline]
    fn mask(&self) -> usize {
        self.table.len().wrapping_sub(1)
    }

    /// The slot whose key has `hash` and satisfies `is_key`.
    #[inline]
    pub(crate) fn find(&self, hash: u32, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            let (h, slot) = self.table[i];
            if slot == EMPTY {
                return None;
            }
            if h == hash && is_key(slot) {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Files `slot` under `hash`; the key must not be in the index.
    pub(crate) fn insert(&mut self, hash: u32, slot: u32) {
        if 2 * (self.len + 1) > self.table.len() {
            self.grow();
        }
        let mask = self.mask();
        let mut i = hash as usize & mask;
        while self.table[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.table[i] = (hash, slot);
        self.len += 1;
    }

    /// Removes `slot`, filed under `hash`, if it is indexed, closing the gap
    /// it leaves.
    pub(crate) fn remove(&mut self, hash: u32, slot: u32) {
        if self.len == 0 {
            return;
        }
        let mask = self.mask();
        let mut i = hash as usize & mask;
        while self.table[i].1 != slot {
            if self.table[i].1 == EMPTY {
                return;
            }
            i = (i + 1) & mask;
        }
        // Backward shift: move each later entry of the run into the hole
        // unless its home lies cyclically in (hole, entry].
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let (h, s) = self.table[j];
            if s == EMPTY {
                break;
            }
            let home = h as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.table[i] = (h, s);
                i = j;
            }
        }
        self.table[i] = (0, EMPTY);
        self.len -= 1;
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn grow(&mut self) {
        let cap = (2 * self.table.len()).max(16);
        let old = std::mem::replace(&mut self.table, vec![(0, EMPTY); cap]);
        self.len = 0;
        for (h, s) in old {
            if s != EMPTY {
                self.insert(h, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Removal keeps every other key findable, whatever collides with what:
    /// checked against a model under heavy collisions (hashes from 8 values).
    #[test]
    fn removal_keeps_every_probe_run_intact() {
        let mut index = KeyIndex::default();
        let mut model: Vec<Option<u32>> = vec![None; 200];
        let hash = |slot: u32| (slot % 8).wrapping_mul(0x9E37_79B9);
        let mut state = 7u64;
        for _ in 0..5_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (state >> 33) as u32 % 200;
            if model[slot as usize].take().is_some() {
                index.remove(hash(slot), slot);
                index.remove(hash(slot), slot); // no longer indexed: a no-op
            } else {
                index.insert(hash(slot), slot);
                model[slot as usize] = Some(slot);
            }
            for (s, present) in model.iter().enumerate() {
                let s = s as u32;
                let found = index.find(hash(s), |c| c == s);
                assert_eq!(found, present.map(|_| s));
            }
        }
        assert_eq!(index.len(), model.iter().flatten().count());
    }

    #[test]
    fn key_hashes_differ_for_near_keys() {
        assert_ne!(key_hash("article-1"), key_hash("article-2"));
        assert_eq!(key_hash("k"), key_hash("k"));
    }
}
