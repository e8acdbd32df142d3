//! Stored once, indexed by id: the interning index of the tag table and
//! the Taint Map's record store, and the Taint Map client's id front.

use std::hash::{BuildHasher, Hash, RandomState};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{GlobalId, Taint};

/// One probe position: the low half of the entry's hash and its id.
#[derive(Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// The id of a free slot; never a real id.
const FREE: u32 = u32::MAX;

/// Smallest table allocated.
const MIN_SLOTS: usize = 8;

/// An index of `u32` ids keyed by the entries they name.
///
/// An interning table needs "which id has this key?" beside its
/// append-only store of entries. A `HashMap<Key, Id>` answers by keeping
/// a second copy of every key; this keeps none: it is an open-addressed
/// table of ids whose key *is* the stored entry the id names — hash the
/// candidate, probe, and let the caller compare against its own store.
///
/// Linear probing over a power-of-two table kept at most three quarters
/// full: 8 B a slot, 11–21 B an entry. Each slot remembers 32 bits of
/// its entry's hash, so a probe touches the caller's store only for a
/// candidate that very likely matches, and growing never re-reads it.
/// Hashes are keyed SipHash (one random key per index): both users key
/// it by bytes that arrive from the network.
///
/// ```rust
/// use dista_taint::IdIndex;
///
/// let (mut names, mut index) = (Vec::new(), IdIndex::default());
/// for name in ["a", "b", "a"] {
///     let hash = index.hash(name);
///     if index.find(hash, |id| names[id as usize] == name).is_none() {
///         index.insert(hash, names.len() as u32);
///         names.push(name);
///     }
/// }
/// assert_eq!(names, ["a", "b"]);
/// ```
#[derive(Default)]
pub struct IdIndex {
    /// Empty (nothing is allocated before the first insert) or a power
    /// of two long.
    slots: Vec<Slot>,
    len: usize,
    keys: RandomState,
}

impl IdIndex {
    /// This index's hash of `key`. An entry must be hashed the same way
    /// when it is inserted and when it is looked for: hash one borrowed
    /// form of the key (`&[u8]`, a tuple of references) at both sites.
    pub fn hash<K: Hash + ?Sized>(&self, key: &K) -> u64 {
        self.keys.hash_one(key)
    }

    /// The id inserted under `hash` for which `is_match` holds.
    /// `is_match` compares the candidate key against the caller's stored
    /// entry of that id; it only sees ids inserted under the same 32 low
    /// hash bits.
    pub fn find(&self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let hash = hash as u32;
        let mut at = hash as usize & mask;
        // At most three quarters full, so a free slot ends every probe.
        loop {
            let slot = self.slots[at];
            if slot.id == FREE {
                return None;
            }
            if slot.hash == hash && is_match(slot.id) {
                return Some(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Adds `id` under `hash`. The caller has just failed to
    /// [`IdIndex::find`] the entry (nothing here deduplicates).
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u32::MAX`, which marks a free slot.
    pub fn insert(&mut self, hash: u64, id: u32) {
        assert_ne!(id, FREE, "u32::MAX marks a free slot");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let hash = hash as u32;
        self.place(Slot { hash, id });
        self.len += 1;
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut at = slot.hash as usize & mask;
        while self.slots[at].id != FREE {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }

    /// Doubles the table and re-places every id from the hash bits its
    /// slot remembers, without going back to the store.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let free = Slot { hash: 0, id: FREE };
        for slot in std::mem::replace(&mut self.slots, vec![free; slots]) {
            if slot.id != FREE {
                self.place(slot);
            }
        }
    }
}

mod sealed {
    /// A 32-bit handle an [`super::IdFront`] can hold.
    pub trait Id: Copy {
        fn word(self) -> u32;
        fn from_word(word: u32) -> Self;
    }
}

impl sealed::Id for Taint {
    fn word(self) -> u32 {
        self.0
    }
    fn from_word(word: u32) -> Self {
        Taint(word)
    }
}

impl sealed::Id for GlobalId {
    fn word(self) -> u32 {
        self.0
    }
    fn from_word(word: u32) -> Self {
        GlobalId(word)
    }
}

/// Slots in an [`IdFront`].
const FRONT_SLOTS: usize = 1024;

/// A lock-free front for a locked map between [`Taint`]s and
/// [`GlobalId`]s: 1 024 words `key << 32 | value`, slot `key % 1024`.
/// A read is one `Acquire` load, pairing with a publish's `Release`
/// store, which overwrites the key's slot: a collision evicts, and a key
/// an outside party chooses only chooses a slot. A read gets nothing or
/// the value last published for its key, so the front answers what its
/// map does if every write of the map is published in order (under the
/// map's lock, or once the entry is final). A slot never written reads
/// `0 → 0`, both directions' blank.
pub struct IdFront<K, V> {
    slots: Box<[AtomicU64]>,
    ids: PhantomData<fn(K) -> V>,
}

impl<K: sealed::Id, V: sealed::Id> Default for IdFront<K, V> {
    fn default() -> Self {
        IdFront {
            slots: (0..FRONT_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            ids: PhantomData,
        }
    }
}

impl<K: sealed::Id, V: sealed::Id> IdFront<K, V> {
    /// Publishes `key → value`, evicting whatever held the slot.
    pub fn publish(&self, key: K, value: V) {
        let word = u64::from(key.word()) << 32 | u64::from(value.word());
        self.slots[key.word() as usize % FRONT_SLOTS].store(word, Ordering::Release);
    }

    /// The value last published for `key`, if its slot still holds it.
    pub fn get(&self, key: K) -> Option<V> {
        let word = self.slots[key.word() as usize % FRONT_SLOTS].load(Ordering::Acquire);
        ((word >> 32) as u32 == key.word()).then(|| V::from_word(word as u32))
    }

    /// Answers every key of `keys` but the `blank` ones into its `out`
    /// slot and returns how many it answered, or `None` — with `out`
    /// partly written — at the first key the front does not hold.
    pub fn answer(&self, keys: &[K], blank: K, out: &mut [V]) -> Option<u64> {
        let mut hits = 0;
        for (key, out) in keys.iter().zip(out) {
            if key.word() != blank.word() {
                *out = self.get(*key)?;
                hits += 1;
            }
        }
        Some(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `key` into `store` through `index`, as both users do.
    fn intern(index: &mut IdIndex, store: &mut Vec<Vec<u8>>, key: &[u8]) -> u32 {
        let hash = index.hash(key);
        if let Some(id) = index.find(hash, |id| store[id as usize] == key) {
            return id;
        }
        let id = store.len() as u32;
        index.insert(hash, id);
        store.push(key.to_vec());
        id
    }

    #[test]
    fn an_empty_index_finds_nothing_and_owns_nothing() {
        let index = IdIndex::default();
        assert_eq!(index.find(index.hash(b"x".as_slice()), |_| true), None);
        assert_eq!(index.len, 0);
        assert_eq!(index.slots.capacity(), 0);
    }

    #[test]
    fn ids_survive_every_growth_and_stay_dense() {
        let (mut index, mut store) = (IdIndex::default(), Vec::new());
        let mut growths = 0;
        for i in 0..10_000u32 {
            let slots = index.slots.len();
            assert_eq!(intern(&mut index, &mut store, &i.to_be_bytes()), i);
            if index.slots.len() != slots {
                growths += 1;
                for j in 0..=i {
                    assert_eq!(intern(&mut index, &mut store, &j.to_be_bytes()), j);
                }
            }
        }
        assert_eq!(growths, 12, "8 slots doubled up to 16 384");
        assert_eq!(index.len, 10_000);
        assert_eq!(store.len(), 10_000);
        assert!(index.len * 4 <= index.slots.len() * 3, "at most 3/4 full");
        assert!(index.slots.len().is_power_of_two());
    }

    #[test]
    fn equal_hash_bits_are_told_apart_by_the_store() {
        // Every entry under one hash: one probe chain, resolved only by
        // comparing against the store.
        let mut index = IdIndex::default();
        let store: Vec<u32> = (0..100).collect();
        for &id in &store {
            assert_eq!(index.find(7, |cand| store[cand as usize] == id), None);
            index.insert(7, id);
        }
        for &id in &store {
            assert_eq!(index.find(7, |cand| store[cand as usize] == id), Some(id));
        }
        // Hashes that differ only above bit 32 share a chain too.
        assert_eq!(index.find(7 | 1 << 40, |cand| cand == 42), Some(42));
        assert_eq!(index.find(8, |_| true), None);
    }

    #[test]
    fn a_front_answers_its_last_publish_and_a_collision_evicts() {
        let front: IdFront<GlobalId, Taint> = IdFront::default();
        assert_eq!(front.get(GlobalId(5)), None);
        front.publish(GlobalId(5), Taint(9));
        front.publish(GlobalId(5), Taint(3));
        assert_eq!(front.get(GlobalId(5)), Some(Taint(3)));
        let mut out = [Taint::EMPTY; 3];
        let keys = [GlobalId(5), GlobalId::UNTAINTED, GlobalId(5)];
        assert_eq!(front.answer(&keys, GlobalId::UNTAINTED, &mut out), Some(2));
        assert_eq!(out, [Taint(3), Taint::EMPTY, Taint(3)]);
        // Same slot, other key: the newcomer evicts, nothing is chained.
        front.publish(GlobalId(5 + FRONT_SLOTS as u32), Taint(4));
        assert_eq!(front.get(GlobalId(5)), None);
        assert_eq!(front.answer(&keys, GlobalId::UNTAINTED, &mut out), None);
    }

    #[test]
    #[should_panic(expected = "free slot")]
    fn the_free_marker_is_not_an_id() {
        IdIndex::default().insert(0, u32::MAX);
    }
}
