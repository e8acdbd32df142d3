//! Stored once, indexed by id: the byte arena and interning index of the
//! tag table and the Taint Map's record store, the interning index of
//! the taint tree's sets, and the Taint Map client's id front.

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
/// Linear probing over a table kept at most three quarters full, and
/// grown by a quarter when it would pass that: 8 B a slot, 10.7–13.3 B
/// an entry at any count (a doubling table spends up to 21). Each slot
/// remembers 32 bits of its entry's hash, and a probe starts at those
/// bits scaled to the table's length, so a probe touches the caller's
/// store only for a candidate that very likely matches, and growing
/// never re-reads it.
/// [`IdIndex::hash`] is keyed SipHash (one random key per index): the
/// tag table and the Taint Map's record store key theirs by bytes that
/// arrive from the network. The taint tree's set index keys by its own
/// tag ids and passes [`crate::IdMap`]'s multiply-rotate hash
/// of them to `find` and `insert` instead.
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
    /// Empty (nothing is allocated before the first insert) or at least
    /// [`MIN_SLOTS`] long.
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
        let hash = hash as u32;
        let mut at = home(hash, self.slots.len());
        // At most three quarters full, so a free slot ends every probe.
        loop {
            let slot = self.slots[at];
            if slot.id == FREE {
                return None;
            }
            if slot.hash == hash && is_match(slot.id) {
                return Some(slot.id);
            }
            at = next(at, self.slots.len());
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
        let mut at = home(slot.hash, self.slots.len());
        while self.slots[at].id != FREE {
            at = next(at, self.slots.len());
        }
        self.slots[at] = slot;
    }

    /// Grows the table by a quarter and re-places every id from the hash
    /// bits its slot remembers, without going back to the store. A
    /// quarter more room takes the table from three quarters full to
    /// three fifths.
    fn grow(&mut self) {
        let slots = (self.slots.len() + self.slots.len() / 4).max(MIN_SLOTS);
        let free = Slot { hash: 0, id: FREE };
        for slot in std::mem::replace(&mut self.slots, vec![free; slots]) {
            if slot.id != FREE {
                self.place(slot);
            }
        }
    }
}

/// Where one byte string lies in a [`ByteArena`]: 12 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaSpan {
    chunk: u32,
    start: u32,
    len: u32,
}

/// Smallest and largest arena chunk. A byte string never spans chunks;
/// one longer than the largest gets a chunk of its own.
const ARENA_MIN_CHUNK: usize = 1024;
const ARENA_MAX_CHUNK: usize = 64 * 1024;

/// Append-only storage for many short byte strings: each is copied into
/// the tail of one chunk and named by its [`ArenaSpan`], so a string
/// costs its bytes plus the span its owner keeps, not a heap block of
/// its own. Chunks double from 1 KiB to 64 KiB and never move or
/// grow; a full chunk leaves unused only a tail too short for the
/// string that opened the next one.
///
/// ```rust
/// use dista_taint::ByteArena;
///
/// let mut arena = ByteArena::default();
/// let a = arena.push(&[b"vo", b"te"]);
/// let b = arena.push(&[]);
/// assert_eq!((arena.get(a), arena.get(b)), (&b"vote"[..], &b""[..]));
/// ```
#[derive(Default)]
pub struct ByteArena {
    chunks: Vec<Vec<u8>>,
}

impl ByteArena {
    /// Copies `parts`, one after another, in as one byte string and
    /// returns where it lies.
    ///
    /// # Panics
    ///
    /// Panics on a byte string of 4 GiB or more.
    pub fn push(&mut self, parts: &[&[u8]]) -> ArenaSpan {
        let total = parts.iter().map(|part| part.len()).sum::<usize>();
        let len = u32::try_from(total).expect("an arena string of 4 GiB");
        let fits = |chunk: &Vec<u8>| chunk.capacity() - chunk.len() >= total;
        if !self.chunks.last().is_some_and(fits) {
            let last = self.chunks.last().map_or(0, Vec::capacity);
            let room = (last * 2).clamp(ARENA_MIN_CHUNK, ARENA_MAX_CHUNK);
            self.chunks.push(Vec::with_capacity(room.max(total)));
        }
        let chunk = self.chunks.len() - 1;
        let tail = &mut self.chunks[chunk];
        // A chunk is no longer than its longest string or 64 KiB, so an
        // offset into it fits a `u32` as that string's length does.
        let span = ArenaSpan {
            chunk: chunk as u32,
            start: tail.len() as u32,
            len,
        };
        for part in parts {
            tail.extend_from_slice(part);
        }
        span
    }

    /// The bytes `span` names.
    ///
    /// # Panics
    ///
    /// Panics if `span` was not returned by this arena's
    /// [`ByteArena::push`].
    pub fn get(&self, span: ArenaSpan) -> &[u8] {
        &self.chunks[span.chunk as usize][span.start as usize..][..span.len as usize]
    }
}

/// Where a probe for `hash` starts in a table of `slots` slots: the 32
/// hash bits scaled to the table (the high bits pick the slot).
fn home(hash: u32, slots: usize) -> usize {
    ((u64::from(hash) * slots as u64) >> 32) as usize
}

/// The slot a probe visits after `at`.
fn next(at: usize, slots: usize) -> usize {
    match at + 1 {
        end if end == slots => 0,
        after => after,
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

    /// Interns `key` into `store` through `index`, as the byte-keyed
    /// users do.
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
        assert_eq!(growths, 36, "8 slots grown by a quarter up to 16 175");
        assert_eq!(index.slots.len(), 16_175);
        assert_eq!(index.len, 10_000);
        assert_eq!(store.len(), 10_000);
        assert!(index.len * 4 <= index.slots.len() * 3, "at most 3/4 full");
        assert!(index.len * 5 >= index.slots.len() * 3, "at least 3/5 full");
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
