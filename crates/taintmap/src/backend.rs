//! Pluggable Taint Map storage (paper §IV: "Taint Map can be replaced by
//! other mature K-V store systems such as ZooKeeper and etcd").
//!
//! The service's protocol and caching live in [`crate::TaintMapServer`] /
//! [`crate::TaintMapClient`]; the id↔taint storage behind it is a
//! [`TaintMapBackend`]. The default is the paper's "simplest
//! implementation" — an in-memory map — and `dista-zookeeper` provides a
//! ZooKeeper-backed implementation.

use std::collections::{HashMap, HashSet};

use dista_taint::IdIndex;
use parking_lot::Mutex;

/// Global IDs that encode as an all-ones byte pattern at some supported
/// wire width (1–4 bytes). The wire-protocol negotiation handshake uses
/// the all-ones gid pattern as its probe/reply marker, so these ids must
/// never be allocated to a real taint — each shard reserves its share of
/// them at launch via [`TaintMapBackend::reserve`].
pub const WIRE_RESERVED_GIDS: [u32; 4] = [0xFF, 0xFFFF, 0xFF_FFFF, 0xFFFF_FFFF];

/// Storage for global taints: serialized-taint bytes keyed by Global ID,
/// with byte-identity dedup on registration.
pub trait TaintMapBackend: Send + Sync + 'static {
    /// Registers a serialized taint, returning its Global ID. The same
    /// bytes must always yield the same id (dedup); ids are positive.
    /// 0 means the id space is exhausted: nothing was stored, and the
    /// server answers the request with an error, never with an id.
    fn register(&self, serialized: &[u8]) -> u32;

    /// Marks local ids that [`TaintMapBackend::register`] must never
    /// allocate (the wire grammar gives them special meaning — see
    /// [`WIRE_RESERVED_GIDS`]). The default is a no-op, acceptable for
    /// backends whose allocators realistically never reach these
    /// near-`u32::MAX` ids.
    fn reserve(&self, _local_ids: &[u32]) {}

    /// Resolves a Global ID; `None` if it was never assigned.
    fn lookup(&self, gid: u32) -> Option<Vec<u8>>;

    /// Inserts a taint under an externally-assigned id (standby
    /// replication). Later [`TaintMapBackend::register`] calls must not
    /// reuse `gid`.
    fn insert_replicated(&self, gid: u32, serialized: &[u8]);

    /// Highest backend-local id assigned or replicated so far (0 when
    /// empty). Range copies and snapshots scan local ids
    /// `1..=max_local()` through [`TaintMapBackend::lookup`], so this
    /// must never lag behind the allocator.
    fn max_local(&self) -> u32;

    /// Number of distinct global taints stored.
    fn len(&self) -> u64;

    /// Whether no global taints have been stored yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bytes in one arena chunk. A record never spans chunks; one longer
/// than this gets a chunk of its own.
const ARENA_CHUNK: usize = 256 * 1024;

/// One distinct serialized taint: where its bytes lie in the arena, and
/// the id [`TaintMapBackend::register`] answers for them.
struct Record {
    chunk: u32,
    start: u32,
    len: u32,
    id: u32,
}

/// Every distinct byte string is stored once, in `arena`; `index` and
/// `record_of` hold record numbers only.
#[derive(Default)]
struct MemState {
    arena: Vec<Vec<u8>>,
    /// In arrival order; never removed.
    records: Vec<Record>,
    /// Record numbers keyed by the bytes each names.
    index: IdIndex,
    /// Local id → the record it resolves to. Ids arrive from the network
    /// (replication, migration, the WAL): one is only ever a key here.
    record_of: HashMap<u32, u32>,
    next_id: u32,
    reserved: HashSet<u32>,
}

impl MemState {
    fn bytes(&self, record: u32) -> &[u8] {
        let r = &self.records[record as usize];
        &self.arena[r.chunk as usize][r.start as usize..][..r.len as usize]
    }

    /// The record holding exactly `serialized`, with the hash to
    /// [`MemState::push`] it under if there is none.
    fn find(&self, serialized: &[u8]) -> (u64, Option<u32>) {
        let hash = self.index.hash(serialized);
        let found = self
            .index
            .find(hash, |record| self.bytes(record) == serialized);
        (hash, found)
    }

    /// Stores bytes that [`MemState::find`] did not, as answering `id`;
    /// returns the record's number.
    fn push(&mut self, hash: u64, serialized: &[u8], id: u32) -> u32 {
        let fits = |chunk: &Vec<u8>| chunk.capacity() - chunk.len() >= serialized.len();
        if !self.arena.last().is_some_and(fits) {
            let room = serialized.len().max(ARENA_CHUNK);
            self.arena.push(Vec::with_capacity(room));
        }
        let last = self.arena.len() - 1;
        let chunk = &mut self.arena[last];
        let record = self.records.len() as u32;
        // A chunk offset is under 4 GiB because a length is: a
        // serialized taint is a frame payload, announced as a `u32`.
        self.records.push(Record {
            chunk: last as u32,
            start: chunk.len() as u32,
            len: u32::try_from(serialized.len()).expect("a serialized taint of 4 GiB"),
            id,
        });
        chunk.extend_from_slice(serialized);
        self.index.insert(hash, record);
        record
    }

    /// The next id the allocator may hand out, or `None` once the `u32`
    /// space above `next_id` is spent.
    fn next_free_id(&self) -> Option<u32> {
        let mut id = self.next_id.checked_add(1)?;
        while self.reserved.contains(&id) {
            id = id.checked_add(1)?;
        }
        Some(id)
    }
}

/// The default in-memory backend.
#[derive(Default)]
pub struct InMemoryBackend {
    state: Mutex<MemState>,
}

impl InMemoryBackend {
    /// Creates an empty backend; the first id assigned is 1.
    pub fn new() -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for InMemoryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InMemoryBackend")
            .field("len", &self.len())
            .finish()
    }
}

impl TaintMapBackend for InMemoryBackend {
    fn register(&self, serialized: &[u8]) -> u32 {
        let mut st = self.state.lock();
        let (hash, found) = st.find(serialized);
        if let Some(record) = found {
            return st.records[record as usize].id;
        }
        let Some(id) = st.next_free_id() else {
            return 0;
        };
        st.next_id = id;
        let record = st.push(hash, serialized, id);
        st.record_of.insert(id, record);
        id
    }

    fn reserve(&self, local_ids: &[u32]) {
        self.state.lock().reserved.extend(local_ids.iter().copied());
    }

    fn lookup(&self, gid: u32) -> Option<Vec<u8>> {
        let st = self.state.lock();
        let &record = st.record_of.get(&gid)?;
        Some(st.bytes(record).to_vec())
    }

    fn insert_replicated(&self, gid: u32, serialized: &[u8]) {
        let mut st = self.state.lock();
        st.next_id = st.next_id.max(gid);
        // Last writer wins in both directions: these bytes now answer
        // `gid`, and `gid` now resolves to these bytes.
        let record = match st.find(serialized) {
            (_, Some(record)) => {
                st.records[record as usize].id = gid;
                record
            }
            (hash, None) => st.push(hash, serialized, gid),
        };
        st.record_of.insert(gid, record);
    }

    fn max_local(&self) -> u32 {
        self.state.lock().next_id
    }

    fn len(&self) -> u64 {
        self.state.lock().record_of.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    /// The backend this one replaced, kept as the oracle: every byte
    /// string twice, as the key of one map and the value of the other.
    #[derive(Default)]
    struct TwoMaps {
        by_bytes: HashMap<Vec<u8>, u32>,
        by_id: HashMap<u32, Vec<u8>>,
        next_id: u32,
        reserved: HashSet<u32>,
    }

    impl TwoMaps {
        fn register(&mut self, serialized: &[u8]) -> u32 {
            if let Some(&id) = self.by_bytes.get(serialized) {
                return id;
            }
            self.next_id += 1;
            while self.reserved.contains(&self.next_id) {
                self.next_id += 1;
            }
            self.by_bytes.insert(serialized.to_vec(), self.next_id);
            self.by_id.insert(self.next_id, serialized.to_vec());
            self.next_id
        }

        fn insert_replicated(&mut self, gid: u32, serialized: &[u8]) {
            self.next_id = self.next_id.max(gid);
            self.by_bytes.insert(serialized.to_vec(), gid);
            self.by_id.insert(gid, serialized.to_vec());
        }
    }

    /// One seeded run of the model: `steps` random operations applied to
    /// the backend and the oracle, every answer and both counters
    /// compared after each.
    fn run_model(seed: u64, steps: usize) {
        let mut rng = TestRng::new(seed);
        let (real, mut model) = (InMemoryBackend::new(), TwoMaps::default());
        // Byte strings and ids handed to either side so far.
        let (mut known, mut ids): (Vec<Vec<u8>>, Vec<u32>) = (Vec::new(), Vec::new());
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        for step in 0..steps {
            let fresh = |rng: &mut TestRng| -> Vec<u8> {
                // Unique by the step stamp; now and then empty-bodied or
                // longer than an arena chunk.
                let body = match rng.below(400) {
                    0 => ARENA_CHUNK + rng.below(1000) as usize,
                    n => n as usize % 300,
                };
                let mut bytes = (step as u64).to_be_bytes().to_vec();
                bytes.extend((0..body).map(|i| (i as u64 ^ seed) as u8));
                bytes
            };
            let op = rng.below(10);
            let known_bytes = !known.is_empty() && rng.below(3) == 0;
            let bytes = match known_bytes {
                true => known[pick(&mut rng, known.len())].clone(),
                false => fresh(&mut rng),
            };
            match op {
                0..=3 => {
                    let id = real.register(&bytes);
                    assert_eq!(
                        id,
                        model.register(&bytes),
                        "seed {seed} step {step}: register"
                    );
                    ids.push(id);
                    known.push(bytes);
                }
                4..=6 => {
                    // A known id (overwritten), the next few (in and out
                    // of order), or one far ahead (sparse).
                    let gid = match rng.below(4) {
                        0 if !ids.is_empty() => ids[pick(&mut rng, ids.len())],
                        1 => 1 + rng.below(1 << 30) as u32,
                        _ => model.next_id.saturating_sub(3) + rng.below(8) as u32,
                    }
                    .max(1);
                    real.insert_replicated(gid, &bytes);
                    model.insert_replicated(gid, &bytes);
                    ids.push(gid);
                    known.push(bytes);
                }
                7 => {
                    let reserve: Vec<u32> = (0..rng.below(3))
                        .map(|_| model.next_id + 1 + rng.below(4) as u32)
                        .collect();
                    real.reserve(&reserve);
                    model.reserved.extend(&reserve);
                }
                _ => {
                    let gid = match ids.is_empty() || rng.below(4) == 0 {
                        true => rng.below(1 << 31) as u32,
                        false => ids[pick(&mut rng, ids.len())],
                    };
                    assert_eq!(
                        real.lookup(gid),
                        model.by_id.get(&gid).cloned(),
                        "seed {seed} step {step}: lookup {gid}"
                    );
                }
            }
            assert_eq!(real.max_local(), model.next_id, "seed {seed} step {step}");
            assert_eq!(
                real.len(),
                model.by_id.len() as u64,
                "seed {seed} step {step}"
            );
        }
        // Everything either side was ever told, from both directions.
        for (&gid, bytes) in &model.by_id {
            assert_eq!(
                real.lookup(gid).as_ref(),
                Some(bytes),
                "seed {seed}: gid {gid}"
            );
        }
        for (bytes, &gid) in &model.by_bytes {
            assert_eq!(real.register(bytes), gid, "seed {seed}: dedup to {gid}");
        }
        assert_eq!(real.len(), model.by_id.len() as u64);
    }

    #[test]
    fn random_operations_answer_as_the_two_map_backend_did() {
        for seed in [7, 42, 1337, 0xD157A] {
            run_model(seed, 6_000);
        }
    }

    #[test]
    fn an_exhausted_allocator_answers_zero_and_never_wraps() {
        // A replicated record may carry any local id; the allocator
        // resumes above it, and `u32::MAX + 1` must not come out as 0
        // (untainted) or as any id at all.
        let b = InMemoryBackend::new();
        b.insert_replicated(u32::MAX, b"replicated");
        assert_eq!(b.register(b"new"), 0, "no id left");
        assert_eq!(b.register(b"new"), 0, "and none the second time");
        assert_eq!(b.max_local(), u32::MAX);
        assert_eq!(b.len(), 1, "a refused registration stores nothing");
        assert_eq!(b.lookup(0), None);
        assert_eq!(
            b.register(b"replicated"),
            u32::MAX,
            "known bytes still dedup"
        );

        // Nor may the search for a free id run past the reserved tail,
        // which is where a one-shard server's wire-reserved id sits.
        let b = InMemoryBackend::new();
        b.reserve(&[u32::MAX - 1, u32::MAX]);
        b.insert_replicated(u32::MAX - 3, b"replicated");
        assert_eq!(b.register(b"last"), u32::MAX - 2);
        assert_eq!(b.register(b"none left"), 0);
        assert_eq!(b.max_local(), u32::MAX - 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn register_dedups_and_counts() {
        let b = InMemoryBackend::new();
        let id1 = b.register(b"a");
        let id2 = b.register(b"b");
        assert_eq!(b.register(b"a"), id1);
        assert_ne!(id1, id2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.lookup(id1).as_deref(), Some(b"a".as_ref()));
        assert_eq!(b.lookup(999), None);
    }

    #[test]
    fn ids_start_at_one() {
        let b = InMemoryBackend::new();
        assert_eq!(b.register(b"x"), 1);
    }

    #[test]
    fn reserved_ids_are_never_allocated() {
        let b = InMemoryBackend::new();
        b.reserve(&[2, 3, 5]);
        assert_eq!(b.register(b"a"), 1);
        assert_eq!(b.register(b"b"), 4, "skips the reserved 2 and 3");
        assert_eq!(b.register(b"c"), 6, "skips the reserved 5");
        assert_eq!(b.lookup(2), None);
    }

    #[test]
    fn max_local_tracks_allocations_and_replication() {
        let b = InMemoryBackend::new();
        assert_eq!(b.max_local(), 0);
        b.register(b"a");
        b.register(b"b");
        assert_eq!(b.max_local(), 2);
        b.insert_replicated(9, b"nine");
        assert_eq!(b.max_local(), 9);
    }

    #[test]
    fn replication_advances_the_counter() {
        let b = InMemoryBackend::new();
        b.insert_replicated(7, b"seven");
        assert_eq!(b.lookup(7).as_deref(), Some(b"seven".as_ref()));
        // A fresh registration must not collide with the replicated id.
        let id = b.register(b"new");
        assert_eq!(id, 8);
        // Replicated bytes dedup against future registrations too.
        assert_eq!(b.register(b"seven"), 7);
    }
}
