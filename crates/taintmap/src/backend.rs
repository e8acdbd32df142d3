//! Pluggable Taint Map storage (paper §IV: "Taint Map can be replaced by
//! other mature K-V store systems such as ZooKeeper and etcd").
//!
//! The service's protocol and caching live in [`crate::TaintMapServer`] /
//! [`crate::TaintMapClient`]; the id↔taint storage behind it is a
//! [`TaintMapBackend`]. The default is the paper's "simplest
//! implementation" — an in-memory map — and `dista-zookeeper` provides a
//! ZooKeeper-backed implementation.

use std::collections::HashMap;

use dista_taint::{ArenaSpan, ByteArena, IdIndex};
use parking_lot::Mutex;

/// Global IDs that encode as an all-ones byte pattern at some supported
/// wire width (1–4 bytes). The wire-protocol negotiation handshake uses
/// the all-ones gid pattern as its probe/reply marker, so these ids must
/// never name a real taint: a shard never leases them and refuses any
/// record that names one.
pub const WIRE_RESERVED_GIDS: [u32; 4] = [0xFF, 0xFFFF, 0xFF_FFFF, 0xFFFF_FFFF];

/// Storage for global taints: serialized-taint bytes keyed by local id,
/// each distinct byte string stored once, and the lease high-water.
///
/// Ids are handed out by the server, in leased blocks, before anything
/// is bound to them; the backend only stores what it is told. The
/// server checks that an id was leased (at or below
/// [`TaintMapBackend::max_local`]) before it binds it.
pub trait TaintMapBackend: Send + Sync + 'static {
    /// Binds local id `id` to a serialized taint; returns whether that
    /// changed anything. The bytes are the packed form
    /// [`dista_taint::serialize_taint`] writes (≈ 25 B for one string
    /// tag), and [`TaintMapBackend::lookup`] answers them as given. First
    /// writer wins: an id already bound keeps its bytes. Bytes already
    /// stored under another id make `id` an alias of that one — both
    /// resolve to the one stored copy.
    fn bind(&self, id: u32, serialized: &[u8]) -> bool;

    /// Resolves a local id; `None` if it was never bound.
    fn lookup(&self, id: u32) -> Option<Vec<u8>>;

    /// Raises the lease high-water to at least `id`.
    fn raise_high_water(&self, id: u32);

    /// The lease high-water: the highest local id ever leased (0 when
    /// none was). Range copies and snapshots scan local ids
    /// `1..=max_local()` through [`TaintMapBackend::lookup`].
    fn max_local(&self) -> u32;

    /// Number of distinct global taints stored (aliases not counted).
    fn len(&self) -> u64;

    /// Ids bound to bytes another id already names.
    fn aliases(&self) -> u64;

    /// Whether no global taints have been stored yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Every distinct byte string is stored once, as it was bound, in
/// `arena`; `index` and `record_of` hold record numbers only. A
/// serialized taint arrives packed, and a full form has exactly one
/// packing, so dedup, aliases and the census count what they would on
/// the full bytes.
#[derive(Default)]
struct MemState {
    arena: ByteArena,
    /// Where each record's bytes lie, in arrival order; never removed.
    records: Vec<ArenaSpan>,
    /// Record numbers keyed by the bytes each names.
    index: IdIndex,
    /// Local id → the record it resolves to; two ids name one record
    /// when one is an alias. Ids arrive from the network (binds,
    /// replication, migration, the WAL): one is only ever a key here.
    record_of: HashMap<u32, u32>,
    high_water: u32,
}

impl MemState {
    /// The record holding exactly `serialized`, stored now if there is
    /// none.
    fn record_for(&mut self, serialized: &[u8]) -> u32 {
        let hash = self.index.hash(serialized);
        let known = self.index.find(hash, |record| {
            self.arena.get(self.records[record as usize]) == serialized
        });
        known.unwrap_or_else(|| {
            let record = self.records.len() as u32;
            self.records.push(self.arena.push(&[serialized]));
            self.index.insert(hash, record);
            record
        })
    }
}

/// The default in-memory backend.
#[derive(Default)]
pub struct InMemoryBackend {
    state: Mutex<MemState>,
}

impl InMemoryBackend {
    /// Creates an empty backend: nothing leased, nothing bound.
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
    fn bind(&self, id: u32, serialized: &[u8]) -> bool {
        let mut st = self.state.lock();
        if st.record_of.contains_key(&id) {
            return false;
        }
        let record = st.record_for(serialized);
        st.record_of.insert(id, record);
        true
    }

    fn lookup(&self, id: u32) -> Option<Vec<u8>> {
        let st = self.state.lock();
        let &record = st.record_of.get(&id)?;
        Some(st.arena.get(st.records[record as usize]).to_vec())
    }

    fn raise_high_water(&self, id: u32) {
        let mut st = self.state.lock();
        st.high_water = st.high_water.max(id);
    }

    fn max_local(&self) -> u32 {
        self.state.lock().high_water
    }

    fn len(&self) -> u64 {
        self.state.lock().records.len() as u64
    }

    fn aliases(&self) -> u64 {
        let st = self.state.lock();
        (st.record_of.len() - st.records.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_taint::{serialize_taint, LocalId, TagValue, Taint, TaintStore};
    use proptest::TestRng;

    /// Longer than the largest chunk of the backend's arena.
    const LONG: usize = 64 * 1024;

    /// A serialized taint of 1–3 tags unique to `stamp` — strings, bytes
    /// and ints, a value longer than 255 bytes now and then — and about
    /// one in twelve damaged: a byte flipped in a length byte or past
    /// them, or the tail cut off.
    fn serialized(rng: &mut TestRng, store: &TaintStore, stamp: u64) -> Vec<u8> {
        let mut taint = Taint::EMPTY;
        for j in 0..1 + rng.below(3) {
            let mut text = format!("{stamp}:{j}");
            if rng.below(4) == 0 {
                text.extend(std::iter::repeat_n('x', 256 + rng.below(100) as usize));
            }
            let value = match rng.below(3) {
                0 => TagValue::str(&text),
                1 => TagValue::bytes(&text),
                _ => TagValue::Int((stamp << 2 | j) as i64),
            };
            taint = store.union(taint, store.mint_source_taint(value));
        }
        let mut bytes = serialize_taint(store.tree(), taint);
        let end = bytes.len();
        let flip = |bytes: &mut Vec<u8>, rng: &mut TestRng, from: usize, to: usize| {
            bytes[from + rng.below((to - from) as u64) as usize] ^= 1 << rng.below(8);
        };
        match rng.below(24) {
            0 => flip(&mut bytes, rng, 0, 2),
            1 => flip(&mut bytes, rng, 2, end),
            2 => bytes.truncate(rng.below(end as u64) as usize),
            _ => {}
        }
        bytes
    }

    /// The oracle: every byte string twice, as the key of one map and
    /// the value of the other, with first writers kept in both.
    #[derive(Default)]
    struct TwoMaps {
        /// Bytes → the first id bound to them.
        by_bytes: HashMap<Vec<u8>, u32>,
        by_id: HashMap<u32, Vec<u8>>,
        high_water: u32,
    }

    impl TwoMaps {
        fn bind(&mut self, id: u32, serialized: &[u8]) -> bool {
            if self.by_id.contains_key(&id) {
                return false;
            }
            self.by_id.insert(id, serialized.to_vec());
            self.by_bytes.entry(serialized.to_vec()).or_insert(id);
            true
        }
    }

    /// One seeded run of the model: `steps` random leases, binds and
    /// lookups applied to the backend and the oracle, every answer and
    /// every counter compared after each.
    fn run_model(seed: u64, steps: usize) {
        let mut rng = TestRng::new(seed);
        let (real, mut model) = (InMemoryBackend::new(), TwoMaps::default());
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        // Byte strings and ids handed to either side so far.
        let (mut known, mut ids): (Vec<Vec<u8>>, Vec<u32>) = (Vec::new(), Vec::new());
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        for step in 0..steps {
            let fresh = |rng: &mut TestRng| -> Vec<u8> {
                // A third are serialized taints.
                if rng.below(3) == 0 {
                    return serialized(rng, &store, step as u64);
                }
                // Unique by the step stamp; now and then empty-bodied or
                // longer than an arena chunk.
                let body = match rng.below(400) {
                    0 => LONG + rng.below(1000) as usize,
                    n => n as usize % 300,
                };
                let mut bytes = (step as u64).to_be_bytes().to_vec();
                bytes.extend((0..body).map(|i| (i as u64 ^ seed) as u8));
                bytes
            };
            match rng.below(10) {
                // A lease: the high-water moves up by up to a block, or
                // is re-raised to where it is.
                0 | 1 => {
                    let to = model.high_water + rng.below(80) as u32;
                    real.raise_high_water(to);
                    model.high_water = model.high_water.max(to);
                }
                // A bind: a fresh leased id or one already bound, to
                // fresh bytes or to bytes some id already names (an
                // alias, or a second writer of a bound id).
                2..=6 => {
                    let id = match ids.is_empty() || rng.below(4) != 0 {
                        true => 1 + rng.below(u64::from(model.high_water.max(1))) as u32,
                        false => ids[pick(&mut rng, ids.len())],
                    };
                    let bytes = match !known.is_empty() && rng.below(3) == 0 {
                        true => known[pick(&mut rng, known.len())].clone(),
                        false => fresh(&mut rng),
                    };
                    assert_eq!(
                        real.bind(id, &bytes),
                        model.bind(id, &bytes),
                        "seed {seed} step {step}: bind {id}"
                    );
                    ids.push(id);
                    known.push(bytes);
                }
                _ => {
                    let id = match ids.is_empty() || rng.below(4) == 0 {
                        true => rng.below(1 << 31) as u32,
                        false => ids[pick(&mut rng, ids.len())],
                    };
                    assert_eq!(
                        real.lookup(id),
                        model.by_id.get(&id).cloned(),
                        "seed {seed} step {step}: lookup {id}"
                    );
                }
            }
            assert_eq!(
                real.max_local(),
                model.high_water,
                "seed {seed} step {step}"
            );
            assert_eq!(
                (real.len(), real.aliases()),
                (
                    model.by_bytes.len() as u64,
                    (model.by_id.len() - model.by_bytes.len()) as u64
                ),
                "seed {seed} step {step}: the census counts taints, not ids"
            );
        }
        // Everything either side was ever told, from both directions:
        // every id answers its first bytes, and binding any known bytes
        // under a fresh id makes one more alias and no more taints.
        for (&id, bytes) in &model.by_id {
            assert_eq!(
                real.lookup(id).as_ref(),
                Some(bytes),
                "seed {seed}: id {id}"
            );
        }
        let (taints, aliases) = (real.len(), real.aliases());
        let spare = model.high_water + 1;
        let bytes = model.by_bytes.keys().next().cloned().unwrap_or_default();
        assert!(real.bind(spare, &bytes));
        let was_new = u64::from(!model.by_bytes.contains_key(&bytes));
        assert_eq!(
            (real.len(), real.aliases()),
            (taints + was_new, aliases + 1 - was_new)
        );
    }

    #[test]
    fn random_operations_answer_as_the_two_map_backend_did() {
        for seed in [7, 42, 1337, 0xD157A] {
            run_model(seed, 6_000);
        }
    }

    #[test]
    fn binding_known_bytes_under_a_new_id_aliases_them() {
        let b = InMemoryBackend::new();
        b.raise_high_water(8);
        assert!(b.bind(1, b"a"));
        assert!(b.bind(2, b"b"));
        assert!(b.bind(3, b"a"), "a second VM's id for the same taint");
        assert_eq!((b.len(), b.aliases()), (2, 1));
        assert_eq!(b.lookup(3).as_deref(), Some(b"a".as_ref()));
        assert_eq!(b.lookup(1), b.lookup(3));
        assert_eq!(b.lookup(999), None);
    }

    #[test]
    fn the_first_writer_of_an_id_keeps_it() {
        let b = InMemoryBackend::new();
        assert!(b.bind(5, b"first"));
        assert!(!b.bind(5, b"first"), "a re-sent bind changes nothing");
        assert!(!b.bind(5, b"second"), "nor does a rival one");
        assert_eq!(b.lookup(5).as_deref(), Some(b"first".as_ref()));
        assert_eq!((b.len(), b.aliases()), (1, 0));
    }

    #[test]
    fn the_high_water_only_rises() {
        let b = InMemoryBackend::new();
        assert_eq!(b.max_local(), 0);
        b.raise_high_water(64);
        b.raise_high_water(3);
        assert_eq!(b.max_local(), 64);
        b.raise_high_water(u32::MAX);
        assert_eq!(b.max_local(), u32::MAX);
    }
}
