//! The singleton taint tree (paper §II-B, Fig. 3).
//!
//! Phosphor stores every taint as a reference into one per-VM tree; the
//! tag *set* of a taint is what the path from the root to the referenced
//! node adds up. Combining two taints unions their tag sets and the
//! union is interned so that equal sets share a single node — "if two
//! variables have the same taint tag, their taints can refer to the same
//! node in the tree, thus avoiding storing the same tags repeatedly".
//!
//! Here a node adds a sorted *run* of tags to its parent's set, each
//! larger than every tag above it, and a set is interned whole: one new
//! set is one new node, whatever its size. Its parent is the largest
//! operand of the union that made it whose tags are a prefix of the
//! set's, so a union that adds larger tags to an operand keeps only
//! those; without such an operand, the first tag's singleton or the
//! root.
//!
//! # Concurrency design
//!
//! The tree is read-mostly: once a node exists it is immutable, and hot
//! paths (`tag_ids`, `tag_count`) only walk parent links and read runs.
//! [`TaintTree`] therefore keeps its nodes and their runs in an
//! append-only [`NodeTable`] — chunked storage where published slots are
//! never moved or mutated, so walks take **no lock at all** — and stripes
//! the two interning tables (`sets`, `union_memo`) across [`SHARDS`]
//! independent `RwLock`s so writers on unrelated keys don't contend.
//! `sets` is an [`IdIndex`] of node ids keyed by a set's sorted tag list:
//! a probe compares its candidate by walking the candidate's runs,
//! lock-free.
//!
//! A singleton node `{tag}` is not in `sets`: it is kept in the tag's own
//! entry of the tag table and made under the tags lock. Locks are taken
//! in one order: the tags lock, then a `sets` stripe, then the node
//! append lock; nothing that holds the append lock or a `sets` stripe
//! takes the tags lock.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, RwLock};

use crate::index::{ArenaSpan, ByteArena, IdIndex};
use crate::tag::{GlobalId, LocalId, RawValue, TagId, TagValue, TaintTag};

/// A taint: a cheap, copyable handle to an interned tag set.
///
/// `Taint::EMPTY` is the root of the tree and denotes "no tags". Handles
/// are only meaningful relative to the [`TaintTree`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Taint(pub(crate) u32);

impl Taint {
    /// The empty taint (no tags); the root node of every tree.
    pub const EMPTY: Taint = Taint(0);

    /// Whether this taint carries no tags.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw node index (diagnostics only).
    pub fn node_index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Taint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("{}")
        } else {
            write!(f, "{{n{}}}", self.0)
        }
    }
}

/// One minted tag, 28 bytes: its key (kind byte, then value bytes) lies
/// in the tag table's arena.
#[derive(Clone, Copy)]
struct TagEntry {
    key: ArenaSpan,
    local_id: LocalId,
    global_id: GlobalId,
    /// The singleton node `{tag}`; 0 (the root) until first asked for.
    node: u32,
}

const _: () = assert!(std::mem::size_of::<TagEntry>() == 28);

/// One interned set: its parent's set plus a run of tags, sorted and each
/// larger than every tag of the parent's set. 12 bytes in its `OnceLock`
/// slot. A run of one tag is that tag's id; a longer run is
/// [`RUN_FLAG`] `|` the offset of its length word in the run arena,
/// which its tags follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    parent: u32,
    run: u32,
}

const _: () = assert!(std::mem::size_of::<OnceLock<Node>>() == 12);

/// Marks a run kept in the arena; a tag id never has this bit.
const RUN_FLAG: u32 = 1 << 31;

/// Number of lock stripes for the interning maps. Power of two.
const SHARDS: usize = 16;

/// Size of the first chunk; chunk `k` holds `CHUNK_BASE << k` slots.
const CHUNK_BASE: usize = 1024;

/// Chunks in a spine. `CHUNK_BASE * (2^CHUNKS - 1)` slots exceed the
/// `u32` index space, so a spine can never run out first.
const CHUNKS: usize = 23;

/// Maps an index to its chunk and its offset in that chunk.
fn locate(index: usize) -> (usize, usize) {
    let bucket = (index / CHUNK_BASE + 1).ilog2() as usize;
    (bucket, index - chunk_start(bucket))
}

/// The index of chunk `bucket`'s first slot.
fn chunk_start(bucket: usize) -> usize {
    CHUNK_BASE * ((1usize << bucket) - 1)
}

/// Append-only slots with lock-free reads: geometrically growing chunks
/// under a fixed spine. A chunk is allocated on its first write and
/// never moves, so a reader dereferences straight into it.
struct Chunks<T> {
    spine: [OnceLock<Box<[T]>>; CHUNKS],
}

impl<T: Default> Chunks<T> {
    fn new() -> Self {
        Chunks {
            spine: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Chunk `bucket`, allocated if it is not yet.
    fn chunk(&self, bucket: usize) -> &[T] {
        self.spine[bucket].get_or_init(|| (0..CHUNK_BASE << bucket).map(|_| T::default()).collect())
    }

    /// The slot at `index`, if its chunk exists.
    fn get(&self, index: usize) -> Option<&T> {
        let (bucket, off) = locate(index);
        self.spine[bucket].get().map(|chunk| &chunk[off])
    }
}

/// A node's run of tags, read in place.
enum Run<'a> {
    One(TagId),
    Many(&'a [AtomicU32]),
}

impl Run<'_> {
    fn len(&self) -> usize {
        match self {
            Run::One(_) => 1,
            Run::Many(tags) => tags.len(),
        }
    }

    fn get(&self, i: usize) -> TagId {
        match self {
            Run::One(tag) => *tag,
            Run::Many(tags) => TagId(tags[i].load(Ordering::Relaxed)),
        }
    }
}

/// Append-only node storage with lock-free reads.
///
/// A node's slot is a `OnceLock` written exactly once, and a run of two
/// or more tags is copied into the run arena, an append-only array of
/// `AtomicU32` words, before its node is: both are written before the
/// node's index is published through an interning map, and neither ever
/// moves, so readers dereference straight into the chunks with no lock.
/// Only appends — every interned set is made once — serialize on the
/// `append` mutex, which guards the arena's length.
struct NodeTable {
    nodes: Chunks<OnceLock<Node>>,
    runs: Chunks<AtomicU32>,
    len: AtomicU32,
    append: Mutex<usize>,
}

impl NodeTable {
    fn new() -> Self {
        let table = NodeTable {
            nodes: Chunks::new(),
            runs: Chunks::new(),
            len: AtomicU32::new(0),
            append: Mutex::new(0),
        };
        // Index 0 is the root; its fields are unused.
        table.push(0, &[TagId(0)]);
        table
    }

    /// Reads a published node. Lock-free.
    fn get(&self, index: u32) -> Node {
        *self
            .nodes
            .get(index as usize)
            .and_then(OnceLock::get)
            .expect("taint handle not minted by this tree")
    }

    /// The run of a published node. Lock-free: the run was written
    /// before the node's slot was set, and the node was read from its
    /// slot, so relaxed loads of the run's words see it whole.
    fn run(&self, node: Node) -> Run<'_> {
        if node.run & RUN_FLAG == 0 {
            return Run::One(TagId(node.run));
        }
        let at = (node.run & !RUN_FLAG) as usize;
        let (bucket, off) = locate(at);
        let chunk = self.runs.spine[bucket]
            .get()
            .expect("run not written by this tree");
        let len = chunk[off].load(Ordering::Relaxed) as usize;
        Run::Many(&chunk[off + 1..off + 1 + len])
    }

    /// Appends the node `parent`'s set plus `run`, returning its index.
    fn push(&self, parent: u32, run: &[TagId]) -> u32 {
        let mut used = self.append.lock();
        let run = match run {
            [tag] => tag.0,
            _ => RUN_FLAG | self.push_run(&mut used, run),
        };
        let index = self.len.load(Ordering::Relaxed);
        let (bucket, off) = locate(index as usize);
        self.nodes.chunk(bucket)[off]
            .set(Node { parent, run })
            .expect("node slot written twice");
        // Publish the new length only after the slot is initialized.
        self.len.store(index + 1, Ordering::Release);
        index
    }

    /// Copies `run` into the arena after its length word, at the first
    /// offset from `*used` on whose chunk it fits whole, and returns
    /// that offset. Runs never span chunks; a chunk skipped whole is
    /// never allocated.
    fn push_run(&self, used: &mut usize, run: &[TagId]) -> u32 {
        let words = run.len() + 1;
        let mut at = *used;
        let (bucket, off) = loop {
            let (bucket, off) = locate(at);
            if off + words <= CHUNK_BASE << bucket {
                break (bucket, off);
            }
            at = chunk_start(bucket + 1);
        };
        assert!(at + words <= RUN_FLAG as usize, "run arena full");
        let chunk = &self.runs.chunk(bucket)[off..off + words];
        chunk[0].store(run.len() as u32, Ordering::Relaxed);
        for (slot, tag) in chunk[1..].iter().zip(run) {
            slot.store(tag.0, Ordering::Relaxed);
        }
        *used = at + words;
        at as u32
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }
}

/// Tag entries in one chunk of the tag table.
const TAG_CHUNK: usize = 1024;

/// Tag table plus its interning index, guarded by one read-mostly lock
/// (tags are minted orders of magnitude less often than taints combine).
/// Each `(value, local_id)` is stored once: the value's bytes in
/// `arena`, the rest in a fixed-width entry in `chunks`; `index` holds
/// only tag ids, keyed by the entry each names.
#[derive(Default)]
struct TagTable {
    /// [`TAG_CHUNK`] entries a chunk, so the table grows without copying
    /// and never holds more than one chunk unused.
    chunks: Vec<Vec<TagEntry>>,
    len: usize,
    arena: ByteArena,
    index: IdIndex,
}

impl TagTable {
    fn entry(&self, tag: TagId) -> &TagEntry {
        let (chunk, at) = (tag.index() / TAG_CHUNK, tag.index() % TAG_CHUNK);
        match self.chunks.get(chunk).and_then(|c| c.get(at)) {
            Some(entry) => entry,
            None => panic!("tag {tag} not minted by this tree"),
        }
    }

    fn entry_mut(&mut self, tag: TagId) -> &mut TagEntry {
        let (chunk, at) = (tag.index() / TAG_CHUNK, tag.index() % TAG_CHUNK);
        match self.chunks.get_mut(chunk).and_then(|c| c.get_mut(at)) {
            Some(entry) => entry,
            None => panic!("tag {tag} not minted by this tree"),
        }
    }

    fn value(&self, entry: &TagEntry) -> RawValue<'_> {
        let key = self.arena.get(entry.key);
        RawValue::new(key[0], &key[1..])
    }

    fn push(&mut self, entry: TagEntry) -> TagId {
        // A node's run tells a tag id from an arena offset by one bit.
        assert!(self.len < RUN_FLAG as usize, "tag table full");
        if self.len.is_multiple_of(TAG_CHUNK) {
            self.chunks.push(Vec::with_capacity(TAG_CHUNK));
        }
        self.chunks[self.len / TAG_CHUNK].push(entry);
        self.len += 1;
        TagId(self.len as u32 - 1)
    }
}

/// Multiply-rotate hasher for the tree's small fixed-width keys
/// (node indices and tag ids). The keys are internal handles, never
/// attacker-controlled, so DoS-resistant hashing would be pure waste —
/// on the union memo-hit fast path the hash is a large share of the
/// total cost.
#[derive(Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;
type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashMap` for keys that are this program's own fixed-width handles
/// ([`Taint`], [`TagId`], [`GlobalId`]): hashed with the tree's
/// multiply-rotate hasher instead of SipHash. Not for keys an outside
/// party chooses freely — there is no collision resistance.
pub type IdMap<K, V> = FxMap<K, V>;

/// A key's multiply-rotate hash.
fn fx_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    FxBuildHasher::default().hash_one(key)
}

/// Shard selection takes the *top* bits of a key's hash — a stripe's
/// buckets are chosen from the low bits, so keys that land in the same
/// shard still spread across its buckets.
fn shard_of(hash: u64) -> usize {
    (hash >> (64 - SHARDS.trailing_zeros())) as usize
}

/// A per-VM singleton taint tree (lock-striped).
///
/// All operations take `&self`; the tree is internally synchronized so a
/// single instance can be shared by all threads of a simulated JVM.
/// Reads of interned structure (path walks, depths) are lock-free;
/// interning writes stripe across a fixed set of locks.
///
/// # Example
///
/// ```rust
/// use dista_taint::{TaintTree, TagValue, LocalId, Taint};
///
/// let tree = TaintTree::new();
/// let a = tree.mint_tag(TagValue::str("a"), LocalId::default());
/// let b = tree.mint_tag(TagValue::str("b"), LocalId::default());
/// let ta = tree.taint_of_tag(a);
/// let tb = tree.taint_of_tag(b);
/// let tc = tree.union(ta, tb);
/// assert_eq!(tree.tag_ids(tc), vec![a, b]);
/// assert_eq!(tree.union(tc, ta), tc); // idempotent
/// ```
pub struct TaintTree {
    nodes: NodeTable,
    /// Every interned set of two or more tags, by node id, keyed by the
    /// set's sorted tag list and striped by that key's hash. A set of
    /// one tag is not here: see [`TaintTree::singleton`].
    sets: Vec<RwLock<IdIndex>>,
    /// Memoized unions keyed by (smaller node, larger node), striped.
    union_memo: Vec<RwLock<FxMap<(u32, u32), u32>>>,
    tags: RwLock<TagTable>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

/// Counters describing one [`TaintTree`], for the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeStats {
    /// Distinct interned tag sets, including the root.
    pub nodes: usize,
    /// Distinct tags minted.
    pub tags: usize,
    /// Union calls answered from the memo.
    pub memo_hits: u64,
    /// Union calls that had to merge and intern.
    pub memo_misses: u64,
}

/// An operand of a union: its node, its tag count and its largest tag.
struct Operand {
    node: u32,
    count: usize,
    max: TagId,
}

impl TaintTree {
    /// Creates an empty tree containing only the root (empty taint).
    pub fn new() -> Self {
        TaintTree {
            nodes: NodeTable::new(),
            sets: (0..SHARDS)
                .map(|_| RwLock::new(IdIndex::default()))
                .collect(),
            union_memo: (0..SHARDS).map(|_| RwLock::new(FxMap::default())).collect(),
            tags: RwLock::new(TagTable::default()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }

    /// Interns a tag, returning its id. Minting the same `(value,
    /// local_id)` twice yields the same id.
    pub fn mint_tag(&self, value: TagValue, local_id: LocalId) -> TagId {
        value.with_raw(|value| self.mint_raw(value, local_id))
    }

    /// [`TaintTree::mint_tag`] for a value given as the bytes a
    /// serialized taint carries.
    pub(crate) fn mint_raw(&self, value: RawValue<'_>, local_id: LocalId) -> TagId {
        let mut tags = self.tags.write();
        let tags = &mut *tags;
        let hash = tags.index.hash(&(value.kind, value.bytes, local_id));
        let known = tags.index.find(hash, |id| {
            let entry = tags.entry(TagId(id));
            entry.local_id == local_id && tags.value(entry) == value
        });
        if let Some(id) = known {
            return TagId(id);
        }
        let key = tags.arena.push(&[&[value.kind], value.bytes]);
        let id = tags.push(TagEntry {
            key,
            local_id,
            global_id: GlobalId::UNTAINTED,
            node: 0,
        });
        tags.index.insert(hash, id.0);
        id
    }

    /// The singleton taint `{tag}` (a direct child of the root).
    ///
    /// # Panics
    ///
    /// Panics if `tag` was not minted by this tree.
    pub fn taint_of_tag(&self, tag: TagId) -> Taint {
        Taint(self.singleton(tag))
    }

    /// The node `{tag}`, kept in the tag's entry: read under the tags
    /// read lock, made once under its write lock.
    fn singleton(&self, tag: TagId) -> u32 {
        let node = self.tags.read().entry(tag).node;
        if node != 0 {
            return node;
        }
        let mut tags = self.tags.write();
        let entry = tags.entry_mut(tag);
        if entry.node == 0 {
            entry.node = self.nodes.push(0, &[tag]);
        }
        entry.node
    }

    /// Interns the set `sorted` (ascending, no duplicates) whole and
    /// returns its node. `prefix` is a node and its tag count whose tags
    /// are that many first of `sorted`: a new node is its child and
    /// keeps only the tags after them. Without one the parent is the
    /// first tag's singleton if it was made, else the root, so no set is
    /// made that nobody asked for.
    fn intern_set(&self, sorted: &[TagId], prefix: Option<(u32, usize)>) -> u32 {
        match sorted {
            [] => return 0,
            [tag] => return self.singleton(*tag),
            _ => {}
        }
        let hash = fx_hash(sorted);
        let shard = &self.sets[shard_of(hash)];
        let is_set = |id| self.holds(id, sorted);
        if let Some(node) = shard.read().find(hash, is_set) {
            return node;
        }
        // Read before the stripe is taken: the tags lock comes first.
        let (parent, skip) =
            prefix.unwrap_or_else(|| match self.tags.read().entry(sorted[0]).node {
                0 => (0, 0),
                single => (single, 1),
            });
        let mut shard = shard.write();
        if let Some(node) = shard.find(hash, is_set) {
            return node;
        }
        // The node and its run are fully written by `push` before the
        // index is published through the stripe below, so lock-free
        // readers can never observe a half-made node.
        let node = self.nodes.push(parent, &sorted[skip..]);
        shard.insert(hash, node);
        node
    }

    /// Interns `sorted`, the union of `operands`: an operand that holds
    /// it all is the answer, and the largest one that is a prefix of it
    /// is the new node's parent. An operand of `count` tags is a prefix
    /// exactly when its largest tag is the union's `count`-th.
    fn intern_union(&self, sorted: &[TagId], operands: &[Operand]) -> u32 {
        if let Some(whole) = operands.iter().find(|o| o.count == sorted.len()) {
            return whole.node;
        }
        let prefix = operands
            .iter()
            .filter(|o| sorted[o.count - 1] == o.max)
            .max_by_key(|o| o.count)
            .map(|o| (o.node, o.count));
        self.intern_set(sorted, prefix)
    }

    /// Whether `node`'s set is `sorted`: its runs, read from the last,
    /// are the matching slices of `sorted`. Lock-free.
    fn holds(&self, node: u32, sorted: &[TagId]) -> bool {
        let (mut cur, mut end) = (node, sorted.len());
        while cur != 0 {
            let n = self.nodes.get(cur);
            let run = self.nodes.run(n);
            let Some(start) = end.checked_sub(run.len()) else {
                return false;
            };
            if !(0..run.len()).all(|i| run.get(i) == sorted[start + i]) {
                return false;
            }
            (cur, end) = (n.parent, start);
        }
        end == 0
    }

    /// Appends the tag ids of `node`'s set, descending: its runs from the
    /// last, each read backwards. Lock-free.
    fn push_path(&self, node: u32, out: &mut Vec<TagId>) {
        let mut cur = node;
        while cur != 0 {
            let n = self.nodes.get(cur);
            let run = self.nodes.run(n);
            out.extend((0..run.len()).rev().map(|i| run.get(i)));
            cur = n.parent;
        }
    }

    /// The tag ids of `node`'s set, ascending. Lock-free.
    fn path(&self, node: u32) -> Vec<TagId> {
        let mut out = Vec::new();
        self.push_path(node, &mut out);
        out.reverse();
        out
    }

    /// `node` as a union operand, given its tags ascending.
    fn operand(node: u32, tags: &[TagId]) -> Operand {
        Operand {
            node,
            count: tags.len(),
            max: tags[tags.len() - 1],
        }
    }

    /// Unions the tag sets of two taints (paper: `c_t = a_t ∪ b_t`).
    ///
    /// The result is interned: calling `union` with the same operands (in
    /// either order) always returns the same handle, and
    /// `union(x, EMPTY) == x`.
    pub fn union(&self, a: Taint, b: Taint) -> Taint {
        if a == b || b.is_empty() {
            return a;
        }
        if a.is_empty() {
            return b;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        let shard = &self.union_memo[shard_of(fx_hash(&key))];
        if let Some(&n) = shard.read().get(&key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Taint(n);
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the memo lock: interning is idempotent, so a
        // concurrent duplicate lands on the same node, and no memo shard
        // is ever held while a set stripe is taken (no ordering).
        let (pa, pb) = (self.path(a.0), self.path(b.0));
        let merged = merge_sorted(&pa, &pb);
        let operands = [Self::operand(a.0, &pa), Self::operand(b.0, &pb)];
        let node = self.intern_union(&merged, &operands);
        shard.write().insert(key, node);
        Taint(node)
    }

    /// Unions an arbitrary collection of taints.
    ///
    /// Up to two distinct non-empty operands go through the memoized
    /// pair [`TaintTree::union`]. From the third on, folding pair unions
    /// would intern every intermediate set (and memoize every pair) on
    /// the way to a result nobody asked for them by; instead the
    /// operands' tag ids are gathered, sorted, deduplicated and interned
    /// as one set — the node the fold arrives at.
    pub fn union_all<I: IntoIterator<Item = Taint>>(&self, taints: I) -> Taint {
        let mut rest = taints.into_iter().filter(|t| !t.is_empty());
        let Some(a) = rest.next() else {
            return Taint::EMPTY;
        };
        let Some(b) = rest.find(|&t| t != a) else {
            return a;
        };
        let Some(c) = rest.find(|&t| t != a && t != b) else {
            return self.union(a, b);
        };
        let mut operands: Vec<Operand> = Vec::new();
        let mut tags = Vec::new();
        for t in [a, b, c].into_iter().chain(rest) {
            if operands.iter().any(|o| o.node == t.0) {
                continue;
            }
            // Descending, so an operand's first tag is its largest.
            let start = tags.len();
            self.push_path(t.0, &mut tags);
            operands.push(Operand {
                node: t.0,
                count: tags.len() - start,
                max: tags[start],
            });
        }
        tags.sort_unstable();
        tags.dedup();
        Taint(self.intern_union(&tags, &operands))
    }

    /// The taint whose set is `tags` (any order, duplicates allowed),
    /// interned whole.
    pub(crate) fn taint_of_tags(&self, mut tags: Vec<TagId>) -> Taint {
        tags.sort_unstable();
        tags.dedup();
        Taint(self.intern_union(&tags, &[]))
    }

    /// The sorted tag ids of a taint. Lock-free.
    pub fn tag_ids(&self, taint: Taint) -> Vec<TagId> {
        self.path(taint.0)
    }

    /// Number of tags in a taint: the lengths of its runs, a walk to the
    /// root. Lock-free.
    pub fn tag_count(&self, taint: Taint) -> usize {
        let (mut cur, mut count) = (taint.0, 0);
        while cur != 0 {
            let n = self.nodes.get(cur);
            count += self.nodes.run(n).len();
            cur = n.parent;
        }
        count
    }

    /// Full quad for one tag.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was not minted by this tree.
    pub fn tag(&self, tag: TagId) -> TaintTag {
        let tags = self.tags.read();
        let entry = tags.entry(tag);
        TaintTag {
            id: tag.0,
            value: tags.value(entry).to_value(),
            local_id: entry.local_id,
            global_id: entry.global_id,
        }
    }

    /// Full quads for every tag of a taint, sorted by tag id.
    pub fn tags_of(&self, taint: Taint) -> Vec<TaintTag> {
        let mut out = Vec::with_capacity(self.tag_count(taint));
        self.for_each_tag(taint, |id, value, local_id, global_id| {
            out.push(TaintTag {
                id: id.0,
                value: value.to_value(),
                local_id,
                global_id,
            });
        });
        out
    }

    /// Calls `f` with each tag of `taint` in id order — its id, its value
    /// as the table keeps it, its origin and its global id — under one
    /// read of the tags lock, which `f` must not take.
    pub(crate) fn for_each_tag(
        &self,
        taint: Taint,
        mut f: impl FnMut(TagId, RawValue<'_>, LocalId, GlobalId),
    ) {
        let ids = self.tag_ids(taint);
        let tags = self.tags.read();
        for id in ids {
            let entry = tags.entry(id);
            f(id, tags.value(entry), entry.local_id, entry.global_id);
        }
    }

    /// [`TaintTree::for_each_tag`] in an order every VM agrees on: by
    /// value, then origin. Tag ids are not: each VM assigns them in the
    /// order it learned its tags.
    pub(crate) fn for_each_tag_by_value(
        &self,
        taint: Taint,
        mut f: impl FnMut(TagId, RawValue<'_>, LocalId, GlobalId),
    ) {
        let mut ids = self.tag_ids(taint);
        let tags = self.tags.read();
        let key = |id: &TagId| {
            let entry = tags.entry(*id);
            (tags.value(entry), entry.local_id)
        };
        ids.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        for id in ids {
            let entry = tags.entry(id);
            f(id, tags.value(entry), entry.local_id, entry.global_id);
        }
    }

    /// Records the Taint-Map-assigned global id on a tag quad. The first
    /// writer wins, as in the map: a tag that has a global id keeps it.
    pub fn set_tag_global_id(&self, tag: TagId, gid: GlobalId) {
        let mut tags = self.tags.write();
        let entry = tags.entry_mut(tag);
        if !entry.global_id.is_tainted() {
            entry.global_id = gid;
        }
    }

    /// Number of distinct tags minted so far.
    pub fn num_tags(&self) -> usize {
        self.tags.read().len
    }

    /// Number of tree nodes (distinct interned tag sets, including root).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Point-in-time counters for the observability layer.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            nodes: self.num_nodes(),
            tags: self.num_tags(),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for TaintTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaintTree")
            .field("nodes", &self.num_nodes())
            .field("tags", &self.num_tags())
            .finish()
    }
}

impl Default for TaintTree {
    fn default() -> Self {
        Self::new()
    }
}

fn merge_sorted(a: &[TagId], b: &[TagId]) -> Vec<TagId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_memo_hits_and_misses() {
        let (tree, ta, tb) = tree_ab();
        let before = tree.stats();
        assert_eq!(before.memo_hits, 0);
        assert_eq!(before.memo_misses, 0);
        tree.union(ta, tb); // miss: computed and memoized
        tree.union(tb, ta); // hit: same key either order
        let after = tree.stats();
        assert_eq!(after.memo_misses, 1);
        assert_eq!(after.memo_hits, 1);
        assert_eq!(after.tags, 2);
        assert!(after.nodes >= 3, "root + a + b at least");
    }

    fn tree_ab() -> (TaintTree, Taint, Taint) {
        let tree = TaintTree::new();
        let a = tree.mint_tag(TagValue::str("a"), LocalId::default());
        let b = tree.mint_tag(TagValue::str("b"), LocalId::default());
        let ta = tree.taint_of_tag(a);
        let tb = tree.taint_of_tag(b);
        (tree, ta, tb)
    }

    #[test]
    fn empty_taint_has_no_tags() {
        let tree = TaintTree::new();
        assert!(Taint::EMPTY.is_empty());
        assert!(tree.tag_ids(Taint::EMPTY).is_empty());
        assert_eq!(tree.tag_count(Taint::EMPTY), 0);
    }

    #[test]
    fn union_matches_paper_example() {
        // Fig. 2/3: c = a + b  =>  c_t = {a_tag, b_tag}
        let (tree, ta, tb) = tree_ab();
        let tc = tree.union(ta, tb);
        let values: Vec<String> = tree
            .tags_of(tc)
            .into_iter()
            .map(|t| t.value.render())
            .collect();
        assert_eq!(values, vec!["a", "b"]);
    }

    #[test]
    fn union_is_interned() {
        let (tree, ta, tb) = tree_ab();
        let c1 = tree.union(ta, tb);
        let c2 = tree.union(tb, ta);
        assert_eq!(c1, c2, "union must be order-insensitive and interned");
        let nodes_before = tree.num_nodes();
        let _ = tree.union(ta, tb);
        assert_eq!(tree.num_nodes(), nodes_before, "no new nodes on repeat");
    }

    #[test]
    fn union_with_empty_is_identity() {
        let (tree, ta, _) = tree_ab();
        assert_eq!(tree.union(ta, Taint::EMPTY), ta);
        assert_eq!(tree.union(Taint::EMPTY, ta), ta);
        assert_eq!(tree.union(Taint::EMPTY, Taint::EMPTY), Taint::EMPTY);
    }

    #[test]
    fn union_is_idempotent() {
        let (tree, ta, tb) = tree_ab();
        let tc = tree.union(ta, tb);
        assert_eq!(tree.union(tc, ta), tc);
        assert_eq!(tree.union(tc, tc), tc);
    }

    #[test]
    fn mint_same_tag_twice_is_interned() {
        let tree = TaintTree::new();
        let t1 = tree.mint_tag(TagValue::str("x"), LocalId::default());
        let t2 = tree.mint_tag(TagValue::str("x"), LocalId::default());
        assert_eq!(t1, t2);
        assert_eq!(tree.num_tags(), 1);
    }

    #[test]
    fn same_value_different_local_id_is_distinct() {
        // The paper's tag-conflict scenario: same value, two nodes.
        let tree = TaintTree::new();
        let n1 = LocalId::new([10, 0, 0, 1], 1);
        let n2 = LocalId::new([10, 0, 0, 2], 1);
        let t1 = tree.mint_tag(TagValue::str("a_tag"), n1);
        let t2 = tree.mint_tag(TagValue::str("a_tag"), n2);
        assert_ne!(t1, t2);
        let u = tree.union(tree.taint_of_tag(t1), tree.taint_of_tag(t2));
        assert_eq!(tree.tag_count(u), 2);
    }

    #[test]
    fn minting_is_idempotent_across_every_index_growth() {
        let tree = TaintTree::new();
        let origin = LocalId::new([10, 0, 0, 9], 9);
        let mint = |i: u32| tree.mint_tag(TagValue::Int(i.into()), origin);
        for i in 0..5_000u32 {
            assert_eq!(mint(i), TagId(i), "ids are dense, in minting order");
            // The index grows by a quarter dozens of times on the way:
            // every tag is minted again after each stretch of 64, so a
            // tag a growth lost shows as a new id.
            if i % 64 == 63 || i == 4_999 {
                for j in 0..=i {
                    assert_eq!(mint(j), TagId(j), "tag {j} re-minted after {i}");
                }
            }
        }
        assert_eq!(tree.num_tags(), 5_000);
    }

    #[test]
    fn tags_differing_in_kind_or_origin_are_distinct() {
        let tree = TaintTree::new();
        let local = LocalId::new([10, 0, 0, 1], 1);
        let foreign = LocalId::new([10, 0, 0, 2], 1);
        let values = [TagValue::str("1"), TagValue::bytes(b"1"), TagValue::Int(1)];
        let mut ids = Vec::new();
        for origin in [local, foreign] {
            for value in &values {
                ids.push(tree.mint_tag(value.clone(), origin));
            }
        }
        assert_eq!(ids, (0..6).map(TagId).collect::<Vec<_>>());
        // Each is found again as itself.
        for (k, origin) in [local, foreign].into_iter().enumerate() {
            for (v, value) in values.iter().enumerate() {
                let id = tree.mint_tag(value.clone(), origin);
                assert_eq!(id, ids[3 * k + v]);
                assert_eq!(tree.tag(id).value, *value);
                assert_eq!(tree.tag(id).local_id, origin);
            }
        }
        assert_eq!(tree.num_tags(), 6);
    }

    #[test]
    fn four_threads_minting_100k_tags_get_100k_dense_ids() {
        const THREADS: u32 = 4;
        const TOTAL: u32 = 100_000;
        let tree = TaintTree::new();
        let go = std::sync::Barrier::new(THREADS as usize);
        // Thread k mints the tags ≡ k (mod 4) and, to collide with its
        // neighbour, every tag ≡ k + 1 as well: each tag is minted by
        // two threads and must come out as one id.
        let minted: Vec<Vec<(u32, TagId)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|k| {
                    let (tree, go) = (&tree, &go);
                    s.spawn(move || {
                        go.wait();
                        (0..TOTAL)
                            .filter(|i| i % THREADS == k || i % THREADS == (k + 1) % THREADS)
                            .map(|i| {
                                let value = TagValue::str(format!("t{i}"));
                                (i, tree.mint_tag(value, LocalId::default()))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("minting thread panicked"))
                .collect()
        });
        assert_eq!(tree.num_tags(), TOTAL as usize);
        let mut id_of = vec![None; TOTAL as usize];
        for (i, id) in minted.into_iter().flatten() {
            assert_eq!(
                *id_of[i as usize].get_or_insert(id),
                id,
                "tag t{i} has two ids"
            );
            assert_eq!(tree.tag(id).value, TagValue::str(format!("t{i}")));
        }
        let mut ids: Vec<u32> = id_of.into_iter().map(|id| id.expect("minted").0).collect();
        ids.sort_unstable();
        assert!(
            ids.iter().copied().eq(0..TOTAL),
            "ids are 0..100 000, each once"
        );
    }

    #[test]
    fn union_all_folds() {
        let tree = TaintTree::new();
        let taints: Vec<Taint> = (0..5)
            .map(|i| {
                let tag = tree.mint_tag(TagValue::Int(i), LocalId::default());
                tree.taint_of_tag(tag)
            })
            .collect();
        let u = tree.union_all(taints.iter().copied());
        assert_eq!(tree.tag_count(u), 5);
    }

    #[test]
    fn union_is_associative() {
        let tree = TaintTree::new();
        let ts: Vec<Taint> = ["x", "y", "z"]
            .iter()
            .map(|v| {
                let tag = tree.mint_tag(TagValue::str(*v), LocalId::default());
                tree.taint_of_tag(tag)
            })
            .collect();
        let left = tree.union(tree.union(ts[0], ts[1]), ts[2]);
        let right = tree.union(ts[0], tree.union(ts[1], ts[2]));
        assert_eq!(left, right);
    }

    #[test]
    fn set_global_id_visible_in_quad() {
        let tree = TaintTree::new();
        let tag = tree.mint_tag(TagValue::str("g"), LocalId::default());
        assert_eq!(tree.tag(tag).global_id, GlobalId::UNTAINTED);
        tree.set_tag_global_id(tag, GlobalId(42));
        assert_eq!(tree.tag(tag).global_id, GlobalId(42));
        // First writer wins, as in the Taint Map.
        tree.set_tag_global_id(tag, GlobalId(43));
        assert_eq!(tree.tag(tag).global_id, GlobalId(42));
    }

    #[test]
    fn paths_share_prefixes() {
        // {a}, {a,b} and {a,b,c} should reuse nodes: root + 3 nodes total.
        let tree = TaintTree::new();
        let a = tree.mint_tag(TagValue::str("a"), LocalId::default());
        let b = tree.mint_tag(TagValue::str("b"), LocalId::default());
        let c = tree.mint_tag(TagValue::str("c"), LocalId::default());
        let ta = tree.taint_of_tag(a);
        let tab = tree.union(ta, tree.taint_of_tag(b));
        let tabc = tree.union(tab, tree.taint_of_tag(c));
        assert_eq!(tree.tag_count(tabc), 3);
        assert_eq!(tree.num_nodes(), 1 + 3 + 2); // root, a, ab, abc, b, c
    }

    /// A tree with `n` tags minted, `0..n` as `Int` values, and their
    /// singletons.
    fn tree_of(n: usize) -> (TaintTree, Vec<Taint>) {
        let tree = TaintTree::new();
        let singles = (0..n as i64)
            .map(|i| tree.taint_of_tag(tree.mint_tag(TagValue::Int(i), LocalId::default())))
            .collect();
        (tree, singles)
    }

    #[test]
    fn a_new_set_costs_one_node_whatever_its_size() {
        let (tree, t) = tree_of(8);
        let before = tree.num_nodes();
        // A sink union of singletons: one node under the smallest.
        let set = tree.union_all([t[6], t[1], t[3], t[7]]);
        assert_eq!(tree.num_nodes(), before + 1);
        let node = tree.nodes.get(set.0);
        assert_eq!(node.parent, t[1].0);
        assert_eq!(tree.tag_count(set), 4);
        // Adding a larger tag keeps the operand as parent and one tag
        // inline.
        let more = tree.union(set, t[7]);
        assert_eq!(more, set, "a subset adds nothing");
        let wider = tree.union(t[5], tree.union(set, t[0]));
        assert_eq!(tree.num_nodes(), before + 3);
        assert_eq!(
            tree.tag_ids(wider),
            [0, 1, 3, 5, 6, 7].map(TagId).to_vec(),
            "no prefix operand: a run under the smallest tag's singleton"
        );
        // The same set asked for again, any way, is the same node.
        let again = tree.union_all([t[7], t[6], t[5], t[3], t[1], t[0]]);
        assert_eq!(again, wider);
        assert_eq!(
            tree.union(tree.union_all([t[0], t[1], t[3]]), set),
            tree.union(set, t[0])
        );
    }

    #[test]
    fn a_node_holds_only_its_own_tag_list() {
        // A probe compares every candidate whose hash bits match; a set
        // that is a prefix, a suffix or a superset of another must not
        // pass for it.
        let (tree, t) = tree_of(6);
        let set = tree.union_all([t[2], t[3], t[4]]);
        let ids = |xs: &[u32]| xs.iter().map(|&i| TagId(i)).collect::<Vec<_>>();
        assert!(tree.holds(set.0, &ids(&[2, 3, 4])));
        for other in [
            &[1, 2, 3, 4][..],
            &[3, 4],
            &[2, 3],
            &[2, 3, 4, 5],
            &[0, 3, 4],
        ] {
            assert!(!tree.holds(set.0, &ids(other)), "{other:?}");
        }
    }

    #[test]
    fn a_set_of_tags_with_no_singleton_hangs_from_the_root() {
        let tree = TaintTree::new();
        let tags: Vec<TagId> = (0..3)
            .map(|i| tree.mint_tag(TagValue::Int(i), LocalId::default()))
            .collect();
        let set = tree.taint_of_tags(vec![tags[2], tags[0], tags[1], tags[0]]);
        assert_eq!(tree.num_nodes(), 2, "the root and the set");
        assert_eq!(tree.nodes.get(set.0).parent, 0);
        assert_eq!(tree.tag_ids(set), tags);
        assert_eq!(tree.taint_of_tags(tags.clone()), set);
        assert_eq!(
            tree.taint_of_tags(vec![tags[1]]),
            tree.taint_of_tag(tags[1])
        );
    }

    #[test]
    fn runs_longer_than_a_chunk_or_its_rest_fit_whole() {
        // Runs of 3 000 and 700 tags: neither fits the first 1 024-word
        // chunk's rest once the other is in, so each starts a chunk.
        let (tree, t) = tree_of(4_000);
        let long = tree.union_all(t[..3_000].iter().copied());
        let short = tree.union_all(t[3_000..3_700].iter().copied());
        let mid = tree.union_all(t[1_000..1_300].iter().copied());
        for (set, range) in [(long, 0..3_000), (short, 3_000..3_700), (mid, 1_000..1_300)] {
            let want: Vec<TagId> = range.map(|i| TagId(i as u32)).collect();
            assert_eq!(tree.tag_ids(set), want);
            assert_eq!(tree.tag_count(set), want.len());
        }
        let all = tree.union(long, short);
        assert_eq!(tree.tag_count(all), 3_700);
        assert_eq!(tree.nodes.get(all.0).parent, long.0);
        assert_eq!(tree.union_all(t[..3_700].iter().rev().copied()), all);
    }

    #[test]
    fn node_table_spans_chunk_boundaries() {
        // Force the node table past its first chunk (CHUNK_BASE slots) and
        // verify paths still resolve — catches chunk index arithmetic.
        let tree = TaintTree::new();
        let mut acc = Taint::EMPTY;
        let total = CHUNK_BASE + CHUNK_BASE / 2;
        for i in 0..total {
            let tag = tree.mint_tag(TagValue::Int(i as i64), LocalId::default());
            acc = tree.union(acc, tree.taint_of_tag(tag));
        }
        assert_eq!(tree.tag_count(acc), total);
        assert!(tree.num_nodes() > CHUNK_BASE);
        let ids = tree.tag_ids(acc);
        assert_eq!(ids.len(), total);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "path stays sorted");
    }
}
