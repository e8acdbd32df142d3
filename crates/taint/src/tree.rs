//! The singleton taint tree (paper §II-B, Fig. 3).
//!
//! Phosphor stores every taint as a reference into one per-VM tree whose
//! nodes are `<ID, Tag>` pairs; the tag *set* of a taint is the set of
//! tags on the path from the root to the referenced node. Combining two
//! taints unions their tag sets and the union is interned so that equal
//! sets share a single node — "if two variables have the same taint tag,
//! their taints can refer to the same node in the tree, thus avoiding
//! storing the same tags repeatedly".
//!
//! # Concurrency design
//!
//! The tree is read-mostly: once a node exists it is immutable, and hot
//! paths (`tag_ids`, `tag_count`, `is_subset`) only walk parent links.
//! [`TaintTree`] therefore keeps its nodes in an append-only
//! [`NodeTable`] — chunked storage where published slots are never moved
//! or mutated, so walks take **no lock at all** — and stripes the two
//! interning maps (`children`, `union_memo`) across [`SHARDS`]
//! independent `RwLock`s so writers on unrelated keys don't contend.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, RwLock};

use crate::index::IdIndex;
use crate::tag::{GlobalId, LocalId, TagId, TagValue, TaintTag};

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

#[derive(Debug, Clone)]
struct TagEntry {
    value: TagValue,
    local_id: LocalId,
    global_id: GlobalId,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    parent: u32,
    tag: TagId,
    depth: u32,
}

/// Number of lock stripes for the interning maps. Power of two.
const SHARDS: usize = 16;

/// Size of the first node chunk; chunk `k` holds `NODE_BASE << k` slots.
const NODE_BASE: usize = 1024;

/// Chunks in the spine. `NODE_BASE * (2^NODE_CHUNKS - 1)` slots exceed
/// the `u32` node-index space, so the spine can never run out first.
const NODE_CHUNKS: usize = 23;

/// Append-only node storage with lock-free reads.
///
/// Nodes live in geometrically-growing chunks whose slots are
/// `OnceLock`s: a slot is written exactly once (before its index is
/// published through an interning map) and never moves, so readers
/// dereference straight into the chunk with no lock. Only appends —
/// which are rare, every interned set is allocated once — serialize on
/// the `append` mutex.
struct NodeTable {
    spine: [OnceLock<Box<[OnceLock<Node>]>>; NODE_CHUNKS],
    len: AtomicU32,
    append: Mutex<()>,
}

/// Maps a node index to its chunk, offset and chunk capacity.
fn locate(index: usize) -> (usize, usize) {
    let bucket = (index / NODE_BASE + 1).ilog2() as usize;
    let chunk_start = NODE_BASE * ((1usize << bucket) - 1);
    (bucket, index - chunk_start)
}

impl NodeTable {
    fn new() -> Self {
        let table = NodeTable {
            spine: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicU32::new(0),
            append: Mutex::new(()),
        };
        // Index 0 is the root; its fields are unused.
        table.push(Node {
            parent: 0,
            tag: TagId(u32::MAX),
            depth: 0,
        });
        table
    }

    fn chunk(&self, bucket: usize) -> &[OnceLock<Node>] {
        self.spine[bucket].get_or_init(|| {
            (0..(NODE_BASE << bucket))
                .map(|_| OnceLock::new())
                .collect()
        })
    }

    /// Reads a published node. Lock-free.
    fn get(&self, index: u32) -> Node {
        let (bucket, off) = locate(index as usize);
        *self.spine[bucket]
            .get()
            .and_then(|chunk| chunk[off].get())
            .expect("taint handle not minted by this tree")
    }

    /// Appends a node, returning its index.
    fn push(&self, node: Node) -> u32 {
        let _guard = self.append.lock();
        let index = self.len.load(Ordering::Relaxed);
        let (bucket, off) = locate(index as usize);
        self.chunk(bucket)[off]
            .set(node)
            .expect("node slot written twice");
        // Publish the new length only after the slot is initialized.
        self.len.store(index + 1, Ordering::Release);
        index
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }
}

/// Tag table plus its interning index, guarded by one read-mostly lock
/// (tags are minted orders of magnitude less often than taints combine).
/// Each `(value, local_id)` is stored once, in `entries`; `index` holds
/// only tag ids, keyed by the entry each names.
#[derive(Default)]
struct TagTable {
    entries: Vec<TagEntry>,
    index: IdIndex,
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

/// Shard selection reuses the map hash but takes the *top* bits — the
/// map's buckets are chosen from the low bits, so keys that land in the
/// same shard still spread across its buckets.
fn shard_of<K: Hash>(key: &K) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> (64 - SHARDS.trailing_zeros())) as usize
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
    /// Child lookup: (parent node, tag) -> child node, striped by key.
    children: Vec<RwLock<FxMap<(u32, TagId), u32>>>,
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

impl TaintTree {
    /// Creates an empty tree containing only the root (empty taint).
    pub fn new() -> Self {
        TaintTree {
            nodes: NodeTable::new(),
            children: (0..SHARDS).map(|_| RwLock::new(FxMap::default())).collect(),
            union_memo: (0..SHARDS).map(|_| RwLock::new(FxMap::default())).collect(),
            tags: RwLock::new(TagTable::default()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
        }
    }

    /// Interns a tag, returning its id. Minting the same `(value,
    /// local_id)` twice yields the same id.
    pub fn mint_tag(&self, value: TagValue, local_id: LocalId) -> TagId {
        let mut tags = self.tags.write();
        let hash = tags.index.hash(&(&value, local_id));
        let known = tags.index.find(hash, |id| {
            let entry = &tags.entries[id as usize];
            entry.value == value && entry.local_id == local_id
        });
        if let Some(id) = known {
            return TagId(id);
        }
        let id = tags.entries.len() as u32;
        tags.index.insert(hash, id);
        tags.entries.push(TagEntry {
            value,
            local_id,
            global_id: GlobalId::UNTAINTED,
        });
        TagId(id)
    }

    /// The singleton taint `{tag}` (a direct child of the root).
    ///
    /// # Panics
    ///
    /// Panics if `tag` was not minted by this tree.
    pub fn taint_of_tag(&self, tag: TagId) -> Taint {
        assert!(
            tag.index() < self.tags.read().entries.len(),
            "tag {tag} not minted by this tree"
        );
        Taint(self.intern_path(&[tag]))
    }

    /// Looks up or creates the child of `parent` along `tag`.
    fn intern_child(&self, parent: u32, tag: TagId) -> u32 {
        let key = (parent, tag);
        let shard = &self.children[shard_of(&key)];
        if let Some(&child) = shard.read().get(&key) {
            return child;
        }
        let mut shard = shard.write();
        if let Some(&child) = shard.get(&key) {
            return child;
        }
        let depth = self.nodes.get(parent).depth + 1;
        // The slot is fully written by `push` before the index is
        // published through the map below, so lock-free readers can
        // never observe a half-made node.
        let index = self.nodes.push(Node { parent, tag, depth });
        shard.insert(key, index);
        index
    }

    /// Interns the canonical (sorted, deduplicated) path, returning its node.
    fn intern_path(&self, path: &[TagId]) -> u32 {
        let mut cur = 0u32;
        for &tag in path {
            cur = self.intern_child(cur, tag);
        }
        cur
    }

    /// Appends the tag ids on the path from `node` up to the root
    /// (bottom-up, so descending). Lock-free.
    fn push_path(&self, node: u32, out: &mut Vec<TagId>) {
        let mut cur = node;
        while cur != 0 {
            let n = self.nodes.get(cur);
            out.push(n.tag);
            cur = n.parent;
        }
    }

    /// Path of tag ids from root to `node`, sorted ascending. Lock-free.
    ///
    /// The tree maintains the invariant that every interned path is sorted
    /// by `TagId`, so reading the path bottom-up and reversing yields the
    /// canonical sorted set.
    fn path(&self, node: u32) -> Vec<TagId> {
        let mut out = Vec::with_capacity(self.nodes.get(node).depth as usize);
        self.push_path(node, &mut out);
        out.reverse();
        out
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
        let shard = &self.union_memo[shard_of(&key)];
        if let Some(&n) = shard.read().get(&key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Taint(n);
        }
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the memo lock: interning is idempotent, so a
        // concurrent duplicate lands on the same node, and no memo shard
        // is ever held while children shards are taken (no ordering).
        let merged = merge_sorted(&self.path(a.0), &self.path(b.0));
        let node = self.intern_path(&merged);
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
    /// as one path — the same canonical node the fold arrives at.
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
        let mut operands = vec![a, b, c];
        for t in rest {
            if !operands.contains(&t) {
                operands.push(t);
            }
        }
        let mut tags = Vec::new();
        for t in operands {
            self.push_path(t.0, &mut tags);
        }
        tags.sort_unstable();
        tags.dedup();
        Taint(self.intern_path(&tags))
    }

    /// The sorted tag ids of a taint. Lock-free.
    pub fn tag_ids(&self, taint: Taint) -> Vec<TagId> {
        self.path(taint.0)
    }

    /// Number of tags in a taint (its depth in the tree). Lock-free.
    pub fn tag_count(&self, taint: Taint) -> usize {
        self.nodes.get(taint.0).depth as usize
    }

    /// Full quad for one tag.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was not minted by this tree.
    pub fn tag(&self, tag: TagId) -> TaintTag {
        let tags = self.tags.read();
        let entry = &tags.entries[tag.index()];
        TaintTag {
            id: tag.0,
            value: entry.value.clone(),
            local_id: entry.local_id,
            global_id: entry.global_id,
        }
    }

    /// Full quads for every tag of a taint, sorted by tag id.
    pub fn tags_of(&self, taint: Taint) -> Vec<TaintTag> {
        let ids = self.tag_ids(taint);
        ids.into_iter().map(|id| self.tag(id)).collect()
    }

    /// Records the Taint-Map-assigned global id on a tag quad.
    pub fn set_tag_global_id(&self, tag: TagId, gid: GlobalId) {
        let mut tags = self.tags.write();
        tags.entries[tag.index()].global_id = gid;
    }

    /// True if `taint` carries `tag`.
    pub fn has_tag(&self, taint: Taint, tag: TagId) -> bool {
        self.tag_ids(taint).contains(&tag)
    }

    /// True if the tag set of `needle` is a subset of `haystack`'s.
    pub fn is_subset(&self, needle: Taint, haystack: Taint) -> bool {
        let n = self.tag_ids(needle);
        let h = self.tag_ids(haystack);
        let mut hi = h.iter();
        'outer: for t in &n {
            for cand in hi.by_ref() {
                if cand == t {
                    continue 'outer;
                }
                if cand > t {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Number of distinct tags minted so far.
    pub fn num_tags(&self) -> usize {
        self.tags.read().entries.len()
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
            // The index doubles when it passes three quarters of a power
            // of two: minting tag 6, 12, 24, … is what grew it.
            if i % 3 == 0 && (i / 3).is_power_of_two() {
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
    fn has_tag_and_subset() {
        let (tree, ta, tb) = tree_ab();
        let tc = tree.union(ta, tb);
        let a_id = tree.tag_ids(ta)[0];
        assert!(tree.has_tag(tc, a_id));
        assert!(tree.is_subset(ta, tc));
        assert!(tree.is_subset(Taint::EMPTY, ta));
        assert!(!tree.is_subset(tc, ta));
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

    #[test]
    fn node_table_spans_chunk_boundaries() {
        // Force the node table past its first chunk (NODE_BASE slots) and
        // verify paths still resolve — catches chunk index arithmetic.
        let tree = TaintTree::new();
        let mut acc = Taint::EMPTY;
        let total = NODE_BASE + NODE_BASE / 2;
        for i in 0..total {
            let tag = tree.mint_tag(TagValue::Int(i as i64), LocalId::default());
            acc = tree.union(acc, tree.taint_of_tag(tag));
        }
        assert_eq!(tree.tag_count(acc), total);
        assert!(tree.num_nodes() > NODE_BASE);
        let ids = tree.tag_ids(acc);
        assert_eq!(ids.len(), total);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "path stays sorted");
    }
}
