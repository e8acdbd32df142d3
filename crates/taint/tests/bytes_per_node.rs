//! What one interned tag set costs to keep, as a count (DESIGN.md §4,
//! "Lock-striped tree"): the live heap bytes a [`TaintTree`] holds per
//! node it interns at a sink.
//!
//! A counting global allocator tracks the process's live bytes. A tree
//! is given a pool of 64 tags and their singleton taints; then 100 000
//! `union_all` calls of 8 seeded picks from the pool — the crossing
//! benchmark's `tainted_bulk` sink union — intern about four new path
//! nodes each, and the growth in live bytes is divided by the number of
//! nodes they added. The node table's chunks and the child index's
//! stripes are what grows. Sizes depend on counts and capacities only,
//! so the figure repeats from run to run and is the same in debug and
//! release.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dista_taint::{LocalId, TagValue, Taint, TaintTree};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is one relaxed
// atomic add and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed on as it is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const POOL: usize = 64;
const PICKS: usize = 8;
const UNIONS: usize = 100_000;

/// Live bytes per interned node (430 044 nodes): 26.3 here, with 12 B
/// node slots and a child index of node ids; 35.3 when a node also kept
/// its depth (16 B) and the child index was a hash map holding a second
/// copy of each node's `(parent, tag)`.
const NODE_BOUND: f64 = 30.0;

/// SplitMix64, as the benchmark draws its pool picks.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

#[test]
fn a_sink_union_node_costs_at_most_its_bound() {
    let tree = TaintTree::new();
    let pool: Vec<Taint> = (0..POOL as i64)
        .map(|i| tree.taint_of_tag(tree.mint_tag(TagValue::Int(i), LocalId::default())))
        .collect();
    let mut rng = Rng(1);
    // The test's own buffers, sized before the first reading.
    let mut picks = Vec::with_capacity(PICKS);
    let mut sinks = Vec::with_capacity(UNIONS);

    let nodes_before = tree.num_nodes();
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..UNIONS {
        picks.clear();
        picks.extend((0..PICKS).map(|_| pool[rng.below(POOL)]));
        sinks.push(tree.union_all(picks.iter().copied()));
    }
    let after = LIVE.load(Ordering::Relaxed);
    let nodes = tree.num_nodes() - nodes_before;

    // Every sink is the set of its picks.
    let mut rng = Rng(1);
    for sink in sinks.iter().take(1_000) {
        let mut want: Vec<usize> = (0..PICKS).map(|_| rng.below(POOL)).collect();
        want.sort_unstable();
        want.dedup();
        let got: Vec<usize> = tree.tag_ids(*sink).iter().map(|t| t.index()).collect();
        assert_eq!(got, want);
        assert_eq!(tree.tag_count(*sink), want.len());
    }
    let per_node = (after - before) as f64 / nodes as f64;
    println!(
        "{UNIONS} sink unions of {PICKS} picks from {POOL} tags: {nodes} nodes, \
         {per_node:.1} live bytes per node"
    );
    assert!(
        per_node <= NODE_BOUND,
        "a tree keeps {per_node:.1} B per node, bound {NODE_BOUND}"
    );
}
