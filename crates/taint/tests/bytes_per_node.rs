//! What one interned tag set costs to keep, as a count (DESIGN.md §4,
//! "Lock-striped tree"): the live heap bytes a [`TaintTree`] holds per
//! set it interns.
//!
//! A counting global allocator tracks the process's live bytes. A tree
//! is given a pool of 64 tags and their singleton taints; then 100 000
//! `union_all` calls of 8 seeded picks from the pool — the crossing
//! benchmark's `tainted_bulk` sink union — intern one new set each, and
//! the growth in live bytes is divided by the number of unions. The node
//! table's and the run arena's chunks and the set index's stripes are
//! what grows. Two more rows fold 1 000 singletons into one set a union
//! at a time, in ascending and in descending tag order. Sizes depend on
//! counts and capacities only, so the figures repeat from run to run and
//! are the same in debug and release.

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
const STEPS: usize = 1_000;

/// Live bytes per sink union: 69.8 here, one 12 B node and its run of
/// about seven 4 B tags a set; 113.2 when a node added one tag, so a set
/// also made each missing prefix (4.30 nodes of 26.3 B a union).
const UNION_BOUND: f64 = 75.0;
/// Live bytes per step of a 1 000-step ascending accumulation: 57.5 here
/// and when a node added one tag. Each step adds one larger tag to the
/// last set, so it costs one 12 B node with its tag inline, its set-index
/// slot (11.8 B) and its union-memo entry (21.6 B); the 1 000 nodes also
/// open the node table's 24 KiB second chunk.
const ASCENDING_BOUND: f64 = 60.0;

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

/// Runs `f` and returns its result with the live bytes it left behind.
fn grown<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE.load(Ordering::Relaxed) - before)
}

/// A tree with `n` tags minted and their singleton taints.
fn tree_of(n: usize) -> (TaintTree, Vec<Taint>) {
    let tree = TaintTree::new();
    let singles = (0..n as i64)
        .map(|i| tree.taint_of_tag(tree.mint_tag(TagValue::Int(i), LocalId::default())))
        .collect();
    (tree, singles)
}

/// Live bytes per sink union, checking every sink is its picks' set and
/// each new set made one node.
fn per_sink_union() -> f64 {
    let (tree, pool) = tree_of(POOL);
    let mut rng = Rng(1);
    // The test's own buffers, sized before the first reading.
    let mut picks = Vec::with_capacity(PICKS);
    let mut sinks = Vec::with_capacity(UNIONS);

    let nodes_before = tree.num_nodes();
    let ((), grew) = grown(|| {
        for _ in 0..UNIONS {
            picks.clear();
            picks.extend((0..PICKS).map(|_| pool[rng.below(POOL)]));
            sinks.push(tree.union_all(picks.iter().copied()));
        }
    });
    let nodes = tree.num_nodes() - nodes_before;

    let mut rng = Rng(1);
    for sink in sinks.iter().take(1_000) {
        let mut want: Vec<usize> = (0..PICKS).map(|_| rng.below(POOL)).collect();
        want.sort_unstable();
        want.dedup();
        let got: Vec<usize> = tree.tag_ids(*sink).iter().map(|t| t.index()).collect();
        assert_eq!(got, want);
        assert_eq!(tree.tag_count(*sink), want.len());
    }
    sinks.sort_unstable();
    sinks.dedup();
    let new_sets = sinks
        .iter()
        .filter(|t| t.node_index() >= nodes_before)
        .count();
    assert_eq!(nodes, new_sets, "one node per new set");
    println!("  {UNIONS} sink unions of {PICKS} picks from {POOL} tags: {nodes} nodes");
    grew as f64 / UNIONS as f64
}

/// Live bytes per step of folding `order`'s singletons into one set a
/// union at a time.
fn per_accumulation_step(order: impl Iterator<Item = usize>) -> f64 {
    let (tree, singles) = tree_of(STEPS);
    let (acc, grew) = grown(|| order.fold(Taint::EMPTY, |acc, i| tree.union(acc, singles[i])));
    assert_eq!(tree.tag_count(acc), STEPS);
    grew as f64 / STEPS as f64
}

/// One test, so that nothing else allocates while a row is measured.
#[test]
fn a_new_set_costs_at_most_its_bound() {
    println!("live bytes a tree keeps:");
    let union = per_sink_union();
    let ascending = per_accumulation_step(0..STEPS);
    let descending = per_accumulation_step((0..STEPS).rev());
    for (row, bytes) in [
        ("per sink union", union),
        ("per ascending accumulation step", ascending),
        ("per descending accumulation step", descending),
    ] {
        println!("  {row:<36} {bytes:>8.1}");
    }
    assert!(
        union <= UNION_BOUND,
        "a tree keeps {union:.1} B per sink union, bound {UNION_BOUND}"
    );
    assert!(
        ascending <= ASCENDING_BOUND,
        "an ascending step keeps {ascending:.1} B, bound {ASCENDING_BOUND}"
    );
}
