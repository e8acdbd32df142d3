//! Multi-threaded stress tests for the lock-striped [`TaintTree`].
//!
//! N threads hammer one shared tree with *overlapping* tag sets — the
//! worst case for the interning maps, since every thread races to
//! create the same children and the same memoized unions. The
//! singleton-tree contract must hold regardless of interleaving:
//! equal tag sets end up with equal handles, union stays a semilattice
//! (commutative, associative, idempotent), and no duplicate nodes are
//! ever interned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use dista_taint::{LocalId, TagValue, Taint, TaintTree};

const THREADS: usize = 8;
const POOL: usize = 24;
const ROUNDS: usize = 400;

/// Deterministic per-thread pseudo-random subset of the tag pool.
fn subset_bits(thread: usize, round: usize) -> u32 {
    // SplitMix64 keeps the streams decorrelated across threads while
    // guaranteeing every thread visits many identical subsets.
    let mut x = (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (round as u64);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x as u32) & ((1 << POOL) - 1)
}

fn taint_of_bits(tree: &TaintTree, tags: &[dista_taint::TagId], bits: u32) -> Taint {
    let mut acc = Taint::EMPTY;
    for (i, &tag) in tags.iter().enumerate() {
        if bits & (1 << i) != 0 {
            acc = tree.union(acc, tree.taint_of_tag(tag));
        }
    }
    acc
}

#[test]
fn concurrent_interning_gives_equal_handles_for_equal_sets() {
    let tree = Arc::new(TaintTree::new());
    let tags: Arc<Vec<_>> = Arc::new(
        (0..POOL as i64)
            .map(|i| tree.mint_tag(TagValue::Int(i), LocalId::default()))
            .collect(),
    );
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let tags = Arc::clone(&tags);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut out = Vec::with_capacity(ROUNDS);
                for r in 0..ROUNDS {
                    let bits = subset_bits(t, r);
                    out.push((bits, taint_of_bits(&tree, &tags, bits)));
                }
                out
            })
        })
        .collect();

    let mut by_bits: std::collections::HashMap<u32, Taint> = std::collections::HashMap::new();
    for h in handles {
        for (bits, taint) in h.join().expect("stress thread panicked") {
            // Handle equality across threads: the same subset interned by
            // any thread, in any round, is the same node.
            let prev = by_bits.insert(bits, taint);
            if let Some(prev) = prev {
                assert_eq!(prev, taint, "subset {bits:#x} interned to two handles");
            }
            // And the tag set read back is exactly the subset.
            assert_eq!(tree.tag_count(taint), bits.count_ones() as usize);
        }
    }

    // Replaying every observed subset single-threaded must not create a
    // single new node: the racing threads left no duplicates behind.
    let nodes_after_race = tree.num_nodes();
    for (&bits, &taint) in &by_bits {
        assert_eq!(taint_of_bits(&tree, &tags, bits), taint);
    }
    assert_eq!(
        tree.num_nodes(),
        nodes_after_race,
        "replay interned duplicate nodes"
    );
}

#[test]
fn threads_released_together_intern_each_new_set_once() {
    // Every round all threads are let go at once to intern the same set
    // of 8 picks from 64 tags — mostly children no thread has made yet,
    // so lookups race on a miss. Each round must give every thread one
    // handle, and the tree must hold exactly the nodes a single thread
    // makes for the same sets.
    const RACERS: usize = 4;
    const SETS: usize = 5_000;
    let picks = |round: usize| -> Vec<usize> {
        (0..8)
            .map(|k| subset_bits(round, k) as usize % 64)
            .collect()
    };
    let build = |tree: &TaintTree| -> Vec<Taint> {
        (0..64)
            .map(|i| tree.taint_of_tag(tree.mint_tag(TagValue::Int(i), LocalId::default())))
            .collect()
    };
    let tree = TaintTree::new();
    let pool = build(&tree);
    let go = Barrier::new(RACERS);
    let results: Vec<Vec<Taint>> = thread::scope(|s| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    (0..SETS)
                        .map(|round| {
                            go.wait();
                            tree.union_all(picks(round).into_iter().map(|i| pool[i]))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("racing thread panicked"))
            .collect()
    });
    for round in 0..SETS {
        let first = results[0][round];
        for racer in &results[1..] {
            assert_eq!(racer[round], first, "set {round} interned to two handles");
        }
    }

    let alone = TaintTree::new();
    let alone_pool = build(&alone);
    for (round, &raced) in results[0].iter().enumerate() {
        let taint = alone.union_all(picks(round).into_iter().map(|i| alone_pool[i]));
        assert_eq!(alone.tag_ids(taint), tree.tag_ids(raced));
    }
    assert_eq!(
        tree.num_nodes(),
        alone.num_nodes(),
        "racing threads interned duplicate nodes"
    );
}

#[test]
fn concurrent_union_is_a_semilattice() {
    let tree = Arc::new(TaintTree::new());
    let tags: Vec<_> = (0..POOL as i64)
        .map(|i| tree.mint_tag(TagValue::Int(i), LocalId::default()))
        .collect();
    let taints: Arc<Vec<Taint>> = Arc::new(tags.iter().map(|&t| tree.taint_of_tag(t)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));
    let failed = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let taints = Arc::clone(&taints);
            let barrier = Arc::clone(&barrier);
            let failed = Arc::clone(&failed);
            thread::spawn(move || {
                barrier.wait();
                for r in 0..ROUNDS {
                    let a = taints[subset_bits(t, r) as usize % POOL];
                    let b = taints[(subset_bits(t, r + 1) >> 8) as usize % POOL];
                    let c = taints[(subset_bits(t, r + 2) >> 16) as usize % POOL];
                    let comm = tree.union(a, b) == tree.union(b, a);
                    let assoc = tree.union(tree.union(a, b), c) == tree.union(a, tree.union(b, c));
                    let ab = tree.union(a, b);
                    let idem = tree.union(ab, ab) == ab
                        && tree.union(ab, a) == ab
                        && tree.union(ab, Taint::EMPTY) == ab;
                    if !(comm && assoc && idem) {
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            })
        })
        .collect();

    for h in handles {
        h.join().expect("stress thread panicked");
    }
    assert!(
        !failed.load(Ordering::Relaxed),
        "union lost a semilattice law under concurrency"
    );
}

#[test]
fn concurrent_minting_interns_tags_once() {
    let tree = Arc::new(TaintTree::new());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let tree = Arc::clone(&tree);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                (0..POOL as i64)
                    .map(|i| tree.mint_tag(TagValue::Int(i), LocalId::default()))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let all: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("mint thread panicked"))
        .collect();
    for ids in &all[1..] {
        assert_eq!(ids, &all[0], "racing mints produced different tag ids");
    }
    assert_eq!(tree.num_tags(), POOL);
}

#[test]
fn racing_threads_build_one_set_from_operands_in_different_orders() {
    // Every round all threads are let go at once to build the same set
    // of 8 distinct tags from 64, each from other operands: the 8
    // singletons forwards or backwards, the set's two halves (made
    // before the race), or its upper half and the lower singletons
    // backwards. The first to intern it picks its parent; every thread
    // must get one handle, and the set one node.
    const RACERS: usize = 4;
    const SETS: usize = 2_000;
    let tree = TaintTree::new();
    let pool: Vec<Taint> = (0..64)
        .map(|i| tree.taint_of_tag(tree.mint_tag(TagValue::Int(i), LocalId::default())))
        .collect();
    let rounds: Vec<(Vec<Taint>, Taint, Taint)> = (0..SETS)
        .map(|round| {
            let mut picks: Vec<usize> = Vec::with_capacity(8);
            for k in 0.. {
                let pick = subset_bits(round, k) as usize % pool.len();
                if !picks.contains(&pick) {
                    picks.push(pick);
                }
                if picks.len() == 8 {
                    break;
                }
            }
            picks.sort_unstable();
            let singles: Vec<Taint> = picks.iter().map(|&i| pool[i]).collect();
            let low = tree.union_all(singles[..4].iter().copied());
            let high = tree.union_all(singles[4..].iter().copied());
            (singles, low, high)
        })
        .collect();
    let before = tree.num_nodes();
    let go = Barrier::new(RACERS);
    let results: Vec<Vec<Taint>> = thread::scope(|s| {
        let handles: Vec<_> = (0..RACERS)
            .map(|racer| {
                let (tree, go, rounds) = (&tree, &go, &rounds);
                s.spawn(move || {
                    rounds
                        .iter()
                        .map(|(singles, low, high)| {
                            go.wait();
                            match racer {
                                0 => tree.union_all(singles.iter().copied()),
                                1 => tree.union_all(singles.iter().rev().copied()),
                                2 => tree.union(*low, *high),
                                _ => tree.union_all(
                                    std::iter::once(*high)
                                        .chain(singles[..4].iter().rev().copied()),
                                ),
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("racing thread panicked"))
            .collect()
    });
    for (round, (singles, _, _)) in rounds.iter().enumerate() {
        let first = results[0][round];
        for racer in &results[1..] {
            assert_eq!(racer[round], first, "set {round} interned to two handles");
        }
        let want: Vec<_> = singles.iter().map(|&t| tree.tag_ids(t)[0]).collect();
        assert_eq!(tree.tag_ids(first), want);
        assert_eq!(tree.tag_count(first), 8);
    }
    let mut sets = results[0].clone();
    sets.sort_unstable();
    sets.dedup();
    assert_eq!(
        tree.num_nodes() - before,
        sets.len(),
        "racing threads interned a set twice, or a set nobody asked for"
    );
}
