//! Shadow-representation ablation backing the run-length refactor:
//!
//! 1. **Run-length vs dense shadows** on a 1 MiB uniformly-tainted
//!    payload — the common case the paper's byte-level shadows hit
//!    (§III-A): a whole network read carries one taint. Dense storage
//!    pays O(bytes) on every structural operation; run-length pays
//!    O(runs), which is O(1) here.
//! 2. **The striped taint tree** under 4-thread union contention — the
//!    interning workload every instrumented thread in a VM funnels
//!    through (§II-B singleton tree). The single-lock baseline it beat
//!    by 1.4x is recorded in CHANGES.md (PR 1).

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dista_taint::{LocalId, TagValue, Taint, TaintRuns, TaintStore, TaintTree};

const PAYLOAD: usize = 1 << 20; // 1 MiB
const CHUNK: usize = 4096; // stream-socket read size

/// The boundary-wrapper workload over a run-length shadow: build the
/// uniform 1 MiB shadow, drain it in socket-sized chunks, and union the
/// taints seen in each chunk (what `encode_wire` + `taint_union` do).
fn rle_workload(store: &TaintStore, taint: Taint) -> Taint {
    let mut shadow = TaintRuns::uniform(taint, PAYLOAD);
    let mut acc = Taint::EMPTY;
    while !shadow.is_empty() {
        let chunk = shadow.split_front(CHUNK);
        acc = store.union(acc, store.union_all(chunk.iter_runs().map(|(_, t)| t)));
    }
    acc
}

/// The identical workload over the pre-refactor dense `Vec<Taint>`.
fn dense_workload(store: &TaintStore, taint: Taint) -> Taint {
    let mut shadow = vec![taint; PAYLOAD];
    let mut acc = Taint::EMPTY;
    while !shadow.is_empty() {
        let n = CHUNK.min(shadow.len());
        let chunk: Vec<Taint> = shadow.drain(..n).collect();
        acc = store.union(acc, store.union_all(chunk.iter().copied()));
    }
    acc
}

fn bench_shadow(c: &mut Criterion) {
    let mut group = c.benchmark_group("shadow_repr");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let store = TaintStore::new(LocalId::default());
    let taint = store.mint_source_taint(TagValue::str("payload"));
    group.bench_function(BenchmarkId::new("run_length", "1MiB_uniform"), |b| {
        b.iter(|| black_box(rle_workload(&store, taint)));
    });
    group.bench_function(BenchmarkId::new("dense", "1MiB_uniform"), |b| {
        b.iter(|| black_box(dense_workload(&store, taint)));
    });
    group.finish();
}

const CONTENTION_THREADS: usize = 4;
const BASE_TAGS: usize = 32;
const UNIONS_PER_THREAD: usize = 20_000;

/// Per-thread union stream: deterministic pseudo-random pairs over the
/// shared base taints.
fn union_storm(tree: &TaintTree, base: &[Taint], seed: usize) -> Taint {
    let mut acc = Taint::EMPTY;
    for i in 0..UNIONS_PER_THREAD {
        let a = base[(i * 7 + seed) % base.len()];
        let b = base[(i * 13 + seed * 3 + 1) % base.len()];
        acc = tree.union(acc, tree.union(a, b));
    }
    acc
}

fn contended(tree: Arc<TaintTree>, base: Arc<Vec<Taint>>) {
    let barrier = Arc::new(Barrier::new(CONTENTION_THREADS));
    let handles: Vec<_> = (0..CONTENTION_THREADS)
        .map(|seed| {
            let tree = Arc::clone(&tree);
            let base = Arc::clone(&base);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                black_box(union_storm(&tree, &base, seed))
            })
        })
        .collect();
    for h in handles {
        h.join().expect("contention thread panicked");
    }
}

fn bench_tree_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_contention");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    group.bench_function(
        BenchmarkId::new("striped", format!("{CONTENTION_THREADS}threads")),
        |b| {
            let tree = Arc::new(TaintTree::new());
            let base: Arc<Vec<Taint>> = Arc::new(
                (0..BASE_TAGS as i64)
                    .map(|i| {
                        let tag = tree.mint_tag(TagValue::Int(i), LocalId::default());
                        tree.taint_of_tag(tag)
                    })
                    .collect(),
            );
            b.iter(|| contended(Arc::clone(&tree), Arc::clone(&base)));
        },
    );

    group.finish();
}

criterion_group!(benches, bench_shadow, bench_tree_contention);
criterion_main!(benches);
