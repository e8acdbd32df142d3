//! What one global taint costs to keep, as a count (DESIGN.md §4,
//! "Stored once, indexed by id"): the live heap bytes a fresh single-tag
//! taint leaves behind on its way source → Taint Map → sink, one row per
//! layer.
//!
//! A counting global allocator tracks the process's live bytes. 100 000
//! taints shaped like the crossing benchmark's `fresh_taints` tags are
//! taken through the public API a phase at a time — mint, register,
//! look up from a second VM, union at the sink — and each phase's growth
//! in live bytes is divided by the number of taints. Buffers the test
//! itself needs are sized before the first reading. The layers a phase
//! cannot tell apart are measured once more on their own (a bare
//! [`InMemoryBackend`], a bare [`TaintStore`] fed [`deserialize_taint`])
//! and the rest of the phase is the client's caches. A last row
//! registers the same taints at an endpoint that logs its binds to a
//! `SimFs`; the endpoint `Cluster::builder()` configures by default,
//! the crossing benchmark's, keeps no log, so that row is not in the
//! total. Sizes depend on counts and capacities only, so the rows repeat
//! from run to run and are the same in debug and release.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dista_simnet::{SimFs, SimNet};
use dista_taint::{
    deserialize_taint, serialize_taint, GlobalId, LocalId, TagId, TagValue, Taint, TaintStore,
};
use dista_taintmap::{InMemoryBackend, TaintMapBackend, TaintMapEndpoint};

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

const TAINTS: usize = 100_000;
/// Taints per `global_ids_for` / `taints_for` call.
const BATCH: usize = 1_000;

/// Live bytes per global taint, end to end: 287.1 here; 291.1 when the
/// Taint Map's records carried a taint's full 211 B form, 309.5 when a
/// tree node was 16 B and the child index a hash map, 645.5 when the
/// backend kept whole serialized taints and a tag its own heap value,
/// 971 when the record store and the tag table each kept a second copy
/// of their keys.
const TOTAL_BOUND: f64 = 340.0;
/// Live bytes per record in the backend: 65.8 here, 263.5 and 516 then.
const BACKEND_BOUND: f64 = 72.0;
/// Live bytes per tag in one VM's tag table: 56.3 here, 105.4 then.
const TAG_BOUND: f64 = 60.0;

/// Runs `f` and returns its result with the live bytes it left behind,
/// per taint.
fn grown<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = f();
    let after = LIVE.load(Ordering::Relaxed);
    (out, (after - before) as f64 / TAINTS as f64)
}

#[test]
fn a_global_taint_is_stored_once_per_place_it_lives() {
    let net = SimNet::new();
    let endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
    let sender = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let receiver = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
    let tx = endpoint.client(&net, sender.clone()).unwrap();
    let rx = endpoint.client(&net, receiver.clone()).unwrap();
    // One round trip each way, so connections and their buffers exist.
    let warm = sender.mint_source_taint(TagValue::str("warm-up"));
    let warm_gid = tx.global_id_for(warm).unwrap();
    rx.taint_for(warm_gid).unwrap();

    // The test's own buffers, sized before the first reading.
    let names: Vec<String> = (0..TAINTS)
        .map(|i| format!("fresh:0:{}:{}", i / 2, i % 2))
        .collect();
    let mut tags: Vec<TagId> = Vec::with_capacity(TAINTS);
    let mut taints: Vec<Taint> = Vec::with_capacity(TAINTS);
    let mut gids: Vec<GlobalId> = Vec::with_capacity(TAINTS);
    let mut arrived: Vec<Taint> = Vec::with_capacity(TAINTS);

    let ((), sender_tag) = grown(|| {
        for name in &names {
            tags.push(
                sender
                    .tree()
                    .mint_tag(TagValue::str(name), sender.local_id()),
            );
        }
    });
    let ((), sender_node) = grown(|| {
        for &tag in &tags {
            taints.push(sender.tree().taint_of_tag(tag));
        }
    });
    let ((), registered) = grown(|| {
        for batch in taints.chunks(BATCH) {
            gids.extend(tx.global_ids_for(batch).unwrap());
        }
    });
    let ((), looked_up) = grown(|| {
        for batch in gids.chunks(BATCH) {
            arrived.extend(rx.taints_for(batch).unwrap());
        }
    });
    let ((), union_node) = grown(|| {
        for pair in arrived.chunks(2) {
            receiver.union(pair[0], pair[1]);
        }
    });
    // A census reads the service after the clients flushed.
    tx.flush().unwrap();
    assert_eq!(endpoint.stats().global_taints, TAINTS as u64 + 1);
    for i in [0, 1, TAINTS / 2, TAINTS - 1] {
        assert_eq!(receiver.tag_values(arrived[i]), [names[i].as_str()]);
    }

    // The two phases above that span layers, taken apart.
    let wire: Vec<Vec<u8>> = taints
        .iter()
        .map(|&t| serialize_taint(sender.tree(), t))
        .collect();
    let (backend, server_record) = grown(|| {
        let backend = InMemoryBackend::new();
        backend.raise_high_water(TAINTS as u32);
        for (i, bytes) in wire.iter().enumerate() {
            assert!(backend.bind(i as u32 + 1, bytes));
        }
        backend
    });
    assert_eq!(backend.lookup(TAINTS as u32), wire.last().cloned());
    let (decoded, receiver_tree) = grown(|| {
        let store = TaintStore::new(LocalId::new([10, 0, 0, 3], 3));
        for bytes in &wire {
            deserialize_taint(&store, bytes).unwrap();
        }
        store
    });
    assert_eq!(decoded.tree().num_tags(), TAINTS);
    endpoint.shutdown();

    // The same registrations at an endpoint that logs each bind to a
    // `SimFs` (`TaintMapEndpointBuilder::snapshots`), as a deployment
    // that restarts its shards configures it; `Cluster::builder()`'s
    // default endpoint, the one above, keeps no log.
    let logged_net = SimNet::new();
    let logged = TaintMapEndpoint::builder()
        .snapshots(SimFs::new())
        .connect(&logged_net)
        .unwrap();
    let logged_tx = logged.client(&logged_net, sender.clone()).unwrap();
    logged_tx.global_id_for(warm).unwrap();
    let ((), logged_registered) = grown(|| {
        for batch in taints.chunks(BATCH) {
            logged_tx.global_ids_for(batch).unwrap();
        }
        logged_tx.flush().unwrap();
    });
    assert_eq!(logged.stats().global_taints, TAINTS as u64 + 1);
    logged.shutdown();

    let total = sender_tag + sender_node + registered + looked_up + union_node;
    println!("live bytes per global taint, {TAINTS} fresh single-tag taints:");
    for (layer, bytes) in [
        ("sender tag", sender_tag),
        ("sender node", sender_node),
        ("server record", server_record),
        ("sender client caches", registered - server_record),
        ("receiver tag + node", receiver_tree),
        ("receiver client caches", looked_up - receiver_tree),
        ("sink union node (one per two taints)", union_node),
        ("total", total),
        (
            "bind log, when the endpoint keeps one",
            logged_registered - registered,
        ),
    ] {
        println!("  {layer:<40} {bytes:>8.1}");
    }
    println!("  serialized taint itself: {} B", wire[0].len());
    assert!(
        sender_tag <= TAG_BOUND,
        "a VM keeps {sender_tag:.1} B per tag, bound {TAG_BOUND}"
    );
    assert!(
        server_record <= BACKEND_BOUND,
        "the backend keeps {server_record:.1} B per record, bound {BACKEND_BOUND}"
    );
    assert!(
        total <= TOTAL_BOUND,
        "a global taint keeps {total:.1} B alive, bound {TOTAL_BOUND}"
    );
}
