//! End-to-end tests for the sharded, batched Taint Map deployment:
//! batched registration and lookup must keep working while shard
//! primaries are killed and clients fail over to standbys (§IV), and
//! replication must stay per-shard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use dista_simnet::SimNet;
use dista_taint::{GlobalId, LocalId, TagValue, Taint, TaintStore};
use dista_taintmap::{InMemoryBackend, TaintMapBackend, TaintMapEndpoint};

fn store(host: u8) -> TaintStore {
    TaintStore::new(LocalId::new([10, 0, 0, host], host as u32))
}

#[test]
fn batched_roundtrip_across_four_shards() {
    let net = SimNet::new();
    let endpoint = TaintMapEndpoint::builder().shards(4).connect(&net).unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();

    let taints: Vec<Taint> = (0..64)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();
    assert!(gids.iter().all(|g| g.is_tainted()));

    // One logical batch, at most one frame per shard.
    assert!(client1.stats().batch_frames <= 4);
    assert_eq!(client1.stats().register_rpcs, 64);

    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    let resolved = client2.taints_for(&gids).unwrap();
    for (i, taint) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(*taint), vec![i.to_string()]);
    }
    assert_eq!(endpoint.stats().global_taints, 64);
    endpoint.shutdown();
}

#[test]
fn batched_register_survives_primary_kill_mid_batch() {
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .shards(4)
        .standby(true)
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();

    // Warm every shard connection and replicate some state.
    let warm: Vec<Taint> = (0..16)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let warm_gids = client.global_ids_for(&warm).unwrap();

    // Kill two shard primaries. The client's connections to them are now
    // dead mid-stream; the next batch must redial the standbys and
    // resend (register is dedup-idempotent, so the replay is safe).
    endpoint.kill_primary(0);
    endpoint.kill_primary(2);

    let fresh: Vec<Taint> = (100..132)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client.global_ids_for(&fresh).unwrap();
    assert!(gids.iter().all(|g| g.is_tainted()));
    assert!(
        client.stats().failovers >= 1,
        "batch must have failed over to a standby"
    );

    // Old and new ids all resolve through the surviving topology.
    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    let all: Vec<GlobalId> = warm_gids.iter().chain(&gids).copied().collect();
    let resolved = client2.taints_for(&all).unwrap();
    assert_eq!(resolved.len(), 48);
    for (k, taint) in resolved.iter().enumerate() {
        let expect = if k < 16 { k as i64 } else { 84 + k as i64 };
        assert_eq!(store2.tag_values(*taint), vec![expect.to_string()]);
    }
    endpoint.shutdown();
}

#[test]
fn batched_lookup_survives_primary_kill_mid_batch() {
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .shards(3)
        .standby(true)
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..24)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();

    // A second VM connects (dialing primaries), then every primary dies.
    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    for i in 0..3 {
        endpoint.kill_primary(i);
    }

    // The whole batched lookup lands on standbys, which must serve the
    // replicated taints (lookups are read-only, so replay is safe).
    let resolved = client2.taints_for(&gids).unwrap();
    for (i, taint) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(*taint), vec![i.to_string()]);
    }
    assert!(client2.stats().failovers >= 3);
    endpoint.shutdown();
}

#[test]
fn replication_stays_per_shard() {
    // A standby must end up with exactly its own shard's taints — the
    // partitioned namespace means a foreign gid never replicates in.
    let net = SimNet::new();
    let endpoint = TaintMapEndpoint::builder()
        .shards(2)
        .standby(true)
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..20)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client.global_ids_for(&taints).unwrap();

    for shard in 0..2 {
        let expected = gids
            .iter()
            .filter(|g| (g.0 - 1) % 2 == shard as u32)
            .count() as u64;
        assert_eq!(
            endpoint.shard(shard).stats().global_taints,
            expected,
            "shard {shard} primary holds exactly its residue class"
        );
        assert_eq!(
            endpoint.standby(shard).unwrap().stats().global_taints,
            expected,
            "shard {shard} standby replicated exactly its residue class"
        );
    }
    endpoint.shutdown();
}

/// A backend that can hold one `lookup` at a gate, so a test can land a
/// cutover between a frame's epoch check and the rest of its items.
struct GatedBackend {
    inner: InMemoryBackend,
    gate: Arc<Gate>,
}

struct Gate {
    armed: AtomicBool,
    entered: Barrier,
    release: Barrier,
}

impl TaintMapBackend for GatedBackend {
    fn register(&self, serialized: &[u8]) -> u32 {
        self.inner.register(serialized)
    }
    fn reserve(&self, local_ids: &[u32]) {
        self.inner.reserve(local_ids)
    }
    fn lookup(&self, gid: u32) -> Option<Vec<u8>> {
        if self.gate.armed.swap(false, Ordering::SeqCst) {
            self.gate.entered.wait();
            self.gate.release.wait();
        }
        self.inner.lookup(gid)
    }
    fn insert_replicated(&self, gid: u32, serialized: &[u8]) {
        self.inner.insert_replicated(gid, serialized)
    }
    fn max_local(&self) -> u32 {
        self.inner.max_local()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

#[test]
fn moved_redirects_converge_without_tripping_the_breaker() {
    // A client whose shard map predates a split keeps operating: the old
    // owner answers `Moved`/`StaleEpoch` redirects, the client adopts
    // the new table and retries — and the breaker counts those
    // well-formed redirects as successes, never as failures. A redirect
    // storm must not open a healthy shard's circuit.
    let net = SimNet::new();
    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        entered: Barrier::new(2),
        release: Barrier::new(2),
    });
    let backend_gate = gate.clone();
    let mut endpoint = TaintMapEndpoint::builder()
        .backend(move |_| {
            Arc::new(GatedBackend {
                inner: InMemoryBackend::new(),
                gate: backend_gate.clone(),
            })
        })
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..32)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();

    // Two cold-cache clients connect before the split, so both hold an
    // epoch-0 shard map with nothing memoized.
    let store2 = store(2);
    let overtaken = endpoint.client(&net, store2.clone()).unwrap();
    let store3 = store(3);
    let stale = endpoint.client(&net, store3.clone()).unwrap();

    // `Moved` is the arm for a frame the cutover overtakes: it passes
    // the epoch check under the old table, and by the time the server
    // reaches a migrated gid the range is gone. Hold the frame inside
    // the old owner, cut over, let it go.
    endpoint.begin_split(0).unwrap();
    while endpoint.split_step(8).unwrap() {}
    gate.armed.store(true, Ordering::SeqCst);
    let lookup = {
        let gids = gids.clone();
        std::thread::spawn(move || {
            let resolved = overtaken.taints_for(&gids).unwrap();
            (resolved, overtaken.stats())
        })
    };
    gate.entered.wait();
    endpoint.finish_split().unwrap();
    gate.release.wait();
    let (resolved, moved) = lookup.join().unwrap();
    for (i, &t) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(t), vec![i.to_string()]);
    }

    // A frame sent after the cutover carries the stale epoch stamp and
    // gets a `StaleEpoch` refetch before converging on correct answers.
    let resolved = stale.taints_for(&gids).unwrap();
    for (i, &t) in resolved.iter().enumerate() {
        assert_eq!(store3.tag_values(t), vec![i.to_string()]);
    }

    assert!(
        moved.moved_redirects >= 1,
        "the old owner redirected: {moved:?}"
    );
    let stale = stale.stats();
    assert!(
        stale.epoch_refetches >= 1,
        "the stale epoch stamp forced a table refetch: {stale:?}"
    );
    for stats in [moved, stale] {
        assert_eq!(
            stats.breaker_opens, 0,
            "redirects are successes, not breaker failures"
        );
        assert_eq!(stats.failovers, 0, "no shard was ever unreachable");
    }
    endpoint.shutdown();
}
