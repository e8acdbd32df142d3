//! End-to-end tests for the sharded, batched Taint Map deployment:
//! batched registration and lookup must keep working while shard
//! primaries are killed and clients fail over to standbys (§IV), and
//! replication must stay per-shard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dista_simnet::{FaultAction, NetError, SimFs, SimNet};
use dista_taint::{GlobalId, LocalId, TagValue, Taint, TaintStore};
use dista_taintmap::{
    ClientObserver, ClientResilience, InMemoryBackend, TaintMapBackend, TaintMapClient,
    TaintMapEndpoint, TaintMapError,
};

fn store(host: u8) -> TaintStore {
    TaintStore::new(LocalId::new([10, 0, 0, host], host as u32))
}

#[test]
fn batched_roundtrip_across_four_shards() {
    let net = SimNet::new();
    let endpoint = TaintMapEndpoint::builder().shards(4).connect(&net).unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();
    // Connecting leased a block from each shard.
    let leased = client1.stats().batch_frames;
    assert_eq!(leased, 4);

    let taints: Vec<Taint> = (0..64)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();
    assert!(gids.iter().all(|g| g.is_tainted()));

    // One logical batch, at most one frame per shard.
    assert!(client1.stats().batch_frames - leased <= 4);
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
    // resend (a bind is idempotent, so the replay is safe).
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

#[test]
fn a_restarted_primary_and_its_standby_never_lease_one_gid_twice() {
    // While the primary is down its clients lease from the standby. Once
    // it is back, the standby hangs up on their binds, they redial the
    // primary, and the primary leases above everything the standby did.
    // Before, they stayed on the standby and both servers leased the
    // same ids.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .standby(true)
        .snapshots(SimFs::new())
        .connect(&net)
        .unwrap();
    let mut handed: Vec<GlobalId> = Vec::new();
    let mut register = |client: &TaintMapClient, store: &TaintStore, from: i64| {
        let taints: Vec<Taint> = (from..from + 100)
            .map(|i| store.mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = client.global_ids_for(&taints).unwrap();
        handed.extend(&gids);
        gids
    };
    let (store_a, store_b, store_c) = (store(1), store(2), store(3));
    let a = endpoint.client(&net, store_a.clone()).unwrap();
    endpoint.crash_primary(0);
    register(&a, &store_a, 0);
    let b = endpoint.client(&net, store_b.clone()).unwrap();
    register(&b, &store_b, 0);

    endpoint.restart_primary(0).unwrap();
    let after = [
        register(&a, &store_a, 100),
        register(&b, &store_b, 100),
        register(
            &endpoint.client(&net, store_c.clone()).unwrap(),
            &store_c,
            100,
        ),
    ];
    let mut distinct = handed.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 500, "a gid handed out twice");
    // What was handed out after the restart is bound at the primary.
    let reader_store = store(9);
    let reader = endpoint.client(&net, reader_store.clone()).unwrap();
    for gids in after {
        let values: Vec<Vec<String>> = reader
            .taints_for(&gids)
            .unwrap()
            .into_iter()
            .map(|t| reader_store.tag_values(t))
            .collect();
        let expected: Vec<Vec<String>> = (100..200).map(|i| vec![i.to_string()]).collect();
        assert_eq!(values, expected);
    }
    // The standby bound the 200 of the outage and mirrors the rest.
    assert_eq!(endpoint.standby(0).unwrap().stats().global_taints, 500);
    endpoint.shutdown();
}

#[test]
fn a_standby_never_leases_a_range_its_primary_handed_to_a_split() {
    // A split's cutover used to reach the live servers of the class but
    // not the standby: once its primary was gone, the standby leased the
    // range the split target was leasing from, the same gids.
    for kill in [false, true] {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .standby(true)
            .snapshots(SimFs::new())
            .connect(&net)
            .unwrap();
        let (store_a, store_b, store_c) = (store(1), store(2), store(3));
        let a = endpoint.client(&net, store_a.clone()).unwrap();
        let mut handed = a.global_ids_for(&mint(&store_a, 0..200)).unwrap();
        endpoint.split_shard(0).unwrap();
        let b = endpoint.client(&net, store_b.clone()).unwrap();
        handed.extend(b.global_ids_for(&mint(&store_b, 0..100)).unwrap());
        match kill {
            false => endpoint.crash_primary(0),
            true => endpoint.kill_primary(0),
        }
        // A fresh client holds the initial table, so its lease goes to
        // the standby.
        let c = endpoint.client(&net, store_c.clone()).unwrap();
        handed.extend(c.global_ids_for(&mint(&store_c, 0..100)).unwrap());
        let mut distinct = handed.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 400, "a gid handed out twice (kill {kill})");
        endpoint.shutdown();
    }
}

#[test]
fn a_client_dialled_after_a_promotion_resolves_the_range_below_a_split() {
    // The endpoint's class table used to name only the primary in range
    // 0, though a client's own table names the primary and its standby.
    // After a split and a promotion, in either order, a client dialled
    // afterwards was redirected to the dead primary for every gid below
    // the split point and refused.
    for split_first in [true, false] {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .standby(true)
            .snapshots(SimFs::new())
            .connect(&net)
            .unwrap();
        let writer_store = store(1);
        let writer = endpoint.client(&net, writer_store.clone()).unwrap();
        let gids = writer.global_ids_for(&mint(&writer_store, 0..200)).unwrap();
        if split_first {
            endpoint.split_shard(0).unwrap();
            endpoint.kill_primary(0);
        } else {
            endpoint.kill_primary(0);
            endpoint.split_shard(0).unwrap();
        }
        assert_resolve(&endpoint, &net, &gids, &(0..200).collect::<Vec<_>>());
        endpoint.shutdown();
    }
}

#[test]
fn a_promoted_standby_restarted_from_its_own_log_leases_no_gid_twice() {
    // A standby used to run without a log, and a restart of the slot it
    // was promoted into replayed the dead primary's: the 100 records
    // from before the promotion, so a fresh client leased the 200 after
    // it again.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .standby(true)
        .snapshots(SimFs::new())
        .connect(&net)
        .unwrap();
    let (store_a, store_b, store_c) = (store(1), store(2), store(3));
    let a = endpoint.client(&net, store_a.clone()).unwrap();
    let mut handed = a.global_ids_for(&mint(&store_a, 0..100)).unwrap();
    endpoint.kill_primary(0);
    let b = endpoint.client(&net, store_b.clone()).unwrap();
    handed.extend(b.global_ids_for(&mint(&store_b, 0..200)).unwrap());
    endpoint.crash_primary(0);
    assert_eq!(endpoint.restart_primary(0).unwrap(), 300, "its own log");
    let c = endpoint.client(&net, store_c.clone()).unwrap();
    handed.extend(c.global_ids_for(&mint(&store_c, 0..100)).unwrap());
    let mut distinct = handed.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 400, "a gid handed out twice");
    let tags: Vec<i64> = (0..100).chain(0..200).chain(0..100).collect();
    assert_resolve(&endpoint, &net, &handed, &tags);
    endpoint.shutdown();
}

fn mint(store: &TaintStore, range: std::ops::Range<i64>) -> Vec<Taint> {
    range
        .map(|i| store.mint_source_taint(TagValue::Int(i)))
        .collect()
}

/// Resolves `gids` through a fresh client and checks each names the
/// `Int` tag its position in `expected` holds.
fn assert_resolve(endpoint: &TaintMapEndpoint, net: &SimNet, gids: &[GlobalId], expected: &[i64]) {
    let reader_store = store(9);
    let reader = endpoint.client(net, reader_store.clone()).unwrap();
    let values: Vec<Vec<String>> = reader
        .taints_for(gids)
        .unwrap()
        .into_iter()
        .map(|t| reader_store.tag_values(t))
        .collect();
    let expected: Vec<Vec<String>> = expected.iter().map(|i| vec![i.to_string()]).collect();
    assert_eq!(values, expected);
}

#[test]
fn binds_a_standby_took_while_its_primary_was_down_resolve_at_the_restarted_primary() {
    // The restarted primary used to take only its standby's lease
    // high-water, so a bare reader at it got `UnknownGlobalId` for every
    // bind the standby took during the outage. Now it follows the
    // standby until caught up before it serves.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .standby(true)
        .snapshots(SimFs::new())
        .connect(&net)
        .unwrap();
    let writer_store = store(1);
    let writer = endpoint.client(&net, writer_store.clone()).unwrap();
    let mut gids = writer.global_ids_for(&mint(&writer_store, 0..8)).unwrap();
    endpoint.crash_primary(0);
    gids.extend(writer.global_ids_for(&mint(&writer_store, 8..40)).unwrap());
    endpoint.restart_primary(0).unwrap();

    assert_resolve(&endpoint, &net, &gids, &(0..40).collect::<Vec<_>>());
    assert_eq!(endpoint.shard(0).stats().global_taints, 40);
    endpoint.shutdown();
}

#[test]
fn a_mirror_cut_by_a_link_reset_catches_up_and_the_standby_leases_no_gid_twice() {
    // A primary used to stop mirroring for good after one failed
    // forward: the standby then lacked every later bind, and once
    // clients failed over to it, it leased ids the primary had leased.
    // Now the next commit redials it and ships what it lacks.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .standby(true)
        .connect(&net)
        .unwrap();
    let tm_ip = endpoint.topology().shard_addrs(0)[0].ip();
    let writer_store = store(1);
    let writer = endpoint.client(&net, writer_store.clone()).unwrap();
    let mut handed = Vec::new();
    for round in 0..4 {
        // Server-to-server connections are dialled from 127.0.0.1.
        net.inject(FaultAction::Reset {
            a: [127, 0, 0, 1],
            b: tm_ip,
        });
        let taints = mint(&writer_store, 40 * round..40 * (round + 1));
        handed.extend(writer.global_ids_for(&taints).unwrap());
    }
    endpoint.crash_primary(0);

    assert_resolve(&endpoint, &net, &handed, &(0..160).collect::<Vec<_>>());
    let late_store = store(3);
    let late = endpoint.client(&net, late_store.clone()).unwrap();
    let theirs = late.global_ids_for(&mint(&late_store, 0..100)).unwrap();
    assert!(
        theirs.iter().all(|gid| !handed.contains(gid)),
        "the standby leased a gid the primary had handed out"
    );
    endpoint.shutdown();
}

#[test]
fn a_restart_that_cannot_reach_its_standby_leaves_the_standby_leasing() {
    // The restart used to stop the standby leasing before its fallible
    // dial; when the dial failed the new primary was dropped, and the
    // standby hung up on every `BIND`, so no server of the shard leased.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .standby(true)
        .snapshots(SimFs::new())
        .connect(&net)
        .unwrap();
    let tm_ip = endpoint.topology().shard_addrs(0)[0].ip();
    let writer_store = store(1);
    let writer = endpoint.client(&net, writer_store.clone()).unwrap();
    let gids = writer.global_ids_for(&mint(&writer_store, 0..8)).unwrap();
    endpoint.crash_primary(0);

    net.inject(FaultAction::Isolate { ip: tm_ip });
    assert!(endpoint.restart_primary(0).is_err());
    net.inject(FaultAction::Rejoin { ip: tm_ip });
    assert!(endpoint.primary_crashed(0), "the failed restart was undone");

    let late_store = store(2);
    let late = endpoint.client(&net, late_store.clone()).unwrap();
    let theirs = late.global_ids_for(&mint(&late_store, 8..16)).unwrap();
    let all: Vec<GlobalId> = gids.iter().chain(&theirs).copied().collect();
    assert_resolve(&endpoint, &net, &all, &(0..16).collect::<Vec<_>>());
    endpoint.shutdown();
}

/// A backend that holds the next `bind` or `lookup` at a gate once
/// armed, so a test decides when the server's reply is written.
struct GatedBackend {
    inner: InMemoryBackend,
    gate: Arc<Gate>,
}

struct Gate {
    armed: AtomicBool,
    entered: Barrier,
    release: Barrier,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            armed: AtomicBool::new(false),
            entered: Barrier::new(2),
            release: Barrier::new(2),
        })
    }

    fn pass(&self) {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.entered.wait();
            self.release.wait();
        }
    }
}

impl TaintMapBackend for GatedBackend {
    fn bind(&self, id: u32, serialized: &[u8]) -> bool {
        self.gate.pass();
        self.inner.bind(id, serialized)
    }
    fn lookup(&self, id: u32) -> Option<Vec<u8>> {
        self.gate.pass();
        self.inner.lookup(id)
    }
    fn raise_high_water(&self, id: u32) {
        self.inner.raise_high_water(id)
    }
    fn max_local(&self) -> u32 {
        self.inner.max_local()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn aliases(&self) -> u64 {
        self.inner.aliases()
    }
}

/// A one-shard deployment on [`GatedBackend`]s sharing `gate`.
fn gated_endpoint(net: &SimNet, gate: &Arc<Gate>) -> TaintMapEndpoint {
    let gate = gate.clone();
    TaintMapEndpoint::builder()
        .backend(move |_| {
            Arc::new(GatedBackend {
                inner: InMemoryBackend::new(),
                gate: gate.clone(),
            })
        })
        .connect(net)
        .unwrap()
}

#[test]
fn moved_redirects_converge_without_tripping_the_breaker() {
    // A client whose shard map predates a split keeps operating: the old
    // owner answers `Moved` redirects, the client adopts the new table
    // and retries — and the breaker counts those
    // well-formed redirects as successes, never as failures. A redirect
    // storm must not open a healthy shard's circuit.
    let net = SimNet::new();
    let gate = Gate::new();
    let mut endpoint = gated_endpoint(&net, &gate);
    // Two cold-cache clients connect before the split, so both hold an
    // epoch-0 shard map with nothing memoized. They connect first, so
    // the gids registered next lie above the split point.
    let store2 = store(2);
    let overtaken = endpoint.client(&net, store2.clone()).unwrap();
    let store3 = store(3);
    let stale = endpoint.client(&net, store3.clone()).unwrap();
    let store1 = store(1);
    let client1 = endpoint.client(&net, store1.clone()).unwrap();
    let taints: Vec<Taint> = (0..32)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client1.global_ids_for(&taints).unwrap();

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

    // A frame sent after the cutover carries the stale epoch stamp: the
    // old owner answers `Moved` with its table, and the client converges
    // on correct answers with the next frame. Every gid lies above the
    // split point, so that is two frames: the stale one and one to the
    // new owner, with no table fetch between them.
    let frames_before = stale.stats().batch_frames;
    let resolved = stale.taints_for(&gids).unwrap();
    for (i, &t) in resolved.iter().enumerate() {
        assert_eq!(store3.tag_values(t), vec![i.to_string()]);
    }

    assert!(
        moved.moved_redirects >= 1,
        "the old owner redirected: {moved:?}"
    );
    let stale = stale.stats();
    assert_eq!(
        stale.batch_frames - frames_before,
        2,
        "the redirect carried the table: {stale:?}"
    );
    assert_eq!(stale.moved_redirects, 1, "{stale:?}");
    for stats in [moved, stale] {
        assert_eq!(
            stats.breaker_opens, 0,
            "redirects are successes, not breaker failures"
        );
        assert_eq!(stats.failovers, 0, "no shard was ever unreachable");
    }
    endpoint.shutdown();
}

#[test]
fn a_late_reply_after_an_expired_deadline_is_never_read_as_the_next_answer() {
    // Regression: with the retry budget spent, an expired deadline used
    // to keep the connection. The server's late reply then sat on it and
    // the next request read it as its own: the gid of `first` handed out
    // for `second`, and cached for good.
    let net = SimNet::new();
    let gate = Gate::new();
    let endpoint = gated_endpoint(&net, &gate);
    let deadline = Duration::from_millis(20);
    let impatient = |vm: u8| {
        let store = store(vm);
        let client = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store.clone(),
            ClientObserver::disabled(),
            ClientResilience {
                rpc_deadline: deadline,
                retry_budget: 0,
                ..ClientResilience::default()
            },
        )
        .unwrap();
        (client, store)
    };
    let timed_out = TaintMapError::Net(NetError::Timeout(deadline));
    let witness_store = store(9);
    let witness = endpoint.client(&net, witness_store.clone()).unwrap();
    let tags_of = |gid| witness_store.tag_values(witness.taint_for(gid).unwrap());

    // Register pair: `first` is held inside the server past the
    // deadline, released, and only then is `second` sent.
    let (client, store1) = impatient(1);
    let first = store1.mint_source_taint(TagValue::str("first"));
    let second = store1.mint_source_taint(TagValue::str("second"));
    gate.armed.store(true, Ordering::SeqCst);
    assert_eq!(client.global_id_for(first), Err(timed_out.clone()));
    gate.entered.wait();
    gate.release.wait();
    let second_gid = client.global_id_for(second).unwrap();
    assert_eq!(tags_of(second_gid), ["second"]);
    // The shard serves the abandoned registration correctly too.
    let first_gid = client.global_id_for(first).unwrap();
    assert_eq!(tags_of(first_gid), ["first"]);
    assert_eq!(client.stats().failovers, 1, "one retired connection");

    // Lookup pair, same shape, on a client with cold caches.
    let (reader, reader_store) = impatient(2);
    gate.armed.store(true, Ordering::SeqCst);
    assert_eq!(reader.taint_for(first_gid), Err(timed_out));
    gate.entered.wait();
    gate.release.wait();
    let resolved = reader.taint_for(second_gid).unwrap();
    assert_eq!(reader_store.tag_values(resolved), ["second"]);
    let resolved = reader.taint_for(first_gid).unwrap();
    assert_eq!(reader_store.tag_values(resolved), ["first"]);
    endpoint.shutdown();
}

#[test]
fn an_open_breaker_on_one_shard_holds_back_only_that_shards_binds() {
    // A round used to fail whole at admission when any of its
    // destinations had an open breaker: a flush never wrote the healthy
    // shard's frame, and its binds stayed queued behind the dead shard.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder().shards(2).connect(&net).unwrap();
    let writer_store = store(1);
    let writer = endpoint.client(&net, writer_store.clone()).unwrap();
    let witness_store = store(2);
    let witness = endpoint.client(&net, witness_store.clone()).unwrap();
    // Handed out with their definitions, as a v2 crossing does: queued
    // for both shards, bound by nothing yet.
    let taints = mint(&writer_store, 0..8);
    let (mut gids, mut defs) = (Vec::new(), Vec::new());
    writer
        .global_ids_into(&taints, &mut gids, Some(&mut defs))
        .unwrap();
    let class = |gid: &GlobalId| (gid.0 - 1) % 2;
    assert!((0..2).all(|c| gids.iter().any(|gid| class(gid) == c)));

    endpoint.crash_primary(1);
    let r = ClientResilience::default();
    for _ in 0..r.breaker_threshold {
        let unreachable = writer.taint_for(GlobalId(1_000_000));
        assert!(matches!(unreachable, Err(TaintMapError::Net(_))));
    }
    assert_eq!(writer.stats().breaker_opens, 1);
    assert_eq!(writer.flush(), Err(TaintMapError::ShardUnavailable(1)));

    for (gid, &taint) in gids.iter().zip(&taints).filter(|(g, _)| class(g) == 0) {
        let resolved = witness.taint_for(*gid).unwrap();
        assert_eq!(
            witness_store.tag_values(resolved),
            writer_store.tag_values(taint)
        );
    }
    endpoint.shutdown();
}

#[test]
fn a_crashed_split_server_is_retried_and_trips_its_breaker() {
    // A split server's first dial used to return its error straight out
    // of the round: no retry, and the class breaker never counted it.
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
    let writer_store = store(1);
    let writer = endpoint.client(&net, writer_store.clone()).unwrap();
    // Connected before the split: its class table names only the base
    // server, and it has never dialled the new one.
    let reader = endpoint.client(&net, store(2)).unwrap();
    writer.global_ids_for(&mint(&writer_store, 0..32)).unwrap();
    let target = endpoint.split_shard(0).unwrap();
    let moved = *writer
        .global_ids_for(&mint(&writer_store, 32..232))
        .unwrap()
        .last()
        .unwrap();
    assert!(moved.0 >= endpoint.class_table(0).tail().lo_gid);
    endpoint.crash_primary(target);

    let r = ClientResilience::default();
    for call in 1..=r.breaker_threshold {
        let unreachable = reader.taint_for(moved);
        assert!(matches!(unreachable, Err(TaintMapError::Net(_))));
        assert_eq!(reader.stats().retries, u64::from(call * r.retry_budget));
    }
    assert_eq!(reader.stats().breaker_opens, 1);
    assert_eq!(
        reader.taint_for(moved),
        Err(TaintMapError::ShardUnavailable(0))
    );
    endpoint.shutdown();
}
