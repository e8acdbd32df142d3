//! Chaos properties for the Taint Map: under *any* seeded partition
//! schedule, a delivered lookup result is either the correct taint or a
//! `pending-gid` sentinel that resolves to the correct taint after the
//! partition heals — never silently clean, never silently wrong. A
//! primary crashed mid-`BIND` loses nothing: every committed bind
//! replays from the write-ahead snapshot. And a primary crashed while a
//! client still holds unbound gids leases none of them again.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use dista_simnet::FaultAction::{Heal, Isolate, Partition, Rejoin, Reset};
use dista_simnet::{FaultPlan, NodeAddr, SimFs, SimNet};
use dista_taint::{GlobalId, LocalId, TagValue, Taint, TaintStore};
use dista_taintmap::{
    ClientObserver, ClientResilience, TaintMapClient, TaintMapEndpoint, TaintMapError,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Deterministic splitmix64 stream for the seeded crash schedules.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// The ≥1M-distinct-gid migration gate (`ci.sh` runs it in release via
/// `--ignored` under fixed seeds). A seed-derived schedule cuts the
/// copy at seed-chosen steps, at least once mid-copy, and crashes
/// seed-chosen sides at each cut; the split must still cut over
/// losslessly: after convergence every one of the gids — scale
/// via `DISTA_RESHARD_GIDS`, seed via `DISTA_RESHARD_SEED` — resolves
/// to exactly its registration, and mid-crash sampled lookups are
/// correct-or-pending, never wrong.
#[test]
#[ignore = "release-scale gate; ci.sh runs it with --ignored"]
fn split_one_million_gids_without_loss() {
    let env_num = |k: &str, default: u64| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let n = env_num("DISTA_RESHARD_GIDS", 1_000_000) as usize;
    let mut rng = SplitMix(env_num("DISTA_RESHARD_SEED", 7));
    const CHUNK: usize = 8192;

    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .addr(NodeAddr::new([10, 0, 0, 99], 7777))
        .shards(2)
        .snapshots(SimFs::new())
        .connect(&net)
        .unwrap();
    let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let client1 = endpoint.client(&net, store1.clone()).unwrap();
    let mut gids: Vec<GlobalId> = Vec::with_capacity(n);
    let mut minted = 0i64;
    while gids.len() < n {
        let take = CHUNK.min(n - gids.len());
        let taints: Vec<Taint> = (0..take)
            .map(|_| {
                minted += 1;
                store1.mint_source_taint(TagValue::Int(minted - 1))
            })
            .collect();
        gids.extend(client1.global_ids_for(&taints).unwrap());
    }
    // What the migration must carry is every gid the writer handed out.
    client1.flush().unwrap();

    // The loaded reader samples lookups right after every crash.
    let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
    let reader = TaintMapClient::connect_topology_tuned(
        &net,
        endpoint.topology(),
        store2.clone(),
        ClientObserver::disabled(),
        fast_resilience(),
    )
    .unwrap();

    // ~n/4 records migrate; the copy ships class 0's ~n/2 in frames of
    // 1024. Schedule three cuts at seed-chosen frame counts, counted
    // across attempts as a resumed copy starts over, with seed-chosen
    // victims. A server dials its split target from 127.0.0.1, so a
    // reset of that link cuts the copy: the dial and the lease ladder
    // take a call's first three steps of the fault clock, each frame and
    // its reply two more. The cut fails the call with the split in
    // flight; the victims crash then, and the next call restarts them.
    let total_batches = (n / 4).div_ceil(1024) as u64;
    let mut crash_at: Vec<(u64, bool, bool)> = (0..3)
        .map(|_| {
            let at = rng.next() % total_batches.max(1);
            let v = rng.next() % 3;
            (at, v != 1, v != 0) // 0 = source, 1 = target, 2 = both
        })
        .collect();
    crash_at.sort_unstable();
    let cut = Reset {
        a: [127, 0, 0, 1],
        b: [10, 0, 0, 99],
    };
    let (source, target) = (0, endpoint.server_count());
    let mut split = Err(TaintMapError::Protocol("no split yet"));
    let mut crashes = 0usize;
    let mut mid_copy = 0usize;
    let mut batches = 0;
    for (at, src, tgt) in crash_at {
        let step = net.fault_step() + 4 + 2 * (at - batches);
        batches = at;
        let plan = FaultPlan::builder(0).at(step, cut.clone());
        net.install_fault_plan(plan.build());
        let copied_before = endpoint.reshard_stats().records_transferred;
        split = endpoint.split_shard(0);
        if split.is_ok() {
            break;
        }
        let copied = endpoint.reshard_stats().records_transferred - copied_before;
        if copied > 0 && copied < endpoint.shard(source).stats().global_taints {
            mid_copy += 1;
        }
        crashes += 1;
        if src && !endpoint.primary_crashed(source) {
            endpoint.crash_primary(source);
        }
        if tgt && !endpoint.primary_crashed(target) {
            endpoint.crash_primary(target);
        }
        // Sampled mid-crash lookups: correct or pending.
        let idxs: Vec<usize> = (0..512).map(|_| (rng.next() % n as u64) as usize).collect();
        let sample: Vec<GlobalId> = idxs.iter().map(|&i| gids[i]).collect();
        let got = reader.taints_for_degraded(&sample).unwrap();
        for ((&taint, &gid), &i) in got.iter().zip(&sample).zip(&idxs) {
            let vals = store2.tag_values(taint);
            assert!(
                vals == vec![i.to_string()] || vals == vec![format!("pending-gid:{}", gid.0)],
                "mid-crash lookup of gid {} was wrong: {vals:?}",
                gid.0
            );
        }
    }
    assert_eq!(split.or_else(|_| endpoint.split_shard(0)).unwrap(), target);
    assert_eq!(endpoint.class_table(0).epoch, 1);
    assert!(
        crashes >= 1,
        "the schedule crashed the migration at least once"
    );
    assert!(mid_copy >= 1, "a cut landed mid-copy");

    // Drain the reader's pending backlog, then verify every gid
    // strictly: distinct registration in, identical resolution out.
    for _ in 0..64 {
        if reader.pending_count() == 0 {
            break;
        }
        reader.reconcile_pending().unwrap();
    }
    assert_eq!(reader.pending_count(), 0);
    for (c, chunk) in gids.chunks(CHUNK).enumerate() {
        let got = reader.taints_for(chunk).unwrap();
        for (k, (&taint, &gid)) in got.iter().zip(chunk).enumerate() {
            assert_eq!(
                store2.tag_values(taint),
                vec![(c * CHUNK + k).to_string()],
                "gid {} resolved to the wrong taint after cutover",
                gid.0
            );
        }
    }
    let transferred = endpoint.reshard_stats().records_transferred;
    assert!(
        transferred >= n as u64 / 4,
        "the migrated range covered the tail half of class 0: {transferred}"
    );
    endpoint.shutdown();
}

/// Write-behind across a crash: a client hands out gids it has not bound
/// yet (as a v2 crossing does), every shard primary crashes before the
/// binds land and restarts from its WAL. No leased id is leased to
/// another client; a reader asking before the binds land is told the
/// gid is unknown, never given a wrong taint; and once the writer's
/// queue is sent, every reader resolves every gid to its taint. The
/// writer hands out more than two leases' worth per shard, so the gids
/// still queued at the crash come from a lease granted after the WAL
/// was last folded into a snapshot. `DISTA_CHAOS_SEED` (ci.sh runs 7,
/// 42 and 1337) picks the shard count, how many gids are outstanding
/// and whether the WAL was folded first.
#[test]
fn a_shard_crash_before_the_bind_lands_loses_no_gid() {
    let seed = std::env::var("DISTA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let mut rng = SplitMix(seed);
    let shards = 1 + (rng.next() % 2) as usize;
    let outstanding = (128 + (rng.next() % 64) as i64) * shards as i64;
    let compact_first = rng.next().is_multiple_of(2);
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .addr(NodeAddr::new([10, 0, 0, 99], 7777))
        .shards(shards)
        .snapshots(SimFs::new())
        .connect(&net)
        .unwrap();
    let topology = endpoint.topology();
    let client = |host: u8| {
        let store = TaintStore::new(LocalId::new([10, 0, 0, host], host as u32));
        let client = TaintMapClient::connect_topology_tuned(
            &net,
            topology.clone(),
            store.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();
        (client, store)
    };
    let mint = |store: &TaintStore, range: std::ops::Range<i64>| -> Vec<Taint> {
        range
            .map(|i| store.mint_source_taint(TagValue::Int(i)))
            .collect()
    };

    // Some bound history, so the recovery has records as well as leases.
    let (writer, writer_store) = client(1);
    writer.global_ids_for(&mint(&writer_store, 0..4)).unwrap();
    if compact_first {
        for shard in 0..shards {
            endpoint.compact_shard(shard).unwrap();
        }
    }
    let taints = mint(&writer_store, 4..4 + outstanding);
    let (mut gids, mut defs) = (Vec::new(), Vec::new());
    writer
        .global_ids_into(&taints, &mut gids, Some(&mut defs))
        .unwrap();
    assert_eq!(
        defs.len(),
        taints.len(),
        "each gid handed out with its taint"
    );

    for shard in 0..shards {
        endpoint.crash_primary(shard);
        endpoint.restart_primary(shard).unwrap();
    }

    // No leased id is leased again: another client's gids lie elsewhere.
    let (other, other_store) = client(2);
    let theirs = other.global_ids_for(&mint(&other_store, 0..80)).unwrap();
    let ours: HashSet<GlobalId> = gids.iter().copied().collect();
    assert!(
        theirs.iter().all(|gid| !ours.contains(gid)),
        "seed {seed}: a gid leased before the crash was leased again"
    );

    // Before the binds land a reader gets the taint or "unknown".
    let (reader, reader_store) = client(3);
    let tags = |store: &TaintStore, taint| store.tag_values(taint);
    for (&gid, &taint) in gids.iter().zip(&taints) {
        match reader.taint_for(gid) {
            Ok(got) => assert_eq!(tags(&reader_store, got), tags(&writer_store, taint)),
            Err(TaintMapError::UnknownGlobalId(unknown)) => assert_eq!(unknown, gid),
            Err(e) => panic!("seed {seed}: gid {} failed: {e}", gid.0),
        }
    }

    // The queue lands on the restarted primaries; every bare reader
    // resolves every gid now.
    writer.flush().unwrap();
    let (late, late_store) = client(4);
    let resolved = late.taints_for(&gids).unwrap();
    for ((&gid, &got), &taint) in gids.iter().zip(&resolved).zip(&taints) {
        assert_eq!(
            tags(&late_store, got),
            tags(&writer_store, taint),
            "seed {seed}: gid {} resolved wrong",
            gid.0
        );
    }
    assert_eq!(
        endpoint.stats().global_taints,
        4 + outstanding as u64 + 80,
        "seed {seed}: shards {shards}, outstanding {outstanding}, compacted {compact_first}"
    );
    endpoint.shutdown();
}

/// A standby deployment, with and without a WAL, under a seeded schedule
/// of primary crash/restart flips, resets of the server-to-server link
/// (dialled from 127.0.0.1), which cut the primary's mirror, up to two
/// splits of the class and, with a WAL, one promotion of the standby.
/// Between them fresh clients hand gids out, bare (`global_ids_for`) or
/// with their definitions and then `flush`. After every flip a strict
/// v1 reader at whichever server answers resolves every gid handed out
/// so far, and no gid is ever handed out twice. `DISTA_CHAOS_SEED`
/// (ci.sh runs 7, 42 and 1337) picks the schedule.
#[test]
fn primary_standby_crash_flips_lose_no_bind() {
    let seed = std::env::var("DISTA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    for snapshots in [false, true] {
        let mut rng = SplitMix(seed);
        let net = SimNet::new();
        let tm_ip = [10, 0, 0, 99];
        let builder = TaintMapEndpoint::builder()
            .addr(NodeAddr::new(tm_ip, 7777))
            .standby(true);
        let builder = match snapshots {
            true => builder.snapshots(SimFs::new()),
            false => builder,
        };
        let mut endpoint = builder.connect(&net).unwrap();
        let mut host = 0u8;
        let mut client = |endpoint: &TaintMapEndpoint| {
            host += 1;
            let store = TaintStore::new(LocalId::new([10, 0, 1, host], host as u32));
            (endpoint.client(&net, store.clone()).unwrap(), store)
        };
        let (mut handed, mut tags): (Vec<GlobalId>, Vec<i64>) = (Vec::new(), Vec::new());
        let context = |step: usize| format!("seed {seed}, snapshots {snapshots}, step {step}");
        let mut splits = 0;
        for step in 0..24 {
            match rng.next() % 6 {
                0 => net.inject(Reset {
                    a: [127, 0, 0, 1],
                    b: tm_ip,
                }),
                1 | 2 => {
                    let (writer, store) = client(&endpoint);
                    let from = tags.len() as i64;
                    let count = 1 + (rng.next() % 40) as i64;
                    let taints: Vec<Taint> = (from..from + count)
                        .map(|i| store.mint_source_taint(TagValue::Int(i)))
                        .collect();
                    let gids = if rng.next().is_multiple_of(2) {
                        writer.global_ids_for(&taints).unwrap()
                    } else {
                        let (mut gids, mut defs) = (Vec::new(), Vec::new());
                        writer
                            .global_ids_into(&taints, &mut gids, Some(&mut defs))
                            .unwrap();
                        writer.flush().unwrap();
                        gids
                    };
                    handed.extend(gids);
                    tags.extend(from..from + count);
                }
                // A split's source serves the tail range: the base
                // primary before the first split, a split server after.
                4 if splits < 2 && (splits > 0 || !endpoint.primary_crashed(0)) => {
                    let split = endpoint.split_shard(0);
                    split.unwrap_or_else(|e| panic!("{}: {e}", context(step)));
                    splits += 1;
                }
                // Without a WAL the promoted standby would restart at
                // high-water 0, which neither log nor standby covers.
                5 if snapshots && endpoint.standby(0).is_some() && !endpoint.primary_crashed(0) => {
                    endpoint.kill_primary(0)
                }
                _ => {
                    if endpoint.primary_crashed(0) {
                        endpoint.restart_primary(0).unwrap();
                    } else {
                        endpoint.crash_primary(0);
                        // Nothing serves a shard with no standby left
                        // while it is down: it comes back at once.
                        if endpoint.standby(0).is_none() {
                            endpoint.restart_primary(0).unwrap();
                        }
                    }
                    let (reader, store) = client(&endpoint);
                    let resolved = reader.taints_for(&handed);
                    let resolved = resolved.unwrap_or_else(|e| panic!("{}: {e}", context(step)));
                    for ((&gid, &taint), tag) in handed.iter().zip(&resolved).zip(&tags) {
                        assert_eq!(
                            store.tag_values(taint),
                            vec![tag.to_string()],
                            "{}: gid {}",
                            context(step),
                            gid.0
                        );
                    }
                }
            }
            let distinct: HashSet<GlobalId> = handed.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                handed.len(),
                "{}: a gid handed out twice",
                context(step)
            );
        }
        endpoint.shutdown();
    }
}

/// Tight deadlines/backoff so partition cases spend milliseconds, not
/// the default seconds, discovering that a shard is gone.
fn fast_resilience() -> ClientResilience {
    ClientResilience {
        rpc_deadline: Duration::from_millis(50),
        retry_budget: 1,
        backoff_base: Duration::from_micros(10),
        backoff_cap: Duration::from_micros(50),
        breaker_threshold: 2,
        breaker_probe_after: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness under partitions: whatever the cut/heal steps, every
    /// degraded lookup yields the correct taint or that gid's pending
    /// sentinel, and after heal every sentinel reconciles to the taint
    /// the gid really names.
    #[test]
    fn degraded_lookups_stay_sound_under_any_partition_schedule(
        (seed, shard_count, n, cut_at, heal_after) in
            (any::<u64>(), 1usize..=3, 1usize..=16, 1u64..=40, 1u64..=40)
    ) {
        let net = SimNet::new();
        let tm_ip = [10, 0, 0, 99];
        let endpoint = TaintMapEndpoint::builder()
            .addr(NodeAddr::new(tm_ip, 7777))
            .shards(shard_count)
            .connect(&net)
            .unwrap();

        // A healthy VM registers n distinct taints up front.
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let taints: Vec<Taint> = (0..n as i64)
            .map(|i| store1.mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = client1.global_ids_for(&taints).unwrap();

        // The victim VM connects first, then the schedule cuts its link
        // to every shard at a seed-chosen step.
        let me = [10, 0, 0, 2];
        let store2 = TaintStore::new(LocalId::new(me, 2));
        let client2 = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store2.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();
        net.install_fault_plan(
            FaultPlan::builder(seed)
                .at(cut_at, Partition { from: me, to: tm_ip })
                .at(cut_at, Partition { from: tm_ip, to: me })
                .at(cut_at + heal_after, Heal { from: me, to: tm_ip })
                .at(cut_at + heal_after, Heal { from: tm_ip, to: me })
                .build(),
        );

        // Drive lookups through the schedule. Every answer must be the
        // right taint or the gid's own sentinel.
        let mut sentinels: HashMap<usize, Taint> = HashMap::new();
        for _round in 0..4 {
            let got = client2.taints_for_degraded(&gids).unwrap();
            for (i, (&taint, &gid)) in got.iter().zip(&gids).enumerate() {
                let vals = store2.tag_values(taint);
                if vals == vec![format!("pending-gid:{}", gid.0)] {
                    sentinels.insert(i, taint);
                } else {
                    prop_assert_eq!(vals, vec![i.to_string()], "wrong taint for gid {}", gid.0);
                }
            }
        }

        // Heal (idempotent if the schedule already healed) and drain the
        // pending backlog through the breaker's probe window.
        for (from, to) in [(me, tm_ip), (tm_ip, me)] {
            net.inject(Heal { from, to });
        }
        for _ in 0..32 {
            if client2.pending_count() == 0 {
                break;
            }
            client2.reconcile_pending().unwrap();
        }
        prop_assert_eq!(client2.pending_count(), 0, "backlog must drain after heal");

        // Post-heal, the strict path agrees with the registrations, and
        // every sentinel handed out earlier maps to that same taint.
        let healed = client2.taints_for(&gids).unwrap();
        for (i, &taint) in healed.iter().enumerate() {
            prop_assert_eq!(store2.tag_values(taint), vec![i.to_string()]);
        }
        for (i, sentinel) in sentinels {
            let real = client2.resolution_of(sentinel);
            prop_assert_eq!(real, Some(healed[i]), "sentinel for index {} misresolved", i);
        }
        endpoint.shutdown();
    }

    /// A partial outage: one shard's primary crashes at a chosen step of
    /// a degraded lookup sweep, each step a fresh slice of gids. Every
    /// gid of a live shard resolves to its own taint and never pends;
    /// the dead shard's gids looked up from the crash on pend, reconcile
    /// once it restarts, and every sentinel maps to the healed taint.
    #[test]
    fn one_dead_shard_pends_only_its_own_gids(
        (shard_count, victim, n, crash_at) in (2usize..=3, 0usize..3, 8usize..=32, 0usize..4)
    ) {
        let victim = victim % shard_count;
        let class = |gid: GlobalId| (gid.0 as usize - 1) % shard_count;
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .addr(NodeAddr::new([10, 0, 0, 99], 7777))
            .shards(shard_count)
            .snapshots(SimFs::new())
            .connect(&net)
            .unwrap();
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let taints: Vec<Taint> = (0..n as i64)
            .map(|i| store1.mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = client1.global_ids_for(&taints).unwrap();
        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let reader = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store2.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();

        let mut sentinels: HashMap<usize, Taint> = HashMap::new();
        let steps = 4;
        let per_step = n.div_ceil(steps);
        for step in 0..steps {
            if step == crash_at {
                endpoint.crash_primary(victim);
            }
            let from = (step * per_step).min(n);
            let to = ((step + 1) * per_step).min(n);
            let got = reader.taints_for_degraded(&gids[from..to]).unwrap();
            for (i, (&taint, &gid)) in (from..to).zip(got.iter().zip(&gids[from..to])) {
                let vals = store2.tag_values(taint);
                if step >= crash_at && class(gid) == victim {
                    prop_assert_eq!(vals, vec![format!("pending-gid:{}", gid.0)]);
                    sentinels.insert(i, taint);
                } else {
                    prop_assert_eq!(vals, vec![i.to_string()], "wrong taint for gid {}", gid.0);
                }
            }
            prop_assert!(
                reader.pending_gids().into_iter().all(|gid| class(gid) == victim),
                "a live shard's gid pends"
            );
        }

        endpoint.restart_primary(victim).unwrap();
        for _ in 0..32 {
            if reader.pending_count() == 0 {
                break;
            }
            reader.reconcile_pending().unwrap();
        }
        prop_assert_eq!(reader.pending_count(), 0, "backlog must drain after the restart");
        let healed = reader.taints_for(&gids).unwrap();
        for (i, &taint) in healed.iter().enumerate() {
            prop_assert_eq!(store2.tag_values(taint), vec![i.to_string()]);
        }
        for (i, sentinel) in sentinels {
            let real = reader.resolution_of(sentinel);
            prop_assert_eq!(real, Some(healed[i]), "sentinel for index {} misresolved", i);
        }
        endpoint.shutdown();
    }

    /// Live resharding under a crash schedule: a link reset cuts a
    /// split at a chosen step of its copy, and a stale-map client looks
    /// up every gid before and after the chosen side(s) crash. Every
    /// lookup answer is the correct taint or that gid's pending
    /// sentinel, the resumed split still cuts over, and post-cutover the strict path
    /// resolves every gid to exactly its registration — zero stale
    /// taints, zero losses.
    #[test]
    fn split_while_loaded_is_lossless_under_crash_schedule(
        (n, crash_source, crash_target, cut_at) in
            (24usize..=72, any::<bool>(), any::<bool>(), 1u64..=5)
    ) {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .addr(NodeAddr::new([10, 0, 0, 99], 7777))
            .shards(2)
            .snapshots(SimFs::new())
            .connect(&net)
            .unwrap();
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let taints: Vec<Taint> = (0..n as i64)
            .map(|i| store1.mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = client1.global_ids_for(&taints).unwrap();

        // The loaded reader: cold caches, epoch-0 shard map, tight
        // deadlines so a crashed side degrades in milliseconds.
        let me = [10, 0, 0, 2];
        let store2 = TaintStore::new(LocalId::new(me, 2));
        let reader = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store2.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();

        let mut sentinels: HashMap<usize, Taint> = HashMap::new();
        let sweep = |reader: &TaintMapClient, sentinels: &mut HashMap<usize, Taint>|
            -> Result<(), TestCaseError> {
            let got = reader.taints_for_degraded(&gids).unwrap();
            for (i, (&taint, &gid)) in got.iter().zip(&gids).enumerate() {
                let vals = store2.tag_values(taint);
                if vals == vec![format!("pending-gid:{}", gid.0)] {
                    sentinels.insert(i, taint);
                } else {
                    prop_assert_eq!(vals, vec![i.to_string()], "wrong taint for gid {}", gid.0);
                }
            }
            Ok(())
        };

        // The call's first steps are the split's own writes: the dial
        // and the lease ladder (steps 1-3), then the one data frame and
        // its reply (4 and 5). A server dials its split target from
        // 127.0.0.1, so a reset of that link at `cut_at` fails the call
        // with the split in flight.
        let cut = Reset { a: [127, 0, 0, 1], b: [10, 0, 0, 99] };
        let plan = FaultPlan::builder(0).at(net.fault_step() + cut_at, cut);
        net.install_fault_plan(plan.build());
        prop_assert!(endpoint.split_shard(0).is_err(), "the reset cut the split");
        let (source, target) = (0, endpoint.server_count() - 1);
        // Mid-crash lookups: correct or pending, never wrong.
        sweep(&reader, &mut sentinels)?;
        if crash_source {
            endpoint.crash_primary(source);
        }
        if crash_target {
            endpoint.crash_primary(target);
        }
        sweep(&reader, &mut sentinels)?;
        prop_assert_eq!(endpoint.split_shard(0).unwrap(), target);
        prop_assert_eq!(endpoint.class_table(0).epoch, 1, "the resumed split still cut over");

        // Post-cutover: drain any pending backlog through the breaker's
        // probe window, then every gid resolves strictly and correctly
        // (the stale-map reader converges via `Moved` redirects), and
        // every sentinel handed out mid-migration resolves to the same
        // taint the strict path names.
        for _ in 0..64 {
            if reader.pending_count() == 0 {
                break;
            }
            reader.reconcile_pending().unwrap();
        }
        prop_assert_eq!(reader.pending_count(), 0, "backlog must drain after cutover");
        let healed = reader.taints_for(&gids).unwrap();
        for (i, &taint) in healed.iter().enumerate() {
            prop_assert_eq!(store2.tag_values(taint), vec![i.to_string()]);
        }
        for (i, sentinel) in sentinels {
            let real = reader.resolution_of(sentinel);
            prop_assert_eq!(real, Some(healed[i]), "sentinel for index {} misresolved", i);
        }
        endpoint.shutdown();
    }

    /// Crash recovery: the primary commits every item of an in-flight
    /// register batch (backend + snapshot log) but its reply never
    /// leaves: the map's ip is isolated at the step of the reply write
    /// (the client's `BIND` frame is the next step, the reply the one
    /// after it). Restarting from the snapshot recovers all of them — a
    /// fresh VM resolves every assigned id.
    #[test]
    fn crash_mid_register_batch_loses_nothing(n in 2u64..=20) {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .snapshots(SimFs::new())
            .connect(&net)
            .unwrap();
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store1.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();
        let taints: Vec<Taint> = (0..n as i64)
            .map(|i| store1.mint_source_taint(TagValue::Int(i)))
            .collect();
        let map_ip = [10, 0, 0, 99];
        net.install_fault_plan(
            FaultPlan::builder(0)
                .at(net.fault_step() + 2, Isolate { ip: map_ip })
                .build(),
        );
        prop_assert!(
            client1.global_ids_for(&taints).is_err(),
            "the primary must die before acknowledging the batch"
        );

        endpoint.crash_primary(0);
        let replayed = endpoint.restart_primary(0).unwrap();
        net.inject(Rejoin { ip: map_ip });
        prop_assert_eq!(replayed, n, "every committed registration replays");

        // Single shard ⇒ dense ids in batch order. A cold-cache VM
        // resolves each one to the taint the crashed primary committed.
        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let gids: Vec<GlobalId> = (1..=n as u32).map(GlobalId).collect();
        let resolved = client2.taints_for(&gids).unwrap();
        for (i, &taint) in resolved.iter().enumerate() {
            prop_assert_eq!(store2.tag_values(taint), vec![i.to_string()]);
        }
        endpoint.shutdown();
    }
}
