//! Cluster-level chaos: a seeded `FaultPlan` drives partitions and a
//! primary crash through a live workload. The same seed must replay the
//! same fault schedule bit-for-bit (determinism witness: the applied
//! fault log and the chaos event stream), and degraded mode must stay
//! sound — every delivered byte either carries its real taint or a
//! `pending-gid` sentinel that reconciles after heal, never a silent
//! clean.

use std::time::Duration;

use dista_repro::core::{Cluster, DistaError, FaultPlan, Mode};
use dista_repro::jre::{InputStream, OutputStream, ServerSocket, Socket};
use dista_repro::obs::{ObsConfig, ObsEventKind};
use dista_repro::simnet::FaultAction::{
    self, CrashShard, Heal, Isolate, Partition, Rejoin, Reset, RestartShard,
};
use dista_repro::simnet::{FaultConfig, NetError, NodeAddr, SimFs, SimNet};
use dista_repro::taint::{Payload, TagValue, TaintedBytes};
use dista_repro::taintmap::{TaintMapEndpoint, TaintMapError};

const RX_IP: [u8; 4] = [10, 0, 0, 2];
const TM_IP: [u8; 4] = [10, 0, 0, 99];
/// Where a Taint Map server dials its followers from.
const LOOPBACK: [u8; 4] = [127, 0, 0, 1];

/// Everything two runs of the same seed must agree on.
#[derive(Debug, PartialEq, Eq)]
struct ChaosWitness {
    fault_log: Vec<String>,
    chaos_events: Vec<String>,
    degraded_gids: Vec<u32>,
    replayed: u64,
}

/// Stands up a 2-node cluster under a seeded schedule: the receiver is
/// cut off from every Taint Map shard at step 1, the shard 0 primary is
/// crashed and restarted from its snapshot mid-run, and the link heals
/// late. Eight request rounds flow through the whole arc.
fn run_chaos_scenario(seed: u64) -> ChaosWitness {
    let plan = FaultPlan::builder(seed)
        .at(
            1,
            Partition {
                from: RX_IP,
                to: TM_IP,
            },
        )
        .at(
            1,
            Partition {
                from: TM_IP,
                to: RX_IP,
            },
        )
        .at(8, CrashShard { shard: 0 })
        .at(8, RestartShard { shard: 0 })
        .at(
            24,
            Heal {
                from: RX_IP,
                to: TM_IP,
            },
        )
        .at(
            24,
            Heal {
                from: TM_IP,
                to: RX_IP,
            },
        )
        .build();
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("c", 2)
        .observability(ObsConfig::default())
        .taint_map_endpoint(TaintMapEndpoint::builder().snapshots(SimFs::new()))
        .chaos(plan)
        .build()
        .unwrap();
    let (tx, rx) = (cluster.vm(0).clone(), cluster.vm(1).clone());

    for round in 0..8u16 {
        let addr = NodeAddr::new(RX_IP, 7100 + round);
        let server = ServerSocket::bind(&rx, addr).unwrap();
        let out = Socket::connect(&tx, addr).unwrap();
        let conn = server.accept().unwrap();
        let taint = tx
            .store()
            .mint_source_taint(TagValue::str(format!("r{round}")));
        out.output_stream()
            .write(&Payload::Tainted(TaintedBytes::uniform(b"chaos!", taint)))
            .unwrap();
        let got = conn.input_stream().read_exact(6).unwrap();
        assert_eq!(got.data(), b"chaos!");

        // Soundness: delivered bytes are never silently clean. Under a
        // healthy link they carry the round's tag; under a cut they
        // carry that gid's pending sentinel.
        let tags = rx.store().tag_values(got.taint_union(rx.store()));
        assert_eq!(tags.len(), 1, "round {round} delivered untagged bytes");
        assert!(
            tags[0] == format!("r{round}") || tags[0].starts_with("pending-gid:"),
            "round {round} carried an unrelated tag: {tags:?}"
        );
        cluster.poll_chaos().unwrap();
    }

    // Heal (idempotent if the scheduled heal already fired) and drain
    // the pending backlog through the breaker's probe window.
    for (from, to) in [(RX_IP, TM_IP), (TM_IP, RX_IP)] {
        cluster.net().inject(Heal { from, to });
    }
    for _ in 0..64 {
        if cluster.pending_gids() == 0 {
            break;
        }
        cluster.reconcile_pending().unwrap();
    }
    cluster.poll_chaos().unwrap();
    assert_eq!(cluster.pending_gids(), 0, "sentinels must drain after heal");

    let fault_log: Vec<String> = cluster
        .net()
        .fault_log()
        .iter()
        .map(|a| format!("step {}: {:?}", a.step, a.action))
        .collect();
    let mut degraded_gids = Vec::new();
    let mut replayed_total = 0;
    let chaos_events: Vec<String> = cluster
        .obs_events()
        .iter()
        .filter_map(|e| match &e.kind {
            ObsEventKind::FaultInjected { fault } => Some(format!("inject {fault}")),
            ObsEventKind::ShardCrashed { shard } => Some(format!("crash shard {shard}")),
            ObsEventKind::ShardRestarted { shard, replayed } => {
                replayed_total += *replayed;
                Some(format!("restart shard {shard} replayed {replayed}"))
            }
            ObsEventKind::DegradedLookup { gid, shard } => {
                degraded_gids.push(*gid);
                Some(format!("degraded gid {gid} shard {shard}"))
            }
            ObsEventKind::PendingResolved { gid, .. } => Some(format!("resolved gid {gid}")),
            _ => None,
        })
        .collect();

    // Every pending hop in the provenance of a degraded gid must be
    // closed by a reconciled resolution — the §4c soundness condition.
    for &gid in &degraded_gids {
        let trace = cluster.provenance(gid);
        assert!(trace.pending_hops() >= 1, "gid {gid} lost its pending hop");
        assert!(
            trace.pending_all_resolved(),
            "gid {gid} still pending after heal: {trace}"
        );
    }

    // The resilience counters surface in the metrics dump.
    let dump = cluster.metrics_dump();
    assert!(dump.counter_total("taintmap_degraded_lookups") as usize >= degraded_gids.len());
    assert!(dump.counter_total("taintmap_pending_resolved") as usize >= degraded_gids.len());
    assert!(dump.counter_total("taintmap_retries") > 0);
    assert_eq!(
        dump.gauge_value("taintmap_pending_gids", &[("node", "c2")]),
        Some(0.0)
    );

    cluster.shutdown();
    ChaosWitness {
        fault_log,
        chaos_events,
        degraded_gids,
        replayed: replayed_total,
    }
}

#[test]
fn same_seed_replays_an_identical_fault_schedule() {
    // ci.sh runs this suite under several fixed seeds.
    let seed = std::env::var("DISTA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let first = run_chaos_scenario(seed);

    // The schedule actually did something in every dimension.
    assert!(
        first.fault_log.iter().any(|l| l.contains("Partition")),
        "partition applied: {:?}",
        first.fault_log
    );
    assert!(
        first
            .chaos_events
            .iter()
            .any(|e| e.starts_with("crash shard")),
        "primary crashed: {:?}",
        first.chaos_events
    );
    assert!(
        first
            .chaos_events
            .iter()
            .any(|e| e.starts_with("restart shard")),
        "primary restarted: {:?}",
        first.chaos_events
    );
    assert!(
        first.replayed > 0,
        "the restarted primary replayed its snapshot"
    );
    assert!(
        !first.degraded_gids.is_empty(),
        "the cut produced degraded lookups"
    );

    // Determinism: a second run of the same seed produces the same
    // applied-fault log and the same chaos event sequence.
    let second = run_chaos_scenario(seed);
    assert_eq!(first, second, "chaos schedule must be replayable");
}

/// Witness for the raw-SimNet determinism check: everything the logical
/// step clock and the delivered bytes can disagree on between runs.
#[derive(Debug, PartialEq, Eq)]
struct SimnetWitness {
    fault_log: Vec<String>,
    final_step: u64,
    outcomes: Vec<String>,
    delivered: Vec<u8>,
    udp_dropped: u64,
}

/// Runs a fixed scripted workload against a seeded `FaultPlan` at the
/// raw SimNet level, on one thread: the `FaultEngine` step clock only
/// advances on connects/writes/sends, so the witness is a function of
/// the seed alone.
fn run_simnet_chaos(seed: u64) -> SimnetWitness {
    let client_ip = [10, 0, 1, 1];
    let server_ip = [10, 0, 1, 2];
    let net = SimNet::with_faults(FaultConfig {
        udp_drop_probability: 0.3,
        seed,
        block_timeout: Duration::from_millis(200),
        ..Default::default()
    });
    net.install_fault_plan(
        FaultPlan::builder(seed)
            .at(
                6,
                Partition {
                    from: client_ip,
                    to: server_ip,
                },
            )
            .at(
                14,
                Heal {
                    from: client_ip,
                    to: server_ip,
                },
            )
            .at(
                20,
                Reset {
                    a: client_ip,
                    b: server_ip,
                },
            )
            .build(),
    );

    let server_addr = NodeAddr::new(server_ip, 7500);
    let listener = net.tcp_listen(server_addr).unwrap();
    let udp_rx = net.udp_bind(NodeAddr::new(server_ip, 7501)).unwrap();
    let udp_tx = net.udp_bind(NodeAddr::new(client_ip, 7501)).unwrap();

    let mut outcomes = Vec::new();
    let mut delivered = Vec::new();
    for round in 0..12u32 {
        // One datagram per round: advances the step clock and draws from
        // the seeded drop RNG.
        udp_tx.send_to(udp_rx.local_addr(), &round.to_be_bytes());
        let client = match net.tcp_connect_from(client_ip, server_addr) {
            Ok(c) => c,
            Err(e) => {
                outcomes.push(format!("r{round} connect: {e}"));
                continue;
            }
        };
        let served = listener.accept().unwrap();
        let msg = format!("round-{round}");
        if let Err(e) = client.write(msg.as_bytes()) {
            outcomes.push(format!("r{round} write: {e}"));
            continue;
        }
        let mut buf = [0u8; 32];
        match served.read(&mut buf) {
            Ok(n) => {
                delivered.extend_from_slice(&buf[..n]);
                outcomes.push(format!("r{round} ok {n}"));
            }
            Err(e) => outcomes.push(format!("r{round} read: {e}")),
        }
    }

    let fault_log = net
        .fault_log()
        .iter()
        .map(|a| format!("step {}: {:?}", a.step, a.action))
        .collect();
    SimnetWitness {
        fault_log,
        final_step: net.fault_step(),
        outcomes,
        delivered,
        udp_dropped: net.metrics().snapshot().udp_dropped,
    }
}

#[test]
fn blocking_reads_replay_the_same_fault_schedule() {
    let seed = std::env::var("DISTA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let first = run_simnet_chaos(seed);

    // The schedule actually bit: at least one round failed mid-run and
    // at least one recovered after the heal.
    assert!(
        first.outcomes.iter().any(|o| o.contains("connect:")),
        "partition never blocked a connect: {:?}",
        first.outcomes
    );
    assert!(
        first.fault_log.iter().any(|l| l.contains("Partition")),
        "{:?}",
        first.fault_log
    );

    assert_eq!(first, run_simnet_chaos(seed), "replay diverged");
}

#[test]
fn reshard_survives_crash_during_migration() {
    let seed = std::env::var("DISTA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("r", 2)
        .observability(ObsConfig::default())
        .taint_map_endpoint(
            TaintMapEndpoint::builder()
                .shards(2)
                .snapshots(SimFs::new()),
        )
        .build()
        .unwrap();
    let taints: Vec<_> = (0..96)
        .map(|i| cluster.vm(0).store().mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = cluster
        .vm(0)
        .taint_map()
        .unwrap()
        .global_ids_for(&taints)
        .unwrap();

    // Arm the schedule relative to the live step clock so both cuts
    // land inside a copy's own writes. A split server dials its target
    // from 127.0.0.1, so a reset of that link to the Taint Map cuts the
    // copy. The first cut fails class 0's split as its data frame is
    // shipped, and shard 0, its source, crashes with it; the second cuts
    // class 1's split and crashes its target, split server 3.
    let step = cluster.net().fault_step();
    let cut = Reset {
        a: LOOPBACK,
        b: TM_IP,
    };
    cluster.net().install_fault_plan(
        FaultPlan::builder(seed)
            .at(step + 4, cut.clone())
            .at(step + 4, CrashShard { shard: 0 })
            .at(step + 13, cut)
            .at(step + 13, CrashShard { shard: 3 })
            .build(),
    );

    let new_servers = [
        cluster.split_shard(0).unwrap(),
        cluster.split_shard(1).unwrap(),
    ];
    assert_eq!(new_servers, [2, 3]);

    // Lossless: every pre-split gid resolves from the other VM through
    // the post-cutover topology to exactly its registration.
    let resolved = cluster
        .vm(1)
        .taint_map()
        .unwrap()
        .taints_for(&gids)
        .unwrap();
    for (i, t) in resolved.iter().enumerate() {
        assert_eq!(cluster.vm(1).store().tag_values(*t), vec![i.to_string()]);
    }

    // The arc is visible in the event stream: the scheduled crash bit a
    // migration side, the split resumed after it, and both classes cut
    // over.
    let mut crashes = 0;
    let mut heals = 0;
    let mut splits = Vec::new();
    for e in cluster.obs_events() {
        match e.kind {
            ObsEventKind::ShardCrashed { .. } => crashes += 1,
            ObsEventKind::SplitHealed { .. } => heals += 1,
            ObsEventKind::ShardSplit { class, epoch, .. } => splits.push((class, epoch)),
            _ => {}
        }
    }
    assert!(crashes >= 1, "the schedule crashed a migration side");
    assert!(heals >= 1, "the interrupted split healed");
    assert_eq!(splits, vec![(0, 1), (1, 1)]);

    // The endpoint publishes its levels under node="taintmap".
    let dump = cluster.metrics_dump();
    assert_eq!(
        dump.gauge_value("taintmap_splits_completed", &[("node", "taintmap")]),
        Some(2.0)
    );
    assert!(
        dump.gauge_value("taintmap_records_transferred", &[("node", "taintmap")])
            .unwrap()
            >= 48.0
    );

    // Compaction bounds the restart cost and surfaces its own events.
    let folded = cluster.compact_taint_map().unwrap();
    assert!(folded >= 96);
    assert!(
        cluster
            .obs_events()
            .iter()
            .any(|e| matches!(e.kind, ObsEventKind::WalCompacted { .. })),
        "compaction events recorded"
    );
    cluster.shutdown();
}

#[test]
fn crashed_vm_is_unreachable_until_restarted() {
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("w", 2)
        .observability(ObsConfig::default())
        .build()
        .unwrap();
    let (w1, w2) = (cluster.vm(0).clone(), cluster.vm(1).clone());
    let addr = NodeAddr::new(RX_IP, 7200);
    let server = ServerSocket::bind(&w2, addr).unwrap();

    let ok = Socket::connect(&w1, addr).unwrap();
    drop(server.accept().unwrap());
    drop(ok);

    cluster.net().inject(Isolate { ip: w2.ip() });
    assert!(
        Socket::connect(&w1, addr).is_err(),
        "a crashed VM must be unreachable"
    );

    cluster.net().inject(Rejoin { ip: w2.ip() });
    let back = Socket::connect(&w1, addr).unwrap();
    drop(server.accept().unwrap());
    drop(back);

    // Both injections were replayed into the chaos event stream.
    cluster.poll_chaos().unwrap();
    let faults: Vec<String> = cluster
        .obs_events()
        .iter()
        .filter_map(|e| match &e.kind {
            ObsEventKind::FaultInjected { fault } => Some(fault.clone()),
            _ => None,
        })
        .collect();
    assert!(faults.iter().any(|f| f.contains("Isolate")), "{faults:?}");
    assert!(faults.iter().any(|f| f.contains("Rejoin")), "{faults:?}");
    cluster.shutdown();
}

/// A scheduled VM crash is the `Isolate` it applies: it cuts the node
/// from its own step to the `Rejoin`, with no `poll_chaos` in between.
#[test]
fn scheduled_vm_crash_and_restart_fire_from_the_plan() {
    const CRASH: u64 = 4;
    const DOWN: u64 = 3;
    let s2_ip = [10, 0, 0, 2];
    let plan = FaultPlan::builder(9)
        .at(CRASH, Isolate { ip: s2_ip })
        .at(CRASH + DOWN, Rejoin { ip: s2_ip })
        .build();
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("s", 2)
        .observability(ObsConfig::default())
        .chaos(plan)
        .build()
        .unwrap();
    let (s1, s2) = (cluster.vm(0).clone(), cluster.vm(1).clone());
    assert_eq!(s2.ip(), s2_ip);
    let addr = NodeAddr::new(s2_ip, 7300);
    let server = ServerSocket::bind(&s2, addr).unwrap();

    // Each connect attempt is one step of the fault clock.
    let mut outcomes = Vec::new();
    while cluster.net().fault_step() < CRASH + DOWN + 2 {
        let step = cluster.net().fault_step() + 1;
        let connected = match Socket::connect(&s1, addr) {
            Ok(conn) => {
                drop(server.accept().unwrap());
                drop(conn);
                true
            }
            Err(_) => false,
        };
        assert_eq!(cluster.net().fault_step(), step, "one step per connect");
        outcomes.push((step, connected));
    }
    let expected: Vec<(u64, bool)> = (1..=CRASH + DOWN + 2)
        .map(|step| (step, !(CRASH..CRASH + DOWN).contains(&step)))
        .collect();
    assert_eq!(outcomes, expected, "down exactly on steps [crash, rejoin)");
    cluster.shutdown();
}

/// The fault log's `step N: {:?}` lines, as `Cluster::poll_chaos`
/// mirrors them into `FaultInjected` events.
fn fault_lines(net: &SimNet) -> Vec<String> {
    net.fault_log()
        .iter()
        .map(|f| format!("step {}: {:?}", f.step, f.action))
        .collect()
}

/// Same-step entries apply in insertion order; a delay-0 stage entry
/// applies at the mark; a delayed stage entry that lands on a scheduled
/// step applies after the scheduled entries of that step.
#[test]
fn applied_fault_log_is_pinned() {
    let (a, b, c) = ([10, 0, 2, 1], [10, 0, 2, 2], [10, 0, 2, 3]);
    let net = SimNet::new();
    net.install_fault_plan(
        FaultPlan::builder(3)
            .at(5, Heal { from: a, to: b })
            .at(2, Partition { from: a, to: b })
            .at(2, Partition { from: b, to: a })
            .after_stage("load", 3, Heal { from: b, to: a })
            .after_stage("load", 0, Isolate { ip: c })
            .at(5, Rejoin { ip: c })
            .build(),
    );
    // Each datagram send is one step on the fault clock.
    let (tx, rx) = ([10, 0, 2, 8], NodeAddr::new([10, 0, 2, 9], 9));
    let tick = net.udp_bind(NodeAddr::new(tx, 9)).unwrap();
    for _ in 0..2 {
        tick.send_to(rx, b"t");
    }
    net.mark_stage("load");
    net.mark_stage("load"); // a stage fires its entries once
    for _ in 0..4 {
        tick.send_to(rx, b"t");
    }
    assert_eq!(
        fault_lines(&net),
        [
            "step 2: Partition { from: [10, 0, 2, 1], to: [10, 0, 2, 2] }",
            "step 2: Partition { from: [10, 0, 2, 2], to: [10, 0, 2, 1] }",
            "step 2: Isolate { ip: [10, 0, 2, 3] }",
            "step 5: Heal { from: [10, 0, 2, 1], to: [10, 0, 2, 2] }",
            "step 5: Rejoin { ip: [10, 0, 2, 3] }",
            "step 5: Heal { from: [10, 0, 2, 2], to: [10, 0, 2, 1] }",
        ]
    );
}

/// Installs a plan of `entries` with their steps counted from the cluster's current
/// fault step, so step 0 fires at install and step 1 at the next
/// network operation.
fn install_from_now(cluster: &Cluster, entries: &[(u64, FaultAction)]) {
    let now = cluster.net().fault_step();
    let plan = entries
        .iter()
        .fold(FaultPlan::builder(11), |plan, (step, action)| {
            plan.at(now + step, action.clone())
        });
    cluster.net().install_fault_plan(plan.build());
}

/// One network operation, so the fault clock moves past `now`.
fn tick(cluster: &Cluster) {
    let from = cluster.vm(0).ip();
    let udp = cluster.net().udp_bind(NodeAddr::new(from, 7900)).unwrap();
    udp.send_to(NodeAddr::new([10, 0, 3, 9], 9), b"t");
}

#[test]
fn each_process_fault_runs_once_across_repeated_polls() {
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("p", 2)
        .observability(ObsConfig::default())
        .build()
        .unwrap();
    install_from_now(&cluster, &[(0, CrashShard { shard: 0 })]);
    for _ in 0..4 {
        cluster.poll_chaos().unwrap();
    }
    let crashes = cluster
        .obs_events()
        .iter()
        .filter(|e| matches!(e.kind, ObsEventKind::ShardCrashed { shard: 0 }))
        .count();
    assert_eq!(crashes, 1);
    cluster.restart_shard(0).unwrap();
    cluster.shutdown();
}

#[test]
fn shard_faults_with_nothing_to_crash_or_restart_are_no_ops() {
    // A plan can name a primary that is already crashed, a split server
    // not created yet, or a live primary to restart; polling each used
    // to panic the cluster.
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("q", 2)
        .observability(ObsConfig::default())
        .taint_map_endpoint(TaintMapEndpoint::builder().snapshots(SimFs::new()))
        .build()
        .unwrap();
    install_from_now(
        &cluster,
        &[
            (0, RestartShard { shard: 0 }),
            (0, CrashShard { shard: 5 }),
            (0, CrashShard { shard: 0 }),
            (0, CrashShard { shard: 0 }),
            (0, RestartShard { shard: 0 }),
            (0, RestartShard { shard: 0 }),
        ],
    );
    cluster.poll_chaos().unwrap();
    let (mut injected, mut crashed, mut restarted) = (0, 0, 0);
    for e in cluster.obs_events() {
        match e.kind {
            ObsEventKind::FaultInjected { .. } => injected += 1,
            ObsEventKind::ShardCrashed { shard: 0 } => crashed += 1,
            ObsEventKind::ShardRestarted { shard: 0, .. } => restarted += 1,
            _ => {}
        }
    }
    assert_eq!((injected, crashed, restarted), (6, 1, 1));
    assert!(!cluster.taint_map().primary_crashed(0));
    cluster.shutdown();
}

#[test]
fn a_failed_shard_restart_leaves_the_later_faults_for_the_next_poll() {
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 2)
        .observability(ObsConfig::default())
        .build()
        .unwrap();
    let n2 = cluster.vm(1).ip();
    install_from_now(
        &cluster,
        &[
            (0, CrashShard { shard: 0 }),
            (1, RestartShard { shard: 0 }),
            (1, Isolate { ip: n2 }),
        ],
    );
    cluster.poll_chaos().unwrap();

    // Something else now holds the crashed primary's address.
    let shard0 = cluster.taint_map().topology().shard_addrs(0)[0];
    let squatter = cluster.net().tcp_listen(shard0).unwrap();
    tick(&cluster);
    let err = cluster.poll_chaos().unwrap_err();
    assert!(
        matches!(
            err,
            DistaError::TaintMap(TaintMapError::Net(NetError::AddrInUse(a))) if a == shard0
        ),
        "{err}"
    );

    // The crash scheduled after the failed restart is mirrored by the
    // next poll.
    let isolations = |cluster: &Cluster| {
        cluster
            .obs_events()
            .iter()
            .filter(|e| {
                matches!(&e.kind, ObsEventKind::FaultInjected { fault } if fault.contains("Isolate"))
            })
            .count()
    };
    assert_eq!(isolations(&cluster), 0);
    cluster.poll_chaos().unwrap();
    assert_eq!(isolations(&cluster), 1);
    let last = cluster.net().fault_log().pop().unwrap();
    assert_eq!(last.action, Isolate { ip: n2 });
    drop(squatter);
    cluster.shutdown();
}
