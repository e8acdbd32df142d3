//! Durability tests for live resharding and WAL compaction: a torn
//! record *length header* truncates replay at the last complete record
//! (never a panic, never a misparse), a torn compaction generation —
//! written in the log's own records and closed by an end record holding
//! its data count — falls back to the previous one plus the untruncated
//! log, compaction bounds restart replay by the live record count, and
//! chained splits plus compaction plus crash/restart of every server lose
//! nothing.

use dista_simnet::{NodeAddr, SimFs, SimNet};
use dista_taint::{GlobalId, LocalId, TagValue, Taint, TaintStore};
use dista_taintmap::TaintMapEndpoint;

fn store(host: u8) -> TaintStore {
    TaintStore::new(LocalId::new([10, 0, 0, host], host as u32))
}

fn mint(store: &TaintStore, n: i64) -> Vec<Taint> {
    (0..n)
        .map(|i| store.mint_source_taint(TagValue::Int(i)))
        .collect()
}

/// Byte offsets where each WAL record starts, by walking the tagged
/// framing (the test re-derives the format deliberately, so a framing
/// change breaks loudly here).
fn record_starts(wal: &[u8]) -> Vec<usize> {
    const REC_DATA: u8 = 1;
    const REC_CUTOVER: u8 = 4;
    const REC_LEASE: u8 = 5;
    let mut starts = Vec::new();
    let mut at = 0usize;
    while at < wal.len() {
        starts.push(at);
        let body = match wal[at] {
            REC_DATA => {
                let len = u32::from_be_bytes([wal[at + 5], wal[at + 6], wal[at + 7], wal[at + 8]]);
                8 + len as usize
            }
            REC_CUTOVER => 18,
            REC_LEASE => 4,
            other => panic!("unknown WAL tag {other} at {at}"),
        };
        at += 1 + body;
    }
    starts
}

#[test]
fn torn_length_header_truncates_replay_at_last_complete_record() {
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    let n = 8i64;
    client.global_ids_for(&mint(&store1, n)).unwrap();

    endpoint.crash_primary(0);

    // Tear the last record — the flush's last bind; its lease record
    // went first — inside its 8-byte gid/length header: keep the tag
    // plus two header bytes, as if the crash landed mid-append.
    let wal = fs.read("taintmap/shard-0.wal").unwrap();
    let last = *record_starts(&wal).last().unwrap();
    fs.write("taintmap/shard-0.wal", wal[..last + 3].to_vec());

    let replayed = endpoint.restart_primary(0).unwrap();
    assert_eq!(replayed, n as u64 - 1, "torn tail record is dropped");

    // Every surviving registration resolves; single shard ⇒ dense gids.
    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    let gids: Vec<GlobalId> = (1..n as u32).map(GlobalId).collect();
    let resolved = client2.taints_for(&gids).unwrap();
    for (i, &t) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(t), vec![i.to_string()]);
    }
    endpoint.shutdown();
}

#[test]
fn torn_snapshot_falls_back_to_previous_generation() {
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    client.global_ids_for(&mint(&store1, 8)).unwrap();
    assert_eq!(endpoint.compact_shard(0).unwrap(), 8);

    // More registrations land in the fresh (post-truncation) log.
    let more: Vec<Taint> = (8..16)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    client.global_ids_for(&more).unwrap();

    // A crash mid-compaction leaves a half-written next generation on
    // disk — the older generation and the untruncated log still cover
    // everything, so recovery must skip the torn file, not trust it.
    let snap1 = fs.read("taintmap/shard-0.wal.snapshot-1").unwrap();
    fs.write(
        "taintmap/shard-0.wal.snapshot-2",
        snap1[..snap1.len() / 2].to_vec(),
    );

    endpoint.crash_primary(0);
    let replayed = endpoint.restart_primary(0).unwrap();
    assert_eq!(replayed, 16, "snapshot gen 1 plus the log tail recover all");
    let recovery = endpoint.shard(0).recovery();
    assert_eq!(recovery.torn_snapshots, 1, "the torn generation was seen");
    assert_eq!(recovery.snapshot_records, 8);
    assert_eq!(recovery.wal_data_records, 8);

    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    let gids: Vec<GlobalId> = (1..=16).map(GlobalId).collect();
    let resolved = client2.taints_for(&gids).unwrap();
    for (i, &t) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(t), vec![i.to_string()]);
    }
    endpoint.shutdown();
}

/// A generation whose records are all intact but whose end record lies
/// about their count (`0xFFFF_FFFF` for 8 records) is a torn generation
/// like any other. Nothing is sized from the count, so it costs no large
/// allocation either.
#[test]
fn snapshot_with_a_lying_record_count_falls_back_to_the_previous_generation() {
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    client.global_ids_for(&mint(&store1, 8)).unwrap();
    assert_eq!(endpoint.compact_shard(0).unwrap(), 8);

    // The generation ends with its end record: tag 6, the data count.
    let mut lying = fs.read("taintmap/shard-0.wal.snapshot-1").unwrap();
    let count = lying.len() - 4;
    assert_eq!(lying[count - 1..], [6, 0, 0, 0, 8]);
    lying[count..].fill(0xFF);
    fs.write("taintmap/shard-0.wal.snapshot-2", lying);

    endpoint.crash_primary(0);
    let replayed = endpoint.restart_primary(0).unwrap();
    assert_eq!(replayed, 8, "generation 1 recovers every record");
    let recovery = endpoint.shard(0).recovery();
    assert_eq!(recovery.torn_snapshots, 1, "the lying generation was seen");
    assert_eq!(recovery.snapshot_records, 8);
    endpoint.shutdown();
}

#[test]
fn compaction_bounds_restart_replay_by_live_records() {
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    let n = 32u64;
    client.global_ids_for(&mint(&store1, n as i64)).unwrap();

    assert_eq!(endpoint.compact_shard(0).unwrap(), n);
    endpoint.crash_primary(0);
    let replayed = endpoint.restart_primary(0).unwrap();

    // The restart-cost gate: after compaction the whole recovery is the
    // snapshot — replay scans zero log records, and the snapshot holds
    // exactly the live gids.
    assert_eq!(replayed, n);
    let recovery = endpoint.shard(0).recovery();
    assert_eq!(recovery.wal_records_scanned, 0, "log was truncated");
    assert_eq!(recovery.snapshot_records, n, "snapshot = live gid count");
    endpoint.shutdown();
}

#[test]
fn chained_splits_compaction_and_restarts_lose_nothing() {
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .addr(NodeAddr::new([10, 0, 0, 99], 7777))
        .shards(2)
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    let taints = mint(&store1, 64);
    let gids = client.global_ids_for(&taints).unwrap();

    // Split class 0 twice (the second split carves the new tail again)
    // and class 1 once: 2 base shards grow to 5 servers.
    endpoint.split_shard(0).unwrap();
    endpoint.split_shard(0).unwrap();
    endpoint.split_shard(1).unwrap();
    assert_eq!(endpoint.server_count(), 5);
    let stats = endpoint.reshard_stats();
    assert_eq!(stats.splits_completed, 3);
    assert_eq!(stats.class_epochs, vec![2, 1]);

    // Compact every server, then crash and restart each one in turn.
    for i in 0..endpoint.server_count() {
        endpoint.compact_shard(i).unwrap();
    }
    for i in 0..endpoint.server_count() {
        endpoint.crash_primary(i);
        endpoint.restart_primary(i).unwrap();
        assert_eq!(
            endpoint.shard(i).recovery().wal_records_scanned,
            0,
            "server {i} restarted from its snapshot alone"
        );
    }

    // A cold client resolves every pre-split gid through the restarted,
    // thrice-split topology.
    let store2 = store(2);
    let client2 = endpoint.client(&net, store2.clone()).unwrap();
    let resolved = client2.taints_for(&gids).unwrap();
    for (i, &t) in resolved.iter().enumerate() {
        assert_eq!(store2.tag_values(t), vec![i.to_string()]);
    }
    endpoint.shutdown();
}

/// Gids a client leased before a split and binds after the cutover, above
/// the split point: the source turns the client's stale table away, the
/// client follows the new one to the target, and the target takes them
/// — it holds the source's lease high-water, so it never leases them
/// again either.
#[test]
fn leased_ids_above_the_split_point_bind_at_the_target() {
    let net = SimNet::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(SimFs::new())
        .connect(&net)
        .unwrap();
    let store1 = store(1);
    let client = endpoint.client(&net, store1.clone()).unwrap();
    let early = client.global_ids_for(&mint(&store1, 8)).unwrap();

    let target = endpoint.split_shard(0).unwrap();
    let lo_gid = endpoint.class_table(0).tail().lo_gid;
    let late: Vec<Taint> = (8..68)
        .map(|i| store1.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client.global_ids_for(&late).unwrap();
    assert!(
        gids.iter().any(|g| g.0 < lo_gid) && gids.iter().any(|g| g.0 >= lo_gid),
        "the client's lease straddles the split point {lo_gid}: {gids:?}"
    );
    assert!(
        client.stats().moved_redirects >= 1,
        "the client took the new table"
    );
    let above = gids.iter().filter(|g| g.0 >= lo_gid).count() as u64;
    assert!(endpoint.shard(target).stats().bind_requests >= above);

    // A cold reader resolves every gid through the split topology.
    let store2 = store(2);
    let reader = endpoint.client(&net, store2.clone()).unwrap();
    let all: Vec<GlobalId> = early.iter().chain(&gids).copied().collect();
    for (i, &t) in reader.taints_for(&all).unwrap().iter().enumerate() {
        assert_eq!(store2.tag_values(t), vec![i.to_string()]);
    }
    // Its own lease came from the target, above everything leased before.
    let theirs = reader
        .global_id_for(store2.mint_source_taint(TagValue::str("after")))
        .unwrap();
    assert!(theirs.0 > gids.iter().map(|g| g.0).max().unwrap());
    endpoint.shutdown();
}
