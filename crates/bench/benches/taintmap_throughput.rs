//! The Taint Map as a single-point bottleneck (§III-D: "the limit on
//! the throughput of Taint Map may cause performance degradation … our
//! evaluation shows the performance degradation is acceptable") — and
//! the two levers this reproduction adds against it.
//!
//! Two benchmark groups:
//!
//! * `service_delay_us` — the original ablation: vary the service's
//!   per-frame delay; because each distinct taint is registered and
//!   resolved exactly once, even a slow service barely moves end-to-end
//!   time.
//! * `concurrent_clients` — the scaling comparison: several client
//!   threads register and resolve many distinct taints against (a) a
//!   single server with **one call per item** (`global_id_for` /
//!   `taint_for`: one `REGISTER`/`LOOKUP` frame of one item each, the
//!   paper's deployment), (b) a single server with **one call per
//!   buffer** (`global_ids_for` / `taints_for`: all items batched in
//!   one frame), and (c) a **4-shard** deployment with one call per
//!   buffer. The wire protocol is the same in all three; the throttle
//!   is charged per frame, so batching amortizes it and sharding
//!   parallelizes what remains.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dista_core::{Cluster, Mode};
use dista_microbench::{all_cases, run_case_on};
use dista_simnet::SimNet;
use dista_taint::{LocalId, TagValue, Taint, TaintStore};
use dista_taintmap::{TaintMapClient, TaintMapConfig, TaintMapEndpoint, TaintMapTopology};

const SIZE: usize = 16 * 1024;

fn bench_throttle(c: &mut Criterion) {
    let cases = all_cases();
    let raw = &cases[0];
    let mut group = c.benchmark_group("taintmap_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for delay_us in [0u64, 200, 1000] {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("tm", 2)
            .taint_map_endpoint(TaintMapEndpoint::builder().config(TaintMapConfig {
                service_delay: Duration::from_micros(delay_us),
                ..Default::default()
            }))
            .build()
            .expect("cluster");
        group.bench_with_input(
            BenchmarkId::new("service_delay_us", delay_us),
            &cluster,
            |b, cluster| {
                b.iter(|| {
                    run_case_on(raw.as_ref(), cluster.vm(0), cluster.vm(1), SIZE).expect("case")
                });
            },
        );
        cluster.shutdown();
    }
    group.finish();
}

static NEXT_VM: AtomicU32 = AtomicU32::new(1);

/// One client thread's work: register `n` fresh distinct taints, then
/// resolve all of them from a second, cache-cold VM.
fn client_workload(net: &SimNet, topology: &TaintMapTopology, n: usize, batched: bool) {
    let id = NEXT_VM.fetch_add(1, Ordering::Relaxed);
    let store = TaintStore::new(LocalId::new([10, 0, 1, (id % 200) as u8], id));
    let writer = TaintMapClient::connect_topology(net, topology.clone(), store.clone())
        .expect("writer connect");
    let taints: Vec<Taint> = (0..n as i64)
        .map(|i| store.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = if batched {
        writer.global_ids_for(&taints).expect("register batch")
    } else {
        taints
            .iter()
            .map(|&t| writer.global_id_for(t).expect("register"))
            .collect()
    };

    let id = NEXT_VM.fetch_add(1, Ordering::Relaxed);
    let store2 = TaintStore::new(LocalId::new([10, 0, 2, (id % 200) as u8], id));
    let reader =
        TaintMapClient::connect_topology(net, topology.clone(), store2).expect("reader connect");
    if batched {
        let resolved = reader.taints_for(&gids).expect("lookup batch");
        assert_eq!(resolved.len(), n);
    } else {
        for &gid in &gids {
            reader.taint_for(gid).expect("lookup");
        }
    }
}

fn run_concurrent(net: &SimNet, topology: &TaintMapTopology, clients: usize, batched: bool) {
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| client_workload(net, topology, 48, batched));
        }
    });
}

fn bench_shards_and_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("taintmap_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    // A visible fixed per-frame cost: what batching amortizes and
    // sharding parallelizes.
    let config = TaintMapConfig {
        service_delay: Duration::from_micros(50),
        ..Default::default()
    };
    for (label, shards, batched) in [
        ("call_per_item_1shard", 1usize, false),
        ("batched_1shard", 1, true),
        ("batched_4shards", 4, true),
    ] {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder()
            .shards(shards)
            .config(config)
            .connect(&net)
            .expect("endpoint");
        let topology = endpoint.topology();
        group.bench_with_input(
            BenchmarkId::new("concurrent_clients", label),
            &topology,
            |b, topology| {
                b.iter(|| run_concurrent(&net, topology, 4, batched));
            },
        );
        endpoint.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_throttle, bench_shards_and_batching);
criterion_main!(benches);
