//! The ingest → store → analyze pipeline: RocketMQ feeds HBase feeds
//! MapReduce, with one taint trace spanning all three.
//!
//! Per-record source taints are minted at a RocketMQ producer
//! (`RocketMQProducer.createMessage`), carried through the broker to a
//! bridge consumer that writes each record into an HBase table, and
//! finally picked up by a MapReduce WordCount job that scans the table
//! and sinks at `YarnClient.getApplicationReport`. Every boundary is a
//! real wire crossing on the simulated network, so the taints only
//! survive if the instrumented codec re-encodes them — exactly the
//! paper's cross-application claim.
//!
//! The harness is chaos-tolerant: every network-facing call retries
//! with [`dista_core::Cluster::poll_chaos`] interleaved, clients
//! reconnect after connection loss, the bridge holds the in-flight
//! message across failed puts and dedupes broker re-deliveries by
//! message id onto idempotent row keys. A seeded
//! [`broker_outage_plan`] crashes the broker and Taint Map shard 0 the
//! moment the store leg begins and heals both a fixed number of
//! workload operations later.

use std::collections::BTreeSet;

use dista_core::{Cluster, DistaError, FaultPlan, Mode, WireProtocol};
use dista_hbase::{HMaster, HTable, RegionServer};
use dista_jre::{JreError, Vm};
use dista_mapreduce::run_wordcount_job;
use dista_obs::ObsConfig;
use dista_rocketmq::{BrokerServer, MqConsumer, MqProducer, NameServer, PRODUCER_CLASS};
use dista_simnet::FaultAction::{CrashShard, Isolate, Rejoin, RestartShard};
use dista_simnet::{LinkIp, NodeAddr, SimFs};
use dista_taint::{TagValue, Taint, TaintedBytes};
use dista_taintmap::TaintMapEndpoint;
use dista_zookeeper::{ZkClient, ZkEnsemble, ZkEnsembleConfig};

use super::{STAGE_ANALYZE, STAGE_INGEST, STAGE_STORE};

/// Topic the producers publish to and the bridge consumes from.
pub const TOPIC: &str = "PipelineTopic";
/// Table the bridge writes into and the WordCount job scans.
pub const TABLE: &str = "records";

/// The RocketMQ broker's node, whose isolation is its crash.
const BROKER_IP: LinkIp = [10, 0, 0, 2];

/// Retry budget for each chaos-tolerant step. Failed operations
/// advance the fault engine's step clock, so scheduled heals always
/// land within a bounded number of retries.
const MAX_ATTEMPTS: usize = 400;

/// Configuration for one ingest-pipeline run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Tracking mode for every VM.
    pub mode: Mode,
    /// Wire-protocol policy (v2 gives exact span-paired provenance,
    /// v1 leaves only the inferred reconstruction).
    pub wire: WireProtocol,
    /// Optional seeded chaos schedule (see [`broker_outage_plan`]).
    pub chaos: Option<FaultPlan>,
    /// Number of records pushed through the pipeline.
    pub records: usize,
}

impl IngestConfig {
    /// A small clean-run configuration on the v2 wire.
    pub fn new(mode: Mode) -> Self {
        IngestConfig {
            mode,
            wire: WireProtocol::V2,
            chaos: None,
            records: 6,
        }
    }
}

/// What one pipeline run produced, with the cluster still alive so
/// callers can reconstruct provenance from its flight recorders.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The cluster, post-run (all mini-system servers shut down).
    pub cluster: Cluster,
    /// Tag value of each record's source taint (`record:{i}`).
    pub record_tags: Vec<String>,
    /// Taint handle of each record, valid in the producer VM's store.
    pub record_taints: Vec<Taint>,
    /// Global ID each record's taint registered under (0 = never
    /// crossed a boundary / not tracked).
    pub record_gids: Vec<u32>,
    /// Tags observed at the final MapReduce sink.
    pub sink_tags: Vec<String>,
    /// Rows the analyze leg scanned out of HBase.
    pub rows_scanned: usize,
    /// Distinct words the WordCount job reported.
    pub distinct_words: usize,
    /// Chaos-induced retries across all legs (0 on clean runs).
    pub retries: u64,
    /// Degraded gid lookups still unresolved at the end (0 after heal).
    pub pending_after: usize,
}

/// The flagship seeded chaos schedule: the RocketMQ broker and Taint
/// Map shard 0 both crash the instant the store leg begins; the shard
/// heals 12 workload operations later and the broker 24, both well
/// inside the bridge's retry budget.
pub fn broker_outage_plan(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed)
        .after_stage(STAGE_STORE, 0, Isolate { ip: BROKER_IP })
        .after_stage(STAGE_STORE, 0, CrashShard { shard: 0 })
        .after_stage(STAGE_STORE, 12, RestartShard { shard: 0 })
        .after_stage(STAGE_STORE, 24, Rejoin { ip: BROKER_IP })
        .build()
}

/// The combined source/sink specification of all three systems: the
/// RocketMQ producer/consumer pair, the HBase table-name/get pair, and
/// the MapReduce application pair.
pub fn pipeline_spec() -> dista_taint::SourceSinkSpec {
    use dista_taint::MethodDesc;
    let mut spec = dista_taint::SourceSinkSpec::new();
    spec.add_source(MethodDesc::new(PRODUCER_CLASS, "createMessage"))
        .add_sink(MethodDesc::new(
            dista_rocketmq::CONSUMER_CLASS,
            "consumeMessage",
        ))
        .add_source(MethodDesc::new(dista_hbase::HTABLE_CLASS, "tableName"))
        .add_sink(MethodDesc::new(dista_hbase::HTABLE_CLASS, "getResult"))
        .add_source(MethodDesc::new(
            dista_mapreduce::YARN_CLIENT_CLASS,
            "createApplication",
        ))
        .add_sink(MethodDesc::new(
            dista_mapreduce::YARN_CLIENT_CLASS,
            "getApplicationReport",
        ));
    spec
}

fn build_cluster(cfg: &IngestConfig) -> Result<Cluster, DistaError> {
    let mut builder = Cluster::builder(cfg.mode)
        .node("mq-ns", [10, 0, 0, 1])
        .node("mq-broker", BROKER_IP)
        .node("mq-producer", [10, 0, 0, 3])
        .node("mq-bridge", [10, 0, 0, 4])
        .node("zk-1", [10, 0, 0, 5])
        .node("zk-2", [10, 0, 0, 6])
        .node("zk-3", [10, 0, 0, 7])
        .node("hb-master", [10, 0, 0, 8])
        .node("hb-rs1", [10, 0, 0, 9])
        .node("mr-rm", [10, 0, 0, 10])
        .node("mr-nm1", [10, 0, 0, 11])
        .node("mr-client", [10, 0, 0, 12])
        .spec(pipeline_spec())
        .wire_protocol(cfg.wire)
        .observability(ObsConfig {
            ring_capacity: 65_536,
        })
        .taint_map_endpoint(TaintMapEndpoint::builder().snapshots(SimFs::new()));
    if let Some(plan) = &cfg.chaos {
        builder = builder.chaos(plan.clone());
    }
    builder.build()
}

fn vm(cluster: &Cluster, name: &str) -> Vm {
    cluster
        .vm_named(name)
        .unwrap_or_else(|| panic!("pipeline cluster has no node {name:?}"))
        .clone()
}

/// Runs the full ingest → store → analyze pipeline under `cfg`.
///
/// # Errors
///
/// Standup failures, or a leg exhausting its retry budget under chaos.
pub fn run_ingest(cfg: &IngestConfig) -> Result<IngestOutcome, DistaError> {
    let mut cluster = build_cluster(cfg)?;
    let n = cfg.records;
    let mut retries: u64 = 0;

    let ns_vm = vm(&cluster, "mq-ns");
    let broker_vm = vm(&cluster, "mq-broker");
    let producer_vm = vm(&cluster, "mq-producer");
    let bridge_vm = vm(&cluster, "mq-bridge");
    let zk_vms = vec![
        vm(&cluster, "zk-1"),
        vm(&cluster, "zk-2"),
        vm(&cluster, "zk-3"),
    ];
    let master_vm = vm(&cluster, "hb-master");
    let rs_vm = vm(&cluster, "hb-rs1");
    let mr_vms = vec![
        vm(&cluster, "mr-rm"),
        vm(&cluster, "mr-nm1"),
        vm(&cluster, "mr-client"),
    ];
    let client_vm = mr_vms[2].clone();

    // Standup (not a pipeline stage; stage-keyed chaos waits for marks).
    dista_rocketmq::seed_config(&broker_vm, "pipeline-broker");
    let ns = NameServer::start(&ns_vm, NodeAddr::new([10, 0, 0, 1], 9876))?;
    let broker = BrokerServer::start(&broker_vm, NodeAddr::new(BROKER_IP, 10911), &[TOPIC])?;
    broker.register_with(ns.addr())?;

    let ensemble = ZkEnsemble::start(&zk_vms, ZkEnsembleConfig::default())?;
    dista_hbase::seed_config(&rs_vm, "hb-rs1");
    let rs = RegionServer::start(&rs_vm, NodeAddr::new(rs_vm.ip(), 16020))?;
    let zk = ZkClient::connect(&rs_vm, ensemble.any_client_addr())
        .map_err(|_| JreError::Protocol("zk connect failed"))?;
    rs.register_in_zk(&zk, 0)?;
    zk.close();
    let master = HMaster::start(&master_vm, ensemble.any_client_addr())
        .map_err(|_| JreError::Protocol("master start failed"))?;
    let servers = master.wait_for_region_servers(1)?;
    master.assign_tables(&[TABLE], &servers)?;

    // ── Stage 1: ingest — producers mint per-record taints and publish.
    cluster.record_pipeline_stage("mq-producer", STAGE_INGEST, n as u64);
    cluster.poll_chaos()?;
    let mut producer = MqProducer::start(&producer_vm, ns.addr(), TOPIC)?;
    let mut record_tags = Vec::with_capacity(n);
    let mut record_taints = Vec::with_capacity(n);
    for i in 0..n {
        let tag = format!("record:{i}");
        let taint = producer_vm.source_point(PRODUCER_CLASS, "createMessage", TagValue::str(&tag));
        let body = TaintedBytes::uniform(format!("rec{i} common").into_bytes(), taint);
        let mut attempts = 0;
        loop {
            match producer.send(TOPIC, body.clone()) {
                Ok(_) => break,
                Err(e) => {
                    attempts += 1;
                    if attempts > MAX_ATTEMPTS {
                        return Err(e.into());
                    }
                    retries += 1;
                    cluster.poll_chaos()?;
                    if let Ok(p) = MqProducer::start(&producer_vm, ns.addr(), TOPIC) {
                        producer = p;
                    }
                }
            }
        }
        record_tags.push(tag);
        record_taints.push(taint);
    }
    producer.close();

    // ── Stage 2: store — the bridge drains the topic into HBase. The
    // broker outage plan crashes the broker and shard 0 right here.
    cluster.record_pipeline_stage("mq-bridge", STAGE_STORE, n as u64);
    cluster.poll_chaos()?;
    let mut consumer = connect_consumer(&mut cluster, &bridge_vm, ns.addr(), &mut retries)?;
    let mut table = open_table(
        &mut cluster,
        &bridge_vm,
        ensemble.any_client_addr(),
        &mut retries,
    )?;
    let mut stored: BTreeSet<i64> = BTreeSet::new();
    let mut inflight = None;
    // Only iterations that made no progress count against the budget
    // (a pull or put error, or an empty pull), as in the producer loop.
    let mut failed = 0;
    while stored.len() < n {
        if failed > MAX_ATTEMPTS {
            return Err(DistaError::Config(format!(
                "bridge retry budget exhausted with {}/{n} records stored",
                stored.len()
            )));
        }
        if inflight.is_none() {
            match consumer.try_pull() {
                Ok(found) => inflight = found,
                Err(_) => {
                    failed += 1;
                    retries += 1;
                    cluster.poll_chaos()?;
                    // Reconnect re-pulls from offset 0; `stored` dedupes.
                    if let Ok(c) = MqConsumer::start(&bridge_vm, ns.addr(), TOPIC) {
                        consumer = c;
                    }
                    continue;
                }
            }
        }
        let Some(msg) = &inflight else {
            failed += 1;
            continue;
        };
        if stored.contains(&msg.msg_id) {
            inflight = None;
            continue;
        }
        let row = format!("rec{:06}", msg.msg_id);
        match table.put(row.as_bytes(), msg.body.clone()) {
            Ok(()) => {
                stored.insert(msg.msg_id);
                inflight = None;
            }
            Err(_) => {
                failed += 1;
                retries += 1;
                cluster.poll_chaos()?;
                if let Ok(t) = HTable::open(&bridge_vm, ensemble.any_client_addr(), TABLE) {
                    table = t;
                }
            }
        }
    }
    consumer.close();
    table.close();

    // Drain degraded gid lookups before the analyze leg: each
    // reconcile round-trip advances the step clock, so a scheduled
    // shard heal that has not fired yet fires here.
    let mut drain = 0;
    loop {
        cluster.poll_chaos()?;
        if cluster.pending_gids() == 0 {
            break;
        }
        let _ = cluster.reconcile_pending();
        drain += 1;
        if drain > MAX_ATTEMPTS {
            break; // leave the sentinels; callers assert on pending_after
        }
    }

    // ── Stage 3: analyze — WordCount over a scan of the whole table.
    cluster.record_pipeline_stage("mr-client", STAGE_ANALYZE, n as u64);
    cluster.poll_chaos()?;
    let table = open_table(
        &mut cluster,
        &client_vm,
        ensemble.any_client_addr(),
        &mut retries,
    )?;
    let cells = table.scan(b"", b"")?;
    table.close();
    let mut input = TaintedBytes::from_plain(Vec::new());
    for cell in &cells {
        input.extend_tainted(&cell.value);
        input.extend_plain(b"\n");
    }
    let wc = run_wordcount_job(&mr_vms, input, 2, 2)?;

    master.shutdown();
    rs.shutdown();
    ensemble.shutdown();
    broker.shutdown();
    ns.shutdown();

    let record_gids = record_taints
        .iter()
        .map(|&t| {
            producer_vm
                .taint_map()
                .and_then(|c| c.cached_gid_for(t))
                .map(|g| g.0)
                .unwrap_or(0)
        })
        .collect();
    let sink_tags = client_vm.store().tag_values(wc.sink_taint);
    let pending_after = cluster.pending_gids();
    Ok(IngestOutcome {
        cluster,
        record_tags,
        record_taints,
        record_gids,
        sink_tags,
        rows_scanned: cells.len(),
        distinct_words: wc.report.word_counts.len(),
        retries,
        pending_after,
    })
}

fn connect_consumer(
    cluster: &mut Cluster,
    vm: &Vm,
    ns: NodeAddr,
    retries: &mut u64,
) -> Result<MqConsumer, DistaError> {
    let mut attempts = 0;
    loop {
        match MqConsumer::start(vm, ns, TOPIC) {
            Ok(c) => return Ok(c),
            Err(e) => {
                attempts += 1;
                if attempts > MAX_ATTEMPTS {
                    return Err(e.into());
                }
                *retries += 1;
                cluster.poll_chaos()?;
            }
        }
    }
}

fn open_table(
    cluster: &mut Cluster,
    vm: &Vm,
    zk: NodeAddr,
    retries: &mut u64,
) -> Result<HTable, DistaError> {
    let mut attempts = 0;
    loop {
        match HTable::open(vm, zk, TABLE) {
            Ok(t) => return Ok(t),
            Err(e) => {
                attempts += 1;
                if attempts > MAX_ATTEMPTS {
                    return Err(e.into());
                }
                *retries += 1;
                cluster.poll_chaos()?;
            }
        }
    }
}
