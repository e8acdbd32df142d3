//! `record_pipeline`: one op pushes one record through a long-lived
//! RocketMQ + HBase deployment — `MqProducer::send`, `MqConsumer::
//! try_pull`, `HTable::put`, `HTable::get` + its sink — on the topology
//! and node names of `dista_bench::pipeline::ingest`, stood up once so
//! stand-up cost lands in `setup_s` instead of diluting the data path.

use std::time::Instant;

use dista_core::{Cluster, ClusterBuilder, Mode, WireProtocol};
use dista_hbase::{HMaster, HTable, RegionServer, HTABLE_CLASS};
use dista_jre::{JreError, Vm};
use dista_rocketmq::{
    BrokerServer, MqConsumer, MqProducer, NameServer, CONSUMER_CLASS, PRODUCER_CLASS,
};
use dista_simnet::NodeAddr;
use dista_taint::{MethodDesc, SourceSinkSpec, TagValue, TaintedBytes};
use dista_zookeeper::{ZkClient, ZkEnsemble, ZkEnsembleConfig};

use crate::crossing::{span, Outcome};
use crate::gen::Inputs;
use crate::trace::{SpanName, Spans};

const TOPIC: &str = "PipelineTopic";
const TABLE: &str = "records";
const BODY_LEN: usize = 64;

/// The RocketMQ and HBase source/sink pairs of `pipeline_spec()`.
fn spec() -> SourceSinkSpec {
    let mut spec = SourceSinkSpec::new();
    spec.add_source(MethodDesc::new(PRODUCER_CLASS, "createMessage"))
        .add_sink(MethodDesc::new(CONSUMER_CLASS, "consumeMessage"))
        .add_source(MethodDesc::new(HTABLE_CLASS, "tableName"))
        .add_sink(MethodDesc::new(HTABLE_CLASS, "getResult"));
    spec
}

pub fn cluster_builder(mode: Mode) -> ClusterBuilder {
    Cluster::builder(mode)
        .node("mq-ns", [10, 0, 0, 1])
        .node("mq-broker", [10, 0, 0, 2])
        .node("mq-producer", [10, 0, 0, 3])
        .node("mq-bridge", [10, 0, 0, 4])
        .node("zk-1", [10, 0, 0, 5])
        .node("zk-2", [10, 0, 0, 6])
        .node("zk-3", [10, 0, 0, 7])
        .node("hb-master", [10, 0, 0, 8])
        .node("hb-rs1", [10, 0, 0, 9])
        .spec(spec())
        .wire_protocol(WireProtocol::V2)
}

/// The mini-system servers, kept to be shut down in order.
pub struct Servers {
    ns: NameServer,
    broker: BrokerServer,
    ensemble: ZkEnsemble,
    rs: RegionServer,
    master: HMaster,
}

impl Servers {
    pub fn shutdown(self) {
        self.master.shutdown();
        self.rs.shutdown();
        self.ensemble.shutdown();
        self.broker.shutdown();
        self.ns.shutdown();
    }
}

/// Stand-up time by mini-system, in ms.
#[derive(Default, Clone, Copy)]
pub struct StandupMs {
    pub rocketmq: f64,
    pub zookeeper: f64,
    pub hbase: f64,
}

pub struct PipelineDriver {
    producer_vm: Vm,
    bridge_vm: Vm,
    producer: MqProducer,
    consumer: MqConsumer,
    table: HTable,
    inputs: Inputs,
    next_op: u64,
    tracked: bool,
    expect_wrong_tag: bool,
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

pub fn stand_up(
    cluster: &Cluster,
    seed: u64,
    expect_wrong_tag: bool,
) -> Result<(PipelineDriver, Servers, StandupMs), JreError> {
    let vm = |name: &str| {
        cluster
            .vm_named(name)
            .expect("pipeline cluster has the node")
            .clone()
    };
    let (producer_vm, bridge_vm) = (vm("mq-producer"), vm("mq-bridge"));
    let mut standup = StandupMs::default();

    let started = Instant::now();
    dista_rocketmq::seed_config(&vm("mq-broker"), "pipeline-broker");
    let ns = NameServer::start(&vm("mq-ns"), NodeAddr::new([10, 0, 0, 1], 9876))?;
    let broker = BrokerServer::start(
        &vm("mq-broker"),
        NodeAddr::new([10, 0, 0, 2], 10911),
        &[TOPIC],
    )?;
    broker.register_with(ns.addr())?;
    let producer = MqProducer::start(&producer_vm, ns.addr(), TOPIC)?;
    let consumer = MqConsumer::start(&bridge_vm, ns.addr(), TOPIC)?;
    standup.rocketmq = ms_since(started);

    let started = Instant::now();
    let ensemble = ZkEnsemble::start(
        &[vm("zk-1"), vm("zk-2"), vm("zk-3")],
        ZkEnsembleConfig::default(),
    )?;
    standup.zookeeper = ms_since(started);

    let started = Instant::now();
    let rs_vm = vm("hb-rs1");
    dista_hbase::seed_config(&rs_vm, "hb-rs1");
    let rs = RegionServer::start(&rs_vm, NodeAddr::new(rs_vm.ip(), 16020))?;
    let zk = ZkClient::connect(&rs_vm, ensemble.any_client_addr())
        .map_err(|_| JreError::Protocol("zk connect failed"))?;
    rs.register_in_zk(&zk, 0)?;
    zk.close();
    let master = HMaster::start(&vm("hb-master"), ensemble.any_client_addr())
        .map_err(|_| JreError::Protocol("master start failed"))?;
    let servers = master.wait_for_region_servers(1)?;
    master.assign_tables(&[TABLE], &servers)?;
    let table = HTable::open(&bridge_vm, ensemble.any_client_addr(), TABLE)?;
    standup.hbase = ms_since(started);

    Ok((
        PipelineDriver {
            tracked: producer_vm.mode().tracks_taints(),
            producer_vm,
            bridge_vm,
            producer,
            consumer,
            table,
            inputs: Inputs::new(seed, 0),
            next_op: 0,
            expect_wrong_tag,
        },
        Servers {
            ns,
            broker,
            ensemble,
            rs,
            master,
        },
        standup,
    ))
}

impl PipelineDriver {
    pub fn close(&self) {
        self.producer.close();
        self.consumer.close();
        self.table.close();
    }

    pub fn op<T: Spans>(&mut self, tr: &mut T) -> Outcome {
        let op = self.next_op;
        self.next_op += 1;
        let range = self.inputs.payload(BODY_LEN);
        let tag = format!("record:{op}");
        let row = format!("rec{op:08}");

        tr.begin_op(op);
        let started = Instant::now();
        let stored = span!(
            tr,
            SpanName::Op,
            self.push_record(range.clone(), &tag, row.as_bytes(), tr)
        );
        let ns = started.elapsed().as_nanos() as u64;

        let ok = match stored {
            Ok(result) => self.verify(self.inputs.bytes(range), &tag, &result),
            Err(_) => false,
        };
        Outcome {
            ns,
            ok,
            bytes: BODY_LEN,
        }
    }

    fn push_record<T: Spans>(
        &mut self,
        range: std::ops::Range<usize>,
        tag: &str,
        row: &[u8],
        tr: &mut T,
    ) -> Result<dista_hbase::ResultRow, JreError> {
        let taint = span!(
            tr,
            SpanName::Mint,
            self.producer_vm
                .source_point(PRODUCER_CLASS, "createMessage", TagValue::str(tag))
        );
        let body = span!(
            tr,
            SpanName::ShadowBuild,
            TaintedBytes::uniform(self.inputs.bytes(range).to_vec(), taint)
        );
        span!(tr, SpanName::MqSend, self.producer.send(TOPIC, body))?;
        let message = span!(tr, SpanName::MqPull, self.consumer.try_pull())?
            .ok_or(JreError::Protocol("sent record was not pulled"))?;
        span!(tr, SpanName::HbasePut, self.table.put(row, message.body))?;
        span!(tr, SpanName::HbaseGet, self.table.get(row))
    }

    /// The stored cell must hold the sent bytes under exactly the
    /// record's own tag, and the row's sink taint must be that tag plus
    /// the table-name source the HBase client attaches to every request.
    fn verify(&self, sent: &[u8], tag: &str, result: &dista_hbase::ResultRow) -> bool {
        let [cell] = result.cells.as_slice() else {
            return false;
        };
        if !result.found || cell.value.data() != sent {
            return false;
        }
        if !self.tracked {
            return result.taint.is_empty();
        }
        let store = self.bridge_vm.store();
        let record_tag = if self.expect_wrong_tag {
            "never-attached"
        } else {
            tag
        };
        let mut want = vec![record_tag.to_string(), format!("table:{TABLE}")];
        want.sort_unstable();
        let mut at_sink = store.tag_values(result.taint);
        at_sink.sort_unstable();
        store.tag_values(cell.value.taint_union(store)) == [record_tag] && at_sink == want
    }
}
