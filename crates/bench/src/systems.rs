//! The five real-world system workloads of Table III, runnable in any
//! mode and scenario for the Table VI overhead experiment.

use std::time::{Duration, Instant};

use dista_core::{Cluster, DistaError, Mode};
use dista_jre::{FileInputStream, JreError, Vm, FILE_INPUT_STREAM_CLASS, LOGGER_CLASS};
use dista_simnet::NodeAddr;
use dista_taint::{MethodDesc, SourceSinkSpec, TagValue, TaintedBytes};

/// Reads a workload payload from the node's disk through the (possibly
/// instrumented) file API — the SIM scenarios' source point fires once
/// per read, so payload-heavy workloads mint the "relatively large and
/// indeterminate" taint population the paper describes.
fn read_data_file(vm: &Vm, path: &str) -> Result<TaintedBytes, JreError> {
    Ok(FileInputStream::open(vm, path)?.read()?.into_tainted())
}

/// Which Table III system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemId {
    /// Leader election (3 nodes).
    ZooKeeper,
    /// Pi job (RM + NM + client).
    MapReduce,
    /// Long-text message distribution (broker + producer + consumer).
    ActiveMq,
    /// Long-text message distribution (nameserver + broker + clients).
    RocketMq,
    /// Get from a table (master + 2 RS + ZK + client) — cross-system.
    HBase,
}

impl SystemId {
    /// All five systems, Table III order.
    pub const ALL: [SystemId; 5] = [
        SystemId::ZooKeeper,
        SystemId::MapReduce,
        SystemId::ActiveMq,
        SystemId::RocketMq,
        SystemId::HBase,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SystemId::ZooKeeper => "ZooKeeper",
            SystemId::MapReduce => "MapReduce/Yarn",
            SystemId::ActiveMq => "ActiveMQ",
            SystemId::RocketMq => "RocketMQ",
            SystemId::HBase => "HBase+ZooKeeper",
        }
    }

    /// The paper's workload description (Table III).
    pub fn workload(self) -> &'static str {
        match self {
            SystemId::ZooKeeper => "Leader election",
            SystemId::MapReduce => "Calculate the value of Pi",
            SystemId::ActiveMq | SystemId::RocketMq => "Long text message distribution",
            SystemId::HBase => "Get data from a table",
        }
    }

    /// Protocols exercised (Table III).
    pub fn protocols(self) -> &'static str {
        match self {
            SystemId::ZooKeeper => "JRE TCP, Netty",
            SystemId::MapReduce => "JRE NIO, Yarn RPC",
            SystemId::ActiveMq => "TCP, UDP, NIO, HTTP(S)",
            SystemId::RocketMq => "TCP (Netty), HTTP",
            SystemId::HBase => "JRE NIO, protobuf RPC",
        }
    }
}

/// The taint-tracking scenario of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// No sources/sinks registered (the "Original"-style run).
    None,
    /// Specific data trace.
    Sdt,
    /// System input/output monitor.
    Sim,
}

/// Outcome of one system workload run.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// System that ran.
    pub system: SystemId,
    /// Mode it ran in.
    pub mode: Mode,
    /// Scenario used.
    pub scenario: Scenario,
    /// Wall-clock workload duration.
    pub duration: Duration,
    /// Distinct global taints registered in the Taint Map.
    pub global_taints: u64,
    /// Sink events that observed tainted data (across all nodes).
    pub tainted_sinks: usize,
}

fn sim_spec() -> SourceSinkSpec {
    let mut spec = SourceSinkSpec::new();
    spec.add_source(MethodDesc::new(FILE_INPUT_STREAM_CLASS, "read"))
        .add_sink(MethodDesc::new(LOGGER_CLASS, "info"));
    spec
}

fn spec_for(system: SystemId, scenario: Scenario) -> SourceSinkSpec {
    match scenario {
        Scenario::None => SourceSinkSpec::new(),
        Scenario::Sim => sim_spec(),
        Scenario::Sdt => {
            let mut spec = SourceSinkSpec::new();
            match system {
                SystemId::ZooKeeper => {
                    spec.add_source(MethodDesc::new(dista_zookeeper::FLE_CLASS, "getVote"))
                        .add_sink(MethodDesc::new(dista_zookeeper::FLE_CLASS, "checkLeader"));
                }
                SystemId::MapReduce => {
                    spec.add_source(MethodDesc::new(
                        dista_mapreduce::YARN_CLIENT_CLASS,
                        "createApplication",
                    ))
                    .add_sink(MethodDesc::new(
                        dista_mapreduce::YARN_CLIENT_CLASS,
                        "getApplicationReport",
                    ));
                }
                SystemId::ActiveMq => {
                    spec.add_source(MethodDesc::new(
                        dista_activemq::PRODUCER_CLASS,
                        "createTextMessage",
                    ))
                    .add_sink(MethodDesc::new(dista_activemq::CONSUMER_CLASS, "receive"));
                }
                SystemId::RocketMq => {
                    spec.add_source(MethodDesc::new(
                        dista_rocketmq::PRODUCER_CLASS,
                        "createMessage",
                    ))
                    .add_sink(MethodDesc::new(
                        dista_rocketmq::CONSUMER_CLASS,
                        "consumeMessage",
                    ));
                }
                SystemId::HBase => {
                    spec.add_source(MethodDesc::new(dista_hbase::HTABLE_CLASS, "tableName"))
                        .add_sink(MethodDesc::new(dista_hbase::HTABLE_CLASS, "getResult"));
                }
            }
            spec
        }
    }
}

fn cluster_for(system: SystemId, mode: Mode, scenario: Scenario) -> Result<Cluster, DistaError> {
    let nodes = match system {
        SystemId::ZooKeeper | SystemId::ActiveMq | SystemId::RocketMq | SystemId::MapReduce => 3,
        SystemId::HBase => 4,
    };
    Cluster::builder(mode)
        .nodes("node", nodes)
        .spec(spec_for(system, scenario))
        .build()
}

fn run_zookeeper(cluster: &Cluster) -> Result<(), JreError> {
    use dista_zookeeper::{ZkClient, ZkEnsemble, ZkEnsembleConfig};
    let ensemble = ZkEnsemble::start(
        cluster.vms(),
        ZkEnsembleConfig {
            txn_logs: vec![vec![10, 20, 30], vec![10, 20], vec![10]],
            ..Default::default()
        },
    )?;
    // A client session after the election, like a freshly-served
    // ensemble taking traffic; znode payloads are loaded from data files
    // (each read is a SIM source point).
    let client_vm = cluster.vm(2);
    let blob = "znode-payload ".repeat(100);
    for i in 0..40 {
        client_vm
            .fs()
            .write(format!("data/znode-{i}"), blob.clone().into_bytes());
    }
    let client = ZkClient::connect(client_vm, ensemble.any_client_addr())
        .map_err(|_| JreError::Protocol("zk client failed"))?;
    for i in 0..40 {
        let payload = read_data_file(client_vm, &format!("data/znode-{i}"))?;
        client
            .create(&format!("/node-{i}"), payload)
            .map_err(|_| JreError::Protocol("zk create failed"))?;
    }
    for i in 0..40 {
        client
            .get(&format!("/node-{i}"))
            .map_err(|_| JreError::Protocol("zk get failed"))?;
    }
    client.close();
    ensemble.shutdown();
    Ok(())
}

fn run_mapreduce(cluster: &Cluster) -> Result<(), JreError> {
    cluster
        .vm(1)
        .fs()
        .write("etc/hadoop/yarn-site.xml", b"hostname=worker-1".to_vec());
    cluster.vm(1).fs().write(
        "container/stdout.template",
        b"yarn container stdout\n".repeat(32),
    );
    let result = dista_mapreduce::run_pi_job(cluster.vms(), 8, 15_000)?;
    if (result.pi - std::f64::consts::PI).abs() > 0.2 {
        return Err(JreError::Protocol("pi estimate out of range"));
    }
    Ok(())
}

/// Number of long-text messages each MQ workload distributes.
const MQ_MESSAGES: usize = 30;

fn run_activemq(cluster: &Cluster) -> Result<(), JreError> {
    use dista_activemq::{seed_config, Broker, Consumer, Producer, PRODUCER_CLASS};
    seed_config(cluster.vm(0), "main-broker");
    let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616))?;
    let consumer = Consumer::subscribe(cluster.vm(2), broker.addr(), "news")?;
    let producer_vm = cluster.vm(1);
    let producer = Producer::connect(producer_vm, broker.addr())?;
    let text = "long text message payload ".repeat(1500);
    for i in 0..MQ_MESSAGES {
        producer_vm
            .fs()
            .write(format!("data/article-{i}.txt"), text.clone().into_bytes());
    }
    for i in 0..MQ_MESSAGES {
        // The message text is loaded from a data file (SIM source); the
        // first message is additionally the SDT source variable.
        let mut body = read_data_file(producer_vm, &format!("data/article-{i}.txt"))?;
        if i == 0 {
            let sdt = producer_vm.source_point(
                PRODUCER_CLASS,
                "createTextMessage",
                TagValue::str("message_1"),
            );
            body.apply_taint(producer_vm.store(), sdt);
        }
        producer.send("news", body)?;
    }
    for _ in 0..MQ_MESSAGES {
        let message = consumer.receive()?;
        if message.body.len() != text.len() {
            return Err(JreError::Protocol("message corrupted"));
        }
    }
    producer.close();
    consumer.close();
    broker.shutdown();
    Ok(())
}

fn run_rocketmq(cluster: &Cluster) -> Result<(), JreError> {
    use dista_rocketmq::{seed_config, BrokerServer, MqConsumer, MqProducer, NameServer};
    seed_config(cluster.vm(1), "broker-a");
    let ns = NameServer::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 9876))?;
    let broker = BrokerServer::start(
        cluster.vm(1),
        NodeAddr::new([10, 0, 0, 2], 10911),
        &["TopicBench"],
    )?;
    broker.register_with(ns.addr())?;
    let producer_vm = cluster.vm(2);
    let producer = MqProducer::start(producer_vm, ns.addr(), "TopicBench")?;
    let text = "long text message payload ".repeat(1500);
    for i in 0..MQ_MESSAGES {
        producer_vm
            .fs()
            .write(format!("data/article-{i}.txt"), text.clone().into_bytes());
    }
    for i in 0..MQ_MESSAGES {
        let mut body = read_data_file(producer_vm, &format!("data/article-{i}.txt"))?;
        if i == 0 {
            let sdt = producer_vm.source_point(
                dista_rocketmq::PRODUCER_CLASS,
                "createMessage",
                TagValue::str("mq_message_1"),
            );
            body.apply_taint(producer_vm.store(), sdt);
        }
        producer.send("TopicBench", body)?;
    }
    let consumer = MqConsumer::start(cluster.vm(2), ns.addr(), "TopicBench")?;
    for _ in 0..MQ_MESSAGES {
        let message = consumer.pull_blocking()?;
        if message.body.len() != text.len() {
            return Err(JreError::Protocol("message corrupted"));
        }
    }
    producer.close();
    consumer.close();
    broker.shutdown();
    ns.shutdown();
    Ok(())
}

fn run_hbase(cluster: &Cluster) -> Result<(), JreError> {
    use dista_hbase::{seed_config, HMaster, HTable, RegionServer};
    use dista_zookeeper::{ZkClient, ZkEnsemble, ZkEnsembleConfig};
    let zk_vms: Vec<_> = cluster.vms()[..3].to_vec();
    let ensemble = ZkEnsemble::start(&zk_vms, ZkEnsembleConfig::default())?;

    let mut region_servers = Vec::new();
    for (i, vm) in cluster.vms()[1..3].iter().enumerate() {
        seed_config(vm, &format!("rs-host-{i}"));
        let rs = RegionServer::start(vm, NodeAddr::new(vm.ip(), 16020))?;
        let zk = ZkClient::connect(vm, ensemble.any_client_addr())
            .map_err(|_| JreError::Protocol("zk connect failed"))?;
        rs.register_in_zk(&zk, i)?;
        zk.close();
        region_servers.push(rs);
    }
    let master = HMaster::start(cluster.vm(0), ensemble.any_client_addr())
        .map_err(|_| JreError::Protocol("master start failed"))?;
    let servers = master.wait_for_region_servers(2)?;
    master.assign_tables(&["users"], &servers)?;

    let client_vm = cluster.vm(3);
    let table = HTable::open(client_vm, ensemble.any_client_addr(), "users")?;
    let cell = "cell-value ".repeat(200);
    for i in 0..40 {
        client_vm
            .fs()
            .write(format!("data/row-{i}"), format!("{cell}{i}").into_bytes());
    }
    for i in 0..40 {
        let value = read_data_file(client_vm, &format!("data/row-{i}"))?;
        table.put(format!("row{i}").as_bytes(), value)?;
    }
    for i in 0..40 {
        let result = table.get(format!("row{i}").as_bytes())?;
        if !result.found {
            return Err(JreError::Protocol("row missing"));
        }
    }
    table.close();
    master.shutdown();
    for rs in region_servers {
        rs.shutdown();
    }
    ensemble.shutdown();
    Ok(())
}

/// Runs one system workload in the given mode/scenario, measuring
/// wall-clock duration and collecting the taint census.
///
/// # Errors
///
/// Any workload failure.
pub fn run_system(
    system: SystemId,
    mode: Mode,
    scenario: Scenario,
) -> Result<SystemRun, DistaError> {
    run_system_with(system, mode, scenario, dista_simnet::FaultConfig::default())
}

/// [`run_system`] with an explicit network model (used by the overhead
/// experiments to charge for link bandwidth).
///
/// # Errors
///
/// Any workload failure.
pub fn run_system_with(
    system: SystemId,
    mode: Mode,
    scenario: Scenario,
    faults: dista_simnet::FaultConfig,
) -> Result<SystemRun, DistaError> {
    let cluster = cluster_for(system, mode, scenario)?;
    cluster.net().set_faults(faults);
    let start = Instant::now();
    match system {
        SystemId::ZooKeeper => run_zookeeper(&cluster)?,
        SystemId::MapReduce => run_mapreduce(&cluster)?,
        SystemId::ActiveMq => run_activemq(&cluster)?,
        SystemId::RocketMq => run_rocketmq(&cluster)?,
        SystemId::HBase => run_hbase(&cluster)?,
    }
    let duration = start.elapsed();
    cluster.flush_taint_maps()?;
    let global_taints = cluster.taint_map().stats().global_taints;
    let tainted_sinks = cluster.total_tainted_sink_events();
    cluster.shutdown();
    Ok(SystemRun {
        system,
        mode,
        scenario,
        duration,
        global_taints,
        tainted_sinks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_system_runs_in_every_mode_matrix_smoke() {
        // Full matrix is exercised by the table6 binary; here one cheap
        // representative per axis keeps CI fast.
        let r = run_system(SystemId::ZooKeeper, Mode::Dista, Scenario::Sdt).unwrap();
        assert!(r.tainted_sinks >= 2, "both followers checked the leader");
        assert!(r.global_taints >= 1);

        let r = run_system(SystemId::ActiveMq, Mode::Phosphor, Scenario::Sdt).unwrap();
        assert_eq!(r.tainted_sinks, 0, "phosphor drops inter-node taints");

        let r = run_system(SystemId::MapReduce, Mode::Original, Scenario::None).unwrap();
        assert_eq!(r.global_taints, 0);
    }

    #[test]
    fn sdt_global_taints_are_few_and_determinate() {
        // §V-F: "In SDT scenarios, the minimum number of global taints is
        // one, and the maximum is six."
        for system in [SystemId::ZooKeeper, SystemId::ActiveMq] {
            let r = run_system(system, Mode::Dista, Scenario::Sdt).unwrap();
            assert!(
                (1..=12).contains(&r.global_taints),
                "{}: {} global taints",
                system.name(),
                r.global_taints
            );
        }
    }
}
