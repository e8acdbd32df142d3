//! ActiveMQ's UDP transport end-to-end: a tainted message enters the
//! broker over UDP ingest and reaches a TCP consumer intact.

use std::time::{Duration, Instant};

use dista_repro::activemq::{send_udp, Broker, Consumer, CONSUMER_CLASS, PRODUCER_CLASS};
use dista_repro::core::{Cluster, Mode};
use dista_repro::simnet::{FaultConfig, NodeAddr};
use dista_repro::taint::{MethodDesc, SourceSinkSpec, TagValue, TaintedBytes};

#[test]
fn udp_ingest_carries_taints_to_tcp_consumer() {
    let mut spec = SourceSinkSpec::new();
    spec.add_source(MethodDesc::new(PRODUCER_CLASS, "createTextMessage"))
        .add_sink(MethodDesc::new(CONSUMER_CLASS, "receive"));
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("amq", 3)
        .spec(spec)
        .build()
        .unwrap();
    let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
    let udp = broker
        .start_udp_listener(NodeAddr::new([10, 0, 0, 1], 61617))
        .unwrap();
    let consumer = Consumer::subscribe(cluster.vm(2), broker.addr(), "udp-q").unwrap();

    let producer_vm = cluster.vm(1);
    let taint = producer_vm
        .store()
        .mint_source_taint(TagValue::str("udp-message"));
    send_udp(
        producer_vm,
        NodeAddr::new([10, 0, 0, 2], 61617),
        udp,
        "udp-q",
        TaintedBytes::uniform(b"sent over udp", taint),
    )
    .unwrap();

    let message = consumer.receive().unwrap();
    assert_eq!(message.body.data(), b"sent over udp");
    assert_eq!(
        cluster
            .vm(2)
            .store()
            .tag_values(message.taint(cluster.vm(2))),
        vec!["udp-message".to_string()]
    );
    consumer.close();
    broker.shutdown();
    cluster.shutdown();
}

#[test]
fn phosphor_udp_ingest_loses_taints() {
    let cluster = Cluster::builder(Mode::Phosphor)
        .nodes("amq", 3)
        .build()
        .unwrap();
    let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
    let udp = broker
        .start_udp_listener(NodeAddr::new([10, 0, 0, 1], 61617))
        .unwrap();
    let consumer = Consumer::subscribe(cluster.vm(2), broker.addr(), "q").unwrap();
    let producer_vm = cluster.vm(1);
    let taint = producer_vm.store().mint_source_taint(TagValue::str("gone"));
    send_udp(
        producer_vm,
        NodeAddr::new([10, 0, 0, 2], 61617),
        udp,
        "q",
        TaintedBytes::uniform(b"plain", taint),
    )
    .unwrap();
    let message = consumer.receive().unwrap();
    assert!(message.taint(cluster.vm(2)).is_empty());
    consumer.close();
    broker.shutdown();
    cluster.shutdown();
}

#[test]
fn udp_ingest_outlives_quiet_block_timeouts() {
    let cluster = Cluster::builder(Mode::Phosphor)
        .nodes("amq", 2)
        .build()
        .unwrap();
    let block_timeout = Duration::from_millis(50);
    cluster.net().set_faults(FaultConfig {
        block_timeout,
        ..FaultConfig::default()
    });
    let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
    let udp = broker
        .start_udp_listener(NodeAddr::new([10, 0, 0, 1], 61617))
        .unwrap();
    // Nobody sends for more than three block timeouts: the ingest
    // thread's `receive` expires each time, and it must keep listening.
    std::thread::sleep(block_timeout * 7 / 2);
    send_udp(
        cluster.vm(1),
        NodeAddr::new([10, 0, 0, 2], 61617),
        udp,
        "q",
        TaintedBytes::from_plain(b"late".to_vec()),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while broker.pending("q") == 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(broker.pending("q"), 1, "datagram after a quiet spell");
    broker.shutdown();
    cluster.shutdown();
}
