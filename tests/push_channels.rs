//! Push channels (DESIGN.md "Serving"): a session that has handed its
//! output stream over as a sink — a ZooKeeper watcher or follower commit
//! channel, an ActiveMQ subscriber — has a peer that only listens. A
//! quiet block timeout is not its end: the session that returns is hung
//! up on, and the next event, commit or message would go nowhere.
//!
//! Each test shrinks the block timeout to 50 ms before anything
//! connects, idles the channel for more than three of them, and then
//! expects the next push to arrive.

use std::time::{Duration, Instant};

use dista_repro::activemq::stomp::StompClient;
use dista_repro::activemq::{Broker, Consumer, Producer};
use dista_repro::core::{Cluster, Mode};
use dista_repro::simnet::{FaultConfig, NodeAddr};
use dista_repro::taint::TaintedBytes;
use dista_repro::zookeeper::{ZkClient, ZkEnsemble, ZkEnsembleConfig, ZkServerHandle};

const BLOCK_TIMEOUT: Duration = Duration::from_millis(50);

/// A cluster whose blocking reads expire after [`BLOCK_TIMEOUT`].
fn impatient_cluster(prefix: &str, nodes: usize) -> Cluster {
    let cluster = Cluster::builder(Mode::Phosphor)
        .nodes(prefix, nodes)
        .build()
        .unwrap();
    cluster.net().set_faults(FaultConfig {
        block_timeout: BLOCK_TIMEOUT,
        ..FaultConfig::default()
    });
    cluster
}

/// Nobody sends for more than three block timeouts.
fn quiet_spell() {
    std::thread::sleep(BLOCK_TIMEOUT * 7 / 2);
}

fn plain(bytes: &[u8]) -> TaintedBytes {
    TaintedBytes::from_plain(bytes.to_vec())
}

#[test]
fn zk_watcher_outlives_quiet_block_timeouts() {
    let cluster = impatient_cluster("zk", 2);
    let server =
        ZkServerHandle::start_standalone(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 2181))
            .unwrap();
    let client = ZkClient::connect(cluster.vm(1), server.addr()).unwrap();
    let watcher = client.attach_watcher().unwrap();
    client.watch("/flag").unwrap();
    quiet_spell();
    // The request session idled out with the spell, as it always has; the
    // watch channel must not have.
    let writer = ZkClient::connect(cluster.vm(1), server.addr()).unwrap();
    writer.create("/flag", plain(b"on")).unwrap();
    let event = watcher.await_event().expect("event after a quiet spell");
    assert_eq!(
        (event.path.as_str(), event.data.data()),
        ("/flag", &b"on"[..])
    );
    watcher.close();
    writer.close();
    server.shutdown();
    cluster.shutdown();
}

#[test]
fn zk_follower_commit_channel_outlives_quiet_block_timeouts() {
    let cluster = impatient_cluster("zk", 3);
    let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
    quiet_spell();
    let writer = ZkClient::connect(cluster.vm(0), ensemble.leader_client_addr()).unwrap();
    writer.create("/late", plain(b"x")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while ensemble.local_tree_sizes() != [1, 1, 1] && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(
        ensemble.local_tree_sizes(),
        [1, 1, 1],
        "commit after a quiet spell reached every follower's tree"
    );
    writer.close();
    ensemble.shutdown();
    cluster.shutdown();
}

#[test]
fn activemq_consumers_outlive_quiet_block_timeouts() {
    let cluster = impatient_cluster("amq", 2);
    let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
    let stomp_addr = broker
        .start_stomp_listener(NodeAddr::new([10, 0, 0, 1], 61613))
        .unwrap();
    let openwire = Consumer::subscribe(cluster.vm(1), broker.addr(), "openwire-q").unwrap();
    let stomp = StompClient::connect(cluster.vm(1), stomp_addr).unwrap();
    stomp.subscribe("stomp-q").unwrap();
    quiet_spell();
    let producer = Producer::connect(cluster.vm(1), broker.addr()).unwrap();
    producer.send("openwire-q", plain(b"late")).unwrap();
    producer.send("stomp-q", plain(b"late")).unwrap();
    let message = openwire
        .receive()
        .expect("OpenWire message after a quiet spell");
    assert_eq!(message.body.data(), b"late");
    let frame = stomp.receive().expect("STOMP message after a quiet spell");
    assert_eq!(frame.body.data(), b"late");
    assert_eq!(
        (broker.pending("openwire-q"), broker.pending("stomp-q")),
        (0, 0),
        "delivered, not parked for a consumer thought dead"
    );
    producer.close();
    openwire.close();
    stomp.close();
    broker.shutdown();
    cluster.shutdown();
}
