//! The serving lifecycle (DESIGN.md "Serving"), over every listener in
//! the workspace: a server that has returned from `shutdown()` answers
//! nobody and leaves no thread behind, even with a client still holding
//! its connection.
//!
//! One `#[test]`, run row by row: the thread count is the process's.

use std::time::{Duration, Instant};

use dista_repro::activemq::stomp::StompClient;
use dista_repro::activemq::Broker;
use dista_repro::core::CollectorServer;
use dista_repro::hbase::pbrpc::{self, PbMessage};
use dista_repro::hbase::RegionServer;
use dista_repro::jre::{
    Mode, ObjValue, ObjectInputStream, ObjectOutputStream, Socket, SocketChannel, Vm,
};
use dista_repro::mapreduce::rpc::{RpcClient, RpcServer};
use dista_repro::netty::{Bootstrap, ServerBootstrap};
use dista_repro::simnet::{NodeAddr, SimNet};
use dista_repro::taint::Payload;
use dista_repro::taintmap::TaintMapEndpoint;
use dista_repro::zookeeper::{ZkClient, ZkServerHandle};

/// A started server with one client connection that has already
/// completed a round trip.
struct Held {
    /// One more request on that connection; `true` if it was answered.
    call: Box<dyn FnMut() -> bool>,
    /// The server's public `shutdown()`.
    shutdown: Box<dyn FnOnce()>,
}

const SERVER_IP: [u8; 4] = [10, 0, 0, 2];

fn held(mut call: impl FnMut() -> bool + 'static, shutdown: impl FnOnce() + 'static) -> Held {
    assert!(call(), "round trip before shutdown");
    Held {
        call: Box::new(call),
        shutdown: Box::new(shutdown),
    }
}

fn mapreduce_rpc(server: &Vm, client: &Vm) -> Held {
    let server =
        RpcServer::start(server, NodeAddr::new(SERVER_IP, 8030), |request| request).unwrap();
    let rpc = RpcClient::connect(client, server.addr()).unwrap();
    held(
        move || rpc.call(&ObjValue::int_plain(8)).is_ok(),
        move || server.shutdown(),
    )
}

fn hbase_region_server(server: &Vm, client: &Vm) -> Held {
    let server = RegionServer::start(server, NodeAddr::new(SERVER_IP, 16020)).unwrap();
    let channel = SocketChannel::connect(client, server.addr()).unwrap();
    let vm = client.clone();
    held(
        move || {
            let mut unknown_method = PbMessage::new();
            unknown_method.push_varint(1, 99);
            pbrpc::write_message(&channel, &unknown_method).is_ok()
                && matches!(pbrpc::read_message(&channel, &vm), Ok(Some(_)))
        },
        move || server.shutdown(),
    )
}

fn netty_server(server: &Vm, client: &Vm) -> Held {
    let server = ServerBootstrap::new(server)
        .child_handler(|ctx, msg| {
            let _ = ctx.write(&msg);
        })
        .bind(NodeAddr::new(SERVER_IP, 9876))
        .unwrap();
    let channel = Bootstrap::new(client).connect(server.local_addr()).unwrap();
    held(
        move || channel.call(&Payload::Plain(b"ping".to_vec())).is_ok(),
        move || server.shutdown(),
    )
}

fn zookeeper_server(server: &Vm, client: &Vm) -> Held {
    let server = ZkServerHandle::start_standalone(server, NodeAddr::new(SERVER_IP, 2181)).unwrap();
    let zk = ZkClient::connect(client, server.addr()).unwrap();
    held(
        move || zk.exists("/nothing").is_ok(),
        move || server.shutdown(),
    )
}

/// An OpenWire session subscribed to the queue it sends to: every
/// `Message` written comes back on the same connection.
fn activemq_openwire(server: &Vm, client: &Vm) -> Held {
    let broker = Broker::start(server, NodeAddr::new(SERVER_IP, 61616)).unwrap();
    let socket = Socket::connect(client, broker.addr()).unwrap();
    let output = ObjectOutputStream::new(socket.output_stream());
    let input = ObjectInputStream::new(socket.input_stream());
    let record = |class: &str| {
        let destination = ("destination".to_string(), ObjValue::str_plain("q"));
        ObjValue::Record(class.into(), vec![destination])
    };
    output.write_object(&record("Subscribe")).unwrap();
    assert_eq!(
        input.read_object().unwrap().class_name(),
        Some("BrokerInfo")
    );
    held(
        move || output.write_object(&record("Message")).is_ok() && input.read_object().is_ok(),
        move || broker.shutdown(),
    )
}

/// The same loop over the broker's STOMP port.
fn activemq_stomp(server: &Vm, client: &Vm) -> Held {
    let broker = Broker::start(server, NodeAddr::new(SERVER_IP, 61616)).unwrap();
    let stomp_addr = broker
        .start_stomp_listener(NodeAddr::new(SERVER_IP, 61613))
        .unwrap();
    let stomp = StompClient::connect(client, stomp_addr).unwrap();
    stomp.subscribe("q").unwrap();
    held(
        move || stomp.send("q", "ping").is_ok() && stomp.receive().is_ok(),
        move || broker.shutdown(),
    )
}

fn taint_map(server: &Vm, _client: &Vm) -> Held {
    let net = server.net().clone();
    let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
    let conn = net.tcp_connect(tm.addr()).unwrap();
    held(
        move || {
            // A LOOKUP of no gids under epoch 0: answered `OK`, count 0.
            let mut lookup = vec![8, 0, 0, 0, 12];
            lookup.resize(5 + 12, 0);
            let mut reply = [0u8; 9];
            conn.write(&lookup).is_ok() && conn.read_exact(&mut reply).is_ok()
        },
        move || tm.shutdown(),
    )
}

/// An agent stream has no replies, so the round trip is a scrape on a
/// second connection and the held connection is only written to.
fn telemetry_collector(server: &Vm, _client: &Vm) -> Held {
    let net = server.net().clone();
    let addr = NodeAddr::new([10, 0, 0, 200], 9100);
    let mut collector = CollectorServer::spawn(&net, addr).unwrap();
    let agent = net.tcp_connect(addr).unwrap();
    agent.write(b"A").unwrap();
    let scrape = net.tcp_connect(addr).unwrap();
    scrape.write(b"S").unwrap();
    let mut len = [0u8; 4];
    scrape.read_exact(&mut len).unwrap();
    held(
        move || agent.write(&[0, 0, 0, 1, b'x']).is_ok(),
        move || collector.stop(),
    )
}

/// Starts a server on the first VM and a client on the second.
type Start = fn(&Vm, &Vm) -> Held;

const LISTENERS: &[(&str, Start)] = &[
    ("mapreduce RpcServer", mapreduce_rpc),
    ("hbase RegionServer", hbase_region_server),
    ("netty NettyServer", netty_server),
    ("zookeeper ZkServerHandle", zookeeper_server),
    ("activemq Broker (OpenWire)", activemq_openwire),
    ("activemq Broker (STOMP)", activemq_stomp),
    ("TaintMapServer", taint_map),
    ("telemetry CollectorServer", telemetry_collector),
];

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// The thread count once it reaches `target`, or after a second of
/// trying: `join` returns when a thread has exited, and the kernel takes
/// it off the process's count a moment later.
fn threads_settling_to(target: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    while threads() != target && Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads()
}

#[test]
fn a_server_that_has_shut_down_answers_nobody_and_leaves_no_thread() {
    // Every row runs; the failures of all of them are reported together.
    let mut failures = Vec::new();
    for (name, start) in LISTENERS {
        let net = SimNet::new();
        let vm = |name: &str, ip| {
            Vm::builder(name, &net)
                .mode(Mode::Phosphor)
                .ip(ip)
                .build()
                .unwrap()
        };
        let (server_vm, client_vm) = (vm("server", SERVER_IP), vm("client", [10, 0, 0, 1]));
        let before = threads();
        let Held { mut call, shutdown } = start(&server_vm, &client_vm);
        assert!(threads() > before, "{name}: serving takes threads");

        let started = Instant::now();
        shutdown();
        let took = started.elapsed();
        if took >= Duration::from_secs(1) {
            failures.push(format!("{name}: shutdown() took {took:?}"));
        }
        if call() {
            failures.push(format!(
                "{name}: answered on a connection held across shutdown()"
            ));
        }
        let after = threads_settling_to(before);
        if after != before {
            failures.push(format!(
                "{name}: {before} threads before start, {after} after shutdown()"
            ));
        }
        // A session that outlived its server ends with its connection;
        // the next row starts from a quiet process either way.
        drop(call);
        threads_settling_to(before);
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
