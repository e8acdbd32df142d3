//! The ActiveMQ broker: per-destination queues with round-robin
//! dispatch to subscribed consumers, reachable over OpenWire-style
//! object frames and over STOMP (paper Table III lists both).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use dista_jre::{
    DatagramPacket, DatagramSocket, FileInputStream, JreError, ObjValue, ObjectInputStream,
    ObjectOutputStream, ServerSocket, Socket, SocketOutputStream, Vm,
};
use dista_simnet::{NetError, NodeAddr, TcpServer};
use dista_taint::{Tainted, TaintedBytes};
use parking_lot::Mutex;

use crate::stomp::{self, StompFrame};

/// A subscribed consumer, whatever protocol it arrived on.
enum Subscriber {
    OpenWire(ObjectOutputStream<SocketOutputStream>),
    Stomp { vm: Vm, out: SocketOutputStream },
}

impl Subscriber {
    /// Delivers one message record; `false` if the connection is gone.
    fn deliver(&self, message: &ObjValue) -> bool {
        match self {
            Subscriber::OpenWire(sink) => sink.write_object(message).is_ok(),
            Subscriber::Stomp { vm, out } => {
                let destination = message
                    .field("destination")
                    .and_then(ObjValue::as_str)
                    .unwrap_or("")
                    .to_string();
                let body = match message.field("body") {
                    Some(ObjValue::Bytes(b)) => b.clone(),
                    _ => TaintedBytes::new(),
                };
                let frame = StompFrame::new("MESSAGE")
                    .header("destination", destination)
                    .body(body);
                stomp::write_frame(out, vm, &frame).is_ok()
            }
        }
    }
}

#[derive(Default)]
struct Destination {
    pending: VecDeque<ObjValue>,
    consumers: Vec<Subscriber>,
    next_consumer: usize,
}

struct BrokerInner {
    vm: Vm,
    broker_name: Tainted<String>,
    destinations: Mutex<HashMap<String, Destination>>,
}

impl BrokerInner {
    /// Queues or delivers one message record (shared by both protocols).
    fn dispatch(&self, destination: String, message: ObjValue) {
        let mut destinations = self.destinations.lock();
        let dest = destinations.entry(destination).or_default();
        if dest.consumers.is_empty() {
            dest.pending.push_back(message);
            return;
        }
        // Queue semantics: one consumer, round-robin; drop dead sinks.
        let mut message = message;
        while !dest.consumers.is_empty() {
            let idx = dest.next_consumer % dest.consumers.len();
            dest.next_consumer = dest.next_consumer.wrapping_add(1);
            if dest.consumers[idx].deliver(&message) {
                return;
            }
            dest.consumers.remove(idx);
        }
        dest.pending
            .push_back(std::mem::replace(&mut message, ObjValue::int_plain(0)));
    }

    /// Registers a subscriber and drains the backlog to it. `ack`, if
    /// the protocol has one, is written first and under the same lock:
    /// a consumer that has read its ack is registered by the time any
    /// later message can be dispatched, so round-robin never skips it.
    fn subscribe(&self, destination: String, subscriber: Subscriber, ack: Option<&ObjValue>) {
        let mut destinations = self.destinations.lock();
        if ack.is_some_and(|ack| !subscriber.deliver(ack)) {
            return; // subscriber already dead
        }
        let dest = destinations.entry(destination).or_default();
        while let Some(message) = dest.pending.pop_front() {
            if !subscriber.deliver(&message) {
                dest.pending.push_front(message);
                return; // subscriber already dead
            }
        }
        dest.consumers.push(subscriber);
    }
}

/// A running broker.
pub struct Broker {
    inner: Arc<BrokerInner>,
    openwire: TcpServer,
    stomp: Mutex<Option<TcpServer>>,
    /// The UDP ingest socket and the thread blocked on it.
    udp: Mutex<Option<(DatagramSocket, JoinHandle<()>)>>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("addr", &self.addr())
            .field("name", self.inner.broker_name.value())
            .finish()
    }
}

impl Broker {
    /// Starts the broker at `addr`, reading `conf/activemq.xml` for the
    /// broker name (the SIM source point). A missing config falls back
    /// to the VM name, untainted.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        let broker_name = match FileInputStream::open(vm, "conf/activemq.xml") {
            Ok(file) => {
                let contents = file.read_to_string()?;
                let taint = contents.taint();
                let name = contents
                    .value()
                    .lines()
                    .find_map(|l| l.strip_prefix("brokerName="))
                    .unwrap_or("localhost")
                    .to_string();
                Tainted::new(name, taint)
            }
            Err(_) => Tainted::untainted(vm.name().to_string()),
        };
        let inner = Arc::new(BrokerInner {
            vm: vm.clone(),
            broker_name,
            destinations: Mutex::new(HashMap::new()),
        });
        let session_inner = inner.clone();
        let openwire = ServerSocket::serve(vm, addr, "amq-broker", move |socket| {
            serve_openwire_session(&socket, &session_inner)
        })?;
        Ok(Broker {
            inner,
            openwire,
            stomp: Mutex::new(None),
            udp: Mutex::new(None),
        })
    }

    /// Opens an additional UDP ingest endpoint at `addr`: each datagram
    /// carries one encoded `Message` record and is dispatched to the
    /// same destinations as the TCP ports (Table III lists UDP among
    /// ActiveMQ's transports). Returns the endpoint address.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start_udp_listener(&self, addr: NodeAddr) -> Result<NodeAddr, JreError> {
        let socket = DatagramSocket::bind(&self.inner.vm, addr)?;
        let ingest = {
            let (socket, inner) = (socket.clone(), self.inner.clone());
            std::thread::Builder::new()
                .name(format!("amq-udp-{addr}"))
                .spawn(move || ingest_datagrams(&socket, &inner))
                .expect("spawn udp ingest thread")
        };
        *self.udp.lock() = Some((socket, ingest));
        Ok(addr)
    }

    /// Opens an additional STOMP listener at `addr`, feeding the same
    /// destinations as the OpenWire port. Returns the listener address.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start_stomp_listener(&self, addr: NodeAddr) -> Result<NodeAddr, JreError> {
        let inner = self.inner.clone();
        let server = ServerSocket::serve(&self.inner.vm, addr, "amq-stomp", move |socket| {
            serve_stomp_session(&socket, &inner)
        })?;
        *self.stomp.lock() = Some(server);
        Ok(addr)
    }

    /// The broker's OpenWire listen address.
    pub fn addr(&self) -> NodeAddr {
        self.openwire.local_addr()
    }

    /// The configured broker name (file-tainted in SIM runs).
    pub fn name(&self) -> &Tainted<String> {
        &self.inner.broker_name
    }

    /// Messages currently buffered for `destination`.
    pub fn pending(&self, destination: &str) -> usize {
        self.inner
            .destinations
            .lock()
            .get(destination)
            .map_or(0, |d| d.pending.len())
    }

    /// Stops the broker: both TCP ports (see [`TcpServer::stop`]) and the
    /// UDP ingest thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.openwire.stop();
        if let Some(mut stomp) = self.stomp.lock().take() {
            stomp.stop();
        }
        if let Some((socket, ingest)) = self.udp.lock().take() {
            // Closing the socket is what wakes `receive()`.
            socket.close();
            let _ = ingest.join();
        }
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The UDP ingest loop: dispatches one `Message` record per datagram
/// until the socket is closed. A quiet block timeout is not an error,
/// and a datagram that fails to decode is dropped, like real UDP ingest.
fn ingest_datagrams(socket: &DatagramSocket, inner: &BrokerInner) {
    loop {
        let mut packet = DatagramPacket::for_receive(256 * 1024);
        match socket.receive(&mut packet) {
            Ok(()) => {}
            Err(JreError::Net(NetError::Closed)) => return,
            Err(_) => continue,
        }
        let Ok(message) = ObjValue::decode(&packet.into_data().into_tainted(), &inner.vm) else {
            continue;
        };
        if message.class_name() != Some("Message") {
            continue;
        }
        let destination = message
            .field("destination")
            .and_then(ObjValue::as_str)
            .unwrap_or("")
            .to_string();
        inner.dispatch(destination, message);
    }
}

fn serve_openwire_session(socket: &Socket, inner: &BrokerInner) {
    let input = ObjectInputStream::new(socket.input_stream());
    // Once its output is a subscriber's sink the session ends with the
    // connection, not with a quiet block timeout: a consumer only
    // listens, and returning is what makes the server hang up on it.
    let mut subscribed = false;
    loop {
        let frame = match input.read_object() {
            Ok(f) => f,
            Err(JreError::Net(NetError::Timeout(_))) if subscribed => continue,
            Err(_) => return,
        };
        match frame.class_name() {
            Some("Subscribe") => {
                let destination = frame
                    .field("destination")
                    .and_then(ObjValue::as_str)
                    .unwrap_or("")
                    .to_string();
                let sink = ObjectOutputStream::new(socket.output_stream());
                // Ack with the broker name (SIM flow: the config taint
                // crosses to the consumer here).
                let ack = ObjValue::Record(
                    "BrokerInfo".into(),
                    vec![(
                        "brokerName".into(),
                        ObjValue::Str(inner.broker_name.value().clone(), inner.broker_name.taint()),
                    )],
                );
                inner.subscribe(destination, Subscriber::OpenWire(sink), Some(&ack));
                subscribed = true;
            }
            Some("Message") => {
                let destination = frame
                    .field("destination")
                    .and_then(ObjValue::as_str)
                    .unwrap_or("")
                    .to_string();
                inner.dispatch(destination, frame);
            }
            _ => return,
        }
    }
}

fn serve_stomp_session(socket: &Socket, inner: &BrokerInner) {
    let vm = inner.vm.clone();
    let input = socket.input_stream();
    // Handshake.
    match stomp::read_frame(&input) {
        Ok(Some(frame)) if frame.command == "CONNECT" => {
            let connected = StompFrame::new("CONNECTED").header("version", "1.2");
            if stomp::write_frame(&socket.output_stream(), &vm, &connected).is_err() {
                return;
            }
        }
        _ => return,
    }
    // As for OpenWire: a subscribed session outlives quiet spells.
    let mut subscribed = false;
    loop {
        let frame = match stomp::read_frame(&input) {
            Ok(Some(f)) => f,
            Err(JreError::Net(NetError::Timeout(_))) if subscribed => continue,
            Ok(None) | Err(_) => return,
        };
        match frame.command.as_str() {
            "SEND" => {
                let destination = frame
                    .headers
                    .get("destination")
                    .cloned()
                    .unwrap_or_default();
                let message = ObjValue::Record(
                    "Message".into(),
                    vec![
                        ("id".into(), ObjValue::int_plain(0)),
                        (
                            "destination".into(),
                            ObjValue::str_plain(destination.clone()),
                        ),
                        ("body".into(), ObjValue::Bytes(frame.body)),
                    ],
                );
                inner.dispatch(destination, message);
            }
            "SUBSCRIBE" => {
                let destination = frame
                    .headers
                    .get("destination")
                    .cloned()
                    .unwrap_or_default();
                inner.subscribe(
                    destination,
                    Subscriber::Stomp {
                        vm: vm.clone(),
                        out: socket.output_stream(),
                    },
                    None,
                );
                subscribed = true;
            }
            "DISCONNECT" => return,
            _ => return,
        }
    }
}

/// Writes a broker config file onto `vm`'s disk so SIM runs have a
/// tainted broker name (used by tests, benches and examples).
pub fn seed_config(vm: &Vm, name: &str) {
    vm.fs().write(
        "conf/activemq.xml",
        format!("brokerName={name}").into_bytes(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_core::{Cluster, Mode};

    #[test]
    fn broker_boots_with_and_without_config() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("amq", 1)
            .build()
            .unwrap();
        let b1 = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
        assert_eq!(b1.name().value(), "amq1", "fallback to VM name");
        b1.shutdown();
        seed_config(cluster.vm(0), "broker-A");
        let b2 = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
        assert_eq!(b2.name().value(), "broker-A");
        b2.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn messages_buffer_until_subscribe() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("amq", 2)
            .build()
            .unwrap();
        let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
        let producer = crate::client::Producer::connect(cluster.vm(1), broker.addr()).unwrap();
        producer
            .send("q", TaintedBytes::from_plain(b"early".to_vec()))
            .unwrap();
        // Give the broker a beat to enqueue.
        for _ in 0..100 {
            if broker.pending("q") == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(broker.pending("q"), 1);
        let consumer =
            crate::client::Consumer::subscribe(cluster.vm(1), broker.addr(), "q").unwrap();
        let message = consumer.receive().unwrap();
        assert_eq!(message.body.data(), b"early");
        producer.close();
        consumer.close();
        broker.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn stomp_listener_shuts_down_with_broker() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("amq", 1)
            .build()
            .unwrap();
        let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
        let stomp_addr = broker
            .start_stomp_listener(NodeAddr::new([10, 0, 0, 1], 61613))
            .unwrap();
        broker.shutdown();
        // Both ports are free again.
        assert!(cluster
            .net()
            .tcp_listen(NodeAddr::new([10, 0, 0, 1], 61616))
            .is_ok());
        assert!(cluster.net().tcp_listen(stomp_addr).is_ok());
        cluster.shutdown();
    }
}
