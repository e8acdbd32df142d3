//! Producer and consumer sessions.

use std::sync::atomic::{AtomicI64, Ordering};

use dista_jre::{JreError, Logger, ObjValue, ObjectInputStream, ObjectOutputStream, Socket, Vm};
use dista_simnet::NodeAddr;
use dista_taint::{TagValue, Taint, Tainted, TaintedBytes};

use crate::{CONSUMER_CLASS, PRODUCER_CLASS};

static NEXT_MESSAGE_ID: AtomicI64 = AtomicI64::new(1);

/// A received message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Message id assigned by the producer.
    pub id: i64,
    /// Destination it was sent to.
    pub destination: String,
    /// The body with per-byte taints.
    pub body: TaintedBytes,
}

impl Message {
    /// Union of the body's taints.
    pub fn taint(&self, vm: &Vm) -> Taint {
        self.body.taint_union(vm.store())
    }
}

/// A producer session.
#[derive(Debug)]
pub struct Producer {
    vm: Vm,
    output: ObjectOutputStream<dista_jre::SocketOutputStream>,
    socket: Socket,
}

impl Producer {
    /// Connects a producer to the broker.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(vm: &Vm, broker: NodeAddr) -> Result<Self, JreError> {
        let socket = Socket::connect(vm, broker)?;
        Ok(Producer {
            vm: vm.clone(),
            output: ObjectOutputStream::new(socket.output_stream()),
            socket,
        })
    }

    /// `createTextMessage` — the SDT source point: if registered, the
    /// whole message body is tainted with a fresh message tag.
    pub fn create_text_message(&self, text: &str) -> TaintedBytes {
        let id = NEXT_MESSAGE_ID.load(Ordering::Relaxed);
        let taint = self.vm.source_point(
            PRODUCER_CLASS,
            "createTextMessage",
            TagValue::str(format!("message_{id}")),
        );
        TaintedBytes::uniform(text.as_bytes().to_vec(), taint)
    }

    /// Sends a message body to `destination`.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn send(&self, destination: &str, body: TaintedBytes) -> Result<i64, JreError> {
        let id = NEXT_MESSAGE_ID.fetch_add(1, Ordering::Relaxed);
        self.output.write_object(&ObjValue::Record(
            "Message".into(),
            vec![
                ("id".into(), ObjValue::int_plain(id)),
                ("destination".into(), ObjValue::str_plain(destination)),
                ("body".into(), ObjValue::Bytes(body)),
            ],
        ))?;
        Ok(id)
    }

    /// Closes the session.
    pub fn close(&self) {
        self.socket.close();
    }
}

/// Sends one message over the broker's UDP ingest endpoint (fire and
/// forget, like real UDP transports). The sender binds an ephemeral
/// local datagram socket per call.
///
/// # Errors
///
/// Transport or Taint Map errors.
pub fn send_udp(
    vm: &dista_jre::Vm,
    local: NodeAddr,
    broker_udp: NodeAddr,
    destination: &str,
    body: TaintedBytes,
) -> Result<(), JreError> {
    let socket = dista_jre::DatagramSocket::bind(vm, local)?;
    let id = NEXT_MESSAGE_ID.fetch_add(1, Ordering::Relaxed);
    let message = ObjValue::Record(
        "Message".into(),
        vec![
            ("id".into(), ObjValue::int_plain(id)),
            ("destination".into(), ObjValue::str_plain(destination)),
            ("body".into(), ObjValue::Bytes(body)),
        ],
    );
    let payload = dista_taint::Payload::Tainted(message.encode());
    socket.send(&dista_jre::DatagramPacket::for_send(payload, broker_udp))?;
    socket.close();
    Ok(())
}

/// A consumer session subscribed to one destination.
#[derive(Debug)]
pub struct Consumer {
    vm: Vm,
    log: Logger,
    input: ObjectInputStream<dista_jre::SocketInputStream>,
    socket: Socket,
    destination: String,
    broker_name: Tainted<String>,
}

impl Consumer {
    /// Connects and subscribes to `destination`. The broker's
    /// `BrokerInfo` ack is logged via `LOG.info` — the SIM sink.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn subscribe(vm: &Vm, broker: NodeAddr, destination: &str) -> Result<Self, JreError> {
        let socket = Socket::connect(vm, broker)?;
        let output = ObjectOutputStream::new(socket.output_stream());
        output.write_object(&ObjValue::Record(
            "Subscribe".into(),
            vec![("destination".into(), ObjValue::str_plain(destination))],
        ))?;
        let input = ObjectInputStream::new(socket.input_stream());
        let ack = input.read_object()?;
        let broker_name = match ack.field("brokerName") {
            Some(ObjValue::Str(name, taint)) => Tainted::new(name.clone(), *taint),
            _ => return Err(JreError::Protocol("missing broker info ack")),
        };
        let log = Logger::new(vm);
        log.info_value("connected to broker", &broker_name);
        Ok(Consumer {
            vm: vm.clone(),
            log,
            input,
            socket,
            destination: destination.to_string(),
            broker_name,
        })
    }

    /// The broker name from the subscription ack.
    pub fn broker_name(&self) -> &Tainted<String> {
        &self.broker_name
    }

    /// Blocks for the next message — the SDT sink point (`receive`).
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn receive(&self) -> Result<Message, JreError> {
        let frame = self.input.read_object()?;
        if frame.class_name() != Some("Message") {
            return Err(JreError::Protocol("expected a Message"));
        }
        let id = frame
            .field("id")
            .and_then(ObjValue::as_int)
            .ok_or(JreError::Protocol("message missing id"))?;
        let body = match frame.field("body") {
            Some(ObjValue::Bytes(b)) => b.clone(),
            _ => return Err(JreError::Protocol("message missing body")),
        };
        let message = Message {
            id,
            destination: self.destination.clone(),
            body,
        };
        // The SDT sink: the Message variable received on the consumer.
        self.vm
            .sink_point(CONSUMER_CLASS, "receive", message.taint(&self.vm));
        // SIM visibility: message receipt is logged too.
        self.log.info_payload("received message", &message.body);
        Ok(message)
    }

    /// Closes the session.
    pub fn close(&self) {
        self.socket.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{seed_config, Broker};
    use dista_core::{Cluster, Mode};
    use dista_jre::{FILE_INPUT_STREAM_CLASS, LOGGER_CLASS};
    use dista_taint::{MethodDesc, SourceSinkSpec};

    fn sdt_spec() -> SourceSinkSpec {
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new(PRODUCER_CLASS, "createTextMessage"))
            .add_sink(MethodDesc::new(CONSUMER_CLASS, "receive"));
        spec
    }

    /// Broker on node 1, producer on node 2, consumer on node 3 — the
    /// paper's three-peer deployment.
    fn triangle(mode: Mode, spec: SourceSinkSpec) -> (Cluster, Broker) {
        let cluster = Cluster::builder(mode)
            .nodes("amq", 3)
            .spec(spec)
            .build()
            .unwrap();
        seed_config(cluster.vm(0), "main-broker");
        let broker = Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
        (cluster, broker)
    }

    #[test]
    fn long_text_message_distribution_sdt() {
        let (cluster, broker) = triangle(Mode::Dista, sdt_spec());
        let consumer = Consumer::subscribe(cluster.vm(2), broker.addr(), "news").unwrap();
        let producer = Producer::connect(cluster.vm(1), broker.addr()).unwrap();
        let long_text = "breaking news! ".repeat(500);
        let body = producer.create_text_message(&long_text);
        producer.send("news", body).unwrap();

        let message = consumer.receive().unwrap();
        assert_eq!(message.body.len(), long_text.len());
        // Sound + precise: exactly the producer's message tag.
        let tags = cluster
            .vm(2)
            .store()
            .tag_values(message.taint(cluster.vm(2)));
        assert_eq!(tags.len(), 1);
        assert!(tags[0].starts_with("message_"), "got {tags:?}");
        // Sink recorded on the consumer node.
        let events_report = cluster.vm(2).sink_report();
        let events = events_report.at("ActiveMQConsumer.receive");
        assert_eq!(events.len(), 1);
        assert!(events[0].is_tainted());
        producer.close();
        consumer.close();
        broker.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn phosphor_drops_message_taint() {
        let (cluster, broker) = triangle(Mode::Phosphor, sdt_spec());
        let consumer = Consumer::subscribe(cluster.vm(2), broker.addr(), "q").unwrap();
        let producer = Producer::connect(cluster.vm(1), broker.addr()).unwrap();
        let body = producer.create_text_message("text");
        assert!(!body.taint_union(cluster.vm(1).store()).is_empty());
        producer.send("q", body).unwrap();
        let message = consumer.receive().unwrap();
        assert!(message.taint(cluster.vm(2)).is_empty());
        producer.close();
        consumer.close();
        broker.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn sim_broker_config_taint_reaches_consumer_log() {
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new(FILE_INPUT_STREAM_CLASS, "read"))
            .add_sink(MethodDesc::new(LOGGER_CLASS, "info"));
        let (cluster, broker) = triangle(Mode::Dista, spec);
        let consumer = Consumer::subscribe(cluster.vm(2), broker.addr(), "q").unwrap();
        assert_eq!(consumer.broker_name().value(), "main-broker");
        let report = cluster.vm(2).sink_report();
        let events = report.at("LOG.info");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tags.len(), 1);
        assert!(events[0].tags[0].starts_with("conf/activemq.xml#r"));
        consumer.close();
        broker.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn queue_round_robin_across_consumers() {
        let (cluster, broker) = triangle(Mode::Dista, SourceSinkSpec::new());
        let c1 = Consumer::subscribe(cluster.vm(2), broker.addr(), "rr").unwrap();
        let c2 = Consumer::subscribe(cluster.vm(2), broker.addr(), "rr").unwrap();
        let producer = Producer::connect(cluster.vm(1), broker.addr()).unwrap();
        producer
            .send("rr", TaintedBytes::from_plain(b"m1".to_vec()))
            .unwrap();
        producer
            .send("rr", TaintedBytes::from_plain(b"m2".to_vec()))
            .unwrap();
        let m1 = c1.receive().unwrap();
        let m2 = c2.receive().unwrap();
        let mut bodies = vec![m1.body.data().to_vec(), m2.body.data().to_vec()];
        bodies.sort();
        assert_eq!(bodies, vec![b"m1".to_vec(), b"m2".to_vec()]);
        producer.close();
        c1.close();
        c2.close();
        broker.shutdown();
        cluster.shutdown();
    }
}
