//! The RocketMQ broker: per-topic commit logs with send/pull RPCs.

use std::collections::HashMap;
use std::sync::Arc;

use dista_jre::{FileInputStream, JreError, ObjValue, Vm};
use dista_netty::{Bootstrap, NettyServer, ServerBootstrap};
use dista_simnet::NodeAddr;
use dista_taint::{Payload, Tainted, TaintedBytes};
use parking_lot::Mutex;

#[derive(Default)]
struct TopicLog {
    messages: Vec<(i64, TaintedBytes)>,
}

/// A running broker.
pub struct BrokerServer {
    vm: Vm,
    broker_name: Tainted<String>,
    server: NettyServer,
    topics: Vec<String>,
}

impl std::fmt::Debug for BrokerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerServer")
            .field("name", self.broker_name.value())
            .field("topics", &self.topics)
            .finish()
    }
}

impl BrokerServer {
    /// Starts the broker at `addr` serving `topics`, reading
    /// `conf/broker.conf` for the broker name (the SIM source point).
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start(vm: &Vm, addr: NodeAddr, topics: &[&str]) -> Result<Self, JreError> {
        let broker_name = match FileInputStream::open(vm, "conf/broker.conf") {
            Ok(file) => {
                let contents = file.read_to_string()?;
                let taint = contents.taint();
                let name = contents
                    .value()
                    .lines()
                    .find_map(|l| l.strip_prefix("brokerName="))
                    .unwrap_or("broker-a")
                    .to_string();
                Tainted::new(name, taint)
            }
            Err(_) => Tainted::untainted(vm.name().to_string()),
        };
        let logs: Arc<Mutex<HashMap<String, TopicLog>>> = Arc::new(Mutex::new(HashMap::new()));
        let handler_vm = vm.clone();
        let server = ServerBootstrap::new(vm)
            .child_handler(move |ctx, frame| {
                let Ok(request) = ObjValue::decode(&frame.into_tainted(), &handler_vm) else {
                    return;
                };
                let response = handle(&logs, &request);
                let _ = ctx.write(&Payload::Tainted(response.encode()));
            })
            .bind(addr)?;
        Ok(BrokerServer {
            vm: vm.clone(),
            broker_name,
            server,
            topics: topics.iter().map(|t| t.to_string()).collect(),
        })
    }

    /// The broker's listen address.
    pub fn addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// The configured broker name (file-tainted in SIM runs).
    pub fn name(&self) -> &Tainted<String> {
        &self.broker_name
    }

    /// Registers this broker's topics with the nameserver; the broker
    /// name (and its config-file taint) crosses the wire here.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn register_with(&self, nameserver: NodeAddr) -> Result<(), JreError> {
        let channel = Bootstrap::new(&self.vm).connect(nameserver)?;
        let request = ObjValue::Record(
            "RegisterBroker".into(),
            vec![
                (
                    "brokerName".into(),
                    ObjValue::Str(self.broker_name.value().clone(), self.broker_name.taint()),
                ),
                ("addr".into(), ObjValue::str_plain(self.addr().to_string())),
                (
                    "topics".into(),
                    ObjValue::List(
                        self.topics
                            .iter()
                            .map(|t| ObjValue::str_plain(t.clone()))
                            .collect(),
                    ),
                ),
            ],
        );
        channel.call(&Payload::Tainted(request.encode()))?;
        channel.close();
        Ok(())
    }

    /// Stops the broker.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn handle(logs: &Arc<Mutex<HashMap<String, TopicLog>>>, request: &ObjValue) -> ObjValue {
    match request.class_name() {
        Some("SendMessage") => {
            let topic = request
                .field("topic")
                .and_then(ObjValue::as_str)
                .unwrap_or("")
                .to_string();
            let id = request.field("id").and_then(ObjValue::as_int).unwrap_or(0);
            let body = match request.field("body") {
                Some(ObjValue::Bytes(b)) => b.clone(),
                _ => TaintedBytes::new(),
            };
            logs.lock()
                .entry(topic)
                .or_default()
                .messages
                .push((id, body));
            ObjValue::Record(
                "SendAck".into(),
                vec![("msgId".into(), ObjValue::int_plain(id))],
            )
        }
        Some("PullMessage") => {
            let topic = request
                .field("topic")
                .and_then(ObjValue::as_str)
                .unwrap_or("");
            let offset = request
                .field("offset")
                .and_then(ObjValue::as_int)
                .unwrap_or(0)
                .max(0) as usize;
            let logs = logs.lock();
            match logs.get(topic).and_then(|l| l.messages.get(offset)) {
                Some((id, body)) => ObjValue::Record(
                    "PullResult".into(),
                    vec![
                        ("found".into(), ObjValue::int_plain(1)),
                        ("msgId".into(), ObjValue::int_plain(*id)),
                        ("body".into(), ObjValue::Bytes(body.clone())),
                    ],
                ),
                None => ObjValue::Record(
                    "PullResult".into(),
                    vec![("found".into(), ObjValue::int_plain(0))],
                ),
            }
        }
        _ => ObjValue::Record("UnknownRpc".into(), vec![]),
    }
}

/// Writes a broker config onto `vm`'s disk so SIM runs taint the name.
pub fn seed_config(vm: &Vm, name: &str) {
    vm.fs().write(
        "conf/broker.conf",
        format!("brokerName={name}").into_bytes(),
    );
}
