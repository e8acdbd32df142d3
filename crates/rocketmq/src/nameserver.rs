//! The NameServer: topic-route registry.

use std::collections::HashMap;
use std::sync::Arc;

use dista_jre::{JreError, Logger, ObjValue, Vm};
use dista_netty::{NettyServer, ServerBootstrap};
use dista_simnet::NodeAddr;
use dista_taint::Payload;
use parking_lot::Mutex;

/// A running NameServer.
pub struct NameServer {
    server: NettyServer,
}

impl std::fmt::Debug for NameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameServer").finish()
    }
}

impl NameServer {
    /// Starts the registry at `addr` on `vm`.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        let routes: Arc<Mutex<HashMap<String, String>>> = Arc::new(Mutex::new(HashMap::new()));
        let log = Logger::new(vm);
        let handler_vm = vm.clone();
        let server = ServerBootstrap::new(vm)
            .child_handler(move |ctx, frame| {
                let Ok(request) = ObjValue::decode(&frame.into_tainted(), &handler_vm) else {
                    return;
                };
                let response = match request.class_name() {
                    Some("RegisterBroker") => {
                        let name_taint = match request.field("brokerName") {
                            Some(ObjValue::Str(name, taint)) => {
                                // SIM sink: the registration is logged;
                                // the broker name carries its config
                                // file's taint across the wire.
                                log.info_taint(&format!("new broker registered: {name}"), *taint);
                                Some((name.clone(), *taint))
                            }
                            _ => None,
                        };
                        let broker_addr = request
                            .field("addr")
                            .and_then(ObjValue::as_str)
                            .unwrap_or("")
                            .to_string();
                        if let Some(ObjValue::List(topics)) = request.field("topics") {
                            let mut routes = routes.lock();
                            for topic in topics {
                                if let Some(t) = topic.as_str() {
                                    routes.insert(t.to_string(), broker_addr.clone());
                                }
                            }
                        }
                        let _ = name_taint;
                        ObjValue::Record("RegisterAck".into(), vec![])
                    }
                    Some("GetRouteInfo") => {
                        let topic = request
                            .field("topic")
                            .and_then(ObjValue::as_str)
                            .unwrap_or("");
                        match routes.lock().get(topic) {
                            Some(addr) => ObjValue::Record(
                                "RouteInfo".into(),
                                vec![("brokerAddr".into(), ObjValue::str_plain(addr.clone()))],
                            ),
                            None => ObjValue::Record("RouteNotFound".into(), vec![]),
                        }
                    }
                    _ => ObjValue::Record("UnknownRpc".into(), vec![]),
                };
                let _ = ctx.write(&Payload::Tainted(response.encode()));
            })
            .bind(addr)?;
        Ok(NameServer { server })
    }

    /// The registry address.
    pub fn addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// Stops the registry.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}
