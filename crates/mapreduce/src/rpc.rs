//! Yarn-style RPC: object records over length-framed NIO channels.
//!
//! Requests and responses are [`ObjValue`]s; the frame layer is a `u32`
//! length prefix over [`SocketChannel`], so every RPC byte passes the
//! instrumented dispatcher methods (Type 3).

use std::sync::Arc;

use dista_jre::{
    length_prefixed, read_frame, JreError, ObjValue, ServerSocketChannel, SocketChannel, Vm,
};
use dista_simnet::{NodeAddr, TcpServer};
use parking_lot::Mutex;

fn write_obj(channel: &SocketChannel, obj: &ObjValue) -> Result<(), JreError> {
    channel.write_payload(&length_prefixed(channel.vm(), &obj.encode()))
}

fn read_obj(channel: &SocketChannel) -> Result<Option<ObjValue>, JreError> {
    read_frame(channel)?
        .map(|body| ObjValue::decode(&body.into_tainted(), channel.vm()))
        .transpose()
}

/// A running RPC server.
#[derive(Debug)]
pub struct RpcServer {
    server: TcpServer,
}

impl RpcServer {
    /// Binds at `addr`; every inbound request record is passed to
    /// `handler` and its return value sent back.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start(
        vm: &Vm,
        addr: NodeAddr,
        handler: impl Fn(ObjValue) -> ObjValue + Send + Sync + 'static,
    ) -> Result<Self, JreError> {
        let server = ServerSocketChannel::serve(vm, addr, "rpc-server", move |channel| {
            while let Ok(Some(request)) = read_obj(&channel) {
                if write_obj(&channel, &handler(request)).is_err() {
                    return;
                }
            }
        })?;
        Ok(RpcServer { server })
    }

    /// The bound address.
    pub fn addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// Stops the server (see [`TcpServer::stop`]).
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

/// A synchronous RPC client over one persistent channel.
#[derive(Debug, Clone)]
pub struct RpcClient {
    channel: Arc<Mutex<SocketChannel>>,
}

impl RpcClient {
    /// Connects to an [`RpcServer`].
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        Ok(RpcClient {
            channel: Arc::new(Mutex::new(SocketChannel::connect(vm, addr)?)),
        })
    }

    /// Sends one request and awaits its response.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] if the server closes mid-call.
    pub fn call(&self, request: &ObjValue) -> Result<ObjValue, JreError> {
        let channel = self.channel.lock();
        write_obj(&channel, request)?;
        read_obj(&channel)?.ok_or(JreError::Eof)
    }

    /// Closes the connection.
    pub fn close(&self) {
        self.channel.lock().close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_core::{Cluster, Mode};
    use dista_taint::TagValue;

    #[test]
    fn rpc_roundtrip_preserves_taints() {
        let cluster = Cluster::builder(Mode::Dista).nodes("n", 2).build().unwrap();
        let server_vm = cluster.vm(1).clone();
        let server = RpcServer::start(
            &server_vm,
            NodeAddr::new([10, 0, 0, 2], 8030),
            move |request| {
                // Echo the request's "arg" field back as "result".
                let arg = request
                    .field("arg")
                    .cloned()
                    .unwrap_or(ObjValue::int_plain(0));
                ObjValue::Record("Response".into(), vec![("result".into(), arg)])
            },
        )
        .unwrap();

        let client_vm = cluster.vm(0);
        let client = RpcClient::connect(client_vm, server.addr()).unwrap();
        let t = client_vm.store().mint_source_taint(TagValue::str("arg"));
        let response = client
            .call(&ObjValue::Record(
                "Request".into(),
                vec![("arg".into(), ObjValue::Int(42, t))],
            ))
            .unwrap();
        match response.field("result") {
            Some(ObjValue::Int(42, taint)) => {
                assert_eq!(client_vm.store().tag_values(*taint), vec!["arg"]);
            }
            other => panic!("bad response: {other:?}"),
        }
        client.close();
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn sequential_calls_on_one_connection() {
        let cluster = Cluster::builder(Mode::Dista).nodes("n", 2).build().unwrap();
        let server = RpcServer::start(
            cluster.vm(1),
            NodeAddr::new([10, 0, 0, 2], 8031),
            |request| {
                let v = request.as_int().unwrap_or(0);
                ObjValue::int_plain(v * 2)
            },
        )
        .unwrap();
        let client = RpcClient::connect(cluster.vm(0), server.addr()).unwrap();
        for i in 0..10 {
            let r = client.call(&ObjValue::int_plain(i)).unwrap();
            assert_eq!(r.as_int(), Some(i * 2));
        }
        client.close();
        server.shutdown();
        cluster.shutdown();
    }
}
