//! `ServerBootstrap` / `Bootstrap` — channel setup and the event loop.
//!
//! A bound server accepts connections on a boss thread and serves each
//! channel on a worker thread: frames are decoded through the pipeline
//! and delivered to the child handler, whose [`ChannelContext`] can write
//! responses back through the same pipeline. Clients get a synchronous
//! [`NettyChannel`] handle (write + blocking read), which is all the
//! reproduced workloads need.

use std::sync::Arc;

use dista_jre::{JreError, ServerSocketChannel, SocketChannel, Vm};
use dista_simnet::{NodeAddr, TcpServer};
use dista_taint::Payload;

use crate::frame::{read_frame, write_frame};
use crate::pipeline::Pipeline;

/// Handler-side view of a channel: write responses, close, inspect peers.
#[derive(Debug, Clone)]
pub struct ChannelContext {
    channel: SocketChannel,
    pipeline: Pipeline,
}

impl ChannelContext {
    /// The VM serving this channel.
    pub fn vm(&self) -> &Vm {
        self.channel.vm()
    }

    /// The connected peer.
    pub fn peer_addr(&self) -> NodeAddr {
        self.channel.peer_addr()
    }

    /// Writes a message outbound through the pipeline.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn write(&self, msg: &Payload) -> Result<(), JreError> {
        let wire = self.pipeline.run_outbound(msg.clone(), self.vm());
        write_frame(&self.channel, &wire)
    }

    /// Closes the channel.
    pub fn close(&self) {
        self.channel.close();
    }
}

type ChildHandler = Arc<dyn Fn(&ChannelContext, Payload) + Send + Sync>;

/// Server-side bootstrap (`ServerBootstrap` in Netty).
pub struct ServerBootstrap {
    vm: Vm,
    pipeline: Pipeline,
    handler: Option<ChildHandler>,
}

impl ServerBootstrap {
    /// Starts configuring a server on `vm`.
    pub fn new(vm: &Vm) -> Self {
        ServerBootstrap {
            vm: vm.clone(),
            pipeline: Pipeline::new(),
            handler: None,
        }
    }

    /// Installs the codec pipeline.
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Installs the per-message child handler.
    pub fn child_handler(
        mut self,
        handler: impl Fn(&ChannelContext, Payload) + Send + Sync + 'static,
    ) -> Self {
        self.handler = Some(Arc::new(handler));
        self
    }

    /// Binds and starts the boss/worker threads.
    ///
    /// # Errors
    ///
    /// [`JreError::Protocol`] if no handler was installed; transport
    /// errors on bind.
    pub fn bind(self, addr: NodeAddr) -> Result<NettyServer, JreError> {
        let handler = self
            .handler
            .ok_or(JreError::Protocol("server bootstrap needs a child handler"))?;
        let pipeline = self.pipeline;
        let server = ServerSocketChannel::serve(&self.vm, addr, "netty-boss", move |channel| {
            let ctx = ChannelContext {
                channel: channel.clone(),
                pipeline: pipeline.clone(),
            };
            while let Ok(Some(frame)) = read_frame(&channel) {
                handler(&ctx, pipeline.run_inbound(frame, channel.vm()));
            }
        })?;
        Ok(NettyServer { server })
    }
}

impl std::fmt::Debug for ServerBootstrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerBootstrap")
            .field("vm", &self.vm.name())
            .field("pipeline", &self.pipeline)
            .finish()
    }
}

/// A running Netty server.
#[derive(Debug)]
pub struct NettyServer {
    server: TcpServer,
}

impl NettyServer {
    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// Stops the server (see [`TcpServer::stop`]).
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

/// Client-side bootstrap (`Bootstrap` in Netty).
#[derive(Debug)]
pub struct Bootstrap {
    vm: Vm,
    pipeline: Pipeline,
}

impl Bootstrap {
    /// Starts configuring a client on `vm`.
    pub fn new(vm: &Vm) -> Self {
        Bootstrap {
            vm: vm.clone(),
            pipeline: Pipeline::new(),
        }
    }

    /// Installs the codec pipeline (must mirror the server's).
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Connects, returning a synchronous channel handle.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(&self, addr: NodeAddr) -> Result<NettyChannel, JreError> {
        Ok(NettyChannel {
            channel: SocketChannel::connect(&self.vm, addr)?,
            pipeline: self.pipeline.clone(),
        })
    }
}

/// A connected client channel: pipeline-aware write and blocking read.
#[derive(Debug, Clone)]
pub struct NettyChannel {
    channel: SocketChannel,
    pipeline: Pipeline,
}

impl NettyChannel {
    /// The VM that owns the channel.
    pub fn vm(&self) -> &Vm {
        self.channel.vm()
    }

    /// Writes a message outbound through the pipeline.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn write(&self, msg: &Payload) -> Result<(), JreError> {
        let wire = self.pipeline.run_outbound(msg.clone(), self.vm());
        write_frame(&self.channel, &wire)
    }

    /// Blocks for the next inbound message; `None` on EOF.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn read(&self) -> Result<Option<Payload>, JreError> {
        match read_frame(&self.channel)? {
            Some(frame) => Ok(Some(self.pipeline.run_inbound(frame, self.vm()))),
            None => Ok(None),
        }
    }

    /// Write + read in one call (request/response convenience).
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] if the peer closes instead of responding.
    pub fn call(&self, msg: &Payload) -> Result<Payload, JreError> {
        self.write(msg)?;
        self.read()?.ok_or(JreError::Eof)
    }

    /// Closes the channel.
    pub fn close(&self) {
        self.channel.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::XorObfuscationCodec;
    use dista_jre::Mode;
    use dista_simnet::SimNet;
    use dista_taint::{TagValue, TaintedBytes};
    use dista_taintmap::TaintMapEndpoint;

    fn cluster() -> (TaintMapEndpoint, Vm, Vm) {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let mk = |n: &str, ip: [u8; 4]| {
            Vm::builder(n, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .taint_map(tm.topology())
                .build()
                .unwrap()
        };
        let c = mk("client", [10, 0, 0, 1]);
        let s = mk("server", [10, 0, 0, 2]);
        (tm, c, s)
    }

    #[test]
    fn echo_server_roundtrip_with_taints() {
        let (tm, client_vm, server_vm) = cluster();
        let server = ServerBootstrap::new(&server_vm)
            .child_handler(|ctx, msg| ctx.write(&msg).unwrap())
            .bind(NodeAddr::new([10, 0, 0, 2], 9000))
            .unwrap();
        let chan = Bootstrap::new(&client_vm)
            .connect(server.local_addr())
            .unwrap();
        let t = client_vm.store().mint_source_taint(TagValue::str("echo"));
        let reply = chan
            .call(&Payload::Tainted(TaintedBytes::uniform(b"hello netty", t)))
            .unwrap();
        assert_eq!(reply.data(), b"hello netty");
        assert_eq!(
            client_vm
                .store()
                .tag_values(reply.taint_union(client_vm.store())),
            vec!["echo".to_string()]
        );
        server.shutdown();
        tm.shutdown();
    }

    #[test]
    fn pipeline_codecs_apply_on_both_sides() {
        let (tm, client_vm, server_vm) = cluster();
        let make_pipeline = || Pipeline::new().add_last(XorObfuscationCodec::new(0x77));
        let server_vm2 = server_vm.clone();
        let server = ServerBootstrap::new(&server_vm)
            .pipeline(make_pipeline())
            .child_handler(move |ctx, msg| {
                // The handler sees the *decoded* message.
                assert_eq!(msg.data(), b"clear");
                let t = server_vm2.store().mint_source_taint(TagValue::str("resp"));
                ctx.write(&Payload::Tainted(TaintedBytes::uniform(b"reply", t)))
                    .unwrap();
            })
            .bind(NodeAddr::new([10, 0, 0, 2], 9001))
            .unwrap();
        let chan = Bootstrap::new(&client_vm)
            .pipeline(make_pipeline())
            .connect(server.local_addr())
            .unwrap();
        let reply = chan.call(&Payload::Plain(b"clear".to_vec())).unwrap();
        assert_eq!(reply.data(), b"reply");
        assert_eq!(
            client_vm
                .store()
                .tag_values(reply.taint_union(client_vm.store())),
            vec!["resp".to_string()]
        );
        server.shutdown();
        tm.shutdown();
    }

    #[test]
    fn v2_crossings_propagate_exact_trace_spans() {
        use dista_jre::WireProtocol;
        use dista_obs::{reconstruct, reconstruct_inferred, Hop, ObsConfig, Observability};

        let net = SimNet::new();
        let obs = Observability::with_registry(ObsConfig::default(), net.registry().clone());
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let mk = |n: &str, ip: [u8; 4]| {
            Vm::builder(n, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .wire_protocol(WireProtocol::V2)
                .taint_map(tm.topology())
                .observability(obs.clone())
                .build()
                .unwrap()
        };
        let client_vm = mk("client", [10, 0, 0, 1]);
        let server_vm = mk("server", [10, 0, 0, 2]);
        let server = ServerBootstrap::new(&server_vm)
            .child_handler(|ctx, msg| ctx.write(&msg).unwrap())
            .bind(NodeAddr::new([10, 0, 0, 2], 9004))
            .unwrap();
        let chan = Bootstrap::new(&client_vm)
            .connect(server.local_addr())
            .unwrap();
        let t = client_vm.taint_source(TagValue::str("trace"));
        let reply = chan
            .call(&Payload::Tainted(TaintedBytes::uniform(b"traced", t)))
            .unwrap();
        assert_eq!(reply.data(), b"traced");
        server.shutdown();

        let mut events = client_vm.flight_recorder().events();
        events.extend(server_vm.flight_recorder().events());
        let gid = events
            .iter()
            .find_map(|e| match &e.kind {
                dista_obs::ObsEventKind::BoundaryEncode { spans, .. } => {
                    spans.first().map(|s| s.gid)
                }
                _ => None,
            })
            .expect("a tainted netty crossing was recorded");
        let exact = reconstruct(&events, gid);
        assert!(
            exact.exact,
            "v2 netty crossings must pair by propagated span ids: {exact}"
        );
        let crossing_spans: Vec<u64> = exact
            .hops
            .iter()
            .filter_map(|h| match h {
                Hop::Crossed { span, .. } => Some(*span),
                _ => None,
            })
            .collect();
        assert_eq!(crossing_spans.len(), 2, "request and reply crossings");
        assert!(crossing_spans.iter().all(|&s| s != 0));
        // On this unambiguous path the exact trace agrees hop-for-hop
        // with the pre-trace-context gid-matching inference.
        let inferred = reconstruct_inferred(&events, gid);
        assert!(!inferred.exact);
        assert_eq!(exact.hops, inferred.hops);
        tm.shutdown();
    }

    #[test]
    fn server_requires_handler() {
        let (tm, _c, server_vm) = cluster();
        let err = ServerBootstrap::new(&server_vm)
            .bind(NodeAddr::new([10, 0, 0, 2], 9002))
            .unwrap_err();
        assert!(matches!(err, JreError::Protocol(_)));
        tm.shutdown();
    }

    #[test]
    fn multiple_concurrent_clients() {
        let (tm, client_vm, server_vm) = cluster();
        let server = ServerBootstrap::new(&server_vm)
            .child_handler(|ctx, msg| ctx.write(&msg).unwrap())
            .bind(NodeAddr::new([10, 0, 0, 2], 9003))
            .unwrap();
        let addr = server.local_addr();
        let mut joins = Vec::new();
        for i in 0..6u8 {
            let vm = client_vm.clone();
            joins.push(std::thread::spawn(move || {
                let chan = Bootstrap::new(&vm).connect(addr).unwrap();
                let reply = chan.call(&Payload::Plain(vec![i; 3])).unwrap();
                assert_eq!(reply.data(), &[i; 3]);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        server.shutdown();
        tm.shutdown();
    }
}
