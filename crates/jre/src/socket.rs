//! `java.net.Socket` / `ServerSocket` and their I/O streams (Type 1,
//! stream-oriented — the `socketRead0`/`socketWrite0` pair of Table I).

use std::sync::Arc;

use dista_simnet::{NodeAddr, TcpEndpoint, TcpListener, TcpServer};
use dista_taint::{Payload, Tainted};

use crate::boundary::BoundaryStream;
use crate::error::JreError;
use crate::stream::{InputStream, OutputStream};
use crate::vm::Vm;

/// A listening TCP socket.
#[derive(Debug)]
pub struct ServerSocket {
    vm: Vm,
    listener: TcpListener,
}

impl ServerSocket {
    /// Binds at `addr` on the VM's network.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn bind(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        Ok(ServerSocket {
            vm: vm.clone(),
            listener: vm.net().tcp_listen(addr)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.listener.local_addr()
    }

    /// Blocks until a client connects.
    ///
    /// # Errors
    ///
    /// Transport errors (timeout, shutdown).
    pub fn accept(&self) -> Result<Socket, JreError> {
        Ok(Socket::accepted(&self.vm, self.listener.accept()?))
    }

    /// Stops listening.
    pub fn close(&self) {
        self.vm.net().tcp_unlisten(self.listener.local_addr());
    }

    /// Binds at `addr` and serves it until the returned server is
    /// stopped: `session` runs on its own thread for each connection,
    /// wrapped in the VM's boundary (see [`TcpServer::bind`]).
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn serve(
        vm: &Vm,
        addr: NodeAddr,
        name: &str,
        session: impl Fn(Socket) + Send + Sync + 'static,
    ) -> Result<TcpServer, JreError> {
        let session_vm = vm.clone();
        Ok(TcpServer::bind(vm.net(), addr, name, move |ep, _| {
            session(Socket::accepted(&session_vm, ep))
        })?)
    }
}

/// An established TCP connection.
#[derive(Debug, Clone)]
pub struct Socket {
    stream: Arc<BoundaryStream>,
}

impl Socket {
    /// Connects from the VM's node IP to `addr`.
    ///
    /// # Errors
    ///
    /// [`JreError::Net`] if nothing listens at `addr`.
    pub fn connect(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        let ep = vm.net().tcp_connect_from(vm.ip(), addr)?;
        Ok(Socket {
            stream: Arc::new(BoundaryStream::connector(vm.clone(), ep)),
        })
    }

    /// The server's end of a connection `vm` accepted.
    fn accepted(vm: &Vm, ep: TcpEndpoint) -> Self {
        Socket {
            stream: Arc::new(BoundaryStream::acceptor(vm.clone(), ep)),
        }
    }

    /// The VM that owns this socket.
    pub fn vm(&self) -> &Vm {
        self.stream.vm()
    }

    /// Local endpoint address.
    pub fn local_addr(&self) -> NodeAddr {
        self.stream.endpoint().local_addr()
    }

    /// Remote endpoint address.
    pub fn peer_addr(&self) -> NodeAddr {
        self.stream.endpoint().peer_addr()
    }

    /// `Socket.getInputStream()`.
    pub fn input_stream(&self) -> SocketInputStream {
        SocketInputStream {
            stream: self.stream.clone(),
        }
    }

    /// `Socket.getOutputStream()`.
    pub fn output_stream(&self) -> SocketOutputStream {
        SocketOutputStream {
            stream: self.stream.clone(),
        }
    }

    /// Closes the connection.
    pub fn close(&self) {
        self.stream.close();
    }
}

/// `java.net.SocketInputStream` — reads bottom out in the instrumented
/// `socketRead0`.
#[derive(Debug, Clone)]
pub struct SocketInputStream {
    stream: Arc<BoundaryStream>,
}

impl SocketInputStream {
    /// Reads a single byte with its taint; `None` on EOF.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn read_u8(&self) -> Result<Option<Tainted<u8>>, JreError> {
        let payload = self.read(1)?;
        if payload.is_empty() {
            return Ok(None);
        }
        let byte = payload.data()[0];
        let taint = payload
            .as_tainted()
            .and_then(|t| t.taint_at(0))
            .unwrap_or_default();
        Ok(Some(Tainted::new(byte, taint)))
    }
}

impl InputStream for SocketInputStream {
    fn read(&self, max: usize) -> Result<Payload, JreError> {
        self.stream.read_payload(max)
    }

    fn read_exact(&self, n: usize) -> Result<Payload, JreError> {
        self.stream.read_exact_payload(n)
    }

    fn vm(&self) -> &Vm {
        self.stream.vm()
    }
}

/// `java.net.SocketOutputStream` — writes bottom out in the instrumented
/// `socketWrite0`.
#[derive(Debug, Clone)]
pub struct SocketOutputStream {
    stream: Arc<BoundaryStream>,
}

impl SocketOutputStream {
    /// Writes a single byte with its taint.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn write_u8(&self, byte: Tainted<u8>) -> Result<(), JreError> {
        let payload = if self.vm().mode().tracks_taints() {
            Payload::Tainted(dista_taint::TaintedBytes::uniform(
                vec![*byte.value()],
                byte.taint(),
            ))
        } else {
            Payload::Plain(vec![*byte.value()])
        };
        self.write(&payload)
    }
}

impl OutputStream for SocketOutputStream {
    fn write(&self, payload: &Payload) -> Result<(), JreError> {
        self.stream.write_payload(payload)
    }

    fn vm(&self) -> &Vm {
        self.stream.vm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Mode;
    use dista_simnet::SimNet;
    use dista_taint::{TagValue, TaintedBytes};
    use dista_taintmap::TaintMapEndpoint;

    fn dista_pair(port: u16) -> (TaintMapEndpoint, Vm, Vm, Socket, Socket) {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let vm1 = Vm::builder("n1", &net)
            .mode(Mode::Dista)
            .ip([10, 0, 0, 1])
            .taint_map(tm.topology())
            .build()
            .unwrap();
        let vm2 = Vm::builder("n2", &net)
            .mode(Mode::Dista)
            .ip([10, 0, 0, 2])
            .taint_map(tm.topology())
            .build()
            .unwrap();
        let server = ServerSocket::bind(&vm2, NodeAddr::new([10, 0, 0, 2], port)).unwrap();
        let client = Socket::connect(&vm1, server.local_addr()).unwrap();
        let served = server.accept().unwrap();
        (tm, vm1, vm2, client, served)
    }

    #[test]
    fn streams_carry_taints_end_to_end() {
        let (tm, vm1, vm2, client, served) = dista_pair(80);
        let t = vm1.store().mint_source_taint(TagValue::str("s"));
        client
            .output_stream()
            .write(&Payload::Tainted(TaintedBytes::uniform(b"hello", t)))
            .unwrap();
        let got = served.input_stream().read_exact(5).unwrap();
        assert_eq!(got.data(), b"hello");
        assert_eq!(
            vm2.store().tag_values(got.taint_union(vm2.store())),
            vec!["s".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn single_byte_io() {
        let (tm, vm1, vm2, client, served) = dista_pair(81);
        let t = vm1.store().mint_source_taint(TagValue::str("b"));
        client
            .output_stream()
            .write_u8(Tainted::new(0x42, t))
            .unwrap();
        let got = served.input_stream().read_u8().unwrap().unwrap();
        assert_eq!(*got.value(), 0x42);
        assert_eq!(vm2.store().tag_values(got.taint()), vec!["b".to_string()]);
        tm.shutdown();
    }

    #[test]
    fn addresses_are_sensible() {
        let (tm, _vm1, _vm2, client, served) = dista_pair(82);
        assert_eq!(client.peer_addr(), NodeAddr::new([10, 0, 0, 2], 82));
        assert_eq!(served.local_addr(), NodeAddr::new([10, 0, 0, 2], 82));
        assert_eq!(client.local_addr().ip(), [10, 0, 0, 1]);
        tm.shutdown();
    }

    #[test]
    fn close_propagates_eof() {
        let (tm, _vm1, _vm2, client, served) = dista_pair(83);
        client.close();
        assert!(served.input_stream().read_u8().unwrap().is_none());
        tm.shutdown();
    }

    #[test]
    fn server_close_frees_port() {
        let net = SimNet::new();
        let vm = Vm::builder("n", &net).build().unwrap();
        let addr = NodeAddr::new([127, 0, 0, 1], 90);
        let s = ServerSocket::bind(&vm, addr).unwrap();
        s.close();
        assert!(ServerSocket::bind(&vm, addr).is_ok());
    }
}
