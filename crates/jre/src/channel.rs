//! `java.nio.channels` — `SocketChannel`, `ServerSocketChannel` and
//! `DatagramChannel` (Type 3, direct-buffer instrumentation).
//!
//! Channel reads/writes move data between a [`DirectByteBuffer`] and the
//! network through `IOUtil.writeFromNativeBuffer` /
//! `readIntoNativeBuffer` + the dispatcher JNI methods (Table I). The
//! instrumented versions consult the buffer's shadow array on the way
//! out and refill it on the way in.

use std::sync::Arc;

use dista_simnet::{NodeAddr, TcpEndpoint, TcpListener, TcpServer};
use dista_taint::Payload;

use crate::boundary::{recv_datagram, send_datagram, BoundaryStream};
use crate::buffer::DirectByteBuffer;
use crate::error::JreError;
use crate::vm::Vm;

/// A connected NIO socket channel.
#[derive(Debug, Clone)]
pub struct SocketChannel {
    stream: Arc<BoundaryStream>,
}

impl SocketChannel {
    /// `SocketChannel.open()` + `connect(addr)`.
    ///
    /// # Errors
    ///
    /// [`JreError::Net`] if nothing listens at `addr`.
    pub fn connect(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        let ep = vm.net().tcp_connect_from(vm.ip(), addr)?;
        Ok(SocketChannel {
            stream: Arc::new(BoundaryStream::connector(vm.clone(), ep)),
        })
    }

    /// The server's end of a connection `vm` accepted.
    fn accepted(vm: &Vm, ep: TcpEndpoint) -> Self {
        SocketChannel {
            stream: Arc::new(BoundaryStream::acceptor(vm.clone(), ep)),
        }
    }

    /// The VM that owns this channel.
    pub fn vm(&self) -> &Vm {
        self.stream.vm()
    }

    /// Remote address.
    pub fn peer_addr(&self) -> NodeAddr {
        self.stream.endpoint().peer_addr()
    }

    /// `write(ByteBuffer)`: `IOUtil.writeFromNativeBuffer` — sends the
    /// buffer's readable window and advances its position.
    ///
    /// Returns the number of data bytes written.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn write(&self, buf: &mut DirectByteBuffer) -> Result<usize, JreError> {
        let window = buf.read_window();
        let n = window.len();
        if n == 0 {
            return Ok(0);
        }
        self.stream.write_payload(&window)?;
        buf.advance(n);
        Ok(n)
    }

    /// `read(ByteBuffer)`: `IOUtil.readIntoNativeBuffer` — receives up to
    /// `buf.remaining()` bytes into the buffer (data into native memory,
    /// taints into the shadow array).
    ///
    /// Returns the number of data bytes read; 0 means EOF.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn read(&self, buf: &mut DirectByteBuffer) -> Result<usize, JreError> {
        let want = buf.remaining();
        if want == 0 {
            return Ok(0);
        }
        let payload = self.stream.read_payload(want)?;
        let n = payload.len();
        buf.put(&payload)?;
        Ok(n)
    }

    /// Writes a payload directly (convenience used by framing layers).
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn write_payload(&self, payload: &Payload) -> Result<(), JreError> {
        self.stream.write_payload(payload)
    }

    /// Reads up to `max` bytes directly.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn read_payload(&self, max: usize) -> Result<Payload, JreError> {
        self.stream.read_payload(max)
    }

    /// Reads exactly `n` bytes directly.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] if the stream ends first.
    pub fn read_exact_payload(&self, n: usize) -> Result<Payload, JreError> {
        self.stream.read_exact_payload(n)
    }

    /// Closes the channel.
    pub fn close(&self) {
        self.stream.close();
    }
}

/// A listening NIO channel.
#[derive(Debug)]
pub struct ServerSocketChannel {
    vm: Vm,
    listener: TcpListener,
}

impl ServerSocketChannel {
    /// `ServerSocketChannel.open()` + `bind(addr)`.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn bind(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        Ok(ServerSocketChannel {
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
    /// Transport errors.
    pub fn accept(&self) -> Result<SocketChannel, JreError> {
        Ok(SocketChannel::accepted(&self.vm, self.listener.accept()?))
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
        session: impl Fn(SocketChannel) + Send + Sync + 'static,
    ) -> Result<TcpServer, JreError> {
        let session_vm = vm.clone();
        Ok(TcpServer::bind(vm.net(), addr, name, move |ep, _| {
            session(SocketChannel::accepted(&session_vm, ep))
        })?)
    }
}

/// An NIO datagram channel.
#[derive(Debug, Clone)]
pub struct DatagramChannel {
    vm: Vm,
    ep: dista_simnet::UdpEndpoint,
}

impl DatagramChannel {
    /// `DatagramChannel.open()` + `bind(addr)`.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn bind(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        Ok(DatagramChannel {
            vm: vm.clone(),
            ep: vm.net().udp_bind(addr)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.ep.local_addr()
    }

    /// `send(ByteBuffer, addr)`: sends the buffer's readable window as
    /// one datagram.
    ///
    /// # Errors
    ///
    /// Taint Map errors during wire wrapping.
    pub fn send(&self, buf: &mut DirectByteBuffer, dest: NodeAddr) -> Result<usize, JreError> {
        let window = buf.read_window();
        let n = window.len();
        send_datagram(&self.vm, &self.ep, dest, &window)?;
        buf.advance(n);
        Ok(n)
    }

    /// `receive(ByteBuffer)`: receives one datagram into the buffer.
    ///
    /// Returns the sender's address.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn receive(&self, buf: &mut DirectByteBuffer) -> Result<NodeAddr, JreError> {
        let (payload, from) = recv_datagram(&self.vm, &self.ep, buf.remaining())?;
        buf.put(&payload)?;
        Ok(from)
    }

    /// Closes the channel.
    pub fn close(&self) {
        self.ep.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Mode;
    use dista_simnet::SimNet;
    use dista_taint::{TagValue, TaintedBytes};
    use dista_taintmap::TaintMapEndpoint;

    fn cluster() -> (TaintMapEndpoint, Vm, Vm) {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let mk = |name: &str, ip: [u8; 4]| {
            Vm::builder(name, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .taint_map(tm.topology())
                .build()
                .unwrap()
        };
        let vm1 = mk("n1", [10, 0, 0, 1]);
        let vm2 = mk("n2", [10, 0, 0, 2]);
        (tm, vm1, vm2)
    }

    #[test]
    fn socket_channel_buffer_roundtrip() {
        let (tm, vm1, vm2) = cluster();
        let server = ServerSocketChannel::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 90)).unwrap();
        let client = SocketChannel::connect(&vm1, server.local_addr()).unwrap();
        let served = server.accept().unwrap();

        let t = vm1.store().mint_source_taint(TagValue::str("nio"));
        let mut out = DirectByteBuffer::allocate_direct(&vm1, 64);
        out.put(&Payload::Tainted(TaintedBytes::uniform(b"channel", t)))
            .unwrap();
        out.flip();
        assert_eq!(client.write(&mut out).unwrap(), 7);
        assert_eq!(out.remaining(), 0, "cursor advanced past written bytes");

        let mut input = DirectByteBuffer::allocate_direct(&vm2, 64);
        let n = served.read(&mut input).unwrap();
        assert_eq!(n, 7);
        input.flip();
        let got = input.get(7);
        assert_eq!(got.data(), b"channel");
        assert_eq!(
            vm2.store().tag_values(got.taint_union(vm2.store())),
            vec!["nio".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn datagram_channel_roundtrip() {
        let (tm, vm1, vm2) = cluster();
        let a = DatagramChannel::bind(&vm1, NodeAddr::new([10, 0, 0, 1], 91)).unwrap();
        let b = DatagramChannel::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 91)).unwrap();
        let t = vm1.store().mint_source_taint(TagValue::str("dgramchan"));
        let mut out = DirectByteBuffer::allocate_direct(&vm1, 32);
        out.put(&Payload::Tainted(TaintedBytes::uniform(b"dgram", t)))
            .unwrap();
        out.flip();
        a.send(&mut out, b.local_addr()).unwrap();

        let mut input = DirectByteBuffer::allocate_direct(&vm2, 32);
        let from = b.receive(&mut input).unwrap();
        assert_eq!(from, a.local_addr());
        input.flip();
        let got = input.get(5);
        assert_eq!(got.data(), b"dgram");
        assert_eq!(
            vm2.store().tag_values(got.taint_union(vm2.store())),
            vec!["dgramchan".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn empty_write_is_zero() {
        let (tm, vm1, vm2) = cluster();
        let server = ServerSocketChannel::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 92)).unwrap();
        let client = SocketChannel::connect(&vm1, server.local_addr()).unwrap();
        let _served = server.accept().unwrap();
        let mut buf = DirectByteBuffer::allocate_direct(&vm1, 8);
        buf.flip(); // nothing written -> empty window
        assert_eq!(client.write(&mut buf).unwrap(), 0);
        tm.shutdown();
    }

    #[test]
    fn eof_read_returns_zero() {
        let (tm, vm1, vm2) = cluster();
        let server = ServerSocketChannel::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 93)).unwrap();
        let client = SocketChannel::connect(&vm1, server.local_addr()).unwrap();
        let served = server.accept().unwrap();
        client.close();
        let mut buf = DirectByteBuffer::allocate_direct(&vm2, 8);
        assert_eq!(served.read(&mut buf).unwrap(), 0);
        tm.shutdown();
    }
}
