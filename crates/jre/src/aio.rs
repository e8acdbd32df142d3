//! `java.nio.channels.AsynchronousSocketChannel` (AIO).
//!
//! AIO operations return a future; completion happens on a worker
//! thread. On Linux the JDK implements AIO over the same dispatcher JNI
//! methods as NIO, which is why the same Type-3 instrumentation covers it
//! (paper §III-B: `SocketDispatcher` extends `FileDispatcherImpl`).

use std::sync::mpsc::{sync_channel, Receiver};
use std::time::Duration;

use dista_simnet::NodeAddr;
use dista_taint::Payload;

use crate::channel::{ServerSocketChannel, SocketChannel};
use crate::error::JreError;
use crate::vm::Vm;

/// A pending asynchronous result (`java.util.concurrent.Future`).
#[derive(Debug)]
pub struct AioFuture<T> {
    rx: Receiver<Result<T, JreError>>,
}

impl<T: Send + 'static> AioFuture<T> {
    fn spawn(f: impl FnOnce() -> Result<T, JreError> + Send + 'static) -> Self {
        let (tx, rx) = sync_channel(1);
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        AioFuture { rx }
    }

    /// `Future.get()`: blocks until the operation completes.
    ///
    /// # Errors
    ///
    /// The operation's error, or [`JreError::Protocol`] if the worker
    /// vanished.
    pub fn get(self) -> Result<T, JreError> {
        match self.rx.recv_timeout(Duration::from_secs(30)) {
            Ok(result) => result,
            Err(_) => Err(JreError::Protocol("async operation abandoned")),
        }
    }

    /// Non-blocking poll; `None` while still pending.
    pub fn try_get(&self) -> Option<Result<T, JreError>> {
        self.rx.try_recv().ok()
    }
}

/// An asynchronous TCP channel.
#[derive(Debug, Clone)]
pub struct AsyncSocketChannel {
    chan: SocketChannel,
}

impl AsyncSocketChannel {
    /// Connects asynchronously — resolves the future when established.
    pub fn connect(vm: &Vm, addr: NodeAddr) -> AioFuture<AsyncSocketChannel> {
        let vm = vm.clone();
        AioFuture::spawn(move || {
            Ok(AsyncSocketChannel {
                chan: SocketChannel::connect(&vm, addr)?,
            })
        })
    }

    fn from_channel(chan: SocketChannel) -> Self {
        AsyncSocketChannel { chan }
    }

    /// The VM that owns this channel.
    pub fn vm(&self) -> &Vm {
        self.chan.vm()
    }

    /// `write(ByteBuffer, …, handler)` as a future over a payload.
    pub fn write_async(&self, payload: Payload) -> AioFuture<usize> {
        let chan = self.chan.clone();
        AioFuture::spawn(move || {
            let n = payload.len();
            chan.write_payload(&payload)?;
            Ok(n)
        })
    }

    /// `read(ByteBuffer, …, handler)` as a future; resolves with up to
    /// `max` bytes (empty payload = EOF).
    pub fn read_async(&self, max: usize) -> AioFuture<Payload> {
        let chan = self.chan.clone();
        AioFuture::spawn(move || chan.read_payload(max))
    }

    /// Reads exactly `n` bytes asynchronously.
    pub fn read_exact_async(&self, n: usize) -> AioFuture<Payload> {
        let chan = self.chan.clone();
        AioFuture::spawn(move || chan.read_exact_payload(n))
    }

    /// Closes the channel.
    pub fn close(&self) {
        self.chan.close();
    }
}

/// An asynchronous server channel.
#[derive(Debug)]
pub struct AsyncServerSocketChannel {
    inner: std::sync::Arc<ServerSocketChannel>,
}

impl AsyncServerSocketChannel {
    /// Binds at `addr`.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn bind(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        Ok(AsyncServerSocketChannel {
            inner: std::sync::Arc::new(ServerSocketChannel::bind(vm, addr)?),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.inner.local_addr()
    }

    /// `accept(…, handler)` as a future.
    pub fn accept_async(&self) -> AioFuture<AsyncSocketChannel> {
        let inner = self.inner.clone();
        AioFuture::spawn(move || Ok(AsyncSocketChannel::from_channel(inner.accept()?)))
    }

    /// Stops listening.
    pub fn close(&self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Mode;
    use dista_simnet::SimNet;
    use dista_taint::{TagValue, TaintedBytes};
    use dista_taintmap::TaintMapEndpoint;

    #[test]
    fn async_roundtrip_with_taints() {
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

        let server =
            AsyncServerSocketChannel::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 95)).unwrap();
        let accept_future = server.accept_async();
        let client = AsyncSocketChannel::connect(&vm1, server.local_addr())
            .get()
            .unwrap();
        let served = accept_future.get().unwrap();

        let t = vm1.store().mint_source_taint(TagValue::str("aio"));
        let write = client.write_async(Payload::Tainted(TaintedBytes::uniform(b"async!", t)));
        let read = served.read_exact_async(6);
        assert_eq!(write.get().unwrap(), 6);
        let got = read.get().unwrap();
        assert_eq!(got.data(), b"async!");
        assert_eq!(
            vm2.store().tag_values(got.taint_union(vm2.store())),
            vec!["aio".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn try_get_polls() {
        let net = SimNet::new();
        let vm = Vm::builder("n", &net).build().unwrap();
        let server =
            AsyncServerSocketChannel::bind(&vm, NodeAddr::new([127, 0, 0, 1], 96)).unwrap();
        let fut = server.accept_async();
        assert!(fut.try_get().is_none(), "no client yet");
        let _client = AsyncSocketChannel::connect(&vm, server.local_addr())
            .get()
            .unwrap();
        // Eventually resolves.
        let mut resolved = false;
        for _ in 0..100 {
            if fut.try_get().is_some() {
                resolved = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(resolved);
    }
}
