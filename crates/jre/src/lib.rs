//! # dista-jre — the (instrumented) mini-JRE
//!
//! DisTA works by instrumenting the JRE: Phosphor rewrites the Java I/O
//! classes for intra-node shadow propagation, and DisTA additionally
//! wraps the 23 network JNI methods so taints survive the native
//! boundary. This crate is the reproduction's JRE: a library of
//! Java-flavoured I/O classes — socket streams, data/buffered/object
//! streams, datagrams, NIO channels and direct buffers, async channels,
//! HTTP — whose behaviour switches on the per-VM [`Mode`]:
//!
//! * [`Mode::Original`] — untracked; payloads are plain bytes and no
//!   shadow work happens anywhere.
//! * [`Mode::Phosphor`] — intra-node tracking only. Shadows propagate
//!   through every stream operation, but at the JNI boundary the paper's
//!   Fig.-4 wrapper semantics apply: the receive wrapper assigns the
//!   *parameter buffer's* prior taint to the received data, so the
//!   sender's taints are silently lost — the baseline unsoundness DisTA
//!   fixes.
//! * [`Mode::Dista`] — full inter-node tracking: senders interleave a
//!   fixed-width Global ID after every data byte, receivers strip and
//!   resolve them through the Taint Map.
//!
//! Every simulated JVM process is a [`Vm`]; all I/O classes are created
//! through it, mirroring how a real process sees exactly one (possibly
//! instrumented) JRE.
//!
//! # Example
//!
//! ```rust
//! use dista_simnet::{SimNet, NodeAddr};
//! use dista_taint::{TagValue, Payload, TaintedBytes};
//! use dista_taintmap::TaintMapEndpoint;
//! use dista_jre::{Vm, Mode, ServerSocket, Socket, InputStream, OutputStream};
//!
//! let net = SimNet::new();
//! let tm = TaintMapEndpoint::builder().connect(&net)?;
//!
//! let vm1 = Vm::builder("node1", &net).mode(Mode::Dista).ip([10, 0, 0, 1])
//!     .taint_map(tm.topology()).build()?;
//! let vm2 = Vm::builder("node2", &net).mode(Mode::Dista).ip([10, 0, 0, 2])
//!     .taint_map(tm.topology()).build()?;
//!
//! let server = ServerSocket::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 80))?;
//! let client = Socket::connect(&vm1, server.local_addr())?;
//! let t = std::thread::spawn(move || -> Result<Payload, dista_jre::JreError> {
//!     let conn = server.accept()?;
//!     conn.input_stream().read_exact(6)
//! });
//!
//! // Taint a secret on node 1 and send it.
//! let taint = vm1.store().mint_source_taint(TagValue::str("secret"));
//! let msg = Payload::Tainted(TaintedBytes::uniform(b"sesame", taint));
//! client.output_stream().write(&msg)?;
//!
//! // Node 2 receives both the bytes and the taint.
//! let received = t.join().unwrap()?;
//! assert_eq!(received.data(), b"sesame");
//! assert_eq!(received.taint_union(vm2.store()), {
//!     // the tag round-tripped through the Taint Map into vm2's tree
//!     let tags = vm2.store().tag_values(received.taint_union(vm2.store()));
//!     assert_eq!(tags, vec!["secret".to_string()]);
//!     received.taint_union(vm2.store())
//! });
//! tm.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aio;
mod boundary;
mod buffer;
mod buffered;
mod channel;
pub mod codec;
mod data;
mod datagram;
mod error;
mod file;
mod frame;
mod http;
mod log;
mod object;
mod socket;
mod stopwatch;
mod stream;
mod vm;

pub use aio::{AioFuture, AsyncServerSocketChannel, AsyncSocketChannel};
pub use boundary::BoundaryStream;
pub use buffer::{ByteBuffer, DirectByteBuffer};
pub use buffered::{BufferedInputStream, BufferedOutputStream, DEFAULT_BUFFER_SIZE};
pub use channel::{DatagramChannel, ServerSocketChannel, SocketChannel};
pub use codec::{
    PooledBuf, RingRemainder, V1Codec, V2Codec, WireBufPool, WireCodec, WireProtocol, WireVersion,
};
pub use data::{DataInputStream, DataOutputStream};
pub use datagram::{DatagramPacket, DatagramSocket};
pub use error::JreError;
pub use file::{FileInputStream, FILE_INPUT_STREAM_CLASS};
pub use frame::{length_prefixed, read_frame};
pub use http::{HttpClient, HttpRequest, HttpResponse, HttpServer};
pub use log::{Logger, LOGGER_CLASS};
pub use object::{ObjValue, ObjectInputStream, ObjectOutputStream};
pub use socket::{ServerSocket, Socket, SocketInputStream, SocketOutputStream};
pub use stream::{InputStream, OutputStream, PipedStream};
pub use vm::{Mode, Vm, VmBuilder};
