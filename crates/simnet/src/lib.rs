//! # dista-simnet — the simulated operating system under DisTA
//!
//! DisTA instruments the JNI boundary: "network communication in
//! Java-based distributed systems utilizes JNI to bridge Java APIs and the
//! underlying operating system" (§I). This crate *is* that underlying
//! operating system for the reproduction: an in-memory, multi-threaded
//! network + file-system simulator whose entire API is **taint-oblivious**
//! — every function moves `&[u8]`, never shadow data. Anything the
//! instrumented wrappers above (crates `dista-jre` / `dista-core`) do not
//! explicitly re-encode into those bytes is lost at this boundary, exactly
//! as taints are lost inside native code on a real JVM.
//!
//! Provided subsystems:
//!
//! * [`SimNet`] — TCP-like reliable duplex byte streams (with genuine
//!   partial-read semantics) and UDP-like datagram mailboxes (with
//!   truncation and optional drops).
//! * [`TcpServer`] — the accept loop, session threads and shutdown every
//!   listener in the workspace shares.
//! * [`native`] — the "JNI surface": free functions named after the JNI
//!   methods DisTA instruments (`socket_write0`, `socket_read0`,
//!   `datagram_send`, …).
//! * [`SimFs`] — a per-node in-memory file system (taint sources in the
//!   SIM scenarios read configuration/transaction files from here).
//! * [`NetMetrics`] — byte accounting used by the ≈5× network-overhead
//!   experiment.
//! * [`FaultPlan`] — a deterministic chaos schedule of [`FaultAction`]s
//!   (directed partitions, connection resets, latency/jitter,
//!   crash-restart points) replayed bit-identically on a logical step
//!   clock; [`SimNet::inject`] applies one now.
//!
//! Every read, accept and receive blocks, and all of them wait the same
//! way: parked on the one source they need, under an absolute deadline
//! ([`FaultConfig::block_timeout`] or the caller's own). Sources change
//! state under their lock and wake after releasing it, and a wait
//! allocates nothing (pinned by `tests/stream_semantics.rs` and
//! `tests/handoff_stress.rs`).
//!
//! # Example
//!
//! ```rust
//! use dista_simnet::{SimNet, NodeAddr};
//!
//! let net = SimNet::new();
//! let server = net.tcp_listen(NodeAddr::new([10, 0, 0, 1], 2181))?;
//! let client = net.tcp_connect(NodeAddr::new([10, 0, 0, 1], 2181))?;
//! let served = server.accept()?;
//! client.write(b"ruok")?;
//! let mut buf = [0u8; 16];
//! let n = served.read(&mut buf)?;
//! assert_eq!(&buf[..n], b"ruok");
//! # Ok::<(), dista_simnet::NetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod fault;
mod fs;
mod metrics;
pub mod native;
mod net;
mod server;
mod tcp;
mod udp;
mod wakers;

pub use addr::NodeAddr;
pub use error::NetError;
pub use fault::{AppliedFault, FaultAction, FaultPlan, FaultPlanBuilder, LinkIp};
pub use fs::{FileNotFound, SimFs, SimFsError};
pub use metrics::{MetricsSnapshot, NetMetrics};
pub use net::{FaultConfig, SimNet};
pub use server::{ServerHandle, TcpServer};
pub use tcp::{read_announced, read_full, TcpEndpoint, TcpListener};
pub use udp::UdpEndpoint;

/// Alias for [`NetError`] under the simulator-qualified name used by the
/// chaos layer (`SimNetError::Timeout`, `SimNetError::Unreachable`, …).
pub type SimNetError = NetError;
