//! # dista-core — the DisTA public API
//!
//! This crate is the reproduction's `DisTA.jar`: the facade a user
//! touches to put dynamic taint tracking under a distributed system.
//! It re-exports the substrate layers and adds the three pieces the
//! paper's tool itself owns:
//!
//! * [`registry`] — the inventory of the **23 instrumented JNI methods**
//!   (Table I) with their instrumentation types.
//! * [`DistaConfig`] — the launch-script configuration: the JVM flags and
//!   source/sink spec files a user adds to a system's launch scripts (the
//!   ~10-LOC usability claim of §V-E).
//! * [`Cluster`] — a builder that stands up a simulated cluster: one
//!   network, a Taint Map service, and one [`jre::Vm`] per node, all in the
//!   chosen [`Mode`].
//!
//! # Example
//!
//! ```rust
//! use dista_core::{Cluster, Mode};
//! use dista_core::taint::{TagValue, Payload, TaintedBytes};
//! use dista_core::jre::{ServerSocket, Socket, InputStream, OutputStream};
//! use dista_simnet::NodeAddr;
//!
//! // Two nodes with full DisTA tracking.
//! let cluster = Cluster::builder(Mode::Dista)
//!     .node("sender", [10, 0, 0, 1])
//!     .node("receiver", [10, 0, 0, 2])
//!     .build()?;
//! let (tx_vm, rx_vm) = (cluster.vm(0), cluster.vm(1));
//!
//! let server = ServerSocket::bind(rx_vm, NodeAddr::new([10, 0, 0, 2], 80))?;
//! let client = Socket::connect(tx_vm, server.local_addr())?;
//! let conn = server.accept()?;
//!
//! let secret = tx_vm.store().mint_source_taint(TagValue::str("secret"));
//! client.output_stream()
//!     .write(&Payload::Tainted(TaintedBytes::uniform(b"payload", secret)))?;
//! let received = conn.input_stream().read_exact(7)?;
//! assert_eq!(rx_vm.store().tag_values(received.taint_union(rx_vm.store())),
//!            vec!["secret".to_string()]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod error;
pub mod registry;
pub mod telemetry;

pub use cluster::{Cluster, ClusterBuilder};
pub use config::{DistaConfig, LaunchScript};
pub use error::DistaError;
pub use telemetry::{CollectorServer, TelemetryConfig, TelemetryPlane};

pub use dista_jre::{Mode, WireProtocol, WireVersion};
pub use dista_simnet::{FaultPlan, FaultPlanBuilder};

/// Re-export of the intra-node taint engine.
pub mod taint {
    pub use dista_taint::*;
}

/// Re-export of the mini-JRE I/O classes.
pub mod jre {
    pub use dista_jre::*;
}

/// Re-export of the simulated OS substrate.
pub mod simnet {
    pub use dista_simnet::*;
}

/// Re-export of the Taint Map service.
pub mod taintmap {
    pub use dista_taintmap::*;
}

/// Re-export of the telemetry layer (metrics registry, flight recorder,
/// provenance reconstruction, exporters).
pub mod obs {
    pub use dista_obs::*;
}
