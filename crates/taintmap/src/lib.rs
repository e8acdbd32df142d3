//! # dista-taintmap — the Taint Map service (paper §III-D)
//!
//! The Taint Map is "an independent process which can communicate with
//! all nodes, and maintain a map structure to store all global taints and
//! their Global IDs". It exists to solve two problems with shipping
//! serialized taints inline:
//!
//! 1. **Large bandwidth usage** — a serialized single-tag taint is >200
//!    bytes and grows linearly with tags; interleaving it per byte would
//!    cost >200× bandwidth. With the Taint Map, each node uploads every
//!    distinct global taint *once* and thereafter sends only its
//!    fixed-width Global ID.
//! 2. **Mismatched serialized taint length** — receivers allocate
//!    fixed-size buffers; a variable-length inline taint could be cut
//!    off. Fixed-width Global IDs make the receiver-side enlargement
//!    deterministic.
//!
//! The paper's single-server map is a scalability bottleneck (§III-D), so
//! this crate deploys the service as a set of **shards** behind one
//! [`TaintMapEndpoint`]: the Global ID namespace is statically
//! partitioned (shard `i` of `n` assigns ids `i+1, i+1+n, …`), so shards
//! never coordinate, and clients route by a stable hash of the
//! serialized taint. The paper's `Register` is a leased gid plus a
//! write-behind `BIND`: a client holds a block of gids per shard, hands
//! one to each new taint without asking, and binds them in batches — one
//! round trip per block, and none at all on a crossing that carries the
//! taint's definition. `LOOKUP` is the paper's other RPC. Both carry many
//! items, and the [`TaintMapClient`] pipelines multi-shard batches over
//! kept-open connections. Each shard keeps the paper's §IV
//! primary/standby replication independently.
//!
//! # Example
//!
//! ```rust
//! use dista_simnet::SimNet;
//! use dista_taint::{TaintStore, LocalId, TagValue};
//! use dista_taintmap::TaintMapEndpoint;
//!
//! let net = SimNet::new();
//! // Four shards, each with a warm standby.
//! let endpoint = TaintMapEndpoint::builder()
//!     .shards(4)
//!     .standby(true)
//!     .connect(&net)?;
//!
//! // Node 1 registers taints (batched) and gets Global IDs...
//! let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
//! let client1 = endpoint.client(&net, store1.clone())?;
//! let taints = vec![
//!     store1.mint_source_taint(TagValue::str("t1")),
//!     store1.mint_source_taint(TagValue::str("t2")),
//! ];
//! let gids = client1.global_ids_for(&taints)?;
//!
//! // ...Node 2 resolves the IDs back into its own tree.
//! let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
//! let client2 = endpoint.client(&net, store2.clone())?;
//! let resolved = client2.taints_for(&gids)?;
//! assert_eq!(store2.tag_values(resolved[0]), vec!["t1".to_string()]);
//! endpoint.shutdown();
//! # Ok::<(), dista_taintmap::TaintMapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod client;
mod endpoint;
mod error;
mod proto;
mod server;
mod shard;

pub use backend::{InMemoryBackend, TaintMapBackend, WIRE_RESERVED_GIDS};
pub use client::{ClientObserver, ClientResilience, ClientStats, TaintMapClient};
pub use endpoint::{ReshardStats, TaintMapEndpoint, TaintMapEndpointBuilder};
pub use error::TaintMapError;
pub use server::{ServerStats, TaintMapConfig, TaintMapServer, TaintMapWal, WalRecovery};
pub use shard::{ClassTable, ShardRange, ShardSpec, TaintMapTopology};
