//! # dista-taint — Phosphor-equivalent intra-node taint tracking
//!
//! This crate reproduces the intra-node half of DisTA (DSN 2022): a
//! Phosphor-style dynamic taint engine. Every tracked value carries a
//! shadow [`Taint`], which is a handle into an interned, per-VM
//! [`TaintTree`] — the "singleton tree" of the paper's §II-B. A taint is a
//! *set of tags*; combining two taints unions their tag sets, and the tree
//! interns every distinct set exactly once so that equal sets share
//! storage.
//!
//! Tags are the quad `<ID, Tag, LocalID, GlobalID>` from the paper's
//! §III-D-1: `LocalID` (node IP + process id) disambiguates tags with
//! identical values minted on different nodes, and `GlobalID` is assigned
//! by the Taint Map service (crate `dista-taintmap`) the first time a
//! taint crosses the network.
//!
//! # Example
//!
//! ```rust
//! use dista_taint::{TaintStore, LocalId, TagValue};
//!
//! let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 4242));
//! let a = store.mint_source_taint(TagValue::str("a_tag"));
//! let b = store.mint_source_taint(TagValue::str("b_tag"));
//! // c = a + b  =>  c's taint is the union of a's and b's
//! let c = store.union(a, b);
//! assert_eq!(store.tag_values(c), vec!["a_tag".to_string(), "b_tag".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod index;
mod reader;
mod report;
mod runs;
mod serial;
mod spec;
mod store;
mod tag;
mod tree;
mod value;

pub use bytes::{Payload, TaintedBytes};
pub use index::{ArenaSpan, ByteArena, IdFront, IdIndex};
pub use reader::{ByteReader, ReadError};
pub use report::{SinkEvent, SinkRecorder, SinkReport};
pub use runs::{TaintRun, TaintRuns};
pub use serial::{deserialize_taint, serialize_taint, unpack_serialized, TaintCodecError};
pub use spec::{MethodDesc, ParseSpecError, SourceSinkSpec};
pub use store::TaintStore;
pub use tag::{GlobalId, LocalId, TagId, TagValue, TaintTag};
pub use tree::{IdMap, Taint, TaintTree, TreeStats};
pub use value::Tainted;
