//! Error type for Taint Map RPCs.

use std::fmt;

use dista_simnet::NetError;
use dista_taint::{GlobalId, ReadError, TaintCodecError};

/// Errors surfaced by Taint Map clients and the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaintMapError {
    /// Transport failure.
    Net(NetError),
    /// A serialized taint failed to decode.
    Codec(TaintCodecError),
    /// The server does not know the requested id.
    UnknownGlobalId(GlobalId),
    /// Malformed request/response framing.
    Protocol(&'static str),
    /// The shard's circuit breaker is open (its primary and standbys
    /// were unreachable past the retry budget); the request fast-failed
    /// without touching the wire.
    ShardUnavailable(usize),
}

impl fmt::Display for TaintMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaintMapError::Net(e) => write!(f, "taint map transport error: {e}"),
            TaintMapError::Codec(e) => write!(f, "taint map codec error: {e}"),
            TaintMapError::UnknownGlobalId(g) => write!(f, "unknown global id {g}"),
            TaintMapError::Protocol(msg) => write!(f, "taint map protocol error: {msg}"),
            TaintMapError::ShardUnavailable(shard) => {
                write!(f, "taint map shard {shard} unavailable (circuit open)")
            }
        }
    }
}

impl std::error::Error for TaintMapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaintMapError::Net(e) => Some(e),
            TaintMapError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for TaintMapError {
    fn from(e: NetError) -> Self {
        TaintMapError::Net(e)
    }
}

impl From<TaintCodecError> for TaintMapError {
    fn from(e: TaintCodecError) -> Self {
        TaintMapError::Codec(e)
    }
}

impl From<ReadError> for TaintMapError {
    fn from(e: ReadError) -> Self {
        TaintMapError::Protocol(e.what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = TaintMapError::from(NetError::Closed);
        assert!(e.to_string().contains("transport"));
        assert!(e.source().is_some());
        let e = TaintMapError::UnknownGlobalId(GlobalId(9));
        assert!(e.to_string().contains("G9"));
        assert!(e.source().is_none());
    }
}
