//! Unified error type for mini-JRE I/O operations.

use std::fmt;

use dista_simnet::{FileNotFound, NetError};
use dista_taint::{ReadError, TaintCodecError};
use dista_taintmap::TaintMapError;

/// Errors surfaced by the mini-JRE I/O classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JreError {
    /// Transport failure from the simulated OS.
    Net(NetError),
    /// Taint Map RPC failure.
    TaintMap(TaintMapError),
    /// Serialized-taint decode failure.
    Codec(TaintCodecError),
    /// File-system failure.
    File(FileNotFound),
    /// Malformed wire data (framing, truncated records, bad object tags).
    Protocol(&'static str),
    /// End of stream reached before the requested data was available.
    Eof,
}

impl fmt::Display for JreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JreError::Net(e) => write!(f, "network error: {e}"),
            JreError::TaintMap(e) => write!(f, "taint map error: {e}"),
            JreError::Codec(e) => write!(f, "taint codec error: {e}"),
            JreError::File(e) => write!(f, "file error: {e}"),
            JreError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            JreError::Eof => f.write_str("unexpected end of stream"),
        }
    }
}

impl std::error::Error for JreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JreError::Net(e) => Some(e),
            JreError::TaintMap(e) => Some(e),
            JreError::Codec(e) => Some(e),
            JreError::File(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for JreError {
    fn from(e: NetError) -> Self {
        JreError::Net(e)
    }
}

impl From<TaintMapError> for JreError {
    fn from(e: TaintMapError) -> Self {
        JreError::TaintMap(e)
    }
}

impl From<TaintCodecError> for JreError {
    fn from(e: TaintCodecError) -> Self {
        JreError::Codec(e)
    }
}

impl From<ReadError> for JreError {
    fn from(e: ReadError) -> Self {
        JreError::Protocol(e.what())
    }
}

impl From<FileNotFound> for JreError {
    fn from(e: FileNotFound) -> Self {
        JreError::File(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_display() {
        let e: JreError = NetError::Closed.into();
        assert!(e.to_string().contains("network"));
        assert!(e.source().is_some());
        assert!(JreError::Eof.to_string().contains("end of stream"));
        assert!(JreError::Protocol("bad frame")
            .to_string()
            .contains("bad frame"));
    }
}
