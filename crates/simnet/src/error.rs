//! Error type for simulated network operations.

use std::fmt;
use std::time::Duration;

use crate::addr::NodeAddr;

/// Errors surfaced by the simulated OS network layer.
///
/// Also exported as [`crate::SimNetError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Bind target already has a listener/mailbox.
    AddrInUse(NodeAddr),
    /// No listener at the connect target.
    ConnectionRefused(NodeAddr),
    /// The peer closed the connection and all buffered data is consumed.
    Closed,
    /// A blocking operation exceeded the configured block timeout
    /// ([`crate::FaultConfig::block_timeout`]) — a protocol deadlock in
    /// the code under test, or an unhealed partition starving a reader.
    /// Carries the timeout that expired so tests can assert on it.
    Timeout(Duration),
    /// Operation on an address that is not bound.
    NotBound(NodeAddr),
    /// [`crate::TcpEndpoint::try_read`] found nothing buffered. Inside
    /// the simulator it is the signal on which a blocking wait parks and
    /// retries; the blocking API never surfaces it.
    WouldBlock,
    /// The destination is cut off by an injected partition
    /// ([`crate::FaultPlan`] / `SimNet::partition`).
    Unreachable(NodeAddr),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::AddrInUse(a) => write!(f, "address already in use: {a}"),
            NetError::ConnectionRefused(a) => write!(f, "connection refused: {a}"),
            NetError::Closed => f.write_str("connection closed by peer"),
            NetError::Timeout(after) => {
                write!(f, "simulated i/o timed out after {after:?}")
            }
            NetError::NotBound(a) => write!(f, "address not bound: {a}"),
            NetError::WouldBlock => f.write_str("operation would block; nothing buffered yet"),
            NetError::Unreachable(a) => write!(f, "destination unreachable (partitioned): {a}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        let a = NodeAddr::new([10, 0, 0, 1], 80);
        assert!(NetError::AddrInUse(a).to_string().contains("10.0.0.1:80"));
        assert!(NetError::Closed.to_string().contains("closed"));
        assert!(NetError::Timeout(Duration::from_millis(50))
            .to_string()
            .contains("timed out after 50ms"));
        assert!(NetError::Unreachable(a).to_string().contains("partitioned"));
        assert!(NetError::WouldBlock.to_string().contains("would block"));
    }
}
