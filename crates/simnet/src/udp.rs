//! UDP-like datagram mailboxes.
//!
//! Datagrams preserve message boundaries and are **truncated** when the
//! receiver's buffer is smaller than the datagram — the exact behaviour
//! that forces DisTA's packet-oriented instrumentation to enlarge receive
//! buffers (paper §III-C Type 2, §III-D-2). Fault injection can also drop
//! datagrams with a seeded probability.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::addr::NodeAddr;
use crate::error::NetError;
use crate::fault::spin_ns;
use crate::metrics::NetMetrics;
use crate::net::FaultsShared;
use crate::wakers::Wakers;

#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    state: Mutex<MailboxState>,
    wakers: Wakers,
}

#[derive(Debug, Default)]
struct MailboxState {
    queue: VecDeque<(NodeAddr, Vec<u8>)>,
    closed: bool,
}

impl MailboxState {
    /// Takes the next datagram; [`NetError::WouldBlock`] when the queue
    /// is empty but the socket is still open.
    fn take(&mut self, out: &mut [u8]) -> Result<(usize, NodeAddr), NetError> {
        let Some((from, datagram)) = self.queue.pop_front() else {
            if self.closed {
                return Err(NetError::Closed);
            }
            return Err(NetError::WouldBlock);
        };
        let n = out.len().min(datagram.len()); // truncation: excess is lost
        out[..n].copy_from_slice(&datagram[..n]);
        Ok((n, from))
    }
}

impl Mailbox {
    pub(crate) fn deliver(&self, from: NodeAddr, datagram: Vec<u8>) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.queue.push_back((from, datagram));
        drop(st);
        self.wakers.notify();
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.wakers.notify();
    }
}

/// A bound UDP-like socket.
#[derive(Debug, Clone)]
pub struct UdpEndpoint {
    inner: Arc<UdpInner>,
}

#[derive(Debug)]
struct UdpInner {
    addr: NodeAddr,
    mailbox: Arc<Mailbox>,
    net: crate::net::SimNet,
    metrics: NetMetrics,
    faults: FaultsShared,
}

impl UdpEndpoint {
    pub(crate) fn new(
        addr: NodeAddr,
        mailbox: Arc<Mailbox>,
        net: crate::net::SimNet,
        metrics: NetMetrics,
        faults: FaultsShared,
    ) -> Self {
        UdpEndpoint {
            inner: Arc::new(UdpInner {
                addr,
                mailbox,
                net,
                metrics,
                faults,
            }),
        }
    }

    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.inner.addr
    }

    /// Sends one datagram to `dest`. Silently dropped (like real UDP) if
    /// nothing is bound there, fault injection discards it, or an
    /// injected partition cuts the link.
    pub fn send_to(&self, dest: NodeAddr, datagram: &[u8]) {
        let engine = self.inner.faults.engine();
        engine.advance();
        if engine.blocked(self.inner.addr.ip(), dest.ip()) {
            self.inner.metrics.record_udp_drop(datagram.len());
            return;
        }
        if self.inner.faults.should_drop_udp() {
            self.inner.metrics.record_udp_drop(datagram.len());
            return;
        }
        spin_ns(engine.latency_ns(self.inner.addr.ip(), dest.ip()));
        self.inner.faults.charge_wire_time(datagram.len());
        if self
            .inner
            .net
            .deliver_datagram(self.inner.addr, dest, datagram)
        {
            self.inner.metrics.record_udp_datagram(datagram.len());
        }
    }

    /// Blocks for the next datagram; copies at most `buf.len()` bytes
    /// (the rest of the datagram is **discarded** — UDP truncation).
    ///
    /// Returns `(bytes_copied, sender)`.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if no datagram arrives within the
    /// configured block timeout, [`NetError::Closed`] if the socket was
    /// closed.
    pub fn receive(&self, buf: &mut [u8]) -> Result<(usize, NodeAddr), NetError> {
        let mailbox = &self.inner.mailbox;
        mailbox
            .wakers
            .wait(&mailbox.state, self.inner.faults.block_timeout(), |st| {
                st.take(buf)
            })
    }

    /// Closes the socket and unbinds the address.
    pub fn close(&self) {
        self.inner.mailbox.close();
        self.inner.net.unbind_udp(self.inner.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{FaultConfig, SimNet};
    use crate::FaultAction;

    fn two() -> (UdpEndpoint, UdpEndpoint) {
        let net = SimNet::new();
        let a = net.udp_bind(NodeAddr::new([10, 0, 0, 1], 53)).unwrap();
        let b = net.udp_bind(NodeAddr::new([10, 0, 0, 2], 53)).unwrap();
        (a, b)
    }

    #[test]
    fn datagram_roundtrip() {
        let (a, b) = two();
        a.send_to(b.local_addr(), b"hello");
        let mut buf = [0u8; 16];
        let (n, from) = b.receive(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        assert_eq!(from, a.local_addr());
    }

    #[test]
    fn message_boundaries_preserved() {
        let (a, b) = two();
        a.send_to(b.local_addr(), b"one");
        a.send_to(b.local_addr(), b"twotwo");
        let mut buf = [0u8; 16];
        let (n, _) = b.receive(&mut buf).unwrap();
        assert_eq!(n, 3);
        let (n, _) = b.receive(&mut buf).unwrap();
        assert_eq!(n, 6);
    }

    #[test]
    fn truncation_discards_excess() {
        let (a, b) = two();
        a.send_to(b.local_addr(), b"0123456789");
        let mut small = [0u8; 4];
        let (n, _) = b.receive(&mut small).unwrap();
        assert_eq!(n, 4);
        assert_eq!(&small, b"0123");
        // The truncated tail is gone; next receive would block.
        a.send_to(b.local_addr(), b"next");
        let (n, _) = b.receive(&mut small).unwrap();
        assert_eq!(&small[..n], b"next");
    }

    #[test]
    fn send_to_unbound_is_silent() {
        let (a, _) = two();
        a.send_to(NodeAddr::new([9, 9, 9, 9], 1), b"void"); // must not panic
    }

    #[test]
    fn drop_faults_lose_datagrams() {
        let net = SimNet::new();
        net.set_faults(FaultConfig {
            udp_drop_probability: 1.0,
            ..Default::default()
        });
        let a = net.udp_bind(NodeAddr::new([10, 0, 0, 1], 1)).unwrap();
        let b = net.udp_bind(NodeAddr::new([10, 0, 0, 2], 1)).unwrap();
        a.send_to(b.local_addr(), b"lost");
        let snap = net.metrics().snapshot();
        assert_eq!(snap.udp_dropped, 1);
        assert_eq!(snap.udp_dropped_bytes, 4, "dropped bytes stay accounted");
        assert_eq!(snap.udp_datagrams, 0);
        assert_eq!(snap.delivered_bytes(), 0);
        assert_eq!(snap.total_bytes(), 4);
    }

    #[test]
    fn partition_drops_datagrams_until_heal() {
        let net = SimNet::new();
        let a = net.udp_bind(NodeAddr::new([10, 0, 0, 1], 2)).unwrap();
        let b = net.udp_bind(NodeAddr::new([10, 0, 0, 2], 2)).unwrap();
        net.inject(FaultAction::Partition {
            from: [10, 0, 0, 1],
            to: [10, 0, 0, 2],
        });
        a.send_to(b.local_addr(), b"lost");
        assert_eq!(net.metrics().snapshot().udp_dropped, 1);
        net.inject(FaultAction::Heal {
            from: [10, 0, 0, 1],
            to: [10, 0, 0, 2],
        });
        a.send_to(b.local_addr(), b"through");
        let mut buf = [0u8; 16];
        let (n, _) = b.receive(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"through");
    }

    #[test]
    fn close_unbinds() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 1], 7);
        let a = net.udp_bind(addr).unwrap();
        a.close();
        assert!(net.udp_bind(addr).is_ok(), "address reusable after close");
    }
}
