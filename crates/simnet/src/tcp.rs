//! TCP-like reliable duplex byte streams.
//!
//! Streams have *genuine* stream semantics: writes are concatenated into
//! one byte sequence and reads return an arbitrary prefix of the buffered
//! bytes — at most the caller's buffer, at most what is buffered, and at
//! most the fault-injected chunk limit. This is what makes the paper's
//! "mismatched serialized taint length" problem (§III-D-2) real in the
//! simulator: a receiver genuinely can get half of a DisTA wire record
//! and must carry the remainder to the next read.
//!
//! [`TcpEndpoint::read`] blocks: it takes what is buffered under the
//! pipe's lock and otherwise parks on the pipe's own condition variable
//! — no allocation, no list — **deadline-absolute**: a wakeup that
//! brings no data re-arms only the remaining time. Writers publish
//! under the lock and wake after releasing it (the rule is stated once,
//! in `wakers.rs`). [`TcpEndpoint::try_read`] is the same take without
//! the park, for a caller that only wants what has already arrived.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::addr::NodeAddr;
use crate::error::NetError;
use crate::fault::spin_ns;
use crate::metrics::NetMetrics;
use crate::net::FaultsShared;
use crate::wakers::Wakers;

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl PipeState {
    /// Takes 1..=max bytes; `Ok(0)` only on clean EOF (or an empty
    /// `out`), [`NetError::WouldBlock`] when nothing is buffered yet.
    fn take(&mut self, out: &mut [u8], max_chunk: usize) -> Result<usize, NetError> {
        if out.is_empty() {
            return Ok(0);
        }
        if self.buf.is_empty() {
            if self.closed {
                return Ok(0); // EOF
            }
            return Err(NetError::WouldBlock);
        }
        let n = out.len().min(self.buf.len()).min(max_chunk.max(1));
        let (front, back) = self.buf.as_slices();
        if n <= front.len() {
            out[..n].copy_from_slice(&front[..n]);
        } else {
            out[..front.len()].copy_from_slice(front);
            out[front.len()..n].copy_from_slice(&back[..n - front.len()]);
        }
        self.buf.drain(..n);
        Ok(n)
    }
}

/// One direction of a connection: a byte queue and its parked readers.
#[derive(Debug, Default)]
pub(crate) struct Pipe {
    state: Mutex<PipeState>,
    wakers: Wakers,
}

impl Pipe {
    fn write(&self, bytes: &[u8]) -> Result<(), NetError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(NetError::Closed);
        }
        st.buf.extend(bytes);
        drop(st);
        self.wakers.notify();
        Ok(())
    }

    /// Non-blocking read; see [`PipeState::take`].
    fn try_read(&self, out: &mut [u8], max_chunk: usize) -> Result<usize, NetError> {
        self.state.lock().take(out, max_chunk)
    }

    /// Blocking read: [`PipeState::take`] until data, EOF, or the
    /// **absolute** deadline.
    fn read(&self, out: &mut [u8], max_chunk: usize, timeout: Duration) -> Result<usize, NetError> {
        self.wakers
            .wait(&self.state, timeout, |st| st.take(out, max_chunk))
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.wakers.notify();
    }

    fn buffered(&self) -> usize {
        self.state.lock().buf.len()
    }
}

/// One end of an established TCP-like connection.
///
/// Dropping the endpoint closes both directions (half-close is not
/// modeled; none of the reproduced systems need it).
#[derive(Debug, Clone)]
pub struct TcpEndpoint {
    inner: Arc<EndpointInner>,
}

#[derive(Debug)]
struct EndpointInner {
    local: NodeAddr,
    peer: NodeAddr,
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    metrics: NetMetrics,
    faults: FaultsShared,
    closed: AtomicBool,
    /// Logical fault-clock step at connection establishment; a
    /// scheduled `Reset` at a later step severs this connection.
    created_step: u64,
}

impl TcpEndpoint {
    pub(crate) fn pair(
        a_addr: NodeAddr,
        b_addr: NodeAddr,
        metrics: NetMetrics,
        faults: FaultsShared,
        created_step: u64,
    ) -> (TcpEndpoint, TcpEndpoint) {
        let ab = Arc::new(Pipe::default());
        let ba = Arc::new(Pipe::default());
        let a = TcpEndpoint {
            inner: Arc::new(EndpointInner {
                local: a_addr,
                peer: b_addr,
                rx: ba.clone(),
                tx: ab.clone(),
                metrics: metrics.clone(),
                faults: faults.clone(),
                closed: AtomicBool::new(false),
                created_step,
            }),
        };
        let b = TcpEndpoint {
            inner: Arc::new(EndpointInner {
                local: b_addr,
                peer: a_addr,
                rx: ab,
                tx: ba,
                metrics,
                faults,
                closed: AtomicBool::new(false),
                created_step,
            }),
        };
        (a, b)
    }

    /// Applies any pending fault-engine verdict to this connection:
    /// a scheduled reset closes it; a partition blocks the sender.
    fn check_link_faults(&self, advance: bool) -> Result<(), NetError> {
        let engine = self.inner.faults.engine();
        if advance {
            engine.advance();
        }
        if engine.link_reset_since(
            self.inner.local.ip(),
            self.inner.peer.ip(),
            self.inner.created_step,
        ) {
            self.close();
            return Err(NetError::Closed);
        }
        Ok(())
    }

    /// Local address of this end.
    pub fn local_addr(&self) -> NodeAddr {
        self.inner.local
    }

    /// Address of the peer.
    pub fn peer_addr(&self) -> NodeAddr {
        self.inner.peer
    }

    /// Writes all bytes to the peer.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if either side has closed the connection
    /// (including an injected connection reset);
    /// [`NetError::Unreachable`] if a partition cuts the link.
    pub fn write(&self, bytes: &[u8]) -> Result<(), NetError> {
        if self.inner.closed.load(Ordering::Relaxed) {
            return Err(NetError::Closed);
        }
        self.check_link_faults(true)?;
        let engine = self.inner.faults.engine();
        if engine.blocked(self.inner.local.ip(), self.inner.peer.ip()) {
            return Err(NetError::Unreachable(self.inner.peer));
        }
        spin_ns(engine.latency_ns(self.inner.local.ip(), self.inner.peer.ip()));
        self.inner.faults.charge_wire_time(bytes.len());
        // Count before the bytes become readable: observers who woke up
        // on this write must already see it in the metrics.
        self.inner.metrics.record_tcp_bytes(bytes.len());
        match self.inner.tx.write(bytes) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.inner.metrics.record_tcp_bytes_undo(bytes.len());
                Err(e)
            }
        }
    }

    /// Non-blocking read into `buf`.
    ///
    /// Returns the number of bytes read; `Ok(0)` means EOF.
    ///
    /// # Errors
    ///
    /// [`NetError::WouldBlock`] if no bytes are buffered; the usual
    /// transport errors otherwise.
    pub fn try_read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        self.check_link_faults(false)?;
        let chunk = self.inner.faults.max_read_chunk();
        self.inner.rx.try_read(buf, chunk)
    }

    /// Reads into `buf`, blocking until ≥1 byte is available.
    ///
    /// Returns the number of bytes read; `Ok(0)` means EOF (peer closed
    /// and the buffer is drained). The read may return fewer bytes than
    /// both `buf.len()` and the amount buffered — real TCP semantics,
    /// further constrained by [`crate::FaultConfig::max_read_chunk`].
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if no data arrives within the configured
    /// block timeout ([`crate::FaultConfig::block_timeout`]).
    pub fn read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        self.check_link_faults(false)?;
        let chunk = self.inner.faults.max_read_chunk();
        self.inner
            .rx
            .read(buf, chunk, self.inner.faults.block_timeout())
    }

    /// Like [`TcpEndpoint::read`], but bounded by a caller-supplied
    /// deadline instead of the net-wide block timeout. RPC clients use
    /// this to put a per-round-trip deadline on one connection without
    /// reconfiguring the whole simulator. The wait is deadline-absolute:
    /// wakeups that bring no data re-arm only the remaining time.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if no data arrives within `timeout`.
    pub fn read_deadline(&self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
        self.check_link_faults(false)?;
        let chunk = self.inner.faults.max_read_chunk();
        self.inner.rx.read(buf, chunk, timeout)
    }

    /// Reads exactly `buf.len()` bytes, looping over partial reads.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] on EOF before the buffer is full;
    /// [`NetError::Timeout`] on stall.
    pub fn read_exact(&self, buf: &mut [u8]) -> Result<(), NetError> {
        read_full(&mut |tail| self.read(tail), buf)
    }

    /// Bytes currently buffered for reading.
    pub fn available(&self) -> usize {
        self.inner.rx.buffered()
    }

    /// Closes both directions — the receiving one first, so a peer that
    /// has seen EOF can no longer write into the connection.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Relaxed);
        self.inner.rx.close();
        self.inner.tx.close();
    }
}

/// Fills `buf` through `read` (one transport read per call), looping
/// over partial reads; `Ok(0)` — EOF — before `buf` is full is
/// [`NetError::Closed`].
pub fn read_full(
    read: &mut impl FnMut(&mut [u8]) -> Result<usize, NetError>,
    buf: &mut [u8],
) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = read(&mut buf[filled..])?;
        if n == 0 {
            return Err(NetError::Closed);
        }
        filled += n;
    }
    Ok(())
}

/// Most bytes [`read_announced`] sizes `buf` ahead of what has arrived.
const READ_CHUNK: usize = 64 << 10;

/// [`read_full`] for the `len` bytes a peer's frame header announced,
/// into `buf` (cleared first). The buffer grows with the bytes that
/// arrive, never more than 64 KiB ahead of them: a header announcing
/// 4 GiB costs its sender 4 GiB of writes, not the reader one
/// allocation. A frame up to that size is still one read.
pub fn read_announced(
    read: &mut impl FnMut(&mut [u8]) -> Result<usize, NetError>,
    len: usize,
    buf: &mut Vec<u8>,
) -> Result<(), NetError> {
    buf.clear();
    while buf.len() < len {
        let filled = buf.len();
        buf.resize(len.min(filled + READ_CHUNK), 0);
        read_full(read, &mut buf[filled..])?;
    }
    Ok(())
}

impl Drop for EndpointInner {
    fn drop(&mut self) {
        self.rx.close();
        self.tx.close();
    }
}

/// Queue of accepted-but-unclaimed connections behind one listener.
#[derive(Debug, Default)]
pub(crate) struct AcceptQueue {
    state: Mutex<AcceptState>,
    wakers: Wakers,
}

#[derive(Debug, Default)]
struct AcceptState {
    queue: VecDeque<TcpEndpoint>,
    closed: bool,
}

impl AcceptState {
    fn pop(&mut self) -> Result<TcpEndpoint, NetError> {
        match self.queue.pop_front() {
            Some(ep) => Ok(ep),
            None if self.closed => Err(NetError::Closed),
            None => Err(NetError::WouldBlock),
        }
    }
}

impl AcceptQueue {
    /// Enqueues a freshly-paired server endpoint; `false` if the
    /// listener is gone (the connector sees `ConnectionRefused`).
    pub(crate) fn push(&self, ep: TcpEndpoint) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        st.queue.push_back(ep);
        drop(st);
        self.wakers.notify();
        true
    }

    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.wakers.notify();
    }
}

/// A listening socket; yields one [`TcpEndpoint`] per accepted connection.
#[derive(Debug)]
pub struct TcpListener {
    addr: NodeAddr,
    incoming: Arc<AcceptQueue>,
    faults: FaultsShared,
}

impl TcpListener {
    pub(crate) fn new(addr: NodeAddr, faults: FaultsShared) -> (TcpListener, Arc<AcceptQueue>) {
        let queue = Arc::new(AcceptQueue::default());
        (
            TcpListener {
                addr,
                incoming: queue.clone(),
                faults,
            },
            queue,
        )
    }

    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    /// Blocks until a client connects (deadline-absolute, like a
    /// blocking read).
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if nothing connects within the configured
    /// block timeout; [`NetError::Closed`] if the listener was removed.
    pub fn accept(&self) -> Result<TcpEndpoint, NetError> {
        let incoming = &self.incoming;
        incoming.wakers.wait(
            &incoming.state,
            self.faults.block_timeout(),
            AcceptState::pop,
        )
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        // Later connects to a dropped listener must be refused even if
        // the address was never explicitly unlistened.
        self.incoming.close();
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::net::SimNet;
    use crate::FaultAction;

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 1], 80);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        (c, s)
    }

    #[test]
    fn bytes_flow_both_ways() {
        let (c, s) = pair();
        c.write(b"ping").unwrap();
        let mut buf = [0u8; 8];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        s.write(b"pong").unwrap();
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong");
    }

    #[test]
    fn writes_concatenate_as_stream() {
        let (c, s) = pair();
        c.write(b"ab").unwrap();
        c.write(b"cd").unwrap();
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
    }

    #[test]
    fn read_returns_at_most_buf_len() {
        let (c, s) = pair();
        c.write(b"0123456789").unwrap();
        let mut buf = [0u8; 3];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(n, 3);
        assert_eq!(&buf, b"012");
        assert_eq!(s.available(), 7);
    }

    #[test]
    fn eof_after_close() {
        let (c, s) = pair();
        c.write(b"x").unwrap();
        c.close();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 1);
        assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF after drain");
        assert_eq!(s.write(b"y"), Err(NetError::Closed));
    }

    #[test]
    fn read_exact_errors_on_short_stream() {
        let (c, s) = pair();
        c.write(b"ab").unwrap();
        c.close();
        let mut buf = [0u8; 4];
        assert_eq!(s.read_exact(&mut buf), Err(NetError::Closed));
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let (c, s) = pair();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            let n = s.read(&mut buf).unwrap();
            buf[..n].to_vec()
        });
        std::thread::sleep(Duration::from_millis(20));
        c.write(b"late").unwrap();
        assert_eq!(t.join().unwrap(), b"late");
    }

    #[test]
    fn empty_read_buffer_is_noop() {
        let (c, s) = pair();
        c.write(b"x").unwrap();
        let mut empty: [u8; 0] = [];
        assert_eq!(s.read(&mut empty).unwrap(), 0);
        assert_eq!(s.available(), 1);
    }

    #[test]
    fn try_read_would_block_then_drains() {
        let (c, s) = pair();
        let mut buf = [0u8; 8];
        assert_eq!(s.try_read(&mut buf), Err(NetError::WouldBlock));
        c.write(b"now").unwrap();
        assert_eq!(s.try_read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"now");
        assert_eq!(s.try_read(&mut buf), Err(NetError::WouldBlock));
        c.close();
        assert_eq!(s.try_read(&mut buf).unwrap(), 0, "EOF, not WouldBlock");
    }

    #[test]
    fn configured_block_timeout_is_typed() {
        let net = SimNet::new();
        let timeout = Duration::from_millis(25);
        net.set_faults(crate::FaultConfig {
            block_timeout: timeout,
            ..Default::default()
        });
        let addr = NodeAddr::new([10, 0, 0, 1], 86);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        let started = Instant::now();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf), Err(NetError::Timeout(timeout)));
        assert!(started.elapsed() >= timeout, "timeout fired early");
        drop(c);
    }

    #[test]
    fn blocking_read_deadline_is_absolute_under_spurious_wakeups() {
        // A wakeup storm that never delivers data must not extend the
        // deadline. Notify the pipe's wake list directly every 15 ms —
        // each gap is far below the 80 ms timeout, so a re-arming
        // (deadline-relative) wait would never expire.
        let pipe = Arc::new(Pipe::default());
        let timeout = Duration::from_millis(80);
        let storm = {
            let pipe = pipe.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    std::thread::sleep(Duration::from_millis(15));
                    pipe.wakers.notify();
                }
            })
        };
        let started = Instant::now();
        let mut buf = [0u8; 8];
        let got = pipe.read(&mut buf, usize::MAX, timeout);
        let elapsed = started.elapsed();
        storm.join().unwrap();
        assert_eq!(got, Err(NetError::Timeout(timeout)));
        assert!(
            elapsed < Duration::from_millis(1000),
            "reader must time out near the absolute deadline, took {elapsed:?}"
        );
    }

    #[test]
    fn partitioned_write_is_unreachable_until_heal() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 2], 87);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect_from([10, 0, 0, 1], addr).unwrap();
        let s = l.accept().unwrap();
        net.inject(FaultAction::Partition {
            from: [10, 0, 0, 1],
            to: [10, 0, 0, 2],
        });
        assert_eq!(c.write(b"x"), Err(NetError::Unreachable(addr)));
        s.write(b"reverse ok").unwrap(); // directed: replies still flow
        net.inject(FaultAction::Heal {
            from: [10, 0, 0, 1],
            to: [10, 0, 0, 2],
        });
        c.write(b"x").unwrap();
    }

    #[test]
    fn link_reset_severs_established_connections() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 2], 88);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect_from([10, 0, 0, 1], addr).unwrap();
        let s = l.accept().unwrap();
        c.write(b"before").unwrap();
        net.inject(FaultAction::Reset {
            a: [10, 0, 0, 1],
            b: [10, 0, 0, 2],
        });
        assert_eq!(c.write(b"after"), Err(NetError::Closed));
        // A fresh connection on the same link works again.
        let c2 = net.tcp_connect_from([10, 0, 0, 1], addr).unwrap();
        let s2 = l.accept().unwrap();
        c2.write(b"new").unwrap();
        let mut buf = [0u8; 3];
        s2.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"new");
        drop(s);
    }

    #[test]
    fn partial_read_fault_limits_chunks() {
        let net = SimNet::new();
        net.set_faults(crate::FaultConfig {
            max_read_chunk: 2,
            ..Default::default()
        });
        let addr = NodeAddr::new([10, 0, 0, 1], 81);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        c.write(b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(s.read(&mut buf).unwrap(), 2, "chunk limit applies");
        s.read_exact(&mut buf[2..]).unwrap();
        assert_eq!(&buf, b"abcdef");
    }
}
