//! The versioned boundary wire codec: the paper's §III-C/D wire format
//! plus the negotiated v2 extension.
//!
//! Two wire protocols live behind one trait:
//!
//! * [`v1`] — the paper's interleaved `[byte][gid:4]` record format,
//!   conformance-pinned and bit-identical on the wire to every prior
//!   release: ≈5× expansion on every byte.
//! * [`v2`] — adaptive framing: a clean-frame opcode ships untainted
//!   payloads at ~1.0x with no gid records, tainted frames carry
//!   run-length gid segments mirroring the `TaintRuns` shadow
//!   representation, and each frame picks the minimal gid width (1..=4
//!   bytes) for its own max gid.
//!
//! [`WireCodec`] is the object-safe surface the boundary layer programs
//! against; [`WireVersion`] names a settled protocol and
//! [`WireProtocol`] is the *policy* knob (`V1`, `V2`, or `Negotiate`
//! with v1 fallback for un-upgraded peers) configured per VM or per
//! cluster. Negotiation itself lives in `boundary` — the codecs here are
//! pure byte transformers, testable without a Taint Map in sight.
//!
//! Shared infrastructure stays in this module:
//!
//! * [`RingRemainder`] is a stream's receive buffer: the native read
//!   fills its tail in place, decode reads straight out of its
//!   contiguous live region, and consumption just advances a cursor.
//! * [`WireBufPool`] recycles wire-sized scratch buffers for the
//!   crossings that have no connection to keep one on (datagrams).
//!
//! The gid width is decided here and nowhere else: a v1 record carries
//! [`MAX_GID_WIDTH`] bytes, the 32-bit [`GlobalId`] whole, and a v2
//! frame picks 1..=[`MAX_GID_WIDTH`] from its own gids.

use dista_taint::GlobalId;
use parking_lot::Mutex;

use crate::error::JreError;

pub mod v1;
pub mod v2;

pub use v1::V1Codec;
pub use v2::V2Codec;

/// Widest Global ID the wire format carries, in bytes: a [`GlobalId`]
/// is a `u32`, and a v1 record carries all four of its bytes.
pub const MAX_GID_WIDTH: usize = 4;

const fn check_width(width: usize) {
    assert!(
        width >= 1 && width <= MAX_GID_WIDTH,
        "gid wire width must be 1..=4"
    );
}

/// Parses a big-endian gid of at most [`MAX_GID_WIDTH`] bytes.
fn gid_from_wire(bytes: &[u8]) -> GlobalId {
    GlobalId(bytes.iter().fold(0, |v, &b| (v << 8) | u32::from(b)))
}

/// A settled wire protocol version — what a connection actually speaks
/// after policy (and possibly negotiation) resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireVersion {
    /// The paper's interleaved record format (§III-C/D), bit-pinned.
    V1,
    /// Adaptive clean/run-segment framing with per-frame gid widths.
    V2,
}

impl WireVersion {
    /// The codec a connection settled on this version speaks.
    pub(crate) fn codec(self) -> &'static dyn WireCodec {
        match self {
            WireVersion::V1 => &V1Codec,
            WireVersion::V2 => &V2Codec,
        }
    }
}

impl std::fmt::Display for WireVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireVersion::V1 => "v1",
            WireVersion::V2 => "v2",
        })
    }
}

/// Wire protocol *policy* for a VM (and, via `ClusterBuilder`, a
/// cluster): which protocol new connections use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireProtocol {
    /// Pin every connection to v1. No negotiation bytes are ever sent,
    /// so the wire is bit-identical to pre-v2 releases. The default.
    #[default]
    V1,
    /// Pin every connection to v2. Both peers must speak v2 (pinned or
    /// negotiated); a pinned-v1 peer will misparse the frames.
    V2,
    /// Prefer v2, negotiating per connection with a one-round-trip
    /// handshake; falls back to v1 for un-upgraded peers.
    Negotiate,
}

/// A versioned boundary wire codec.
///
/// Implementations are pure byte transformers: taints arrive already
/// resolved to [`GlobalId`]s (run-length encoded, matching the
/// `TaintRuns` shadow representation) and leave the same way; Taint Map
/// resolution happens in the boundary layer. All methods take
/// caller-provided output buffers so hot paths can feed them buffers
/// they keep.
pub trait WireCodec: std::fmt::Debug + Send + Sync {
    /// Which protocol version this codec speaks.
    fn version(&self) -> WireVersion;

    /// Encodes `data` with its run-length taint table (`(run_len, gid)`
    /// pairs covering `data` exactly; [`GlobalId::UNTAINTED`] marks
    /// clean runs) into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Neither codec refuses a run table today: every [`GlobalId`] fits
    /// its wire.
    fn encode_into(
        &self,
        data: &[u8],
        runs: &[(usize, GlobalId)],
        out: &mut Vec<u8>,
    ) -> Result<(), JreError>;

    /// Stream decode: consumes as many whole wire units (records or
    /// frames) from the front of `wire` as fit in `max_data` decoded
    /// bytes, appending data to `data_out` and `(gid, run_len)` runs to
    /// `runs_out` (both cleared first). Returns the number of wire
    /// bytes consumed; `0` means more bytes are needed before anything
    /// can be decoded. May deliver more than `max_data` bytes if the
    /// unit straddling the limit is indivisible (v2 frames) — the
    /// caller buffers the excess.
    ///
    /// # Errors
    ///
    /// [`JreError::Protocol`] on malformed input.
    fn decode_available(
        &self,
        wire: &[u8],
        max_data: usize,
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) -> Result<usize, JreError>;

    /// Datagram decode: decodes one datagram's worth of wire bytes,
    /// tolerating tail truncation the way plain UDP truncates data (a
    /// cut datagram yields a data prefix, never an error, as long as
    /// the cut falls in the payload region).
    ///
    /// # Errors
    ///
    /// [`JreError::Protocol`] on malformed (not merely truncated)
    /// input.
    fn decode_datagram(
        &self,
        wire: &[u8],
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) -> Result<(), JreError>;

    /// How many wire bytes a receiver should pull to be able to deliver
    /// `max_data` decoded bytes (an upper bound; used to size receive
    /// buffers).
    fn recv_wire_len(&self, max_data: usize) -> usize;
}

/// How many scratch buffers one pool retains. A datagram crossing holds
/// one buffer at a time, so a small cap covers a VM's worth of
/// concurrent sockets without hoarding.
const POOL_RETAIN: usize = 8;

/// A per-VM pool of reusable wire-sized scratch buffers.
///
/// Datagram crossings check a buffer out, encode or receive into it,
/// and drop the guard — the buffer's capacity flows back into the pool.
/// (A [`crate::BoundaryStream`] keeps its own buffers instead: one
/// connection, one encode buffer, one receive ring.)
#[derive(Debug, Default)]
pub struct WireBufPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl WireBufPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out an empty buffer, reusing pooled capacity when any is
    /// available.
    pub fn checkout(&self) -> PooledBuf<'_> {
        let buf = self.bufs.lock().pop().unwrap_or_default();
        PooledBuf { buf, pool: self }
    }

    fn give_back(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < POOL_RETAIN {
            bufs.push(buf);
        }
    }
}

/// A scratch buffer checked out of a [`WireBufPool`]. Dereferences to
/// `Vec<u8>`; returns its capacity to the pool on drop.
#[derive(Debug)]
pub struct PooledBuf<'a> {
    buf: Vec<u8>,
    pool: &'a WireBufPool,
}

impl std::ops::Deref for PooledBuf<'_> {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf<'_> {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.buf));
    }
}

/// A stream's receive buffer: wire bytes received but not yet decoded,
/// contiguous in memory.
///
/// The live bytes are `buf[start..end]`. The backing vector keeps its
/// high-water *length* (not just its capacity), so
/// [`RingRemainder::fill_with`] can hand the native read a slice of the
/// tail to fill in place — no staging buffer, no copy, and no zero-fill
/// once the buffer has reached its working size. Decode borrows the
/// live region, [`RingRemainder::consume`] just advances `start`, and
/// the dead prefix is reclaimed lazily (when the buffer empties, or by
/// one `copy_within` compaction once the dead prefix outgrows the live
/// bytes — amortized O(1) per byte).
#[derive(Debug, Default)]
pub struct RingRemainder {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl RingRemainder {
    /// An empty remainder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (undecoded) bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no live bytes remain.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The live bytes, contiguous in memory.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// `n` writable bytes right after the live region (compacting first
    /// if the dead prefix outweighs the live region). Their content is
    /// whatever an earlier fill left there.
    fn tail(&mut self, n: usize) -> &mut [u8] {
        if self.start > 0 && self.start >= self.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let upto = self.end + n;
        if self.buf.len() < upto {
            self.buf.resize(upto, 0);
        }
        &mut self.buf[self.end..upto]
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.tail(bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Receives in place: hands `read` a `want`-byte slice of the tail
    /// and makes the `n` bytes it reports written live. A failed read —
    /// or one that wrote nothing — leaves the remainder as it was.
    ///
    /// # Errors
    ///
    /// Whatever `read` returns.
    ///
    /// # Panics
    ///
    /// Panics if `read` reports more bytes than it was offered.
    pub fn fill_with<E>(
        &mut self,
        want: usize,
        read: impl FnOnce(&mut [u8]) -> Result<usize, E>,
    ) -> Result<usize, E> {
        let n = read(self.tail(want))?;
        assert!(n <= want, "read reported more bytes than offered");
        self.end += n;
        Ok(n)
    }

    /// Marks the first `n` live bytes as decoded.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the live length.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consuming past the remainder");
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_capacity() {
        let pool = WireBufPool::new();
        let ptr = {
            let mut b = pool.checkout();
            b.extend_from_slice(&[0u8; 4096]);
            b.as_ptr() as usize
        };
        let b2 = pool.checkout();
        assert_eq!(b2.capacity(), 4096, "capacity survived the round trip");
        assert_eq!(b2.as_ptr() as usize, ptr, "same allocation reused");
        assert!(b2.is_empty());
    }

    #[test]
    fn pool_caps_retained_buffers() {
        let pool = WireBufPool::new();
        let many: Vec<_> = (0..POOL_RETAIN + 3)
            .map(|_| {
                let mut b = pool.checkout();
                b.push(0);
                b
            })
            .collect();
        drop(many);
        assert_eq!(pool.bufs.lock().len(), POOL_RETAIN);
        // Zero-capacity buffers are not worth pooling.
        let pool = WireBufPool::new();
        drop(pool.checkout());
        assert!(pool.bufs.lock().is_empty());
    }

    #[test]
    fn ring_remainder_consume_and_compact() {
        let mut ring = RingRemainder::new();
        assert!(ring.is_empty());
        ring.extend(&[1, 2, 3, 4, 5]);
        assert_eq!(ring.as_slice(), &[1, 2, 3, 4, 5]);
        ring.consume(3);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.as_slice(), &[4, 5]);
        // Dead prefix (3) >= live (2): the next extend compacts first.
        ring.extend(&[6, 7]);
        assert_eq!(ring.as_slice(), &[4, 5, 6, 7]);
        ring.consume(4);
        assert!(ring.is_empty());
        // Consuming everything resets the cursor entirely.
        ring.extend(&[8]);
        assert_eq!(ring.as_slice(), &[8]);
    }

    #[test]
    fn ring_remainder_fills_its_tail_in_place() {
        let mut ring = RingRemainder::new();
        ring.extend(&[1, 2]);
        // A short read makes only what it wrote live.
        let n = ring
            .fill_with(8, |tail| -> Result<usize, ()> {
                assert_eq!(tail.len(), 8);
                tail[..3].copy_from_slice(&[3, 4, 5]);
                Ok(3)
            })
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(ring.as_slice(), &[1, 2, 3, 4, 5]);
        // A failed read and an empty read leave the remainder alone,
        // whatever they scribbled on the tail.
        let failed = ring.fill_with(4, |tail| {
            tail.fill(0xEE);
            Err("reset")
        });
        assert_eq!(failed, Err("reset"));
        assert_eq!(ring.fill_with(4, |_| Ok::<_, ()>(0)), Ok(0));
        assert_eq!(ring.as_slice(), &[1, 2, 3, 4, 5]);
        // The next fill lands right behind the live bytes, and the
        // backing length (the high-water mark) is reused, not regrown.
        ring.consume(5);
        let high_water = ring.buf.len();
        ring.fill_with(6, |tail| Ok::<_, ()>(tail.len())).unwrap();
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.buf.len(), high_water);
    }

    #[test]
    #[should_panic(expected = "consuming past")]
    fn ring_remainder_overconsume_panics() {
        let mut ring = RingRemainder::new();
        ring.extend(&[1]);
        ring.consume(2);
    }

    #[test]
    fn wire_version_displays_lowercase() {
        assert_eq!(WireVersion::V1.to_string(), "v1");
        assert_eq!(WireVersion::V2.to_string(), "v2");
    }

    #[test]
    fn wire_protocol_defaults_to_v1() {
        assert_eq!(WireProtocol::default(), WireProtocol::V1);
    }
}
