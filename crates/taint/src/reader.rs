//! The one bounded reader for bytes that come from outside the process:
//! a network frame, a datagram, a WAL or snapshot file. Every decoder in
//! the workspace turns such bytes into integers, lengths and capacities
//! through a [`ByteReader`], so the bounds live here once: a read past
//! the end is [`ReadError::Truncated`] (never a slice panic, never an
//! offset that wrapped), and [`ByteReader::count`] is the only way an
//! announced item count becomes a `with_capacity` — clamped to what the
//! unread bytes could hold. Integers are big-endian; varints are LEB128.

use std::fmt;

/// Longest accepted LEB128 varint, in bytes (enough for any `u64`).
const MAX_VARINT_LEN: usize = 10;

/// Why a read failed. The two cases are kept apart because streaming
/// parsers act on the difference: `Truncated` means "read more bytes and
/// try again", `Malformed` means no continuation can help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The buffer ended inside the value. Every proper prefix of a valid
    /// encoding reads as this, never as `Malformed` and never as a value.
    Truncated,
    /// The bytes cannot start a valid value, whatever follows them.
    Malformed(&'static str),
}

impl ReadError {
    /// What went wrong, for the `Protocol(&'static str)` variants of the
    /// decoders' own error types.
    pub fn what(self) -> &'static str {
        match self {
            ReadError::Truncated => "input ends inside a value",
            ReadError::Malformed(what) => what,
        }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.what())
    }
}

impl std::error::Error for ReadError {}

/// A forward-only cursor over a byte slice received from outside. Every
/// read that would pass the end of the slice is
/// [`ReadError::Truncated`]; a single-field read then consumes nothing.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes consumed so far — the offset of the next unread byte in the
    /// buffer the reader was built over (callers reading the data of a
    /// `TaintedBytes` slice its shadow by these offsets).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let bytes = self.remaining().get(..n).ok_or(ReadError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }

    /// A big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A `u16`-length-prefixed UTF-8 string; bytes that are not UTF-8
    /// are [`ReadError::Malformed`].
    #[inline]
    pub fn str16(&mut self) -> Result<&'a str, ReadError> {
        let len = usize::from(self.u16()?);
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|_| ReadError::Malformed("string is not valid utf-8"))
    }

    /// One LEB128 varint of at most ten bytes; ten bytes all carrying
    /// the continuation bit are [`ReadError::Malformed`].
    #[inline]
    pub fn varint(&mut self) -> Result<u64, ReadError> {
        let rest = self.remaining();
        let mut v: u64 = 0;
        for (i, &byte) in rest.iter().take(MAX_VARINT_LEN).enumerate() {
            v |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        if rest.len() >= MAX_VARINT_LEN {
            return Err(ReadError::Malformed("varint longer than ten bytes"));
        }
        Err(ReadError::Truncated)
    }

    /// How many items to reserve room for when the wire announces
    /// `announced` of them, each at least `min_item_len` (nonzero) bytes
    /// long: no more than the unread bytes could hold. The decode loop
    /// still runs to the announced count and ends `Truncated`.
    #[inline]
    pub fn count(&self, announced: usize, min_item_len: usize) -> usize {
        announced.min(self.remaining().len() / min_item_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_reads_advance_and_report_the_offset() {
        let buf = [7, 0x01, 0x02, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 1, 0];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.pos(), 3);
        assert_eq!(r.u32(), Ok(9));
        assert_eq!(r.u64(), Ok(256));
        assert!(r.at_end());
        assert_eq!(r.u8(), Err(ReadError::Truncated));
    }

    #[test]
    fn a_short_read_consumes_nothing() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(ReadError::Truncated));
        assert_eq!(r.bytes(usize::MAX), Err(ReadError::Truncated));
        assert_eq!(r.pos(), 0);
        assert_eq!(r.bytes(3), Ok(&[1u8, 2, 3][..]));
    }

    #[test]
    fn str16_tells_short_from_not_utf8() {
        assert_eq!(ByteReader::new(&[0, 2, b'o', b'k']).str16(), Ok("ok"));
        assert_eq!(
            ByteReader::new(&[0, 2, b'o']).str16(),
            Err(ReadError::Truncated)
        );
        assert!(matches!(
            ByteReader::new(&[0, 1, 0xFF]).str16(),
            Err(ReadError::Malformed(_))
        ));
    }

    fn push_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    #[test]
    fn varint_round_trips_and_is_bounded() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.varint(), Ok(v));
            assert!(r.at_end());
        }
        // Ten continuation bytes can start no varint; fewer may yet.
        assert!(matches!(
            ByteReader::new(&[0x80; 10]).varint(),
            Err(ReadError::Malformed(_))
        ));
        let mut short = ByteReader::new(&[0x80; 3]);
        assert_eq!(short.varint(), Err(ReadError::Truncated));
        assert_eq!(short.pos(), 0);
    }

    #[test]
    fn count_reserves_no_more_than_the_unread_bytes_could_hold() {
        let buf = [0u8; 20];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.count(3, 4), 3);
        assert_eq!(r.count(u32::MAX as usize, 4), 5);
        assert_eq!(r.count(usize::MAX, 11), 1);
        r.bytes(18).unwrap();
        assert_eq!(r.count(usize::MAX, 4), 0);
    }

    /// What the v2 streaming parser relies on: a buffer that stops short
    /// of a valid encoding is always "read more", never an error that
    /// would kill the connection and never a value.
    #[test]
    fn every_prefix_of_a_valid_encoding_is_truncated() {
        let mut valid = vec![0xAB];
        valid.extend_from_slice(&0xBEEFu16.to_be_bytes());
        valid.extend_from_slice(&7u32.to_be_bytes());
        valid.extend_from_slice(&u64::MAX.to_be_bytes());
        valid.extend_from_slice(&[0, 3, b'a', b'b', b'c']);
        push_varint(&mut valid, u64::MAX);
        push_varint(&mut valid, 5);
        valid.extend_from_slice(b"tail!");

        type Decoded<'a> = (u8, u16, u32, u64, &'a str, u64, &'a [u8]);
        fn decode(buf: &[u8]) -> Result<Decoded<'_>, ReadError> {
            let mut r = ByteReader::new(buf);
            let head = (r.u8()?, r.u16()?, r.u32()?, r.u64()?, r.str16()?);
            let big = r.varint()?;
            let len = r.varint()? as usize;
            Ok((head.0, head.1, head.2, head.3, head.4, big, r.bytes(len)?))
        }

        assert_eq!(
            decode(&valid),
            Ok((0xAB, 0xBEEF, 7, u64::MAX, "abc", u64::MAX, &b"tail!"[..]))
        );
        for cut in 0..valid.len() {
            assert_eq!(
                decode(&valid[..cut]),
                Err(ReadError::Truncated),
                "cut at {cut}"
            );
        }
    }
}
