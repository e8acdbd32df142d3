//! Wire protocol **v1** — the paper's interleaved record format,
//! conformance-pinned and unchanged on the wire.
//!
//! One `(1 + width)`-byte record per data byte, `[b][gid…]`, decodable at
//! any record boundary — which is what makes stream partial reads and
//! datagram truncation safe (§III-D-2), at the cost of the paper's ≈5×
//! expansion for 4-byte Global IDs.
//!
//! Both directions run one block kernel on a fact of the format: for
//! every width W, 8 records are exactly `1 + W` 64-bit words, and 8
//! records of one gid make the same pattern words but for 8 data lanes.
//!
//! * [`encode_wire_into`] builds each run's pattern once and writes each
//!   block of 8 data bytes as `1 + W` word stores, a tail record by record.
//! * [`decode_wire_into`] appends a block's 8 data bytes at once when its
//!   gid lanes match the run's pattern; any other block, and the tail,
//!   go record by record, parsing each run's [`GlobalId`] once. Torn
//!   trailing records and oversized gids are typed errors.
//! * [`V1Codec`] packages both behind the versioned [`WireCodec`]
//!   trait.
//!
//! The per-byte codec is kept in [`mod@reference`] as the conformance
//! oracle: the property suite (`tests/prop_codec.rs`) pins the kernel's
//! output bit-for-bit against it.

use dista_taint::{ByteReader, GlobalId};

use super::{check_width, gid_from_wire, WireCodec, WireRun, WireVersion, MAX_GID_WIDTH};
use crate::error::JreError;

/// Encodes `data` into interleaved wire records, one per byte, writing
/// into `out` (overwritten). `runs` must cover `data` exactly. Wire bytes
/// are bit-identical to [`reference::encode_wire`].
///
/// # Panics
///
/// Panics if `width` is out of range or the run lengths don't sum to
/// `data.len()`.
pub fn encode_wire_into(data: &[u8], runs: &[WireRun], width: usize, out: &mut Vec<u8>) {
    check_width(width);
    // No `clear`: every byte up to the new length is overwritten below,
    // so a reused buffer is only zero-filled where it grows.
    out.resize(data.len() * (1 + width), 0);
    encode_records_into(data, runs.iter().copied(), width, out);
}

/// The wire slot of a Global ID: big-endian, first `width` bytes live.
/// The id must fit the width.
pub(in crate::codec) fn wire_slot(gid: GlobalId, width: usize) -> [u8; MAX_GID_WIDTH] {
    let mut slot = [0u8; MAX_GID_WIDTH];
    slot[..width].copy_from_slice(&u64::from(gid.0).to_be_bytes()[8 - width..]);
    slot
}

/// Fills `region` (pre-sized to `data.len() * (1 + width)`) with
/// interleaved records, monomorphized per width so a block's words and
/// lanes are compile-time constants. The run table arrives as an
/// iterator, so callers holding `(run_len, GlobalId)` pairs convert on
/// the fly instead of building a [`WireRun`] table first. Shared with
/// the v2 record-frame fallback.
pub(in crate::codec) fn encode_records_into(
    data: &[u8],
    runs: impl Iterator<Item = WireRun>,
    width: usize,
    region: &mut [u8],
) {
    match width {
        1 => encode_records::<1>(data, runs, region),
        2 => encode_records::<2>(data, runs, region),
        3 => encode_records::<3>(data, runs, region),
        4 => encode_records::<4>(data, runs, region),
        5 => encode_records::<5>(data, runs, region),
        6 => encode_records::<6>(data, runs, region),
        7 => encode_records::<7>(data, runs, region),
        8 => encode_records::<8>(data, runs, region),
        _ => unreachable!("width checked by the caller"),
    }
}

/// A block of 8 records as big-endian words; the first `1 + W` are live.
type Block = [u64; 1 + MAX_GID_WIDTH];

/// The block of 8 records that all carry `gid`, with zero data bytes.
/// The pattern of an all-`0xFF` gid masks a block's gid lanes.
fn pattern<const W: usize>(gid: &[u8; W]) -> Block {
    let mut bytes = [0u8; 8 * (1 + MAX_GID_WIDTH)];
    for rec in bytes[..8 * (1 + W)].chunks_exact_mut(1 + W) {
        rec[1..].copy_from_slice(gid);
    }
    let mut reader = ByteReader::new(&bytes);
    let mut words = [0u64; 1 + MAX_GID_WIDTH];
    for word in &mut words {
        *word = reader.u64().expect("the bytes are whole words");
    }
    words
}

fn encode_records<const W: usize>(
    data: &[u8],
    runs: impl Iterator<Item = WireRun>,
    out: &mut [u8],
) {
    let rs = 1 + W;
    let mut pos = 0; // data byte index
    for (run_len, gid) in runs {
        let gid: &[u8; W] = gid[..W].try_into().expect("slot holds W live bytes");
        let run = &data[pos..pos + run_len];
        let region = &mut out[pos * rs..(pos + run_len) * rs];
        let pattern = pattern(gid);
        let mut blocks = region.chunks_exact_mut(8 * rs);
        let mut bytes = run.chunks_exact(8);
        for (block, bytes) in blocks.by_ref().zip(bytes.by_ref()) {
            let mut words = pattern;
            for (i, &b) in bytes.iter().enumerate() {
                let at = i * rs;
                words[at / 8] |= u64::from(b) << (56 - 8 * (at % 8));
            }
            for (dst, word) in block.chunks_exact_mut(8).zip(words) {
                dst.copy_from_slice(&word.to_be_bytes());
            }
        }
        let tail = blocks.into_remainder().chunks_exact_mut(rs);
        for (rec, &b) in tail.zip(bytes.remainder()) {
            rec[0] = b;
            rec[1..].copy_from_slice(gid);
        }
        pos += run_len;
    }
    assert_eq!(pos, data.len(), "run table must cover the data exactly");
}

/// Decodes interleaved wire records: data bytes land in `data_out`
/// (cleared first), the gid run structure in `runs_out` (cleared first,
/// adjacent equal gids coalesced).
///
/// # Errors
///
/// [`JreError::Protocol`] if `wire` is not a whole number of records
/// (torn trailing record) or a gid does not fit in 32 bits.
pub fn decode_wire_into(
    wire: &[u8],
    width: usize,
    data_out: &mut Vec<u8>,
    runs_out: &mut Vec<(GlobalId, usize)>,
) -> Result<(), JreError> {
    check_width(width);
    data_out.clear();
    runs_out.clear();
    if !wire.len().is_multiple_of(1 + width) {
        return Err(JreError::Protocol("torn trailing wire record"));
    }
    strip_records_into(wire, width, data_out, runs_out)
}

/// One fused pass over whole records (`wire.len()` must be a record
/// multiple): appends each record's data byte to `data_out` and the
/// coalesced same-gid runs to `runs_out`. Shared with the v2
/// record-frame decode path.
pub(in crate::codec) fn strip_records_into(
    wire: &[u8],
    width: usize,
    data_out: &mut Vec<u8>,
    runs_out: &mut Vec<(GlobalId, usize)>,
) -> Result<(), JreError> {
    match width {
        1 => strip_records::<1>(wire, data_out, runs_out),
        2 => strip_records::<2>(wire, data_out, runs_out),
        3 => strip_records::<3>(wire, data_out, runs_out),
        4 => strip_records::<4>(wire, data_out, runs_out),
        5 => strip_records::<5>(wire, data_out, runs_out),
        6 => strip_records::<6>(wire, data_out, runs_out),
        7 => strip_records::<7>(wire, data_out, runs_out),
        8 => strip_records::<8>(wire, data_out, runs_out),
        _ => unreachable!("width checked by the caller"),
    }
}

fn strip_records<const W: usize>(
    wire: &[u8],
    data_out: &mut Vec<u8>,
    runs_out: &mut Vec<(GlobalId, usize)>,
) -> Result<(), JreError> {
    let rs = 1 + W;
    let gid_lanes = pattern(&[0xFF; W]);
    // The run in progress: empty to start with, under the first
    // record's gid, so a first block of one gid extends it.
    let mut cur = [0u8; W];
    if let Some(first) = wire.get(1..rs) {
        cur.copy_from_slice(first);
    }
    let mut cur_pattern = pattern(&cur);
    let mut run_len = 0usize;
    data_out.reserve(wire.len() / rs);
    let mut blocks = wire.chunks_exact(8 * rs);
    for block in blocks.by_ref() {
        let mut words = ByteReader::new(block);
        let mut stray = 0;
        for (expect, lanes) in cur_pattern.iter().zip(gid_lanes).take(rs) {
            stray |= (words.u64().expect("a block is 1 + W words") ^ expect) & lanes;
        }
        if stray == 0 {
            data_out.extend_from_slice(&std::array::from_fn::<u8, 8, _>(|i| block[i * rs]));
            run_len += 8;
        } else {
            for rec in block.chunks_exact(rs) {
                step(rec, &mut cur, &mut run_len, data_out, runs_out)?;
            }
            cur_pattern = pattern(&cur);
        }
    }
    for rec in blocks.remainder().chunks_exact(rs) {
        step(rec, &mut cur, &mut run_len, data_out, runs_out)?;
    }
    if run_len != 0 {
        runs_out.push((gid_from_wire(&cur)?, run_len));
    }
    Ok(())
}

/// The per-record step: appends `rec`'s data byte and extends the run
/// in progress, or closes it (parsing its gid once) and starts another.
#[inline]
fn step<const W: usize>(
    rec: &[u8],
    cur: &mut [u8; W],
    run_len: &mut usize,
    data_out: &mut Vec<u8>,
    runs_out: &mut Vec<(GlobalId, usize)>,
) -> Result<(), JreError> {
    data_out.push(rec[0]);
    let gid: [u8; W] = rec[1..].try_into().expect("record is 1 + W bytes");
    if gid != *cur {
        if *run_len != 0 {
            runs_out.push((gid_from_wire(cur)?, *run_len));
        }
        *cur = gid;
        *run_len = 0;
    }
    *run_len += 1;
    Ok(())
}

/// The paper wire format behind the versioned [`WireCodec`] trait: a
/// fixed gid width chosen at connection setup, every byte expanded to a
/// `(1 + width)`-byte record.
#[derive(Debug, Clone, Copy)]
pub struct V1Codec {
    width: usize,
}

impl V1Codec {
    /// A v1 codec with the given gid wire width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1..=[`MAX_GID_WIDTH`].
    pub fn new(width: usize) -> Self {
        check_width(width);
        V1Codec { width }
    }
}

impl WireCodec for V1Codec {
    fn version(&self) -> WireVersion {
        WireVersion::V1
    }

    fn width(&self) -> usize {
        self.width
    }

    fn encode_into(
        &self,
        data: &[u8],
        runs: &[(usize, GlobalId)],
        out: &mut Vec<u8>,
    ) -> Result<(), JreError> {
        let width = self.width;
        if width != MAX_GID_WIDTH
            && runs
                .iter()
                .any(|&(_, gid)| u64::from(gid.0) >= 1u64 << (8 * width))
        {
            return Err(JreError::Protocol(
                "global id exceeds the configured wire width",
            ));
        }
        // No `clear`, as in `encode_wire_into`.
        out.resize(data.len() * (1 + width), 0);
        let wire_runs = runs.iter().map(|&(n, gid)| (n, wire_slot(gid, width)));
        encode_records_into(data, wire_runs, width, out);
        Ok(())
    }

    fn decode_available(
        &self,
        wire: &[u8],
        max_data: usize,
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) -> Result<usize, JreError> {
        let rs = 1 + self.width;
        let whole = wire.len() - wire.len() % rs;
        let take = whole.min(max_data.saturating_mul(rs));
        decode_wire_into(&wire[..take], self.width, data_out, runs_out)?;
        Ok(take)
    }

    fn decode_datagram(
        &self,
        wire: &[u8],
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) -> Result<(), JreError> {
        // Record-granularity truncation tolerance: a datagram cut at any
        // point still yields every whole record, matching plain UDP's
        // data-prefix semantics.
        let rs = 1 + self.width;
        let whole = wire.len() - wire.len() % rs;
        decode_wire_into(&wire[..whole], self.width, data_out, runs_out)
    }

    fn recv_wire_len(&self, max_data: usize) -> usize {
        max_data * (1 + self.width)
    }
}

/// The per-byte codec, kept as the conformance oracle the block kernel
/// is pinned against. Structure intentionally mirrors the old
/// `boundary::encode_wire`/`decode_wire` inner loops.
pub mod reference {
    use super::{check_width, gid_from_wire, GlobalId, JreError, WireRun};

    /// Per-byte encode: one `push` + `extend_from_slice` per data byte.
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range or the runs don't cover `data`.
    pub fn encode_wire(data: &[u8], runs: &[WireRun], width: usize) -> Vec<u8> {
        check_width(width);
        let mut out = Vec::with_capacity(data.len() * (1 + width));
        let mut pos = 0;
        for &(run_len, gid) in runs {
            for &byte in &data[pos..pos + run_len] {
                out.push(byte);
                out.extend_from_slice(&gid[..width]);
            }
            pos += run_len;
        }
        assert_eq!(pos, data.len(), "run table must cover the data exactly");
        out
    }

    /// Per-record decode: parse every record's gid, push every data
    /// byte, peek ahead to coalesce runs.
    ///
    /// # Errors
    ///
    /// Same typed errors as [`super::decode_wire_into`].
    #[allow(clippy::type_complexity)]
    pub fn decode_wire(
        wire: &[u8],
        width: usize,
    ) -> Result<(Vec<u8>, Vec<(GlobalId, usize)>), JreError> {
        check_width(width);
        let rs = 1 + width;
        if !wire.len().is_multiple_of(rs) {
            return Err(JreError::Protocol("torn trailing wire record"));
        }
        let mut data = Vec::with_capacity(wire.len() / rs);
        let mut runs: Vec<(GlobalId, usize)> = Vec::new();
        let mut records = wire.chunks_exact(rs).peekable();
        while let Some(record) = records.next() {
            let gid = gid_from_wire(&record[1..])?;
            data.push(record[0]);
            let mut run_len = 1;
            while let Some(next) = records.peek() {
                if gid_from_wire(&next[1..])? != gid {
                    break;
                }
                data.push(next[0]);
                run_len += 1;
                records.next();
            }
            runs.push((gid, run_len));
        }
        Ok((data, runs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(v: u32) -> [u8; MAX_GID_WIDTH] {
        let mut slot = [0u8; MAX_GID_WIDTH];
        slot[..4].copy_from_slice(&v.to_be_bytes());
        slot
    }

    /// gid slot laid out for an arbitrary width (big-endian, first
    /// `width` bytes live).
    fn gid_w(v: u64, width: usize) -> [u8; MAX_GID_WIDTH] {
        let be = v.to_be_bytes();
        let mut slot = [0u8; MAX_GID_WIDTH];
        slot[..width].copy_from_slice(&be[8 - width..]);
        slot
    }

    /// Every payload length up to two blocks and a byte, and 256, so
    /// each run ends in and out of a block; the kernel's wire is the
    /// reference's and decodes as the reference decodes it.
    #[test]
    fn encode_matches_reference_across_shapes() {
        for len in (0..=17).chain([256]) {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let (head, third) = (len.min(1), len / 3);
            for width in 1..=MAX_GID_WIDTH {
                for runs in [
                    vec![(len, gid_w(7, width))],
                    vec![(head, gid_w(1, width)), (len - head, gid_w(2, width))],
                    vec![
                        (third, gid_w(0, width)),
                        (third, gid_w(9, width)),
                        (len - 2 * third, gid_w(0, width)),
                    ],
                ] {
                    let mut fast = Vec::new();
                    encode_wire_into(&data, &runs, width, &mut fast);
                    let at = format!("width {width}, {len} B, runs {runs:?}");
                    assert_eq!(fast, reference::encode_wire(&data, &runs, width), "{at}");
                    let (mut d, mut r) = (Vec::new(), Vec::new());
                    decode_wire_into(&fast, width, &mut d, &mut r).unwrap();
                    let expected = reference::decode_wire(&fast, width).unwrap();
                    assert_eq!((d, r), expected, "{at}");
                }
            }
        }
    }

    #[test]
    fn decode_inverts_encode_and_matches_reference() {
        let data = b"abcdefghij".to_vec();
        let runs = vec![(3usize, gid(5)), (4, gid(0)), (3, gid(6))];
        let mut wire = Vec::new();
        encode_wire_into(&data, &runs, 4, &mut wire);
        let mut got_data = Vec::new();
        let mut got_runs = Vec::new();
        decode_wire_into(&wire, 4, &mut got_data, &mut got_runs).unwrap();
        assert_eq!(got_data, data);
        assert_eq!(
            got_runs,
            vec![(GlobalId(5), 3), (GlobalId(0), 4), (GlobalId(6), 3)]
        );
        let (ref_data, ref_runs) = reference::decode_wire(&wire, 4).unwrap();
        assert_eq!((got_data, got_runs), (ref_data, ref_runs));
    }

    #[test]
    fn decode_coalesces_adjacent_equal_gids() {
        let mut wire = Vec::new();
        encode_wire_into(b"xy", &[(1, gid(3)), (1, gid(3))], 4, &mut wire);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        decode_wire_into(&wire, 4, &mut d, &mut r).unwrap();
        assert_eq!(r, vec![(GlobalId(3), 2)]);
    }

    #[test]
    fn torn_trailing_record_is_a_typed_error() {
        let mut wire = Vec::new();
        encode_wire_into(b"ab", &[(2, gid(1))], 4, &mut wire);
        wire.pop(); // tear the last record
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert!(matches!(
            decode_wire_into(&wire, 4, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
        assert!(matches!(
            reference::decode_wire(&wire, 4),
            Err(JreError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_gid_is_a_typed_error() {
        // Width 8 with a value above u32::MAX must not silently alias.
        let mut wire = Vec::new();
        encode_wire_into(
            b"z",
            &[(1, gid_w(u64::from(u32::MAX) + 1, 8))],
            8,
            &mut wire,
        );
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert!(matches!(
            decode_wire_into(&wire, 8, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
    }

    #[test]
    fn empty_input_round_trips() {
        let mut wire = vec![1, 2, 3];
        encode_wire_into(&[], &[], 4, &mut wire);
        assert!(wire.is_empty());
        let (mut d, mut r) = (vec![9], vec![(GlobalId(1), 1)]);
        decode_wire_into(&[], 4, &mut d, &mut r).unwrap();
        assert!(d.is_empty() && r.is_empty());
    }

    #[test]
    fn v1_codec_round_trips_through_the_trait() {
        let codec = V1Codec::new(4);
        let mut wire = Vec::new();
        codec
            .encode_into(
                b"abcdef",
                &[(2, GlobalId(7)), (2, GlobalId(0)), (2, GlobalId(9))],
                &mut wire,
            )
            .unwrap();
        assert_eq!(wire.len(), 6 * 5, "one (1+4)-byte record per byte");
        let (mut d, mut r) = (Vec::new(), Vec::new());
        let consumed = codec.decode_available(&wire, 6, &mut d, &mut r).unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(d, b"abcdef");
        assert_eq!(
            r,
            vec![(GlobalId(7), 2), (GlobalId(0), 2), (GlobalId(9), 2)]
        );
    }

    #[test]
    fn v1_codec_respects_max_data_and_record_boundaries() {
        let codec = V1Codec::new(2);
        let mut wire = Vec::new();
        codec
            .encode_into(b"abcd", &[(4, GlobalId(1))], &mut wire)
            .unwrap();
        let (mut d, mut r) = (Vec::new(), Vec::new());
        // Cap at 2 data bytes: exactly two whole records consumed.
        assert_eq!(codec.decode_available(&wire, 2, &mut d, &mut r).unwrap(), 6);
        assert_eq!(d, b"ab");
        // A torn prefix yields only the whole records.
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert_eq!(
            codec
                .decode_available(&wire[..7], 10, &mut d, &mut r)
                .unwrap(),
            6
        );
        assert_eq!(d, b"ab");
    }

    #[test]
    fn v1_codec_rejects_oversized_gid_for_width() {
        let codec = V1Codec::new(2);
        let mut wire = Vec::new();
        let err = codec
            .encode_into(b"x", &[(1, GlobalId(70_000))], &mut wire)
            .unwrap_err();
        assert!(matches!(err, JreError::Protocol(_)));
    }
}
