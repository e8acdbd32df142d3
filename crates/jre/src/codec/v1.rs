//! Wire protocol **v1** — the paper's interleaved record format,
//! conformance-pinned and unchanged on the wire.
//!
//! One `(1 + width)`-byte record per data byte, `[b][gid…]`, decodable at
//! any record boundary — which is what makes stream partial reads and
//! datagram truncation safe (§III-D-2), at the cost of the paper's ≈5×
//! expansion for its 4-byte Global IDs. A v1 connection always writes 4;
//! v2 record frames run the same kernel at their own width.
//!
//! Both directions run one block kernel on a fact of the format: for
//! every width W, 8 records are exactly `1 + W` 64-bit words, and 8
//! records of one gid make the same pattern words but for 8 data lanes.
//!
//! * `encode_records_into` builds each run's pattern once and writes
//!   each block of 8 data bytes as `1 + W` word stores, a tail record by
//!   record.
//! * `strip_records_into` appends a block's 8 data bytes at once when
//!   its gid lanes match the run's pattern; any other block, and the
//!   tail, go record by record, parsing each run's [`GlobalId`] once.
//! * [`V1Codec`] packages both behind the versioned [`WireCodec`] trait;
//!   it is the only way in from outside the codec.
//!
//! The per-byte codec is kept in [`mod@reference`] as the conformance
//! oracle: the property suite (`tests/prop_codec.rs`) pins the kernel's
//! output bit-for-bit against it.

use dista_taint::{ByteReader, GlobalId};

use super::{check_width, gid_from_wire, WireCodec, WireVersion, MAX_GID_WIDTH};
use crate::error::JreError;

/// Fills `region` (pre-sized to `data.len() * (1 + width)`) with
/// interleaved records, monomorphized per width so a block's words and
/// lanes are compile-time constants. Every gid must fit `width` bytes.
/// Shared with the v2 record frame.
pub(in crate::codec) fn encode_records_into(
    data: &[u8],
    runs: impl Iterator<Item = (usize, GlobalId)>,
    width: usize,
    region: &mut [u8],
) {
    match width {
        1 => encode_records::<1>(data, runs, region),
        2 => encode_records::<2>(data, runs, region),
        3 => encode_records::<3>(data, runs, region),
        4 => encode_records::<4>(data, runs, region),
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
    runs: impl Iterator<Item = (usize, GlobalId)>,
    out: &mut [u8],
) {
    let rs = 1 + W;
    let mut pos = 0; // data byte index
    for (run_len, gid) in runs {
        let be = gid.0.to_be_bytes();
        let gid: &[u8; W] = be[4 - W..].try_into().expect("W is at most 4");
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

/// One fused pass over whole records (`wire.len()` must be a record
/// multiple): appends each record's data byte to `data_out` and the
/// coalesced same-gid runs to `runs_out`. Shared with the v2 record
/// frame.
pub(in crate::codec) fn strip_records_into(
    wire: &[u8],
    width: usize,
    data_out: &mut Vec<u8>,
    runs_out: &mut Vec<(GlobalId, usize)>,
) {
    match width {
        1 => strip_records::<1>(wire, data_out, runs_out),
        2 => strip_records::<2>(wire, data_out, runs_out),
        3 => strip_records::<3>(wire, data_out, runs_out),
        4 => strip_records::<4>(wire, data_out, runs_out),
        _ => unreachable!("width checked by the caller"),
    }
}

fn strip_records<const W: usize>(
    wire: &[u8],
    data_out: &mut Vec<u8>,
    runs_out: &mut Vec<(GlobalId, usize)>,
) {
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
                step(rec, &mut cur, &mut run_len, data_out, runs_out);
            }
            cur_pattern = pattern(&cur);
        }
    }
    for rec in blocks.remainder().chunks_exact(rs) {
        step(rec, &mut cur, &mut run_len, data_out, runs_out);
    }
    if run_len != 0 {
        runs_out.push((gid_from_wire(&cur), run_len));
    }
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
) {
    data_out.push(rec[0]);
    let gid: [u8; W] = rec[1..].try_into().expect("record is 1 + W bytes");
    if gid != *cur {
        if *run_len != 0 {
            runs_out.push((gid_from_wire(cur), *run_len));
        }
        *cur = gid;
        *run_len = 0;
    }
    *run_len += 1;
}

/// Size in bytes of one v1 wire record (`1` data byte + the Global ID).
/// The negotiation probe/reply also occupy exactly one record.
pub(crate) const RECORD: usize = 1 + MAX_GID_WIDTH;

/// The paper wire format behind the versioned [`WireCodec`] trait: every
/// byte expanded to a `[b][gid:4]` record. It holds nothing: a v1
/// record always carries the whole 4-byte [`GlobalId`].
#[derive(Debug, Clone, Copy)]
pub struct V1Codec;

impl V1Codec {
    /// The v1 codec. `width` is checked only so that callers written
    /// against a width stay honest.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not [`MAX_GID_WIDTH`].
    pub const fn new(width: usize) -> Self {
        assert!(width == MAX_GID_WIDTH, "a v1 record carries a 4-byte gid");
        V1Codec
    }
}

impl WireCodec for V1Codec {
    fn version(&self) -> WireVersion {
        WireVersion::V1
    }

    fn encode_into(
        &self,
        data: &[u8],
        runs: &[(usize, GlobalId)],
        out: &mut Vec<u8>,
    ) -> Result<(), JreError> {
        // No `clear`: every byte up to the new length is overwritten, so
        // a reused buffer is only zero-filled where it grows.
        out.resize(data.len() * RECORD, 0);
        encode_records_into(data, runs.iter().copied(), MAX_GID_WIDTH, out);
        Ok(())
    }

    fn decode_available(
        &self,
        wire: &[u8],
        max_data: usize,
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) -> Result<usize, JreError> {
        // Whole records only: a torn trailing record waits for its rest.
        let take = (wire.len() - wire.len() % RECORD).min(max_data.saturating_mul(RECORD));
        data_out.clear();
        runs_out.clear();
        strip_records_into(&wire[..take], MAX_GID_WIDTH, data_out, runs_out);
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
        self.decode_available(wire, usize::MAX, data_out, runs_out)
            .map(drop)
    }

    fn recv_wire_len(&self, max_data: usize) -> usize {
        max_data * RECORD
    }
}

/// The per-byte codec, kept as the conformance oracle the block kernel
/// is pinned against. Structure intentionally mirrors the old
/// `boundary::encode_wire`/`decode_wire` inner loops.
pub mod reference {
    use super::{check_width, gid_from_wire, GlobalId};

    /// Per-byte encode: one `push` + `extend_from_slice` per data byte.
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range or the runs don't cover `data`.
    pub fn encode_wire(data: &[u8], runs: &[(usize, GlobalId)], width: usize) -> Vec<u8> {
        check_width(width);
        let mut out = Vec::with_capacity(data.len() * (1 + width));
        let mut pos = 0;
        for &(run_len, gid) in runs {
            for &byte in &data[pos..pos + run_len] {
                out.push(byte);
                out.extend_from_slice(&gid.0.to_be_bytes()[4 - width..]);
            }
            pos += run_len;
        }
        assert_eq!(pos, data.len(), "run table must cover the data exactly");
        out
    }

    /// Per-record decode of the whole records of `wire` (a torn tail is
    /// left out, as a datagram's is): parse every record's gid, push
    /// every data byte, peek ahead to coalesce runs.
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range.
    pub fn decode_wire(wire: &[u8], width: usize) -> (Vec<u8>, Vec<(GlobalId, usize)>) {
        check_width(width);
        let rs = 1 + width;
        let mut data = Vec::with_capacity(wire.len() / rs);
        let mut runs: Vec<(GlobalId, usize)> = Vec::new();
        let mut records = wire.chunks_exact(rs).peekable();
        while let Some(record) = records.next() {
            let gid = gid_from_wire(&record[1..]);
            data.push(record[0]);
            let mut run_len = 1;
            while let Some(next) = records.peek() {
                if gid_from_wire(&next[1..]) != gid {
                    break;
                }
                data.push(next[0]);
                run_len += 1;
                records.next();
            }
            runs.push((gid, run_len));
        }
        (data, runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes through the kernel at `width` (v1 runs it at 4, a v2
    /// record frame at its own width).
    fn encode(data: &[u8], runs: &[(usize, GlobalId)], width: usize) -> Vec<u8> {
        let mut wire = vec![0; data.len() * (1 + width)];
        encode_records_into(data, runs.iter().copied(), width, &mut wire);
        wire
    }

    /// Decodes whole records through the kernel at `width`.
    fn decode(wire: &[u8], width: usize) -> (Vec<u8>, Vec<(GlobalId, usize)>) {
        let (mut d, mut r) = (Vec::new(), Vec::new());
        strip_records_into(wire, width, &mut d, &mut r);
        (d, r)
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
                    vec![(len, GlobalId(7))],
                    vec![(head, GlobalId(1)), (len - head, GlobalId(2))],
                    vec![
                        (third, GlobalId(0)),
                        (third, GlobalId(9)),
                        (len - 2 * third, GlobalId(0)),
                    ],
                ] {
                    let fast = encode(&data, &runs, width);
                    let at = format!("width {width}, {len} B, runs {runs:?}");
                    assert_eq!(fast, reference::encode_wire(&data, &runs, width), "{at}");
                    let expected = reference::decode_wire(&fast, width);
                    assert_eq!(decode(&fast, width), expected, "{at}");
                }
            }
        }
    }

    #[test]
    fn decode_inverts_encode_and_matches_reference() {
        let data = b"abcdefghij".to_vec();
        let runs = [
            (3, GlobalId(5)),
            (4, GlobalId(0)),
            (3, GlobalId(u32::MAX - 1)),
        ];
        let wire = encode(&data, &runs, 4);
        let (got_data, got_runs) = decode(&wire, 4);
        assert_eq!(got_data, data);
        assert_eq!(
            got_runs,
            vec![
                (GlobalId(5), 3),
                (GlobalId(0), 4),
                (GlobalId(u32::MAX - 1), 3)
            ]
        );
        assert_eq!((got_data, got_runs), reference::decode_wire(&wire, 4));
    }

    #[test]
    fn decode_coalesces_adjacent_equal_gids() {
        let wire = encode(b"xy", &[(1, GlobalId(3)), (1, GlobalId(3))], 4);
        assert_eq!(decode(&wire, 4).1, vec![(GlobalId(3), 2)]);
    }

    #[test]
    fn empty_input_round_trips() {
        let mut wire = vec![1, 2, 3];
        V1Codec::new(4).encode_into(&[], &[], &mut wire).unwrap();
        assert!(wire.is_empty());
        let (mut d, mut r) = (vec![9], vec![(GlobalId(1), 1)]);
        V1Codec::new(4)
            .decode_datagram(&[], &mut d, &mut r)
            .unwrap();
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
        let codec = V1Codec::new(4);
        let mut wire = Vec::new();
        codec
            .encode_into(b"abcd", &[(4, GlobalId(1))], &mut wire)
            .unwrap();
        let (mut d, mut r) = (Vec::new(), Vec::new());
        // Cap at 2 data bytes: exactly two whole records consumed.
        assert_eq!(
            codec.decode_available(&wire, 2, &mut d, &mut r).unwrap(),
            10
        );
        assert_eq!(d, b"ab");
        // A torn prefix yields only the whole records.
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert_eq!(
            codec
                .decode_available(&wire[..12], 10, &mut d, &mut r)
                .unwrap(),
            10
        );
        assert_eq!(d, b"ab");
    }
}
