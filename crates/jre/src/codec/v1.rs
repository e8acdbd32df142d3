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
//! every width W, 8 records are exactly `1 + W` little-endian 64-bit
//! words, and 8 records of one gid are one *pattern* but for 8 data
//! lanes. Turned by `k·(W mod 2)` bytes, a block's words hold its 8 data
//! bytes at 8 distinct positions of one *spread* word, so `const` per-W
//! masks and one rotation per distance move all 8 at once. Each
//! block loop runs out of line on a block's words, the run's pattern,
//! the masks and its output (decode sizes it once); a tail, and a block
//! with a stray gid lane, go record by record, parsing each run's
//! [`GlobalId`] once. [`V1Codec`] packages both directions behind the
//! versioned [`WireCodec`] trait, the only way in from outside.
//!
//! The per-byte codec is kept in [`mod@reference`] as the conformance
//! oracle: the property suite (`tests/prop_codec.rs`) pins the kernel's
//! output bit-for-bit against it.

use dista_taint::GlobalId;

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

/// 8 records as little-endian words; the first `1 + W` are live.
type Block = [u64; 1 + MAX_GID_WIDTH];

/// Data byte `i` of a block sits at block byte `i·(1 + W)`. Turning
/// word `k` left by `k·(W mod 2)` bytes puts the 8 data bytes at 8
/// distinct positions, so the turned words OR into one *spread* word;
/// `lanes(W)[r]` masks its bytes that sit `r` bytes past their lane.
const fn lanes(w: usize) -> [u64; 8] {
    let mut masks = [0; 8];
    let mut i = 0;
    while i < 8 {
        let at = i * (1 + w);
        let pos = (at + at / 8 * (w % 2)) % 8;
        masks[(pos + 8 - i) % 8] |= 0xFF << (8 * pos);
        i += 1;
    }
    masks
}

/// The block of 8 records that all carry `gid`, with zero data bytes.
/// The pattern of an all-`0xFF` gid masks a block's gid lanes.
fn pattern<const W: usize>(gid: &[u8; W]) -> Block {
    let rec = gid.iter().rev().fold(0, |rec, &b| rec << 8 | u64::from(b)) << 8;
    let mut words = [0; 1 + MAX_GID_WIDTH];
    for bit in (0..8).map(|i| 8 * i * (1 + W)) {
        words[bit / 64] |= rec << (bit % 64);
        if bit % 64 + 8 * (1 + W) > 64 {
            words[bit / 64 + 1] |= rec >> (64 - bit % 64);
        }
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
        let whole = run_len / 8 * 8;
        if whole > 0 {
            put_blocks::<W>(&run[..whole], &pattern(gid), &mut region[..whole * rs]);
        }
        for (rec, &b) in region[whole * rs..].chunks_exact_mut(rs).zip(&run[whole..]) {
            rec[0] = b;
            rec[1..].copy_from_slice(gid);
        }
        pos += run_len;
    }
    assert_eq!(pos, data.len(), "run table must cover the data exactly");
}

/// The scatter loop: writes each 8 bytes of `run` into `region` as a
/// block, `base` (the run's pattern) with the bytes in its data lanes.
#[inline(never)]
fn put_blocks<const W: usize>(run: &[u8], base: &Block, region: &mut [u8]) {
    let gid_lanes = pattern(&[0xFF; W]);
    let blocks = region.chunks_exact_mut(8 * (1 + W));
    for (block, bytes) in blocks.zip(run.chunks_exact(8)) {
        let data = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        let lanes = const { lanes(W) }.iter().enumerate();
        let spread = lanes.fold(0, |s, (r, m)| s | data.rotate_left(8 * r as u32) & m);
        for (k, dst) in block.chunks_exact_mut(8).enumerate() {
            let word = base[k] | spread.rotate_right((8 * k * (W % 2)) as u32) & !gid_lanes[k];
            dst.copy_from_slice(&word.to_le_bytes());
        }
    }
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
    let start = data_out.len();
    data_out.resize(start + wire.len() / rs, 0);
    let out = &mut data_out[start..];
    // The run in progress: empty to start with, under the first
    // record's gid, so a first block of one gid extends it.
    let mut cur = [0u8; W];
    if let Some(first) = wire.get(1..rs) {
        cur.copy_from_slice(first);
    }
    let mut run_len = 0usize;
    let mut at = 0; // records done
    loop {
        let taken = 8 * take_blocks::<W>(&wire[at * rs..], &pattern(&cur), &mut out[at..]);
        run_len += taken;
        at += taken;
        // Record by record: the block with a stray gid lane, or the tail.
        let end = out.len().min(at + 8);
        if at == end {
            break;
        }
        for (rec, byte) in wire[at * rs..].chunks_exact(rs).zip(&mut out[at..end]) {
            *byte = rec[0];
            let gid: [u8; W] = rec[1..].try_into().expect("record is 1 + W bytes");
            if gid != cur {
                if run_len != 0 {
                    runs_out.push((gid_from_wire(&cur), run_len));
                }
                (cur, run_len) = (gid, 0);
            }
            run_len += 1;
        }
        at = end;
    }
    if run_len != 0 {
        runs_out.push((gid_from_wire(&cur), run_len));
    }
}

/// The matching loop: gathers the data bytes of the whole blocks at the
/// front of `wire` into `out` while their gid lanes equal `expect`'s,
/// and returns the number of blocks taken.
#[inline(never)]
fn take_blocks<const W: usize>(wire: &[u8], expect: &Block, out: &mut [u8]) -> usize {
    let gid_lanes = pattern(&[0xFF; W]);
    let mut taken = 0;
    for (block, dst) in wire.chunks_exact(8 * (1 + W)).zip(out.chunks_exact_mut(8)) {
        // A matching block less its pattern is its data bytes alone.
        let (mut stray, mut spread) = (0, 0);
        for (k, bytes) in block.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(bytes.try_into().expect("8 bytes")) ^ expect[k];
            stray |= x & gid_lanes[k];
            spread |= x.rotate_left((8 * k * (W % 2)) as u32);
        }
        if stray != 0 {
            break;
        }
        let lanes = const { lanes(W) }.iter().enumerate();
        let data = lanes.fold(0, |d, (r, m)| d | (spread & m).rotate_right(8 * r as u32));
        dst.copy_from_slice(&data.to_le_bytes());
        taken += 1;
    }
    taken
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

    /// One gid byte changed, one bit at a time, at each of a block's 8·W
    /// gid lanes, in the first, a middle and the last of a 64-block run
    /// of one gid, and in each of its 3 tail records: every case decodes,
    /// as a stream and as a datagram, exactly as the reference does. The
    /// kernel runs at each width in a v2 record frame, and at 4 in
    /// `V1Codec` too; a wrong lane mask or turn fails here.
    #[test]
    fn a_stray_gid_lane_decodes_as_the_reference_does() {
        use crate::codec::v2::{V2Codec, OP_RECORDS};
        const RECORDS: usize = 64 * 8 + 3;
        let data: Vec<u8> = (0..RECORDS).map(|i| (i * 37 + 11) as u8).collect();
        for width in 1..=MAX_GID_WIDTH {
            let rs = 1 + width;
            let gid = GlobalId(0xD4C3_B2A1 >> (8 * (MAX_GID_WIDTH - width)));
            // A run per record, so v2 writes a record frame at `width`.
            let per_record = vec![(1, gid); RECORDS];
            let mut frame = Vec::new();
            V2Codec::new(width)
                .encode_into(&data, &per_record, &mut frame)
                .unwrap();
            let header = frame.len() - RECORDS * rs;
            assert_eq!(&frame[..2], &[OP_RECORDS, width as u8]);
            let blocks = [0, 31, 63].map(|b| b * 8..b * 8 + 8);
            let sites = blocks.into_iter().flatten().chain(64 * 8..RECORDS);
            for (rec, lane) in sites.flat_map(|rec| (1..rs).map(move |lane| (rec, lane))) {
                for bit in 0..8 {
                    let mut wire = frame.clone();
                    wire[header + rec * rs + lane] ^= 1 << bit;
                    let records = &wire[header..];
                    let expected = reference::decode_wire(records, width);
                    assert!(expected.1.len() > 1, "width {width}, record {rec}");
                    let mut codecs: Vec<(&dyn WireCodec, &[u8])> = vec![(&V2Codec, &wire)];
                    if width == MAX_GID_WIDTH {
                        codecs.push((&V1Codec, records));
                    }
                    for (codec, wire) in codecs {
                        let at = format!(
                            "{:?} width {width}, record {rec}, lane {lane}, bit {bit}",
                            codec.version()
                        );
                        let (mut d, mut r) = (Vec::new(), Vec::new());
                        codec
                            .decode_available(wire, usize::MAX, &mut d, &mut r)
                            .unwrap();
                        assert_eq!((&d, &r), (&expected.0, &expected.1), "stream, {at}");
                        codec.decode_datagram(wire, &mut d, &mut r).unwrap();
                        assert_eq!((&d, &r), (&expected.0, &expected.1), "datagram, {at}");
                    }
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
