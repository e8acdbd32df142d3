//! Codec conformance properties, through the entry points production
//! uses: for arbitrary run layouts and cut points, `V1Codec` (4-byte
//! gids) and v2 record frames (gid widths 1..=4) are bit-identical to
//! the per-byte reference codec and decode (as a stream and as a
//! datagram) as it does, a corrupted gid byte included; encode∘decode is
//! the identity for both wire protocols, and the two protocols deliver
//! identical data and per-byte gids.

use dista_jre::codec::v2::OP_RECORDS;
use dista_jre::codec::{v1::reference, MAX_GID_WIDTH};
use dista_jre::{V1Codec, V2Codec, WireCodec};
use dista_taint::GlobalId;
use proptest::prelude::*;

/// A run layout: `(gid value, run length)` pairs. Gid values are masked
/// to the width under test before encoding.
type Layout = Vec<(u32, usize)>;

/// Data bytes and their coalesced `(gid, run_len)` runs.
type Decoded = (Vec<u8>, Vec<(GlobalId, usize)>);

/// Short runs of any gids, or runs of 1–300 bytes over a pool of 3
/// gids, so equal neighbours and stretches of many 8-record blocks occur.
fn layout_strategy() -> impl Strategy<Value = Layout> {
    let scattered = prop::collection::vec((any::<u32>(), 1usize..48), 0..10);
    let pool = (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c)| [a, b, c]);
    let pooled = (
        pool,
        prop::collection::vec((0usize..3, 1usize..=300), 0..10),
    )
        .prop_map(|(pool, runs)| runs.into_iter().map(|(i, len)| (pool[i], len)).collect());
    prop_oneof![scattered, pooled]
}

fn width_strategy() -> impl Strategy<Value = usize> {
    1usize..=MAX_GID_WIDTH
}

/// The gid width of every v1 record.
const V1_WIDTH: usize = MAX_GID_WIDTH;

/// Largest gid value expressible in `width` wire bytes.
fn gid_mask(width: usize) -> u32 {
    u32::MAX >> (8 * (MAX_GID_WIDTH - width))
}

/// Expands a layout into concrete `(data, runs, per-byte gids)`.
fn materialize(layout: &Layout, width: usize) -> (Vec<u8>, Vec<(usize, GlobalId)>, Vec<u32>) {
    let mut data = Vec::new();
    let mut runs = Vec::new();
    let mut per_byte = Vec::new();
    for (i, &(raw, len)) in layout.iter().enumerate() {
        let gid = raw & gid_mask(width);
        runs.push((len, GlobalId(gid)));
        for j in 0..len {
            data.push((i as u8).wrapping_mul(31).wrapping_add(j as u8));
            per_byte.push(gid);
        }
    }
    (data, runs, per_byte)
}

/// Re-expands decoded runs to per-byte gids for comparison (decode
/// coalesces adjacent equal-gid runs, so run tables aren't comparable
/// directly against the input layout).
fn expand(runs: &[(GlobalId, usize)]) -> Vec<u32> {
    runs.iter()
        .flat_map(|&(gid, len)| std::iter::repeat_n(gid.0, len))
        .collect()
}

fn encode(codec: &dyn WireCodec, data: &[u8], runs: &[(usize, GlobalId)]) -> Vec<u8> {
    let mut wire = Vec::new();
    codec.encode_into(data, runs, &mut wire).unwrap();
    wire
}

/// What a stream receiver decodes from `wire` (with the wire bytes it
/// consumed), and what a datagram receiver does.
fn decode_both(codec: &dyn WireCodec, wire: &[u8]) -> ((usize, Decoded), Decoded) {
    let (mut d, mut r) = (Vec::new(), Vec::new());
    let consumed = codec
        .decode_available(wire, usize::MAX, &mut d, &mut r)
        .unwrap();
    let stream = (consumed, (d, r));
    let (mut d, mut r) = (Vec::new(), Vec::new());
    codec.decode_datagram(wire, &mut d, &mut r).unwrap();
    (stream, (d, r))
}

proptest! {
    /// `V1Codec`'s wire bytes are bit-identical to the per-byte
    /// reference encoder for every layout.
    #[test]
    fn fast_encode_matches_reference(layout in layout_strategy()) {
        let (data, runs, _) = materialize(&layout, V1_WIDTH);
        let wire = encode(&V1Codec::new(V1_WIDTH), &data, &runs);
        prop_assert_eq!(wire, reference::encode_wire(&data, &runs, V1_WIDTH));
    }

    /// decode∘encode is the identity on data bytes and per-byte gids,
    /// and a stream decode and a datagram decode both agree with the
    /// reference decoder exactly.
    #[test]
    fn decode_inverts_encode(layout in layout_strategy()) {
        let (data, runs, per_byte) = materialize(&layout, V1_WIDTH);
        let codec = V1Codec::new(V1_WIDTH);
        let wire = encode(&codec, &data, &runs);
        let ((consumed, stream), datagram) = decode_both(&codec, &wire);
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(&stream.0, &data);
        prop_assert_eq!(expand(&stream.1), per_byte);
        // Decoded run tables must be coalesced: no adjacent equal gids.
        prop_assert!(stream.1.windows(2).all(|w| w[0].0 != w[1].0));
        let expected = reference::decode_wire(&wire, V1_WIDTH);
        prop_assert_eq!(&stream, &expected);
        prop_assert_eq!(datagram, expected);
    }

    /// Any record-aligned fragmentation point is safe: decoding the two
    /// fragments independently yields the same bytes and per-byte gids
    /// as decoding the whole wire buffer (§III-D-2 partial reads).
    #[test]
    fn record_aligned_fragmentation_is_lossless(
        layout in layout_strategy(),
        cut in 0usize..4096,
    ) {
        let (data, runs, per_byte) = materialize(&layout, V1_WIDTH);
        let codec = V1Codec::new(V1_WIDTH);
        let wire = encode(&codec, &data, &runs);
        let records = wire.len() / (1 + V1_WIDTH);
        let at = (cut % (records + 1)) * (1 + V1_WIDTH);
        let mut all_data = Vec::new();
        let mut all_gids = Vec::new();
        for part in [&wire[..at], &wire[at..]] {
            let ((consumed, (d, r)), _) = decode_both(&codec, part);
            prop_assert_eq!(consumed, part.len());
            all_data.extend_from_slice(&d);
            all_gids.extend(expand(&r));
        }
        prop_assert_eq!(all_data, data);
        prop_assert_eq!(all_gids, per_byte);
    }

    /// A cut anywhere *inside* a record: a stream decode consumes only
    /// the whole records before it (the torn one waits for its rest), a
    /// datagram decode drops the torn tail, and both deliver what the
    /// reference decodes from the whole-record prefix.
    #[test]
    fn a_torn_record_waits_on_a_stream_and_is_dropped_from_a_datagram(
        layout in layout_strategy().prop_filter("need bytes", |l| !l.is_empty()),
        cut in 0usize..4096,
    ) {
        let (data, runs, _) = materialize(&layout, V1_WIDTH);
        let codec = V1Codec::new(V1_WIDTH);
        let wire = encode(&codec, &data, &runs);
        let rs = 1 + V1_WIDTH;
        // Some whole records plus 1..rs stray bytes of the next one.
        let whole = (cut % (wire.len() / rs)) * rs;
        let torn = whole + 1 + cut % (rs - 1);
        prop_assert!(torn < wire.len() && !torn.is_multiple_of(rs));
        let ((consumed, stream), datagram) = decode_both(&codec, &wire[..torn]);
        prop_assert_eq!(consumed, whole);
        let expected = reference::decode_wire(&wire[..whole], V1_WIDTH);
        prop_assert_eq!(&stream, &expected);
        prop_assert_eq!(datagram, expected);
    }

    /// One gid byte of one record overwritten — any of a block's 8
    /// slots or a tail record — decodes as the reference decodes it:
    /// the same data and runs, as a stream and as a datagram.
    #[test]
    fn a_corrupted_gid_byte_decodes_as_the_reference_does(
        layout in layout_strategy().prop_filter("need bytes", |l| !l.is_empty()),
        record in any::<usize>(),
        slot in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let (data, runs, _) = materialize(&layout, V1_WIDTH);
        let codec = V1Codec::new(V1_WIDTH);
        let mut wire = encode(&codec, &data, &runs);
        wire[record % data.len() * (1 + V1_WIDTH) + 1 + slot % V1_WIDTH] ^= flip;
        let ((consumed, stream), datagram) = decode_both(&codec, &wire);
        prop_assert_eq!(consumed, wire.len());
        let expected = reference::decode_wire(&wire, V1_WIDTH);
        prop_assert_eq!(&stream, &expected);
        prop_assert_eq!(datagram, expected);
    }

    /// A v2 record frame, forced by giving every byte a run of its own
    /// and with a max gid that needs `width` bytes, declares that width
    /// and carries the reference's records for it; it decodes as a
    /// stream, as a datagram, as a datagram cut inside a record and with
    /// one gid byte overwritten as the reference decodes the
    /// (whole-record) records.
    #[test]
    fn v2_record_frames_match_reference(
        mut layout in layout_strategy().prop_filter("need bytes", |l| !l.is_empty()),
        width in width_strategy(),
        cut in any::<usize>(),
        slot in any::<usize>(),
        flip in 1u8..=255,
    ) {
        layout[0].0 |= 1 << (8 * (width - 1));
        let (data, runs, _) = materialize(&layout, width);
        let per_record: Vec<(usize, GlobalId)> = runs
            .iter()
            .flat_map(|&(len, gid)| std::iter::repeat_n((1, gid), len))
            .collect();
        let codec = V2Codec::new(width);
        let wire = encode(&codec, &data, &per_record);
        let records = reference::encode_wire(&data, &runs, width);
        let header = wire.len() - records.len();
        prop_assert_eq!(&wire[..2], &[OP_RECORDS, width as u8]);
        prop_assert_eq!(&wire[header..], &records[..]);
        let ((consumed, stream), datagram) = decode_both(&codec, &wire);
        prop_assert_eq!(consumed, wire.len());
        let expected = reference::decode_wire(&records, width);
        prop_assert_eq!(&stream, &expected);
        prop_assert_eq!(datagram, expected);
        // Cut the datagram anywhere past the header: the whole records
        // before the cut are delivered, the torn one is dropped.
        let at = header + cut % (wire.len() - header);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        codec.decode_datagram(&wire[..at], &mut d, &mut r).unwrap();
        let whole = (at - header) / (1 + width) * (1 + width);
        prop_assert_eq!((d, r), reference::decode_wire(&records[..whole], width));
        // One gid byte of one record overwritten, at any of the kernel's
        // narrower widths too.
        let mut bad = wire;
        bad[header + cut % data.len() * (1 + width) + 1 + slot % width] ^= flip;
        let ((consumed, stream), datagram) = decode_both(&codec, &bad);
        prop_assert_eq!(consumed, bad.len());
        let expected = reference::decode_wire(&bad[header..], width);
        prop_assert_eq!(&stream, &expected);
        prop_assert_eq!(datagram, expected);
    }

    /// v2 decode∘encode is the identity on data bytes and per-byte gids
    /// for every layout, and one pass consumes the whole wire buffer.
    #[test]
    fn v2_decode_inverts_encode(layout in layout_strategy()) {
        let (data, _, per_byte) = materialize(&layout, 4);
        let runs: Vec<(usize, GlobalId)> = layout
            .iter()
            .map(|&(raw, len)| (len, GlobalId(raw)))
            .collect();
        let codec = V2Codec::new(4);
        let mut wire = Vec::new();
        codec.encode_into(&data, &runs, &mut wire).unwrap();
        let (mut got_data, mut got_runs) = (Vec::new(), Vec::new());
        let consumed = codec
            .decode_available(&wire, data.len().max(1), &mut got_data, &mut got_runs)
            .unwrap();
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(&got_data, &data);
        prop_assert_eq!(expand(&got_runs), per_byte);
    }

    /// Protocol equivalence: whatever the run layout, v1 and v2 deliver
    /// byte-identical data and per-byte gids — only the wire bytes in
    /// between differ.
    #[test]
    fn v1_and_v2_deliver_identical_payloads(layout in layout_strategy()) {
        let (data, _, _) = materialize(&layout, 4);
        let runs: Vec<(usize, GlobalId)> = layout
            .iter()
            .map(|&(raw, len)| (len, GlobalId(raw)))
            .collect();
        let mut delivered = Vec::new();
        for codec in [&V1Codec::new(4) as &dyn WireCodec, &V2Codec::new(4)] {
            let mut wire = Vec::new();
            codec.encode_into(&data, &runs, &mut wire).unwrap();
            let (mut d, mut r) = (Vec::new(), Vec::new());
            let consumed = codec
                .decode_available(&wire, data.len().max(1), &mut d, &mut r)
                .unwrap();
            prop_assert_eq!(consumed, wire.len());
            delivered.push((d, expand(&r)));
        }
        prop_assert_eq!(&delivered[0], &delivered[1]);
    }

    /// Untainted payloads ship at ~1.0x under v2: one opcode byte plus a
    /// varint length per frame, never the 5x record expansion.
    #[test]
    fn v2_clean_frames_are_near_one_x(data in prop::collection::vec(any::<u8>(), 1..4096)) {
        let codec = V2Codec::new(4);
        let runs = [(data.len(), GlobalId::UNTAINTED)];
        let mut wire = Vec::new();
        codec.encode_into(&data, &runs, &mut wire).unwrap();
        prop_assert!(
            wire.len() <= data.len() + 8,
            "clean frame overhead too large: {} wire bytes for {} data",
            wire.len(),
            data.len()
        );
    }
}

/// The shape adaptive v2 framing exists for — 1 MiB of mostly clean
/// bytes with 64-byte tainted islands covering 1% of it, every island a
/// different gid — ships at ≤ 1.2× under v2 and at exactly
/// `(1 + width)×` under v1. Byte counts only: deterministic, no timing.
#[test]
fn one_percent_tainted_mib_expands_at_most_1_2x_under_v2() {
    const SIZE: usize = 1024 * 1024;
    const ISLAND: usize = 64;
    const WIDTH: usize = 4;
    let data: Vec<u8> = (0..SIZE).map(|i| (i as u8).wrapping_mul(31)).collect();
    let runs: Vec<(usize, GlobalId)> = (0..SIZE / (ISLAND * 100))
        .flat_map(|i| {
            [
                (ISLAND * 99, GlobalId::UNTAINTED),
                (ISLAND, GlobalId(40 + i as u32)),
            ]
        })
        .chain([(SIZE % (ISLAND * 100), GlobalId::UNTAINTED)])
        .collect();
    assert_eq!(runs.iter().map(|r| r.0).sum::<usize>(), SIZE);
    let tainted: usize = runs.iter().filter(|r| r.1.is_tainted()).map(|r| r.0).sum();
    assert!(
        (SIZE / 101..=SIZE / 100).contains(&tainted),
        "1% of the bytes"
    );

    let mut wire = Vec::new();
    V1Codec::new(WIDTH)
        .encode_into(&data, &runs, &mut wire)
        .unwrap();
    assert_eq!(wire.len(), SIZE * (1 + WIDTH));
    V2Codec::new(WIDTH)
        .encode_into(&data, &runs, &mut wire)
        .unwrap();
    assert!(
        wire.len() * 10 <= SIZE * 12,
        "v2 shipped {} wire bytes for {SIZE} data bytes",
        wire.len()
    );
}
