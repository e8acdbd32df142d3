//! Codec conformance properties: for arbitrary run layouts, gid widths
//! and fragmentation points, the v1 block kernel is bit-identical to the
//! per-byte reference codec and decodes a corrupted gid as it does,
//! encode∘decode is the identity for both wire protocols, the two
//! protocols deliver identical data and per-byte gids, and malformed wire
//! input fails with typed errors.

use dista_jre::codec::{v1, v1::reference, WireRun, MAX_GID_WIDTH};
use dista_jre::{JreError, V1Codec, V2Codec, WireCodec};
use dista_taint::GlobalId;
use proptest::prelude::*;

/// A run layout: `(gid value, run length)` pairs. Gid values are masked
/// to the width under test before encoding.
type Layout = Vec<(u32, usize)>;

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

/// Largest gid value expressible in `width` wire bytes (capped at the
/// 32-bit Global ID space).
fn gid_mask(width: usize) -> u32 {
    if width >= 4 {
        u32::MAX
    } else {
        (1u32 << (8 * width)) - 1
    }
}

/// Expands a layout into concrete `(data, wire runs, per-byte gids)`.
fn materialize(layout: &Layout, width: usize) -> (Vec<u8>, Vec<WireRun>, Vec<u32>) {
    let mut data = Vec::new();
    let mut runs = Vec::new();
    let mut per_byte = Vec::new();
    for (i, &(raw, len)) in layout.iter().enumerate() {
        let gid = raw & gid_mask(width);
        let mut slot = [0u8; MAX_GID_WIDTH];
        slot[..width].copy_from_slice(&u64::from(gid).to_be_bytes()[8 - width..]);
        runs.push((len, slot));
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

proptest! {
    /// The block encoder's wire bytes are bit-identical to the per-byte
    /// reference encoder for every layout and width.
    #[test]
    fn fast_encode_matches_reference(layout in layout_strategy(), width in width_strategy()) {
        let (data, runs, _) = materialize(&layout, width);
        let mut fast = Vec::new();
        v1::encode_wire_into(&data, &runs, width, &mut fast);
        prop_assert_eq!(fast, reference::encode_wire(&data, &runs, width));
    }

    /// decode∘encode is the identity on data bytes and per-byte gids,
    /// and the block decoder agrees with the reference decoder exactly.
    #[test]
    fn decode_inverts_encode(layout in layout_strategy(), width in width_strategy()) {
        let (data, runs, per_byte) = materialize(&layout, width);
        let mut wire = Vec::new();
        v1::encode_wire_into(&data, &runs, width, &mut wire);
        let (mut got_data, mut got_runs) = (Vec::new(), Vec::new());
        v1::decode_wire_into(&wire, width, &mut got_data, &mut got_runs).unwrap();
        prop_assert_eq!(&got_data, &data);
        prop_assert_eq!(expand(&got_runs), per_byte);
        // Decoded run tables must be coalesced: no adjacent equal gids.
        prop_assert!(got_runs.windows(2).all(|w| w[0].0 != w[1].0));
        let (ref_data, ref_runs) = reference::decode_wire(&wire, width).unwrap();
        prop_assert_eq!((got_data, got_runs), (ref_data, ref_runs));
    }

    /// Any record-aligned fragmentation point is safe: decoding the two
    /// fragments independently yields the same bytes and per-byte gids
    /// as decoding the whole wire buffer (§III-D-2 partial reads).
    #[test]
    fn record_aligned_fragmentation_is_lossless(
        layout in layout_strategy(),
        width in width_strategy(),
        cut in 0usize..4096,
    ) {
        let (data, runs, per_byte) = materialize(&layout, width);
        let mut wire = Vec::new();
        v1::encode_wire_into(&data, &runs, width, &mut wire);
        let records = wire.len() / (1 + width);
        let at = (cut % (records + 1)) * (1 + width);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        let mut all_data = Vec::new();
        let mut all_gids = Vec::new();
        for part in [&wire[..at], &wire[at..]] {
            v1::decode_wire_into(part, width, &mut d, &mut r).unwrap();
            all_data.extend_from_slice(&d);
            all_gids.extend(expand(&r));
        }
        prop_assert_eq!(all_data, data);
        prop_assert_eq!(all_gids, per_byte);
    }

    /// A cut anywhere *inside* a record is a typed protocol error from
    /// both codecs — never a silent drop of the torn record.
    #[test]
    fn torn_record_is_rejected(
        layout in layout_strategy().prop_filter("need bytes", |l| !l.is_empty()),
        width in width_strategy(),
        cut in 0usize..4096,
    ) {
        let (data, runs, _) = materialize(&layout, width);
        let mut wire = Vec::new();
        v1::encode_wire_into(&data, &runs, width, &mut wire);
        let rs = 1 + width;
        // Pick a non-record-aligned prefix length: some whole records
        // plus 1..rs stray bytes of the next one.
        let torn = (cut % (wire.len() / rs)) * rs + 1 + cut % (rs - 1);
        prop_assert!(torn < wire.len() && torn % rs != 0);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        prop_assert!(matches!(
            v1::decode_wire_into(&wire[..torn], width, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
        prop_assert!(matches!(
            reference::decode_wire(&wire[..torn], width),
            Err(JreError::Protocol(_))
        ));
    }

    /// One gid byte of one record overwritten — any of a block's 8
    /// slots or a tail record — decodes as the reference decodes it: the
    /// same data and runs, or, for a gid above `u32::MAX` (widths 5..=8),
    /// the same protocol error.
    #[test]
    fn a_corrupted_gid_byte_decodes_as_the_reference_does(
        layout in layout_strategy().prop_filter("need bytes", |l| !l.is_empty()),
        width in width_strategy(),
        record in any::<usize>(),
        slot in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let (data, runs, _) = materialize(&layout, width);
        let mut wire = Vec::new();
        v1::encode_wire_into(&data, &runs, width, &mut wire);
        wire[record % data.len() * (1 + width) + 1 + slot % width] ^= flip;
        let (mut d, mut r) = (Vec::new(), Vec::new());
        match (
            v1::decode_wire_into(&wire, width, &mut d, &mut r),
            reference::decode_wire(&wire, width),
        ) {
            (Ok(()), Ok(expected)) => prop_assert_eq!((d, r), expected),
            (Err(JreError::Protocol(got)), Err(JreError::Protocol(expected))) => {
                prop_assert_eq!(got, expected);
                prop_assert!(width > 4, "a {width}-byte gid always fits 32 bits");
            }
            (got, expected) => panic!("kernel {got:?}, reference {expected:?}"),
        }
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
