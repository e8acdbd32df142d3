//! Wire protocol **v1** — the paper's interleaved record format,
//! conformance-pinned and unchanged on the wire.
//!
//! One `(1 + width)`-byte record per data byte, `[b][gid…]`, decodable at
//! any record boundary — which is what makes stream partial reads and
//! datagram truncation safe (§III-D-2), at the cost of the paper's ≈5×
//! expansion for 4-byte Global IDs.
//!
//! * [`encode_wire_into`] writes into a caller-provided buffer and fills
//!   each run's region by seeding one record and doubling
//!   `copy_within` — the per-byte work collapses to a single indexed
//!   store for the data byte.
//! * [`decode_wire_into`] writes data bytes into a caller-provided
//!   buffer, detects same-gid stretches with raw `width`-byte slice
//!   compares (no per-record [`GlobalId`] parse), and rejects torn
//!   trailing records and oversized gids with typed errors.
//! * [`V1Codec`] packages both behind the versioned [`WireCodec`]
//!   trait.
//!
//! The old per-byte codec is kept verbatim in [`mod@reference`] as the
//! conformance oracle: the property suite (`tests/prop_codec.rs`) pins
//! the fast path's output bit-for-bit against it.

use dista_taint::GlobalId;

use super::{check_width, gid_from_wire, WireCodec, WireRun, WireVersion, MAX_GID_WIDTH};
use crate::error::JreError;

/// Encodes `data` into interleaved wire records, one per byte, writing
/// into `out` (overwritten). `runs` must cover `data` exactly.
///
/// Each run's region is filled by seeding a single `[b][gid…]` record
/// and doubling it with `copy_within`; the remaining data bytes are then
/// scattered over the replicated seed. Wire bytes are bit-identical to
/// [`reference::encode_wire`].
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
/// interleaved records, monomorphized per width so per-record gid stores
/// compile to one fixed-size store instead of a variable-length memcpy.
/// The run table arrives as an iterator, so callers holding
/// `(run_len, GlobalId)` pairs convert on the fly instead of building a
/// [`WireRun`] table first. Shared with the v2 adaptive record-frame
/// fallback.
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

/// Runs shorter than this are filled record-by-record (two fixed-size
/// stores each); longer runs amortize a doubling `copy_within` fill.
const DOUBLING_MIN_RUN: usize = 32;

fn encode_records<const W: usize>(
    data: &[u8],
    runs: impl Iterator<Item = WireRun>,
    out: &mut [u8],
) {
    let rs = 1 + W;
    let mut pos = 0; // data byte index
    for (run_len, gid) in runs {
        if run_len == 0 {
            continue;
        }
        let gid: &[u8; W] = gid[..W].try_into().expect("slot holds W live bytes");
        let run = &data[pos..pos + run_len];
        let region = &mut out[pos * rs..(pos + run_len) * rs];
        if run_len < DOUBLING_MIN_RUN {
            for (rec, &b) in region.chunks_exact_mut(rs).zip(run) {
                rec[0] = b;
                rec[1..].copy_from_slice(gid);
            }
        } else {
            // Seed one record, double the filled region, then scatter
            // the real data bytes over the replicated seed.
            region[0] = run[0];
            region[1..rs].copy_from_slice(gid);
            let mut filled = rs;
            while filled < region.len() {
                let copy = filled.min(region.len() - filled);
                region.copy_within(..copy, filled);
                filled += copy;
            }
            for (rec, &b) in region.chunks_exact_mut(rs).zip(run).skip(1) {
                rec[0] = b;
            }
        }
        pos += run_len;
    }
    assert_eq!(pos, data.len(), "run table must cover the data exactly");
}

/// Decodes interleaved wire records: data bytes land in `data_out`
/// (cleared first), the gid run structure in `runs_out` (cleared first,
/// adjacent equal gids coalesced).
///
/// Same-gid stretches are detected with raw slice compares; the
/// [`GlobalId`] is parsed once per run, not once per record.
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
    let rs = 1 + width;
    data_out.clear();
    runs_out.clear();
    if !wire.len().is_multiple_of(rs) {
        return Err(JreError::Protocol("torn trailing wire record"));
    }
    let n = wire.len() / rs;
    data_out.resize(n, 0);
    let data = &mut data_out[..n];
    strip_records_into(wire, width, data, runs_out)
}

/// One fused pass over whole records (`wire.len()` must be a record
/// multiple and `data_out` exactly `wire.len() / (1 + width)` bytes):
/// gathers each record's data byte and coalesces same-gid stretches,
/// appending runs to `runs_out`. Monomorphized per width so the
/// per-record same-gid check compiles to one integer compare. Shared
/// with the v2 record-frame decode path.
pub(in crate::codec) fn strip_records_into(
    wire: &[u8],
    width: usize,
    data_out: &mut [u8],
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
    data_out: &mut [u8],
    runs_out: &mut Vec<(GlobalId, usize)>,
) -> Result<(), JreError> {
    let mut cur = [0u8; W];
    let mut run_len = 0usize;
    for (out, rec) in data_out.iter_mut().zip(wire.chunks_exact(1 + W)) {
        *out = rec[0];
        let gid: [u8; W] = rec[1..].try_into().expect("record is 1 + W bytes");
        if gid == cur && run_len != 0 {
            run_len += 1;
        } else {
            if run_len != 0 {
                runs_out.push((gid_from_wire(&cur)?, run_len));
            }
            cur = gid;
            run_len = 1;
        }
    }
    if run_len != 0 {
        runs_out.push((gid_from_wire(&cur)?, run_len));
    }
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

/// The pre-fast-path per-byte codec, kept as the conformance oracle the
/// fast path is pinned against. Structure intentionally mirrors the old
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

    #[test]
    fn encode_matches_reference_across_shapes() {
        let data: Vec<u8> = (0..=255u8).collect();
        for width in 1..=MAX_GID_WIDTH {
            for runs in [
                vec![(256usize, gid_w(7, width))],
                vec![(1usize, gid_w(1, width)), (255, gid_w(2, width))],
                vec![
                    (100usize, gid_w(0, width)),
                    (56, gid_w(9, width)),
                    (100, gid_w(0, width)),
                ],
            ] {
                let mut fast = Vec::new();
                encode_wire_into(&data, &runs, width, &mut fast);
                assert_eq!(
                    fast,
                    reference::encode_wire(&data, &runs, width),
                    "width {width}"
                );
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
