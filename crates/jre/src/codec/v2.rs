//! Wire protocol **v2** — adaptive framing for the mostly-untainted
//! common case (ROADMAP item 2; Taint Rabbit / HardTaint selectivity
//! argument).
//!
//! Where v1 expands *every* byte to a 5-byte record, v2
//! frames the payload and lets each frame pick the cheapest encoding:
//!
//! ```text
//! clean   := 0x01 dlen:varint data[dlen]                  # ~1.0x, no gids
//! runs    := 0x02 width:u8 dlen:varint nseg:varint
//!            (run_len:varint gid:width-bytes-BE){nseg} data[dlen]
//! records := 0x03 width:u8 dlen:varint (byte gid:width)^dlen  # v1 records
//! annot   := 0x04 span:varint parent:varint                # trace context
//! defs    := 0x05 n:varint (gid:varint len:varint packed[len]){n}
//! ```
//!
//! The last two are control frames, written ahead of one payload's data
//! frames (annotation first) and stripped by the boundary before the
//! data decoder runs: see [`OP_ANNOT`] and [`OP_DEFS`].
//!
//! * **Clean frames** carry untainted payloads with a 2–5 byte header
//!   and no per-byte overhead.
//! * **Run frames** dump the `TaintRuns` shadow representation almost
//!   directly: one `(run_len, gid)` segment per taint run, then the
//!   payload verbatim. Segments precede the data so datagram tail
//!   truncation cuts data, not structure.
//! * **Record frames** are the adaptive fallback: when taints are so
//!   fragmented that run segments would outweigh v1-style interleaved
//!   records, the encoder emits the records instead (through the v1
//!   block kernel), bounding the worst case at v1's
//!   cost plus a few header bytes.
//!
//! The gid width (1..=4 bytes) is chosen **per frame** from that frame's
//! max gid (`width_for`), so small-id frames ship 1- or 2-byte gids; a
//! frame declaring any other width is refused. Varints are LEB128.
//!
//! V2 is only ever spoken after both peers settle on it (pinned
//! [`WireProtocol::V2`](super::WireProtocol::V2) or a successful
//! negotiation — see `boundary`); the bytes here never appear on a v1
//! connection, which is how v1 stays bit-pinned.

use dista_taint::{ByteReader, GlobalId, ReadError};

use super::{check_width, gid_from_wire, v1, WireCodec, WireVersion, MAX_GID_WIDTH};
use crate::error::JreError;

/// Frame opcode: untainted payload, no gid records.
pub const OP_CLEAN: u8 = 0x01;
/// Frame opcode: run-length gid segments followed by the payload.
pub const OP_RUNS: u8 = 0x02;
/// Frame opcode: v1-style interleaved records at the declared width.
pub const OP_RECORDS: u8 = 0x03;
/// Frame opcode: trace-context annotation.
///
/// ```text
/// annot := 0x04 span:varint parent:varint
/// ```
///
/// An annotation is **not** a data frame: it carries the crossing span
/// id (and its parent span) for the tainted payload whose data frames
/// follow it on the wire. The boundary layer prepends it before the
/// frames of a tainted v2 payload and strips it on receive with
/// [`parse_annotation`]. The data decoder treats an annotation at a
/// frame boundary as a clean stop ([`V2Codec::decode_available`]
/// returns what it consumed so far), and the frame-header opcode
/// whitelist still rejects `0x04` *inside* a frame stream handed over
/// without stripping — datagram decoding never sees one legitimately.
/// `span` must be nonzero (0 is the protocol's "no span" sentinel);
/// `parent` may be 0.
pub const OP_ANNOT: u8 = 0x04;
/// Frame opcode: inline taint definitions.
///
/// ```text
/// defs := 0x05 n:varint (gid:varint len:varint packed[len]){n}
/// ```
///
/// Like an annotation, a definitions frame is **not** a data frame. It
/// carries, for the tainted gids of the payload whose data frames follow
/// it that the peer is not known to hold, the serialized taint each gid
/// names — packed, as `dista_taint::serialize_taint` writes it and the
/// Taint Map stores it (a one-tag string taint of `n` bytes is
/// `n + 11`) — so the receiver resolves them from the stream instead of from
/// the Taint Map. The boundary writes it after the annotation and before
/// the data frames and strips it on receive with [`parse_defs`]; the data
/// decoder stops at it as at an annotation, and the datagram decoder
/// rejects it (datagrams carry no definitions). A `gid` must fit 32 bits
/// and a `len` must be 1..=[`MAX_FRAME_DATA`].
pub const OP_DEFS: u8 = 0x05;

/// Largest payload one frame may carry (64 MiB). Encoders split larger
/// payloads; decoders reject larger declared lengths as lies.
pub const MAX_FRAME_DATA: usize = 1 << 26;

/// Minimal big-endian byte width for a frame's max gid. Gids are 32-bit,
/// so this is always 1..=4.
pub fn width_for(max_gid: GlobalId) -> usize {
    if max_gid.0 == 0 {
        1
    } else {
        4 - (max_gid.0.leading_zeros() / 8) as usize
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varint_len(v: u64) -> usize {
    let bits = 64 - v.max(1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Reads the varint at the front of `buf`, returning it with its
/// encoded length. `Ok(None)` means the buffer ends inside the varint
/// (more bytes needed); one no continuation can complete is malformed.
#[inline]
fn varint_at(buf: &[u8]) -> Result<Option<(u64, usize)>, JreError> {
    let mut r = ByteReader::new(buf);
    match r.varint() {
        Ok(v) => Ok(Some((v, r.pos()))),
        Err(ReadError::Truncated) => Ok(None),
        Err(malformed) => Err(malformed.into()),
    }
}

/// Appends one `(gid, run_len)` run, merging with the previous run when
/// the gid matches (frames may split a logical run).
fn push_run(runs_out: &mut Vec<(GlobalId, usize)>, gid: GlobalId, len: usize) {
    if len == 0 {
        return;
    }
    if let Some(last) = runs_out.last_mut() {
        if last.0 == gid {
            last.1 += len;
            return;
        }
    }
    runs_out.push((gid, len));
}

/// Appends one annotation frame carrying `span` (nonzero) and its
/// `parent` span (0 = root) to `out`.
///
/// # Panics
///
/// Panics if `span` is 0 — the encoder must simply omit the annotation
/// when it has no span to propagate.
pub fn encode_annotation(span: u64, parent: u64, out: &mut Vec<u8>) {
    assert_ne!(span, 0, "span 0 means no annotation; do not encode one");
    out.push(OP_ANNOT);
    push_varint(out, span);
    push_varint(out, parent);
}

/// Outcome of probing the front of a receive buffer for an annotation
/// frame (see [`parse_annotation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotParse {
    /// The buffer does not start with an annotation (empty, or a data
    /// frame opcode) — hand the bytes to the codec untouched.
    None,
    /// The buffer ends inside the annotation; read more bytes first.
    Incomplete,
    /// A whole annotation: strip `consumed` bytes, remember the span.
    Complete {
        /// The crossing span id (never 0).
        span: u64,
        /// The parent span id (0 = the crossing has no recorded parent).
        parent: u64,
        /// Wire bytes the annotation occupied.
        consumed: usize,
    },
}

/// Probes the front of `wire` for an [`OP_ANNOT`] frame.
///
/// # Errors
///
/// A malformed varint or a zero span id inside an annotation is a
/// protocol error (a v2 peer never emits either).
pub fn parse_annotation(wire: &[u8]) -> Result<AnnotParse, JreError> {
    match wire.first() {
        Some(&op) if op == OP_ANNOT => {}
        _ => return Ok(AnnotParse::None),
    }
    let Some((span, n1)) = varint_at(&wire[1..])? else {
        return Ok(AnnotParse::Incomplete);
    };
    let Some((parent, n2)) = varint_at(&wire[1 + n1..])? else {
        return Ok(AnnotParse::Incomplete);
    };
    if span == 0 {
        return Err(JreError::Protocol("v2 annotation frame carries span 0"));
    }
    Ok(AnnotParse::Complete {
        span,
        parent,
        consumed: 1 + n1 + n2,
    })
}

/// Appends one definitions frame carrying every `(gid, serialized)` of
/// `defs` to `out`.
///
/// # Panics
///
/// Panics if `defs` is empty — the encoder must simply omit the frame
/// when it has nothing to define.
pub fn encode_defs(defs: &[(GlobalId, Vec<u8>)], out: &mut Vec<u8>) {
    assert!(!defs.is_empty(), "no definitions means no frame");
    out.push(OP_DEFS);
    push_varint(out, defs.len() as u64);
    for (gid, serialized) in defs {
        push_varint(out, u64::from(gid.0));
        push_varint(out, serialized.len() as u64);
        out.extend_from_slice(serialized);
    }
}

/// The `(gid, serialized)` pairs of one validated [`OP_DEFS`] frame, in
/// wire order, read where they lie in the receive buffer.
#[derive(Debug)]
pub struct Defs<'a> {
    body: ByteReader<'a>,
    left: u64,
}

impl<'a> Iterator for Defs<'a> {
    type Item = (GlobalId, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        Some(read_def(&mut self.body).expect("definition validated by parse_defs"))
    }
}

/// Reads one `gid len packed[len]` definition.
fn read_def<'a>(r: &mut ByteReader<'a>) -> Result<(GlobalId, &'a [u8]), ReadError> {
    let gid = u32::try_from(r.varint()?)
        .map_err(|_| ReadError::Malformed("v2 definition names a gid past 32 bits"))?;
    let len = r.varint()?;
    if len == 0 || len > MAX_FRAME_DATA as u64 {
        return Err(ReadError::Malformed(
            "v2 definition declares a bad taint length",
        ));
    }
    Ok((GlobalId(gid), r.bytes(len as usize)?))
}

/// Probes the front of `wire` for a whole [`OP_DEFS`] frame: its
/// definitions and the wire bytes it occupies, or `None` if `wire` does
/// not start with one — another frame, or a definitions frame not all of
/// whose bytes have arrived. The frame is validated whole before
/// anything is handed out, so nothing of it is applied twice.
///
/// # Errors
///
/// A malformed varint, a gid past 32 bits or a taint length of 0 or
/// past [`MAX_FRAME_DATA`] is a protocol error.
pub fn parse_defs(wire: &[u8]) -> Result<Option<(Defs<'_>, usize)>, JreError> {
    let Some(rest) = wire.strip_prefix(&[OP_DEFS]) else {
        return Ok(None);
    };
    let mut r = ByteReader::new(rest);
    let validated = r.varint().and_then(|n| {
        let body = r.clone();
        for _ in 0..n {
            read_def(&mut r)?;
        }
        Ok(Defs { body, left: n })
    });
    match validated {
        Ok(defs) => Ok(Some((defs, 1 + r.pos()))),
        Err(ReadError::Truncated) => Ok(None),
        Err(malformed) => Err(malformed.into()),
    }
}

/// The adaptive v2 codec behind the versioned [`WireCodec`] trait. It
/// holds nothing: every frame chooses its gid width from its own max gid.
#[derive(Debug, Clone, Copy)]
pub struct V2Codec;

impl V2Codec {
    /// The v2 codec. `width` is not used; it is checked only so that
    /// callers written against a width stay honest.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1..=[`MAX_GID_WIDTH`].
    pub fn new(width: usize) -> Self {
        check_width(width);
        V2Codec
    }

    /// Encodes one frame covering `data` (non-empty, within
    /// [`MAX_FRAME_DATA`]) with `runs` covering it exactly. Zero-length
    /// runs are skipped; the run table is walked as often as needed
    /// rather than copied.
    fn encode_frame(data: &[u8], runs: &[(usize, GlobalId)], out: &mut Vec<u8>) {
        let dlen = data.len() as u64;
        let live = || runs.iter().copied().filter(|&(n, _)| n != 0);
        if live().all(|(_, gid)| gid == GlobalId::UNTAINTED) {
            out.push(OP_CLEAN);
            push_varint(out, dlen);
            out.extend_from_slice(data);
            return;
        }
        let max_gid = live().map(|(_, gid)| gid).max().unwrap_or_default();
        let width = width_for(max_gid);
        let nseg = live().count() as u64;
        let runs_body: usize = varint_len(nseg)
            + live()
                .map(|(n, _)| varint_len(n as u64) + width)
                .sum::<usize>()
            + data.len();
        let records_body = data.len() * (1 + width);
        if runs_body <= records_body {
            out.push(OP_RUNS);
            out.push(width as u8);
            push_varint(out, dlen);
            push_varint(out, nseg);
            for (run_len, gid) in live() {
                push_varint(out, run_len as u64);
                out.extend_from_slice(&gid.0.to_be_bytes()[4 - width..]);
            }
            out.extend_from_slice(data);
        } else {
            out.push(OP_RECORDS);
            out.push(width as u8);
            push_varint(out, dlen);
            let start = out.len();
            out.resize(start + records_body, 0);
            v1::encode_records_into(data, live(), width, &mut out[start..]);
        }
    }
}

/// Outcome of parsing one frame from the front of a buffer.
enum Frame {
    /// A whole frame: `consumed` wire bytes, payload delivered.
    Complete { consumed: usize },
    /// The buffer ends inside the frame; nothing was delivered.
    Incomplete,
}

/// Parses one frame from the front of `wire`, appending its payload to
/// `data_out` / `runs_out` only when the frame is complete.
fn parse_frame(
    wire: &[u8],
    data_out: &mut Vec<u8>,
    runs_out: &mut Vec<(GlobalId, usize)>,
) -> Result<Frame, JreError> {
    match parse_header(wire)? {
        None => Ok(Frame::Incomplete),
        Some(h) => {
            if wire.len() < h.frame_len() {
                return Ok(Frame::Incomplete);
            }
            h.deliver(wire, h.dlen, data_out, runs_out);
            Ok(Frame::Complete {
                consumed: h.frame_len(),
            })
        }
    }
}

/// A fully parsed and validated frame header: everything before the
/// payload region (for record frames the "payload region" is the record
/// block).
struct Header {
    op: u8,
    width: usize,
    dlen: usize,
    /// Byte offset where the payload region starts.
    body: usize,
    /// Byte offset of the first `(run_len, gid)` segment and the
    /// segment count (run frames only). The table was validated where
    /// it lies; [`Header::deliver`] reads it from there again instead
    /// of from a copy.
    segments: (usize, usize),
}

/// Reads the `(run_len, gid)` segment at `wire[at..]`, returning it with
/// the offset just past it. `Ok(None)` means the buffer ends inside the
/// segment.
fn read_segment(
    wire: &[u8],
    at: usize,
    width: usize,
) -> Result<Option<(u64, GlobalId, usize)>, JreError> {
    let Some((run_len, n)) = varint_at(&wire[at..])? else {
        return Ok(None);
    };
    let at = at + n;
    if wire.len() < at + width {
        return Ok(None);
    }
    let gid = gid_from_wire(&wire[at..at + width]);
    Ok(Some((run_len, gid, at + width)))
}

impl Header {
    /// Total wire length of the frame.
    fn frame_len(&self) -> usize {
        match self.op {
            OP_RECORDS => self.body + self.dlen * (1 + self.width),
            _ => self.body + self.dlen,
        }
    }

    /// Appends the first `take` data bytes (and their runs) to the
    /// outputs. `take == dlen` for whole frames; datagram truncation
    /// recovery passes less.
    fn deliver(
        &self,
        wire: &[u8],
        take: usize,
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) {
        match self.op {
            OP_CLEAN => {
                data_out.extend_from_slice(&wire[self.body..self.body + take]);
                push_run(runs_out, GlobalId::UNTAINTED, take);
            }
            OP_RUNS => {
                data_out.extend_from_slice(&wire[self.body..self.body + take]);
                let (mut at, nseg) = self.segments;
                let mut left = take;
                for _ in 0..nseg {
                    if left == 0 {
                        break;
                    }
                    let (run_len, gid, next) = read_segment(wire, at, self.width)
                        .ok()
                        .flatten()
                        .expect("segment table validated by parse_header");
                    at = next;
                    let n = (run_len as usize).min(left);
                    push_run(runs_out, gid, n);
                    left -= n;
                }
            }
            OP_RECORDS => {
                let rs = 1 + self.width;
                let region = &wire[self.body..self.body + take * rs];
                let first = runs_out.len();
                v1::strip_records_into(region, self.width, data_out, runs_out);
                // The frame's first run may continue the previous
                // frame's last one.
                if first > 0 && first < runs_out.len() && runs_out[first - 1].0 == runs_out[first].0
                {
                    runs_out[first - 1].1 += runs_out[first].1;
                    runs_out.remove(first);
                }
            }
            _ => unreachable!("opcode validated by parse_header"),
        }
    }
}

/// Parses and validates a frame header. `Ok(None)` means the buffer ends
/// inside the header (more bytes needed).
fn parse_header(wire: &[u8]) -> Result<Option<Header>, JreError> {
    let Some(&op) = wire.first() else {
        return Ok(None);
    };
    if !(op == OP_CLEAN || op == OP_RUNS || op == OP_RECORDS) {
        return Err(JreError::Protocol("unknown v2 wire frame opcode"));
    }
    let mut at = 1;
    let width = if op == OP_CLEAN {
        0
    } else {
        let Some(&w) = wire.get(at) else {
            return Ok(None);
        };
        at += 1;
        let w = w as usize;
        if !(1..=MAX_GID_WIDTH).contains(&w) {
            return Err(JreError::Protocol("v2 wire frame declares a bad gid width"));
        }
        w
    };
    let Some((dlen, n)) = varint_at(&wire[at..])? else {
        return Ok(None);
    };
    at += n;
    if dlen == 0 || dlen > MAX_FRAME_DATA as u64 {
        return Err(JreError::Protocol(
            "v2 wire frame declares a bad data length",
        ));
    }
    let dlen = dlen as usize;
    let mut segments = (0, 0);
    if op == OP_RUNS {
        let Some((nseg, n)) = varint_at(&wire[at..])? else {
            return Ok(None);
        };
        at += n;
        if nseg == 0 || nseg > dlen as u64 {
            return Err(JreError::Protocol(
                "v2 wire frame declares a bad segment count",
            ));
        }
        segments = (at, nseg as usize);
        let mut covered: u64 = 0;
        for _ in 0..nseg {
            let Some((run_len, _gid, next)) = read_segment(wire, at, width)? else {
                return Ok(None);
            };
            if run_len == 0 {
                return Err(JreError::Protocol("zero-length v2 gid segment"));
            }
            at = next;
            covered = covered.saturating_add(run_len);
            if covered > dlen as u64 {
                return Err(JreError::Protocol(
                    "v2 gid segments overrun the declared data length",
                ));
            }
        }
        if covered != dlen as u64 {
            return Err(JreError::Protocol(
                "v2 gid segments do not cover the declared data length",
            ));
        }
    }
    Ok(Some(Header {
        op,
        width,
        dlen,
        body: at,
        segments,
    }))
}

impl WireCodec for V2Codec {
    fn version(&self) -> WireVersion {
        WireVersion::V2
    }

    fn encode_into(
        &self,
        data: &[u8],
        runs: &[(usize, GlobalId)],
        out: &mut Vec<u8>,
    ) -> Result<(), JreError> {
        out.clear();
        let total: usize = runs.iter().map(|&(n, _)| n).sum();
        assert_eq!(total, data.len(), "run table must cover the data exactly");
        if data.len() <= MAX_FRAME_DATA {
            // One frame: the caller's run table is the frame's.
            if !data.is_empty() {
                Self::encode_frame(data, runs, out);
            }
            return Ok(());
        }
        let mut pos = 0; // data bytes framed so far
        let mut run = 0; // index into `runs`
        let mut offset = 0; // bytes of runs[run] already framed
        let mut chunk_runs: Vec<(usize, GlobalId)> = Vec::new();
        while pos < data.len() {
            let chunk_len = (data.len() - pos).min(MAX_FRAME_DATA);
            chunk_runs.clear();
            let mut need = chunk_len;
            while need > 0 {
                let (run_len, gid) = runs[run];
                let avail = run_len - offset;
                let n = avail.min(need);
                if n > 0 {
                    chunk_runs.push((n, gid));
                }
                need -= n;
                offset += n;
                if offset == run_len {
                    run += 1;
                    offset = 0;
                }
            }
            Self::encode_frame(&data[pos..pos + chunk_len], &chunk_runs, out);
            pos += chunk_len;
        }
        Ok(())
    }

    fn decode_available(
        &self,
        wire: &[u8],
        max_data: usize,
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) -> Result<usize, JreError> {
        data_out.clear();
        runs_out.clear();
        let mut consumed = 0;
        while consumed < wire.len() && data_out.len() < max_data {
            // A control frame is a barrier between payloads: stop
            // cleanly so the boundary layer can strip it (adopt its
            // span, learn its definitions) before decoding the frames
            // that follow.
            if wire[consumed] == OP_ANNOT || wire[consumed] == OP_DEFS {
                break;
            }
            match parse_frame(&wire[consumed..], data_out, runs_out)? {
                Frame::Complete { consumed: n } => consumed += n,
                Frame::Incomplete => break,
            }
        }
        Ok(consumed)
    }

    fn decode_datagram(
        &self,
        wire: &[u8],
        data_out: &mut Vec<u8>,
        runs_out: &mut Vec<(GlobalId, usize)>,
    ) -> Result<(), JreError> {
        data_out.clear();
        runs_out.clear();
        let mut at = 0;
        while at < wire.len() {
            match parse_frame(&wire[at..], data_out, runs_out)? {
                Frame::Complete { consumed } => at += consumed,
                Frame::Incomplete => {
                    // Datagram tail truncation: deliver whatever whole
                    // data bytes the final partial frame carries (whole
                    // records for record frames), mirroring plain UDP's
                    // data-prefix semantics. A cut inside the *header*
                    // is structural loss, which UDP cannot produce on
                    // its own — that stays an error.
                    let rest = &wire[at..];
                    let Some(h) = parse_header(rest)? else {
                        return Err(JreError::Protocol(
                            "datagram truncated inside a v2 frame header",
                        ));
                    };
                    let avail = rest.len() - h.body;
                    let take = match h.op {
                        OP_RECORDS => avail / (1 + h.width),
                        _ => avail,
                    };
                    h.deliver(rest, take.min(h.dlen), data_out, runs_out);
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn recv_wire_len(&self, max_data: usize) -> usize {
        // Worst case is the record-frame fallback (v1 cost) plus a few
        // header bytes per frame.
        max_data * (1 + MAX_GID_WIDTH) + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UT: GlobalId = GlobalId::UNTAINTED;

    fn roundtrip(
        data: &[u8],
        runs: &[(usize, GlobalId)],
    ) -> (Vec<u8>, Vec<(GlobalId, usize)>, usize) {
        let codec = V2Codec::new(4);
        let mut wire = Vec::new();
        codec.encode_into(data, runs, &mut wire).unwrap();
        let (mut d, mut r) = (Vec::new(), Vec::new());
        let consumed = codec
            .decode_available(&wire, data.len().max(1), &mut d, &mut r)
            .unwrap();
        assert_eq!(consumed, wire.len(), "whole wire consumed");
        (d, r, wire.len())
    }

    #[test]
    fn clean_payload_ships_at_one_point_oh() {
        let data = vec![0xAB; 100_000];
        let (d, r, wire_len) = roundtrip(&data, &[(100_000, UT)]);
        assert_eq!(d, data);
        assert_eq!(r, vec![(UT, 100_000)]);
        // 1 opcode + 3 varint bytes of header over 100k data bytes.
        assert!(
            wire_len <= data.len() + 8,
            "wire {wire_len} vs {}",
            data.len()
        );
    }

    #[test]
    fn tainted_runs_round_trip_with_per_frame_width() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let runs = vec![
            (1000usize, UT),
            (96, GlobalId(7)),
            (2000, UT),
            (500, GlobalId(300)),
            (500, GlobalId(300)),
        ];
        let (d, r, wire_len) = roundtrip(&data, &runs);
        assert_eq!(d, data);
        assert_eq!(
            r,
            vec![
                (UT, 1000),
                (GlobalId(7), 96),
                (UT, 2000),
                (GlobalId(300), 1000)
            ]
        );
        // Max gid 300 → 2-byte per-frame width; the run segments cost a
        // handful of bytes, nowhere near v1's 5x.
        assert!(wire_len < data.len() + 64, "wire {wire_len}");
    }

    #[test]
    fn fragmented_taints_fall_back_to_record_frames() {
        // Alternate gids byte-by-byte: run segments would cost ~3 bytes
        // per data byte on top of the data; records cost 1+width. The
        // encoder must pick whichever is smaller — and either way stay
        // within v1's envelope plus the frame header.
        let data = vec![0x55u8; 512];
        let runs: Vec<(usize, GlobalId)> = (0..512)
            .map(|i| (1usize, if i % 2 == 0 { GlobalId(1) } else { GlobalId(2) }))
            .collect();
        let codec = V2Codec::new(4);
        let mut wire = Vec::new();
        codec.encode_into(&data, &runs, &mut wire).unwrap();
        assert_eq!(wire[0], OP_RECORDS, "fragmented taints use record frames");
        let v1_cost = data.len() * 2; // per-frame width is 1 here
        assert!(
            wire.len() <= v1_cost + 8,
            "wire {} vs v1 {v1_cost}",
            wire.len()
        );
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert_eq!(
            codec.decode_available(&wire, 512, &mut d, &mut r).unwrap(),
            wire.len()
        );
        assert_eq!(d, data);
        assert_eq!(r.len(), 512);
    }

    #[test]
    fn width_for_picks_minimal_bytes() {
        assert_eq!(width_for(GlobalId(0)), 1);
        assert_eq!(width_for(GlobalId(1)), 1);
        assert_eq!(width_for(GlobalId(255)), 1);
        assert_eq!(width_for(GlobalId(256)), 2);
        assert_eq!(width_for(GlobalId(65_535)), 2);
        assert_eq!(width_for(GlobalId(65_536)), 3);
        assert_eq!(width_for(GlobalId(u32::MAX)), 4);
    }

    #[test]
    fn decode_available_stops_at_partial_frames() {
        let codec = V2Codec::new(4);
        let mut wire = Vec::new();
        codec.encode_into(b"hello", &[(5, UT)], &mut wire).unwrap();
        let full = wire.clone();
        codec
            .encode_into(b"world", &[(5, GlobalId(9))], &mut wire)
            .unwrap();
        let mut two = full.clone();
        two.extend_from_slice(&wire);
        // Cut inside the second frame: only the first is delivered.
        let cut = &two[..full.len() + 3];
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert_eq!(
            codec.decode_available(cut, 64, &mut d, &mut r).unwrap(),
            full.len()
        );
        assert_eq!(d, b"hello");
        // A bare opcode byte is just an incomplete frame, not an error.
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert_eq!(
            codec
                .decode_available(&[OP_RUNS], 64, &mut d, &mut r)
                .unwrap(),
            0
        );
        assert!(d.is_empty());
    }

    #[test]
    fn empty_payload_encodes_to_nothing() {
        let codec = V2Codec::new(4);
        let mut wire = vec![1, 2, 3];
        codec.encode_into(&[], &[], &mut wire).unwrap();
        assert!(wire.is_empty());
    }

    #[test]
    fn unknown_opcode_is_a_typed_error() {
        let codec = V2Codec::new(4);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert!(matches!(
            codec.decode_available(&[0x7F, 1, 0], 8, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
    }

    #[test]
    fn lying_data_length_is_a_typed_error() {
        let codec = V2Codec::new(4);
        let mut wire = vec![OP_CLEAN];
        push_varint(&mut wire, (MAX_FRAME_DATA + 1) as u64);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert!(matches!(
            codec.decode_available(&wire, 8, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
    }

    #[test]
    fn segments_must_cover_declared_length_exactly() {
        let codec = V2Codec::new(4);
        // width 1, dlen 4, one segment of 2 — undercovers.
        let wire = [OP_RUNS, 1, 4, 1, 2, 9, b'a', b'b', b'c', b'd'];
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert!(matches!(
            codec.decode_available(&wire, 8, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
        // Zero-length segment.
        let wire = [OP_RUNS, 1, 2, 1, 0, 9, b'a', b'b'];
        assert!(matches!(
            codec.decode_available(&wire, 8, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
    }

    /// Found by `tests/hostile_bytes.rs` (seed 1337): the running sum
    /// overflowed — a panic in debug, a wrapped "cover" in release.
    #[test]
    fn segment_lengths_past_u64_are_a_typed_error() {
        let codec = V2Codec::new(4);
        let mut wire = vec![OP_RUNS, 1, 4, 2, 1, 9];
        push_varint(&mut wire, u64::MAX);
        wire.extend_from_slice(&[9, b'a', b'b', b'c', b'd']);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert!(matches!(
            codec.decode_available(&wire, 8, &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_gid_in_wide_frame_is_a_typed_error() {
        let codec = V2Codec::new(4);
        // A width-8 segment gid above u32::MAX must not alias, and no
        // frame may declare a gid wider than 4 bytes, whatever it holds.
        let mut wide = vec![OP_RUNS, 8, 1, 1, 1];
        wide.extend_from_slice(&(u64::from(u32::MAX) + 1).to_be_bytes());
        wide.push(b'x');
        let mut inputs = vec![wide];
        for width in 5..=8u8 {
            let mut run = vec![OP_RUNS, width, 1, 1, 1];
            run.extend_from_slice(&7u64.to_be_bytes()[8 - width as usize..]);
            run.push(b'x');
            let mut records = vec![OP_RECORDS, width, 1, b'x'];
            records.extend_from_slice(&7u64.to_be_bytes()[8 - width as usize..]);
            inputs.extend([run, records]);
        }
        for wire in inputs {
            let (mut d, mut r) = (Vec::new(), Vec::new());
            assert!(
                matches!(
                    codec.decode_available(&wire, 8, &mut d, &mut r),
                    Err(JreError::Protocol(_))
                ),
                "{wire:?}"
            );
            assert!(
                matches!(
                    codec.decode_datagram(&wire, &mut d, &mut r),
                    Err(JreError::Protocol(_))
                ),
                "{wire:?}"
            );
        }
    }

    #[test]
    fn datagram_truncation_delivers_data_prefix() {
        let codec = V2Codec::new(4);
        let mut wire = Vec::new();
        codec
            .encode_into(b"abcdefgh", &[(4, UT), (4, GlobalId(5))], &mut wire)
            .unwrap();
        assert_eq!(wire[0], OP_RUNS);
        // Cut two payload bytes off the tail: runs precede data, so the
        // prefix keeps its taint structure.
        let (mut d, mut r) = (Vec::new(), Vec::new());
        codec
            .decode_datagram(&wire[..wire.len() - 2], &mut d, &mut r)
            .unwrap();
        assert_eq!(d, b"abcdef");
        assert_eq!(r, vec![(UT, 4), (GlobalId(5), 2)]);
        // Cut inside the header: structural loss is an error.
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert!(matches!(
            codec.decode_datagram(&wire[..3], &mut d, &mut r),
            Err(JreError::Protocol(_))
        ));
    }

    #[test]
    fn datagram_record_frame_truncates_at_record_boundaries() {
        // Force the record fallback, then cut mid-record.
        let data = vec![0x11u8; 64];
        let runs: Vec<(usize, GlobalId)> = (0..64)
            .map(|i| (1usize, GlobalId(1 + (i % 2) as u32)))
            .collect();
        let codec = V2Codec::new(4);
        let mut wire = Vec::new();
        codec.encode_into(&data, &runs, &mut wire).unwrap();
        assert_eq!(wire[0], OP_RECORDS);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        codec
            .decode_datagram(&wire[..wire.len() - 3], &mut d, &mut r)
            .unwrap();
        // width 1 → record size 2; 3 bytes cut = 1 whole record + 1 torn.
        assert_eq!(d.len(), 62);
        assert_eq!(r.iter().map(|&(_, n)| n).sum::<usize>(), 62);
    }

    #[test]
    fn annotation_round_trips_and_fences_the_data_decoder() {
        let mut wire = Vec::new();
        encode_annotation(300, 7, &mut wire);
        assert_eq!(wire[0], OP_ANNOT);
        assert_eq!(
            parse_annotation(&wire).unwrap(),
            AnnotParse::Complete {
                span: 300,
                parent: 7,
                consumed: wire.len()
            }
        );
        // Trailing bytes after the annotation don't confuse the probe.
        wire.push(OP_CLEAN);
        assert!(matches!(
            parse_annotation(&wire).unwrap(),
            AnnotParse::Complete { span: 300, .. }
        ));
        // A data frame (or an empty buffer) is AnnotParse::None.
        assert_eq!(
            parse_annotation(&[OP_CLEAN, 1, b'x']).unwrap(),
            AnnotParse::None
        );
        assert_eq!(parse_annotation(&[]).unwrap(), AnnotParse::None);
        // A cut inside the annotation asks for more bytes.
        let mut partial = Vec::new();
        encode_annotation(u64::MAX, u64::MAX, &mut partial);
        for cut in 1..partial.len() {
            assert_eq!(
                parse_annotation(&partial[..cut]).unwrap(),
                AnnotParse::Incomplete,
                "cut at {cut}"
            );
        }
        // Span 0 on the wire is a protocol error.
        assert!(parse_annotation(&[OP_ANNOT, 0, 0]).is_err());
        // The data decoder stops cleanly at an annotation boundary —
        // frames before it decode, the annotation itself stays put for
        // the boundary layer to strip.
        let codec = V2Codec::new(4);
        let (mut d, mut r) = (Vec::new(), Vec::new());
        let mut annotated = Vec::new();
        encode_annotation(5, 0, &mut annotated);
        assert_eq!(
            codec
                .decode_available(&annotated, 8, &mut d, &mut r)
                .unwrap(),
            0,
            "nothing decodable before the annotation"
        );
        let mut stream = Vec::new();
        codec.encode_into(b"abc", &[(3, UT)], &mut stream).unwrap();
        let first_frame = stream.len();
        let mut rest = Vec::new();
        encode_annotation(9, 5, &mut rest);
        let mut second = Vec::new();
        codec.encode_into(b"de", &[(2, UT)], &mut second).unwrap();
        rest.extend_from_slice(&second);
        stream.extend_from_slice(&rest);
        let consumed = codec.decode_available(&stream, 64, &mut d, &mut r).unwrap();
        assert_eq!(consumed, first_frame, "decode halts at the annotation");
        assert_eq!(d, b"abc");
        assert!(matches!(
            parse_annotation(&stream[consumed..]).unwrap(),
            AnnotParse::Complete {
                span: 9,
                parent: 5,
                ..
            }
        ));
    }

    #[test]
    fn definitions_round_trip_and_fence_the_data_decoder() {
        let defs = vec![
            (GlobalId(7), b"seven".to_vec()),
            (GlobalId(u32::MAX - 1), vec![0xAB; 300]),
        ];
        let mut wire = Vec::new();
        encode_defs(&defs, &mut wire);
        assert_eq!(wire[0], OP_DEFS);
        let codec = V2Codec::new(4);
        let mut frame = Vec::new();
        codec
            .encode_into(b"xy", &[(2, GlobalId(7))], &mut frame)
            .unwrap();
        let mut stream = wire.clone();
        stream.extend_from_slice(&frame);

        let (got, consumed) = parse_defs(&stream).unwrap().expect("a whole frame");
        assert_eq!(consumed, wire.len());
        let got: Vec<(GlobalId, Vec<u8>)> = got.map(|(g, b)| (g, b.to_vec())).collect();
        assert_eq!(got, defs);
        // Every cut short of the last byte waits for more.
        for cut in 1..wire.len() {
            assert!(parse_defs(&wire[..cut]).unwrap().is_none(), "cut at {cut}");
        }
        assert!(parse_defs(&frame).unwrap().is_none());
        assert!(parse_defs(&[]).unwrap().is_none());
        // The data decoder stops at the frame, as at an annotation…
        let (mut d, mut r) = (Vec::new(), Vec::new());
        assert_eq!(
            codec.decode_available(&stream, 8, &mut d, &mut r).unwrap(),
            0
        );
        // …and the datagram decoder, which never sees one, rejects it.
        assert!(codec.decode_datagram(&stream, &mut d, &mut r).is_err());
        // A gid past 32 bits and a zero length are lies.
        let mut wide = vec![OP_DEFS, 1];
        push_varint(&mut wide, u64::from(u32::MAX) + 1);
        wide.extend_from_slice(&[1, b'x']);
        assert!(parse_defs(&wide).is_err());
        assert!(parse_defs(&[OP_DEFS, 1, 7, 0]).is_err());
    }

    #[test]
    fn varint_roundtrip_and_limits() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            assert_eq!(varint_at(&buf).unwrap(), Some((v, buf.len())));
        }
        // Unterminated 10-byte varint is malformed, shorter is pending.
        assert!(varint_at(&[0x80; 10]).is_err());
        assert_eq!(varint_at(&[0x80; 3]).unwrap(), None);
    }
}
