//! Taint serialization — the bytes that name a global taint wherever it
//! leaves its VM (paper §III-D-2): a v2 definition, a Taint Map `BIND`
//! record, a `LOOKUP` answer, a log or `REPLICATE` record, and the copy
//! a backend stores.
//!
//! The paper observes that "a serialized taint with one tag can be over
//! 200 bytes" (Java serialization is verbose: class descriptors, field
//! tables, object headers) and that length grows linearly with the tag
//! count. This module keeps that form — a self-describing header,
//! per-tag class/field metadata and an object header pad — as its
//! *full* form, private here: it fixes the layout, and no wire carries
//! it. A taint leaves packed against the full form of one empty string
//! tag minted at `0.0.0.0:0`: what the two share at their start and at
//! their end is dropped and the two lengths are kept, one byte each. A
//! single-tag string taint of `n < 256` bytes is `n + 11` bytes packed,
//! `n + 200` full.

use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

use crate::reader::{ByteReader, ReadError};
use crate::store::TaintStore;
use crate::tag::{LocalId, RawValue, KIND_BYTES, KIND_INT, KIND_STR};
use crate::tree::{Taint, TaintTree};

const MAGIC: [u8; 4] = [0xAC, 0xED, 0xD1, 0x5A];
const STREAM_CLASS: &str = "dista.taint.SerializedTaint";
const TAG_CLASS: &str = "dista.taint.TaintTag";
const FIELD_NAMES: [&str; 4] = ["id", "value", "localId", "globalId"];
/// Pad emulating the JVM object header + type metadata per serialized tag.
const OBJECT_HEADER_PAD: usize = 96;
const PAD_BYTE: u8 = 0xEE;

/// A full-form buffer this large or larger is dropped after its call
/// rather than kept for the thread's next one.
const KEPT_FULL: usize = 4096;

thread_local! {
    /// The full form being written or read on this thread.
    static FULL: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's full-form buffer, emptied.
fn with_full<T>(f: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    FULL.with_borrow_mut(|full| {
        full.clear();
        let out = f(full);
        if full.capacity() >= KEPT_FULL {
            *full = Vec::new();
        }
        out
    })
}

/// Errors produced when decoding a serialized taint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaintCodecError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The magic prefix did not match.
    BadMagic,
    /// The stream or tag class name did not match.
    BadClass,
    /// Unknown tag-value kind byte.
    BadValueKind(u8),
    /// A string tag value was not valid UTF-8.
    BadUtf8,
    /// The bytes are not what [`serialize_taint`] writes: a length byte
    /// runs past the packing template, the packing is one it never
    /// makes, or the full form has a non-zero rank or global id, a
    /// damaged pad, bytes past its last tag, or tags not in strictly
    /// ascending order of value (kind byte, then bytes), then origin.
    NotCanonical,
}

impl fmt::Display for TaintCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaintCodecError::Truncated => f.write_str("serialized taint is truncated"),
            TaintCodecError::BadMagic => f.write_str("serialized taint has a bad magic prefix"),
            TaintCodecError::BadClass => f.write_str("serialized taint names an unknown class"),
            TaintCodecError::BadValueKind(k) => {
                write!(f, "serialized taint has unknown value kind {k}")
            }
            TaintCodecError::BadUtf8 => {
                f.write_str("serialized taint string value is not valid utf-8")
            }
            TaintCodecError::NotCanonical => {
                f.write_str("serialized taint is not in its canonical form")
            }
        }
    }
}

impl std::error::Error for TaintCodecError {}

impl From<ReadError> for TaintCodecError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => TaintCodecError::Truncated,
            // A serialized taint's only malformed read: a non-UTF-8 name.
            ReadError::Malformed(_) => TaintCodecError::BadUtf8,
        }
    }
}

/// Serializes a taint (all of its tag quads) for transfer: the packed
/// bytes that name it in a v2 definition and in the Taint Map.
///
/// # Example
///
/// ```rust
/// use dista_taint::{TaintStore, LocalId, TagValue};
/// use dista_taint::{serialize_taint, deserialize_taint};
///
/// let sender = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
/// let t = sender.mint_source_taint(TagValue::str("vote"));
/// let wire = serialize_taint(sender.tree(), t);
/// assert_eq!(wire.len(), 15); // packed: the string, its origin, 3 length bytes
///
/// let receiver = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
/// let rt = deserialize_taint(&receiver, &wire)?;
/// assert_eq!(receiver.tag_values(rt), vec!["vote".to_string()]);
/// # Ok::<(), dista_taint::TaintCodecError>(())
/// ```
pub fn serialize_taint(tree: &TaintTree, taint: Taint) -> Vec<u8> {
    with_full(|full| {
        write_full(full, tree, taint);
        pack(full)
    })
}

/// Appends the full form of `taint` to `out`.
fn write_full(out: &mut Vec<u8>, tree: &TaintTree, taint: Taint) {
    write_header(out, tree.tag_count(taint));
    tree.for_each_tag_by_value(taint, |_, value, local_id, _| {
        write_tag(out, value, local_id);
    });
}

fn write_header(out: &mut Vec<u8>, count: usize) {
    out.extend_from_slice(&MAGIC);
    write_str16(out, STREAM_CLASS);
    out.extend_from_slice(&(count as u16).to_be_bytes());
}

fn write_tag(out: &mut Vec<u8>, value: RawValue<'_>, local_id: LocalId) {
    write_str16(out, TAG_CLASS);
    for name in FIELD_NAMES {
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
    }
    // The rank (`ID`) and `GlobalID` fields are written as zero, and a
    // taint's tags in value order, so the serialized form is
    // *canonical*: the same tag set always produces byte-identical
    // output no matter which VM serializes it, in which order that VM
    // learned its tags, or whether a global id has been assigned yet.
    // The Taint Map dedups registrations by byte identity, so
    // canonicality is what makes "one Global ID per unique global
    // taint" hold across VMs.
    out.extend_from_slice(&0u32.to_be_bytes());
    out.push(value.kind);
    out.extend_from_slice(&(value.bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(value.bytes);
    out.extend_from_slice(&local_id.to_bytes());
    out.extend_from_slice(&0u32.to_be_bytes());
    out.extend(std::iter::repeat_n(PAD_BYTE, OBJECT_HEADER_PAD));
}

/// The full form of one tag with an empty string value minted at
/// `0.0.0.0:0`: what packing strips from either end.
fn template() -> &'static [u8] {
    static TEMPLATE: OnceLock<Vec<u8>> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let mut out = Vec::new();
        write_header(&mut out, 1);
        write_tag(
            &mut out,
            RawValue::new(KIND_STR, b""),
            LocalId::new([0; 4], 0),
        );
        assert!(out.len() < 256, "a packed length is one byte");
        out
    })
}

/// Packs a full form: the lengths of the longest runs it shares with the
/// template at its start and (after that) at its end, one byte each,
/// then the bytes between them. Any byte string packs, and
/// `unpack` gives it back exactly, so equal strings pack
/// equally and unequal ones unequally.
fn pack(full: &[u8]) -> Vec<u8> {
    let template = template();
    let prefix = equal_run(full.iter().zip(template));
    let rest = &full[prefix..];
    let suffix = equal_run(rest.iter().rev().zip(template.iter().rev()));
    let middle = &rest[..rest.len() - suffix];
    // Neither run is longer than the template.
    let mut packed = Vec::with_capacity(2 + middle.len());
    packed.extend_from_slice(&[prefix as u8, suffix as u8]);
    packed.extend_from_slice(middle);
    packed
}

/// How many leading pairs are equal.
fn equal_run<'a>(pairs: impl Iterator<Item = (&'a u8, &'a u8)>) -> usize {
    pairs.take_while(|(a, b)| a == b).count()
}

/// Appends to `out` the full form `packed` was packed from, once it is
/// checked to be a serialized taint exactly as [`serialize_taint`]
/// writes one: the canonical packing (see `unpack`) of a well-formed
/// full form whose tags are in canonical order. A Taint Map server
/// checks each `BIND` record with it, so it binds only bytes that every
/// VM reads as a taint and that no VM writes for another set.
///
/// # Errors
///
/// [`TaintCodecError::Truncated`] if `packed` is shorter than its two
/// length bytes, [`TaintCodecError::NotCanonical`] for a length byte
/// past the template, a packing [`serialize_taint`] never makes or tags
/// out of order, and whatever [`deserialize_taint`] refuses the full
/// form for. `out` is then left as it was.
pub fn unpack_serialized(packed: &[u8], out: &mut Vec<u8>) -> Result<(), TaintCodecError> {
    let start = out.len();
    unpack(packed, out)?;
    read_full(&out[start..], |_, _| {}).inspect_err(|_| out.truncate(start))
}

/// Appends to `out` the full form `packed` was packed from, once it is
/// checked to be the canonical packing: each length byte within the
/// template, and each run as long as the template allows, so that
/// packing what is appended gives `packed` back. The check reads the
/// two bytes next to the middle, not the runs.
///
/// # Errors
///
/// As [`unpack_serialized`] for the packing; `out` is then left as it
/// was.
fn unpack(packed: &[u8], out: &mut Vec<u8>) -> Result<(), TaintCodecError> {
    let template = template();
    let len = template.len();
    let [prefix, suffix, middle @ ..] = packed else {
        return Err(TaintCodecError::Truncated);
    };
    let [prefix, suffix] = [*prefix, *suffix].map(usize::from);
    if prefix > len || suffix > len {
        return Err(TaintCodecError::NotCanonical);
    }
    let tail = &template[len - suffix..];
    // The prefix run stops at the first byte after it that differs from
    // the template's, or where either ends; the suffix run likewise,
    // read backwards from the end.
    let after_prefix = middle.first().or(tail.first());
    let prefix_ends = prefix == len || after_prefix != template.get(prefix);
    let suffix_ends = suffix == len || middle.last() != template.get(len - 1 - suffix);
    if !(prefix_ends && suffix_ends) {
        return Err(TaintCodecError::NotCanonical);
    }
    out.reserve(prefix + middle.len() + suffix);
    out.extend_from_slice(&template[..prefix]);
    out.extend_from_slice(middle);
    out.extend_from_slice(tail);
    Ok(())
}

/// Decodes a serialized taint into the receiving VM's store.
///
/// Tags are re-interned locally, preserving their foreign `LocalId` so
/// that identically-named local tags remain distinct, and the resulting
/// taint, the set of all decoded tags, is interned once.
///
/// # Errors
///
/// Returns a [`TaintCodecError`] if the bytes are not a canonical
/// packing, or are truncated, corrupted, out of order or name an unknown
/// class or value kind.
pub fn deserialize_taint(store: &TaintStore, packed: &[u8]) -> Result<Taint, TaintCodecError> {
    let tree = store.tree();
    let mut tags = Vec::new();
    with_full(|full| {
        unpack(packed, full)?;
        // Interned straight from the bytes read: no owned value is made.
        read_full(full, |value, local_id| {
            tags.push(tree.mint_raw(value, local_id));
        })
    })?;
    Ok(tree.taint_of_tags(tags))
}

/// Reads a full form, calling `tag` with each tag's value and origin in
/// the order written, which must be strictly ascending.
fn read_full<'a>(
    bytes: &'a [u8],
    mut tag: impl FnMut(RawValue<'a>, LocalId),
) -> Result<(), TaintCodecError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(4)? != MAGIC {
        return Err(TaintCodecError::BadMagic);
    }
    if r.str16()? != STREAM_CLASS {
        return Err(TaintCodecError::BadClass);
    }
    let count = r.u16()?;
    let mut last = None;
    for _ in 0..count {
        if r.str16()? != TAG_CLASS {
            return Err(TaintCodecError::BadClass);
        }
        for name in FIELD_NAMES {
            let len = usize::from(r.u8()?);
            if r.bytes(len)? != name.as_bytes() {
                return Err(TaintCodecError::BadClass);
            }
        }
        // The rank, like the global id below, is written as zero.
        if r.u32()? != 0 {
            return Err(TaintCodecError::NotCanonical);
        }
        let kind = r.u8()?;
        let len = r.u32()? as usize;
        let raw = r.bytes(len)?;
        match kind {
            KIND_STR if std::str::from_utf8(raw).is_err() => return Err(TaintCodecError::BadUtf8),
            KIND_STR | KIND_BYTES => {}
            KIND_INT if len == 8 => {}
            KIND_INT => return Err(TaintCodecError::Truncated),
            other => return Err(TaintCodecError::BadValueKind(other)),
        }
        let local_id = LocalId::from_bytes(r.array()?);
        if r.u32()? != 0 || r.bytes(OBJECT_HEADER_PAD)?.iter().any(|&b| b != PAD_BYTE) {
            return Err(TaintCodecError::NotCanonical);
        }
        let key = (RawValue::new(kind, raw), local_id);
        if last.is_some_and(|last| last >= key) {
            return Err(TaintCodecError::NotCanonical);
        }
        last = Some(key);
        tag(key.0, key.1);
    }
    if !r.at_end() {
        return Err(TaintCodecError::NotCanonical);
    }
    Ok(())
}

fn write_str16(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::tag::{GlobalId, TagValue};
    use proptest::TestRng;

    fn stores() -> (TaintStore, TaintStore) {
        (
            TaintStore::new(LocalId::new([10, 0, 0, 1], 1)),
            TaintStore::new(LocalId::new([10, 0, 0, 2], 2)),
        )
    }

    fn full_form(tree: &TaintTree, taint: Taint) -> Vec<u8> {
        let mut full = Vec::new();
        write_full(&mut full, tree, taint);
        full
    }

    /// `packed`'s full form, or why it has none.
    fn unpacked(packed: &[u8]) -> Result<Vec<u8>, TaintCodecError> {
        let mut full = Vec::new();
        unpack(packed, &mut full).map(|()| full)
    }

    /// `(value, origin)` of every tag of `taint`, sorted: what a
    /// receiver must rebuild.
    fn quads(store: &TaintStore, taint: Taint) -> Vec<(TagValue, LocalId)> {
        let mut quads: Vec<_> = store
            .tree()
            .tags_of(taint)
            .into_iter()
            .map(|tag| (tag.value, tag.local_id))
            .collect();
        quads.sort();
        quads
    }

    #[test]
    fn the_full_form_of_one_tag_exceeds_200_bytes() {
        let (s, _) = stores();
        let t = s.mint_source_taint(TagValue::str("a_tag"));
        let full = full_form(s.tree(), t);
        assert!(
            full.len() > 200,
            "paper: single-tag serialized taint > 200 bytes, got {}",
            full.len()
        );
        let packed = serialize_taint(s.tree(), t);
        assert_eq!((full.len(), packed.len()), (205, 16));
        assert_eq!(unpacked(&packed).unwrap(), full);
    }

    #[test]
    fn length_grows_linearly_with_tags() {
        let (s, _) = stores();
        let mut taint = Taint::EMPTY;
        let mut sizes = Vec::new();
        for i in 0..4 {
            taint = s.union(taint, s.mint_source_taint(TagValue::Int(i)));
            sizes.push(full_form(s.tree(), taint).len());
        }
        let d1 = sizes[1] - sizes[0];
        let d2 = sizes[2] - sizes[1];
        let d3 = sizes[3] - sizes[2];
        assert_eq!(d1, d2);
        assert_eq!(d2, d3);
    }

    #[test]
    fn roundtrip_preserves_tags_and_origin() {
        let (sender, receiver) = stores();
        let a = sender.mint_source_taint(TagValue::str("a_tag"));
        let b = sender.mint_source_taint(TagValue::bytes([1, 2, 3]));
        let ab = sender.union(a, b);
        let wire = serialize_taint(sender.tree(), ab);
        let rt = deserialize_taint(&receiver, &wire).unwrap();
        let tags = receiver.tree().tags_of(rt);
        assert_eq!(tags.len(), 2);
        assert!(tags
            .iter()
            .all(|t| t.local_id == LocalId::new([10, 0, 0, 1], 1)));
    }

    #[test]
    fn roundtrip_int_value() {
        let (sender, receiver) = stores();
        let t = sender.mint_source_taint(TagValue::Int(-99));
        let wire = serialize_taint(sender.tree(), t);
        let rt = deserialize_taint(&receiver, &wire).unwrap();
        assert_eq!(receiver.tag_values(rt), vec!["-99".to_string()]);
    }

    #[test]
    fn foreign_tag_does_not_conflict_with_local() {
        // Paper §III-D-1: Node2 has its own "a_tag" before receiving
        // Node1's "a_tag"; they must remain distinguishable.
        let (sender, receiver) = stores();
        let local = receiver.mint_source_taint(TagValue::str("a_tag"));
        let remote = sender.mint_source_taint(TagValue::str("a_tag"));
        let wire = serialize_taint(sender.tree(), remote);
        let rt = deserialize_taint(&receiver, &wire).unwrap();
        assert_ne!(local, rt, "tags from different nodes must not merge");
        let u = receiver.union(local, rt);
        assert_eq!(receiver.tree().tag_count(u), 2);
    }

    #[test]
    fn truncated_buffer_errors() {
        let (s, r) = stores();
        let t = s.mint_source_taint(TagValue::str("x"));
        let wire = serialize_taint(s.tree(), t);
        for cut in [0, 1] {
            assert_eq!(
                deserialize_taint(&r, &wire[..cut]),
                Err(TaintCodecError::Truncated)
            );
        }
        for cut in 2..wire.len() {
            assert!(deserialize_taint(&r, &wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_errors() {
        let (s, r) = stores();
        let t = s.mint_source_taint(TagValue::str("x"));
        let mut full = full_form(s.tree(), t);
        full[0] = 0;
        assert_eq!(
            deserialize_taint(&r, &pack(&full)),
            Err(TaintCodecError::BadMagic)
        );
    }

    #[test]
    fn empty_taint_roundtrips() {
        let (s, r) = stores();
        let wire = serialize_taint(s.tree(), Taint::EMPTY);
        let rt = deserialize_taint(&r, &wire).unwrap();
        assert!(rt.is_empty());
    }

    #[test]
    fn a_full_form_serialize_never_writes_is_refused() {
        let (s, r) = stores();
        let full = full_form(s.tree(), s.mint_source_taint(TagValue::str("x")));
        assert!(deserialize_taint(&r, &pack(&full)).is_ok());
        let end = full.len();
        // The rank, the global id, the pad's last byte; bytes past the
        // last tag.
        for at in [83, end - 100, end - 1] {
            let mut damaged = full.clone();
            damaged[at] ^= 1;
            assert_eq!(
                deserialize_taint(&r, &pack(&damaged)),
                Err(TaintCodecError::NotCanonical),
                "byte {at}"
            );
        }
        let longer = [&full[..], &[0]].concat();
        assert_eq!(
            deserialize_taint(&r, &pack(&longer)),
            Err(TaintCodecError::NotCanonical)
        );
        let mut renamed = full.clone();
        renamed[60] ^= 1; // in the field table
        assert_eq!(
            deserialize_taint(&r, &pack(&renamed)),
            Err(TaintCodecError::BadClass)
        );
    }

    #[test]
    fn a_length_past_the_template_or_a_non_canonical_packing_is_refused() {
        let (s, r) = stores();
        let wire = serialize_taint(s.tree(), s.mint_source_taint(TagValue::str("vote")));
        let len = template().len() as u8;
        // One byte of the prefix run moved into the middle: the same
        // full form, packed as `pack` never packs it.
        let [prefix, suffix, ref middle @ ..] = wire[..] else {
            unreachable!()
        };
        let (head, tail) = (usize::from(prefix), template().len() - usize::from(suffix));
        let mut shorter = vec![prefix - 1, suffix, template()[head - 1]];
        shorter.extend_from_slice(middle);
        let full = [&template()[..head - 1], &shorter[2..], &template()[tail..]].concat();
        assert_eq!(Ok(full), unpacked(&wire), "the same full form");
        // The same at the suffix run's end.
        let mut early = vec![prefix, suffix - 1];
        early.extend_from_slice(middle);
        early.push(template()[tail]);
        for bad in [
            shorter,
            early,
            vec![len + 1, 0],
            vec![0, len + 1],
            vec![255, 255, b'x'],
        ] {
            let before = vec![7u8];
            let mut out = before.clone();
            assert_eq!(
                unpack_serialized(&bad, &mut out),
                Err(TaintCodecError::NotCanonical),
                "{bad:?}"
            );
            assert_eq!(out, before, "nothing appended");
            assert_eq!(
                deserialize_taint(&r, &bad),
                Err(TaintCodecError::NotCanonical)
            );
        }
    }

    /// A taint of 1–8 tags drawn by `rng`: string, int and bytes values
    /// (a bytes value now and then of the template's own pad and zero
    /// bytes, or longer than 255 bytes) minted at random origins, the
    /// template's `0.0.0.0:0` among them.
    fn drawn_taint(rng: &mut TestRng, store: &TaintStore) -> Taint {
        let mut taint = Taint::EMPTY;
        for _ in 0..1 + rng.below(8) {
            let len = match rng.below(8) {
                0 => 256 + rng.below(300) as usize,
                _ => rng.below(12) as usize,
            };
            let value = match rng.below(4) {
                0 => TagValue::str(
                    (0..len)
                        .map(|_| (b'a' + rng.below(3) as u8) as char)
                        .collect::<String>(),
                ),
                1 => TagValue::bytes(
                    (0..len)
                        .map(|_| [0, 0xEE, rng.next_u64() as u8][rng.below(3) as usize])
                        .collect::<Vec<u8>>(),
                ),
                2 => TagValue::Int(rng.below(3) as i64 - 1),
                _ => TagValue::Int(rng.next_u64() as i64),
            };
            let origin = match rng.below(4) {
                0 => LocalId::new([0; 4], 0),
                _ => LocalId::new([10, 0, 0, rng.below(3) as u8], rng.below(3) as u32 * 0xEE),
            };
            let tag = store.tree().mint_tag(value, origin);
            taint = store.union(taint, store.tree().taint_of_tag(tag));
        }
        taint
    }

    #[test]
    fn random_tag_sets_round_trip_canonically_and_distinctly() {
        let mut rng = TestRng::new(0xD157A);
        let (sender, receiver) = stores();
        let mut named: HashMap<Vec<u8>, Vec<(TagValue, LocalId)>> = HashMap::new();
        for _ in 0..3_000 {
            let taint = drawn_taint(&mut rng, &sender);
            let packed = serialize_taint(sender.tree(), taint);
            let sent = quads(&sender, taint);
            // Serialize → deserialize gives the same tag quads.
            let got = deserialize_taint(&receiver, &packed).unwrap();
            assert_eq!(quads(&receiver, got), sent, "{packed:?}");
            // pack(unpack(x)) == x.
            let full = unpacked(&packed).unwrap();
            assert_eq!(full, full_form(sender.tree(), taint));
            assert_eq!(pack(&full), packed);
            // Equal bytes name equal taints, and unequal taints never
            // share bytes.
            if let Some(known) = named.insert(packed.clone(), sent.clone()) {
                assert_eq!(known, sent, "{packed:?}");
            }
        }
        assert!(named.len() > 2_000, "{} distinct taints", named.len());
    }

    /// Whether `packed` is refused, or unpacks to a full form that packs
    /// back to it and decodes, or is refused by the decoder, without a
    /// panic.
    fn refused_or_round_trips(packed: &[u8], receiver: &TaintStore) -> bool {
        match unpacked(packed) {
            Err(e) => {
                assert_eq!(deserialize_taint(receiver, packed), Err(e));
                false
            }
            Ok(full) => {
                assert_eq!(pack(&full), packed, "{packed:?}");
                let _ = deserialize_taint(receiver, packed);
                true
            }
        }
    }

    #[test]
    fn every_edit_of_the_length_bytes_is_refused_or_round_trips() {
        let mut rng = TestRng::new(0xED17);
        let (sender, receiver) = stores();
        let mut kept = 0;
        for sample in 0..120 {
            let mut packed = serialize_taint(sender.tree(), drawn_taint(&mut rng, &sender));
            let [prefix, suffix] = [packed[0], packed[1]];
            // Every value of each length byte, the other kept; for a few
            // samples every pair.
            let pairs: Vec<(u8, u8)> = match sample % 40 {
                0 => (0..=255)
                    .flat_map(|p| (0..=255).map(move |s| (p, s)))
                    .collect(),
                _ => (0..=255).flat_map(|b| [(b, suffix), (prefix, b)]).collect(),
            };
            for (p, s) in pairs {
                packed[..2].copy_from_slice(&[p, s]);
                kept += usize::from(refused_or_round_trips(&packed, &receiver));
            }
            packed[..2].copy_from_slice(&[prefix, suffix]);
            assert!(refused_or_round_trips(&packed, &receiver));
        }
        assert!(kept > 120, "some edits are canonical packings too");
    }

    #[test]
    fn any_byte_string_packs_and_unpacks_to_itself() {
        let mut rng = TestRng::new(0xD157A);
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 256));
        let mut corpus = vec![Vec::new(), template().to_vec(), [template(); 2].concat()];
        for _ in 0..2_000 {
            let mut bytes = match rng.below(3) {
                0 => (0..rng.below(600)).map(|_| rng.next_u64() as u8).collect(),
                _ => full_form(store.tree(), drawn_taint(&mut rng, &store)),
            };
            // Near-canonical: one byte flipped, the tail cut off, or
            // more bytes past the end.
            match rng.below(4) {
                0 if !bytes.is_empty() => {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.below(8);
                }
                1 => bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize),
                2 => bytes.extend(template()),
                _ => {}
            }
            corpus.push(bytes);
        }
        for bytes in &corpus {
            let packed = pack(bytes);
            assert!(packed.len() <= bytes.len() + 2, "{bytes:?}");
            assert_eq!(&unpacked(&packed).unwrap(), bytes);
        }
        // A canonical single-tag string taint keeps n + 11 bytes.
        let (s, _) = stores();
        let t = s.mint_source_taint(TagValue::str("fresh:0:1:1"));
        let wire = serialize_taint(s.tree(), t);
        assert_eq!((full_form(s.tree(), t).len(), wire.len()), (211, 22));
    }

    /// The full form of `{x, y}` with its two tag records swapped, and
    /// with the first written twice.
    fn reordered(store: &TaintStore) -> (Vec<u8>, Vec<u8>) {
        let x = store.mint_source_taint(TagValue::str("x"));
        let y = store.mint_source_taint(TagValue::str("y"));
        let full = full_form(store.tree(), store.union(x, y));
        let header = 8 + STREAM_CLASS.len();
        let (head, tags) = full.split_at(header);
        let (first, second) = tags.split_at(tags.len() / 2);
        (
            [head, second, first].concat(),
            [head, first, first].concat(),
        )
    }

    #[test]
    fn tags_not_strictly_ascending_are_refused() {
        let (s, r) = stores();
        let (swapped, repeated) = reordered(&s);
        for bad in [swapped, repeated] {
            let packed = pack(&bad);
            assert_eq!(unpacked(&packed), Ok(bad), "a canonical packing");
            assert_eq!(
                deserialize_taint(&r, &packed),
                Err(TaintCodecError::NotCanonical)
            );
            // What a Taint Map server checks a `BIND` record with.
            let mut out = vec![7u8];
            assert_eq!(
                unpack_serialized(&packed, &mut out),
                Err(TaintCodecError::NotCanonical)
            );
            assert_eq!(out, [7], "nothing appended");
        }
    }

    #[test]
    fn one_set_serializes_alike_whatever_order_a_vm_learned_its_tags() {
        let (sender, _) = stores();
        let wires: Vec<Vec<u8>> = [TagValue::Int(7), TagValue::str("b"), TagValue::str("a")]
            .into_iter()
            .map(|value| serialize_taint(sender.tree(), sender.mint_source_taint(value)))
            .collect();
        let mut seen = Vec::new();
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let receiver = TaintStore::new(LocalId::new([10, 0, 0, 9], 9));
            let taints = order.map(|i| deserialize_taint(&receiver, &wires[i]).unwrap());
            let set = receiver.union_all(taints);
            seen.push(serialize_taint(receiver.tree(), set));
            // Strings before ints (kind 1 < 3), "a" before "b".
            let mut values = Vec::new();
            receiver
                .tree()
                .for_each_tag_by_value(set, |_, value, _, _| values.push(value.render()));
            assert_eq!(values, ["a", "b", "7"]);
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{seen:?}");
        // And the bytes read back as the set anywhere.
        let (_, r) = stores();
        let back = deserialize_taint(&r, &seen[0]).unwrap();
        assert_eq!(serialize_taint(r.tree(), back), seen[0]);
    }

    #[test]
    fn serialization_is_canonical() {
        // Assigning a global id must not change the serialized bytes —
        // the Taint Map dedups registrations by byte identity.
        let (sender, receiver) = stores();
        let t = sender.mint_source_taint(TagValue::str("g"));
        let before = serialize_taint(sender.tree(), t);
        let tag = sender.tree().tag_ids(t)[0];
        sender.tree().set_tag_global_id(tag, GlobalId(7));
        let after = serialize_taint(sender.tree(), t);
        assert_eq!(before, after);

        // And a receiver re-serializing the decoded taint reproduces the
        // sender's bytes exactly.
        let rt = deserialize_taint(&receiver, &before).unwrap();
        let reserialized = serialize_taint(receiver.tree(), rt);
        assert_eq!(reserialized, before);
    }
}
