//! Taint serialization — the wire form a taint takes when it is shipped
//! to the Taint Map (paper §III-D-2).
//!
//! The paper observes that "a serialized taint with one tag can be over
//! 200 bytes" (Java serialization is verbose: class descriptors, field
//! tables, object headers) and that length grows linearly with the tag
//! count. This codec reproduces those size characteristics — a
//! self-describing header, per-tag class/field metadata and an object
//! header pad — so the bandwidth experiments (claim C1/C2 in DESIGN.md)
//! measure realistic byte counts.

use std::fmt;
use std::sync::OnceLock;

use crate::reader::{ByteReader, ReadError};
use crate::store::TaintStore;
use crate::tag::{GlobalId, LocalId, RawValue, KIND_BYTES, KIND_INT, KIND_STR};
use crate::tree::{Taint, TaintTree};

const MAGIC: [u8; 4] = [0xAC, 0xED, 0xD1, 0x5A];
const STREAM_CLASS: &str = "dista.taint.SerializedTaint";
const TAG_CLASS: &str = "dista.taint.TaintTag";
const FIELD_NAMES: [&str; 4] = ["id", "value", "localId", "globalId"];
/// Pad emulating the JVM object header + type metadata per serialized tag.
const OBJECT_HEADER_PAD: usize = 96;

/// Fixed per-tag overhead in bytes (excludes the tag value itself).
///
/// One serialized single-tag taint is `header + SERIALIZED_TAG_OVERHEAD +
/// value_len` bytes, which lands above 200 — matching the paper's
/// bandwidth motivation for the Taint Map.
pub const SERIALIZED_TAG_OVERHEAD: usize =
    2 + TAG_CLASS.len() + field_table_len() + 4 + 1 + 4 + 8 + 4 + OBJECT_HEADER_PAD;

const fn field_table_len() -> usize {
    // u8 length prefix + name, for each of the four quad fields.
    let mut total = 0;
    let mut i = 0;
    while i < FIELD_NAMES.len() {
        total += 1 + FIELD_NAMES[i].len();
        i += 1;
    }
    total
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

/// Serializes a taint (all of its tag quads) for transfer to the Taint
/// Map.
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
/// assert!(wire.len() > 200); // paper: one tag serializes to >200 bytes
///
/// let receiver = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
/// let rt = deserialize_taint(&receiver, &wire)?;
/// assert_eq!(receiver.tag_values(rt), vec!["vote".to_string()]);
/// # Ok::<(), dista_taint::TaintCodecError>(())
/// ```
pub fn serialize_taint(tree: &TaintTree, taint: Taint) -> Vec<u8> {
    let count = tree.tag_count(taint);
    let mut out = Vec::with_capacity(64 + count * (SERIALIZED_TAG_OVERHEAD + 16));
    write_header(&mut out, count);
    tree.for_each_tag(taint, |_, value, local_id, _| {
        write_tag(&mut out, value, local_id);
    });
    out
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
    // The rank (`ID`) and `GlobalID` fields are written as zero so the
    // serialized form is *canonical*: the same tag set always produces
    // byte-identical output no matter which VM serializes it or
    // whether a global id has been assigned yet. The Taint Map dedups
    // registrations by byte identity, so canonicality is what makes
    // "one Global ID per unique global taint" hold across VMs.
    out.extend_from_slice(&0u32.to_be_bytes());
    out.push(value.kind);
    out.extend_from_slice(&(value.bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(value.bytes);
    out.extend_from_slice(&local_id.to_bytes());
    out.extend_from_slice(&0u32.to_be_bytes());
    out.extend(std::iter::repeat_n(0xEE, OBJECT_HEADER_PAD));
}

/// The serialized form of one tag with an empty string value minted at
/// `0.0.0.0:0`: what [`pack_serialized`] strips from either end.
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

/// Packs a serialized taint for keeping in memory: what it shares at its
/// start and at its end with the serialized taint of one empty string
/// tag minted at `0.0.0.0:0` is dropped, and the two lengths are kept,
/// one byte each. A canonical single-tag taint of a string under 256
/// bytes keeps only the string, its length byte and its origin: `n + 11`
/// of its `n + 200` bytes.
/// Any byte string packs — one that is not a serialized taint just
/// strips less — and [`unpack_serialized`] gives it back exactly, so
/// equal strings pack equally and unequal ones unequally.
///
/// ```rust
/// use dista_taint::{pack_serialized, serialize_taint, unpack_serialized};
/// use dista_taint::{LocalId, TagValue, TaintStore};
///
/// let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
/// let wire = serialize_taint(store.tree(), store.mint_source_taint(TagValue::str("vote")));
/// let mut packed = Vec::new();
/// pack_serialized(&wire, &mut packed);
/// assert_eq!((wire.len(), packed.len()), (204, 15));
/// let mut back = Vec::new();
/// unpack_serialized(&packed, &mut back);
/// assert_eq!(back, wire);
/// ```
pub fn pack_serialized(serialized: &[u8], out: &mut Vec<u8>) {
    let template = template();
    let prefix = equal_run(serialized.iter().zip(template));
    let rest = &serialized[prefix..];
    let suffix = equal_run(rest.iter().rev().zip(template.iter().rev()));
    // Neither is longer than the template.
    out.extend_from_slice(&[prefix as u8, suffix as u8]);
    out.extend_from_slice(&rest[..rest.len() - suffix]);
}

/// How many leading pairs are equal.
fn equal_run<'a>(pairs: impl Iterator<Item = (&'a u8, &'a u8)>) -> usize {
    pairs.take_while(|(a, b)| a == b).count()
}

/// Appends to `out` the serialized taint [`pack_serialized`] packed
/// into `packed`.
///
/// # Panics
///
/// Panics if `packed` was not made by [`pack_serialized`].
pub fn unpack_serialized(packed: &[u8], out: &mut Vec<u8>) {
    let template = template();
    let [prefix, suffix] = [packed[0], packed[1]].map(usize::from);
    let middle = &packed[2..];
    out.reserve(prefix + middle.len() + suffix);
    out.extend_from_slice(&template[..prefix]);
    out.extend_from_slice(middle);
    out.extend_from_slice(&template[template.len() - suffix..]);
}

/// Decodes a serialized taint into the receiving VM's store.
///
/// Tags are re-interned locally, preserving their foreign `LocalId` so
/// that identically-named local tags remain distinct, and the resulting
/// taint is the union of all decoded tags.
///
/// # Errors
///
/// Returns a [`TaintCodecError`] if the buffer is truncated, corrupted or
/// names an unknown class or value kind.
pub fn deserialize_taint(store: &TaintStore, bytes: &[u8]) -> Result<Taint, TaintCodecError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(4)? != MAGIC {
        return Err(TaintCodecError::BadMagic);
    }
    if r.str16()? != STREAM_CLASS {
        return Err(TaintCodecError::BadClass);
    }
    let count = r.u16()?;
    let mut taint = Taint::EMPTY;
    for _ in 0..count {
        if r.str16()? != TAG_CLASS {
            return Err(TaintCodecError::BadClass);
        }
        for _ in FIELD_NAMES {
            let len = usize::from(r.u8()?);
            r.bytes(len)?;
        }
        let _origin_rank = r.u32()?; // rank in the origin tree; informational
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
        let gid = GlobalId(r.u32()?);
        r.bytes(OBJECT_HEADER_PAD)?;
        // Interned straight from the bytes read: no owned value is made.
        let tag = store.tree().mint_raw(RawValue::new(kind, raw), local_id);
        if gid.is_tainted() {
            store.tree().set_tag_global_id(tag, gid);
        }
        taint = store.union(taint, store.tree().taint_of_tag(tag));
    }
    Ok(taint)
}

fn write_str16(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::TagValue;

    fn stores() -> (TaintStore, TaintStore) {
        (
            TaintStore::new(LocalId::new([10, 0, 0, 1], 1)),
            TaintStore::new(LocalId::new([10, 0, 0, 2], 2)),
        )
    }

    #[test]
    fn single_tag_exceeds_200_bytes() {
        let (s, _) = stores();
        let t = s.mint_source_taint(TagValue::str("a_tag"));
        let wire = serialize_taint(s.tree(), t);
        assert!(
            wire.len() > 200,
            "paper: single-tag serialized taint > 200 bytes, got {}",
            wire.len()
        );
    }

    #[test]
    fn length_grows_linearly_with_tags() {
        let (s, _) = stores();
        let mut taint = Taint::EMPTY;
        let mut sizes = Vec::new();
        for i in 0..4 {
            taint = s.union(taint, s.mint_source_taint(TagValue::Int(i)));
            sizes.push(serialize_taint(s.tree(), taint).len());
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
        for cut in [0, 3, 10, wire.len() - 1] {
            assert_eq!(
                deserialize_taint(&r, &wire[..cut]),
                Err(TaintCodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_errors() {
        let (s, r) = stores();
        let t = s.mint_source_taint(TagValue::str("x"));
        let mut wire = serialize_taint(s.tree(), t);
        wire[0] = 0;
        assert_eq!(deserialize_taint(&r, &wire), Err(TaintCodecError::BadMagic));
    }

    #[test]
    fn empty_taint_roundtrips() {
        let (s, r) = stores();
        let wire = serialize_taint(s.tree(), Taint::EMPTY);
        let rt = deserialize_taint(&r, &wire).unwrap();
        assert!(rt.is_empty());
    }

    /// One serialized taint of 1–3 tags drawn by `rng`: strings, bytes
    /// and ints, now and then a value longer than 255 bytes.
    fn drawn_taint(rng: &mut proptest::TestRng, store: &TaintStore) -> Vec<u8> {
        let mut taint = Taint::EMPTY;
        for _ in 0..1 + rng.below(3) {
            let len = match rng.below(8) {
                0 => 256 + rng.below(300) as usize,
                _ => rng.below(40) as usize,
            };
            let text: String = (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            let value = match rng.below(3) {
                0 => TagValue::str(text),
                1 => TagValue::bytes(text),
                _ => TagValue::Int(rng.next_u64() as i64),
            };
            taint = store.union(taint, store.mint_source_taint(value));
        }
        serialize_taint(store.tree(), taint)
    }

    #[test]
    fn a_packed_string_unpacks_to_the_same_bytes() {
        let mut rng = proptest::TestRng::new(0xD157A);
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 256));
        let mut corpus = vec![Vec::new(), template().to_vec()];
        for _ in 0..2_000 {
            let mut bytes = match rng.below(3) {
                0 => (0..rng.below(600)).map(|_| rng.next_u64() as u8).collect(),
                _ => drawn_taint(&mut rng, &store),
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
            let (mut packed, mut back) = (Vec::new(), Vec::new());
            pack_serialized(bytes, &mut packed);
            assert!(packed.len() <= bytes.len() + 2, "{bytes:?}");
            unpack_serialized(&packed, &mut back);
            assert_eq!(&back, bytes);
        }
        // A canonical single-tag string taint keeps n + 11 bytes.
        let (s, _) = stores();
        let wire = serialize_taint(s.tree(), s.mint_source_taint(TagValue::str("fresh:0:1:1")));
        let mut packed = Vec::new();
        pack_serialized(&wire, &mut packed);
        assert_eq!((wire.len(), packed.len()), (211, 22));
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
