//! `java.io.ObjectOutputStream` / `ObjectInputStream` — object
//! serialization with taint-preserving encoding.
//!
//! Java objects are modelled by [`ObjValue`]: strings, integers, raw
//! bytes, lists and named records. Each leaf carries its own taint;
//! encoding spreads a leaf's taint over its encoded bytes and decoding
//! re-unions them, so an object's field taints survive the trip through
//! the instrumented boundary byte-for-byte. The five mini distributed
//! systems use `ObjValue` records for their protocol messages (votes,
//! RPC envelopes, …).

use dista_taint::{ByteReader, Taint, TaintedBytes};

use crate::error::JreError;
use crate::frame::length_prefixed;
use crate::stream::{InputStream, OutputStream};
use crate::vm::Vm;

const TAG_STR: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_BYTES: u8 = 3;
const TAG_LIST: u8 = 4;
const TAG_RECORD: u8 = 5;

/// A serializable "Java object" with per-leaf taints.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjValue {
    /// A string with a single taint.
    Str(String, Taint),
    /// A 64-bit integer with a single taint.
    Int(i64, Taint),
    /// Raw bytes with per-byte taints.
    Bytes(TaintedBytes),
    /// An ordered list.
    List(Vec<ObjValue>),
    /// A named record (class name + named fields), e.g. a `Vote`.
    Record(String, Vec<(String, ObjValue)>),
}

impl ObjValue {
    /// Convenience: an untainted string.
    pub fn str_plain(s: impl Into<String>) -> Self {
        ObjValue::Str(s.into(), Taint::EMPTY)
    }

    /// Convenience: an untainted integer.
    pub fn int_plain(i: i64) -> Self {
        ObjValue::Int(i, Taint::EMPTY)
    }

    /// Looks up a field of a record by name.
    pub fn field(&self, name: &str) -> Option<&ObjValue> {
        match self {
            ObjValue::Record(_, fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The record's class name, if this is a record.
    pub fn class_name(&self) -> Option<&str> {
        match self {
            ObjValue::Record(name, _) => Some(name),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ObjValue::Str(s, _) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ObjValue::Int(i, _) => Some(*i),
            _ => None,
        }
    }

    /// Union of every taint in the object tree.
    pub fn taint_union(&self, vm: &Vm) -> Taint {
        match self {
            ObjValue::Str(_, t) | ObjValue::Int(_, t) => *t,
            ObjValue::Bytes(b) => b.taint_union(vm.store()),
            ObjValue::List(items) => vm
                .store()
                .union_all(items.iter().map(|i| i.taint_union(vm))),
            ObjValue::Record(_, fields) => vm
                .store()
                .union_all(fields.iter().map(|(_, v)| v.taint_union(vm))),
        }
    }

    /// Encodes into tainted bytes (structure bytes untainted, leaf bytes
    /// carrying their leaf's taint).
    pub fn encode(&self) -> TaintedBytes {
        let mut out = TaintedBytes::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut TaintedBytes) {
        match self {
            ObjValue::Str(s, t) => {
                out.push(TAG_STR, Taint::EMPTY);
                out.extend_plain(&(s.len() as u32).to_be_bytes());
                out.extend_uniform(s.as_bytes(), *t);
            }
            ObjValue::Int(i, t) => {
                out.push(TAG_INT, Taint::EMPTY);
                out.extend_uniform(&i.to_be_bytes(), *t);
            }
            ObjValue::Bytes(b) => {
                out.push(TAG_BYTES, Taint::EMPTY);
                out.extend_plain(&(b.len() as u32).to_be_bytes());
                out.extend_tainted(b);
            }
            ObjValue::List(items) => {
                out.push(TAG_LIST, Taint::EMPTY);
                out.extend_plain(&(items.len() as u32).to_be_bytes());
                for item in items {
                    item.encode_into(out);
                }
            }
            ObjValue::Record(class, fields) => {
                out.push(TAG_RECORD, Taint::EMPTY);
                out.extend_plain(&(class.len() as u16).to_be_bytes());
                out.extend_plain(class.as_bytes());
                out.extend_plain(&(fields.len() as u16).to_be_bytes());
                for (name, value) in fields {
                    out.extend_plain(&(name.len() as u16).to_be_bytes());
                    out.extend_plain(name.as_bytes());
                    value.encode_into(out);
                }
            }
        }
    }

    /// Decodes from tainted bytes.
    ///
    /// # Errors
    ///
    /// [`JreError::Protocol`] on malformed input.
    pub fn decode(bytes: &TaintedBytes, vm: &Vm) -> Result<ObjValue, JreError> {
        let mut r = ByteReader::new(bytes.data());
        let value = decode_value(&mut r, bytes, vm, 0)?;
        if !r.at_end() {
            return Err(JreError::Protocol("trailing bytes after object"));
        }
        Ok(value)
    }
}

/// Deepest nesting [`ObjValue::decode`] follows (the root is depth 0).
/// The decoder recurses once per level, so without a bound a frame of
/// nested one-element lists overflows the stack. The deepest message a
/// mini-system sends is MapReduce's reduce request and its cell reply —
/// a record holding a list of records, leaves at depth 3.
const MAX_DEPTH: usize = 32;

/// The shortest encoded value: a tag byte and a `u32` length or count.
const MIN_VALUE_LEN: usize = 5;

/// Decodes the value at `r`, a reader over `src`'s data bytes.
fn decode_value(
    r: &mut ByteReader<'_>,
    src: &TaintedBytes,
    vm: &Vm,
    depth: usize,
) -> Result<ObjValue, JreError> {
    if depth > MAX_DEPTH {
        return Err(JreError::Protocol("object nested too deeply"));
    }
    match r.u8()? {
        TAG_STR => {
            let len = r.u32()? as usize;
            let body = src.take(r, len)?;
            let taint = body.taint_union(vm.store());
            let s = String::from_utf8(body.into_plain())
                .map_err(|_| JreError::Protocol("invalid UTF-8 in object"))?;
            Ok(ObjValue::Str(s, taint))
        }
        TAG_INT => {
            let body = src.take(r, 8)?;
            let value = ByteReader::new(body.data()).u64()? as i64;
            Ok(ObjValue::Int(value, body.taint_union(vm.store())))
        }
        TAG_BYTES => {
            let len = r.u32()? as usize;
            Ok(ObjValue::Bytes(src.take(r, len)?))
        }
        TAG_LIST => {
            let count = r.u32()? as usize;
            let mut items = Vec::with_capacity(r.count(count, MIN_VALUE_LEN));
            for _ in 0..count {
                items.push(decode_value(r, src, vm, depth + 1)?);
            }
            Ok(ObjValue::List(items))
        }
        TAG_RECORD => {
            let class = r.str16()?.to_string();
            let field_count = usize::from(r.u16()?);
            // A field is at least its `u16` name length and a value.
            let mut fields = Vec::with_capacity(r.count(field_count, 2 + MIN_VALUE_LEN));
            for _ in 0..field_count {
                let name = r.str16()?.to_string();
                fields.push((name, decode_value(r, src, vm, depth + 1)?));
            }
            Ok(ObjValue::Record(class, fields))
        }
        _ => Err(JreError::Protocol("unknown object tag")),
    }
}

/// `ObjectOutputStream.writeObject` over any byte sink. Objects are
/// framed with a `u32` length so readers know where each ends.
#[derive(Debug, Clone)]
pub struct ObjectOutputStream<S> {
    inner: S,
}

impl<S: OutputStream> ObjectOutputStream<S> {
    /// Wraps a byte sink.
    pub fn new(inner: S) -> Self {
        ObjectOutputStream { inner }
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Serializes and writes one object.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_object(&self, value: &ObjValue) -> Result<(), JreError> {
        let framed = length_prefixed(self.inner.vm(), &value.encode());
        self.inner.write(&framed)?;
        self.inner.flush()
    }
}

/// `ObjectInputStream.readObject` over any byte source.
#[derive(Debug, Clone)]
pub struct ObjectInputStream<S> {
    inner: S,
}

impl<S: InputStream> ObjectInputStream<S> {
    /// Wraps a byte source.
    pub fn new(inner: S) -> Self {
        ObjectInputStream { inner }
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Reads and deserializes one object.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] at end of stream, [`JreError::Protocol`] on
    /// malformed data.
    pub fn read_object(&self) -> Result<ObjValue, JreError> {
        let header = self.inner.read_exact(4)?;
        let len = ByteReader::new(header.data()).u32()? as usize;
        let body = self.inner.read_exact(len)?;
        ObjValue::decode(&body.into_tainted(), self.inner.vm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::PipedStream;
    use crate::vm::{Mode, Vm};
    use dista_simnet::SimNet;
    use dista_taint::TagValue;

    fn rig() -> (
        Vm,
        ObjectOutputStream<PipedStream>,
        ObjectInputStream<PipedStream>,
    ) {
        let vm = Vm::builder("t", &SimNet::new())
            .mode(Mode::Phosphor)
            .build()
            .unwrap();
        let pipe = PipedStream::new(&vm);
        (
            vm.clone(),
            ObjectOutputStream::new(pipe.clone()),
            ObjectInputStream::new(pipe),
        )
    }

    fn vote(vm: &Vm) -> ObjValue {
        let t = vm.store().mint_source_taint(TagValue::str("vote"));
        ObjValue::Record(
            "Vote".into(),
            vec![
                ("leader".into(), ObjValue::Int(2, t)),
                ("zxid".into(), ObjValue::Int(0x1000, Taint::EMPTY)),
                (
                    "state".into(),
                    ObjValue::Str("LOOKING".into(), Taint::EMPTY),
                ),
            ],
        )
    }

    #[test]
    fn record_roundtrip_preserves_field_taints() {
        let (vm, w, r) = rig();
        w.write_object(&vote(&vm)).unwrap();
        let got = r.read_object().unwrap();
        assert_eq!(got.class_name(), Some("Vote"));
        assert_eq!(got.field("leader").unwrap().as_int(), Some(2));
        let leader_taint = match got.field("leader").unwrap() {
            ObjValue::Int(_, t) => *t,
            _ => panic!("wrong type"),
        };
        assert_eq!(vm.store().tag_values(leader_taint), vec!["vote"]);
        // Untainted fields stay untainted (precision).
        let zxid_taint = match got.field("zxid").unwrap() {
            ObjValue::Int(_, t) => *t,
            _ => panic!("wrong type"),
        };
        assert!(zxid_taint.is_empty());
    }

    #[test]
    fn nested_lists_roundtrip() {
        let (vm, w, r) = rig();
        let t = vm.store().mint_source_taint(TagValue::str("x"));
        let obj = ObjValue::List(vec![
            ObjValue::Str("a".into(), t),
            ObjValue::List(vec![ObjValue::Int(1, Taint::EMPTY)]),
            ObjValue::Bytes(TaintedBytes::uniform(b"zz", t)),
        ]);
        w.write_object(&obj).unwrap();
        let got = r.read_object().unwrap();
        assert_eq!(got, obj);
    }

    #[test]
    fn multiple_objects_in_sequence() {
        let (vm, w, r) = rig();
        w.write_object(&ObjValue::int_plain(1)).unwrap();
        w.write_object(&ObjValue::str_plain("two")).unwrap();
        w.write_object(&vote(&vm)).unwrap();
        assert_eq!(r.read_object().unwrap().as_int(), Some(1));
        assert_eq!(r.read_object().unwrap().as_str(), Some("two"));
        assert_eq!(r.read_object().unwrap().class_name(), Some("Vote"));
    }

    #[test]
    fn taint_union_covers_tree() {
        let (vm, _, _) = rig();
        let obj = vote(&vm);
        let u = obj.taint_union(&vm);
        assert_eq!(vm.store().tag_values(u), vec!["vote"]);
    }

    #[test]
    fn eof_and_malformed() {
        let (vm, w, r) = rig();
        w.write_object(&ObjValue::int_plain(5)).unwrap();
        w.into_inner().close();
        r.read_object().unwrap();
        assert!(matches!(r.read_object(), Err(JreError::Eof)));

        let bad = TaintedBytes::from_plain(vec![99, 0, 0, 0]);
        assert!(matches!(
            ObjValue::decode(&bad, &vm),
            Err(JreError::Protocol(_))
        ));
    }

    /// A 1 MB frame of nested one-element lists used to recurse until
    /// the stack overflowed and the process aborted.
    #[test]
    fn deeply_nested_object_is_a_protocol_error() {
        let (vm, _, _) = rig();
        let nested = |levels: usize| {
            let mut wire = [TAG_LIST, 0, 0, 0, 1].repeat(levels);
            wire.extend_from_slice(ObjValue::int_plain(7).encode().data());
            ObjValue::decode(&TaintedBytes::from_plain(wire), &vm)
        };
        assert!(matches!(nested(200_000), Err(JreError::Protocol(_))));
        // The bound itself: MAX_DEPTH levels decode, one more does not.
        assert!(nested(MAX_DEPTH).is_ok());
        assert!(matches!(nested(MAX_DEPTH + 1), Err(JreError::Protocol(_))));

        // The deepest message a mini-system sends (MapReduce's reduce
        // request: a record holding a list of records) sits at depth 3.
        let mapper = ObjValue::Record("Mapper".into(), vec![("id".into(), vote(&vm))]);
        let request = ObjValue::Record(
            "Reduce".into(),
            vec![("mappers".into(), ObjValue::List(vec![mapper]))],
        );
        assert_eq!(ObjValue::decode(&request.encode(), &vm).unwrap(), request);
    }

    /// A count past what the bytes behind it could hold reserves for
    /// those bytes only, and the decode ends as truncated.
    #[test]
    fn lying_counts_are_protocol_errors() {
        let (vm, _, _) = rig();
        for wire in [
            vec![TAG_LIST, 0xFF, 0xFF, 0xFF, 0xFF],
            vec![TAG_RECORD, 0, 1, b'R', 0xFF, 0xFF],
            vec![TAG_BYTES, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3],
        ] {
            assert!(matches!(
                ObjValue::decode(&TaintedBytes::from_plain(wire), &vm),
                Err(JreError::Protocol(_))
            ));
        }
    }

    #[test]
    fn field_access_helpers() {
        let (vm, _, _) = rig();
        let obj = vote(&vm);
        assert!(obj.field("missing").is_none());
        assert!(ObjValue::int_plain(1).field("x").is_none());
        assert_eq!(obj.field("state").unwrap().as_str(), Some("LOOKING"));
        assert!(ObjValue::str_plain("s").as_int().is_none());
    }
}
