//! `java.io.DataInputStream` / `DataOutputStream` — typed primitives over
//! any byte stream. Each primitive's bytes all carry the value's taint;
//! reading re-unions the byte taints back onto the decoded value.
//!
//! These are the stream classes behind most of the 22 "JRE Socket" micro
//! benchmark cases (Table II): `writeInt`, `writeLong`, `writeUTF`,
//! `writeChars`, `writeDouble`, … each exercising a different encoding on
//! the same instrumented boundary.

use dista_taint::{ByteReader, Payload, Taint, Tainted, TaintedBytes};

use crate::error::JreError;
use crate::stream::{InputStream, OutputStream};
use crate::vm::Vm;

/// Typed writer over any [`OutputStream`].
#[derive(Debug, Clone)]
pub struct DataOutputStream<S> {
    inner: S,
}

impl<S: OutputStream> DataOutputStream<S> {
    /// Wraps a byte sink.
    pub fn new(inner: S) -> Self {
        DataOutputStream { inner }
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The VM that owns the stream.
    pub fn vm(&self) -> &Vm {
        self.inner.vm()
    }

    fn write_raw(&self, bytes: &[u8], taint: Taint) -> Result<(), JreError> {
        let payload = if self.vm().mode().tracks_taints() {
            Payload::Tainted(TaintedBytes::uniform(bytes.to_vec(), taint))
        } else {
            Payload::Plain(bytes.to_vec())
        };
        self.inner.write(&payload)
    }

    /// `writeByte`.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_u8(&self, v: Tainted<u8>) -> Result<(), JreError> {
        self.write_raw(&[*v.value()], v.taint())
    }

    /// `writeBoolean`.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_bool(&self, v: Tainted<bool>) -> Result<(), JreError> {
        self.write_raw(&[u8::from(*v.value())], v.taint())
    }

    /// `writeShort`.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_i16(&self, v: Tainted<i16>) -> Result<(), JreError> {
        self.write_raw(&v.value().to_be_bytes(), v.taint())
    }

    /// `writeInt`.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_i32(&self, v: Tainted<i32>) -> Result<(), JreError> {
        self.write_raw(&v.value().to_be_bytes(), v.taint())
    }

    /// `writeLong`.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_i64(&self, v: Tainted<i64>) -> Result<(), JreError> {
        self.write_raw(&v.value().to_be_bytes(), v.taint())
    }

    /// `writeFloat`.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_f32(&self, v: Tainted<f32>) -> Result<(), JreError> {
        self.write_raw(&v.value().to_be_bytes(), v.taint())
    }

    /// `writeDouble`.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_f64(&self, v: Tainted<f64>) -> Result<(), JreError> {
        self.write_raw(&v.value().to_be_bytes(), v.taint())
    }

    /// `writeUTF`: `u16` length prefix + UTF-8 bytes, all tagged with the
    /// string's taint.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds 65535 bytes (matching Java).
    pub fn write_utf(&self, v: &Tainted<String>) -> Result<(), JreError> {
        let bytes = v.value().as_bytes();
        assert!(bytes.len() <= u16::MAX as usize, "writeUTF length overflow");
        let mut raw = Vec::with_capacity(2 + bytes.len());
        raw.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
        raw.extend_from_slice(bytes);
        self.write_raw(&raw, v.taint())
    }

    /// `writeChars`: 2 bytes per char (UTF-16 BE), tagged with the
    /// string's taint.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_chars(&self, v: &Tainted<String>) -> Result<(), JreError> {
        let mut raw = Vec::with_capacity(v.value().len() * 2);
        for unit in v.value().encode_utf16() {
            raw.extend_from_slice(&unit.to_be_bytes());
        }
        self.write_raw(&raw, v.taint())
    }

    /// Writes an int array: `u32` count + values (each value's 4 bytes
    /// carry that element's own taint — byte-level precision).
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn write_i32_array(&self, values: &[Tainted<i32>]) -> Result<(), JreError> {
        if self.vm().mode().tracks_taints() {
            let mut buf = TaintedBytes::with_capacity(4 + values.len() * 4);
            buf.extend_plain(&(values.len() as u32).to_be_bytes());
            for v in values {
                buf.extend_uniform(&v.value().to_be_bytes(), v.taint());
            }
            self.inner.write(&Payload::Tainted(buf))
        } else {
            let mut buf = Vec::with_capacity(4 + values.len() * 4);
            buf.extend_from_slice(&(values.len() as u32).to_be_bytes());
            for v in values {
                buf.extend_from_slice(&v.value().to_be_bytes());
            }
            self.inner.write(&Payload::Plain(buf))
        }
    }

    /// Flushes the inner stream.
    ///
    /// # Errors
    ///
    /// Propagates sink errors.
    pub fn flush(&self) -> Result<(), JreError> {
        self.inner.flush()
    }
}

impl<S: OutputStream> OutputStream for DataOutputStream<S> {
    fn write(&self, payload: &Payload) -> Result<(), JreError> {
        self.inner.write(payload)
    }

    fn flush(&self) -> Result<(), JreError> {
        self.inner.flush()
    }

    fn vm(&self) -> &Vm {
        self.inner.vm()
    }
}

/// Typed reader over any [`InputStream`].
#[derive(Debug, Clone)]
pub struct DataInputStream<S> {
    inner: S,
}

impl<S: InputStream> DataInputStream<S> {
    /// Wraps a byte source.
    pub fn new(inner: S) -> Self {
        DataInputStream { inner }
    }

    /// Unwraps the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The VM that owns the stream.
    pub fn vm(&self) -> &Vm {
        self.inner.vm()
    }

    fn read_raw(&self, n: usize) -> Result<(Vec<u8>, Taint), JreError> {
        let payload = self.inner.read_exact(n)?;
        let taint = payload.taint_union(self.vm().store());
        Ok((payload.into_plain(), taint))
    }

    /// `readByte`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_u8(&self) -> Result<Tainted<u8>, JreError> {
        let (b, t) = self.read_raw(1)?;
        Ok(Tainted::new(b[0], t))
    }

    /// `readBoolean`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_bool(&self) -> Result<Tainted<bool>, JreError> {
        let (b, t) = self.read_raw(1)?;
        Ok(Tainted::new(b[0] != 0, t))
    }

    /// `readShort`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_i16(&self) -> Result<Tainted<i16>, JreError> {
        let (b, t) = self.read_raw(2)?;
        Ok(Tainted::new(ByteReader::new(&b).u16()? as i16, t))
    }

    /// `readInt`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_i32(&self) -> Result<Tainted<i32>, JreError> {
        let (b, t) = self.read_raw(4)?;
        Ok(Tainted::new(ByteReader::new(&b).u32()? as i32, t))
    }

    /// `readLong`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_i64(&self) -> Result<Tainted<i64>, JreError> {
        let (b, t) = self.read_raw(8)?;
        Ok(Tainted::new(ByteReader::new(&b).u64()? as i64, t))
    }

    /// `readFloat`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_f32(&self) -> Result<Tainted<f32>, JreError> {
        let (b, t) = self.read_raw(4)?;
        Ok(Tainted::new(f32::from_bits(ByteReader::new(&b).u32()?), t))
    }

    /// `readDouble`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_f64(&self) -> Result<Tainted<f64>, JreError> {
        let (b, t) = self.read_raw(8)?;
        Ok(Tainted::new(f64::from_bits(ByteReader::new(&b).u64()?), t))
    }

    /// `readUTF`.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream; [`JreError::Protocol`] on
    /// invalid UTF-8.
    pub fn read_utf(&self) -> Result<Tainted<String>, JreError> {
        let (len_bytes, len_taint) = self.read_raw(2)?;
        let len = usize::from(ByteReader::new(&len_bytes).u16()?);
        let (bytes, taint) = self.read_raw(len)?;
        let s = String::from_utf8(bytes).map_err(|_| JreError::Protocol("invalid UTF-8"))?;
        Ok(Tainted::new(s, self.vm().store().union(len_taint, taint)))
    }

    /// Counterpart of [`DataOutputStream::write_chars`]; reads `n` UTF-16
    /// code units.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream; [`JreError::Protocol`] on
    /// invalid UTF-16.
    pub fn read_chars(&self, n: usize) -> Result<Tainted<String>, JreError> {
        let (bytes, taint) = self.read_raw(n * 2)?;
        let mut r = ByteReader::new(&bytes);
        let units = (0..n).map(|_| r.u16()).collect::<Result<Vec<u16>, _>>()?;
        let s = String::from_utf16(&units).map_err(|_| JreError::Protocol("invalid UTF-16"))?;
        Ok(Tainted::new(s, taint))
    }

    /// Counterpart of [`DataOutputStream::write_i32_array`]. Each element
    /// keeps its own taint.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] on short stream.
    pub fn read_i32_array(&self) -> Result<Vec<Tainted<i32>>, JreError> {
        let (count_bytes, _) = self.read_raw(4)?;
        let count = ByteReader::new(&count_bytes).u32()? as usize;
        // The elements have arrived before anything is sized by `count`.
        let payload = self.inner.read_exact(count * 4)?;
        let store = self.vm().store();
        let mut r = ByteReader::new(payload.data());
        let mut out = Vec::with_capacity(r.count(count, 4));
        for i in 0..count {
            let value = r.u32()? as i32;
            let taint = payload.as_tainted().map_or(Taint::EMPTY, |t| {
                t.slice(4 * i, 4 * i + 4).taint_union(store)
            });
            out.push(Tainted::new(value, taint));
        }
        Ok(out)
    }
}

impl<S: InputStream> InputStream for DataInputStream<S> {
    fn read(&self, max: usize) -> Result<Payload, JreError> {
        self.inner.read(max)
    }

    fn vm(&self) -> &Vm {
        self.inner.vm()
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
        DataOutputStream<PipedStream>,
        DataInputStream<PipedStream>,
    ) {
        let vm = Vm::builder("t", &SimNet::new())
            .mode(Mode::Phosphor)
            .build()
            .unwrap();
        let pipe = PipedStream::new(&vm);
        (
            vm.clone(),
            DataOutputStream::new(pipe.clone()),
            DataInputStream::new(pipe),
        )
    }

    #[test]
    fn primitives_roundtrip_with_taints() {
        let (vm, w, r) = rig();
        let t = vm.store().mint_source_taint(TagValue::str("v"));
        w.write_i32(Tainted::new(-123456, t)).unwrap();
        w.write_i64(Tainted::new(1i64 << 40, t)).unwrap();
        w.write_f64(Tainted::new(3.25f64, t)).unwrap();
        w.write_bool(Tainted::new(true, t)).unwrap();
        w.write_i16(Tainted::new(-2i16, t)).unwrap();
        w.write_f32(Tainted::new(1.5f32, t)).unwrap();
        assert_eq!(*r.read_i32().unwrap().value(), -123456);
        assert_eq!(*r.read_i64().unwrap().value(), 1i64 << 40);
        assert_eq!(*r.read_f64().unwrap().value(), 3.25);
        assert!(*r.read_bool().unwrap().value());
        assert_eq!(*r.read_i16().unwrap().value(), -2);
        let f = r.read_f32().unwrap();
        assert_eq!(*f.value(), 1.5);
        assert_eq!(vm.store().tag_values(f.taint()), vec!["v"]);
    }

    #[test]
    fn utf_roundtrip() {
        let (vm, w, r) = rig();
        let t = vm.store().mint_source_taint(TagValue::str("s"));
        w.write_utf(&Tainted::new("héllo → wörld".to_string(), t))
            .unwrap();
        let got = r.read_utf().unwrap();
        assert_eq!(got.value(), "héllo → wörld");
        assert_eq!(vm.store().tag_values(got.taint()), vec!["s"]);
    }

    #[test]
    fn chars_roundtrip() {
        let (vm, w, r) = rig();
        let t = vm.store().mint_source_taint(TagValue::str("c"));
        let text = "chars⊕";
        w.write_chars(&Tainted::new(text.to_string(), t)).unwrap();
        let got = r.read_chars(text.encode_utf16().count()).unwrap();
        assert_eq!(got.value(), text);
        assert_eq!(vm.store().tag_values(got.taint()), vec!["c"]);
    }

    #[test]
    fn int_array_keeps_per_element_taints() {
        let (vm, w, r) = rig();
        let ta = vm.store().mint_source_taint(TagValue::str("a"));
        let tb = vm.store().mint_source_taint(TagValue::str("b"));
        w.write_i32_array(&[
            Tainted::new(1, ta),
            Tainted::untainted(2),
            Tainted::new(3, tb),
        ])
        .unwrap();
        let got = r.read_i32_array().unwrap();
        assert_eq!(
            got.iter().map(|v| *v.value()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(vm.store().tag_values(got[0].taint()), vec!["a"]);
        assert!(got[1].taint().is_empty());
        assert_eq!(vm.store().tag_values(got[2].taint()), vec!["b"]);
    }

    #[test]
    fn untracked_mode_stays_plain() {
        let vm = Vm::builder("t", &SimNet::new()).build().unwrap();
        let pipe = PipedStream::new(&vm);
        let w = DataOutputStream::new(pipe.clone());
        let r = DataInputStream::new(pipe);
        w.write_i32(Tainted::untainted(7)).unwrap();
        let got = r.read_i32().unwrap();
        assert_eq!(*got.value(), 7);
        assert!(got.taint().is_empty());
    }

    #[test]
    fn eof_is_reported() {
        let (_, w, r) = rig();
        w.write_u8(Tainted::untainted(1)).unwrap();
        w.into_inner().close();
        r.read_u8().unwrap();
        assert!(matches!(r.read_i32(), Err(JreError::Eof)));
    }
}
