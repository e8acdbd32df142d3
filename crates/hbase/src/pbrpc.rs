//! Protobuf-style wire encoding: tag/length/value fields with varints,
//! carried over length-framed NIO channels.
//!
//! Only the two wire types HBase's Get/Put RPCs need are implemented:
//! varint (`0`) and length-delimited (`2`). Field *values* keep their
//! per-byte taints; tags, lengths and varints are protocol scaffolding.

use dista_jre::{length_prefixed, read_frame, JreError, SocketChannel, Vm};
use dista_taint::{ByteReader, Taint, TaintedBytes};

const WIRE_VARINT: u64 = 0;
const WIRE_LEN: u64 = 2;

/// A decoded field value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbValue {
    /// Wire type 0.
    Varint(u64),
    /// Wire type 2 (bytes/strings/sub-messages), taints preserved.
    Bytes(TaintedBytes),
}

/// An in-order list of `(field_number, value)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PbMessage {
    fields: Vec<(u64, PbValue)>,
}

impl PbMessage {
    /// An empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a varint field.
    pub fn push_varint(&mut self, field: u64, value: u64) -> &mut Self {
        self.fields.push((field, PbValue::Varint(value)));
        self
    }

    /// Appends a length-delimited field.
    pub fn push_bytes(&mut self, field: u64, value: TaintedBytes) -> &mut Self {
        self.fields.push((field, PbValue::Bytes(value)));
        self
    }

    /// Appends a string field with a uniform taint.
    pub fn push_str(&mut self, field: u64, value: &str, taint: Taint) -> &mut Self {
        self.push_bytes(
            field,
            TaintedBytes::uniform(value.as_bytes().to_vec(), taint),
        )
    }

    /// First varint with the given field number.
    pub fn varint(&self, field: u64) -> Option<u64> {
        self.fields.iter().find_map(|(f, v)| match v {
            PbValue::Varint(n) if *f == field => Some(*n),
            _ => None,
        })
    }

    /// First bytes field with the given field number.
    pub fn bytes(&self, field: u64) -> Option<&TaintedBytes> {
        self.fields.iter().find_map(|(f, v)| match v {
            PbValue::Bytes(b) if *f == field => Some(b),
            _ => None,
        })
    }

    /// All bytes fields with the given field number (repeated fields).
    pub fn bytes_repeated(&self, field: u64) -> Vec<&TaintedBytes> {
        self.fields
            .iter()
            .filter_map(|(f, v)| match v {
                PbValue::Bytes(b) if *f == field => Some(b),
                _ => None,
            })
            .collect()
    }

    /// Encodes to tainted bytes.
    pub fn encode(&self) -> TaintedBytes {
        let mut out = TaintedBytes::new();
        for (field, value) in &self.fields {
            match value {
                PbValue::Varint(n) => {
                    push_varint_plain(&mut out, field << 3 | WIRE_VARINT);
                    push_varint_plain(&mut out, *n);
                }
                PbValue::Bytes(bytes) => {
                    push_varint_plain(&mut out, field << 3 | WIRE_LEN);
                    push_varint_plain(&mut out, bytes.len() as u64);
                    out.extend_tainted(bytes);
                }
            }
        }
        out
    }

    /// Decodes from tainted bytes.
    ///
    /// # Errors
    ///
    /// [`JreError::Protocol`] on malformed wire data.
    pub fn decode(bytes: &TaintedBytes) -> Result<PbMessage, JreError> {
        let mut message = PbMessage::new();
        let mut r = ByteReader::new(bytes.data());
        while !r.at_end() {
            let key = r.varint()?;
            let field = key >> 3;
            match key & 0x7 {
                WIRE_VARINT => {
                    message.push_varint(field, r.varint()?);
                }
                WIRE_LEN => {
                    // A length past `usize` is past the buffer too.
                    let len = usize::try_from(r.varint()?).unwrap_or(usize::MAX);
                    message.push_bytes(field, bytes.take(&mut r, len)?);
                }
                _ => return Err(JreError::Protocol("unsupported pb wire type")),
            }
        }
        Ok(message)
    }
}

fn push_varint_plain(out: &mut TaintedBytes, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte, Taint::EMPTY);
            return;
        }
        out.push(byte | 0x80, Taint::EMPTY);
    }
}

/// Sends one pb message as a length-prefixed frame on an NIO channel.
///
/// # Errors
///
/// Transport or Taint Map errors.
pub fn write_message(channel: &SocketChannel, message: &PbMessage) -> Result<(), JreError> {
    channel.write_payload(&length_prefixed(channel.vm(), &message.encode()))
}

/// Reads one pb message frame; `None` on clean EOF.
///
/// # Errors
///
/// Transport, Taint Map or decode errors.
pub fn read_message(channel: &SocketChannel, _vm: &Vm) -> Result<Option<PbMessage>, JreError> {
    read_frame(channel)?
        .map(|body| PbMessage::decode(&body.into_tainted()))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_jre::{Mode, Vm};
    use dista_simnet::SimNet;
    use dista_taint::TagValue;

    fn vm() -> Vm {
        Vm::builder("t", &SimNet::new())
            .mode(Mode::Phosphor)
            .build()
            .unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let vm = vm();
        let t = vm.store().mint_source_taint(TagValue::str("tbl"));
        let mut msg = PbMessage::new();
        msg.push_varint(1, 300)
            .push_str(2, "users", t)
            .push_bytes(3, TaintedBytes::from_plain(b"row1".to_vec()))
            .push_bytes(3, TaintedBytes::from_plain(b"row2".to_vec()));
        let decoded = PbMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded.varint(1), Some(300));
        assert_eq!(decoded.bytes(2).unwrap().data(), b"users");
        assert_eq!(
            vm.store()
                .tag_values(decoded.bytes(2).unwrap().taint_union(vm.store())),
            vec!["tbl"]
        );
        let rows = decoded.bytes_repeated(3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].data(), b"row2");
    }

    #[test]
    fn varint_edge_values() {
        for n in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut msg = PbMessage::new();
            msg.push_varint(7, n);
            assert_eq!(PbMessage::decode(&msg.encode()).unwrap().varint(7), Some(n));
        }
    }

    #[test]
    fn malformed_input_errors() {
        // Truncated varint.
        let bad = TaintedBytes::from_plain(vec![0x80]);
        assert!(PbMessage::decode(&bad).is_err());
        // Length field overrunning the buffer.
        let mut msg = TaintedBytes::from_plain(vec![0x12, 0x05, b'a']);
        assert!(PbMessage::decode(&msg).is_err());
        msg.truncate(0);
        assert!(PbMessage::decode(&msg).unwrap().fields.is_empty());
    }

    /// Field 1, wire type 2, length 2^63-ish: `pos + len` used to
    /// overflow in debug and index `11..10` in release.
    #[test]
    fn pb_length_past_usize_is_a_protocol_error() {
        let mut wire = vec![0x0A];
        wire.extend_from_slice(&[0xFF; 9]);
        wire.push(0x01);
        assert!(matches!(
            PbMessage::decode(&TaintedBytes::from_plain(wire)),
            Err(JreError::Protocol(_))
        ));
    }

    #[test]
    fn missing_fields_are_none() {
        let msg = PbMessage::new();
        assert!(msg.varint(1).is_none());
        assert!(msg.bytes(1).is_none());
        assert!(msg.bytes_repeated(1).is_empty());
    }
}
