//! Taint tags: the `<ID, Tag, LocalID, GlobalID>` quad of DisTA §III-D-1.

use std::fmt;
use std::sync::Arc;

/// Identifier of a tag inside one VM's [`crate::TaintTree`].
///
/// This is the `ID` component of the paper's quad: "the unique rank of the
/// tag in the tree". Tag ids are dense, starting at 0, and are only
/// meaningful relative to the tree that minted them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub(crate) u32);

impl TagId {
    /// Raw index of this tag in its tree's tag table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identity of the JVM that minted a tag: node IP + process id.
///
/// DisTA adds this field to solve *tag conflict*: two nodes running the
/// same code can mint tags with the same value (e.g. both name a vote
/// `"a_tag"`); the `LocalID` keeps them distinct once they meet on one
/// node (paper §III-D-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId {
    ip: [u8; 4],
    pid: u32,
}

impl LocalId {
    /// Creates a `LocalId` from an IPv4 address and a process id.
    pub fn new(ip: [u8; 4], pid: u32) -> Self {
        Self { ip, pid }
    }

    /// The node IP component.
    pub fn ip(&self) -> [u8; 4] {
        self.ip
    }

    /// The process-id component.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Encodes the id as 8 bytes (4 IP + 4 pid, big-endian).
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.ip);
        out[4..].copy_from_slice(&self.pid.to_be_bytes());
        out
    }

    /// Decodes an id previously produced by [`LocalId::to_bytes`].
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        let mut ip = [0u8; 4];
        ip.copy_from_slice(&bytes[..4]);
        let pid = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        Self { ip, pid }
    }
}

impl Default for LocalId {
    fn default() -> Self {
        Self::new([127, 0, 0, 1], 0)
    }
}

impl fmt::Display for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{}.{}.{}:{}",
            self.ip[0], self.ip[1], self.ip[2], self.ip[3], self.pid
        )
    }
}

/// Global identifier assigned by the Taint Map the first time a taint
/// leaves its node. `GlobalId::UNTAINTED` (0) marks untainted bytes on the
/// wire; real ids are positive (paper §III-D-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// The reserved id for untainted data.
    pub const UNTAINTED: GlobalId = GlobalId(0);

    /// Whether this id denotes a real (tainted) global taint.
    pub fn is_tainted(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tainted() {
            write!(f, "G{}", self.0)
        } else {
            f.write_str("G-")
        }
    }
}

/// The user-visible value of a tag, set at the taint source point.
///
/// The paper allows "a String … or any other object"; we support strings,
/// raw bytes and integers, which covers every scenario in the evaluation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TagValue {
    /// A human-readable label such as `"zxid2"`.
    Str(Arc<str>),
    /// An opaque byte payload.
    Bytes(Arc<[u8]>),
    /// A numeric label (e.g. an application id).
    Int(i64),
}

impl TagValue {
    /// Convenience constructor for string tags.
    pub fn str(s: impl AsRef<str>) -> Self {
        TagValue::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for byte tags.
    pub fn bytes(b: impl AsRef<[u8]>) -> Self {
        TagValue::Bytes(Arc::from(b.as_ref()))
    }

    /// Renders the value as a display string (used by reports).
    pub fn render(&self) -> String {
        match self {
            TagValue::Str(s) => s.to_string(),
            TagValue::Bytes(b) => format!("0x{}", hex(b)),
            TagValue::Int(i) => i.to_string(),
        }
    }
}

impl fmt::Display for TagValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for TagValue {
    fn from(s: &str) -> Self {
        TagValue::str(s)
    }
}

impl From<String> for TagValue {
    fn from(s: String) -> Self {
        TagValue::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for TagValue {
    fn from(i: i64) -> Self {
        TagValue::Int(i)
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A fully described taint tag: the `<ID, Tag, LocalID, GlobalID>` quad.
///
/// `TaintTag` is the owned, inspectable form returned by tree queries and
/// carried inside serialized taints; inside the tree tags are stored in a
/// compact table indexed by [`TagId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaintTag {
    /// Tree-local rank of the tag (`ID`).
    pub id: u32,
    /// The tag value set by the user at the source point.
    pub value: TagValue,
    /// Where the tag was minted.
    pub local_id: LocalId,
    /// Global id, zero until the tag's singleton taint crosses the network.
    pub global_id: GlobalId,
}

impl fmt::Display for TaintTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<#{}, {}, {}, {}>",
            self.id, self.value, self.local_id, self.global_id
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_id_roundtrip() {
        let id = LocalId::new([192, 168, 1, 77], 31337);
        assert_eq!(LocalId::from_bytes(id.to_bytes()), id);
    }

    #[test]
    fn local_id_display() {
        let id = LocalId::new([10, 0, 0, 2], 99);
        assert_eq!(id.to_string(), "10.0.0.2:99");
    }

    #[test]
    fn untainted_is_zero() {
        assert!(!GlobalId::UNTAINTED.is_tainted());
        assert!(GlobalId(1).is_tainted());
        assert_eq!(GlobalId::default(), GlobalId::UNTAINTED);
    }

    #[test]
    fn tag_value_render() {
        assert_eq!(TagValue::str("vote").render(), "vote");
        assert_eq!(TagValue::bytes([0xab, 0x01]).render(), "0xab01");
        assert_eq!(TagValue::Int(-7).render(), "-7");
    }

    #[test]
    fn tag_value_conversions() {
        assert_eq!(TagValue::from("x"), TagValue::str("x"));
        assert_eq!(TagValue::from(5i64), TagValue::Int(5));
        assert_eq!(TagValue::from(String::from("y")), TagValue::str("y"));
    }

    #[test]
    fn taint_tag_display() {
        let tag = TaintTag {
            id: 3,
            value: TagValue::str("zxid2"),
            local_id: LocalId::new([10, 0, 0, 1], 7),
            global_id: GlobalId(12),
        };
        assert_eq!(tag.to_string(), "<#3, zxid2, 10.0.0.1:7, G12>");
    }
}
