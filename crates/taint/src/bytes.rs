//! Byte-level taint shadows (paper §III-A).
//!
//! "All messages between nodes are finally transferred into bytes. To
//! achieve high precision, DisTA performs inter-node taint tracking at the
//! byte-level granularity." [`TaintedBytes`] shadows every byte with a
//! [`Taint`] handle, stored run-length-encoded as a [`TaintRuns`] that is
//! sliced/spliced in lock-step with the data. [`Payload`] is the
//! mode-dependent message body used throughout the mini-JRE: `Plain` for
//! untracked runs (no shadow cost at all) and `Tainted` for
//! Phosphor/DisTA runs.

use crate::reader::{ByteReader, ReadError};
use crate::runs::TaintRuns;
use crate::store::TaintStore;
use crate::tree::Taint;

/// A byte buffer with one taint handle per byte.
///
/// The shadow is stored run-length-encoded ([`TaintRuns`]); the dense
/// per-byte view is available via [`TaintedBytes::taints`] and
/// [`TaintedBytes::iter`].
///
/// Invariant: `data.len() == shadow.len()` at all times.
///
/// # Example
///
/// ```rust
/// use dista_taint::{TaintStore, LocalId, TagValue, TaintedBytes};
///
/// let store = TaintStore::new(LocalId::default());
/// let t = store.mint_source_taint(TagValue::str("secret"));
/// let mut buf = TaintedBytes::uniform(b"key=", t);
/// buf.extend_plain(b"value");
/// assert!(buf.taint_at(0).unwrap() == t);
/// assert!(buf.taint_at(4).unwrap().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintedBytes {
    data: Vec<u8>,
    shadow: TaintRuns,
}

impl TaintedBytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        TaintedBytes {
            data: Vec::with_capacity(cap),
            shadow: TaintRuns::new(),
        }
    }

    /// Wraps plain bytes; every byte gets the empty taint.
    pub fn from_plain(data: impl Into<Vec<u8>>) -> Self {
        let data = data.into();
        let shadow = TaintRuns::uniform(Taint::EMPTY, data.len());
        TaintedBytes { data, shadow }
    }

    /// Wraps bytes with the same taint on every byte.
    pub fn uniform(data: impl Into<Vec<u8>>, taint: Taint) -> Self {
        let data = data.into();
        let shadow = TaintRuns::uniform(taint, data.len());
        TaintedBytes { data, shadow }
    }

    /// Builds from parallel data/taint vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_parts(data: Vec<u8>, taints: Vec<Taint>) -> Self {
        assert_eq!(
            data.len(),
            taints.len(),
            "data/taint shadow length mismatch"
        );
        let shadow = TaintRuns::from_dense(&taints);
        TaintedBytes { data, shadow }
    }

    /// Builds from data plus an already run-length-encoded shadow.
    ///
    /// # Panics
    ///
    /// Panics if `shadow.len() != data.len()`.
    pub fn from_runs(data: Vec<u8>, shadow: TaintRuns) -> Self {
        assert_eq!(
            data.len(),
            shadow.len(),
            "data/taint shadow length mismatch"
        );
        TaintedBytes { data, shadow }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The data bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The dense per-byte taint shadows, materialized from the runs.
    ///
    /// Prefer [`TaintedBytes::shadow`] (O(runs)) on hot paths; this
    /// allocates one `Taint` per byte and exists as the per-byte view
    /// the rest of the system reasons in.
    pub fn taints(&self) -> Vec<Taint> {
        self.shadow.to_dense()
    }

    /// The run-length-encoded shadow.
    pub fn shadow(&self) -> &TaintRuns {
        &self.shadow
    }

    /// Taint of the byte at `idx`, or `None` if out of bounds.
    pub fn taint_at(&self, idx: usize) -> Option<Taint> {
        self.shadow.get(idx)
    }

    /// Appends one byte with its taint.
    pub fn push(&mut self, byte: u8, taint: Taint) {
        self.data.push(byte);
        self.shadow.push_run(taint, 1);
    }

    /// Appends plain (untainted) bytes.
    pub fn extend_plain(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
        self.shadow.push_run(Taint::EMPTY, bytes.len());
    }

    /// Appends bytes that all share one taint.
    pub fn extend_uniform(&mut self, bytes: &[u8], taint: Taint) {
        self.data.extend_from_slice(bytes);
        self.shadow.push_run(taint, bytes.len());
    }

    /// Appends another tainted buffer. O(runs) shadow work.
    pub fn extend_tainted(&mut self, other: &TaintedBytes) {
        self.data.extend_from_slice(&other.data);
        self.shadow.extend_runs(&other.shadow);
    }

    /// Copies out `[start, end)` as a new buffer. O(runs) shadow work.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> TaintedBytes {
        TaintedBytes {
            data: self.data[start..end].to_vec(),
            shadow: self.shadow.slice(start, end),
        }
    }

    /// The next `n` bytes under `reader` — a [`ByteReader`] over this
    /// buffer's [`TaintedBytes::data`] — copied out with their shadow.
    pub fn take(&self, reader: &mut ByteReader<'_>, n: usize) -> Result<TaintedBytes, ReadError> {
        let start = reader.pos();
        reader.bytes(n)?;
        Ok(self.slice(start, reader.pos()))
    }

    /// Splits off and returns the first `n` bytes (like a stream read).
    ///
    /// Returns fewer than `n` bytes if the buffer is shorter.
    pub fn drain_front(&mut self, n: usize) -> TaintedBytes {
        let n = n.min(self.data.len());
        TaintedBytes {
            data: self.data.drain(..n).collect(),
            shadow: self.shadow.split_front(n),
        }
    }

    /// Truncates to `n` bytes (datagram truncation semantics).
    pub fn truncate(&mut self, n: usize) {
        self.data.truncate(n);
        self.shadow.truncate(n);
    }

    /// The union of every byte's taint — what a sink sees when it checks
    /// a whole message. O(runs) unions, not O(bytes).
    pub fn taint_union(&self, store: &TaintStore) -> Taint {
        store.union_all(self.shadow.iter_runs().map(|(_, t)| t))
    }

    /// Unions `extra` onto every byte's taint (assigning a new tag to an
    /// already-tainted buffer, e.g. marking file-loaded data as a source
    /// variable as well). O(runs) unions.
    pub fn apply_taint(&mut self, store: &TaintStore, extra: Taint) {
        if extra.is_empty() {
            return;
        }
        self.shadow.map_taints(|t| store.union(t, extra));
    }

    /// Iterates `(byte, taint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u8, Taint)> + '_ {
        self.data.iter().copied().zip(self.shadow.iter_dense())
    }

    /// Iterates the buffer run by run as `(data_slice, taint)` — the
    /// boundary encoder's view: each yielded slice is a maximal stretch
    /// of identically-tainted bytes. O(runs) items, zero copies.
    pub fn iter_run_slices(&self) -> impl Iterator<Item = (&[u8], Taint)> + '_ {
        let mut pos = 0;
        self.shadow.iter_runs().map(move |(len, taint)| {
            let slice = &self.data[pos..pos + len];
            pos += len;
            (slice, taint)
        })
    }

    /// Consumes the buffer into `(data, taints)` with a dense shadow.
    pub fn into_parts(self) -> (Vec<u8>, Vec<Taint>) {
        let dense = self.shadow.to_dense();
        (self.data, dense)
    }

    /// Consumes the buffer into `(data, shadow)` keeping the
    /// run-length-encoded shadow.
    pub fn into_runs_parts(self) -> (Vec<u8>, TaintRuns) {
        (self.data, self.shadow)
    }

    /// Consumes the buffer, dropping the shadows (the "native boundary"
    /// operation: this is where taints die without DisTA).
    pub fn into_plain(self) -> Vec<u8> {
        self.data
    }

    /// Distinct taints present, in first-appearance order. O(runs).
    pub fn distinct_taints(&self) -> Vec<Taint> {
        self.shadow.distinct_taints()
    }
}

impl From<Vec<u8>> for TaintedBytes {
    fn from(data: Vec<u8>) -> Self {
        TaintedBytes::from_plain(data)
    }
}

impl From<&[u8]> for TaintedBytes {
    fn from(data: &[u8]) -> Self {
        TaintedBytes::from_plain(data.to_vec())
    }
}

/// A message body whose representation depends on the tracking mode.
///
/// `Plain` carries no shadows at all — the `Original` (untracked) mode
/// must not pay any taint cost. `Tainted` carries per-byte shadows and is
/// used by both Phosphor and DisTA modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Untracked bytes.
    Plain(Vec<u8>),
    /// Bytes with per-byte taint shadows.
    Tainted(TaintedBytes),
}

impl Payload {
    /// Byte length of the payload.
    pub fn len(&self) -> usize {
        match self {
            Payload::Plain(d) => d.len(),
            Payload::Tainted(t) => t.len(),
        }
    }

    /// Whether the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The data bytes regardless of representation.
    pub fn data(&self) -> &[u8] {
        match self {
            Payload::Plain(d) => d,
            Payload::Tainted(t) => t.data(),
        }
    }

    /// Union of all byte taints (`EMPTY` for plain payloads).
    pub fn taint_union(&self, store: &TaintStore) -> Taint {
        match self {
            Payload::Plain(_) => Taint::EMPTY,
            Payload::Tainted(t) => t.taint_union(store),
        }
    }

    /// Borrows the tainted form, if any.
    pub fn as_tainted(&self) -> Option<&TaintedBytes> {
        match self {
            Payload::Plain(_) => None,
            Payload::Tainted(t) => Some(t),
        }
    }

    /// Converts into the tainted representation (plain bytes become
    /// uniformly untainted).
    pub fn into_tainted(self) -> TaintedBytes {
        match self {
            Payload::Plain(d) => TaintedBytes::from_plain(d),
            Payload::Tainted(t) => t,
        }
    }

    /// Converts into plain bytes, discarding shadows.
    pub fn into_plain(self) -> Vec<u8> {
        match self {
            Payload::Plain(d) => d,
            Payload::Tainted(t) => t.into_plain(),
        }
    }

    /// Appends another payload. If either side is tainted the result is
    /// tainted (plain bytes contribute empty shadows).
    pub fn append(&mut self, other: Payload) {
        match (&mut *self, other) {
            (Payload::Plain(dst), Payload::Plain(src)) => dst.extend_from_slice(&src),
            (Payload::Tainted(dst), Payload::Tainted(src)) => dst.extend_tainted(&src),
            (Payload::Tainted(dst), Payload::Plain(src)) => dst.extend_plain(&src),
            (Payload::Plain(_), Payload::Tainted(src)) => {
                let plain = std::mem::take(self).into_plain();
                let mut dst = TaintedBytes::from_plain(plain);
                dst.extend_tainted(&src);
                *self = Payload::Tainted(dst);
            }
        }
    }

    /// Copies out `[start, end)` preserving the representation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        match self {
            Payload::Plain(d) => Payload::Plain(d[start..end].to_vec()),
            Payload::Tainted(t) => Payload::Tainted(t.slice(start, end)),
        }
    }

    /// Splits off and returns the first `n` bytes (fewer if shorter).
    pub fn drain_front(&mut self, n: usize) -> Payload {
        match self {
            Payload::Plain(d) => {
                let n = n.min(d.len());
                Payload::Plain(d.drain(..n).collect())
            }
            Payload::Tainted(t) => Payload::Tainted(t.drain_front(n)),
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Plain(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{LocalId, TagValue};

    fn fixture() -> (TaintStore, Taint, Taint) {
        let store = TaintStore::new(LocalId::default());
        let a = store.mint_source_taint(TagValue::str("a"));
        let b = store.mint_source_taint(TagValue::str("b"));
        (store, a, b)
    }

    #[test]
    fn from_plain_is_untainted() {
        let buf = TaintedBytes::from_plain(b"abc".to_vec());
        assert_eq!(buf.len(), 3);
        assert!(buf.taints().iter().all(|t| t.is_empty()));
    }

    #[test]
    fn uniform_taints_every_byte() {
        let (_, a, _) = fixture();
        let buf = TaintedBytes::uniform(b"xy", a);
        assert_eq!(buf.taint_at(0), Some(a));
        assert_eq!(buf.taint_at(1), Some(a));
        assert_eq!(buf.taint_at(2), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_validates_lengths() {
        TaintedBytes::from_parts(vec![1, 2], vec![Taint::EMPTY]);
    }

    #[test]
    fn slice_keeps_shadows_aligned() {
        let (_, a, b) = fixture();
        let mut buf = TaintedBytes::uniform(b"aa", a);
        buf.extend_uniform(b"bb", b);
        let s = buf.slice(1, 3);
        assert_eq!(s.data(), b"ab");
        assert_eq!(s.taints(), &[a, b]);
    }

    #[test]
    fn drain_front_models_stream_reads() {
        let (_, a, b) = fixture();
        let mut buf = TaintedBytes::uniform(b"aaa", a);
        buf.extend_uniform(b"bb", b);
        let first = buf.drain_front(2);
        assert_eq!(first.data(), b"aa");
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.taint_at(0), Some(a));
        assert_eq!(buf.taint_at(1), Some(b));
        // Over-draining returns what's left.
        let rest = buf.drain_front(100);
        assert_eq!(rest.len(), 3);
        assert!(buf.is_empty());
    }

    #[test]
    fn truncate_models_datagram_truncation() {
        let (_, a, _) = fixture();
        let mut buf = TaintedBytes::uniform(b"12345", a);
        buf.truncate(2);
        assert_eq!(buf.data(), b"12");
        assert_eq!(buf.taints().len(), 2);
    }

    #[test]
    fn taint_union_over_bytes() {
        let (store, a, b) = fixture();
        let mut buf = TaintedBytes::uniform(b"x", a);
        buf.extend_uniform(b"y", b);
        buf.extend_plain(b"z");
        let u = buf.taint_union(&store);
        assert_eq!(store.tag_values(u), vec!["a", "b"]);
    }

    #[test]
    fn apply_taint_unions_everywhere() {
        let (store, a, b) = fixture();
        let mut buf = TaintedBytes::uniform(b"x", a);
        buf.extend_plain(b"y");
        buf.apply_taint(&store, b);
        assert_eq!(store.tag_values(buf.taint_at(0).unwrap()), vec!["a", "b"]);
        assert_eq!(store.tag_values(buf.taint_at(1).unwrap()), vec!["b"]);
        // Applying the empty taint is a no-op.
        let before = buf.clone();
        buf.apply_taint(&store, Taint::EMPTY);
        assert_eq!(buf, before);
    }

    #[test]
    fn iter_run_slices_partitions_the_data() {
        let (_, a, b) = fixture();
        let mut buf = TaintedBytes::uniform(b"aa", a);
        buf.extend_plain(b"--");
        buf.extend_uniform(b"bbb", b);
        let runs: Vec<(&[u8], Taint)> = buf.iter_run_slices().collect();
        assert_eq!(
            runs,
            vec![
                (&b"aa"[..], a),
                (&b"--"[..], Taint::EMPTY),
                (&b"bbb"[..], b)
            ]
        );
        assert!(TaintedBytes::new().iter_run_slices().next().is_none());
    }

    #[test]
    fn distinct_taints_ordered() {
        let (_, a, b) = fixture();
        let mut buf = TaintedBytes::uniform(b"xx", a);
        buf.extend_uniform(b"y", b);
        buf.extend_uniform(b"z", a);
        assert_eq!(buf.distinct_taints(), vec![a, b]);
    }

    #[test]
    fn payload_plain_has_no_taint() {
        let (store, _, _) = fixture();
        let p = Payload::Plain(b"data".to_vec());
        assert!(p.taint_union(&store).is_empty());
        assert!(p.as_tainted().is_none());
        assert_eq!(p.data(), b"data");
    }

    #[test]
    fn payload_conversions() {
        let (_, a, _) = fixture();
        let p = Payload::Tainted(TaintedBytes::uniform(b"q", a));
        assert_eq!(p.clone().into_plain(), b"q".to_vec());
        assert_eq!(p.into_tainted().taint_at(0), Some(a));
        let p2 = Payload::Plain(b"r".to_vec()).into_tainted();
        assert!(p2.taint_at(0).unwrap().is_empty());
    }

    #[test]
    fn payload_append_promotes_representation() {
        let (_, a, _) = fixture();
        let mut p = Payload::Plain(b"pre".to_vec());
        p.append(Payload::Tainted(TaintedBytes::uniform(b"sec", a)));
        let t = p.into_tainted();
        assert_eq!(t.data(), b"presec");
        assert!(t.taint_at(0).unwrap().is_empty());
        assert_eq!(t.taint_at(3), Some(a));

        let mut p = Payload::Plain(b"ab".to_vec());
        p.append(Payload::Plain(b"cd".to_vec()));
        assert!(matches!(p, Payload::Plain(_)));
        assert_eq!(p.data(), b"abcd");
    }

    #[test]
    fn payload_slice_and_drain() {
        let (_, a, _) = fixture();
        let p = Payload::Tainted(TaintedBytes::uniform(b"abcdef", a));
        let s = p.slice(1, 3);
        assert_eq!(s.data(), b"bc");
        let mut p = Payload::Plain(b"xyz".to_vec());
        let front = p.drain_front(2);
        assert_eq!(front.data(), b"xy");
        assert_eq!(p.data(), b"z");
    }

    #[test]
    fn into_plain_drops_shadows() {
        let (_, a, _) = fixture();
        let buf = TaintedBytes::uniform(b"secret", a);
        let plain = buf.into_plain();
        assert_eq!(plain, b"secret".to_vec());
    }
}
