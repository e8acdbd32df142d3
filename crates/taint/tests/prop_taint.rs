//! Property-based tests for the taint algebra and codecs.

use dista_taint::{
    deserialize_taint, serialize_taint, LocalId, TagValue, Taint, TaintStore, TaintedBytes,
};
use proptest::prelude::*;

fn store_for(node: u8) -> TaintStore {
    TaintStore::new(LocalId::new([10, 0, 0, node], node as u32))
}

/// Mint a taint whose tag set is exactly the (deduplicated) input labels.
fn taint_of_labels(store: &TaintStore, labels: &[u8]) -> Taint {
    store.union_all(
        labels
            .iter()
            .map(|&l| store.mint_source_taint(TagValue::Int(l as i64))),
    )
}

proptest! {
    /// Union is commutative, associative and idempotent — tag-set algebra.
    #[test]
    fn union_is_a_semilattice(
        xs in prop::collection::vec(0u8..16, 0..8),
        ys in prop::collection::vec(0u8..16, 0..8),
        zs in prop::collection::vec(0u8..16, 0..8),
    ) {
        let s = store_for(1);
        let a = taint_of_labels(&s, &xs);
        let b = taint_of_labels(&s, &ys);
        let c = taint_of_labels(&s, &zs);
        prop_assert_eq!(s.union(a, b), s.union(b, a));
        prop_assert_eq!(s.union(s.union(a, b), c), s.union(a, s.union(b, c)));
        prop_assert_eq!(s.union(a, a), a);
        prop_assert_eq!(s.union(a, Taint::EMPTY), a);
    }

    /// `union_all` gathers tags and interns one path from the third
    /// distinct operand on; whatever mix of multi-tag operands,
    /// duplicates and `EMPTY` it is handed, it lands on the node the
    /// left fold of pair unions lands on.
    #[test]
    fn union_all_equals_the_left_fold_of_union(
        operands in prop::collection::vec(prop::collection::vec(0u8..12, 0..4), 0..10),
        repeats in prop::collection::vec((any::<usize>(), any::<usize>()), 0..6),
    ) {
        let s = store_for(1);
        // Operands are built by folding pair unions, so the oracle
        // never runs the code under test.
        let mut xs: Vec<Taint> = operands
            .iter()
            .map(|labels| {
                labels.iter().fold(Taint::EMPTY, |acc, &l| {
                    s.union(acc, s.mint_source_taint(TagValue::Int(l as i64)))
                })
            })
            .collect();
        for &(from, to) in &repeats {
            if !xs.is_empty() {
                let again = xs[from % xs.len()];
                xs.insert(to % (xs.len() + 1), again);
            }
        }
        let folded = xs.iter().fold(Taint::EMPTY, |acc, &t| s.union(acc, t));
        prop_assert_eq!(s.union_all(xs.iter().copied()), folded);
    }

    /// Interning: building the same tag set along any insertion order
    /// produces the same handle.
    #[test]
    fn interning_is_order_insensitive(mut labels in prop::collection::vec(0u8..32, 1..10)) {
        let s = store_for(1);
        let forward = taint_of_labels(&s, &labels);
        labels.reverse();
        let backward = taint_of_labels(&s, &labels);
        prop_assert_eq!(forward, backward);
    }

    /// The tag set of a union is the set union of the operand tag sets.
    #[test]
    fn union_tags_are_set_union(
        xs in prop::collection::vec(0u8..24, 0..8),
        ys in prop::collection::vec(0u8..24, 0..8),
    ) {
        let s = store_for(1);
        let a = taint_of_labels(&s, &xs);
        let b = taint_of_labels(&s, &ys);
        let u = s.union(a, b);
        let mut expected: Vec<String> = xs.iter().chain(ys.iter())
            .map(|l| (*l as i64).to_string()).collect();
        expected.sort_by_key(|v| v.parse::<i64>().unwrap());
        expected.dedup();
        let mut got = s.tag_values(u);
        got.sort_by_key(|v| v.parse::<i64>().unwrap());
        prop_assert_eq!(got, expected);
    }

    /// Serialization round-trips tag sets across VMs, preserving origin.
    #[test]
    fn serialize_roundtrip_cross_vm(labels in prop::collection::vec(0u8..32, 0..12)) {
        let sender = store_for(1);
        let receiver = store_for(2);
        let t = taint_of_labels(&sender, &labels);
        let wire = serialize_taint(sender.tree(), t);
        let rt = deserialize_taint(&receiver, &wire).unwrap();
        let mut want = sender.tag_values(t);
        want.sort();
        let mut got = receiver.tag_values(rt);
        got.sort();
        prop_assert_eq!(got, want);
        // Every decoded tag keeps the sender's LocalId.
        for tag in receiver.tree().tags_of(rt) {
            prop_assert_eq!(tag.local_id, sender.local_id());
        }
    }

    /// Any truncation of a serialized taint fails cleanly, never panics.
    #[test]
    fn truncated_codec_never_panics(
        labels in prop::collection::vec(0u8..8, 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let sender = store_for(1);
        let receiver = store_for(2);
        let t = taint_of_labels(&sender, &labels);
        let wire = serialize_taint(sender.tree(), t);
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        if cut < wire.len() {
            prop_assert!(deserialize_taint(&receiver, &wire[..cut]).is_err());
        }
    }

    /// Slicing tainted bytes is isomorphic to slicing data and shadows
    /// separately.
    #[test]
    fn tainted_bytes_slicing_isomorphism(
        spans in prop::collection::vec((0u8..255, 0u8..4, 1usize..16), 1..6),
        raw_start in 0usize..32,
        raw_len in 0usize..64,
    ) {
        let s = store_for(1);
        let mut buf = TaintedBytes::new();
        for (byte, label, count) in &spans {
            let t = if *label == 0 {
                Taint::EMPTY
            } else {
                s.mint_source_taint(TagValue::Int(*label as i64))
            };
            buf.extend_uniform(&vec![*byte; *count], t);
        }
        let start = raw_start.min(buf.len());
        let end = (start + raw_len).min(buf.len());
        let slice = buf.slice(start, end);
        prop_assert_eq!(slice.data(), &buf.data()[start..end]);
        prop_assert_eq!(slice.taints(), &buf.taints()[start..end]);
    }

    /// drain_front(n) ++ remainder == original.
    #[test]
    fn drain_front_partitions(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        n in 0usize..80,
    ) {
        let s = store_for(1);
        let t = s.mint_source_taint(TagValue::str("x"));
        let mut buf = TaintedBytes::uniform(bytes.clone(), t);
        let mut front = buf.drain_front(n);
        front.extend_tainted(&buf);
        prop_assert_eq!(front.data(), &bytes[..]);
        prop_assert_eq!(front.len(), bytes.len());
    }
}
