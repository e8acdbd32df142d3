//! Property-based tests for the taint algebra and codecs.

use std::collections::{BTreeSet, HashMap};

use dista_taint::{
    deserialize_taint, serialize_taint, LocalId, TagId, TagValue, Taint, TaintStore, TaintTree,
    TaintedBytes,
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

/// Tags in the tree model: labels `0..40`, minted in the order a run
/// first uses them, so tag ids follow no label order.
const MODEL_TAGS: u8 = 40;

/// One step of a run against the tree model. Operand indices pick from
/// the taints made so far (the first is `EMPTY`).
#[derive(Debug, Clone)]
enum Step {
    /// The singleton of a label, minted if it is new.
    Mint(u8),
    Union(usize, usize),
    UnionAll(Vec<usize>),
    /// Folds singletons onto a taint one pair union at a time, in
    /// ascending or descending tag-id order.
    Accumulate {
        onto: usize,
        labels: Vec<u8>,
        descending: bool,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let index = || any::<usize>();
    let labels = || prop::collection::vec(0..MODEL_TAGS, 1..MODEL_TAGS as usize);
    prop_oneof![
        (0..MODEL_TAGS).prop_map(Step::Mint),
        (index(), index()).prop_map(|(a, b)| Step::Union(a, b)),
        prop::collection::vec(index(), 0..12).prop_map(Step::UnionAll),
        (index(), labels(), any::<bool>()).prop_map(|(onto, labels, descending)| {
            Step::Accumulate {
                onto,
                labels,
                descending,
            }
        }),
    ]
}

/// A tree and, for every taint it handed out, the label set it stands
/// for.
struct Model {
    tree: TaintTree,
    made: Vec<(Taint, BTreeSet<u8>)>,
}

impl Model {
    fn single(&self, label: u8) -> (Taint, BTreeSet<u8>) {
        let tag = self
            .tree
            .mint_tag(TagValue::Int(label.into()), LocalId::default());
        (self.tree.taint_of_tag(tag), BTreeSet::from([label]))
    }

    fn pick(&self, i: usize) -> (Taint, BTreeSet<u8>) {
        self.made[i % self.made.len()].clone()
    }

    /// Runs `step`, keeping every taint it makes.
    fn run(&mut self, step: &Step) {
        let made = match step {
            Step::Mint(label) => self.single(*label),
            Step::Union(a, b) => {
                let ((ta, sa), (tb, sb)) = (self.pick(*a), self.pick(*b));
                (self.tree.union(ta, tb), &sa | &sb)
            }
            Step::UnionAll(picks) => {
                let picks: Vec<_> = picks.iter().map(|&i| self.pick(i)).collect();
                let set = picks.iter().flat_map(|(_, s)| s.iter().copied()).collect();
                (self.tree.union_all(picks.iter().map(|(t, _)| *t)), set)
            }
            Step::Accumulate {
                onto,
                labels,
                descending,
            } => {
                let mut singles: Vec<_> = labels.iter().map(|&l| self.single(l)).collect();
                singles.sort_by_key(|(t, _)| self.tree.tag_ids(*t)[0]);
                if *descending {
                    singles.reverse();
                }
                let (mut acc, mut set) = self.pick(*onto);
                for (t, s) in singles {
                    (acc, set) = (self.tree.union(acc, t), &set | &s);
                    self.made.push((acc, set.clone()));
                }
                return;
            }
        };
        self.made.push(made);
    }

    /// The labels a taint's tags read back as, checking the ids ascend.
    fn read_back(&self, taint: Taint) -> BTreeSet<u8> {
        let ids: Vec<TagId> = self.tree.tag_ids(taint);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "tag ids ascend");
        ids.iter()
            .map(|&id| match self.tree.tag(id).value {
                TagValue::Int(label) => label as u8,
                other => panic!("not a model tag: {other:?}"),
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tree against a `BTreeSet` model: handles are equal exactly
    /// when their sets are, and every handle reads back its set and
    /// its size.
    #[test]
    fn the_tree_matches_a_set_model(steps in prop::collection::vec(step(), 1..60)) {
        let mut model = Model {
            tree: TaintTree::new(),
            made: vec![(Taint::EMPTY, BTreeSet::new())],
        };
        for step in &steps {
            model.run(step);
        }
        let mut handle_of: HashMap<&BTreeSet<u8>, Taint> = HashMap::new();
        let mut set_of: HashMap<Taint, &BTreeSet<u8>> = HashMap::new();
        for (taint, set) in &model.made {
            prop_assert_eq!(*handle_of.entry(set).or_insert(*taint), *taint, "{:?}", set);
            prop_assert_eq!(*set_of.entry(*taint).or_insert(set), set, "{:?}", taint);
            prop_assert_eq!(&model.read_back(*taint), set);
            prop_assert_eq!(model.tree.tag_count(*taint), set.len());
        }
        // Nodes are the root, every minted tag's singleton and the sets
        // of two or more tags that were asked for: each once.
        let multi = handle_of.keys().filter(|s| s.len() >= 2).count();
        prop_assert_eq!(model.tree.num_nodes(), 1 + model.tree.num_tags() + multi);
    }
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
