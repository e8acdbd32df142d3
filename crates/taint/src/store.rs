//! Per-VM taint storage: a [`TaintTree`] plus the VM's identity and
//! source-point bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::tag::{LocalId, TagValue};
use crate::tree::{Taint, TaintTree};

/// The local taint storage of one simulated JVM.
///
/// A `TaintStore` owns the VM's singleton [`TaintTree`] and knows the VM's
/// [`LocalId`], which it stamps on every tag minted at a source point so
/// that identical tag values from different VMs never conflict (paper
/// §III-D-1). Clone handles are cheap (`Arc` internally).
///
/// # Example
///
/// ```rust
/// use dista_taint::{TaintStore, LocalId, TagValue};
///
/// let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
/// let vote = store.mint_source_taint(TagValue::str("vote"));
/// assert_eq!(store.tag_values(vote), vec!["vote".to_string()]);
/// ```
#[derive(Debug, Clone)]
pub struct TaintStore {
    inner: Arc<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    tree: TaintTree,
    local_id: LocalId,
    /// Count of source-point taints minted (SIM census, §V-F).
    sources_minted: AtomicU64,
}

impl TaintStore {
    /// Creates a store for the VM identified by `local_id`.
    pub fn new(local_id: LocalId) -> Self {
        TaintStore {
            inner: Arc::new(StoreInner {
                tree: TaintTree::new(),
                local_id,
                sources_minted: AtomicU64::new(0),
            }),
        }
    }

    /// The VM identity stamped on locally minted tags.
    pub fn local_id(&self) -> LocalId {
        self.inner.local_id
    }

    /// The underlying singleton tree.
    pub fn tree(&self) -> &TaintTree {
        &self.inner.tree
    }

    /// Mints a new source-point tag with this VM's `LocalId` and returns
    /// its singleton taint. Called when a taint source fires.
    pub fn mint_source_taint(&self, value: TagValue) -> Taint {
        self.inner.sources_minted.fetch_add(1, Ordering::Relaxed);
        let tag = self.inner.tree.mint_tag(value, self.inner.local_id);
        self.inner.tree.taint_of_tag(tag)
    }

    /// Union of two taints (delegates to the tree).
    pub fn union(&self, a: Taint, b: Taint) -> Taint {
        self.inner.tree.union(a, b)
    }

    /// Union of many taints.
    pub fn union_all<I: IntoIterator<Item = Taint>>(&self, taints: I) -> Taint {
        self.inner.tree.union_all(taints)
    }

    /// Rendered tag values of a taint, sorted by tag id.
    pub fn tag_values(&self, taint: Taint) -> Vec<String> {
        let tree = &self.inner.tree;
        let mut out = Vec::with_capacity(tree.tag_count(taint));
        tree.for_each_tag(taint, |_, value, _, _| out.push(value.render()));
        out
    }

    /// Number of source taints this VM has minted.
    pub fn sources_minted(&self) -> u64 {
        self.inner.sources_minted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_stamps_local_id() {
        let store = TaintStore::new(LocalId::new([1, 2, 3, 4], 9));
        let t = store.mint_source_taint(TagValue::str("s"));
        let tags = store.tree().tags_of(t);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].local_id, LocalId::new([1, 2, 3, 4], 9));
    }

    #[test]
    fn source_census_counts() {
        let store = TaintStore::new(LocalId::default());
        for i in 0..5 {
            store.mint_source_taint(TagValue::Int(i));
        }
        assert_eq!(store.sources_minted(), 5);
    }

    #[test]
    fn foreign_tag_keeps_origin() {
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let origin = LocalId::new([10, 0, 0, 2], 2);
        let tag = store.tree().mint_tag(TagValue::str("a_tag"), origin);
        assert_eq!(store.tree().tag(tag).local_id, origin);
        // A local mint with the same value must stay distinct.
        let local = store.mint_source_taint(TagValue::str("a_tag"));
        let local_tag = store.tree().tag_ids(local)[0];
        assert_ne!(tag, local_tag);
    }

    #[test]
    fn clones_share_tree() {
        let store = TaintStore::new(LocalId::default());
        let clone = store.clone();
        let t = store.mint_source_taint(TagValue::str("shared"));
        assert_eq!(clone.tag_values(t), vec!["shared".to_string()]);
    }
}
