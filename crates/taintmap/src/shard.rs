//! Shard topology: how Global IDs and taints map onto Taint Map shards.
//!
//! The Global ID namespace is **statically partitioned**: shard `i` of
//! `n` only ever assigns ids from the arithmetic progression
//! `{i+1, i+1+n, i+1+2n, …}`, so registration never coordinates across
//! shards and a receiver can route any id back to its owner with one
//! modulo. Registrations are routed by a stable hash of the serialized
//! taint bytes, which is what makes per-shard byte-identity dedup
//! equivalent to global dedup.
//!
//! **Live resharding** refines the picture without giving up static
//! partitioning: a residue class can be *split*, migrating the upper
//! gid range `[lo, ∞)` (plus all future allocations) to a new server.
//! Clients then route within a class through a [`ClassTable`] — an
//! epoch-numbered list of [`ShardRange`]s — and servers answer a stale
//! epoch or a moved range with a `Moved` redirect until every cache
//! converges on the current epoch.

use dista_simnet::NodeAddr;

/// This shard's slot in the statically partitioned Global ID namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: u32,
    /// Total number of shards in the deployment.
    pub count: u32,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec { index: 0, count: 1 }
    }
}

impl ShardSpec {
    /// Maps a backend-local dense id (1, 2, 3, …) into this shard's slice
    /// of the global namespace; `None` for 0 (no id) and for a local id
    /// whose slot lies past `u32` (the slice is exhausted).
    pub(crate) fn global_of_local(self, local: u32) -> Option<u32> {
        (local.checked_sub(1)?)
            .checked_mul(self.count)?
            .checked_add(self.index + 1)
    }

    /// Maps a Global ID owned by this shard back to the backend-local id,
    /// or `None` if the id belongs to a different shard.
    pub(crate) fn local_of_global(self, gid: u32) -> Option<u32> {
        if gid == 0 || (gid - 1) % self.count != self.index {
            return None;
        }
        Some((gid - 1) / self.count + 1)
    }
}

/// Stable 64-bit FNV-1a hash used to route registrations to shards.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Shard that owns registrations of these serialized taint bytes.
pub(crate) fn shard_of_bytes(bytes: &[u8], shard_count: usize) -> usize {
    (fnv64(bytes) % shard_count as u64) as usize
}

/// Shard that assigned this (non-zero) Global ID.
pub(crate) fn shard_of_gid(gid: u32, shard_count: usize) -> usize {
    ((gid - 1) as usize) % shard_count
}

/// One contiguous gid range of a residue class and the failover address
/// list that serves it (primary first).
///
/// A range owns every gid `g` of its class with `g >= lo_gid`, up to the
/// next range's `lo_gid` in the enclosing [`ClassTable`]; the last range
/// is open-ended and therefore also owns *allocation* of new gids. A
/// server serves the last range whose list names its address, a standby
/// as well as its primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRange {
    /// First Global ID (inclusive) served by this range.
    pub lo_gid: u32,
    /// Failover address list: primary first, standbys after.
    pub addrs: Vec<NodeAddr>,
}

/// Epoch-numbered routing table for a single residue class: the one
/// routing fact the endpoint, every client and every server of the
/// class hold a copy of.
///
/// Before any split the table has one open-ended range at epoch 0. Each
/// cutover appends a range and bumps the epoch; clients stamp the epoch
/// into range-aware RPCs and servers redirect stale stamps so a
/// resharded class can never resolve a gid through an outdated mapping.
/// A server reads its epoch and the ranges it has handed away from its
/// own copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassTable {
    /// Monotone table version; bumped once per cutover.
    pub epoch: u64,
    /// Ranges sorted ascending by `lo_gid`; never empty.
    pub ranges: Vec<ShardRange>,
}

impl ClassTable {
    /// The pre-split table: one open-ended range at epoch 0.
    pub fn initial(addrs: Vec<NodeAddr>, class: usize) -> Self {
        ClassTable {
            epoch: 0,
            ranges: vec![ShardRange {
                lo_gid: class as u32 + 1,
                addrs,
            }],
        }
    }

    /// The range that serves lookups of `gid` (the last range whose
    /// `lo_gid` is `<= gid`, falling back to the first range).
    pub fn range_of_gid(&self, gid: u32) -> &ShardRange {
        self.ranges
            .iter()
            .rev()
            .find(|r| r.lo_gid <= gid)
            .unwrap_or(&self.ranges[0])
    }

    /// The open-ended tail range, which owns allocation of new gids.
    pub fn tail(&self) -> &ShardRange {
        self.ranges.last().expect("class table is never empty")
    }

    /// The ranges after the last one whose failover list names `addr`:
    /// what a server at `addr` has handed away and answers `Moved` for,
    /// allocation included when this is not empty. Ranges below its own
    /// need no redirect: a split target holds a full copy of the lower
    /// records, and records are immutable. Empty for an address no range
    /// names, as a split's target before its cutover.
    pub(crate) fn moved_past(&self, addr: NodeAddr) -> &[ShardRange] {
        let own = self.ranges.iter().rposition(|r| r.addrs.contains(&addr));
        own.map_or(&[], |own| &self.ranges[own + 1..])
    }

    /// Adopts `other` if it is strictly newer; returns whether anything
    /// changed. Equal or older epochs are ignored, which makes redirect
    /// chains converge instead of ping-ponging between stale tables.
    pub fn merge(&mut self, other: &ClassTable) -> bool {
        if other.epoch > self.epoch {
            *self = other.clone();
            true
        } else {
            false
        }
    }
}

/// Shard layout of a Taint Map deployment, as seen by clients: for each
/// shard, the ordered list of service addresses (primary first, standbys
/// after). This is the value a [`crate::TaintMapEndpoint`] hands out and
/// a VM connects with; it hides how many processes actually serve the
/// map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintMapTopology {
    shards: Vec<Vec<NodeAddr>>,
}

impl TaintMapTopology {
    /// Builds a topology from per-shard failover lists.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or any shard has no address — an empty
    /// deployment is a construction bug, not a runtime condition.
    pub fn new(shards: Vec<Vec<NodeAddr>>) -> Self {
        assert!(!shards.is_empty(), "taint map topology needs >= 1 shard");
        assert!(
            shards.iter().all(|s| !s.is_empty()),
            "every taint map shard needs >= 1 address"
        );
        TaintMapTopology { shards }
    }

    /// A classic single-server deployment.
    pub fn single(addr: NodeAddr) -> Self {
        TaintMapTopology {
            shards: vec![vec![addr]],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The failover address list of shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn shard_addrs(&self, i: usize) -> &[NodeAddr] {
        &self.shards[i]
    }
}

impl From<NodeAddr> for TaintMapTopology {
    fn from(addr: NodeAddr) -> Self {
        TaintMapTopology::single(addr)
    }
}

impl From<Vec<NodeAddr>> for TaintMapTopology {
    /// A single shard with a failover list: the first address is the
    /// primary, the rest are standbys tried in order.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty.
    fn from(addrs: Vec<NodeAddr>) -> Self {
        TaintMapTopology::new(vec![addrs])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_spaces_partition_the_namespace() {
        let n = 4;
        let mut seen = std::collections::HashSet::new();
        for index in 0..n {
            let spec = ShardSpec { index, count: n };
            for local in 1..=8u32 {
                let gid = spec.global_of_local(local).unwrap();
                assert!(gid > 0, "gid 0 is reserved for untainted");
                assert!(seen.insert(gid), "gid {gid} assigned by two shards");
                assert_eq!(spec.local_of_global(gid), Some(local));
                assert_eq!(shard_of_gid(gid, n as usize), index as usize);
            }
        }
    }

    #[test]
    fn foreign_and_zero_gids_do_not_map() {
        let spec = ShardSpec { index: 1, count: 3 };
        assert_eq!(spec.local_of_global(0), None);
        assert_eq!(spec.local_of_global(1), None); // shard 0's first id
        assert_eq!(spec.local_of_global(2), Some(1));
    }

    #[test]
    fn a_local_id_with_no_slot_in_u32_has_no_global_id() {
        let spec = ShardSpec { index: 0, count: 2 };
        assert_eq!(spec.global_of_local(0), None);
        // Class 0 of 2 holds the odd gids; its last local is 2^31.
        let last = spec.local_of_global(u32::MAX).unwrap();
        assert_eq!(last, 1 << 31);
        assert_eq!(spec.global_of_local(last), Some(u32::MAX));
        assert_eq!(spec.global_of_local(last + 1), None);
        assert_eq!(spec.global_of_local(u32::MAX), None);
    }

    #[test]
    fn single_shard_is_identity() {
        let spec = ShardSpec::default();
        for id in 1..=5 {
            assert_eq!(spec.global_of_local(id), Some(id));
            assert_eq!(spec.local_of_global(id), Some(id));
        }
    }

    #[test]
    fn byte_routing_is_stable() {
        assert_eq!(
            shard_of_bytes(b"same bytes", 8),
            shard_of_bytes(b"same bytes", 8)
        );
        assert_eq!(shard_of_bytes(b"anything", 1), 0);
    }

    #[test]
    fn class_table_routing_and_merge() {
        let a = NodeAddr::new([10, 0, 0, 9], 7000);
        let b = NodeAddr::new([10, 0, 0, 9], 7010);
        let mut t = ClassTable::initial(vec![a], 1);
        assert_eq!(t.epoch, 0);
        assert_eq!(t.range_of_gid(2).addrs, vec![a]);
        assert_eq!(t.tail().lo_gid, 2);

        let split = ClassTable {
            epoch: 1,
            ranges: vec![
                ShardRange {
                    lo_gid: 2,
                    addrs: vec![a],
                },
                ShardRange {
                    lo_gid: 102,
                    addrs: vec![b],
                },
            ],
        };
        assert!(t.merge(&split));
        assert!(!t.merge(&split), "equal epoch must not churn");
        assert_eq!(t.range_of_gid(2).addrs, vec![a]);
        assert_eq!(t.range_of_gid(101).addrs, vec![a]);
        assert_eq!(t.range_of_gid(102).addrs, vec![b]);
        assert_eq!(t.range_of_gid(5000).addrs, vec![b]);
        assert_eq!(t.tail().addrs, vec![b], "tail owns allocation");
    }

    #[test]
    fn topology_constructors() {
        let a = NodeAddr::new([10, 0, 0, 9], 7000);
        let b = NodeAddr::new([10, 0, 0, 9], 7001);
        let t: TaintMapTopology = a.into();
        assert_eq!(t.shard_count(), 1);
        assert_eq!(t.shard_addrs(0), &[a]);
        let t: TaintMapTopology = vec![a, b].into();
        assert_eq!(t.shard_addrs(0), &[a, b]);
        let t = TaintMapTopology::new(vec![vec![a], vec![b]]);
        assert_eq!(t.shard_count(), 2);
    }
}
