//! A ZooKeeper-backed Taint Map storage backend (paper §IV: "Taint Map
//! can be replaced by other mature K-V store systems such as ZooKeeper
//! and etcd to improve its performance").
//!
//! Global taints live in the ZooKeeper data tree under a configurable
//! root (default `/dista/taintmap`):
//!
//! ```text
//! <root>/next          big-endian u32: the lease high-water
//! <root>/id-<id>       the serialized taint bytes an id is bound to
//! <root>/hash-<h>-<k>  dedup index: fnv64(bytes) (+probe) → first id
//! <root>/taints        big-endian u32: distinct taints stored
//! <root>/aliases       big-endian u32: ids bound to stored bytes
//! ```
//!
//! Because the state survives the Taint Map *process*, a restarted
//! service keeps serving previously assigned Global IDs — the durability
//! upgrade the paper gestures at.
//!
//! Backends store **shard-local dense ids** (the server maps them into
//! the statically partitioned global namespace), so a sharded deployment
//! simply gives every shard its own root — see
//! [`ZkTaintMapBackend::connect_shard`].

use dista_jre::Vm;
use dista_simnet::NodeAddr;
use dista_taint::{ByteReader, TaintedBytes};
use dista_taintmap::TaintMapBackend;
use parking_lot::Mutex;

use crate::server::{ZkClient, ZkError};

const DEFAULT_ROOT: &str = "/dista/taintmap";

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Taint Map storage living in a mini-ZooKeeper ensemble.
pub struct ZkTaintMapBackend {
    zk: Mutex<ZkClient>,
    root: String,
}

impl std::fmt::Debug for ZkTaintMapBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkTaintMapBackend")
            .field("root", &self.root)
            .finish()
    }
}

impl ZkTaintMapBackend {
    /// Connects the backend to a ZooKeeper client port at the default
    /// root. The Taint Map server process owns this session; all
    /// mutation goes through it.
    ///
    /// # Errors
    ///
    /// ZooKeeper connection errors.
    pub fn connect(vm: &Vm, zk_addr: NodeAddr) -> Result<Self, ZkError> {
        Self::connect_at(vm, zk_addr, DEFAULT_ROOT)
    }

    /// Connects the backend with an explicit tree root, so independent
    /// deployments (or shards) can share one ensemble without sharing
    /// state.
    ///
    /// # Errors
    ///
    /// ZooKeeper connection errors.
    pub fn connect_at(
        vm: &Vm,
        zk_addr: NodeAddr,
        root: impl Into<String>,
    ) -> Result<Self, ZkError> {
        Ok(ZkTaintMapBackend {
            zk: Mutex::new(ZkClient::connect(vm, zk_addr)?),
            root: root.into(),
        })
    }

    /// Connects the backend for shard `index` of a sharded deployment:
    /// the tree root becomes `/dista/taintmap/shard-<index>`. Handy as a
    /// `TaintMapEndpointBuilder::backend` factory.
    ///
    /// # Errors
    ///
    /// ZooKeeper connection errors.
    pub fn connect_shard(vm: &Vm, zk_addr: NodeAddr, index: usize) -> Result<Self, ZkError> {
        Self::connect_at(vm, zk_addr, format!("{DEFAULT_ROOT}/shard-{index}"))
    }

    /// The tree root this backend reads and writes under.
    pub fn root(&self) -> &str {
        &self.root
    }

    fn read_u32(zk: &ZkClient, path: &str) -> Option<u32> {
        let bytes = zk.get(path).ok()?;
        let mut r = ByteReader::new(bytes.data());
        r.u32().ok().filter(|_| r.at_end())
    }

    fn write_u32(zk: &ZkClient, path: &str, value: u32) {
        let bytes = TaintedBytes::from_plain(value.to_be_bytes().to_vec());
        if zk.set(path, bytes.clone()).is_err() {
            let _ = zk.create(path, bytes);
        }
    }

    fn bump(zk: &ZkClient, path: &str) {
        Self::write_u32(zk, path, Self::read_u32(zk, path).unwrap_or(0) + 1);
    }
}

impl TaintMapBackend for ZkTaintMapBackend {
    fn bind(&self, id: u32, serialized: &[u8]) -> bool {
        let zk = self.zk.lock();
        let root = &self.root;
        let bytes = TaintedBytes::from_plain(serialized.to_vec());
        // First writer wins: `create` refuses an id that exists.
        if zk.create(&format!("{root}/id-{id}"), bytes).is_err() {
            return false;
        }
        // Probe the dedup index (collision chain): known bytes make the
        // id an alias, new ones a taint of their own.
        let hash = fnv64(serialized);
        for k in 0.. {
            let hash_path = format!("{root}/hash-{hash:016x}-{k}");
            let Some(first) = Self::read_u32(&zk, &hash_path) else {
                Self::write_u32(&zk, &hash_path, id);
                Self::bump(&zk, &format!("{root}/taints"));
                return true;
            };
            // Verify against the stored bytes (collision guard).
            let stored = zk.get(&format!("{root}/id-{first}"));
            if stored.is_ok_and(|b| b.data() == serialized) {
                Self::bump(&zk, &format!("{root}/aliases"));
                return true;
            }
            // Different bytes with the same hash: keep probing.
        }
        unreachable!("probe loop always returns")
    }

    fn lookup(&self, id: u32) -> Option<Vec<u8>> {
        let zk = self.zk.lock();
        zk.get(&format!("{}/id-{id}", self.root))
            .ok()
            .map(|b| b.into_plain())
    }

    fn raise_high_water(&self, id: u32) {
        let zk = self.zk.lock();
        let path = format!("{}/next", self.root);
        if id > Self::read_u32(&zk, &path).unwrap_or(0) {
            Self::write_u32(&zk, &path, id);
        }
    }

    fn max_local(&self) -> u32 {
        let zk = self.zk.lock();
        Self::read_u32(&zk, &format!("{}/next", self.root)).unwrap_or(0)
    }

    fn len(&self) -> u64 {
        let zk = self.zk.lock();
        Self::read_u32(&zk, &format!("{}/taints", self.root))
            .unwrap_or(0)
            .into()
    }

    fn aliases(&self) -> u64 {
        let zk = self.zk.lock();
        Self::read_u32(&zk, &format!("{}/aliases", self.root))
            .unwrap_or(0)
            .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ZkEnsemble, ZkEnsembleConfig};
    use dista_core::{Cluster, Mode};
    use dista_taint::TagValue;
    use dista_taintmap::TaintMapEndpoint;
    use std::sync::Arc;

    #[test]
    fn backend_dedups_and_roundtrips() {
        let cluster = Cluster::builder(Mode::Original)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
        let backend =
            ZkTaintMapBackend::connect(cluster.vm(0), ensemble.any_client_addr()).unwrap();
        backend.raise_high_water(8);
        backend.raise_high_water(3);
        assert_eq!(backend.max_local(), 8);
        assert!(backend.bind(1, b"taint-a"));
        assert!(backend.bind(2, b"taint-b"));
        assert!(
            !backend.bind(1, b"taint-b"),
            "the first writer of an id wins"
        );
        assert!(backend.bind(3, b"taint-a"), "known bytes: an alias");
        assert_eq!(backend.lookup(1).as_deref(), Some(b"taint-a".as_ref()));
        assert_eq!(backend.lookup(3), backend.lookup(1));
        assert_eq!(backend.lookup(999), None);
        // The census agrees with the in-memory backend's: taints, not ids.
        assert_eq!((backend.len(), backend.aliases()), (2, 1));
        ensemble.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn taint_map_state_survives_service_restart() {
        // The durability upgrade of §IV: the Taint Map process dies and
        // restarts, but its state lives in ZooKeeper.
        let cluster = Cluster::builder(Mode::Original)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
        let net = cluster.net().clone();
        let tm_addr = NodeAddr::new([10, 0, 0, 50], 7700);

        let backend = Arc::new(
            ZkTaintMapBackend::connect(cluster.vm(0), ensemble.any_client_addr()).unwrap(),
        );
        let server = TaintMapEndpoint::builder()
            .addr(tm_addr)
            .backend(move |_| backend.clone())
            .connect(&net)
            .unwrap();

        let store = dista_taint::TaintStore::new(dista_taint::LocalId::new([10, 0, 0, 1], 1));
        let client = server.client(&net, store.clone()).unwrap();
        let t = store.mint_source_taint(TagValue::str("durable"));
        let gid = client.global_id_for(t).unwrap();
        server.shutdown();

        // Restart the service on a fresh backend session — same ZK tree.
        let backend2 = Arc::new(
            ZkTaintMapBackend::connect(cluster.vm(0), ensemble.any_client_addr()).unwrap(),
        );
        let server2 = TaintMapEndpoint::builder()
            .addr(tm_addr)
            .backend(move |_| backend2.clone())
            .connect(&net)
            .unwrap();
        let store2 = dista_taint::TaintStore::new(dista_taint::LocalId::new([10, 0, 0, 2], 2));
        let client2 = server2.client(&net, store2.clone()).unwrap();
        let resolved = client2.taint_for(gid).unwrap();
        assert_eq!(store2.tag_values(resolved), vec!["durable".to_string()]);
        // And new leases continue from the persisted high-water.
        let t2 = store2.mint_source_taint(TagValue::str("fresh"));
        let gid2 = client2.global_id_for(t2).unwrap();
        assert!(gid2.0 > gid.0);
        server2.shutdown();
        ensemble.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn sharded_deployment_keeps_disjoint_zk_roots() {
        // Two shards share one ensemble but own separate tree roots;
        // batched registrations spread across them without collisions.
        let cluster = Cluster::builder(Mode::Original)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
        let net = cluster.net().clone();
        let vm = cluster.vm(0).clone();
        let zk_addr = ensemble.any_client_addr();

        let endpoint = TaintMapEndpoint::builder()
            .addr(NodeAddr::new([10, 0, 0, 50], 7700))
            .shards(2)
            .backend(move |i| Arc::new(ZkTaintMapBackend::connect_shard(&vm, zk_addr, i).unwrap()))
            .connect(&net)
            .unwrap();

        let store = dista_taint::TaintStore::new(dista_taint::LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        let taints: Vec<_> = (0..16)
            .map(|i| store.mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = client.global_ids_for(&taints).unwrap();

        let store2 = dista_taint::TaintStore::new(dista_taint::LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let resolved = client2.taints_for(&gids).unwrap();
        for (i, t) in resolved.iter().enumerate() {
            assert_eq!(store2.tag_values(*t), vec![i.to_string()]);
        }
        assert_eq!(endpoint.stats().global_taints, 16);
        // FNV routing spread the 16 distinct taints over both roots.
        assert!(endpoint.shard(0).stats().global_taints > 0);
        assert!(endpoint.shard(1).stats().global_taints > 0);
        endpoint.shutdown();
        ensemble.shutdown();
        cluster.shutdown();
    }
}
