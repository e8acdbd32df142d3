//! The Taint Map deployment handle: N shards, optional standbys,
//! optional write-ahead snapshots, one builder.
//!
//! [`TaintMapEndpoint`] owns the whole topology decision — shard count,
//! addresses, standbys — behind one builder:
//!
//! ```rust
//! use dista_simnet::SimNet;
//! use dista_taint::{LocalId, TagValue, TaintStore};
//! use dista_taintmap::TaintMapEndpoint;
//!
//! let net = SimNet::new();
//! let endpoint = TaintMapEndpoint::builder()
//!     .shards(4)
//!     .standby(true)
//!     .connect(&net)?;
//!
//! let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
//! let client = endpoint.client(&net, store.clone())?;
//! let taint = store.mint_source_taint(TagValue::str("t"));
//! let gid = client.global_id_for(taint)?;
//! assert_eq!(client.taint_for(gid)?, taint);
//! endpoint.shutdown();
//! # Ok::<(), dista_taintmap::TaintMapError>(())
//! ```
//!
//! Clients never see the shard layout: they receive a
//! [`TaintMapTopology`] (from [`TaintMapEndpoint::topology`]), lease the
//! gid for a taint from the shard its bytes hash to, and bind and look
//! up by id residue, all of which are deterministic across every VM in
//! the cluster.

use std::sync::Arc;

use dista_simnet::{NodeAddr, SimFs, SimNet};
use dista_taint::TaintStore;

use crate::backend::{InMemoryBackend, TaintMapBackend};
use crate::client::TaintMapClient;
use crate::error::TaintMapError;
use crate::server::{
    MovedRange, ServerStats, TaintMapConfig, TaintMapServer, TaintMapWal, CATCH_UP_RECORDS,
};
use crate::shard::{ClassTable, ShardRange, ShardSpec, TaintMapTopology};

/// Per-shard backend factory: shard index → storage.
type BackendFactory = dyn Fn(usize) -> Arc<dyn TaintMapBackend> + Send + Sync;

/// The redirect ranges a server at `addr` must answer `Moved` for: every
/// table range *after* the last one it owns. Ranges below its own need
/// no redirect — a split target holds a full copy of the lower records,
/// and taint records are immutable, so serving them is always correct.
fn moved_for(table: &ClassTable, addr: NodeAddr) -> Vec<MovedRange> {
    let Some(own) = table
        .ranges
        .iter()
        .rposition(|r| r.addrs.first() == Some(&addr))
    else {
        return Vec::new();
    };
    table.ranges[own + 1..]
        .iter()
        .map(|r| MovedRange {
            lo_gid: r.lo_gid,
            target: r.addrs[0],
        })
        .collect()
}

/// Ships the follower at `peer` everything `from` holds, one catch-up
/// step at a time.
fn catch_up_fully(from: &TaintMapServer, peer: NodeAddr) -> Result<(), TaintMapError> {
    while !from.caught_up(peer) {
        from.catch_up(peer, CATCH_UP_RECORDS)?;
    }
    Ok(())
}

/// Hands a shard back from its standby to its restarted `primary`,
/// which was launched refusing `BIND` (see
/// [`TaintMapEndpoint::restart_primary`]). On error the standby follows
/// no one and leases again; the caller stops the primary.
fn hand_back(standby: &TaintMapServer, primary: &TaintMapServer) -> Result<(), TaintMapError> {
    let handed = (|| {
        standby.replicate_to(primary.addr())?;
        catch_up_fully(standby, primary.addr())?;
        standby.set_following(true);
        catch_up_fully(standby, primary.addr())?;
        standby.unfollow(primary.addr());
        primary.replicate_to(standby.addr())?;
        catch_up_fully(primary, standby.addr())
    })();
    standby.unfollow(primary.addr());
    match handed {
        Ok(()) => primary.set_following(false),
        Err(_) => standby.set_following(false),
    }
    handed
}

/// Builder for a [`TaintMapEndpoint`]; see the module docs for an
/// example.
pub struct TaintMapEndpointBuilder {
    shards: usize,
    base_addr: NodeAddr,
    config: TaintMapConfig,
    standby: bool,
    backend: Option<Box<BackendFactory>>,
    snapshots: Option<SimFs>,
}

impl std::fmt::Debug for TaintMapEndpointBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaintMapEndpointBuilder")
            .field("shards", &self.shards)
            .field("base_addr", &self.base_addr)
            .field("standby", &self.standby)
            .finish()
    }
}

impl Default for TaintMapEndpointBuilder {
    fn default() -> Self {
        TaintMapEndpointBuilder {
            shards: 1,
            base_addr: NodeAddr::new([10, 0, 0, 99], 7777),
            config: TaintMapConfig::default(),
            standby: false,
            backend: None,
            snapshots: None,
        }
    }
}

impl TaintMapEndpointBuilder {
    /// Number of shards the Global ID namespace is partitioned across
    /// (default 1 — the paper's single service).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a taint map needs at least one shard");
        self.shards = n;
        self
    }

    /// Base service address. Shard `i` binds its primary at
    /// `port + 2*i` and its standby (if enabled) at `port + 2*i + 1`,
    /// all on the same host (default `10.0.0.99:7777`).
    pub fn addr(mut self, base: NodeAddr) -> Self {
        self.base_addr = base;
        self
    }

    /// Applies server tuning (the chaos knob of [`TaintMapConfig`]) to
    /// every shard.
    pub fn config(mut self, config: TaintMapConfig) -> Self {
        self.config = config;
        self
    }

    /// Spawns a standby per shard, wired for replication; clients fail
    /// over to it if the shard primary dies (§IV).
    pub fn standby(mut self, enabled: bool) -> Self {
        self.standby = enabled;
        self
    }

    /// Installs a per-shard storage backend factory (shard index →
    /// backend). The default is a fresh [`InMemoryBackend`] per
    /// instance. Each call must return a *distinct* store: shards (and a
    /// shard's primary/standby pair) must not share state through the
    /// backend.
    pub fn backend<F>(mut self, factory: F) -> Self
    where
        F: Fn(usize) -> Arc<dyn TaintMapBackend> + Send + Sync + 'static,
    {
        self.backend = Some(Box::new(factory));
        self
    }

    /// Gives every shard primary a write-ahead snapshot log on `fs`
    /// (`taintmap/shard-<i>.wal`): leases and new binds are appended
    /// before they are acknowledged, and
    /// [`TaintMapEndpoint::restart_primary`] replays the log into the
    /// relaunched primary, so an ungraceful crash loses no acknowledged
    /// bind and never leases an id twice.
    pub fn snapshots(mut self, fs: SimFs) -> Self {
        self.snapshots = Some(fs);
        self
    }

    /// Stands the deployment up on `net`: spawns every shard primary
    /// (and standby, when enabled), wires replication, and returns the
    /// handle.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if any shard address is already bound.
    pub fn connect(self, net: &SimNet) -> Result<TaintMapEndpoint, TaintMapError> {
        let mut endpoint = TaintMapEndpoint {
            net: net.clone(),
            base_addr: self.base_addr,
            shards: Vec::with_capacity(self.shards),
            splits: Vec::new(),
            tables: Vec::with_capacity(self.shards),
            tail_owner: (0..self.shards).collect(),
            active: None,
            splits_completed: 0,
            records_transferred: 0,
            config: self.config,
            backend: self.backend,
            snapshots: self.snapshots,
        };
        for i in 0..self.shards {
            let spec = ShardSpec {
                index: i as u32,
                count: self.shards as u32,
            };
            let primary_addr =
                NodeAddr::new(self.base_addr.ip(), self.base_addr.port() + 2 * i as u16);
            let primary = TaintMapServer::launch(
                net,
                primary_addr,
                self.config,
                endpoint.make_backend(i),
                spec,
                endpoint.wal_for(i),
                &i.to_string(),
                false,
            )?;
            let standby = if self.standby {
                let standby_addr = NodeAddr::new(
                    self.base_addr.ip(),
                    self.base_addr.port() + 2 * i as u16 + 1,
                );
                let standby = TaintMapServer::launch(
                    net,
                    standby_addr,
                    self.config,
                    endpoint.make_backend(i),
                    spec,
                    None,
                    &format!("{i}-standby"),
                    true,
                )?;
                primary.replicate_to(standby.addr())?;
                Some(standby)
            } else {
                None
            };
            endpoint
                .tables
                .push(ClassTable::initial(vec![primary_addr], i));
            endpoint.shards.push(Shard {
                primary: Some(primary),
                standby,
                spec,
                primary_addr,
            });
            endpoint.publish_levels(i);
        }
        Ok(endpoint)
    }
}

struct Shard {
    /// `None` while the primary is crashed (between
    /// [`TaintMapEndpoint::crash_primary`] and
    /// [`TaintMapEndpoint::restart_primary`]).
    primary: Option<TaintMapServer>,
    standby: Option<TaintMapServer>,
    spec: ShardSpec,
    primary_addr: NodeAddr,
}

/// A server stood up by a live split. It serves the upper gid range of
/// an existing residue class, addressed by its *extended* shard index
/// (`base_shard_count + k` for the k-th split), which the crash/restart
/// chaos plumbing accepts exactly like a base index.
struct SplitShard {
    /// `None` while crashed.
    server: Option<TaintMapServer>,
    addr: NodeAddr,
    class: usize,
    spec: ShardSpec,
}

/// The split currently migrating, if any (one at a time).
#[derive(Debug, Clone, Copy)]
struct ActiveSplit {
    class: usize,
    source_ext: usize,
    target_ext: usize,
    target: NodeAddr,
    lo_gid: u32,
}

/// Resharding counters the endpoint accumulates across splits.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReshardStats {
    /// Range migrations driven to cutover.
    pub splits_completed: u64,
    /// Records [`TaintMapEndpoint::split_step`] shipped to split
    /// targets, re-sent ones included: a copy whose connection dropped
    /// starts over from the first local id.
    pub records_transferred: u64,
    /// Current class-table epoch per residue class.
    pub class_epochs: Vec<u64>,
}

/// Handle to a running Taint Map deployment (all shards and standbys).
///
/// Dropping the handle shuts every instance down; [`TaintMapEndpoint::shutdown`]
/// does so explicitly.
pub struct TaintMapEndpoint {
    net: SimNet,
    base_addr: NodeAddr,
    shards: Vec<Shard>,
    splits: Vec<SplitShard>,
    /// Authoritative post-split routing table per residue class.
    tables: Vec<ClassTable>,
    /// Extended index of the server owning allocation for each class.
    tail_owner: Vec<usize>,
    active: Option<ActiveSplit>,
    splits_completed: u64,
    records_transferred: u64,
    config: TaintMapConfig,
    backend: Option<Box<BackendFactory>>,
    snapshots: Option<SimFs>,
}

impl std::fmt::Debug for TaintMapEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaintMapEndpoint")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl TaintMapEndpoint {
    /// Starts building a deployment.
    pub fn builder() -> TaintMapEndpointBuilder {
        TaintMapEndpointBuilder::default()
    }

    fn make_backend(&self, shard: usize) -> Arc<dyn TaintMapBackend> {
        match &self.backend {
            Some(factory) => factory(shard),
            None => Arc::new(InMemoryBackend::new()),
        }
    }

    fn wal_for(&self, shard: usize) -> Option<TaintMapWal> {
        self.snapshots
            .as_ref()
            .map(|fs| TaintMapWal::new(fs.clone(), format!("taintmap/shard-{shard}.wal")))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard layout clients connect with. Cheap to clone and pass to
    /// every VM builder. A crashed primary keeps its slot in the list
    /// (clients fail over to the standby, or retry until the primary is
    /// restarted at the same address).
    pub fn topology(&self) -> TaintMapTopology {
        TaintMapTopology::new(
            self.shards
                .iter()
                .map(|s| {
                    let mut addrs = vec![s.primary_addr];
                    if let Some(standby) = &s.standby {
                        addrs.push(standby.addr());
                    }
                    addrs
                })
                .collect(),
        )
    }

    /// Connects a client for `store` (a convenience over
    /// [`TaintMapClient::connect_topology`]).
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if some shard is unreachable.
    pub fn client(&self, net: &SimNet, store: TaintStore) -> Result<TaintMapClient, TaintMapError> {
        TaintMapClient::connect_topology(net, self.topology(), store)
    }

    /// The primary service address — only meaningful for single-shard
    /// deployments, where it is what `TaintMapServer::addr` used to
    /// return.
    ///
    /// # Panics
    ///
    /// Panics if the deployment has more than one shard (use
    /// [`TaintMapEndpoint::topology`] instead).
    pub fn addr(&self) -> NodeAddr {
        assert!(
            self.shards.len() == 1,
            "addr() is single-shard only; use topology()"
        );
        self.shards[0].primary_addr
    }

    /// The primary server handle at base or extended index `i` (census
    /// counters, manual replication wiring). Extended indices
    /// (`>= shard_count()`) address split servers in creation order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the primary is currently
    /// crashed.
    pub fn shard(&self, i: usize) -> &TaintMapServer {
        self.server_handle(i)
            .expect("shard primary is crashed; restart_primary() first")
    }

    fn server_handle(&self, ext: usize) -> Option<&TaintMapServer> {
        match ext.checked_sub(self.shards.len()) {
            None => self.shards[ext].primary.as_ref(),
            Some(k) => self.splits[k].server.as_ref(),
        }
    }

    /// The slot of the primary at base or extended index `ext`.
    fn server_slot(&mut self, ext: usize) -> &mut Option<TaintMapServer> {
        match ext.checked_sub(self.shards.len()) {
            None => &mut self.shards[ext].primary,
            Some(k) => &mut self.splits[k].server,
        }
    }

    /// Whether the primary at base or extended index `i` is currently
    /// crashed.
    pub fn primary_crashed(&self, i: usize) -> bool {
        self.server_handle(i).is_none()
    }

    /// Total number of servers (base shards + split servers); extended
    /// indices range over `0..server_count()`.
    pub fn server_count(&self) -> usize {
        self.shards.len() + self.splits.len()
    }

    /// The shard-`i` standby handle, if standbys were enabled.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn standby(&self, i: usize) -> Option<&TaintMapServer> {
        self.shards[i].standby.as_ref()
    }

    /// Kills the shard-`i` primary (severing all of its connections)
    /// and *promotes the standby into the primary slot* — the permanent
    /// failover drill. For a crash the primary will recover from, use
    /// [`TaintMapEndpoint::crash_primary`] /
    /// [`TaintMapEndpoint::restart_primary`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`, the primary is already
    /// crashed, or the shard has no standby.
    pub fn kill_primary(&mut self, i: usize) {
        let standby = self.shards[i].standby.take();
        let primary = self.shards[i].primary.take();
        let promoted = match standby {
            Some(s) => s,
            None => panic!("kill_primary without a standby leaves shard {i} unservable"),
        };
        promoted.set_following(false);
        self.shards[i].primary_addr = promoted.addr();
        self.shards[i].primary = Some(promoted);
        primary
            .expect("shard primary is already crashed")
            .shutdown();
    }

    /// Crashes the primary at base or extended index `i` ungracefully:
    /// every connection is severed and the address unbound, mid-flight
    /// requests get no response. The standby (if any) keeps serving, and
    /// leases until the primary is back; the WAL (if configured)
    /// survives for [`TaintMapEndpoint::restart_primary`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.server_count()` or the primary is already
    /// crashed.
    pub fn crash_primary(&mut self, i: usize) {
        let server = self.server_slot(i).take();
        server.expect("shard primary is already crashed").shutdown();
        if let Some(standby) = self.shards.get(i).and_then(|s| s.standby.as_ref()) {
            standby.set_following(false);
        }
    }

    /// Restarts a crashed primary (base or extended index `i`) at its
    /// original address on a fresh backend, replaying the write-ahead
    /// snapshot (when the deployment was built with
    /// [`TaintMapEndpointBuilder::snapshots`]) and installing the
    /// endpoint's authoritative class table. A shard with a standby is
    /// handed back: the primary comes up refusing `BIND` and follows the
    /// standby until it holds every lease and bind the standby took;
    /// then the standby stops leasing and follows the primary from
    /// cursor 0, and the primary serves. A failed step undoes them all:
    /// the new primary is stopped and the standby leases on. Returns the
    /// number of binds recovered from the snapshot + log.
    /// An interrupted outbound migration is *not* re-armed here —
    /// [`TaintMapEndpoint::heal_split`] does that.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if the address is still bound or the
    /// standby and the primary cannot reach each other.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.server_count()` or the primary is not
    /// crashed.
    pub fn restart_primary(&mut self, i: usize) -> Result<u64, TaintMapError> {
        assert!(
            self.primary_crashed(i),
            "restart_primary on a live server {i}"
        );
        let (addr, spec, class) = match i.checked_sub(self.shards.len()) {
            None => (self.shards[i].primary_addr, self.shards[i].spec, i),
            Some(k) => (
                self.splits[k].addr,
                self.splits[k].spec,
                self.splits[k].class,
            ),
        };
        let standby = self.shards.get(i).and_then(|s| s.standby.as_ref());
        let server = TaintMapServer::launch(
            &self.net,
            addr,
            self.config,
            self.make_backend(i),
            spec,
            self.wal_for(i),
            &i.to_string(),
            standby.is_some(),
        )?;
        // The endpoint's table is authoritative: it reflects every
        // cutover ever driven, including ones the WAL of *this* server
        // never saw (e.g. a split target that crashed pre-cutover).
        let table = self.tables[class].clone();
        let moved = moved_for(&table, addr);
        server.set_class_table(table, moved);
        if let Some(standby) = standby {
            if let Err(e) = hand_back(standby, &server) {
                server.shutdown();
                return Err(e);
            }
        }
        let replayed = server.replayed();
        *self.server_slot(i) = Some(server);
        Ok(replayed)
    }

    /// Phase 1 of a live split: stands a new server up for residue class
    /// `class`, picks the midpoint of the class's unallocated-side tail
    /// as the migration boundary, and makes the new server a follower of
    /// the current tail owner: it learns the owner's lease high-water,
    /// and every lease and bind is forwarded to it from here on. Returns
    /// the new server's extended index. Drive the copy with
    /// [`TaintMapEndpoint::split_step`] and finish with
    /// [`TaintMapEndpoint::finish_split`] (or use
    /// [`TaintMapEndpoint::split_shard`] for the whole protocol in one
    /// call).
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Protocol`] if a split is already in flight,
    /// [`TaintMapError::ShardUnavailable`] if the class's tail owner is
    /// crashed, [`TaintMapError::Net`] if the new address cannot bind.
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.shard_count()`.
    pub fn begin_split(&mut self, class: usize) -> Result<usize, TaintMapError> {
        if self.active.is_some() {
            return Err(TaintMapError::Protocol("a split is already in flight"));
        }
        let source_ext = self.tail_owner[class];
        let source = self
            .server_handle(source_ext)
            .ok_or(TaintMapError::ShardUnavailable(source_ext))?;
        let spec = ShardSpec {
            index: class as u32,
            count: self.shards.len() as u32,
        };
        // Split the tail range at the midpoint of its *allocated* part:
        // locals (t..=max_local] belong to the tail, the upper half (and
        // everything allocated after) migrates.
        let tail_lo = self.tables[class].tail().lo_gid;
        let t = spec
            .local_of_global(tail_lo)
            .expect("tail lo_gid belongs to its class");
        let max_local = source.max_local().max(t);
        let lo_gid = (t + (max_local - t) / 2)
            .checked_add(1)
            .and_then(|local| spec.global_of_local(local))
            .ok_or(TaintMapError::Protocol("no gid left above the split point"))?;
        let target_ext = self.shards.len() + self.splits.len();
        let addr = NodeAddr::new(
            self.base_addr.ip(),
            self.base_addr.port() + (2 * self.shards.len() + self.splits.len()) as u16,
        );
        let target = TaintMapServer::launch(
            &self.net,
            addr,
            self.config,
            self.make_backend(target_ext),
            spec,
            self.wal_for(target_ext),
            &target_ext.to_string(),
            false,
        )?;
        // Pre-cutover the target serves the *current* epoch, so clients
        // that discover it early are not rejected as stale.
        target.set_class_table(self.tables[class].clone(), Vec::new());
        if let Err(e) = source.replicate_to(addr) {
            target.shutdown();
            return Err(e);
        }
        self.splits.push(SplitShard {
            server: Some(target),
            addr,
            class,
            spec,
        });
        self.active = Some(ActiveSplit {
            class,
            source_ext,
            target_ext,
            target: addr,
            lo_gid,
        });
        Ok(target_ext)
    }

    /// Phase 2 of a live split: one catch-up step of the new server,
    /// which ships it up to `batch` records (at least one) past its
    /// cursor. Returns whether it is still behind (call again) — `false`
    /// means it has caught up and [`TaintMapEndpoint::finish_split`] can
    /// cut over.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Protocol`] if no split is in flight,
    /// [`TaintMapError::ShardUnavailable`] if the source is crashed
    /// (heal with [`TaintMapEndpoint::heal_split`]), [`TaintMapError::Net`]
    /// if the target died mid-batch.
    pub fn split_step(&mut self, batch: usize) -> Result<bool, TaintMapError> {
        let active = self
            .active
            .ok_or(TaintMapError::Protocol("no split in flight"))?;
        let source = self
            .server_handle(active.source_ext)
            .ok_or(TaintMapError::ShardUnavailable(active.source_ext))?;
        let sent = source.catch_up(active.target, batch)?;
        let lagging = !source.caught_up(active.target);
        self.records_transferred += sent;
        self.publish_levels(active.class);
        Ok(lagging)
    }

    /// Phase 3 of a live split: drains any remaining copy work, then
    /// cuts over — the source atomically stops allocating in the
    /// migrated range, the class table gains a range and an epoch, and
    /// every live server of the class adopts the new table (a client
    /// with a stale epoch is redirected to it). Returns the class's new
    /// epoch.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Protocol`] if no split is in flight,
    /// [`TaintMapError::ShardUnavailable`] /
    /// [`TaintMapError::Net`] if either side is crashed (heal with
    /// [`TaintMapEndpoint::heal_split`], then call again).
    pub fn finish_split(&mut self) -> Result<u64, TaintMapError> {
        let active = self
            .active
            .ok_or(TaintMapError::Protocol("no split in flight"))?;
        while self.split_step(CATCH_UP_RECORDS)? {}
        let source = self
            .server_handle(active.source_ext)
            .ok_or(TaintMapError::ShardUnavailable(active.source_ext))?;
        let mut table = self.tables[active.class].clone();
        table.epoch += 1;
        table.ranges.push(ShardRange {
            lo_gid: active.lo_gid,
            addrs: vec![active.target],
        });
        source.cutover(table.clone())?;
        let epoch = table.epoch;
        self.tables[active.class] = table;
        self.tail_owner[active.class] = active.target_ext;
        self.splits_completed += 1;
        self.active = None;
        self.push_class_table(active.class);
        self.publish_levels(active.class);
        Ok(epoch)
    }

    /// Runs the whole three-phase split protocol for `class` in one
    /// call: [`TaintMapEndpoint::begin_split`], copy to completion,
    /// [`TaintMapEndpoint::finish_split`]. Returns the new server's
    /// extended index.
    ///
    /// # Errors
    ///
    /// As the three phases; a failed split stays in flight for
    /// [`TaintMapEndpoint::heal_split`] + [`TaintMapEndpoint::finish_split`].
    pub fn split_shard(&mut self, class: usize) -> Result<usize, TaintMapError> {
        let ext = self.begin_split(class)?;
        self.finish_split()?;
        Ok(ext)
    }

    /// Repairs an interrupted split after chaos crashed either side (or
    /// both): restarts whichever of source/target is down (recovering
    /// their WALs) and makes the target a follower of the source again,
    /// on a fresh connection from cursor 0. After a successful heal,
    /// [`TaintMapEndpoint::finish_split`] completes the split. No-op
    /// when no split is in flight.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if a restart cannot bind or the source
    /// cannot reach the target.
    pub fn heal_split(&mut self) -> Result<(), TaintMapError> {
        let Some(active) = self.active else {
            return Ok(());
        };
        for ext in [active.target_ext, active.source_ext] {
            if self.primary_crashed(ext) {
                self.restart_primary(ext)?;
            }
        }
        self.server_handle(active.source_ext)
            .ok_or(TaintMapError::ShardUnavailable(active.source_ext))?
            .replicate_to(active.target)
    }

    /// The in-flight split as `(source_ext, target_ext)` extended
    /// indices, if any — what chaos schedules crash.
    pub fn active_split(&self) -> Option<(usize, usize)> {
        self.active.map(|a| (a.source_ext, a.target_ext))
    }

    /// Whether the in-flight split's target is still behind its source:
    /// not connected, or short of the source's lease high-water.
    /// `false` with a split in flight means
    /// [`TaintMapEndpoint::finish_split`] can cut over without further
    /// [`TaintMapEndpoint::split_step`] work. Also `true` while the
    /// source is crashed — heal first.
    pub fn split_lagging(&self) -> bool {
        self.active.is_some_and(|a| {
            self.server_handle(a.source_ext)
                .is_none_or(|source| !source.caught_up(a.target))
        })
    }

    /// The authoritative routing table for residue class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.shard_count()`.
    pub fn class_table(&self, class: usize) -> &ClassTable {
        &self.tables[class]
    }

    /// Folds the WAL of the server at base or extended index `i` into a
    /// fresh snapshot and truncates the log, bounding its next restart's
    /// replay by live records. Returns the number of records
    /// snapshotted.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::ShardUnavailable`] if that primary is crashed,
    /// [`TaintMapError::Protocol`] if the deployment has no snapshots
    /// ([`TaintMapEndpointBuilder::snapshots`]).
    pub fn compact_shard(&self, i: usize) -> Result<u64, TaintMapError> {
        self.server_handle(i)
            .ok_or(TaintMapError::ShardUnavailable(i))?
            .compact()
    }

    /// Publishes the levels a split step or cutover of `class` changed
    /// to their `node="taintmap"` gauges in the network's registry,
    /// where the deployment's telemetry agent picks them up.
    fn publish_levels(&self, class: usize) {
        let reg = self.net.registry();
        let node = ("node", "taintmap");
        reg.gauge_with("taintmap_splits_completed", &[node])
            .set(self.splits_completed as f64);
        reg.gauge_with("taintmap_records_transferred", &[node])
            .set(self.records_transferred as f64);
        reg.gauge_with(
            "taintmap_class_epoch",
            &[node, ("class", &class.to_string())],
        )
        .set(self.tables[class].epoch as f64);
    }

    /// Resharding counters accumulated by the endpoint.
    pub fn reshard_stats(&self) -> ReshardStats {
        ReshardStats {
            splits_completed: self.splits_completed,
            records_transferred: self.records_transferred,
            class_epochs: self.tables.iter().map(|t| t.epoch).collect(),
        }
    }

    /// Installs the class's authoritative table (and the per-server
    /// redirect ranges derived from it) on every live server of the
    /// class. The base shard's standby takes its primary's ranges: once
    /// it leases in the primary's place, it must not lease a range a
    /// split took away.
    fn push_class_table(&self, class: usize) {
        let table = &self.tables[class];
        let base = &self.shards[class];
        let standby = base.standby.as_ref().map(|s| (s, base.primary_addr));
        let splits = self
            .splits
            .iter()
            .filter(|s| s.class == class)
            .filter_map(|s| s.server.as_ref());
        let servers = base.primary.iter().chain(splits).map(|s| (s, s.addr()));
        for (server, owner) in servers.chain(standby) {
            server.set_class_table(table.clone(), moved_for(table, owner));
        }
    }

    /// Census counters summed across every live primary — base shards
    /// and split servers (crashed primaries contribute nothing until
    /// restarted). After a split, `global_taints` counts the migrated
    /// records on *both* sides (the copy phase ships the full record set
    /// so byte-identity dedup keeps working), so the sum overstates the
    /// number of distinct taints by the copied overlap.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        let live_shards = self.shards.iter().filter_map(|s| s.primary.as_ref());
        let live_splits = self.splits.iter().filter_map(|s| s.server.as_ref());
        for server in live_shards.chain(live_splits) {
            let s = server.stats();
            total.global_taints += s.global_taints;
            total.aliases += s.aliases;
            total.bind_requests += s.bind_requests;
            total.lookup_requests += s.lookup_requests;
            total.batch_frames += s.batch_frames;
            total.moved_redirects += s.moved_redirects;
            total.stale_epochs += s.stale_epochs;
            total.double_writes += s.double_writes;
            total.compactions += s.compactions;
        }
        total
    }

    /// Stops every server (primaries, standbys, and split servers).
    pub fn shutdown(self) {
        for shard in self.shards {
            if let Some(primary) = shard.primary {
                primary.shutdown();
            }
            if let Some(standby) = shard.standby {
                standby.shutdown();
            }
        }
        for split in self.splits {
            if let Some(server) = split.server {
                server.shutdown();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_taint::{LocalId, TagValue};

    #[test]
    fn builder_defaults_match_the_old_single_server() {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        assert_eq!(endpoint.shard_count(), 1);
        assert_eq!(endpoint.addr(), NodeAddr::new([10, 0, 0, 99], 7777));
        assert_eq!(endpoint.topology().shard_addrs(0).len(), 1);
        endpoint.shutdown();
    }

    #[test]
    fn sharded_deployment_binds_distinct_addresses() {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder()
            .shards(3)
            .standby(true)
            .connect(&net)
            .unwrap();
        let topology = endpoint.topology();
        let mut all: Vec<NodeAddr> = (0..3)
            .flat_map(|i| topology.shard_addrs(i).to_vec())
            .collect();
        assert_eq!(all.len(), 6, "3 primaries + 3 standbys");
        all.dedup();
        all.sort_by_key(|a| (a.ip(), a.port()));
        all.dedup();
        assert_eq!(all.len(), 6, "no address reuse");
        endpoint.shutdown();
    }

    #[test]
    fn cross_shard_register_and_lookup_roundtrip() {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder().shards(4).connect(&net).unwrap();
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();

        let mut gids = Vec::new();
        for i in 0..32 {
            let t = store1.mint_source_taint(TagValue::Int(i));
            gids.push((i, client1.global_id_for(t).unwrap()));
        }
        for (i, gid) in gids {
            let t = client2.taint_for(gid).unwrap();
            assert_eq!(store2.tag_values(t), vec![i.to_string()]);
        }
        assert_eq!(endpoint.stats().global_taints, 32);
        // With 32 distinct taints and FNV routing, more than one shard
        // must have taken registrations.
        let loaded = (0..4)
            .filter(|&i| endpoint.shard(i).stats().global_taints > 0)
            .count();
        assert!(loaded > 1, "hash routing should spread load across shards");
        endpoint.shutdown();
    }

    #[test]
    fn crash_and_restart_recovers_from_the_snapshot() {
        let net = SimNet::new();
        let fs = dista_simnet::SimFs::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .snapshots(fs)
            .connect(&net)
            .unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        let t = store.mint_source_taint(TagValue::str("durable"));
        let gid = client.global_id_for(t).unwrap();

        endpoint.crash_primary(0);
        let replayed = endpoint.restart_primary(0).unwrap();
        assert_eq!(replayed, 1);

        // A fresh VM resolves the pre-crash id from the reborn primary.
        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let resolved = client2.taint_for(gid).unwrap();
        assert_eq!(store2.tag_values(resolved), vec!["durable".to_string()]);
        endpoint.shutdown();
    }

    #[test]
    fn split_shard_migrates_the_tail_and_bumps_the_epoch() {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        for i in 0..16 {
            let t = store.mint_source_taint(TagValue::Int(i));
            client.global_id_for(t).unwrap();
        }

        let ext = endpoint.split_shard(0).unwrap();
        assert_eq!(ext, 1);
        assert_eq!(endpoint.server_count(), 2);
        let table = endpoint.class_table(0);
        assert_eq!(table.epoch, 1);
        assert_eq!(table.ranges.len(), 2);
        // The copy shipped the full record set: the target can serve
        // every gid, old range included.
        assert_eq!(endpoint.shard(1).stats().global_taints, 16);
        assert_eq!(endpoint.shard(0).epoch(), 1);
        assert_eq!(endpoint.shard(1).epoch(), 1);
        let rs = endpoint.reshard_stats();
        assert_eq!(rs.splits_completed, 1);
        assert_eq!(rs.records_transferred, 16);
        assert_eq!(rs.class_epochs, vec![1]);
        assert!(endpoint.active_split().is_none());
        endpoint.shutdown();
    }

    #[test]
    fn chained_splits_move_the_tail_owner_forward() {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder().shards(2).connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        for i in 0..24 {
            let t = store.mint_source_taint(TagValue::Int(i));
            client.global_id_for(t).unwrap();
        }
        // Split class 0 twice: the second split's source is the first
        // split's target (the new tail owner), not the base shard.
        let first = endpoint.split_shard(0).unwrap();
        let copied_once = endpoint.reshard_stats().records_transferred;
        let second = endpoint.split_shard(0).unwrap();
        assert_eq!((first, second), (2, 3));
        let table = endpoint.class_table(0);
        assert_eq!(table.epoch, 2);
        assert_eq!(table.ranges.len(), 3);
        assert!(
            table.ranges.windows(2).all(|w| w[0].lo_gid < w[1].lo_gid),
            "ranges stay sorted: {table:?}"
        );
        // The second split's source, the first split's target, copied
        // every record it holds: its own and the ones it was copied.
        assert_eq!(
            endpoint.reshard_stats().records_transferred - copied_once,
            endpoint.shard(2).stats().global_taints
        );
        assert_eq!(endpoint.class_table(1).epoch, 0, "class 1 untouched");
        endpoint.shutdown();
    }

    #[test]
    fn split_survives_a_target_crash_between_phases() {
        let net = SimNet::new();
        let fs = dista_simnet::SimFs::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .snapshots(fs)
            .connect(&net)
            .unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        for i in 0..8 {
            let t = store.mint_source_taint(TagValue::Int(i));
            client.global_id_for(t).unwrap();
        }
        let ext = endpoint.begin_split(0).unwrap();
        while endpoint.split_step(2).unwrap() {}
        // Chaos: the target dies after the copy caught up but before
        // cutover. heal restarts it from its WAL and re-arms the copy on
        // a fresh connection; finish copies again from cursor 0 and cuts
        // over.
        endpoint.crash_primary(ext);
        assert!(endpoint.primary_crashed(ext));
        endpoint.heal_split().unwrap();
        endpoint.finish_split().unwrap();
        assert_eq!(endpoint.class_table(0).epoch, 1);
        assert_eq!(endpoint.shard(ext).stats().global_taints, 8);
        endpoint.shutdown();
    }

    #[test]
    fn a_zero_record_split_step_still_finishes_the_copy() {
        // A batch of 0 used to ship an empty batch without moving the
        // copy's position, so `split_step(0)` reported more work forever.
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        for i in 0..8 {
            client
                .global_id_for(store.mint_source_taint(TagValue::Int(i)))
                .unwrap();
        }
        endpoint.begin_split(0).unwrap();
        let caught_up = (0..100).any(|_| !endpoint.split_step(0).unwrap());
        assert!(caught_up, "the copy never caught up");
        endpoint.finish_split().unwrap();
        assert_eq!(endpoint.reshard_stats().records_transferred, 8);
        endpoint.shutdown();
    }

    #[test]
    fn kill_primary_promotes_the_standby_in_the_handle() {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .shards(2)
            .standby(true)
            .connect(&net)
            .unwrap();
        let standby_addr = endpoint.standby(0).unwrap().addr();
        endpoint.kill_primary(0);
        assert_eq!(endpoint.shard(0).addr(), standby_addr);
        assert!(endpoint.standby(0).is_none());
        endpoint.shutdown();
    }
}
