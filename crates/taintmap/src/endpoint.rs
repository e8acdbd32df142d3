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
use crate::server::{ServerStats, TaintMapConfig, TaintMapServer, TaintMapWal, CATCH_UP_RECORDS};
use crate::shard::{ClassTable, ShardRange, ShardSpec, TaintMapTopology};

/// Per-shard backend factory: shard index → storage.
type BackendFactory = dyn Fn(usize) -> Arc<dyn TaintMapBackend> + Send + Sync;

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

    /// Gives every server a write-ahead snapshot log of its own on `fs`,
    /// named by its role: `taintmap/shard-<i>.wal` for the primary at
    /// base or extended index `i`, `taintmap/shard-<i>-standby.wal` for
    /// shard `i`'s standby. Leases and new binds are appended before
    /// they are acknowledged, and [`TaintMapEndpoint::restart_primary`]
    /// replays the log of the server that held the slot — a promoted
    /// standby's own — into the relaunched one, so an ungraceful crash
    /// loses no acknowledged bind and never leases an id twice.
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
        let (ip, port, standby) = (self.base_addr.ip(), self.base_addr.port(), self.standby);
        let failover = |i: usize| {
            let primary = NodeAddr::new(ip, port + 2 * i as u16);
            match standby {
                true => vec![primary, NodeAddr::new(ip, primary.port() + 1)],
                false => vec![primary],
            }
        };
        let mut endpoint = TaintMapEndpoint {
            net: net.clone(),
            base_addr: self.base_addr,
            primaries: Vec::with_capacity(self.shards),
            standbys: Vec::with_capacity(self.shards),
            tables: (0..self.shards)
                .map(|i| ClassTable::initial(failover(i), i))
                .collect(),
            active: None,
            splits_completed: 0,
            records_transferred: 0,
            config: self.config,
            backend: self.backend,
            snapshots: self.snapshots,
        };
        for i in 0..self.shards {
            let addrs = endpoint.tables[i].ranges[0].addrs.clone();
            let label = i.to_string();
            let primary = endpoint.launch(i, i, addrs[0], &label, false)?;
            let standby = match addrs.get(1) {
                Some(&addr) => {
                    let standby = endpoint.launch(i, i, addr, &format!("{i}-standby"), true)?;
                    primary.replicate_to(addr)?;
                    Some(standby)
                }
                None => None,
            };
            endpoint.primaries.push(Primary {
                server: Some(primary),
                addr: addrs[0],
                class: i,
                label,
            });
            endpoint.standbys.push(standby);
            endpoint.publish_levels(i);
        }
        Ok(endpoint)
    }
}

/// A primary by *extended* index: a base shard's (`0..shard_count()`)
/// or, after them in creation order, the server a live split stood up
/// for the upper gid range of an existing class. The crash/restart
/// chaos plumbing takes either kind of index alike.
struct Primary {
    /// `None` while crashed (between
    /// [`TaintMapEndpoint::crash_primary`] and
    /// [`TaintMapEndpoint::restart_primary`]).
    server: Option<TaintMapServer>,
    /// Where it serves and is restarted; a range of its class table
    /// names it.
    addr: NodeAddr,
    class: usize,
    /// Names its registry counters and its log: its extended index, or
    /// `<i>-standby` once shard `i`'s standby was promoted here.
    label: String,
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
    /// Every primary by extended index: base shards first, then split
    /// servers.
    primaries: Vec<Primary>,
    /// Each base shard's standby, while it has one.
    standbys: Vec<Option<TaintMapServer>>,
    /// Authoritative routing table per residue class. Range 0 names the
    /// base primary and its standby; the tail range names the server
    /// that allocates.
    tables: Vec<ClassTable>,
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
            .field("shards", &self.tables.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl TaintMapEndpoint {
    /// Starts building a deployment.
    pub fn builder() -> TaintMapEndpointBuilder {
        TaintMapEndpointBuilder::default()
    }

    /// Launches a server of `class` at `addr`, on the backend the
    /// factory makes for `index`, with the log named by `label`.
    fn launch(
        &self,
        index: usize,
        class: usize,
        addr: NodeAddr,
        label: &str,
        following: bool,
    ) -> Result<TaintMapServer, TaintMapError> {
        let spec = ShardSpec {
            index: class as u32,
            count: self.tables.len() as u32,
        };
        let wal = self
            .snapshots
            .as_ref()
            .map(|fs| TaintMapWal::new(fs.clone(), format!("taintmap/shard-{label}.wal")));
        let backend: Arc<dyn TaintMapBackend> = match &self.backend {
            Some(factory) => factory(index),
            None => Arc::new(InMemoryBackend::new()),
        };
        TaintMapServer::launch(
            &self.net,
            addr,
            self.config,
            backend,
            spec,
            wal,
            label,
            following,
        )
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.tables.len()
    }

    /// The shard layout clients connect with: each class's first
    /// failover list, its base primary then its standby. Cheap to clone
    /// and pass to every VM builder. A crashed or killed primary keeps
    /// its place in the list (clients fail over to the standby, or retry
    /// until the primary is restarted at the same address).
    pub fn topology(&self) -> TaintMapTopology {
        TaintMapTopology::new(
            self.tables
                .iter()
                .map(|t| t.ranges[0].addrs.clone())
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
            self.tables.len() == 1,
            "addr() is single-shard only; use topology()"
        );
        self.primaries[0].addr
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
        self.primaries[i]
            .server
            .as_ref()
            .expect("shard primary is crashed; restart_primary() first")
    }

    /// The live primary at base or extended index `ext`.
    fn live(&self, ext: usize) -> Result<&TaintMapServer, TaintMapError> {
        self.primaries[ext]
            .server
            .as_ref()
            .ok_or(TaintMapError::ShardUnavailable(ext))
    }

    /// Whether the primary at base or extended index `i` is currently
    /// crashed.
    pub fn primary_crashed(&self, i: usize) -> bool {
        self.primaries[i].server.is_none()
    }

    /// Total number of servers (base shards + split servers); extended
    /// indices range over `0..server_count()`.
    pub fn server_count(&self) -> usize {
        self.primaries.len()
    }

    /// The shard-`i` standby handle, if standbys were enabled.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`.
    pub fn standby(&self, i: usize) -> Option<&TaintMapServer> {
        self.standbys[i].as_ref()
    }

    /// Kills the shard-`i` primary (severing all of its connections)
    /// and *promotes the standby into the primary slot* — the permanent
    /// failover drill. The class table is unchanged: its range 0 names
    /// the standby already. A later restart of the slot replays the
    /// standby's own log. For a crash the primary will recover from, use
    /// [`TaintMapEndpoint::crash_primary`] /
    /// [`TaintMapEndpoint::restart_primary`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.shard_count()`, the primary is already
    /// crashed, or the shard has no standby.
    pub fn kill_primary(&mut self, i: usize) {
        let Some(promoted) = self.standbys[i].take() else {
            panic!("kill_primary without a standby leaves shard {i} unservable");
        };
        promoted.set_following(false);
        let slot = &mut self.primaries[i];
        slot.addr = promoted.addr();
        slot.label = format!("{i}-standby");
        let primary = slot.server.replace(promoted);
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
        let server = self.primaries[i].server.take();
        server.expect("shard primary is already crashed").shutdown();
        if let Some(standby) = self.standbys.get(i).and_then(Option::as_ref) {
            standby.set_following(false);
        }
    }

    /// Restarts a crashed primary (base or extended index `i`) at its
    /// address on a fresh backend, replaying the log of the server that
    /// held the slot (when the deployment was built with
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
        let slot = &self.primaries[i];
        assert!(
            slot.server.is_none(),
            "restart_primary on a live server {i}"
        );
        let standby = self.standbys.get(i).and_then(Option::as_ref);
        let server = self.launch(i, slot.class, slot.addr, &slot.label, standby.is_some())?;
        // The endpoint's table is authoritative: it reflects every
        // cutover ever driven, including ones the WAL of *this* server
        // never saw (e.g. a split target that crashed pre-cutover).
        server.set_class_table(self.tables[slot.class].clone());
        if let Some(standby) = standby {
            if let Err(e) = hand_back(standby, &server) {
                server.shutdown();
                return Err(e);
            }
        }
        let replayed = server.replayed();
        self.primaries[i].server = Some(server);
        Ok(replayed)
    }

    /// Phase 1 of a live split: stands a new server up for residue class
    /// `class`, picks the midpoint of the class's unallocated-side tail
    /// as the migration boundary, and makes the new server a follower of
    /// the server the class table's tail range names, which allocates:
    /// it learns that server's lease high-water,
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
    /// [`TaintMapError::ShardUnavailable`] if the server of the class's
    /// tail range is crashed, [`TaintMapError::Net`] if the new address cannot bind.
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.shard_count()`.
    pub fn begin_split(&mut self, class: usize) -> Result<usize, TaintMapError> {
        if self.active.is_some() {
            return Err(TaintMapError::Protocol("a split is already in flight"));
        }
        let tail = self.tables[class].tail();
        let source_ext = self
            .primaries
            .iter()
            .position(|p| p.class == class && tail.addrs.contains(&p.addr))
            .expect("the tail range names a primary of its class");
        let source = self.live(source_ext)?;
        let spec = ShardSpec {
            index: class as u32,
            count: self.tables.len() as u32,
        };
        // Split the tail range at the midpoint of its *allocated* part:
        // locals (t..=max_local] belong to the tail, the upper half (and
        // everything allocated after) migrates.
        let t = spec
            .local_of_global(tail.lo_gid)
            .expect("tail lo_gid belongs to its class");
        let max_local = source.max_local().max(t);
        let lo_gid = (t + (max_local - t) / 2)
            .checked_add(1)
            .and_then(|local| spec.global_of_local(local))
            .ok_or(TaintMapError::Protocol("no gid left above the split point"))?;
        // After the base primaries and standbys, one port per split.
        let target_ext = self.primaries.len();
        let addr = NodeAddr::new(
            self.base_addr.ip(),
            self.base_addr.port() + (self.tables.len() + target_ext) as u16,
        );
        let label = target_ext.to_string();
        let target = self.launch(target_ext, class, addr, &label, false)?;
        // Pre-cutover the target serves the *current* epoch, so clients
        // that discover it early are not rejected as stale; no range
        // names it yet, so it redirects nothing.
        target.set_class_table(self.tables[class].clone());
        if let Err(e) = source.replicate_to(addr) {
            target.shutdown();
            return Err(e);
        }
        self.primaries.push(Primary {
            server: Some(target),
            addr,
            class,
            label,
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
        let source = self.live(active.source_ext)?;
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
        let source = self.live(active.source_ext)?;
        let mut table = self.tables[active.class].clone();
        table.epoch += 1;
        table.ranges.push(ShardRange {
            lo_gid: active.lo_gid,
            addrs: vec![active.target],
        });
        source.cutover(table.clone())?;
        let epoch = table.epoch;
        self.tables[active.class] = table;
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
        self.live(active.source_ext)?.replicate_to(active.target)
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
            !self
                .live(a.source_ext)
                .is_ok_and(|source| source.caught_up(a.target))
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
        self.live(i)?.compact()
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

    /// Installs the class's authoritative table on every live server of
    /// the class and on its standby, each of which reads from it the
    /// ranges it has handed away. The standby finds itself in range 0's
    /// failover list: once it leases in the primary's place, it must not
    /// lease a range a split took away.
    fn push_class_table(&self, class: usize) {
        let table = &self.tables[class];
        let primaries = self.primaries.iter().filter(|p| p.class == class);
        let live = primaries.filter_map(|p| p.server.as_ref());
        for server in live.chain(self.standbys[class].as_ref()) {
            server.set_class_table(table.clone());
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
        for server in self.primaries.iter().filter_map(|p| p.server.as_ref()) {
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
        let primaries = self.primaries.into_iter().filter_map(|p| p.server);
        for server in primaries.chain(self.standbys.into_iter().flatten()) {
            server.shutdown();
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
    fn chained_splits_move_allocation_to_the_newest_range() {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder().shards(2).connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        for i in 0..24 {
            let t = store.mint_source_taint(TagValue::Int(i));
            client.global_id_for(t).unwrap();
        }
        // Split class 0 twice: the second split's source is the first
        // split's target, which the tail range names, not the base shard.
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
