//! The Taint Map server process — one *shard* of the service.
//!
//! A [`TaintMapServer`] owns one slice of the statically partitioned
//! Global ID namespace (see [`ShardSpec`]): it leases dense local ids in
//! blocks and stretches them onto the shard's arithmetic progression, so
//! shards never coordinate on registration. A client binds each leased
//! gid to its serialized taint later, in batches. Deployments are stood
//! up through [`crate::TaintMapEndpoint`], which picks addresses and
//! shard specs so the id namespaces can never overlap.
//!
//! For crash recovery a shard can be given a [`TaintMapWal`]: an
//! append-only log on the simulated file system, written before a lease
//! or a bind is acknowledged and replayed on relaunch, so an ungraceful
//! primary death loses no acknowledged (or even in-flight committed)
//! bind, and never leases an id twice. The log is *tagged*: besides
//! data and lease records it carries cutover markers, so a restarted
//! split source keeps redirecting the range it gave away, and it is
//! folded into `snapshot-<n>` files ([`TaintMapServer::compact`]) so
//! restart replay is bounded by *live* gids rather than registration
//! history. A torn snapshot (crash mid-write) falls back to the previous
//! snapshot plus the still-untruncated log tail.
//!
//! A server keeps its peers current through *followers*: a standby, a
//! split's target, and a restarted primary taking its standby's records
//! back are each a peer address, a connection and a cursor into the
//! server's local ids. Every commit is forwarded to a connected
//! follower, a catch-up step ships the records past its cursor, and a
//! failed ship drops the connection, so the next one starts over at 0.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dista_obs::Counter;
use dista_simnet::{NodeAddr, ServerHandle, SimFs, SimNet, TcpEndpoint, TcpServer};
use dista_taint::{ByteReader, ReadError};
use parking_lot::Mutex;

use crate::backend::{TaintMapBackend, WIRE_RESERVED_GIDS};
use crate::error::TaintMapError;
use crate::proto::{
    addr, encode_class_table, push_record, read_frame, read_record, write_frame, LEASE_IDS,
    OP_BIND, OP_LOOKUP, OP_REPLICATE, RESP_ERR, RESP_MOVED, RESP_OK, STATUS_OK, STATUS_TAKEN,
    STATUS_UNKNOWN, STATUS_UNLEASED,
};
use crate::shard::{ClassTable, ShardRange, ShardSpec};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaintMapConfig {
    /// Chaos knob: die ungracefully once this many bind items have been
    /// served. The fatal frame is committed (backend, WAL, replication)
    /// but its response frame is never written — the
    /// deterministic stand-in for a process killed between commit and
    /// reply, used by the crash-recovery tests. `None` = never.
    pub crash_after_registers: Option<u64>,
}

/// A gid range this server used to own and has migrated away: gids of
/// this server's residue class at or above `lo_gid` now live on
/// `target`, and requests touching them are answered with a `Moved`
/// redirect carrying the server's current [`ClassTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovedRange {
    /// First migrated Global ID (inclusive).
    pub lo_gid: u32,
    /// Primary address of the shard that owns the range now.
    pub target: NodeAddr,
}

/// What a [`TaintMapWal`] recovery reconstructed, beyond the backend
/// contents: how much work replay cost (the restart-cost gate reads
/// these) and the cutovers on record.
#[derive(Debug, Clone, Default)]
pub struct WalRecovery {
    /// Data records restored from the newest intact snapshot.
    pub snapshot_records: u64,
    /// Data records replayed from the WAL tail.
    pub wal_data_records: u64,
    /// Total WAL records scanned (data + markers).
    pub wal_records_scanned: u64,
    /// Snapshots skipped because they were torn (crash mid-write).
    pub torn_snapshots: u64,
    /// Class-table epoch as of the last cutover on record.
    pub epoch: u64,
    /// Ranges this server had migrated away before the crash.
    pub moved: Vec<MovedRange>,
}

const REC_DATA: u8 = 1;
const REC_CUTOVER: u8 = 4;
const REC_LEASE: u8 = 5;

/// Records one catch-up step ships at most: a commit that finds a
/// follower behind ships it one such batch, and the endpoint drives a
/// split's copy and a restart in batches of this size.
pub(crate) const CATCH_UP_RECORDS: usize = 1024;

/// How far one replicated lease record may raise a receiver's
/// high-water: one block, plus the wire-reserved ids a block skips. A
/// record that asks for more is refused, so a hostile one moves the
/// high-water no further than a lease request could.
const MAX_LEASE_SPAN: u32 = LEASE_IDS + WIRE_RESERVED_GIDS.len() as u32;

const SNAP_MAGIC: [u8; 4] = *b"TMSN";
const SNAP_TRAILER: [u8; 4] = *b"SNEN";

/// The backend-local id a record that names `gid` from outside — a
/// bind, a replicated or copied record, a WAL or snapshot record — is
/// stored under: `None` if `gid` is another shard's, one the wire
/// grammar reserves ([`WIRE_RESERVED_GIDS`]), or one above `high_water`
/// that this shard never leased.
fn leased_local(shard: ShardSpec, high_water: u32, gid: u32) -> Option<u32> {
    if WIRE_RESERVED_GIDS.contains(&gid) {
        return None;
    }
    shard
        .local_of_global(gid)
        .filter(|&local| local <= high_water)
}

/// Appends a data record (`gid` bound to a serialized taint) in the WAL
/// format replication also ships.
fn push_data(out: &mut Vec<u8>, gid: u32, serialized: &[u8]) {
    out.push(REC_DATA);
    push_record(out, gid, serialized);
}

/// Appends a lease record: the high-water (a local id) after a lease.
fn push_lease(out: &mut Vec<u8>, local: u32) {
    out.push(REC_LEASE);
    out.extend_from_slice(&local.to_be_bytes());
}

/// Write-ahead log for one shard primary: an append-only sequence of
/// tagged records on the simulated file system. Lease records
/// (`tag 5, high-water local id u32 BE`) and data records
/// (`tag 1, gid u32 BE, len u32 BE, len bytes`) are appended before the
/// frame that made them is acknowledged, and a cutover record
/// (`tag 4, epoch u64, lo_gid u32, target ip:4 port:u16`) when a split
/// hands the tail range away. [`TaintMapWal::recover_into`] rebuilds the backend from the newest
/// intact `…snapshot-<n>` companion file plus the log tail, tolerating
/// both a torn final record (payload *or* length header) and a torn
/// snapshot.
#[derive(Clone)]
pub struct TaintMapWal {
    fs: SimFs,
    path: String,
}

impl std::fmt::Debug for TaintMapWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaintMapWal")
            .field("path", &self.path)
            .finish()
    }
}

impl TaintMapWal {
    /// A log at `path` on `fs`. The file is created on first append;
    /// an existing file is replayed by the next [`TaintMapServer`]
    /// launched with this handle.
    pub fn new(fs: SimFs, path: impl Into<String>) -> Self {
        TaintMapWal {
            fs,
            path: path.into(),
        }
    }

    /// The log's path on the simulated file system.
    pub fn path(&self) -> &str {
        &self.path
    }

    fn append(&self, records: &[u8]) {
        self.fs.append(&self.path, records);
    }

    fn append_cutover(&self, epoch: u64, lo_gid: u32, target: NodeAddr) {
        let mut record = Vec::with_capacity(19);
        record.push(REC_CUTOVER);
        record.extend_from_slice(&epoch.to_be_bytes());
        record.extend_from_slice(&lo_gid.to_be_bytes());
        record.extend_from_slice(&target.ip());
        record.extend_from_slice(&target.port().to_be_bytes());
        self.fs.append(&self.path, &record);
    }

    fn snap_path(&self, generation: u64) -> String {
        format!("{}.snapshot-{generation}", self.path)
    }

    fn snapshot_generations(&self) -> Vec<u64> {
        let prefix = format!("{}.snapshot-", self.path);
        let mut generations: Vec<u64> = self
            .fs
            .list(&prefix)
            .into_iter()
            .filter_map(|p| p[prefix.len()..].parse().ok())
            .collect();
        generations.sort_unstable();
        generations
    }

    /// Folds the backend's current contents into a fresh snapshot file
    /// and truncates the log, so the next recovery replays O(live gids).
    /// Older snapshots are removed only *after* the truncation, which is
    /// what makes a torn snapshot recoverable: until the new file is
    /// complete, the previous snapshot plus the untruncated log still
    /// cover every record. Returns the number of records snapshotted.
    ///
    /// The caller must hold the server's commit lock (no registration
    /// may land between the backend scan and the truncation).
    fn compact(
        &self,
        backend: &dyn TaintMapBackend,
        shard: ShardSpec,
        epoch: u64,
        moved: &[MovedRange],
    ) -> u64 {
        let generation = self.snapshot_generations().last().map_or(1, |g| g + 1);
        let mut out = Vec::new();
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&epoch.to_be_bytes());
        out.extend_from_slice(&backend.max_local().to_be_bytes());
        out.extend_from_slice(&(moved.len() as u32).to_be_bytes());
        for m in moved {
            out.extend_from_slice(&m.lo_gid.to_be_bytes());
            out.extend_from_slice(&m.target.ip());
            out.extend_from_slice(&m.target.port().to_be_bytes());
        }
        let count_at = out.len();
        out.extend_from_slice(&[0; 4]);
        let mut count = 0u64;
        for local in 1..=backend.max_local() {
            // A local id past the shard's slice of `u32` was never
            // leased (see `ServerShared::lease`), nor any above.
            let Some(gid) = shard.global_of_local(local) else {
                break;
            };
            if let Some(bytes) = backend.lookup(local) {
                push_record(&mut out, gid, &bytes);
                count += 1;
            }
        }
        out[count_at..count_at + 4].copy_from_slice(&(count as u32).to_be_bytes());
        out.extend_from_slice(&SNAP_TRAILER);
        self.fs.write(self.snap_path(generation), out);
        self.fs.write(self.path.clone(), Vec::new());
        for g in self.snapshot_generations() {
            if g < generation {
                self.fs.remove(&self.snap_path(g));
            }
        }
        count
    }

    /// Parses one snapshot file — epoch, high-water, redirects, and its
    /// records as `(local id, bytes)` — or `None` if it is torn or
    /// malformed. Compaction writes only records it leased: one that
    /// names anything else marks the file as damaged as a torn one.
    #[allow(clippy::type_complexity)]
    fn load_snapshot(
        bytes: &[u8],
        shard: ShardSpec,
    ) -> Option<(u64, u32, Vec<MovedRange>, Vec<(u32, &[u8])>)> {
        let body = bytes
            .strip_prefix(&SNAP_MAGIC)?
            .strip_suffix(&SNAP_TRAILER)?;
        let mut r = ByteReader::new(body);
        let epoch = r.u64().ok()?;
        let high_water = r.u32().ok()?;
        let nmoved = r.u32().ok()? as usize;
        let mut moved = Vec::with_capacity(r.count(nmoved, 10));
        for _ in 0..nmoved {
            moved.push(MovedRange {
                lo_gid: r.u32().ok()?,
                target: addr(&mut r).ok()?,
            });
        }
        let count = r.u32().ok()? as usize;
        let mut records = Vec::with_capacity(r.count(count, 8));
        for _ in 0..count {
            let (gid, bytes) = read_record(&mut r).ok()?;
            records.push((leased_local(shard, high_water, gid)?, bytes));
        }
        r.at_end().then_some((epoch, high_water, moved, records))
    }

    /// Rebuilds `backend` from the newest intact snapshot plus the log
    /// tail — the high-water first, so nothing leased before the crash
    /// is leased again, and a record above it is never stored — and
    /// the cutover history. Missing files are an empty log; a torn final
    /// record
    /// — whether the crash cut the payload, the length header, or the
    /// tag — is ignored, like a torn tail in a real WAL; a torn snapshot
    /// falls back to the previous one.
    pub fn recover_into(&self, backend: &dyn TaintMapBackend, shard: ShardSpec) -> WalRecovery {
        let mut rec = WalRecovery::default();
        for generation in self.snapshot_generations().into_iter().rev() {
            let file = self
                .fs
                .read(&self.snap_path(generation))
                .unwrap_or_default();
            let Some((epoch, high_water, moved, records)) = Self::load_snapshot(&file, shard)
            else {
                rec.torn_snapshots += 1;
                continue;
            };
            rec.epoch = epoch;
            rec.moved = moved;
            backend.raise_high_water(high_water);
            for (local, bytes) in records {
                backend.bind(local, bytes);
                rec.snapshot_records += 1;
            }
            break;
        }
        let Ok(bytes) = self.fs.read(&self.path) else {
            return rec;
        };
        let mut r = ByteReader::new(&bytes);
        while Self::replay_record(&mut r, backend, shard, &mut rec).is_ok() {
            rec.wal_records_scanned += 1;
        }
        rec
    }

    /// Reads the next tagged record and applies it to `rec` (a data or
    /// lease record to `backend`). Every field is read before anything
    /// is applied, so a torn final record — `Truncated`, wherever the
    /// crash cut it — applies nothing; it and an unknown tag end the
    /// replay. A data record above the high-water the log has raised so
    /// far is skipped: nothing the server wrote is ever there.
    fn replay_record(
        r: &mut ByteReader<'_>,
        backend: &dyn TaintMapBackend,
        shard: ShardSpec,
        rec: &mut WalRecovery,
    ) -> Result<(), ReadError> {
        match r.u8()? {
            REC_DATA => {
                let (gid, serialized) = read_record(r)?;
                if let Some(local) = leased_local(shard, backend.max_local(), gid) {
                    backend.bind(local, serialized);
                    rec.wal_data_records += 1;
                }
            }
            REC_LEASE => backend.raise_high_water(r.u32()?),
            REC_CUTOVER => {
                let (epoch, lo_gid, target) = (r.u64()?, r.u32()?, addr(r)?);
                rec.epoch = epoch;
                rec.moved.push(MovedRange { lo_gid, target });
            }
            _ => return Err(ReadError::Malformed("unknown WAL record tag")),
        }
        Ok(())
    }
}

/// Aggregate server-side statistics (the global-taint census of §V-F).
/// The request counts belong to the process and restart from zero with
/// it; `moved_redirects`, `stale_epochs`,
/// `double_writes` and `compactions` are reads of the server's
/// `taintmap_server_*` registry counters, which a restarted server
/// continues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Distinct global taints stored (a gid bound to bytes another gid
    /// already names is an alias, not a taint).
    pub global_taints: u64,
    /// Gids bound as aliases of an already stored taint.
    pub aliases: u64,
    /// Bind items served (each item of a frame counts, re-sent ones
    /// included).
    pub bind_requests: u64,
    /// Lookup items served (each item of a frame counts).
    pub lookup_requests: u64,
    /// `BIND` and `LOOKUP` frames served.
    pub batch_frames: u64,
    /// Requests answered with a `Moved` redirect for a gid range that
    /// migrated away, or for a lease once allocation did.
    pub moved_redirects: u64,
    /// Frames answered with a `Moved` redirect for a stale epoch stamp.
    pub stale_epochs: u64,
    /// Commits' records forwarded to a follower: a standby, a split's
    /// target, or a restarted primary taking its standby's records.
    pub double_writes: u64,
    /// WAL compactions performed.
    pub compactions: u64,
}

/// A peer this server ships its log to (§IV: "adding a standby node to
/// handle the single point failure"; also a split's target, and a
/// restarted primary its standby hands the shard back to). The cursor
/// is the local id up to which this connection has shipped the peer
/// every record. It is valid for that connection only, so a new one
/// starts over at 0; binds are idempotent, so re-shipping is harmless.
struct Follower {
    peer: NodeAddr,
    conn: Option<TcpEndpoint>,
    cursor: u32,
}

impl Follower {
    /// Ships WAL `records` in one `REPLICATE` frame and waits for the
    /// `OK`; a failure drops the connection.
    fn ship(&mut self, records: &[u8]) -> bool {
        let shipped = self.conn.as_ref().is_some_and(|conn| {
            write_frame(conn, OP_REPLICATE, records).is_ok()
                && matches!(read_frame(conn), Ok(Some((RESP_OK, _))))
        });
        if !shipped {
            self.conn = None;
        }
        shipped
    }
}

struct ServerShared {
    net: SimNet,
    backend: Arc<dyn TaintMapBackend>,
    shard: ShardSpec,
    /// Control state (`crash_after_registers`).
    binds: AtomicU64,
    lookups: AtomicU64,
    batch_frames: AtomicU64,
    /// `taintmap_server_*{node="taintmap",shard=..}` registry counters.
    moved_redirects: Counter,
    stale_epochs: Counter,
    double_writes: Counter,
    compactions: Counter,
    config: TaintMapConfig,
    /// Armed by the `crash_after_registers` chaos knob: once set, serve
    /// threads hang up on every connection without responding.
    crash_now: AtomicBool,
    /// Set on a standby while its primary replicates to it, and on a
    /// restarted primary until it has its standby's records: a client's
    /// `BIND` is hung up on, so the client's retry redials another
    /// address of the shard's failover list, and one server leases.
    following: AtomicBool,
    /// Write-ahead snapshot, present on primaries stood up with one.
    wal: Option<TaintMapWal>,
    /// The peers this server ships its log to.
    followers: Mutex<Vec<Follower>>,
    /// Class-table epoch this server believes is current.
    epoch: AtomicU64,
    /// Routing table for this server's residue class, attached to every
    /// `Moved` redirect.
    table: Mutex<ClassTable>,
    /// Ranges migrated away; non-empty means allocation has moved too.
    moved: Mutex<Vec<MovedRange>>,
    /// Serializes commits (lease or bind + WAL append + forwarding)
    /// against each other, catch-up steps, cutover and compaction, so a
    /// snapshot can never miss a record that was acknowledged, no id is
    /// leased twice, a follower misses no commit on its connection, and
    /// a frame can never slip past the moved check mid-cutover.
    commit_lock: Mutex<()>,
}

impl ServerShared {
    /// Serves one `BIND` frame under the commit lock: leases up to
    /// `want` fresh gids, binds each `(gid, serialized taint)` item it
    /// can, and makes what changed durable before the reply is built.
    /// The whole frame is answered `Moved` if a lease asks a server that
    /// no longer allocates or an item's gid migrated away. Otherwise
    /// each item gets a status of its own: a gid this shard never leased
    /// is `UNLEASED`, one bound to other bytes first is `TAKEN`, and
    /// neither binds anything nor holds up the rest of the frame or its
    /// lease.
    fn bind_and_lease(&self, want: u32, items: &[(u32, &[u8])]) -> Reply {
        let served = self.binds.fetch_add(items.len() as u64, Ordering::Relaxed);
        let _commit = self.commit_lock.lock();
        let allocation_moved = want > 0 && !self.moved.lock().is_empty();
        if allocation_moved || items.iter().any(|&(gid, _)| self.gid_moved(gid)) {
            return self.redirect(&self.moved_redirects);
        }
        let high_water = self.backend.max_local();
        let mut records = Vec::new();
        let leased = self.lease(want.min(LEASE_IDS), &mut records);
        let mut statuses = Vec::with_capacity(items.len());
        for &(gid, serialized) in items {
            statuses.push(match leased_local(self.shard, high_water, gid) {
                None => STATUS_UNLEASED,
                Some(local) if self.backend.bind(local, serialized) => {
                    push_data(&mut records, gid, serialized);
                    STATUS_OK
                }
                Some(local) if self.backend.lookup(local).as_deref() == Some(serialized) => {
                    STATUS_OK
                }
                Some(_) => STATUS_TAKEN,
            });
        }
        if !records.is_empty() {
            if let Some(wal) = &self.wal {
                wal.append(&records);
            }
            self.forward(high_water, &records);
        }
        if let Some(limit) = self.config.crash_after_registers {
            if served + items.len() as u64 >= limit {
                self.crash_now.store(true, Ordering::Relaxed);
            }
        }
        let mut resp = Vec::with_capacity(4 + 4 * leased.len() + statuses.len());
        resp.extend_from_slice(&(leased.len() as u32).to_be_bytes());
        for gid in leased {
            resp.extend_from_slice(&gid.to_be_bytes());
        }
        resp.extend_from_slice(&statuses);
        (RESP_OK, resp)
    }

    /// Leases up to `want` gids above the high-water — never a
    /// wire-reserved one, never one past this shard's slice of `u32` —
    /// and raises the high-water past them, appending its lease record
    /// to `records`. Fewer (or none) once the slice is spent. The caller
    /// holds the commit lock.
    fn lease(&self, want: u32, records: &mut Vec<u8>) -> Vec<u32> {
        let high_water = self.backend.max_local();
        let (mut local, mut gids) = (high_water, Vec::with_capacity(want as usize));
        while gids.len() < want as usize {
            let Some(gid) = local
                .checked_add(1)
                .and_then(|l| self.shard.global_of_local(l))
            else {
                break;
            };
            local += 1;
            if !WIRE_RESERVED_GIDS.contains(&gid) {
                gids.push(gid);
            }
        }
        if local > high_water {
            self.backend.raise_high_water(local);
            push_lease(records, local);
        }
        gids
    }

    /// Forwards a commit's records to every follower before the client
    /// is answered. A follower the forward fails on is redialed once; a
    /// follower still behind gets one catch-up batch as well.
    /// `high_water` is the lease high-water before the commit: a
    /// follower whose cursor had reached it now holds every record up to
    /// the new one, so its cursor moves there. The caller holds the
    /// commit lock.
    fn forward(&self, high_water: u32, records: &[u8]) {
        for follower in self.followers.lock().iter_mut() {
            let forwarded = follower.ship(records)
                || (self.connect(follower).is_ok() && follower.ship(records));
            if !forwarded {
                continue;
            }
            self.double_writes.inc();
            if follower.cursor >= high_water {
                follower.cursor = self.backend.max_local();
            } else {
                self.scan(follower, CATCH_UP_RECORDS);
            }
        }
    }

    /// Dials `follower` on a fresh connection, so its cursor starts over
    /// at 0, and teaches it this server's lease high-water in-band: lease
    /// records in steps of one block, each of which `serve_replicate`
    /// takes. A forwarded or scanned record is then never above the
    /// peer's high-water, and the peer never leases an id this server
    /// did. The caller holds the commit lock.
    fn connect(&self, follower: &mut Follower) -> Result<(), TaintMapError> {
        follower.conn = Some(self.net.tcp_connect(follower.peer)?);
        follower.cursor = 0;
        let high_water = self.backend.max_local();
        let (mut ladder, mut local) = (Vec::new(), 0u32);
        while local < high_water {
            local = high_water.min(local.saturating_add(LEASE_IDS));
            push_lease(&mut ladder, local);
        }
        if ladder.is_empty() || follower.ship(&ladder) {
            Ok(())
        } else {
            Err(TaintMapError::Protocol(
                "follower refused the lease high-water",
            ))
        }
    }

    /// Ships `follower` the bound records at local ids past its cursor,
    /// `batch` of them at most, in one `REPLICATE` frame, and advances
    /// the cursor over the ids the frame covered once it is answered
    /// `OK`. Returns how many records it shipped, or `None` if the ship
    /// failed. The caller holds the commit lock.
    fn scan(&self, follower: &mut Follower, batch: usize) -> Option<u64> {
        let high_water = self.backend.max_local();
        let (mut records, mut sent, mut local) = (Vec::new(), 0, follower.cursor);
        while sent < batch as u64 && local < high_water {
            local += 1;
            let gid = self.shard.global_of_local(local);
            if let Some((gid, bytes)) = gid.zip(self.backend.lookup(local)) {
                push_data(&mut records, gid, &bytes);
                sent += 1;
            }
        }
        if !records.is_empty() && !follower.ship(&records) {
            return None;
        }
        follower.cursor = local;
        Some(sent)
    }

    /// Caught up ⇔ connected ∧ cursor ≥ the lease high-water: the
    /// follower at `peer` holds every record this server does. The
    /// caller holds the commit lock.
    fn caught_up(&self, peer: NodeAddr) -> bool {
        let high_water = self.backend.max_local();
        self.followers
            .lock()
            .iter()
            .any(|f| f.peer == peer && f.conn.is_some() && f.cursor >= high_water)
    }

    /// Whether `gid` falls in a range this server has migrated away.
    fn gid_moved(&self, gid: u32) -> bool {
        self.moved.lock().iter().any(|m| gid >= m.lo_gid)
    }

    /// A `Moved` redirect carrying this server's current class table,
    /// counted on `cause`: `moved_redirects` or `stale_epochs`.
    fn redirect(&self, cause: &Counter) -> Reply {
        cause.inc();
        (RESP_MOVED, encode_class_table(&self.table.lock()))
    }

    /// Resolves one Global ID; `None` if it was never assigned or does
    /// not belong to this shard.
    fn lookup_one(&self, gid: u32) -> Option<Vec<u8>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.backend.lookup(self.shard.local_of_global(gid)?)
    }

    /// Folds the WAL into a fresh snapshot under the commit lock.
    fn compact(&self) -> Result<u64, TaintMapError> {
        let Some(wal) = &self.wal else {
            return Err(TaintMapError::Protocol("shard has no WAL to compact"));
        };
        let _commit = self.commit_lock.lock();
        let epoch = self.epoch.load(Ordering::Relaxed);
        let moved = self.moved.lock().clone();
        let count = wal.compact(&*self.backend, self.shard, epoch, &moved);
        self.compactions.inc();
        Ok(count)
    }
}

/// Handle to a running Taint Map service shard.
///
/// The service accepts connections on its own thread and serves each
/// connection on a worker thread, mirroring "an independent process which
/// can communicate with all nodes". Storage is a pluggable
/// [`TaintMapBackend`]; optionally every lease and new bind is
/// replicated to a standby instance for failover.
pub struct TaintMapServer {
    server: TcpServer,
    shared: Arc<ServerShared>,
    recovery: WalRecovery,
}

impl std::fmt::Debug for TaintMapServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaintMapServer")
            .field("addr", &self.addr())
            .field("shard", &self.shared.shard)
            .field("stats", &self.stats())
            .finish()
    }
}

impl TaintMapServer {
    /// Starts one shard of the service. The endpoint builder is the
    /// public face of this; it picks addresses and shard specs so the id
    /// namespaces can never overlap. A `wal` handle pointing at an
    /// existing log replays it into `backend` before the first request
    /// is accepted. `shard_label` names this server's role in the
    /// deployment (its extended index) on its registry counters. A
    /// server launched `following` hangs up on `BIND` from its first
    /// connection on (see [`TaintMapServer::set_following`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn launch(
        net: &SimNet,
        addr: NodeAddr,
        config: TaintMapConfig,
        backend: Arc<dyn TaintMapBackend>,
        shard: ShardSpec,
        wal: Option<TaintMapWal>,
        shard_label: &str,
        following: bool,
    ) -> Result<Self, TaintMapError> {
        let recovery = match &wal {
            Some(w) => w.recover_into(&*backend, shard),
            None => WalRecovery::default(),
        };
        // Rebuild the class table from the recovered cutover history;
        // the endpoint overrides it with the authoritative one on
        // orchestrated restarts.
        let mut table = ClassTable::initial(vec![addr], shard.index as usize);
        table.epoch = recovery.epoch;
        for m in &recovery.moved {
            table.ranges.push(ShardRange {
                lo_gid: m.lo_gid,
                addrs: vec![m.target],
            });
        }
        let labels = [("node", "taintmap"), ("shard", shard_label)];
        let counter = |fact: &str| {
            net.registry()
                .counter_with(&format!("taintmap_server_{fact}"), &labels)
        };
        let shared = Arc::new(ServerShared {
            net: net.clone(),
            backend,
            shard,
            binds: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            batch_frames: AtomicU64::new(0),
            moved_redirects: counter("moved_redirects"),
            stale_epochs: counter("stale_epochs"),
            double_writes: counter("double_writes"),
            compactions: counter("compactions"),
            config,
            crash_now: AtomicBool::new(false),
            following: AtomicBool::new(following),
            wal,
            followers: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(recovery.epoch),
            table: Mutex::new(table),
            moved: Mutex::new(recovery.moved.clone()),
            commit_lock: Mutex::new(()),
        });
        let session_shared = shared.clone();
        let server = TcpServer::bind(net, addr, "taintmap", move |conn, sessions| {
            serve_connection(&conn, &session_shared, sessions)
        })?;
        Ok(TaintMapServer {
            server,
            shared,
            recovery,
        })
    }

    /// The lease high-water: the highest backend-local id leased so far.
    pub(crate) fn max_local(&self) -> u32 {
        self.shared.backend.max_local()
    }

    /// Marks this server as a standby its primary replicates to, or on
    /// `false` as the server of its shard: a following standby hangs up
    /// on a client's `BIND`, so only the primary leases. Taken under the
    /// commit lock: once it returns, no lease here is half done.
    pub(crate) fn set_following(&self, following: bool) {
        let _commit = self.shared.commit_lock.lock();
        self.shared.following.store(following, Ordering::Relaxed);
    }

    /// Stops shipping anything to `peer`.
    pub(crate) fn unfollow(&self, peer: NodeAddr) {
        let _commit = self.shared.commit_lock.lock();
        self.shared.followers.lock().retain(|f| f.peer != peer);
    }

    /// One catch-up step for the follower at `peer`: redials it if its
    /// connection dropped, which starts it over at cursor 0, then ships
    /// it up to `batch` (at least one) of the records past its cursor.
    /// Returns how many records it shipped, 0 once it is caught up.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] / [`TaintMapError::Protocol`] when the
    /// peer is unreachable or nothing follows it.
    pub(crate) fn catch_up(&self, peer: NodeAddr, batch: usize) -> Result<u64, TaintMapError> {
        let _commit = self.shared.commit_lock.lock();
        let mut followers = self.shared.followers.lock();
        let follower = followers
            .iter_mut()
            .find(|f| f.peer == peer)
            .ok_or(TaintMapError::Protocol("nothing follows that address"))?;
        if follower.conn.is_none() {
            self.shared.connect(follower)?;
        }
        self.shared
            .scan(follower, batch.max(1))
            .ok_or(TaintMapError::Protocol("follower unreachable"))
    }

    /// Whether the follower at `peer` holds every record this server
    /// does: it is connected and its cursor has reached the lease
    /// high-water.
    pub(crate) fn caught_up(&self, peer: NodeAddr) -> bool {
        let _commit = self.shared.commit_lock.lock();
        self.shared.caught_up(peer)
    }

    /// Cutover to `new_table`, whose tail range is the one moving:
    /// atomically (w.r.t. commits) stops forwarding to its target, stops
    /// allocation, marks the range moved, adopts the table, and records
    /// the cutover durably. From here on the server answers `Moved`
    /// redirects for the migrated range, forever.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Protocol`] if the target has not caught up.
    pub(crate) fn cutover(&self, new_table: ClassTable) -> Result<(), TaintMapError> {
        let tail = new_table.tail();
        let (lo_gid, target) = (tail.lo_gid, tail.addrs[0]);
        let _commit = self.shared.commit_lock.lock();
        if !self.shared.caught_up(target) {
            return Err(TaintMapError::Protocol("split target not caught up"));
        }
        self.shared.followers.lock().retain(|f| f.peer != target);
        self.shared.moved.lock().push(MovedRange { lo_gid, target });
        self.shared.epoch.store(new_table.epoch, Ordering::Relaxed);
        if let Some(wal) = &self.shared.wal {
            wal.append_cutover(new_table.epoch, lo_gid, target);
        }
        *self.shared.table.lock() = new_table;
        Ok(())
    }

    /// Installs the authoritative class table (and redirect ranges) —
    /// the endpoint calls this on every live server of a class at
    /// cutover, and on restarted servers, so epochs converge.
    pub(crate) fn set_class_table(&self, table: ClassTable, moved: Vec<MovedRange>) {
        self.shared.epoch.store(table.epoch, Ordering::Relaxed);
        *self.shared.table.lock() = table;
        *self.shared.moved.lock() = moved;
    }

    /// Folds the WAL into a fresh `snapshot-<n>` file and truncates it,
    /// bounding the next restart's replay by live gids. Returns the
    /// number of records snapshotted.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Protocol`] if the server has no WAL.
    pub(crate) fn compact(&self) -> Result<u64, TaintMapError> {
        self.shared.compact()
    }

    /// Arms a follower at `peer` on a fresh connection, in place of any
    /// it had: the peer learns this server's lease high-water now, every
    /// later lease and *new* bind is forwarded to it, and catch-up steps
    /// ship it the records it lacks. A standby can then serve lookups
    /// (and go on leasing non-colliding ids) if this instance dies.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if the peer is unreachable; nothing is
    /// armed then.
    pub fn replicate_to(&self, peer: NodeAddr) -> Result<(), TaintMapError> {
        let _commit = self.shared.commit_lock.lock();
        let mut follower = Follower {
            peer,
            conn: None,
            cursor: 0,
        };
        self.shared.connect(&mut follower)?;
        let mut followers = self.shared.followers.lock();
        followers.retain(|f| f.peer != peer);
        followers.push(follower);
        Ok(())
    }

    /// The service address clients connect to.
    pub fn addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// Registrations recovered from the write-ahead snapshot at launch
    /// (0 when launched without a WAL or from an empty log).
    pub fn replayed(&self) -> u64 {
        self.recovery.snapshot_records + self.recovery.wal_data_records
    }

    /// Everything launch-time recovery reconstructed: replay costs and
    /// the recovered epoch/moved ranges.
    pub fn recovery(&self) -> &WalRecovery {
        &self.recovery
    }

    /// The class-table epoch this server currently serves.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Relaxed)
    }

    /// True once the `crash_after_registers` chaos knob fired.
    pub fn has_crashed(&self) -> bool {
        self.shared.crash_now.load(Ordering::Relaxed)
    }

    /// Snapshot of the census counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            global_taints: self.shared.backend.len(),
            aliases: self.shared.backend.aliases(),
            bind_requests: self.shared.binds.load(Ordering::Relaxed),
            lookup_requests: self.shared.lookups.load(Ordering::Relaxed),
            batch_frames: self.shared.batch_frames.load(Ordering::Relaxed),
            moved_redirects: self.shared.moved_redirects.get(),
            stale_epochs: self.shared.stale_epochs.get(),
            double_writes: self.shared.double_writes.get(),
            compactions: self.shared.compactions.get(),
        }
    }

    /// Stops the shard the way a process dies: the address is unbound
    /// and every connection severed, not drained (see
    /// [`TcpServer::stop`]).
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

/// Serves one connection to its end. A crashed server (see
/// [`TaintMapConfig::crash_after_registers`]) still accepts, and hangs
/// up at once; a following standby hangs up on a `BIND`.
fn serve_connection(conn: &TcpEndpoint, shared: &ServerShared, sessions: &ServerHandle) {
    while !shared.crash_now.load(Ordering::Relaxed) {
        let frame = match read_frame(conn) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        let (resp_op, resp) = match frame {
            (OP_BIND, _) if shared.following.load(Ordering::Relaxed) => return,
            (OP_BIND, payload) => serve_data(shared, &payload, bind_items),
            (OP_LOOKUP, payload) => serve_data(shared, &payload, lookup_items),
            (OP_REPLICATE, payload) => {
                serve_replicate(shared, &payload).unwrap_or((RESP_ERR, vec![0xFF]))
            }
            _ => (RESP_ERR, vec![0xFF]),
        };
        if shared.crash_now.load(Ordering::Relaxed) {
            // Ungraceful death: the work above is committed (backend,
            // WAL, replication) but the response is never written, and
            // every live connection is severed — a process killed
            // between commit and reply.
            sessions.sever_all();
            return;
        }
        if write_frame(conn, resp_op, &resp).is_err() {
            return;
        }
    }
}

/// A response frame: opcode and payload.
type Reply = (u8, Vec<u8>);

/// Serves one `BIND`/`LOOKUP` frame: counts it, validates its epoch
/// stamp, and hands the items to `serve_items`; a payload that does not
/// parse to its end is `RESP_ERR`. A stale stamp is redirected like a
/// moved range: `MOVED` with the class table, which the client merges
/// before it re-routes. A stamp *ahead* of this server (it missed a
/// table update while crashed) is accepted — the moved-range check
/// still guards correctness, and redirecting it would livelock the
/// client against a behind server.
fn serve_data(
    shared: &ServerShared,
    payload: &[u8],
    serve_items: fn(&ServerShared, &mut ByteReader<'_>) -> Option<Reply>,
) -> Reply {
    shared.batch_frames.fetch_add(1, Ordering::Relaxed);
    let mut r = ByteReader::new(payload);
    let Ok(stamp) = r.u64() else {
        return (RESP_ERR, vec![0xFF]);
    };
    if stamp < shared.epoch.load(Ordering::Relaxed) {
        return shared.redirect(&shared.stale_epochs);
    }
    serve_items(shared, &mut r).unwrap_or((RESP_ERR, vec![0xFF]))
}

fn bind_items(shared: &ServerShared, r: &mut ByteReader<'_>) -> Option<Reply> {
    let want = r.u32().ok()?;
    let count = r.u32().ok()? as usize;
    // Every item carries at least its gid and its length.
    let mut items = Vec::with_capacity(r.count(count, 8));
    for _ in 0..count {
        items.push(read_record(r).ok()?);
    }
    r.at_end().then(|| shared.bind_and_lease(want, &items))
}

fn lookup_items(shared: &ServerShared, r: &mut ByteReader<'_>) -> Option<Reply> {
    let count = r.u32().ok()? as usize;
    let mut resp = Vec::with_capacity(4 + 5 * r.count(count, 4));
    resp.extend_from_slice(&(count as u32).to_be_bytes());
    for _ in 0..count {
        let gid = r.u32().ok()?;
        if gid != 0 && shared.gid_moved(gid) {
            return Some(shared.redirect(&shared.moved_redirects));
        }
        match shared.lookup_one(gid).filter(|_| gid != 0) {
            Some(bytes) => {
                resp.push(STATUS_OK);
                resp.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                resp.extend_from_slice(&bytes);
            }
            None => resp.push(STATUS_UNKNOWN),
        }
    }
    r.at_end().then_some((RESP_OK, resp))
}

/// The receiving side of [`Follower::ship`]: the payload is WAL
/// records, lease and data only. Every one is checked before any is
/// applied — a lease may raise the high-water by [`MAX_LEASE_SPAN`] at
/// most, and a data record must name a gid this shard leased, at or
/// below the high-water the leases before it left — and the payload is
/// then logged as it came. `None` if anything is refused.
fn serve_replicate(shared: &ServerShared, payload: &[u8]) -> Option<Reply> {
    // Records are logged before they are acknowledged, so an ack means
    // they survive this side crashing too.
    let _commit = shared.commit_lock.lock();
    let mut high_water = shared.backend.max_local();
    let mut binds = Vec::new();
    let mut r = ByteReader::new(payload);
    while !r.at_end() {
        match r.u8().ok()? {
            REC_LEASE => {
                let to = r.u32().ok()?;
                if to > high_water.saturating_add(MAX_LEASE_SPAN) {
                    return None;
                }
                high_water = high_water.max(to);
            }
            REC_DATA => {
                let (gid, serialized) = read_record(&mut r).ok()?;
                binds.push((leased_local(shared.shard, high_water, gid)?, serialized));
            }
            _ => return None,
        }
    }
    shared.backend.raise_high_water(high_water);
    for (local, serialized) in binds {
        shared.backend.bind(local, serialized);
    }
    if let Some(wal) = &shared.wal {
        wal.append(payload);
    }
    Some((RESP_OK, Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;
    use crate::proto::{
        decode_bind_resp, decode_class_table, decode_lookup_resp, encode_bind, encode_lookup,
        read_frame as rf, write_frame as wf,
    };

    fn launch(net: &SimNet, addr: NodeAddr) -> TaintMapServer {
        TaintMapServer::launch(
            net,
            addr,
            TaintMapConfig::default(),
            Arc::new(InMemoryBackend::new()),
            ShardSpec::default(),
            None,
            &addr.to_string(),
            false,
        )
        .unwrap()
    }

    fn setup() -> (SimNet, TaintMapServer) {
        let net = SimNet::new();
        let server = launch(&net, NodeAddr::new([10, 0, 0, 99], 7777));
        (net, server)
    }

    /// One `BIND` round trip under epoch stamp 0: binds `items`, leases
    /// `want` gids and returns them with each item's status.
    fn bind_answered(conn: &TcpEndpoint, want: u32, items: &[(u32, &[u8])]) -> (Vec<u32>, Vec<u8>) {
        wf(conn, OP_BIND, &encode_bind(0, want, items)).unwrap();
        let (op, resp) = rf(conn).unwrap().unwrap();
        assert_eq!(op, RESP_OK);
        decode_bind_resp(&resp, items.len()).unwrap()
    }

    /// [`bind_answered`]'s leased gids.
    fn bind(conn: &TcpEndpoint, want: u32, items: &[(u32, &[u8])]) -> Vec<u32> {
        bind_answered(conn, want, items).0
    }

    /// Leases one gid per taint and binds each to its taint: what a
    /// client's lease and its later flush do, in two frames.
    fn register(conn: &TcpEndpoint, taints: &[&[u8]]) -> Vec<u32> {
        let gids = bind(conn, taints.len() as u32, &[]);
        let items: Vec<(u32, &[u8])> = gids.iter().copied().zip(taints.iter().copied()).collect();
        bind(conn, 0, &items);
        gids
    }

    /// One `LOOKUP` round trip under epoch stamp 0.
    fn lookup(conn: &TcpEndpoint, gids: &[u32]) -> Vec<Option<Vec<u8>>> {
        wf(conn, OP_LOOKUP, &encode_lookup(0, gids)).unwrap();
        let (op, resp) = rf(conn).unwrap().unwrap();
        assert_eq!(op, RESP_OK);
        decode_lookup_resp(&resp, gids.len()).unwrap()
    }

    /// An `OP_REPLICATE` payload of one lease record.
    fn lease_record(local: u32) -> Vec<u8> {
        let mut out = Vec::new();
        push_lease(&mut out, local);
        out
    }

    /// An `OP_REPLICATE` payload of one data record.
    fn data_record(gid: u32, serialized: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        push_data(&mut out, gid, serialized);
        out
    }

    #[test]
    fn leases_hand_out_fresh_ids_in_order() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(bind(&conn, 3, &[]), vec![1, 2, 3]);
        assert_eq!(bind(&conn, 2, &[]), vec![4, 5]);
        assert_eq!(
            bind(&conn, u32::MAX, &[]).len(),
            LEASE_IDS as usize,
            "one frame leases at most one block"
        );
        assert_eq!(server.stats().global_taints, 0, "a lease stores nothing");
        server.shutdown();
    }

    #[test]
    fn a_re_sent_bind_changes_nothing() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let gid = register(&conn, &[b"same"])[0];
        assert_eq!(bind_answered(&conn, 0, &[(gid, b"same")]).1, [STATUS_OK]);
        assert_eq!(
            bind_answered(&conn, 0, &[(gid, b"a rival")]).1,
            [STATUS_TAKEN]
        );
        assert_eq!(lookup(&conn, &[gid]), vec![Some(b"same".to_vec())]);
        let stats = server.stats();
        assert_eq!((stats.global_taints, stats.aliases), (1, 0));
        assert_eq!(stats.bind_requests, 3);
        server.shutdown();
    }

    #[test]
    fn binding_known_bytes_under_another_gid_makes_an_alias() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let gids = register(&conn, &[b"a", b"b", b"a"]);
        assert_eq!(lookup(&conn, &[gids[2]]), vec![Some(b"a".to_vec())]);
        let stats = server.stats();
        assert_eq!(
            (stats.global_taints, stats.aliases),
            (2, 1),
            "the census counts taints, not gids"
        );
        assert_eq!(stats.bind_requests, 3, "items counted individually");
        assert_eq!(stats.batch_frames, 3, "two bind frames and a lookup");
        server.shutdown();
    }

    #[test]
    fn lookup_reports_each_item_bound_or_unknown() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let gid = register(&conn, &[b"payload"])[0];
        let leased = bind(&conn, 1, &[])[0];
        let items = lookup(&conn, &[gid, 999, 0, leased]);
        assert_eq!(items[0].as_deref(), Some(b"payload".as_ref()));
        assert_eq!(items[1], None, "never leased");
        assert_eq!(items[2], None, "gid 0 is reserved and never resolvable");
        assert_eq!(items[3], None, "leased, not bound yet");
        assert_eq!(server.stats().lookup_requests, 4);
        assert_eq!(server.stats().batch_frames, 4, "a batch of one counts");
        server.shutdown();
    }

    #[test]
    fn malformed_frames_answer_err_on_a_still_serving_connection() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let stamped = |count: u32| [&0u64.to_be_bytes()[..], &count.to_be_bytes()].concat();
        let bind_of = |want: u32, count: u32| [&stamped(want)[..], &count.to_be_bytes()].concat();
        let cases = [
            (OP_BIND, bind_of(0, 2)), // claims 2 items, carries none
            (OP_LOOKUP, stamped(2)),
            // A hostile count must be rejected by the bytes present,
            // not handed to the allocator (8–5 B/item = 34–21 GB).
            (OP_BIND, bind_of(1, u32::MAX)),
            (OP_LOOKUP, stamped(u32::MAX)),
            (OP_BIND, b"short".to_vec()), // no room for the epoch stamp
            (7, encode_bind(0, 1, &[])),  // a retired opcode is an unknown one
            (1, b"taint".to_vec()),
            (0x7F, Vec::new()),
        ];
        for (op, payload) in cases {
            wf(&conn, op, &payload).unwrap();
            let (resp, _) = rf(&conn).unwrap().unwrap();
            assert_eq!(resp, RESP_ERR, "op {op} payload {payload:?}");
        }
        assert_eq!(register(&conn, &[b"still-serving"]), vec![1]);
        assert!(
            server.stats().global_taints == 1,
            "nothing refused was stored"
        );
        server.shutdown();
    }

    #[test]
    fn a_refused_bind_item_leaves_the_rest_of_its_frame_served() {
        // One bad item used to fail the whole frame, its lease request
        // included, so a client that kept re-sending it never leased
        // again. Now each item is answered on its own.
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(bind(&conn, 2, &[]), vec![1, 2]);
        let items: [(u32, &[u8]); 5] = [
            (7, b"never leased"),
            (0, b"untainted"),
            (1, b"one"),
            (1, b"a rival"),
            (2, b"two"),
        ];
        assert_eq!(
            bind_answered(&conn, 1, &items),
            (
                vec![3],
                vec![
                    STATUS_UNLEASED,
                    STATUS_UNLEASED,
                    STATUS_OK,
                    STATUS_TAKEN,
                    STATUS_OK
                ]
            )
        );
        assert_eq!(
            lookup(&conn, &[1, 2, 7]),
            vec![Some(b"one".to_vec()), Some(b"two".to_vec()), None]
        );
        assert_eq!(server.stats().global_taints, 2, "nothing refused is stored");
        server.shutdown();
    }

    #[test]
    fn a_following_standby_hangs_up_on_a_bind_and_serves_lookups() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let gid = register(&conn, &[b"kept"])[0];
        server.set_following(true);
        wf(&conn, OP_BIND, &encode_bind(0, 1, &[])).unwrap();
        assert!(matches!(rf(&conn), Ok(None) | Err(_)), "hung up on");
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(lookup(&conn, &[gid]), vec![Some(b"kept".to_vec())]);
        server.set_following(false);
        assert_eq!(
            bind(&conn, 1, &[]),
            vec![gid + 1],
            "nothing leased meanwhile"
        );
        server.shutdown();
    }

    #[test]
    fn a_replicated_record_above_the_high_water_is_refused() {
        // A hostile `OP_REPLICATE` used to move the allocator to
        // whatever id it named: near `u32::MAX`, compaction and the
        // split copy then walked four billion ids. The shard only takes
        // a record at or below its lease high-water, and a lease record
        // that raises it by no more than a lease could.
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(register(&conn, &[b"before"]), vec![1]);
        let last = u32::MAX - 1;
        for hostile in [
            data_record(last, b"last"),
            lease_record(last),
            lease_record(1 + MAX_LEASE_SPAN + 1),
            [lease_record(40), data_record(last, b"last")].concat(),
        ] {
            wf(&conn, OP_REPLICATE, &hostile).unwrap();
            assert_eq!(rf(&conn).unwrap().unwrap().0, RESP_ERR, "{hostile:?}");
        }
        assert_eq!(
            server.max_local(),
            1,
            "nothing refused moved the high-water"
        );
        // An honest replica's records: a lease, then binds under it.
        let honest = [lease_record(1 + LEASE_IDS), data_record(3, b"three")].concat();
        wf(&conn, OP_REPLICATE, &honest).unwrap();
        assert_eq!(rf(&conn).unwrap().unwrap().0, RESP_OK);
        assert_eq!(server.max_local(), 1 + LEASE_IDS);
        assert_eq!(
            bind(&conn, 1, &[]),
            vec![2 + LEASE_IDS],
            "leases resume above"
        );
        let held = lookup(&conn, &[1, 3, last]);
        assert_eq!(held[0].as_deref(), Some(b"before".as_ref()));
        assert_eq!(held[1].as_deref(), Some(b"three".as_ref()));
        assert_eq!(held[2], None);
        server.shutdown();
    }

    #[test]
    fn a_spent_slice_leases_nothing_and_never_wraps() {
        // From the last ids below the reserved `u32::MAX`, a lease hands
        // out what is left and then nothing: never 0 (untainted), never
        // an id another taint holds.
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        server.shared.backend.raise_high_water(u32::MAX - 3);
        assert_eq!(bind(&conn, 8, &[]), vec![u32::MAX - 2, u32::MAX - 1]);
        assert_eq!(bind(&conn, 8, &[]), Vec::<u32>::new());
        assert_eq!(server.max_local(), u32::MAX);
        bind(&conn, 0, &[(u32::MAX - 1, b"last")]);
        assert_eq!(lookup(&conn, &[u32::MAX - 1]), vec![Some(b"last".to_vec())]);
        server.shutdown();
    }

    #[test]
    fn a_wire_reserved_id_is_never_leased_or_stored() {
        // At width 1, gid 0xFF is the all-ones negotiation-probe record:
        // a taint under it would cross the wire as the probe.
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let probe = 0xFFu32;
        server.shared.backend.raise_high_water(probe - 2);
        let leased = bind(&conn, 4, &[]);
        assert_eq!(leased, vec![probe - 1, probe + 1, probe + 2, probe + 3]);
        // A replicated or copied record naming it refuses its frame.
        wf(&conn, OP_REPLICATE, &data_record(probe, b"probe-shaped")).unwrap();
        assert_eq!(rf(&conn).unwrap().unwrap().0, RESP_ERR);
        assert_eq!(
            bind_answered(&conn, 0, &[(probe, b"probe-shaped")]).1,
            [STATUS_UNLEASED]
        );
        assert_eq!(lookup(&conn, &[probe]), vec![None]);
        server.shutdown();

        // Nor does replay store one: a log naming 0xFF under a lease
        // past it, as a log written before the refusal could.
        let fs = SimFs::new();
        let mut log = lease_record(300);
        push_data(&mut log, probe, b"probe-shaped");
        fs.write("w", log);
        let backend = InMemoryBackend::new();
        let recovered = TaintMapWal::new(fs, "w").recover_into(&backend, ShardSpec::default());
        assert_eq!(recovered.wal_records_scanned, 2);
        assert_eq!(recovered.wal_data_records, 0);
        assert!(backend.is_empty());
        assert_eq!(backend.max_local(), 300);
    }

    #[test]
    fn moved_gid_under_a_current_stamp_answers_moved_with_the_table() {
        // The "server behind the client" case `serve_data` accepts on
        // purpose: the stamp is not stale, so the moved-range check is
        // what keeps a migrated gid from being served here.
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(register(&conn, &[b"stays", b"moves"]), vec![1, 2]);
        let spare = bind(&conn, 1, &[])[0];
        let target = NodeAddr::new([10, 0, 0, 99], 7779);
        let table = ClassTable {
            epoch: 1,
            ranges: vec![
                ShardRange {
                    lo_gid: 1,
                    addrs: vec![server.addr()],
                },
                ShardRange {
                    lo_gid: 2,
                    addrs: vec![target],
                },
            ],
        };
        server.set_class_table(table.clone(), vec![MovedRange { lo_gid: 2, target }]);

        for (op, payload) in [
            (OP_LOOKUP, encode_lookup(1, &[1, 2])),
            (OP_LOOKUP, encode_lookup(9, &[2])),
            (OP_BIND, encode_bind(9, 1, &[])), // allocation moved too
            (OP_BIND, encode_bind(9, 0, &[(spare, b"bound late")])),
        ] {
            wf(&conn, op, &payload).unwrap();
            let (resp, body) = rf(&conn).unwrap().unwrap();
            assert_eq!(resp, RESP_MOVED, "op {op}");
            assert_eq!(decode_class_table(&body).unwrap(), table);
        }
        assert_eq!(server.stats().moved_redirects, 4);
        // The range it still owns is served, and a stale stamp is
        // redirected with the same table before the moved check is ever
        // reached, on a gid this server still owns too. The two causes
        // are counted apart.
        wf(&conn, OP_LOOKUP, &encode_lookup(1, &[1])).unwrap();
        assert_eq!(rf(&conn).unwrap().unwrap().0, RESP_OK);
        for gid in [1, 2] {
            wf(&conn, OP_LOOKUP, &encode_lookup(0, &[gid])).unwrap();
            let (resp, body) = rf(&conn).unwrap().unwrap();
            assert_eq!(resp, RESP_MOVED, "gid {gid}");
            assert_eq!(decode_class_table(&body).unwrap(), table);
        }
        let stats = server.stats();
        assert_eq!((stats.moved_redirects, stats.stale_epochs), (4, 2));
        server.shutdown();
    }

    #[test]
    fn sharded_server_leases_only_its_own_ids() {
        let net = SimNet::new();
        let server = TaintMapServer::launch(
            &net,
            NodeAddr::new([10, 0, 0, 99], 7777),
            TaintMapConfig::default(),
            Arc::new(InMemoryBackend::new()),
            ShardSpec { index: 2, count: 4 },
            None,
            "0",
            false,
        )
        .unwrap();
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(
            register(&conn, &[b"first", b"second"]),
            vec![3, 7],
            "shard 2 of 4 starts at gid 3 and strides by the shard count"
        );
        // A gid owned by another shard is unknown here, and not bindable.
        assert_eq!(lookup(&conn, &[4]), vec![None]);
        assert_eq!(
            bind_answered(&conn, 0, &[(4, b"foreign")]).1,
            [STATUS_UNLEASED]
        );
        server.shutdown();
    }

    #[test]
    fn serves_concurrent_connections() {
        let (net, server) = setup();
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let net = net.clone();
            let addr = server.addr();
            handles.push(std::thread::spawn(move || {
                let conn = net.tcp_connect(addr).unwrap();
                register(&conn, &[format!("taint-{i}").as_bytes()])[0]
            }));
        }
        let mut ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "eight leases, eight distinct ids");
        assert_eq!(server.stats().global_taints, 8);
        server.shutdown();
    }

    #[test]
    fn shutdown_unbinds_address() {
        let (net, server) = setup();
        let addr = server.addr();
        server.shutdown();
        assert!(net.tcp_listen(addr).is_ok());
    }

    #[test]
    fn replication_mirrors_leases_and_binds_to_the_standby() {
        let net = SimNet::new();
        let primary = launch(&net, NodeAddr::new([10, 0, 0, 99], 7777));
        let standby = launch(&net, NodeAddr::new([10, 0, 0, 98], 7777));
        primary.replicate_to(standby.addr()).unwrap();

        let conn = net.tcp_connect(primary.addr()).unwrap();
        let id = register(&conn, &[b"replicated-taint"])[0];
        let unbound = bind(&conn, 1, &[])[0];

        // The standby can serve the lookup itself.
        let sconn = net.tcp_connect(standby.addr()).unwrap();
        assert_eq!(
            lookup(&sconn, &[id]),
            vec![Some(b"replicated-taint".to_vec())]
        );

        // And its own leases never collide with the primary's, bound or
        // not.
        assert_eq!(standby.max_local(), primary.max_local());
        assert!(bind(&sconn, 1, &[])[0] > unbound);
        primary.shutdown();
        standby.shutdown();
    }

    #[test]
    fn wal_replay_restores_leases_and_binds_after_relaunch() {
        let net = SimNet::new();
        let fs = SimFs::new();
        let wal = TaintMapWal::new(fs.clone(), "taintmap/shard-0.wal");
        let addr = NodeAddr::new([10, 0, 0, 99], 7777);
        let server = TaintMapServer::launch(
            &net,
            addr,
            TaintMapConfig::default(),
            Arc::new(InMemoryBackend::new()),
            ShardSpec::default(),
            Some(wal.clone()),
            "0",
            false,
        )
        .unwrap();
        let conn = net.tcp_connect(addr).unwrap();
        let id_a = register(&conn, &[b"persisted-A"])[0];
        register(&conn, &[b"persisted-B"]);
        bind(&conn, 2, &[]); // leased, never bound
        server.shutdown();

        // A fresh backend + the same WAL recovers both binds and resumes
        // leasing past every id leased before.
        let reborn = TaintMapServer::launch(
            &net,
            addr,
            TaintMapConfig::default(),
            Arc::new(InMemoryBackend::new()),
            ShardSpec::default(),
            Some(wal),
            "0",
            false,
        )
        .unwrap();
        assert_eq!(reborn.replayed(), 2);
        let conn = net.tcp_connect(addr).unwrap();
        assert_eq!(lookup(&conn, &[id_a]), vec![Some(b"persisted-A".to_vec())]);
        assert_eq!(bind(&conn, 1, &[]), vec![5], "leasing resumed past replay");
        reborn.shutdown();
    }

    #[test]
    fn crash_knob_commits_but_never_responds() {
        let net = SimNet::new();
        let fs = SimFs::new();
        let wal = TaintMapWal::new(fs.clone(), "taintmap/shard-0.wal");
        let addr = NodeAddr::new([10, 0, 0, 99], 7777);
        let server = TaintMapServer::launch(
            &net,
            addr,
            TaintMapConfig {
                crash_after_registers: Some(2),
            },
            Arc::new(InMemoryBackend::new()),
            ShardSpec::default(),
            Some(wal.clone()),
            "0",
            false,
        )
        .unwrap();
        let conn = net.tcp_connect(addr).unwrap();
        let gids = bind(&conn, 3, &[]);
        // A 3-item frame crosses the threshold mid-frame: all three are
        // bound (and WAL'd) but no response ever arrives.
        let items: Vec<(u32, &[u8])> = gids.iter().copied().zip([&b"a"[..], b"b", b"c"]).collect();
        wf(&conn, OP_BIND, &encode_bind(0, 0, &items)).unwrap();
        let reply = rf(&conn);
        assert!(
            matches!(reply, Ok(None) | Err(_)),
            "crashed primary must not acknowledge: {reply:?}"
        );
        assert!(server.has_crashed());
        server.shutdown();

        // Everything committed before the crash replays.
        let reborn = TaintMapServer::launch(
            &net,
            addr,
            TaintMapConfig::default(),
            Arc::new(InMemoryBackend::new()),
            ShardSpec::default(),
            Some(wal),
            "0",
            false,
        )
        .unwrap();
        assert_eq!(reborn.replayed(), 3, "zero lost binds");
        reborn.shutdown();
    }

    #[test]
    fn dead_standby_does_not_stall_the_primary() {
        let net = SimNet::new();
        let primary = launch(&net, NodeAddr::new([10, 0, 0, 99], 7777));
        let standby = launch(&net, NodeAddr::new([10, 0, 0, 98], 7777));
        primary.replicate_to(standby.addr()).unwrap();
        standby.shutdown();
        let conn = net.tcp_connect(primary.addr()).unwrap();
        register(&conn, &[b"after-standby-death"]);
        primary.shutdown();
    }
}
