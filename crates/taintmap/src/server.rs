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
//! folded into `snapshot-<n>` generation files
//! ([`TaintMapServer::compact`]) written in the same records, so restart
//! replay is bounded by *live* gids rather than registration history. A
//! torn generation (crash mid-write) falls back to the previous one plus
//! the still-untruncated log tail. One checked reader, [`next_record`],
//! reads a log, a generation and a `REPLICATE` frame.
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
use dista_simnet::{NodeAddr, SimFs, SimNet, TcpEndpoint, TcpServer};
use dista_taint::{unpack_serialized, ByteReader, ReadError};
use parking_lot::Mutex;

use crate::backend::{TaintMapBackend, WIRE_RESERVED_GIDS};
use crate::error::TaintMapError;
use crate::proto::{
    addr, encode_class_table, push_record, read_frame, read_record, write_frame, LEASE_IDS,
    OP_BIND, OP_LOOKUP, OP_REPLICATE, RESP_ERR, RESP_MOVED, RESP_OK, STATUS_OK, STATUS_TAKEN,
    STATUS_UNKNOWN, STATUS_UNLEASED,
};
use crate::shard::{ClassTable, ShardRange, ShardSpec};

/// What a [`TaintMapWal`] recovery reconstructed, beyond the backend
/// contents: how much work replay cost (the restart-cost gate reads
/// these) and the cutovers on record, from which a relaunched server
/// builds its class table until the endpoint installs the current one.
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
    /// Ranges this server had handed to splits before the crash, in
    /// order, each naming the split's target.
    pub moved: Vec<ShardRange>,
}

/// One record of the grammar a shard's log, its compaction generations
/// and a `REPLICATE` frame are all written in, as [`next_record`] read
/// and checked it (see [`TaintMapWal`] for the bytes).
enum Record<'a> {
    /// A lease, which raised the reader's high-water.
    Lease,
    /// A gid bound to a serialized taint, as the local id it is stored at.
    Data(u32, &'a [u8]),
    /// The epoch of the table a split moved a range by, the range's first
    /// gid and its target.
    CutOver(u64, u32, NodeAddr),
    /// A generation's last record: how many `Data` records it holds.
    End(u32),
}

const REC_DATA: u8 = 1;
const REC_CUTOVER: u8 = 4;
const REC_LEASE: u8 = 5;
const REC_END: u8 = 6;

/// Records one catch-up step ships at most: a commit that finds a
/// follower behind ships it one such batch, and the endpoint drives a
/// split's copy and a restart's hand-back in steps of this size.
const CATCH_UP_RECORDS: u64 = 1024;

/// How far one lease record may raise a reader's high-water: one block,
/// plus the wire-reserved ids a block skips. A record that asks for more
/// is refused, so a hostile one — on the wire or on disk — moves the
/// high-water no further than a lease request could.
const MAX_LEASE_SPAN: u32 = LEASE_IDS + WIRE_RESERVED_GIDS.len() as u32;

/// The local id a bind or a data record naming `gid` is stored under:
/// `None` if `gid` is another shard's, one the wire grammar reserves
/// ([`WIRE_RESERVED_GIDS`]), or one above `high_water` that this shard
/// never leased.
fn leased_local(shard: ShardSpec, high_water: u32, gid: u32) -> Option<u32> {
    if WIRE_RESERVED_GIDS.contains(&gid) {
        return None;
    }
    shard
        .local_of_global(gid)
        .filter(|&local| local <= high_water)
}

fn push_lease(out: &mut Vec<u8>, local: u32) {
    out.push(REC_LEASE);
    out.extend_from_slice(&local.to_be_bytes());
}

fn push_data(out: &mut Vec<u8>, gid: u32, serialized: &[u8]) {
    out.push(REC_DATA);
    push_record(out, gid, serialized);
}

fn push_cutover(out: &mut Vec<u8>, epoch: u64, moved: &ShardRange) {
    out.push(REC_CUTOVER);
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&moved.lo_gid.to_be_bytes());
    out.extend_from_slice(&moved.addrs[0].ip());
    out.extend_from_slice(&moved.addrs[0].port().to_be_bytes());
}

fn push_end(out: &mut Vec<u8>, count: u32) {
    out.push(REC_END);
    out.extend_from_slice(&count.to_be_bytes());
}

/// Appends the lease ladder up to `high_water`: lease records in steps
/// of one block from 0, each of which a reader at the step before takes.
fn push_ladder(out: &mut Vec<u8>, high_water: u32) {
    let mut local = 0u32;
    while local < high_water {
        local = high_water.min(local.saturating_add(LEASE_IDS));
        push_lease(out, local);
    }
}

/// Reads the next record and checks it against `high_water`, the lease
/// high-water the records before it left, which a lease record raises:
/// a lease may rise at most [`MAX_LEASE_SPAN`] above it, and a `Data`
/// record must name a gid this shard leased at or below it. Every field
/// is read before the record is returned, so one cut short is an error,
/// like a refused one or an unknown tag. Each caller has its own rule
/// for an error: a log tail applies the records before it, a generation
/// and a `REPLICATE` frame are applied whole or not at all.
fn next_record<'a>(
    r: &mut ByteReader<'a>,
    shard: ShardSpec,
    high_water: &mut u32,
) -> Result<Record<'a>, ReadError> {
    Ok(match r.u8()? {
        REC_LEASE => {
            let local = r.u32()?;
            if local > high_water.saturating_add(MAX_LEASE_SPAN) {
                return Err(ReadError::Malformed("a lease past one block"));
            }
            *high_water = (*high_water).max(local);
            Record::Lease
        }
        REC_DATA => {
            let (gid, serialized) = read_record(r)?;
            let local = leased_local(shard, *high_water, gid)
                .ok_or(ReadError::Malformed("a record for a gid never leased"))?;
            Record::Data(local, serialized)
        }
        REC_CUTOVER => Record::CutOver(r.u64()?, r.u32()?, addr(r)?),
        REC_END => Record::End(r.u32()?),
        _ => return Err(ReadError::Malformed("unknown record tag")),
    })
}

/// Write-ahead log for one server, a standby too: an append-only
/// sequence of tagged records on the simulated file system (integers
/// big-endian). Lease records (`5, high-water local id u32`) and data records
/// (`1, gid u32, len u32, len bytes`) are appended before the frame that
/// made them is acknowledged, a cutover record (`4, epoch u64, lo_gid
/// u32, target ip:4 port:u16`) when a split hands the tail range away.
/// Compaction writes a `…snapshot-<n>` generation in the same records —
/// the lease ladder and data records a follower dialled at cursor 0 is
/// shipped, a cutover record per moved range between them, and an end
/// record (`6, data count u32`) — then truncates the log.
/// [`TaintMapWal::recover_into`] reads both with a `REPLICATE` frame's
/// checks.
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

    fn generation_path(&self, generation: u64) -> String {
        format!("{}.snapshot-{generation}", self.path)
    }

    fn generations(&self) -> Vec<u64> {
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

    /// Writes `records` as the next generation, truncates the log, and
    /// only then removes the older generations: until the new file is
    /// whole, the previous one plus the untruncated log still cover every
    /// record, which is what makes a torn generation recoverable. The
    /// caller holds the server's commit lock, so no commit lands between
    /// the scan that built `records` and the truncation.
    fn write_generation(&self, records: Vec<u8>) {
        let generation = self.generations().last().map_or(1, |g| g + 1);
        self.fs.write(self.generation_path(generation), records);
        self.fs.write(self.path.clone(), Vec::new());
        for g in self.generations() {
            if g < generation {
                self.fs.remove(&self.generation_path(g));
            }
        }
    }

    /// Rebuilds `backend` from the newest whole generation plus the log
    /// tail, and the cutover history. A generation is whole if every
    /// record passes and it ends at an end record counting its data
    /// records; a torn or damaged one falls back to the one before.
    /// The log tail is applied up to its first record that is cut short
    /// — wherever a crash cut it — or refused. Missing files are an empty
    /// log.
    pub fn recover_into(&self, backend: &dyn TaintMapBackend, shard: ShardSpec) -> WalRecovery {
        let mut rec = WalRecovery::default();
        for g in self.generations().into_iter().rev() {
            let file = self.fs.read(&self.generation_path(g)).unwrap_or_default();
            if is_whole_generation(&file, shard) {
                rec.snapshot_records = rec.replay(&file, backend, shard).1;
                break;
            }
            rec.torn_snapshots += 1;
        }
        if let Ok(log) = self.fs.read(&self.path) {
            (rec.wal_records_scanned, rec.wal_data_records) = rec.replay(&log, backend, shard);
        }
        rec
    }
}

/// Whether `file` is a whole generation: every record passes from a
/// zero high-water, and the last is an end record holding the number of
/// data records before it.
fn is_whole_generation(file: &[u8], shard: ShardSpec) -> bool {
    let (mut r, mut high_water, mut data) = (ByteReader::new(file), 0, 0u64);
    loop {
        match next_record(&mut r, shard, &mut high_water) {
            Ok(Record::End(count)) => return r.at_end() && data == u64::from(count),
            Ok(Record::Data(..)) => data += 1,
            Ok(_) => {}
            Err(_) => return false,
        }
    }
}

impl WalRecovery {
    /// Applies `bytes`' records to the backend `into` and to this
    /// recovery, from the backend's high-water, up to the first record
    /// [`next_record`] refuses or finds cut short. Returns how many
    /// records, and how many data records, it applied.
    fn replay(&mut self, bytes: &[u8], into: &dyn TaintMapBackend, shard: ShardSpec) -> (u64, u64) {
        let (mut r, mut high_water) = (ByteReader::new(bytes), into.max_local());
        let (mut records, mut data) = (0, 0);
        while let Ok(record) = next_record(&mut r, shard, &mut high_water) {
            records += 1;
            match record {
                Record::Data(local, serialized) => {
                    into.bind(local, serialized);
                    data += 1;
                }
                Record::CutOver(epoch, lo_gid, target) => {
                    self.epoch = epoch;
                    let addrs = vec![target];
                    self.moved.push(ShardRange { lo_gid, addrs });
                }
                Record::Lease | Record::End(_) => {}
            }
        }
        into.raise_high_water(high_water);
        (records, data)
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
    /// The address this server serves, which it finds in its table.
    addr: NodeAddr,
    backend: Arc<dyn TaintMapBackend>,
    shard: ShardSpec,
    binds: AtomicU64,
    lookups: AtomicU64,
    batch_frames: AtomicU64,
    /// `taintmap_server_*{node="taintmap",shard=..}` registry counters.
    moved_redirects: Counter,
    stale_epochs: Counter,
    double_writes: Counter,
    compactions: Counter,
    /// Set on a standby while its primary replicates to it, and on a
    /// restarted primary until it has its standby's records: a client's
    /// `BIND` is hung up on, so the client's retry redials another
    /// address of the shard's failover list, and one server leases.
    following: AtomicBool,
    /// Write-ahead log, present on primaries stood up with one.
    wal: Option<TaintMapWal>,
    /// The peers this server ships its log to.
    followers: Mutex<Vec<Follower>>,
    /// Routing table for this server's residue class: the epoch a stamp
    /// is checked against, the ranges handed away past the one naming
    /// `addr`, and the payload of every `Moved` redirect.
    table: Mutex<ClassTable>,
    /// Serializes commits (lease or bind + WAL append + forwarding)
    /// against each other, catch-up steps, cutover and compaction, so a
    /// generation can never miss a record that was acknowledged, no id is
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
        self.binds.fetch_add(items.len() as u64, Ordering::Relaxed);
        let _commit = self.commit_lock.lock();
        let moved = |lo_gid| want > 0 || items.iter().any(|&(gid, _)| gid >= lo_gid);
        if let Some(reply) = self.redirect_moved(moved) {
            return reply;
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
                self.scan(follower);
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
        let mut ladder = Vec::new();
        push_ladder(&mut ladder, self.backend.max_local());
        if ladder.is_empty() || follower.ship(&ladder) {
            Ok(())
        } else {
            Err(TaintMapError::Protocol(
                "follower refused the lease high-water",
            ))
        }
    }

    /// Ships `follower` the bound records at local ids past its cursor,
    /// `CATCH_UP_RECORDS` of them at most, in one `REPLICATE` frame, and
    /// advances the cursor over the ids the frame covered once it is
    /// answered `OK`. Returns how many records it shipped, or `None` if the ship
    /// failed. The caller holds the commit lock.
    fn scan(&self, follower: &mut Follower) -> Option<u64> {
        let mut records = Vec::new();
        let (sent, local) = self.push_bound(&mut records, follower.cursor, CATCH_UP_RECORDS);
        if !records.is_empty() && !follower.ship(&records) {
            return None;
        }
        follower.cursor = local;
        Some(sent)
    }

    /// Appends a data record for each bound local id past `from`, up to
    /// the lease high-water and `batch` records at most. Returns how many
    /// it appended and the last local id it walked.
    fn push_bound(&self, out: &mut Vec<u8>, from: u32, batch: u64) -> (u64, u32) {
        let high_water = self.backend.max_local();
        let (mut sent, mut local) = (0, from);
        while sent < batch && local < high_water {
            local += 1;
            let gid = self.shard.global_of_local(local);
            if let Some((gid, bytes)) = gid.zip(self.backend.lookup(local)) {
                push_data(out, gid, &bytes);
                sent += 1;
            }
        }
        (sent, local)
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

    /// A `Moved` redirect if this server has handed a range away and
    /// `moved` says the frame touches it, given the range's first gid:
    /// the frame leases, or names a gid at or above it.
    fn redirect_moved(&self, moved: impl Fn(u32) -> bool) -> Option<Reply> {
        let table = self.table.lock();
        let lo_gid = table.moved_past(self.addr).first()?.lo_gid;
        moved(lo_gid).then(|| redirect(&self.moved_redirects, &table))
    }

    /// Resolves one Global ID; `None` if it was never assigned or does
    /// not belong to this shard.
    fn lookup_one(&self, gid: u32) -> Option<Vec<u8>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.backend.lookup(self.shard.local_of_global(gid)?)
    }

    /// Folds the WAL into a fresh generation under the commit lock: the
    /// lease ladder [`ServerShared::connect`] sends, a cutover record per
    /// moved range, the data records [`ServerShared::scan`] walks from
    /// local 1, and an end record holding their count.
    fn compact(&self) -> Result<u64, TaintMapError> {
        let Some(wal) = &self.wal else {
            return Err(TaintMapError::Protocol("shard has no WAL to compact"));
        };
        let _commit = self.commit_lock.lock();
        let mut records = Vec::new();
        push_ladder(&mut records, self.backend.max_local());
        {
            let table = self.table.lock();
            for moved in table.moved_past(self.addr) {
                push_cutover(&mut records, table.epoch, moved);
            }
        }
        let (count, _) = self.push_bound(&mut records, 0, u64::MAX);
        push_end(&mut records, count as u32);
        wal.write_generation(records);
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
    pub(crate) fn launch(
        net: &SimNet,
        addr: NodeAddr,
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
        // The recovered cutovers until the endpoint installs the
        // current table.
        let mut table = ClassTable::initial(vec![addr], shard.index as usize);
        table.epoch = recovery.epoch;
        table.ranges.extend(recovery.moved.iter().cloned());
        let labels = [("node", "taintmap"), ("shard", shard_label)];
        let counter = |fact: &str| {
            net.registry()
                .counter_with(&format!("taintmap_server_{fact}"), &labels)
        };
        let shared = Arc::new(ServerShared {
            net: net.clone(),
            addr,
            backend,
            shard,
            binds: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            batch_frames: AtomicU64::new(0),
            moved_redirects: counter("moved_redirects"),
            stale_epochs: counter("stale_epochs"),
            double_writes: counter("double_writes"),
            compactions: counter("compactions"),
            following: AtomicBool::new(following),
            wal,
            followers: Mutex::new(Vec::new()),
            table: Mutex::new(table),
            commit_lock: Mutex::new(()),
        });
        let session_shared = shared.clone();
        let server = TcpServer::bind(net, addr, "taintmap", move |conn, _| {
            serve_connection(&conn, &session_shared)
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
    /// it up to `CATCH_UP_RECORDS` of the records past its cursor.
    /// Returns how many records it shipped, 0 once it is caught up.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] / [`TaintMapError::Protocol`] when the
    /// peer is unreachable or nothing follows it.
    pub(crate) fn catch_up(&self, peer: NodeAddr) -> Result<u64, TaintMapError> {
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
            .scan(follower)
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
    /// atomically (w.r.t. commits) stops forwarding to its target,
    /// adopts the table, which hands the range and allocation away, and
    /// records the cutover durably. From here on the server answers
    /// `Moved` redirects for the migrated range, forever.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Protocol`] if the target has not caught up.
    pub(crate) fn cutover(&self, new_table: ClassTable) -> Result<(), TaintMapError> {
        let moved = new_table.tail();
        let target = moved.addrs[0];
        let _commit = self.shared.commit_lock.lock();
        if !self.shared.caught_up(target) {
            return Err(TaintMapError::Protocol("split target not caught up"));
        }
        self.shared.followers.lock().retain(|f| f.peer != target);
        if let Some(wal) = &self.shared.wal {
            let mut record = Vec::new();
            push_cutover(&mut record, new_table.epoch, moved);
            wal.append(&record);
        }
        *self.shared.table.lock() = new_table;
        Ok(())
    }

    /// Installs the authoritative class table — the endpoint calls this
    /// on every live server of a class and its standby at cutover, and
    /// on restarted servers, so epochs converge. The server reads its
    /// epoch and the ranges it answers `Moved` for from this table
    /// alone: everything after the last range whose failover list names
    /// its address.
    pub(crate) fn set_class_table(&self, table: ClassTable) {
        *self.shared.table.lock() = table;
    }

    /// Folds the WAL into a fresh `snapshot-<n>` generation and truncates it,
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
    /// the recovered epoch and cutovers.
    pub fn recovery(&self) -> &WalRecovery {
        &self.recovery
    }

    /// The class-table epoch this server currently serves.
    pub fn epoch(&self) -> u64 {
        self.shared.table.lock().epoch
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

/// Serves one connection to its end; a following standby hangs up on
/// a `BIND`.
fn serve_connection(conn: &TcpEndpoint, shared: &ServerShared) {
    loop {
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
        if write_frame(conn, resp_op, &resp).is_err() {
            return;
        }
    }
}

/// A response frame: opcode and payload.
type Reply = (u8, Vec<u8>);

/// A `Moved` redirect carrying `table`, the server's class table,
/// counted on `cause`: `moved_redirects` or `stale_epochs`.
fn redirect(cause: &Counter, table: &ClassTable) -> Reply {
    cause.inc();
    (RESP_MOVED, encode_class_table(table))
}

/// Serves one `BIND`/`LOOKUP` frame: counts it, validates its epoch
/// stamp, and hands the items to `serve_items`; a payload that does not
/// parse to its end is `RESP_ERR`. A stale stamp is redirected like a
/// moved range: `MOVED` with the class table, which the client merges
/// before it re-routes. A stamp *ahead* of this server (it missed a
/// table update while crashed) is accepted — the moved-range check
/// still guards correctness, and redirecting it would livelock the
/// client against a behind server. A frame takes the table lock here
/// and once more for its moved check: a bind's under the commit lock, a
/// lookup's once its items are read, so a cutover that overtakes the
/// frame is still seen.
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
    {
        let table = shared.table.lock();
        if stamp < table.epoch {
            return redirect(&shared.stale_epochs, &table);
        }
    }
    serve_items(shared, &mut r).unwrap_or((RESP_ERR, vec![0xFF]))
}

/// Reads a `BIND` frame's items and serves them. A record whose bytes
/// are not a serialized taint as `serialize_taint` writes one (its
/// canonical packing, tags in value order) makes the whole frame
/// malformed: nothing of it is bound.
fn bind_items(shared: &ServerShared, r: &mut ByteReader<'_>) -> Option<Reply> {
    let want = r.u32().ok()?;
    let count = r.u32().ok()? as usize;
    // Every item carries at least its gid and its length.
    let mut items = Vec::with_capacity(r.count(count, 8));
    let mut full = Vec::new();
    for _ in 0..count {
        let (gid, packed) = read_record(r).ok()?;
        full.clear();
        unpack_serialized(packed, &mut full).ok()?;
        items.push((gid, packed));
    }
    r.at_end().then(|| shared.bind_and_lease(want, &items))
}

fn lookup_items(shared: &ServerShared, r: &mut ByteReader<'_>) -> Option<Reply> {
    let count = r.u32().ok()? as usize;
    let mut resp = Vec::with_capacity(4 + 5 * r.count(count, 4));
    resp.extend_from_slice(&(count as u32).to_be_bytes());
    let mut top = 0;
    for _ in 0..count {
        let gid = r.u32().ok()?;
        top = top.max(gid);
        match shared.lookup_one(gid).filter(|_| gid != 0) {
            Some(bytes) => {
                resp.push(STATUS_OK);
                resp.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                resp.extend_from_slice(&bytes);
            }
            None => resp.push(STATUS_UNKNOWN),
        }
    }
    if !r.at_end() {
        return None;
    }
    Some(
        shared
            .redirect_moved(|lo_gid| top >= lo_gid)
            .unwrap_or((RESP_OK, resp)),
    )
}

/// The receiving side of [`Follower::ship`]: the payload is lease and
/// data records, read through [`next_record`] from this shard's lease
/// high-water. It is applied, then logged as it came, only if every
/// record passes; a cutover or end record is refused too, so a peer
/// cannot redirect this shard's clients. `None` if anything is refused.
fn serve_replicate(shared: &ServerShared, payload: &[u8]) -> Option<Reply> {
    // Records are logged before they are acknowledged, so an ack means
    // they survive this side crashing too.
    let _commit = shared.commit_lock.lock();
    let mut high_water = shared.backend.max_local();
    let mut binds = Vec::new();
    let mut r = ByteReader::new(payload);
    while !r.at_end() {
        match next_record(&mut r, shared.shard, &mut high_water).ok()? {
            Record::Lease => {}
            Record::Data(local, serialized) => binds.push((local, serialized)),
            Record::CutOver(..) | Record::End(_) => return None,
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
    use dista_taint::{serialize_taint, LocalId, TagValue, TaintStore};

    fn launch(net: &SimNet, addr: NodeAddr) -> TaintMapServer {
        TaintMapServer::launch(
            net,
            addr,
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

    /// The bytes a VM serializes for a one-tag string taint `name`: a
    /// record a `BIND` may carry.
    fn taint(name: &str) -> &'static [u8] {
        let store = TaintStore::new(LocalId::default());
        let taint = store.mint_source_taint(TagValue::str(name));
        Box::leak(serialize_taint(store.tree(), taint).into_boxed_slice())
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
        let gid = register(&conn, &[taint("same")])[0];
        assert_eq!(
            bind_answered(&conn, 0, &[(gid, taint("same"))]).1,
            [STATUS_OK]
        );
        assert_eq!(
            bind_answered(&conn, 0, &[(gid, taint("a rival"))]).1,
            [STATUS_TAKEN]
        );
        assert_eq!(lookup(&conn, &[gid]), vec![Some(taint("same").to_vec())]);
        let stats = server.stats();
        assert_eq!((stats.global_taints, stats.aliases), (1, 0));
        assert_eq!(stats.bind_requests, 3);
        server.shutdown();
    }

    #[test]
    fn binding_known_bytes_under_another_gid_makes_an_alias() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let gids = register(
            &conn,
            &[taint("taint-a"), taint("taint-b"), taint("taint-a")],
        );
        assert_eq!(
            lookup(&conn, &[gids[2]]),
            vec![Some(taint("taint-a").to_vec())]
        );
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
        let gid = register(&conn, &[taint("payload")])[0];
        let leased = bind(&conn, 1, &[])[0];
        let items = lookup(&conn, &[gid, 999, 0, leased]);
        assert_eq!(items[0].as_deref(), Some(taint("payload")));
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
            // A record whose first length byte runs past the packing
            // template: no serialized taint, so the frame leases nothing.
            (OP_BIND, encode_bind(0, 1, &[(1, &[255, 0])])),
        ];
        for (op, payload) in cases {
            wf(&conn, op, &payload).unwrap();
            let (resp, _) = rf(&conn).unwrap().unwrap();
            assert_eq!(resp, RESP_ERR, "op {op} payload {payload:?}");
        }
        assert_eq!(register(&conn, &[taint("still-serving")]), vec![1]);
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
            (7, taint("never leased")),
            (0, taint("untainted")),
            (1, taint("one")),
            (1, taint("a rival")),
            (2, taint("two")),
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
            vec![
                Some(taint("one").to_vec()),
                Some(taint("two").to_vec()),
                None
            ]
        );
        assert_eq!(server.stats().global_taints, 2, "nothing refused is stored");
        server.shutdown();
    }

    #[test]
    fn a_following_standby_hangs_up_on_a_bind_and_serves_lookups() {
        let (net, server) = setup();
        let conn = net.tcp_connect(server.addr()).unwrap();
        let gid = register(&conn, &[taint("kept")])[0];
        server.set_following(true);
        wf(&conn, OP_BIND, &encode_bind(0, 1, &[])).unwrap();
        assert!(matches!(rf(&conn), Ok(None) | Err(_)), "hung up on");
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(lookup(&conn, &[gid]), vec![Some(taint("kept").to_vec())]);
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
        assert_eq!(register(&conn, &[taint("before")]), vec![1]);
        let last = u32::MAX - 1;
        for hostile in [
            data_record(last, taint("last")),
            lease_record(last),
            lease_record(1 + MAX_LEASE_SPAN + 1),
            [lease_record(40), data_record(last, taint("last"))].concat(),
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
        let honest = [lease_record(1 + LEASE_IDS), data_record(3, taint("three"))].concat();
        wf(&conn, OP_REPLICATE, &honest).unwrap();
        assert_eq!(rf(&conn).unwrap().unwrap().0, RESP_OK);
        assert_eq!(server.max_local(), 1 + LEASE_IDS);
        assert_eq!(
            bind(&conn, 1, &[]),
            vec![2 + LEASE_IDS],
            "leases resume above"
        );
        let held = lookup(&conn, &[1, 3, last]);
        assert_eq!(held[0].as_deref(), Some(taint("before")));
        assert_eq!(held[1].as_deref(), Some(taint("three")));
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
        bind(&conn, 0, &[(u32::MAX - 1, taint("last"))]);
        assert_eq!(
            lookup(&conn, &[u32::MAX - 1]),
            vec![Some(taint("last").to_vec())]
        );
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
        wf(
            &conn,
            OP_REPLICATE,
            &data_record(probe, taint("probe-shaped")),
        )
        .unwrap();
        assert_eq!(rf(&conn).unwrap().unwrap().0, RESP_ERR);
        assert_eq!(
            bind_answered(&conn, 0, &[(probe, taint("probe-shaped"))]).1,
            [STATUS_UNLEASED]
        );
        assert_eq!(lookup(&conn, &[probe]), vec![None]);
        server.shutdown();

        // Nor does replay store one: a log naming 0xFF under a lease
        // ladder past it, as a log written before the refusal could, is
        // replayed up to that record.
        let fs = SimFs::new();
        let mut log = Vec::new();
        push_ladder(&mut log, 300);
        push_data(&mut log, probe, taint("probe-shaped"));
        fs.write("w", log);
        let backend = InMemoryBackend::new();
        let recovered = TaintMapWal::new(fs, "w").recover_into(&backend, ShardSpec::default());
        assert_eq!(recovered.wal_records_scanned, 5, "the ladder's five leases");
        assert_eq!(recovered.wal_data_records, 0);
        assert!(backend.is_empty());
        assert_eq!(backend.max_local(), 300);
    }

    #[test]
    fn moved_gid_under_a_current_stamp_answers_moved_with_the_table() {
        // The "server behind the client" case `serve_data` accepts on
        // purpose: the stamp is not stale, so the moved-range check is
        // what keeps a migrated gid from being served here. The server
        // reads what moved from its table alone, whether range 0's
        // failover list names it first, as a primary, or second, as a
        // standby.
        let primary = NodeAddr::new([10, 0, 0, 99], 7776);
        for standby in [false, true] {
            let (net, server) = setup();
            let owners = match standby {
                false => vec![server.addr()],
                true => vec![primary, server.addr()],
            };
            moved_redirects_of(&net, &server, owners);
            server.shutdown();
        }
    }

    /// Installs a table whose range 0 is served by `owners` and whose
    /// range 1, from gid 2, by another server, then checks what `server`
    /// answers `Moved` and what it serves.
    fn moved_redirects_of(net: &SimNet, server: &TaintMapServer, owners: Vec<NodeAddr>) {
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(
            register(&conn, &[taint("stays"), taint("moves")]),
            vec![1, 2]
        );
        let spare = bind(&conn, 1, &[])[0];
        let target = NodeAddr::new([10, 0, 0, 99], 7779);
        let table = ClassTable {
            epoch: 1,
            ranges: vec![
                ShardRange {
                    lo_gid: 1,
                    addrs: owners,
                },
                ShardRange {
                    lo_gid: 2,
                    addrs: vec![target],
                },
            ],
        };
        server.set_class_table(table.clone());

        for (op, payload) in [
            (OP_LOOKUP, encode_lookup(1, &[1, 2])),
            (OP_LOOKUP, encode_lookup(9, &[2])),
            (OP_BIND, encode_bind(9, 1, &[])), // allocation moved too
            (OP_BIND, encode_bind(9, 0, &[(spare, taint("bound late"))])),
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
    }

    #[test]
    fn sharded_server_leases_only_its_own_ids() {
        let net = SimNet::new();
        let server = TaintMapServer::launch(
            &net,
            NodeAddr::new([10, 0, 0, 99], 7777),
            Arc::new(InMemoryBackend::new()),
            ShardSpec { index: 2, count: 4 },
            None,
            "0",
            false,
        )
        .unwrap();
        let conn = net.tcp_connect(server.addr()).unwrap();
        assert_eq!(
            register(&conn, &[taint("first"), taint("second")]),
            vec![3, 7],
            "shard 2 of 4 starts at gid 3 and strides by the shard count"
        );
        // A gid owned by another shard is unknown here, and not bindable.
        assert_eq!(lookup(&conn, &[4]), vec![None]);
        assert_eq!(
            bind_answered(&conn, 0, &[(4, taint("foreign"))]).1,
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
                register(&conn, &[taint(&format!("taint-{i}"))])[0]
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
        let id = register(&conn, &[taint("replicated-taint")])[0];
        let unbound = bind(&conn, 1, &[])[0];

        // The standby can serve the lookup itself.
        let sconn = net.tcp_connect(standby.addr()).unwrap();
        assert_eq!(
            lookup(&sconn, &[id]),
            vec![Some(taint("replicated-taint").to_vec())]
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
            Arc::new(InMemoryBackend::new()),
            ShardSpec::default(),
            Some(wal.clone()),
            "0",
            false,
        )
        .unwrap();
        let conn = net.tcp_connect(addr).unwrap();
        let id_a = register(&conn, &[taint("persisted-A")])[0];
        register(&conn, &[taint("persisted-B")]);
        bind(&conn, 2, &[]); // leased, never bound
        server.shutdown();

        // A fresh backend + the same WAL recovers both binds and resumes
        // leasing past every id leased before.
        let reborn = TaintMapServer::launch(
            &net,
            addr,
            Arc::new(InMemoryBackend::new()),
            ShardSpec::default(),
            Some(wal),
            "0",
            false,
        )
        .unwrap();
        assert_eq!(reborn.replayed(), 2);
        let conn = net.tcp_connect(addr).unwrap();
        assert_eq!(
            lookup(&conn, &[id_a]),
            vec![Some(taint("persisted-A").to_vec())]
        );
        assert_eq!(bind(&conn, 1, &[]), vec![5], "leasing resumed past replay");
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
        register(&conn, &[taint("after-standby-death")]);
        primary.shutdown();
    }
}
