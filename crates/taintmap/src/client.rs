//! Per-VM Taint Map client with the two caches of paper Fig. 9, shard
//! routing, and failover across each shard's primary/standby pair (§IV).
//!
//! The client is handed a [`TaintMapTopology`] and hides it completely:
//!
//! * **Registration** — a new taint takes the next gid of the lease of
//!   the shard its bytes hash to (`fnv64(serialized) % shards`), a block
//!   of [`LEASE_IDS`] gids the shard handed this client ahead of time,
//!   and its `(gid, bytes)` bind joins that shard's queue. A miss
//!   re-probes the cache and publishes the gid in one lock hold, so a
//!   concurrent miss on the same taint finds it. When a lease runs dry
//!   one `BIND` frame binds the queue and leases the next block: one
//!   round trip per [`LEASE_IDS`] fresh taints. A caller that names gids
//!   without their definitions waits for its gids' binds
//!   ([`TaintMapClient::global_ids_into`]); one that ships them does not.
//!   A bind the shard refuses re-keys its taint to a fresh gid.
//! * **Routing** — binds and lookups go where the gid lives,
//!   `(gid - 1) % shards` and its range; leases to the class's tail.
//! * **One request shape** — [`TaintMapClient::global_ids_for`] /
//!   [`TaintMapClient::taints_for`] resolve all cache-missing items in
//!   one `BIND`/`LOOKUP` frame per shard; the paper-named
//!   [`TaintMapClient::global_id_for`] / [`TaintMapClient::taint_for`]
//!   are the same calls with one item.
//! * **One transport** — the private `transport` module owns every
//!   connection, circuit breaker and class table, and nothing else
//!   touches the wire: a destination answers or fails on its own, and a
//!   frame that fails drops its connection.
//! * **Lock-free hits** — each direction's locked map has an [`IdFront`]
//!   of final mappings: a call it answers whole takes no lock, and any
//!   miss sends the whole call down the locked path.
//! * **Inline definitions** — a gid a peer defined on the stream it
//!   arrived on ([`TaintMapClient::define`]) resolves without a lookup,
//!   through the same cache entry a lookup answer fills.
//! * **Degradation** — the degraded lookup path
//!   ([`TaintMapClient::taints_for_degraded`]) stamps unreachable-shard
//!   gids with a `pending-gid:<n>` sentinel taint instead of dropping
//!   them, to be reconciled after the partition heals
//!   ([`TaintMapClient::reconcile_pending`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dista_obs::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, ObsEventKind, SpanTracker,
    BATCH_SIZE_BOUNDS, LATENCY_US_BOUNDS,
};
use dista_simnet::SimNet;
use dista_taint::{
    deserialize_taint, serialize_taint, GlobalId, IdFront, IdMap, TagValue, Taint, TaintStore,
};
use parking_lot::Mutex;

use crate::backend::WIRE_RESERVED_GIDS;
use crate::error::TaintMapError;
use crate::proto::{
    decode_bind_resp, decode_lookup_resp, encode_bind, encode_lookup, LEASE_IDS, OP_BIND,
    OP_LOOKUP, STATUS_TAKEN, STATUS_UNLEASED,
};
use crate::shard::{shard_of_bytes, shard_of_gid, TaintMapTopology};

mod transport;

pub use transport::ClientResilience;
use transport::{Failed, Transport};

/// Gids a bare send tries for one taint before it gives up: each one the
/// shard refuses re-keys the taint, and the next is freshly leased.
const REKEY_ROUNDS: usize = 3;

/// Client-side RPC counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Bind items sent over the wire: one per gid this client handed
    /// out, or learned from a peer and bound for it.
    pub register_rpcs: u64,
    /// Lookup items actually sent over the wire (cache misses).
    pub lookup_rpcs: u64,
    /// Requests satisfied from either cache.
    pub cache_hits: u64,
    /// Redials of a server whose connection a failed frame dropped, each
    /// to the next address of that server's failover list.
    pub failovers: u64,
    /// Request frames sent (a multi-shard batch counts once per shard,
    /// and a batch of one counts; a retry of the same frame does not
    /// count again).
    pub batch_frames: u64,
    /// RPC re-attempts after a transport failure (each redial+replay of
    /// one frame counts once).
    pub retries: u64,
    /// Times a shard's circuit breaker transitioned to open (including
    /// re-opens after a failed half-open probe).
    pub breaker_opens: u64,
    /// Requests fast-failed by an open breaker without touching the
    /// wire.
    pub breaker_fast_fails: u64,
    /// Total nanoseconds shards spent with an open breaker (accumulated
    /// when the closing probe succeeds).
    pub breaker_open_ns: u64,
    /// Lookups degraded to a `pending-gid` sentinel because the owning
    /// shard was unreachable (counted once per distinct gid).
    pub degraded_lookups: u64,
    /// Pending sentinels since resolved to their real taint by the
    /// reconciler.
    pub pending_resolved: u64,
    /// Gids currently pending (sentinel attached, not yet reconciled).
    pub pending_gids: u64,
    /// `Moved` redirects followed after a range migrated away or for a
    /// stale epoch stamp (each one merges the server's class table).
    pub moved_redirects: u64,
}

/// Telemetry sinks for one [`TaintMapClient`]: a flight recorder for
/// structured events (register/lookup/failover) and the instruments
/// that *are* the client's counters — each fact is bumped once, here,
/// and [`TaintMapClient::stats`] reads it back.
///
/// [`ClientObserver::disabled`] (the default, used by
/// [`TaintMapClient::connect_topology`]) hands out a no-op recorder and
/// the same instruments in a registry of its own, which nothing else
/// reads, so the client never branches on "is telemetry on".
#[derive(Debug, Clone)]
pub struct ClientObserver {
    /// Event sink (shares the owning VM's ring).
    pub recorder: FlightRecorder,
    /// Items per batch frame.
    pub batch_items: Histogram,
    /// Wire time of one batch round trip, in microseconds.
    pub batch_latency_us: Histogram,
    /// Bind items sent over the wire.
    pub register_rpcs: Counter,
    /// Lookup items sent over the wire (cache misses).
    pub lookup_rpcs: Counter,
    /// Request frames sent.
    pub batch_frames: Counter,
    /// Requests satisfied from either direction cache.
    pub cache_hits: Counter,
    /// Shard redials after a transport error.
    pub failovers: Counter,
    /// RPC re-attempts after a transport failure.
    pub retries: Counter,
    /// Circuit-breaker open transitions.
    pub breaker_opens: Counter,
    /// Requests fast-failed by an open breaker.
    pub breaker_fast_fails: Counter,
    /// Nanoseconds spent with an open breaker.
    pub breaker_open_ns: Counter,
    /// Lookups degraded to a pending sentinel.
    pub degraded_lookups: Counter,
    /// Pending sentinels resolved by the reconciler.
    pub pending_resolved: Counter,
    /// Gids currently pending, set under the pending-map lock whenever
    /// the map changes.
    pub pending_gids: Gauge,
    /// `Moved` redirects followed during resharding.
    pub moved_redirects: Counter,
    /// taint → root span map shared with the owning VM: registration
    /// transfers the root span from the taint to its fresh gid.
    pub taint_spans: SpanTracker,
    /// gid → delivering span map shared with the owning VM.
    pub gid_spans: SpanTracker,
}

impl Default for ClientObserver {
    fn default() -> Self {
        Self::disabled()
    }
}

impl ClientObserver {
    /// An observer whose recorder records nothing and whose instruments
    /// live in a registry nothing else reads.
    pub fn disabled() -> Self {
        Self::for_node(&MetricsRegistry::new(), "", FlightRecorder::disabled())
    }

    /// An observer writing `taintmap_*{node=<node>}` instruments into
    /// `registry` and events into `recorder`.
    pub fn for_node(registry: &MetricsRegistry, node: &str, recorder: FlightRecorder) -> Self {
        let labels = [("node", node)];
        ClientObserver {
            recorder,
            batch_items: registry.histogram_with(
                "taintmap_batch_items",
                &labels,
                BATCH_SIZE_BOUNDS,
            ),
            batch_latency_us: registry.histogram_with(
                "taintmap_batch_latency_us",
                &labels,
                LATENCY_US_BOUNDS,
            ),
            register_rpcs: registry.counter_with("taintmap_register_rpcs", &labels),
            lookup_rpcs: registry.counter_with("taintmap_lookup_rpcs", &labels),
            batch_frames: registry.counter_with("taintmap_batch_frames", &labels),
            cache_hits: registry.counter_with("taintmap_cache_hits", &labels),
            failovers: registry.counter_with("taintmap_failovers", &labels),
            retries: registry.counter_with("taintmap_retries", &labels),
            breaker_opens: registry.counter_with("taintmap_breaker_opens", &labels),
            breaker_fast_fails: registry.counter_with("taintmap_breaker_fast_fails", &labels),
            breaker_open_ns: registry.counter_with("taintmap_breaker_open_ns", &labels),
            degraded_lookups: registry.counter_with("taintmap_degraded_lookups", &labels),
            pending_resolved: registry.counter_with("taintmap_pending_resolved", &labels),
            pending_gids: registry.gauge_with("taintmap_pending_gids", &labels),
            moved_redirects: registry.counter_with("taintmap_moved_redirects", &labels),
            taint_spans: SpanTracker::disabled(),
            gid_spans: SpanTracker::disabled(),
        }
    }

    /// Shares the owning VM's span trackers so registration can move a
    /// root span from its taint to the minted gid, and lookups can name
    /// the span that delivered a gid.
    pub fn with_spans(mut self, taint_spans: SpanTracker, gid_spans: SpanTracker) -> Self {
        self.taint_spans = taint_spans;
        self.gid_spans = gid_spans;
        self
    }
}

/// A gid this client has to bind: one it handed out, or one it learned
/// from a peer's definition and is about to send bare (`learned`).
struct Queued {
    gid: GlobalId,
    taint: Taint,
    bytes: Vec<u8>,
    learned: bool,
}

/// One shard's share of registration: the leased gids not handed out
/// yet, lowest first, and the binds waiting for the shard's next frame.
#[derive(Default)]
struct Lease {
    free: VecDeque<GlobalId>,
    queue: Vec<Queued>,
}

/// The send side's view of Global IDs, behind one lock so that a miss
/// re-probes the cache and publishes the gid it hands out in one hold.
struct Outbound {
    /// taint -> global id: "Node1 does not need to request a Global ID
    /// again if it sends b2 out later" (step ② of Fig. 9).
    gid_of: IdMap<Taint, GlobalId>,
    /// Taints whose gid the service cannot answer yet, each with whether
    /// its bind is queued (`true`) or must first be serialized (`false`:
    /// the gid came from a peer's definition). Empty on v1-only traffic.
    unbound: IdMap<Taint, bool>,
    /// One per shard.
    leases: Vec<Lease>,
}

/// The receive side's two views of a Global ID, behind one lock so that
/// a decode asks "is anything waiting to be reconciled?" and probes the
/// cache in the same hold.
#[derive(Default)]
struct Inbound {
    /// global id -> taint: a gid from outside (a lookup answer, a peer's
    /// definition) keeps its first resolution, but a gid this client
    /// hands out resolves to its own taint, overwriting any definition.
    /// `taint_front` mirrors it. A peer chooses the ids inserted here
    /// ([`TaintMapClient::define`]), so the hash is keyed.
    taint_of: HashMap<GlobalId, Taint>,
    /// Degraded lookups awaiting reconciliation: gid → the sentinel
    /// taint stamped onto the delivered bytes.
    pending: HashMap<GlobalId, Taint>,
    /// Reconciled sentinels: sentinel taint → the real taint it stood
    /// in for.
    resolutions: HashMap<Taint, Taint>,
}

struct ClientInner {
    /// The only way to the wire.
    transport: Transport,
    store: TaintStore,
    /// What this VM calls its taints on the wire, and its leases.
    outbound: Mutex<Outbound>,
    /// What is known about Global IDs arriving from the wire.
    inbound: Mutex<Inbound>,
    /// Only the bound entries of `gid_of` (a bind answered, a lookup
    /// answer), so a bare send never names a gid too early.
    gid_front: IdFront<Taint, GlobalId>,
    /// `taint_of`, each write published in the hold that makes it.
    taint_front: IdFront<GlobalId, Taint>,
    /// Whether `pending` is non-empty, stored under the inbound lock,
    /// which a reader that sees it set takes.
    any_pending: AtomicBool,
    /// One per shard, held across a `BIND` round: rounds on a shard
    /// take turns, so a failed one requeues before the next one looks.
    flushing: Vec<Mutex<()>>,
    obs: ClientObserver,
}

/// A VM's handle to the Taint Map service.
///
/// One client is shared by all threads of a simulated JVM; it keeps one
/// connection per Taint Map server and both direction caches. A frame
/// that fails is re-sent after a redial down the server's failover list,
/// with bounded backoff, up to the [`ClientResilience`] retry budget.
/// See the crate docs for an end-to-end example.
#[derive(Clone)]
pub struct TaintMapClient {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for TaintMapClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaintMapClient")
            .field("shards", &self.shard_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl TaintMapClient {
    /// Connects to every shard of a deployment, resolving taints into
    /// `store`. The topology normally comes from
    /// [`crate::TaintMapEndpoint::topology`].
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if some shard has no reachable address.
    pub fn connect_topology(
        net: &SimNet,
        topology: TaintMapTopology,
        store: TaintStore,
    ) -> Result<Self, TaintMapError> {
        Self::connect_topology_tuned(
            net,
            topology,
            store,
            ClientObserver::disabled(),
            ClientResilience::default(),
        )
    }

    /// Like [`TaintMapClient::connect_topology`], with telemetry (batch
    /// instruments land in the observer's registry handles,
    /// register/lookup/failover events in its flight recorder) and
    /// explicit [`ClientResilience`] tuning (RPC deadline, retry budget,
    /// circuit breaker). The client leases its first block of gids from
    /// every shard here; a shard that cannot lease now leases on first
    /// use.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if some shard has no reachable address.
    pub fn connect_topology_tuned(
        net: &SimNet,
        topology: TaintMapTopology,
        store: TaintStore,
        obs: ClientObserver,
        resilience: ClientResilience,
    ) -> Result<Self, TaintMapError> {
        let src_ip = store.local_id().ip();
        let transport = Transport::connect(net, &topology, src_ip, resilience, obs.clone())?;
        let n = topology.shard_count();
        let client = TaintMapClient {
            inner: Arc::new(ClientInner {
                transport,
                store,
                outbound: Mutex::new(Outbound {
                    gid_of: IdMap::default(),
                    unbound: IdMap::default(),
                    leases: (0..n).map(|_| Lease::default()).collect(),
                }),
                inbound: Mutex::new(Inbound::default()),
                gid_front: IdFront::default(),
                taint_front: IdFront::default(),
                any_pending: AtomicBool::new(false),
                flushing: (0..n).map(|_| Mutex::new(())).collect(),
                obs,
            }),
        };
        let _ = client.flush();
        Ok(client)
    }

    /// The Global ID this VM already knows for `taint`, if any — the
    /// `gid_of` cache, populated by registrations *and* by wire decodes.
    /// Never performs an RPC; used by sink points to name the global ids
    /// reaching a sink.
    pub fn cached_gid_for(&self, taint: Taint) -> Option<GlobalId> {
        self.inner.outbound.lock().gid_of.get(&taint).copied()
    }

    /// The store this client resolves into.
    pub fn store(&self) -> &TaintStore {
        &self.inner.store
    }

    /// Number of shards this client routes across.
    pub fn shard_count(&self) -> usize {
        self.inner.transport.shard_count()
    }

    /// Returns the Global ID for `taint`, registering it with the service
    /// on first use (steps ①-② of Fig. 9): the paper-named call, a
    /// [`TaintMapClient::global_ids_for`] of one.
    ///
    /// # Errors
    ///
    /// Transport errors from the RPC.
    pub fn global_id_for(&self, taint: Taint) -> Result<GlobalId, TaintMapError> {
        Ok(self.global_ids_for(&[taint])?[0])
    }

    /// Returns Global IDs for a whole slice of taints, handing out a
    /// leased gid to every cache miss and binding them in one `BIND`
    /// frame per shard before it returns, so any VM can look each one
    /// up. Output is index-aligned with the input; empty taints map to
    /// [`GlobalId::UNTAINTED`] without any RPC.
    ///
    /// # Errors
    ///
    /// Transport errors from the RPCs.
    pub fn global_ids_for(&self, taints: &[Taint]) -> Result<Vec<GlobalId>, TaintMapError> {
        let mut out = Vec::new();
        self.global_ids_into(taints, &mut out, None)?;
        Ok(out)
    }

    /// [`TaintMapClient::global_ids_for`] into a caller-owned vector
    /// (cleared first), so a caller that keeps it allocates nothing
    /// when every taint is a cache hit. `taints` may repeat freely (the
    /// boundary hands over one taint per shadow run): hits cost one load
    /// each if the front holds them all, else one probe each under one
    /// hold of the cache lock, and only the misses are deduplicated.
    ///
    /// `defs` says how the caller names the gids on the wire. `None`:
    /// bare, as v1 and datagrams do, so every gid returned must be one a
    /// receiver can look up — this call binds whichever of them is not
    /// yet (gids it handed out, gids learned from a peer's definition)
    /// and waits for the acknowledgement; a taint whose bind the shard
    /// refused is re-keyed and handed a fresh gid. `Some`: each with its
    /// definition, as a v2 connection does, so nothing is waited for but
    /// a lease refill, and `defs` (cleared first) receives each gid this
    /// call handed out with its serialized taint, which the caller ships
    /// instead of serializing the taint again.
    ///
    /// # Errors
    ///
    /// As [`TaintMapClient::global_ids_for`];
    /// [`TaintMapError::Protocol`] when a bare send's shard refused three
    /// gids in a row for one of `taints`.
    pub fn global_ids_into(
        &self,
        taints: &[Taint],
        out: &mut Vec<GlobalId>,
        mut defs: Option<&mut Vec<(GlobalId, Vec<u8>)>>,
    ) -> Result<(), TaintMapError> {
        if let Some(defs) = defs.as_deref_mut() {
            defs.clear();
        }
        for _ in 0..REKEY_ROUNDS {
            out.clear();
            out.resize(taints.len(), GlobalId::UNTAINTED);
            if let Some(hits) = self.inner.gid_front.answer(taints, Taint::EMPTY, out) {
                self.inner.obs.cache_hits.add(hits);
                return Ok(());
            }
            let (missed, unbound) = {
                let outbound = self.inner.outbound.lock();
                let missed = self.answer_from_cache(&outbound.gid_of, taints, Taint::EMPTY, out);
                (missed, !outbound.unbound.is_empty())
            };
            if !missed.is_empty() {
                self.hand_out(taints, &missed, out, defs.as_deref_mut())?;
            }
            let settled = defs.is_some() || (!unbound && missed.is_empty());
            if settled || self.make_durable(taints, out)? {
                return Ok(());
            }
        }
        Err(TaintMapError::Protocol("every gid for a taint was refused"))
    }

    /// The cache-hit half of both directions, run under one hold of the
    /// cache's lock: answers every key `cache` knows into its `out`
    /// slot (`blank` keys keep the blank answer `out` was filled with;
    /// a key equal to its predecessor reuses the predecessor's probe)
    /// and returns the input indices it could not answer.
    fn answer_from_cache<K: Copy + Eq + std::hash::Hash, V: Copy>(
        &self,
        cache: &HashMap<K, V, impl std::hash::BuildHasher>,
        keys: &[K],
        blank: K,
        out: &mut [V],
    ) -> Vec<usize> {
        let mut missed = Vec::new();
        let mut hits = 0u64;
        let mut last: Option<(K, Option<V>)> = None;
        for (i, &key) in keys.iter().enumerate() {
            if key == blank {
                continue;
            }
            let answer = match last {
                Some((probed, answer)) if probed == key => answer,
                _ => cache.get(&key).copied(),
            };
            last = Some((key, answer));
            match answer {
                Some(value) => {
                    out[i] = value;
                    hits += 1;
                }
                None => missed.push(i),
            }
        }
        if hits > 0 {
            self.inner.obs.cache_hits.add(hits);
        }
        missed
    }

    /// Hands out gids to the `missed` slots of `taints`: each distinct
    /// taint is serialized once outside the lock, then takes the next gid
    /// of its shard's lease, in first-appearance order, under the hold
    /// that re-probes the cache. A dry lease is refilled on this thread,
    /// and the hand-out resumes where that shard stopped.
    fn hand_out(
        &self,
        taints: &[Taint],
        missed: &[usize],
        out: &mut [GlobalId],
        defs: Option<&mut Vec<(GlobalId, Vec<u8>)>>,
    ) -> Result<(), TaintMapError> {
        let n = self.shard_count();
        let mut slot_of: IdMap<Taint, usize> = IdMap::default();
        let mut distinct: Vec<(Taint, Vec<u8>)> = Vec::new();
        for &i in missed {
            slot_of.entry(taints[i]).or_insert_with(|| {
                distinct.push((
                    taints[i],
                    serialize_taint(self.inner.store.tree(), taints[i]),
                ));
                distinct.len() - 1
            });
        }
        let mut gids = vec![GlobalId::UNTAINTED; distinct.len()];
        // Per shard, the distinct slots still waiting, last first.
        let mut waiting: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, (_, bytes)) in distinct.iter().enumerate().rev() {
            waiting[shard_of_bytes(bytes, n)].push(k);
        }
        let mut handed = Vec::new();
        let result = loop {
            let (mut dry, mut hits) = (Vec::new(), 0);
            {
                let mut outbound = self.inner.outbound.lock();
                let outbound = &mut *outbound;
                for (shard, slots) in waiting.iter_mut().enumerate() {
                    while let Some(&k) = slots.last() {
                        let (taint, ref bytes) = distinct[k];
                        if let Some(&gid) = outbound.gid_of.get(&taint) {
                            gids[k] = gid;
                            hits += 1;
                        } else if let Some(gid) = outbound.leases[shard].free.pop_front() {
                            let bytes = bytes.clone();
                            outbound.leases[shard].queue.push(Queued {
                                gid,
                                taint,
                                bytes,
                                learned: false,
                            });
                            outbound.gid_of.insert(taint, gid);
                            outbound.unbound.insert(taint, true);
                            gids[k] = gid;
                            handed.push(k);
                        } else {
                            dry.push(shard);
                            break;
                        }
                        slots.pop();
                    }
                }
            }
            self.inner.obs.cache_hits.add(hits);
            if dry.is_empty() {
                break Ok(());
            }
            if let Err(e) = self.send_binds(&dry) {
                break Err(e);
            }
        };
        for &k in &handed {
            self.finish_registration(distinct[k].0, gids[k]);
        }
        if let Some(defs) = defs {
            defs.extend(
                handed
                    .iter()
                    .map(|&k| (gids[k], std::mem::take(&mut distinct[k].1))),
            );
        }
        for &i in missed {
            out[i] = gids[slot_of[&taints[i]]];
        }
        result
    }

    /// Makes the gids `out` names for `taints` ones a receiver can look
    /// up: binds those still unbound — queued here, or learned from a
    /// peer's definition and serialized now — and waits for the
    /// acknowledgement. Returns whether `out` still names every taint's
    /// gid: `false` when a bind was refused and its taint re-keyed.
    fn make_durable(&self, taints: &[Taint], out: &[GlobalId]) -> Result<bool, TaintMapError> {
        let n = self.shard_count();
        let (mut shards, mut learned) = (Vec::new(), Vec::new());
        {
            let outbound = self.inner.outbound.lock();
            for taint in taints {
                if let Some(&queued) = outbound.unbound.get(taint) {
                    let gid = outbound.gid_of[taint];
                    shards.push(shard_of_gid(gid.0, n));
                    if !queued && !learned.iter().any(|q: &Queued| q.taint == *taint) {
                        let bytes = Vec::new();
                        learned.push(Queued {
                            gid,
                            taint: *taint,
                            bytes,
                            learned: true,
                        });
                    }
                }
            }
        }
        if shards.is_empty() {
            return Ok(true);
        }
        for q in &mut learned {
            q.bytes = serialize_taint(self.inner.store.tree(), q.taint);
        }
        {
            let mut outbound = self.inner.outbound.lock();
            let outbound = &mut *outbound;
            for q in learned {
                if let Some(queued @ false) = outbound.unbound.get_mut(&q.taint) {
                    *queued = true;
                    outbound.leases[shard_of_gid(q.gid.0, n)].queue.push(q);
                }
            }
        }
        shards.sort_unstable();
        shards.dedup();
        self.send_binds(&shards)?;
        let outbound = self.inner.outbound.lock();
        Ok(taints
            .iter()
            .zip(out)
            .all(|(taint, gid)| !gid.is_tainted() || outbound.gid_of.get(taint) == Some(gid)))
    }

    /// Binds everything this client handed out and has not bound yet,
    /// on every shard, and waits for the acknowledgement (a dry lease is
    /// refilled on the way). A census reads the service after every VM
    /// flushed; `Cluster::shutdown` flushes every VM.
    ///
    /// # Errors
    ///
    /// As [`TaintMapClient::global_ids_for`].
    pub fn flush(&self) -> Result<(), TaintMapError> {
        let shards: Vec<usize> = (0..self.shard_count()).collect();
        self.send_binds(&shards)
    }

    /// One round of `BIND` frames for `shards`, one per destination:
    /// every bind queued for them goes where its gid lives, and each
    /// lease is topped up to [`LEASE_IDS`] from the class's tail. A
    /// shard with nothing queued and gids left is skipped. Rounds on a
    /// shard take turns. Each destination answers or fails on its own:
    /// the answers are applied, and a failed destination's binds go back
    /// in front of their queues while its lease is left as it was. So
    /// after `Ok` everything queued before the call is settled: bound, or
    /// refused and its taint re-keyed.
    ///
    /// The shard answers each bind on its own. One it accepts puts its
    /// taint's gid in the front, where it stays. One it refuses — a gid it
    /// never leased, or one of this client's own gids bound to other
    /// bytes first — loses its taint's cache entry, so the next send of
    /// the taint hands it a fresh gid. A refused own gid also drops the
    /// rest of its shard's lease, which the shard evidently does not
    /// know. A learned gid bound to other bytes counts as bound: the
    /// bytes here are re-serialized, and the first writer's name the gid.
    ///
    /// # Errors
    ///
    /// The first destination's failure, once the answers are applied;
    /// [`TaintMapError::Protocol`] when a dry lease comes back empty (the
    /// shard's gids are spent).
    fn send_binds(&self, shards: &[usize]) -> Result<(), TaintMapError> {
        let n = self.shard_count();
        let _turns: Vec<_> = shards
            .iter()
            .map(|&s| self.inner.flushing[s].lock())
            .collect();
        let (mut binds, mut wants) = (Vec::new(), Vec::new());
        {
            let mut outbound = self.inner.outbound.lock();
            for &shard in shards {
                let lease = &mut outbound.leases[shard];
                if lease.queue.is_empty() && !lease.free.is_empty() {
                    continue;
                }
                binds.append(&mut lease.queue);
                let want = LEASE_IDS - lease.free.len() as u32;
                if want > 0 {
                    wants.push((shard, want, lease.free.is_empty()));
                }
            }
        }
        if binds.is_empty() && wants.is_empty() {
            return Ok(());
        }
        self.inner.obs.register_rpcs.add(binds.len() as u64);
        // Items: the binds, then one lease request per shard. An item
        // whose destination failed keeps its `None`.
        let lease_slot = |k: usize| k.checked_sub(binds.len());
        let mut leased: Vec<Option<Vec<u32>>> = vec![None; wants.len()];
        let mut refused: Vec<Option<bool>> = vec![None; binds.len()];
        let failed = self.inner.transport.resolve(
            OP_BIND,
            binds.len() + wants.len(),
            |tables, k| match lease_slot(k) {
                Some(w) => (wants[w].0, tables[wants[w].0].tail()),
                None => {
                    let gid = binds[k].gid.0;
                    let class = shard_of_gid(gid, n);
                    (class, tables[class].range_of_gid(gid))
                }
            },
            |epoch, items| {
                let want = items
                    .iter()
                    .filter_map(|&k| lease_slot(k))
                    .map(|w| wants[w].1);
                let batch: Vec<(u32, &[u8])> = items
                    .iter()
                    .filter(|&&k| lease_slot(k).is_none())
                    .map(|&k| (binds[k].gid.0, &binds[k].bytes[..]))
                    .collect();
                encode_bind(epoch, want.sum(), &batch)
            },
            |items, resp| {
                let bound: Vec<usize> = items
                    .iter()
                    .copied()
                    .filter(|&k| lease_slot(k).is_none())
                    .collect();
                let (gids, statuses) = decode_bind_resp(resp, bound.len())?;
                let asked = items.iter().find_map(|&k| lease_slot(k));
                let (class, want) = asked.map_or((n, 0), |w| (wants[w].0, wants[w].1));
                let of_class = |&gid: &u32| {
                    gid != 0 && shard_of_gid(gid, n) == class && !WIRE_RESERVED_GIDS.contains(&gid)
                };
                if gids.len() > want as usize || !gids.iter().all(of_class) {
                    return Err(TaintMapError::Protocol("a lease of gids nobody asked for"));
                }
                if let Some(w) = asked {
                    leased[w] = Some(gids);
                }
                for (&k, status) in bound.iter().zip(statuses) {
                    refused[k] = Some(
                        status == STATUS_UNLEASED || (status == STATUS_TAKEN && !binds[k].learned),
                    );
                }
                Ok(())
            },
        );
        let mut outbound = self.inner.outbound.lock();
        let outbound = &mut *outbound;
        let mut unsent = Vec::new();
        for (bind, refused) in binds.into_iter().zip(refused) {
            let Some(refused) = refused else {
                unsent.push(bind);
                continue;
            };
            outbound.unbound.remove(&bind.taint);
            let current = outbound.gid_of.get(&bind.taint) == Some(&bind.gid);
            if !refused {
                if current {
                    self.inner.gid_front.publish(bind.taint, bind.gid);
                }
                continue;
            }
            if current {
                outbound.gid_of.remove(&bind.taint);
            }
            if !bind.learned {
                outbound.leases[shard_of_gid(bind.gid.0, n)].free.clear();
            }
        }
        for bind in unsent.into_iter().rev() {
            let shard = shard_of_gid(bind.gid.0, n);
            outbound.leases[shard].queue.insert(0, bind);
        }
        let mut spent = false;
        for (&(shard, _, dry), gids) in wants.iter().zip(leased) {
            let Some(gids) = gids else { continue };
            spent |= dry && gids.is_empty();
            outbound.leases[shard]
                .free
                .extend(gids.into_iter().map(GlobalId));
        }
        first_failure(failed)?;
        match spent {
            true => Err(TaintMapError::Protocol("a shard has no gid left to lease")),
            false => Ok(()),
        }
    }

    /// Records a gid this client handed out on the tag quads (the
    /// GlobalID field of §III-D-1), in the reverse cache, and in the
    /// event stream.
    fn finish_registration(&self, taint: Taint, gid: GlobalId) {
        let tree = self.inner.store.tree();
        for tag_id in tree.tag_ids(taint) {
            tree.set_tag_global_id(tag_id, gid);
        }
        // Prime the reverse cache too: this VM already knows the taint.
        let mut inbound = self.inner.inbound.lock();
        inbound.taint_of.insert(gid, taint);
        self.inner.taint_front.publish(gid, taint);
        drop(inbound);
        // The root span minted with the taint now owns the gid: outbound
        // encodes of this gid name it as their parent.
        let span = self.inner.obs.taint_spans.get(taint.node_index() as u32);
        self.inner.obs.gid_spans.bind(gid.0, span);
        self.inner
            .obs
            .recorder
            .record_with(|| ObsEventKind::TaintMapRegister {
                taint: taint.node_index() as u32,
                gid: gid.0,
                span,
            });
    }

    /// Notes one gid resolved from outside — a lookup answer, or a
    /// peer's definition (`defined`: the service may not hold it yet) —
    /// in the caches and event stream, and returns the taint the cache
    /// now holds for it. Neither cache entry is overwritten: a
    /// concurrent resolution that got there first keeps its answer. A
    /// lookup answer's new `gid_of` entry is bound, so it goes to the front.
    fn finish_lookup(&self, gid: GlobalId, taint: Taint, defined: bool) -> Taint {
        let taint = {
            let mut inbound = self.inner.inbound.lock();
            let taint = *inbound.taint_of.entry(gid).or_insert(taint);
            self.inner.taint_front.publish(gid, taint);
            taint
        };
        {
            let mut outbound = self.inner.outbound.lock();
            let outbound = &mut *outbound;
            if let Entry::Vacant(slot) = outbound.gid_of.entry(taint) {
                slot.insert(gid);
                if defined {
                    outbound.unbound.insert(taint, false);
                } else {
                    self.inner.gid_front.publish(taint, gid);
                }
            }
        }
        let span = self.inner.obs.gid_spans.get(gid.0);
        self.inner
            .obs
            .recorder
            .record_with(|| ObsEventKind::TaintMapLookup {
                gid: gid.0,
                taint: taint.node_index() as u32,
                span,
            });
        taint
    }

    /// Learns `gid` from the serialized taint a peer defined it as, on
    /// the stream the gid arrived on (wire protocol v2's inline
    /// definitions), instead of asking the service: the bytes are the
    /// ones the peer registered, or was told, for that gid — the packed
    /// form [`dista_taint::serialize_taint`] writes, which a `BIND`
    /// record and a `LOOKUP` answer carry too. The gid is
    /// resolved exactly as a lookup answer is, events included, and a
    /// later [`TaintMapClient::taints_for`] of it is a cache hit.
    ///
    /// A definition is trusted as far as the gids of the same stream
    /// are, and no further: one for a gid already cached is ignored
    /// (the first resolution stays), and gid 0 or a wire-reserved gid
    /// is refused. The gid is noted as one the service may not hold
    /// yet: a bare send of it binds it first, and if the shard refuses
    /// that bind the send names the taint by a fresh gid of its own.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Protocol`] for gid 0, a gid in
    /// [`WIRE_RESERVED_GIDS`], or bytes naming no tag;
    /// [`TaintMapError::Codec`] for bytes that are not a serialized
    /// taint in its canonical packed form.
    pub fn define(&self, gid: GlobalId, serialized: &[u8]) -> Result<(), TaintMapError> {
        if !gid.is_tainted() || WIRE_RESERVED_GIDS.contains(&gid.0) {
            return Err(TaintMapError::Protocol("a definition names a reserved gid"));
        }
        if self.inner.inbound.lock().taint_of.contains_key(&gid) {
            return Ok(());
        }
        let taint = deserialize_taint(&self.inner.store, serialized)?;
        if taint.is_empty() {
            return Err(TaintMapError::Protocol("a definition names no tag"));
        }
        self.finish_lookup(gid, taint, true);
        Ok(())
    }

    /// Resolves a Global ID received from the wire back into a local
    /// taint (steps ④-⑤ of Fig. 9): the paper-named call, a
    /// [`TaintMapClient::taints_for`] of one.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::UnknownGlobalId`] if the service never saw the
    /// id; transport/codec errors otherwise.
    pub fn taint_for(&self, gid: GlobalId) -> Result<Taint, TaintMapError> {
        Ok(self.taints_for(&[gid])?[0])
    }

    /// Resolves a whole slice of Global IDs, fetching every cache miss
    /// in one `LOOKUP` frame per shard. Output is index-aligned with the
    /// input; [`GlobalId::UNTAINTED`] maps to the empty taint without
    /// any RPC.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::UnknownGlobalId`] naming the first id the
    /// service never saw; transport/codec errors otherwise.
    pub fn taints_for(&self, gids: &[GlobalId]) -> Result<Vec<Taint>, TaintMapError> {
        let mut out = Vec::new();
        self.resolve_gids(gids, &mut out, false, |misses, out| {
            first_failure(self.lookup(misses, out)?)
        })?;
        Ok(out)
    }

    /// The shape both lookup paths share: answer what the `taint_of`
    /// cache knows into `out` (cleared first, index-aligned with
    /// `gids`), hand the distinct misses (input index of the first
    /// copy, gid) to `fetch`, which must fill their `out` slots, then
    /// give later copies of a missed id its first copy's answer. A call
    /// the front answers whole takes no lock. With `reconcile`, pending
    /// sentinels are reconciled first, and a call with any pending takes
    /// the locked path.
    fn resolve_gids(
        &self,
        gids: &[GlobalId],
        out: &mut Vec<Taint>,
        reconcile: bool,
        fetch: impl FnOnce(&[(usize, GlobalId)], &mut [Taint]) -> Result<(), TaintMapError>,
    ) -> Result<(), TaintMapError> {
        out.clear();
        out.resize(gids.len(), Taint::EMPTY);
        if !(reconcile && self.inner.any_pending.load(Ordering::Acquire)) {
            let front = &self.inner.taint_front;
            if let Some(hits) = front.answer(gids, GlobalId::UNTAINTED, out) {
                self.inner.obs.cache_hits.add(hits);
                return Ok(());
            }
        }
        let missed = {
            let mut inbound = self.inner.inbound.lock();
            if reconcile && !inbound.pending.is_empty() {
                drop(inbound);
                self.reconcile_pending()?;
                inbound = self.inner.inbound.lock();
            }
            self.answer_from_cache(&inbound.taint_of, gids, GlobalId::UNTAINTED, out)
        };
        if missed.is_empty() {
            return Ok(());
        }
        let mut first_of: IdMap<GlobalId, usize> = IdMap::default();
        let mut misses: Vec<(usize, GlobalId)> = Vec::new();
        for &i in &missed {
            if let Entry::Vacant(first) = first_of.entry(gids[i]) {
                first.insert(i);
                misses.push((i, gids[i]));
            }
        }
        fetch(&misses, out)?;
        for i in missed {
            out[i] = out[first_of[&gids[i]]];
        }
        Ok(())
    }

    /// Fetches `misses` (slot in `out`, gid) on the wire, caches the
    /// answers, and fills their slots. Returns the misses whose
    /// destination failed (indices into `misses`), with why; their slots
    /// are left as they were.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::UnknownGlobalId`] for an answered id the service
    /// never assigned; [`TaintMapError::Codec`] for answered bytes that
    /// are not a serialized taint in its canonical packed form.
    fn lookup(
        &self,
        misses: &[(usize, GlobalId)],
        out: &mut [Taint],
    ) -> Result<Failed, TaintMapError> {
        let n = self.shard_count();
        self.inner.obs.lookup_rpcs.add(misses.len() as u64);
        // The outer `None` marks a miss not answered, the inner one an
        // id the service never assigned.
        let mut fetched: Vec<Option<Option<Vec<u8>>>> = vec![None; misses.len()];
        let failed = self.inner.transport.resolve(
            OP_LOOKUP,
            misses.len(),
            |tables, k| {
                let gid = misses[k].1 .0;
                let class = shard_of_gid(gid, n);
                (class, tables[class].range_of_gid(gid))
            },
            |epoch, items| {
                let batch: Vec<u32> = items.iter().map(|&k| misses[k].1 .0).collect();
                encode_lookup(epoch, &batch)
            },
            |items, resp| {
                for (&k, item) in items.iter().zip(decode_lookup_resp(resp, items.len())?) {
                    fetched[k] = Some(item);
                }
                Ok(())
            },
        );
        for (&(i, gid), answer) in misses.iter().zip(fetched) {
            let Some(bytes) = answer else { continue };
            let bytes = bytes.ok_or(TaintMapError::UnknownGlobalId(gid))?;
            let taint = deserialize_taint(&self.inner.store, &bytes)?;
            out[i] = self.finish_lookup(gid, taint, false);
        }
        Ok(failed)
    }

    /// Like [`TaintMapClient::taints_for`], but **sound under
    /// partitions**: a gid whose owning shard is unreachable (transport
    /// failure or open breaker) resolves to a freshly minted
    /// `pending-gid:<n>` sentinel taint instead of failing the whole
    /// batch. Delivered bytes are therefore never silently clean — the
    /// sentinel marks them tainted-by-unknown until
    /// [`TaintMapClient::reconcile_pending`] (called automatically at
    /// the head of this method) swaps in the real taint after the
    /// partition heals.
    ///
    /// Non-transport errors ([`TaintMapError::UnknownGlobalId`],
    /// [`TaintMapError::Codec`]) still propagate: they signal protocol
    /// bugs, not faults to degrade around.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::UnknownGlobalId`] / [`TaintMapError::Codec`]
    /// from a *reachable* shard.
    pub fn taints_for_degraded(&self, gids: &[GlobalId]) -> Result<Vec<Taint>, TaintMapError> {
        let mut out = Vec::new();
        self.taints_degraded_into(gids, &mut out)?;
        Ok(out)
    }

    /// [`TaintMapClient::taints_for_degraded`] into a caller-owned
    /// vector (cleared first); like
    /// [`TaintMapClient::global_ids_into`], `gids` may repeat freely
    /// and an all-hit call allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`TaintMapClient::taints_for_degraded`].
    pub fn taints_degraded_into(
        &self,
        gids: &[GlobalId],
        out: &mut Vec<Taint>,
    ) -> Result<(), TaintMapError> {
        // Heal-side reconciliation rides on the next lookup batch.
        self.resolve_gids(gids, out, true, |misses, out| {
            // A gid still pending after the reconciliation above keeps
            // its sentinel without another wire attempt. The rest go in
            // one round, where an unreachable destination degrades *only
            // its own* gids to sentinels.
            let mut wire = Vec::with_capacity(misses.len());
            {
                let inbound = self.inner.inbound.lock();
                for &(i, gid) in misses {
                    match inbound.pending.get(&gid) {
                        Some(&sentinel) => out[i] = sentinel,
                        None => wire.push((i, gid)),
                    }
                }
            }
            for (items, e) in self.lookup(&wire, out)? {
                if !is_outage(&e) {
                    return Err(e);
                }
                for (i, gid) in items.into_iter().map(|k| wire[k]) {
                    out[i] = self.pending_sentinel(gid);
                }
            }
            Ok(())
        })
    }

    /// Mints (or reuses) the `pending-gid:<n>` sentinel for an
    /// unreachable gid and records the degradation. The sentinel lives
    /// in the pending map, *not* the `taint_of` cache, so a healed
    /// lookup later resolves the real taint instead of the placeholder.
    fn pending_sentinel(&self, gid: GlobalId) -> Taint {
        let shard = shard_of_gid(gid.0, self.shard_count());
        let pending = &mut self.inner.inbound.lock().pending;
        if let Some(&sentinel) = pending.get(&gid) {
            return sentinel;
        }
        let sentinel = self
            .inner
            .store
            .mint_source_taint(TagValue::str(format!("pending-gid:{}", gid.0)));
        pending.insert(gid, sentinel);
        self.inner.obs.pending_gids.set(pending.len() as f64);
        self.inner.any_pending.store(true, Ordering::Release);
        self.inner.obs.degraded_lookups.inc();
        self.inner
            .obs
            .recorder
            .record_with(|| ObsEventKind::DegradedLookup { gid: gid.0, shard });
        sentinel
    }

    /// Re-attempts every pending gid against its (hopefully healed)
    /// shard, in one round; each success records the sentinel →
    /// real-taint resolution and a `PendingResolved` event. Gids whose
    /// shard is still unreachable stay pending. Returns how many
    /// resolved this call.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::UnknownGlobalId`] / [`TaintMapError::Codec`]
    /// from a reachable shard (transport errors are *not* errors here —
    /// the shard's gids just stay pending).
    pub fn reconcile_pending(&self) -> Result<u64, TaintMapError> {
        // It rides on every clean decode: nothing pending is the rule.
        if !self.inner.any_pending.load(Ordering::Acquire) {
            return Ok(0);
        }
        let mut snapshot: Vec<(GlobalId, Taint)> = {
            let inbound = self.inner.inbound.lock();
            inbound.pending.iter().map(|(&g, &s)| (g, s)).collect()
        };
        // Gid order, not hash order: reconciliation (and its event
        // stream) must replay identically across runs.
        snapshot.sort_by_key(|&(gid, _)| gid.0);
        let gids: Vec<GlobalId> = snapshot.iter().map(|&(gid, _)| gid).collect();
        let (mut real, mut unreached) = (Vec::new(), vec![false; gids.len()]);
        self.resolve_gids(&gids, &mut real, false, |misses, out| {
            for (items, e) in self.lookup(misses, out)? {
                if !is_outage(&e) {
                    return Err(e);
                }
                for k in items {
                    unreached[misses[k].0] = true;
                }
            }
            Ok(())
        })?;
        let mut resolved = 0u64;
        for (((gid, sentinel), taint), unreached) in snapshot.into_iter().zip(real).zip(unreached) {
            if unreached {
                continue;
            }
            {
                let inbound = &mut *self.inner.inbound.lock();
                inbound.pending.remove(&gid);
                inbound.resolutions.insert(sentinel, taint);
                let left = inbound.pending.len();
                self.inner.obs.pending_gids.set(left as f64);
                self.inner.any_pending.store(left > 0, Ordering::Release);
            }
            self.inner.obs.pending_resolved.inc();
            self.inner
                .obs
                .recorder
                .record_with(|| ObsEventKind::PendingResolved {
                    gid: gid.0,
                    taint: taint.node_index() as u32,
                });
            resolved += 1;
        }
        Ok(resolved)
    }

    /// Number of gids currently degraded to a pending sentinel.
    pub fn pending_count(&self) -> usize {
        self.inner.inbound.lock().pending.len()
    }

    /// The gids currently degraded to a pending sentinel, in ascending
    /// order.
    pub fn pending_gids(&self) -> Vec<GlobalId> {
        let mut gids: Vec<GlobalId> = self.inner.inbound.lock().pending.keys().copied().collect();
        gids.sort();
        gids
    }

    /// The real taint a reconciled sentinel stood in for, if that
    /// sentinel has been resolved.
    pub fn resolution_of(&self, sentinel: Taint) -> Option<Taint> {
        self.inner
            .inbound
            .lock()
            .resolutions
            .get(&sentinel)
            .copied()
    }

    /// Snapshot of the client's RPC counters: a plain read of the
    /// observer's instruments, taking no lock.
    pub fn stats(&self) -> ClientStats {
        let obs = &self.inner.obs;
        ClientStats {
            register_rpcs: obs.register_rpcs.get(),
            lookup_rpcs: obs.lookup_rpcs.get(),
            cache_hits: obs.cache_hits.get(),
            failovers: obs.failovers.get(),
            batch_frames: obs.batch_frames.get(),
            retries: obs.retries.get(),
            breaker_opens: obs.breaker_opens.get(),
            breaker_fast_fails: obs.breaker_fast_fails.get(),
            breaker_open_ns: obs.breaker_open_ns.get(),
            degraded_lookups: obs.degraded_lookups.get(),
            pending_resolved: obs.pending_resolved.get(),
            pending_gids: obs.pending_gids.get() as u64,
            moved_redirects: obs.moved_redirects.get(),
        }
    }
}

/// The first failure of a round, for a caller that cannot use a partial
/// answer.
fn first_failure(failed: Failed) -> Result<(), TaintMapError> {
    failed.into_iter().next().map_or(Ok(()), |(_, e)| Err(e))
}

/// Whether `e` says a shard could not be reached (a transport failure or
/// an open breaker): what the degraded paths wait out.
fn is_outage(e: &TaintMapError) -> bool {
    matches!(
        e,
        TaintMapError::Net(_) | TaintMapError::ShardUnavailable(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{InMemoryBackend, TaintMapBackend};
    use crate::endpoint::TaintMapEndpoint;
    use dista_simnet::FaultAction;
    use dista_taint::{LocalId, SinkRecorder, TagValue, TaintCodecError};
    use std::time::Duration;

    fn setup() -> (SimNet, TaintMapEndpoint, TaintMapClient, TaintStore) {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        (net, endpoint, client, store)
    }

    #[test]
    fn empty_taint_never_rpcs() {
        let (_net, endpoint, client, _store) = setup();
        let connected = client.stats();
        assert_eq!(connected.batch_frames, 1, "the lease taken at connect");
        assert_eq!(
            client.global_id_for(Taint::EMPTY).unwrap(),
            GlobalId::UNTAINTED
        );
        assert_eq!(client.taint_for(GlobalId::UNTAINTED).unwrap(), Taint::EMPTY);
        assert_eq!(
            client
                .global_ids_for(&[Taint::EMPTY, Taint::EMPTY])
                .unwrap(),
            vec![GlobalId::UNTAINTED; 2]
        );
        assert_eq!(
            client
                .taints_for(&[GlobalId::UNTAINTED, GlobalId::UNTAINTED])
                .unwrap(),
            vec![Taint::EMPTY; 2]
        );
        assert_eq!(client.stats(), connected);
        endpoint.shutdown();
    }

    #[test]
    fn register_once_per_taint() {
        let (_net, endpoint, client, store) = setup();
        let t = store.mint_source_taint(TagValue::str("t1"));
        let g1 = client.global_id_for(t).unwrap();
        let g2 = client.global_id_for(t).unwrap();
        assert_eq!(g1, g2);
        let stats = client.stats();
        assert_eq!(stats.register_rpcs, 1, "second call must hit the cache");
        assert_eq!(stats.cache_hits, 1);
        endpoint.shutdown();
    }

    #[test]
    fn register_sets_tag_global_id() {
        let (_net, endpoint, client, store) = setup();
        let t = store.mint_source_taint(TagValue::str("g"));
        let gid = client.global_id_for(t).unwrap();
        let tag = store.tree().tags_of(t)[0].clone();
        assert_eq!(tag.global_id, gid);
        endpoint.shutdown();
    }

    #[test]
    fn batch_mixes_cached_empty_and_fresh_items() {
        let (_net, endpoint, client, store) = setup();
        let warm = store.mint_source_taint(TagValue::str("warm"));
        client.global_id_for(warm).unwrap();
        let cold = store.mint_source_taint(TagValue::str("cold"));
        let gids = client
            .global_ids_for(&[Taint::EMPTY, warm, cold, warm, cold])
            .unwrap();
        assert_eq!(gids[0], GlobalId::UNTAINTED);
        assert_eq!(gids[1], gids[3]);
        assert!(gids[2].is_tainted());
        assert_ne!(gids[1], gids[2]);
        assert_eq!(gids[2], gids[4]);
        let stats = client.stats();
        assert_eq!(stats.register_rpcs, 2, "warm taint never resent");
        assert_eq!(stats.cache_hits, 2, "one per warm item");
        endpoint.shutdown();
    }

    #[test]
    fn batched_lookup_resolves_and_caches() {
        let (net, endpoint, _client, _store) = setup();
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 3], 3));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let taints: Vec<Taint> = (0..4)
            .map(|i| store1.mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = client1.global_ids_for(&taints).unwrap();
        // After the lease taken at connect: one bind frame, four items.
        assert_eq!(client1.stats().batch_frames, 2, "one frame, four items");

        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 4], 4));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let with_dup = [gids[0], gids[1], gids[2], gids[3], gids[0]];
        let resolved = client2.taints_for(&with_dup).unwrap();
        assert_eq!(resolved[0], resolved[4], "duplicate ids resolve equal");
        for (i, t) in resolved.iter().take(4).enumerate() {
            assert_eq!(store2.tag_values(*t), vec![i.to_string()]);
        }
        let stats = client2.stats();
        assert_eq!(stats.lookup_rpcs, 4, "duplicate deduped before the wire");
        assert_eq!(stats.batch_frames, 2, "the lease, then one lookup frame");
        // Everything is now cached.
        client2.taints_for(&with_dup).unwrap();
        assert_eq!(client2.stats().lookup_rpcs, 4);
        endpoint.shutdown();
    }

    #[test]
    fn concurrent_encoders_of_one_new_taint_share_one_gid() {
        let (_net, endpoint, client, store) = setup();
        let t = store.mint_source_taint(TagValue::str("contended"));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for i in 0..8 {
            let (client, barrier) = (client.clone(), barrier.clone());
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut out = Vec::new();
                // Half name the gid bare, half ship its definition.
                match i % 2 {
                    0 => client.global_ids_into(&[t], &mut out, None),
                    _ => client.global_ids_into(&[t], &mut out, Some(&mut Vec::new())),
                }
                .unwrap();
                out[0]
            }));
        }
        let ids: Vec<GlobalId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "{ids:?}");
        // One thread handed the gid out under the cache lock; every other
        // one found it there on its probe or its re-probe, and the one
        // bind went out once.
        let stats = client.stats();
        assert_eq!(stats.cache_hits, 7, "every other thread hit the cache");
        assert_eq!(stats.register_rpcs, 1, "one bind on the wire");
        assert_eq!(endpoint.stats().global_taints, 1);
        assert_eq!(endpoint.stats().bind_requests, 1);
        endpoint.shutdown();
    }

    #[test]
    fn a_defined_hand_out_waits_for_nothing_and_a_flush_binds_it() {
        let (net, endpoint, client, store) = setup();
        let t = store.mint_source_taint(TagValue::str("write-behind"));
        let (mut out, mut defs) = (Vec::new(), Vec::new());
        let frames = endpoint.stats().batch_frames;
        client
            .global_ids_into(&[t, t], &mut out, Some(&mut defs))
            .unwrap();
        assert_eq!(
            endpoint.stats().batch_frames,
            frames,
            "no frame on the crossing"
        );
        assert_eq!(defs, vec![(out[0], serialize_taint(store.tree(), t))]);
        assert_eq!(out[0], out[1]);
        // Not bound yet: a reader is told the gid is unknown, never a
        // wrong taint.
        let reader = endpoint
            .client(&net, TaintStore::new(LocalId::new([10, 0, 0, 2], 2)))
            .unwrap();
        assert_eq!(
            reader.taint_for(out[0]),
            Err(TaintMapError::UnknownGlobalId(out[0]))
        );
        client.flush().unwrap();
        assert_eq!(endpoint.stats().bind_requests, 1);
        assert_eq!(
            reader.store().tag_values(reader.taint_for(out[0]).unwrap()),
            ["write-behind"]
        );
        // A bare send of it now waits for nothing either.
        let frames = endpoint.stats().batch_frames;
        assert_eq!(client.global_id_for(t).unwrap(), out[0]);
        assert_eq!(endpoint.stats().batch_frames, frames);
        endpoint.shutdown();
    }

    #[test]
    fn two_vms_binding_the_same_bytes_alias_to_one_taint() {
        // Two VMs that build the same tag set independently each hand
        // out a gid of their own for it; the service keeps the bytes once
        // and the second gid as an alias of the first.
        let (net, endpoint, client1, store1) = setup();
        let (a, b) = (
            store1.mint_source_taint(TagValue::str("a")),
            store1.mint_source_taint(TagValue::str("b")),
        );
        let ab = store1.union(a, b);
        let gids1 = client1.global_ids_for(&[a, b, ab]).unwrap();

        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let parts = client2.taints_for(&gids1[..2]).unwrap();
        let ab2 = store2.union(parts[0], parts[1]);
        let g2 = client2.global_id_for(ab2).unwrap();
        assert_ne!(g2, gids1[2], "a gid of its own");
        let stats = endpoint.stats();
        assert_eq!((stats.global_taints, stats.aliases), (3, 1));

        // A third VM resolves both names to one taint.
        let store3 = TaintStore::new(LocalId::new([10, 0, 0, 3], 3));
        let client3 = endpoint.client(&net, store3.clone()).unwrap();
        let both = client3.taints_for(&[gids1[2], g2]).unwrap();
        assert_eq!(both[0], both[1]);
        assert_eq!(store3.tag_values(both[0]), ["a", "b"]);
        endpoint.shutdown();
    }

    #[test]
    fn receivers_that_learned_tags_in_opposite_orders_bind_their_union_once() {
        // Each receiver numbers tags in the order it learns them, so `x`
        // and `y` get opposite tag ids on the two. Their unions are one
        // set and must serialize to one byte string: one record, the
        // second receiver's gid an alias of the first's.
        let (net, endpoint, sender, store) = setup();
        let (x, y) = (
            store.mint_source_taint(TagValue::str("x")),
            store.mint_source_taint(TagValue::str("y")),
        );
        let gids = sender.global_ids_for(&[x, y]).unwrap();
        let mut unions = Vec::new();
        for (host, order) in [(2, [0, 1]), (3, [1, 0])] {
            let receiver = TaintStore::new(LocalId::new([10, 0, 0, host], u32::from(host)));
            let client = endpoint.client(&net, receiver.clone()).unwrap();
            let learned = order.map(|i| client.taint_for(gids[i]).unwrap());
            let both = receiver.union(learned[0], learned[1]);
            let bytes = serialize_taint(receiver.tree(), both);
            unions.push((client.global_id_for(both).unwrap(), bytes));
        }
        assert_eq!(unions[0].1, unions[1].1, "one set, one serialization");
        let stats = endpoint.stats();
        assert_eq!((stats.global_taints, stats.aliases), (3, 1));

        let store4 = TaintStore::new(LocalId::new([10, 0, 0, 4], 4));
        let client4 = endpoint.client(&net, store4.clone()).unwrap();
        let both = client4.taints_for(&[unions[0].0, unions[1].0]).unwrap();
        assert_eq!(both[0], both[1]);
        assert_eq!(store4.tag_values(both[0]).len(), 2);
        endpoint.shutdown();
    }

    #[test]
    fn own_gids_a_restarted_shard_does_not_know_are_re_keyed() {
        // A primary restarted with neither log nor standby leases from 0
        // again, below the leases its clients still hold. Their binds of
        // those gids are refused, or lose to another client's, and each
        // refused taint takes a fresh gid; whatever a client names bare
        // resolves to its own taint.
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let stores: Vec<TaintStore> = (1..=2)
            .map(|h| TaintStore::new(LocalId::new([10, 0, 0, h], u32::from(h))))
            .collect();
        let clients: Vec<TaintMapClient> = stores
            .iter()
            .map(|s| endpoint.client(&net, s.clone()).unwrap())
            .collect();
        endpoint.crash_primary(0);
        endpoint.restart_primary(0).unwrap();
        let mut named = Vec::new();
        for round in 0..3 {
            for (vm, (client, store)) in clients.iter().zip(&stores).enumerate() {
                let taints: Vec<Taint> = (0..50)
                    .map(|i| store.mint_source_taint(TagValue::str(format!("{vm}:{round}:{i}"))))
                    .collect();
                let gids = client.global_ids_for(&taints).unwrap();
                named.extend(
                    gids.into_iter()
                        .zip(taints.iter().map(|&t| store.tag_values(t))),
                );
            }
        }
        let reader_store = TaintStore::new(LocalId::new([10, 0, 0, 9], 9));
        let reader = endpoint.client(&net, reader_store.clone()).unwrap();
        for (gid, values) in named {
            assert_eq!(
                reader_store.tag_values(reader.taint_for(gid).unwrap()),
                values
            );
        }
        endpoint.shutdown();
    }

    /// A gid handed out on the definitions path and then refused never
    /// reaches the front: the next bare send re-keys the taint and names
    /// a gid the map holds. A variant that publishes to the front at
    /// hand-out time fails here: its bare send answers the refused gid
    /// from the front, which `cached_gid_for` no longer names and no
    /// reader can look up.
    #[test]
    fn a_refused_gid_is_never_answered_from_the_front() {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        // Restarted with neither log nor standby, the shard no longer
        // knows the lease the client took at connect.
        endpoint.crash_primary(0);
        endpoint.restart_primary(0).unwrap();
        let t = store.mint_source_taint(TagValue::str("refused"));
        let (mut out, mut defs) = (Vec::new(), Vec::new());
        client
            .global_ids_into(&[t], &mut out, Some(&mut defs))
            .unwrap();
        client.flush().unwrap();
        assert_eq!(client.cached_gid_for(t), None, "{:?} refused", out[0]);

        let gid = client.global_id_for(t).unwrap();
        assert_eq!(client.cached_gid_for(t), Some(gid));
        let reader_store = TaintStore::new(LocalId::new([10, 0, 0, 9], 9));
        let reader = endpoint.client(&net, reader_store.clone()).unwrap();
        assert_eq!(
            reader_store.tag_values(reader.taint_for(gid).unwrap()),
            ["refused"]
        );
        endpoint.shutdown();
    }

    #[test]
    fn a_cache_hit_takes_no_cache_lock() {
        let (_net, endpoint, client, store) = setup();
        let t = store.mint_source_taint(TagValue::str("hot"));
        let gid = client.global_id_for(t).unwrap();
        assert_eq!(client.taint_for(gid).unwrap(), t);
        let hits = client.stats().cache_hits;

        let locks = (client.inner.outbound.lock(), client.inner.inbound.lock());
        let (done, answered) = std::sync::mpsc::channel();
        let hitter = {
            let client = client.clone();
            std::thread::spawn(move || {
                let (mut gids, mut taints) = (Vec::new(), Vec::new());
                client.global_ids_into(&[t, t], &mut gids, None).unwrap();
                client.taints_degraded_into(&[gid], &mut taints).unwrap();
                done.send((gids, taints)).unwrap();
            })
        };
        let answered = answered.recv_timeout(Duration::from_secs(1));
        drop(locks);
        hitter.join().unwrap();
        assert_eq!(
            answered.expect("a cache hit waited for a cache lock"),
            (vec![gid, gid], vec![t])
        );
        assert_eq!(client.stats().cache_hits, hits + 3);
        endpoint.shutdown();
    }

    #[test]
    fn cross_vm_resolution() {
        let (net, endpoint, client1, store1) = setup();
        let t1 = store1.mint_source_taint(TagValue::str("vote"));
        let gid = client1.global_id_for(t1).unwrap();

        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let t2 = client2.taint_for(gid).unwrap();
        assert_eq!(store2.tag_values(t2), vec!["vote".to_string()]);
        // Resolved tag keeps node 1's identity.
        assert_eq!(
            store2.tree().tags_of(t2)[0].local_id,
            LocalId::new([10, 0, 0, 1], 1)
        );
        // Second resolution is cached.
        let _ = client2.taint_for(gid).unwrap();
        assert_eq!(client2.stats().lookup_rpcs, 1);
        endpoint.shutdown();
    }

    #[test]
    fn unknown_gid_is_error() {
        let (_net, endpoint, client, _store) = setup();
        assert_eq!(
            client.taint_for(GlobalId(1234)),
            Err(TaintMapError::UnknownGlobalId(GlobalId(1234)))
        );
        assert_eq!(
            client.taints_for(&[GlobalId(1234)]),
            Err(TaintMapError::UnknownGlobalId(GlobalId(1234)))
        );
        endpoint.shutdown();
    }

    /// Bytes from a peer or from the service reach unpacking: one that is
    /// no canonical packing is a typed codec error on both paths.
    #[test]
    fn a_non_canonical_definition_or_lookup_answer_is_a_codec_error() {
        let net = SimNet::new();
        let backend = Arc::new(InMemoryBackend::new());
        let shared = Arc::clone(&backend);
        let endpoint = TaintMapEndpoint::builder()
            .backend(move |_| shared.clone() as Arc<dyn TaintMapBackend>)
            .connect(&net)
            .unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = endpoint.client(&net, store.clone()).unwrap();
        // A length byte past the template; a packing with its prefix run
        // cut one byte short.
        let packed = serialize_taint(store.tree(), store.mint_source_taint(TagValue::str("v")));
        let shifted = [&[packed[0] - 1, packed[1], 0][..], &packed[2..]].concat();
        for (gid, bad) in [(1, vec![255, 0]), (2, shifted)] {
            let codec = Err(TaintMapError::Codec(TaintCodecError::NotCanonical));
            assert_eq!(client.define(GlobalId(gid), &bad), codec);
            // Stored straight in the backend, as a replicated record is.
            backend.bind(gid, &bad);
            assert_eq!(client.taint_for(GlobalId(gid)).map(|_| ()), codec);
        }
        endpoint.shutdown();
    }

    #[test]
    fn same_tagset_from_two_vms_gets_one_gid() {
        let (net, endpoint, client1, store1) = setup();
        let t = store1.mint_source_taint(TagValue::str("shared"));
        let g1 = client1.global_id_for(t).unwrap();

        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let t2 = client2.taint_for(g1).unwrap();
        let g2 = client2.global_id_for(t2).unwrap();
        assert_eq!(g1, g2, "round-tripped taint keeps its global id");
        assert_eq!(endpoint.stats().global_taints, 1);
        endpoint.shutdown();
    }

    #[test]
    fn concurrent_clients_share_one_connection_each() {
        let (_net, endpoint, client, store) = setup();
        let mut handles = Vec::new();
        for i in 0..4 {
            let client = client.clone();
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let t = store.mint_source_taint(TagValue::Int(i));
                client.global_id_for(t).unwrap()
            }));
        }
        let mut ids: Vec<GlobalId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        endpoint.shutdown();
    }

    #[test]
    fn failover_to_standby_preserves_resolution() {
        // §IV: primary + standby. The primary replicates, dies, and the
        // client's next lookup transparently lands on the standby.
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .standby(true)
            .connect(&net)
            .unwrap();

        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let t = store1.mint_source_taint(TagValue::str("survivor"));
        let gid = client1.global_id_for(t).unwrap();

        // Kill the primary (closes all of its connections).
        let topology = endpoint.topology();
        endpoint.kill_primary(0);

        // A *different* VM resolves the id through the standby.
        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = TaintMapClient::connect_topology(&net, topology, store2.clone()).unwrap();
        let resolved = client2.taint_for(gid).unwrap();
        assert_eq!(store2.tag_values(resolved), vec!["survivor".to_string()]);

        // The surviving client's existing connection is dead; its next
        // RPC fails over and still works.
        let t2 = store1.mint_source_taint(TagValue::str("after-failover"));
        let gid2 = client1.global_id_for(t2).unwrap();
        assert!(gid2.is_tainted());
        assert!(client1.stats().failovers >= 1);
        endpoint.shutdown();
    }

    #[test]
    #[should_panic(expected = "every taint map shard needs >= 1 address")]
    fn empty_address_list_is_rejected() {
        // An empty deployment is rejected at topology construction, the
        // single choke point every connect path goes through.
        let _ = TaintMapTopology::new(vec![vec![]]);
    }

    #[test]
    fn observed_client_records_register_and_lookup_events() {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let reg = dista_obs::MetricsRegistry::new();
        let clock = dista_obs::ObsClock::new();

        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let rec1 = dista_obs::FlightRecorder::new("n1", 64, clock.clone());
        let client1 = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store1.clone(),
            ClientObserver::for_node(&reg, "n1", rec1.clone()),
            ClientResilience::default(),
        )
        .unwrap();
        let t = store1.mint_source_taint(TagValue::str("observed"));
        let gid = client1.global_ids_for(&[t]).unwrap()[0];
        assert_eq!(client1.cached_gid_for(t), Some(gid));

        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let rec2 = dista_obs::FlightRecorder::new("n2", 64, clock);
        let client2 = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store2,
            ClientObserver::for_node(&reg, "n2", rec2.clone()),
            ClientResilience::default(),
        )
        .unwrap();
        let resolved = client2.taints_for(&[gid]).unwrap()[0];
        assert_eq!(client2.cached_gid_for(resolved), Some(gid));

        let e1 = rec1.events();
        assert!(e1.iter().any(|e| matches!(
            e.kind,
            dista_obs::ObsEventKind::TaintMapRegister { gid: g, .. } if g == gid.0
        )));
        let e2 = rec2.events();
        assert!(e2.iter().any(|e| matches!(
            e.kind,
            dista_obs::ObsEventKind::TaintMapLookup { gid: g, .. } if g == gid.0
        )));
        // The register happened-before the lookup on the shared clock.
        assert!(e1[0].seq < e2[0].seq);
        // Batch instruments landed in the registry.
        let dump = reg.snapshot();
        assert!(dump
            .samples
            .iter()
            .any(|s| s.name == "taintmap_batch_items"));
        endpoint.shutdown();
    }

    #[test]
    fn plain_client_records_nothing() {
        let (_net, endpoint, client, store) = setup();
        let t = store.mint_source_taint(TagValue::str("quiet"));
        client.global_id_for(t).unwrap();
        assert!(client.cached_gid_for(t).is_some());
        // The default observer is a no-op recorder: nothing retained.
        assert_eq!(client.stats().cache_hits, 0);
        endpoint.shutdown();
    }

    /// Fast resilience settings so failure tests don't sit in backoff.
    fn fast_resilience() -> ClientResilience {
        ClientResilience {
            rpc_deadline: Duration::from_millis(200),
            retry_budget: 1,
            backoff_base: Duration::from_micros(10),
            backoff_cap: Duration::from_micros(50),
            breaker_threshold: 2,
            breaker_probe_after: 3,
        }
    }

    #[test]
    fn breaker_opens_under_partition_and_closes_after_heal() {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();
        let src = [10, 0, 0, 1];
        let dst = endpoint.addr().ip();
        for (from, to) in [(src, dst), (dst, src)] {
            net.inject(FaultAction::Partition { from, to });
        }

        // Failures accumulate until the breaker trips, then requests
        // fast-fail without touching the wire.
        let t1 = store.mint_source_taint(TagValue::str("p1"));
        let t2 = store.mint_source_taint(TagValue::str("p2"));
        assert!(matches!(
            client.global_id_for(t1),
            Err(TaintMapError::Net(_))
        ));
        assert!(matches!(
            client.global_id_for(t2),
            Err(TaintMapError::Net(_))
        ));
        assert_eq!(client.stats().breaker_opens, 1);
        assert_eq!(
            client.global_id_for(t1),
            Err(TaintMapError::ShardUnavailable(0))
        );
        assert!(client.stats().breaker_fast_fails >= 1);
        assert!(client.stats().retries >= 2);

        // Heal; burn through the remaining fast-fails to the half-open
        // probe, which succeeds and closes the breaker.
        for (from, to) in [(src, dst), (dst, src)] {
            net.inject(FaultAction::Heal { from, to });
        }
        let mut gid = None;
        for _ in 0..8 {
            if let Ok(g) = client.global_id_for(t1) {
                gid = Some(g);
                break;
            }
        }
        let gid = gid.expect("probe after heal must close the breaker");
        assert!(gid.is_tainted());
        assert!(client.stats().breaker_open_ns > 0);
        // Closed again: next RPC flows normally.
        assert!(client.global_id_for(t2).is_ok());
        endpoint.shutdown();
    }

    #[test]
    fn a_failed_shard_leaves_no_unread_reply_on_its_neighbours() {
        // Regression: a round spanning shards 0 and 1 used to return at
        // shard 1's transport error with shard 0's reply still unread
        // on its kept-open connection; the next request to shard 0 then
        // read that stale reply as its own and handed out the wrong gid.
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder().shards(2).connect(&net).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();
        // Two taints for shard 0 and one for shard 1, picked by the
        // client's own routing hash.
        let mut by_shard: [Vec<Taint>; 2] = [Vec::new(), Vec::new()];
        for i in 0.. {
            let t = store.mint_source_taint(TagValue::Int(i));
            by_shard[shard_of_bytes(&serialize_taint(store.tree(), t), 2)].push(t);
            if by_shard[0].len() >= 2 && !by_shard[1].is_empty() {
                break;
            }
        }
        endpoint.crash_primary(1);
        assert!(matches!(
            client.global_ids_for(&[by_shard[0][0], by_shard[1][0]]),
            Err(TaintMapError::Net(_))
        ));

        // Shard 0 is healthy: its next registration gets its own answer.
        let fresh = by_shard[0][1];
        let gid = client.global_id_for(fresh).unwrap();
        endpoint.restart_primary(1).unwrap();
        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = endpoint.client(&net, store2.clone()).unwrap();
        let resolved = client2.taint_for(gid).unwrap();
        assert_eq!(store2.tag_values(resolved), store.tag_values(fresh));
        endpoint.shutdown();
    }

    #[test]
    fn degraded_lookup_stamps_sentinel_and_reconciles_after_heal() {
        let net = SimNet::new();
        let endpoint = TaintMapEndpoint::builder().connect(&net).unwrap();
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let t = store1.mint_source_taint(TagValue::str("cut-off"));
        let gid = client1.global_id_for(t).unwrap();

        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store2.clone(),
            ClientObserver::disabled(),
            fast_resilience(),
        )
        .unwrap();
        let src = [10, 0, 0, 2];
        let dst = endpoint.addr().ip();
        for (from, to) in [(src, dst), (dst, src)] {
            net.inject(FaultAction::Partition { from, to });
        }

        // The strict path fails outright; the degraded path yields a
        // sentinel taint instead — the bytes are never silently clean.
        assert!(client2.taints_for(&[gid]).is_err());
        let degraded = client2.taints_for_degraded(&[gid, gid]).unwrap();
        assert!(!degraded[0].is_empty());
        assert_eq!(degraded[0], degraded[1], "duplicates share one sentinel");
        assert_eq!(
            store2.tag_values(degraded[0]),
            vec![format!("pending-gid:{}", gid.0)]
        );
        // A sink hit on the sentinel, read back only after the heal.
        let sinks = SinkRecorder::new(&store2);
        assert!(sinks.check(&["Consumer", "receive"], degraded[0]));
        let stats = client2.stats();
        assert_eq!(stats.degraded_lookups, 1, "one sentinel per distinct gid");
        assert_eq!(stats.pending_gids, 1);
        assert_eq!(client2.pending_gids(), vec![gid]);
        // A repeat call reuses the same sentinel without re-counting.
        let again = client2.taints_for_degraded(&[gid]).unwrap();
        assert_eq!(again[0], degraded[0]);
        assert_eq!(client2.stats().degraded_lookups, 1);

        // Heal: reconciliation succeeds once the breaker's fast-fail
        // window is burned down to its half-open probe.
        for (from, to) in [(src, dst), (dst, src)] {
            net.inject(FaultAction::Heal { from, to });
        }
        let mut resolved = 0;
        for _ in 0..8 {
            resolved += client2.reconcile_pending().unwrap();
            if resolved > 0 {
                break;
            }
        }
        assert_eq!(resolved, 1);
        assert_eq!(client2.pending_count(), 0);
        let real = client2.resolution_of(degraded[0]).expect("resolved");
        assert_eq!(store2.tag_values(real), vec!["cut-off".to_string()]);
        // The recorded hit still names the sentinel it checked.
        assert_eq!(
            sinks.report().events[0].tags,
            vec![format!("pending-gid:{}", gid.0)]
        );
        assert_eq!(client2.stats().pending_resolved, 1);
        // The strict path now sees the real taint from cache.
        assert_eq!(client2.taints_for(&[gid]).unwrap()[0], real);
        endpoint.shutdown();
    }

    #[test]
    fn every_stats_field_reads_its_registry_instrument() {
        let net = SimNet::new();
        let mut endpoint = TaintMapEndpoint::builder()
            .standby(true)
            .connect(&net)
            .unwrap();
        let store1 = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client1 = endpoint.client(&net, store1.clone()).unwrap();
        let gids = ["a", "b"]
            .map(|v| store1.mint_source_taint(TagValue::str(v)))
            .map(|t| client1.global_id_for(t).unwrap());

        let reg = MetricsRegistry::new();
        let store2 = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
        let client2 = TaintMapClient::connect_topology_tuned(
            &net,
            endpoint.topology(),
            store2.clone(),
            ClientObserver::for_node(&reg, "n2", FlightRecorder::disabled()),
            fast_resilience(),
        )
        .unwrap();
        // Retry + failover: the primary dies under the kept-open
        // connection and the replay lands on the standby. Then a cache
        // hit and a registration of its own.
        endpoint.crash_primary(0);
        client2.taint_for(gids[0]).unwrap();
        client2.taint_for(gids[0]).unwrap();
        let own = store2.mint_source_taint(TagValue::str("own"));
        client2.global_id_for(own).unwrap();
        // Breaker open + degraded lookup: the whole Taint Map host is
        // cut off; after the heal the reconciler burns the fast-fail
        // window down to the closing probe.
        let (src, dst) = ([10, 0, 0, 2], endpoint.topology().shard_addrs(0)[0].ip());
        for (from, to) in [(src, dst), (dst, src)] {
            net.inject(FaultAction::Partition { from, to });
        }
        assert!(client2.taints_for(&[gids[1]]).is_err());
        assert!(client2.taints_for(&[gids[1]]).is_err());
        client2.taints_for_degraded(&[gids[1]]).unwrap();
        for (from, to) in [(src, dst), (dst, src)] {
            net.inject(FaultAction::Heal { from, to });
        }
        assert!((0..8).any(|_| client2.reconcile_pending().unwrap() == 1));

        let s = client2.stats();
        for exercised in [
            s.retries,
            s.failovers,
            s.breaker_opens,
            s.degraded_lookups,
            s.pending_resolved,
        ] {
            assert!(exercised > 0, "the run must exercise every path: {s:?}");
        }
        let dump = reg.snapshot();
        let text = dump.render_text();
        for (field, family) in [
            (s.register_rpcs, "taintmap_register_rpcs"),
            (s.lookup_rpcs, "taintmap_lookup_rpcs"),
            (s.cache_hits, "taintmap_cache_hits"),
            (s.failovers, "taintmap_failovers"),
            (s.batch_frames, "taintmap_batch_frames"),
            (s.retries, "taintmap_retries"),
            (s.breaker_opens, "taintmap_breaker_opens"),
            (s.breaker_fast_fails, "taintmap_breaker_fast_fails"),
            (s.breaker_open_ns, "taintmap_breaker_open_ns"),
            (s.degraded_lookups, "taintmap_degraded_lookups"),
            (s.pending_resolved, "taintmap_pending_resolved"),
            (s.moved_redirects, "taintmap_moved_redirects"),
        ] {
            let line = format!("{family}{{node=n2}} {field}\n");
            assert!(text.contains(&line), "{line:?} not in:\n{text}");
        }
        assert_eq!(
            dump.gauge_value("taintmap_pending_gids", &[("node", "n2")]),
            Some(s.pending_gids as f64)
        );
        endpoint.shutdown();
    }

    #[test]
    fn unknown_gid_still_errors_on_the_degraded_path() {
        let (_net, endpoint, client, _store) = setup();
        assert_eq!(
            client.taints_for_degraded(&[GlobalId(1234)]),
            Err(TaintMapError::UnknownGlobalId(GlobalId(1234)))
        );
        endpoint.shutdown();
    }
}
