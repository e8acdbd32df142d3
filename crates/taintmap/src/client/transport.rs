//! The client's transport: every connection, circuit breaker and class
//! table of one [`super::TaintMapClient`], under one rule — *a
//! destination answers or fails on its own*. A refused breaker, a failed
//! dial and an exhausted retry budget fail only that destination's items;
//! every other destination's reply is still read and applied.
//!
//! Each server has one connection slot. A base shard's slot is dialled at
//! connect and fails over down the topology's list; a split server's is
//! dialled on first use at its own address. A frame whose write, read or
//! deadline fails drops its connection in the same hold, so no reply
//! outlives its request, and the next frame redials from the address
//! after the one last dialled: a failover.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dista_obs::ObsEventKind;
use dista_simnet::{NetError, NodeAddr, SimNet, TcpEndpoint};
use parking_lot::Mutex;

use super::ClientObserver;
use crate::error::TaintMapError;
use crate::proto::{decode_class_table, read_frame_deadline, write_frame, RESP_MOVED, RESP_OK};
use crate::shard::{ClassTable, ShardRange, TaintMapTopology};

/// Rounds of the `Moved` re-partition loop before a request gives up.
const RESHARD_ROUNDS: usize = 10;

/// Retry, deadline, and circuit-breaker tuning for a
/// [`super::TaintMapClient`]. The defaults keep the degraded path fast
/// under simulated partitions (connect failures are immediate) while
/// bounding how long a stalled-but-connected shard can hold an RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientResilience {
    /// Deadline for the read side of one RPC round trip; past it the
    /// attempt counts as a transport failure.
    pub rpc_deadline: Duration,
    /// Re-attempts (redial + replay) after the first failure of one
    /// RPC. Attempt `k` sleeps `backoff_base << (k-1)` first, capped at
    /// [`ClientResilience::backoff_cap`].
    pub retry_budget: u32,
    /// Base backoff between attempts.
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive failed RPCs that open a shard's breaker.
    pub breaker_threshold: u32,
    /// Requests fast-failed while open before one half-open probe is
    /// let through (operation-count half-open keeps chaos runs
    /// deterministic — no wall-clock cool-down).
    pub breaker_probe_after: u32,
}

impl Default for ClientResilience {
    fn default() -> Self {
        ClientResilience {
            rpc_deadline: Duration::from_secs(5),
            retry_budget: 2,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(5),
            breaker_threshold: 3,
            breaker_probe_after: 8,
        }
    }
}

/// One residue class's circuit breaker: closed, open, or — between an
/// open and the next success — half-open, letting requests through.
/// Half-open is operation-counted, not time-based, so a replayed chaos
/// schedule drives the breaker through the same transitions every run.
#[derive(Default)]
struct Breaker {
    consecutive_failures: u32,
    /// While open: the requests still to fail without touching the wire
    /// before the half-open probe.
    fast_fails_left: Option<u32>,
    /// When the down episode began: set at its first open, taken (and
    /// the open time accumulated) by the success that ends it.
    opened_at: Option<Instant>,
}

impl Breaker {
    /// The gate: burns one fast-fail and refuses the request while open.
    fn admit(&mut self) -> bool {
        match &mut self.fast_fails_left {
            Some(0) => self.fast_fails_left = None,
            Some(left) => *left -= 1,
            None => {}
        }
        self.fast_fails_left.is_none()
    }

    /// Closes the breaker after a served request; returns how long the
    /// down episode that ends here lasted, if one does.
    fn success(&mut self) -> Option<Duration> {
        self.consecutive_failures = 0;
        self.fast_fails_left = None;
        self.opened_at.take().map(|at| at.elapsed())
    }

    /// Notes one request that exhausted its retries; returns whether
    /// that opened (or, after a failed probe, re-opened) the breaker.
    fn failure(&mut self, r: &ClientResilience) -> bool {
        self.consecutive_failures += 1;
        let half_open = self.opened_at.is_some();
        let trip = self.fast_fails_left.is_none()
            && (half_open || self.consecutive_failures >= r.breaker_threshold);
        if trip {
            self.fast_fails_left = Some(r.breaker_probe_after);
            self.opened_at.get_or_insert_with(Instant::now);
        }
        trip
    }
}

/// One server's connection slot.
struct Slot {
    /// Failover list, primary first.
    addrs: Vec<NodeAddr>,
    line: Mutex<Line>,
}

/// An undialled slot for the server whose failover list is `addrs`.
fn slot_for(addrs: &[NodeAddr]) -> Arc<Slot> {
    Arc::new(Slot {
        addrs: addrs.to_vec(),
        line: Mutex::default(),
    })
}

/// What a slot's lock guards.
#[derive(Default)]
struct Line {
    /// Taken out for each write and read, and put back only if it worked.
    conn: Option<TcpEndpoint>,
    /// Index into the slot's `addrs` of the address last dialled.
    dialled: Option<usize>,
}

/// One destination's frame of a round.
struct Group {
    class: usize,
    slot: Arc<Slot>,
    /// The caller's items this frame carries, by index.
    items: Vec<usize>,
    payload: Vec<u8>,
}

/// The items of each destination that failed, with why.
pub(super) type Failed = Vec<(Vec<usize>, TaintMapError)>;

pub(super) struct Transport {
    net: SimNet,
    src_ip: [u8; 4],
    /// Slots by residue class and server address: a base shard's under
    /// every address of its failover list, a split server's under its
    /// own. A slot serves one class, so the lock order is total even if
    /// a server's table names another class's server.
    slots: Mutex<HashMap<(usize, NodeAddr), Arc<Slot>>>,
    /// Cached routing table per residue class; starts at epoch 0 (one
    /// open range on the base shard) and converges toward the servers'
    /// tables via `Moved` merges.
    tables: Mutex<Vec<ClassTable>>,
    /// One per residue class, apart from the slot locks so a fast-fail
    /// never queues behind a blocked frame.
    breakers: Vec<Mutex<Breaker>>,
    resilience: ClientResilience,
    obs: ClientObserver,
}

impl Transport {
    /// Dials every base shard of `topology`.
    ///
    /// # Errors
    ///
    /// [`TaintMapError::Net`] if some shard has no reachable address.
    pub(super) fn connect(
        net: &SimNet,
        topology: &TaintMapTopology,
        src_ip: [u8; 4],
        resilience: ClientResilience,
        obs: ClientObserver,
    ) -> Result<Self, TaintMapError> {
        let n = topology.shard_count();
        let base: Vec<Arc<Slot>> = (0..n).map(|i| slot_for(topology.shard_addrs(i))).collect();
        let slots = base.iter().enumerate().flat_map(|(class, slot)| {
            let addrs = slot.addrs.iter();
            addrs.map(move |&addr| ((class, addr), slot.clone()))
        });
        let tables = (0..n).map(|i| ClassTable::initial(base[i].addrs.clone(), i));
        let transport = Transport {
            net: net.clone(),
            src_ip,
            slots: Mutex::new(slots.collect()),
            tables: Mutex::new(tables.collect()),
            breakers: (0..n).map(|_| Mutex::default()).collect(),
            resilience,
            obs,
        };
        for (class, slot) in base.iter().enumerate() {
            let mut line = slot.line.lock();
            line.conn = Some(transport.dial(class, slot, &mut line.dialled)?);
        }
        Ok(transport)
    }

    /// Number of residue classes (base shards) this client routes across.
    pub(super) fn shard_count(&self) -> usize {
        self.breakers.len()
    }

    /// Dials `slot` down its failover list, from the address after the
    /// one last dialled; a redial is a failover of class `class`.
    fn dial(
        &self,
        class: usize,
        slot: &Slot,
        dialled: &mut Option<usize>,
    ) -> Result<TcpEndpoint, TaintMapError> {
        let n = slot.addrs.len();
        let start = dialled.map_or(0, |last| last + 1);
        let mut last = NetError::Closed;
        for target in (start..start + n).map(|k| k % n) {
            match self.net.tcp_connect_from(self.src_ip, slot.addrs[target]) {
                Ok(conn) => {
                    if dialled.replace(target).is_some() {
                        self.obs.failovers.inc();
                        self.obs
                            .recorder
                            .record_with(|| ObsEventKind::TaintMapFailover { shard: class });
                    }
                    return Ok(conn);
                }
                Err(e) => last = e,
            }
        }
        Err(TaintMapError::Net(last))
    }

    /// Writes `g`'s frame, dialling first if a failed frame dropped the
    /// connection.
    fn send(&self, g: &Group, line: &mut Line, op: u8) -> Result<(), TaintMapError> {
        let conn = match line.conn.take() {
            Some(conn) => conn,
            None => self.dial(g.class, &g.slot, &mut line.dialled)?,
        };
        write_frame(&conn, op, &g.payload)?;
        line.conn = Some(conn);
        Ok(())
    }

    /// Reads the reply to the frame just sent, within the whole-frame
    /// deadline.
    fn receive(&self, line: &mut Line) -> Result<(u8, Vec<u8>), TaintMapError> {
        let conn = line.conn.take().ok_or(NetError::Closed)?;
        let reply = read_frame_deadline(&conn, self.resilience.rpc_deadline)?;
        let reply = reply.ok_or(NetError::Closed)?;
        line.conn = Some(conn);
        Ok(reply)
    }

    /// Sleeps the bounded exponential backoff before re-attempt
    /// `attempt` (1-based) and counts the retry.
    fn note_retry(&self, attempt: u32) {
        self.obs.retries.inc();
        let r = self.resilience;
        let shift = (attempt - 1).min(16);
        let backoff = r
            .backoff_base
            .saturating_mul(1u32 << shift)
            .min(r.backoff_cap);
        if backoff > Duration::ZERO {
            std::thread::sleep(backoff);
        }
    }

    /// Runs one round of per-destination frames and returns each
    /// destination's reply or error, in group order:
    ///
    /// * **Admission** — a group whose class breaker is open fails
    ///   without being sent.
    /// * **Pipelining** — the admitted slots are locked in group order,
    ///   ascending `(class, server)` (the deadlock-free order every round
    ///   shares), and every frame is written before any reply is read.
    /// * **Retry** — a frame whose dial, write or read fails is re-sent
    ///   after a bounded exponential backoff, up to `retry_budget` times
    ///   (a bind is idempotent, a replayed lease at worst strands its
    ///   gids, a lookup is read-only).
    /// * **Breaker** — any well-formed reply, `OK` or `Moved`, closes the
    ///   class breaker (a redirecting server is *serving*); an exhausted
    ///   budget counts one failure toward opening it.
    fn run_groups(&self, groups: &[Group], op: u8) -> Vec<Result<(u8, Vec<u8>), TaintMapError>> {
        let r = self.resilience;
        let sent: Vec<_> = groups
            .iter()
            .map(|g| {
                if !self.breakers[g.class].lock().admit() {
                    self.obs.breaker_fast_fails.inc();
                    return Err(TaintMapError::ShardUnavailable(g.class));
                }
                let mut line = g.slot.line.lock();
                let written = self.send(g, &mut line, op);
                Ok((line, written))
            })
            .collect();
        self.obs
            .batch_frames
            .add(sent.iter().flatten().count() as u64);
        groups
            .iter()
            .zip(sent)
            .map(|(g, sent)| {
                let (mut line, mut written) = sent?;
                let mut attempt = 0;
                let reply = loop {
                    let reply = written.and_then(|()| self.receive(&mut line));
                    if reply.is_ok() || attempt == r.retry_budget {
                        break reply;
                    }
                    attempt += 1;
                    self.note_retry(attempt);
                    written = self.send(g, &mut line, op);
                };
                let mut breaker = self.breakers[g.class].lock();
                if reply.is_ok() {
                    if let Some(open_for) = breaker.success() {
                        self.obs.breaker_open_ns.add(open_for.as_nanos() as u64);
                    }
                } else if breaker.failure(&r) {
                    self.obs.breaker_opens.inc();
                }
                reply
            })
            .collect()
    }

    /// One logical request of `n` items: partitions the items by
    /// destination (`route` names an item's residue class and the range
    /// that serves it under the cached class tables), sends one `op`
    /// frame per destination (`encode` builds it from the class epoch and
    /// the items it carries), and hands each `OK` reply to `on_ok`. A
    /// `Moved` reply — to a stale stamp or a range that moved — carries
    /// the server's class table: it is merged, and that destination's
    /// items are re-partitioned on the next round. Every round either
    /// resolves items or advances a class table's epoch, so a healthy
    /// deployment converges in one or two.
    ///
    /// Returns the items left unresolved, by the destination that failed
    /// them: its transport failed, `on_ok` refused its reply, or its
    /// redirects did not converge. Every other reply has been applied.
    pub(super) fn resolve(
        &self,
        op: u8,
        n: usize,
        route: impl Fn(&[ClassTable], usize) -> (usize, &ShardRange),
        encode: impl Fn(u64, &[usize]) -> Vec<u8>,
        mut on_ok: impl FnMut(&[usize], &[u8]) -> Result<(), TaintMapError>,
    ) -> Failed {
        let mut failed = Vec::new();
        if n == 0 {
            return failed;
        }
        self.obs.batch_items.observe(n as u64);
        let wire_started = Instant::now();
        let mut unresolved: Vec<usize> = (0..n).collect();
        for _round in 0..RESHARD_ROUNDS {
            if unresolved.is_empty() {
                break;
            }
            let groups: Vec<Group> = {
                let tables = self.tables.lock();
                let mut slots = self.slots.lock();
                // A split class fans its items out over every range owner;
                // BTreeMap gives the ascending (class, server) lock order.
                let mut by_dest: BTreeMap<(usize, NodeAddr), (Arc<Slot>, Vec<usize>)> =
                    BTreeMap::new();
                for &k in &unresolved {
                    let (class, range) = route(&tables, k);
                    let slot = slots
                        .entry((class, range.addrs[0]))
                        .or_insert_with(|| slot_for(&range.addrs));
                    by_dest
                        .entry((class, slot.addrs[0]))
                        .or_insert_with(|| (slot.clone(), Vec::new()))
                        .1
                        .push(k);
                }
                by_dest
                    .into_iter()
                    .map(|((class, _), (slot, items))| Group {
                        class,
                        slot,
                        payload: encode(tables[class].epoch, &items),
                        items,
                    })
                    .collect()
            };
            let replies = self.run_groups(&groups, op);
            unresolved.clear();
            for (g, reply) in groups.into_iter().zip(replies) {
                let applied = reply.and_then(|(resp_op, resp)| match resp_op {
                    RESP_OK => on_ok(&g.items, &resp),
                    RESP_MOVED => {
                        let table = decode_class_table(&resp)?;
                        self.tables.lock()[g.class].merge(&table);
                        self.obs.moved_redirects.inc();
                        unresolved.extend_from_slice(&g.items);
                        Ok(())
                    }
                    _ => Err(TaintMapError::Protocol("bad taint map response")),
                });
                if let Err(e) = applied {
                    failed.push((g.items, e));
                }
            }
        }
        if !unresolved.is_empty() {
            let e = TaintMapError::Protocol("resharding did not converge");
            failed.push((unresolved, e));
        }
        if failed.is_empty() {
            self.obs
                .batch_latency_us
                .observe(wire_started.elapsed().as_micros() as u64);
        }
        failed
    }
}
