//! The DisTA JNI boundary wrappers (paper §III-C, §III-D).
//!
//! Everything below this module is taint-oblivious native code
//! ([`dista_simnet::native`]). This module is the *only* place where
//! taints cross that boundary, and only in [`Mode::Dista`]:
//!
//! * **Senders** encode each payload with the connection's
//!   [`WireCodec`]: wire protocol **v1** interleaves a 4-byte Global ID
//!   after every data byte (`[b0][gid0][b1][gid1]…` — the paper's ≈5×
//!   expansion, decodable at any record boundary, §III-D-2); wire
//!   protocol **v2** frames the payload adaptively so untainted bytes
//!   ship at ~1.0x (see [`crate::codec::v2`]).
//! * **Receivers** enlarge their buffers by the codec's wire factor,
//!   strip the IDs, resolve them through the Taint Map client (cached),
//!   and re-attach taints byte-for-byte. A trailing partial wire unit is
//!   kept in a per-connection remainder buffer until the next read.
//! * **Negotiation** (policy [`WireProtocol::Negotiate`]) settles each
//!   connection's version with one round trip *inside* the v1 record
//!   grammar: the connector leads with a probe record
//!   `[version][0xFF × 4]`, the acceptor answers with the same
//!   shape, and either side falls back to v1 the moment it sees an
//!   ordinary data record instead — so un-upgraded pinned-v1 peers
//!   interoperate unchanged. The all-ones gid pattern can never collide
//!   with payload records because the Taint Map never allocates the
//!   all-ones Global IDs (see `dista_taintmap::WIRE_RESERVED_GIDS`).
//!
//! In [`Mode::Phosphor`] the wrappers reproduce the paper's Fig.-4
//! baseline semantics instead: data crosses, and the received bytes get
//! the *parameter buffer's* prior taint — i.e. nothing — so inter-node
//! taints are silently lost. In [`Mode::Original`] payloads stay plain.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use std::sync::OnceLock;

use dista_obs::{CrossingSide, GidSpan, ObsEventKind, Transport};
use dista_simnet::{native, NodeAddr, TcpEndpoint, UdpEndpoint};
use dista_taint::{serialize_taint, GlobalId, Payload, Taint, TaintRuns, TaintedBytes};
use parking_lot::Mutex;

use crate::codec::v2::{parse_annotation, parse_defs, AnnotParse};
use crate::codec::{v1::RECORD, RingRemainder, WireCodec, WireProtocol, WireVersion};
use crate::error::JreError;
use crate::stopwatch::{read, write, Stopwatch};
use crate::vm::{Mode, Vm};

/// Most data bytes one [`BoundaryStream::read_payload`] asks the OS for
/// (times the codec's wire factor in DisTA mode), whatever its caller
/// asked: every framing layer above hands the length a peer announced
/// straight to a read, and this is what keeps four hostile bytes from
/// sizing a 4 GiB buffer — in every mode, with no per-protocol cap.
const RECV_CHUNK: usize = 64 << 10;

/// Identifies one boundary crossing for flight-recorder events: the
/// transport plus the sender→receiver address pair. Encode and decode
/// sides of the same crossing construct the *same* pair (the sender's
/// local address first), which is what lets provenance reconstruction
/// match them up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    pub(crate) transport: Transport,
    pub(crate) from: NodeAddr,
    pub(crate) to: NodeAddr,
}

/// Builds a negotiation probe/reply: one v1-grammar record whose data
/// byte is the protocol version and whose gid bytes are all ones.
fn handshake_record(version: u8) -> [u8; RECORD] {
    let mut rec = [0xFF; RECORD];
    rec[0] = version;
    rec
}

/// Whether a leading v1 record is a negotiation probe/reply (all-ones
/// gid — a pattern real payload records can never carry because the
/// all-ones Global IDs are reserved, never allocated).
fn is_handshake_record(record: &[u8]) -> bool {
    record[1..].iter().all(|&b| b == 0xFF)
}

/// Which protocol a stream speaks — or where its negotiation stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProtoState {
    /// Settled on v1. While `probe_watch` is set the stream has not seen
    /// its first inbound record yet and must check it for a Negotiate
    /// peer's probe (answering it, unless this side already wrote data —
    /// then the probe is swallowed silently and the peer falls back to
    /// v1 on seeing data records first, so no stale reply can ever land
    /// mid-stream).
    V1 { probe_watch: bool },
    /// Settled on v2.
    V2,
    /// Negotiate connector: probe sent, awaiting the reply record (or an
    /// un-upgraded peer's data records — that means fall back to v1).
    ConnectorAwait,
    /// Negotiate acceptor: awaiting the peer's probe (or a pinned-v1
    /// peer's data records — fall back to v1). Writing first also
    /// settles v1, because the bytes must be decodable by whatever the
    /// peer turns out to be.
    AcceptorAwait,
}

impl ProtoState {
    fn version(self) -> Option<WireVersion> {
        match self {
            ProtoState::V1 { .. } => Some(WireVersion::V1),
            ProtoState::V2 => Some(WireVersion::V2),
            _ => None,
        }
    }

    /// Every state, at the index [`ProtoCell`] stores it as.
    const ALL: [ProtoState; 5] = [
        ProtoState::V1 { probe_watch: false },
        ProtoState::V1 { probe_watch: true },
        ProtoState::V2,
        ProtoState::ConnectorAwait,
        ProtoState::AcceptorAwait,
    ];

    fn code(self) -> u8 {
        let at = Self::ALL.iter().position(|&state| state == self);
        at.expect("every state is listed") as u8
    }
}

/// A stream's [`ProtoState`] in one atomic cell. A settled state is
/// final and the *version* is final as soon as it is known, so every
/// crossing after the handshake is one load here, not a lock.
///
/// Stores are `Release` and loads `Acquire`: a state is published only
/// after the handshake bytes it stands for were written to the socket,
/// and a writer that reads a settled version writes its data after
/// them.
#[derive(Debug)]
struct ProtoCell(AtomicU8);

impl ProtoCell {
    fn new(state: ProtoState) -> Self {
        ProtoCell(AtomicU8::new(state.code()))
    }

    fn load(&self) -> ProtoState {
        ProtoState::ALL[self.0.load(Ordering::Acquire) as usize]
    }

    fn store(&self, state: ProtoState) {
        self.0.store(state.code(), Ordering::Release);
    }

    /// Moves `from` → `to` unless another thread moved on first.
    fn advance(&self, from: ProtoState, to: ProtoState) {
        let _ =
            self.0
                .compare_exchange(from.code(), to.code(), Ordering::AcqRel, Ordering::Acquire);
    }
}

/// Slots of a [`PeerKnows`] table.
const PEER_SLOTS: usize = 256;

/// Which Global IDs the peer of a v2 connection is known to hold: a
/// direct-mapped set of `u32`, one slot per `gid % 256`, allocated at
/// the connection's first tainted v2 crossing in either direction. A
/// gid is marked when this side ships its definition and when it
/// arrives from the peer (who had it cached to send it), so a reply
/// carrying the request's taints back defines nothing. Forgetting is
/// always safe — an evicted gid is defined again, or looked up — and so
/// is a lost race between the two directions' relaxed stores.
#[derive(Debug, Default)]
pub(crate) struct PeerKnows(OnceLock<Box<[AtomicU32; PEER_SLOTS]>>);

impl PeerKnows {
    fn slot(&self, gid: GlobalId) -> &AtomicU32 {
        let slots = self
            .0
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU32::new(0))));
        &slots[gid.0 as usize % PEER_SLOTS]
    }

    fn holds(&self, gid: GlobalId) -> bool {
        self.slot(gid).load(Ordering::Relaxed) == gid.0
    }

    fn mark(&self, gid: GlobalId) {
        self.slot(gid).store(gid.0, Ordering::Relaxed);
    }
}

/// The sender's reusable tables, one entry per shadow run of the payload
/// being encoded. A [`BoundaryStream`] keeps one behind its tx lock, so
/// a steady-state write allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TxTables {
    /// The run's taint, as handed to the Taint Map client…
    taints: Vec<Taint>,
    /// …and the Global ID it answered with.
    gids: Vec<GlobalId>,
    /// `(run_len, gid)`: the table the codec encodes from.
    runs: Vec<(usize, GlobalId)>,
    /// The gids the client handed out for this payload, each with the
    /// serialized taint it will bind to it.
    registered: Vec<(GlobalId, Vec<u8>)>,
    /// The definitions this payload ships.
    defs: Vec<(GlobalId, Vec<u8>)>,
    /// Control frames (annotation, definitions) the data frames follow.
    head: Vec<u8>,
    /// The crossing's phase clock.
    clock: Stopwatch,
}

/// Collects into `tx.defs` (empty) a definition for every tainted gid of
/// the payload `peer` is not known to hold, and marks each one held: its
/// definition ships in this write, or the write fails and the stream
/// with it. The bytes are the ones the client just serialized, if it
/// handed the gid out for this payload; otherwise the taint is
/// serialized here, once.
fn collect_defs(vm: &Vm, peer: &PeerKnows, tx: &mut TxTables) {
    for (&gid, &taint) in tx.gids.iter().zip(&tx.taints) {
        // A slot two gids of this payload share evicts the first one;
        // the list itself still holds it.
        if !gid.is_tainted() || peer.holds(gid) || tx.defs.iter().any(|&(g, _)| g == gid) {
            continue;
        }
        let bytes = match tx.registered.iter_mut().find(|(g, _)| *g == gid) {
            Some((_, bytes)) => std::mem::take(bytes),
            None => serialize_taint(vm.store().tree(), taint),
        };
        tx.defs.push((gid, bytes));
        peer.mark(gid);
    }
}

/// The receiver's reusable tables, one entry per decoded run.
#[derive(Debug, Default)]
pub(crate) struct RxTables {
    /// `(gid, run_len)`: the table the codec decodes into.
    runs: Vec<(GlobalId, usize)>,
    /// The run's Global ID, as handed to the Taint Map client…
    gids: Vec<GlobalId>,
    /// …and the taint it answered with.
    taints: Vec<Taint>,
    /// The crossing's phase clock.
    clock: Stopwatch,
}

/// The tainted runs of a `(run_len, gid)` table as byte ranges, for the
/// flight recorder's boundary events.
fn gid_spans(runs: impl Iterator<Item = (usize, GlobalId)>) -> Vec<GidSpan> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (run_len, gid) in runs {
        if gid.is_tainted() {
            spans.push(GidSpan {
                gid: gid.0,
                start,
                end: start + run_len,
            });
        }
        start += run_len;
    }
    spans
}

/// Encodes a payload through `codec` into `out` (the stream's own
/// encode buffer, or a pooled one for datagrams). A plain payload is
/// encoded directly as one untainted run (no shadow materialization).
///
/// The shadow's taints go to the Taint Map client run by run, as they
/// lie: an all-hit call costs it one lock-free load per run, and the
/// distinct misses get gids from its leases. A payload with no
/// tainted run never gets that far. On a v2 stream (`peer` given) the
/// tainted gids the peer is not known to hold are defined ahead of the
/// data frames, so nothing waits for the Taint Map; every other
/// crossing names its gids bare, and first waits until the map can
/// answer each one.
pub(crate) fn encode_payload(
    vm: &Vm,
    payload: &Payload,
    link: Link,
    codec: &dyn WireCodec,
    peer: Option<&PeerKnows>,
    tx: &mut TxTables,
    out: &mut Vec<u8>,
) -> Result<(), JreError> {
    let client = vm
        .taint_map()
        .ok_or(JreError::Protocol("DisTA boundary without taint map"))?;
    let obs = vm.vm_obs();
    tx.runs.clear();
    tx.defs.clear();
    match payload {
        Payload::Plain(data) => {
            // One untainted run; gid 0 needs no Taint Map round trip and
            // no shadow clone.
            if !data.is_empty() {
                tx.runs.push((data.len(), GlobalId::UNTAINTED));
            }
        }
        Payload::Tainted(bytes) => {
            let shadow = bytes.shadow();
            tx.taints.clear();
            tx.taints.extend(shadow.iter_runs().map(|(_, taint)| taint));
            tx.clock.lap(write::SHADOW);
            if tx.taints.iter().any(|taint| !taint.is_empty()) {
                let defined = peer.is_some().then_some(&mut tx.registered);
                client.global_ids_into(&tx.taints, &mut tx.gids, defined)?;
                if let Some(peer) = peer {
                    collect_defs(vm, peer, tx);
                }
            } else {
                tx.gids.clear();
                tx.gids.resize(tx.taints.len(), GlobalId::UNTAINTED);
            }
            tx.clock.lap(write::REGISTER);
            let lens = shadow.iter_runs().map(|(run_len, _)| run_len);
            tx.runs.extend(lens.zip(tx.gids.iter().copied()));
        }
    }
    tx.clock.lap(write::SHADOW);
    let run_gids = &tx.runs;
    let data = payload.data();
    codec.encode_into(data, run_gids, out)?;
    // Trace annotation: a tainted v2 crossing mints a child span and
    // ships it ahead of the data frames; the parent is whatever span
    // last delivered (or minted with) the first tainted gid on this VM.
    // Clean payloads carry no annotation, preserving v2's ~1.0x wire
    // size; v1 stays bit-pinned, so its crossings are never annotated.
    // The definitions follow the annotation, so the receiver binds them
    // to the crossing's span before it resolves them.
    let mut span = 0u64;
    let mut parent = 0u64;
    tx.head.clear();
    if codec.version() == WireVersion::V2 && obs.gid_spans.is_enabled() {
        if let Some(&(_, gid)) = run_gids.iter().find(|&&(_, gid)| gid.is_tainted()) {
            span = vm.observability().next_span();
            parent = obs.gid_spans.get(gid.0);
            crate::codec::v2::encode_annotation(span, parent, &mut tx.head);
        }
    }
    if !tx.defs.is_empty() {
        crate::codec::v2::encode_defs(&tx.defs, &mut tx.head);
    }
    if !tx.head.is_empty() {
        out.splice(0..0, tx.head.iter().copied());
    }
    obs.record_boundary_out(codec.version(), data.len(), out.len());
    obs.flight.record_with(|| ObsEventKind::BoundaryEncode {
        transport: link.transport,
        from: link.from.to_string(),
        to: link.to.to_string(),
        data_bytes: data.len(),
        wire_bytes: out.len(),
        spans: gid_spans(run_gids.iter().copied()),
        span,
        parent,
    });
    tx.clock.lap(write::ENCODE);
    Ok(())
}

/// Resolves decoded wire output (`data` plus the run table the codec
/// left in `rx.runs`) back into a tainted buffer: the runs' Global IDs
/// go to the Taint Map client as they lie (an all-hit call costs one
/// lock-free load per run, the distinct misses one batched round trip)
/// and the shadow is assembled run by run. A decode with no
/// tainted run skips the lookup. `wire_len` is the wire-byte count the
/// decode consumed, for telemetry. On a v2 stream (`peer` given) every
/// tainted gid is marked as one the peer holds.
///
/// Degraded resolution: if a Taint Map shard is unreachable, each of its
/// gids resolves to a `pending-gid` sentinel instead of failing the
/// read — delivered bytes are never silently clean, and the client
/// reconciles the sentinels after the partition heals (that
/// reconciliation rides on every decode, tainted or not).
pub(crate) fn resolve_decoded(
    vm: &Vm,
    data: Vec<u8>,
    rx: &mut RxTables,
    wire_len: usize,
    link: Link,
    span: u64,
    peer: Option<&PeerKnows>,
) -> Result<TaintedBytes, JreError> {
    let client = vm
        .taint_map()
        .ok_or(JreError::Protocol("DisTA boundary without taint map"))?;
    let obs = vm.vm_obs();
    let runs = &rx.runs;
    if runs.iter().any(|&(gid, _)| gid.is_tainted()) {
        // Bind the delivered gids to the crossing span *before* the
        // Taint Map resolution, so the lookup events it records already
        // name the span that delivered them.
        if span != 0 || peer.is_some() {
            for &(gid, _) in runs.iter().filter(|(gid, _)| gid.is_tainted()) {
                if span != 0 {
                    obs.gid_spans.bind(gid.0, span);
                }
                if let Some(peer) = peer {
                    peer.mark(gid);
                }
            }
        }
        rx.gids.clear();
        rx.gids.extend(runs.iter().map(|&(gid, _)| gid));
        client.taints_degraded_into(&rx.gids, &mut rx.taints)?;
    } else {
        client.reconcile_pending()?;
        rx.taints.clear();
        rx.taints.resize(runs.len(), Taint::EMPTY);
    }
    rx.clock.lap(read::RESOLVE);
    obs.boundary_data_in.add(data.len() as u64);
    obs.boundary_wire_in.add(wire_len as u64);
    obs.flight.record_with(|| ObsEventKind::BoundaryDecode {
        transport: link.transport,
        from: link.from.to_string(),
        to: link.to.to_string(),
        data_bytes: data.len(),
        wire_bytes: wire_len,
        spans: gid_spans(runs.iter().map(|&(gid, run_len)| (run_len, gid))),
        span,
    });
    let mut shadow = TaintRuns::with_capacity(runs.len());
    for (&(_, run_len), &taint) in runs.iter().zip(&rx.taints) {
        shadow.push_run(taint, run_len);
    }
    Ok(TaintedBytes::from_runs(data, shadow))
}

/// Truncates decoded output to `cap` data bytes, trimming the run table
/// to match (datagram receive buffers cap delivered data the way plain
/// UDP does).
fn truncate_decoded(data: &mut Vec<u8>, runs: &mut Vec<(GlobalId, usize)>, cap: usize) {
    if data.len() <= cap {
        return;
    }
    data.truncate(cap);
    let mut left = cap;
    runs.retain_mut(|run| {
        if left == 0 {
            return false;
        }
        run.1 = run.1.min(left);
        left -= run.1;
        true
    });
}

/// A TCP connection as seen *above* the JNI boundary: the instrumented
/// `socketWrite0`/`socketRead0` pair plus the receiver-side remainder
/// buffer for partial wire units and the connection's wire-protocol
/// state.
///
/// All higher stream and channel classes ([`crate::SocketOutputStream`],
/// [`crate::SocketChannel`], HTTP, …) funnel through one of these.
#[derive(Debug)]
pub struct BoundaryStream {
    vm: Vm,
    ep: TcpEndpoint,
    /// Sender→receiver pair for outbound crossings (cached at wrap time
    /// so the hot paths never re-derive addresses).
    out_link: Link,
    /// Sender→receiver pair for inbound crossings (the peer sent them).
    in_link: Link,
    /// Everything the receive direction owns (DisTA mode only), behind
    /// the one lock a read takes.
    rx: Mutex<RxState>,
    /// Everything the send direction owns (DisTA mode only), behind the
    /// one lock a write takes.
    tx: Mutex<TxState>,
    /// Wire-protocol state of this connection (see [`ProtoState`]).
    proto: ProtoCell,
    /// Whether this side has written payload records — set before the
    /// first data write, after which an arriving probe is swallowed
    /// without a reply (the peer falls back to v1 on the data records).
    wrote_data: AtomicBool,
    /// The gids the peer holds, fed by both directions (v2 only).
    peer: PeerKnows,
}

/// The receive direction of a [`BoundaryStream`].
#[derive(Debug, Default)]
struct RxState {
    /// Received-but-undecoded wire bytes; ends with the trailing partial
    /// wire unit carried between reads. The native read fills its tail
    /// in place and decode reads its live region in place.
    ring: RingRemainder,
    /// Decoded-but-undelivered bytes: a v2 frame is indivisible, so one
    /// decode may produce more than the reader asked for; the excess
    /// waits here for the next read. Checked under the same lock the
    /// decode runs under, so a decode that finds it empty may hand its
    /// output straight to the caller.
    pending: TaintedBytes,
    /// Span of the most recent inbound v2 trace annotation: the frames
    /// decoded after it were delivered by that crossing. Stays 0 on v1
    /// connections and when the peer does not annotate.
    span: u64,
    tables: RxTables,
}

/// The send direction of a [`BoundaryStream`].
#[derive(Debug, Default)]
struct TxState {
    /// The encode buffer: one payload's wire bytes, handed to the
    /// native write as they lie.
    wire: Vec<u8>,
    tables: TxTables,
}

impl BoundaryStream {
    fn wrap(vm: Vm, ep: TcpEndpoint, connector: bool) -> Self {
        let initial = if vm.mode().tracks_inter_node() {
            match vm.wire_protocol() {
                WireProtocol::V1 => ProtoState::V1 { probe_watch: true },
                WireProtocol::V2 => ProtoState::V2,
                WireProtocol::Negotiate => {
                    if connector {
                        // Lead with the probe so the one round trip
                        // overlaps the connection's first exchange. The
                        // wrap itself stays infallible; a dead endpoint
                        // surfaces on the first real I/O call.
                        let _ = native::socket_write0(&ep, &handshake_record(2));
                        ProtoState::ConnectorAwait
                    } else {
                        ProtoState::AcceptorAwait
                    }
                }
            }
        } else {
            ProtoState::V1 { probe_watch: false }
        };
        let watching = matches!(
            initial,
            ProtoState::AcceptorAwait | ProtoState::V1 { probe_watch: true }
        );
        let (local, peer) = (ep.local_addr(), ep.peer_addr());
        let stream = BoundaryStream {
            vm,
            ep,
            out_link: Link {
                transport: Transport::Tcp,
                from: local,
                to: peer,
            },
            in_link: Link {
                transport: Transport::Tcp,
                from: peer,
                to: local,
            },
            rx: Mutex::new(RxState::default()),
            tx: Mutex::new(TxState::default()),
            proto: ProtoCell::new(initial),
            wrote_data: AtomicBool::new(false),
            peer: PeerKnows::default(),
        };
        if !connector && watching {
            stream.eager_rx_probe();
        }
        stream
    }

    /// Answers an already-buffered negotiation probe at wrap time,
    /// without blocking. The connector writes its probe during connect,
    /// so by the time `accept` returns the probe is normally sitting in
    /// the receive buffer — replying here (instead of on this side's
    /// first read) means a connector that writes before this side ever
    /// reads still finds its reply waiting rather than deadlocking the
    /// handshake. If the probe has not arrived yet, negotiation simply
    /// stays lazy.
    fn eager_rx_probe(&self) {
        let rem = &mut self.rx.lock().ring;
        while rem.len() < RECORD {
            let want = RECORD - rem.len();
            match rem.fill_with(want, |tail| self.ep.try_read(tail)) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        // Errors (a malformed probe) are not lost: rx_resolve consumes
        // nothing on error, so the first real read re-raises them.
        let _ = self.rx_resolve(rem);
    }

    /// Wraps an established connection for `vm` in the passive
    /// (acceptor) role: under [`WireProtocol::Negotiate`] this side
    /// answers the peer's probe rather than sending one.
    pub fn new(vm: Vm, ep: TcpEndpoint) -> Self {
        Self::wrap(vm, ep, false)
    }

    /// Wraps a freshly *connected* endpoint: under
    /// [`WireProtocol::Negotiate`] this side leads the handshake with a
    /// v2 probe record.
    pub fn connector(vm: Vm, ep: TcpEndpoint) -> Self {
        Self::wrap(vm, ep, true)
    }

    /// Wraps a freshly *accepted* endpoint (same as [`BoundaryStream::new`]).
    pub fn acceptor(vm: Vm, ep: TcpEndpoint) -> Self {
        Self::wrap(vm, ep, false)
    }

    /// The VM this stream belongs to.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The underlying transport endpoint.
    pub fn endpoint(&self) -> &TcpEndpoint {
        &self.ep
    }

    /// The wire protocol version this connection has settled on, if
    /// negotiation has completed (pinned connections are settled from
    /// the start).
    pub fn wire_version(&self) -> Option<WireVersion> {
        self.proto.load().version()
    }

    /// Advances the protocol state machine against the received bytes
    /// (`rx` lock held by the caller). On return: settled states are
    /// final; an `*Await` (or `probe_watch`) state means fewer than one
    /// whole record is buffered, so the caller must read more bytes
    /// before anything can be decoded.
    fn rx_resolve(&self, rem: &mut RingRemainder) -> Result<ProtoState, JreError> {
        loop {
            let state = self.proto.load();
            match state {
                ProtoState::V2 | ProtoState::V1 { probe_watch: false } => return Ok(state),
                _ if rem.len() < RECORD => return Ok(state),
                ProtoState::V1 { probe_watch: true } => {
                    if is_handshake_record(&rem.as_slice()[..RECORD]) {
                        // A Negotiate peer probing a pinned-v1 stream.
                        // Reply v1 — unless data records already went
                        // out, in which case the peer has (or will)
                        // fall back on seeing them, and a late reply
                        // would corrupt its stream.
                        if !self.wrote_data.load(Ordering::SeqCst) {
                            native::socket_write0(&self.ep, &handshake_record(1))?;
                        }
                        rem.consume(RECORD);
                    }
                    self.proto.store(ProtoState::V1 { probe_watch: false });
                }
                ProtoState::ConnectorAwait => {
                    let record = &rem.as_slice()[..RECORD];
                    if is_handshake_record(record) {
                        let settled = match record[0] {
                            1 => ProtoState::V1 { probe_watch: false },
                            2 => ProtoState::V2,
                            _ => {
                                return Err(JreError::Protocol(
                                    "bad wire version in negotiation reply",
                                ))
                            }
                        };
                        rem.consume(RECORD);
                        self.proto.store(settled);
                    } else {
                        // An un-upgraded peer ignored the probe and is
                        // sending v1 data records: fall back, keeping
                        // the bytes.
                        self.proto.store(ProtoState::V1 { probe_watch: false });
                    }
                }
                ProtoState::AcceptorAwait => {
                    let record = &rem.as_slice()[..RECORD];
                    if is_handshake_record(record) {
                        if record[0] == 0 {
                            return Err(JreError::Protocol(
                                "bad wire version in negotiation probe",
                            ));
                        }
                        // Accept the highest version both sides speak.
                        let version = record[0].min(2);
                        native::socket_write0(&self.ep, &handshake_record(version))?;
                        rem.consume(RECORD);
                        self.proto.store(if version == 2 {
                            ProtoState::V2
                        } else {
                            ProtoState::V1 { probe_watch: false }
                        });
                    } else {
                        // Pinned-v1 peer writing data directly.
                        self.proto.store(ProtoState::V1 { probe_watch: false });
                    }
                }
            }
        }
    }

    /// Resolves the version outbound payloads must use, completing the
    /// handshake if it is still pending: an awaiting acceptor settles v1
    /// by writing first; an awaiting connector blocks for the reply (or
    /// yields to a concurrent reader thread already pulling it in).
    fn tx_version(&self) -> Result<WireVersion, JreError> {
        // From its first write on this side counts as having written
        // data, so a probe arriving later is swallowed rather than
        // answered. The flag never goes back, so every later write only
        // reads it.
        if !self.wrote_data.load(Ordering::SeqCst) {
            self.wrote_data.store(true, Ordering::SeqCst);
        }
        loop {
            let state = self.proto.load();
            if let Some(version) = state.version() {
                return Ok(version);
            }
            match state {
                // Settle v1 by first write: a pinned-v1 peer needs
                // these bytes decodable as-is, and a Negotiate
                // connector falls back to v1 when data records arrive
                // before any reply. (Unless a reader settled the
                // handshake meanwhile: then the loop reads its verdict.)
                ProtoState::AcceptorAwait => self
                    .proto
                    .advance(state, ProtoState::V1 { probe_watch: true }),
                ProtoState::ConnectorAwait => match self.rx.try_lock() {
                    Some(mut rx) => {
                        let rem = &mut rx.ring;
                        if matches!(self.rx_resolve(rem)?, ProtoState::ConnectorAwait) {
                            let want = RECORD.saturating_sub(rem.len()).max(1);
                            let n =
                                rem.fill_with(want, |tail| native::socket_read0(&self.ep, tail))?;
                            if n == 0 {
                                // Peer closed before answering: settle
                                // v1 so whatever it did send remains
                                // readable.
                                self.proto.store(ProtoState::V1 { probe_watch: false });
                            }
                        }
                    }
                    // A reader thread holds the rx lock and will
                    // consume the reply itself; wait for it to settle.
                    None => std::thread::yield_now(),
                },
                _ => unreachable!("settled states return above"),
            }
        }
    }

    /// Strips the control frames at the front of a v2 receive ring (`rx`
    /// lock held by the caller): an annotation's span becomes `span`,
    /// the crossing span of the frames after it; a definitions frame's
    /// gids are bound to that span and handed to the Taint Map client,
    /// which then resolves them without a lookup. A partial frame stays
    /// for the next read, and so does a definitions frame the client
    /// refuses: the error repeats on the next read, like a decode's.
    fn strip_control(&self, rem: &mut RingRemainder, span: &mut u64) -> Result<(), JreError> {
        loop {
            if let AnnotParse::Complete {
                span: crossing,
                consumed,
                ..
            } = parse_annotation(rem.as_slice())?
            {
                *span = crossing;
                rem.consume(consumed);
            } else if let Some((defs, consumed)) = parse_defs(rem.as_slice())? {
                let client = self
                    .vm
                    .taint_map()
                    .ok_or(JreError::Protocol("DisTA boundary without taint map"))?;
                for (gid, serialized) in defs {
                    if *span != 0 {
                        self.vm.vm_obs().gid_spans.bind(gid.0, *span);
                    }
                    client.define(gid, serialized)?;
                }
                rem.consume(consumed);
            } else {
                return Ok(());
            }
        }
    }

    /// Instrumented `socketWrite0`: sends a payload across the boundary.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn write_payload(&self, payload: &Payload) -> Result<(), JreError> {
        match self.vm.mode() {
            Mode::Original | Mode::Phosphor => {
                // Taints (if any) die here: only the data crosses.
                native::socket_write0(&self.ep, payload.data())?;
            }
            Mode::Dista => {
                let version = self.tx_version()?;
                let peer = (version == WireVersion::V2).then_some(&self.peer);
                let tx = &mut *self.tx.lock();
                let (tables, wire) = (&mut tx.tables, &mut tx.wire);
                let obs = self.vm.vm_obs();
                tables.clock = obs.stopwatch(CrossingSide::Write);
                let link = self.out_link;
                encode_payload(&self.vm, payload, link, version.codec(), peer, tables, wire)?;
                native::socket_write0(&self.ep, wire)?;
                tables
                    .clock
                    .finish(write::SEND, &obs.flight, Transport::Tcp);
            }
        }
        Ok(())
    }

    /// Instrumented `socketRead0`: receives up to `max_data` bytes.
    ///
    /// Returns an empty payload on clean EOF. Like the native read, this
    /// may return fewer bytes than requested.
    ///
    /// # Errors
    ///
    /// [`JreError::Protocol`] if the stream ends inside a wire unit or
    /// the wire is malformed; transport/Taint Map errors otherwise.
    pub fn read_payload(&self, max_data: usize) -> Result<Payload, JreError> {
        // Receive by chunk: memory grows with bytes received, not promised.
        let max_data = max_data.min(RECV_CHUNK);
        if max_data == 0 {
            return Ok(match self.vm.mode() {
                Mode::Original => Payload::Plain(Vec::new()),
                _ => Payload::Tainted(TaintedBytes::new()),
            });
        }
        match self.vm.mode() {
            Mode::Original => {
                let mut buf = vec![0u8; max_data];
                let n = native::socket_read0(&self.ep, &mut buf)?;
                buf.truncate(n);
                Ok(Payload::Plain(buf))
            }
            Mode::Phosphor => {
                // Fig. 4: the wrapper assigns the parameter buffer's
                // taint to the received data — the fresh buffer is
                // untainted, so the sender's taints are lost.
                let mut buf = vec![0u8; max_data];
                let n = native::socket_read0(&self.ep, &mut buf)?;
                buf.truncate(n);
                Ok(Payload::Tainted(TaintedBytes::from_plain(buf)))
            }
            Mode::Dista => {
                let rx = &mut *self.rx.lock();
                // Serve bytes a previous (indivisible v2) decode left
                // over before touching the wire again.
                if !rx.pending.is_empty() {
                    return Ok(Payload::Tainted(rx.pending.drain_front(max_data)));
                }
                let obs = self.vm.vm_obs();
                rx.tables.clock = obs.stopwatch(CrossingSide::Read);
                let rem = &mut rx.ring;
                loop {
                    let state = self.rx_resolve(rem)?;
                    // Nothing buffered, nothing to decode: go and read.
                    if let Some(version) = state.version().filter(|_| !rem.is_empty()) {
                        let codec = version.codec();
                        rx.tables.clock.lap(read::RECV);
                        // Strip the control frames sitting at the front
                        // of the remainder. A partial one falls through
                        // to the read below for more bytes.
                        if version == WireVersion::V2 {
                            self.strip_control(rem, &mut rx.span)?;
                        }
                        // The delivered buffer: decode writes each data
                        // byte into it straight out of the ring's live
                        // region, and only consumes on success, so an
                        // error loses no remainder bytes.
                        let mut data = Vec::new();
                        let consumed = codec.decode_available(
                            rem.as_slice(),
                            max_data,
                            &mut data,
                            &mut rx.tables.runs,
                        )?;
                        rx.tables.clock.lap(read::DECODE);
                        if consumed > 0 {
                            let decoded = resolve_decoded(
                                &self.vm,
                                data,
                                &mut rx.tables,
                                consumed,
                                self.in_link,
                                rx.span,
                                (version == WireVersion::V2).then_some(&self.peer),
                            )?;
                            rem.consume(consumed);
                            rx.tables
                                .clock
                                .finish(read::SHADOW, &obs.flight, Transport::Tcp);
                            // `pending` was empty above and the lock has
                            // been held since: a decode that fits is
                            // the caller's as it is.
                            if decoded.len() <= max_data {
                                return Ok(Payload::Tainted(decoded));
                            }
                            rx.pending = decoded;
                            return Ok(Payload::Tainted(rx.pending.drain_front(max_data)));
                        }
                    }
                    // The receiver "enlarges the allocated byte array"
                    // (§III-D-2): ask the OS for the wire-size equivalent
                    // of the caller's buffer, received in place. A frame
                    // longer than that — the definitions ahead of a
                    // one-byte read — doubles what is asked for, so it
                    // is whole after a logarithmic number of reads and
                    // re-parses, not one per few bytes.
                    let version = state.version().unwrap_or(WireVersion::V1);
                    let hint = version.codec().recv_wire_len(max_data);
                    let want = hint.saturating_sub(rem.len()).max(RECORD).max(rem.len());
                    let n = rem.fill_with(want, |tail| native::socket_read0(&self.ep, tail))?;
                    if n == 0 {
                        if state.version().is_none() {
                            // EOF before the handshake settled: fall
                            // back to v1 and decode whatever arrived.
                            self.proto.store(ProtoState::V1 { probe_watch: false });
                            continue;
                        }
                        if rem.is_empty() {
                            return Ok(Payload::Tainted(TaintedBytes::new()));
                        }
                        return Err(JreError::Protocol("stream ended inside a wire record"));
                    }
                }
            }
        }
    }

    /// Reads exactly `n` data bytes, looping over partial reads.
    ///
    /// # Errors
    ///
    /// [`JreError::Eof`] if the stream ends first.
    pub fn read_exact_payload(&self, n: usize) -> Result<Payload, JreError> {
        // One read usually delivers everything; that payload is the
        // result as it is. Only a genuinely partial read accumulates.
        let mut acc = self.read_payload(n)?;
        let mut got = acc.len();
        while acc.len() < n {
            if got == 0 {
                return Err(JreError::Eof);
            }
            let part = self.read_payload(n - acc.len())?;
            got = part.len();
            acc.append(part);
        }
        Ok(acc)
    }

    /// Closes the connection.
    pub fn close(&self) {
        self.ep.close();
    }
}

/// The wire version a VM's *datagrams* use. There is no connection to
/// negotiate over, so [`WireProtocol::Negotiate`] conservatively sends
/// v1 datagrams (any receiver decodes them); only pinned-v2 VMs use v2
/// datagram framing.
fn datagram_version(vm: &Vm) -> WireVersion {
    match vm.wire_protocol() {
        WireProtocol::V2 => WireVersion::V2,
        _ => WireVersion::V1,
    }
}

/// Instrumented `PlainDatagramSocketImpl.send` (Type 2): sends one
/// datagram's payload, wire-wrapped in DisTA mode.
///
/// # Errors
///
/// Taint Map errors during wire encoding.
pub(crate) fn send_datagram(
    vm: &Vm,
    socket: &UdpEndpoint,
    dest: NodeAddr,
    payload: &Payload,
) -> Result<(), JreError> {
    match vm.mode() {
        Mode::Original | Mode::Phosphor => {
            native::datagram_send(socket, dest, payload.data());
        }
        Mode::Dista => {
            let codec = datagram_version(vm).codec();
            let link = Link {
                transport: Transport::Udp,
                from: socket.local_addr(),
                to: dest,
            };
            let mut wire = vm.wire_pool().checkout();
            // No connection, so no peer table: a datagram's gids are
            // looked up.
            let tx = &mut TxTables {
                clock: vm.vm_obs().stopwatch(CrossingSide::Write),
                ..TxTables::default()
            };
            encode_payload(vm, payload, link, codec, None, tx, &mut wire)?;
            native::datagram_send(socket, dest, &wire);
            tx.clock
                .finish(write::SEND, &vm.vm_obs().flight, Transport::Udp);
        }
    }
    Ok(())
}

/// Instrumented `PlainDatagramSocketImpl.receive0` (Type 2): receives one
/// datagram into a caller buffer of `buf_len` bytes. In DisTA mode the
/// receive buffer is enlarged by the codec's wire factor before the
/// native call, then stripped; truncation to `buf_len` data bytes matches
/// plain UDP semantics byte-for-byte.
///
/// Returns the payload (≤ `buf_len` data bytes) and the sender address.
///
/// # Errors
///
/// Transport or Taint Map errors.
pub(crate) fn recv_datagram(
    vm: &Vm,
    socket: &UdpEndpoint,
    buf_len: usize,
) -> Result<(Payload, NodeAddr), JreError> {
    match vm.mode() {
        Mode::Original => {
            let mut buf = vec![0u8; buf_len];
            let (n, from) = native::datagram_receive0(socket, &mut buf)?;
            buf.truncate(n);
            Ok((Payload::Plain(buf), from))
        }
        Mode::Phosphor => {
            let mut buf = vec![0u8; buf_len];
            let (n, from) = native::datagram_receive0(socket, &mut buf)?;
            buf.truncate(n);
            Ok((Payload::Tainted(TaintedBytes::from_plain(buf)), from))
        }
        Mode::Dista => {
            let codec = datagram_version(vm).codec();
            let mut rx = RxTables {
                clock: vm.vm_obs().stopwatch(CrossingSide::Read),
                ..RxTables::default()
            };
            let mut buf = vm.wire_pool().checkout();
            buf.resize(codec.recv_wire_len(buf_len), 0);
            let (n, from) = native::datagram_receive0(socket, &mut buf)?;
            rx.clock.lap(read::RECV);
            // A v2 datagram may lead with a trace annotation; strip it
            // before the codec sees the frames.
            let mut frame = &buf[..n];
            let mut span = 0u64;
            if codec.version() == WireVersion::V2 {
                if let AnnotParse::Complete {
                    span: s, consumed, ..
                } = parse_annotation(frame)?
                {
                    span = s;
                    frame = &frame[consumed..];
                }
            }
            let mut data = Vec::new();
            codec.decode_datagram(frame, &mut data, &mut rx.runs)?;
            truncate_decoded(&mut data, &mut rx.runs, buf_len);
            rx.clock.lap(read::DECODE);
            let decoded = resolve_decoded(
                vm,
                data,
                &mut rx,
                n,
                Link {
                    transport: Transport::Udp,
                    from,
                    to: socket.local_addr(),
                },
                span,
                None,
            )?;
            rx.clock
                .finish(read::SHADOW, &vm.vm_obs().flight, Transport::Udp);
            Ok((Payload::Tainted(decoded), from))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_simnet::SimNet;
    use dista_taint::TagValue;
    use dista_taintmap::TaintMapEndpoint;

    fn test_link() -> Link {
        Link {
            transport: Transport::Tcp,
            from: NodeAddr::new([10, 0, 0, 1], 1),
            to: NodeAddr::new([10, 0, 0, 2], 2),
        }
    }

    /// Encodes a tainted buffer into v1 wire records, returning an owned
    /// `Vec` (testing convenience over [`encode_payload`]).
    fn encode_wire(vm: &Vm, bytes: &TaintedBytes, link: Link) -> Result<Vec<u8>, JreError> {
        let mut wire = Vec::new();
        let payload = Payload::Tainted(bytes.clone());
        let tx = &mut TxTables::default();
        let codec = WireVersion::V1.codec();
        encode_payload(vm, &payload, link, codec, None, tx, &mut wire)?;
        Ok(wire)
    }

    fn cluster(mode: Mode) -> (SimNet, TaintMapEndpoint, Vm, Vm) {
        cluster_proto(mode, WireProtocol::V1, WireProtocol::V1)
    }

    fn cluster_proto(
        mode: Mode,
        p1: WireProtocol,
        p2: WireProtocol,
    ) -> (SimNet, TaintMapEndpoint, Vm, Vm) {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let vm1 = Vm::builder("n1", &net)
            .mode(mode)
            .ip([10, 0, 0, 1])
            .taint_map(tm.topology())
            .wire_protocol(p1)
            .build()
            .unwrap();
        let vm2 = Vm::builder("n2", &net)
            .mode(mode)
            .ip([10, 0, 0, 2])
            .taint_map(tm.topology())
            .wire_protocol(p2)
            .build()
            .unwrap();
        (net, tm, vm1, vm2)
    }

    fn stream_pair(
        net: &SimNet,
        vm1: &Vm,
        vm2: &Vm,
        port: u16,
    ) -> (BoundaryStream, BoundaryStream) {
        let addr = NodeAddr::new([10, 0, 0, 2], port);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect_from(vm1.ip(), addr).unwrap();
        let s = l.accept().unwrap();
        (
            BoundaryStream::connector(vm1.clone(), c),
            BoundaryStream::acceptor(vm2.clone(), s),
        )
    }

    #[test]
    fn dista_taints_cross_the_boundary() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 80);
        let taint = vm1.store().mint_source_taint(TagValue::str("vote"));
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"data", taint)))
            .unwrap();
        let got = rx.read_exact_payload(4).unwrap();
        assert_eq!(got.data(), b"data");
        let u = got.taint_union(vm2.store());
        assert_eq!(vm2.store().tag_values(u), vec!["vote".to_string()]);
        tm.shutdown();
    }

    #[test]
    fn phosphor_loses_taints_at_the_boundary() {
        let (net, tm, vm1, vm2) = cluster(Mode::Phosphor);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 81);
        let taint = vm1.store().mint_source_taint(TagValue::str("vote"));
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"data", taint)))
            .unwrap();
        let got = rx.read_exact_payload(4).unwrap();
        assert_eq!(got.data(), b"data");
        assert!(
            got.taint_union(vm2.store()).is_empty(),
            "paper Fig. 4: Phosphor drops inter-node taints"
        );
        tm.shutdown();
    }

    #[test]
    fn original_mode_moves_plain_bytes() {
        let (net, tm, vm1, vm2) = cluster(Mode::Original);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 82);
        tx.write_payload(&Payload::Plain(b"raw".to_vec())).unwrap();
        let got = rx.read_exact_payload(3).unwrap();
        assert!(matches!(got, Payload::Plain(_)));
        assert_eq!(got.data(), b"raw");
        tm.shutdown();
    }

    #[test]
    fn wire_expansion_is_five_x() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 83);
        let taint = vm1.store().mint_source_taint(TagValue::str("t"));
        // Pre-register so the Taint Map RPC doesn't land in the window
        // we measure (it is a one-time cost per distinct taint).
        vm1.taint_map().unwrap().global_id_for(taint).unwrap();
        let base = net.metrics().snapshot().tcp_bytes;
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(
            vec![7u8; 1000],
            taint,
        )))
        .unwrap();
        let after = net.metrics().snapshot().tcp_bytes;
        assert_eq!(after - base, 5000, "1 data byte + 4-byte GID per byte");
        let got = rx.read_exact_payload(1000).unwrap();
        assert_eq!(got.len(), 1000);
        tm.shutdown();
    }

    /// The run-length shadow is a storage optimization only: the encoder
    /// must emit wire bytes bit-identical to the per-byte reference
    /// (the pre-refactor dense encoder), and identical however the runs
    /// happen to be split.
    #[test]
    fn wire_bytes_match_per_byte_reference_encoder() {
        let (_net, tm, vm1, _vm2) = cluster(Mode::Dista);
        let ta = vm1.store().mint_source_taint(TagValue::str("a"));
        let tb = vm1.store().mint_source_taint(TagValue::str("b"));
        let mut buf = TaintedBytes::uniform(b"aaaa", ta);
        buf.extend_plain(b"--");
        buf.extend_uniform(b"bbb", tb);

        let wire = encode_wire(&vm1, &buf, test_link()).unwrap();

        // Reference: one record per byte, GID resolved per byte.
        let client = vm1.taint_map().unwrap();
        let mut reference = Vec::new();
        for (byte, taint) in buf.iter() {
            reference.push(byte);
            let gid = client.global_id_for(taint).unwrap();
            reference.extend_from_slice(&gid.0.to_be_bytes());
        }
        assert_eq!(wire, reference, "run-chunked encoder changed wire bytes");

        // Re-building the same logical buffer from split pieces (different
        // internal run history) must not change a single wire byte.
        let mut split = buf.clone();
        let front = split.drain_front(3);
        let mut reglued = front;
        reglued.extend_tainted(&split);
        assert_eq!(encode_wire(&vm1, &reglued, test_link()).unwrap(), wire);
        tm.shutdown();
    }

    #[test]
    fn per_byte_taints_are_preserved_exactly() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 84);
        let ta = vm1.store().mint_source_taint(TagValue::str("a"));
        let tb = vm1.store().mint_source_taint(TagValue::str("b"));
        let mut buf = TaintedBytes::uniform(b"aa", ta);
        buf.extend_plain(b"--");
        buf.extend_uniform(b"bb", tb);
        tx.write_payload(&Payload::Tainted(buf)).unwrap();
        let got = rx.read_exact_payload(6).unwrap().into_tainted();
        let tags_at = |i: usize| vm2.store().tag_values(got.taint_at(i).unwrap());
        assert_eq!(tags_at(0), vec!["a"]);
        assert_eq!(tags_at(1), vec!["a"]);
        assert!(tags_at(2).is_empty());
        assert!(tags_at(3).is_empty());
        assert_eq!(tags_at(4), vec!["b"]);
        assert_eq!(tags_at(5), vec!["b"]);
        tm.shutdown();
    }

    #[test]
    fn partial_reads_keep_record_remainders() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        // Force the OS to deliver 3 bytes at a time — never a whole
        // 5-byte record.
        net.set_faults(dista_simnet::FaultConfig {
            max_read_chunk: 3,
            ..Default::default()
        });
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 85);
        let taint = vm1.store().mint_source_taint(TagValue::str("frag"));
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(
            b"fragmented!",
            taint,
        )))
        .unwrap();
        let got = rx.read_exact_payload(11).unwrap();
        assert_eq!(got.data(), b"fragmented!");
        assert_eq!(
            vm2.store().tag_values(got.taint_union(vm2.store())),
            vec!["frag".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn eof_inside_record_is_protocol_error() {
        let (net, tm, _vm1, vm2) = cluster(Mode::Dista);
        let addr = NodeAddr::new([10, 0, 0, 2], 86);
        let l = net.tcp_listen(addr).unwrap();
        let raw = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        let rx = BoundaryStream::new(vm2.clone(), s);
        raw.write(&[1, 2, 3]).unwrap(); // 3 bytes of a 5-byte record
        raw.close();
        assert!(matches!(rx.read_payload(4), Err(JreError::Protocol(_))));
        tm.shutdown();
    }

    #[test]
    fn clean_eof_returns_empty_payload() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 87);
        tx.close();
        let got = rx.read_payload(8).unwrap();
        assert!(got.is_empty());
        tm.shutdown();
    }

    #[test]
    fn datagram_roundtrip_with_taints() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        let a = net.udp_bind(NodeAddr::new([10, 0, 0, 1], 53)).unwrap();
        let b = net.udp_bind(NodeAddr::new([10, 0, 0, 2], 53)).unwrap();
        let taint = vm1.store().mint_source_taint(TagValue::str("dgram"));
        send_datagram(
            &vm1,
            &a,
            b.local_addr(),
            &Payload::Tainted(TaintedBytes::uniform(b"packet", taint)),
        )
        .unwrap();
        let (payload, from) = recv_datagram(&vm2, &b, 64).unwrap();
        assert_eq!(payload.data(), b"packet");
        assert_eq!(from, a.local_addr());
        assert_eq!(
            vm2.store().tag_values(payload.taint_union(vm2.store())),
            vec!["dgram".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn datagram_truncation_matches_plain_udp() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        let a = net.udp_bind(NodeAddr::new([10, 0, 0, 1], 54)).unwrap();
        let b = net.udp_bind(NodeAddr::new([10, 0, 0, 2], 54)).unwrap();
        let taint = vm1.store().mint_source_taint(TagValue::str("t"));
        send_datagram(
            &vm1,
            &a,
            b.local_addr(),
            &Payload::Tainted(TaintedBytes::uniform(b"0123456789", taint)),
        )
        .unwrap();
        // Receiver only has room for 4 data bytes.
        let (payload, _) = recv_datagram(&vm2, &b, 4).unwrap();
        assert_eq!(payload.data(), b"0123", "same truncation as plain UDP");
        assert_eq!(
            vm2.store().tag_values(payload.taint_union(vm2.store())),
            vec!["t".to_string()],
            "the surviving bytes keep their taints"
        );
        tm.shutdown();
    }

    #[test]
    fn register_once_even_for_megabyte_payloads() {
        let (net, tm, vm1, vm2) = cluster(Mode::Dista);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 88);
        let taint = vm1.store().mint_source_taint(TagValue::str("big"));
        let reader = std::thread::spawn(move || rx.read_exact_payload(100_000).unwrap());
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(
            vec![1u8; 100_000],
            taint,
        )))
        .unwrap();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), 100_000);
        // One distinct taint => exactly one register RPC, one lookup RPC.
        assert_eq!(vm1.taint_map().unwrap().stats().register_rpcs, 1);
        assert_eq!(vm2.taint_map().unwrap().stats().lookup_rpcs, 1);
        assert_eq!(tm.stats().global_taints, 1);
        tm.shutdown();
    }

    #[test]
    fn boundary_events_pair_encode_and_decode() {
        let net = SimNet::new();
        let obs = dista_obs::Observability::with_registry(
            dista_obs::ObsConfig::default(),
            net.registry().clone(),
        );
        let tm = TaintMapEndpoint::builder()
            .addr(NodeAddr::new([10, 0, 0, 99], 7779))
            .connect(&net)
            .unwrap();
        let mk = |name: &str, ip: [u8; 4]| {
            Vm::builder(name, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .taint_map(tm.topology())
                .observability(obs.clone())
                .build()
                .unwrap()
        };
        let vm1 = mk("n1", [10, 0, 0, 1]);
        let vm2 = mk("n2", [10, 0, 0, 2]);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 90);
        let taint = vm1.store().mint_source_taint(TagValue::str("pw"));
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"data", taint)))
            .unwrap();
        rx.read_exact_payload(4).unwrap();

        let enc = vm1
            .flight_recorder()
            .events()
            .into_iter()
            .find_map(|e| match e.kind {
                ObsEventKind::BoundaryEncode {
                    from, to, spans, ..
                } => Some((from, to, spans)),
                _ => None,
            })
            .expect("sender records an encode event");
        let dec = vm2
            .flight_recorder()
            .events()
            .into_iter()
            .find_map(|e| match e.kind {
                ObsEventKind::BoundaryDecode {
                    from, to, spans, ..
                } => Some((from, to, spans)),
                _ => None,
            })
            .expect("receiver records a decode event");
        // Both sides describe the same sender→receiver pair, so
        // provenance reconstruction can match them.
        assert_eq!((&enc.0, &enc.1), (&dec.0, &dec.1));
        assert_eq!(enc.2.len(), 1);
        assert_eq!(enc.2[0].start..enc.2[0].end, 0..4);
        assert_eq!(enc.2, dec.2, "same gid spans on both sides");

        let dump = net.registry().snapshot();
        assert_eq!(
            dump.counter_total("boundary_data_bytes_out"),
            dump.counter_total("boundary_data_bytes_in")
        );
        // The expansion ratio is wire / data of one protocol's pair.
        let text = dump.render_text();
        assert!(text.contains("boundary_data_bytes_out{node=n1,proto=v1} 4\n"));
        assert!(
            text.contains("boundary_wire_bytes_out{node=n1,proto=v1} 20\n"),
            "4-byte gids => 5x expansion on the v1 pair"
        );
        assert!(
            text.contains("boundary_wire_bytes_out{node=n1,proto=v2} 0\n"),
            "no v2 traffic leaves the v2 pair at zero"
        );
        tm.shutdown();
    }

    #[test]
    fn negotiate_pair_settles_on_v2() {
        let (net, tm, vm1, vm2) = cluster_proto(
            Mode::Dista,
            WireProtocol::Negotiate,
            WireProtocol::Negotiate,
        );
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 91);
        let taint = vm1.store().mint_source_taint(TagValue::str("neg"));
        let mut buf = TaintedBytes::from_plain(vec![0u8; 500]);
        buf.extend_uniform(b"secret", taint);
        buf.extend_plain(&vec![0u8; 500]);
        tx.write_payload(&Payload::Tainted(buf)).unwrap();
        let got = rx.read_exact_payload(1006).unwrap();
        assert_eq!(got.len(), 1006);
        assert_eq!(tx.wire_version(), Some(WireVersion::V2));
        assert_eq!(rx.wire_version(), Some(WireVersion::V2));
        assert_eq!(
            vm2.store().tag_values(got.taint_union(vm2.store())),
            vec!["neg".to_string()],
            "taints survive the v2 framing"
        );
        tm.shutdown();
    }

    #[test]
    fn negotiate_falls_back_for_pinned_v1_peer() {
        let (net, tm, vm1, vm2) =
            cluster_proto(Mode::Dista, WireProtocol::Negotiate, WireProtocol::V1);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 92);
        let taint = vm1.store().mint_source_taint(TagValue::str("fb"));
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"data", taint)))
            .unwrap();
        let got = rx.read_exact_payload(4).unwrap();
        assert_eq!(got.data(), b"data");
        assert_eq!(tx.wire_version(), Some(WireVersion::V1));
        assert_eq!(
            vm2.store().tag_values(got.taint_union(vm2.store())),
            vec!["fb".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn negotiate_acceptor_write_before_probe_falls_back_to_v1() {
        let (net, tm, vm1, vm2) = cluster_proto(
            Mode::Dista,
            WireProtocol::Negotiate,
            WireProtocol::Negotiate,
        );
        let addr = NodeAddr::new([10, 0, 0, 2], 93);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect_from(vm1.ip(), addr).unwrap();
        let s = l.accept().unwrap();
        // Push-style race: the accept side wraps AND writes before the
        // connector's wrap ever sends its probe. The acceptor cannot
        // know the peer's version, so it settles v1; the connector must
        // fall back when data records beat any reply; the late probe is
        // swallowed without an answer.
        let rx = BoundaryStream::acceptor(vm2.clone(), s);
        let taint = vm2.store().mint_source_taint(TagValue::str("push"));
        rx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"push!", taint)))
            .unwrap();
        let tx = BoundaryStream::connector(vm1.clone(), c);
        let got = tx.read_exact_payload(5).unwrap();
        assert_eq!(got.data(), b"push!");
        assert_eq!(rx.wire_version(), Some(WireVersion::V1));
        assert_eq!(tx.wire_version(), Some(WireVersion::V1));
        assert_eq!(
            vm1.store().tag_values(got.taint_union(vm1.store())),
            vec!["push".to_string()]
        );
        // The reverse direction still works: the acceptor swallows the
        // late probe (no stale reply lands mid-stream) and decodes the
        // connector's v1 records.
        let t2 = vm1.store().mint_source_taint(TagValue::str("ack"));
        tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"ack", t2)))
            .unwrap();
        let back = rx.read_exact_payload(3).unwrap();
        assert_eq!(back.data(), b"ack");
        assert_eq!(
            vm2.store().tag_values(back.taint_union(vm2.store())),
            vec!["ack".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn negotiate_acceptor_write_after_probe_keeps_v2() {
        let (net, tm, vm1, vm2) = cluster_proto(
            Mode::Dista,
            WireProtocol::Negotiate,
            WireProtocol::Negotiate,
        );
        // Normal accept ordering: the probe is buffered by wrap time, so
        // the acceptor settles v2 eagerly and may even speak first.
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 95);
        let taint = vm2.store().mint_source_taint(TagValue::str("push2"));
        rx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"push!", taint)))
            .unwrap();
        let got = tx.read_exact_payload(5).unwrap();
        assert_eq!(got.data(), b"push!");
        assert_eq!(rx.wire_version(), Some(WireVersion::V2));
        assert_eq!(tx.wire_version(), Some(WireVersion::V2));
        assert_eq!(
            vm1.store().tag_values(got.taint_union(vm1.store())),
            vec!["push2".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn pinned_v2_clean_payload_ships_near_one_x() {
        let (net, tm, vm1, vm2) = cluster_proto(Mode::Dista, WireProtocol::V2, WireProtocol::V2);
        let (tx, rx) = stream_pair(&net, &vm1, &vm2, 94);
        let base = net.metrics().snapshot().tcp_bytes;
        tx.write_payload(&Payload::Plain(vec![9u8; 1000])).unwrap();
        let sent = net.metrics().snapshot().tcp_bytes - base;
        assert!(
            sent <= 1008,
            "clean v2 frame is ~1.0x, got {sent} wire bytes for 1000"
        );
        let got = rx.read_exact_payload(1000).unwrap();
        assert_eq!(got.len(), 1000);
        tm.shutdown();
    }

    #[test]
    fn v2_datagram_roundtrip_and_truncation() {
        let (net, tm, vm1, vm2) = cluster_proto(Mode::Dista, WireProtocol::V2, WireProtocol::V2);
        let a = net.udp_bind(NodeAddr::new([10, 0, 0, 1], 55)).unwrap();
        let b = net.udp_bind(NodeAddr::new([10, 0, 0, 2], 55)).unwrap();
        let taint = vm1.store().mint_source_taint(TagValue::str("d2"));
        send_datagram(
            &vm1,
            &a,
            b.local_addr(),
            &Payload::Tainted(TaintedBytes::uniform(b"0123456789", taint)),
        )
        .unwrap();
        let (payload, _) = recv_datagram(&vm2, &b, 4).unwrap();
        assert_eq!(payload.data(), b"0123", "v2 keeps plain-UDP truncation");
        assert_eq!(
            vm2.store().tag_values(payload.taint_union(vm2.store())),
            vec!["d2".to_string()]
        );
        tm.shutdown();
    }
}
