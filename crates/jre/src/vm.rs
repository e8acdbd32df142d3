//! The simulated JVM process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dista_obs::{Counter, CrossingSide, FlightRecorder, ObsEventKind, Observability, SpanTracker};
use dista_simnet::{SimFs, SimNet};
use dista_taint::{
    LocalId, SinkRecorder, SinkReport, SourceSinkSpec, TagValue, Taint, TaintRuns, TaintStore,
};
use dista_taintmap::{ClientObserver, ClientResilience, TaintMapClient, TaintMapTopology};
use parking_lot::Mutex;

use crate::codec::{WireBufPool, WireProtocol, WireVersion, MAX_GID_WIDTH};
use crate::error::JreError;
use crate::stopwatch::{Sampler, Stopwatch};

/// Taint-tracking mode of one simulated JVM (paper §V-F runs every
/// workload in all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// No tracking at all — the "Original" column of Tables V/VI.
    #[default]
    Original,
    /// Intra-node tracking only; taints die at the JNI boundary with the
    /// paper's Fig.-4 wrapper semantics.
    Phosphor,
    /// Full DisTA inter-node tracking.
    Dista,
}

impl Mode {
    /// Whether any shadow propagation happens in this mode.
    pub fn tracks_taints(self) -> bool {
        !matches!(self, Mode::Original)
    }

    /// Whether the DisTA JNI wrappers (wire interleaving + Taint Map)
    /// are active.
    pub fn tracks_inter_node(self) -> bool {
        matches!(self, Mode::Dista)
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Original => f.write_str("Original"),
            Mode::Phosphor => f.write_str("Phosphor"),
            Mode::Dista => f.write_str("DisTA"),
        }
    }
}

/// Per-VM telemetry handles, resolved once at build time so hot paths
/// never touch the registry. In [`Mode::Original`] (or with
/// observability disabled) the flight recorder is a no-op and every
/// instrument is detached, so the tracked-mode hooks cost nothing.
pub(crate) struct VmObs {
    pub(crate) flight: FlightRecorder,
    pub(crate) sources_minted: Counter,
    pub(crate) sink_hits: Counter,
    /// Outbound (data, wire) byte counters, one pair per wire version:
    /// v1 sits in its ~5x expansion band while v2 hovers near 1.0x for
    /// clean traffic, so a reader dividing one shared pair would get a
    /// meaningless blend.
    v1_out: (Counter, Counter),
    v2_out: (Counter, Counter),
    pub(crate) boundary_data_in: Counter,
    pub(crate) boundary_wire_in: Counter,
    /// taint local id → root span minted with it at the source.
    pub(crate) taint_spans: SpanTracker,
    /// gid → span that most recently delivered it to this VM (root span
    /// at registration, crossing span on inbound v2 decodes).
    pub(crate) gid_spans: SpanTracker,
    /// Which crossings the phase clock times.
    crossings: Sampler,
}

impl VmObs {
    fn detached() -> Self {
        VmObs {
            flight: FlightRecorder::disabled(),
            sources_minted: Counter::detached(),
            sink_hits: Counter::detached(),
            v1_out: (Counter::detached(), Counter::detached()),
            v2_out: (Counter::detached(), Counter::detached()),
            boundary_data_in: Counter::detached(),
            boundary_wire_in: Counter::detached(),
            taint_spans: SpanTracker::disabled(),
            gid_spans: SpanTracker::disabled(),
            crossings: Sampler::default(),
        }
    }

    fn build(obs: &Observability, node: &str, mode: Mode) -> Self {
        if !mode.tracks_taints() {
            return Self::detached();
        }
        let Some(reg) = obs.registry() else {
            return Self::detached();
        };
        let labels: &[(&str, &str)] = &[("node", node)];
        let out = |proto| {
            let labels: &[(&str, &str)] = &[("node", node), ("proto", proto)];
            (
                reg.counter_with("boundary_data_bytes_out", labels),
                reg.counter_with("boundary_wire_bytes_out", labels),
            )
        };
        VmObs {
            flight: obs.recorder_for(node),
            sources_minted: reg.counter_with("sources_minted", labels),
            sink_hits: reg.counter_with("sink_hits", labels),
            v1_out: out("v1"),
            v2_out: out("v2"),
            boundary_data_in: reg.counter_with("boundary_data_bytes_in", labels),
            boundary_wire_in: reg.counter_with("boundary_wire_bytes_in", labels),
            taint_spans: obs.span_tracker(),
            gid_spans: obs.span_tracker(),
            crossings: Sampler::default(),
        }
    }

    /// The phase clock for a crossing of `side` that starts now.
    pub(crate) fn stopwatch(&self, side: CrossingSide) -> Stopwatch {
        self.crossings.start(&self.flight, side)
    }

    /// Records one outbound boundary crossing on the crossing
    /// protocol's byte counters. The expansion ratio (the paper's ~5×
    /// for v1 with 4-byte Global IDs; ~1.0x for v2 on clean traffic) is
    /// wire / data, computed by whoever reads the pair.
    pub(crate) fn record_boundary_out(
        &self,
        version: WireVersion,
        data_len: usize,
        wire_len: usize,
    ) {
        let (data, wire) = match version {
            WireVersion::V1 => &self.v1_out,
            WireVersion::V2 => &self.v2_out,
        };
        data.add(data_len as u64);
        wire.add(wire_len as u64);
    }
}

pub(crate) struct VmInner {
    pub(crate) name: String,
    pub(crate) mode: Mode,
    pub(crate) ip: [u8; 4],
    pub(crate) net: SimNet,
    pub(crate) fs: SimFs,
    pub(crate) store: TaintStore,
    pub(crate) recorder: SinkRecorder,
    pub(crate) spec: SourceSinkSpec,
    pub(crate) taint_map: Option<TaintMapClient>,
    pub(crate) wire_protocol: WireProtocol,
    pub(crate) observability: Observability,
    pub(crate) obs: VmObs,
    /// Simulated off-heap ("native") memory for direct buffers. Shadows
    /// live in a *separate* map — native memory itself is taint-free,
    /// which is exactly why Type-3 methods need instrumented get/put.
    pub(crate) native_mem: Mutex<HashMap<u64, Vec<u8>>>,
    pub(crate) native_shadows: Mutex<HashMap<u64, TaintRuns>>,
    pub(crate) next_buffer_id: AtomicU64,
    /// Reusable wire-sized scratch buffers for this process's datagram
    /// crossings (a stream keeps its own buffers).
    pub(crate) wire_pool: WireBufPool,
}

/// A simulated JVM process: the owner of everything per-process — mode,
/// taint store, Taint Map client, file system view, source/sink spec and
/// sink recorder. All mini-JRE I/O classes are constructed through a
/// `Vm`. Clones share the process (cheap `Arc`).
#[derive(Clone)]
pub struct Vm {
    pub(crate) inner: Arc<VmInner>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("name", &self.inner.name)
            .field("mode", &self.inner.mode)
            .field("ip", &self.inner.ip)
            .finish()
    }
}

static NEXT_PID: AtomicU64 = AtomicU64::new(1);

/// Builder for [`Vm`] (see [`Vm::builder`]).
pub struct VmBuilder {
    name: String,
    net: SimNet,
    mode: Mode,
    ip: [u8; 4],
    fs: SimFs,
    spec: SourceSinkSpec,
    taint_map_topology: Option<TaintMapTopology>,
    wire_protocol: WireProtocol,
    observability: Observability,
}

impl VmBuilder {
    /// Sets the tracking mode (default [`Mode::Original`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the node IP this process runs on (default 127.0.0.1).
    pub fn ip(mut self, ip: [u8; 4]) -> Self {
        self.ip = ip;
        self
    }

    /// Provides the node's file system (default: empty).
    pub fn fs(mut self, fs: SimFs) -> Self {
        self.fs = fs;
        self
    }

    /// Installs the source/sink specification.
    pub fn spec(mut self, spec: SourceSinkSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Points the VM at a running Taint Map deployment (required for
    /// [`Mode::Dista`]). Accepts a single [`dista_simnet::NodeAddr`], a
    /// failover list, or a full sharded
    /// [`dista_taintmap::TaintMapTopology`] (normally from
    /// [`dista_taintmap::TaintMapEndpoint::topology`]).
    pub fn taint_map(mut self, topology: impl Into<TaintMapTopology>) -> Self {
        self.taint_map_topology = Some(topology.into());
        self
    }

    /// Attaches a shared observability context (default: disabled). When
    /// enabled and the mode tracks taints, the VM gets a flight recorder
    /// drawing sequence numbers from the context's cluster clock, and its
    /// instruments land in the context's registry.
    pub fn observability(mut self, obs: Observability) -> Self {
        self.observability = obs;
        self
    }

    /// Sets the wire protocol policy for this VM's boundary connections
    /// (default [`WireProtocol::V1`], the paper's bit-pinned format).
    /// [`WireProtocol::Negotiate`] prefers the adaptive v2 framing and
    /// falls back to v1 per connection for un-upgraded peers.
    pub fn wire_protocol(mut self, protocol: WireProtocol) -> Self {
        self.wire_protocol = protocol;
        self
    }

    /// Builds the VM, connecting to the Taint Map when configured.
    ///
    /// # Errors
    ///
    /// [`JreError::Protocol`] if [`Mode::Dista`] was requested without a
    /// Taint Map address; transport errors if the connection fails.
    pub fn build(self) -> Result<Vm, JreError> {
        let pid = NEXT_PID.fetch_add(1, Ordering::Relaxed) as u32;
        let store = TaintStore::new(LocalId::new(self.ip, pid));
        let obs = VmObs::build(&self.observability, &self.name, self.mode);
        let taint_map = match (self.mode, self.taint_map_topology) {
            (Mode::Dista, None) => {
                return Err(JreError::Protocol(
                    "DisTA mode requires a taint map address",
                ))
            }
            (_, Some(topology)) => {
                let observer = match self.observability.registry() {
                    Some(reg) if self.mode.tracks_taints() => {
                        ClientObserver::for_node(reg, &self.name, obs.flight.clone())
                            .with_spans(obs.taint_spans.clone(), obs.gid_spans.clone())
                    }
                    _ => ClientObserver::disabled(),
                };
                Some(TaintMapClient::connect_topology_tuned(
                    &self.net,
                    topology,
                    store.clone(),
                    observer,
                    ClientResilience::default(),
                )?)
            }
            (_, None) => None,
        };
        Ok(Vm {
            inner: Arc::new(VmInner {
                name: self.name,
                mode: self.mode,
                ip: self.ip,
                net: self.net,
                fs: self.fs,
                recorder: SinkRecorder::new(&store),
                store,
                spec: self.spec,
                taint_map,
                wire_protocol: self.wire_protocol,
                observability: self.observability,
                obs,
                native_mem: Mutex::new(HashMap::new()),
                native_shadows: Mutex::new(HashMap::new()),
                next_buffer_id: AtomicU64::new(1),
                wire_pool: WireBufPool::new(),
            }),
        })
    }
}

impl Vm {
    /// Starts building a VM named `name` on network `net`.
    pub fn builder(name: impl Into<String>, net: &SimNet) -> VmBuilder {
        VmBuilder {
            name: name.into(),
            net: net.clone(),
            mode: Mode::Original,
            ip: [127, 0, 0, 1],
            fs: SimFs::new(),
            spec: SourceSinkSpec::new(),
            taint_map_topology: None,
            wire_protocol: WireProtocol::default(),
            observability: Observability::disabled(),
        }
    }

    /// The process name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The tracking mode.
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// The node IP.
    pub fn ip(&self) -> [u8; 4] {
        self.inner.ip
    }

    /// The simulated network this process is attached to.
    pub fn net(&self) -> &SimNet {
        &self.inner.net
    }

    /// The node's file system.
    pub fn fs(&self) -> &SimFs {
        &self.inner.fs
    }

    /// The per-process taint store.
    pub fn store(&self) -> &TaintStore {
        &self.inner.store
    }

    /// The Taint Map client, if configured.
    pub fn taint_map(&self) -> Option<&TaintMapClient> {
        self.inner.taint_map.as_ref()
    }

    /// Global ID wire width in bytes of this VM's v1 records: always
    /// [`MAX_GID_WIDTH`], the paper's 4.
    pub fn gid_width(&self) -> usize {
        MAX_GID_WIDTH
    }

    /// The wire protocol policy this VM applies to new boundary
    /// connections.
    pub fn wire_protocol(&self) -> WireProtocol {
        self.inner.wire_protocol
    }

    /// The sink recorder (what the evaluation inspects).
    pub fn recorder(&self) -> &SinkRecorder {
        &self.inner.recorder
    }

    /// The observability context this VM was built with.
    pub fn observability(&self) -> &Observability {
        &self.inner.observability
    }

    /// The VM's flight recorder (a no-op unless observability is enabled
    /// and the mode tracks taints).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.obs.flight
    }

    pub(crate) fn vm_obs(&self) -> &VmObs {
        &self.inner.obs
    }

    /// The per-process pool of reusable wire buffers: datagram crossings
    /// check their encode and receive buffers out of here. (Stream
    /// crossings reuse buffers their `BoundaryStream` owns.)
    pub fn wire_pool(&self) -> &WireBufPool {
        &self.inner.wire_pool
    }

    /// Number of shadow runs currently held for native (off-heap)
    /// buffers — the "shadow run count" census of cluster telemetry
    /// reports.
    pub fn shadow_run_census(&self) -> usize {
        self.inner
            .native_shadows
            .lock()
            .values()
            .map(|runs| runs.iter_runs().count())
            .sum()
    }

    /// Snapshot of all sink events observed by this process.
    pub fn sink_report(&self) -> SinkReport {
        self.inner.recorder.report()
    }

    /// Source-point hook: if `class.method` is a registered source and
    /// the mode tracks taints, mints and returns a fresh taint tagged
    /// `tag_value`; otherwise returns [`Taint::EMPTY`].
    pub fn source_point(&self, class: &str, method: &str, tag_value: TagValue) -> Taint {
        if self.inner.mode.tracks_taints() && self.inner.spec.is_source(class, method) {
            self.mint_observed(tag_value)
        } else {
            Taint::EMPTY
        }
    }

    /// Unconditional source-point: mints a taint regardless of the spec
    /// (for programmatic SDT scenarios), unless the mode is untracked.
    pub fn taint_source(&self, tag_value: TagValue) -> Taint {
        if self.inner.mode.tracks_taints() {
            self.mint_observed(tag_value)
        } else {
            Taint::EMPTY
        }
    }

    fn mint_observed(&self, tag_value: TagValue) -> Taint {
        let t = self.inner.store.mint_source_taint(tag_value);
        self.inner.obs.sources_minted.inc();
        // Root span: the first link of the taint's cluster trace chain.
        let span = if self.inner.obs.taint_spans.is_enabled() {
            let s = self.inner.observability.next_span();
            self.inner.obs.taint_spans.bind(t.node_index() as u32, s);
            s
        } else {
            0
        };
        self.inner.obs.flight.record_with(|| {
            let tag = self
                .inner
                .store
                .tree()
                .tags_of(t)
                .first()
                .map(|q| q.value.render())
                .unwrap_or_default();
            ObsEventKind::SourceMinted {
                taint: t.node_index() as u32,
                tag,
                span,
            }
        });
        t
    }

    /// Whether `class.method` is a registered sink and the mode tracks
    /// taints: whether [`Vm::sink_point`] records a check.
    pub(crate) fn is_sink(&self, class: &str, method: &str) -> bool {
        self.inner.mode.tracks_taints() && self.inner.spec.is_sink(class, method)
    }

    /// Records a hit at the sink named by `sink` joined with `.`.
    fn record_sink(&self, sink: &[&str], taint: Taint) -> bool {
        let hit = self.inner.recorder.check(sink, taint);
        if !hit {
            return false;
        }
        self.inner.obs.sink_hits.inc();
        self.inner.obs.flight.record_with(|| {
            let quads = self.inner.store.tree().tags_of(taint);
            let tags = quads.iter().map(|q| q.value.render()).collect();
            let mut gids: Vec<u32> = quads
                .iter()
                .filter(|q| q.global_id.is_tainted())
                .map(|q| q.global_id.0)
                .collect();
            if let Some(client) = &self.inner.taint_map {
                if let Some(gid) = client.cached_gid_for(taint) {
                    gids.push(gid.0);
                }
            }
            gids.sort_unstable();
            gids.dedup();
            ObsEventKind::SinkHit {
                sink: sink.join("."),
                tags,
                gids,
            }
        });
        true
    }

    /// Sink-point hook: if `class.method` is a registered sink, records
    /// the check. Returns whether the data was tainted (false when the
    /// sink is not registered or mode is untracked).
    pub fn sink_point(&self, class: &str, method: &str, taint: Taint) -> bool {
        self.is_sink(class, method) && self.record_sink(&[class, method], taint)
    }

    /// Unconditional sink-point: always records (programmatic SDT
    /// scenarios), unless the mode is untracked.
    pub fn taint_sink(&self, sink_name: &str, taint: Taint) -> bool {
        self.inner.mode.tracks_taints() && self.record_sink(&[sink_name], taint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_taint::MethodDesc;

    fn vm(mode: Mode) -> Vm {
        let net = SimNet::new();
        Vm::builder("test", &net).mode(mode).build().unwrap()
    }

    #[test]
    fn builder_defaults() {
        let v = vm(Mode::Original);
        assert_eq!(v.mode(), Mode::Original);
        assert_eq!(v.ip(), [127, 0, 0, 1]);
        assert_eq!(v.gid_width(), 4);
        assert_eq!(v.wire_protocol(), WireProtocol::V1);
        assert!(v.taint_map().is_none());
    }

    #[test]
    fn dista_requires_taint_map() {
        let net = SimNet::new();
        let err = Vm::builder("x", &net)
            .mode(Mode::Dista)
            .build()
            .unwrap_err();
        assert!(matches!(err, JreError::Protocol(_)));
    }

    #[test]
    fn pids_are_unique() {
        let v1 = vm(Mode::Phosphor);
        let v2 = vm(Mode::Phosphor);
        assert_ne!(v1.store().local_id(), v2.store().local_id());
    }

    #[test]
    fn source_point_respects_spec_and_mode() {
        let net = SimNet::new();
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new("FileInputStream", "read"));
        let v = Vm::builder("n", &net)
            .mode(Mode::Phosphor)
            .spec(spec.clone())
            .build()
            .unwrap();
        assert!(!v
            .source_point("FileInputStream", "read", TagValue::str("t"))
            .is_empty());
        assert!(v
            .source_point("Other", "read", TagValue::str("t"))
            .is_empty());

        let original = Vm::builder("n", &net)
            .mode(Mode::Original)
            .spec(spec)
            .build()
            .unwrap();
        assert!(original
            .source_point("FileInputStream", "read", TagValue::str("t"))
            .is_empty());
    }

    #[test]
    fn sink_point_records_only_registered() {
        let net = SimNet::new();
        let mut spec = SourceSinkSpec::new();
        spec.add_sink(MethodDesc::new("LOG", "info"));
        let v = Vm::builder("n", &net)
            .mode(Mode::Phosphor)
            .spec(spec)
            .build()
            .unwrap();
        let t = v.store().mint_source_taint(TagValue::str("x"));
        assert!(v.sink_point("LOG", "info", t));
        assert!(!v.sink_point("LOG", "debug", t));
        assert_eq!(v.sink_report().events.len(), 1);
    }

    #[test]
    fn unconditional_helpers() {
        let v = vm(Mode::Phosphor);
        let t = v.taint_source(TagValue::str("s"));
        assert!(!t.is_empty());
        assert!(v.taint_sink("check", t));
        assert_eq!(v.sink_report().events[0].tags, vec!["s".to_string()]);
    }

    #[test]
    fn original_mode_mints_nothing() {
        let v = vm(Mode::Original);
        assert!(v.taint_source(TagValue::str("s")).is_empty());
        assert!(!v.taint_sink("check", Taint::EMPTY));
        assert!(v.sink_report().events.is_empty());
    }

    #[test]
    fn observed_vm_records_source_and_sink_events() {
        let net = SimNet::new();
        let obs =
            Observability::with_registry(dista_obs::ObsConfig::default(), net.registry().clone());
        let v = Vm::builder("n1", &net)
            .mode(Mode::Phosphor)
            .observability(obs)
            .build()
            .unwrap();
        let t = v.taint_source(TagValue::str("pw"));
        assert!(v.taint_sink("LOG.info", t));
        let events = v.flight_recorder().events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            &events[0].kind,
            ObsEventKind::SourceMinted { tag, .. } if tag == "pw"
        ));
        assert!(matches!(
            &events[1].kind,
            ObsEventKind::SinkHit { sink, tags, .. }
                if sink == "LOG.info" && tags == &vec!["pw".to_string()]
        ));
        let dump = net.registry().snapshot();
        assert_eq!(dump.counter_total("sources_minted"), 1);
        assert_eq!(dump.counter_total("sink_hits"), 1);
    }

    #[test]
    fn original_mode_vm_keeps_recorder_disabled_even_when_observed() {
        let net = SimNet::new();
        let obs =
            Observability::with_registry(dista_obs::ObsConfig::default(), net.registry().clone());
        let v = Vm::builder("n1", &net)
            .mode(Mode::Original)
            .observability(obs)
            .build()
            .unwrap();
        assert!(!v.flight_recorder().is_enabled());
        v.taint_source(TagValue::str("pw"));
        v.taint_sink("LOG.info", Taint::EMPTY);
        assert!(v.flight_recorder().events().is_empty());
        assert_eq!(net.registry().snapshot().counter_total("sources_minted"), 0);
    }

    #[test]
    fn mode_predicates() {
        assert!(!Mode::Original.tracks_taints());
        assert!(Mode::Phosphor.tracks_taints());
        assert!(Mode::Dista.tracks_taints());
        assert!(!Mode::Phosphor.tracks_inter_node());
        assert!(Mode::Dista.tracks_inter_node());
        assert_eq!(Mode::Dista.to_string(), "DisTA");
    }
}
