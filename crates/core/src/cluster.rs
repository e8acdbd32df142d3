//! Cluster construction: one network, a Taint Map deployment, N VMs.

use dista_jre::{Mode, Vm, WireProtocol};
use dista_obs::{
    reconstruct, reconstruct_inferred, to_chrome_trace, to_jsonl, to_text_report, FlightRecorder,
    MetricsDump, ObsConfig, ObsEvent, ObsEventKind, Observability, ProvenanceTrace,
};
use dista_simnet::{FaultAction, FaultPlan, SimNet};
use dista_taint::{SinkReport, SourceSinkSpec};
use dista_taintmap::{TaintMapEndpoint, TaintMapEndpointBuilder};

use crate::error::DistaError;
use crate::telemetry::{TelemetryConfig, TelemetryPlane};

/// Builder for [`Cluster`].
///
/// The Taint Map deployment (address, shards, standbys, snapshots,
/// tuning) is configured on a [`TaintMapEndpointBuilder`] handed over
/// via [`ClusterBuilder::taint_map_endpoint`].
#[derive(Debug)]
pub struct ClusterBuilder {
    mode: Mode,
    nodes: Vec<(String, [u8; 4])>,
    spec: SourceSinkSpec,
    wire_protocol: WireProtocol,
    node_wire_protocols: Vec<(String, WireProtocol)>,
    taint_map_endpoint: TaintMapEndpointBuilder,
    net: Option<SimNet>,
    observability: Option<ObsConfig>,
    telemetry: Option<TelemetryConfig>,
    chaos: Option<FaultPlan>,
}

impl ClusterBuilder {
    /// Adds a node with a name and IP; one VM is built per node.
    pub fn node(mut self, name: impl Into<String>, ip: [u8; 4]) -> Self {
        self.nodes.push((name.into(), ip));
        self
    }

    /// Adds `n` nodes named `prefix1..prefixN` on `10.0.0.1..N`.
    pub fn nodes(mut self, prefix: &str, n: usize) -> Self {
        for i in 1..=n {
            self.nodes
                .push((format!("{prefix}{i}"), [10, 0, 0, i as u8]));
        }
        self
    }

    /// Installs the source/sink specification on every VM.
    pub fn spec(mut self, spec: SourceSinkSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the wire-protocol policy every VM starts with (default
    /// [`WireProtocol::V1`], the paper's interleaved record format).
    /// [`WireProtocol::Negotiate`] upgrades each connection to v2 when
    /// the peer speaks it and falls back to v1 otherwise, so it mixes
    /// freely with pinned-v1 nodes. [`WireProtocol::V2`] skips the
    /// handshake entirely and therefore only interoperates with other
    /// pinned-v2 nodes — [`ClusterBuilder::build`] rejects mixed
    /// pinned-v2 clusters with [`DistaError::Config`].
    pub fn wire_protocol(mut self, protocol: WireProtocol) -> Self {
        self.wire_protocol = protocol;
        self
    }

    /// Overrides the wire-protocol policy for one node (by name) — e.g.
    /// to model a partially upgraded cluster of Negotiate nodes with a
    /// few un-upgraded pinned-v1 stragglers.
    pub fn node_wire_protocol(mut self, name: impl Into<String>, protocol: WireProtocol) -> Self {
        self.node_wire_protocols.push((name.into(), protocol));
        self
    }

    /// Configures the Taint Map deployment (default: one shard at
    /// `10.0.0.99:7777`, no standby, no snapshots). A deployment built
    /// with [`TaintMapEndpointBuilder::snapshots`] restarts a crashed
    /// primary with zero lost registrations ([`Cluster::restart_shard`]).
    pub fn taint_map_endpoint(mut self, builder: TaintMapEndpointBuilder) -> Self {
        self.taint_map_endpoint = builder;
        self
    }

    /// Reuses an existing network instead of creating one.
    pub fn net(mut self, net: SimNet) -> Self {
        self.net = Some(net);
        self
    }

    /// Installs a deterministic fault schedule on the cluster's network.
    /// The plan's logical step clock starts counting after the cluster
    /// (Taint Map + VMs) is stood up, so step numbers refer to workload
    /// operations. Execute its process faults with
    /// [`Cluster::poll_chaos`].
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Enables cluster-wide observability: every tracked-mode VM gets a
    /// flight recorder drawing from one shared cluster clock (so events
    /// totally order across nodes), and all taint instruments land in the
    /// network's metrics registry. Off by default — plain runs pay
    /// nothing.
    pub fn observability(mut self, config: ObsConfig) -> Self {
        self.observability = Some(config);
        self
    }

    /// Stands up the live telemetry plane alongside the cluster: one
    /// in-simulation collector (push + scrape endpoint at
    /// [`TelemetryConfig::addr`]) and one agent thread pushing every
    /// VM's metric deltas every [`TelemetryConfig::interval`]. Requires
    /// [`ClusterBuilder::observability`] — without it no per-node
    /// samples exist for the agents to ship, which
    /// [`ClusterBuilder::build`] rejects as [`DistaError::Config`].
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Builds the cluster: network, Taint Map deployment (always started
    /// so any VM may be switched to DisTA mode later), and the VMs.
    ///
    /// # Errors
    ///
    /// [`DistaError::Config`] for wire-protocol or telemetry settings
    /// that cannot work together, or for a node name that is empty or
    /// holds whitespace, `,`, `"` or `\` (telemetry frames and scrapes
    /// cannot carry it); transport errors while standing up the Taint
    /// Map or clients.
    pub fn build(self) -> Result<Cluster, DistaError> {
        if let Some((name, _)) = self.nodes.iter().find(|(name, _)| {
            name.is_empty()
                || name.contains(|c: char| c.is_whitespace() || matches!(c, ',' | '"' | '\\'))
        }) {
            return Err(DistaError::Config(format!(
                "node name {name:?} is empty or holds whitespace, ',', '\"' or '\\'"
            )));
        }
        // Resolve each node's wire protocol (override or cluster-wide
        // default) and reject combinations that cannot interoperate: a
        // pinned-v2 VM sends no negotiation probe, so a v1 or Negotiate
        // peer would misparse its frames as v1 records. Pinned v2 is
        // therefore homogeneous-only; Negotiate mixes freely with v1.
        for (name, _) in &self.node_wire_protocols {
            if !self.nodes.iter().any(|(n, _)| n == name) {
                return Err(DistaError::Config(format!(
                    "node_wire_protocol names unknown node {name:?}"
                )));
            }
        }
        let mut node_protocols = Vec::with_capacity(self.nodes.len());
        for (name, _) in &self.nodes {
            let mut overrides = self
                .node_wire_protocols
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, p)| *p);
            let resolved = overrides.next().unwrap_or(self.wire_protocol);
            if overrides.next().is_some() {
                return Err(DistaError::Config(format!(
                    "node_wire_protocol set more than once for node {name:?}"
                )));
            }
            node_protocols.push(resolved);
        }
        let pinned_v2: Vec<&str> = self
            .nodes
            .iter()
            .zip(&node_protocols)
            .filter(|(_, p)| matches!(p, WireProtocol::V2))
            .map(|((n, _), _)| n.as_str())
            .collect();
        let conflicts: Vec<&str> = self
            .nodes
            .iter()
            .zip(&node_protocols)
            .filter(|(_, p)| !matches!(p, WireProtocol::V2))
            .map(|((n, _), _)| n.as_str())
            .collect();
        if !pinned_v2.is_empty() && !conflicts.is_empty() {
            return Err(DistaError::Config(format!(
                "wire_protocol conflict: pinned-v2 nodes ({}) cannot interoperate \
                 with v1/negotiate nodes ({}): pinned v2 skips the version \
                 handshake, so pin every node to V2 or use Negotiate",
                pinned_v2.join(", "),
                conflicts.join(", ")
            )));
        }
        if self.telemetry.is_some() && self.observability.is_none() {
            return Err(DistaError::Config(
                "telemetry requires observability: enable \
                 ClusterBuilder::observability so VMs emit the per-node \
                 samples the agents push"
                    .into(),
            ));
        }
        let net = self.net.unwrap_or_default();
        let observability = match self.observability {
            Some(config) => Observability::with_registry(config, net.registry().clone()),
            None => Observability::disabled(),
        };
        let taint_map = self.taint_map_endpoint.connect(&net)?;
        let topology = taint_map.topology();
        let node_list = self.nodes.clone();
        let mut vms = Vec::with_capacity(self.nodes.len());
        for ((name, ip), protocol) in self.nodes.into_iter().zip(node_protocols) {
            vms.push(
                Vm::builder(name, &net)
                    .mode(self.mode)
                    .ip(ip)
                    .spec(self.spec.clone())
                    .wire_protocol(protocol)
                    .taint_map(topology.clone())
                    .observability(observability.clone())
                    .build()?,
            );
        }
        let chaos_recorder = observability.recorder_for("chaos");
        let telemetry = match self.telemetry {
            Some(config) => {
                // The Taint Map deployment gets its own agent, pushing
                // the `node="taintmap"` resharding/compaction instruments
                // its servers and endpoint write — isolating the
                // deployment's host silences its telemetry like any
                // host's. Every shard binds on the base address's IP.
                let mut agents = node_list.clone();
                agents.push(("taintmap".to_string(), topology.shard_addrs(0)[0].ip()));
                Some(TelemetryPlane::spawn(&net, &agents, config)?)
            }
            None => None,
        };
        // Arm the schedule last, so the logical step clock counts
        // workload operations, not cluster standup.
        if let Some(plan) = self.chaos {
            net.install_fault_plan(plan);
        }
        Ok(Cluster {
            net,
            mode: self.mode,
            taint_map: Some(taint_map),
            vms,
            observability,
            telemetry,
            chaos_recorder,
            fault_log_cursor: 0,
        })
    }
}

/// Retries one [`Cluster::split_shard`] makes before it gives up: far
/// above any finite chaos schedule.
const MAX_REPAIRS: usize = 64;

/// A running simulated cluster.
#[derive(Debug)]
pub struct Cluster {
    net: SimNet,
    mode: Mode,
    taint_map: Option<TaintMapEndpoint>,
    vms: Vec<Vm>,
    observability: Observability,
    telemetry: Option<TelemetryPlane>,
    /// Sink for chaos-layer events (faults, shard crash/restart); merged
    /// into [`Cluster::obs_events`] alongside the per-VM recorders.
    chaos_recorder: FlightRecorder,
    /// How much of the network's applied-fault log has been replayed
    /// into the chaos recorder.
    fault_log_cursor: usize,
}

impl Cluster {
    /// Starts building a cluster in `mode`.
    pub fn builder(mode: Mode) -> ClusterBuilder {
        ClusterBuilder {
            mode,
            nodes: Vec::new(),
            spec: SourceSinkSpec::new(),
            wire_protocol: WireProtocol::default(),
            node_wire_protocols: Vec::new(),
            taint_map_endpoint: TaintMapEndpoint::builder(),
            net: None,
            observability: None,
            telemetry: None,
            chaos: None,
        }
    }

    /// The cluster's tracking mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The shared network.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The `i`-th VM (panics if out of range — cluster shape is static).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn vm(&self, i: usize) -> &Vm {
        &self.vms[i]
    }

    /// VM by node name.
    pub fn vm_named(&self, name: &str) -> Option<&Vm> {
        self.vms.iter().find(|v| v.name() == name)
    }

    /// All VMs.
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// The Taint Map deployment handle.
    ///
    /// # Panics
    ///
    /// Panics if the cluster was already shut down.
    pub fn taint_map(&self) -> &TaintMapEndpoint {
        self.taint_map.as_ref().expect("cluster already shut down")
    }

    /// Sink reports from every VM, in node order.
    pub fn sink_reports(&self) -> Vec<(String, SinkReport)> {
        self.vms
            .iter()
            .map(|vm| (vm.name().to_string(), vm.sink_report()))
            .collect()
    }

    /// Total sink events that observed tainted data, across all nodes.
    pub fn total_tainted_sink_events(&self) -> usize {
        self.vms
            .iter()
            .map(|vm| vm.sink_report().tainted_count())
            .sum()
    }

    /// The cluster's observability context (disabled unless
    /// [`ClusterBuilder::observability`] was used).
    pub fn observability(&self) -> &Observability {
        &self.observability
    }

    /// Every flight-recorder event from every VM, merged and sorted by
    /// cluster sequence number (all recorders draw from one shared
    /// clock, so this is a total order across nodes).
    pub fn obs_events(&self) -> Vec<ObsEvent> {
        let mut events: Vec<ObsEvent> = self
            .vms
            .iter()
            .flat_map(|vm| vm.flight_recorder().events())
            .chain(self.chaos_recorder.events())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Reconstructs the cross-VM provenance of Global ID `gid` from
    /// flight-recorder events alone: where it was minted, which sockets
    /// it crossed (with byte ranges), where it was registered/resolved
    /// in the Taint Map, and which sinks it reached. The trace is the
    /// span-paired reconstruction when every crossing paired exactly
    /// (homogeneous v2 wire), otherwise the gid-matching inference a v1
    /// cluster gets; [`ProvenanceTrace::exact`] says which, so a
    /// cross-system pipeline gets one hop-by-hop narrative without
    /// knowing which wire protocol each leg negotiated.
    pub fn provenance(&self, gid: u32) -> ProvenanceTrace {
        let events = self.obs_events();
        let paired = reconstruct(&events, gid);
        if paired.exact {
            paired
        } else {
            reconstruct_inferred(&events, gid)
        }
    }

    /// Records a [`ObsEventKind::PipelineStage`] flight event on the
    /// named VM's recorder, marking that a cross-system pipeline stage
    /// covering `records` records begins there, and marks the stage on
    /// the fault engine so stage-keyed chaos entries
    /// ([`dista_simnet::FaultPlanBuilder::after_stage`]) fire relative
    /// to this boundary. Execute the process faults they apply with
    /// [`Cluster::poll_chaos`]. The flight event is a no-op when
    /// observability is disabled or the node is unknown; the stage mark
    /// always lands.
    pub fn record_pipeline_stage(&self, node: &str, stage: &str, records: u64) {
        if let Some(vm) = self.vms.iter().find(|vm| vm.name() == node) {
            vm.flight_recorder()
                .record_with(|| ObsEventKind::PipelineStage {
                    stage: stage.to_string(),
                    records,
                });
        }
        self.net.mark_stage(stage);
    }

    /// Snapshot of the cluster metrics registry. Every instrument in it
    /// is written by the layer that observes the event; the one thing
    /// done here first is the per-VM taint-tree and shadow-run census,
    /// because `dista-taint` sits below `dista-obs` and cannot hold
    /// instruments of its own.
    ///
    /// Returns an empty dump when observability is disabled.
    pub fn metrics_dump(&self) -> MetricsDump {
        let Some(reg) = self.observability.registry() else {
            return MetricsDump::default();
        };
        for vm in &self.vms {
            let labels: &[(&str, &str)] = &[("node", vm.name())];
            let stats = vm.store().tree().stats();
            reg.gauge_with("taint_tree_nodes", labels)
                .set(stats.nodes as f64);
            reg.gauge_with("taint_tree_tags", labels)
                .set(stats.tags as f64);
            reg.gauge_with("taint_tree_memo_hits", labels)
                .set(stats.memo_hits as f64);
            reg.gauge_with("taint_tree_memo_misses", labels)
                .set(stats.memo_misses as f64);
            reg.gauge_with("shadow_runs", labels)
                .set(vm.shadow_run_census() as f64);
        }
        reg.snapshot()
    }

    /// Flight-recorder events as JSON Lines (one event object per line).
    pub fn export_jsonl(&self) -> String {
        to_jsonl(&self.obs_events())
    }

    /// Flight-recorder events in Chrome-trace format — load the string
    /// into `chrome://tracing` or Perfetto to see the cluster timeline,
    /// one process row per node.
    pub fn export_chrome_trace(&self) -> String {
        to_chrome_trace(&self.obs_events())
    }

    /// Plain-text cluster telemetry report: the metrics dump followed by
    /// the event log.
    pub fn obs_report(&self) -> String {
        to_text_report(&self.metrics_dump(), &self.obs_events())
    }

    /// The live telemetry plane, when
    /// [`ClusterBuilder::telemetry`] was set.
    pub fn telemetry(&self) -> Option<&TelemetryPlane> {
        self.telemetry.as_ref()
    }

    /// Scrapes the in-simulation collector endpoint (Prometheus-style
    /// text exposition) over the simulated network.
    ///
    /// # Errors
    ///
    /// [`DistaError::Config`] if the plane is not enabled; transport
    /// errors reaching the collector.
    pub fn scrape_text(&self) -> Result<String, DistaError> {
        self.telemetry
            .as_ref()
            .ok_or_else(|| DistaError::Config("telemetry plane not enabled".into()))?
            .scrape_text()
    }

    /// Drives the chaos layer one tick: walks the network's fault log
    /// from where the last poll stopped, mirrors each applied fault into
    /// the event stream, and executes the Taint Map process faults the
    /// network cannot apply itself (shard crash/restart); the engine
    /// already applied the link faults, a VM crash's `Isolate` among
    /// them. A shard crash with nothing live at its index, or a restart
    /// with nothing crashed there, is a no-op. Call this between
    /// workload phases of a chaos run — the engine is operation-clocked,
    /// so polling cadence never changes *which* faults fire, only when
    /// process faults are acted on.
    ///
    /// # Errors
    ///
    /// Errors from restarting a shard primary. The failing entry is
    /// reported once; the entries after it run on the next poll.
    pub fn poll_chaos(&mut self) -> Result<(), DistaError> {
        let log = self.net.fault_log();
        for applied in &log[self.fault_log_cursor..] {
            self.fault_log_cursor += 1;
            let fault = format!("step {}: {:?}", applied.step, applied.action);
            self.chaos_recorder
                .record_with(|| ObsEventKind::FaultInjected { fault });
            let tm = self.taint_map.as_ref().expect("cluster already shut down");
            let crashed = |shard: u32| {
                let shard = shard as usize;
                (shard < tm.server_count()).then(|| tm.primary_crashed(shard))
            };
            match &applied.action {
                FaultAction::CrashShard { shard } if crashed(*shard) == Some(false) => {
                    self.crash_shard(*shard as usize)
                }
                FaultAction::RestartShard { shard } if crashed(*shard) == Some(true) => {
                    self.restart_shard(*shard as usize)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Splits residue class `class` of the live Taint Map with
    /// [`TaintMapEndpoint::split_shard`], running [`Cluster::poll_chaos`]
    /// before every attempt. A scheduled link cut of the copy fails an
    /// attempt; the process faults due with it run before the retry,
    /// which restarts the crashed sides from their WALs and copies
    /// again. Records a `split_healed` event per retry and a
    /// `shard_split` event at cutover. Returns the extended server index
    /// of the new range owner.
    ///
    /// # Errors
    ///
    /// The last attempt's error once 64 retries have failed, and errors
    /// from [`Cluster::poll_chaos`].
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or the cluster was shut down.
    pub fn split_shard(&mut self, class: usize) -> Result<usize, DistaError> {
        let mut repairs = 0;
        let target = loop {
            self.poll_chaos()?;
            let tm = self.taint_map.as_mut().expect("cluster already shut down");
            match tm.split_shard(class) {
                Ok(target) => break target,
                Err(e) if repairs == MAX_REPAIRS => return Err(e.into()),
                Err(_) => {
                    repairs += 1;
                    self.chaos_recorder
                        .record_with(|| ObsEventKind::SplitHealed { class });
                }
            }
        };
        let table = self.taint_map().class_table(class);
        let (lo_gid, epoch) = (table.tail().lo_gid, table.epoch);
        self.chaos_recorder
            .record_with(|| ObsEventKind::ShardSplit {
                class,
                target,
                lo_gid,
                epoch,
            });
        Ok(target)
    }

    /// Folds every live Taint Map server's WAL into a fresh snapshot
    /// and truncates the log (crashed primaries are skipped — their
    /// logs compact after restart). Records one `wal_compacted` event
    /// per server; returns the total records snapshotted.
    ///
    /// # Errors
    ///
    /// [`DistaError::TaintMap`] if the deployment has no write-ahead
    /// snapshots ([`TaintMapEndpointBuilder::snapshots`]).
    pub fn compact_taint_map(&self) -> Result<u64, DistaError> {
        let tm = self.taint_map.as_ref().expect("cluster already shut down");
        let mut total = 0;
        for shard in 0..tm.server_count() {
            if tm.primary_crashed(shard) {
                continue;
            }
            let records = tm.compact_shard(shard)?;
            self.chaos_recorder
                .record_with(|| ObsEventKind::WalCompacted { shard, records });
            total += records;
        }
        Ok(total)
    }

    /// Crashes Taint Map shard `shard`'s primary ungracefully (no
    /// drain, no handoff) and records a `shard_crashed` event. Restart
    /// it with [`Cluster::restart_shard`].
    ///
    /// # Panics
    ///
    /// Panics if the shard is already crashed or the cluster was shut
    /// down.
    pub fn crash_shard(&mut self, shard: usize) {
        self.taint_map
            .as_mut()
            .expect("cluster already shut down")
            .crash_primary(shard);
        self.chaos_recorder
            .record_with(|| ObsEventKind::ShardCrashed { shard });
    }

    /// Restarts a crashed shard primary, replaying its write-ahead
    /// snapshot (only present with
    /// [`TaintMapEndpointBuilder::snapshots`]). Returns the number of
    /// replayed registrations and records a `shard_restarted` event.
    ///
    /// # Errors
    ///
    /// Transport errors while re-binding the primary.
    ///
    /// # Panics
    ///
    /// Panics if the shard is not crashed or the cluster was shut down.
    pub fn restart_shard(&mut self, shard: usize) -> Result<u64, DistaError> {
        let replayed = self
            .taint_map
            .as_mut()
            .expect("cluster already shut down")
            .restart_primary(shard)?;
        self.chaos_recorder
            .record_with(|| ObsEventKind::ShardRestarted { shard, replayed });
        Ok(replayed)
    }

    /// Runs every VM's pending-sentinel reconciler (degraded lookups
    /// stamped while a shard was unreachable); returns how many
    /// sentinels resolved to their real taints cluster-wide.
    ///
    /// # Errors
    ///
    /// Non-transport Taint Map errors from a reachable shard.
    pub fn reconcile_pending(&self) -> Result<u64, DistaError> {
        let mut resolved = 0;
        for vm in &self.vms {
            if let Some(client) = vm.taint_map() {
                resolved += client.reconcile_pending()?;
            }
        }
        Ok(resolved)
    }

    /// Total gids currently degraded to a pending sentinel across all
    /// VMs.
    pub fn pending_gids(&self) -> usize {
        self.vms
            .iter()
            .filter_map(|vm| vm.taint_map())
            .map(|c| c.pending_count())
            .sum()
    }

    /// Has every VM bind the gids it handed out and has not bound yet
    /// ([`dista_taintmap::TaintMapClient::flush`]), so each one can be
    /// looked up and the Taint Map's census counts it. A census reads
    /// `taint_map().stats()` after this.
    ///
    /// # Errors
    ///
    /// The first flush that failed; every VM is flushed either way.
    pub fn flush_taint_maps(&self) -> Result<(), DistaError> {
        let mut first_err = None;
        for client in self.vms.iter().filter_map(|vm| vm.taint_map()) {
            if let Err(e) = client.flush() {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Stops the telemetry plane (every node's final delta is flushed
    /// first) and the Taint Map deployment (every VM's unsent binds are
    /// sent first; a VM that cannot reach the map keeps its own).
    pub fn shutdown(mut self) {
        if let Some(plane) = self.telemetry.take() {
            plane.shutdown();
        }
        for client in self.vms.iter().filter_map(|vm| vm.taint_map()) {
            let _ = client.flush();
        }
        if let Some(tm) = self.taint_map.take() {
            tm.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_simnet::{NodeAddr, SimFs};
    use dista_taint::TagValue;
    use std::time::Duration;

    #[test]
    fn builder_creates_named_nodes() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("node", 3)
            .build()
            .unwrap();
        assert_eq!(cluster.len(), 3);
        assert!(!cluster.is_empty());
        assert_eq!(cluster.vm(0).name(), "node1");
        assert_eq!(cluster.vm(2).ip(), [10, 0, 0, 3]);
        assert!(cluster.vm_named("node2").is_some());
        assert!(cluster.vm_named("nodeX").is_none());
        cluster.shutdown();
    }

    #[test]
    fn all_modes_build() {
        for mode in [Mode::Original, Mode::Phosphor, Mode::Dista] {
            let cluster = Cluster::builder(mode)
                .node("n", [10, 0, 0, 1])
                .build()
                .unwrap();
            assert_eq!(cluster.mode(), mode);
            assert_eq!(cluster.vm(0).mode(), mode);
            cluster.shutdown();
        }
    }

    #[test]
    fn taints_resolve_through_cluster_taint_map() {
        let cluster = Cluster::builder(Mode::Dista).nodes("n", 2).build().unwrap();
        let t = cluster.vm(0).store().mint_source_taint(TagValue::str("x"));
        let gid = cluster.vm(0).taint_map().unwrap().global_id_for(t).unwrap();
        let resolved = cluster.vm(1).taint_map().unwrap().taint_for(gid).unwrap();
        assert_eq!(
            cluster.vm(1).store().tag_values(resolved),
            vec!["x".to_string()]
        );
        assert_eq!(cluster.taint_map().stats().global_taints, 1);
        cluster.shutdown();
    }

    #[test]
    fn a_vm_cut_off_from_the_map_leaves_no_later_vms_binds_unflushed() {
        // The flush used to stop at the first VM that failed, so every
        // later VM kept its queued binds and the census undercounted.
        let cluster = Cluster::builder(Mode::Dista).nodes("n", 3).build().unwrap();
        let hand_out = |vm: &Vm, tag: &str| {
            let taint = vm.store().mint_source_taint(TagValue::str(tag));
            let (mut gids, mut defs) = (Vec::new(), Vec::new());
            let client = vm.taint_map().unwrap();
            client
                .global_ids_into(&[taint], &mut gids, Some(&mut defs))
                .unwrap();
            gids[0]
        };
        hand_out(cluster.vm(0), "stranded");
        let queued = hand_out(cluster.vm(1), "queued");
        let cut_off = cluster.vm(0).ip();
        cluster.net().inject(FaultAction::Isolate { ip: cut_off });
        assert!(cluster.flush_taint_maps().is_err());

        let reader = cluster.vm(2);
        let taint = reader.taint_map().unwrap().taint_for(queued).unwrap();
        assert_eq!(reader.store().tag_values(taint), ["queued"]);
        cluster.net().inject(FaultAction::Rejoin { ip: cut_off });
        cluster.shutdown();
    }

    #[test]
    fn sharded_cluster_resolves_across_nodes() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("n", 2)
            .taint_map_endpoint(TaintMapEndpoint::builder().shards(4).standby(true))
            .build()
            .unwrap();
        assert_eq!(cluster.taint_map().shard_count(), 4);
        let taints: Vec<_> = (0..16)
            .map(|i| cluster.vm(0).store().mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = cluster
            .vm(0)
            .taint_map()
            .unwrap()
            .global_ids_for(&taints)
            .unwrap();
        let resolved = cluster
            .vm(1)
            .taint_map()
            .unwrap()
            .taints_for(&gids)
            .unwrap();
        for (i, t) in resolved.iter().enumerate() {
            assert_eq!(cluster.vm(1).store().tag_values(*t), vec![i.to_string()]);
        }
        assert_eq!(cluster.taint_map().stats().global_taints, 16);
        cluster.shutdown();
    }

    #[test]
    fn reshard_migrates_live_gids_and_compacts() {
        let mut cluster = Cluster::builder(Mode::Dista)
            .nodes("n", 2)
            .taint_map_endpoint(
                TaintMapEndpoint::builder()
                    .shards(2)
                    .snapshots(SimFs::new()),
            )
            .observability(ObsConfig::default())
            .build()
            .unwrap();
        let taints: Vec<_> = (0..64)
            .map(|i| cluster.vm(0).store().mint_source_taint(TagValue::Int(i)))
            .collect();
        let gids = cluster
            .vm(0)
            .taint_map()
            .unwrap()
            .global_ids_for(&taints)
            .unwrap();

        let new_servers = [
            cluster.split_shard(0).unwrap(),
            cluster.split_shard(1).unwrap(),
        ];
        assert_eq!(new_servers, [2, 3]);
        let rs = cluster.taint_map().reshard_stats();
        assert_eq!(rs.splits_completed, 2);
        assert!(rs.records_transferred > 0);
        assert_eq!(rs.class_epochs, vec![1, 1]);

        // Every pre-split gid still resolves from the other node, via
        // Moved redirects against its stale shard map.
        let resolved = cluster
            .vm(1)
            .taint_map()
            .unwrap()
            .taints_for(&gids)
            .unwrap();
        for (i, t) in resolved.iter().enumerate() {
            assert_eq!(cluster.vm(1).store().tag_values(*t), vec![i.to_string()]);
        }

        // Compaction folds every live WAL and the counters surface in
        // the metrics dump and event log.
        let folded = cluster.compact_taint_map().unwrap();
        assert!(folded >= 64, "snapshot covers live records: {folded}");
        let dump = cluster.metrics_dump();
        let text = dump.render_text();
        assert!(text.contains("taintmap_splits_completed{node=taintmap} 2.0000"));
        assert!(text.contains("taintmap_server_compactions{node=taintmap,shard=0} 1\n"));
        assert_eq!(dump.counter_total("taintmap_server_compactions"), 4);
        let events = cluster.export_jsonl();
        assert!(events.contains("\"event\":\"shard_split\""));
        assert!(events.contains("\"event\":\"wal_compacted\""));
        cluster.shutdown();
    }

    #[test]
    fn conflicting_wire_protocol_settings_are_rejected() {
        // Pinned v2 skips the handshake, so it cannot share a cluster
        // with v1 or Negotiate nodes.
        let err = Cluster::builder(Mode::Dista)
            .nodes("n", 2)
            .wire_protocol(WireProtocol::V2)
            .node_wire_protocol("n2", WireProtocol::V1)
            .build()
            .unwrap_err();
        match err {
            DistaError::Config(msg) => {
                assert!(msg.contains("wire_protocol"), "names the knob: {msg}");
                assert!(
                    msg.contains("n1") && msg.contains("n2"),
                    "names nodes: {msg}"
                );
            }
            other => panic!("expected Config error, got {other:?}"),
        }

        let err = Cluster::builder(Mode::Dista)
            .nodes("n", 2)
            .wire_protocol(WireProtocol::Negotiate)
            .node_wire_protocol("n1", WireProtocol::V2)
            .build()
            .unwrap_err();
        assert!(matches!(err, DistaError::Config(_)));

        let err = Cluster::builder(Mode::Dista)
            .nodes("n", 1)
            .node_wire_protocol("ghost", WireProtocol::V2)
            .build()
            .unwrap_err();
        match err {
            DistaError::Config(msg) => assert!(msg.contains("ghost"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }

        let err = Cluster::builder(Mode::Dista)
            .nodes("n", 1)
            .node_wire_protocol("n1", WireProtocol::V1)
            .node_wire_protocol("n1", WireProtocol::Negotiate)
            .build()
            .unwrap_err();
        assert!(matches!(err, DistaError::Config(_)));
    }

    #[test]
    fn mixed_negotiate_and_v1_cluster_builds() {
        // The supported partial-upgrade shape: Negotiate everywhere,
        // with un-upgraded pinned-v1 stragglers.
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("n", 3)
            .wire_protocol(WireProtocol::Negotiate)
            .node_wire_protocol("n3", WireProtocol::V1)
            .build()
            .unwrap();
        assert_eq!(cluster.vm(0).wire_protocol(), WireProtocol::Negotiate);
        assert_eq!(cluster.vm(2).wire_protocol(), WireProtocol::V1);
        cluster.shutdown();

        let cluster = Cluster::builder(Mode::Dista)
            .nodes("n", 2)
            .wire_protocol(WireProtocol::V2)
            .build()
            .unwrap();
        assert_eq!(cluster.vm(1).wire_protocol(), WireProtocol::V2);
        cluster.shutdown();
    }

    #[test]
    fn endpoint_builder_passthrough_works() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("n", 1)
            .taint_map_endpoint(TaintMapEndpoint::builder().shards(2))
            .build()
            .unwrap();
        assert_eq!(cluster.taint_map().shard_count(), 2);
        cluster.shutdown();
    }

    #[test]
    fn observed_cluster_reconstructs_provenance() {
        use dista_jre::{InputStream, OutputStream};
        use dista_taint::{Payload, TaintedBytes};

        let cluster = Cluster::builder(Mode::Dista)
            .nodes("n", 2)
            .observability(ObsConfig::default())
            .build()
            .unwrap();
        let (tx_vm, rx_vm) = (cluster.vm(0), cluster.vm(1));
        let server =
            dista_jre::ServerSocket::bind(rx_vm, NodeAddr::new([10, 0, 0, 2], 80)).unwrap();
        let client = dista_jre::Socket::connect(tx_vm, server.local_addr()).unwrap();
        let conn = server.accept().unwrap();
        let secret = tx_vm.taint_source(TagValue::str("secret"));
        client
            .output_stream()
            .write(&Payload::Tainted(TaintedBytes::uniform(b"payload", secret)))
            .unwrap();
        let got = conn.input_stream().read_exact(7).unwrap();
        let received = got.taint_union(rx_vm.store());
        assert!(rx_vm.taint_sink("LOG.info", received));

        let gid = tx_vm.taint_map().unwrap().global_id_for(secret).unwrap().0;
        let trace = cluster.provenance(gid);
        assert!(!trace.is_empty());
        assert_eq!(trace.crossings(), 1);
        assert_eq!(trace.sinks(), vec![("n2", "LOG.info")]);
        assert_eq!(trace.nodes(), vec!["n1", "n2"]);

        let dump = cluster.metrics_dump();
        assert!(dump.counter_total("boundary_wire_bytes_out") >= 35);
        assert!(
            dump.gauge_value("taint_tree_tags", &[("node", "n1")])
                .unwrap()
                >= 1.0
        );
        assert!(cluster.export_jsonl().contains("boundary_encode"));
        assert!(cluster.export_chrome_trace().contains("\"ph\""));
        assert!(cluster.obs_report().contains("== events =="));
        cluster.shutdown();
    }

    /// A telemetry-enabled DisTA cluster of nodes `n1`, `n2` whose
    /// agents tick every 5 ms.
    fn scraped_cluster(taint_map: TaintMapEndpointBuilder) -> Cluster {
        Cluster::builder(Mode::Dista)
            .nodes("n", 2)
            .observability(ObsConfig::default())
            .telemetry(crate::telemetry::TelemetryConfig {
                interval: Duration::from_millis(5),
                ..Default::default()
            })
            .taint_map_endpoint(taint_map)
            .build()
            .unwrap()
    }

    /// Sends 7 bytes tainted by a fresh source from `n1` to `n2:port`
    /// and returns the union taint `n2` decoded.
    fn cross_tainted(cluster: &Cluster, port: u16) -> dista_taint::Taint {
        use dista_jre::{InputStream, OutputStream};
        use dista_taint::{Payload, TaintedBytes};

        let (tx_vm, rx_vm) = (cluster.vm(0), cluster.vm(1));
        let server = dista_jre::ServerSocket::bind(rx_vm, NodeAddr::new(rx_vm.ip(), port)).unwrap();
        let client = dista_jre::Socket::connect(tx_vm, server.local_addr()).unwrap();
        let conn = server.accept().unwrap();
        let secret = tx_vm.taint_source(TagValue::str("secret"));
        client
            .output_stream()
            .write(&Payload::Tainted(TaintedBytes::uniform(b"payload", secret)))
            .unwrap();
        let got = conn.input_stream().read_exact(7).unwrap();
        got.taint_union(rx_vm.store())
    }

    /// Scrapes the collector until `needle` shows up: agents push on a
    /// wall-clock tick, so a fresh value is at most a few ticks away.
    fn scrape_until(cluster: &Cluster, needle: &str) -> String {
        for _ in 0..2000 {
            let text = cluster.scrape_text().unwrap();
            if text.contains(needle) {
                return text;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("{needle:?} never appeared in a live scrape");
    }

    #[test]
    fn telemetry_plane_scrapes_live_cluster_metrics() {
        let cluster = scraped_cluster(TaintMapEndpoint::builder());
        cross_tainted(&cluster, 80);

        // The scrape endpoint is reachable from inside the simulation
        // and eventually reflects the boundary counters pushed by the
        // sender's agent.
        let text = scrape_until(
            &cluster,
            "boundary_wire_bytes_out{node=\"n1\",proto=\"v1\"} 35",
        );
        assert!(text.contains("dista_collector_frames_ingested_total"));

        let collector = cluster.telemetry().unwrap().collector().clone();
        cluster.shutdown();
        assert!(collector.frames_ingested() >= 1);
        assert_eq!(collector.parse_errors(), 0);
        assert!(
            collector
                .latest_dump()
                .counter_total("boundary_wire_bytes_out")
                >= 35
        );
    }

    #[test]
    fn live_scrape_shows_client_levels_without_a_metrics_dump() {
        let cluster = scraped_cluster(TaintMapEndpoint::builder());
        let (rx_ip, tm_ip) = (cluster.vm(1).ip(), [10, 0, 0, 99]);
        // The receiver cannot resolve the gid: its bytes arrive under a
        // pending sentinel, and the operator sees that from a scrape.
        for (from, to) in [(rx_ip, tm_ip), (tm_ip, rx_ip)] {
            cluster.net().inject(FaultAction::Partition { from, to });
        }
        let received = cross_tainted(&cluster, 80);
        assert_eq!(cluster.pending_gids(), 1);
        assert!(cluster.vm(1).store().tag_values(received)[0].starts_with("pending-gid:"));
        scrape_until(&cluster, "taintmap_pending_gids{node=\"n2\"} 1\n");
        // n1's agent ticks on its own phase: wait for it too.
        scrape_until(&cluster, "taintmap_register_rpcs{node=\"n1\"} 1\n");

        for (from, to) in [(rx_ip, tm_ip), (tm_ip, rx_ip)] {
            cluster.net().inject(FaultAction::Heal { from, to });
        }
        assert_eq!(cluster.reconcile_pending().unwrap(), 1);
        scrape_until(&cluster, "taintmap_pending_gids{node=\"n2\"} 0\n");
        cluster.shutdown();
    }

    #[test]
    fn telemetry_on_a_sharded_taint_map_scrapes_the_class_epoch() {
        // Regression: the endpoint agent's IP came from the single-shard
        // `addr()`, which panicked this (legal) configuration at build.
        let mut cluster = scraped_cluster(TaintMapEndpoint::builder().shards(2));
        cross_tainted(&cluster, 80);
        cluster.split_shard(0).unwrap();
        let text = scrape_until(
            &cluster,
            "taintmap_class_epoch{class=\"0\",node=\"taintmap\"} 1\n",
        );
        assert!(text.contains("taintmap_class_epoch{class=\"1\",node=\"taintmap\"} 0\n"));
        cluster.shutdown();
    }

    #[test]
    fn telemetry_without_observability_is_rejected() {
        let err = Cluster::builder(Mode::Dista)
            .nodes("n", 1)
            .telemetry(crate::telemetry::TelemetryConfig::default())
            .build()
            .unwrap_err();
        match err {
            DistaError::Config(msg) => assert!(msg.contains("observability"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }

        let cluster = Cluster::builder(Mode::Dista).nodes("n", 1).build().unwrap();
        assert!(cluster.telemetry().is_none());
        assert!(matches!(cluster.scrape_text(), Err(DistaError::Config(_))));
        cluster.shutdown();
    }

    #[test]
    fn a_push_lost_to_a_partition_reaches_the_collector_after_rejoin() {
        let cluster = scraped_cluster(TaintMapEndpoint::builder());
        let isolated = std::time::Instant::now();
        let n2 = cluster.vm_named("n2").unwrap().ip();
        cluster.net().inject(FaultAction::Isolate { ip: n2 });
        let registry = cluster.net().registry().clone();
        registry.counter_with("probe", &[("node", "n2")]).add(5);
        registry.counter_with("probe", &[("node", "n1")]).add(3);
        // The one agent thread keeps pushing n1 while n2 is unreachable.
        let text = scrape_until(&cluster, "probe{node=\"n1\"} 3\n");
        assert!(!text.contains("probe{node=\"n2\"}"), "{text}");
        std::thread::sleep(Duration::from_millis(50).saturating_sub(isolated.elapsed()));
        assert!(!cluster
            .scrape_text()
            .unwrap()
            .contains("probe{node=\"n2\"}"));

        cluster.net().inject(FaultAction::Rejoin { ip: n2 });
        let collector = cluster.telemetry().unwrap().collector().clone();
        cluster.shutdown();
        let text = collector.scrape_text();
        assert!(text.contains("probe{node=\"n2\"} 5\n"), "{text}");
        assert!(text.contains("probe{node=\"n1\"} 3\n"), "{text}");
    }

    #[test]
    fn node_names_the_frame_grammar_cannot_carry_are_refused() {
        for name in ["", "n 1", "n\t1", "n1,n2", "n\"1", "n\\1"] {
            let err = Cluster::builder(Mode::Dista)
                .node(name, [10, 0, 0, 1])
                .build()
                .unwrap_err();
            assert!(matches!(err, DistaError::Config(_)), "{name:?}: {err:?}");
        }
        Cluster::builder(Mode::Dista)
            .node("rm-broker_1.a", [10, 0, 0, 1])
            .build()
            .unwrap()
            .shutdown();
    }

    #[test]
    fn plain_cluster_has_no_events() {
        let cluster = Cluster::builder(Mode::Original)
            .nodes("n", 2)
            .observability(ObsConfig::default())
            .build()
            .unwrap();
        assert!(cluster.obs_events().is_empty());
        assert_eq!(cluster.provenance(1).crossings(), 0);
        cluster.shutdown();
    }

    #[test]
    fn sink_reports_aggregate() {
        let cluster = Cluster::builder(Mode::Phosphor)
            .nodes("n", 2)
            .build()
            .unwrap();
        let t = cluster.vm(1).store().mint_source_taint(TagValue::str("s"));
        cluster.vm(1).taint_sink("check", t);
        let reports = cluster.sink_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[1].1.events.len(), 1);
        assert_eq!(cluster.total_tainted_sink_events(), 1);
        cluster.shutdown();
    }
}
