//! Cluster-wide taint telemetry for the DisTA reproduction.
//!
//! This crate is the observability layer threaded through the whole
//! stack: a lock-light [`MetricsRegistry`] of atomic instruments, a
//! per-VM [`FlightRecorder`] ring of structured [`ObsEvent`]s, a
//! provenance reconstruction ([`reconstruct`]) that turns those events
//! into the paper's "minted on n1 → crossed socket n1→n2 → sunk at
//! LOG.info on n3" narrative, and exporters for JSONL, Chrome-trace and
//! plain text.
//!
//! `dista-obs` is deliberately a *leaf* crate — events and instruments
//! are built from primitive types only — so `dista-simnet`,
//! `dista-taint`, `dista-jre`, `dista-taintmap`, `dista-netty` and
//! `dista-core` can all depend on it without cycles.
//!
//! # Cost model
//!
//! * Instrument handles are `Arc`-wrapped atomics resolved once at
//!   construction sites; updates are single relaxed atomic ops.
//! * The flight recorder's [`FlightRecorder::record_with`] takes a
//!   closure, and a disabled recorder never calls it — plain-mode runs
//!   pay a branch on an `Option` and nothing else. `tests/mode_matrix.rs`
//!   guards this invariant.
//! * The crate reads no clock. A duration it carries, such as a sampled
//!   crossing's [`ObsEventKind::CrossingPhases`], was measured by the
//!   caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod provenance;
mod recorder;
mod registry;
mod span;

pub use event::{CrossingSide, GidSpan, ObsEvent, ObsEventKind, Transport};
pub use export::{to_chrome_trace, to_jsonl, to_text_report};
pub use provenance::{reconstruct, reconstruct_inferred, Hop, ProvenanceTrace};
pub use recorder::{FlightRecorder, ObsClock};
pub use registry::{
    Counter, Gauge, Histogram, Labels, MetricsDump, MetricsRegistry, Sample, SampleValue,
    BATCH_SIZE_BOUNDS, LATENCY_US_BOUNDS,
};
pub use span::SpanTracker;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for cluster observability.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Capacity of each VM's flight-recorder ring, in events.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 8_192,
        }
    }
}

#[derive(Debug)]
struct ObsShared {
    registry: MetricsRegistry,
    clock: ObsClock,
    config: ObsConfig,
    /// Cluster-wide span id allocator; 0 is reserved for "no span", so
    /// the first id handed out is 1.
    span_next: AtomicU64,
}

/// The observability context handed to every layer of one cluster.
///
/// A disabled context ([`Observability::disabled`]) hands out
/// disconnected instruments and no-op recorders, so call sites never
/// branch on "is observability on" themselves. Cloning is cheap and all
/// clones share the same registry and clock.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    shared: Option<Arc<ObsShared>>,
}

impl Observability {
    /// A context where everything is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled context with a fresh registry and clock.
    pub fn new(config: ObsConfig) -> Self {
        Self::with_registry(config, MetricsRegistry::new())
    }

    /// An enabled context writing into an existing registry (so network
    /// metrics and taint metrics land in one place).
    pub fn with_registry(config: ObsConfig, registry: MetricsRegistry) -> Self {
        Observability {
            shared: Some(Arc::new(ObsShared {
                registry,
                clock: ObsClock::new(),
                config,
                span_next: AtomicU64::new(1),
            })),
        }
    }

    /// Whether this context actually records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The shared registry, if enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.shared.as_deref().map(|s| &s.registry)
    }

    /// The shared cluster clock, if enabled.
    pub fn clock(&self) -> Option<&ObsClock> {
        self.shared.as_deref().map(|s| &s.clock)
    }

    /// A flight recorder for VM `node`: enabled (and stamped from the
    /// shared clock) when this context is enabled, a no-op otherwise.
    /// Ring overflow is surfaced as `flight_dropped_events{node=…}` in
    /// the shared registry.
    pub fn recorder_for(&self, node: &str) -> FlightRecorder {
        match &self.shared {
            Some(s) => FlightRecorder::with_drop_counter(
                node,
                s.config.ring_capacity,
                s.clock.clone(),
                s.registry
                    .counter_with("flight_dropped_events", &[("node", node)]),
            ),
            None => FlightRecorder::disabled(),
        }
    }

    /// Mints a fresh cluster-unique trace span id, or 0 when disabled.
    pub fn next_span(&self) -> u64 {
        match &self.shared {
            Some(s) => s.span_next.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// A [`SpanTracker`] matching this context's state: enabled maps
    /// when tracing is on, a no-op tracker otherwise.
    pub fn span_tracker(&self) -> SpanTracker {
        if self.is_enabled() {
            SpanTracker::new()
        } else {
            SpanTracker::disabled()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_hands_out_noops() {
        let obs = Observability::disabled();
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
        assert!(!obs.recorder_for("n1").is_enabled());
    }

    #[test]
    fn enabled_context_shares_clock_across_recorders() {
        let obs = Observability::new(ObsConfig::default());
        assert!(obs.is_enabled());
        let a = obs.recorder_for("a");
        let b = obs.recorder_for("b");
        a.record_with(|| ObsEventKind::TaintMapFailover { shard: 0 });
        b.record_with(|| ObsEventKind::TaintMapFailover { shard: 1 });
        let (ea, eb) = (a.events(), b.events());
        assert_eq!(ea.len(), 1);
        assert_eq!(eb.len(), 1);
        assert!(ea[0].seq < eb[0].seq);
    }

    #[test]
    fn with_registry_reuses_external_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("net_bytes").add(5);
        let obs = Observability::with_registry(ObsConfig::default(), reg.clone());
        obs.registry().unwrap().counter("net_bytes").add(2);
        assert_eq!(reg.counter("net_bytes").get(), 7);
    }

    #[test]
    fn config_default_ring_capacity() {
        assert_eq!(ObsConfig::default().ring_capacity, 8_192);
    }

    #[test]
    fn span_ids_are_unique_and_zero_when_disabled() {
        let obs = Observability::new(ObsConfig::default());
        assert_eq!(obs.next_span(), 1, "0 is reserved for no-span");
        assert_eq!(obs.next_span(), 2);
        assert!(obs.span_tracker().is_enabled());
        let off = Observability::disabled();
        assert_eq!(off.next_span(), 0);
        assert!(!off.span_tracker().is_enabled());
    }

    #[test]
    fn recorder_overflow_lands_in_registry() {
        let obs = Observability::new(ObsConfig { ring_capacity: 2 });
        let rec = obs.recorder_for("n1");
        for _ in 0..5 {
            rec.record_with(|| ObsEventKind::TaintMapFailover { shard: 0 });
        }
        let dump = obs.registry().unwrap().snapshot();
        assert_eq!(dump.counter_total("flight_dropped_events"), 3);
    }
}
