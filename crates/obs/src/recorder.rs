//! Per-VM flight recorder: a bounded ring buffer of [`ObsEvent`]s.
//!
//! The recorder has two states baked into its representation:
//!
//! * **Disabled** (`inner: None`) — every call is a no-op. The
//!   [`FlightRecorder::record_with`] API takes a *closure* producing the
//!   event kind, so a disabled recorder never evaluates it: no `String`
//!   or `Vec` for the event is ever built. This is the "plain mode pays
//!   nothing" invariant guarded by `tests/mode_matrix.rs`.
//! * **Enabled** — events go into a fixed-capacity ring. The write
//!   cursor is a single atomic `fetch_add`; each slot has its own tiny
//!   mutex, so concurrent writers only contend when they land on the
//!   same slot (i.e. the ring has wrapped a full lap during one write —
//!   effectively never). Old events are overwritten once the ring is
//!   full; provenance wants the *recent* history.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{ObsEvent, ObsEventKind};
use crate::registry::Counter;

/// Cluster-shared logical clock.
///
/// Every VM's recorder draws sequence numbers from the same clock so
/// that events from different VMs interleave in a single total order —
/// the property the provenance reconstruction sorts by. In the simulated
/// cluster all VMs live in one process, so an `Arc<AtomicU64>` is an
/// exact Lamport clock, not an approximation.
#[derive(Debug, Clone, Default)]
pub struct ObsClock {
    next: Arc<AtomicU64>,
}

impl ObsClock {
    /// Creates a clock starting at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next sequence number.
    pub fn tick(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// The number of ticks drawn so far.
    pub fn now(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct RecorderInner {
    node: String,
    clock: ObsClock,
    head: AtomicUsize,
    slots: Box<[Mutex<Option<ObsEvent>>]>,
    /// Events lost to ring wrap-around. The cluster passes the
    /// registry's `flight_dropped_events{node=…}` cell here, so
    /// overflow is visible in every exporter instead of silently
    /// discarding history.
    dropped: Counter,
}

/// A per-VM event ring. Cheap to clone; clones share the ring.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<RecorderInner>>,
}

impl FlightRecorder {
    /// A recorder whose every operation is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled recorder for VM `node`, holding up to `capacity`
    /// events and stamping them from `clock`. Overflow drops are counted
    /// in a detached cell; use [`FlightRecorder::with_drop_counter`] to
    /// count them in a registry metric.
    pub fn new(node: &str, capacity: usize, clock: ObsClock) -> Self {
        Self::with_drop_counter(node, capacity, clock, Counter::detached())
    }

    /// Like [`FlightRecorder::new`], counting each event lost to ring
    /// wrap-around in `dropped` — the cluster wires the
    /// `flight_dropped_events{node=…}` counter here so overflow shows up
    /// in metric dumps, scrapes and the text report.
    pub fn with_drop_counter(
        node: &str,
        capacity: usize,
        clock: ObsClock,
        dropped: Counter,
    ) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Arc::new(RecorderInner {
                node: node.to_string(),
                clock,
                head: AtomicUsize::new(0),
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                dropped,
            })),
        }
    }

    /// Whether events are actually being retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event produced by `make`, if enabled.
    ///
    /// When the recorder is disabled `make` is **not called** — the
    /// closure's allocations (tag strings, span vectors) are never
    /// performed. Hot paths should do all event-only work inside the
    /// closure.
    pub fn record_with(&self, make: impl FnOnce() -> ObsEventKind) {
        let Some(inner) = &self.inner else { return };
        let kind = make();
        let seq = inner.clock.tick();
        let idx = inner.head.fetch_add(1, Ordering::Relaxed);
        let slot = &inner.slots[idx % inner.slots.len()];
        let mut guard = slot.lock();
        if guard.is_some() {
            inner.dropped.inc();
        }
        *guard = Some(ObsEvent {
            seq,
            node: inner.node.clone(),
            kind,
        });
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<ObsEvent> = inner
            .slots
            .iter()
            .filter_map(|s| s.lock().clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Number of events recorded since creation (including overwritten
    /// ones).
    pub fn recorded(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.head.load(Ordering::Relaxed) as u64,
            None => 0,
        }
    }

    /// Number of events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.get(),
            None => 0,
        }
    }

    /// The node name this recorder stamps, if enabled.
    pub fn node(&self) -> Option<&str> {
        self.inner.as_deref().map(|i| i.node.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mint(taint: u32) -> ObsEventKind {
        ObsEventKind::SourceMinted {
            taint,
            tag: format!("tag-{taint}"),
            span: 0,
        }
    }

    #[test]
    fn disabled_recorder_never_evaluates_closure() {
        let rec = FlightRecorder::disabled();
        let mut called = false;
        rec.record_with(|| {
            called = true;
            mint(0)
        });
        assert!(!called, "disabled recorder must not build the event");
        assert!(rec.events().is_empty());
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn events_come_back_in_order() {
        let rec = FlightRecorder::new("n1", 16, ObsClock::new());
        for i in 0..5 {
            rec.record_with(|| mint(i));
        }
        let events = rec.events();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.iter().all(|e| e.node == "n1"));
    }

    #[test]
    fn ring_keeps_most_recent_when_full() {
        let rec = FlightRecorder::new("n1", 4, ObsClock::new());
        for i in 0..10 {
            rec.record_with(|| mint(i));
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let taints: Vec<u32> = events
            .iter()
            .map(|e| match &e.kind {
                ObsEventKind::SourceMinted { taint, .. } => *taint,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(taints, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drop_counter_mirrors_ring_overwrites() {
        let c = Counter::detached();
        let rec = FlightRecorder::with_drop_counter("n1", 4, ObsClock::new(), c.clone());
        for i in 0..10 {
            rec.record_with(|| mint(i));
        }
        assert_eq!(rec.dropped(), 6);
        assert_eq!(c.get(), 6, "registry counter tracks every overwrite");
    }

    #[test]
    fn shared_clock_orders_across_recorders() {
        let clock = ObsClock::new();
        let a = FlightRecorder::new("a", 8, clock.clone());
        let b = FlightRecorder::new("b", 8, clock.clone());
        a.record_with(|| mint(1));
        b.record_with(|| mint(2));
        a.record_with(|| mint(3));
        let mut all = a.events();
        all.extend(b.events());
        all.sort_by_key(|e| e.seq);
        let nodes: Vec<&str> = all.iter().map(|e| e.node.as_str()).collect();
        assert_eq!(nodes, vec!["a", "b", "a"]);
        assert_eq!(clock.now(), 3);
    }

    #[test]
    fn concurrent_writers_keep_ring_consistent() {
        let rec = FlightRecorder::new("n1", 1024, ObsClock::new());
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..64 {
                        rec.record_with(|| mint(t * 1000 + i));
                    }
                });
            }
        });
        let events = rec.events();
        assert_eq!(events.len(), 512);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 512);
    }
}
