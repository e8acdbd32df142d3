//! Sink-point recording (paper §V-D).
//!
//! The evaluation checks "at sink points if any taint is dropped or
//! appears unexpectedly". [`SinkRecorder`] is the per-VM component that
//! records every sink invocation, so tests and benches can assert exact
//! soundness (no expected tag missing) and precision (no unexpected tag
//! present) in the [`SinkReport`] it renders.
//!
//! A hit is recorded as a handle, not as text: 8 bytes, the sink's index
//! in a small name table and the [`Taint`] checked. The tree is
//! append-only and tag values never change, so the report renders the
//! same names and tags on read as rendering at the check would have.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::store::TaintStore;
use crate::tree::Taint;

/// One observed sink invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkEvent {
    /// `Class.method` of the sink point.
    pub sink: String,
    /// Rendered tag values present on the checked data, sorted.
    pub tags: Vec<String>,
    /// The raw taint handle (valid in the recording VM's tree).
    pub taint: Taint,
}

impl SinkEvent {
    /// Whether the checked data carried any taint.
    pub fn is_tainted(&self) -> bool {
        !self.tags.is_empty()
    }
}

/// Aggregated view of everything a VM's sinks observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SinkReport {
    /// All events in invocation order.
    pub events: Vec<SinkEvent>,
}

impl SinkReport {
    /// Events at a particular sink point.
    pub fn at(&self, sink: &str) -> Vec<&SinkEvent> {
        self.events.iter().filter(|e| e.sink == sink).collect()
    }

    /// Distinct tag values observed anywhere, sorted.
    pub fn observed_tags(&self) -> Vec<String> {
        let mut tags: Vec<String> = self
            .events
            .iter()
            .flat_map(|e| e.tags.iter().cloned())
            .collect();
        tags.sort();
        tags.dedup();
        tags
    }

    /// True if some event observed exactly this tag set (sorted compare).
    pub fn saw_exactly(&self, sink: &str, mut expected: Vec<String>) -> bool {
        expected.sort();
        self.at(sink).iter().any(|e| {
            let mut got = e.tags.clone();
            got.sort();
            got == expected
        })
    }

    /// Number of tainted events (events whose data carried ≥1 tag).
    pub fn tainted_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_tainted()).count()
    }
}

/// One recorded hit: the sink's index in the recorder's name table and
/// the checked taint. 8 bytes.
#[derive(Debug, Clone, Copy)]
struct Hit {
    sink: u32,
    taint: Taint,
}

#[derive(Debug, Default)]
struct Hits {
    /// Each sink name once, in first-hit order. A VM has a handful of
    /// sink points, so a scan finds a name.
    names: Vec<String>,
    hits: Vec<Hit>,
}

impl Hits {
    /// The index of the sink named by `parts` joined with `.`, added on
    /// its first hit.
    fn intern(&mut self, parts: &[&str]) -> u32 {
        let found = self.names.iter().position(|name| is_joined(name, parts));
        let at = found.unwrap_or_else(|| {
            self.names.push(parts.join("."));
            self.names.len() - 1
        });
        at as u32
    }
}

/// Whether `name` is `parts` joined with `.`, without joining them.
fn is_joined(name: &str, parts: &[&str]) -> bool {
    let mut rest = name;
    for (i, part) in parts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "." };
        let Some(r) = rest.strip_prefix(sep).and_then(|r| r.strip_prefix(part)) else {
            return false;
        };
        rest = r;
    }
    rest.is_empty()
}

/// Thread-safe per-VM sink recorder.
///
/// A hit keeps an 8-byte handle; [`SinkRecorder::report`] renders the
/// names and tags when it is called (see the module docs).
///
/// # Example
///
/// ```rust
/// use dista_taint::{TaintStore, LocalId, TagValue, SinkRecorder};
///
/// let store = TaintStore::new(LocalId::default());
/// let recorder = SinkRecorder::new(&store);
/// let t = store.mint_source_taint(TagValue::str("secret"));
/// assert!(recorder.check(&["Logger", "info"], t));
/// let report = recorder.report();
/// assert_eq!(report.events.len(), 1);
/// assert_eq!(report.events[0].sink, "Logger.info");
/// assert_eq!(report.events[0].tags, vec!["secret".to_string()]);
/// ```
#[derive(Debug, Clone)]
pub struct SinkRecorder {
    inner: Arc<RecorderInner>,
}

#[derive(Debug)]
struct RecorderInner {
    store: TaintStore,
    hits: Mutex<Hits>,
}

impl SinkRecorder {
    /// Creates an empty recorder whose reports render taints of `store`.
    pub fn new(store: &TaintStore) -> Self {
        SinkRecorder {
            inner: Arc::new(RecorderInner {
                store: store.clone(),
                hits: Mutex::default(),
            }),
        }
    }

    /// Records a sink invocation that checked data with taint `taint`;
    /// the sink's name is `sink`'s parts joined with `.` (`["LOG",
    /// "info"]` and `["LOG.info"]` name the same sink).
    ///
    /// Returns `true` if the data was tainted (useful for inline asserts).
    pub fn check(&self, sink: &[&str], taint: Taint) -> bool {
        let mut hits = self.inner.hits.lock();
        let sink = hits.intern(sink);
        hits.hits.push(Hit { sink, taint });
        !taint.is_empty()
    }

    /// Snapshot of all events so far, rendered now.
    pub fn report(&self) -> SinkReport {
        let (names, hits) = {
            let hits = self.inner.hits.lock();
            (hits.names.clone(), hits.hits.clone())
        };
        let events = hits
            .into_iter()
            .map(|hit| SinkEvent {
                sink: names[hit.sink as usize].clone(),
                tags: self.inner.store.tag_values(hit.taint),
                taint: hit.taint,
            })
            .collect();
        SinkReport { events }
    }

    /// Clears recorded events (between benchmark iterations).
    pub fn reset(&self) {
        self.inner.hits.lock().hits.clear();
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.hits.lock().hits.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.hits.lock().hits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{LocalId, TagValue};

    #[test]
    fn records_in_order() {
        let store = TaintStore::new(LocalId::default());
        let rec = SinkRecorder::new(&store);
        let a = store.mint_source_taint(TagValue::str("a"));
        rec.check(&["S.one"], a);
        rec.check(&["S.two"], Taint::EMPTY);
        let report = rec.report();
        assert_eq!(report.events.len(), 2);
        assert!(report.events[0].is_tainted());
        assert!(!report.events[1].is_tainted());
        assert_eq!(report.tainted_count(), 1);
    }

    #[test]
    fn saw_exactly_matches_tag_sets() {
        let store = TaintStore::new(LocalId::default());
        let rec = SinkRecorder::new(&store);
        let a = store.mint_source_taint(TagValue::str("a"));
        let b = store.mint_source_taint(TagValue::str("b"));
        rec.check(&["check"], store.union(a, b));
        let report = rec.report();
        assert!(report.saw_exactly("check", vec!["b".into(), "a".into()]));
        assert!(!report.saw_exactly("check", vec!["a".into()]));
        assert!(!report.saw_exactly("other", vec!["a".into()]));
    }

    #[test]
    fn observed_tags_dedup() {
        let store = TaintStore::new(LocalId::default());
        let rec = SinkRecorder::new(&store);
        let a = store.mint_source_taint(TagValue::str("a"));
        rec.check(&["s"], a);
        rec.check(&["s"], a);
        assert_eq!(rec.report().observed_tags(), vec!["a".to_string()]);
    }

    #[test]
    fn reset_clears() {
        let store = TaintStore::new(LocalId::default());
        let rec = SinkRecorder::new(&store);
        rec.check(&["s"], Taint::EMPTY);
        assert!(!rec.is_empty());
        rec.reset();
        assert!(rec.is_empty());
        assert_eq!(rec.len(), 0);
    }

    #[test]
    fn a_name_given_in_parts_is_the_same_sink() {
        let store = TaintStore::new(LocalId::default());
        let rec = SinkRecorder::new(&store);
        rec.check(&["LOG", "info"], Taint::EMPTY);
        rec.check(&["LOG.info"], Taint::EMPTY);
        rec.check(&["LOG", "infos"], Taint::EMPTY);
        rec.check(&["LOGinfo"], Taint::EMPTY);
        let sinks: Vec<String> = rec.report().events.into_iter().map(|e| e.sink).collect();
        assert_eq!(sinks, ["LOG.info", "LOG.info", "LOG.infos", "LOGinfo"]);
        assert_eq!(rec.inner.hits.lock().names.len(), 3);
    }

    #[test]
    fn a_report_renders_what_the_check_saw() {
        let store = TaintStore::new(LocalId::default());
        let rec = SinkRecorder::new(&store);
        let a = store.mint_source_taint(TagValue::str("a"));
        let b = store.mint_source_taint(TagValue::str("b"));
        let ab = store.union(a, b);
        rec.check(&["s"], ab);
        let at_check = store.tag_values(ab);
        // Later mints and unions only append to the tree.
        let c = store.mint_source_taint(TagValue::str("c"));
        store.union(ab, c);
        assert_eq!(rec.report().events[0].tags, at_check);
    }

    #[test]
    fn clones_share_event_log() {
        let store = TaintStore::new(LocalId::default());
        let rec = SinkRecorder::new(&store);
        let clone = rec.clone();
        clone.check(&["s"], Taint::EMPTY);
        assert_eq!(rec.len(), 1);
    }
}
