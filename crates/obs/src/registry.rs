//! The lock-light metrics registry.
//!
//! A [`MetricsRegistry`] is a named collection of *instruments* —
//! [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, optionally
//! labeled into families (`boundary_data_bytes{node=n1,dir=out}`).
//! Instrument handles are cheap `Arc` clones around atomics: hot paths
//! resolve a handle once at construction time and then pay one relaxed
//! atomic op per update. The registry itself is only locked when a new
//! instrument is interned or a snapshot is taken.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A label set: sorted `(key, value)` pairs identifying one member of an
/// instrument family.
pub type Labels = Vec<(String, String)>;

fn label_vec(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

/// Stripes per [`Counter`]: threads beyond this many share stripes.
const STRIPES: usize = 8;

/// One counter stripe, alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// The next stripe handed to a thread that updates its first counter.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe in every counter, picked round-robin once.
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Monotonically increasing event/byte counter.
///
/// Striped per thread: an update writes only its thread's stripe, so
/// threads on two cores share no cache line; a read sums them exactly.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    stripes: Arc<[Stripe; STRIPES]>,
}

impl Counter {
    /// A counter not connected to any registry (still functional).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        let stripe = MY_STRIPE.with(|&stripe| stripe);
        self.stripes[stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts `n` (rollback of an optimistic count).
    pub fn sub(&self, n: u64) {
        self.add(n.wrapping_neg());
    }

    /// Current value: the wrapping sum of every stripe.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0, |sum, s| sum.wrapping_add(s.0.load(Ordering::Relaxed)))
    }

    /// Zeroes the counter (between benchmark phases).
    pub fn reset(&self) {
        for s in self.stripes.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-write-wins floating point gauge (stored as `f64` bits).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A gauge not connected to any registry.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Fixed-bucket latency/size histogram.
///
/// Bucket bounds are inclusive upper edges in the instrument's unit
/// (microseconds for latencies, items for batch sizes); one implicit
/// `+Inf` bucket catches the rest. Observation is two relaxed atomic adds
/// plus a linear scan over a handful of bounds — no locks.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells; the last one is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Default bounds for latency histograms, in microseconds.
pub const LATENCY_US_BOUNDS: &[u64] = &[10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000];

/// Default bounds for batch-size histograms, in items.
pub const BATCH_SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

impl Histogram {
    /// Creates a detached histogram with the given inclusive upper
    /// bucket bounds (must be sorted ascending).
    pub fn detached(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds sorted");
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bucket bound containing the `q`-quantile observation
    /// (`0.0 <= q <= 1.0`), or 0 when empty. Resolution is the bucket
    /// grid: p99 of values that all landed in the `<=500` bucket reports
    /// 500. Observations past the last bound report `u64::MAX` — a
    /// deliberately alarming value for latency SLO gates.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bound, count) in self.buckets() {
            seen += count;
            if seen >= rank {
                return bound;
            }
        }
        u64::MAX
    }

    /// `(upper_bound, count)` pairs; the final pair uses `u64::MAX` as
    /// the overflow bound.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.inner
            .bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for b in &self.inner.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.inner.count.store(0, Ordering::Relaxed);
        self.inner.sum.store(0, Ordering::Relaxed);
    }

    /// The inclusive upper bucket bounds this histogram was built with
    /// (the implicit overflow bucket is not listed).
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Folds `other`'s observations into `self` bucket-by-bucket.
    ///
    /// Merging is how the telemetry collector combines per-VM
    /// histograms into one cluster-wide distribution: counts, sums and
    /// bucket tallies add, so `count`, `sum`, `mean` are exact after a
    /// merge and `quantile` stays correct to bucket resolution (see the
    /// `merge_prop` property suite for the formal bound). `other` is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging histograms on
    /// different grids silently misbins, so it is refused outright.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.inner.bounds, other.inner.bounds,
            "histogram merge requires identical bucket bounds"
        );
        for (mine, theirs) in self.inner.buckets.iter().zip(other.inner.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.inner.count.fetch_add(other.count(), Ordering::Relaxed);
        self.inner.sum.fetch_add(other.sum(), Ordering::Relaxed);
    }

    /// Rebuilds a detached histogram from dumped `(upper_bound, count)`
    /// pairs (as produced by [`Histogram::buckets`] and carried in
    /// [`SampleValue::Histogram`]) plus the observed sum. The final pair
    /// must be the `u64::MAX` overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty or its last bound is not the
    /// overflow marker.
    pub fn from_buckets(buckets: &[(u64, u64)], sum: u64) -> Self {
        assert!(
            buckets.last().is_some_and(|(b, _)| *b == u64::MAX),
            "bucket dump must end with the u64::MAX overflow bucket"
        );
        let bounds: Vec<u64> = buckets[..buckets.len() - 1]
            .iter()
            .map(|(b, _)| *b)
            .collect();
        let count: u64 = buckets.iter().map(|(_, c)| *c).sum();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds,
                buckets: buckets.iter().map(|(_, c)| AtomicU64::new(*c)).collect(),
                count: AtomicU64::new(count),
                sum: AtomicU64::new(sum),
            }),
        }
    }
}

#[derive(Default)]
struct RegistryState {
    counters: BTreeMap<(String, Labels), Counter>,
    gauges: BTreeMap<(String, Labels), Gauge>,
    histograms: BTreeMap<(String, Labels), Histogram>,
}

/// A named collection of instruments shared by every layer of one
/// simulated cluster.
///
/// Cloning is cheap; all clones observe the same instruments. See the
/// module docs for the locking discipline.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    state: Arc<Mutex<RegistryState>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &st.counters.len())
            .field("gauges", &st.gauges.len())
            .field("histograms", &st.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The unlabeled counter `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// The counter `name{labels}` (created on first use).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.state
            .lock()
            .counters
            .entry((name.to_string(), label_vec(labels)))
            .or_default()
            .clone()
    }

    /// The unlabeled gauge `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// The gauge `name{labels}` (created on first use).
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.state
            .lock()
            .gauges
            .entry((name.to_string(), label_vec(labels)))
            .or_default()
            .clone()
    }

    /// The unlabeled histogram `name` (created on first use with the
    /// given bounds; later calls reuse the existing instrument).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// The histogram `name{labels}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        self.state
            .lock()
            .histograms
            .entry((name.to_string(), label_vec(labels)))
            .or_insert_with(|| Histogram::detached(bounds))
            .clone()
    }

    /// Point-in-time dump of every instrument.
    pub fn snapshot(&self) -> MetricsDump {
        let st = self.state.lock();
        let mut samples = Vec::new();
        for ((name, labels), c) in &st.counters {
            samples.push(Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: SampleValue::Counter(c.get()),
            });
        }
        for ((name, labels), g) in &st.gauges {
            samples.push(Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: SampleValue::Gauge(g.get()),
            });
        }
        for ((name, labels), h) in &st.histograms {
            samples.push(Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: SampleValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.buckets(),
                },
            });
        }
        MetricsDump { samples }
    }

    /// Zeroes every instrument (between benchmark phases). Handles stay
    /// valid.
    pub fn reset(&self) {
        let st = self.state.lock();
        for c in st.counters.values() {
            c.reset();
        }
        for g in st.gauges.values() {
            g.reset();
        }
        for h in st.histograms.values() {
            h.reset();
        }
    }
}

/// One instrument's value in a [`MetricsDump`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// `(upper_bound, count)` pairs, overflow bucket last.
        buckets: Vec<(u64, u64)>,
    },
}

/// One named, labeled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// The value.
    pub value: SampleValue,
}

impl Sample {
    fn render_key(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            let labels: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{}{{{}}}", self.name, labels.join(","))
        }
    }
}

/// Point-in-time view of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsDump {
    /// Every sample, sorted by (kind, name, labels).
    pub samples: Vec<Sample>,
}

impl MetricsDump {
    /// Sum of every counter named `name` across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// The gauge named `name` with exactly these labels, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let want = label_vec(labels);
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .and_then(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Plain-text rendering, one instrument per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{} {v}\n", s.render_key()));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("{} {v:.4}\n", s.render_key()));
                }
                SampleValue::Histogram { count, sum, .. } => {
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        *sum as f64 / *count as f64
                    };
                    out.push_str(&format!(
                        "{} count={count} sum={sum} mean={mean:.1}\n",
                        s.render_key()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_walks_bucket_bounds() {
        let h = Histogram::detached(&[10, 100, 1000]);
        assert_eq!(h.quantile(0.99), 0, "empty histogram");
        for _ in 0..90 {
            h.observe(5); // <=10 bucket
        }
        for _ in 0..9 {
            h.observe(50); // <=100 bucket
        }
        h.observe(5000); // overflow
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.9), 10);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(1.0), u64::MAX, "overflow observation");
    }

    #[test]
    fn counters_are_shared_by_name_and_labels() {
        let r = MetricsRegistry::new();
        r.counter("hits").add(2);
        r.counter("hits").inc();
        assert_eq!(r.counter("hits").get(), 3);
        r.counter_with("hits", &[("node", "n1")]).inc();
        assert_eq!(r.counter("hits").get(), 3, "labeled member is distinct");
        assert_eq!(r.counter_with("hits", &[("node", "n1")]).get(), 1);
    }

    #[test]
    fn a_counter_sums_every_threads_adds_exactly() {
        let c = Counter::detached();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..100_000).for_each(|_| c.inc()));
            }
        });
        assert_eq!(c.get(), 400_000);
        // An undo from a fifth thread may take its stripe below zero:
        // the wrapping sum is still the exact count.
        std::thread::scope(|s| {
            s.spawn(|| c.sub(7));
        });
        assert_eq!(c.get(), 399_993);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let r = MetricsRegistry::new();
        r.counter_with("x", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.counter_with("x", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    fn gauge_set_get() {
        let r = MetricsRegistry::new();
        r.gauge("ratio").set(5.25);
        assert_eq!(r.gauge("ratio").get(), 5.25);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::detached(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5_055);
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(10, 1), (100, 1), (u64::MAX, 1)]);
        assert!((h.mean() - 1685.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_collects_everything() {
        let r = MetricsRegistry::new();
        r.counter("c").add(7);
        r.gauge("g").set(1.5);
        r.histogram("h", &[1]).observe(9);
        let dump = r.snapshot();
        assert_eq!(dump.samples.len(), 3);
        assert_eq!(dump.counter_total("c"), 7);
        assert_eq!(dump.gauge_value("g", &[]), Some(1.5));
        let text = dump.render_text();
        assert!(text.contains("c 7"));
        assert!(text.contains("g 1.5000"));
        assert!(text.contains("h count=1 sum=9"));
    }

    #[test]
    fn counter_total_sums_family_members() {
        let r = MetricsRegistry::new();
        r.counter_with("bytes", &[("node", "n1")]).add(3);
        r.counter_with("bytes", &[("node", "n2")]).add(4);
        assert_eq!(r.snapshot().counter_total("bytes"), 7);
    }

    #[test]
    fn merge_adds_buckets_counts_and_sums() {
        let a = Histogram::detached(&[10, 100]);
        let b = Histogram::detached(&[10, 100]);
        a.observe(5);
        a.observe(500);
        b.observe(5);
        b.observe(50);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 560);
        assert_eq!(a.buckets(), vec![(10, 2), (100, 1), (u64::MAX, 1)]);
        // `b` is untouched.
        assert_eq!(b.count(), 2);
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn merge_refuses_mismatched_bounds() {
        Histogram::detached(&[10]).merge(&Histogram::detached(&[20]));
    }

    #[test]
    fn from_buckets_round_trips_a_dump() {
        let h = Histogram::detached(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        let rebuilt = Histogram::from_buckets(&h.buckets(), h.sum());
        assert_eq!(rebuilt.count(), 3);
        assert_eq!(rebuilt.sum(), h.sum());
        assert_eq!(rebuilt.buckets(), h.buckets());
        assert_eq!(rebuilt.quantile(0.5), h.quantile(0.5));
        assert_eq!(rebuilt.bounds(), &[10, 100]);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_live() {
        let r = MetricsRegistry::new();
        let c = r.counter("c");
        c.add(5);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("c").get(), 1);
    }
}
