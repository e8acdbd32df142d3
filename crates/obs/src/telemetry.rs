//! Live telemetry plane: per-VM agents push metric deltas to a cluster
//! collector that serves Prometheus-style scrapes.
//!
//! The data structures live here (leaf crate, no transport); the SimNet
//! plumbing — the collector's accept and reader threads, the agent
//! ticks, the in-simulation scrape endpoint — is `dista-core`'s
//! `telemetry` module.
//!
//! # Push protocol
//!
//! A [`TelemetryAgent`] snapshots the shared [`MetricsRegistry`] on
//! every tick and emits a *delta frame*: a line-oriented text frame
//! listing only the samples whose value changed since the agent's last
//! push (values themselves stay cumulative, so a lost frame degrades to
//! a late update, never a wrong one):
//!
//! ```text
//! agent <node> <push_seq>
//! c <name> <labels> <value>
//! g <name> <labels> <f64-bits>
//! h <name> <labels> <sum> <bound>:<count> … <max>:<count>
//! end
//! ```
//!
//! `<labels>` is `k=v,k=v` in sorted order, or `-` when unlabeled.
//! Gauges ship their IEEE-754 bit pattern so the text round-trip is
//! exact. Histogram bucket bounds ride along in every line, so the
//! [`Collector`] can rebuild (and merge) histograms without sharing
//! bound tables out of band.
//!
//! # Collector
//!
//! The [`Collector`] keeps, per node, the latest cumulative value of
//! every sample plus a bounded ring of per-push deltas (the time
//! series), and merges histogram families across VMs via
//! [`Histogram::merge`] for true cluster-wide quantiles.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::registry::{Histogram, Labels, MetricsDump, MetricsRegistry, Sample, SampleValue};

/// What a [`TelemetryAgent`] considers "its" samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentScope {
    /// Samples carrying a `node=<agent node>` label — the per-VM agent
    /// of a cluster whose VMs share one registry.
    NodeLabeled,
    /// Every sample in the registry — a whole-process agent.
    All,
}

/// Per-VM telemetry agent: snapshots a registry and emits delta frames.
#[derive(Debug)]
pub struct TelemetryAgent {
    node: String,
    registry: MetricsRegistry,
    scope: AgentScope,
    push_seq: u64,
    last: BTreeMap<(String, Labels), String>,
}

fn render_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        "-".to_string()
    } else {
        let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        parts.join(",")
    }
}

fn parse_labels(field: &str) -> Result<Labels, String> {
    if field == "-" {
        return Ok(Vec::new());
    }
    let mut labels: Labels = Vec::new();
    for pair in field.split(',') {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("malformed label pair {pair:?}"))?;
        labels.push((k.to_string(), v.to_string()));
    }
    labels.sort();
    Ok(labels)
}

fn render_value(value: &SampleValue) -> String {
    match value {
        SampleValue::Counter(v) => v.to_string(),
        SampleValue::Gauge(v) => v.to_bits().to_string(),
        SampleValue::Histogram { sum, buckets, .. } => {
            let mut out = sum.to_string();
            for (bound, count) in buckets {
                out.push_str(&format!(" {bound}:{count}"));
            }
            out
        }
    }
}

impl TelemetryAgent {
    /// An agent for VM `node`, pushing the samples labeled
    /// `node=<node>` out of the cluster-shared `registry`.
    pub fn for_node(node: &str, registry: MetricsRegistry) -> Self {
        Self::with_scope(node, registry, AgentScope::NodeLabeled)
    }

    /// An agent with an explicit [`AgentScope`].
    pub fn with_scope(node: &str, registry: MetricsRegistry, scope: AgentScope) -> Self {
        TelemetryAgent {
            node: node.to_string(),
            registry,
            scope,
            push_seq: 0,
            last: BTreeMap::new(),
        }
    }

    /// The node name stamped into every frame header.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Number of frames emitted so far.
    pub fn pushes(&self) -> u64 {
        self.push_seq
    }

    fn in_scope(&self, sample: &Sample) -> bool {
        match self.scope {
            AgentScope::All => true,
            AgentScope::NodeLabeled => sample
                .labels
                .iter()
                .any(|(k, v)| k == "node" && *v == self.node),
        }
    }

    /// Snapshots the registry and renders the delta since the last
    /// push. Returns `None` when nothing in scope changed (no frame
    /// goes on the wire — an idle cluster costs one snapshot per tick
    /// and zero bytes).
    pub fn delta_frame(&mut self) -> Option<String> {
        let dump = self.registry.snapshot();
        let mut lines: Vec<String> = Vec::new();
        for sample in dump.samples.iter() {
            if !self.in_scope(sample) {
                continue;
            }
            let kind = match sample.value {
                SampleValue::Counter(_) => 'c',
                SampleValue::Gauge(_) => 'g',
                SampleValue::Histogram { .. } => 'h',
            };
            let line = format!(
                "{kind} {} {} {}",
                sample.name,
                render_labels(&sample.labels),
                render_value(&sample.value)
            );
            let key = (sample.name.clone(), sample.labels.clone());
            if self.last.get(&key) != Some(&line) {
                self.last.insert(key, line.clone());
                lines.push(line);
            }
        }
        if lines.is_empty() {
            return None;
        }
        self.push_seq += 1;
        let mut frame = format!("agent {} {}\n", self.node, self.push_seq);
        for line in lines {
            frame.push_str(&line);
            frame.push('\n');
        }
        frame.push_str("end\n");
        Some(frame)
    }
}

/// One parsed delta frame, as retained in a node's time-series ring.
#[derive(Debug, Clone, PartialEq)]
pub struct PushPoint {
    /// The agent's frame sequence number (1-based, per node).
    pub push_seq: u64,
    /// The samples whose (cumulative) values this push updated.
    pub samples: Vec<Sample>,
}

/// Tuning knobs for the [`Collector`].
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Per-node time-series ring capacity, in pushes. Older pushes are
    /// dropped (counted by [`Collector::ring_dropped`]); the latest
    /// cumulative values are never dropped.
    pub ring_capacity: usize,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig { ring_capacity: 512 }
    }
}

#[derive(Debug, Default)]
struct NodeSeries {
    last_push_seq: u64,
    latest: BTreeMap<(String, Labels), SampleValue>,
    ring: VecDeque<PushPoint>,
}

/// The cluster telemetry collector: latest values + bounded per-node
/// time-series rings + cross-VM histogram merging + scrape exposition.
///
/// Transport-free: `dista-core` feeds it frames received over SimNet
/// and serves its expositions from the in-simulation scrape endpoint,
/// and tests can drive it directly.
#[derive(Debug, Default)]
pub struct Collector {
    config: CollectorConfig,
    nodes: Mutex<BTreeMap<String, NodeSeries>>,
    frames_ingested: AtomicU64,
    samples_ingested: AtomicU64,
    parse_errors: AtomicU64,
    ring_dropped: AtomicU64,
    scrapes_served: AtomicU64,
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let mut fields = line.split_whitespace();
    let kind = fields.next().ok_or("empty sample line")?;
    let name = fields.next().ok_or("missing sample name")?.to_string();
    let labels = parse_labels(fields.next().ok_or("missing labels")?)?;
    let value = match kind {
        "c" => SampleValue::Counter(
            fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("bad counter value")?,
        ),
        "g" => SampleValue::Gauge(f64::from_bits(
            fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("bad gauge bits")?,
        )),
        "h" => {
            let sum: u64 = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("bad histogram sum")?;
            let mut buckets: Vec<(u64, u64)> = Vec::new();
            for pair in fields.by_ref() {
                let (bound, count) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("malformed bucket {pair:?}"))?;
                buckets.push((
                    bound.parse().map_err(|_| "bad bucket bound")?,
                    count.parse().map_err(|_| "bad bucket count")?,
                ));
            }
            if buckets.last().map(|(b, _)| *b) != Some(u64::MAX) {
                return Err("histogram missing overflow bucket".to_string());
            }
            let count = buckets.iter().map(|(_, c)| *c).sum();
            SampleValue::Histogram {
                count,
                sum,
                buckets,
            }
        }
        other => return Err(format!("unknown sample kind {other:?}")),
    };
    if fields.next().is_some() && kind != "h" {
        return Err("trailing fields on sample line".to_string());
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

impl Collector {
    /// A collector with default config.
    pub fn new() -> Self {
        Self::with_config(CollectorConfig::default())
    }

    /// A collector with explicit knobs.
    pub fn with_config(config: CollectorConfig) -> Self {
        Collector {
            config,
            ..Default::default()
        }
    }

    /// Ingests one delta frame. Malformed frames count as parse errors
    /// and leave prior state untouched.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn ingest(&self, frame: &str) -> Result<(), String> {
        let result = self.ingest_inner(frame);
        if result.is_err() {
            self.parse_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn ingest_inner(&self, frame: &str) -> Result<(), String> {
        let mut lines = frame.lines();
        let header = lines.next().ok_or("empty frame")?;
        let mut hf = header.split_whitespace();
        if hf.next() != Some("agent") {
            return Err(format!("bad frame header {header:?}"));
        }
        let node = hf.next().ok_or("missing node in header")?.to_string();
        let push_seq: u64 = hf
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("bad push_seq in header")?;
        let mut samples: Vec<Sample> = Vec::new();
        let mut terminated = false;
        for line in lines {
            if line == "end" {
                terminated = true;
                break;
            }
            samples.push(parse_sample(line)?);
        }
        if !terminated {
            return Err("frame missing end marker".to_string());
        }
        let mut nodes = self.nodes.lock();
        let series = nodes.entry(node).or_default();
        series.last_push_seq = push_seq;
        for s in &samples {
            series
                .latest
                .insert((s.name.clone(), s.labels.clone()), s.value.clone());
        }
        self.samples_ingested
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        series.ring.push_back(PushPoint { push_seq, samples });
        while series.ring.len() > self.config.ring_capacity.max(1) {
            series.ring.pop_front();
            self.ring_dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.frames_ingested.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Node names seen so far.
    pub fn nodes(&self) -> Vec<String> {
        self.nodes.lock().keys().cloned().collect()
    }

    /// The retained time series (oldest push first) for `node`.
    pub fn series(&self, node: &str) -> Vec<PushPoint> {
        self.nodes
            .lock()
            .get(node)
            .map(|s| s.ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The latest cumulative values across every node, as one dump.
    /// Samples are disambiguated by their label sets (per-VM metrics
    /// carry `node=` labels); identical keys from different agents are
    /// last-write-wins.
    pub fn latest_dump(&self) -> MetricsDump {
        let nodes = self.nodes.lock();
        let mut merged: BTreeMap<(String, Labels), SampleValue> = BTreeMap::new();
        for series in nodes.values() {
            for (key, value) in &series.latest {
                merged.insert(key.clone(), value.clone());
            }
        }
        MetricsDump {
            samples: merged
                .into_iter()
                .map(|((name, labels), value)| Sample {
                    name,
                    labels,
                    value,
                })
                .collect(),
        }
    }

    /// Merges every latest histogram sample named `name` (across all
    /// nodes and label sets) into one cluster-wide histogram, or `None`
    /// when no node has pushed one yet.
    pub fn merged_histogram(&self, name: &str) -> Option<Histogram> {
        let nodes = self.nodes.lock();
        let mut merged: Option<Histogram> = None;
        for series in nodes.values() {
            for ((n, _), value) in &series.latest {
                if n != name {
                    continue;
                }
                if let SampleValue::Histogram { sum, buckets, .. } = value {
                    let h = Histogram::from_buckets(buckets, *sum);
                    match &merged {
                        Some(m) => m.merge(&h),
                        None => merged = Some(h),
                    }
                }
            }
        }
        merged
    }

    /// Histogram family names present in the latest values.
    fn histogram_families(&self) -> Vec<String> {
        let nodes = self.nodes.lock();
        let mut names: Vec<String> = Vec::new();
        for series in nodes.values() {
            for ((n, _), value) in &series.latest {
                if matches!(value, SampleValue::Histogram { .. }) && !names.contains(n) {
                    names.push(n.clone());
                }
            }
        }
        names.sort();
        names
    }

    /// Delta frames ingested successfully.
    pub fn frames_ingested(&self) -> u64 {
        self.frames_ingested.load(Ordering::Relaxed)
    }

    /// Samples ingested across all frames.
    pub fn samples_ingested(&self) -> u64 {
        self.samples_ingested.load(Ordering::Relaxed)
    }

    /// Frames rejected as malformed.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors.load(Ordering::Relaxed)
    }

    /// Time-series points evicted from full rings.
    pub fn ring_dropped(&self) -> u64 {
        self.ring_dropped.load(Ordering::Relaxed)
    }

    /// Scrapes served (text and JSON combined).
    pub fn scrapes_served(&self) -> u64 {
        self.scrapes_served.load(Ordering::Relaxed)
    }

    fn prom_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
        let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// Prometheus-style text exposition of the latest values, the
    /// cluster-merged histogram quantiles and the collector's own
    /// health counters. Counts as one served scrape.
    pub fn scrape_text(&self) -> String {
        let served = self.scrapes_served.fetch_add(1, Ordering::Relaxed) + 1;
        let dump = self.latest_dump();
        let mut out = String::new();
        for s in &dump.samples {
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        s.name,
                        Self::prom_labels(&s.labels, None)
                    ));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        s.name,
                        Self::prom_labels(&s.labels, None)
                    ));
                }
                SampleValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let mut cumulative = 0u64;
                    for (bound, c) in buckets {
                        cumulative += c;
                        let le = if *bound == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            bound.to_string()
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            s.name,
                            Self::prom_labels(&s.labels, Some(("le", &le)))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {sum}\n",
                        s.name,
                        Self::prom_labels(&s.labels, None)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {count}\n",
                        s.name,
                        Self::prom_labels(&s.labels, None)
                    ));
                }
            }
        }
        for family in self.histogram_families() {
            if let Some(h) = self.merged_histogram(&family) {
                for (q, label) in [(0.50, "p50"), (0.99, "p99"), (0.999, "p999")] {
                    out.push_str(&format!(
                        "{family}_cluster{{q=\"{label}\"}} {}\n",
                        h.quantile(q)
                    ));
                }
                out.push_str(&format!("{family}_cluster_count {}\n", h.count()));
            }
        }
        out.push_str(&format!(
            "dista_collector_frames_ingested_total {}\n",
            self.frames_ingested()
        ));
        out.push_str(&format!(
            "dista_collector_samples_ingested_total {}\n",
            self.samples_ingested()
        ));
        out.push_str(&format!(
            "dista_collector_parse_errors_total {}\n",
            self.parse_errors()
        ));
        out.push_str(&format!("dista_collector_scrapes_total {served}\n"));
        out
    }

    /// Hand-rolled JSON dump: latest values per sample plus the merged
    /// cluster quantiles and collector health. Counts as one served
    /// scrape.
    pub fn scrape_json(&self) -> String {
        let served = self.scrapes_served.fetch_add(1, Ordering::Relaxed) + 1;
        let dump = self.latest_dump();
        let mut samples: Vec<String> = Vec::new();
        for s in &dump.samples {
            let labels: Vec<String> = s
                .labels
                .iter()
                .map(|(k, v)| format!("\"{k}\":\"{v}\""))
                .collect();
            let value = match &s.value {
                SampleValue::Counter(v) => format!("\"counter\":{v}"),
                SampleValue::Gauge(v) => format!("\"gauge\":{v:?}"),
                SampleValue::Histogram { count, sum, .. } => {
                    format!("\"count\":{count},\"sum\":{sum}")
                }
            };
            samples.push(format!(
                "{{\"name\":\"{}\",\"labels\":{{{}}},{value}}}",
                s.name,
                labels.join(",")
            ));
        }
        let mut merged: Vec<String> = Vec::new();
        for family in self.histogram_families() {
            if let Some(h) = self.merged_histogram(&family) {
                merged.push(format!(
                    "\"{family}\":{{\"p50\":{},\"p99\":{},\"p999\":{},\"count\":{}}}",
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    h.count()
                ));
            }
        }
        let nodes: Vec<String> = self.nodes().iter().map(|n| format!("\"{n}\"")).collect();
        format!(
            "{{\"nodes\":[{}],\"samples\":[{}],\"merged\":{{{}}},\
             \"frames_ingested\":{},\"scrapes_served\":{served}}}",
            nodes.join(","),
            samples.join(","),
            merged.join(","),
            self.frames_ingested()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_node(node: &str) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter_with("reqs", &[("node", node)]).add(3);
        reg.gauge_with("load", &[("node", node)]).set(1.5);
        reg.histogram_with("lat_us", &[("node", node)], &[10, 100])
            .observe(50);
        reg
    }

    #[test]
    fn first_delta_is_full_then_only_changes() {
        let reg = registry_with_node("n1");
        let mut agent = TelemetryAgent::for_node("n1", reg.clone());
        let frame = agent.delta_frame().expect("first frame is full");
        assert!(frame.starts_with("agent n1 1\n"));
        assert!(frame.contains("c reqs node=n1 3"));
        assert!(frame.ends_with("end\n"));
        assert!(agent.delta_frame().is_none(), "nothing changed");
        reg.counter_with("reqs", &[("node", "n1")]).inc();
        let frame = agent.delta_frame().expect("counter changed");
        assert!(frame.contains("c reqs node=n1 4"));
        assert!(
            !frame.contains("g load"),
            "unchanged samples are not re-pushed"
        );
        assert_eq!(agent.pushes(), 2);
    }

    #[test]
    fn node_scope_excludes_other_nodes() {
        let reg = registry_with_node("n1");
        reg.counter_with("reqs", &[("node", "n2")]).add(9);
        reg.counter("global").add(1);
        let mut agent = TelemetryAgent::for_node("n1", reg);
        let frame = agent.delta_frame().unwrap();
        assert!(frame.contains("node=n1"));
        assert!(!frame.contains("node=n2"));
        assert!(!frame.contains("global"));
    }

    #[test]
    fn collector_round_trips_values() {
        let reg = registry_with_node("n1");
        let mut agent = TelemetryAgent::for_node("n1", reg);
        let collector = Collector::new();
        collector.ingest(&agent.delta_frame().unwrap()).unwrap();
        assert_eq!(collector.nodes(), vec!["n1"]);
        assert_eq!(collector.frames_ingested(), 1);
        let dump = collector.latest_dump();
        assert_eq!(dump.counter_total("reqs"), 3);
        assert_eq!(dump.gauge_value("load", &[("node", "n1")]), Some(1.5));
        let h = collector.merged_histogram("lat_us").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 100);
    }

    #[test]
    fn merged_histogram_spans_nodes() {
        let collector = Collector::new();
        for node in ["a", "b"] {
            let reg = MetricsRegistry::new();
            let h = reg.histogram_with("lat", &[("node", node)], &[10, 100]);
            h.observe(5);
            if node == "b" {
                for _ in 0..99 {
                    h.observe(500);
                }
            }
            let mut agent = TelemetryAgent::for_node(node, reg);
            collector.ingest(&agent.delta_frame().unwrap()).unwrap();
        }
        let merged = collector.merged_histogram("lat").unwrap();
        assert_eq!(merged.count(), 101);
        assert_eq!(merged.quantile(0.99), u64::MAX, "overflow dominates p99");
        assert_eq!(merged.quantile(0.01), 10);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let collector = Collector::with_config(CollectorConfig { ring_capacity: 2 });
        let reg = MetricsRegistry::new();
        let c = reg.counter_with("x", &[("node", "n1")]);
        let mut agent = TelemetryAgent::for_node("n1", reg.clone());
        for _ in 0..5 {
            c.inc();
            collector.ingest(&agent.delta_frame().unwrap()).unwrap();
        }
        let series = collector.series("n1");
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].push_seq, 4);
        assert_eq!(series[1].push_seq, 5);
        assert_eq!(collector.ring_dropped(), 3);
        assert_eq!(collector.frames_ingested(), 5);
    }

    #[test]
    fn malformed_frames_are_counted_not_applied() {
        let collector = Collector::new();
        assert!(collector.ingest("agent n1 zzz\nend\n").is_err());
        assert!(collector.ingest("agent n1 1\nc broken\nend\n").is_err());
        assert!(collector.ingest("agent n1 1\nc x - 1\n").is_err());
        assert_eq!(collector.parse_errors(), 3);
        assert_eq!(collector.frames_ingested(), 0);
        assert!(collector.nodes().is_empty() || collector.latest_dump().samples.is_empty());
    }

    #[test]
    fn scrape_text_is_prometheus_shaped_and_counts() {
        let reg = registry_with_node("n1");
        let mut agent = TelemetryAgent::for_node("n1", reg);
        let collector = Collector::new();
        collector.ingest(&agent.delta_frame().unwrap()).unwrap();
        let s1 = collector.scrape_text();
        assert!(s1.contains("reqs{node=\"n1\"} 3"));
        assert!(s1.contains("lat_us_bucket{node=\"n1\",le=\"10\"} 0"));
        assert!(s1.contains("lat_us_bucket{node=\"n1\",le=\"+Inf\"} 1"));
        assert!(s1.contains("lat_us_sum{node=\"n1\"} 50"));
        assert!(s1.contains("lat_us_count{node=\"n1\"} 1"));
        assert!(s1.contains("lat_us_cluster{q=\"p99\"} 100"));
        assert!(s1.contains("dista_collector_scrapes_total 1"));
        let s2 = collector.scrape_text();
        assert!(
            s2.contains("dista_collector_scrapes_total 2"),
            "scrape counter is monotone"
        );
        assert_eq!(collector.scrapes_served(), 2);
    }

    #[test]
    fn scrape_json_has_merged_quantiles() {
        let reg = registry_with_node("n1");
        let mut agent = TelemetryAgent::for_node("n1", reg);
        let collector = Collector::new();
        collector.ingest(&agent.delta_frame().unwrap()).unwrap();
        let json = collector.scrape_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"nodes\":[\"n1\"]"));
        assert!(json.contains("\"lat_us\":{\"p50\":100"));
        assert!(json.contains("\"scrapes_served\":1"));
    }

    #[test]
    fn gauge_bits_round_trip_exactly() {
        let reg = MetricsRegistry::new();
        reg.gauge_with("ratio", &[("node", "n1")])
            .set(0.1 + 0.2 + f64::EPSILON);
        let mut agent = TelemetryAgent::for_node("n1", reg.clone());
        let collector = Collector::new();
        collector.ingest(&agent.delta_frame().unwrap()).unwrap();
        assert_eq!(
            collector
                .latest_dump()
                .gauge_value("ratio", &[("node", "n1")]),
            Some(reg.gauge_with("ratio", &[("node", "n1")]).get())
        );
    }
}
