//! Benchmark-side spans. Nothing inside the program is traced: every
//! span wraps a call the benchmark itself makes into a layer's public
//! API. End-to-end runs use [`Off`], which compiles to nothing; the
//! traced window uses [`Tracer`].

use std::io::Write;
use std::time::Instant;

use crate::json::Value;

/// Ops whose individual spans are kept for `<workload>.trace.jsonl`;
/// later ops only feed the aggregates.
pub const KEPT_OPS: u64 = 10_000;

/// Every span the benchmark records, named after the layer it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    Op,
    Mint,
    ShadowBuild,
    BoundaryWrite,
    BoundaryRead,
    DecomposedWrite,
    DecomposedRead,
    ShadowTable,
    Register,
    Encode,
    SimnetWrite,
    SimnetRead,
    Decode,
    Lookup,
    ShadowResolve,
    SinkUnion,
    MqSend,
    MqPull,
    HbasePut,
    HbaseGet,
}

const NAMES: usize = SpanName::HbaseGet as usize + 1;

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Op => "driver.op",
            SpanName::Mint => "taint.mint",
            SpanName::ShadowBuild => "taint.shadow_build",
            SpanName::BoundaryWrite => "jre.boundary.write",
            SpanName::BoundaryRead => "jre.boundary.read",
            SpanName::DecomposedWrite => "driver.decomposed.write",
            SpanName::DecomposedRead => "driver.decomposed.read",
            SpanName::ShadowTable => "taint.shadow_table",
            SpanName::Register => "taintmap.register",
            SpanName::Encode => "jre.codec.encode",
            SpanName::SimnetWrite => "simnet.write",
            SpanName::SimnetRead => "simnet.read",
            SpanName::Decode => "jre.codec.decode",
            SpanName::Lookup => "taintmap.lookup",
            SpanName::ShadowResolve => "taint.shadow_resolve",
            SpanName::SinkUnion => "taint.sink_union",
            SpanName::MqSend => "rocketmq.send",
            SpanName::MqPull => "rocketmq.pull",
            SpanName::HbasePut => "hbase.put",
            SpanName::HbaseGet => "hbase.get",
        }
    }
}

/// The span recorder an op is generic over.
pub trait Spans {
    /// Whether this recorder keeps spans (drivers alternate whole and
    /// decomposed crossings only when it does).
    const ON: bool;
    fn begin_op(&mut self, op: u64);
    fn enter(&mut self, name: SpanName);
    fn exit(&mut self);
}

/// Spans off: what every end-to-end number is measured with.
pub struct Off;

impl Spans for Off {
    const ON: bool = false;
    #[inline(always)]
    fn begin_op(&mut self, _op: u64) {}
    #[inline(always)]
    fn enter(&mut self, _name: SpanName) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One kept span: {name, start, end, parent, op id}.
#[derive(Clone, Copy)]
struct SpanRec {
    name: SpanName,
    op: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    /// Summed duration, each span shortened by the recorder's own
    /// per-span cost.
    pub ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    op: u64,
    /// Open spans: name, start, and slot in `kept` (if kept).
    stack: Vec<(SpanName, Instant, Option<u32>)>,
    kept: Vec<SpanRec>,
    agg: [Agg; NAMES],
    span_cost_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        let mut tracer = Tracer {
            epoch: Instant::now(),
            op: 0,
            stack: Vec::with_capacity(8),
            // Preallocated so recording never allocates mid-window.
            kept: Vec::with_capacity(KEPT_OPS as usize * 16),
            agg: [Agg::default(); NAMES],
            span_cost_ns: 0,
        };
        tracer.span_cost_ns = tracer.calibrate();
        tracer
    }

    /// What an empty span reads: the clock-read latency every recorded
    /// duration includes. Sub-µs layers would otherwise sum to more
    /// than their parent.
    fn calibrate(&mut self) -> u64 {
        self.op = u64::MAX; // aggregate only, keep nothing
        let mut reads: Vec<u64> = (0..20_001)
            .map(|_| {
                self.enter(SpanName::Op);
                let before = self.agg[SpanName::Op as usize].ns;
                self.exit();
                self.agg[SpanName::Op as usize].ns - before
            })
            .collect();
        reads.sort_unstable();
        self.agg = [Agg::default(); NAMES];
        self.op = 0;
        reads[reads.len() / 2]
    }

    pub fn span_cost_ns(&self) -> u64 {
        self.span_cost_ns
    }

    pub fn agg(&self, name: SpanName) -> Agg {
        self.agg[name as usize]
    }

    /// Folds another driver's aggregates into this one's.
    pub fn absorb_aggregates(&mut self, other: &Tracer) {
        for (mine, theirs) in self.agg.iter_mut().zip(&other.agg) {
            mine.count += theirs.count;
            mine.ns += theirs.ns;
        }
    }

    /// Appends the kept spans as JSON lines.
    pub fn write_jsonl(&self, driver: usize, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.kept.iter().enumerate() {
            let line = Value::obj([
                ("driver", Value::Num(driver as f64)),
                ("op", Value::Num(span.op as f64)),
                ("id", Value::Num(id as f64)),
                (
                    "parent",
                    span.parent
                        .map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("name", Value::Str(span.name.as_str().into())),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        Ok(())
    }
}

impl Spans for Tracer {
    const ON: bool = true;

    fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    #[inline]
    fn enter(&mut self, name: SpanName) {
        let slot = (self.op < KEPT_OPS && self.kept.len() < self.kept.capacity()).then(|| {
            let parent = self.stack.last().and_then(|&(_, _, slot)| slot);
            self.kept.push(SpanRec {
                name,
                op: self.op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.kept.len() - 1) as u32
        });
        // The clock is read last on entry and first on exit, so the
        // recorder's bookkeeping stays outside the span.
        self.stack.push((name, Instant::now(), slot));
    }

    #[inline]
    fn exit(&mut self) {
        let end = Instant::now();
        let (name, start, slot) = self.stack.pop().expect("exit matches an enter");
        let ns = (end - start).as_nanos() as u64;
        let agg = &mut self.agg[name as usize];
        agg.count += 1;
        agg.ns += ns.saturating_sub(self.span_cost_ns);
        if let Some(slot) = slot {
            let rec = &mut self.kept[slot as usize];
            rec.start_ns = (start - self.epoch).as_nanos() as u64;
            rec.end_ns = (end - self.epoch).as_nanos() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut tr = Tracer::new();
        for op in 0..3 {
            tr.begin_op(op);
            tr.enter(SpanName::Op);
            tr.enter(SpanName::BoundaryWrite);
            std::thread::sleep(std::time::Duration::from_micros(200));
            tr.exit();
            tr.exit();
        }
        assert_eq!(tr.agg(SpanName::Op).count, 3);
        assert_eq!(tr.agg(SpanName::BoundaryWrite).count, 3);
        assert!(tr.agg(SpanName::BoundaryWrite).ns >= 3 * 200_000);
        assert!(tr.agg(SpanName::Op).ns >= tr.agg(SpanName::BoundaryWrite).ns);

        let mut out = Vec::new();
        tr.write_jsonl(0, &mut out).unwrap();
        let lines: Vec<Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Value::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 6);
        // Each child names its op's root span as parent.
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent"), lines[0].get("id"));
        assert_eq!(lines[3].get("op").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn ops_past_the_kept_window_only_aggregate() {
        let mut tr = Tracer::new();
        tr.begin_op(KEPT_OPS);
        tr.enter(SpanName::Mint);
        tr.exit();
        assert_eq!(tr.agg(SpanName::Mint).count, 1);
        let mut out = Vec::new();
        tr.write_jsonl(0, &mut out).unwrap();
        assert!(out.is_empty());
    }
}
