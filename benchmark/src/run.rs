//! Measuring: a *window* is a fixed number of ops run closed-loop by
//! the workload's driver threads; the end-to-end pass is one untraced
//! window at the full op count; the layers pass is a set of windows at
//! a quarter of it (untraced base, traced, `Mode::Original` reference,
//! and on the contended workload an observability and a 1-driver
//! window).

use std::io::Write;
use std::sync::Barrier;
use std::time::Instant;

use dista_core::{Cluster, Mode};

use crate::fixture::{self, Driver, Fixture, Setup, StandupTimes};
use crate::hist::Histogram;
use crate::host;
use crate::json::Value;
use crate::spec::{Kind, Workload};
use crate::stats::{quantile, spread};
use crate::trace::{Off, SpanName, Spans, Tracer};

/// A window is cut into up to this many slices of equal op count.
/// The host this runs on flips between a fast and a slow state every
/// few tens of milliseconds to seconds, so a window's time-based
/// metrics are read off its best slices (see [`BEST`]), and slices must
/// be short enough for some to fall wholly into the fast state.
const MAX_SLICES: u64 = 1000;
/// …but never shorter than this many ops, or a slice's median means
/// nothing.
const MIN_SLICE_OPS: u64 = 50;
/// Share of a window's slices that must be undisturbed for its
/// time-based metrics to be: rates report the slice at the `1 - BEST`
/// quantile, times the slice at the `BEST` quantile.
const BEST: f64 = 0.1;
/// Stand-ups per end-to-end run, before and after the measured window.
/// A host slow phase outlasts a stand-up, so stand-ups that follow each
/// other are slow together and their median with them; two groups a
/// measured window apart are not, and since interference only ever
/// adds time, `setup_s` is the fastest of them all.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Warm-up, as a share of the window that follows it.
const WARMUP_SHARE: f64 = 0.05;

/// One slice of one driver's ops.
struct Slice {
    ops: u64,
    /// Summed op time.
    op_ns: u64,
    /// Median op time.
    p50_ns: f64,
    /// Wall time, first op's start to last op's verification.
    wall_ns: u64,
}

/// What one driver thread measured.
struct DriverPart {
    hist: Histogram,
    slices: Vec<Slice>,
    failed: u64,
    bytes: u64,
}

fn slices_for(ops: u64) -> u64 {
    (ops / MIN_SLICE_OPS).clamp(1, MAX_SLICES)
}

fn drive<T: Spans>(driver: &mut Driver, ops: u64, tr: &mut T) -> DriverPart {
    let slices = slices_for(ops);
    let mut part = DriverPart {
        hist: Histogram::new(),
        slices: Vec::with_capacity(slices as usize),
        failed: 0,
        bytes: 0,
    };
    let mut slice_hist = Histogram::new();
    for s in 0..slices {
        let slice_ops = (s + 1) * ops / slices - s * ops / slices;
        let started = Instant::now();
        let mut op_ns = 0;
        for _ in 0..slice_ops {
            let outcome = driver.op(tr);
            slice_hist.record(outcome.ns);
            op_ns += outcome.ns;
            part.failed += u64::from(!outcome.ok);
            part.bytes += outcome.bytes as u64;
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        part.slices.push(Slice {
            ops: slice_ops,
            op_ns,
            p50_ns: slice_hist.quantile(0.5),
            wall_ns,
        });
        part.hist.merge(&slice_hist);
        slice_hist.clear();
    }
    part
}

/// Counters read from outside the program; a [`Window`] holds their
/// growth over its ops.
#[derive(Clone, Copy)]
pub struct Counters {
    /// `NetMetrics`: bytes written into any SimNet TCP stream.
    pub tcp_bytes: u64,
    /// `ServerStats::batch_frames` of the Taint Map deployment.
    pub rpc_frames: u64,
    /// `ClientStats` over all VMs: cache hits, and register + lookup
    /// items that went over the wire.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            tcp_bytes: self.tcp_bytes - before.tcp_bytes,
            rpc_frames: self.rpc_frames - before.rpc_frames,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

fn counters(cluster: &Cluster) -> Counters {
    let clients = cluster.vms().iter().filter_map(|vm| vm.taint_map());
    let (mut hits, mut misses) = (0, 0);
    for stats in clients.map(|c| c.stats()) {
        hits += stats.cache_hits;
        misses += stats.register_rpcs + stats.lookup_rpcs;
    }
    Counters {
        tcp_bytes: cluster.net().metrics().snapshot().tcp_bytes,
        rpc_frames: cluster.taint_map().stats().batch_frames,
        cache_hits: hits,
        cache_misses: misses,
    }
}

pub struct Window {
    pub ops: u64,
    pub failed: u64,
    pub payload_bytes: u64,
    pub hist: Histogram,
    /// Per slice during which every driver was running: Σ over drivers
    /// of (slice ops ÷ summed op time).
    pub slice_rates: Vec<f64>,
    /// Per such slice: mean over drivers of the median op time, µs.
    pub slice_p50_us: Vec<f64>,
    /// Per such slice: wall time per op completed by any driver, µs.
    pub slice_wall_us_per_op: Vec<f64>,
    /// Share of driver wall time outside the timed spans: verification,
    /// input generation and bookkeeping.
    pub verify_share: f64,
    /// Process CPU time ÷ wall time over the window (cores kept busy).
    pub cpu_utilisation: f64,
    pub counted: Counters,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        quantile(&self.slice_rates, 1.0 - BEST)
    }

    pub fn p50_us(&self) -> f64 {
        quantile(&self.slice_p50_us, BEST)
    }

    /// CPU time per op: the window's utilisation (a ratio, so the
    /// host's speed state cancels out of it) times the wall time per op
    /// of its best slices.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_utilisation * quantile(&self.slice_wall_us_per_op, BEST)
    }
}

/// Runs `ops` ops split evenly over the fixture's drivers, one thread
/// and one span recorder per driver.
pub fn run_window<T: Spans + Send>(fx: &mut Fixture, ops: u64, tracers: &mut [T]) -> Window {
    let drivers = fx.drivers.len();
    let per_driver = ops / drivers as u64;
    let before = counters(&fx.cluster);
    let barrier = Barrier::new(drivers);
    let cores = host::allowed_cores();
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let parts: Vec<DriverPart> = std::thread::scope(|scope| {
        let handles: Vec<_> = fx
            .drivers
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(id, (driver, tr))| {
                let barrier = &barrier;
                let core = cores.get(id).copied().filter(|_| drivers > 1);
                scope.spawn(move || {
                    if let Some(core) = core {
                        host::pin_current_thread(core);
                    }
                    barrier.wait();
                    drive(driver, per_driver, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let counted = counters(&fx.cluster).since(before);

    // Drivers leave the barrier together but finish apart; a slice that
    // ran after the first driver finished ran without its contenders.
    let first_done = parts
        .iter()
        .map(|p| p.slices.iter().map(|s| s.wall_ns).sum::<u64>())
        .min()
        .unwrap_or(0);
    let slices = parts.first().map_or(0, |p| p.slices.len());
    let mut elapsed = vec![0u64; drivers];
    let (mut slice_rates, mut slice_p50_us, mut slice_wall_us_per_op) = (vec![], vec![], vec![]);
    for s in 0..slices {
        let (mut rate, mut p50_us, mut wall_us, mut done) = (0.0, 0.0, 0.0, 0);
        for (part, elapsed) in parts.iter().zip(&mut elapsed) {
            let slice = &part.slices[s];
            *elapsed += slice.wall_ns;
            rate += slice.ops as f64 / (slice.op_ns.max(1) as f64 / 1e9);
            p50_us += slice.p50_ns / 1e3 / drivers as f64;
            wall_us += slice.wall_ns as f64 / 1e3 / drivers as f64;
            done += slice.ops;
        }
        if elapsed.iter().all(|&t| t <= first_done) {
            slice_rates.push(rate);
            slice_p50_us.push(p50_us);
            slice_wall_us_per_op.push(wall_us / done as f64);
        }
    }
    let mut hist = Histogram::new();
    for part in &parts {
        hist.merge(&part.hist);
    }
    let op_s: f64 = parts
        .iter()
        .flat_map(|p| &p.slices)
        .map(|s| s.op_ns as f64 / 1e9)
        .sum();
    Window {
        ops: per_driver * drivers as u64,
        failed: parts.iter().map(|p| p.failed).sum(),
        payload_bytes: parts.iter().map(|p| p.bytes).sum(),
        hist,
        slice_rates,
        slice_p50_us,
        slice_wall_us_per_op,
        verify_share: (1.0 - op_s / (wall_s * drivers as f64)).max(0.0),
        cpu_utilisation: cpu_s / wall_s,
        counted,
    }
}

/// One `Off` recorder per driver.
fn no_spans(drivers: usize) -> Vec<Off> {
    (0..drivers).map(|_| Off).collect()
}

fn warm_up(fx: &mut Fixture, window_ops: u64) {
    let drivers = fx.drivers.len() as u64;
    let ops = ((window_ops as f64 * WARMUP_SHARE) as u64 / drivers).max(1) * drivers;
    run_window(fx, ops, &mut no_spans(fx.drivers.len()));
}

/// One pass's result: the contract's counts and metrics, plus what the
/// history line records beside them.
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<(&'static str, Value)>,
}

#[derive(Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub expect_wrong_tag: bool,
}

fn dista(workload: &Workload, params: Params) -> Setup {
    Setup {
        mode: Mode::Dista,
        observability: false,
        drivers: workload.drivers,
        seed: params.seed,
        expect_wrong_tag: params.expect_wrong_tag,
    }
}

/// The end-to-end pass: spans off, the full op count.
pub fn end_to_end(workload: &Workload, params: Params) -> Result<Pass, String> {
    let ops = workload.ops_for(params.seconds);
    let mut setup_s = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut stand_up = || -> Result<Fixture, String> {
        let started = Instant::now();
        let mut fx = fixture::set_up(workload, dista(workload, params))?;
        warm_up(&mut fx, ops);
        setup_s.push(started.elapsed().as_secs_f64());
        Ok(fx)
    };
    for _ in 1..SETUPS_BEFORE {
        stand_up()?.tear_down();
    }
    let mut fx = stand_up()?;
    let win = run_window(&mut fx, ops, &mut no_spans(workload.drivers));
    fx.tear_down();
    for _ in 0..SETUPS_AFTER {
        stand_up()?.tear_down();
    }
    let fastest_setup_s = setup_s.iter().copied().fold(f64::INFINITY, f64::min);

    Ok(Pass {
        attempted: win.ops,
        failed: win.failed,
        metrics: vec![
            ("setup_s", fastest_setup_s),
            ("ops_per_s", win.ops_per_s()),
            ("op_p50_us", win.p50_us()),
            ("cpu_us_per_op", win.cpu_us_per_op()),
            (
                "wire_expansion_x",
                win.counted.tcp_bytes as f64 / win.payload_bytes as f64,
            ),
            ("peak_rss_mb", host::peak_rss_mb()),
        ],
        notes: vec![
            (
                "setup_reps_s",
                Value::Arr(setup_s.iter().map(|&s| Value::Num(s)).collect()),
            ),
            ("samples", Value::Num(win.hist.count() as f64)),
            ("op_p99_us", Value::Num(win.hist.quantile(0.99) / 1e3)),
            ("slice_spread", Value::Num(spread(&win.slice_rates))),
            ("verify_share", Value::Num(win.verify_share)),
            ("cpu_utilisation", Value::Num(win.cpu_utilisation)),
            ("slices", Value::Num(win.slice_rates.len() as f64)),
        ],
    })
}

/// What a layers-pass window leaves behind besides its [`Window`].
struct Aftermath {
    standup: StandupTimes,
    shutdown_ms: f64,
    tree_nodes: u64,
    global_taints: u64,
    /// Σ encoded length and count of decomposed crossings.
    wire_bytes: u64,
    decomposed_ops: u64,
}

/// Stands a fresh fixture up, warms it, runs one window, tears it down.
fn fresh_window<T: Spans + Send>(
    workload: &Workload,
    setup: Setup,
    ops: u64,
    tracers: &mut [T],
) -> Result<(Window, Aftermath), String> {
    let mut fx = fixture::set_up(workload, setup)?;
    warm_up(&mut fx, ops);
    let win = run_window(&mut fx, ops, tracers);
    let (mut wire_bytes, mut decomposed_ops) = (0, 0);
    for driver in &fx.drivers {
        if let Driver::Crossing(d) = driver {
            wire_bytes += d.wire_bytes;
            decomposed_ops += d.decomposed_ops;
        }
    }
    let tree_nodes = fx
        .cluster
        .vms()
        .iter()
        .map(|vm| vm.store().tree().num_nodes() as u64)
        .sum();
    let global_taints = fx.cluster.taint_map().stats().global_taints;
    let standup = fx.standup;
    Ok((
        win,
        Aftermath {
            standup,
            shutdown_ms: fx.tear_down(),
            tree_nodes,
            global_taints,
            wire_bytes,
            decomposed_ops,
        },
    ))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The layers pass: every window at a quarter of the op count.
pub fn layers(
    workload: &Workload,
    params: Params,
    trace_path: &std::path::Path,
) -> Result<Pass, String> {
    let ops = workload.ops_for(params.seconds / 4.0);
    let setup = dista(workload, params);
    let mut off = no_spans(workload.drivers);

    let (base, base_after) = fresh_window(workload, setup, ops, &mut off)?;

    let mut tracers: Vec<Tracer> = (0..workload.drivers).map(|_| Tracer::new()).collect();
    let (traced, traced_after) = fresh_window(workload, setup, ops, &mut tracers)?;
    let mut trace_file = std::io::BufWriter::new(
        std::fs::File::create(trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?,
    );
    for (id, tracer) in tracers.iter().enumerate() {
        tracer
            .write_jsonl(id, &mut trace_file)
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    trace_file
        .flush()
        .map_err(|e| format!("writing trace: {e}"))?;
    let (first, rest) = tracers.split_first_mut().expect("one tracer per driver");
    for other in rest.iter() {
        first.absorb_aggregates(other);
    }
    let spans = &*first;

    let original = Setup {
        mode: Mode::Original,
        ..setup
    };
    let (reference, _) = fresh_window(workload, original, ops, &mut off)?;

    // The contended workload carries two more A/B windows: telemetry on,
    // and a single driver to scale against.
    let mut attempted = base.ops + traced.ops + reference.ops;
    let mut failed = base.failed + traced.failed + reference.failed;
    let (mut obs_rate, mut scale) = (0.0, 0.0);
    if workload.drivers > 1 {
        let observed = Setup {
            observability: true,
            ..setup
        };
        let (obs, _) = fresh_window(workload, observed, ops, &mut off)?;
        let single = Setup {
            drivers: 1,
            ..setup
        };
        let (one, _) = fresh_window(
            workload,
            single,
            ops / workload.drivers as u64,
            &mut off[..1],
        )?;
        attempted += obs.ops + one.ops;
        failed += obs.failed + one.failed;
        obs_rate = obs.ops_per_s();
        scale = ratio(base.ops_per_s(), one.ops_per_s());
    }

    // µs of a span's time per op, over the ops that record that span.
    let all_ops = spans.agg(SpanName::Op).count as f64;
    let whole_ops = spans.agg(SpanName::BoundaryWrite).count as f64;
    let split_ops = spans.agg(SpanName::DecomposedWrite).count as f64;
    let us = |name: SpanName, ops: f64| ratio(spans.agg(name).ns as f64 / 1e3, ops);
    let boundary_write = us(SpanName::BoundaryWrite, whole_ops);
    let boundary_read = us(SpanName::BoundaryRead, whole_ops);
    let children: f64 = [
        SpanName::ShadowTable,
        SpanName::Register,
        SpanName::Encode,
        SpanName::SimnetWrite,
        SpanName::SimnetRead,
        SpanName::Decode,
        SpanName::Lookup,
        SpanName::ShadowResolve,
    ]
    .iter()
    .map(|&name| us(name, split_ops))
    .sum();
    let boundary_self = boundary_write + boundary_read - children;

    let tcp_bytes_per_op = traced.counted.tcp_bytes as f64 / traced.ops as f64;
    let wire_bytes_per_op = ratio(
        traced_after.wire_bytes as f64,
        traced_after.decomposed_ops as f64,
    );
    // Total minus data connections. Only a crossing's data connection
    // is visible from outside; the pipeline's mini-system RPCs are not
    // separable from its Taint Map RPCs without tracing the program.
    let rpc_bytes_per_op = match workload.kind {
        Kind::Crossing { .. } => tcp_bytes_per_op - wire_bytes_per_op,
        Kind::Pipeline => 0.0,
    };
    let systems = base_after.standup.systems;

    Ok(Pass {
        attempted,
        failed,
        metrics: vec![
            ("taint.mint_us", us(SpanName::Mint, all_ops)),
            (
                "taint.shadow_build_us",
                us(SpanName::ShadowBuild, all_ops) + us(SpanName::ShadowTable, split_ops),
            ),
            (
                "taint.shadow_resolve_us",
                us(SpanName::ShadowResolve, split_ops),
            ),
            ("taint.sink_union_us", us(SpanName::SinkUnion, all_ops)),
            ("taint.tree_nodes", traced_after.tree_nodes as f64),
            ("jre.codec.encode_us", us(SpanName::Encode, split_ops)),
            ("jre.codec.decode_us", us(SpanName::Decode, split_ops)),
            ("jre.codec.wire_bytes_per_op", wire_bytes_per_op),
            ("taintmap.register_us", us(SpanName::Register, split_ops)),
            ("taintmap.lookup_us", us(SpanName::Lookup, split_ops)),
            (
                "taintmap.rpc_frames_per_kop",
                traced.counted.rpc_frames as f64 * 1e3 / traced.ops as f64,
            ),
            (
                "taintmap.cache_hit_share",
                ratio(
                    traced.counted.cache_hits as f64,
                    (traced.counted.cache_hits + traced.counted.cache_misses) as f64,
                ),
            ),
            ("taintmap.rpc_bytes_per_op", rpc_bytes_per_op),
            ("taintmap.global_taints", traced_after.global_taints as f64),
            ("simnet.write_us", us(SpanName::SimnetWrite, split_ops)),
            ("simnet.read_us", us(SpanName::SimnetRead, split_ops)),
            ("simnet.tcp_bytes_per_op", tcp_bytes_per_op),
            ("simnet.connect_us", base_after.standup.connect_us),
            ("jre.boundary.write_us", boundary_write),
            ("jre.boundary.read_us", boundary_read),
            ("jre.boundary.self_us", boundary_self),
            (
                "jre.boundary.unattributed_share",
                ratio(boundary_self, boundary_write + boundary_read),
            ),
            ("rocketmq.send_us", us(SpanName::MqSend, all_ops)),
            ("rocketmq.pull_us", us(SpanName::MqPull, all_ops)),
            ("hbase.put_us", us(SpanName::HbasePut, all_ops)),
            ("hbase.get_us", us(SpanName::HbaseGet, all_ops)),
            ("rocketmq.standup_ms", systems.rocketmq),
            ("zookeeper.ensemble_start_ms", systems.zookeeper),
            ("hbase.standup_ms", systems.hbase),
            ("core.cluster_build_ms", base_after.standup.cluster_build_ms),
            ("core.shutdown_ms", base_after.shutdown_ms),
            ("reference.original_ops_per_s", reference.ops_per_s()),
            ("reference.original_p50_us", reference.p50_us()),
            (
                "reference.overhead_x",
                ratio(reference.ops_per_s(), base.ops_per_s()),
            ),
            ("obs.enabled_ops_per_s", obs_rate),
            ("obs.overhead_x", ratio(base.ops_per_s(), obs_rate)),
            ("driver.scale_2x", scale),
            ("driver.op_p99_us", base.hist.quantile(0.99) / 1e3),
            ("driver.slice_spread", spread(&base.slice_rates)),
            (
                "driver.trace_overhead_x",
                ratio(base.ops_per_s(), traced.ops_per_s()),
            ),
            ("driver.verify_share", base.verify_share),
            ("driver.span_cost_ns", spans.span_cost_ns() as f64),
        ],
        notes: vec![
            ("window_ops", Value::Num(ops as f64)),
            ("untraced_ops_per_s", Value::Num(base.ops_per_s())),
            ("untraced_op_p50_us", Value::Num(base.p50_us())),
            ("traced_ops_per_s", Value::Num(traced.ops_per_s())),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    fn setup(workload: &Workload, expect_wrong_tag: bool) -> Setup {
        dista(
            workload,
            Params {
                seed: 1,
                seconds: 0.0,
                expect_wrong_tag,
            },
        )
    }

    #[test]
    fn every_workload_verifies_its_outputs() {
        for w in &WORKLOADS {
            let mut off = no_spans(w.drivers);
            let (win, _) =
                fresh_window(w, setup(w, false), 200 * w.drivers as u64, &mut off).unwrap();
            assert_eq!(
                (win.ops, win.failed),
                (200 * w.drivers as u64, 0),
                "{}",
                w.name
            );
            assert!(win.ops_per_s() > 0.0 && win.p50_us() > 0.0, "{}", w.name);
        }
    }

    #[test]
    fn a_wrong_expected_tag_fails_every_tainted_op() {
        for name in ["hot_small_2x", "fresh_taints", "record_pipeline"] {
            let w = workload(name).unwrap();
            let mut off = no_spans(w.drivers);
            let (win, _) =
                fresh_window(w, setup(w, true), 100 * w.drivers as u64, &mut off).unwrap();
            assert_eq!(win.failed, win.ops, "{name}");
        }
    }

    /// Every count a traced window reports, for one seed.
    fn traced_counts(name: &str) -> [u64; 7] {
        let w = workload(name).unwrap();
        let mut tracers = vec![Tracer::new()];
        let (win, after) = fresh_window(w, setup(w, false), 400, &mut tracers).unwrap();
        [
            win.failed,
            win.counted.tcp_bytes,
            win.counted.rpc_frames,
            after.wire_bytes,
            after.decomposed_ops,
            after.tree_nodes,
            after.global_taints,
        ]
    }

    #[test]
    fn same_seed_repeats_every_count_exactly() {
        for name in ["clean_small", "tainted_bulk", "fresh_taints"] {
            let first = traced_counts(name);
            assert_eq!(first, traced_counts(name), "{name}");
            assert_eq!(first[0], 0, "{name}: no failed op");
            assert_eq!(
                first[4], 200,
                "{name}: every second traced op is decomposed"
            );
        }
        let fresh = traced_counts("fresh_taints");
        assert_eq!(
            fresh[2],
            2 * 400,
            "one register and one lookup frame per op"
        );
        assert_eq!(
            traced_counts("clean_small")[2],
            0,
            "clean traffic never reaches the Taint Map"
        );
    }

    #[test]
    fn traced_and_untraced_crossings_move_the_same_bytes() {
        let w = workload("tainted_bulk").unwrap();
        let (traced, _) = fresh_window(w, setup(w, false), 100, &mut [Tracer::new()]).unwrap();
        let (plain, _) = fresh_window(w, setup(w, false), 100, &mut [Off]).unwrap();
        // v1: five wire bytes per payload byte, whole or decomposed.
        assert_eq!(traced.counted.tcp_bytes, 5 * traced.payload_bytes);
        assert_eq!(plain.counted.tcp_bytes, traced.counted.tcp_bytes);
    }
}
