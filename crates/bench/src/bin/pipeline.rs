//! Cross-system pipeline load bench: drives the two flagship pipeline
//! scenarios (`ingest → store → analyze` over RocketMQ + HBase +
//! MapReduce, and the multi-tenant ActiveMQ broker) repeatedly at
//! batch sizes above the correctness suites, recording end-to-end
//! throughput and latency quantiles into `BENCH_pipeline.json` so the
//! cross-system path has a perf trajectory tracked per PR.
//!
//! Every load iteration is also a correctness check: rows scanned must
//! match records sent, no lookup may stay pending, every record tag
//! must reach the final sink, the first record's provenance must span
//! three systems exactly, and the clean tenant runs must report zero
//! cross-tenant hits (one seeded misroute run must report exactly one).
//!
//! Flags: `--smoke` (CI-sized batches), `--iters N`, `--records N`
//! (ingest records per iteration), `--messages N` (per-tenant messages
//! per iteration), `--out PATH`, `--trace` (run one small ingest and
//! print the rendered hop-by-hop provenance trace instead of benching).

use std::io::Write as _;
use std::time::Instant;

use dista_bench::pipeline::{self, IngestConfig, TenantConfig};
use dista_core::Mode;
use dista_obs::Histogram;

/// Latency bucket grid in microseconds. Pipeline iterations are whole
/// multi-system runs, so the grid is coarser and taller than the
/// per-crossing grid in `cluster_load`.
const LATENCY_BOUNDS_US: &[u64] = &[
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000, 2_000_000,
    5_000_000, 10_000_000, 30_000_000,
];

struct Config {
    iters: usize,
    records: usize,
    messages: usize,
    smoke: bool,
    trace: bool,
    out: String,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let smoke = flag("--smoke");
    Config {
        iters: value("--iters")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 3 } else { 8 }),
        records: value("--records")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 12 } else { 48 }),
        messages: value("--messages")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 6 } else { 16 }),
        smoke,
        trace: flag("--trace"),
        out: value("--out").unwrap_or_else(|| "BENCH_pipeline.json".to_string()),
    }
}

/// `--trace`: one small ingest run, then the rendered provenance of the
/// first record — the quickstart demo of a taint crossing three
/// applications.
fn print_trace() {
    let outcome = pipeline::run_ingest(&IngestConfig::new(Mode::Dista)).expect("ingest pipeline");
    let gid = outcome.record_gids[0];
    let trace = outcome.cluster.provenance(gid);
    let systems = pipeline::systems_spanned(&trace);
    println!(
        "record tag {:?} crossed {} systems ({}) — trace exact: {}",
        outcome.record_tags[0],
        systems.len(),
        systems.join(" → "),
        trace.exact
    );
    println!("{trace}");
}

struct ScenarioStats {
    latency_us: Histogram,
    items_total: usize,
    elapsed_secs: f64,
    retries_total: u64,
    failures: Vec<String>,
}

impl ScenarioStats {
    fn new() -> Self {
        ScenarioStats {
            latency_us: Histogram::detached(LATENCY_BOUNDS_US),
            items_total: 0,
            elapsed_secs: 0.0,
            retries_total: 0,
            failures: Vec::new(),
        }
    }

    fn throughput(&self) -> f64 {
        self.items_total as f64 / self.elapsed_secs.max(1e-9)
    }
}

fn run_ingest_load(cfg: &Config) -> (ScenarioStats, usize, bool) {
    let mut stats = ScenarioStats::new();
    let mut systems_spanned = usize::MAX;
    let mut exact = true;
    for iter in 0..cfg.iters {
        let mut icfg = IngestConfig::new(Mode::Dista);
        icfg.records = cfg.records;
        let start = Instant::now();
        let outcome = match pipeline::run_ingest(&icfg) {
            Ok(o) => o,
            Err(e) => {
                stats.failures.push(format!("iter {iter}: {e}"));
                continue;
            }
        };
        let elapsed = start.elapsed();
        stats.latency_us.observe(elapsed.as_micros() as u64);
        stats.elapsed_secs += elapsed.as_secs_f64();
        stats.items_total += outcome.rows_scanned;
        stats.retries_total += outcome.retries;
        if outcome.rows_scanned != cfg.records {
            stats.failures.push(format!(
                "iter {iter}: scanned {} of {} rows",
                outcome.rows_scanned, cfg.records
            ));
        }
        if outcome.pending_after != 0 {
            stats.failures.push(format!(
                "iter {iter}: {} lookups pending",
                outcome.pending_after
            ));
        }
        for tag in &outcome.record_tags {
            if !outcome.sink_tags.contains(tag) {
                stats
                    .failures
                    .push(format!("iter {iter}: {tag} missing at the final sink"));
            }
        }
        let trace = outcome.cluster.provenance(outcome.record_gids[0]);
        systems_spanned = systems_spanned.min(pipeline::systems_spanned(&trace).len());
        exact &= trace.exact;
    }
    (stats, systems_spanned, exact)
}

fn run_tenant_load(cfg: &Config) -> (ScenarioStats, usize, usize) {
    let mut stats = ScenarioStats::new();
    let mut clean_hits = 0usize;
    for iter in 0..cfg.iters {
        let mut tcfg = TenantConfig::new(Mode::Dista);
        tcfg.messages = cfg.messages;
        let start = Instant::now();
        let outcome = match pipeline::run_tenants(&tcfg) {
            Ok(o) => o,
            Err(e) => {
                stats.failures.push(format!("iter {iter}: {e}"));
                continue;
            }
        };
        let elapsed = start.elapsed();
        stats.latency_us.observe(elapsed.as_micros() as u64);
        stats.elapsed_secs += elapsed.as_secs_f64();
        stats.items_total += tcfg.tenants * tcfg.messages;
        stats.retries_total += outcome.retries;
        clean_hits += outcome.hits.len();
        if outcome.received != outcome.expected {
            stats.failures.push(format!(
                "iter {iter}: received {:?} expected {:?}",
                outcome.received, outcome.expected
            ));
        }
        if outcome.pending_after != 0 {
            stats.failures.push(format!(
                "iter {iter}: {} lookups pending",
                outcome.pending_after
            ));
        }
    }
    // One seeded misroute run as the positive detection gate (timed
    // separately; the load numbers above are the clean path).
    let mut tcfg = TenantConfig::new(Mode::Dista);
    tcfg.messages = cfg.messages;
    tcfg.misroute_seed = Some(1234);
    let misroute_hits = match pipeline::run_tenants(&tcfg) {
        Ok(o) => o.hits.len(),
        Err(e) => {
            stats.failures.push(format!("misroute run: {e}"));
            0
        }
    };
    (stats, clean_hits, misroute_hits)
}

fn main() {
    let cfg = parse_args();
    if cfg.trace {
        print_trace();
        return;
    }
    println!(
        "pipeline: {} iters, {} records/run (ingest), 3x{} messages/run (tenants){}",
        cfg.iters,
        cfg.records,
        cfg.messages,
        if cfg.smoke { " (smoke)" } else { "" }
    );

    let (ingest, systems_spanned, exact) = run_ingest_load(&cfg);
    let (tenants, clean_hits, misroute_hits) = run_tenant_load(&cfg);

    let mut failed = false;
    for f in ingest.failures.iter().chain(tenants.failures.iter()) {
        eprintln!("FAIL: {f}");
        failed = true;
    }
    if systems_spanned < 3 {
        eprintln!("FAIL: provenance spanned only {systems_spanned} systems");
        failed = true;
    }
    if !exact {
        eprintln!("FAIL: a v2 trace fell back to inference");
        failed = true;
    }
    if clean_hits != 0 {
        eprintln!("FAIL: {clean_hits} cross-tenant hits on clean runs");
        failed = true;
    }
    if misroute_hits != 1 {
        eprintln!("FAIL: seeded misroute produced {misroute_hits} hits, expected 1");
        failed = true;
    }

    println!(
        "ingest:  {:.1} records/s  p50 {} us  p99 {} us  ({} records, {} retries)",
        ingest.throughput(),
        ingest.latency_us.quantile(0.50),
        ingest.latency_us.quantile(0.99),
        ingest.items_total,
        ingest.retries_total,
    );
    println!(
        "tenants: {:.1} messages/s  p50 {} us  p99 {} us  ({} messages, {} retries)",
        tenants.throughput(),
        tenants.latency_us.quantile(0.50),
        tenants.latency_us.quantile(0.99),
        tenants.items_total,
        tenants.retries_total,
    );

    // Hand-rolled JSON (the vendored serde is a stub). Keys are stable
    // for cross-PR tracking and ci.sh greps.
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pipeline\",\n",
            "  \"smoke\": {},\n",
            "  \"iterations\": {},\n",
            "  \"systems_spanned\": {},\n",
            "  \"exact_traces\": {},\n",
            "  \"cross_tenant_hits_clean\": {},\n",
            "  \"misroute_hits\": {},\n",
            "  \"ingest\": {{\n",
            "    \"records_per_run\": {},\n",
            "    \"records_total\": {},\n",
            "    \"retries_total\": {},\n",
            "    \"elapsed_seconds\": {:.3},\n",
            "    \"throughput_records_per_sec\": {:.1},\n",
            "    \"latency_us\": {{ \"p50\": {}, \"p99\": {}, \"mean\": {:.1} }}\n",
            "  }},\n",
            "  \"tenants\": {{\n",
            "    \"messages_per_tenant\": {},\n",
            "    \"messages_total\": {},\n",
            "    \"retries_total\": {},\n",
            "    \"elapsed_seconds\": {:.3},\n",
            "    \"throughput_messages_per_sec\": {:.1},\n",
            "    \"latency_us\": {{ \"p50\": {}, \"p99\": {}, \"mean\": {:.1} }}\n",
            "  }}\n",
            "}}\n",
        ),
        cfg.smoke,
        cfg.iters,
        systems_spanned,
        exact,
        clean_hits,
        misroute_hits,
        cfg.records,
        ingest.items_total,
        ingest.retries_total,
        ingest.elapsed_secs,
        ingest.throughput(),
        ingest.latency_us.quantile(0.50),
        ingest.latency_us.quantile(0.99),
        ingest.latency_us.mean(),
        cfg.messages,
        tenants.items_total,
        tenants.retries_total,
        tenants.elapsed_secs,
        tenants.throughput(),
        tenants.latency_us.quantile(0.50),
        tenants.latency_us.quantile(0.99),
        tenants.latency_us.mean(),
    );

    let mut f = std::fs::File::create(&cfg.out).expect("create bench output");
    f.write_all(json.as_bytes()).expect("write bench output");
    println!("wrote {}", cfg.out);

    if failed {
        std::process::exit(1);
    }
    println!("OK");
}
