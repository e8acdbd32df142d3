//! One small run of the `ingest → store → analyze` pipeline (RocketMQ +
//! HBase + MapReduce), then the rendered hop-by-hop provenance of the
//! first record: the demo of one taint crossing three applications.
//!
//! Correctness of the pipeline scenarios is gated by
//! `tests/pipeline_scenarios.rs`, their speed is measured by the
//! `record_pipeline` workload of `benchmark/`; this bin only prints.

use dista_bench::pipeline::{self, IngestConfig};
use dista_core::Mode;

fn main() {
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
