//! Cross-system pipeline scenarios: taint provenance across
//! application boundaries.
//!
//! DisTA's headline claim is that taint survives crossing *between*
//! distributed applications. The single-system workloads in
//! [`crate::systems`] each exercise one application; this module
//! composes them into two flagship pipelines:
//!
//! * **Ingest / store / analyze** ([`ingest`]) — RocketMQ producers
//!   mint per-record source taints, a bridge consumer writes the
//!   records into an HBase region, and a MapReduce WordCount job scans
//!   the table and sinks the results. One
//!   `Cluster::provenance` call renders a hop-by-hop trace
//!   spanning all three systems.
//! * **Multi-tenant broker** ([`tenants`]) — an ActiveMQ broker fronts
//!   N tenants whose data carries distinct source classes; per-tenant
//!   consumers are isolation sinks, and a cross-tenant sink hit is the
//!   detection target (asserted positively for a seeded misroute and
//!   negatively for clean runs).
//!
//! Node names follow a `system-role` convention (`mq-producer`,
//! `hb-rs1`, `mr-client`, …) so a provenance trace can be segmented by
//! application with [`system_of`] / [`systems_spanned`]. Pipeline legs
//! are marked as stages ([`dista_core::Cluster::record_pipeline_stage`])
//! which both lands `pipeline_stage` flight events and fires
//! stage-keyed chaos triggers.

pub mod ingest;
pub mod tenants;

// Stage labels: `ingest`'s message-queue, table-write and analysis legs,
// and `tenants`' broker delivery and consumer drain.
const STAGE_INGEST: &str = "ingest";
const STAGE_STORE: &str = "store";
const STAGE_ANALYZE: &str = "analyze";
const STAGE_DELIVER: &str = "deliver";
const STAGE_COLLECT: &str = "collect";

pub use ingest::{broker_outage_plan, run_ingest, IngestConfig, IngestOutcome};
pub use tenants::{
    broker_deliver_outage, misroute_of, run_tenants, CrossTenantHit, TenantConfig, TenantOutcome,
};

use dista_obs::ProvenanceTrace;

/// Maps a pipeline node name to the mini-system it belongs to, by the
/// `system-` prefix of the node naming convention. Unknown prefixes map
/// to the name itself.
pub fn system_of(node: &str) -> &str {
    const PREFIXES: [(&str, &str); 5] = [
        ("mq-", "rocketmq"),
        ("hb-", "hbase"),
        ("mr-", "mapreduce"),
        ("amq-", "activemq"),
        ("zk-", "zookeeper"),
    ];
    for (prefix, system) in PREFIXES {
        if node.starts_with(prefix) {
            return system;
        }
    }
    node
}

/// The distinct systems a provenance trace touches, in first-hop order
/// — the paper's "taint crossed three applications" check is
/// `systems_spanned(&trace).len() >= 3`.
pub fn systems_spanned(trace: &ProvenanceTrace) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for node in trace.nodes() {
        let system = system_of(node).to_string();
        if !out.contains(&system) {
            out.push(system);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_prefixes_map_to_systems() {
        assert_eq!(system_of("mq-producer"), "rocketmq");
        assert_eq!(system_of("mq-bridge"), "rocketmq");
        assert_eq!(system_of("hb-rs1"), "hbase");
        assert_eq!(system_of("mr-client"), "mapreduce");
        assert_eq!(system_of("amq-cons-2"), "activemq");
        assert_eq!(system_of("zk-1"), "zookeeper");
        assert_eq!(system_of("lonely"), "lonely");
    }
}
