//! Cross-system pipeline scenarios: end-to-end soundness + precision
//! across application boundaries, mirroring the Table II/III
//! methodology of `tests/end_to_end_scenarios.rs` at pipeline scale.
//!
//! The flagship flow is ingest → store → analyze: RocketMQ producers
//! mint per-record taints, a bridge consumer writes them into HBase,
//! and a MapReduce WordCount job scans the table and sinks the result.
//! Soundness: every record tag reaches the final sink. Precision: the
//! final sink sees *only* record tags plus the job's own
//! `application_*` source. Phosphor (local-only tracking) is the
//! negative control, and Original is the no-tracking baseline.

use dista_bench::pipeline::{self, IngestConfig, TenantConfig};
use dista_core::{Mode, WireProtocol};

fn is_expected_at_final_sink(tag: &str) -> bool {
    tag.starts_with("record:") || tag.starts_with("application_")
}

#[test]
fn dista_v2_pipeline_is_sound_precise_and_exactly_traced() {
    let outcome = pipeline::run_ingest(&IngestConfig::new(Mode::Dista)).unwrap();
    assert_eq!(outcome.rows_scanned, 6, "every record landed in HBase");
    assert_eq!(outcome.retries, 0, "clean run needed no retries");
    assert_eq!(outcome.pending_after, 0);

    // Soundness: all six record tags survive two application boundaries.
    for tag in &outcome.record_tags {
        assert!(
            outcome.sink_tags.contains(tag),
            "soundness: {tag} missing at the MapReduce sink {:?}",
            outcome.sink_tags
        );
    }
    // Precision: nothing else arrives (the job's own application id is
    // the only non-record source feeding the sink).
    for tag in &outcome.sink_tags {
        assert!(
            is_expected_at_final_sink(tag),
            "precision: unexpected tag {tag} at the final sink"
        );
    }
    assert!(
        outcome
            .sink_tags
            .iter()
            .any(|t| t.starts_with("application_")),
        "the job's own source reached its sink"
    );

    // Every record registered a Global ID by crossing the wire.
    assert!(outcome.record_gids.iter().all(|&g| g != 0));

    // One provenance call renders one hop-by-hop trace spanning all
    // three systems — exact on the homogeneous v2 wire.
    for &gid in &outcome.record_gids {
        let trace = outcome.cluster.provenance(gid);
        assert!(trace.exact, "v2 wire pairs every crossing exactly");
        let systems = pipeline::systems_spanned(&trace);
        assert!(systems.len() >= 3, "gid {gid} spanned only {systems:?}");
        assert!(systems.contains(&"rocketmq".to_string()), "{systems:?}");
        assert!(systems.contains(&"hbase".to_string()), "{systems:?}");
        assert!(systems.contains(&"mapreduce".to_string()), "{systems:?}");
        assert!(trace.pending_all_resolved());
        let rendered = format!("{trace}");
        assert!(
            rendered.contains("mq-producer"),
            "trace narrative names the minting node:\n{rendered}"
        );
    }
}

/// Regression: the bridge loop charged every iteration, successful ones
/// included, against its 400-attempt retry budget, so no run could
/// store more than 400 records.
#[test]
fn clean_run_stores_more_records_than_the_retry_budget() {
    let mut cfg = IngestConfig::new(Mode::Dista);
    cfg.records = 1024;
    let outcome = pipeline::run_ingest(&cfg).unwrap();
    assert_eq!(outcome.rows_scanned, 1024, "every record landed in HBase");
    assert_eq!(outcome.retries, 0, "clean run needed no retries");
    assert_eq!(outcome.pending_after, 0);
    for tag in &outcome.record_tags {
        assert!(outcome.sink_tags.contains(tag), "soundness: {tag} missing");
    }
}

#[test]
fn v1_wire_still_spans_three_systems_via_inference() {
    let mut cfg = IngestConfig::new(Mode::Dista);
    cfg.wire = WireProtocol::V1;
    let outcome = pipeline::run_ingest(&cfg).unwrap();
    for tag in &outcome.record_tags {
        assert!(outcome.sink_tags.contains(tag), "soundness on v1: {tag}");
    }
    let gid = outcome.record_gids[0];
    assert_ne!(gid, 0);
    let trace = outcome.cluster.provenance(gid);
    assert!(
        !trace.exact,
        "v1 has no span annotations; stitching falls back to inference"
    );
    let systems = pipeline::systems_spanned(&trace);
    assert!(systems.len() >= 3, "inferred trace spans {systems:?}");
}

#[test]
fn phosphor_drops_tags_at_the_first_application_boundary() {
    let outcome = pipeline::run_ingest(&IngestConfig::new(Mode::Phosphor)).unwrap();
    // The pipeline itself still works…
    assert_eq!(outcome.rows_scanned, 6);
    // …but no record tag survives to the final sink: local-only
    // tracking loses the taints at the producer→broker crossing.
    assert!(
        !outcome.sink_tags.iter().any(|t| t.starts_with("record:")),
        "phosphor must not carry taints across nodes: {:?}",
        outcome.sink_tags
    );
    // Even the application id is lost: it round-trips client → RM →
    // client, and Phosphor drops taints at every node boundary.
    assert!(outcome.sink_tags.is_empty(), "{:?}", outcome.sink_tags);
    assert!(outcome.record_gids.iter().all(|&g| g == 0));
}

#[test]
fn original_mode_moves_the_data_with_zero_taint_machinery() {
    let outcome = pipeline::run_ingest(&IngestConfig::new(Mode::Original)).unwrap();
    assert_eq!(outcome.rows_scanned, 6);
    assert!(outcome.sink_tags.is_empty());
    assert!(outcome.record_gids.iter().all(|&g| g == 0));
}

/// Pins the empty-payload audit of the five system crates: a
/// zero-length body crosses every hop without inventing spurious tags,
/// and the sinks still fire (untainted) rather than being swallowed.
#[test]
fn empty_payloads_cross_system_boundaries_without_spurious_tags() {
    use dista_core::Cluster;
    use dista_rocketmq::{BrokerServer, MqConsumer, MqProducer, NameServer, CONSUMER_CLASS};
    use dista_simnet::NodeAddr;
    use dista_taint::{MethodDesc, SourceSinkSpec, TaintedBytes};

    let mut spec = SourceSinkSpec::new();
    spec.add_sink(MethodDesc::new(CONSUMER_CLASS, "consumeMessage"));
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 3)
        .spec(spec)
        .build()
        .unwrap();
    dista_rocketmq::seed_config(cluster.vm(1), "empty-broker");
    let ns = NameServer::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 9876)).unwrap();
    let broker = BrokerServer::start(
        cluster.vm(1),
        NodeAddr::new([10, 0, 0, 2], 10911),
        &["EmptyTopic"],
    )
    .unwrap();
    broker.register_with(ns.addr()).unwrap();
    let producer = MqProducer::start(cluster.vm(2), ns.addr(), "EmptyTopic").unwrap();
    producer
        .send("EmptyTopic", TaintedBytes::from_plain(Vec::new()))
        .unwrap();
    let consumer = MqConsumer::start(cluster.vm(2), ns.addr(), "EmptyTopic").unwrap();
    let msg = consumer.pull_blocking().unwrap();
    assert_eq!(msg.body.len(), 0, "empty body survives the broker hop");
    let report = cluster.vm(2).sink_report();
    let events = report.at(&format!("{CONSUMER_CLASS}.consumeMessage"));
    assert_eq!(events.len(), 1, "the sink still fires on an empty pull");
    assert!(events[0].tags.is_empty(), "no spurious tags: {events:?}");
    producer.close();
    consumer.close();
    broker.shutdown();
    ns.shutdown();
    cluster.shutdown();
}

#[test]
fn clean_multi_tenant_run_has_zero_cross_tenant_hits() {
    let outcome = pipeline::run_tenants(&TenantConfig::new(Mode::Dista)).unwrap();
    assert_eq!(outcome.hits, vec![], "clean run must not report leaks");
    assert_eq!(outcome.received, outcome.expected);
    assert_eq!(outcome.pending_after, 0);
}

#[test]
fn seeded_misroute_is_caught_and_attributed_to_the_right_tenants() {
    let seed = 1234;
    let mut cfg = TenantConfig::new(Mode::Dista);
    cfg.misroute_seed = Some(seed);
    let outcome = pipeline::run_tenants(&cfg).unwrap();
    let (from, msg, to) = pipeline::misroute_of(seed, cfg.tenants, cfg.messages);
    assert_ne!(from, to);
    assert_eq!(outcome.received, outcome.expected);
    assert_eq!(
        outcome.hits.len(),
        1,
        "exactly one leak, exactly one hit: {:?}",
        outcome.hits
    );
    let hit = &outcome.hits[0];
    assert_eq!((hit.from_tenant, hit.to_tenant), (from, to));
    assert_eq!(hit.tag, format!("tenant:{from}:msg:{msg}"));
    assert_ne!(hit.gid, 0, "the leaked taint crossed the wire");

    // Provenance attributes the leak end to end: minted on the victim
    // tenant's producer, sunk on the other tenant's consumer.
    let trace = outcome.cluster.provenance(hit.gid);
    let nodes = trace.nodes();
    assert!(
        nodes.contains(&format!("amq-prod-{from}").as_str()),
        "{nodes:?}"
    );
    assert!(
        nodes.contains(&format!("amq-cons-{to}").as_str()),
        "{nodes:?}"
    );
}

#[test]
fn phosphor_misses_the_misroute_dista_catches() {
    let mut cfg = TenantConfig::new(Mode::Phosphor);
    cfg.misroute_seed = Some(1234);
    let outcome = pipeline::run_tenants(&cfg).unwrap();
    // The message is still misdelivered (counts shift) but the taint
    // evidence is gone — the detection target needs distributed taints.
    assert_eq!(outcome.received, outcome.expected);
    assert_eq!(outcome.hits, vec![], "{:?}", outcome.hits);
}
