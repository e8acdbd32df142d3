//! Wire-propagated trace-context interop: a 3-VM relay under the v2
//! annotation frames yields *exact* span-built provenance, and the
//! trace is flagged exact versus the gid-matching reconstruction a
//! v1-only cluster falls back to. Mixed clusters with v1 stragglers
//! keep reconstructing — they just lose the exactness flag.

use std::collections::BTreeSet;

use dista_repro::core::{Cluster, Mode};
use dista_repro::jre::{InputStream, OutputStream, ServerSocket, Socket, WireProtocol};
use dista_repro::obs::{reconstruct_inferred, Hop, ObsConfig};
use dista_repro::simnet::NodeAddr;
use dista_repro::taint::{Payload, TagValue, TaintedBytes};
use dista_repro::taintmap::TaintMapEndpoint;

/// Drives tainted bytes n1 → n2 → n3 over two socket hops and returns
/// the Global ID the taint registered under.
fn relay_secret(cluster: &Cluster) -> u32 {
    let (src, relay, sink) = (cluster.vm(0), cluster.vm(1), cluster.vm(2));

    let relay_server = ServerSocket::bind(relay, NodeAddr::new([10, 0, 0, 2], 91)).unwrap();
    let sink_server = ServerSocket::bind(sink, NodeAddr::new([10, 0, 0, 3], 91)).unwrap();
    let src_out = Socket::connect(src, relay_server.local_addr()).unwrap();
    let relay_in = relay_server.accept().unwrap();
    let relay_out = Socket::connect(relay, sink_server.local_addr()).unwrap();
    let sink_in = sink_server.accept().unwrap();

    let secret = src.taint_source(TagValue::str("secret"));
    src_out
        .output_stream()
        .write(&Payload::Tainted(TaintedBytes::uniform(
            b"relayed!",
            secret,
        )))
        .unwrap();
    let relayed = relay_in.input_stream().read_exact(8).unwrap();
    relay_out.output_stream().write(&relayed).unwrap();
    let received = sink_in.input_stream().read_exact(8).unwrap();
    let taint = received.taint_union(sink.store());
    assert!(sink.taint_sink("LOG.info", taint), "taint reached the sink");

    src.taint_map()
        .unwrap()
        .cached_gid_for(secret)
        .expect("taint registered on first crossing")
        .0
}

fn crossing_spans(trace: &dista_repro::obs::ProvenanceTrace) -> Vec<u64> {
    trace
        .hops
        .iter()
        .filter_map(|h| match h {
            Hop::Crossed { span, .. } => Some(*span),
            _ => None,
        })
        .collect()
}

#[test]
fn all_v2_relay_builds_exact_span_trace() {
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 3)
        .wire_protocol(WireProtocol::V2)
        .observability(ObsConfig::default())
        .build()
        .unwrap();
    let gid = relay_secret(&cluster);

    let exact = cluster.provenance(gid);
    assert!(
        exact.exact,
        "every crossing span-paired under v2 annotations: {exact}"
    );
    assert_eq!(exact.crossings(), 2, "{exact}");
    assert_eq!(exact.nodes(), vec!["n1", "n2", "n3"]);
    let spans = crossing_spans(&exact);
    assert_eq!(spans.len(), 2);
    assert!(
        spans.iter().all(|s| *s != 0),
        "both crossings carry wire-minted span ids: {spans:?}"
    );
    assert_ne!(spans[0], spans[1], "each crossing mints its own span");

    // The span-built trace must agree with (and be flagged exact
    // against) the gid-matching reconstruction on this unambiguous
    // path — the annotations change confidence, not the story.
    let inferred = reconstruct_inferred(&cluster.obs_events(), gid);
    assert!(!inferred.exact, "inferred view never claims exactness");
    assert_eq!(exact.hops, inferred.hops);
    cluster.shutdown();
}

#[test]
fn negotiated_cluster_matches_pinned_v2_exactness() {
    // Negotiate everywhere settles every hop on v2, so the annotation
    // frames flow exactly as in the pinned-v2 cluster.
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 3)
        .wire_protocol(WireProtocol::Negotiate)
        .observability(ObsConfig::default())
        .build()
        .unwrap();
    let gid = relay_secret(&cluster);
    let trace = cluster.provenance(gid);
    assert!(trace.exact, "{trace}");
    assert_eq!(trace.crossings(), 2);
    cluster.shutdown();
}

#[test]
fn v1_straggler_relay_still_reconstructs_without_exactness() {
    // The relay node never upgraded: both its hops fall back to v1, no
    // annotation frames ship, and provenance degrades to gid-matching
    // reconstruction — complete, but not exact.
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 3)
        .wire_protocol(WireProtocol::Negotiate)
        .node_wire_protocol("n2", WireProtocol::V1)
        .observability(ObsConfig::default())
        .build()
        .unwrap();
    let gid = relay_secret(&cluster);

    let trace = cluster.provenance(gid);
    assert!(!trace.exact, "a v1 hop cannot be span-paired: {trace}");
    assert_eq!(trace.crossings(), 2, "reconstruction still sees both hops");
    assert_eq!(trace.nodes(), vec!["n1", "n2", "n3"]);
    assert_eq!(trace.sinks(), vec![("n3", "LOG.info")]);
    assert!(
        crossing_spans(&trace).iter().all(|s| *s == 0),
        "v1 crossings carry no span ids"
    );
    cluster.shutdown();
}

#[test]
fn partially_upgraded_relay_keeps_both_hops() {
    // Only the second hop speaks v2 (n1 is the straggler): the first
    // crossing is inferred, the second is span-paired, and the combined
    // trace is complete but not exact.
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 3)
        .wire_protocol(WireProtocol::Negotiate)
        .node_wire_protocol("n1", WireProtocol::V1)
        .observability(ObsConfig::default())
        .build()
        .unwrap();
    let gid = relay_secret(&cluster);

    let trace = cluster.provenance(gid);
    assert!(!trace.exact, "one inferred hop breaks exactness: {trace}");
    assert_eq!(trace.crossings(), 2);
    let spans = crossing_spans(&trace);
    assert_eq!(spans[0], 0, "v1 first hop has no span");
    assert_ne!(spans[1], 0, "v2 second hop minted a crossing span");
    cluster.shutdown();
}

#[test]
fn every_exported_family_is_documented() {
    // One of everything that registers an instrument: a tainted relay,
    // a netty message each way, a live reshard.
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 3)
        .observability(ObsConfig::default())
        .taint_map_endpoint(TaintMapEndpoint::builder().shards(2))
        .build()
        .unwrap();
    relay_secret(&cluster);
    let pipeline = dista_repro::netty::Pipeline::new();
    let msg = pipeline.run_outbound(Payload::Plain(b"m".to_vec()), cluster.vm(0));
    pipeline.run_inbound(msg, cluster.vm(1));
    cluster.split_shard(0).unwrap();
    let exported: BTreeSet<String> = cluster
        .metrics_dump()
        .samples
        .into_iter()
        .map(|s| s.name)
        .collect();
    cluster.shutdown();

    // The catalogue: first cell of every `| `family` | …` row of the
    // DESIGN.md §4b table.
    let design = include_str!("../DESIGN.md");
    let section = design
        .split("## 4b. Observability")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("DESIGN.md has a §4b");
    let documented: BTreeSet<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|row| row.split('`').next())
        .map(str::to_string)
        .collect();
    assert_eq!(
        exported, documented,
        "metrics_dump() families (left) vs the DESIGN.md §4b table (right)"
    );
}
