//! Chaos over the cross-system pipeline: a broker crash and Taint Map
//! shard crash land mid-pipeline, and the run must stay deterministic
//! (same seed → identical fault log and identical sink evidence) and
//! correct-or-pending-then-correct (degraded lookups resolve after the
//! heal; no stale or missing tags at the final sink).
//!
//! `ci.sh` runs this suite under several fixed `DISTA_CHAOS_SEED`s.

use dista_bench::pipeline::{self, IngestConfig, TenantConfig};
use dista_core::Mode;
use proptest::prelude::*;

fn env_seed() -> u64 {
    std::env::var("DISTA_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The determinism + soundness witness of one chaotic ingest run.
#[derive(Debug, PartialEq)]
struct Witness {
    fault_log: Vec<String>,
    sink_reports: Vec<(String, Vec<String>)>,
    sink_tags: Vec<String>,
    rows_scanned: usize,
}

/// The job's `application_{id}` tag draws from a process-global
/// counter, so its numeric suffix differs between runs in one test
/// process; the witness compares the tag's class, not the id.
fn normalize_tag(tag: &str) -> String {
    if tag.starts_with("application_") {
        "application_*".to_string()
    } else {
        tag.to_string()
    }
}

fn chaotic_ingest(seed: u64) -> (Witness, pipeline::IngestOutcome) {
    let mut cfg = IngestConfig::new(Mode::Dista);
    cfg.chaos = Some(pipeline::broker_outage_plan(seed));
    let outcome = pipeline::run_ingest(&cfg).unwrap();
    // Standup polls (region-server registration, etc.) are wall-clock
    // paced, so the absolute step the store stage begins at can drift
    // between runs; the deterministic witness is the fault schedule
    // *relative to its first entry* — stage keying pins the crash to
    // the same workload instant and the heals to fixed step deltas.
    let log = outcome.cluster.net().fault_log();
    let base = log.first().map(|f| f.step).unwrap_or(0);
    let witness = Witness {
        fault_log: log
            .iter()
            .map(|f| format!("step +{}: {:?}", f.step - base, f.action))
            .collect(),
        sink_reports: outcome
            .cluster
            .sink_reports()
            .into_iter()
            .map(|(node, report)| {
                (
                    node,
                    report
                        .observed_tags()
                        .iter()
                        .map(|t| normalize_tag(t))
                        .collect(),
                )
            })
            .collect(),
        sink_tags: outcome.sink_tags.iter().map(|t| normalize_tag(t)).collect(),
        rows_scanned: outcome.rows_scanned,
    };
    (witness, outcome)
}

#[test]
fn broker_outage_mid_pipeline_heals_with_no_lost_or_stale_tags() {
    let (witness, outcome) = chaotic_ingest(env_seed());

    // The schedule actually bit: crash + heal both fired, and the
    // workload had to retry through the outage.
    assert!(
        witness.fault_log.iter().any(|f| f.contains("Isolate")),
        "{:?}",
        witness.fault_log
    );
    assert!(
        witness.fault_log.iter().any(|f| f.contains("Rejoin")),
        "{:?}",
        witness.fault_log
    );
    assert!(
        witness.fault_log.iter().any(|f| f.contains("CrashShard")),
        "{:?}",
        witness.fault_log
    );
    assert!(
        witness.fault_log.iter().any(|f| f.contains("RestartShard")),
        "{:?}",
        witness.fault_log
    );
    assert!(outcome.retries > 0, "the outage forced retries");

    // Correctness after the heal: nothing lost, nothing left pending.
    assert_eq!(outcome.rows_scanned, 6);
    assert_eq!(outcome.pending_after, 0, "all degraded lookups resolved");
    for tag in &outcome.record_tags {
        assert!(
            outcome.sink_tags.contains(tag),
            "soundness under chaos: {tag} missing from {:?}",
            outcome.sink_tags
        );
    }
    for &gid in &outcome.record_gids {
        assert_ne!(gid, 0);
        let trace = outcome.cluster.provenance(gid);
        assert!(
            trace.pending_all_resolved(),
            "gid {gid}: every Pending hop pairs with a later Resolved\n{trace}"
        );
        let systems = pipeline::systems_spanned(&trace);
        assert!(systems.len() >= 3, "gid {gid} spanned only {systems:?}");
    }
}

#[test]
fn same_seed_replays_an_identical_pipeline_witness() {
    let seed = env_seed();
    let (first, first_outcome) = chaotic_ingest(seed);
    drop(first_outcome);
    let (second, second_outcome) = chaotic_ingest(seed);
    drop(second_outcome);
    assert_eq!(
        first, second,
        "same seed must replay the same fault log and the same sink evidence"
    );
}

#[test]
fn tenant_misroute_is_still_caught_through_a_broker_outage() {
    let seed = env_seed();
    let mut cfg = TenantConfig::new(Mode::Dista);
    cfg.misroute_seed = Some(seed);
    cfg.chaos = Some(pipeline::broker_deliver_outage(seed));
    let outcome = pipeline::run_tenants(&cfg).unwrap();
    let (from, _, to) = pipeline::misroute_of(seed, cfg.tenants, cfg.messages);
    assert!(outcome.retries > 0, "the outage forced retries");
    assert_eq!(outcome.received, outcome.expected);
    assert_eq!(outcome.hits.len(), 1, "{:?}", outcome.hits);
    assert_eq!(
        (outcome.hits[0].from_tenant, outcome.hits[0].to_tenant),
        (from, to)
    );
    assert_eq!(outcome.pending_after, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seeded crash schedule keeps cross-system lookups
    /// correct-or-pending-then-correct: after the scheduled heal, the
    /// full record set reaches the final sink and nothing stays
    /// pending.
    #[test]
    fn seeded_crash_schedules_stay_correct_after_heal(seed in 0u64..10_000) {
        let mut cfg = IngestConfig::new(Mode::Dista);
        cfg.records = 4;
        cfg.chaos = Some(pipeline::broker_outage_plan(seed));
        let outcome = pipeline::run_ingest(&cfg).unwrap();
        prop_assert_eq!(outcome.rows_scanned, 4);
        prop_assert_eq!(outcome.pending_after, 0);
        for tag in &outcome.record_tags {
            prop_assert!(
                outcome.sink_tags.contains(tag),
                "{} missing from {:?}", tag, outcome.sink_tags
            );
        }
        for &gid in &outcome.record_gids {
            let trace = outcome.cluster.provenance(gid);
            prop_assert!(trace.pending_all_resolved());
        }
    }
}
