//! # dista-bench — the paper's tables and claims
//!
//! One target per table/claim of the paper's evaluation (see the
//! experiment index in `DESIGN.md`). Speed is measured by `benchmark/`
//! (`BENCHMARK.json`), behaviour is gated by the test suites; nothing
//! here does either (DESIGN.md §4j).
//!
//! | target | artifact |
//! |---|---|
//! | `bin/table1_methods` | Table I — instrumented method inventory |
//! | `bin/table2_micro_soundness` | Table II — RQ1 over the 30 cases |
//! | `bin/table3_systems` | Table III — systems/protocols/workloads |
//! | `bin/table4_scenarios` | Table IV — SDT/SIM sources & sinks |
//! | `bin/table5_overhead` | Table V — micro overhead |
//! | `bin/table6_systems_overhead` | Table VI — real-system overhead |
//! | `bin/claim_net_overhead` | §V-F ≈5× network bytes |
//! | `bin/claim_global_taints` | §V-F global-taint census & scaling |
//! | `bin/table_usability` | §V-E launch-script LOC |
//! | `bin/pipeline` + [`pipeline`] | cross-system scenarios (driven by `tests/pipeline_*.rs`); the bin prints one provenance trace |
//! | `benches/handoff` | CI gate: SimNet round trip ≤ 2× an mpsc round trip (self-timed, exit status) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod systems;
pub mod table;

pub use dista_jre::Mode;
pub use systems::{run_system, run_system_with, Scenario, SystemId, SystemRun};

/// The simulated link cost used by the overhead experiments, in
/// nanoseconds per byte (`DISTA_WIRE_NS`, default 8 ≈ 1 Gbit/s).
///
/// The paper's testbed moves real bytes through real NICs, so its wire
/// expansion costs wall-clock time; the simulator needs an explicit link
/// model for the same effect. Correctness tests run with a free link
/// (0 ns/B) — only the overhead experiments charge for bandwidth.
pub fn wire_ns_per_byte() -> u64 {
    std::env::var("DISTA_WIRE_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// The link-model fault config used by the overhead experiments.
pub fn bench_link_model() -> dista_simnet::FaultConfig {
    dista_simnet::FaultConfig {
        wire_ns_per_byte: wire_ns_per_byte(),
        ..Default::default()
    }
}
