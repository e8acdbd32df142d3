//! The benchmark's definition: metric names, units, directions and
//! bounds come from `BENCHMARK.json` (compiled in, so there is one copy);
//! the workload table lives here because `BENCHMARK.json` has no key for
//! shapes and op counts.

use dista_core::WireProtocol;

use crate::json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("metric field");
            Metric {
                name: field("name").into(),
                unit: field("unit").into(),
                lower_is_better: field("better") == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

pub fn contract() -> Contract {
    let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("run_seconds"),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}

/// How a crossing's payload is tainted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Taints {
    /// 0% tainted.
    Clean,
    /// 100% tainted, in `runs` equal runs, each drawn from the pool.
    Pool { runs: usize },
    /// 100% tainted by `per_op` taints minted inside the op.
    Fresh { per_op: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One op is one wire crossing of `payload` bytes.
    Crossing { payload: usize, taints: Taints },
    /// One op is one record through RocketMQ and HBase.
    Pipeline,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub wire: WireProtocol,
    /// Driver threads, each with its own connection; also the number of
    /// cores the workload's process is confined to.
    pub drivers: usize,
    /// Ops per second of `--seconds`, calibrated once so that
    /// `run_seconds` of them take about that long at the commit that
    /// introduced the benchmark. Frozen: the op count for a given
    /// `--seconds` is the same on every commit, which is what makes
    /// bytes, frames and tree nodes repeat exactly.
    pub ops_per_second: u64,
}

/// Global taints `hot_small_2x` and `tainted_bulk` draw from.
pub const POOL_SIZE: usize = 64;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "clean_small",
        kind: Kind::Crossing {
            payload: 64,
            taints: Taints::Clean,
        },
        wire: WireProtocol::Negotiate,
        drivers: 1,
        ops_per_second: 800_000,
    },
    Workload {
        name: "hot_small_2x",
        kind: Kind::Crossing {
            payload: 64,
            taints: Taints::Pool { runs: 1 },
        },
        wire: WireProtocol::V1,
        drivers: 2,
        ops_per_second: 620_000,
    },
    Workload {
        name: "tainted_bulk",
        kind: Kind::Crossing {
            payload: 16 * 1024,
            taints: Taints::Pool { runs: 8 },
        },
        wire: WireProtocol::V1,
        drivers: 1,
        ops_per_second: 16_000,
    },
    Workload {
        name: "fresh_taints",
        kind: Kind::Crossing {
            payload: 256,
            taints: Taints::Fresh { per_op: 2 },
        },
        wire: WireProtocol::Negotiate,
        drivers: 1,
        ops_per_second: 19_000,
    },
    Workload {
        name: "record_pipeline",
        kind: Kind::Pipeline,
        wire: WireProtocol::V2,
        drivers: 1,
        ops_per_second: 6_200,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Ops in a measured section sized for `seconds`: the same number
    /// for every driver, and enough that a quarter-size window still
    /// gives each driver work.
    pub fn ops_for(&self, seconds: f64) -> u64 {
        let grain = self.drivers as u64;
        let ops = (self.ops_per_second as f64 * seconds) as u64;
        (ops / grain).max(4) * grain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_workloads_this_crate_runs() {
        let doc = Value::parse(BENCHMARK_JSON).unwrap();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn op_counts_split_evenly_over_drivers() {
        for w in &WORKLOADS {
            for seconds in [0.001, 0.15, 1.0, 15.0] {
                let ops = w.ops_for(seconds);
                assert!(ops > 0 && ops % w.drivers as u64 == 0, "{}", w.name);
            }
        }
    }
}
