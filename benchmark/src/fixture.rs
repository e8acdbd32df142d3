//! Standing a workload up and tearing it down: cluster build,
//! mini-system stand-up, connects and taint-pool registration — what
//! `setup_s` pays for before the first measured op.

use std::sync::Arc;
use std::time::Instant;

use dista_core::{Cluster, Mode};
use dista_obs::ObsConfig;

use crate::crossing::{self, CrossingDriver, Outcome, Pool};
use crate::pipeline::{self, PipelineDriver, Servers, StandupMs};
use crate::spec::{Kind, Workload};
use crate::trace::Spans;

pub enum Driver {
    Crossing(Box<CrossingDriver>),
    Pipeline(Box<PipelineDriver>),
}

impl Driver {
    #[inline]
    pub fn op<T: Spans>(&mut self, tr: &mut T) -> Outcome {
        match self {
            Driver::Crossing(d) => d.op(tr),
            Driver::Pipeline(d) => d.op(tr),
        }
    }
}

#[derive(Clone, Copy)]
pub struct Setup {
    pub mode: Mode,
    /// Build the cluster with `.observability(ObsConfig::default())`.
    pub observability: bool,
    pub drivers: usize,
    pub seed: u64,
    /// Self-test: verify against a tag the sender never attached.
    pub expect_wrong_tag: bool,
}

/// Stand-up timings, for the `*.standup_ms` layer metrics.
#[derive(Default, Clone, Copy)]
pub struct StandupTimes {
    pub cluster_build_ms: f64,
    pub connect_us: f64,
    pub systems: StandupMs,
}

pub struct Fixture {
    pub cluster: Cluster,
    pub drivers: Vec<Driver>,
    servers: Option<Servers>,
    pub standup: StandupTimes,
}

pub fn set_up(workload: &Workload, setup: Setup) -> Result<Fixture, String> {
    let started = Instant::now();
    let builder = match workload.kind {
        Kind::Crossing { .. } => Cluster::builder(setup.mode)
            .nodes("bench", 2)
            .wire_protocol(workload.wire),
        Kind::Pipeline => pipeline::cluster_builder(setup.mode),
    };
    let builder = if setup.observability {
        builder.observability(ObsConfig::default())
    } else {
        builder
    };
    let cluster = builder.build().map_err(|e| format!("cluster build: {e}"))?;
    let mut standup = StandupTimes {
        cluster_build_ms: started.elapsed().as_secs_f64() * 1e3,
        ..StandupTimes::default()
    };

    let mut drivers = Vec::with_capacity(setup.drivers);
    let mut servers = None;
    match workload.kind {
        Kind::Crossing { payload, taints } => {
            let (tx_vm, rx_vm) = (cluster.vm(0), cluster.vm(1));
            let pool = Arc::new(Pool::mint(tx_vm, taints, setup.seed));
            let mut connect_ns = 0;
            for id in 0..setup.drivers {
                let mut connected = crossing::connect(
                    id,
                    tx_vm,
                    rx_vm,
                    workload.wire,
                    payload,
                    taints,
                    pool.clone(),
                    setup.seed,
                    setup.expect_wrong_tag,
                )
                .map_err(|e| format!("connect: {e}"))?;
                connected
                    .driver
                    .register_pool()
                    .map_err(|e| format!("pool registration: {e}"))?;
                connect_ns += connected.connect_ns;
                drivers.push(Driver::Crossing(Box::new(connected.driver)));
            }
            standup.connect_us = connect_ns as f64 / 1e3 / setup.drivers as f64;
        }
        Kind::Pipeline => {
            let (driver, up, systems) =
                pipeline::stand_up(&cluster, setup.seed, setup.expect_wrong_tag)
                    .map_err(|e| format!("pipeline stand-up: {e}"))?;
            standup.systems = systems;
            servers = Some(up);
            drivers.push(Driver::Pipeline(Box::new(driver)));
        }
    }
    Ok(Fixture {
        cluster,
        drivers,
        servers,
        standup,
    })
}

impl Fixture {
    /// Closes connections, stops the mini-systems, and shuts the
    /// cluster down; returns `Cluster::shutdown`'s own time in ms.
    pub fn tear_down(self) -> f64 {
        for driver in &self.drivers {
            match driver {
                Driver::Crossing(d) => d.close(),
                Driver::Pipeline(d) => d.close(),
            }
        }
        drop(self.drivers);
        if let Some(servers) = self.servers {
            servers.shutdown();
        }
        let started = Instant::now();
        self.cluster.shutdown();
        started.elapsed().as_secs_f64() * 1e3
    }
}
