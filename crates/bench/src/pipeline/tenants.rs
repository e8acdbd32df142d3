//! The ActiveMQ-fronted multi-tenant scenario: per-tenant source
//! classes, cross-tenant leak detection via sink reports + provenance.
//!
//! One broker fronts N tenants. Tenant `t`'s producer mints a distinct
//! source class per message (`tenant:{t}:msg:{m}`) and publishes to
//! the tenant's own destination; tenant `t`'s consumer subscribes to
//! that destination, and its `ActiveMQConsumer.receive` sink is the
//! isolation check: any tag from another tenant observed there is a
//! **cross-tenant hit**, the scenario's detection target.
//!
//! A seeded misroute ([`misroute_of`]) redirects exactly one message
//! to another tenant's destination, so the positive path asserts
//! exactly one hit attributed to the right `(from, to)` pair — and the
//! clean path (no misroute) asserts zero hits, the precision half.

use dista_activemq::{seed_config, Broker, Consumer, Producer, CONSUMER_CLASS, PRODUCER_CLASS};
use dista_core::{Cluster, DistaError, FaultPlan, Mode, WireProtocol};
use dista_jre::Vm;
use dista_obs::ObsConfig;
use dista_simnet::FaultAction::{Isolate, Rejoin};
use dista_simnet::{LinkIp, NodeAddr, SimFs};
use dista_taint::{TagValue, Taint, TaintedBytes};
use dista_taintmap::TaintMapEndpoint;

use super::{STAGE_COLLECT, STAGE_DELIVER};

/// The ActiveMQ broker's node, whose isolation is its crash.
const BROKER_IP: LinkIp = [10, 0, 0, 1];

/// Retry budget per chaos-tolerant step (see `ingest::MAX_ATTEMPTS`).
const MAX_ATTEMPTS: usize = 400;

/// Configuration for one multi-tenant run.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tracking mode for every VM.
    pub mode: Mode,
    /// Wire-protocol policy.
    pub wire: WireProtocol,
    /// Optional seeded chaos schedule (see [`broker_deliver_outage`]).
    pub chaos: Option<FaultPlan>,
    /// Number of tenants (≥ 2 for a misroute to exist).
    pub tenants: usize,
    /// Messages per tenant.
    pub messages: usize,
    /// When set, seed for the single cross-tenant misroute; `None` is
    /// the clean control run.
    pub misroute_seed: Option<u64>,
}

impl TenantConfig {
    /// A small clean-run configuration on the v2 wire.
    pub fn new(mode: Mode) -> Self {
        TenantConfig {
            mode,
            wire: WireProtocol::V2,
            chaos: None,
            tenants: 3,
            messages: 4,
            misroute_seed: None,
        }
    }
}

/// One cross-tenant sink observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossTenantHit {
    /// Tenant whose data leaked (parsed from the tag).
    pub from_tenant: usize,
    /// Tenant whose consumer observed it.
    pub to_tenant: usize,
    /// The offending tag (`tenant:{from}:msg:{m}`).
    pub tag: String,
    /// Global ID the leaked taint registered under (0 if untracked).
    pub gid: u32,
}

/// What one multi-tenant run produced.
#[derive(Debug)]
pub struct TenantOutcome {
    /// The cluster, post-run (broker shut down).
    pub cluster: Cluster,
    /// Every cross-tenant hit, in consumer order.
    pub hits: Vec<CrossTenantHit>,
    /// Messages each tenant's consumer received.
    pub received: Vec<usize>,
    /// Messages each tenant's consumer was expected to receive (the
    /// per-tenant count shifted by the misroute, when one is seeded).
    pub expected: Vec<usize>,
    /// The seeded misroute as `(from_tenant, msg, to_tenant)`.
    pub misroute: Option<(usize, usize, usize)>,
    /// Chaos-induced retries across all legs.
    pub retries: u64,
    /// Degraded gid lookups still unresolved at the end.
    pub pending_after: usize,
}

/// The seeded misroute: which `(from_tenant, msg, to_tenant)` gets
/// redirected. Pure arithmetic on the seed so the same seed replays
/// the same leak; `to != from` always.
pub fn misroute_of(seed: u64, tenants: usize, messages: usize) -> (usize, usize, usize) {
    assert!(tenants >= 2, "a misroute needs at least two tenants");
    let from = (seed % tenants as u64) as usize;
    let msg = ((seed / 3) % messages as u64) as usize;
    let to = (from + 1 + ((seed / 7) as usize % (tenants - 1))) % tenants;
    (from, msg, to)
}

/// Chaos schedule for the tenant scenario: the broker crashes the
/// moment the deliver leg begins and heals 16 workload operations
/// later, inside the producers' retry budget.
pub fn broker_deliver_outage(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed)
        .after_stage(STAGE_DELIVER, 0, Isolate { ip: BROKER_IP })
        .after_stage(STAGE_DELIVER, 16, Rejoin { ip: BROKER_IP })
        .build()
}

fn tenant_spec() -> dista_taint::SourceSinkSpec {
    use dista_taint::MethodDesc;
    let mut spec = dista_taint::SourceSinkSpec::new();
    spec.add_source(MethodDesc::new(PRODUCER_CLASS, "createTextMessage"))
        .add_sink(MethodDesc::new(CONSUMER_CLASS, "receive"));
    spec
}

fn build_cluster(cfg: &TenantConfig) -> Result<Cluster, DistaError> {
    let mut builder = Cluster::builder(cfg.mode).node("amq-broker", BROKER_IP);
    for t in 0..cfg.tenants {
        builder = builder
            .node(format!("amq-prod-{t}"), [10, 0, 0, 10 + t as u8])
            .node(format!("amq-cons-{t}"), [10, 0, 0, 40 + t as u8]);
    }
    builder = builder
        .spec(tenant_spec())
        .wire_protocol(cfg.wire)
        .observability(ObsConfig {
            ring_capacity: 65_536,
        })
        .taint_map_endpoint(TaintMapEndpoint::builder().snapshots(SimFs::new()));
    if let Some(plan) = &cfg.chaos {
        builder = builder.chaos(plan.clone());
    }
    builder.build()
}

/// Runs the multi-tenant scenario under `cfg`.
///
/// # Errors
///
/// Standup failures, or a leg exhausting its retry budget under chaos.
///
/// # Panics
///
/// Panics if `cfg.tenants < 2` while a misroute seed is set.
pub fn run_tenants(cfg: &TenantConfig) -> Result<TenantOutcome, DistaError> {
    let mut cluster = build_cluster(cfg)?;
    let (n_tenants, n_msgs) = (cfg.tenants, cfg.messages);
    let misroute = cfg
        .misroute_seed
        .map(|seed| misroute_of(seed, n_tenants, n_msgs));
    let mut retries: u64 = 0;

    let broker_vm = cluster.vm_named("amq-broker").expect("broker node").clone();
    let prod_vms: Vec<Vm> = (0..n_tenants)
        .map(|t| {
            cluster
                .vm_named(&format!("amq-prod-{t}"))
                .expect("producer node")
                .clone()
        })
        .collect();
    let cons_vms: Vec<Vm> = (0..n_tenants)
        .map(|t| {
            cluster
                .vm_named(&format!("amq-cons-{t}"))
                .expect("consumer node")
                .clone()
        })
        .collect();

    seed_config(&broker_vm, "tenant-broker");
    let broker = Broker::start(&broker_vm, NodeAddr::new(BROKER_IP, 61616))?;

    // ── Deliver: every tenant publishes to its own destination; the
    // seeded misroute sends exactly one message to someone else's. The
    // broker queues per destination, so consumers can subscribe after.
    cluster.record_pipeline_stage("amq-broker", STAGE_DELIVER, (n_tenants * n_msgs) as u64);
    cluster.poll_chaos()?;
    let mut message_taints: Vec<Vec<Taint>> = vec![Vec::new(); n_tenants];
    for (t, prod_vm) in prod_vms.iter().enumerate() {
        let mut producer = connect_producer(&mut cluster, prod_vm, broker.addr(), &mut retries)?;
        for m in 0..n_msgs {
            let tag = format!("tenant:{t}:msg:{m}");
            let taint =
                prod_vm.source_point(PRODUCER_CLASS, "createTextMessage", TagValue::str(&tag));
            let body = TaintedBytes::uniform(format!("t{t}m{m} payload").into_bytes(), taint);
            let dest_tenant = match misroute {
                Some((from, msg, to)) if from == t && msg == m => to,
                _ => t,
            };
            let dest = format!("tenant-{dest_tenant}");
            let mut attempts = 0;
            loop {
                match producer.send(&dest, body.clone()) {
                    Ok(_) => break,
                    Err(e) => {
                        attempts += 1;
                        if attempts > MAX_ATTEMPTS {
                            return Err(e.into());
                        }
                        retries += 1;
                        cluster.poll_chaos()?;
                        if let Ok(p) = Producer::connect(prod_vm, broker.addr()) {
                            producer = p;
                        }
                    }
                }
            }
            message_taints[t].push(taint);
        }
        producer.close();
    }

    // ── Collect: each tenant's consumer drains its destination; its
    // receive sink records every tag it observed.
    cluster.record_pipeline_stage("amq-broker", STAGE_COLLECT, (n_tenants * n_msgs) as u64);
    cluster.poll_chaos()?;
    let mut expected = vec![n_msgs; n_tenants];
    if let Some((from, _, to)) = misroute {
        expected[from] -= 1;
        expected[to] += 1;
    }
    let mut received = vec![0usize; n_tenants];
    for (t, cons_vm) in cons_vms.iter().enumerate() {
        let dest = format!("tenant-{t}");
        let mut consumer =
            subscribe_consumer(&mut cluster, cons_vm, broker.addr(), &dest, &mut retries)?;
        let mut attempts = 0;
        while received[t] < expected[t] {
            match consumer.receive() {
                Ok(_) => received[t] += 1,
                Err(e) => {
                    attempts += 1;
                    if attempts > MAX_ATTEMPTS {
                        return Err(e.into());
                    }
                    retries += 1;
                    cluster.poll_chaos()?;
                    if let Ok(c) = Consumer::subscribe(cons_vm, broker.addr(), &dest) {
                        consumer = c;
                    }
                }
            }
        }
        consumer.close();
    }

    let mut drain = 0;
    loop {
        cluster.poll_chaos()?;
        if cluster.pending_gids() == 0 {
            break;
        }
        let _ = cluster.reconcile_pending();
        drain += 1;
        if drain > MAX_ATTEMPTS {
            break;
        }
    }
    broker.shutdown();

    // Isolation audit: a tag of tenant `u != t` at tenant `t`'s receive
    // sink is a leak; attribute it by parsing the tag's tenant prefix.
    let mut hits = Vec::new();
    for (t, cons_vm) in cons_vms.iter().enumerate() {
        let report = cons_vm.sink_report();
        for event in report.at(&format!("{CONSUMER_CLASS}.receive")) {
            for tag in &event.tags {
                let Some(from_tenant) = tag
                    .strip_prefix("tenant:")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|id| id.parse::<usize>().ok())
                else {
                    continue;
                };
                if from_tenant != t {
                    let msg = tag
                        .rsplit(':')
                        .next()
                        .and_then(|m| m.parse::<usize>().ok())
                        .unwrap_or(0);
                    let gid = message_taints
                        .get(from_tenant)
                        .and_then(|v| v.get(msg))
                        .and_then(|&taint| {
                            prod_vms[from_tenant]
                                .taint_map()
                                .and_then(|c| c.cached_gid_for(taint))
                        })
                        .map(|g| g.0)
                        .unwrap_or(0);
                    hits.push(CrossTenantHit {
                        from_tenant,
                        to_tenant: t,
                        tag: tag.clone(),
                        gid,
                    });
                }
            }
        }
    }

    let pending_after = cluster.pending_gids();
    Ok(TenantOutcome {
        cluster,
        hits,
        received,
        expected,
        misroute,
        retries,
        pending_after,
    })
}

fn connect_producer(
    cluster: &mut Cluster,
    vm: &Vm,
    broker: NodeAddr,
    retries: &mut u64,
) -> Result<Producer, DistaError> {
    let mut attempts = 0;
    loop {
        match Producer::connect(vm, broker) {
            Ok(p) => return Ok(p),
            Err(e) => {
                attempts += 1;
                if attempts > MAX_ATTEMPTS {
                    return Err(e.into());
                }
                *retries += 1;
                cluster.poll_chaos()?;
            }
        }
    }
}

fn subscribe_consumer(
    cluster: &mut Cluster,
    vm: &Vm,
    broker: NodeAddr,
    dest: &str,
    retries: &mut u64,
) -> Result<Consumer, DistaError> {
    let mut attempts = 0;
    loop {
        match Consumer::subscribe(vm, broker, dest) {
            Ok(c) => return Ok(c),
            Err(e) => {
                attempts += 1;
                if attempts > MAX_ATTEMPTS {
                    return Err(e.into());
                }
                *retries += 1;
                cluster.poll_chaos()?;
            }
        }
    }
}
