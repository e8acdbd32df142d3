//! Deterministic fault-schedule engine (chaos layer).
//!
//! A fault is a [`FaultAction`] value. A [`FaultPlan`] schedules actions
//! on a **logical step clock** that the network advances on every
//! connection attempt, TCP write, and datagram send, or on a named
//! pipeline stage ([`crate::SimNet::mark_stage`]) plus a step delay;
//! [`crate::SimNet::inject`] applies one now. Because the clock counts
//! operations — never wall time — and every probabilistic choice (jitter)
//! draws from one RNG seeded by the plan's seed, a chaos run replays
//! bit-identically: the same plan against the same workload injects the
//! same faults at the same operations, every time.
//!
//! Fault taxonomy:
//!
//! * **Directed partitions** — traffic from one IP to another is cut:
//!   connects and writes fail with [`crate::NetError::Unreachable`],
//!   datagrams are dropped (and accounted as drops). Heal points restore
//!   the link.
//! * **Isolation** — one IP is partitioned from everyone: a crashed VM,
//!   as the rest of the cluster sees it.
//! * **Connection resets** — established TCP connections across a link
//!   are severed; the next operation on either end observes
//!   [`crate::NetError::Closed`].
//! * **Latency/jitter** — a per-link delay charged to the sender, with
//!   jitter sampled from the seeded RNG.
//! * **Taint Map process faults** — the engine cannot kill a process, so
//!   shard crash/restart actions are only recorded; the cluster layer
//!   (`Cluster::poll_chaos` in `dista-core`) executes them when it walks
//!   the log.
//!
//! Every applied action, scheduled or injected, lands in one
//! applied-fault log ([`crate::SimNet::fault_log`]); the log is the
//! engine's only output and the determinism witness.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An IPv4 address identifying one side of a link.
pub type LinkIp = [u8; 4];

/// One fault action, either scheduled in a [`FaultPlan`] or injected
/// imperatively through `SimNet::inject`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Cut traffic from `from` to `to` (directed; the reverse direction
    /// keeps working unless also partitioned).
    Partition {
        /// Source IP of the cut direction.
        from: LinkIp,
        /// Destination IP of the cut direction.
        to: LinkIp,
    },
    /// Restore a directed partition.
    Heal {
        /// Source IP of the healed direction.
        from: LinkIp,
        /// Destination IP of the healed direction.
        to: LinkIp,
    },
    /// Partition an IP from every peer, both directions (a crashed or
    /// unplugged node as seen from the network).
    Isolate {
        /// The isolated IP.
        ip: LinkIp,
    },
    /// Undo [`FaultAction::Isolate`].
    Rejoin {
        /// The rejoining IP.
        ip: LinkIp,
    },
    /// Sever every TCP connection currently established between the two
    /// IPs (both directions). New connections may still be made.
    Reset {
        /// One side of the link.
        a: LinkIp,
        /// The other side.
        b: LinkIp,
    },
    /// Charge `ns` (± up to `jitter_ns`, sampled from the seeded RNG)
    /// of extra latency to every send from `from` to `to`.
    Latency {
        /// Source IP of the slowed direction.
        from: LinkIp,
        /// Destination IP of the slowed direction.
        to: LinkIp,
        /// Base injected delay in nanoseconds.
        ns: u64,
        /// Uniform jitter bound in nanoseconds.
        jitter_ns: u64,
    },
    /// Remove injected latency from a directed link.
    ClearLatency {
        /// Source IP.
        from: LinkIp,
        /// Destination IP.
        to: LinkIp,
    },
    /// Ask the cluster layer to crash the Taint Map primary at base or
    /// extended index `shard`: a base shard's, or a split server's after
    /// them in creation order. A no-op if that primary is crashed or not
    /// created yet.
    CrashShard {
        /// Base or extended server index.
        shard: u32,
    },
    /// Ask the cluster layer to restart the crashed primary at base or
    /// extended index `shard` from its write-ahead snapshot. A no-op if
    /// nothing there is crashed.
    RestartShard {
        /// Base or extended server index.
        shard: u32,
    },
}

/// When a scheduled action fires.
#[derive(Debug, Clone, PartialEq, Eq)]
enum When {
    /// When the logical step clock reaches this step.
    Step(u64),
    /// `delay_steps` operations after the workload first marks `stage`
    /// (0 = at the mark itself). Stage keying lets a plan say "crash the
    /// broker when the store leg begins" against workloads whose exact
    /// operation counts the author cannot predict; a deterministic
    /// workload marks its stages at the same step every run.
    Stage { stage: String, delay_steps: u64 },
}

/// One schedule entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultEvent {
    when: When,
    action: FaultAction,
}

/// A fault that already applied, with the step it applied at. The
/// engine's applied-fault log is the determinism witness: two runs of
/// the same plan against the same workload produce identical logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFault {
    /// Step the action applied at.
    pub step: u64,
    /// The applied action.
    pub action: FaultAction,
}

/// A deterministic fault schedule. Build one with [`FaultPlan::builder`],
/// install it with `SimNet::install_fault_plan` (or
/// `ClusterBuilder::chaos` in `dista-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    entries: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Starts an empty plan whose RNG (jitter sampling) is seeded with
    /// `seed`. The seed is also the identity of the run: same seed, same
    /// plan, same workload ⇒ same injected faults.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                seed,
                entries: Vec::new(),
            },
        }
    }
}

/// Builder for [`FaultPlan`]. Entries due at the same step apply in
/// insertion order.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Schedules `action` to apply when the step clock reaches `step`
    /// (at install, if the clock is already there).
    pub fn at(mut self, step: u64, action: FaultAction) -> Self {
        self.plan.entries.push(FaultEvent {
            when: When::Step(step),
            action,
        });
        self
    }

    /// Schedules `action` to apply `delay_steps` operations after the
    /// workload first marks pipeline stage `stage` (0 = at the mark; see
    /// [`crate::SimNet::mark_stage`]). A delayed entry joins the step
    /// schedule at the mark, after any entries already due at its step.
    pub fn after_stage(
        mut self,
        stage: impl Into<String>,
        delay_steps: u64,
        action: FaultAction,
    ) -> Self {
        self.plan.entries.push(FaultEvent {
            when: When::Stage {
                stage: stage.into(),
                delay_steps,
            },
            action,
        });
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

#[derive(Debug)]
struct EngineState {
    step: u64,
    /// Step-keyed entries, sorted by step; `next` is the first unapplied.
    schedule: Vec<(u64, FaultAction)>,
    next: usize,
    /// Stage-keyed entries `(stage, delay_steps, action)` whose stage
    /// has not been marked yet.
    staged: Vec<(String, u64, FaultAction)>,
    rng: SmallRng,
    blocked: HashSet<(LinkIp, LinkIp)>,
    isolated: HashSet<LinkIp>,
    latency: HashMap<(LinkIp, LinkIp), (u64, u64)>,
    /// Last reset step per unordered IP pair (stored with a <= b).
    resets: HashMap<(LinkIp, LinkIp), u64>,
    log: Vec<AppliedFault>,
}

impl EngineState {
    /// Applies the link effect of `action` (process faults have none
    /// here) and logs it.
    fn apply(&mut self, step: u64, action: FaultAction) {
        match &action {
            FaultAction::Partition { from, to } => {
                self.blocked.insert((*from, *to));
            }
            FaultAction::Heal { from, to } => {
                self.blocked.remove(&(*from, *to));
            }
            FaultAction::Isolate { ip } => {
                self.isolated.insert(*ip);
            }
            FaultAction::Rejoin { ip } => {
                self.isolated.remove(ip);
            }
            FaultAction::Reset { a, b } => {
                let key = if a <= b { (*a, *b) } else { (*b, *a) };
                self.resets.insert(key, step);
            }
            FaultAction::Latency {
                from,
                to,
                ns,
                jitter_ns,
            } => {
                self.latency.insert((*from, *to), (*ns, *jitter_ns));
            }
            FaultAction::ClearLatency { from, to } => {
                self.latency.remove(&(*from, *to));
            }
            FaultAction::CrashShard { .. } | FaultAction::RestartShard { .. } => {}
        }
        self.log.push(AppliedFault { step, action });
    }

    /// Adds `action` to the step schedule after every entry due at or
    /// before `step`.
    fn schedule_at(&mut self, step: u64, action: FaultAction) {
        let at = self.next + self.schedule[self.next..].partition_point(|(s, _)| *s <= step);
        self.schedule.insert(at, (step, action));
    }

    fn run_due(&mut self) {
        while self
            .schedule
            .get(self.next)
            .is_some_and(|(at, _)| *at <= self.step)
        {
            let (at, action) = self.schedule[self.next].clone();
            self.next += 1;
            self.apply(at, action);
        }
    }
}

/// The engine: plan cursor + active fault state. One per [`crate::SimNet`].
#[derive(Debug)]
pub(crate) struct FaultEngine {
    /// Fast path: skip all checks while no plan/injection is active.
    armed: AtomicBool,
    state: Mutex<EngineState>,
}

impl FaultEngine {
    pub(crate) fn new() -> Self {
        FaultEngine {
            armed: AtomicBool::new(false),
            state: Mutex::new(EngineState {
                step: 0,
                schedule: Vec::new(),
                next: 0,
                staged: Vec::new(),
                rng: SmallRng::seed_from_u64(0),
                blocked: HashSet::new(),
                isolated: HashSet::new(),
                latency: HashMap::new(),
                resets: HashMap::new(),
                log: Vec::new(),
            }),
        }
    }

    pub(crate) fn install(&self, plan: FaultPlan) {
        let mut st = self.state.lock();
        st.rng = SmallRng::seed_from_u64(plan.seed);
        st.schedule.clear();
        st.staged.clear();
        st.next = 0;
        for entry in plan.entries {
            match entry.when {
                When::Step(step) => st.schedule.push((step, entry.action)),
                When::Stage { stage, delay_steps } => {
                    st.staged.push((stage, delay_steps, entry.action))
                }
            }
        }
        st.schedule.sort_by_key(|(step, _)| *step);
        st.run_due(); // entries scheduled at or before the current step fire now
        self.armed.store(true, Ordering::Release);
    }

    /// Moves every stage-keyed entry waiting on `stage` into the step
    /// schedule, `delay_steps` after the current step, and applies the
    /// ones due now. Each entry fires at most once (the first time its
    /// stage is marked), one whose step would pass `u64::MAX` never;
    /// unknown stages are a no-op.
    pub(crate) fn mark_stage(&self, stage: &str) {
        if !self.armed.load(Ordering::Acquire) {
            return;
        }
        let mut st = self.state.lock();
        let (marked, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut st.staged)
            .into_iter()
            .partition(|(s, ..)| s == stage);
        st.staged = waiting;
        for (_, delay_steps, action) in marked {
            if let Some(step) = st.step.checked_add(delay_steps) {
                st.schedule_at(step, action);
            }
        }
        st.run_due();
    }

    pub(crate) fn inject(&self, action: FaultAction) {
        let mut st = self.state.lock();
        let step = st.step;
        st.apply(step, action);
        self.armed.store(true, Ordering::Release);
    }

    /// Advances the logical step clock by one operation and applies any
    /// schedule entries that became due. No-op while disarmed.
    pub(crate) fn advance(&self) {
        if !self.armed.load(Ordering::Acquire) {
            return;
        }
        let mut st = self.state.lock();
        st.step += 1;
        st.run_due();
    }

    pub(crate) fn step(&self) -> u64 {
        self.state.lock().step
    }

    /// Whether traffic `from → to` is currently cut.
    pub(crate) fn blocked(&self, from: LinkIp, to: LinkIp) -> bool {
        if !self.armed.load(Ordering::Acquire) {
            return false;
        }
        let st = self.state.lock();
        st.isolated.contains(&from) || st.isolated.contains(&to) || st.blocked.contains(&(from, to))
    }

    /// Whether the link between the two IPs was reset after `since_step`
    /// (the endpoint's creation step).
    pub(crate) fn link_reset_since(&self, a: LinkIp, b: LinkIp, since_step: u64) -> bool {
        if !self.armed.load(Ordering::Acquire) {
            return false;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        self.state
            .lock()
            .resets
            .get(&key)
            .is_some_and(|&at| at >= since_step)
    }

    /// Samples the injected latency for a send `from → to`, in
    /// nanoseconds, saturating at `u64::MAX`; jitter draws from the plan
    /// RNG (deterministic sequence).
    pub(crate) fn latency_ns(&self, from: LinkIp, to: LinkIp) -> u64 {
        if !self.armed.load(Ordering::Acquire) {
            return 0;
        }
        let mut st = self.state.lock();
        match st.latency.get(&(from, to)).copied() {
            Some((ns, jitter)) if jitter > 0 => {
                ns.saturating_add(st.rng.gen_range(0..jitter.saturating_add(1)))
            }
            Some((ns, _)) => ns,
            None => 0,
        }
    }

    pub(crate) fn log(&self) -> Vec<AppliedFault> {
        self.state.lock().log.clone()
    }
}

/// Spin-waits for `ns` nanoseconds (injected latency shares the
/// wire-time strategy: budgets sit below OS sleep granularity).
pub(crate) fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let budget = std::time::Duration::from_nanos(ns);
    let start = std::time::Instant::now();
    while start.elapsed() < budget {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: LinkIp = [10, 0, 0, 1];
    const B: LinkIp = [10, 0, 0, 2];

    fn log_steps(engine: &FaultEngine) -> Vec<(u64, FaultAction)> {
        engine
            .log()
            .into_iter()
            .map(|f| (f.step, f.action))
            .collect()
    }

    #[test]
    fn schedule_applies_on_step_clock_in_step_order() {
        let engine = FaultEngine::new();
        engine.install(
            FaultPlan::builder(1)
                .at(4, FaultAction::Heal { from: A, to: B })
                .at(2, FaultAction::Partition { from: A, to: B })
                .build(),
        );
        assert!(!engine.blocked(A, B));
        engine.advance(); // 1
        engine.advance(); // 2 → partition fires
        assert!(engine.blocked(A, B));
        assert!(!engine.blocked(B, A), "partition is directed");
        engine.advance(); // 3
        engine.advance(); // 4 → heal fires
        assert!(!engine.blocked(A, B));
        let log = engine.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].step, 2);
        assert_eq!(log[1].step, 4);
    }

    #[test]
    fn isolation_blocks_both_directions() {
        let engine = FaultEngine::new();
        engine.inject(FaultAction::Isolate { ip: A });
        assert!(engine.blocked(A, B));
        assert!(engine.blocked(B, A));
        engine.inject(FaultAction::Rejoin { ip: A });
        assert!(!engine.blocked(A, B));
    }

    #[test]
    fn resets_only_hit_older_endpoints() {
        let engine = FaultEngine::new();
        engine.advance(); // disarmed: no step
        engine.inject(FaultAction::Partition { from: A, to: B });
        engine.inject(FaultAction::Heal { from: A, to: B });
        engine.advance();
        engine.advance();
        engine.advance(); // step 3
        engine.inject(FaultAction::Reset { a: B, b: A });
        assert!(engine.link_reset_since(A, B, 1), "older connection severed");
        assert!(
            engine.link_reset_since(B, A, 3),
            "same-step connection severed"
        );
        assert!(
            !engine.link_reset_since(A, B, 4),
            "newer connection survives"
        );
    }

    #[test]
    fn jitter_replays_identically_for_a_seed() {
        let sample = |seed| {
            let engine = FaultEngine::new();
            engine.install(
                FaultPlan::builder(seed)
                    .at(
                        0,
                        FaultAction::Latency {
                            from: A,
                            to: B,
                            ns: 100,
                            jitter_ns: 50,
                        },
                    )
                    .build(),
            );
            (0..8).map(|_| engine.latency_ns(A, B)).collect::<Vec<_>>()
        };
        assert_eq!(sample(42), sample(42), "same seed, same jitter sequence");
        assert_ne!(sample(42), sample(43), "different seed diverges");
        assert!(sample(42).iter().all(|&ns| (100..=150).contains(&ns)));
    }

    #[test]
    fn stage_keyed_entries_fire_once_when_marked() {
        let crash = FaultAction::Isolate { ip: B };
        let restart = FaultAction::Rejoin { ip: B };
        let engine = FaultEngine::new();
        engine.install(
            FaultPlan::builder(5)
                .after_stage("store", 0, crash.clone())
                .after_stage("analyze", 0, restart.clone())
                .after_stage("store", 0, FaultAction::CrashShard { shard: 0 })
                .build(),
        );
        engine.advance();
        engine.advance();
        assert!(engine.log().is_empty(), "steps alone don't fire");
        engine.mark_stage("store");
        engine.mark_stage("store");
        engine.mark_stage("analyze");
        assert_eq!(
            log_steps(&engine),
            vec![
                (2, crash),
                (2, FaultAction::CrashShard { shard: 0 }),
                (2, restart),
            ],
            "each entry fires once, at the step its stage was marked"
        );
    }

    #[test]
    fn delayed_stage_entries_join_the_schedule_after_entries_due_at_their_step() {
        let crash = FaultAction::Isolate { ip: B };
        let restart = FaultAction::Rejoin { ip: B };
        let heal = FaultAction::Heal { from: A, to: B };
        let engine = FaultEngine::new();
        engine.install(
            FaultPlan::builder(5)
                .after_stage("store", 3, restart.clone())
                .after_stage("store", 0, crash.clone())
                .at(4, heal.clone())
                .build(),
        );
        engine.advance(); // step 1
        engine.mark_stage("store"); // crash now; restart due at step 4
        assert_eq!(log_steps(&engine), vec![(1, crash.clone())]);
        engine.advance(); // 2
        engine.advance(); // 3
        assert_eq!(engine.log().len(), 1, "restart not due yet");
        engine.advance(); // 4 — the scheduled heal first, then the restart
        assert_eq!(
            log_steps(&engine),
            vec![(1, crash), (4, heal), (4, restart)]
        );
    }

    #[test]
    fn extreme_latencies_saturate_and_a_delay_past_the_clock_never_fires() {
        let latency = |from, to, ns, jitter_ns| FaultAction::Latency {
            from,
            to,
            ns,
            jitter_ns,
        };
        let engine = FaultEngine::new();
        engine.install(
            FaultPlan::builder(9)
                .at(0, latency(A, B, 1, u64::MAX))
                .at(0, latency(B, A, u64::MAX - 1, 7))
                .after_stage("store", u64::MAX, FaultAction::Isolate { ip: A })
                .build(),
        );
        // Read the samples, never spin on them.
        for _ in 0..64 {
            assert!(engine.latency_ns(A, B) >= 1);
            assert!(engine.latency_ns(B, A) >= u64::MAX - 1);
        }
        engine.advance(); // step 1: step + u64::MAX is past the clock
        engine.mark_stage("store");
        for _ in 0..8 {
            engine.advance();
        }
        assert!(!engine.blocked(A, B), "the delayed isolate never fired");
        assert_eq!(engine.log().len(), 2, "only the two latencies applied");
    }
}
