//! The simulated network fabric: listener/mailbox registry, connection
//! establishment, fault injection.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::addr::NodeAddr;
use crate::error::NetError;
use crate::fault::{AppliedFault, FaultAction, FaultEngine, FaultPlan};
use crate::metrics::NetMetrics;
use crate::tcp::{AcceptQueue, TcpEndpoint, TcpListener};
use crate::udp::{Mailbox, UdpEndpoint};

/// Fault-injection and link-model configuration for one simulated
/// network.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Upper bound on bytes returned by a single TCP read (models
    /// fragmented delivery; `usize::MAX` = unlimited).
    pub max_read_chunk: usize,
    /// Probability in `[0, 1]` that a sent UDP datagram is discarded.
    pub udp_drop_probability: f64,
    /// Seed for the drop-decision RNG (deterministic runs).
    pub seed: u64,
    /// Simulated link cost in nanoseconds per byte, charged to the
    /// sender (0 = infinitely fast link, the default for tests). The
    /// overhead experiments set this to model real NIC bandwidth so that
    /// wire expansion translates into wall-clock time, as it does on the
    /// paper's testbed; e.g. 8 ns/B ≈ 1 Gbit/s.
    pub wire_ns_per_byte: u64,
    /// Upper bound on any single blocking operation (TCP read, accept,
    /// UDP receive). Expiry surfaces as the typed
    /// [`NetError::Timeout`], so chaos tests can shrink the bound and
    /// assert on starved readers instead of hanging for the default 30 s.
    pub block_timeout: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            max_read_chunk: usize::MAX,
            udp_drop_probability: 0.0,
            seed: 0x0D15_7A00,
            wire_ns_per_byte: 0,
            block_timeout: Duration::from_secs(30),
        }
    }
}

/// Shared, cheaply-readable view of the fault config used on hot paths.
#[derive(Debug, Clone)]
pub(crate) struct FaultsShared {
    max_read_chunk: Arc<AtomicUsize>,
    drop_per_million: Arc<AtomicUsize>,
    wire_ns_per_byte: Arc<AtomicUsize>,
    block_timeout_ns: Arc<AtomicU64>,
    rng: Arc<Mutex<SmallRng>>,
    engine: Arc<FaultEngine>,
}

impl FaultsShared {
    fn new(cfg: FaultConfig) -> Self {
        FaultsShared {
            max_read_chunk: Arc::new(AtomicUsize::new(cfg.max_read_chunk)),
            drop_per_million: Arc::new(AtomicUsize::new(
                (cfg.udp_drop_probability * 1_000_000.0) as usize,
            )),
            wire_ns_per_byte: Arc::new(AtomicUsize::new(cfg.wire_ns_per_byte as usize)),
            block_timeout_ns: Arc::new(AtomicU64::new(cfg.block_timeout.as_nanos() as u64)),
            rng: Arc::new(Mutex::new(SmallRng::seed_from_u64(cfg.seed))),
            engine: Arc::new(FaultEngine::new()),
        }
    }

    /// Reconfigures the shared knobs; the fault-schedule engine (and any
    /// active chaos state) is intentionally left untouched.
    fn update(&self, cfg: FaultConfig) {
        self.max_read_chunk
            .store(cfg.max_read_chunk, Ordering::Relaxed);
        self.drop_per_million.store(
            (cfg.udp_drop_probability * 1_000_000.0) as usize,
            Ordering::Relaxed,
        );
        self.wire_ns_per_byte
            .store(cfg.wire_ns_per_byte as usize, Ordering::Relaxed);
        self.block_timeout_ns
            .store(cfg.block_timeout.as_nanos() as u64, Ordering::Relaxed);
        *self.rng.lock() = SmallRng::seed_from_u64(cfg.seed);
    }

    pub(crate) fn max_read_chunk(&self) -> usize {
        self.max_read_chunk.load(Ordering::Relaxed)
    }

    pub(crate) fn block_timeout(&self) -> Duration {
        Duration::from_nanos(self.block_timeout_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn engine(&self) -> &FaultEngine {
        &self.engine
    }

    pub(crate) fn should_drop_udp(&self) -> bool {
        let ppm = self.drop_per_million.load(Ordering::Relaxed);
        if ppm == 0 {
            return false;
        }
        self.rng.lock().gen_range(0..1_000_000) < ppm
    }

    /// Charges the sender the simulated link time for `bytes`. Uses a
    /// spin wait because the interesting budgets are well below the OS
    /// sleep granularity.
    pub(crate) fn charge_wire_time(&self, bytes: usize) {
        let ns = self.wire_ns_per_byte.load(Ordering::Relaxed);
        if ns == 0 || bytes == 0 {
            return;
        }
        let budget = std::time::Duration::from_nanos((ns * bytes) as u64);
        let start = std::time::Instant::now();
        while start.elapsed() < budget {
            std::hint::spin_loop();
        }
    }
}

#[derive(Default)]
struct Registry {
    tcp_listeners: HashMap<NodeAddr, Arc<AcceptQueue>>,
    udp_mailboxes: HashMap<NodeAddr, Arc<Mailbox>>,
}

/// One simulated network shared by every node of a test cluster.
///
/// Clones share the same fabric; see the crate docs for an example.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

struct NetInner {
    registry: Mutex<Registry>,
    metrics: NetMetrics,
    faults: FaultsShared,
    next_ephemeral: AtomicU16,
}

impl SimNet {
    /// Creates an empty network with default (no-fault) configuration.
    pub fn new() -> Self {
        Self::with_faults(FaultConfig::default())
    }

    /// Creates a network with the given fault configuration.
    pub fn with_faults(cfg: FaultConfig) -> Self {
        SimNet {
            inner: Arc::new(NetInner {
                registry: Mutex::new(Registry::default()),
                metrics: NetMetrics::new(),
                faults: FaultsShared::new(cfg),
                next_ephemeral: AtomicU16::new(49152),
            }),
        }
    }

    /// Replaces the fault configuration at runtime. Any installed
    /// [`FaultPlan`] (and active chaos state) is preserved.
    pub fn set_faults(&self, cfg: FaultConfig) {
        self.inner.faults.update(cfg);
    }

    /// Installs a deterministic fault schedule. Entries already due at
    /// the current logical step apply immediately; the rest fire as the
    /// step clock advances (one tick per connect, TCP write, or
    /// datagram send).
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.inner.faults.engine().install(plan);
    }

    /// Current value of the logical step clock driving fault schedules.
    pub fn fault_step(&self) -> u64 {
        self.inner.faults.engine().step()
    }

    /// Marks that the workload reached pipeline stage `stage`: every
    /// stage-keyed entry of the installed [`FaultPlan`] waiting on that
    /// name joins the step schedule, its delay after the current step
    /// (delay 0 fires now). Unknown stages (and marks with no plan
    /// installed) are a no-op.
    pub fn mark_stage(&self, stage: &str) {
        self.inner.faults.engine().mark_stage(stage);
    }

    /// The applied-fault log: every fault that has fired, with the step
    /// it fired at. Two runs of the same plan against the same workload
    /// produce identical logs — the determinism witness.
    pub fn fault_log(&self) -> Vec<AppliedFault> {
        self.inner.faults.engine().log()
    }

    /// Applies `action` now, at the current step, and logs it. Link
    /// faults take effect immediately (a two-way cut is two
    /// [`FaultAction::Partition`]s); process faults are only logged, for
    /// the cluster layer to execute when it walks [`SimNet::fault_log`].
    pub fn inject(&self, action: FaultAction) {
        self.inner.faults.engine().inject(action);
    }

    /// The network's byte-accounting counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.inner.metrics
    }

    /// The metrics registry backing [`SimNet::metrics`]. Cluster-level
    /// observability shares this registry so network and taint
    /// instruments land in one dump.
    pub fn registry(&self) -> &dista_obs::MetricsRegistry {
        self.inner.metrics.registry()
    }

    /// Binds a TCP listener.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the address already has a listener.
    pub fn tcp_listen(&self, addr: NodeAddr) -> Result<TcpListener, NetError> {
        let mut reg = self.inner.registry.lock();
        if reg.tcp_listeners.contains_key(&addr) {
            return Err(NetError::AddrInUse(addr));
        }
        let (listener, queue) = TcpListener::new(addr, self.inner.faults.clone());
        reg.tcp_listeners.insert(addr, queue);
        Ok(listener)
    }

    /// Connects to a listening address, returning the client endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionRefused`] if nothing listens at `dest`.
    pub fn tcp_connect(&self, dest: NodeAddr) -> Result<TcpEndpoint, NetError> {
        self.tcp_connect_from([127, 0, 0, 1], dest)
    }

    /// Connects with an explicit source IP (ephemeral source port).
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionRefused`] if nothing listens at `dest`;
    /// [`NetError::Unreachable`] if an injected partition cuts the link.
    pub fn tcp_connect_from(
        &self,
        src_ip: [u8; 4],
        dest: NodeAddr,
    ) -> Result<TcpEndpoint, NetError> {
        let engine = self.inner.faults.engine();
        engine.advance();
        if engine.blocked(src_ip, dest.ip()) {
            return Err(NetError::Unreachable(dest));
        }
        let src_port = self.inner.next_ephemeral.fetch_add(1, Ordering::Relaxed);
        let src = NodeAddr::new(src_ip, src_port);
        // Cloned out so the registry lock is released before the push
        // wakes a parked acceptor.
        let queue = self
            .inner
            .registry
            .lock()
            .tcp_listeners
            .get(&dest)
            .cloned()
            .ok_or(NetError::ConnectionRefused(dest))?;
        let (client, server) = TcpEndpoint::pair(
            src,
            dest,
            self.inner.metrics.clone(),
            self.inner.faults.clone(),
            engine.step(),
        );
        self.inner.metrics.record_tcp_connection();
        if !queue.push(server) {
            return Err(NetError::ConnectionRefused(dest));
        }
        Ok(client)
    }

    /// Removes a TCP listener; established connections keep working and
    /// already-queued (unaccepted) connections can still be accepted.
    pub fn tcp_unlisten(&self, addr: NodeAddr) {
        let queue = self.inner.registry.lock().tcp_listeners.remove(&addr);
        if let Some(queue) = queue {
            queue.close();
        }
    }

    /// Binds a UDP socket.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the address already has a mailbox.
    pub fn udp_bind(&self, addr: NodeAddr) -> Result<UdpEndpoint, NetError> {
        let mut reg = self.inner.registry.lock();
        if reg.udp_mailboxes.contains_key(&addr) {
            return Err(NetError::AddrInUse(addr));
        }
        let mailbox = Arc::new(Mailbox::default());
        reg.udp_mailboxes.insert(addr, mailbox.clone());
        Ok(UdpEndpoint::new(
            addr,
            mailbox,
            self.clone(),
            self.inner.metrics.clone(),
            self.inner.faults.clone(),
        ))
    }

    pub(crate) fn deliver_datagram(&self, from: NodeAddr, to: NodeAddr, bytes: &[u8]) -> bool {
        let mailbox = self.inner.registry.lock().udp_mailboxes.get(&to).cloned();
        match mailbox {
            Some(mb) => {
                mb.deliver(from, bytes.to_vec());
                true
            }
            None => false,
        }
    }

    pub(crate) fn unbind_udp(&self, addr: NodeAddr) {
        self.inner.registry.lock().udp_mailboxes.remove(&addr);
    }
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.inner.registry.lock();
        f.debug_struct("SimNet")
            .field("tcp_listeners", &reg.tcp_listeners.len())
            .field("udp_mailboxes", &reg.udp_mailboxes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_twice_fails() {
        let net = SimNet::new();
        let addr = NodeAddr::new([1, 1, 1, 1], 80);
        let _l = net.tcp_listen(addr).unwrap();
        assert!(matches!(
            net.tcp_listen(addr),
            Err(NetError::AddrInUse(a)) if a == addr
        ));
    }

    #[test]
    fn connect_refused_without_listener() {
        let net = SimNet::new();
        let addr = NodeAddr::new([1, 1, 1, 1], 81);
        assert!(matches!(
            net.tcp_connect(addr),
            Err(NetError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn unlisten_frees_address() {
        let net = SimNet::new();
        let addr = NodeAddr::new([1, 1, 1, 1], 82);
        let _l = net.tcp_listen(addr).unwrap();
        net.tcp_unlisten(addr);
        assert!(net.tcp_listen(addr).is_ok());
    }

    #[test]
    fn connections_counted() {
        let net = SimNet::new();
        let addr = NodeAddr::new([1, 1, 1, 1], 83);
        let l = net.tcp_listen(addr).unwrap();
        let _c1 = net.tcp_connect(addr).unwrap();
        let _c2 = net.tcp_connect(addr).unwrap();
        let _s1 = l.accept().unwrap();
        let _s2 = l.accept().unwrap();
        assert_eq!(net.metrics().snapshot().tcp_connections, 2);
    }

    #[test]
    fn ephemeral_ports_are_distinct() {
        let net = SimNet::new();
        let addr = NodeAddr::new([1, 1, 1, 1], 84);
        let _l = net.tcp_listen(addr).unwrap();
        let c1 = net.tcp_connect(addr).unwrap();
        let c2 = net.tcp_connect(addr).unwrap();
        assert_ne!(c1.local_addr(), c2.local_addr());
    }

    #[test]
    fn tcp_bytes_metered() {
        let net = SimNet::new();
        let addr = NodeAddr::new([1, 1, 1, 1], 85);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let _s = l.accept().unwrap();
        c.write(&[0u8; 100]).unwrap();
        assert_eq!(net.metrics().snapshot().tcp_bytes, 100);
    }
}
