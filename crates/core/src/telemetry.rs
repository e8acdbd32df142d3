//! The live telemetry plane: SimNet transport for the `dista-obs`
//! agent/collector pair.
//!
//! `dista-obs` owns the data structures ([`TelemetryAgent`] renders
//! delta frames, [`Collector`] ingests them and serves expositions);
//! this module owns the plumbing that makes them a *plane*:
//!
//! * [`CollectorServer`] — a reactor-driven listener thread that speaks
//!   a one-role-byte protocol: `b'A'` opens a long-lived agent stream
//!   of `[u32-BE length][delta frame]` messages; `b'S'` / `b'J'`
//!   request one length-prefixed text / JSON scrape and then close.
//!   No length prefix may announce more than 16 MiB: the
//!   server hangs up on an agent that does, the scraper returns an
//!   error on a response that does.
//!   The scrape endpoint lives *inside* the simulation — any node can
//!   `tcp_connect` to it, exactly like a Prometheus target.
//! * [`AgentRuntime`] — a per-VM thread driving one [`TelemetryAgent`]
//!   off a [`Reactor`] timer tick: every `interval` it snapshots the
//!   shared registry and, when something in scope changed, pushes the
//!   delta over a persistent connection (re-dialled once on failure).
//!   Stopping the runtime performs a final flush so the collector
//!   always ends up with the last cumulative values.
//! * [`TelemetryPlane`] — the bundle a [`crate::Cluster`] owns: one
//!   collector server plus one agent per node, with in-simulation
//!   scrape helpers.
//!
//! Because delta frames carry *cumulative* values, a dropped frame
//! (collector briefly unreachable, ring overflow) degrades to a late
//! update, never a wrong one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dista_obs::{Collector, CollectorConfig, TelemetryAgent};
use dista_simnet::{NetError, NodeAddr, Reactor, SimNet, TcpEndpoint, TcpListener, Token};

use crate::error::DistaError;

/// Role byte opening an agent push stream.
pub const ROLE_AGENT: u8 = b'A';
/// Role byte requesting one Prometheus-style text scrape.
pub const ROLE_SCRAPE_TEXT: u8 = b'S';
/// Role byte requesting one JSON scrape.
pub const ROLE_SCRAPE_JSON: u8 = b'J';

/// Configuration for a cluster's telemetry plane.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Where the collector listens (and agents push / scrapers dial).
    pub addr: NodeAddr,
    /// Agent tick interval — every tick snapshots the registry and
    /// pushes the delta. The default 100 ms is the paper-harness 10 Hz.
    pub interval: Duration,
    /// Collector ring sizing.
    pub collector: CollectorConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            addr: NodeAddr::new([10, 0, 0, 200], 9100),
            interval: Duration::from_millis(100),
            collector: CollectorConfig::default(),
        }
    }
}

/// Largest delta frame or scrape response either side accepts. A length
/// prefix is four bytes from a peer; without a cap it sizes a buffer of
/// up to 4 GiB.
const MAX_FRAME_LEN: usize = 16 << 20;

/// How often server/agent threads wake to check their stop flag while
/// parked in `Reactor::poll`. Bounds shutdown latency, nothing else.
const STOP_POLL: Duration = Duration::from_millis(10);

struct Conn {
    ep: TcpEndpoint,
    role: u8,
    buf: Vec<u8>,
}

/// The collector's listener thread: accepts agent streams and scrape
/// requests on one reactor.
#[derive(Debug)]
pub struct CollectorServer {
    addr: NodeAddr,
    collector: Arc<Collector>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl CollectorServer {
    /// Binds `addr` on `net` and spawns the serving thread.
    ///
    /// # Errors
    ///
    /// [`DistaError::Jre`] wrapping the bind failure (address in use).
    pub fn spawn(
        net: &SimNet,
        addr: NodeAddr,
        config: CollectorConfig,
    ) -> Result<Self, DistaError> {
        let listener = net
            .tcp_listen(addr)
            .map_err(dista_jre::JreError::from)
            .map_err(DistaError::from)?;
        let collector = Arc::new(Collector::with_config(config));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let collector = collector.clone();
            let stop = stop.clone();
            std::thread::spawn(move || serve(listener, &collector, &stop))
        };
        Ok(CollectorServer {
            addr,
            collector,
            stop,
            handle: Some(handle),
        })
    }

    /// The scrape/push address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The collector behind the server (shared — scrape counters et al.
    /// move while the thread runs).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// Stops the serving thread (idempotent). In-flight connections are
    /// dropped; the collector and its data survive.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for CollectorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

const LISTENER: Token = Token(0);

fn serve(listener: TcpListener, collector: &Collector, stop: &AtomicBool) {
    let reactor = Reactor::new();
    listener.register_acceptable(&reactor, LISTENER);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = 1u64;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 4096];
    while !stop.load(Ordering::Relaxed) {
        reactor.poll(&mut events, Some(STOP_POLL));
        for ev in &events {
            if ev.token == LISTENER {
                while let Some(ep) = listener.try_accept() {
                    let token = Token(next_token);
                    next_token += 1;
                    ep.register_readable(&reactor, token);
                    conns.insert(
                        token.0,
                        Conn {
                            ep,
                            role: 0,
                            buf: Vec::new(),
                        },
                    );
                }
            } else if let Some(conn) = conns.get_mut(&ev.token.0) {
                if !service(conn, collector, &mut scratch) {
                    reactor.deregister(ev.token);
                    conns.remove(&ev.token.0);
                }
            }
        }
    }
}

/// Drains readable bytes from one connection and advances its protocol
/// state. Returns `false` when the connection is finished (EOF, error,
/// scrape answered, bad role byte, or an agent frame announced past
/// [`MAX_FRAME_LEN`]) and should be dropped.
fn service(conn: &mut Conn, collector: &Collector, scratch: &mut [u8]) -> bool {
    loop {
        match conn.ep.try_read(scratch) {
            Ok(0) => {
                // EOF: complete frames already buffered still count; a
                // trailing partial frame is lost (cumulative values make
                // that a late update, not a wrong one).
                drain_agent_frames(conn, collector);
                return false;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                if conn.role == 0 {
                    if conn.buf.is_empty() {
                        continue;
                    }
                    conn.role = conn.buf.remove(0);
                    match conn.role {
                        ROLE_AGENT => {}
                        ROLE_SCRAPE_TEXT => {
                            respond(&conn.ep, collector.scrape_text().as_bytes());
                            return false;
                        }
                        ROLE_SCRAPE_JSON => {
                            respond(&conn.ep, collector.scrape_json().as_bytes());
                            return false;
                        }
                        _ => return false,
                    }
                }
                if !drain_agent_frames(conn, collector) {
                    return false;
                }
            }
            Err(NetError::WouldBlock) => return true,
            Err(_) => return false,
        }
    }
}

/// Ingests every complete frame buffered on an agent stream. Returns
/// `false` when the next frame announces more than [`MAX_FRAME_LEN`]
/// bytes: the caller drops the connection instead of buffering it.
fn drain_agent_frames(conn: &mut Conn, collector: &Collector) -> bool {
    if conn.role != ROLE_AGENT {
        return true;
    }
    while conn.buf.len() >= 4 {
        let len = u32::from_be_bytes([conn.buf[0], conn.buf[1], conn.buf[2], conn.buf[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return false;
        }
        if conn.buf.len() < 4 + len {
            break;
        }
        let frame = String::from_utf8_lossy(&conn.buf[4..4 + len]).into_owned();
        // Malformed frames are counted by the collector itself.
        let _ = collector.ingest(&frame);
        conn.buf.drain(..4 + len);
    }
    true
}

fn respond(ep: &TcpEndpoint, payload: &[u8]) {
    let mut msg = Vec::with_capacity(4 + payload.len());
    msg.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    msg.extend_from_slice(payload);
    let _ = ep.write(&msg);
    ep.close();
}

/// A per-VM agent thread: reactor-timer ticks driving delta pushes.
#[derive(Debug)]
pub struct AgentRuntime {
    node: String,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

const TICK: Token = Token(1);

impl AgentRuntime {
    /// Spawns the agent for `node`, pushing `node=<node>`-labeled
    /// samples from the network's registry to `collector` every
    /// `interval`. The push connection is dialled from `src_ip`, so
    /// partitions isolating the VM also silence its telemetry —
    /// faithful to a real per-host agent.
    pub fn spawn(
        net: &SimNet,
        node: &str,
        src_ip: [u8; 4],
        collector: NodeAddr,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let net = net.clone();
            let stop = stop.clone();
            let mut agent = TelemetryAgent::for_node(node, net.registry().clone());
            std::thread::spawn(move || {
                let reactor = Reactor::new();
                let mut events = Vec::new();
                let mut conn: Option<TcpEndpoint> = None;
                'run: loop {
                    reactor.set_timer(TICK, interval);
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break 'run;
                        }
                        reactor.poll(&mut events, Some(STOP_POLL));
                        if events.iter().any(|e| e.readiness.is_timer()) {
                            break;
                        }
                    }
                    push_delta(&net, &mut agent, &mut conn, src_ip, collector);
                }
                // Final flush: the collector always ends with the last
                // cumulative values, however the ticks were phased.
                push_delta(&net, &mut agent, &mut conn, src_ip, collector);
                if let Some(ep) = conn {
                    ep.close();
                }
            })
        };
        AgentRuntime {
            node: node.to_string(),
            stop,
            handle: Some(handle),
        }
    }

    /// The node this agent pushes for.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Stops the agent after one final flush push (idempotent, joins
    /// the thread — returns once the flush is on the wire).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AgentRuntime {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Pushes one delta frame (if anything changed), re-dialling the
/// collector once on a broken connection. An unreachable collector
/// drops the frame — cumulative values mean the next successful push
/// heals the view.
fn push_delta(
    net: &SimNet,
    agent: &mut TelemetryAgent,
    conn: &mut Option<TcpEndpoint>,
    src_ip: [u8; 4],
    collector: NodeAddr,
) {
    let Some(frame) = agent.delta_frame() else {
        return;
    };
    let mut msg = Vec::with_capacity(4 + frame.len());
    msg.extend_from_slice(&(frame.len() as u32).to_be_bytes());
    msg.extend_from_slice(frame.as_bytes());
    for _attempt in 0..2 {
        if conn.is_none() {
            match net.tcp_connect_from(src_ip, collector) {
                Ok(ep) => {
                    if ep.write(&[ROLE_AGENT]).is_err() {
                        return;
                    }
                    *conn = Some(ep);
                }
                Err(_) => return,
            }
        }
        match conn.as_ref().expect("dialled above").write(&msg) {
            Ok(()) => return,
            Err(_) => *conn = None,
        }
    }
}

/// One collector server plus one agent per node: the plane a
/// [`crate::Cluster`] stands up when
/// [`crate::ClusterBuilder::telemetry`] is set.
#[derive(Debug)]
pub struct TelemetryPlane {
    net: SimNet,
    config: TelemetryConfig,
    server: CollectorServer,
    agents: Vec<AgentRuntime>,
}

impl TelemetryPlane {
    /// Spawns the collector and one agent per `(node, ip)`.
    ///
    /// # Errors
    ///
    /// [`DistaError::Jre`] if the collector address is taken.
    pub fn spawn(
        net: &SimNet,
        nodes: &[(String, [u8; 4])],
        config: TelemetryConfig,
    ) -> Result<Self, DistaError> {
        let server = CollectorServer::spawn(net, config.addr, config.collector.clone())?;
        let agents = nodes
            .iter()
            .map(|(name, ip)| AgentRuntime::spawn(net, name, *ip, config.addr, config.interval))
            .collect();
        Ok(TelemetryPlane {
            net: net.clone(),
            config,
            server,
            agents,
        })
    }

    /// The scrape/push address.
    pub fn addr(&self) -> NodeAddr {
        self.config.addr
    }

    /// The agent tick interval.
    pub fn interval(&self) -> Duration {
        self.config.interval
    }

    /// The live collector (shared with the serving thread).
    pub fn collector(&self) -> &Arc<Collector> {
        self.server.collector()
    }

    /// The per-node agent runtimes.
    pub fn agents(&self) -> &[AgentRuntime] {
        &self.agents
    }

    /// Scrapes the in-simulation endpoint over the network, exactly as
    /// a node inside the cluster would: dial, send the role byte, read
    /// one length-prefixed response.
    ///
    /// # Errors
    ///
    /// Transport errors reaching the collector, or a protocol error if
    /// the response announces more than the telemetry frame cap.
    pub fn scrape_text(&self) -> Result<String, DistaError> {
        scrape(&self.net, self.config.addr, ROLE_SCRAPE_TEXT)
    }

    /// JSON scrape over the network; see [`TelemetryPlane::scrape_text`].
    ///
    /// # Errors
    ///
    /// Transport errors reaching the collector.
    pub fn scrape_json(&self) -> Result<String, DistaError> {
        scrape(&self.net, self.config.addr, ROLE_SCRAPE_JSON)
    }

    /// Stops agents (each flushes its final delta), waits for the
    /// collector to ingest those flushes (one scrape through the
    /// server's reactor acts as the barrier: it is processed after
    /// every already-queued agent byte), then stops the server.
    /// Returns the collector for post-run inspection.
    pub fn shutdown(mut self) -> Arc<Collector> {
        for agent in &mut self.agents {
            agent.stop();
        }
        let _ = self.scrape_text();
        self.server.stop();
        self.server.collector().clone()
    }
}

/// One scrape of the collector at `addr`: dial, send the role byte, read
/// one length-prefixed response of at most [`MAX_FRAME_LEN`] bytes.
fn scrape(net: &SimNet, addr: NodeAddr, role: u8) -> Result<String, DistaError> {
    let map_net = |e: NetError| DistaError::from(dista_jre::JreError::from(e));
    let ep = net.tcp_connect(addr).map_err(map_net)?;
    ep.write(&[role]).map_err(map_net)?;
    let mut len = [0u8; 4];
    ep.read_exact(&mut len).map_err(map_net)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(dista_jre::JreError::Protocol(
            "telemetry scrape response announces more than the frame cap",
        )
        .into());
    }
    let mut payload = vec![0u8; len];
    ep.read_exact(&mut payload).map_err(map_net)?;
    ep.close();
    Ok(String::from_utf8_lossy(&payload).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_on(net: &SimNet, nodes: &[(&str, [u8; 4])], interval_ms: u64) -> TelemetryPlane {
        let nodes: Vec<(String, [u8; 4])> =
            nodes.iter().map(|(n, ip)| (n.to_string(), *ip)).collect();
        TelemetryPlane::spawn(
            net,
            &nodes,
            TelemetryConfig {
                interval: Duration::from_millis(interval_ms),
                ..TelemetryConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn agent_pushes_land_in_scraped_text() {
        let net = SimNet::new();
        net.registry()
            .counter_with("work", &[("node", "n1")])
            .add(7);
        let plane = plane_on(&net, &[("n1", [10, 0, 0, 1])], 5);
        // The final flush at stop makes the push deterministic even if
        // no tick fired yet.
        let collector = {
            let text = loop {
                let text = plane.scrape_text().unwrap();
                if text.contains("work{node=\"n1\"} 7") {
                    break text;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            assert!(text.contains("dista_collector_frames_ingested_total"));
            plane.shutdown()
        };
        assert!(collector.frames_ingested() >= 1);
        assert_eq!(collector.parse_errors(), 0);
        assert_eq!(collector.nodes(), vec!["n1"]);
    }

    #[test]
    fn shutdown_flush_is_a_barrier() {
        let net = SimNet::new();
        let plane = plane_on(
            &net,
            &[("n1", [10, 0, 0, 1]), ("n2", [10, 0, 0, 2])],
            60_000,
        );
        // Ticks are far in the future: only the stop-flush can deliver.
        net.registry()
            .counter_with("late", &[("node", "n1")])
            .add(1);
        net.registry()
            .counter_with("late", &[("node", "n2")])
            .add(2);
        let collector = plane.shutdown();
        let dump = collector.latest_dump();
        assert_eq!(dump.counter_total("late"), 3);
        assert_eq!(collector.nodes(), vec!["n1", "n2"]);
    }

    #[test]
    fn scrape_json_and_counters_are_monotone() {
        let net = SimNet::new();
        net.registry()
            .histogram_with("lat_us", &[("node", "n1")], &[10, 100])
            .observe(42);
        let plane = plane_on(&net, &[("n1", [10, 0, 0, 1])], 60_000);
        // Deliver via an explicit agent stream (no tick due): dial the
        // wire protocol by hand to also cover the server's framing.
        let ep = net.tcp_connect(plane.addr()).unwrap();
        let mut agent = TelemetryAgent::for_node("n1", net.registry().clone());
        let frame = agent.delta_frame().unwrap();
        let mut msg = vec![ROLE_AGENT];
        msg.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        msg.extend_from_slice(frame.as_bytes());
        ep.write(&msg).unwrap();
        ep.close();
        let json = loop {
            let json = plane.scrape_json().unwrap();
            if json.contains("\"nodes\":[\"n1\"]") {
                break json;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(json.contains("\"lat_us\":{\"p50\":100"));
        let before = plane.collector().scrapes_served();
        let _ = plane.scrape_text().unwrap();
        assert!(plane.collector().scrapes_served() > before);
        plane.shutdown();
    }

    #[test]
    fn unknown_role_byte_closes_the_connection() {
        let net = SimNet::new();
        let mut server = CollectorServer::spawn(
            &net,
            NodeAddr::new([10, 0, 0, 200], 9100),
            CollectorConfig::default(),
        )
        .unwrap();
        let ep = net.tcp_connect(server.addr()).unwrap();
        ep.write(b"X").unwrap();
        let mut buf = [0u8; 1];
        // The server drops the connection without a response.
        loop {
            match ep.try_read(&mut buf) {
                Ok(0) | Err(NetError::Closed) => break,
                Ok(_) => panic!("no payload expected on a bad role byte"),
                Err(NetError::WouldBlock) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(server.collector().frames_ingested(), 0);
        server.stop();
    }

    #[test]
    fn agent_frame_announced_past_the_cap_drops_the_connection() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 200], 9100);
        let listener = net.tcp_listen(addr).unwrap();
        let agent = net.tcp_connect(addr).unwrap();
        let mut conn = Conn {
            ep: listener.accept().unwrap(),
            role: 0,
            buf: Vec::new(),
        };
        let collector = Collector::with_config(CollectorConfig::default());
        // The announcement, then the first 64 KiB of the "frame".
        let mut msg = vec![ROLE_AGENT];
        msg.extend_from_slice(&u32::MAX.to_be_bytes());
        msg.resize(msg.len() + 64 * 1024, 0);
        agent.write(&msg).unwrap();
        let mut scratch = [0u8; 4096];
        assert!(
            !service(&mut conn, &collector, &mut scratch),
            "the server must hang up, not wait for 4 GiB"
        );
        assert!(
            conn.buf.len() <= scratch.len(),
            "nothing past the first read is buffered"
        );
        // `serve` drops a finished connection; the agent sees it closed.
        drop(conn);
        assert_eq!(agent.write(b"x"), Err(NetError::Closed));
        assert_eq!(collector.frames_ingested(), 0);
    }

    #[test]
    fn scrape_response_announced_past_the_cap_is_a_protocol_error() {
        let net = SimNet::new();
        let hostile = NodeAddr::new([10, 0, 0, 66], 9100);
        let listener = net.tcp_listen(hostile).unwrap();
        let answer = std::thread::spawn(move || {
            let ep = listener.accept().unwrap();
            let mut role = [0u8; 1];
            ep.read_exact(&mut role).unwrap();
            ep.write(&u32::MAX.to_be_bytes()).unwrap();
            ep.close();
        });
        assert!(matches!(
            scrape(&net, hostile, ROLE_SCRAPE_TEXT),
            Err(DistaError::Jre(dista_jre::JreError::Protocol(_)))
        ));
        answer.join().unwrap();
    }

    #[test]
    fn collector_addr_conflict_is_reported() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 200], 9100);
        let _first = CollectorServer::spawn(&net, addr, CollectorConfig::default()).unwrap();
        let err = CollectorServer::spawn(&net, addr, CollectorConfig::default()).unwrap_err();
        assert!(matches!(err, DistaError::Jre(_)));
    }
}
