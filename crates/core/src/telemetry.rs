//! The live telemetry plane: SimNet transport for the `dista-obs`
//! agent/collector pair.
//!
//! `dista-obs` owns the data structures ([`TelemetryAgent`] renders
//! delta frames, [`Collector`] ingests them and serves expositions);
//! this module owns the plumbing that makes them a *plane*:
//!
//! * [`CollectorServer`] — a [`TcpServer`] whose sessions speak a
//!   one-role-byte protocol: `b'A'`
//!   opens a long-lived agent stream of `[u32-BE length][delta frame]`
//!   messages; `b'S'` / `b'J'` request one length-prefixed text / JSON
//!   scrape and then close.
//!   No length prefix may announce more than 16 MiB: the
//!   server hangs up on an agent that does, the scraper returns an
//!   error on a response that does.
//!   The scrape endpoint lives *inside* the simulation — any node can
//!   `tcp_connect` to it, exactly like a Prometheus target.
//! * [`AgentRuntime`] — a per-VM thread driving one [`TelemetryAgent`]:
//!   every `interval` (a timed wait on its own stop signal) it
//!   snapshots the shared registry and, when something in scope
//!   changed, pushes the delta over a persistent connection (re-dialled
//!   once on failure). Stopping the runtime performs a final flush so
//!   the collector always ends up with the last cumulative values.
//! * [`TelemetryPlane`] — the bundle a [`crate::Cluster`] owns: one
//!   collector server plus one agent per node, with in-simulation
//!   scrape helpers.
//!
//! Because delta frames carry *cumulative* values, a dropped frame
//! (collector briefly unreachable, ring overflow) degrades to a late
//! update, never a wrong one.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dista_jre::JreError;
use dista_obs::{Collector, CollectorConfig, TelemetryAgent};
use dista_simnet::{read_announced, NodeAddr, SimNet, TcpEndpoint, TcpServer};
use dista_taint::ByteReader;

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

/// The collector's listener: one blocking reader per agent stream or
/// scrape request.
#[derive(Debug)]
pub struct CollectorServer {
    server: TcpServer,
    collector: Arc<Collector>,
}

impl CollectorServer {
    /// Binds `addr` on `net` and starts serving it.
    ///
    /// # Errors
    ///
    /// [`DistaError::Jre`] wrapping the bind failure (address in use).
    pub fn spawn(
        net: &SimNet,
        addr: NodeAddr,
        config: CollectorConfig,
    ) -> Result<Self, DistaError> {
        let collector = Arc::new(Collector::with_config(config));
        let session_collector = collector.clone();
        let server = TcpServer::bind(net, addr, "collector", move |ep, _| {
            read_connection(&ep, &session_collector)
        })
        .map_err(JreError::from)?;
        Ok(CollectorServer { server, collector })
    }

    /// The scrape/push address.
    pub fn addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// The collector behind the server (shared — scrape counters et al.
    /// move while the threads run).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// Stops the server (see [`TcpServer::stop`]): every frame written
    /// before the call is ingested when it returns; the collector and
    /// its data survive.
    pub fn stop(&mut self) {
        self.server.stop();
    }
}

/// Serves one connection to its end: EOF, a transport
/// error, a scrape answered, an unknown role byte, or an agent frame
/// announced past [`MAX_FRAME_LEN`]. A stream silent for the whole block
/// timeout is such an error: its agent re-dials on the next push, and a
/// frame written in the instant of the hang-up is a dropped frame like
/// any other.
fn read_connection(ep: &TcpEndpoint, collector: &Collector) {
    let mut role = [0u8; 1];
    if ep.read_exact(&mut role).is_ok() {
        match role[0] {
            ROLE_AGENT => read_agent_frames(ep, collector),
            ROLE_SCRAPE_TEXT => respond(ep, collector.scrape_text().as_bytes()),
            ROLE_SCRAPE_JSON => respond(ep, collector.scrape_json().as_bytes()),
            _ => {}
        }
    }
}

/// Ingests `[u32-BE length][frame]` messages until the stream ends. A
/// trailing partial frame is lost (cumulative values make that a late
/// update, not a wrong one).
fn read_agent_frames(ep: &TcpEndpoint, collector: &Collector) {
    let mut frame = Vec::new();
    while read_message(ep, &mut frame).is_ok() {
        // Malformed frames are counted by the collector itself.
        let _ = collector.ingest(&String::from_utf8_lossy(&frame));
    }
}

/// Reads one `[u32-BE length][payload]` message into `buf`, refusing a
/// length past [`MAX_FRAME_LEN`] before anything is sized from it.
fn read_message(ep: &TcpEndpoint, buf: &mut Vec<u8>) -> Result<(), JreError> {
    let mut len = [0u8; 4];
    ep.read_exact(&mut len)?;
    let len = ByteReader::new(&len).u32()? as usize;
    if len > MAX_FRAME_LEN {
        return Err(JreError::Protocol(
            "telemetry message announces more than the frame cap",
        ));
    }
    Ok(read_announced(&mut |tail| ep.read(tail), len, buf)?)
}

fn respond(ep: &TcpEndpoint, payload: &[u8]) {
    let mut msg = Vec::with_capacity(4 + payload.len());
    msg.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    msg.extend_from_slice(payload);
    let _ = ep.write(&msg);
}

/// A per-VM agent thread pushing one delta per tick.
#[derive(Debug)]
pub struct AgentRuntime {
    node: String,
    /// The thread and its stop signal: dropping the sender ends the
    /// tick wait at once.
    thread: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
}

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
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = {
            let net = net.clone();
            let mut agent = TelemetryAgent::for_node(node, net.registry().clone());
            std::thread::spawn(move || {
                let mut conn: Option<TcpEndpoint> = None;
                while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
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
            thread: Some((stop, handle)),
        }
    }

    /// The node this agent pushes for.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Stops the agent after one final flush push (idempotent, joins
    /// the thread — returns once the flush is on the wire).
    pub fn stop(&mut self) {
        if let Some((stop, handle)) = self.thread.take() {
            drop(stop);
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

    /// Stops agents (each returns once its final delta is written),
    /// then the server, whose readers ingest every byte already written
    /// before they see EOF: joining them is the ingestion barrier.
    /// Returns the collector for post-run inspection.
    pub fn shutdown(mut self) -> Arc<Collector> {
        for agent in &mut self.agents {
            agent.stop();
        }
        self.server.stop();
        self.server.collector().clone()
    }
}

/// One scrape of the collector at `addr`: dial, send the role byte, read
/// one length-prefixed response of at most [`MAX_FRAME_LEN`] bytes.
fn scrape(net: &SimNet, addr: NodeAddr, role: u8) -> Result<String, DistaError> {
    let ep = net.tcp_connect(addr).map_err(JreError::from)?;
    ep.write(&[role]).map_err(JreError::from)?;
    let mut payload = Vec::new();
    read_message(&ep, &mut payload)?;
    ep.close();
    Ok(String::from_utf8_lossy(&payload).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_simnet::NetError;

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
        // The server hangs up without a response.
        let mut buf = [0u8; 1];
        assert_eq!(ep.read(&mut buf), Ok(0), "no payload on a bad role byte");
        assert_eq!(ep.write(b"x"), Err(NetError::Closed));
        assert_eq!(server.collector().frames_ingested(), 0);
        server.stop();
    }

    #[test]
    fn agent_frame_announced_past_the_cap_drops_the_connection() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 200], 9100);
        let listener = net.tcp_listen(addr).unwrap();
        let agent = net.tcp_connect(addr).unwrap();
        let served = listener.accept().unwrap();
        let collector = Collector::with_config(CollectorConfig::default());
        // The announcement, then the first 64 KiB of the "frame".
        let mut msg = vec![ROLE_AGENT];
        msg.extend_from_slice(&u32::MAX.to_be_bytes());
        msg.resize(msg.len() + 64 * 1024, 0);
        agent.write(&msg).unwrap();
        // Returns at once, which is what makes the server hang up: the
        // session must not wait for 4 GiB.
        read_connection(&served, &collector);
        assert_eq!(
            served.available(),
            64 * 1024,
            "nothing past the role byte and the length is read, let alone buffered"
        );
        assert_eq!(collector.frames_ingested(), 0);
    }

    #[test]
    fn a_stalled_agent_stream_delays_neither_scrapes_nor_shutdown() {
        let net = SimNet::new();
        net.registry()
            .counter_with("work", &[("node", "ghost")])
            .add(7);
        let plane = plane_on(&net, &[], 60_000);
        // A raw agent stream: role byte, a full length prefix, half the
        // frame it announces — then silence.
        let frame = TelemetryAgent::for_node("ghost", net.registry().clone())
            .delta_frame()
            .unwrap();
        let mut msg = vec![ROLE_AGENT];
        msg.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        msg.extend_from_slice(&frame.as_bytes()[..frame.len() / 2]);
        let stalled = net.tcp_connect(plane.addr()).unwrap();
        stalled.write(&msg).unwrap();

        let started = std::time::Instant::now();
        for _ in 0..3 {
            let text = plane.scrape_text().unwrap();
            assert!(text.contains("dista_collector_frames_ingested_total"));
        }
        let collector = plane.shutdown();
        // The stalled reader sits in a 30 s block timeout; nobody waits for it.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "scrapes + shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(collector.scrapes_served(), 3);
        assert_eq!(collector.frames_ingested(), 0, "half a frame is no frame");
        assert!(collector.nodes().is_empty());
        assert_eq!(collector.parse_errors(), 0);
        drop(stalled);
    }

    #[test]
    fn shutdown_returns_a_collector_holding_every_agents_last_value() {
        let nodes = [
            ("n1", [10, 0, 0, 1]),
            ("n2", [10, 0, 0, 2]),
            ("n3", [10, 0, 0, 3]),
            ("n4", [10, 0, 0, 4]),
        ];
        // Looped: the barrier is the join of every reader, which must
        // hold however the four flushes and the hang-up interleave.
        for round in 0..50u64 {
            let net = SimNet::new();
            // Ticks are far in the future: only the stop-flush delivers.
            let plane = plane_on(&net, &nodes, 60_000);
            for (i, (node, _)) in nodes.iter().enumerate() {
                net.registry()
                    .counter_with("late", &[("node", node)])
                    .add(round * 10 + i as u64 + 1);
            }
            let collector = plane.shutdown();
            let text = collector.scrape_text();
            for (i, (node, _)) in nodes.iter().enumerate() {
                let want = format!("late{{node=\"{node}\"}} {}", round * 10 + i as u64 + 1);
                assert!(
                    text.contains(&want),
                    "round {round}: no {want:?} in\n{text}"
                );
            }
            assert_eq!(collector.frames_ingested(), 4, "round {round}");
        }
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
