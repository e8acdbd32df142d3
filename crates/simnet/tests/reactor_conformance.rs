//! Blocking-shim vs raw-reactor differential conformance suite.
//!
//! The reactor refactor's contract is that the blocking API is a *pure
//! shim*: any scripted workload must deliver byte-identical data,
//! identical parsed taint spans, and identical `udp_dropped_*` counters
//! whether the receiver uses blocking `read`/`receive` calls or the
//! non-blocking `try_read`/`try_receive` + readiness-poll path. Each
//! test runs the same deterministic script through both receivers on
//! fresh, identically-seeded networks and compares everything observed.
//!
//! Taint spans use a test-local record framing — simnet itself is
//! taint-oblivious, so the "span" is whatever survives the byte
//! boundary: `[tag u8][len u16 be][gid u32 be][payload]`, the same
//! reduce-to-bytes discipline the DisTA boundary codec lives by.

use std::time::Duration;

use dista_simnet::{
    FaultConfig, NetError, NodeAddr, Reactor, Readiness, SimNet, TcpEndpoint, Token, UdpEndpoint,
};

fn tcp_addr() -> NodeAddr {
    NodeAddr::new([10, 0, 0, 2], 700)
}

fn udp_tx_addr() -> NodeAddr {
    NodeAddr::new([10, 0, 0, 1], 701)
}

fn udp_rx_addr() -> NodeAddr {
    NodeAddr::new([10, 0, 0, 2], 701)
}

/// One scripted payload: `gid == 0` means clean.
#[derive(Debug, Clone)]
struct Record {
    gid: u32,
    payload: Vec<u8>,
}

impl Record {
    fn tainted(gid: u32, payload: &[u8]) -> Self {
        assert_ne!(gid, 0);
        Record {
            gid,
            payload: payload.to_vec(),
        }
    }

    fn clean(payload: &[u8]) -> Self {
        Record {
            gid: 0,
            payload: payload.to_vec(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(7 + self.payload.len());
        out.push(u8::from(self.gid != 0));
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.gid.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// A parsed `(gid, payload)` span.
type Span = (u32, Vec<u8>);

/// Parses complete records; returns the spans plus any trailing partial
/// record (non-empty after a mid-stream close).
fn parse_spans(bytes: &[u8]) -> (Vec<Span>, Vec<u8>) {
    let mut spans = Vec::new();
    let mut pos = 0;
    while bytes.len() - pos >= 7 {
        let len = u16::from_be_bytes([bytes[pos + 1], bytes[pos + 2]]) as usize;
        if bytes.len() - pos < 7 + len {
            break;
        }
        let gid = u32::from_be_bytes(bytes[pos + 3..pos + 7].try_into().unwrap());
        let tag = bytes[pos];
        assert_eq!(tag, u8::from(gid != 0), "tag byte consistent with gid");
        spans.push((gid, bytes[pos + 7..pos + 7 + len].to_vec()));
        pos += 7 + len;
    }
    (spans, bytes[pos..].to_vec())
}

/// What a script's sender does, in order.
#[derive(Debug, Clone)]
enum Op {
    Tcp(Record),
    /// Write only the first `n` bytes of the record, then nothing more
    /// (used right before the close for mid-stream truncation).
    TcpPartial(Record, usize),
    Udp(Record),
}

/// Everything a receiver observes — the cross-mode equality witness.
#[derive(Debug, PartialEq, Eq)]
struct Delivered {
    tcp_bytes: Vec<u8>,
    tcp_spans: Vec<Span>,
    tcp_remainder: Vec<u8>,
    datagrams: Vec<Vec<u8>>,
    udp_dropped: u64,
    udp_dropped_bytes: u64,
}

/// Stands up a fresh net, runs the sender script to completion (all
/// sends are synchronous buffer fills), closes the TCP side, and hands
/// the pre-filled receiver endpoints to `recv`.
fn run_script<F>(script: &[Op], cfg: FaultConfig, recv: F) -> Delivered
where
    F: FnOnce(TcpEndpoint, UdpEndpoint) -> (Vec<u8>, Vec<Vec<u8>>),
{
    let net = SimNet::with_faults(cfg);
    let listener = net.tcp_listen(tcp_addr()).unwrap();
    let client = net.tcp_connect_from([10, 0, 0, 1], tcp_addr()).unwrap();
    let served = listener.accept().unwrap();
    let udp_tx = net.udp_bind(udp_tx_addr()).unwrap();
    let udp_rx = net.udp_bind(udp_rx_addr()).unwrap();

    for op in script {
        match op {
            Op::Tcp(r) => client.write(&r.encode()).unwrap(),
            Op::TcpPartial(r, n) => client.write(&r.encode()[..*n]).unwrap(),
            Op::Udp(r) => udp_tx.send_to(udp_rx_addr(), &r.encode()),
        }
    }
    client.close();

    let (tcp_bytes, datagrams) = recv(served, udp_rx);
    let snap = net.metrics().snapshot();
    let (tcp_spans, tcp_remainder) = parse_spans(&tcp_bytes);
    Delivered {
        tcp_bytes,
        tcp_spans,
        tcp_remainder,
        datagrams,
        udp_dropped: snap.udp_dropped,
        udp_dropped_bytes: snap.udp_dropped_bytes,
    }
}

/// Blocking receiver: `read` until EOF, `receive` until the (pre-filled)
/// mailbox runs dry.
fn blocking_receiver(conn: TcpEndpoint, udp: UdpEndpoint) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut tcp_bytes = Vec::new();
    let mut buf = [0u8; 11]; // deliberately odd-sized
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => tcp_bytes.extend_from_slice(&buf[..n]),
            Err(e) => panic!("blocking read failed: {e}"),
        }
    }
    let mut datagrams = Vec::new();
    let mut dbuf = [0u8; 256];
    loop {
        match udp.receive(&mut dbuf) {
            Ok((n, _)) => datagrams.push(dbuf[..n].to_vec()),
            Err(NetError::Timeout(_)) | Err(NetError::Closed) => break,
            Err(e) => panic!("blocking receive failed: {e}"),
        }
    }
    (tcp_bytes, datagrams)
}

/// Reactor receiver: token-registered endpoints, drain-until-WouldBlock
/// on every readiness event, stop once TCP hit EOF and UDP ran dry.
fn reactor_receiver(conn: TcpEndpoint, udp: UdpEndpoint) -> (Vec<u8>, Vec<Vec<u8>>) {
    const TCP: Token = Token(1);
    const UDP: Token = Token(2);
    let reactor = Reactor::new();
    conn.register_readable(&reactor, TCP);
    udp.register_readable(&reactor, UDP);
    let mut tcp_bytes = Vec::new();
    let mut datagrams = Vec::new();
    let mut buf = [0u8; 11];
    let mut dbuf = [0u8; 256];
    let mut tcp_eof = false;
    let mut events = Vec::new();
    while !tcp_eof {
        reactor.poll(&mut events, Some(Duration::from_secs(5)));
        assert!(!events.is_empty(), "reactor starved before EOF");
        for ev in events.drain(..) {
            match ev.token {
                TCP => loop {
                    match conn.try_read(&mut buf) {
                        Ok(0) => {
                            tcp_eof = true;
                            break;
                        }
                        Ok(n) => tcp_bytes.extend_from_slice(&buf[..n]),
                        Err(NetError::WouldBlock) => break,
                        Err(e) => panic!("try_read failed: {e}"),
                    }
                },
                UDP => loop {
                    match udp.try_receive(&mut dbuf) {
                        Ok((n, _)) => datagrams.push(dbuf[..n].to_vec()),
                        Err(NetError::WouldBlock) | Err(NetError::Closed) => break,
                        Err(e) => panic!("try_receive failed: {e}"),
                    }
                },
                other => panic!("unexpected token {other:?}"),
            }
            assert!(
                ev.readiness.contains(Readiness::READABLE),
                "only readable events registered"
            );
        }
    }
    // Every datagram was queued before the TCP close the sender issued
    // last, so one final synchronous drain empties the mailbox.
    while let Ok((n, _)) = udp.try_receive(&mut dbuf) {
        datagrams.push(dbuf[..n].to_vec());
    }
    (tcp_bytes, datagrams)
}

/// Runs one script through both receivers on identically-configured
/// fresh nets and asserts the full observation witness matches.
fn assert_conformance(script: &[Op], cfg: FaultConfig) -> Delivered {
    let blocking = run_script(script, cfg, blocking_receiver);
    let reactor = run_script(script, cfg, reactor_receiver);
    assert_eq!(
        blocking, reactor,
        "blocking shim and reactor API diverged on the same script"
    );
    blocking
}

/// Short block timeout so the blocking UDP drain terminates; all data is
/// pre-buffered, so no read ever actually waits on it.
fn cfg_base() -> FaultConfig {
    FaultConfig {
        block_timeout: Duration::from_millis(20),
        ..Default::default()
    }
}

#[test]
fn mixed_tcp_udp_tainted_and_clean() {
    let script = vec![
        Op::Tcp(Record::tainted(7, b"secret-config")),
        Op::Udp(Record::clean(b"heartbeat")),
        Op::Tcp(Record::clean(b"plain body bytes")),
        Op::Udp(Record::tainted(9, b"tainted datagram")),
        Op::Tcp(Record::tainted(7, b"more of gid 7")),
        Op::Udp(Record::clean(b"")),
        Op::Tcp(Record::clean(b"")),
    ];
    let got = assert_conformance(&script, cfg_base());
    assert_eq!(got.tcp_spans.len(), 4);
    assert_eq!(got.tcp_spans[0], (7, b"secret-config".to_vec()));
    assert_eq!(got.tcp_spans[1], (0, b"plain body bytes".to_vec()));
    assert!(got.tcp_remainder.is_empty());
    assert_eq!(got.datagrams.len(), 3);
    assert_eq!(got.udp_dropped, 0);
}

#[test]
fn fragmented_frames_reassemble_identically() {
    // max_read_chunk 3 forces every record across many partial reads in
    // both modes; spans must still parse identically.
    let cfg = FaultConfig {
        max_read_chunk: 3,
        ..cfg_base()
    };
    let long = vec![0xA5u8; 200];
    let script = vec![
        Op::Tcp(Record::tainted(42, &long)),
        Op::Tcp(Record::clean(b"x")),
        Op::Tcp(Record::tainted(43, b"abcdefghij")),
    ];
    let got = assert_conformance(&script, cfg);
    assert_eq!(got.tcp_spans.len(), 3);
    assert_eq!(got.tcp_spans[0].1.len(), 200);
    assert!(got.tcp_remainder.is_empty());
}

#[test]
fn mid_stream_close_truncates_identically() {
    // The last record is cut 5 bytes in (mid-header+gid); both modes
    // must deliver exactly those 5 bytes and then a clean EOF.
    let script = vec![
        Op::Tcp(Record::tainted(3, b"whole record")),
        Op::TcpPartial(Record::tainted(4, b"never finishes"), 5),
    ];
    let got = assert_conformance(&script, cfg_base());
    assert_eq!(got.tcp_spans.len(), 1);
    assert_eq!(got.tcp_remainder.len(), 5, "truncated tail delivered as-is");
}

#[test]
fn seeded_udp_drops_are_mode_independent() {
    // Half the datagrams drop under a seeded RNG; which ones drop (and
    // therefore the drop counters AND the surviving sequence) must not
    // depend on how the receiver reads.
    let cfg = FaultConfig {
        udp_drop_probability: 0.5,
        seed: 1337,
        ..cfg_base()
    };
    let mut script = Vec::new();
    for i in 0..40u32 {
        script.push(Op::Udp(Record::tainted(
            100 + i,
            format!("dg-{i}").as_bytes(),
        )));
    }
    script.push(Op::Tcp(Record::clean(b"fin")));
    let got = assert_conformance(&script, cfg);
    assert!(got.udp_dropped > 0, "seed 1337 must drop something");
    assert!(
        (got.datagrams.len() as u64) + got.udp_dropped == 40,
        "survivors + drops account for every send"
    );
    assert!(got.udp_dropped_bytes > 0);
}

#[test]
fn tiny_payload_storm_conforms() {
    // Many 1-byte records stress event coalescing: a single readiness
    // event may cover dozens of records, and drain-until-WouldBlock must
    // still recover every span.
    let mut script = Vec::new();
    for i in 0..300u32 {
        let b = [i as u8];
        script.push(Op::Tcp(if i % 3 == 0 {
            Record::tainted(i + 1, &b)
        } else {
            Record::clean(&b)
        }));
    }
    let got = assert_conformance(&script, cfg_base());
    assert_eq!(got.tcp_spans.len(), 300);
    assert!(got.tcp_remainder.is_empty());
}

/// The scale pin: 10 000 TCP connections registered on one `Reactor`,
/// each with a deadline armed on the timer wheel. One frame written to
/// every connection must surface as exactly one readable event per
/// token, every frame must read back intact, and every deadline must
/// still be cancellable when its frame arrives.
#[test]
fn ten_thousand_connections_on_one_reactor_are_each_readable_exactly_once() {
    const CONNS: usize = 10_000;
    let frame = |i: usize| {
        let mut f = *b"conn\0\0\0\0\0\0\0\0";
        f[4..].copy_from_slice(&(i as u64).to_be_bytes());
        f
    };
    let net = SimNet::new();
    let listener = net.tcp_listen(tcp_addr()).unwrap();
    let reactor = Reactor::new();
    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let client = net.tcp_connect(tcp_addr()).unwrap();
        let server = listener.accept().unwrap();
        let token = Token(i as u64);
        server.register_readable(&reactor, token);
        let deadline = reactor.set_timer(token, Duration::from_secs(600));
        conns.push((client, server, deadline));
    }
    assert_eq!(reactor.pending_timers(), CONNS);
    for (i, (client, _, _)) in conns.iter().enumerate() {
        client.write(&frame(i)).unwrap();
    }

    let mut seen = vec![false; CONNS];
    let mut served = 0;
    let mut events = Vec::new();
    while served < CONNS {
        reactor.poll(&mut events, Some(Duration::from_secs(5)));
        assert!(!events.is_empty(), "reactor starved after {served} frames");
        for ev in &events {
            let i = ev.token.0 as usize;
            assert_eq!(ev.readiness, Readiness::READABLE, "token {i}");
            assert!(!seen[i], "token {i} reported readable twice");
            seen[i] = true;
            let (_, server, deadline) = &conns[i];
            let mut buf = [0u8; 32];
            let n = server.try_read(&mut buf).unwrap();
            assert_eq!(buf[..n], frame(i), "frame of connection {i}");
            assert_eq!(server.try_read(&mut buf), Err(NetError::WouldBlock));
            assert!(reactor.cancel_timer(*deadline), "deadline {i} fired early");
            served += 1;
        }
    }
    assert_eq!(reactor.pending_timers(), 0);
    assert_eq!(
        reactor.poll(&mut events, Some(Duration::ZERO)),
        0,
        "a drained connection must not be reported again"
    );
}
