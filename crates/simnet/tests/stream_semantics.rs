//! Scripted stream and datagram semantics of the blocking API.
//!
//! Each test runs one deterministic sender script on a fresh, seeded
//! network, closes the stream, and checks in absolute terms what a
//! blocking `read`/`receive` loop observes: the delivered bytes, the
//! parsed taint spans, a torn trailing record, and the `udp_dropped_*`
//! counters.
//!
//! Taint spans use a test-local record framing — simnet itself is
//! taint-oblivious, so the "span" is whatever survives the byte
//! boundary: `[tag u8][len u16 be][gid u32 be][payload]`, the same
//! reduce-to-bytes discipline the DisTA boundary codec lives by.

use std::time::Duration;

use dista_simnet::{FaultConfig, NetError, NodeAddr, SimNet, TcpEndpoint, UdpEndpoint};

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

/// Everything the receiver observes.
#[derive(Debug)]
struct Delivered {
    tcp_spans: Vec<Span>,
    tcp_remainder: Vec<u8>,
    datagrams: Vec<Vec<u8>>,
    udp_dropped: u64,
    udp_dropped_bytes: u64,
}

/// Stands up a fresh net, runs the sender script to completion (all
/// sends are synchronous buffer fills), closes the TCP side, and hands
/// the pre-filled receiver endpoints to [`blocking_receiver`].
fn run_script(script: &[Op], cfg: FaultConfig) -> Delivered {
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

    let (tcp_bytes, datagrams) = blocking_receiver(served, udp_rx);
    let snap = net.metrics().snapshot();
    let (tcp_spans, tcp_remainder) = parse_spans(&tcp_bytes);
    Delivered {
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
    let got = run_script(&script, cfg_base());
    assert_eq!(got.tcp_spans.len(), 4);
    assert_eq!(got.tcp_spans[0], (7, b"secret-config".to_vec()));
    assert_eq!(got.tcp_spans[1], (0, b"plain body bytes".to_vec()));
    assert!(got.tcp_remainder.is_empty());
    assert_eq!(got.datagrams.len(), 3);
    assert_eq!(got.udp_dropped, 0);
}

#[test]
fn fragmented_frames_reassemble() {
    // max_read_chunk 3 forces every record across many partial reads;
    // the spans must still parse.
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
    let got = run_script(&script, cfg);
    assert_eq!(got.tcp_spans.len(), 3);
    assert_eq!(got.tcp_spans[0].1.len(), 200);
    assert!(got.tcp_remainder.is_empty());
}

#[test]
fn mid_stream_close_delivers_the_torn_tail() {
    // The last record is cut 5 bytes in (mid-header+gid): the reader
    // gets exactly those 5 bytes and then a clean EOF.
    let script = vec![
        Op::Tcp(Record::tainted(3, b"whole record")),
        Op::TcpPartial(Record::tainted(4, b"never finishes"), 5),
    ];
    let got = run_script(&script, cfg_base());
    assert_eq!(got.tcp_spans.len(), 1);
    assert_eq!(got.tcp_remainder.len(), 5, "truncated tail delivered as-is");
}

#[test]
fn seeded_udp_drops_are_all_accounted_for() {
    // Half the datagrams drop under a seeded RNG; every send is either
    // received or counted as dropped.
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
    let got = run_script(&script, cfg);
    assert!(got.udp_dropped > 0, "seed 1337 must drop something");
    assert!(
        (got.datagrams.len() as u64) + got.udp_dropped == 40,
        "survivors + drops account for every send"
    );
    assert!(got.udp_dropped_bytes > 0);
}

#[test]
fn tiny_payload_storm_recovers_every_span() {
    // 300 one-byte records concatenated into one stream and read back
    // 11 bytes at a time.
    let mut script = Vec::new();
    for i in 0..300u32 {
        let b = [i as u8];
        script.push(Op::Tcp(if i % 3 == 0 {
            Record::tainted(i + 1, &b)
        } else {
            Record::clean(&b)
        }));
    }
    let got = run_script(&script, cfg_base());
    assert_eq!(got.tcp_spans.len(), 300);
    assert!(got.tcp_remainder.is_empty());
}
