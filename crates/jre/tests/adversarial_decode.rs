//! Adversarial boundary-decode tests: malformed, truncated, or hostile
//! wire input must surface as typed errors or clean EOF — never a panic,
//! and never silently-clean (untainted) bytes. Covers both wire
//! protocols, v2's inline definitions, plus the v1↔v2 negotiation
//! interop matrix.

use dista_jre::codec::v2::encode_defs;
use dista_jre::{JreError, Mode, V2Codec, Vm, WireCodec, WireProtocol, WireVersion};
use dista_simnet::{NodeAddr, SimNet, TcpEndpoint};
use dista_taint::{
    serialize_taint, GlobalId, LocalId, Payload, TagValue, TaintStore, TaintedBytes,
};
use dista_taintmap::{TaintMapEndpoint, TaintMapError};

struct Rig {
    net: SimNet,
    tm: TaintMapEndpoint,
    rx_vm: Vm,
}

impl Rig {
    fn new(port_salt: u16, gid_width: usize) -> Self {
        Self::with_protocol(port_salt, gid_width, WireProtocol::V1)
    }

    fn with_protocol(port_salt: u16, gid_width: usize, protocol: WireProtocol) -> Self {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder()
            .addr(NodeAddr::new([10, 0, 0, 99], 7000 + port_salt))
            .connect(&net)
            .unwrap();
        let rx_vm = Vm::builder("rx", &net)
            .mode(Mode::Dista)
            .ip([10, 0, 0, 2])
            .taint_map(tm.topology())
            .wire_protocol(protocol)
            .build()
            .unwrap();
        assert_eq!(gid_width, rx_vm.gid_width(), "records carry the VM's width");
        Rig { net, tm, rx_vm }
    }

    /// A raw (uninstrumented) sender endpoint plus the instrumented
    /// receiver stream — the attacker writes arbitrary bytes.
    fn raw_pair(&self, port: u16) -> (TcpEndpoint, dista_jre::BoundaryStream) {
        let addr = NodeAddr::new([10, 0, 0, 2], port);
        let l = self.net.tcp_listen(addr).unwrap();
        let raw = self.net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        (raw, dista_jre::BoundaryStream::new(self.rx_vm.clone(), s))
    }
}

/// One wire record: data byte + big-endian gid in `width` bytes.
fn record(byte: u8, gid: u64, width: usize) -> Vec<u8> {
    let mut r = vec![byte];
    r.extend_from_slice(&gid.to_be_bytes()[8 - width..]);
    r
}

#[test]
fn truncated_tail_after_valid_records_is_protocol_error() {
    let rig = Rig::new(1, 4);
    let (raw, rx) = rig.raw_pair(400);
    let mut wire = record(b'a', 0, 4);
    wire.extend(record(b'b', 0, 4));
    wire.extend(&[b'c', 0, 0]); // torn third record
    raw.write(&wire).unwrap();
    raw.close();
    // The whole records decode fine first…
    let got = rx.read_payload(2).unwrap();
    assert_eq!(got.data(), b"ab");
    // …then the torn tail is a typed error, not silent truncation.
    assert!(matches!(rx.read_payload(4), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn mid_stream_close_inside_first_record_is_protocol_error() {
    let rig = Rig::new(2, 4);
    let (raw, rx) = rig.raw_pair(401);
    raw.write(&[1, 2, 3]).unwrap(); // 3 bytes of a 5-byte record
    raw.close();
    assert!(matches!(rx.read_payload(8), Err(JreError::Protocol(_))));
    // The error is sticky, not a panic, on retry.
    assert!(matches!(rx.read_payload(8), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn unknown_gid_is_a_typed_taintmap_error_never_clean_bytes() {
    let rig = Rig::new(3, 4);
    let (raw, rx) = rig.raw_pair(402);
    // gid 1234 was never registered with any shard.
    let mut wire = record(b'x', 1234, 4);
    wire.extend(record(b'y', 1234, 4));
    raw.write(&wire).unwrap();
    let err = rx.read_payload(2).unwrap_err();
    assert!(
        matches!(err, JreError::TaintMap(TaintMapError::UnknownGlobalId(_))),
        "got {err:?}"
    );
    rig.tm.shutdown();
}

#[test]
fn zero_length_reads_are_clean_noops() {
    let rig = Rig::new(5, 4);
    let (raw, rx) = rig.raw_pair(404);
    // Even with bytes pending, a zero-length read returns empty.
    raw.write(&record(b'k', 0, 4)).unwrap();
    let got = rx.read_payload(0).unwrap();
    assert!(got.is_empty());
    // The pending record is still delivered afterwards.
    let got = rx.read_payload(1).unwrap();
    assert_eq!(got.data(), b"k");
    rig.tm.shutdown();
}

#[test]
fn clean_eof_stays_clean_on_repeated_reads() {
    let rig = Rig::new(6, 4);
    let (raw, rx) = rig.raw_pair(405);
    raw.close();
    for _ in 0..3 {
        assert!(rx.read_payload(16).unwrap().is_empty());
    }
    rig.tm.shutdown();
}

#[test]
fn datagram_with_garbage_gid_errors_not_panics() {
    let rig = Rig::new(7, 4);
    let tx = rig.net.udp_bind(NodeAddr::new([10, 0, 0, 1], 55)).unwrap();
    let sock =
        dista_jre::DatagramSocket::bind(&rig.rx_vm, NodeAddr::new([10, 0, 0, 2], 55)).unwrap();
    let mut wire = record(b'q', 999_999, 4);
    wire.extend(record(b'r', 999_999, 4));
    dista_simnet::native::datagram_send(&tx, sock.local_addr(), &wire);
    let mut packet = dista_jre::DatagramPacket::for_receive(16);
    let err = sock.receive(&mut packet).unwrap_err();
    assert!(matches!(err, JreError::TaintMap(_)), "got {err:?}");
    rig.tm.shutdown();
}

#[test]
fn error_reads_do_not_lose_the_remainder() {
    // An unknown-gid error must not consume the remainder: after the
    // taint map learns the gid (here: never), the bytes are still there
    // for a retry — decode-before-consume semantics.
    let rig = Rig::new(8, 4);
    let (raw, rx) = rig.raw_pair(406);
    raw.write(&record(b'm', 424_242, 4)).unwrap();
    assert!(rx.read_payload(1).is_err());
    // Same bytes, same error — nothing was silently dropped.
    assert!(rx.read_payload(1).is_err());
    rig.tm.shutdown();
}

/// LEB128 varint, as used by the v2 frame grammar.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

#[test]
fn v2_torn_clean_frame_header_at_eof_is_protocol_error() {
    let rig = Rig::with_protocol(10, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(410);
    // Opcode byte only — the stream dies inside the frame header.
    raw.write(&[0x01]).unwrap();
    raw.close();
    assert!(matches!(rx.read_payload(8), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn v2_lying_frame_length_is_rejected() {
    let rig = Rig::with_protocol(11, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(411);
    // Clean frame declaring 2^27 data bytes — past the frame-size cap;
    // trusting it would make the receiver buffer unboundedly.
    let mut wire = vec![0x01];
    wire.extend(varint(1 << 27));
    raw.write(&wire).unwrap();
    assert!(matches!(rx.read_payload(8), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn v2_gid_overflowing_declared_width_is_rejected() {
    let rig = Rig::with_protocol(12, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(412);
    // Runs frame with width 8 carrying a gid beyond the 32-bit Global
    // ID space: silent truncation would alias two different taints.
    let mut wire = vec![0x02, 8];
    wire.extend(varint(1)); // dlen
    wire.extend(varint(1)); // nseg
    wire.extend(varint(1)); // run_len
    wire.extend((u64::from(u32::MAX) + 7).to_be_bytes()); // gid, 8 bytes
    wire.push(b'x');
    raw.write(&wire).unwrap();
    assert!(matches!(rx.read_payload(1), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

/// A v2 frame declares a gid of 1..=4 bytes: a wider one is refused
/// even when its gid fits 32 bits, on a stream and in a datagram.
#[test]
fn a_v2_frame_wider_than_four_bytes_is_refused() {
    let rig = Rig::with_protocol(22, 4, WireProtocol::V2);
    let tx = rig.net.udp_bind(NodeAddr::new([10, 0, 0, 1], 56)).unwrap();
    let sock =
        dista_jre::DatagramSocket::bind(&rig.rx_vm, NodeAddr::new([10, 0, 0, 2], 56)).unwrap();
    for width in 5..=8u8 {
        let mut wire = vec![0x02, width];
        wire.extend(varint(1)); // dlen
        wire.extend(varint(1)); // nseg
        wire.extend(varint(1)); // run_len
        wire.extend(&7u64.to_be_bytes()[8 - usize::from(width)..]); // gid 7
        wire.push(b'x');
        let (raw, rx) = rig.raw_pair(425 + u16::from(width));
        raw.write(&wire).unwrap();
        let err = rx.read_payload(1).unwrap_err();
        assert!(
            matches!(err, JreError::Protocol(_)),
            "width {width} on a stream: {err:?}"
        );
        dista_simnet::native::datagram_send(&tx, sock.local_addr(), &wire);
        let mut packet = dista_jre::DatagramPacket::for_receive(16);
        let err = sock.receive(&mut packet).unwrap_err();
        assert!(
            matches!(err, JreError::Protocol(_)),
            "width {width} in a datagram: {err:?}"
        );
    }
    rig.tm.shutdown();
}

#[test]
fn v2_unknown_opcode_is_rejected() {
    let rig = Rig::with_protocol(13, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(413);
    raw.write(&[0x7F, 1, 1, b'x']).unwrap();
    assert!(matches!(rx.read_payload(4), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn v2_zero_length_segment_is_rejected() {
    let rig = Rig::with_protocol(14, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(414);
    let mut wire = vec![0x02, 1];
    wire.extend(varint(1)); // dlen
    wire.extend(varint(1)); // nseg
    wire.extend(varint(0)); // run_len 0: never valid
    wire.push(9); // gid
    wire.push(b'x');
    raw.write(&wire).unwrap();
    assert!(matches!(rx.read_payload(1), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn fake_probe_against_pinned_v1_receiver_is_harmless() {
    let rig = Rig::new(15, 4);
    let (raw, rx) = rig.raw_pair(415);
    // An attacker spoofing the negotiation probe gets a v1 reply and the
    // stream keeps decoding v1 records — no state confusion, no panic.
    raw.write(&[2, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
    raw.write(&record(b'p', 0, 4)).unwrap();
    let got = rx.read_payload(1).unwrap();
    assert_eq!(got.data(), b"p");
    // The reply record ([1][FF; 4]) is sitting in the attacker's buffer.
    let mut reply = [0u8; 5];
    raw.read_exact(&mut reply).unwrap();
    assert_eq!(reply, [1, 0xFF, 0xFF, 0xFF, 0xFF]);
    rig.tm.shutdown();
}

/// A taint registered with the rig's map by another VM: its gid and the
/// bytes it was registered with — what an honest definition carries.
fn registered(rig: &Rig, tag: &str) -> (GlobalId, Vec<u8>) {
    let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let client = rig.tm.client(&rig.net, store.clone()).unwrap();
    let taint = store.mint_source_taint(TagValue::str(tag));
    let gid = client.global_id_for(taint).unwrap();
    (gid, serialize_taint(store.tree(), taint))
}

/// A v2 run frame carrying `data` under one gid.
fn run_frame(data: &[u8], gid: GlobalId) -> Vec<u8> {
    let mut wire = Vec::new();
    V2Codec::new(4)
        .encode_into(data, &[(data.len(), gid)], &mut wire)
        .unwrap();
    wire
}

fn defs(defs: &[(GlobalId, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    encode_defs(defs, &mut wire);
    wire
}

/// Reads `len` bytes and names their tags, or the error.
fn tags_read(
    rig: &Rig,
    rx: &dista_jre::BoundaryStream,
    len: usize,
) -> Result<Vec<String>, JreError> {
    let got = rx.read_exact_payload(len)?;
    let store = rig.rx_vm.store();
    Ok(store.tag_values(got.taint_union(store)))
}

#[test]
fn v2_def_count_past_the_bytes_present_is_protocol_error_at_eof() {
    let rig = Rig::with_protocol(16, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(416);
    let def = registered(&rig, "alpha");
    let mut wire = defs(&[def]);
    wire[1] = 3; // announces three, carries one
    raw.write(&wire).unwrap();
    raw.close();
    assert!(matches!(rx.read_payload(8), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn v2_def_lying_length_is_rejected() {
    let rig = Rig::with_protocol(17, 4, WireProtocol::V2);
    // Past the frame cap: a lie, refused before a byte of it is awaited.
    let (raw, rx) = rig.raw_pair(417);
    let mut wire = vec![0x05, 1, 1];
    wire.extend(varint(1 << 27));
    raw.write(&wire).unwrap();
    assert!(matches!(rx.read_payload(8), Err(JreError::Protocol(_))));
    // Under the cap but longer than what the stream holds: at EOF, a
    // torn frame.
    let (raw, rx) = rig.raw_pair(418);
    let mut wire = vec![0x05, 1, 1];
    wire.extend(varint(300));
    wire.extend_from_slice(&[0xAC; 10]);
    raw.write(&wire).unwrap();
    raw.close();
    assert!(matches!(rx.read_payload(8), Err(JreError::Protocol(_))));
    rig.tm.shutdown();
}

#[test]
fn v2_def_split_across_reads_waits_for_the_rest_and_loses_nothing() {
    let rig = Rig::with_protocol(18, 4, WireProtocol::V2);
    // Every OS read delivers three bytes: the definitions arrive in
    // dozens of pieces, each one an incomplete frame until the last.
    rig.net.set_faults(dista_simnet::FaultConfig {
        max_read_chunk: 3,
        ..Default::default()
    });
    let (raw, rx) = rig.raw_pair(419);
    let (alpha, beta) = (registered(&rig, "alpha"), registered(&rig, "beta"));
    let mut wire = defs(&[alpha.clone(), beta.clone()]);
    wire.extend(run_frame(b"aaaa", alpha.0));
    wire.extend(run_frame(b"bb", beta.0));
    raw.write(&wire).unwrap();
    assert_eq!(tags_read(&rig, &rx, 4).unwrap(), ["alpha"]);
    assert_eq!(tags_read(&rig, &rx, 2).unwrap(), ["beta"]);
    let client = rig.rx_vm.taint_map().unwrap();
    assert_eq!(
        client.stats().lookup_rpcs,
        0,
        "both resolved from the stream"
    );
    rig.tm.shutdown();
}

#[test]
fn v2_def_of_gid_zero_or_a_reserved_gid_is_refused() {
    let rig = Rig::with_protocol(19, 4, WireProtocol::V2);
    let (_, bytes) = registered(&rig, "alpha");
    for (port, gid) in [(420, 0), (421, 0xFF), (422, u32::MAX)] {
        let (raw, rx) = rig.raw_pair(port);
        raw.write(&defs(&[(GlobalId(gid), bytes.clone())])).unwrap();
        let err = rx.read_payload(1).unwrap_err();
        assert!(
            matches!(err, JreError::TaintMap(TaintMapError::Protocol(_))),
            "gid {gid}: {err:?}"
        );
        // Refused, not skipped: the frame stays and so does the error.
        assert!(rx.read_payload(1).is_err());
    }
    rig.tm.shutdown();
}

#[test]
fn v2_def_of_bytes_that_are_no_serialized_taint_is_a_codec_error() {
    let rig = Rig::with_protocol(20, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(423);
    let (gid, _) = registered(&rig, "alpha");
    let mut wire = defs(&[(gid, b"not a taint".to_vec())]);
    wire.extend(run_frame(b"x", gid));
    raw.write(&wire).unwrap();
    let err = rx.read_payload(1).unwrap_err();
    assert!(
        matches!(err, JreError::TaintMap(TaintMapError::Codec(_))),
        "{err:?}"
    );
    rig.tm.shutdown();
}

#[test]
fn v2_def_naming_a_cached_gid_with_other_bytes_is_ignored() {
    let rig = Rig::with_protocol(21, 4, WireProtocol::V2);
    let (raw, rx) = rig.raw_pair(424);
    let (alpha, beta) = (registered(&rig, "alpha"), registered(&rig, "beta"));
    let mut wire = defs(std::slice::from_ref(&alpha));
    wire.extend(run_frame(b"a", alpha.0));
    // The same gid again, now claiming beta's bytes: the first writer
    // wins, and nothing is even decoded.
    wire.extend(defs(&[(alpha.0, beta.1.clone())]));
    wire.extend(run_frame(b"A", alpha.0));
    raw.write(&wire).unwrap();
    assert_eq!(tags_read(&rig, &rx, 1).unwrap(), ["alpha"]);
    let tags = rig.rx_vm.store().tree().stats().tags;
    assert_eq!(tags_read(&rig, &rx, 1).unwrap(), ["alpha"]);
    assert_eq!(
        rig.rx_vm.store().tree().stats().tags,
        tags,
        "beta never interned"
    );
    rig.tm.shutdown();
}

/// The full interop matrix: every supported protocol pairing settles on
/// the expected version and delivers tainted bytes intact, both ways.
#[test]
fn negotiation_interop_matrix() {
    let cases: [(WireProtocol, WireProtocol, WireVersion); 5] = [
        (
            WireProtocol::Negotiate,
            WireProtocol::Negotiate,
            WireVersion::V2,
        ),
        (WireProtocol::Negotiate, WireProtocol::V1, WireVersion::V1),
        (WireProtocol::V1, WireProtocol::Negotiate, WireVersion::V1),
        (WireProtocol::V1, WireProtocol::V1, WireVersion::V1),
        (WireProtocol::V2, WireProtocol::V2, WireVersion::V2),
    ];
    for (i, (client_proto, server_proto, expect)) in cases.into_iter().enumerate() {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder()
            .addr(NodeAddr::new([10, 0, 0, 99], 7100 + i as u16))
            .connect(&net)
            .unwrap();
        let mk = |name: &str, ip: [u8; 4], proto: WireProtocol| {
            Vm::builder(name, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .taint_map(tm.topology())
                .wire_protocol(proto)
                .build()
                .unwrap()
        };
        let tx_vm = mk("tx", [10, 0, 0, 1], client_proto);
        let rx_vm = mk("rx", [10, 0, 0, 2], server_proto);
        let addr = NodeAddr::new([10, 0, 0, 2], 420 + i as u16);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect_from(tx_vm.ip(), addr).unwrap();
        let s = l.accept().unwrap();
        let tx = dista_jre::BoundaryStream::connector(tx_vm.clone(), c);
        let rx = dista_jre::BoundaryStream::acceptor(rx_vm.clone(), s);

        let t = tx_vm.store().mint_source_taint(TagValue::str("fwd"));
        let mut buf = TaintedBytes::uniform(b"secret", t);
        buf.extend_plain(b" and clear");
        tx.write_payload(&Payload::Tainted(buf)).unwrap();
        let got = rx.read_exact_payload(16).unwrap();
        assert_eq!(got.data(), b"secret and clear", "case {i}");
        assert_eq!(
            rx_vm.store().tag_values(got.taint_union(rx_vm.store())),
            vec!["fwd".to_string()],
            "case {i}: taints must survive {client_proto:?}->{server_proto:?}"
        );
        assert_eq!(tx.wire_version(), Some(expect), "case {i}: client version");

        // Reverse direction over the same connection.
        let t2 = rx_vm.store().mint_source_taint(TagValue::str("rev"));
        rx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"reply", t2)))
            .unwrap();
        let back = tx.read_exact_payload(5).unwrap();
        assert_eq!(back.data(), b"reply", "case {i}");
        assert_eq!(
            tx_vm.store().tag_values(back.taint_union(tx_vm.store())),
            vec!["rev".to_string()],
            "case {i}: reverse taints"
        );
        assert_eq!(rx.wire_version(), Some(expect), "case {i}: server version");
        tm.shutdown();
    }
}

/// Sanity check that a *valid* tainted exchange still works under the
/// same rig (guards against the adversarial paths over-rejecting).
#[test]
fn well_formed_wire_still_round_trips() {
    let rig = Rig::new(9, 4);
    let tx_vm = Vm::builder("tx", &rig.net)
        .mode(Mode::Dista)
        .ip([10, 0, 0, 1])
        .taint_map(rig.tm.topology())
        .build()
        .unwrap();
    let addr = NodeAddr::new([10, 0, 0, 2], 407);
    let l = rig.net.tcp_listen(addr).unwrap();
    let c = rig.net.tcp_connect_from(tx_vm.ip(), addr).unwrap();
    let s = l.accept().unwrap();
    let tx = dista_jre::BoundaryStream::new(tx_vm.clone(), c);
    let rx = dista_jre::BoundaryStream::new(rig.rx_vm.clone(), s);
    let t = tx_vm.store().mint_source_taint(TagValue::str("ok"));
    tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(b"fine", t)))
        .unwrap();
    let got = rx.read_exact_payload(4).unwrap();
    assert_eq!(got.data(), b"fine");
    assert_eq!(
        rig.rx_vm
            .store()
            .tag_values(got.taint_union(rig.rx_vm.store())),
        vec!["ok".to_string()]
    );
    rig.tm.shutdown();
}
