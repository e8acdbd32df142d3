//! Inline taint definitions on wire protocol v2 (DESIGN.md §4f), as
//! counts: a v2 connection ships `gid → serialized taint` the first time
//! it carries a gid its peer is not known to hold, so the receiver asks
//! the Taint Map nothing, and the sender does not wait for it either —
//! the gid comes from a leased block and its bind rides a later frame
//! (§4c). Every v1 path, and every datagram, names gids bare: it binds
//! them first and keeps the lookup it always made.

use dista_repro::core::{Cluster, Mode};
use dista_repro::jre::codec::v2::{encode_defs, parse_defs};
use dista_repro::jre::{
    BoundaryStream, DatagramPacket, DatagramSocket, InputStream, OutputStream, ServerSocket,
    Socket, V2Codec, Vm, WireCodec, WireProtocol,
};
use dista_repro::obs::{Hop, ObsConfig};
use dista_repro::simnet::{FaultAction, NodeAddr, SimNet, TcpEndpoint};
use dista_repro::taint::{
    serialize_taint, GlobalId, LocalId, Payload, TagValue, Taint, TaintStore, TaintedBytes,
};
use dista_repro::taintmap::{ServerStats, TaintMapEndpoint};

/// Two VMs, one connection between them, one Taint Map.
struct Pair {
    net: SimNet,
    tm: TaintMapEndpoint,
    vms: [Vm; 2],
    tx: BoundaryStream,
    rx: BoundaryStream,
}

impl Pair {
    fn new(protocols: [WireProtocol; 2]) -> Self {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let vm = |name: &str, ip: [u8; 4], protocol: WireProtocol| {
            Vm::builder(name, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .taint_map(tm.topology())
                .wire_protocol(protocol)
                .build()
                .unwrap()
        };
        let vms = [
            vm("n1", [10, 0, 0, 1], protocols[0]),
            vm("n2", [10, 0, 0, 2], protocols[1]),
        ];
        let addr = NodeAddr::new([10, 0, 0, 2], 80);
        let listener = net.tcp_listen(addr).unwrap();
        let connected = net.tcp_connect_from(vms[0].ip(), addr).unwrap();
        let accepted = listener.accept().unwrap();
        Pair {
            tx: BoundaryStream::connector(vms[0].clone(), connected),
            rx: BoundaryStream::acceptor(vms[1].clone(), accepted),
            net,
            tm,
            vms,
        }
    }

    /// One fresh taint per tag, minted on the sender.
    fn fresh(&self, tags: &[&str]) -> Vec<Taint> {
        tags.iter()
            .map(|tag| self.vms[0].taint_source(TagValue::str(*tag)))
            .collect()
    }

    /// Sends one 8-byte run per taint and checks each arrives with its
    /// own tag.
    fn cross(&self, taints: &[Taint]) {
        let mut bytes = TaintedBytes::new();
        for &taint in taints {
            bytes.extend_uniform(b"8 bytes!", taint);
        }
        self.tx.write_payload(&Payload::Tainted(bytes)).unwrap();
        let got = self.rx.read_exact_payload(8 * taints.len()).unwrap();
        let store = self.vms[1].store();
        let shadow = got.as_tainted().unwrap().shadow();
        let arrived: Vec<Vec<String>> = shadow
            .iter_runs()
            .map(|(_, t)| store.tag_values(t))
            .collect();
        let sent: Vec<Vec<String>> = taints
            .iter()
            .map(|&t| self.vms[0].store().tag_values(t))
            .collect();
        assert_eq!(arrived, sent);
    }

    fn tcp_bytes(&self) -> u64 {
        self.net.metrics().snapshot().tcp_bytes
    }
}

/// `BIND`/`LOOKUP` frames the deployment served since `before`, and the
/// lookup items among them.
fn frames_since(before: ServerStats, after: ServerStats) -> (u64, u64) {
    let frames = after.batch_frames - before.batch_frames;
    let lookups = after.lookup_requests - before.lookup_requests;
    (frames, lookups)
}

#[test]
fn a_fresh_v2_crossing_registers_once_and_looks_nothing_up() {
    let pair = Pair::new([WireProtocol::V2; 2]);
    let before = pair.tm.stats();
    pair.cross(&pair.fresh(&["a", "b"]));
    let crossed = pair.tm.stats();
    assert_eq!(
        frames_since(before, crossed),
        (0, 0),
        "the crossing waits for the Taint Map in no way"
    );
    pair.vms[0].taint_map().unwrap().flush().unwrap();
    let after = pair.tm.stats();
    assert_eq!(after.bind_requests - before.bind_requests, 2);
    assert_eq!(
        frames_since(crossed, after),
        (1, 0),
        "one BIND frame after the flush, no LOOKUP frame"
    );
    assert_eq!(pair.vms[1].taint_map().unwrap().stats().lookup_rpcs, 0);
    pair.tm.shutdown();
}

#[test]
fn a_thousand_fresh_v2_crossings_bind_in_one_frame_per_lease() {
    let pair = Pair::new([WireProtocol::V2; 2]);
    let before = pair.tm.stats();
    for op in 0..1_000 {
        pair.cross(&pair.fresh(&[&format!("{op}:a"), &format!("{op}:b")]));
    }
    let (frames, lookups) = frames_since(before, pair.tm.stats());
    // 2 000 gids from 64-gid leases: one frame per block, binding the
    // block before it and leasing the next.
    assert!(
        frames <= 35,
        "{frames} Taint Map frames for 1 000 crossings"
    );
    assert_eq!(lookups, 0);
    pair.vms[0].taint_map().unwrap().flush().unwrap();
    assert_eq!(pair.tm.stats().global_taints - before.global_taints, 2_000);
    pair.tm.shutdown();
}

#[test]
fn a_reply_carrying_the_request_taint_back_defines_nothing() {
    let pair = Pair::new([WireProtocol::V2; 2]);
    let taint = pair.fresh(&["row"])[0];
    // Registered ahead, so the put's bytes are its frames and nothing
    // of the Taint Map's.
    let gid = pair.vms[0]
        .taint_map()
        .unwrap()
        .global_id_for(taint)
        .unwrap();
    let body = b"put: row-1 = value";
    let payload = Payload::Tainted(TaintedBytes::uniform(body, taint));
    let mut frame = Vec::new();
    let runs = [(body.len(), gid)];
    V2Codec::new(4)
        .encode_into(body, &runs, &mut frame)
        .unwrap();
    let mut def = Vec::new();
    let serialized = serialize_taint(pair.vms[0].store().tree(), taint);
    encode_defs(&[(gid, serialized)], &mut def);

    let sent = pair.tcp_bytes();
    pair.tx.write_payload(&payload).unwrap();
    let put = pair.tcp_bytes() - sent;
    let stored = pair.rx.read_exact_payload(body.len()).unwrap();
    // The get answers on the same connection with what the put stored.
    let sent = pair.tcp_bytes();
    pair.rx.write_payload(&stored).unwrap();
    let get = pair.tcp_bytes() - sent;
    let got = pair.tx.read_exact_payload(body.len()).unwrap();

    assert_eq!(
        put as usize,
        def.len() + frame.len(),
        "the put defines the gid"
    );
    assert!(
        def.len() <= 32,
        "a one-tag definition costs {} B on the wire",
        def.len()
    );
    assert_eq!(get as usize, frame.len(), "the reply defines nothing");
    assert_eq!(got.data(), body);
    let store = pair.vms[0].store();
    assert_eq!(store.tag_values(got.taint_union(store)), ["row"]);
    for vm in &pair.vms {
        assert_eq!(vm.taint_map().unwrap().stats().lookup_rpcs, 0);
    }
    pair.tm.shutdown();
}

#[test]
fn v1_negotiated_v1_and_v2_datagrams_keep_their_lookups() {
    for protocols in [
        [WireProtocol::V1; 2],
        [WireProtocol::Negotiate, WireProtocol::V1],
    ] {
        let pair = Pair::new(protocols);
        let before = pair.tm.stats();
        pair.cross(&pair.fresh(&["a", "b"]));
        assert_eq!(
            frames_since(before, pair.tm.stats()),
            (2, 2),
            "{protocols:?}: one BIND frame, one LOOKUP frame of two"
        );
        pair.tm.shutdown();
    }

    // Datagrams have no connection to remember a peer by.
    let pair = Pair::new([WireProtocol::V2; 2]);
    let [from, to] = [0, 1].map(|i| {
        let vm = &pair.vms[i];
        DatagramSocket::bind(vm, NodeAddr::new(vm.ip(), 53)).unwrap()
    });
    let before = pair.tm.stats();
    let taint = pair.fresh(&["dgram"])[0];
    let data = Payload::Tainted(TaintedBytes::uniform(b"packet", taint));
    from.send(&DatagramPacket::for_send(data, to.local_addr()))
        .unwrap();
    let mut packet = DatagramPacket::for_receive(64);
    to.receive(&mut packet).unwrap();
    let store = pair.vms[1].store();
    assert_eq!(
        store.tag_values(packet.data().taint_union(store)),
        ["dgram"]
    );
    assert_eq!(frames_since(before, pair.tm.stats()), (2, 1));
    pair.tm.shutdown();
}

/// A definition can name any gid. n2 learns one its shard never leased
/// from a forged v2 stream, then names the taint bare, in a datagram to
/// n1: the shard refuses the bind, n2 names the taint by a fresh gid of
/// its own, and n1 resolves it. The refused bind is not sent again, so
/// the shard goes on leasing to n2 and its next 100 fresh taints cross.
#[test]
fn a_forged_definition_is_re_keyed_by_the_relay_and_leasing_goes_on() {
    let pair = Pair::new([WireProtocol::V2; 2]);
    let (sink, relay) = (&pair.vms[0], &pair.vms[1]);
    let addr = NodeAddr::new(relay.ip(), 81);
    let listener = pair.net.tcp_listen(addr).unwrap();
    let forger = pair.net.tcp_connect_from([10, 0, 0, 9], addr).unwrap();
    let inbound = BoundaryStream::acceptor(relay.clone(), listener.accept().unwrap());
    let forger_store = TaintStore::new(LocalId::new([10, 0, 0, 9], 9));
    let secret = forger_store.mint_source_taint(TagValue::str("secret"));
    let forged = GlobalId(1_000_001);
    let body = b"forged!!";
    let (mut defs, mut frame) = (Vec::new(), Vec::new());
    encode_defs(
        &[(forged, serialize_taint(forger_store.tree(), secret))],
        &mut defs,
    );
    V2Codec::new(4)
        .encode_into(body, &[(body.len(), forged)], &mut frame)
        .unwrap();
    forger.write(&[defs, frame].concat()).unwrap();
    let learned = inbound.read_exact_payload(body.len()).unwrap();

    let [from, to] =
        [relay, sink].map(|vm| DatagramSocket::bind(vm, NodeAddr::new(vm.ip(), 53)).unwrap());
    let crosses = |data: TaintedBytes| {
        let len = data.len();
        from.send(&DatagramPacket::for_send(
            Payload::Tainted(data),
            to.local_addr(),
        ))
        .unwrap();
        let mut packet = DatagramPacket::for_receive(len);
        to.receive(&mut packet).unwrap();
        let store = sink.store();
        let shadow = packet.data().as_tainted().unwrap().shadow().clone();
        shadow
            .iter_runs()
            .map(|(_, t)| store.tag_values(t))
            .collect::<Vec<_>>()
    };
    let learned = learned.as_tainted().unwrap().clone();
    assert_eq!(crosses(learned.clone()), [["secret"]]);
    let relay_client = relay.taint_map().unwrap();
    let rekeyed = relay_client
        .cached_gid_for(learned.taint_union(relay.store()))
        .unwrap();
    assert_ne!(rekeyed, forged, "named by a gid of the relay's own");
    let sink_client = sink.taint_map().unwrap();
    assert!(sink_client.taint_for(forged).is_err(), "nothing bound it");

    let mut fresh = TaintedBytes::new();
    for i in 0..100 {
        fresh.extend_uniform(b"8 bytes!", relay.taint_source(TagValue::Int(i)));
    }
    let expected: Vec<Vec<String>> = (0..100).map(|i| vec![i.to_string()]).collect();
    assert_eq!(crosses(fresh), expected);
    assert_eq!(
        relay_client.stats().register_rpcs,
        1 + 1 + 100,
        "the refused bind, the re-keyed one, the fresh ones: each sent once"
    );
    pair.tm.shutdown();
}

/// A receiver cut off from the Taint Map: on v2 the definitions still
/// resolve every gid to its real taint; on v1 (the twin) the same bytes
/// arrive under a `pending-gid` sentinel, as they always did.
#[test]
fn a_v2_receiver_cut_off_from_the_map_resolves_defined_gids() {
    for (protocol, expect_pending) in [(WireProtocol::V2, false), (WireProtocol::V1, true)] {
        let pair = Pair::new([protocol; 2]);
        let (rx, tm) = (pair.vms[1].ip(), pair.tm.addr().ip());
        for (from, to) in [(rx, tm), (tm, rx)] {
            pair.net.inject(FaultAction::Partition { from, to });
        }
        let taint = pair.fresh(&["cut-off"])[0];
        pair.tx
            .write_payload(&Payload::Tainted(TaintedBytes::uniform(b"data", taint)))
            .unwrap();
        let got = pair.rx.read_exact_payload(4).unwrap();
        let store = pair.vms[1].store();
        let tags = store.tag_values(got.taint_union(store));
        let client = pair.vms[1].taint_map().unwrap();
        if expect_pending {
            assert!(
                tags[0].starts_with("pending-gid:"),
                "{protocol:?}: {tags:?}"
            );
            assert_eq!(client.pending_count(), 1);
        } else {
            assert_eq!(tags, ["cut-off"], "{protocol:?}");
            assert_eq!(client.pending_count(), 0);
            assert_eq!(client.stats().lookup_rpcs, 0);
        }
        pair.tm.shutdown();
    }
}

/// n1 → n2 → n3 over pinned v2, each hop through a tap that keeps what
/// crossed it, n2 passing on what it read the way a broker hands a
/// producer's message to a consumer: n3 reads n1's tag, no VM looks
/// anything up, and n2 defines the gid with the very bytes n1 did.
#[test]
fn a_v2_relay_defines_the_gid_with_the_bytes_it_was_given() {
    let net = SimNet::new();
    let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
    let vms: Vec<Vm> = (1..=3)
        .map(|i| {
            Vm::builder(format!("n{i}"), &net)
                .mode(Mode::Dista)
                .ip([10, 0, 0, i])
                .taint_map(tm.topology())
                .wire_protocol(WireProtocol::V2)
                .build()
                .unwrap()
        })
        .collect();
    // A hop from `vms[i]` to `vms[i + 1]`: the sender's stream, the
    // tap's two raw ends, the receiver's stream.
    let hop = |i: usize| {
        let (tx_vm, rx_vm) = (&vms[i], &vms[i + 1]);
        let tap = NodeAddr::new([10, 0, 0, 9], 70 + i as u16);
        let tap_listener = net.tcp_listen(tap).unwrap();
        let tx = BoundaryStream::connector(
            tx_vm.clone(),
            net.tcp_connect_from(tx_vm.ip(), tap).unwrap(),
        );
        let tap_in = tap_listener.accept().unwrap();
        let to = NodeAddr::new(rx_vm.ip(), 70);
        let listener = net.tcp_listen(to).unwrap();
        let tap_out = net.tcp_connect_from(tap.ip(), to).unwrap();
        let rx = BoundaryStream::acceptor(rx_vm.clone(), listener.accept().unwrap());
        (tx, tap_in, tap_out, rx)
    };
    // Carries one write across a tap and returns its wire bytes.
    let pass = |tap_in: &TcpEndpoint, tap_out: &TcpEndpoint| {
        let mut wire = vec![0; 4096];
        let n = tap_in.read(&mut wire).unwrap();
        wire.truncate(n);
        tap_out.write(&wire).unwrap();
        wire
    };
    let defined = |wire: &[u8]| -> Vec<(GlobalId, Vec<u8>)> {
        let (defs, _) = parse_defs(wire)
            .unwrap()
            .expect("a definitions frame first");
        defs.map(|(gid, bytes)| (gid, bytes.to_vec())).collect()
    };
    let (a_tx, a_in, a_out, b_rx) = hop(0);
    let (b_tx, b_in, b_out, c_rx) = hop(1);
    let secret = vms[0].taint_source(TagValue::str("secret"));
    a_tx.write_payload(&Payload::Tainted(TaintedBytes::uniform(
        b"relayed!",
        secret,
    )))
    .unwrap();
    let from_a = defined(&pass(&a_in, &a_out));
    let relayed = b_rx.read_exact_payload(8).unwrap();
    b_tx.write_payload(&relayed).unwrap();
    let from_b = defined(&pass(&b_in, &b_out));
    let got = c_rx.read_exact_payload(8).unwrap();

    let store = vms[2].store();
    assert_eq!(store.tag_values(got.taint_union(store)), ["secret"]);
    assert_eq!(from_a.len(), 1);
    assert_eq!(from_b, from_a, "n2 relays n1's gid and bytes");
    for vm in &vms {
        assert_eq!(
            vm.taint_map().unwrap().stats().lookup_rpcs,
            0,
            "{}",
            vm.name()
        );
    }
    tm.shutdown();
}

/// n1 → n2 → n3 over two sockets; returns the secret's gid.
fn relay(cluster: &Cluster) -> u32 {
    let (src, relay, sink) = (cluster.vm(0), cluster.vm(1), cluster.vm(2));
    let relay_server = ServerSocket::bind(relay, NodeAddr::new(relay.ip(), 91)).unwrap();
    let sink_server = ServerSocket::bind(sink, NodeAddr::new(sink.ip(), 91)).unwrap();
    let src_out = Socket::connect(src, relay_server.local_addr()).unwrap();
    let relay_in = relay_server.accept().unwrap();
    let relay_out = Socket::connect(relay, sink_server.local_addr()).unwrap();
    let sink_in = sink_server.accept().unwrap();
    let secret = src.taint_source(TagValue::str("secret"));
    src_out
        .output_stream()
        .write(&Payload::Tainted(TaintedBytes::uniform(
            b"relayed!",
            secret,
        )))
        .unwrap();
    let relayed = relay_in.input_stream().read_exact(8).unwrap();
    relay_out.output_stream().write(&relayed).unwrap();
    let received = sink_in.input_stream().read_exact(8).unwrap();
    assert!(sink.taint_sink("LOG.info", received.taint_union(sink.store())));
    src.taint_map().unwrap().cached_gid_for(secret).unwrap().0
}

/// The trace as `kind node(s)` steps.
fn story(hops: &[Hop]) -> Vec<String> {
    hops.iter()
        .map(|hop| match hop {
            Hop::Minted { node, .. } => format!("minted {node}"),
            Hop::Registered { node, .. } => format!("registered {node}"),
            Hop::Crossed {
                from_node, to_node, ..
            } => format!("crossed {from_node}->{}", to_node.as_deref().unwrap_or("?")),
            Hop::Resolved { node, .. } => format!("resolved {node}"),
            Hop::Pending { node, .. } => format!("pending {node}"),
            Hop::Sunk { node, sink, .. } => format!("sunk {sink} {node}"),
        })
        .collect()
}

/// n1 → n2 over v2, n2 → n3 over v1, and n1 gone before its binds left:
/// n2 learned the secret's gid from n1's definition, so before naming it
/// bare it binds it itself, and n3 looks it up and gets the secret.
#[test]
fn a_v2_to_v1_relay_binds_what_it_learned_from_a_definition() {
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("n", 3)
        .wire_protocol(WireProtocol::Negotiate)
        .node_wire_protocol("n3", WireProtocol::V1)
        .build()
        .unwrap();
    let (src, relay, sink) = (
        cluster.vm(0).clone(),
        cluster.vm(1).clone(),
        cluster.vm(2).clone(),
    );
    let relay_server = ServerSocket::bind(&relay, NodeAddr::new(relay.ip(), 92)).unwrap();
    let sink_server = ServerSocket::bind(&sink, NodeAddr::new(sink.ip(), 92)).unwrap();
    let src_out = Socket::connect(&src, relay_server.local_addr()).unwrap();
    let relay_in = relay_server.accept().unwrap();
    let relay_out = Socket::connect(&relay, sink_server.local_addr()).unwrap();
    let sink_in = sink_server.accept().unwrap();

    let secret = src.taint_source(TagValue::str("secret"));
    let payload = Payload::Tainted(TaintedBytes::uniform(b"relayed!", secret));
    src_out.output_stream().write(&payload).unwrap();
    let relayed = relay_in.input_stream().read_exact(8).unwrap();
    let gid = src.taint_map().unwrap().cached_gid_for(secret).unwrap();
    cluster.net().inject(FaultAction::Isolate { ip: src.ip() });

    relay_out.output_stream().write(&relayed).unwrap();
    let received = sink_in.input_stream().read_exact(8).unwrap();
    let tags = sink.store().tag_values(received.taint_union(sink.store()));
    assert_eq!(tags, ["secret"], "resolved, not pending");
    let sink_client = sink.taint_map().unwrap();
    assert_eq!(sink_client.pending_count(), 0);
    assert_eq!(sink_client.stats().lookup_rpcs, 1);
    assert_eq!(
        sink_client.taint_for(gid).unwrap(),
        received.taint_union(sink.store())
    );
    assert_eq!(
        src.taint_map().unwrap().stats().register_rpcs,
        0,
        "n1 bound nothing"
    );
    assert_eq!(
        relay.taint_map().unwrap().stats().register_rpcs,
        1,
        "n2 bound it"
    );
    cluster.net().inject(FaultAction::Rejoin { ip: src.ip() });
    cluster.shutdown();
}

#[test]
fn a_v2_relay_looks_nothing_up_and_its_trace_stays_exact() {
    let mut stories = Vec::new();
    for protocol in [WireProtocol::V2, WireProtocol::V1] {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("n", 3)
            .wire_protocol(protocol)
            .observability(ObsConfig::default())
            .build()
            .unwrap();
        let before = cluster.taint_map().stats();
        let gid = relay(&cluster);
        let lookups = cluster.taint_map().stats().lookup_requests - before.lookup_requests;
        let trace = cluster.provenance(gid);
        assert_eq!(trace.exact, protocol == WireProtocol::V2, "{trace}");
        assert_eq!(lookups, if protocol == WireProtocol::V2 { 0 } else { 2 });
        stories.push(story(&trace.hops));
        cluster.shutdown();
    }
    assert_eq!(
        stories[0],
        [
            "minted n1",
            "registered n1",
            "crossed n1->n2",
            "resolved n2",
            "crossed n2->n3",
            "resolved n3",
            "sunk LOG.info n3",
        ]
    );
    assert_eq!(
        stories[0], stories[1],
        "a definition resolves as a lookup did"
    );
}
