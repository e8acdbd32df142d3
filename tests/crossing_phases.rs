//! The boundary's phase clock (DESIGN.md §4g), seen from outside: a VM
//! whose flight recorder is on times its first crossing of each side and
//! every 64th after it, and records each as one `crossing_phases` event
//! whose phases, in their documented order, add up to the crossing.

use std::time::{Duration, Instant};

use dista_repro::jre::{BoundaryStream, DatagramPacket, DatagramSocket, Mode, Vm, WireProtocol};
use dista_repro::obs::{
    to_jsonl, CrossingSide, ObsConfig, ObsEvent, ObsEventKind, Observability, Transport,
};
use dista_repro::simnet::{NodeAddr, SimNet};
use dista_repro::taint::{Payload, TagValue, TaintedBytes};
use dista_repro::taintmap::TaintMapEndpoint;

/// The phase clock's sampling rate: one crossing in this many per side.
const RATE: usize = 64;

/// How the crossings travel.
#[derive(Debug, Clone, Copy)]
enum Link {
    Stream(WireProtocol),
    Datagram,
}

impl Link {
    fn transport(self) -> Transport {
        match self {
            Link::Stream(_) => Transport::Tcp,
            Link::Datagram => Transport::Udp,
        }
    }
}

/// Sends `n` tainted 64-byte payloads from one VM to another, one at a
/// time, and returns both VMs with how long each write and each read
/// call took.
fn cross(link: Link, obs: &Observability, mode: Mode, n: usize) -> ([Vm; 2], Vec<[Duration; 2]>) {
    let net = SimNet::new();
    let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
    let protocol = match link {
        Link::Stream(protocol) => protocol,
        Link::Datagram => WireProtocol::V2,
    };
    let vm = |name: &str, ip: [u8; 4]| {
        Vm::builder(name, &net)
            .mode(mode)
            .ip(ip)
            .taint_map(tm.topology())
            .wire_protocol(protocol)
            .observability(obs.clone())
            .build()
            .unwrap()
    };
    let vms = [vm("n1", [10, 0, 0, 1]), vm("n2", [10, 0, 0, 2])];
    let taint = vms[0].taint_source(TagValue::str("timed"));
    let payload = Payload::Tainted(TaintedBytes::uniform(vec![7u8; 64], taint));
    let timed = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed()
    };
    let mut took = Vec::with_capacity(n);
    match link {
        Link::Stream(_) => {
            let addr = NodeAddr::new([10, 0, 0, 2], 80);
            let listener = net.tcp_listen(addr).unwrap();
            let connected = net.tcp_connect_from(vms[0].ip(), addr).unwrap();
            let tx = BoundaryStream::connector(vms[0].clone(), connected);
            let rx = BoundaryStream::acceptor(vms[1].clone(), listener.accept().unwrap());
            for _ in 0..n {
                let write = timed(&mut || tx.write_payload(&payload).unwrap());
                let read = timed(&mut || assert_eq!(rx.read_payload(64).unwrap().len(), 64));
                took.push([write, read]);
            }
        }
        Link::Datagram => {
            let [from, to] = [0, 1]
                .map(|i| DatagramSocket::bind(&vms[i], NodeAddr::new(vms[i].ip(), 53)).unwrap());
            for _ in 0..n {
                let packet = DatagramPacket::for_send(payload.clone(), to.local_addr());
                let write = timed(&mut || from.send(&packet).unwrap());
                let mut got = DatagramPacket::for_receive(64);
                let read = timed(&mut || to.receive(&mut got).unwrap());
                assert_eq!(got.data().len(), 64);
                took.push([write, read]);
            }
        }
    }
    tm.shutdown();
    (vms, took)
}

/// The `crossing_phases` events a VM recorded, oldest first.
fn phase_events(vm: &Vm) -> Vec<ObsEvent> {
    vm.flight_recorder()
        .events()
        .into_iter()
        .filter(|e| matches!(e.kind, ObsEventKind::CrossingPhases { .. }))
        .collect()
}

#[test]
fn every_64th_crossing_per_side_records_its_phases() {
    let n = 2 * RATE + 1;
    for link in [
        Link::Stream(WireProtocol::V1),
        Link::Stream(WireProtocol::V2),
        Link::Datagram,
    ] {
        let obs = Observability::new(ObsConfig::default());
        let (vms, took) = cross(link, &obs, Mode::Dista, n);
        for (side_at, (vm, side)) in vms
            .iter()
            .zip([CrossingSide::Write, CrossingSide::Read])
            .enumerate()
        {
            let events = phase_events(vm);
            assert_eq!(
                events.len(),
                3,
                "{link:?} {side:?}: crossings 0, 64 and 128"
            );
            for (k, event) in events.iter().enumerate() {
                let ObsEventKind::CrossingPhases {
                    transport,
                    side: recorded,
                    phases_ns,
                } = event.kind
                else {
                    unreachable!()
                };
                assert_eq!((transport, recorded), (link.transport(), side), "{link:?}");
                // The phases add up to the crossing the caller timed,
                // which holds them and a little more.
                let whole: u64 = phases_ns.iter().sum();
                let outside = took[k * RATE][side_at].as_nanos() as u64;
                assert!(
                    0 < whole && whole <= outside,
                    "{link:?} {side:?} #{k}: phases {phases_ns:?} = {whole} ns, call {outside} ns"
                );
                // Exported with each phase named, in the side's order.
                let line = to_jsonl(std::slice::from_ref(event));
                let named: Vec<String> = side
                    .phases()
                    .iter()
                    .zip(phases_ns)
                    .map(|(name, ns)| format!("\"{name}\":{ns}"))
                    .collect();
                assert!(
                    line.contains(&format!("\"phases_ns\":{{{}}}", named.join(","))),
                    "{line}"
                );
            }
        }
        // The sender's first crossing registered the taint; the
        // receiver's resolved it.
        let [write, read] = [&vms[0], &vms[1]].map(|vm| match phase_events(vm)[0].kind {
            ObsEventKind::CrossingPhases { phases_ns, .. } => phases_ns,
            _ => unreachable!(),
        });
        assert!(write[1] > 0, "{link:?}: register {write:?}");
        assert!(read[2] > 0, "{link:?}: resolve {read:?}");
    }
}

#[test]
fn nothing_is_timed_without_a_flight_recorder() {
    let n = RATE + 1;
    let off = Observability::disabled();
    let on = Observability::new(ObsConfig::default());
    for link in [Link::Stream(WireProtocol::V2), Link::Datagram] {
        let (vms, _) = cross(link, &off, Mode::Dista, n);
        assert!(vms
            .iter()
            .all(|vm| vm.flight_recorder().events().is_empty()));
        // Phosphor's wrappers carry no taint, and time nothing either.
        let (vms, _) = cross(link, &on, Mode::Phosphor, n);
        assert!(vms.iter().all(|vm| phase_events(vm).is_empty()));
    }
}
