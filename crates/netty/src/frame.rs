//! `LengthFieldPrepender` / `LengthFieldBasedFrameDecoder` — Netty's
//! standard length-prefixed framing over a byte stream.
//!
//! The 4-byte length prefix is protocol scaffolding (untainted); the
//! frame body keeps its per-byte taints.

use dista_jre::{JreError, SocketChannel};
use dista_taint::Payload;

/// Writes one frame: `u32` big-endian length + body.
///
/// Header and body go out as two writes instead of being copied into a
/// combined buffer: wire records are self-contained and the stream
/// concatenates, so the bytes on the wire are identical to the old
/// single-write framing — without duplicating the body per frame.
///
/// # Errors
///
/// Transport or Taint Map errors.
pub fn write_frame(channel: &SocketChannel, body: &Payload) -> Result<(), JreError> {
    // A plain header is fine in every mode: the boundary encodes plain
    // payloads as untainted records, exactly what the old combined
    // buffer's `extend_plain(header)` produced.
    let header = Payload::Plain((body.len() as u32).to_be_bytes().to_vec());
    channel.write_payload(&header)?;
    if body.is_empty() {
        return Ok(());
    }
    channel.write_payload(body)
}

/// Reads one frame; `None` on clean EOF at a frame boundary.
pub use dista_jre::read_frame;

#[cfg(test)]
mod tests {
    use super::*;
    use dista_jre::{Mode, ServerSocketChannel, Vm, WireProtocol};
    use dista_simnet::{NodeAddr, SimNet};
    use dista_taint::{TagValue, TaintedBytes};
    use dista_taintmap::TaintMapEndpoint;

    fn rig() -> (TaintMapEndpoint, Vm, Vm, SocketChannel, SocketChannel) {
        rig_with(WireProtocol::V1)
    }

    fn rig_with(
        protocol: WireProtocol,
    ) -> (TaintMapEndpoint, Vm, Vm, SocketChannel, SocketChannel) {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let mk = |n: &str, ip: [u8; 4]| {
            Vm::builder(n, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .taint_map(tm.topology())
                .wire_protocol(protocol)
                .build()
                .unwrap()
        };
        let vm1 = mk("c", [10, 0, 0, 1]);
        let vm2 = mk("s", [10, 0, 0, 2]);
        let server = ServerSocketChannel::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 9999)).unwrap();
        let c = SocketChannel::connect(&vm1, server.local_addr()).unwrap();
        let s = server.accept().unwrap();
        (tm, vm1, vm2, c, s)
    }

    #[test]
    fn frames_preserve_boundaries_and_taints() {
        let (tm, vm1, vm2, c, s) = rig();
        let t = vm1.store().mint_source_taint(TagValue::str("f"));
        write_frame(&c, &Payload::Tainted(TaintedBytes::uniform(b"one", t))).unwrap();
        write_frame(&c, &Payload::Plain(b"twotwo".to_vec())).unwrap();
        let f1 = read_frame(&s).unwrap().unwrap();
        assert_eq!(f1.data(), b"one");
        assert_eq!(
            vm2.store().tag_values(f1.taint_union(vm2.store())),
            vec!["f"]
        );
        let f2 = read_frame(&s).unwrap().unwrap();
        assert_eq!(f2.data(), b"twotwo");
        assert!(f2.taint_union(vm2.store()).is_empty());
        tm.shutdown();
    }

    /// The Netty pipeline is codec-agnostic: length-prefixed framing
    /// must survive the adaptive v2 wire protocol unchanged, whether the
    /// version is pinned or settled by the one-round-trip negotiation.
    #[test]
    fn frames_preserve_boundaries_and_taints_over_v2() {
        for protocol in [WireProtocol::V2, WireProtocol::Negotiate] {
            let (tm, vm1, vm2, c, s) = rig_with(protocol);
            let t = vm1.store().mint_source_taint(TagValue::str("f"));
            write_frame(&c, &Payload::Tainted(TaintedBytes::uniform(b"one", t))).unwrap();
            write_frame(&c, &Payload::Plain(b"twotwo".to_vec())).unwrap();
            let f1 = read_frame(&s).unwrap().unwrap();
            assert_eq!(f1.data(), b"one", "{protocol:?}");
            assert_eq!(
                vm2.store().tag_values(f1.taint_union(vm2.store())),
                vec!["f"],
                "{protocol:?}"
            );
            let f2 = read_frame(&s).unwrap().unwrap();
            assert_eq!(f2.data(), b"twotwo", "{protocol:?}");
            assert!(f2.taint_union(vm2.store()).is_empty(), "{protocol:?}");
            tm.shutdown();
        }
    }

    #[test]
    fn empty_frame_roundtrips() {
        let (tm, _vm1, _vm2, c, s) = rig();
        write_frame(&c, &Payload::default()).unwrap();
        let f = read_frame(&s).unwrap().unwrap();
        assert!(f.is_empty());
        tm.shutdown();
    }

    #[test]
    fn eof_at_boundary_is_none() {
        let (tm, _vm1, _vm2, c, s) = rig();
        c.close();
        assert!(read_frame(&s).unwrap().is_none());
        tm.shutdown();
    }
}
