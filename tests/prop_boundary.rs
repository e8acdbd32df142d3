//! Property-based end-to-end tests of the instrumented boundary: for
//! arbitrary traffic on one long-lived connection — clean payloads, then
//! taint arriving at a random offset, then clean again — under every
//! wire protocol, fragmentation and mix of reader calls, the bytes and
//! the per-byte taint assignment survive the trip exactly. The oracle
//! is the sent stream itself: whatever shortcuts the boundary takes for
//! clean or cache-hit crossings, the receiver must see the same bytes
//! with the same tag sets, nothing else.

use std::sync::{Arc, Barrier};

use dista_repro::core::{Cluster, Mode, WireProtocol};
use dista_repro::jre::{InputStream, OutputStream, ServerSocket, Socket};
use dista_repro::simnet::{FaultConfig, NodeAddr};
use dista_repro::taint::{Payload, TagValue, Taint, TaintedBytes};
use proptest::prelude::*;

/// Spans of (byte value, tag id or none, run length): one payload.
type Spans = Vec<(u8, Option<u8>, usize)>;

/// One reader call: `read_exact(n)` or `read(n)`.
type ReadOp = (bool, usize);

fn clean_payload() -> impl Strategy<Value = Spans> {
    (any::<u8>(), 1usize..300).prop_map(|(byte, len)| vec![(byte, None, len)])
}

/// A payload whose taint starts at a random offset: a clean prefix, then
/// up to 48 spans over up to 40 distinct tags (a tag drawn twice is the
/// same taint in two runs), and last the first tag again — the same
/// taint in two non-adjacent runs, a cache miss both times the first
/// time it is sent.
fn tainted_payload() -> impl Strategy<Value = Spans> {
    let span = (any::<u8>(), prop::option::of(0u8..40), 1usize..64);
    (1usize..64, prop::collection::vec(span, 1..48)).prop_map(|(offset, mut spans)| {
        let first_tag = spans.iter().find_map(|&(_, tag, _)| tag).unwrap_or(0);
        spans.insert(0, (0, None, offset));
        spans.push((0xAA, Some(first_tag), 3));
        spans
    })
}

/// One connection's traffic.
fn traffic() -> impl Strategy<Value = Vec<Spans>> {
    (
        prop::collection::vec(clean_payload(), 0..4),
        tainted_payload(),
        prop::collection::vec(clean_payload(), 0..4),
    )
        .prop_map(|(mut before, tainted, after)| {
            before.push(tainted);
            before.extend(after);
            before
        })
}

/// Sends `traffic` over one connection and reads it back with the calls
/// of `reads` (cycled; sizes are mostly smaller than a payload, so a v2
/// frame is delivered in pieces). Returns the received and the expected
/// tag set of every byte of the stream.
fn run_roundtrip(
    traffic: &[Spans],
    reads: &[ReadOp],
    chunk: usize,
    protocol: WireProtocol,
) -> (Vec<String>, Vec<String>) {
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("prop", 2)
        .wire_protocol(protocol)
        .build()
        .unwrap();
    cluster.net().set_faults(FaultConfig {
        max_read_chunk: chunk,
        ..Default::default()
    });
    let (vm1, vm2) = (cluster.vm(0).clone(), cluster.vm(1).clone());

    // Build the payloads with per-span taints.
    let mut payloads = Vec::new();
    let mut expected_bytes: Vec<u8> = Vec::new();
    let mut expected_per_byte: Vec<Option<u8>> = Vec::new();
    for spans in traffic {
        let mut payload = TaintedBytes::new();
        for (byte, tag, len) in spans {
            let taint = match tag {
                Some(t) => vm1
                    .store()
                    .mint_source_taint(TagValue::str(format!("tag{t}"))),
                None => Taint::EMPTY,
            };
            payload.extend_uniform(&vec![*byte; *len], taint);
            expected_per_byte.extend(std::iter::repeat_n(*tag, *len));
        }
        expected_bytes.extend_from_slice(payload.data());
        payloads.push(Payload::Tainted(payload));
    }
    let total = expected_bytes.len();

    let server = ServerSocket::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 99)).unwrap();
    let reads = reads.to_vec();
    let reader = std::thread::spawn(move || {
        let input = server.accept().unwrap().input_stream();
        let mut got = TaintedBytes::new();
        for &(exact, n) in reads.iter().cycle() {
            let left = total - got.len();
            if left == 0 {
                break;
            }
            let part = if exact {
                input.read_exact(n.min(left)).unwrap()
            } else {
                input.read(n).unwrap()
            };
            assert!(!part.is_empty(), "EOF with {left} bytes still to come");
            got.extend_tainted(&part.into_tainted());
        }
        got
    });
    let output = Socket::connect(&vm1, NodeAddr::new([10, 0, 0, 2], 99))
        .unwrap()
        .output_stream();
    for payload in &payloads {
        output.write(payload).unwrap();
    }
    let got = reader.join().unwrap();

    assert_eq!(got.data(), expected_bytes, "byte fidelity");
    // Per-byte taint fidelity: map each received byte's tag set back to
    // the span tag that produced it.
    let mut got_tags = Vec::with_capacity(total);
    let mut want_tags = Vec::with_capacity(total);
    for (i, want) in expected_per_byte.iter().enumerate() {
        let tags = vm2.store().tag_values(got.taint_at(i).unwrap());
        got_tags.push(tags.join(","));
        want_tags.push(match want {
            Some(t) => format!("tag{t}"),
            None => String::new(),
        });
    }
    cluster.shutdown();
    (got_tags, want_tags)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary traffic survives arbitrary fragmentation and reader
    /// calls, byte for byte, under every wire protocol.
    #[test]
    fn boundary_roundtrip_is_exact(
        traffic in traffic(),
        reads in prop::collection::vec((any::<bool>(), 1usize..48), 1..8),
        chunk in prop_oneof![Just(1usize), Just(3), Just(7), Just(usize::MAX)],
        protocol in prop_oneof![
            Just(WireProtocol::V1),
            Just(WireProtocol::V2),
            Just(WireProtocol::Negotiate),
        ],
    ) {
        let (got, want) = run_roundtrip(&traffic, &reads, chunk, protocol);
        prop_assert_eq!(got, want);
    }
}

/// The next draw in `1..=upto` of a seeded sequence (a 64-bit LCG; the
/// concurrent case below wants per-thread sequences, not a strategy).
fn draw(seed: &mut u64, upto: usize) -> usize {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    1 + (*seed >> 33) as usize % upto
}

/// Bytes per tag of the position-naming stream below.
const BLOCK: usize = 256;
/// Tags (hence blocks) of that stream.
const BLOCKS: usize = 40;

/// Two threads read clones of one `SocketInputStream` on a v2 stream,
/// most reads smaller than a frame, so the bytes an indivisible frame
/// leaves over are handed from one thread's decode to the other's read.
///
/// The stream names its own positions: byte `p` has the value
/// `p % BLOCK` and the tag `pos:<p / BLOCK>`, so every delivered byte
/// says where in the stream it came from. However the two threads
/// interleave, each chunk must be a contiguous piece of the stream, each
/// thread must see its pieces in stream order, and together the pieces
/// must cover the stream exactly once — which also says every byte
/// arrived with the tag of its position and no other.
#[test]
fn two_readers_of_one_stream_tile_it_exactly() {
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("tile", 2)
        .wire_protocol(WireProtocol::V2)
        .build()
        .unwrap();
    let (vm1, vm2) = (cluster.vm(0).clone(), cluster.vm(1).clone());
    let tags: Vec<Taint> = (0..BLOCKS)
        .map(|block| vm1.taint_source(TagValue::str(format!("pos:{block}"))))
        .collect();
    let total = BLOCK * BLOCKS;

    for round in 0..16u64 {
        let addr = NodeAddr::new([10, 0, 0, 2], 100 + round as u16);
        let server = ServerSocket::bind(&vm2, addr).unwrap();
        let client = Socket::connect(&vm1, addr).unwrap();
        let input = server.accept().unwrap().input_stream();

        // Both readers start together and draw their read sizes from
        // their own seeded sequence: some reads take a small frame
        // whole, most leave part of a frame pending.
        let start = Arc::new(Barrier::new(3));
        let readers: Vec<_> = (0..2u64)
            .map(|who| {
                let (input, start, vm2) = (input.clone(), start.clone(), vm2.clone());
                std::thread::spawn(move || {
                    let mut seed = round * 2 + who + 1;
                    let mut chunks: Vec<Vec<usize>> = Vec::new();
                    start.wait();
                    loop {
                        let max = draw(&mut seed, 96);
                        let part = input.read(max).unwrap().into_tainted();
                        if part.is_empty() {
                            return chunks;
                        }
                        assert!(part.len() <= max);
                        // Where each byte says it came from.
                        let positions = part
                            .iter()
                            .map(|(byte, taint)| {
                                let tags = vm2.store().tag_values(taint);
                                assert_eq!(tags.len(), 1, "one position tag per byte: {tags:?}");
                                let block: usize = tags[0]
                                    .strip_prefix("pos:")
                                    .and_then(|b| b.parse().ok())
                                    .expect("a position tag");
                                block * BLOCK + byte as usize
                            })
                            .collect();
                        chunks.push(positions);
                    }
                })
            })
            .collect();

        // Frames of 1..=200 bytes, cut without regard to the blocks.
        let output = client.output_stream();
        start.wait();
        let (mut at, mut seed) = (0, round + 99);
        while at < total {
            let end = (at + draw(&mut seed, 200)).min(total);
            let mut frame = TaintedBytes::with_capacity(end - at);
            for p in at..end {
                frame.push((p % BLOCK) as u8, tags[p / BLOCK]);
            }
            output.write(&Payload::Tainted(frame)).unwrap();
            at = end;
        }
        client.close();

        let mut covered = vec![0u32; total];
        for reader in readers {
            let mut next = 0;
            for chunk in reader.join().unwrap() {
                assert!(
                    chunk.windows(2).all(|w| w[1] == w[0] + 1),
                    "round {round}: a chunk is not one piece of the stream: {chunk:?}"
                );
                assert!(
                    chunk[0] >= next,
                    "round {round}: a reader was handed position {} after {next}",
                    chunk[0]
                );
                next = chunk[chunk.len() - 1] + 1;
                for p in chunk {
                    covered[p] += 1;
                }
            }
        }
        assert!(
            covered.iter().all(|&n| n == 1),
            "round {round}: the chunks do not tile the stream"
        );
        server.close();
    }
    cluster.shutdown();
}

/// Tags the two connections below draw their payloads from.
const POOL: usize = 8;
/// One-run crossings each of those connections makes.
const CROSSINGS: usize = 20_000;

/// Two threads each own one pinned-v1 connection between the same two
/// VMs and send warm pool taints, 64 B in one run, so both VMs' Taint
/// Map clients answer two threads' cache hits at once. Every crossing
/// must arrive with exactly its one pool tag, and each client must count
/// one hit per run it resolved.
#[test]
fn two_connections_on_one_vm_pair_resolve_every_crossing() {
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("pair", 2)
        .wire_protocol(WireProtocol::V1)
        .build()
        .unwrap();
    let (vm1, vm2) = (cluster.vm(0).clone(), cluster.vm(1).clone());
    let payloads: Vec<Payload> = (0..POOL)
        .map(|k| {
            let taint = vm1.taint_source(TagValue::str(format!("pool:{k}")));
            let mut bytes = TaintedBytes::new();
            bytes.extend_uniform(&[k as u8; 64], taint);
            Payload::Tainted(bytes)
        })
        .collect();
    let connections: Vec<_> = (0..2u16)
        .map(|c| {
            let addr = NodeAddr::new([10, 0, 0, 2], 200 + c);
            let server = ServerSocket::bind(&vm2, addr).unwrap();
            let output = Socket::connect(&vm1, addr).unwrap().output_stream();
            (output, server.accept().unwrap().input_stream())
        })
        .collect();
    // Warm both VMs: each pool taint crosses once, and what it resolves
    // to is what every later crossing of it must resolve to.
    let (output, input) = &connections[0];
    let resolved: Vec<Taint> = payloads
        .iter()
        .enumerate()
        .map(|(k, payload)| {
            output.write(payload).unwrap();
            let got = input.read_exact(64).unwrap().into_tainted();
            let taint = got.taint_at(0).unwrap();
            assert_eq!(vm2.store().tag_values(taint), [format!("pool:{k}")]);
            taint
        })
        .collect();
    let clients = [&vm1, &vm2].map(|vm| vm.taint_map().unwrap());
    let hits_before = clients.map(|client| client.stats().cache_hits);

    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (c, (output, input)) in connections.iter().enumerate() {
            let (start, payloads, resolved) = (&start, &payloads, &resolved);
            s.spawn(move || {
                start.wait();
                for i in 0..CROSSINGS {
                    let k = (i + c) % POOL;
                    output.write(&payloads[k]).unwrap();
                    let got = input.read_exact(64).unwrap().into_tainted();
                    let runs = got.shadow().runs();
                    assert!(
                        runs.len() == 1 && runs[0].len == 64 && runs[0].taint == resolved[k],
                        "connection {c}, crossing {i}: {runs:?}"
                    );
                }
            });
        }
    });
    for (client, before) in clients.iter().zip(hits_before) {
        let runs = 2 * CROSSINGS as u64;
        assert_eq!(client.stats().cache_hits - before, runs, "one hit per run");
    }
    cluster.shutdown();
}
