//! Bytes from outside, mutated on purpose (DESIGN.md "Bytes from
//! outside"): every decoder fed from the network or from disk is given
//! well-formed encodings — produced by the workspace's own encoders —
//! with seeded, field-shaped edits applied, and must answer with a typed
//! error or a value: no panic, no abort, and no single allocation larger
//! than
//!
//! ```text
//! ALLOC_FACTOR × (bytes actually sent) + ALLOC_SLACK
//! ```
//!
//! The allocation mark is process-wide (servers decode on their own
//! threads), so the tests of this binary run one at a time behind
//! [`serial`]. The seed comes from `DISTA_FUZZ_SEED` (`ci.sh` runs 7, 42
//! and 1337); a failure prints the seed and the edit. The hand-written
//! v1/v2 cases stay in `crates/jre/tests/adversarial_decode.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::thread::ThreadId;
use std::time::Duration;

use dista_repro::activemq::stomp::{self, StompFrame};
use dista_repro::core::telemetry::TelemetryAgent;
use dista_repro::core::{Cluster, CollectorServer, Mode};
use dista_repro::hbase::pbrpc::{self, PbMessage};
use dista_repro::hbase::RegionServer;
use dista_repro::jre::codec::v2::{
    encode_annotation, encode_defs, OP_ANNOT, OP_CLEAN, OP_DEFS, OP_RECORDS, OP_RUNS,
};
use dista_repro::jre::{
    BoundaryStream, HttpRequest, HttpResponse, HttpServer, JreError, ObjValue, ServerSocket,
    SocketChannel, V1Codec, V2Codec, Vm, WireCodec, WireProtocol,
};
use dista_repro::mapreduce::rpc::{RpcClient, RpcServer};
use dista_repro::netty::{decode_http_request, encode_http_request, Bootstrap, ServerBootstrap};
use dista_repro::simnet::{read_full, FaultConfig, NetError, NodeAddr, SimFs, SimNet, TcpEndpoint};
use dista_repro::taint::{
    deserialize_taint, serialize_taint, ByteReader, GlobalId, LocalId, Payload, TagValue, Taint,
    TaintStore, TaintedBytes,
};
use dista_repro::taintmap::{
    ClientObserver, ClientResilience, InMemoryBackend, ShardSpec, TaintMapBackend, TaintMapClient,
    TaintMapEndpoint, TaintMapTopology, TaintMapWal, WIRE_RESERVED_GIDS,
};

/// A decoder may request, in one allocation, this many times the bytes
/// it was actually sent (an in-memory value is larger than its encoding
/// — a 5-byte empty string decodes to a whole `ObjValue` — and growing
/// buffers double)…
const ALLOC_FACTOR: usize = 8;
/// …plus this constant, which covers the one buffer sized ahead of the
/// bytes: the boundary's receive chunk, 64 KiB of data times the wire
/// factor (5: a data byte and its 4-byte gid).
const ALLOC_SLACK: usize = 1 << 20;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Forwards to `System`, keeping the largest single request made by any
/// thread while armed.
struct Marking;

impl Marking {
    fn note(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the mark touches two atomics
// and never allocates.
unsafe impl GlobalAlloc for Marking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's contract is passed on as it is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Marking = Marking;

static SERIAL: Mutex<()> = Mutex::new(());
static TEST_THREAD: Mutex<Option<ThreadId>> = Mutex::new(None);
static BACKGROUND_PANICS: AtomicUsize = AtomicUsize::new(0);

/// One test at a time. The guard also counts panics on threads other
/// than the test's own — a decoder that panics on a server thread kills
/// only that thread, which no assertion would otherwise see.
struct Serial {
    _one_at_a_time: MutexGuard<'static, ()>,
}

fn serial() -> Serial {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let test = *TEST_THREAD.lock().unwrap_or_else(|e| e.into_inner());
            if test != Some(std::thread::current().id()) {
                BACKGROUND_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            default(info);
        }));
    });
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    *TEST_THREAD.lock().unwrap_or_else(|e| e.into_inner()) = Some(std::thread::current().id());
    BACKGROUND_PANICS.store(0, Ordering::SeqCst);
    Serial {
        _one_at_a_time: guard,
    }
}

impl Drop for Serial {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let panics = BACKGROUND_PANICS.load(Ordering::SeqCst);
            assert_eq!(panics, 0, "a thread fed hostile bytes panicked");
        }
    }
}

/// Runs `f` with the mark armed and holds what every thread allocated
/// meanwhile to the bound for `sent` bytes of input.
fn bounded<T>(sent: usize, what: &dyn std::fmt::Debug, f: impl FnOnce() -> T) -> T {
    LARGEST.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest <= ALLOC_FACTOR * sent + ALLOC_SLACK,
        "one allocation of {largest} B for {sent} B sent (seed {}, input {what:?})",
        seed()
    );
    out
}

fn seed() -> u64 {
    std::env::var("DISTA_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD157A)
}

/// SplitMix64: small, seedable, good enough to pick offsets.
struct Rng(u64);

impl Rng {
    fn for_test(salt: u64) -> Self {
        Rng(seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One field-shaped edit of a well-formed encoding. Every length, count
/// and varint field of every format lies at *some* offset with one of
/// these widths, so enumerating offsets covers each field without a
/// per-format field map — and the fields nobody thought of.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Overwrite `width` bytes at `at` with `value`, big-endian.
    Fixed { at: usize, width: usize, value: u64 },
    /// Replace the byte at `at` with the LEB128 encoding of `value`.
    Varint { at: usize, value: u64 },
    /// Cut the input at `at` (every field boundary is some offset).
    Truncate { at: usize },
    /// Repeat the segment `[at, at + len)` right behind itself.
    Duplicate { at: usize, len: usize },
}

impl Edit {
    fn apply(self, sample: &[u8]) -> Vec<u8> {
        let mut out = sample.to_vec();
        match self {
            Edit::Fixed { at, width, value } => {
                out[at..at + width].copy_from_slice(&value.to_be_bytes()[8 - width..]);
            }
            Edit::Varint { at, mut value } => {
                let mut varint = Vec::new();
                while value >= 0x80 {
                    varint.push(value as u8 | 0x80);
                    value >>= 7;
                }
                varint.push(value as u8);
                out.splice(at..at + 1, varint);
            }
            Edit::Truncate { at } => out.truncate(at),
            Edit::Duplicate { at, len } => {
                let segment = sample[at..at + len].to_vec();
                out.splice(at + len..at + len, segment);
            }
        }
        out
    }
}

/// Every edit of a `len`-byte sample: each fixed-width window and each
/// varint position set to 0, 1, max and max − 1, a cut at every offset,
/// and 32 seeded segment duplications.
fn edits(len: usize, rng: &mut Rng) -> Vec<Edit> {
    let mut out = Vec::new();
    for at in 0..len {
        out.push(Edit::Truncate { at });
        for width in [1usize, 2, 4, 8] {
            if at + width > len {
                continue;
            }
            let max = u64::MAX >> (64 - 8 * width);
            for value in [0, 1, max, max - 1] {
                out.push(Edit::Fixed { at, width, value });
            }
        }
        for value in [0, 1, u64::MAX, u64::MAX - 1] {
            out.push(Edit::Varint { at, value });
        }
    }
    for _ in 0..32 {
        let at = rng.below(len);
        let len = 1 + rng.below(len - at);
        out.push(Edit::Duplicate { at, len });
    }
    out
}

/// A seeded subset of [`edits`] for decoders that cost a connection per
/// input: every cut, and `budget` of the rest.
fn sampled_edits(len: usize, budget: usize, rng: &mut Rng) -> Vec<Edit> {
    let (cuts, mut rest): (Vec<Edit>, Vec<Edit>) = edits(len, rng)
        .into_iter()
        .partition(|edit| matches!(edit, Edit::Truncate { .. }));
    let mut out = cuts;
    for _ in 0..budget.min(rest.len()) {
        out.push(rest.swap_remove(rng.below(rest.len())));
    }
    out
}

// ---------------------------------------------------------------------
// Four bytes against a live port.
// ---------------------------------------------------------------------

/// The body of the hostile-length test: a client in `cluster` writes a
/// frame header announcing `0xFFFF_FFF0` bytes to `addr` and goes
/// silent; `second_client` must still be answered, the server must hang
/// up on the silent connection by itself, and nothing may have sized a
/// buffer from the announcement.
fn announce_4gib_and_go_silent(cluster: &Cluster, addr: NodeAddr, second_client: &dyn Fn()) {
    let hostile = SocketChannel::connect(cluster.vm(0), addr).unwrap();
    let header = vec![0xFF, 0xFF, 0xFF, 0xF0];
    bounded(header.len(), &(addr, cluster.vm(0).mode()), || {
        hostile.write_payload(&Payload::Plain(header)).unwrap();
        second_client();
        // The server's read of the promised body times out and its end
        // of the connection goes: EOF here, within a few block timeouts.
        let mut waited = 0;
        loop {
            match hostile.read_payload(1) {
                Ok(eof) if eof.is_empty() => break,
                Err(JreError::Net(NetError::Timeout(_))) if waited < 40 => waited += 1,
                other => panic!("expected the server to hang up, got {other:?}"),
            }
        }
    });
    hostile.close();
}

/// A cluster whose blocking reads give up after 300 ms, so a server
/// drops a silent peer within the test's patience (and an honest round
/// trip survives a stall of the shared host).
fn impatient_cluster(mode: Mode) -> Cluster {
    let cluster = Cluster::builder(mode).nodes("n", 2).build().unwrap();
    cluster.net().set_faults(FaultConfig {
        block_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    cluster
}

/// At the parent commit the four bytes `FF FF FF F0` on a MapReduce RPC
/// port ended the *process*: `memory allocation of 21474836400 bytes
/// failed` (5 × the announced length, for the receive ring). In
/// `Mode::Original` the same bytes were a lazily mapped 4 GiB `vec!`.
#[test]
fn hostile_frame_length_drops_the_connection_not_the_process() {
    let _serial = serial();
    for mode in [Mode::Dista, Mode::Original] {
        let cluster = impatient_cluster(mode);
        let server_vm = cluster.vm(1).clone();
        let rpc_addr = NodeAddr::new(server_vm.ip(), 8030);
        let rpc = RpcServer::start(&server_vm, rpc_addr, |request| request).unwrap();
        announce_4gib_and_go_silent(&cluster, rpc_addr, &|| {
            let client = RpcClient::connect(cluster.vm(0), rpc_addr).unwrap();
            let echoed = client.call(&ObjValue::int_plain(7)).unwrap();
            assert_eq!(echoed.as_int(), Some(7));
            client.close();
        });
        rpc.shutdown();
        cluster.shutdown();
    }

    // The same loop was pasted into HBase's pb-RPC and Netty's frame
    // decoder (so RocketMQ); they now share `dista_jre::read_frame`.
    let cluster = impatient_cluster(Mode::Dista);
    let server_vm = cluster.vm(1).clone();
    let region_server =
        RegionServer::start(&server_vm, NodeAddr::new(server_vm.ip(), 16020)).unwrap();
    announce_4gib_and_go_silent(&cluster, region_server.addr(), &|| {
        let channel = SocketChannel::connect(cluster.vm(0), region_server.addr()).unwrap();
        let mut unknown_method = PbMessage::new();
        unknown_method.push_varint(1, 99);
        pbrpc::write_message(&channel, &unknown_method).unwrap();
        let response = pbrpc::read_message(&channel, cluster.vm(0))
            .unwrap()
            .unwrap();
        assert_eq!(response.varint(1), Some(0));
        channel.close();
    });
    region_server.shutdown();

    let netty = ServerBootstrap::new(&server_vm)
        .child_handler(|ctx, msg| ctx.write(&msg).unwrap())
        .bind(NodeAddr::new(server_vm.ip(), 9876))
        .unwrap();
    announce_4gib_and_go_silent(&cluster, netty.local_addr(), &|| {
        let channel = Bootstrap::new(cluster.vm(0))
            .connect(netty.local_addr())
            .unwrap();
        let echoed = channel.call(&Payload::Plain(b"ping".to_vec())).unwrap();
        assert_eq!(echoed.data(), b"ping");
        channel.close();
    });
    netty.shutdown();
    cluster.shutdown();
}

const OP_REPLICATE: u8 = 4;
const OP_LOOKUP: u8 = 8;
const OP_BIND: u8 = 11;
const RESP_OK: u8 = 0x80;
const RESP_ERR: u8 = 0x81;
const RESP_MOVED: u8 = 0x82;

/// The Taint Map's frame reader used to run `vec![0u8; len]` on the
/// 5-byte header alone; it now grows the payload with the bytes that
/// arrive (`dista_simnet::read_announced`).
#[test]
fn taint_map_header_announcing_4gib_sizes_nothing() {
    let _serial = serial();
    let net = SimNet::new();
    let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
    let hostile = net.tcp_connect(tm.addr()).unwrap();
    let header = [OP_BIND, 0xFF, 0xFF, 0xFF, 0xFF];
    bounded(header.len(), &"taint map frame header", || {
        hostile.write(&header).unwrap();
        // Other clients are served while the hostile one stays silent.
        // The barrier is the server's own first receive chunk for the
        // promised payload: once the mark shows a buffer that size, the
        // header has been read and whatever it sized has been sized.
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = tm.client(&net, store.clone()).unwrap();
        let mut served = 0;
        while LARGEST.load(Ordering::SeqCst) < 32 << 10 {
            let taint = store.mint_source_taint(TagValue::Int(served));
            assert!(client.global_id_for(taint).unwrap().is_tainted());
            served += 1;
            assert!(served < 100_000, "the server never read the header");
        }
    });
    hostile.close();
    tm.shutdown();
}

// ---------------------------------------------------------------------
// The boundary's wire protocols, fed by a raw endpoint.
// ---------------------------------------------------------------------

/// An instrumented receiver that a raw, uninstrumented endpoint writes
/// arbitrary wire bytes to.
struct StreamRig {
    net: SimNet,
    tm: TaintMapEndpoint,
    rx_vm: Vm,
    listener: dista_repro::simnet::TcpListener,
    /// Two taints registered with the map, tagged `alpha` and `beta`, as
    /// a v2 definitions frame carries them: each gid with the serialized
    /// taint it was registered for.
    defs: Vec<(GlobalId, Vec<u8>)>,
}

impl StreamRig {
    fn new(protocol: WireProtocol) -> Self {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let rx_vm = Vm::builder("rx", &net)
            .mode(Mode::Dista)
            .ip([10, 0, 0, 2])
            .taint_map(tm.topology())
            .wire_protocol(protocol)
            .build()
            .unwrap();
        let listener = net.tcp_listen(NodeAddr::new([10, 0, 0, 2], 400)).unwrap();
        let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
        let client = tm.client(&net, store.clone()).unwrap();
        let defs: Vec<(GlobalId, Vec<u8>)> = ["alpha", "beta"]
            .iter()
            .map(|tag| {
                let taint = store.mint_source_taint(TagValue::str(*tag));
                let gid = client.global_id_for(taint).unwrap();
                (gid, serialize_taint(store.tree(), taint))
            })
            .collect();
        StreamRig {
            net,
            tm,
            rx_vm,
            listener,
            defs,
        }
    }

    /// Delivers `wire` and reads the stream to its end: the data and the
    /// tag values of its taint union, or the first error.
    fn feed(&self, wire: &[u8]) -> Result<(Vec<u8>, Vec<String>), JreError> {
        let raw = self.net.tcp_connect(self.listener.local_addr()).unwrap();
        raw.write(wire).unwrap();
        // Wrapped with the bytes already buffered and the peer still
        // open, so a negotiation reply has somewhere to go.
        let rx = BoundaryStream::acceptor(self.rx_vm.clone(), self.listener.accept().unwrap());
        raw.close();
        let mut all = Payload::default();
        loop {
            let got = rx.read_payload(4096)?;
            if got.is_empty() {
                let tags = self
                    .rx_vm
                    .store()
                    .tag_values(all.taint_union(self.rx_vm.store()));
                return Ok((all.into_plain(), tags));
            }
            all.append(got);
        }
    }

    /// `feed`s the sample (which must decode to `data` carrying both
    /// tags), then every edit of it under the allocation bound.
    fn run(self, sample: &[u8], data: &[u8], rng: &mut Rng) {
        let (got, tags) = self.feed(sample).expect("the well-formed sample decodes");
        assert_eq!(got, data);
        assert_eq!(tags, ["alpha", "beta"]);
        for edit in edits(sample.len(), rng) {
            let wire = edit.apply(sample);
            // A typed error, or whatever value the edited bytes spell.
            let _ = bounded(wire.len(), &edit, || self.feed(&wire));
        }
        self.tm.shutdown();
    }
}

fn payload_of(len: usize) -> Vec<u8> {
    (0..len).map(|i| i as u8).collect()
}

#[test]
fn mutated_v1_stream() {
    let _serial = serial();
    let rig = StreamRig::new(WireProtocol::V1);
    let data = payload_of(48);
    let runs = [
        (16, rig.defs[0].0),
        (16, GlobalId::UNTAINTED),
        (16, rig.defs[1].0),
    ];
    let mut wire = Vec::new();
    V1Codec::new(4)
        .encode_into(&data, &runs, &mut wire)
        .unwrap();
    rig.run(&wire, &data, &mut Rng::for_test(1));
}

/// One frame of every v2 kind — the two control frames (an annotation,
/// then definitions of both gids), a run frame, a clean frame and a
/// record frame — for a payload of 96 bytes. The opcodes are named in
/// wire order below; `tests/source_rules.rs` fails if a frame kind the
/// codec defines is not named here.
fn v2_sample(defs: &[(GlobalId, Vec<u8>)]) -> (Vec<u8>, Vec<u8>) {
    let gids = [defs[0].0, defs[1].0];
    let codec = V2Codec::new(4);
    let data = payload_of(96);
    let mut frames = vec![Vec::new(), Vec::new()];
    encode_annotation(77, 3, &mut frames[0]);
    encode_defs(defs, &mut frames[1]);
    let mut frame = Vec::new();
    let runs = [(16, gids[0]), (16, GlobalId::UNTAINTED), (16, gids[1])];
    codec.encode_into(&data[..48], &runs, &mut frame).unwrap();
    frames.push(frame.clone());
    codec
        .encode_into(&data[48..80], &[(32, GlobalId::UNTAINTED)], &mut frame)
        .unwrap();
    frames.push(frame.clone());
    let fragmented: Vec<_> = (0..16).map(|i| (1, gids[i % 2])).collect();
    codec
        .encode_into(&data[80..], &fragmented, &mut frame)
        .unwrap();
    frames.push(frame);
    let opcodes: Vec<u8> = frames.iter().map(|frame| frame[0]).collect();
    assert_eq!(opcodes, [OP_ANNOT, OP_DEFS, OP_RUNS, OP_CLEAN, OP_RECORDS]);
    (frames.concat(), data)
}

#[test]
fn mutated_v2_stream() {
    let _serial = serial();
    let rig = StreamRig::new(WireProtocol::V2);
    let (wire, data) = v2_sample(&rig.defs);
    rig.run(&wire, &data, &mut Rng::for_test(2));
}

#[test]
fn mutated_negotiation_probe() {
    let _serial = serial();
    let rig = StreamRig::new(WireProtocol::Negotiate);
    // The connector's probe — version 2 under an all-ones gid — then the
    // v2 frames it would send once the acceptor agreed.
    let (frames, data) = v2_sample(&rig.defs);
    let mut wire = vec![2, 0xFF, 0xFF, 0xFF, 0xFF];
    wire.extend_from_slice(&frames);
    rig.run(&wire, &data, &mut Rng::for_test(3));
}

// ---------------------------------------------------------------------
// Decoders over a complete buffer: every edit of every sample.
// ---------------------------------------------------------------------

fn phosphor_vm() -> Vm {
    Vm::builder("decode", &SimNet::new())
        .mode(Mode::Phosphor)
        .build()
        .unwrap()
}

#[test]
fn mutated_objects() {
    let _serial = serial();
    let vm = phosphor_vm();
    let t = vm.store().mint_source_taint(TagValue::str("obj"));
    let mapper = |id: i64| {
        ObjValue::Record(
            "Mapper".into(),
            vec![
                ("mapId".into(), ObjValue::Int(id, t)),
                ("addr".into(), ObjValue::str_plain("10.0.0.2:8041")),
            ],
        )
    };
    let object = ObjValue::Record(
        "ReduceRequest".into(),
        vec![
            ("mappers".into(), ObjValue::List(vec![mapper(1), mapper(2)])),
            (
                "split".into(),
                ObjValue::Bytes(TaintedBytes::uniform(b"a b c", t)),
            ),
            ("partition".into(), ObjValue::int_plain(0)),
        ],
    );
    let encoded = object.encode();
    assert_eq!(ObjValue::decode(&encoded, &vm).unwrap(), object);
    let sample = encoded.data();
    for edit in edits(sample.len(), &mut Rng::for_test(4)) {
        let wire = TaintedBytes::from_plain(edit.apply(sample));
        let _ = bounded(wire.len(), &edit, || ObjValue::decode(&wire, &vm));
    }
    // Nest: the sample inside `levels` one-element lists.
    for levels in [1usize, 8, 64, 1000, 200_000] {
        let mut wire = [4u8, 0, 0, 0, 1].repeat(levels);
        wire.extend_from_slice(sample);
        let wire = TaintedBytes::from_plain(wire);
        let decoded = bounded(wire.len(), &levels, || ObjValue::decode(&wire, &vm));
        assert_eq!(decoded.is_ok(), levels <= 8, "{levels} levels");
    }
}

#[test]
fn mutated_pb_messages() {
    let _serial = serial();
    let vm = phosphor_vm();
    let t = vm.store().mint_source_taint(TagValue::str("pb"));
    let mut cell = PbMessage::new();
    cell.push_bytes(1, TaintedBytes::from_plain(b"row-1".to_vec()))
        .push_bytes(2, TaintedBytes::uniform(b"value", t));
    let mut message = PbMessage::new();
    message
        .push_varint(1, 300)
        .push_str(2, "users", t)
        .push_varint(3, u64::MAX)
        .push_bytes(5, cell.encode())
        .push_bytes(5, cell.encode());
    let encoded = message.encode();
    assert_eq!(PbMessage::decode(&encoded).unwrap(), message);
    let sample = encoded.data();
    for edit in edits(sample.len(), &mut Rng::for_test(5)) {
        let wire = TaintedBytes::from_plain(edit.apply(sample));
        let _ = bounded(wire.len(), &edit, || PbMessage::decode(&wire));
    }
}

#[test]
fn mutated_serialized_taints() {
    let _serial = serial();
    let sender = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let receiver = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
    let taint = sender.union_all([
        sender.mint_source_taint(TagValue::str("s")),
        sender.mint_source_taint(TagValue::bytes([1, 2, 3])),
        sender.mint_source_taint(TagValue::Int(-9)),
    ]);
    let sample = serialize_taint(sender.tree(), taint);
    let decoded = deserialize_taint(&receiver, &sample).unwrap();
    assert_eq!(receiver.tree().tag_count(decoded), 3);
    for edit in edits(sample.len(), &mut Rng::for_test(6)) {
        let wire = edit.apply(&sample);
        let _ = bounded(wire.len(), &edit, || deserialize_taint(&receiver, &wire));
    }
}

#[test]
fn mutated_netty_http_frames() {
    let _serial = serial();
    let mut request = HttpRequest::post("/submit", Payload::Plain(b"a=1&b=2".to_vec()));
    request.headers.insert("host".into(), "node2".into());
    let encoded = encode_http_request(&request);
    assert_eq!(
        decode_http_request(&encoded).unwrap().body.data(),
        b"a=1&b=2"
    );
    let sample = encoded.data();
    for edit in edits(sample.len(), &mut Rng::for_test(7)) {
        let frame = Payload::Plain(edit.apply(sample));
        let _ = bounded(frame.len(), &edit, || decode_http_request(&frame));
    }
}

// ---------------------------------------------------------------------
// Text protocols over a socket whose peer is a raw endpoint.
// ---------------------------------------------------------------------

#[test]
fn mutated_stomp_and_http_streams() {
    let _serial = serial();
    let net = SimNet::new();
    // `Original` mode: the boundary passes the raw endpoint's bytes up
    // as they are, so the text framing sees exactly the edited input.
    let vm = Vm::builder("text", &net).ip([10, 0, 0, 2]).build().unwrap();
    let rng = &mut Rng::for_test(8);

    let stomp_port = ServerSocket::bind(&vm, NodeAddr::new(vm.ip(), 61613)).unwrap();
    let frame = StompFrame::new("SEND")
        .header("destination", "/queue/a")
        .body(TaintedBytes::from_plain(b"body with \0 nul".to_vec()));
    let sample = frame.encode(&vm).into_plain();
    let read_one = |wire: &[u8]| {
        let raw = net.tcp_connect(stomp_port.local_addr()).unwrap();
        raw.write(wire).unwrap();
        raw.close();
        stomp::read_frame(&stomp_port.accept().unwrap().input_stream())
    };
    assert_eq!(read_one(&sample).unwrap().unwrap().body, frame.body);
    for edit in edits(sample.len(), rng) {
        let wire = edit.apply(&sample);
        let _ = bounded(wire.len(), &edit, || read_one(&wire));
    }
    // A content-length the sender never honours.
    for announced in [u64::from(u32::MAX), u64::MAX] {
        let wire = format!("SEND\ncontent-length:{announced}\n\nshort").into_bytes();
        assert!(bounded(wire.len(), &announced, || read_one(&wire)).is_err());
    }

    let http = HttpServer::bind(&vm, NodeAddr::new(vm.ip(), 8080)).unwrap();
    let sample = b"POST /submit HTTP/1.1\r\ncontent-length: 7\r\nhost: n2\r\n\r\na=1&b=2".to_vec();
    // The peer has written and closed before the server reads, so a head
    // or body cut short ends in EOF rather than a wait (and the response
    // has nowhere to go: only the request side is under test).
    let serve_one = |wire: &[u8]| {
        let raw = net.tcp_connect(http.local_addr()).unwrap();
        raw.write(wire).unwrap();
        raw.close();
        let mut body = None;
        let _ = http.serve_once(|request| {
            body = Some(request.body.data().to_vec());
            HttpResponse::ok(request.body)
        });
        body
    };
    assert_eq!(serve_one(&sample).as_deref(), Some(&b"a=1&b=2"[..]));
    for edit in edits(sample.len(), rng) {
        let wire = edit.apply(&sample);
        let _ = bounded(wire.len(), &edit, || serve_one(&wire));
    }
}

// ---------------------------------------------------------------------
// The Taint Map: request frames against the live port, response frames
// against a live client.
// ---------------------------------------------------------------------

fn frame(op: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![op];
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads one `[op][u32 len][payload]` frame a *trusted* peer wrote (the
/// test's own side of the relay), or `None` once `deadline` passes
/// without a byte or the stream ends.
fn read_frame(conn: &TcpEndpoint, deadline: Duration) -> Option<(u8, Vec<u8>)> {
    let mut read = |buf: &mut [u8]| conn.read_deadline(buf, deadline);
    let mut header = [0u8; 5];
    read_full(&mut read, &mut header).ok()?;
    let len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]) as usize;
    let mut payload = vec![0u8; len];
    read_full(&mut read, &mut payload).ok()?;
    Some((header[0], payload))
}

/// What the relay does to the next response instead of passing it on.
enum Inject {
    /// Apply the edit to the real response's payload.
    Edit(Edit),
    /// Answer with this frame.
    Frame(u8, Vec<u8>),
    /// Write these bytes and say nothing more.
    Raw(Vec<u8>),
}

/// A man in the middle between a real client and a real shard: it
/// records the request frames the client's encoders produce and can
/// tamper with the responses the server's encoders produce.
struct Relay {
    net: SimNet,
    addr: NodeAddr,
    requests: Arc<Mutex<Vec<Vec<u8>>>>,
    inject: Arc<Mutex<VecDeque<Inject>>>,
    thread: std::thread::JoinHandle<()>,
}

impl Relay {
    fn start(net: &SimNet, upstream: NodeAddr) -> Self {
        let addr = NodeAddr::new([10, 0, 0, 66], 7000);
        let listener = net.tcp_listen(addr).unwrap();
        let requests = Arc::new(Mutex::new(Vec::new()));
        let inject = Arc::new(Mutex::new(VecDeque::new()));
        let thread = {
            let (net, requests, inject) = (net.clone(), requests.clone(), inject.clone());
            std::thread::spawn(move || {
                let forever = Duration::from_secs(30);
                let server = net.tcp_connect(upstream).unwrap();
                loop {
                    let client = match listener.accept() {
                        Ok(client) => client,
                        Err(NetError::Timeout(_)) => continue,
                        Err(_) => return,
                    };
                    while let Some((op, payload)) = read_frame(&client, forever) {
                        requests.lock().unwrap().push(frame(op, &payload));
                        server.write(&frame(op, &payload)).unwrap();
                        let (resp_op, resp) = read_frame(&server, forever).unwrap();
                        let reply = match inject.lock().unwrap().pop_front() {
                            None => frame(resp_op, &resp),
                            Some(Inject::Edit(edit)) => frame(resp_op, &edit.apply(&resp)),
                            Some(Inject::Frame(op, payload)) => frame(op, &payload),
                            Some(Inject::Raw(bytes)) => bytes,
                        };
                        if client.write(&reply).is_err() {
                            break;
                        }
                    }
                }
            })
        };
        Relay {
            net: net.clone(),
            addr,
            requests,
            inject,
            thread,
        }
    }

    /// A client whose only shard address is the relay, failing fast.
    fn client(&self, store: &TaintStore) -> TaintMapClient {
        TaintMapClient::connect_topology_tuned(
            &self.net,
            TaintMapTopology::single(self.addr),
            store.clone(),
            ClientObserver::disabled(),
            ClientResilience {
                rpc_deadline: Duration::from_millis(500),
                retry_budget: 0,
                backoff_base: Duration::ZERO,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn next_response(&self, inject: Inject) {
        self.inject.lock().unwrap().push_back(inject);
    }

    fn stop(self) {
        self.net.tcp_unlisten(self.addr);
        self.thread.join().unwrap();
    }
}

#[test]
fn mutated_taint_map_frames() {
    let _serial = serial();
    let net = SimNet::new();
    let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
    let relay = Relay::start(&net, tm.addr());
    let rng = &mut Rng::for_test(9);
    let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let fresh = |store: &TaintStore, rng: &mut Rng| {
        store.mint_source_taint(TagValue::Int(rng.next() as i64))
    };

    // Well-formed traffic through the relay: a client's lease, a
    // two-item BIND that tops it up, a reader's lease and a two-item
    // LOOKUP.
    let direct = tm.client(&net, store.clone()).unwrap();
    let known = direct
        .global_ids_for(&[fresh(&store, rng), fresh(&store, rng)])
        .unwrap();
    // (The relay serves one connection at a time: each client goes
    // before the next one dials.)
    relay
        .client(&store)
        .global_ids_for(&[fresh(&store, rng), fresh(&store, rng)])
        .unwrap();
    let reader_store = TaintStore::new(LocalId::new([10, 0, 0, 3], 3));
    let resolved = relay.client(&reader_store).taints_for(&known).unwrap();
    assert_eq!(resolved.len(), 2);
    let requests = relay.requests.lock().unwrap().clone();
    assert_eq!(
        requests.iter().map(|r| r[0]).collect::<Vec<_>>(),
        [OP_BIND, OP_BIND, OP_BIND, OP_LOOKUP]
    );
    // The class table a `MOVED` reply from this shard carries: epoch 0,
    // one range from gid 1, served at the shard's address.
    let table = [
        &0u64.to_be_bytes()[..],
        &1u32.to_be_bytes(),
        &1u32.to_be_bytes(),
        &[1],
        &tm.addr().ip(),
        &tm.addr().port().to_be_bytes(),
    ]
    .concat();

    // Requests: each edit of each captured frame against the live port,
    // padded with as many zero bytes as the honest frame is long, so a
    // frame cut short still gets the payload its header promises. The
    // first reply is the barrier — the server has read, sized and parsed
    // the edited frame — and must be a response opcode. No reply means
    // the edited header promised more than the padding; the close ends
    // that wait.
    for request in &requests {
        for edit in sampled_edits(request.len(), 150, rng) {
            let mut wire = edit.apply(request);
            wire.resize(wire.len() + request.len(), 0);
            bounded(wire.len(), &edit, || {
                let conn = net.tcp_connect(tm.addr()).unwrap();
                conn.write(&wire).unwrap();
                if let Some((op, _)) = read_frame(&conn, Duration::from_millis(20)) {
                    assert!((0x80..=0x82).contains(&op), "response opcode {op:#x}");
                }
                conn.close();
            });
        }
    }

    // Opcode 3 used to make the server drop the connection without a
    // word (its own shutdown poke), and 9 and 10 were a table fetch and
    // a split's copy; each is an unknown op like any other, answered on
    // a connection that goes on serving.
    for op in [3, 9, 10] {
        let conn = net.tcp_connect(tm.addr()).unwrap();
        for request in &requests {
            let mut wire = request.clone();
            wire[0] = op;
            conn.write(&wire).unwrap();
            let reply = read_frame(&conn, Duration::from_secs(5));
            assert_eq!(reply.map(|(resp, _)| resp), Some(RESP_ERR), "op {op}");
        }
        conn.write(&requests[3]).unwrap();
        let reply = read_frame(&conn, Duration::from_secs(5));
        assert_eq!(reply.map(|(resp, _)| resp), Some(RESP_OK), "after op {op}");
    }

    // Responses: a real client decodes a tampered reply to a typed error
    // or a value; it never panics and never sizes a buffer from it.
    let tampered = |inject: Inject, sent: usize, what: &dyn std::fmt::Debug, lookup: bool| {
        let store = TaintStore::new(LocalId::new([10, 0, 0, 4], 4));
        let client = relay.client(&store);
        relay.next_response(inject);
        bounded(sent, what, || {
            if lookup {
                let _ = client.taints_for(&known);
            } else {
                let _ = client.global_ids_for(&[fresh(&store, &mut Rng(sent as u64))]);
            }
        });
    };
    // The reply to a flush of one bind: the one gid it leased back and
    // the bind's status.
    let bind_resp_len = 4 + 4 + 1;
    for edit in edits(bind_resp_len, rng) {
        tampered(Inject::Edit(edit), bind_resp_len, &edit, false);
    }
    let lookup_resp_len = {
        let conn = net.tcp_connect(tm.addr()).unwrap();
        conn.write(&requests[3]).unwrap();
        read_frame(&conn, Duration::from_secs(5)).unwrap().1.len()
    };
    for edit in sampled_edits(lookup_resp_len, 100, rng) {
        tampered(Inject::Edit(edit), lookup_resp_len, &edit, true);
    }
    for edit in sampled_edits(table.len(), 100, rng) {
        let moved = Inject::Frame(RESP_MOVED, edit.apply(&table));
        tampered(moved, table.len(), &edit, false);
    }
    // A response header announcing 4 GiB, then silence: the client's
    // deadline ends the wait and the announcement sized nothing.
    let lying = vec![RESP_OK, 0xFF, 0xFF, 0xFF, 0xFF];
    tampered(Inject::Raw(lying), 5, &"lying response header", true);

    // The shard itself is none the worse for any of it.
    let gids = direct.global_ids_for(&[fresh(&store, rng)]).unwrap();
    assert!(gids[0].is_tainted());
    relay.stop();
    tm.shutdown();
}

/// `OP_REPLICATE` is served on the client port like every op. One
/// record in it near `u32::MAX` used to move the shard's allocator there
/// for good: compaction and the split copy then walked every id below
/// it. A shard now takes a replicated record only at or below its lease
/// high-water, and a replicated lease only one block above it, so the
/// frame with its op byte set to 4 changes nothing — not even the log —
/// and compaction and a split stay as short as the shard is.
#[test]
fn a_replicated_record_near_u32_max_leaves_compaction_and_the_copy_bounded() {
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let client = endpoint.client(&net, store.clone()).unwrap();
    let taints: Vec<Taint> = (0..4)
        .map(|i| store.mint_source_taint(TagValue::Int(i)))
        .collect();
    let gids = client.global_ids_for(&taints).unwrap();

    // The WAL's data (tag 1) and lease (tag 5) records, as replication
    // ships them.
    let near_max = u32::MAX - 1;
    let data = [
        &[1][..],
        &near_max.to_be_bytes(),
        &4u32.to_be_bytes(),
        b"junk",
    ]
    .concat();
    let lease = [&[5][..], &near_max.to_be_bytes()[..]].concat();
    let wal = fs.read("taintmap/shard-0.wal").unwrap();
    for hostile in [data, lease] {
        let conn = net.tcp_connect(endpoint.addr()).unwrap();
        conn.write(&frame(OP_REPLICATE, &hostile)).unwrap();
        let reply = read_frame(&conn, Duration::from_secs(5));
        assert_eq!(reply.map(|(op, _)| op), Some(RESP_ERR), "{hostile:?}");
    }
    assert_eq!(
        fs.read("taintmap/shard-0.wal").unwrap(),
        wal,
        "nothing logged"
    );

    assert_eq!(endpoint.compact_shard(0).unwrap(), 4);
    endpoint.split_shard(0).unwrap();
    assert_eq!(endpoint.reshard_stats().records_transferred, 4);
    let reader_store = TaintStore::new(LocalId::new([10, 0, 0, 2], 2));
    let reader = endpoint.client(&net, reader_store.clone()).unwrap();
    for (i, &taint) in reader.taints_for(&gids).unwrap().iter().enumerate() {
        assert_eq!(reader_store.tag_values(taint), [i.to_string()]);
    }
    endpoint.shutdown();
}

/// The same lease record, on disk: appended to a crashed shard's log, it
/// used to be replayed without a check, so the restarted shard leased
/// from near `u32::MAX` and compaction walked every local id below it. A
/// log is now read with the checks a `REPLICATE` frame gets, so replay
/// ends at the record and compaction stays as short as the shard is.
#[test]
fn a_logged_lease_near_u32_max_leaves_compaction_bounded() {
    let _serial = serial();
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let client = endpoint.client(&net, store.clone()).unwrap();
    let taints: Vec<Taint> = (0..4)
        .map(|i| store.mint_source_taint(TagValue::Int(i)))
        .collect();
    client.global_ids_for(&taints).unwrap();

    endpoint.crash_primary(0);
    let lease = [&[5][..], &(u32::MAX - 1).to_be_bytes()[..]].concat();
    fs.append("taintmap/shard-0.wal", &lease);
    endpoint.restart_primary(0).unwrap();

    let (done, compacted) = std::sync::mpsc::channel();
    let compaction = std::thread::spawn(move || {
        done.send(endpoint.compact_shard(0)).unwrap();
        endpoint.shutdown();
    });
    let count = compacted
        .recv_timeout(Duration::from_secs(10))
        .expect("compaction still walking local ids after 10 s");
    assert_eq!(count.unwrap(), 4);
    compaction.join().unwrap();
}

// ---------------------------------------------------------------------
// Disk: the write-ahead log and its compaction generations.
// ---------------------------------------------------------------------

/// The most one lease record may raise a high-water: one lease block
/// (64 gids) plus the wire-reserved ids a block skips.
const MAX_LEASE_SPAN: u32 = 64 + WIRE_RESERVED_GIDS.len() as u32;

/// The tag of each whole record at the start of `bytes`, walked by the
/// record grammar's own lengths, re-derived here so that a change to the
/// grammar breaks loudly: 1 data, 4 cutover, 5 lease, 6 end.
fn record_tags(bytes: &[u8]) -> Vec<u8> {
    let mut r = ByteReader::new(bytes);
    let mut tags = Vec::new();
    while let Ok(tag) = r.u8() {
        let whole = match tag {
            1 => r
                .u32()
                .and_then(|_| r.u32())
                .and_then(|len| r.bytes(len as usize).map(drop)),
            4 => r.bytes(18).map(drop),
            5 | 6 => r.u32().map(drop),
            _ => break,
        };
        if whole.is_err() {
            break;
        }
        tags.push(tag);
    }
    tags
}

#[test]
fn mutated_wal_and_generation() {
    let _serial = serial();
    let net = SimNet::new();
    let fs = SimFs::new();
    let mut endpoint = TaintMapEndpoint::builder()
        .snapshots(fs.clone())
        .connect(&net)
        .unwrap();
    let store = TaintStore::new(LocalId::new([10, 0, 0, 1], 1));
    let client = endpoint.client(&net, store.clone()).unwrap();
    let mint = |n: i64| -> Vec<Taint> {
        (0..n)
            .map(|i| store.mint_source_taint(TagValue::Int(n * 100 + i)))
            .collect()
    };
    client.global_ids_for(&mint(4)).unwrap();
    // A split writes a cutover record into the source shard's log, after
    // its lease and data records; compaction writes all three kinds into
    // a generation, and the end record.
    endpoint.split_shard(0).unwrap();
    let wal = fs.read("taintmap/shard-0.wal").unwrap();
    assert_eq!(endpoint.compact_shard(0).unwrap(), 4);
    let generation = fs.read("taintmap/shard-0.wal.snapshot-1").unwrap();
    let moved = endpoint.class_table(0).ranges[1..].to_vec();
    endpoint.shutdown();
    let mut kinds = [record_tags(&wal), record_tags(&generation)].concat();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds, [1, 4, 5, 6], "every record kind is mutated");

    // What a recovery reconstructed, and the high-water it left.
    let recover = |wal: Option<&[u8]>, generation: Option<&[u8]>| {
        let scratch = SimFs::new();
        if let Some(wal) = wal {
            scratch.write("w", wal.to_vec());
        }
        if let Some(generation) = generation {
            scratch.write("w.snapshot-1", generation.to_vec());
        }
        let backend = InMemoryBackend::new();
        let recovered = TaintMapWal::new(scratch, "w").recover_into(&backend, ShardSpec::default());
        (recovered, backend.max_local())
    };
    // A lease record raises the high-water one span at most, so no input
    // moves it further than its whole lease records could.
    let bounded_high_water = |bytes: &[u8], high_water: u32| {
        let leases = record_tags(bytes).iter().filter(|&&tag| tag == 5).count() as u32;
        high_water <= leases * MAX_LEASE_SPAN
    };
    let (honest_wal, _) = recover(Some(&wal), None);
    assert_eq!(honest_wal.wal_data_records, 4);
    assert!(
        honest_wal.wal_records_scanned >= 7,
        "markers: {honest_wal:?}"
    );
    assert_eq!(honest_wal.moved, moved, "the split's range and target");
    let (honest_generation, _) = recover(None, Some(&generation));
    assert_eq!(
        (
            honest_generation.snapshot_records,
            honest_generation.torn_snapshots
        ),
        (4, 0)
    );
    assert_eq!(honest_generation.moved, moved);

    let rng = &mut Rng::for_test(10);
    for edit in sampled_edits(wal.len(), 3000, rng) {
        let bytes = edit.apply(&wal);
        let (recovered, high_water) = bounded(bytes.len(), &edit, || recover(Some(&bytes), None));
        // Replay stops at the first record it cannot read whole; a
        // duplicated segment can at most double the records.
        assert!(recovered.wal_records_scanned <= 2 * honest_wal.wal_records_scanned);
        assert!(
            bounded_high_water(&bytes, high_water),
            "{edit:?}: {high_water}"
        );
    }
    for edit in sampled_edits(generation.len(), 3000, rng) {
        let bytes = edit.apply(&generation);
        let (recovered, high_water) = bounded(bytes.len(), &edit, || recover(None, Some(&bytes)));
        // All of a generation or none of it: a cut at any record
        // boundary loses the end record, so it falls back too.
        assert!(
            matches!(
                (recovered.torn_snapshots, recovered.snapshot_records),
                (1, 0) | (0, 4)
            ),
            "{edit:?}: {recovered:?}"
        );
        assert!(
            bounded_high_water(&bytes, high_water),
            "{edit:?}: {high_water}"
        );
    }
}

// ---------------------------------------------------------------------
// Telemetry: agent frames against a live collector.
// ---------------------------------------------------------------------

#[test]
fn mutated_telemetry_agent_frames() {
    let _serial = serial();
    let net = SimNet::new();
    let registry = net.registry().clone();
    registry
        .counter_with("hostile_ops", &[("node", "n1")])
        .add(3);
    registry
        .gauge_with("hostile_depth", &[("node", "n1")])
        .set(0.5);
    registry
        .histogram_with("hostile_us", &[("node", "n1")], &[10, 100, 1000])
        .observe(42);
    let delta = TelemetryAgent::for_node("n1")
        .delta_frame(&registry.snapshot())
        .expect("three samples changed");
    let mut sample = vec![dista_repro::core::telemetry::ROLE_AGENT];
    sample.extend_from_slice(&(delta.len() as u32).to_be_bytes());
    sample.extend_from_slice(delta.as_bytes());

    let addr = NodeAddr::new([10, 0, 0, 200], 9100);
    let mut server = CollectorServer::spawn(&net, addr).unwrap();
    let push = |wire: &[u8]| {
        let conn = net.tcp_connect(addr).unwrap();
        conn.write(wire).unwrap();
        conn.close();
    };
    // One armed window over every push: joining the readers (`stop`) is
    // the only ingestion barrier there is, so the bound is the one for
    // the longest input — a duplicated segment at most doubles a frame.
    let edits = edits(sample.len(), &mut Rng::for_test(11));
    bounded(2 * sample.len(), &"telemetry agent frames", || {
        push(&sample);
        for edit in &edits {
            push(&edit.apply(&sample));
        }
        server.stop();
    });
    let collector = server.collector();
    assert!(collector.frames_ingested() >= 1, "the honest frame landed");
    assert!(collector.parse_errors() > 0, "edited frames were refused");
}

/// The collector's session returns on a length past its frame cap, and
/// the server hangs up on a session that returns: the two compose into
/// "an agent announcing 4 GiB is disconnected, not waited on".
#[test]
fn telemetry_collector_hangs_up_on_an_oversize_announcement() {
    let _serial = serial();
    let net = SimNet::new();
    let addr = NodeAddr::new([10, 0, 0, 200], 9100);
    let mut server = CollectorServer::spawn(&net, addr).unwrap();
    let agent = net.tcp_connect(addr).unwrap();
    let mut wire = vec![dista_repro::core::telemetry::ROLE_AGENT];
    wire.extend_from_slice(&u32::MAX.to_be_bytes());
    agent.write(&wire).unwrap();
    // EOF, well inside the 30 s block timeout that waiting would take.
    assert_eq!(agent.read(&mut [0u8; 1]), Ok(0));
    assert_eq!(agent.write(b"x"), Err(NetError::Closed));
    assert_eq!(server.collector().frames_ingested(), 0);
    server.stop();
}
