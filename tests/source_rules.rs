//! Design rules as tests over the source tree. Each reads the non-test
//! part of every file under `crates/*/src` (up to its `#[cfg(test)]`
//! module, which must hold all of its test-only code) and compares what
//! it finds to a list in this file, so a new exception is a reviewed
//! line here, with its reason.
//!
//! * The waiting rule (DESIGN.md §4e): a thread waits for I/O parked on
//!   the one source it needs, so nothing sleeps to poll — except at the
//!   sites listed — and nothing brings back the readiness machinery the
//!   rule made unnecessary.
//! * The outside-bytes rule (DESIGN.md "Bytes from outside"): bytes from
//!   the network or disk become integers through `dista_taint`'s
//!   `ByteReader`, so no second cursor or varint decoder is defined and
//!   no file converts bytes to integers by hand — except those listed.
//! * The serving rule (DESIGN.md "Serving"): an address is served by
//!   `dista_simnet::TcpServer`, so nothing else spawns a thread or calls
//!   `accept()` — except at the sites listed.
//! * The mutation rule: every v2 frame kind the codec defines is in the
//!   sample `tests/hostile_bytes.rs` mutates, so no frame kind's decoder
//!   goes unfuzzed.
//! * The clock rule (DESIGN.md §4g): `dista-jre` reads the time only in
//!   the boundary's phase clock, and `dista-obs` reads no clock at all,
//!   so a crossing is timed one way, sampled, and nowhere else.
//! * The whole-set rule (DESIGN.md §4, "Taint tree"): a tag set is
//!   interned whole, as one node, so nothing interns a set a child per
//!   tag again.

use std::path::{Path, PathBuf};

/// Every non-test `thread::sleep` under `crates/*/src`, with why it is
/// not a wait for I/O. A new site fails the test; so does an entry whose
/// site is gone.
const ALLOWED_SLEEPS: &[(&str, &str)] = &[
    (
        "crates/taintmap/src/client/transport.rs",
        "bounded exponential backoff between RPC retries",
    ),
    (
        "crates/hbase/src/master.rs",
        "HMaster polls the region-server znodes over RPC, as the real one watches ZooKeeper",
    ),
    (
        "crates/rocketmq/src/client.rs",
        "`pull_blocking` is a pull consumer: it re-asks the broker over RPC at an interval",
    ),
    (
        "crates/mapreduce/src/client.rs",
        "`await_finished` polls the job report over RPC, as the YARN client does",
    ),
    (
        "crates/zookeeper/src/election.rs",
        "re-dials a peer whose election listener is not up yet",
    ),
];

/// Names of deleted mechanisms; none may reappear: the readiness
/// reactor; the fault-trigger queue and stage schedule that repeated
/// what the applied-fault log records; and server-side allocation with
/// the single-flight guard that waited on it (its `Flight` and the
/// client's `inflight` map), which leased gids and a queued bind
/// replaced; and the Taint Map's second redirect (a stale-epoch reply
/// and the table fetch it forced) and second way to ship records, which
/// `MOVED` and `REPLICATE` replaced; the split copy's durable checkpoint
/// and rewind, which a follower's per-connection cursor replaced; a
/// compaction knob nothing set; and the Taint Map client's retired
/// connections and second pool of split-server connections, which a
/// connection slot a failed frame empties replaced; v1's doubling
/// record fill, which the block kernel replaced; and the gid width
/// knobs, v1's second entry point with its run-table slots, and the
/// check for gids past 32 bits that widths 5–8 needed, which the one
/// 4-byte v1 width replaced; the Taint Map's second on-disk layout, for
/// compaction generations, with its two parsers and the cutover record's
/// own writer, which the one record grammar and its one checked reader
/// replaced; `GlobalId`'s third gid-width table; and the stepwise split
/// calls, the reshard plan and the migration-crash fault, which the one
/// split call and the one fault vocabulary replaced; and the VM crash
/// actions and calls, the Taint Map's crash-after-registers knob and a
/// VM's mutable spec, which a scheduled `Isolate`, a plan entry cutting
/// the map's reply and the spec fixed at build time replaced. All but the
/// reactor's are split so that a plain grep of the tree for them comes
/// back empty.
const FORBIDDEN: &[&str] = &[
    "Reactor",
    "TimerWheel",
    "register_readable",
    "register_acceptable",
    concat!("Fault", "Trigger"),
    concat!("take_fault", "_triggers"),
    concat!("Stage", "Event"),
    concat!("OP_", "REGISTER"),
    concat!("struct ", "Flight {"),
    concat!("in", "flight:"),
    concat!("OP_", "EPOCH_OF"),
    concat!("OP_", "TRANSFER_BATCH"),
    concat!("RESP_", "STALE_EPOCH"),
    concat!("fn ", "refetch_table"),
    concat!("REC_", "CHECKPOINT"),
    concat!("REC_", "MIGRATE_START"),
    concat!("resync", "_from"),
    concat!("struct ", "Migration {"),
    concat!("compact_every", "_registers"),
    concat!("retired", ": bool"),
    concat!("fn ", "extra_conn"),
    concat!("fn ", "redial_addrs"),
    concat!("DOUBLING", "_MIN_RUN"),
    concat!("gid_width", "(mut self"),
    concat!("encode_wire", "_into"),
    concat!("decode_wire", "_into"),
    concat!("Wire", "Run"),
    concat!("wire", "_slot"),
    concat!("wire_record", "_size"),
    concat!("32-bit id", " space"),
    concat!("SNAP_", "MAGIC"),
    concat!("SNAP_", "TRAILER"),
    concat!("fn ", "load_snapshot"),
    concat!("fn ", "replay_record"),
    concat!("fn ", "append_cutover"),
    concat!("fn ", "try_to_wire"),
    concat!("fn ", "from_wire("),
    concat!("Moved", "Range"),
    concat!("fn ", "moved_for"),
    concat!("tail", "_owner"),
    concat!("fn ", "begin_split"),
    concat!("fn ", "split_step"),
    concat!("fn ", "finish_split"),
    concat!("fn ", "heal_split"),
    concat!("fn ", "active_split"),
    concat!("fn ", "split_lagging"),
    concat!("Reshard", "Plan"),
    concat!("Migration", "Victim"),
    concat!("CrashDuring", "Migration"),
    concat!("Crash", "Vm"),
    concat!("Restart", "Vm"),
    concat!("TaintMap", "Config"),
    concat!("crash_after", "_registers"),
    concat!("fn crash", "_vm"),
    concat!("fn restart", "_vm"),
    concat!("fn has", "_crashed"),
    concat!("fn set", "_spec"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Where a file's test module starts: its first `#[cfg(test)]` that
/// opens a `mod`, or the end of the file.
fn test_module_start(text: &str) -> usize {
    let mut from = 0;
    while let Some(at) = text[from..].find("#[cfg(test)]") {
        let attr = from + at;
        let after = &text[attr + "#[cfg(test)]".len()..];
        if after.trim_start().starts_with("mod ") {
            return attr;
        }
        from = attr + 1;
    }
    text.len()
}

/// `(path relative to the repo root, text before its test module)` of
/// every source file under `crates/*/src`. Every scanned text runs up to
/// its file's test module: a test-only item ahead of the module is
/// refused, since a rule would either check it as shipped code or, cut
/// at it, skip the shipped code after it.
fn non_test_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate directory").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "walked only {} files", files.len());
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("utf-8 source file");
            let non_test = &text[..test_module_start(&text)];
            let name = path.strip_prefix(root).expect("walked from the root");
            let name = name.to_string_lossy().into_owned();
            assert!(
                !non_test.contains("#[cfg(test)]"),
                "{name}: a test-only item ahead of the test module; move it into the module"
            );
            (name, non_test.to_string())
        })
        .collect()
}

#[test]
fn nothing_sleeps_to_poll_and_nothing_registers_readiness() {
    let mut sleeps = Vec::new();
    let mut forbidden = Vec::new();
    for (name, non_test) in non_test_sources() {
        for (n, line) in non_test.lines().enumerate() {
            if line.contains("thread::sleep") {
                sleeps.push((name.clone(), n + 1));
            }
            for word in FORBIDDEN {
                if line.contains(word) {
                    forbidden.push(format!("{name}:{}: `{word}`", n + 1));
                }
            }
        }
    }
    assert!(forbidden.is_empty(), "{}", forbidden.join("\n"));

    // One allow-list entry per site, compared as sorted lists: a new
    // site and a stale entry both show up as a difference.
    let mut found: Vec<&str> = sleeps.iter().map(|(file, _)| file.as_str()).collect();
    let mut allowed: Vec<&str> = ALLOWED_SLEEPS.iter().map(|(file, _)| *file).collect();
    found.sort_unstable();
    allowed.sort_unstable();
    assert_eq!(
        found, allowed,
        "non-test `thread::sleep` sites (left) differ from ALLOWED_SLEEPS (right); found at {sleeps:?}"
    );
}

/// Where the one reader of outside bytes lives.
const READER_MODULE: &str = "crates/taint/src/reader.rs";

/// The private cursors and varint decoders the reader replaced; a
/// definition of any of these names outside [`READER_MODULE`] is a
/// second way to read outside bytes.
const REPLACED_BY_THE_READER: &[&str] = &[
    "struct Cursor",
    "struct Reader",
    "struct PayloadReader",
    "fn read_varint",
];

/// Every file whose non-test code calls `from_be_bytes`/`from_le_bytes`,
/// with why it is not a decoder of outside bytes. A new file fails the
/// test; so does an entry whose calls are gone.
const ALLOWED_BYTE_CONVERSIONS: &[(&str, &str)] = &[
    (READER_MODULE, "the reader itself"),
    (
        "crates/taint/src/tag.rs",
        "`LocalId` from a fixed-size array its callers have already bounded",
    ),
    (
        "crates/microbench/src/cases.rs",
        "Table II case bodies reproduce application code, which reads its own sockets",
    ),
    (
        "crates/microbench/src/socket_codecs.rs",
        "Table II case bodies, as above",
    ),
];

#[test]
fn outside_bytes_are_read_by_the_one_reader() {
    let mut second_readers = Vec::new();
    let mut converting = Vec::new();
    for (name, non_test) in non_test_sources() {
        for (n, line) in non_test.lines().enumerate() {
            for definition in REPLACED_BY_THE_READER {
                // `struct Reader` but not `struct ReaderState`.
                let defined = line.split(definition).nth(1).is_some_and(|rest| {
                    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                });
                if defined && name != READER_MODULE {
                    second_readers.push(format!("{name}:{}: `{definition}`", n + 1));
                }
            }
        }
        if non_test.contains("from_be_bytes") || non_test.contains("from_le_bytes") {
            converting.push(name);
        }
    }
    assert!(second_readers.is_empty(), "{}", second_readers.join("\n"));

    let mut allowed: Vec<&str> = ALLOWED_BYTE_CONVERSIONS
        .iter()
        .map(|(file, _)| *file)
        .collect();
    converting.sort_unstable();
    allowed.sort_unstable();
    assert_eq!(
        converting, allowed,
        "files converting bytes to integers by hand (left) differ from ALLOWED_BYTE_CONVERSIONS (right)"
    );
}

/// Where the one accept loop and its session threads live.
const SERVER_MODULE: &str = "crates/simnet/src/server.rs";

/// Every file outside [`SERVER_MODULE`] whose non-test code spawns a
/// thread (`thread::spawn`, `thread::Builder`) or calls `.accept()`:
/// how many such lines it has and why none of them is a second accept
/// loop. A new site fails the test; so does an entry whose sites are
/// gone or fewer.
const ALLOWED_THREADS_AND_ACCEPTS: &[(&str, usize, &str)] = &[
    (
        "crates/jre/src/socket.rs",
        1,
        "`ServerSocket::accept`: the one-shot accept of the JRE API, for a caller that wants one connection",
    ),
    (
        "crates/jre/src/channel.rs",
        1,
        "`ServerSocketChannel::accept`, as above",
    ),
    (
        "crates/jre/src/aio.rs",
        2,
        "the AIO future worker, and `accept_async`: one accept on one such worker",
    ),
    (
        "crates/jre/src/http.rs",
        1,
        "`HttpServer::serve_once` answers exactly one request on the caller's thread",
    ),
    (
        "crates/zookeeper/src/election.rs",
        4,
        "one thread per election peer, its send and receive workers per link, and one accept per lower-id peer: a mesh that ends with the election, not a service",
    ),
    (
        "crates/zookeeper/src/server.rs",
        1,
        "the follower's commit loop reads the leader's broadcast until the leader hangs up",
    ),
    (
        "crates/mapreduce/src/resource_manager.rs",
        2,
        "a submitted job is scheduled on its own thread so the submit RPC returns at once, like Yarn",
    ),
    (
        "crates/core/src/telemetry.rs",
        1,
        "the telemetry plane's one agent thread; `TelemetryPlane::shutdown` joins it",
    ),
    (
        "crates/activemq/src/broker.rs",
        1,
        "UDP ingest: datagrams have no connections to hand to sessions; `Broker::stop` closes the socket and joins it",
    ),
    (
        "crates/microbench/src/cases.rs",
        9,
        "Table II case bodies reproduce application code: one peer on a thread, one accept",
    ),
    (
        "crates/bench/src/bin/claim_global_taints.rs",
        2,
        "an echo peer for one connection",
    ),
];

#[test]
fn addresses_are_served_by_the_one_server() {
    let mut found = Vec::new();
    for (name, non_test) in non_test_sources() {
        let sites = non_test
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .filter(|line| {
                ["thread::spawn", "thread::Builder", ".accept()"]
                    .iter()
                    .any(|needle| line.contains(needle))
            })
            .count();
        if sites > 0 && name != SERVER_MODULE {
            found.push((name, sites));
        }
    }
    let mut allowed: Vec<(String, usize)> = ALLOWED_THREADS_AND_ACCEPTS
        .iter()
        .map(|(file, sites, _)| (file.to_string(), *sites))
        .collect();
    found.sort_unstable();
    allowed.sort_unstable();
    assert_eq!(
        found, allowed,
        "files spawning threads or accepting connections, with their line counts (left) differ from ALLOWED_THREADS_AND_ACCEPTS (right)"
    );
}

/// Where the v2 frame opcodes are defined…
const V2_CODEC: &str = "crates/jre/src/codec/v2.rs";
/// …and the suite whose `v2_sample` must name every one of them.
const MUTATION_SUITE: &str = "tests/hostile_bytes.rs";

#[test]
fn every_v2_frame_kind_is_in_the_mutation_sample() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |file: &str| std::fs::read_to_string(root.join(file)).expect("readable source");
    let codec = read(V2_CODEC);
    let opcodes: Vec<&str> = codec
        .lines()
        .filter_map(|line| line.strip_prefix("pub const OP_"))
        .filter_map(|rest| rest.split(':').next())
        .collect();
    assert!(opcodes.len() >= 5, "found only {opcodes:?} in {V2_CODEC}");
    let suite = read(MUTATION_SUITE);
    let sample = suite
        .split("fn v2_sample(")
        .nth(1)
        .and_then(|rest| rest.split("\n}\n").next())
        .expect("the mutation suite defines `fn v2_sample`");
    let missing: Vec<String> = opcodes
        .iter()
        .map(|name| format!("OP_{name}"))
        .filter(|op| !sample.contains(op.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "{V2_CODEC} frame kinds {MUTATION_SUITE}::v2_sample never names: {missing:?}"
    );
}

/// The one file under `crates/jre/src` whose non-test code reads the
/// time: the boundary's sampled phase clock.
const PHASE_CLOCK: &str = "crates/jre/src/stopwatch.rs";

#[test]
fn crossings_are_timed_by_the_one_phase_clock() {
    let mut clocks = Vec::new();
    let mut phase_clock_reads = false;
    for (name, non_test) in non_test_sources() {
        let checked = name.starts_with("crates/obs/src/")
            || (name.starts_with("crates/jre/src/") && name != PHASE_CLOCK);
        for (n, line) in non_test.lines().enumerate() {
            let code = !line.trim_start().starts_with("//");
            let reads = code && (line.contains("Instant") || line.contains("SystemTime"));
            if reads && checked {
                clocks.push(format!("{name}:{}: {}", n + 1, line.trim()));
            }
            phase_clock_reads |= reads && name == PHASE_CLOCK;
        }
    }
    assert!(
        clocks.is_empty(),
        "clock reads outside {PHASE_CLOCK}:\n{}",
        clocks.join("\n")
    );
    assert!(phase_clock_reads, "{PHASE_CLOCK} no longer reads the clock");
}

/// A tree node adds a sorted run of tags and a set is interned whole
/// (DESIGN.md §4, "Taint tree"). Interning a set one tag at a time, a
/// child per tag, pays a node for every missing prefix; these are the
/// names that way of interning went by.
const REPLACED_BY_WHOLE_SETS: &[&str] = &["fn intern_child"];

#[test]
fn tag_sets_are_interned_whole() {
    let mut found = Vec::new();
    for (name, non_test) in non_test_sources() {
        for (n, line) in non_test.lines().enumerate() {
            for definition in REPLACED_BY_WHOLE_SETS {
                if line.contains(definition) {
                    found.push(format!("{name}:{}: `{definition}`", n + 1));
                }
            }
        }
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}
