//! The boundary's allocation rule, as a count (DESIGN.md §4d): at steady
//! state — protocol settled, every taint a cache hit — a write allocates
//! nothing and a read allocates only the buffers of the `TaintedBytes`
//! it delivers.
//!
//! A counting global allocator tallies, per thread, the allocations made
//! while a probe is armed. Each shape runs one settled stream pair in
//! lockstep on one thread: 50 warm-up crossings (buffers reach their
//! working size, caches fill), then 100 crossings with the write and the
//! read counted separately. The counts repeat exactly, so the bounds
//! hold in debug and release alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dista_jre::{BoundaryStream, Mode, Vm, WireProtocol, WireVersion};
use dista_simnet::{NodeAddr, SimNet};
use dista_taint::{Payload, TagValue, Taint, TaintedBytes};
use dista_taintmap::TaintMapEndpoint;

thread_local! {
    /// This thread's probe: `None` while disarmed, else the allocations
    /// and bytes requested since it was armed.
    static PROBE: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    /// Tallies one allocation of `size` bytes on the calling thread, if
    /// its probe is armed. `try_with`: the allocator also runs while a
    /// thread's locals are being torn down.
    fn note(size: usize) {
        let _ = PROBE.try_with(|probe| {
            if let Some((allocs, bytes)) = probe.get() {
                probe.set(Some((allocs + 1, bytes + size as u64)));
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only a
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
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
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's probe armed; returns its result with the
/// allocations and bytes it requested.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    PROBE.set(Some((0, 0)));
    let out = f();
    let (allocs, bytes) = PROBE.take().expect("armed above");
    (out, allocs, bytes)
}

const WARM_UP: usize = 50;
const COUNTED: usize = 100;

/// A read's allocations: the delivered `TaintedBytes`' data buffer and
/// its run table.
const READ_ALLOCS: u64 = 2;
/// Bytes a read may request beyond the data bytes it delivers (the run
/// table: 16 B a run).
const READ_SLACK: u64 = 512;

/// One shape: a settled stream pair between two VMs speaking
/// `protocol`, and a `len`-byte payload cut into `runs` equal runs —
/// each with a taint of its own when `tainted`, else untainted.
fn census(port: u16, protocol: WireProtocol, len: usize, runs: usize, tainted: bool) {
    let net = SimNet::new();
    let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
    let vm = |name: &str, ip: [u8; 4]| {
        Vm::builder(name, &net)
            .mode(Mode::Dista)
            .ip(ip)
            .taint_map(tm.topology())
            .wire_protocol(protocol)
            .build()
            .unwrap()
    };
    let (vm1, vm2) = (vm("tx", [10, 0, 0, 1]), vm("rx", [10, 0, 0, 2]));
    let addr = NodeAddr::new([10, 0, 0, 2], port);
    let listener = net.tcp_listen(addr).unwrap();
    let connected = net.tcp_connect_from(vm1.ip(), addr).unwrap();
    let accepted = listener.accept().unwrap();
    let tx = BoundaryStream::connector(vm1.clone(), connected);
    let rx = BoundaryStream::acceptor(vm2.clone(), accepted);

    let mut bytes = TaintedBytes::with_capacity(len);
    for run in 0..runs {
        let taint = if tainted {
            vm1.taint_source(TagValue::str(format!("census:{run}")))
        } else {
            Taint::EMPTY
        };
        bytes.extend_uniform(&vec![run as u8; len / runs], taint);
    }
    let payload = Payload::Tainted(bytes);

    for _ in 0..WARM_UP {
        tx.write_payload(&payload).unwrap();
        let got = rx.read_exact_payload(len).unwrap();
        assert_intact(&vm2, &got, &payload, tainted);
    }
    let settled = match protocol {
        WireProtocol::V1 => WireVersion::V1,
        _ => WireVersion::V2,
    };
    assert_eq!(tx.wire_version(), Some(settled));
    assert_eq!(rx.wire_version(), Some(settled));

    // The worst crossing of the hundred (they are all the same).
    let (mut w_allocs, mut r_allocs, mut r_bytes) = (0, 0, 0);
    for _ in 0..COUNTED {
        let (wrote, allocs, _) = counted(|| tx.write_payload(&payload));
        wrote.unwrap();
        w_allocs = w_allocs.max(allocs);
        let (got, allocs, bytes) = counted(|| rx.read_exact_payload(len));
        assert_intact(&vm2, &got.unwrap(), &payload, tainted);
        r_allocs = r_allocs.max(allocs);
        r_bytes = r_bytes.max(bytes);
    }
    tm.shutdown();
    println!(
        "{len} B in {runs} run(s), tainted {tainted}, {settled}: \
         write {w_allocs} allocations, read {r_allocs} allocations / {r_bytes} B"
    );
    assert_eq!(w_allocs, 0, "a steady-state write allocates");
    assert!(
        r_allocs <= READ_ALLOCS,
        "read made {r_allocs} allocations, the delivered payload has {READ_ALLOCS} buffers"
    );
    assert!(
        r_bytes <= len as u64 + READ_SLACK,
        "read requested {r_bytes} B to deliver {len} B"
    );
}

/// Checks a delivered payload: the sent bytes, in the sent runs, each
/// run carrying exactly its own tag (or none).
fn assert_intact(rx_vm: &Vm, got: &Payload, sent: &Payload, tainted: bool) {
    assert_eq!(got.data(), sent.data());
    let got = got.as_tainted().expect("DisTA delivers shadows");
    let mut arrived = got.shadow().iter_runs();
    for (run, (run_len, _)) in sent.as_tainted().unwrap().shadow().iter_runs().enumerate() {
        let (len, taint) = arrived.next().expect("a run went missing");
        assert_eq!(len, run_len);
        let want: Vec<String> = tainted
            .then(|| format!("census:{run}"))
            .into_iter()
            .collect();
        assert_eq!(rx_vm.store().tag_values(taint), want);
    }
    assert!(arrived.next().is_none());
}

#[test]
fn clean_64b_on_negotiated_v2() {
    census(7001, WireProtocol::Negotiate, 64, 1, false);
}

#[test]
fn one_cached_taint_64b_on_v1() {
    census(7002, WireProtocol::V1, 64, 1, true);
}

#[test]
fn eight_cached_taint_runs_16k_on_v1() {
    census(7003, WireProtocol::V1, 16 * 1024, 8, true);
}

/// At steady state the peer holds every gid, so a v2 write defines
/// nothing and costs what a v1 write does.
#[test]
fn eight_cached_taint_runs_16k_on_negotiated_v2() {
    census(7004, WireProtocol::Negotiate, 16 * 1024, 8, true);
}
