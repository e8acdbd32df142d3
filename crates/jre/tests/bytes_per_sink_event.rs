//! What a sink hit and a log line cost to keep, as a count (DESIGN.md
//! §4, "Sink records are handles"): the live heap bytes a VM's sink
//! recorder holds per hit, and whether a `Logger`'s lines stop growing.
//!
//! A counting global allocator tracks the process's live bytes. One VM
//! registers `HTable.getResult` as a sink; 100 000 `sink_point` hits
//! there on one 2-tag taint — the shape of `record_pipeline`'s row sink
//! — and the growth in live bytes is divided by the hits. Then a
//! `Logger` on the same VM (where `LOG.info` is no sink) writes 100 000
//! lines, and its live bytes after the second 50 000 must be no more
//! than after the first. Sizes depend on counts and capacities only, so
//! the figures repeat from run to run and are the same in debug and
//! release.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use dista_jre::{Logger, Mode, Vm};
use dista_simnet::SimNet;
use dista_taint::{MethodDesc, SourceSinkSpec, TagValue};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is one relaxed
// atomic add and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed on as it is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HITS: usize = 100_000;
const LINES: usize = 100_000;

/// Live bytes per sink hit: 10.5 here, an 8 B `(sink index, taint)`
/// record in a doubling `Vec`; 149.4 when a hit kept its rendered sink
/// name and tags in a 56 B event. (A logger that kept every line grew
/// 63.5 B a line.)
const HIT_BOUND: f64 = 16.0;

#[test]
fn a_sink_hit_keeps_a_handle_and_the_log_keeps_a_ring() {
    let net = SimNet::new();
    let mut spec = SourceSinkSpec::new();
    spec.add_sink(MethodDesc::new("HTable", "getResult"));
    let vm = Vm::builder("rs", &net)
        .mode(Mode::Phosphor)
        .spec(spec)
        .build()
        .unwrap();
    let store = vm.store();
    let taint = store.union(
        store.mint_source_taint(TagValue::str("row-7")),
        store.mint_source_taint(TagValue::str("records")),
    );

    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..HITS {
        assert!(vm.sink_point("HTable", "getResult", taint));
    }
    let per_hit = (LIVE.load(Ordering::Relaxed) - before) as f64 / HITS as f64;

    let log = Logger::new(&vm);
    let mut half = 0;
    for i in 0..LINES {
        if i == LINES / 2 {
            half = LIVE.load(Ordering::Relaxed);
        }
        assert!(!log.info_taint("get served", taint));
    }
    let log_growth = LIVE.load(Ordering::Relaxed) - half;

    println!(
        "{HITS} sink hits on a 2-tag taint: {per_hit:.1} live bytes per hit; \
         {} B more after the second {} log lines",
        log_growth,
        LINES / 2
    );
    assert!(
        per_hit <= HIT_BOUND,
        "a sink hit keeps {per_hit:.1} B, bound {HIT_BOUND}"
    );
    assert!(
        log_growth <= 0,
        "the logger grew by {log_growth} B after its ring was full"
    );

    // Read back: every hit renders its sink and both tags.
    let report = vm.sink_report();
    assert_eq!(report.events.len(), HITS);
    assert!(report.saw_exactly("HTable.getResult", vec!["row-7".into(), "records".into()]));
    assert_eq!(report.tainted_count(), HITS);
}
