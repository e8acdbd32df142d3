//! SinkRecorder and flight-recorder behaviour under concurrency: eight
//! threads hammer sinks on one VM. The sink report must contain every
//! event exactly once, keep each thread's events in its program order
//! and render each event's tags as the store rendered them at its check;
//! flight-recorder sequence numbers must be unique and per-thread
//! monotonic.

use std::sync::Arc;

use dista_repro::jre::{Mode, Vm};
use dista_repro::obs::{ObsConfig, ObsEventKind, Observability};
use dista_repro::simnet::SimNet;
use dista_repro::taint::TagValue;

const THREADS: usize = 8;
const HITS_PER_THREAD: usize = 50;

#[test]
fn eight_threads_hitting_sinks_keep_the_report_consistent() {
    let net = SimNet::new();
    let obs = Observability::with_registry(ObsConfig::default(), net.registry().clone());
    let vm = Arc::new(
        Vm::builder("hot", &net)
            .mode(Mode::Phosphor)
            .observability(obs)
            .build()
            .unwrap(),
    );

    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let vm = Arc::clone(&vm);
            std::thread::spawn(move || {
                let mut at_check = Vec::with_capacity(HITS_PER_THREAD);
                for i in 0..HITS_PER_THREAD {
                    let t = vm.taint_source(TagValue::str(format!("t{thread}-{i}")));
                    assert!(vm.taint_sink(&format!("sink.t{thread}"), t));
                    at_check.push(vm.store().tag_values(t));
                }
                at_check
            })
        })
        .collect();
    let at_check: Vec<Vec<Vec<String>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every hit recorded exactly once, all of them tainted.
    let report = vm.sink_report();
    assert_eq!(report.events.len(), THREADS * HITS_PER_THREAD);
    assert_eq!(report.tainted_count(), THREADS * HITS_PER_THREAD);

    // Per-thread order: the i-th event of thread `k` carries tag
    // `tk-<i>` with i strictly increasing within the thread's slice.
    for thread in 0..THREADS {
        let sink = format!("sink.t{thread}");
        let prefix = format!("t{thread}-");
        let indices: Vec<usize> = report
            .events
            .iter()
            .filter(|e| e.sink == sink)
            .map(|e| {
                assert_eq!(e.tags.len(), 1, "one tag per hit");
                e.tags[0]
                    .strip_prefix(&prefix)
                    .expect("tag belongs to this thread's sink")
                    .parse()
                    .unwrap()
            })
            .collect();
        let want: Vec<usize> = (0..HITS_PER_THREAD).collect();
        assert_eq!(indices, want, "thread {thread} events in program order");
    }

    // A report renders on read; each event's tags are what the store
    // rendered at its check, while the other threads kept minting.
    for (thread, want) in at_check.iter().enumerate() {
        let sink = format!("sink.t{thread}");
        let got: Vec<&Vec<String>> = report
            .events
            .iter()
            .filter(|e| e.sink == sink)
            .map(|e| &e.tags)
            .collect();
        assert_eq!(got, want.iter().collect::<Vec<_>>(), "thread {thread}");
    }

    // Flight-recorder view: a mint + a hit per iteration, all seqs
    // unique (the shared clock never hands out duplicates).
    let events = vm.flight_recorder().events();
    assert_eq!(events.len(), 2 * THREADS * HITS_PER_THREAD);
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.dedup();
    assert_eq!(seqs.len(), events.len(), "no duplicate sequence numbers");
    let hit_count = events
        .iter()
        .filter(|e| matches!(e.kind, ObsEventKind::SinkHit { .. }))
        .count();
    assert_eq!(hit_count, THREADS * HITS_PER_THREAD);

    // And the metrics agree with the report.
    let dump = net.registry().snapshot();
    assert_eq!(
        dump.counter_total("sink_hits"),
        (THREADS * HITS_PER_THREAD) as u64
    );
    assert_eq!(
        dump.counter_total("sources_minted"),
        (THREADS * HITS_PER_THREAD) as u64
    );
}
