//! Verifies the **§V-F network-overhead claim**: "DisTA transfers a
//! fixed length byte array (4 bytes in default) storing Global ID for
//! every data byte. Thus, DisTA should introduce about 5X network
//! overhead." The simulated OS counts every byte, so the ratio is
//! measured, not assumed — including the (amortized) Taint Map RPCs.
//!
//! Flags:
//!
//! * `--smoke` — one case at 4 KiB (fast enough for CI).
//! * `--metrics` — additionally run with cluster observability on, print
//!   the metrics registry, and **exit non-zero** unless every node's v1
//!   wire expansion (`boundary_wire_bytes_out` / `boundary_data_bytes_out`
//!   at `proto=v1`) lands in the 4.5×–5.5× band.
//! * `--trace` — print the observed run's flight-recorder events as a
//!   Chrome trace (load into `chrome://tracing` or Perfetto).
//! * `--chaos [--seed N]` — instead of the overhead table, replay a
//!   seeded fault schedule (receiver partitioned from the Taint Map, a
//!   primary crash + snapshot restart, late heal) through a live
//!   workload and **exit non-zero** unless degraded mode stays sound:
//!   every delivered byte tainted or pending, and zero pending
//!   sentinels once the partition heals.

use dista_bench::table::Table;
use dista_core::jre::{InputStream, OutputStream, ServerSocket, Socket};
use dista_core::obs::{MetricsDump, ObsConfig, ObsEventKind, SampleValue};
use dista_core::simnet::FaultAction::{CrashShard, Heal, Partition, RestartShard};
use dista_core::simnet::{NodeAddr, SimFs};
use dista_core::taint::{Payload, TagValue, TaintedBytes};
use dista_core::taintmap::TaintMapEndpoint;
use dista_core::{Cluster, FaultPlan, Mode};
use dista_microbench::{all_cases, run_case_on};

fn bytes_for(mode: Mode, size: usize, case_idx: usize) -> (u64, bool) {
    let cluster = Cluster::builder(mode)
        .nodes("net", 2)
        .build()
        .expect("cluster");
    cluster.net().metrics().reset();
    let cases = all_cases();
    let result = run_case_on(cases[case_idx].as_ref(), cluster.vm(0), cluster.vm(1), size)
        .expect("case run");
    let bytes = cluster.net().metrics().snapshot().total_bytes();
    cluster.shutdown();
    (bytes, result.data_ok)
}

/// Outbound wire expansion of `node` under `proto`: the quotient of its
/// two per-protocol boundary byte counters, `None` without such traffic.
fn wire_expansion(dump: &MetricsDump, node: &str, proto: &str) -> Option<f64> {
    let labels = [("node", node), ("proto", proto)].map(|(k, v)| (k.to_string(), v.to_string()));
    let bytes = |family: &str| {
        dump.samples
            .iter()
            .find(|s| s.name == family && s.labels == labels)
            .and_then(|s| match s.value {
                SampleValue::Counter(v) if v > 0 => Some(v as f64),
                _ => None,
            })
    };
    Some(bytes("boundary_wire_bytes_out")? / bytes("boundary_data_bytes_out")?)
}

/// Observed DisTA run for the `--metrics`/`--trace` flags. Returns
/// whether every node that sent v1 traffic expanded it by a factor in
/// the expected band.
fn observed_run(size: usize, case_idx: usize, print_metrics: bool, print_trace: bool) -> bool {
    const BAND: (f64, f64) = (4.5, 5.5);
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("net", 2)
        .observability(ObsConfig::default())
        .build()
        .expect("cluster");
    let cases = all_cases();
    run_case_on(cases[case_idx].as_ref(), cluster.vm(0), cluster.vm(1), size).expect("case run");
    let dump = cluster.metrics_dump();
    if print_metrics {
        println!("\n-- metrics registry ({}) --", cases[case_idx].name());
        print!("{}", dump.render_text());
    }
    if print_trace {
        println!("\n-- chrome trace ({}) --", cases[case_idx].name());
        println!("{}", cluster.export_chrome_trace());
    }
    let mut in_band = true;
    let mut senders_seen = 0;
    for node in ["net1", "net2"] {
        // The 4.5x-5.5x record-format band applies to v1 traffic only.
        // V2's adaptive frames sit near 1.0x by design and get their own
        // gate (`prop_codec::one_percent_tainted_mib_expands_at_most_1_2x_under_v2`),
        // so a v2-carrying node must never trip this band.
        if let Some(ratio) = wire_expansion(&dump, node, "v1") {
            senders_seen += 1;
            let ok = ratio >= BAND.0 && ratio <= BAND.1;
            println!(
                "wire expansion {{node={node},proto=v1}} = {ratio:.3} ({})",
                if ok {
                    "in 4.5x-5.5x band"
                } else {
                    "OUT OF BAND"
                }
            );
            in_band &= ok;
        }
        if let Some(ratio) = wire_expansion(&dump, node, "v2") {
            println!("wire expansion {{node={node},proto=v2}} = {ratio:.3} (v1 band not applied)");
        }
    }
    cluster.shutdown();
    if senders_seen == 0 {
        println!("no v1 boundary bytes counted — no v1 boundary encode happened");
        return false;
    }
    in_band
}

/// The `--chaos` run: a seeded fault schedule over a live two-node
/// workload. Returns `true` when degraded mode stayed sound.
fn chaos_run(seed: u64, rounds: u16) -> bool {
    let rx_ip = [10, 0, 0, 2];
    let tm_ip = [10, 0, 0, 99];
    let plan = FaultPlan::builder(seed)
        .at(
            2,
            Partition {
                from: rx_ip,
                to: tm_ip,
            },
        )
        .at(
            2,
            Partition {
                from: tm_ip,
                to: rx_ip,
            },
        )
        .at(10, CrashShard { shard: 0 })
        .at(10, RestartShard { shard: 0 })
        .at(
            30,
            Heal {
                from: rx_ip,
                to: tm_ip,
            },
        )
        .at(
            30,
            Heal {
                from: tm_ip,
                to: rx_ip,
            },
        )
        .build();
    let mut cluster = Cluster::builder(Mode::Dista)
        .nodes("net", 2)
        .observability(ObsConfig::default())
        .taint_map_endpoint(TaintMapEndpoint::builder().snapshots(SimFs::new()))
        .chaos(plan)
        .build()
        .expect("cluster");
    let (tx, rx) = (cluster.vm(0).clone(), cluster.vm(1).clone());

    println!("chaos schedule (seed {seed}): cut rx\u{2194}taint-map at step 2, crash+restart");
    println!("shard 0 primary at step 10, heal at step 30; {rounds} workload rounds\n");
    let mut sound = true;
    let mut degraded_rounds = 0;
    for round in 0..rounds {
        let addr = NodeAddr::new(rx_ip, 7400 + round);
        let server = ServerSocket::bind(&rx, addr).expect("bind");
        let out = Socket::connect(&tx, addr).expect("connect");
        let conn = server.accept().expect("accept");
        let taint = tx
            .store()
            .mint_source_taint(TagValue::str(format!("round-{round}")));
        out.output_stream()
            .write(&Payload::Tainted(TaintedBytes::uniform(b"payload!", taint)))
            .expect("write");
        let got = conn.input_stream().read_exact(8).expect("read");
        let tags = rx.store().tag_values(got.taint_union(rx.store()));
        let status = match tags.first().map(String::as_str) {
            Some(t) if t == format!("round-{round}") => "resolved",
            Some(t) if t.starts_with("pending-gid:") => {
                degraded_rounds += 1;
                "degraded (pending sentinel)"
            }
            _ => {
                sound = false;
                "UNSOUND: bytes delivered without their taint"
            }
        };
        println!("round {round:>2}: {status}");
        cluster.poll_chaos().expect("poll chaos");
    }

    for (from, to) in [(rx_ip, tm_ip), (tm_ip, rx_ip)] {
        cluster.net().inject(Heal { from, to });
    }
    for _ in 0..64 {
        if cluster.pending_gids() == 0 {
            break;
        }
        cluster.reconcile_pending().expect("reconcile");
    }
    let pending = cluster.pending_gids();

    let events = cluster.obs_events();
    let injected = events
        .iter()
        .filter(|e| matches!(e.kind, ObsEventKind::FaultInjected { .. }))
        .count();
    let replayed: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            ObsEventKind::ShardRestarted { replayed, .. } => Some(replayed),
            _ => None,
        })
        .sum();
    let dump = cluster.metrics_dump();
    println!("\nfaults applied            {injected}");
    println!("degraded rounds           {degraded_rounds}");
    println!(
        "degraded lookups          {}",
        dump.counter_total("taintmap_degraded_lookups")
    );
    println!(
        "pending resolved          {}",
        dump.counter_total("taintmap_pending_resolved")
    );
    println!(
        "client retries            {}",
        dump.counter_total("taintmap_retries")
    );
    println!(
        "breaker opens             {}",
        dump.counter_total("taintmap_breaker_opens")
    );
    println!("snapshot replayed         {replayed}");
    println!("pending after heal        {pending}");
    cluster.shutdown();
    if pending != 0 {
        println!("\nFAIL: {pending} sentinel(s) never reconciled after heal");
        return false;
    }
    if !sound {
        println!("\nFAIL: a delivered byte lost its taint");
        return false;
    }
    println!("\nOK: every delivered byte tainted or pending; backlog drained after heal");
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let metrics = args.iter().any(|a| a == "--metrics");
    let trace = args.iter().any(|a| a == "--trace");
    let chaos = args.iter().any(|a| a == "--chaos");
    if chaos {
        let seed = args
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        let rounds = if smoke { 6 } else { 12 };
        println!("§IV-C fault model — Taint Map degradation under a seeded schedule\n");
        if !chaos_run(seed, rounds) {
            std::process::exit(1);
        }
        return;
    }
    let size: usize = std::env::var("DISTA_MICRO_SIZE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 4 * 1024 } else { 64 * 1024 });
    println!("§V-F claim — network overhead of the DisTA wire format ({size} B/side)\n");
    let mut table = Table::new(&["Case", "Original bytes", "DisTA bytes", "Ratio", "Expected"]);
    // raw socket, datagram, socket channel, netty socket.
    let all: [(&str, usize); 4] = [
        ("socket_raw_array", 0usize),
        ("jre_datagram", 22),
        ("jre_socket_channel", 23),
        ("netty_socket", 27),
    ];
    let selected = if smoke { &all[..1] } else { &all[..] };
    for &(label, idx) in selected {
        let (original, ok1) = bytes_for(Mode::Original, size, idx);
        let (dista, ok2) = bytes_for(Mode::Dista, size, idx);
        assert!(ok1 && ok2, "{label}: data corrupted");
        table.row(vec![
            label.to_string(),
            original.to_string(),
            dista.to_string(),
            format!("{:.2}X", dista as f64 / original as f64),
            "≈5X (+ one-time Taint Map RPCs)".to_string(),
        ]);
    }
    table.print();
    println!("\nEvery data byte is followed by a 4-byte Global ID on the wire,");
    println!("so payload bytes expand exactly 5X; the remainder above 5X is the");
    println!("once-per-taint Taint Map registration/lookup traffic.");
    if (metrics || trace) && !observed_run(size, 0, metrics, trace) {
        eprintln!("FAIL: wire expansion outside the 4.5x-5.5x band");
        std::process::exit(1);
    }
}
