//! Verifies the **§V-F global-taint claims**: SDT scenarios produce few
//! global taints (paper: 1–6) while SIM produces many (paper: 54–327),
//! and "the overhead does not increase significantly with the number of
//! global taints".

use std::time::{Duration, Instant};

use dista_bench::table::{fmt_ms, Table};
use dista_bench::{run_system, Mode, Scenario, SystemId};
use dista_core::Cluster;
use dista_jre::{InputStream, OutputStream, ServerSocket, Socket};
use dista_simnet::NodeAddr;
use dista_taint::{Payload, TagValue, TaintedBytes};

/// Sends `distinct` chunks, each carrying its own fresh taint, from node
/// 1 to node 2 and back; returns the wall-clock time.
fn synthetic_run(distinct: usize, bytes_per_chunk: usize) -> Duration {
    let cluster = Cluster::builder(Mode::Dista)
        .nodes("sweep", 2)
        .build()
        .expect("cluster");
    let (vm1, vm2) = (cluster.vm(0).clone(), cluster.vm(1).clone());
    let server = ServerSocket::bind(&vm2, NodeAddr::new([10, 0, 0, 2], 4000)).expect("bind");
    let total = distinct * bytes_per_chunk;
    let echo = std::thread::spawn(move || {
        let conn = server.accept().expect("accept");
        let got = conn.input_stream().read_exact(total).expect("read");
        conn.output_stream().write(&got).expect("write");
    });

    let start = Instant::now();
    let client = Socket::connect(&vm1, NodeAddr::new([10, 0, 0, 2], 4000)).expect("connect");
    let mut payload = TaintedBytes::with_capacity(total);
    for i in 0..distinct {
        let taint = vm1.store().mint_source_taint(TagValue::Int(i as i64));
        payload.extend_uniform(&vec![b'x'; bytes_per_chunk], taint);
    }
    client
        .output_stream()
        .write(&Payload::Tainted(payload))
        .expect("send");
    let back = client.input_stream().read_exact(total).expect("recv");
    assert_eq!(back.len(), total);
    echo.join().expect("echo thread");
    let elapsed = start.elapsed();
    cluster.flush_taint_maps().expect("flush");
    assert_eq!(
        cluster.taint_map().stats().global_taints,
        distinct as u64,
        "one global taint per distinct tag"
    );
    cluster.shutdown();
    elapsed
}

fn main() {
    // `--smoke` (used by ci.sh) runs a single system plus one synthetic
    // sweep point, enough to catch census regressions in seconds.
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let result =
            run_system(SystemId::ZooKeeper, Mode::Dista, Scenario::Sim).expect("zookeeper sim");
        assert!(
            result.global_taints > 1,
            "SIM must register more than one global taint, got {}",
            result.global_taints
        );
        let d = synthetic_run(6, 4 * 1024);
        println!(
            "smoke ok: zookeeper sim census = {} global taints, 6-taint sweep = {} ms",
            result.global_taints,
            fmt_ms(d)
        );
        return;
    }

    println!("§V-F claim — global-taint census per scenario\n");
    let mut census = Table::new(&["System", "SDT global taints", "SIM global taints"]);
    for system in SystemId::ALL {
        let sdt = run_system(system, Mode::Dista, Scenario::Sdt)
            .map(|r| r.global_taints.to_string())
            .unwrap_or_else(|e| format!("ERROR: {e}"));
        let sim = run_system(system, Mode::Dista, Scenario::Sim)
            .map(|r| r.global_taints.to_string())
            .unwrap_or_else(|e| format!("ERROR: {e}"));
        census.row(vec![system.name().to_string(), sdt, sim]);
    }
    census.print();
    println!("(paper: SDT 1..6; SIM 54..327 — shape: SIM ≫ SDT)\n");

    println!("§V-F claim — runtime vs number of global taints (fixed 256 KiB payload)\n");
    let mut sweep = Table::new(&["Distinct taints", "Round trip", "per-KiB"]);
    let total = 256 * 1024;
    for distinct in [1usize, 6, 54, 327] {
        let d = synthetic_run(distinct, total / distinct);
        sweep.row(vec![
            distinct.to_string(),
            format!("{} ms", fmt_ms(d)),
            format!("{:.3} ms", d.as_secs_f64() * 1e3 / 256.0),
        ]);
    }
    sweep.print();
    println!("\n(paper: \"the overhead does not increase significantly with the");
    println!("number of global taints\" — each distinct taint costs one Taint Map");
    println!("round trip, amortized over the whole payload.)");
}
