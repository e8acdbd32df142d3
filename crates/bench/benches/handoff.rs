//! The hand-off gate: what one blocking thread hand-off costs, against
//! the same-process floor.
//!
//! Every RPC in the repo (Taint Map register/lookup, RocketMQ send/pull,
//! HBase put/get) is a request written to a SimNet pipe, a server thread
//! woken out of a blocking read, a reply written back, and the client
//! woken out of *its* blocking read: two hand-offs per round trip. The
//! paper's "low marginal cost" claim rests on that round trip being
//! cheap, so this target pins it next to what the host can do at best:
//!
//! * mpsc — `std::sync::mpsc` ping-pong with an echo thread, the
//!   same-process floor (a futex wait and a futex wake per hop).
//! * SimNet — the same ping-pong over a blocking SimNet TCP connection:
//!   a 240 B request and a 17 B reply, each read the way
//!   `taintmap::proto::read_frame` frames its stream (op, length,
//!   payload).
//!
//! Both are timed in this one process and the run exits non-zero if
//! SimNet costs more than [`GATE_RATIO`]× the floor. A ratio, so the
//! host's speed state cancels. Run it on one core (`taskset -c 0`), like
//! the crossing benchmark confines its workloads: across cores the
//! wake-up latency of the host dominates both sides. What a real Taint
//! Map round trip costs is `taintmap.{register,lookup}_us` in
//! `benchmark/`.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use dista_simnet::{NodeAddr, SimNet, TcpEndpoint};

const REQUEST_LEN: usize = 240;
const REPLY_LEN: usize = 17;
/// SimNet round trip may cost at most this many mpsc round trips.
const GATE_RATIO: f64 = 2.0;

/// `[op][u32 BE len][payload]`, `total` bytes in all.
fn frame(op: u8, total: usize) -> Vec<u8> {
    let payload = total - 5;
    let mut f = vec![op];
    f.extend_from_slice(&(payload as u32).to_be_bytes());
    f.resize(total, 0xAB);
    f
}

/// Reads one frame as three reads (op, length, payload); `None` on EOF.
fn read_frame(conn: &TcpEndpoint, payload: &mut Vec<u8>) -> Option<u8> {
    let mut op = [0u8; 1];
    if conn.read(&mut op).expect("read op") == 0 {
        return None;
    }
    let mut len = [0u8; 4];
    conn.read_exact(&mut len).expect("read length");
    payload.resize(u32::from_be_bytes(len) as usize, 0);
    conn.read_exact(payload).expect("read payload");
    Some(op[0])
}

/// Runs `body` with a closure performing one SimNet round trip against
/// an echo thread.
fn with_simnet_pingpong<R>(body: impl FnOnce(&mut dyn FnMut()) -> R) -> R {
    let net = SimNet::new();
    let addr = NodeAddr::new([10, 0, 0, 1], 9000);
    let listener = net.tcp_listen(addr).expect("listen");
    let client = net.tcp_connect(addr).expect("connect");
    let server = listener.accept().expect("accept");
    let request = frame(1, REQUEST_LEN);
    let reply = frame(0x80, REPLY_LEN);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut payload = Vec::new();
            while read_frame(&server, &mut payload).is_some() {
                server.write(&reply).expect("write reply");
            }
        });
        let mut payload = Vec::new();
        let out = body(&mut || {
            client.write(&request).expect("write request");
            black_box(read_frame(&client, &mut payload).expect("reply before EOF"));
        });
        client.close();
        out
    })
}

/// Runs `body` with a closure performing one mpsc round trip against an
/// echo thread.
fn with_mpsc_pingpong<R>(body: impl FnOnce(&mut dyn FnMut()) -> R) -> R {
    let (req_tx, req_rx) = mpsc::channel::<[u8; REQUEST_LEN]>();
    let (rep_tx, rep_rx) = mpsc::channel::<[u8; REPLY_LEN]>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(req) = req_rx.recv() {
                black_box(req);
                rep_tx.send([0x80; REPLY_LEN]).expect("send reply");
            }
        });
        let out = body(&mut || {
            req_tx.send([0xAB; REQUEST_LEN]).expect("send request");
            black_box(rep_rx.recv().expect("reply"));
        });
        drop(req_tx);
        out
    })
}

/// Fastest of `batches` mean round-trip times, in nanoseconds. The
/// fastest batch is the one the host disturbed least.
fn best_rtt_ns(rt: &mut dyn FnMut(), batches: usize, per_batch: u32) -> f64 {
    for _ in 0..per_batch {
        rt(); // warm-up: both threads scheduled, buffers grown
    }
    (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                rt();
            }
            start.elapsed().as_nanos() as f64 / f64::from(per_batch)
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mpsc_ns = with_mpsc_pingpong(|rt| best_rtt_ns(rt, 10, 5_000));
    let simnet_ns = with_simnet_pingpong(|rt| best_rtt_ns(rt, 10, 5_000));
    let ratio = simnet_ns / mpsc_ns;
    let ok = ratio <= GATE_RATIO;
    println!(
        "handoff gate: simnet_rtt_ns={simnet_ns:.0} mpsc_rtt_ns={mpsc_ns:.0} \
         ratio={ratio:.2} limit={GATE_RATIO:.2} {}",
        if ok { "ok" } else { "FAILED" }
    );
    if !ok {
        std::process::exit(1);
    }
}
