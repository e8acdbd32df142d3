//! Lost-wakeup stress suite for the blocking hand-off.
//!
//! Sources publish under their lock and wake *after* releasing it, and
//! a blocking reader parks on the source's own condition variable —
//! exactly the arrangement in which lost wakeups are born. A reader that
//! was never woken does not hang for ever: it wakes when its block
//! timeout expires and, having one last look, usually still finds its
//! data. So every test here sets the block timeout to
//! [`BLOCK_TIMEOUT`], far above what all its healthy hand-offs take
//! together, and fails if its wall time reaches it: one lost wakeup is
//! enough to get there.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dista_simnet::{FaultConfig, NetError, NodeAddr, SimNet, TcpEndpoint, UdpEndpoint};

const ROUND_TRIPS: u32 = 100_000;
const BLOCK_TIMEOUT: Duration = Duration::from_secs(30);

fn net() -> SimNet {
    let net = SimNet::new();
    net.set_faults(FaultConfig {
        block_timeout: BLOCK_TIMEOUT,
        ..Default::default()
    });
    net
}

fn tcp_pair(net: &SimNet, port: u16) -> (TcpEndpoint, TcpEndpoint) {
    let addr = NodeAddr::new([10, 0, 0, 2], port);
    let listener = net.tcp_listen(addr).unwrap();
    let client = net.tcp_connect(addr).unwrap();
    let server = listener.accept().unwrap();
    (client, server)
}

/// Fails the test once it has run long enough to hide a lost wakeup;
/// called every round, so the first one ends the test.
fn assert_no_wait_ran_out(started: Instant) {
    let elapsed = started.elapsed();
    assert!(
        elapsed < BLOCK_TIMEOUT,
        "took {elapsed:?}: some wait ended by its block timeout, not by a wakeup"
    );
}

#[test]
fn tcp_pingpong_wakes_parked_reader_every_round() {
    let started = Instant::now();
    let net = net();
    let (client, server) = tcp_pair(&net, 800);
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            let mut buf = [0u8; 4];
            let mut echoed = 0u32;
            loop {
                match server.read(&mut buf).expect("echo read") {
                    0 => return echoed,
                    n => {
                        assert_eq!(n, 4, "requests arrive whole");
                        server.write(&buf).expect("echo write");
                        echoed += 1;
                    }
                }
            }
        });
        let mut reply = [0u8; 4];
        for round in 0..ROUND_TRIPS {
            client.write(&round.to_be_bytes()).unwrap();
            client.read_exact(&mut reply).expect("reply (lost wakeup?)");
            assert_eq!(u32::from_be_bytes(reply), round);
            assert_no_wait_ran_out(started);
        }
        client.close();
        assert_eq!(echo.join().unwrap(), ROUND_TRIPS);
    });
}

#[test]
fn accept_pingpong_wakes_parked_acceptor_every_round() {
    let started = Instant::now();
    let net = net();
    let addr = NodeAddr::new([10, 0, 0, 2], 801);
    let listener = net.tcp_listen(addr).unwrap();
    std::thread::scope(|scope| {
        let acceptor = scope.spawn(move || {
            let mut accepted = 0u32;
            loop {
                match listener.accept() {
                    Ok(conn) => {
                        conn.write(&accepted.to_be_bytes()).expect("greet");
                        accepted += 1;
                    }
                    Err(NetError::Closed) => return accepted,
                    Err(e) => panic!("accept failed (lost wakeup?): {e:?}"),
                }
            }
        });
        let mut greeting = [0u8; 4];
        for round in 0..ROUND_TRIPS {
            let conn = net.tcp_connect(addr).unwrap();
            conn.read_exact(&mut greeting)
                .expect("greeting (lost wakeup?)");
            assert_eq!(u32::from_be_bytes(greeting), round);
            assert_no_wait_ran_out(started);
        }
        net.tcp_unlisten(addr);
        assert_eq!(acceptor.join().unwrap(), ROUND_TRIPS);
    });
}

#[test]
fn udp_pingpong_wakes_parked_receiver_every_round() {
    let started = Instant::now();
    let net = net();
    let a = net.udp_bind(NodeAddr::new([10, 0, 0, 1], 802)).unwrap();
    let b = net.udp_bind(NodeAddr::new([10, 0, 0, 2], 802)).unwrap();
    std::thread::scope(|scope| {
        let echo = {
            let b: UdpEndpoint = b.clone();
            scope.spawn(move || {
                let mut buf = [0u8; 8];
                let mut echoed = 0u32;
                loop {
                    match b.receive(&mut buf) {
                        Ok((n, from)) => {
                            b.send_to(from, &buf[..n]);
                            echoed += 1;
                        }
                        Err(NetError::Closed) => return echoed,
                        Err(e) => panic!("receive failed (lost wakeup?): {e:?}"),
                    }
                }
            })
        };
        let mut reply = [0u8; 8];
        for round in 0..ROUND_TRIPS {
            a.send_to(b.local_addr(), &round.to_be_bytes());
            let (n, from) = a.receive(&mut reply).expect("reply (lost wakeup?)");
            assert_eq!(from, b.local_addr());
            assert_eq!(reply[..n], round.to_be_bytes());
            assert_no_wait_ran_out(started);
        }
        b.close();
        assert_eq!(echo.join().unwrap(), ROUND_TRIPS);
    });
}

/// A close racing a reader that is parking (or already parked) must end
/// the wait with EOF / `Closed` at once, never by the block timeout. The
/// waiter is handed its endpoint just before the close, so over the
/// rounds the close lands before, during and after the park.
#[test]
fn close_while_parked_returns_promptly() {
    const ROUNDS: u32 = 2_000;
    let started = Instant::now();
    let net = net();
    let (conn_tx, conn_rx) = mpsc::channel::<TcpEndpoint>();
    let (sock_tx, sock_rx) = mpsc::channel::<UdpEndpoint>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let tcp_done = done_tx.clone();
        scope.spawn(move || {
            let mut buf = [0u8; 4];
            for conn in conn_rx {
                assert_eq!(conn.read(&mut buf), Ok(0), "EOF after peer close");
                tcp_done.send(()).unwrap();
            }
        });
        scope.spawn(move || {
            let mut buf = [0u8; 4];
            for sock in sock_rx {
                assert_eq!(sock.receive(&mut buf), Err(NetError::Closed));
                done_tx.send(()).unwrap();
            }
        });
        let udp_addr = NodeAddr::new([10, 0, 0, 2], 804);
        for round in 0..ROUNDS {
            let (client, server) = tcp_pair(&net, 803);
            net.tcp_unlisten(server.local_addr());
            let sock = net.udp_bind(udp_addr).unwrap();
            conn_tx.send(server).unwrap();
            sock_tx.send(sock.clone()).unwrap();
            // Every other round, give the waiters a head start so the
            // close finds them parked rather than on their way in.
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            client.close();
            sock.close();
            done_rx.recv().expect("tcp or udp waiter died");
            done_rx.recv().expect("tcp or udp waiter died");
            assert_no_wait_ran_out(started);
        }
        drop(conn_tx);
        drop(sock_tx);
    });

    // A parked acceptor sees its listener go away the same way.
    let addr = NodeAddr::new([10, 0, 0, 2], 805);
    for _ in 0..ROUNDS {
        let listener = net.tcp_listen(addr).unwrap();
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(move || listener.accept().map(|_| ()));
            net.tcp_unlisten(addr);
            assert_eq!(acceptor.join().unwrap(), Err(NetError::Closed));
        });
        assert_no_wait_ran_out(started);
    }
}

/// Two readers parked on one pipe, one write carrying a byte for each:
/// the write must wake both (a wake-one hand-off strands the second
/// reader until its block timeout). Each reader takes one byte per
/// round and then waits for the next round, so neither can take both.
#[test]
fn two_readers_parked_on_one_pipe_both_make_progress() {
    const ROUNDS: u32 = 5_000;
    let started = Instant::now();
    let net = net();
    let (client, server) = tcp_pair(&net, 806);
    let (ack_tx, ack_rx) = mpsc::channel::<Result<usize, NetError>>();
    std::thread::scope(|scope| {
        let mut go = Vec::new();
        for _ in 0..2 {
            let (go_tx, go_rx) = mpsc::channel::<()>();
            go.push(go_tx);
            let server = server.clone();
            let ack_tx = ack_tx.clone();
            scope.spawn(move || {
                let mut byte = [0u8; 1];
                while go_rx.recv().is_ok() {
                    ack_tx.send(server.read(&mut byte)).unwrap();
                }
            });
        }
        for round in 0..ROUNDS {
            for go_tx in &go {
                go_tx.send(()).unwrap();
            }
            client.write(b"ab").unwrap();
            for _ in 0..2 {
                assert_eq!(ack_rx.recv().unwrap(), Ok(1), "round {round}");
            }
            assert_no_wait_ran_out(started);
        }
        drop(go);
    });
}

/// Wakeups that bring no data (empty writes notify the pipe like any
/// other write) must not re-arm the deadline, and the timeout must
/// carry the `Duration` the caller asked for, not the remaining sliver.
#[test]
fn wakeup_storm_without_data_times_out_with_the_requested_duration() {
    let net = net();
    let (client, server) = tcp_pair(&net, 807);
    let requested = Duration::from_millis(80);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            let mut wakeups = 0u64;
            while !done.load(Ordering::SeqCst) {
                client.write(&[]).unwrap();
                wakeups += 1;
            }
            wakeups
        });
        let started = Instant::now();
        let mut buf = [0u8; 8];
        let got = server.read_deadline(&mut buf, requested);
        let elapsed = started.elapsed();
        done.store(true, Ordering::SeqCst);
        assert!(storm.join().unwrap() > 0);
        assert_eq!(got, Err(NetError::Timeout(requested)));
        assert!(elapsed >= requested, "timed out early: {elapsed:?}");
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must be absolute, took {elapsed:?}"
        );
    });
}
