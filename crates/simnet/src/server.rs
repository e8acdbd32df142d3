//! The one way to serve a TCP address: an accept thread, one session
//! thread per connection, and a `stop` after which neither exists.
//!
//! Every listener in the workspace differs only in what a session does
//! with its connection; the lifecycle around it is this module's.

use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::addr::NodeAddr;
use crate::error::NetError;
use crate::net::SimNet;
use crate::tcp::{TcpEndpoint, TcpListener};

/// The server's end of one accepted connection and the thread serving it.
#[derive(Debug)]
struct Session {
    ep: TcpEndpoint,
    thread: JoinHandle<()>,
}

/// A server's live sessions, shared with its session closure.
#[derive(Debug, Clone, Default)]
pub struct ServerHandle {
    sessions: Arc<Mutex<Vec<Session>>>,
}

impl ServerHandle {
    /// Hangs up on every live session without waiting for its thread —
    /// callable from inside a session, for a server that dies mid-request.
    /// The listener keeps accepting.
    pub fn sever_all(&self) {
        for session in self.sessions.lock().iter() {
            session.ep.close();
        }
    }
}

/// A bound address being served.
///
/// Dropping the server stops it.
#[derive(Debug)]
pub struct TcpServer {
    net: SimNet,
    addr: NodeAddr,
    handle: ServerHandle,
    accept: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` and serves it: an accept thread named
    /// `<name>-<addr>` runs `session` on a thread of its own for each
    /// connection, until [`TcpServer::stop`]. When a session returns the
    /// server hangs up on its peer — one that has handed a clone of its
    /// connection on as a push channel keeps reading through
    /// [`NetError::Timeout`] — and until then it must block on nothing
    /// but its own connection, which `stop` closes under it.
    ///
    /// # Errors
    ///
    /// [`NetError::AddrInUse`] if the address already has a listener.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses a thread.
    pub fn bind(
        net: &SimNet,
        addr: NodeAddr,
        name: &str,
        session: impl Fn(TcpEndpoint, &ServerHandle) + Send + Sync + 'static,
    ) -> Result<TcpServer, NetError> {
        let listener = net.tcp_listen(addr)?;
        let handle = ServerHandle::default();
        let accept = {
            let handle = handle.clone();
            std::thread::Builder::new()
                .name(format!("{name}-{addr}"))
                .spawn(move || accept_loop(&listener, &handle, &Arc::new(session)))
                .expect("spawn accept thread")
        };
        Ok(TcpServer {
            net: net.clone(),
            addr,
            handle,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.addr
    }

    /// Stops listening, hangs up on every live session and joins its
    /// thread (idempotent). Connections already queued behind the
    /// listener are accepted and hung up on like the rest; later ones
    /// are refused. A closed pipe still yields its buffered bytes before
    /// EOF, so a session reads everything written before the call.
    pub fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        // Closing the accept queue is what wakes `accept()`.
        self.net.tcp_unlisten(self.addr);
        // Join before hanging up: the loop is still draining the queue,
        // and a connection it accepts after the hang-up would be missed.
        let _ = accept.join();
        let sessions = std::mem::take(&mut *self.handle.sessions.lock());
        for session in &sessions {
            session.ep.close();
        }
        for session in sessions {
            let _ = session.thread.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One session thread per connection until the listener is removed.
/// Finished sessions are pruned on every accept, so the list is bounded
/// by the connections open at once, not by those ever made.
fn accept_loop<S>(listener: &TcpListener, handle: &ServerHandle, session: &Arc<S>)
where
    S: Fn(TcpEndpoint, &ServerHandle) + Send + Sync + 'static,
{
    loop {
        match listener.accept() {
            Ok(ep) => {
                // Spawned under the lock: a `sever_all` from the new
                // session itself, or racing this accept, finds it listed.
                let mut sessions = handle.sessions.lock();
                sessions.retain(|s| !s.thread.is_finished());
                let thread = {
                    let (ep, handle, session) = (ep.clone(), handle.clone(), session.clone());
                    std::thread::spawn(move || {
                        session(ep.clone(), &handle);
                        ep.close();
                    })
                };
                sessions.push(Session { ep, thread });
            }
            Err(NetError::Timeout(_)) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    fn addr() -> NodeAddr {
        NodeAddr::new([10, 0, 0, 1], 7000)
    }

    /// A server whose sessions count the bytes they read up to EOF.
    fn byte_counter(net: &SimNet) -> (TcpServer, Arc<AtomicUsize>, Arc<AtomicUsize>) {
        let (sessions, bytes) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let counters = (sessions.clone(), bytes.clone());
        let server = TcpServer::bind(net, addr(), "test", move |ep, _| {
            counters.0.fetch_add(1, Ordering::SeqCst);
            let mut buf = [0u8; 256];
            while let Ok(n @ 1..) = ep.read(&mut buf) {
                counters.1.fetch_add(n, Ordering::SeqCst);
            }
        })
        .unwrap();
        (server, sessions, bytes)
    }

    #[test]
    fn connections_queued_at_stop_are_served_or_refused_never_leaked() {
        let net = SimNet::new();
        let (mut server, sessions, _) = byte_counter(&net);
        // With the session list held, the accept thread takes one
        // connection and waits; the rest stay queued behind the listener.
        let list = server.handle.clone();
        let held = list.sessions.lock();
        let mut clients: Vec<TcpEndpoint> =
            (0..5).map(|_| net.tcp_connect(addr()).unwrap()).collect();
        std::thread::scope(|s| {
            s.spawn(|| server.stop());
            // Until `stop` has removed the listener a connect still queues.
            loop {
                match net.tcp_connect(addr()) {
                    Ok(client) => clients.push(client),
                    Err(e) => break assert_eq!(e, NetError::ConnectionRefused(addr())),
                }
                std::thread::yield_now();
            }
            drop(held);
        });
        assert_eq!(sessions.load(Ordering::SeqCst), clients.len());
        assert!(list.sessions.lock().is_empty(), "every session was joined");
        for client in &clients {
            assert_eq!(client.read(&mut [0u8; 1]), Ok(0), "hung up on");
        }
    }

    #[test]
    fn stop_twice_is_a_no_op_and_frees_the_address() {
        let net = SimNet::new();
        let (mut server, _, _) = byte_counter(&net);
        server.stop();
        server.stop();
        assert!(net.tcp_listen(addr()).is_ok());
    }

    #[test]
    fn ten_thousand_connections_leave_a_bounded_session_list() {
        let net = SimNet::new();
        let (mut server, sessions, _) = byte_counter(&net);
        for _ in 0..10_000 {
            net.tcp_connect(addr()).unwrap().close();
        }
        // One more accept prunes whatever had finished by then.
        let last = net.tcp_connect(addr()).unwrap();
        last.write(b"x").unwrap();
        while sessions.load(Ordering::SeqCst) < 10_001 {
            std::thread::yield_now();
        }
        let listed = server.handle.sessions.lock().len();
        assert!(
            listed < 100,
            "{listed} sessions listed for one open connection"
        );
        server.stop();
    }

    #[test]
    fn bytes_written_before_stop_are_read_before_eof() {
        let net = SimNet::new();
        let (mut server, _, bytes) = byte_counter(&net);
        let client = net.tcp_connect(addr()).unwrap();
        client.write(&[7u8; 100_000]).unwrap();
        server.stop();
        assert_eq!(bytes.load(Ordering::SeqCst), 100_000);
        assert_eq!(client.write(b"late"), Err(NetError::Closed));
    }

    #[test]
    fn a_session_that_returns_hangs_up_and_one_can_sever_the_rest() {
        let net = SimNet::new();
        // `q` ends the session; `X` takes every connection down with it.
        let mut server = TcpServer::bind(&net, addr(), "test", |ep, sessions| {
            let mut byte = [0u8; 1];
            while ep.read_exact(&mut byte).is_ok() {
                match byte[0] {
                    b'q' => return,
                    b'X' => return sessions.sever_all(),
                    _ => {}
                }
            }
        })
        .unwrap();
        let quitter = net.tcp_connect(addr()).unwrap();
        quitter.write(b"q").unwrap();
        assert_eq!(quitter.read(&mut [0u8; 1]), Ok(0));

        let bystander = net.tcp_connect(addr()).unwrap();
        bystander.write(b".").unwrap();
        let crasher = net.tcp_connect(addr()).unwrap();
        crasher.write(b"X").unwrap();
        assert_eq!(bystander.read(&mut [0u8; 1]), Ok(0));
        assert_eq!(crasher.read(&mut [0u8; 1]), Ok(0));
        // The listener is still there.
        assert!(net.tcp_connect(addr()).is_ok());
        server.stop();
    }
}
