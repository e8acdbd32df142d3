//! Event-driven reactor: readiness queues over the in-memory channels.
//!
//! The blocking SimNet API parks one OS thread per pending operation —
//! fine for protocol tests, a hard cap on how many "users" a cluster run
//! can represent. The reactor inverts it: sources ([`crate::TcpEndpoint`],
//! [`crate::TcpListener`], [`crate::UdpEndpoint`]) register a [`Token`]
//! for readiness interest, writes/deliveries/closes push that token onto
//! the reactor's ready queue, and **one** poller thread drains
//! [`Reactor::poll`] and drives `try_read` / `try_accept` /
//! `try_receive` across any number of connections. Deadlines multiplex
//! through a hashed [`TimerWheel`](crate::TimerWheel) instead of
//! per-connection `BLOCK_TIMEOUT` parking.
//!
//! Readiness is edge-ish: a token is queued when a source *becomes*
//! ready (new bytes, new connection, close) and at registration time if
//! it is already ready, and queued notifications are coalesced per
//! token. A poller must therefore drain a ready source until it returns
//! [`NetError::WouldBlock`](crate::NetError::WouldBlock) before polling
//! again — the conformance suite
//! (`crates/simnet/tests/reactor_conformance.rs`) pins that this
//! discipline delivers byte-for-byte exactly what the blocking API
//! delivers.
//!
//! The blocking API waits on the same sources without going through the
//! reactor: each source owns a [`Wakers`] beside its state mutex — a
//! condition variable for parked blocking readers plus the list of
//! reactor registrations — and one rule covers both kinds of wakeup:
//! **change state under the source's lock; wake after releasing it; a
//! blocking wait allocates nothing.** A blocking wait is
//! **deadline-absolute** — a wakeup that brings no data re-arms only the
//! remaining time, never the full timeout.

use std::collections::HashMap;
use std::ops::BitOr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::NetError;
use crate::timer::{TimerKey, TimerWheel};

/// Caller-chosen identity of one registered event source (or timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// A set of readiness conditions, combinable with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readiness(u8);

impl Readiness {
    /// No readiness.
    pub const EMPTY: Readiness = Readiness(0);
    /// Bytes / a datagram / a pending connection can be taken without
    /// blocking.
    pub const READABLE: Readiness = Readiness(1);
    /// The source reached EOF or was closed.
    pub const CLOSED: Readiness = Readiness(2);
    /// A deadline armed with [`Reactor::set_timer`] expired.
    pub const TIMER: Readiness = Readiness(4);

    /// What a source with or without something to take, open or
    /// closed, reports: a closed source is readable (EOF is an answer).
    pub(crate) fn of_source(has_data: bool, closed: bool) -> Readiness {
        match (has_data, closed) {
            (_, true) => Readiness(Self::READABLE.0 | Self::CLOSED.0),
            (true, false) => Readiness::READABLE,
            (false, false) => Readiness::EMPTY,
        }
    }

    /// Whether every bit of `other` is set in `self`.
    pub fn contains(self, other: Readiness) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the readable bit is set.
    pub fn is_readable(self) -> bool {
        self.contains(Readiness::READABLE)
    }

    /// Whether the closed bit is set.
    pub fn is_closed(self) -> bool {
        self.contains(Readiness::CLOSED)
    }

    /// Whether the timer bit is set.
    pub fn is_timer(self) -> bool {
        self.contains(Readiness::TIMER)
    }

    /// Whether no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Readiness {
    type Output = Readiness;
    fn bitor(self, rhs: Readiness) -> Readiness {
        Readiness(self.0 | rhs.0)
    }
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The registered token (or the token a timer was armed under).
    pub token: Token,
    /// The coalesced readiness since the last poll.
    pub readiness: Readiness,
}

/// Cancellation handle for a deadline armed with [`Reactor::set_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle(TimerKey);

/// A registered source's shared deactivation flag; its waker stops
/// delivering once cleared.
#[derive(Debug, Default)]
struct RegistrationState {
    active: AtomicBool,
}

/// One reactor registration on a source: queues `token` on its reactor.
#[derive(Clone)]
struct ReactorWaker {
    inner: Weak<ReactorInner>,
    token: Token,
    reg: Arc<RegistrationState>,
}

impl ReactorWaker {
    /// Queues `readiness`; `false` when the registration is defunct
    /// (deregistered or its reactor dropped) and should be pruned.
    fn wake(&self, readiness: Readiness) -> bool {
        if !self.reg.active.load(Ordering::Acquire) {
            return false;
        }
        match self.inner.upgrade() {
            Some(inner) => {
                inner.push_ready(self.token, readiness);
                true
            }
            None => false,
        }
    }

    fn is_live(&self) -> bool {
        self.reg.active.load(Ordering::Acquire) && self.inner.strong_count() > 0
    }
}

/// The reactor registrations attached to one source.
///
/// `notify` runs on every write, so its common cases are cheap: an
/// empty list is one atomic load, and a populated one is woken from a
/// copy-on-write snapshot — the list lock is held for one `Arc` clone,
/// never across a `wake`.
#[derive(Default)]
struct WakeList {
    /// `None` until the first registration: most sources never see one.
    entries: Mutex<Option<Arc<Vec<ReactorWaker>>>>,
    /// Number of entries, written under the `entries` lock. `SeqCst`:
    /// `register` stores it before the registrant reads the source's
    /// state, a notifier loads it after changing that state, so one of
    /// the two always sees the other.
    len: AtomicUsize,
}

impl WakeList {
    fn register(&self, waker: ReactorWaker) {
        let mut entries = self.entries.lock();
        let list = Arc::make_mut(entries.get_or_insert_with(Arc::default));
        list.push(waker);
        self.len.store(list.len(), Ordering::SeqCst);
    }

    fn notify(&self, readiness: Readiness) {
        if self.len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let Some(snapshot) = self.entries.lock().clone() else {
            return;
        };
        let mut defunct = false;
        for waker in snapshot.iter() {
            defunct |= !waker.wake(readiness);
        }
        if defunct {
            let mut entries = self.entries.lock();
            if let Some(list) = entries.as_mut().map(Arc::make_mut) {
                list.retain(ReactorWaker::is_live);
                self.len.store(list.len(), Ordering::SeqCst);
            }
        }
    }
}

/// Everything that waits on one source (pipe, mailbox, accept queue):
/// blocking readers parked on a condition variable, and reactor
/// registrations. It lives beside the source's state mutex.
///
/// The source changes its state under that mutex, releases it, and then
/// calls [`Wakers::notify`]; blocking readers and reactor tokens
/// therefore observe identical readiness edges.
#[derive(Default)]
pub(crate) struct Wakers {
    cv: Condvar,
    /// Readers inside `cv.wait_until`. Raised under the source's state
    /// mutex before parking; a notifier loads it after releasing that
    /// mutex, so the mutex orders the two and a reader that missed the
    /// state change is always seen here. `SeqCst` for simplicity.
    parked: AtomicUsize,
    registrations: WakeList,
}

impl std::fmt::Debug for Wakers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wakers")
            .field("parked", &self.parked.load(Ordering::SeqCst))
            .field(
                "registrations",
                &self.registrations.len.load(Ordering::SeqCst),
            )
            .finish()
    }
}

impl Wakers {
    /// Wakes parked readers and queues `readiness` on every registered
    /// token. Call it with the source's state mutex **released**. With
    /// nobody parked and nothing registered it is two atomic loads.
    pub(crate) fn notify(&self, readiness: Readiness) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
        }
        self.registrations.notify(readiness);
    }

    /// The blocking wait of every source: retries `try_take` on the
    /// locked state until it stops answering
    /// [`NetError::WouldBlock`], parking between attempts until the
    /// next [`Wakers::notify`] or the **absolute** deadline `timeout`
    /// from the first park. Allocates nothing.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] carrying `timeout` once the deadline
    /// passed and one last attempt still found nothing; otherwise
    /// whatever `try_take` returned.
    pub(crate) fn wait<S, T>(
        &self,
        state: &Mutex<S>,
        timeout: Duration,
        mut try_take: impl FnMut(&mut S) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut st = state.lock();
        let mut deadline = None;
        let mut expired = false;
        loop {
            match try_take(&mut st) {
                Err(NetError::WouldBlock) => {}
                other => return other,
            }
            if expired {
                return Err(NetError::Timeout(timeout));
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            self.parked.fetch_add(1, Ordering::SeqCst);
            expired = self.cv.wait_until(&mut st, deadline).timed_out();
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[derive(Default)]
struct ReadyState {
    /// Tokens in arrival order; readiness coalesced in `pending`.
    order: Vec<Token>,
    pending: HashMap<Token, Readiness>,
    /// Pollers inside a `cv` wait; nobody parked, nobody to notify.
    parked: usize,
}

struct ReactorInner {
    ready: Mutex<ReadyState>,
    cv: Condvar,
    registrations: Mutex<HashMap<Token, Arc<RegistrationState>>>,
    timers: Mutex<TimerWheel<Token>>,
    base: Instant,
    tick: Duration,
}

impl ReactorInner {
    fn push_ready(&self, token: Token, readiness: Readiness) {
        let mut rd = self.ready.lock();
        match rd.pending.get_mut(&token) {
            Some(r) => *r = *r | readiness,
            None => {
                rd.pending.insert(token, readiness);
                rd.order.push(token);
            }
        }
        self.wake_pollers(rd);
    }

    /// Releases the ready mutex, then wakes parked pollers (if any).
    fn wake_pollers(&self, rd: MutexGuard<'_, ReadyState>) {
        let parked = rd.parked > 0;
        drop(rd);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Wall time → wheel ticks (saturating, rounding down).
    fn ticks_at(&self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.base);
        (elapsed.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Wheel tick → wall time.
    fn instant_of(&self, tick: u64) -> Instant {
        self.base + Duration::from_nanos((self.tick.as_nanos() as u64).saturating_mul(tick))
    }
}

/// The readiness poller. Clones share one reactor.
///
/// See the module docs for the polling discipline; the conformance
/// suite (`tests/reactor_conformance.rs`) pins the semantics, and its
/// 10 000-connection case the scale.
#[derive(Clone)]
pub struct Reactor {
    inner: Arc<ReactorInner>,
}

impl Default for Reactor {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("registrations", &self.inner.registrations.lock().len())
            .field("pending_timers", &self.inner.timers.lock().len())
            .finish()
    }
}

impl Reactor {
    /// A reactor with the default 1 ms timer-wheel tick.
    pub fn new() -> Self {
        Self::with_tick(Duration::from_millis(1))
    }

    /// A reactor whose timer wheel advances once per `tick`.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn with_tick(tick: Duration) -> Self {
        assert!(!tick.is_zero(), "reactor tick must be non-zero");
        Reactor {
            inner: Arc::new(ReactorInner {
                ready: Mutex::new(ReadyState::default()),
                cv: Condvar::new(),
                registrations: Mutex::new(HashMap::new()),
                timers: Mutex::new(TimerWheel::new()),
                base: Instant::now(),
                tick,
            }),
        }
    }

    /// Registers `token` on a source and queues the source's `current`
    /// readiness immediately if it is already ready (otherwise the edge
    /// that happened before registration would be lost). `current` is
    /// read *after* the registration is in place, so a write racing
    /// `attach` is caught by one or the other. Re-registering a token
    /// replaces the previous registration.
    pub(crate) fn attach(
        &self,
        wakers: &Wakers,
        current: impl FnOnce() -> Readiness,
        token: Token,
    ) {
        self.deregister(token);
        let reg = Arc::new(RegistrationState {
            active: AtomicBool::new(true),
        });
        self.inner.registrations.lock().insert(token, reg.clone());
        let waker = ReactorWaker {
            inner: Arc::downgrade(&self.inner),
            token,
            reg,
        };
        wakers.registrations.register(waker.clone());
        let current = current();
        if !current.is_empty() {
            waker.wake(current);
        }
    }

    /// Stops delivery for `token` and drops its queued (non-timer)
    /// readiness. Armed timers under the token keep firing until
    /// cancelled.
    pub fn deregister(&self, token: Token) {
        if let Some(reg) = self.inner.registrations.lock().remove(&token) {
            reg.active.store(false, Ordering::Release);
        }
        let mut rd = self.inner.ready.lock();
        if let Some(r) = rd.pending.get_mut(&token) {
            if r.is_timer() {
                *r = Readiness::TIMER;
            } else {
                rd.pending.remove(&token);
                rd.order.retain(|t| *t != token);
            }
        }
    }

    /// Arms a one-shot deadline `after` from now, delivered as a
    /// [`Readiness::TIMER`] event for `token`. Resolution is one wheel
    /// tick: the event fires on the first poll at-or-after the deadline
    /// tick (rounded up), never before.
    pub fn set_timer(&self, token: Token, after: Duration) -> TimerHandle {
        let now_ticks = self.inner.ticks_at(Instant::now());
        let after_ticks = after.as_nanos().div_ceil(self.inner.tick.as_nanos().max(1)) as u64;
        let key = self
            .inner
            .timers
            .lock()
            .insert(now_ticks + after_ticks, token);
        // A parked poller may be waiting past this new, earlier
        // deadline. Taking the ready mutex orders this after the
        // poller's own look at the wheel: it either sees the timer or
        // is already parked and gets woken to re-compute its bound.
        let rd = self.inner.ready.lock();
        self.inner.wake_pollers(rd);
        TimerHandle(key)
    }

    /// Cancels a pending deadline; returns `true` if it had not fired.
    pub fn cancel_timer(&self, handle: TimerHandle) -> bool {
        self.inner.timers.lock().cancel(handle.0)
    }

    /// Number of pending (armed, unfired) deadlines.
    pub fn pending_timers(&self) -> usize {
        self.inner.timers.lock().len()
    }

    /// Waits for readiness and appends events to `events` (cleared
    /// first). Returns the number of events delivered.
    ///
    /// `timeout` bounds the wait: `Some(Duration::ZERO)` is a
    /// non-blocking sweep, `None` waits until something happens. Expired
    /// timers surface as [`Readiness::TIMER`] events; I/O readiness for
    /// the same token within one poll is coalesced into one event.
    pub fn poll(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> usize {
        events.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // Fire timers that came due.
            let now_ticks = self.inner.ticks_at(Instant::now());
            let fired = self.inner.timers.lock().advance_to(now_ticks);
            for (_, token) in fired {
                self.inner.push_ready(token, Readiness::TIMER);
            }

            let mut rd = self.inner.ready.lock();
            if !rd.order.is_empty() {
                let order = std::mem::take(&mut rd.order);
                for token in order {
                    if let Some(readiness) = rd.pending.remove(&token) {
                        events.push(Event { token, readiness });
                    }
                }
                return events.len();
            }

            // Nothing ready: park until the earliest of the caller's
            // deadline and the next armed timer.
            let next_timer = self
                .inner
                .timers
                .lock()
                .next_deadline()
                .map(|tick| self.inner.instant_of(tick));
            let bound = match (deadline, next_timer) {
                (Some(d), Some(t)) => Some(d.min(t)),
                (Some(d), None) => Some(d),
                (None, Some(t)) => Some(t),
                (None, None) => None,
            };
            // Due timers / events are re-checked by the loop, whatever
            // ended the wait.
            rd.parked += 1;
            match bound {
                Some(b) => {
                    self.inner.cv.wait_until(&mut rd, b);
                }
                None => self.inner.cv.wait(&mut rd),
            }
            rd.parked -= 1;
            let caller_expired = deadline.is_some_and(|d| Instant::now() >= d);
            if caller_expired && rd.order.is_empty() {
                // One last timer sweep below would race the deadline;
                // deliver what the loop head finds, or nothing.
                drop(rd);
                let now_ticks = self.inner.ticks_at(Instant::now());
                let fired = self.inner.timers.lock().advance_to(now_ticks);
                for (_, token) in fired {
                    self.inner.push_ready(token, Readiness::TIMER);
                }
                let mut rd = self.inner.ready.lock();
                let order = std::mem::take(&mut rd.order);
                for token in order {
                    if let Some(readiness) = rd.pending.remove(&token) {
                        events.push(Event { token, readiness });
                    }
                }
                return events.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;
    use crate::net::SimNet;

    #[test]
    fn readiness_bit_algebra() {
        let r = Readiness::READABLE | Readiness::CLOSED;
        assert!(r.is_readable());
        assert!(r.is_closed());
        assert!(!r.is_timer());
        assert!(r.contains(Readiness::READABLE));
        assert!(!Readiness::EMPTY.is_readable());
    }

    #[test]
    fn write_wakes_registered_endpoint() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 1], 700);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        let reactor = Reactor::new();
        s.register_readable(&reactor, Token(7));

        let mut events = Vec::new();
        assert_eq!(reactor.poll(&mut events, Some(Duration::ZERO)), 0);
        c.write(b"ping").unwrap();
        assert_eq!(reactor.poll(&mut events, Some(Duration::from_secs(5))), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readiness.is_readable());
        let mut buf = [0u8; 8];
        assert_eq!(s.try_read(&mut buf).unwrap(), 4);
        assert_eq!(
            s.try_read(&mut buf),
            Err(crate::NetError::WouldBlock),
            "drained sources report WouldBlock"
        );
    }

    #[test]
    fn registration_catches_preexisting_data() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 1], 701);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        c.write(b"early").unwrap();
        let reactor = Reactor::new();
        s.register_readable(&reactor, Token(1));
        let mut events = Vec::new();
        assert_eq!(reactor.poll(&mut events, Some(Duration::ZERO)), 1);
        assert!(events[0].readiness.is_readable());
    }

    #[test]
    fn close_delivers_closed_readiness() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 1], 702);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        let reactor = Reactor::new();
        s.register_readable(&reactor, Token(2));
        let mut events = Vec::new();
        reactor.poll(&mut events, Some(Duration::ZERO));
        c.close();
        assert_eq!(reactor.poll(&mut events, Some(Duration::from_secs(5))), 1);
        assert!(events[0].readiness.is_closed());
        let mut buf = [0u8; 4];
        assert_eq!(s.try_read(&mut buf).unwrap(), 0, "EOF after close");
    }

    #[test]
    fn timer_fires_and_cancel_suppresses() {
        let reactor = Reactor::with_tick(Duration::from_millis(1));
        let _t = reactor.set_timer(Token(9), Duration::from_millis(5));
        let cancelled = reactor.set_timer(Token(10), Duration::from_millis(5));
        assert!(reactor.cancel_timer(cancelled));
        let mut events = Vec::new();
        let start = Instant::now();
        assert_eq!(reactor.poll(&mut events, Some(Duration::from_secs(5))), 1);
        assert_eq!(events[0].token, Token(9));
        assert!(events[0].readiness.is_timer());
        assert!(start.elapsed() >= Duration::from_millis(4));
        assert_eq!(reactor.pending_timers(), 0);
    }

    #[test]
    fn coalesced_events_merge_readiness() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 1], 703);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        let reactor = Reactor::new();
        s.register_readable(&reactor, Token(3));
        c.write(b"x").unwrap();
        c.close();
        let mut events = Vec::new();
        assert_eq!(reactor.poll(&mut events, Some(Duration::from_secs(5))), 1);
        assert!(events[0].readiness.is_readable());
        assert!(events[0].readiness.is_closed());
    }

    #[test]
    fn deregister_drops_queued_events() {
        let net = SimNet::new();
        let addr = NodeAddr::new([10, 0, 0, 1], 704);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        let reactor = Reactor::new();
        s.register_readable(&reactor, Token(4));
        c.write(b"x").unwrap();
        reactor.deregister(Token(4));
        let mut events = Vec::new();
        assert_eq!(reactor.poll(&mut events, Some(Duration::ZERO)), 0);
        c.write(b"y").unwrap();
        assert_eq!(
            reactor.poll(&mut events, Some(Duration::ZERO)),
            0,
            "deregistered tokens stay silent"
        );
    }

    #[test]
    fn poll_timeout_returns_zero() {
        let reactor = Reactor::new();
        let mut events = Vec::new();
        let start = Instant::now();
        assert_eq!(
            reactor.poll(&mut events, Some(Duration::from_millis(20))),
            0
        );
        assert!(start.elapsed() >= Duration::from_millis(19));
    }
}
