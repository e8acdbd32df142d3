//! The one way a thread waits for simulated I/O.
//!
//! Each source (pipe, mailbox, accept queue) owns a [`Wakers`] beside
//! its state mutex, and one rule covers every wait in the simulator:
//! **change state under the source's lock; wake after releasing it; a
//! blocking wait allocates nothing.** A thread waits parked on the one
//! source it needs — nothing registers interest in a source it is not
//! parked on — and the wait is **deadline-absolute**: a wakeup that
//! brings no data re-arms only the remaining time, never the full
//! timeout.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::NetError;

/// The readers parked on one source: a condition variable and how many
/// threads are inside it. It lives beside the source's state mutex.
///
/// The source changes its state under that mutex, releases it, and then
/// calls [`Wakers::notify`].
#[derive(Debug, Default)]
pub(crate) struct Wakers {
    cv: Condvar,
    /// Readers inside `cv.wait_until`. Raised under the source's state
    /// mutex before parking; a notifier loads it after releasing that
    /// mutex, so the mutex orders the two and a reader that missed the
    /// state change is always seen here. `SeqCst` for simplicity.
    parked: AtomicUsize,
}

impl Wakers {
    /// Wakes every parked reader. Call it with the source's state mutex
    /// **released**. With nobody parked it is one atomic load.
    pub(crate) fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
        }
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
