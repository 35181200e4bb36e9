//! The one lock policy of `ptb-farm` and `ptb-serve`: every `Mutex` is
//! taken through [`lock`] (or re-taken through [`wait_timeout`]).
//!
//! A thread that panics while holding a `std::sync::Mutex` poisons it,
//! and a plain `lock().expect(..)` then panics in every later caller —
//! one bad request would turn every later request that takes the lock
//! into a 500. Here the guard is recovered from the `PoisonError`, the
//! poison is cleared, and the event is counted once in a process-wide
//! counter ([`poisoned_locks`], exported by `ptb-serve` as
//! `serve.lock.poisoned`). So a panicking holder costs only its own
//! work. Recovery is sound for the data these locks guard: each
//! critical section leaves it consistent after every single change, so
//! a holder that dies part-way leaves at worst its own job unfinished.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Poisoned locks recovered since the process started.
static POISONED: AtomicU64 = AtomicU64::new(0);

/// Lock `m`, recovering (and counting) a poisoned mutex.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| recovered(m, e.into_inner()))
}

/// Wait on `cv` for at most `timeout` with `guard`, a guard of `m`;
/// the re-taken lock follows the same policy as [`lock`].
pub fn wait_timeout<'a, T>(
    m: &Mutex<T>,
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, timeout) {
        Ok((guard, _)) => guard,
        Err(e) => recovered(m, e.into_inner().0),
    }
}

/// Poisoned locks recovered by [`lock`] and [`wait_timeout`] in this
/// process.
pub fn poisoned_locks() -> u64 {
    POISONED.load(Ordering::Relaxed)
}

fn recovered<T: ?Sized, G>(m: &Mutex<T>, guard: G) -> G {
    m.clear_poison();
    POISONED.fetch_add(1, Ordering::Relaxed);
    guard
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_mutex_is_recovered_and_counted_once() {
        let m = Arc::new(Mutex::new(7u32));
        let before = poisoned_locks();
        let held = m.clone();
        let died = std::thread::spawn(move || {
            let _guard = lock(&held);
            panic!("holder dies with the lock");
        })
        .join();
        assert!(died.is_err());
        assert!(m.is_poisoned());

        assert_eq!(*lock(&m), 7, "the guard comes back with the data");
        assert_eq!(poisoned_locks() - before, 1);
        assert!(!m.is_poisoned(), "the poison is cleared");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
        assert_eq!(poisoned_locks() - before, 1, "a clean lock is not counted");
    }
}
