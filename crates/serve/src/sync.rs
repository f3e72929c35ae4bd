//! Locks that outlive a panic.
//!
//! A thread that panics while it holds a [`Mutex`] poisons it, and
//! `lock().expect(…)` would then panic every later caller: one bad
//! request could take down the registry, the scheduler and every
//! worker after it. Every lock and condition-variable wait in this
//! crate goes through these helpers instead, which take the guard
//! back with [`PoisonError::into_inner`]. That is sound because each
//! guarded state is left consistent at every point where a panic can
//! happen: every critical section either makes one change, or makes
//! its changes with nothing that can panic in between.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `mutex`, poisoned or not.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`], poisoned or not.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`], poisoned or not; whether it timed out
/// is dropped.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Poisons `mutex`: a thread panics while it holds the lock.
#[cfg(test)]
pub(crate) fn poison<T: Send>(mutex: &Mutex<T>) {
    std::thread::scope(|s| {
        let panicked = s
            .spawn(|| {
                let _held = mutex.lock();
                panic!("poisoning a lock on purpose");
            })
            .join();
        assert!(panicked.is_err());
    });
    assert!(mutex.is_poisoned());
}
