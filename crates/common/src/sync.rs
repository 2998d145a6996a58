//! Lock helpers over the std locks that ignore poisoning.
//!
//! A panic while a lock is held poisons a std lock. Every lock in the
//! workspace guards state that stays valid across such a panic (caches,
//! counters, weights replaced in one assignment), so the next holder takes
//! the lock over instead of failing.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Lock `m`, taking it over if a panicking holder poisoned it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock `l`, taking it over if a panicking writer poisoned it.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock `l`, taking it over if a panicking holder poisoned it.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv` for at most `timeout`, taking the lock back over if a
/// panicking holder poisoned it meanwhile.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_are_taken_over() {
        let m = Mutex::new(1);
        let l = RwLock::new(2);
        let _ = std::panic::catch_unwind(|| {
            let _g = m.lock().unwrap();
            let _w = l.write().unwrap();
            panic!("poison both");
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        *write(&l) += 1;
        assert_eq!(*lock(&m), 2);
        assert_eq!(*read(&l), 3);
        let waited = wait_timeout(&Condvar::new(), lock(&m), Duration::from_millis(1));
        assert_eq!(*waited, 2);
    }
}
