//! Poison-recovering access to the `std::sync` locks behind the board,
//! the compactor and the ingest channels.
//!
//! A poisoned lock is recovered, not propagated: one panicking producer
//! or reader must not wedge the collector for everyone else.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, recovering the guard if a holder panicked.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Takes shared access to `rwlock`, recovering the guard if a writer
/// panicked.
pub(crate) fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(|e| e.into_inner())
}

/// Takes exclusive access to `rwlock`, recovering the guard if a holder
/// panicked.
pub(crate) fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn locks_survive_a_panicked_holder() {
        let mutex = Arc::new(Mutex::new(3));
        let held = Arc::clone(&mutex);
        let _ = thread::spawn(move || {
            let mut guard = lock(&held);
            *guard += 1;
            panic!("poison the mutex");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 4);

        let rwlock = Arc::new(RwLock::new(vec![1]));
        let held = Arc::clone(&rwlock);
        let _ = thread::spawn(move || {
            write(&held).push(2);
            let _guard = write(&held);
            panic!("poison the rwlock");
        })
        .join();
        assert!(rwlock.is_poisoned());
        assert_eq!(*read(&rwlock), [1, 2]);
        write(&rwlock).push(3);
        assert_eq!(read(&rwlock).len(), 3);
    }
}
