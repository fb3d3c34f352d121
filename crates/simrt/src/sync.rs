//! Non-poisoning access to `std::sync` locks.
//!
//! A lock whose holder panicked is still taken: every lock in the
//! workspace guards state that a panicking rank or worker leaves
//! consistent (a failed stage never commits what it wrote), so a poison
//! error would only turn a reportable query error into a crash.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock `m`, ignoring poison.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take a shared guard on `l`, ignoring poison.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take the exclusive guard on `l`, ignoring poison.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicked_holder_does_not_poison_the_lock() {
        let m = Arc::new(Mutex::new(0));
        let l = Arc::new(RwLock::new(0));
        let (m2, l2) = (m.clone(), l.clone());
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            let _w = write(&l2);
            panic!("die holding both locks");
        })
        .join();
        *lock(&m) += 1;
        *write(&l) += 2;
        assert_eq!((*lock(&m), *read(&l)), (1, 2));
    }
}
