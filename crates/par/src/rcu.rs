//! A read-mostly atomic-swap cell (a minimal RCU): readers follow one
//! `Acquire` pointer load with no lock, writers install a replacement
//! snapshot with a single atomic swap and retire the old one.
//!
//! This is the building block behind the lock-free *read* path of the
//! `rtm-obs` metric store: its index is replaced wholesale on (rare)
//! publication and read lock-free on every (hot) recording call.
//!
//! # Reclamation
//!
//! Retired snapshots are kept alive until the cell itself drops, which
//! is what makes `read`'s `&T` borrow sound without epochs or hazard
//! pointers: a reader holding `&T` necessarily holds `&self`, and no
//! retired value is freed while any `&self` can exist (freeing takes
//! `&mut self` / ownership). The cost is that memory grows with the
//! number of `replace` calls, so writers should replace rarely: the
//! metric store batches new entries into one replacement.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

/// A cell holding an immutable snapshot of `T`, swappable atomically.
#[derive(Debug)]
pub struct RcuCell<T> {
    current: AtomicPtr<T>,
    /// Previously installed snapshots, kept until `Drop` so that
    /// in-flight readers can never observe freed memory.
    retired: Mutex<Vec<*mut T>>,
}

// SAFETY: `T` crosses threads both by reference (readers) and by move
// (retirement on drop), so `Send + Sync` on `T` is required and
// sufficient; the raw pointers are only ever created from `Box` and
// freed exactly once in `Drop`.
unsafe impl<T: Send + Sync> Send for RcuCell<T> {}
unsafe impl<T: Send + Sync> Sync for RcuCell<T> {}

impl<T> RcuCell<T> {
    /// Creates the cell with an initial snapshot.
    pub fn new(value: T) -> Self {
        Self {
            current: AtomicPtr::new(Box::into_raw(Box::new(value))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The current snapshot. Lock-free: one `Acquire` load. The borrow
    /// stays valid for the life of `&self` even if a writer replaces
    /// the snapshot concurrently (the old value is retired, not freed).
    pub fn read(&self) -> &T {
        // Acquire pairs with the Release half of the `swap` in
        // `replace`, so the snapshot's contents are fully visible.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// Installs a new snapshot and retires the old one. Callers that
    /// derive the replacement from [`Self::read`] must serialise their
    /// `replace` calls externally (e.g. under a writer mutex), or
    /// concurrent writers can lose each other's entries.
    pub fn replace(&self, value: T) {
        let new = Box::into_raw(Box::new(value));
        let old = self.current.swap(new, Ordering::AcqRel);
        self.retired
            .lock()
            .expect("rcu retire list poisoned")
            .push(old);
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        // Exclusive access: no reader can hold a borrow any more.
        let mut retired =
            std::mem::take(&mut *self.retired.lock().expect("rcu retire list poisoned"));
        retired.push(self.current.load(Ordering::Relaxed));
        for p in retired {
            // SAFETY: each pointer came from `Box::into_raw` and is
            // freed exactly once (retire lists never hold duplicates).
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn read_sees_latest_replace() {
        let cell = RcuCell::new(vec![1, 2]);
        assert_eq!(cell.read(), &[1, 2]);
        cell.replace(vec![1, 2, 3]);
        assert_eq!(cell.read(), &[1, 2, 3]);
    }

    #[test]
    fn old_borrow_survives_replace() {
        let cell = RcuCell::new(String::from("old"));
        let old = cell.read();
        cell.replace(String::from("new"));
        // The old snapshot is retired, not freed: still readable.
        assert_eq!(old, "old");
        assert_eq!(cell.read(), "new");
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let cell = RcuCell::new(0usize);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        let v = *cell.read();
                        assert!(v <= 100);
                    }
                });
            }
            s.spawn(|| {
                for i in 1..=100 {
                    cell.replace(i);
                }
            });
        });
        assert_eq!(*cell.read(), 100);
    }

    #[test]
    fn drop_frees_all_snapshots_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let cell = RcuCell::new(Counted);
        cell.replace(Counted);
        cell.replace(Counted);
        drop(cell);
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }
}
