//! A bounded single-producer / single-consumer ring over
//! `MaybeUninit` slots — the per-bank command channel of the serving
//! layer's lock-free data path.
//!
//! The shape follows the classic audio-callback ring (`ringbuf`-style):
//! a power-of-two slot array, a monotonically increasing `head` owned
//! by the consumer and `tail` owned by the producer, each on its own
//! cache line so the two sides never false-share. Slots hold
//! `MaybeUninit<T>`; a slot is initialised exactly between the producer
//! store that publishes it and the consumer load that takes it out.
//!
//! # Memory-ordering argument
//!
//! Only two edges synchronise the sides:
//!
//! * **publish**: the producer writes the slot, then stores `tail`
//!   with `Release`. The consumer loads `tail` with `Acquire`; any slot
//!   index it observes below `tail` therefore happens-after the slot
//!   write — the payload is fully initialised.
//! * **reuse**: the consumer moves the value out, then stores `head`
//!   with `Release`. The producer loads `head` with `Acquire`; any slot
//!   index below `head` happens-after the move-out, so overwriting it
//!   cannot race the consumer's read.
//!
//! Each side's *own* counter is loaded `Relaxed` (it is the only
//! writer) and additionally cached locally, so the steady-state fast
//! path touches one shared cache line per operation. `closed` is a
//! `Release`-stored flag; the consumer re-polls the ring once after
//! observing it, which closes the "push then close" race.
//!
//! Capacities are rounded up to a power of two so index wrapping is a
//! mask. Dropping the ring drops every unconsumed slot exactly once
//! (see the `drops_unconsumed_slots` coverage in `tests/spsc.rs`).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads a counter to its own cache line (64 B on x86-64, 128 B on
/// recent aarch64 — pad to the larger).
#[repr(align(128))]
struct CachePadded<T>(T);

struct Shared<T> {
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to read; owned (written) by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to write; owned (written) by the producer.
    tail: CachePadded<AtomicUsize>,
    closed: AtomicBool,
}

// SAFETY: the producer/consumer split (each end is moved to at most
// one thread, neither is `Clone`) guarantees a slot is only touched by
// the side that currently owns it under the head/tail protocol above.
unsafe impl<T: Send> Sync for Shared<T> {}
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: plain loads suffice. Every index in
        // `head..tail` holds an initialised, unconsumed value.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = self.slots[i & self.mask].get();
            // SAFETY: published by the producer, never consumed.
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// Sending half of the ring. `Send` but not `Clone`: exactly one
/// producer thread.
pub struct Producer<T> {
    ring: Arc<Shared<T>>,
    /// Local copies of the counters (tail is authoritative here, the
    /// head copy is a lower bound refreshed on apparent fullness).
    tail: usize,
    head_cache: usize,
}

/// Receiving half of the ring. `Send` but not `Clone`: exactly one
/// consumer thread.
pub struct Consumer<T> {
    ring: Arc<Shared<T>>,
    head: usize,
    tail_cache: usize,
}

/// Outcome of a non-blocking receive.
#[derive(Debug, PartialEq, Eq)]
pub enum Recv<T> {
    /// An item was dequeued.
    Item(T),
    /// The ring is momentarily empty but the producer is still live.
    Empty,
    /// The ring is empty and the producer has closed it: no item will
    /// ever arrive again.
    Closed,
}

/// Creates a ring holding at least `capacity` items (rounded up to a
/// power of two, minimum 2).
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    let cap = capacity.next_power_of_two().max(2);
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        mask: cap - 1,
        slots,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            ring: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            ring: shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// Enqueues `value`, or hands it back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let cap = self.capacity();
        if self.tail - self.head_cache == cap {
            // Apparent full: refresh the consumer's progress (reuse
            // edge — Acquire pairs with the consumer's Release).
            self.head_cache = self.ring.head.0.load(Ordering::Acquire);
            if self.tail - self.head_cache == cap {
                return Err(value);
            }
        }
        let slot = self.ring.slots[self.tail & self.ring.mask].get();
        // SAFETY: `tail - head <= cap - 1` now, so this slot is empty
        // and the consumer cannot touch it until tail is published.
        unsafe { (*slot).write(value) };
        self.tail += 1;
        // Publish edge: the slot write above happens-before this store.
        self.ring.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Free slots right now (a lower bound — the consumer may free
    /// more concurrently).
    pub fn free_len(&mut self) -> usize {
        self.head_cache = self.ring.head.0.load(Ordering::Acquire);
        self.capacity() - (self.tail - self.head_cache)
    }

    /// Marks the ring closed. Items already queued remain poppable;
    /// the consumer sees [`Recv::Closed`] only after draining them.
    pub fn close(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> Consumer<T> {
    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// Dequeues one item if any is visible.
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            // Apparent empty: refresh the producer's progress (publish
            // edge — Acquire pairs with the producer's Release).
            self.tail_cache = self.ring.tail.0.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let slot = self.ring.slots[self.head & self.ring.mask].get();
        // SAFETY: head < tail, so the producer published this slot and
        // will not rewrite it until head advances past it.
        let value = unsafe { (*slot).assume_init_read() };
        self.head += 1;
        // Reuse edge: the read above happens-before this store.
        self.ring.head.0.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Whether the producer has closed the ring (items may still be
    /// queued; prefer [`Self::try_recv`] which orders the checks).
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Non-blocking receive distinguishing "momentarily empty" from
    /// "closed and drained". Re-polls once after observing the closed
    /// flag, so an item pushed just before `close()` is never lost.
    pub fn try_recv(&mut self) -> Recv<T> {
        if let Some(v) = self.pop() {
            return Recv::Item(v);
        }
        if !self.is_closed() {
            return Recv::Empty;
        }
        // Closed flag seen: anything published before the close is
        // visible now (Release close / Acquire load), so one re-poll
        // either drains the tail or proves the ring truly empty.
        match self.pop() {
            Some(v) => Recv::Item(v),
            None => Recv::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (p, _c) = ring::<u32>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = ring::<u32>(1);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn push_pop_round_trip() {
        let (mut p, mut c) = ring(4);
        assert_eq!(c.pop(), None);
        p.push(7u64).unwrap();
        p.push(8).unwrap();
        assert_eq!(c.pop(), Some(7));
        assert_eq!(c.pop(), Some(8));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let (mut p, mut c) = ring(2);
        p.push(1u8).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.push(3), Err(3));
        assert_eq!(c.pop(), Some(1));
        assert_eq!(p.push(3), Ok(()));
        assert_eq!(p.free_len(), 0);
    }

    #[test]
    fn close_is_seen_after_drain() {
        let (mut p, mut c) = ring(4);
        p.push(1u32).unwrap();
        p.close();
        assert_eq!(c.try_recv(), Recv::Item(1));
        assert_eq!(c.try_recv(), Recv::Closed);
    }

    #[test]
    fn drop_of_producer_closes() {
        let (p, mut c) = ring::<u32>(4);
        drop(p);
        assert_eq!(c.try_recv(), Recv::Closed);
    }
}
