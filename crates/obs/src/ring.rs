//! The bounded-ring discipline shared by the event trace and the span
//! trace: once `capacity` records are held the oldest is dropped and a
//! drop counter advances, so peak memory stays independent of run
//! length. Sequence numbers (or span ids) are never reused, which makes
//! drops detectable in any snapshot.

use std::collections::VecDeque;

/// Interior state of a bounded ring (callers wrap it in a `Mutex`).
#[derive(Debug)]
pub(crate) struct BoundedRing<T> {
    pub(crate) capacity: usize,
    pub(crate) buf: VecDeque<T>,
    /// Next sequence number / id to hand out (monotonic, never reused).
    pub(crate) next_seq: u64,
    /// Records overwritten by the ring bound.
    pub(crate) dropped: u64,
}

impl<T> BoundedRing<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Hands out the next monotonic sequence number.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Appends a record, evicting the oldest when full.
    pub(crate) fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Clears records and counters.
    pub(crate) fn reset(&mut self) {
        self.buf.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = BoundedRing::new(3);
        for i in 0..10u64 {
            let seq = r.take_seq();
            assert_eq!(seq, i);
            r.push(seq);
        }
        assert_eq!(r.buf.len(), 3);
        assert_eq!(r.dropped, 7);
        assert_eq!(r.buf.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        r.reset();
        assert_eq!(r.next_seq, 0);
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = BoundedRing::new(0);
        r.push(1u32);
        r.push(2);
        assert_eq!(r.buf.len(), 1);
        assert_eq!(r.dropped, 1);
    }
}
