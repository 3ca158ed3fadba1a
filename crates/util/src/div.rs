//! Divisors fixed at construction.
//!
//! Cache and bank geometries divide every address by the same few
//! numbers (set counts, group sizes, bank counts), and nearly all of
//! them are powers of two. A [`Divisor`] turns those into a shift and a
//! mask, and keeps an exact division for the rest; the branch between
//! the two never changes for a given divisor.

/// A fixed non-zero divisor: `x / d` and `x % d` as a shift and a mask
/// when `d` is a power of two, as a division otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two, else `u32::MAX`.
    shift: u32,
}

impl Divisor {
    /// The divisor `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        let shift = if d.is_power_of_two() {
            d.trailing_zeros()
        } else {
            u32::MAX
        };
        Self { d, shift }
    }

    /// The divisor itself.
    pub fn get(self) -> u64 {
        self.d
    }

    /// `x / d`.
    #[inline]
    pub fn quotient(self, x: u64) -> u64 {
        if self.shift != u32::MAX {
            x >> self.shift
        } else {
            x / self.d
        }
    }

    /// `x % d`.
    #[inline]
    pub fn remainder(self, x: u64) -> u64 {
        if self.shift != u32::MAX {
            x & (self.d - 1)
        } else {
            x % self.d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_operators() {
        let xs = [0, 1, 2, 3, 63, 64, 65, 1 << 40, u64::MAX - 1, u64::MAX];
        for d in [
            1,
            2,
            3,
            4,
            7,
            8,
            12,
            64,
            1000,
            1 << 17,
            (1 << 17) + 1,
            u64::MAX,
        ] {
            let div = Divisor::new(d);
            assert_eq!(div.get(), d);
            for x in xs {
                assert_eq!(div.quotient(x), x / d, "{x} / {d}");
                assert_eq!(div.remainder(x), x % d, "{x} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_is_rejected() {
        let _ = Divisor::new(0);
    }
}
