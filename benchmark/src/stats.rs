//! Order statistics and the model-output digest.

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of the larger half of `values` (the `ceil(n/2)` largest).
/// For throughput samples of repeated reps on a shared host this is the
/// typical uncontended rate: interference only ever slows a rep down,
/// so the slower half is where it lands.
pub fn upper_half_median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    median(&sorted[sorted.len() / 2..])
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match
/// the ones computed over several runs' outputs. A single value is its
/// own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let q = |i: usize| {
        let m = i * (len + 1);
        let j = (m / 4).clamp(1, len - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// `num / den`, or 0 when nothing was measured (`den == 0`), so ratios
/// of unused layers stay finite.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// FNV-1a over a stream of model outputs: equal digests mean the
/// simulated results are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn add(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn add_f64(&mut self, value: f64) {
        self.add(value.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn upper_half_median_ignores_the_slow_half() {
        assert_eq!(upper_half_median(&[1.0, 10.0, 11.0, 2.0]), 10.5);
        assert_eq!(upper_half_median(&[5.0, 1.0, 3.0]), 4.0);
        assert_eq!(upper_half_median(&[7.0]), 7.0);
        assert_eq!(upper_half_median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn digest_is_order_sensitive_fnv() {
        let mut empty = Digest::default();
        assert_eq!(empty.value(), 0xcbf2_9ce4_8422_2325);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
        empty.add_f64(0.5);
        assert_ne!(empty.value(), Digest::default().value());
    }
}
