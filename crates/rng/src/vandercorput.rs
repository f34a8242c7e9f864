//! The base-2 Van der Corput low-discrepancy sequence.
//!
//! The Van der Corput (VDC) sequence is the radical-inverse of the natural
//! numbers in base 2: index `i` maps to the value obtained by mirroring the
//! binary digits of `i` around the radix point. The sequence fills `[0, 1)`
//! maximally evenly, which is why stochastic numbers generated from VDC
//! comparisons converge with `O(1/N)` error rather than the `O(1/√N)` of true
//! random sources (Alaghi & Hayes, DATE 2014 — reference \[7\] of the paper).

use crate::source::{RandomSource, RngKind};

/// The base-2 Van der Corput sequence source.
///
/// # Example
///
/// ```
/// use sc_rng::{VanDerCorput, RandomSource};
///
/// let mut vdc = VanDerCorput::new();
/// assert_eq!(vdc.next_unit(), 0.5);    // index 1 -> 0.1b
/// assert_eq!(vdc.next_unit(), 0.25);   // index 2 -> 0.01b
/// assert_eq!(vdc.next_unit(), 0.75);   // index 3 -> 0.11b
/// assert_eq!(vdc.next_unit(), 0.125);  // index 4 -> 0.001b
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VanDerCorput {
    start_index: u64,
    index: u64,
}

impl VanDerCorput {
    /// Creates the sequence starting at index 1 (the value 0 is skipped so
    /// that generated stochastic numbers are not systematically biased low).
    #[must_use]
    pub fn new() -> Self {
        VanDerCorput {
            start_index: 1,
            index: 1,
        }
    }

    /// Creates the sequence starting at index `1 + offset`; phase-shifted
    /// copies of the sequence are mutually low-correlated and can serve as
    /// "different VDC" sources.
    #[must_use]
    pub fn with_offset(offset: u64) -> Self {
        VanDerCorput {
            start_index: 1 + offset,
            index: 1 + offset,
        }
    }

    /// The radical inverse of `i` in base 2.
    #[must_use]
    pub fn radical_inverse(mut i: u64) -> f64 {
        let mut inv = 0.0;
        let mut denom = 1.0;
        while i > 0 {
            denom *= 2.0;
            inv += (i & 1) as f64 / denom;
            i >>= 1;
        }
        inv
    }

    /// The current sequence index (the index of the *next* value to be produced).
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }
}

impl Default for VanDerCorput {
    fn default() -> Self {
        Self::new()
    }
}

impl RandomSource for VanDerCorput {
    fn next_unit(&mut self) -> f64 {
        let v = Self::radical_inverse(self.index);
        self.index += 1;
        v
    }

    fn reset(&mut self) {
        self.index = self.start_index;
    }

    fn kind(&self) -> RngKind {
        RngKind::VanDerCorput
    }

    /// Index-addressable: `O(1)`.
    fn skip_ahead(&mut self, count: u64) {
        self.index += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_values_match_definition() {
        let mut vdc = VanDerCorput::new();
        let got: Vec<f64> = (0..8).map(|_| vdc.next_unit()).collect();
        assert_eq!(
            got,
            vec![0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875, 0.0625]
        );
    }

    #[test]
    fn radical_inverse_examples() {
        assert_eq!(VanDerCorput::radical_inverse(0), 0.0);
        assert_eq!(VanDerCorput::radical_inverse(1), 0.5);
        assert_eq!(VanDerCorput::radical_inverse(6), 0.375); // 110b -> 0.011b
    }

    #[test]
    fn reset_restores_start() {
        let mut vdc = VanDerCorput::with_offset(10);
        let first: Vec<f64> = (0..16).map(|_| vdc.next_unit()).collect();
        vdc.reset();
        let second: Vec<f64> = (0..16).map(|_| vdc.next_unit()).collect();
        assert_eq!(first, second);
        assert_eq!(vdc.kind(), RngKind::VanDerCorput);
    }

    #[test]
    fn low_discrepancy_fills_interval_evenly() {
        // Over 2^k consecutive values starting at index 1 the sequence hits
        // every dyadic bucket of width 2^-k at most twice.
        let mut vdc = VanDerCorput::new();
        let k = 6;
        let buckets = 1usize << k;
        let mut counts = vec![0u32; buckets];
        for _ in 0..buckets {
            let v = vdc.next_unit();
            counts[(v * buckets as f64) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 2), "bucket counts: {counts:?}");
    }

    #[test]
    fn mean_converges_to_half() {
        let mut vdc = VanDerCorput::new();
        let n = 1 << 12;
        let mean: f64 = (0..n).map(|_| vdc.next_unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
    }

    proptest! {
        #[test]
        fn prop_radical_inverse_in_unit_interval(i in 0u64..1_000_000) {
            let v = VanDerCorput::radical_inverse(i);
            prop_assert!((0.0..1.0).contains(&v));
        }

        #[test]
        fn prop_distinct_indices_distinct_values(i in 1u64..100_000, j in 1u64..100_000) {
            prop_assume!(i != j);
            prop_assert_ne!(VanDerCorput::radical_inverse(i), VanDerCorput::radical_inverse(j));
        }
    }
}
