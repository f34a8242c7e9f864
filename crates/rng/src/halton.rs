//! Halton low-discrepancy sequences (radical inverse in an arbitrary base).
//!
//! A Halton sequence in base `b` is the generalisation of the Van der Corput
//! sequence to non-binary bases; sequences in different (coprime, usually
//! prime) bases are mutually low-correlated, which is why the paper pairs a
//! base-2 VDC source with a base-3 Halton source to generate *uncorrelated*
//! stochastic numbers (§III.D).

use crate::source::{RandomSource, RngKind};

/// A Halton sequence source in a fixed base.
///
/// # Example
///
/// ```
/// use sc_rng::{Halton, RandomSource};
///
/// let mut h = Halton::new(3);
/// let v: Vec<f64> = (0..4).map(|_| h.next_unit()).collect();
/// let expected = [1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0, 4.0 / 9.0];
/// for (a, b) in v.iter().zip(expected.iter()) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Halton {
    base: u32,
    start_index: u64,
    index: u64,
}

impl Halton {
    /// Creates a Halton sequence in the given base, starting at index 1.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn new(base: u32) -> Self {
        assert!(base >= 2, "halton base must be at least 2, got {base}");
        Halton {
            base,
            start_index: 1,
            index: 1,
        }
    }

    /// Creates a Halton sequence starting at index `1 + offset`.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn with_offset(base: u32, offset: u64) -> Self {
        assert!(base >= 2, "halton base must be at least 2, got {base}");
        Halton {
            base,
            start_index: 1 + offset,
            index: 1 + offset,
        }
    }

    /// The sequence base.
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The radical inverse of `i` in the given base.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn radical_inverse(base: u32, mut i: u64) -> f64 {
        assert!(base >= 2, "halton base must be at least 2, got {base}");
        let b = base as u64;
        let mut inv = 0.0;
        let mut denom = 1.0;
        while i > 0 {
            denom *= b as f64;
            inv += (i % b) as f64 / denom;
            i /= b;
        }
        inv
    }
}

impl RandomSource for Halton {
    fn next_unit(&mut self) -> f64 {
        let v = Self::radical_inverse(self.base, self.index);
        self.index += 1;
        v
    }

    fn reset(&mut self) {
        self.index = self.start_index;
    }

    fn kind(&self) -> RngKind {
        RngKind::Halton
    }

    fn label(&self) -> String {
        format!("Halton-{}", self.base)
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
    fn base2_matches_van_der_corput() {
        use crate::vandercorput::VanDerCorput;
        let mut h = Halton::new(2);
        let mut v = VanDerCorput::new();
        for _ in 0..256 {
            assert_eq!(h.next_unit(), v.next_unit());
        }
    }

    #[test]
    fn base3_first_values() {
        let mut h = Halton::new(3);
        let got: Vec<f64> = (0..6).map(|_| h.next_unit()).collect();
        let expected = [
            1.0 / 3.0,
            2.0 / 3.0,
            1.0 / 9.0,
            4.0 / 9.0,
            7.0 / 9.0,
            2.0 / 9.0,
        ];
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-12, "{g} vs {e}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn base_one_panics() {
        let _ = Halton::new(1);
    }

    #[test]
    fn reset_and_label() {
        let mut h = Halton::with_offset(5, 3);
        let a: Vec<f64> = (0..8).map(|_| h.next_unit()).collect();
        h.reset();
        let b: Vec<f64> = (0..8).map(|_| h.next_unit()).collect();
        assert_eq!(a, b);
        assert_eq!(h.label(), "Halton-5");
        assert_eq!(h.base(), 5);
        assert_eq!(h.kind(), RngKind::Halton);
    }

    #[test]
    fn mean_converges_to_half() {
        let mut h = Halton::new(3);
        let n = 3usize.pow(7);
        let mean: f64 = (0..n).map(|_| h.next_unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    proptest! {
        #[test]
        fn prop_values_in_unit_interval(base in 2u32..30, i in 0u64..1_000_000) {
            let v = Halton::radical_inverse(base, i);
            prop_assert!((0.0..1.0).contains(&v));
        }

        #[test]
        fn prop_distinct_indices_distinct_values(base in 2u32..30, i in 1u64..50_000, j in 1u64..50_000) {
            prop_assume!(i != j);
            prop_assert_ne!(Halton::radical_inverse(base, i), Halton::radical_inverse(base, j));
        }
    }
}
