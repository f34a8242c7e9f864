//! Sobol low-discrepancy sequences.
//!
//! Sobol sequences (used for energy-efficient SC number generation by
//! Liu & Han, DATE 2017 — reference \[8\] of the paper) are digital `(t, s)`
//! sequences in base 2 generated from *direction numbers* derived from
//! primitive polynomials over GF(2). Dimension 1 is the plain Van der Corput
//! sequence; higher dimensions are mutually well-distributed and thus make
//! good independent stochastic-number sources.
//!
//! This implementation uses the Gray-code construction and the classic
//! Joe–Kuo style initial direction numbers for the first eight dimensions,
//! which is ample for the paper's experiments.

use crate::source::{RandomSource, RngKind};

const BITS: u32 = 32;

/// Primitive polynomial descriptors and initial direction numbers for
/// dimensions 2..=8 (dimension 1 needs none). Each entry is
/// `(degree, coefficient bits a, [m_1, m_2, ...])` following Joe & Kuo.
const DIMENSION_DATA: &[(u32, u32, &[u32])] = &[
    (1, 0, &[1]),              // dim 2: x + 1
    (2, 1, &[1, 3]),           // dim 3: x^2 + x + 1
    (3, 1, &[1, 3, 1]),        // dim 4: x^3 + x + 1
    (3, 2, &[1, 1, 1]),        // dim 5: x^3 + x^2 + 1
    (4, 1, &[1, 1, 3, 3]),     // dim 6: x^4 + x + 1
    (4, 4, &[1, 3, 5, 13]),    // dim 7: x^4 + x^3 + 1
    (5, 2, &[1, 1, 5, 5, 17]), // dim 8: x^5 + x^2 + 1
];

/// A one-dimensional slice of the Sobol sequence.
///
/// # Example
///
/// ```
/// use sc_rng::{Sobol, RandomSource};
///
/// // Dimension 1 is the base-2 Van der Corput sequence (in Gray-code order).
/// let mut s = Sobol::new(1);
/// let v = s.next_unit();
/// assert!((0.0..1.0).contains(&v));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sobol {
    dimension: u32,
    directions: Vec<u32>,
    state: u32,
    index: u64,
}

impl Sobol {
    /// Creates the Sobol source for the given dimension (1–8).
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is 0 or greater than 8.
    #[must_use]
    pub fn new(dimension: u32) -> Self {
        assert!(
            (1..=8).contains(&dimension),
            "sobol dimension {dimension} outside supported range 1..=8"
        );
        let directions = Self::direction_numbers(dimension);
        Sobol {
            dimension,
            directions,
            state: 0,
            index: 0,
        }
    }

    /// The dimension index of this source.
    #[must_use]
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    fn direction_numbers(dimension: u32) -> Vec<u32> {
        let mut v = vec![0u32; BITS as usize];
        if dimension == 1 {
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = 1u32 << (BITS - 1 - i as u32);
            }
            return v;
        }
        let (degree, a, m_init) = DIMENSION_DATA[(dimension - 2) as usize];
        let s = degree as usize;
        let mut m = vec![0u32; BITS as usize];
        m[..s].copy_from_slice(&m_init[..s]);
        for i in s..BITS as usize {
            let mut value = m[i - s] ^ (m[i - s] << degree);
            for k in 1..s {
                let coeff = (a >> (s - 1 - k)) & 1;
                if coeff == 1 {
                    value ^= m[i - k] << k;
                }
            }
            m[i] = value;
        }
        for i in 0..BITS as usize {
            v[i] = m[i] << (BITS - 1 - i as u32);
        }
        v
    }

    /// Advances the sequence and returns the next raw 32-bit Sobol integer.
    pub fn next_raw(&mut self) -> u32 {
        // Gray-code construction: XOR the direction number of the lowest zero
        // bit of the running index.
        let c = (!self.index).trailing_zeros().min(BITS - 1);
        self.state ^= self.directions[c as usize];
        self.index += 1;
        self.state
    }
}

impl RandomSource for Sobol {
    fn next_unit(&mut self) -> f64 {
        self.next_raw() as f64 / (1u64 << BITS) as f64
    }

    fn reset(&mut self) {
        self.state = 0;
        self.index = 0;
    }

    fn kind(&self) -> RngKind {
        RngKind::Sobol
    }

    fn label(&self) -> String {
        format!("Sobol-{}", self.dimension)
    }

    /// Gray-code jump: `O(BITS)` instead of `O(count)` steps.
    ///
    /// In the Gray-code construction the state after `i` steps is the XOR of
    /// the direction numbers selected by the set bits of
    /// `gray(i) = i ^ (i >> 1)`, so any index below `2^BITS` is reached
    /// directly. Past that point the step rule saturates at the last
    /// direction number, so the remainder is stepped.
    fn skip_ahead(&mut self, count: u64) {
        let target = self.index.saturating_add(count);
        let direct = target.min((1u64 << BITS) - 1);
        if direct > self.index {
            let gray = direct ^ (direct >> 1);
            self.state = self
                .directions
                .iter()
                .enumerate()
                .filter(|&(k, _)| (gray >> k) & 1 == 1)
                .fold(0, |acc, (_, &v)| acc ^ v);
            self.index = direct;
        }
        while self.index < target {
            self.next_raw();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn dimension_one_is_dyadic() {
        let mut s = Sobol::new(1);
        let first: Vec<f64> = (0..7).map(|_| s.next_unit()).collect();
        // Gray-code ordered van der Corput values are all distinct dyadics.
        for v in &first {
            assert!((0.0..1.0).contains(v));
            let scaled = v * 16.0;
            assert!((scaled - scaled.round()).abs() < 1e-9 || *v < 1.0);
        }
        let set: HashSet<u64> = first
            .iter()
            .map(|v| (v * (1u64 << 32) as f64) as u64)
            .collect();
        assert_eq!(set.len(), first.len());
    }

    #[test]
    fn sequences_are_equidistributed_in_buckets() {
        for dim in 1..=8u32 {
            let mut s = Sobol::new(dim);
            let n = 256usize;
            let buckets = 16usize;
            let mut counts = vec![0u32; buckets];
            for _ in 0..n {
                let v = s.next_unit();
                counts[(v * buckets as f64) as usize] += 1;
            }
            let expected = (n / buckets) as i64;
            for (b, &c) in counts.iter().enumerate() {
                assert!(
                    (c as i64 - expected).abs() <= expected,
                    "dim {dim} bucket {b} count {c} far from {expected}"
                );
            }
        }
    }

    #[test]
    fn distinct_dimensions_differ() {
        let mut a = Sobol::new(2);
        let mut b = Sobol::new(3);
        let seq_a: Vec<u32> = (0..64).map(|_| a.next_raw()).collect();
        let seq_b: Vec<u32> = (0..64).map(|_| b.next_raw()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn reset_restores_sequence() {
        let mut s = Sobol::new(4);
        let first: Vec<u32> = (0..128).map(|_| s.next_raw()).collect();
        s.reset();
        let second: Vec<u32> = (0..128).map(|_| s.next_raw()).collect();
        assert_eq!(first, second);
        assert_eq!(s.kind(), RngKind::Sobol);
        assert_eq!(s.label(), "Sobol-4");
        assert_eq!(s.dimension(), 4);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn dimension_zero_panics() {
        let _ = Sobol::new(0);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn dimension_nine_panics() {
        let _ = Sobol::new(9);
    }

    #[test]
    fn first_256_values_distinct_per_dimension() {
        for dim in 1..=8u32 {
            let mut s = Sobol::new(dim);
            let mut seen = HashSet::new();
            for _ in 0..256 {
                assert!(
                    seen.insert(s.next_raw()),
                    "dimension {dim} repeated a value early"
                );
            }
        }
    }

    #[test]
    fn mean_converges_to_half() {
        for dim in 1..=8u32 {
            let mut s = Sobol::new(dim);
            let n = 1 << 10;
            let mean: f64 = (0..n).map(|_| s.next_unit()).sum::<f64>() / n as f64;
            assert!((mean - 0.5).abs() < 0.02, "dim {dim} mean {mean}");
        }
    }

    #[test]
    fn gray_code_jump_matches_stepping() {
        for dim in 1..=8u32 {
            for start in [0u64, 1, 5, 64] {
                for count in [0u64, 1, 2, 3, 63, 64, 65, 255, 256, 1000, 4097] {
                    let mut stepped = Sobol::new(dim);
                    let mut jumped = Sobol::new(dim);
                    for _ in 0..start {
                        stepped.next_raw();
                        jumped.next_raw();
                    }
                    for _ in 0..count {
                        stepped.next_raw();
                    }
                    jumped.skip_ahead(count);
                    assert_eq!(
                        (stepped.state, stepped.index),
                        (jumped.state, jumped.index),
                        "dim {dim} start {start} count {count}"
                    );
                    assert_eq!(stepped.next_raw(), jumped.next_raw());
                }
            }
        }
    }

    #[test]
    fn gray_code_jump_steps_past_the_direct_range() {
        // Reach the top of the directly addressable range by jumping, then
        // compare a jump across it with stepping across it.
        let edge = (1u64 << BITS) - 3;
        let mut stepped = Sobol::new(3);
        stepped.skip_ahead(edge);
        let mut jumped = stepped.clone();
        for _ in 0..6 {
            stepped.next_raw();
        }
        jumped.skip_ahead(6);
        assert_eq!(stepped, jumped);
    }

    proptest! {
        #[test]
        fn prop_values_in_unit_interval(dim in 1u32..=8, n in 1usize..2000) {
            let mut s = Sobol::new(dim);
            for _ in 0..n {
                let v = s.next_unit();
                prop_assert!((0.0..1.0).contains(&v));
            }
        }
    }
}
