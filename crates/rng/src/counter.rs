//! Deterministic ramp-counter source.
//!
//! A counter that sweeps `0/n, 1/n, …, (n−1)/n` and wraps. Comparing a value
//! against a shared ramp yields *maximally positively correlated* stochastic
//! numbers (all the 1s bunch together), which is useful both as a test fixture
//! and as the cheapest possible "RNG" when positive correlation is desired at
//! generation time (§II.B option 1).

use crate::source::{RandomSource, RngKind};

/// A wrapping ramp counter normalised to `[0, 1)`.
///
/// # Example
///
/// ```
/// use sc_rng::{CounterSource, RandomSource};
///
/// let mut c = CounterSource::new(4);
/// let v: Vec<f64> = (0..5).map(|_| c.next_unit()).collect();
/// assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterSource {
    modulus: u64,
    phase: u64,
    state: u64,
}

impl CounterSource {
    /// Creates a counter with the given modulus, starting at 0.
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0`.
    #[must_use]
    pub fn new(modulus: u64) -> Self {
        Self::with_phase(modulus, 0)
    }

    /// Creates a counter starting at `phase % modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus == 0`.
    #[must_use]
    pub fn with_phase(modulus: u64, phase: u64) -> Self {
        assert!(modulus > 0, "counter modulus must be non-zero");
        let phase = phase % modulus;
        CounterSource {
            modulus,
            phase,
            state: phase,
        }
    }

    /// The counter modulus.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }
}

impl RandomSource for CounterSource {
    fn next_unit(&mut self) -> f64 {
        let v = self.state as f64 / self.modulus as f64;
        self.state = (self.state + 1) % self.modulus;
        v
    }

    fn reset(&mut self) {
        self.state = self.phase;
    }

    fn kind(&self) -> RngKind {
        RngKind::Counter
    }

    fn label(&self) -> String {
        format!("Counter-{}", self.modulus)
    }

    /// Modular jump: `O(1)`.
    fn skip_ahead(&mut self, count: u64) {
        self.state =
            ((u128::from(self.state) + u128::from(count)) % u128::from(self.modulus)) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_wraps() {
        let mut c = CounterSource::new(3);
        let v: Vec<f64> = (0..7).map(|_| c.next_unit()).collect();
        assert_eq!(v[0], 0.0);
        assert_eq!(v[3], 0.0);
        assert_eq!(v[6], 0.0);
        assert!((v[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn phase_offsets_start_point() {
        let mut c = CounterSource::with_phase(4, 2);
        assert_eq!(c.next_unit(), 0.5);
        c.reset();
        assert_eq!(c.next_unit(), 0.5);
        assert_eq!(c.modulus(), 4);
        assert_eq!(c.label(), "Counter-4");
        assert_eq!(c.kind(), RngKind::Counter);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_modulus_panics() {
        let _ = CounterSource::new(0);
    }

    #[test]
    fn phase_wraps_modulo() {
        let mut c = CounterSource::with_phase(4, 6);
        assert_eq!(c.next_unit(), 0.5);
    }
}
