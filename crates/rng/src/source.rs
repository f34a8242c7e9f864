//! The [`RandomSource`] trait shared by every number source in this crate.

use std::fmt;

/// Identifies a source family; used by experiment configuration tables
/// (Table II names its rows by RNG pair, e.g. "VDC / Halton").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RngKind {
    /// Linear feedback shift register.
    Lfsr,
    /// Base-2 Van der Corput low-discrepancy sequence.
    VanDerCorput,
    /// Halton low-discrepancy sequence (Van der Corput in another base).
    Halton,
    /// Sobol low-discrepancy sequence.
    Sobol,
    /// Deterministic ramp counter.
    Counter,
}

impl fmt::Display for RngKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RngKind::Lfsr => "LFSR",
            RngKind::VanDerCorput => "VDC",
            RngKind::Halton => "Halton",
            RngKind::Sobol => "Sobol",
            RngKind::Counter => "Counter",
        };
        f.write_str(s)
    }
}

/// A deterministic pseudo-random or low-discrepancy number source.
///
/// Sources yield values in the half-open unit interval `[0, 1)`. A
/// digital-to-stochastic converter emits a 1 whenever the target probability
/// exceeds the next sample, so two stochastic numbers generated from the
/// *same* source instance are positively correlated while numbers generated
/// from independent sources are (close to) uncorrelated — exactly the
/// mechanism discussed in §II.B of the paper.
pub trait RandomSource: Send {
    /// Returns the next sample in `[0, 1)` and advances the source.
    fn next_unit(&mut self) -> f64;

    /// Restarts the source from its initial state.
    fn reset(&mut self);

    /// The family this source belongs to.
    fn kind(&self) -> RngKind;

    /// A short human-readable label (used in experiment tables).
    fn label(&self) -> String {
        self.kind().to_string()
    }

    /// Advances the source by `count` samples, discarding them.
    ///
    /// Used to position an independently built source mid-sequence, e.g. when
    /// a dataflow plan gives each node its own instance of a logically shared
    /// source (see [`crate::SourceSpec::build_skipped`]). The default
    /// implementation steps sample by sample; every source in this crate
    /// overrides it with a sub-linear jump (index arithmetic for the
    /// low-discrepancy sequences and counters, a companion-matrix power for
    /// [`crate::Lfsr`], the Gray code for [`crate::Sobol`]).
    fn skip_ahead(&mut self, count: u64) {
        for _ in 0..count {
            self.next_unit();
        }
    }
}

impl RandomSource for Box<dyn RandomSource> {
    fn next_unit(&mut self) -> f64 {
        self.as_mut().next_unit()
    }

    fn reset(&mut self) {
        self.as_mut().reset();
    }

    fn kind(&self) -> RngKind {
        self.as_ref().kind()
    }

    fn label(&self) -> String {
        self.as_ref().label()
    }

    fn skip_ahead(&mut self, count: u64) {
        self.as_mut().skip_ahead(count);
    }
}

/// Extension helpers available on every [`RandomSource`].
pub trait SourceExt: RandomSource {
    /// Returns the next sample scaled to an integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "modulus must be non-zero");
        let v = (self.next_unit() * n as f64) as u64;
        v.min(n - 1)
    }

    /// Collects the next `count` unit samples into a vector.
    fn take_units(&mut self, count: usize) -> Vec<f64> {
        (0..count).map(|_| self.next_unit()).collect()
    }
}

impl<T: RandomSource + ?Sized> SourceExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);

    impl RandomSource for Fixed {
        fn next_unit(&mut self) -> f64 {
            self.0
        }
        fn reset(&mut self) {}
        fn kind(&self) -> RngKind {
            RngKind::Counter
        }
    }

    #[test]
    fn next_below_scales_and_clamps() {
        let mut lo = Fixed(0.0);
        let mut hi = Fixed(0.999_999);
        assert_eq!(lo.next_below(10), 0);
        assert_eq!(hi.next_below(10), 9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn next_below_zero_panics() {
        let mut s = Fixed(0.5);
        let _ = s.next_below(0);
    }

    #[test]
    fn take_units_length() {
        let mut s = Fixed(0.25);
        assert_eq!(s.take_units(5), vec![0.25; 5]);
    }

    #[test]
    fn boxed_source_forwards() {
        let mut boxed: Box<dyn RandomSource> = Box::new(Fixed(0.5));
        assert_eq!(boxed.next_unit(), 0.5);
        assert_eq!(boxed.kind(), RngKind::Counter);
        assert_eq!(boxed.label(), "Counter");
        boxed.reset();
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(RngKind::Lfsr.to_string(), "LFSR");
        assert_eq!(RngKind::VanDerCorput.to_string(), "VDC");
        assert_eq!(RngKind::Halton.to_string(), "Halton");
        assert_eq!(RngKind::Sobol.to_string(), "Sobol");
        assert_eq!(RngKind::Counter.to_string(), "Counter");
    }
}
