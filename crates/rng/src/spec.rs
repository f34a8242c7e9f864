//! Declarative source specifications.
//!
//! A [`SourceSpec`] is a plain-data description of a random source — family
//! plus configuration — that can be stored, compared, hashed, and turned into
//! a live [`RandomSource`] with [`SourceSpec::build`]. Higher layers (the
//! `sc_graph` dataflow compiler in particular) attach specs to graph nodes
//! instead of live sources so that:
//!
//! * plans stay `Send + Sync` and can be executed on many threads at once,
//!   each execution building its own deterministic source instances;
//! * two streams' correlation can be *reasoned about structurally*: streams
//!   generated from equal specs share every sample (maximally positively
//!   correlated, the shared-RNG technique of §II.B), while different specs
//!   give (close to) uncorrelated streams;
//! * a node can be placed mid-sequence via [`SourceSpec::build_skipped`],
//!   reproducing the state a shared hardware source would have after serving
//!   earlier consumers.

use crate::lfsr::{PeriodTable, TABLE_MAX_WIDTH};
use crate::{CounterSource, Halton, Lfsr, RandomSource, RngKind, Sobol, VanDerCorput};
use std::borrow::Cow;
use std::fmt;

/// A buildable, comparable description of a [`RandomSource`].
///
/// # Example
///
/// ```
/// use sc_rng::{SourceSpec, RandomSource};
///
/// let spec = SourceSpec::VanDerCorput { offset: 0 };
/// let mut a = spec.build();
/// let mut b = spec.build();
/// // Equal specs build sources that emit identical sample sequences.
/// assert_eq!(a.next_unit(), b.next_unit());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SourceSpec {
    /// A Fibonacci LFSR of the given register width and seed.
    ///
    /// Registers up to 16 bits wide draw from one period table per width,
    /// built on first use and shared by the whole process (256 KiB at width
    /// 16; see [`SourceSpec::table_window`]).
    Lfsr {
        /// Register width in bits.
        width: u32,
        /// Non-zero initial state.
        seed: u64,
    },
    /// The base-2 Van der Corput sequence, starting `offset` samples in.
    VanDerCorput {
        /// Number of leading samples to skip at construction.
        offset: u64,
    },
    /// A Halton (generalised Van der Corput) sequence.
    Halton {
        /// Radix of the digit reversal (usually a prime).
        base: u32,
        /// Number of leading samples to skip at construction.
        offset: u64,
    },
    /// A Sobol sequence dimension.
    Sobol {
        /// Sobol dimension index (1-based, as in `Sobol::new`).
        dimension: u32,
    },
    /// A deterministic ramp counter.
    Counter {
        /// Counter modulus (period).
        modulus: u64,
        /// Initial phase.
        phase: u64,
    },
}

impl SourceSpec {
    /// The spec of the default source of a family, mirroring
    /// [`crate::build_source`].
    #[must_use]
    pub fn default_of(kind: RngKind) -> Self {
        match kind {
            RngKind::Lfsr => SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1,
            },
            RngKind::VanDerCorput => SourceSpec::VanDerCorput { offset: 0 },
            RngKind::Halton => SourceSpec::Halton { base: 3, offset: 0 },
            RngKind::Sobol => SourceSpec::Sobol { dimension: 1 },
            RngKind::Counter => SourceSpec::Counter {
                modulus: 256,
                phase: 0,
            },
        }
    }

    /// The family this spec describes.
    #[must_use]
    pub fn kind(&self) -> RngKind {
        match self {
            SourceSpec::Lfsr { .. } => RngKind::Lfsr,
            SourceSpec::VanDerCorput { .. } => RngKind::VanDerCorput,
            SourceSpec::Halton { .. } => RngKind::Halton,
            SourceSpec::Sobol { .. } => RngKind::Sobol,
            SourceSpec::Counter { .. } => RngKind::Counter,
        }
    }

    /// Builds a fresh source in the spec's initial state.
    #[must_use]
    pub fn build(&self) -> Box<dyn RandomSource> {
        match *self {
            SourceSpec::Lfsr { width, seed } => Box::new(Lfsr::new(width, seed)),
            SourceSpec::VanDerCorput { offset } => {
                if offset == 0 {
                    Box::new(VanDerCorput::new())
                } else {
                    Box::new(VanDerCorput::with_offset(offset))
                }
            }
            SourceSpec::Halton { base, offset } => {
                if offset == 0 {
                    Box::new(Halton::new(base))
                } else {
                    Box::new(Halton::with_offset(base, offset))
                }
            }
            SourceSpec::Sobol { dimension } => Box::new(Sobol::new(dimension)),
            SourceSpec::Counter { modulus, phase } => {
                if phase == 0 {
                    Box::new(CounterSource::new(modulus))
                } else {
                    Box::new(CounterSource::with_phase(modulus, phase))
                }
            }
        }
    }

    /// Gate-model parameters of the hardware generator this spec describes,
    /// used by the RTL lowering backend to size state registers and emit
    /// Verilog parameters, and by the structural cost bridge.
    #[must_use]
    pub fn gate_model(&self) -> SourceGateModel {
        match *self {
            SourceSpec::Lfsr { width, .. } => SourceGateModel {
                state_bits: width,
                sequential: true,
            },
            // A base-2 Van der Corput generator is a bit-reversed counter;
            // Halton generalises it to digit reversal in another radix. Both
            // are modelled at the default 16-bit hardware resolution.
            SourceSpec::VanDerCorput { .. } | SourceSpec::Halton { .. } => SourceGateModel {
                state_bits: 16,
                sequential: true,
            },
            // A Sobol generator keeps the previous sample and a direction
            // vector bank; 32 state bits is the usual hardware configuration.
            SourceSpec::Sobol { .. } => SourceGateModel {
                state_bits: 32,
                sequential: true,
            },
            SourceSpec::Counter { modulus, .. } => SourceGateModel {
                state_bits: (64 - modulus.saturating_sub(1).leading_zeros()).max(1),
                sequential: true,
            },
        }
    }

    /// Builds a fresh source and advances it by `skip` samples, reproducing
    /// the state a shared source instance would have after `skip` earlier
    /// draws by other consumers.
    ///
    /// No family steps sample by sample: index-addressable families (Van der
    /// Corput, Halton, counters) jump to the skipped position in `O(1)` via
    /// their offset/phase constructors; the LFSR jumps by a companion-matrix
    /// power (`O(w² log skip)`) and Sobol by its Gray code (`O(32)`).
    #[must_use]
    pub fn build_skipped(&self, skip: u64) -> Box<dyn RandomSource> {
        match *self {
            SourceSpec::VanDerCorput { offset } => {
                return SourceSpec::VanDerCorput {
                    offset: offset + skip,
                }
                .build()
            }
            SourceSpec::Halton { base, offset } => {
                return SourceSpec::Halton {
                    base,
                    offset: offset + skip,
                }
                .build()
            }
            SourceSpec::Counter { modulus, phase } => {
                return SourceSpec::Counter {
                    modulus,
                    phase: (phase + (skip % modulus)) % modulus,
                }
                .build()
            }
            _ => {}
        }
        let mut source = self.build();
        source.skip_ahead(skip);
        source
    }

    /// Writes the `out.len()` samples that follow the first `skip` — exactly
    /// what `build_skipped(skip)` followed by `next_unit` per slot returns —
    /// without a live source or a per-sample dynamic call.
    ///
    /// Every family jumps to `skip` and steps a concrete source; callers
    /// that can compare in the integer domain read an LFSR of up to 16 bits
    /// from its [`SourceSpec::table_window`] instead.
    pub fn fill_samples(&self, skip: u64, out: &mut [f64]) {
        fn fill<S: RandomSource>(mut source: S, skip: u64, out: &mut [f64]) {
            source.skip_ahead(skip);
            out.iter_mut().for_each(|o| *o = source.next_unit());
        }
        match *self {
            SourceSpec::Lfsr { width, seed } => fill(Lfsr::new(width, seed), skip, out),
            SourceSpec::VanDerCorput { offset } => {
                fill(VanDerCorput::with_offset(offset), skip, out);
            }
            SourceSpec::Halton { base, offset } => {
                fill(Halton::with_offset(base, offset), skip, out);
            }
            SourceSpec::Sobol { dimension } => fill(Sobol::new(dimension), skip, out),
            SourceSpec::Counter { modulus, phase } => {
                fill(CounterSource::with_phase(modulus, phase), skip, out);
            }
        }
    }

    /// The `len` samples that follow the first `skip` in exact integer form,
    /// for LFSRs up to 16 bits wide (`None` for every other spec).
    ///
    /// Such a register's samples are `(s − 1) / period` over its states
    /// `s`; one period table per width, walked on first use and shared by
    /// the whole process, holds them in order, and every seed and skip is a
    /// window into it. Comparing the integer numerators against a bound
    /// decides `sample < t` exactly without converting a sample to `f64`
    /// (see [`TableWindow::bound`]).
    #[must_use]
    pub fn table_window(&self, skip: u64, len: usize) -> Option<TableWindow> {
        match *self {
            SourceSpec::Lfsr { width, seed } if width <= TABLE_MAX_WIDTH => {
                let seed = Lfsr::new(width, seed).state();
                let (table, built) = PeriodTable::get(width);
                Some(TableWindow {
                    numerators: table.window(seed, skip, len),
                    period: (1u64 << width) - 1,
                    built,
                })
            }
            _ => None,
        }
    }
}

/// A window of a table-backed LFSR's samples (see
/// [`SourceSpec::table_window`]): sample `i` is exactly
/// `numerators[i] as f64 / period as f64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableWindow {
    /// Sample numerators, borrowed from the shared period table unless the
    /// window wraps past the end of the period.
    pub numerators: Cow<'static, [u16]>,
    /// The register period `2^width − 1`, the common denominator.
    pub period: u64,
    /// Whether this call walked the width's period table for the first time
    /// in the process.
    pub built: bool,
}

impl TableWindow {
    /// The smallest numerator `m` in `0..=period` whose sample reaches `t`
    /// (`m / period ≥ t`), with `period` meaning none does — so for every
    /// numerator `k` of this window, `k < bound(t)` exactly when the sample
    /// is `< t`.
    ///
    /// The ceiling of the rounded product `t · period` never overshoots the
    /// boundary: the product is monotone in `t`, so it is largest at
    /// `t = m / period` itself, and the tests check that case for every
    /// numerator of every tabulated width. Division by the period is
    /// monotone under f64 rounding too, so stepping up to the first sample
    /// that reaches `t` is exact (in practice at most one step).
    #[must_use]
    pub fn bound(&self, t: f64) -> u16 {
        let (period, p) = (self.period, self.period as f64);
        // NaN clamps to 0, where `sample < NaN` is false for every sample.
        let mut m = (t * p).ceil().clamp(0.0, p) as u64;
        while m < period && (m as f64 / p) < t {
            m += 1;
        }
        m as u16
    }
}

/// Hardware parameters of the gate-level generator behind a [`SourceSpec`]
/// (see [`SourceSpec::gate_model`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceGateModel {
    /// Number of sequential state bits (register width) of the generator.
    pub state_bits: u32,
    /// Whether the generator holds clocked state (all current families do).
    pub sequential: bool,
}

impl fmt::Display for SourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SourceSpec::Lfsr { width, seed } => write!(f, "LFSR{width}(seed={seed:#x})"),
            SourceSpec::VanDerCorput { offset } => write!(f, "VDC(+{offset})"),
            SourceSpec::Halton { base, offset } => write!(f, "Halton-{base}(+{offset})"),
            SourceSpec::Sobol { dimension } => write!(f, "Sobol-{dimension}"),
            SourceSpec::Counter { modulus, phase } => write!(f, "Counter{modulus}(+{phase})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceExt;

    #[test]
    fn equal_specs_build_identical_sources() {
        let specs = [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1,
            },
            SourceSpec::VanDerCorput { offset: 3 },
            SourceSpec::Halton { base: 5, offset: 0 },
            SourceSpec::Sobol { dimension: 4 },
            SourceSpec::Counter {
                modulus: 64,
                phase: 7,
            },
        ];
        for spec in &specs {
            let a: Vec<f64> = spec.build().take_units(32);
            let b: Vec<f64> = spec.build().take_units(32);
            assert_eq!(a, b, "{spec}");
        }
    }

    #[test]
    fn default_of_matches_build_source() {
        for kind in [
            RngKind::Lfsr,
            RngKind::VanDerCorput,
            RngKind::Halton,
            RngKind::Sobol,
            RngKind::Counter,
        ] {
            let mut from_spec = SourceSpec::default_of(kind).build();
            let mut from_builder = crate::build_source(kind);
            assert_eq!(
                from_spec.take_units(16),
                from_builder.take_units(16),
                "{kind:?}"
            );
            assert_eq!(SourceSpec::default_of(kind).kind(), kind);
        }
    }

    #[test]
    fn build_skipped_matches_manual_skip() {
        // Covers both the O(1) jump families (VDC, Halton, counter) and the
        // sample-stepped families (LFSR, Sobol).
        let specs = [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xBEEF,
            },
            SourceSpec::Sobol { dimension: 3 },
            SourceSpec::VanDerCorput { offset: 5 },
            SourceSpec::Halton { base: 7, offset: 2 },
            SourceSpec::Counter {
                modulus: 100,
                phase: 11,
            },
        ];
        for spec in &specs {
            for skip in [0u64, 1, 99, 100, 257] {
                let mut manual = spec.build();
                for _ in 0..skip {
                    manual.next_unit();
                }
                let mut skipped = spec.build_skipped(skip);
                assert_eq!(
                    manual.take_units(8),
                    skipped.take_units(8),
                    "{spec} skip={skip}"
                );
            }
        }
    }

    /// The reference draw: a live skipped source, one `next_unit` per slot.
    fn stepped(spec: &SourceSpec, skip: u64, len: usize) -> Vec<f64> {
        spec.build_skipped(skip).take_units(len)
    }

    fn filled(spec: &SourceSpec, skip: u64, len: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; len];
        spec.fill_samples(skip, &mut out);
        out
    }

    #[test]
    fn fill_samples_matches_stepping_for_every_family() {
        let specs = [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1,
            },
            SourceSpec::Lfsr {
                width: 17,
                seed: 0x1_2345,
            },
            SourceSpec::Lfsr { width: 24, seed: 0 },
            SourceSpec::VanDerCorput { offset: 0 },
            SourceSpec::VanDerCorput { offset: 9 },
            SourceSpec::Halton { base: 3, offset: 0 },
            SourceSpec::Halton { base: 7, offset: 4 },
            SourceSpec::Sobol { dimension: 1 },
            SourceSpec::Sobol { dimension: 8 },
            SourceSpec::Counter {
                modulus: 256,
                phase: 0,
            },
            SourceSpec::Counter {
                modulus: 100,
                phase: 311,
            },
        ];
        for spec in &specs {
            for len in [1usize, 63, 64, 65, 1000] {
                for skip in [0u64, 1, 255, 256, 70_001] {
                    assert_eq!(
                        filled(spec, skip, len),
                        stepped(spec, skip, len),
                        "{spec} skip={skip} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn lfsr_period_table_windows_match_stepping_at_every_width() {
        for width in 3..=TABLE_MAX_WIDTH {
            let period = (1u64 << width) - 1;
            for seed in [1, period] {
                let spec = SourceSpec::Lfsr { width, seed };
                for skip in [0, 1, period - 1, period, 3 * period + 5] {
                    for len in [1usize, 63, 64, 65, 1000] {
                        let window = spec.table_window(skip, len).expect("table-backed width");
                        assert_eq!(window.period, period);
                        let p = window.period as f64;
                        let from_table: Vec<f64> = window
                            .numerators
                            .iter()
                            .map(|&m| f64::from(m) / p)
                            .collect();
                        let expected = stepped(&spec, skip, len);
                        assert_eq!(
                            from_table, expected,
                            "width {width} seed {seed} skip={skip} len={len}"
                        );
                        assert_eq!(filled(&spec, skip, len), expected, "width {width}");
                    }
                }
            }
        }
    }

    #[test]
    fn table_window_bounds_decide_comparisons_exactly() {
        for width in [3u32, 8, 16] {
            let spec = SourceSpec::Lfsr { width, seed: 5 };
            let window = spec.table_window(11, 300).expect("table-backed width");
            let samples = stepped(&spec, 11, 300);
            let mut targets = vec![0.0, -0.0, 0.5, 1.0, -1.0, 2.0, f64::NAN, 1e-300];
            for &u in &samples {
                targets.extend([u, u.next_up(), u.next_down()]);
            }
            for t in targets {
                let bound = window.bound(t);
                for (&m, &u) in window.numerators.iter().zip(&samples) {
                    assert_eq!(m < bound, u < t, "width {width} t {t:e} m {m}");
                }
            }
        }
        // Samples `k / period` are strictly increasing in `k`, so the exact
        // bound of a sample is its own numerator, and one ulp above it the
        // next one — checked for every numerator of every tabulated width.
        for width in 3..=TABLE_MAX_WIDTH {
            let window = SourceSpec::Lfsr { width, seed: 1 }
                .table_window(0, 1)
                .unwrap();
            let p = window.period as f64;
            for k in 0..window.period {
                let u = k as f64 / p;
                let k = k as u16;
                assert_eq!(window.bound(u), k, "width {width}");
                assert_eq!(window.bound(u.next_up()), k + 1, "width {width}");
                assert_eq!(window.bound(u.next_down()), k, "width {width}");
            }
        }
        assert!(SourceSpec::Lfsr { width: 17, seed: 1 }
            .table_window(0, 4)
            .is_none());
        assert!(SourceSpec::Sobol { dimension: 1 }
            .table_window(0, 4)
            .is_none());
    }

    #[test]
    fn table_windows_borrow_unless_they_wrap() {
        let spec = SourceSpec::Lfsr { width: 4, seed: 1 };
        let inside = spec.table_window(0, 14).unwrap();
        assert!(matches!(inside.numerators, Cow::Borrowed(_)));
        let wrapped = spec.table_window(3, 40).unwrap();
        assert!(matches!(wrapped.numerators, Cow::Owned(_)));
        assert_eq!(wrapped.period, 15);
        let expected: Vec<f64> = stepped(&spec, 3, 40);
        let got: Vec<f64> = wrapped
            .numerators
            .iter()
            .map(|&m| f64::from(m) / 15.0)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn lfsr_period_table_is_built_at_most_once_per_width() {
        // Other tests may draw width 9 concurrently, so only "at most once"
        // is deterministic here; afterwards the table is always reused.
        let spec = SourceSpec::Lfsr { width: 9, seed: 3 };
        let builds: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|skip| {
                    let spec = spec.clone();
                    scope.spawn(move || spec.table_window(skip, 4).unwrap().built)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| usize::from(h.join().unwrap()))
                .sum()
        });
        assert!(builds <= 1, "{builds} concurrent builds of one table");
        assert!(!spec.table_window(7, 4).unwrap().built);
    }

    #[test]
    fn gate_models_cover_families() {
        assert_eq!(
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1
            }
            .gate_model()
            .state_bits,
            16
        );
        assert_eq!(
            SourceSpec::VanDerCorput { offset: 0 }
                .gate_model()
                .state_bits,
            16
        );
        assert_eq!(
            SourceSpec::Sobol { dimension: 1 }.gate_model().state_bits,
            32
        );
        assert_eq!(
            SourceSpec::Counter {
                modulus: 256,
                phase: 0
            }
            .gate_model()
            .state_bits,
            8
        );
        assert_eq!(
            SourceSpec::Counter {
                modulus: 1,
                phase: 0
            }
            .gate_model()
            .state_bits,
            1
        );
        assert!(
            SourceSpec::Halton { base: 3, offset: 0 }
                .gate_model()
                .sequential
        );
    }

    #[test]
    fn display_labels() {
        assert!(SourceSpec::Sobol { dimension: 2 }
            .to_string()
            .contains("Sobol-2"));
        assert!(SourceSpec::Halton { base: 7, offset: 1 }
            .to_string()
            .contains("Halton-7"));
    }
}
