//! Value-independent sample draws and the word builders that consume them.
//!
//! Every random sample a plan consumes depends only on `(SourceSpec, skip,
//! length)`, never on the data: the hardware shares one generator across
//! many D/S converters and MUX selects (§II.B), and the plan expresses that
//! sharing as one source-table entry drawn at different skips. The executor
//! therefore draws each sample window without a live source — a slice of a
//! process-wide LFSR period table ([`SourceSpec::table_window`]) or one
//! batched [`SourceSpec::fill_samples`] call, memoized per job — and builds
//! output streams a 64-bit word at a time by *comparing* samples against
//! bounds instead of walking a source bit by bit.

use sc_bitstream::{Bitstream, WORD_BITS};
use sc_rng::{SourceSpec, TableWindow};
use sc_telemetry::{Counter, TelemetrySink};
use std::collections::HashMap;
use std::rc::Rc;

/// One job's memo of drawn sample windows, keyed `(source, skip, length)`
/// where `source` indexes the plan's source table, and of weighted-MUX
/// select thresholds; dropped with the job. One memo serves one job on one
/// plan, so an index names one spec for the memo's whole life.
///
/// Table-backed LFSR windows — every MUX select in the `sc_image` tiles —
/// need no memo: they are slices of the shared period table. Every other
/// family is filled into `f64`s once per job; within one tile the
/// `Generate` nodes of every pixel share a handful of Sobol sequences, so
/// most of their draws are hits.
#[derive(Default)]
pub(crate) struct SampleMemo {
    windows: HashMap<WindowKey, Box<[f64]>>,
    /// One entry per distinct weight vector; a tile's blur kernels all
    /// share one.
    thresholds: Vec<ThresholdEntry>,
    hits: u64,
    misses: u64,
    table_builds: u64,
}

/// A sample window's identity: `(source index, skip, length)`.
type WindowKey = (usize, u64, usize);

/// A weight vector's bit patterns and its select thresholds.
type ThresholdEntry = (Box<[u64]>, Rc<[f64]>);

/// One drawn sample window.
pub(crate) enum Window<'a> {
    /// Exact unit samples.
    Units(&'a [f64]),
    /// Integer numerators of a table-backed LFSR.
    Table(TableWindow),
}

impl SampleMemo {
    /// The [`select_thresholds`] of `weights`, bisected once per job and
    /// weight vector.
    pub(crate) fn thresholds(&mut self, weights: &[f64]) -> Rc<[f64]> {
        let bits = weights.iter().map(|w| w.to_bits());
        if let Some((_, t)) = self
            .thresholds
            .iter()
            .find(|(key, _)| key.iter().copied().eq(bits.clone()))
        {
            return Rc::clone(t);
        }
        let t: Rc<[f64]> = select_thresholds(weights).into();
        self.thresholds.push((bits.collect(), Rc::clone(&t)));
        t
    }

    /// The `len` samples of `spec` — entry `source` of the plan's source
    /// table — that follow its first `skip`.
    pub(crate) fn window(
        &mut self,
        source: usize,
        spec: &SourceSpec,
        skip: u64,
        len: usize,
    ) -> Window<'_> {
        if let Some(window) = spec.table_window(skip, len) {
            self.table_builds += u64::from(window.built);
            return Window::Table(window);
        }
        let (hits, misses) = (&mut self.hits, &mut self.misses);
        let units = self
            .windows
            .entry((source, skip, len))
            .and_modify(|_| *hits += 1)
            .or_insert_with(|| {
                *misses += 1;
                let mut units = vec![0.0; len].into_boxed_slice();
                spec.fill_samples(skip, &mut units);
                units
            });
        Window::Units(units)
    }

    /// Reports this job's hit, miss and period-table-build tallies — once
    /// per job, so the disabled-sink cost stays one branch per job.
    pub(crate) fn flush(&self, telemetry: &TelemetrySink) {
        telemetry.add(Counter::SampleMemoHits, self.hits);
        telemetry.add(Counter::SampleMemoMisses, self.misses);
        telemetry.add(Counter::PeriodTableBuilds, self.table_builds);
    }
}

impl Window<'_> {
    /// The stream whose bit `i` is `sample_i < t` — a D/S conversion of `t`
    /// (the comparator emits 1 while the target exceeds the sample), or a
    /// MUX select at `t = 0.5`.
    pub(crate) fn below(&self, t: f64) -> Bitstream {
        match self {
            Window::Units(units) => below_words(units, t),
            Window::Table(table) => below_words(&table.numerators, table.bound(t)),
        }
    }

    /// The weighted MUX gather: output bit `i` is bit `i` of the input the
    /// select walk picks for sample `i`, given the walk's
    /// [`select_thresholds`]. Per 64 cycles the threshold comparisons give
    /// nested "selects at least `k`" masks, and the output word is one
    /// AND-OR per input over the packed words.
    ///
    /// The caller guarantees `inputs` are non-empty and all as long as the
    /// window, with `thresholds.len() == inputs.len() − 1`.
    pub(crate) fn gather(&self, inputs: &[&Bitstream], thresholds: &[f64]) -> Bitstream {
        debug_assert_eq!(thresholds.len() + 1, inputs.len());
        match self {
            Window::Units(units) => gather_words(units, thresholds, inputs),
            Window::Table(table) => {
                let bounds: Vec<u16> = thresholds.iter().map(|&t| table.bound(t)).collect();
                gather_words(&table.numerators, &bounds, inputs)
            }
        }
    }
}

/// Packs `bit(k)` of up to 64 samples into one word (sample `i` → bit `i`).
///
/// A full word is evaluated into 64 bytes first — a branch-free loop the
/// compiler vectorizes — and each 8 bytes of 0/1 are then gathered into one
/// byte by a multiply: byte `j` (value 0 or 1, at bit `8j`) times
/// `0x0102_0408_1020_4080` lands on bit `56 + j` with no carries.
fn pack<K: Copy>(chunk: &[K], bit: impl Fn(K) -> bool) -> u64 {
    let Ok(full) = <&[K; WORD_BITS]>::try_from(chunk) else {
        return chunk
            .iter()
            .enumerate()
            .fold(0u64, |word, (i, &k)| word | (u64::from(bit(k)) << i));
    };
    let bytes: [u8; WORD_BITS] = std::array::from_fn(|i| u8::from(bit(full[i])));
    bytes
        .chunks_exact(8)
        .enumerate()
        .fold(0u64, |word, (j, eight)| {
            let lanes = u64::from_le_bytes(eight.try_into().expect("8-byte chunk"));
            word | ((lanes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j))
        })
}

fn below_words<K: Copy + PartialOrd>(samples: &[K], bound: K) -> Bitstream {
    let words = samples
        .chunks(WORD_BITS)
        .map(|chunk| pack(chunk, |k| k < bound))
        .collect();
    Bitstream::from_words(words, samples.len())
}

fn gather_words<K: Copy + PartialOrd>(
    samples: &[K],
    bounds: &[K],
    inputs: &[&Bitstream],
) -> Bitstream {
    let words = samples
        .chunks(WORD_BITS)
        .enumerate()
        .map(|(w, chunk)| {
            let mut reached = u64::MAX;
            let mut out = 0u64;
            for (input, &bound) in inputs.iter().zip(bounds) {
                let next = pack(chunk, |k| k >= bound);
                out |= input.as_words()[w] & reached & !next;
                reached = next;
            }
            out | (inputs[bounds.len()].as_words()[w] & reached)
        })
        .collect();
    Bitstream::from_words(words, samples.len())
}

/// Whether the weighted MUX tree's sequential select walk, fed sample `u`,
/// passes the first `k` weights (selects an input at index `≥ k`).
///
/// The walk is the reference semantics: input `idx` is selected at the first
/// `idx` with `u < weights[idx]`, subtracting each passed weight from `u`,
/// and any leftover mass falls to the last input.
fn walk_passes(weights: &[f64], k: usize, mut u: f64) -> bool {
    for &w in &weights[..k] {
        if u < w {
            return false;
        }
        u -= w;
    }
    true
}

/// The select thresholds of a weighted MUX tree: entry `k − 1` is the
/// smallest sample that selects an input at index `≥ k`, for `k` in
/// `1..weights.len()`, so the walk selects exactly the number of thresholds
/// a sample reaches.
///
/// Exact for any finite weights and every non-negative sample (all sources
/// emit `[0, 1)`): each residual `u − w₀ − … − wⱼ` of the walk is a monotone
/// function of `u` under f64 rounding, so "passes the first `k` weights" is
/// upward closed in `u` and has one boundary. Non-negative f64 bit patterns
/// order like their values, so the boundary is found by bisecting the bit
/// patterns between `0.0` and `+∞` (which always passes).
pub(crate) fn select_thresholds(weights: &[f64]) -> Vec<f64> {
    (1..weights.len())
        .map(|k| {
            if walk_passes(weights, k, 0.0) {
                return 0.0;
            }
            // Invariant: the walk fails at `lo` and passes at `hi`.
            let (mut lo, mut hi) = (0u64, f64::INFINITY.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if walk_passes(weights, k, f64::from_bits(mid)) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            f64::from_bits(hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_rng::SourceExt;

    /// The reference walk, returning the selected index.
    fn walk(weights: &[f64], mut u: f64) -> usize {
        for (idx, &w) in weights.iter().enumerate() {
            if u < w {
                return idx;
            }
            u -= w;
        }
        weights.len() - 1
    }

    fn by_thresholds(thresholds: &[f64], u: f64) -> usize {
        thresholds.iter().filter(|&&t| u >= t).count()
    }

    fn assert_exact(weights: &[f64]) {
        let thresholds = select_thresholds(weights);
        assert_eq!(thresholds.len(), weights.len() - 1);
        let mut probes = vec![0.0, 0.5, 1.0 - f64::EPSILON, 1.0, 7.5];
        for &t in &thresholds {
            probes.extend([t, t.next_up(), t.next_down()]);
        }
        probes.extend(weights.iter().copied());
        // Samples are never negative.
        for u in probes.into_iter().filter(|&u| u >= 0.0) {
            assert_eq!(
                by_thresholds(&thresholds, u),
                walk(weights, u),
                "weights {weights:?} u {u:e} thresholds {thresholds:?}"
            );
        }
    }

    #[test]
    fn gaussian_weights_thresholds_are_exact() {
        let gaussian = [
            1.0 / 16.0,
            2.0 / 16.0,
            1.0 / 16.0,
            2.0 / 16.0,
            4.0 / 16.0,
            2.0 / 16.0,
            1.0 / 16.0,
            2.0 / 16.0,
            1.0 / 16.0,
        ];
        assert_exact(&gaussian);
        // Non-dyadic weights make the residuals round.
        assert_exact(&[0.1, 0.2, 0.3, 0.15, 0.25]);
        assert_exact(&[1.0 / 3.0; 3]);
    }

    #[test]
    fn degenerate_weight_vectors() {
        assert_eq!(select_thresholds(&[0.7]), Vec::<f64>::new());
        assert_exact(&[0.0, 0.0, 1.0]);
        assert_exact(&[0.0, 0.5, 0.0, 0.5]);
        assert_exact(&[2.0, 3.0]);
        assert_exact(&[0.1, 0.1]);
        assert_exact(&[-0.25, 0.5, 0.75]);
    }

    fn units(window: Window<'_>) -> Vec<f64> {
        match window {
            Window::Units(units) => units.to_vec(),
            Window::Table(table) => table
                .numerators
                .iter()
                .map(|&m| f64::from(m) / table.period as f64)
                .collect(),
        }
    }

    #[test]
    fn memo_reuses_windows_and_counts() {
        let spec = SourceSpec::Sobol { dimension: 3 };
        let mut memo = SampleMemo::default();
        let first = units(memo.window(0, &spec, 0, 65));
        assert_eq!(first, spec.build_skipped(0).take_units(65));
        assert_eq!(units(memo.window(0, &spec, 0, 65)), first);
        let _ = memo.window(0, &spec, 1, 65);
        let _ = memo.window(0, &spec, 0, 64);
        // Table-backed LFSR windows bypass the memo.
        let lfsr = SourceSpec::Lfsr {
            width: 16,
            seed: 0xACE1,
        };
        assert_eq!(
            units(memo.window(1, &lfsr, 9, 100)),
            lfsr.build_skipped(9).take_units(100)
        );
        assert_eq!((memo.hits, memo.misses), (1, 3));
        let sink = TelemetrySink::new();
        memo.flush(&sink);
        let report = sink.drain();
        assert_eq!(report.counter(Counter::SampleMemoHits), 1);
        assert_eq!(report.counter(Counter::SampleMemoMisses), 3);
    }

    /// Both window kinds against the bit-serial comparator and the
    /// sequential walk, for one source of each kind.
    #[test]
    fn word_builders_match_bit_serial_semantics() {
        let weights = [0.1, 0.25, 0.0, 0.3, 0.2, 0.15];
        let thresholds = select_thresholds(&weights);
        for spec in [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0x1D0D,
            },
            SourceSpec::Halton { base: 3, offset: 2 },
        ] {
            for len in [0usize, 1, 63, 64, 65, 1000] {
                let mut memo = SampleMemo::default();
                let samples = spec.build_skipped(40).take_units(len);
                let inputs: Vec<Bitstream> = (0..weights.len())
                    .map(|k| Bitstream::from_fn(len, |i| (i * (k + 3) + k) % 5 < 2))
                    .collect();
                let refs: Vec<&Bitstream> = inputs.iter().collect();
                for t in [0.0, 0.3, 0.5, 1.0] {
                    let expected = Bitstream::from_fn(len, |i| t > samples[i]);
                    assert_eq!(
                        memo.window(0, &spec, 40, len).below(t),
                        expected,
                        "{spec} {len}"
                    );
                }
                let expected =
                    Bitstream::from_fn(len, |i| inputs[walk(&weights, samples[i])].bit(i));
                assert_eq!(
                    memo.window(0, &spec, 40, len).gather(&refs, &thresholds),
                    expected,
                    "{spec} {len}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_thresholds_match_the_sequential_walk(
            raw in proptest::collection::vec((0u8..4, -2.0f64..2.0), 1..12),
            extra in proptest::collection::vec(0.0f64..1.5, 0..16),
        ) {
            // Mix zero weights, unit-interval weights, arbitrary finite
            // weights and non-dyadic thirds; the sums are rarely one.
            let weights: Vec<f64> = raw
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 0.0,
                    1 => x.abs() / 2.0,
                    2 => x,
                    _ => 1.0 / 3.0,
                })
                .collect();
            assert_exact(&weights);
            let thresholds = select_thresholds(&weights);
            for u in extra {
                prop_assert_eq!(by_thresholds(&thresholds, u), walk(&weights, u));
            }
        }
    }
}
