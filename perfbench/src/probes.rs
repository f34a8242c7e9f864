//! Layer probes: calls into one layer's public functions at the workload's
//! configuration, timed from the benchmark's side.
//!
//! * [`kernel_probes`] time the word kernels of `sc_rng`, `sc_convert`,
//!   `sc_arith` and `sc_core` at the workload's stream length. Before timing,
//!   each probe's output is checked against the retained references
//!   (`sc_bitstream::reference` or the bit-serial path), so a probe never
//!   times wrong code.
//! * [`layer_probe`] walks the workload's input images tile by tile through
//!   `sc_image::tile_graph`, `TilePlanner::plan_tile`, `Graph::compile`,
//!   `Executor::run` (one thread) and `scatter_sinks`, and checks every
//!   assembled image against its reference.

use crate::stats::median;
use sc_arith::add::half_select_stream;
use sc_bitstream::{reference, Bitstream, Probability};
use sc_convert::{DigitalToStochastic, Regenerator};
use sc_core::{CorrelationManipulator, Synchronizer};
use sc_graph::Executor;
use sc_image::{
    planner_options, scatter_sinks, tile_graph, tile_origins, GrayImage, PipelineConfig,
    PipelineStats, PipelineVariant, TilePlanner,
};
use sc_rng::{Lfsr, RandomSource, Sobol, SourceSpec, VanDerCorput};
use sc_telemetry::TelemetrySink;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per unit of `f`, which does `units` units of work per call:
/// the median of five samples, each calibrated to run for at least 20 ms.
fn ns_per_unit<F: FnMut()>(units: usize, mut f: F) -> f64 {
    let mut reps = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let ns = start.elapsed().as_nanos() as u64;
        if ns >= 20_000_000 || reps >= 1 << 24 {
            break;
        }
        reps = (reps * 20_000_000 / ns.max(1)).clamp(reps + 1, reps * 16);
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_nanos() as f64 / (reps as f64 * units as f64)
        })
        .collect();
    median(&samples)
}

/// The bit-serial D/S comparator: one `target > sample` per bit.
fn generate_bit_serial(source: &mut dyn RandomSource, p: f64, n: usize) -> Bitstream {
    Bitstream::from_bools((0..n).map(|_| p > source.next_unit()))
}

/// Kernel costs at one stream length, in nanoseconds per sample or bit.
#[derive(Debug, Clone, Default)]
pub struct KernelCosts {
    pub lfsr16_ns_per_sample: f64,
    pub sobol_ns_per_sample: f64,
    pub generate_ns_per_bit: f64,
    pub regenerate_ns_per_bit: f64,
    pub mux_add_ns_per_bit: f64,
    pub xor_subtract_ns_per_bit: f64,
    pub synchronizer_ns_per_bit: f64,
}

/// Checks and times the word kernels at stream length `n`.
///
/// # Errors
///
/// Names the first kernel whose output differs from its reference.
pub fn kernel_probes(n: usize) -> Result<KernelCosts, String> {
    const LFSR_SEED: u64 = 0xACE1;
    const SOBOL_DIMENSION: u32 = 2;

    // sc_rng: the concrete sources match the spec-built sources the
    // executor uses; the 16-bit LFSR runs its full period of distinct
    // states; and, when n is a power of two, Sobol points 0..n stratify
    // [0, 1) into n cells. The Gray-code source never returns point 0
    // (the origin), so its first n - 1 samples fill the other n - 1 cells.
    let mut lfsr = Lfsr::new(16, LFSR_SEED);
    let mut lfsr_spec = SourceSpec::Lfsr {
        width: 16,
        seed: LFSR_SEED,
    }
    .build();
    let mut seen = vec![false; 1 << 16];
    for _ in 0..(1 << 16) - 1 {
        let v = lfsr.next_unit();
        if v.to_bits() != lfsr_spec.next_unit().to_bits() {
            return Err("lfsr16 differs from its spec-built source".into());
        }
        let slot = (v * 65_535.0).round() as usize;
        if seen[slot] {
            return Err("lfsr16 repeats a state inside its period".into());
        }
        seen[slot] = true;
    }
    let mut sobol = Sobol::new(SOBOL_DIMENSION);
    let mut sobol_spec = SourceSpec::Sobol {
        dimension: SOBOL_DIMENSION,
    }
    .build();
    let mut cells = vec![false; n];
    cells[0] = true;
    for i in 0..n {
        let v = sobol.next_unit();
        if v.to_bits() != sobol_spec.next_unit().to_bits() {
            return Err("sobol differs from its spec-built source".into());
        }
        let cell = (v * n as f64) as usize;
        if n.is_power_of_two() && i + 1 < n && std::mem::replace(&mut cells[cell], true) {
            return Err("sobol samples do not stratify [0, 1)".into());
        }
    }

    // sc_convert and sc_arith inputs: two generated streams and a select.
    let x = DigitalToStochastic::new(Sobol::new(1))
        .generate(Probability::new(0.7).expect("0.7 is a probability"), n);
    let y = DigitalToStochastic::new(Sobol::new(1))
        .generate(Probability::new(0.4).expect("0.4 is a probability"), n);
    let select = half_select_stream(&mut Lfsr::new(16, LFSR_SEED), n);
    let p = Probability::new(0.6).expect("0.6 is a probability");

    let mut gen = DigitalToStochastic::new(Sobol::new(SOBOL_DIMENSION));
    if gen.generate(p, n) != generate_bit_serial(&mut Sobol::new(SOBOL_DIMENSION), p.get(), n) {
        return Err("generate differs from the bit-serial comparator".into());
    }
    let mut regen = Regenerator::new(VanDerCorput::new());
    let ones = reference::count_ones(&x) as u64;
    let regen_ref = generate_bit_serial(
        &mut VanDerCorput::new(),
        Probability::from_ratio(ones, n as u64).get(),
        n,
    );
    if regen.regenerate(&x) != regen_ref {
        return Err("regenerate differs from count-then-generate bit-serially".into());
    }
    let mux = sc_arith::mux_add(&x, &y, &select).map_err(|e| e.to_string())?;
    if mux != reference::mux(&y, &x, &select).map_err(|e| e.to_string())? {
        return Err("mux_add differs from sc_bitstream::reference::mux".into());
    }
    let xor = sc_arith::xor_subtract(&x, &y).map_err(|e| e.to_string())?;
    if xor != reference::xor(&x, &y).map_err(|e| e.to_string())? {
        return Err("xor_subtract differs from sc_bitstream::reference::xor".into());
    }
    let mut sync = Synchronizer::new(2);
    let (sx, sy) = sync.process(&x, &y).map_err(|e| e.to_string())?;
    let mut serial = Synchronizer::new(2);
    let pairs: Vec<(bool, bool)> = (0..n).map(|i| serial.step(x.bit(i), y.bit(i))).collect();
    if sx != Bitstream::from_bools(pairs.iter().map(|p| p.0))
        || sy != Bitstream::from_bools(pairs.iter().map(|p| p.1))
    {
        return Err("synchronizer word kernel differs from its bit-serial steps".into());
    }

    Ok(KernelCosts {
        lfsr16_ns_per_sample: ns_per_unit(n, || {
            lfsr.reset();
            let mut acc = 0.0;
            for _ in 0..n {
                acc += lfsr.next_unit();
            }
            black_box(acc);
        }),
        sobol_ns_per_sample: ns_per_unit(n, || {
            sobol.reset();
            let mut acc = 0.0;
            for _ in 0..n {
                acc += sobol.next_unit();
            }
            black_box(acc);
        }),
        generate_ns_per_bit: ns_per_unit(n, || {
            gen.reset();
            black_box(gen.generate(black_box(p), n));
        }),
        regenerate_ns_per_bit: ns_per_unit(n, || {
            regen.reset();
            black_box(regen.regenerate(black_box(&x)));
        }),
        mux_add_ns_per_bit: ns_per_unit(n, || {
            black_box(sc_arith::mux_add(black_box(&x), &y, &select).expect("equal lengths"));
        }),
        xor_subtract_ns_per_bit: ns_per_unit(n, || {
            black_box(sc_arith::xor_subtract(black_box(&x), &y).expect("equal lengths"));
        }),
        synchronizer_ns_per_bit: ns_per_unit(n, || {
            sync.reset();
            black_box(sync.process(black_box(&x), &y).expect("equal lengths"));
        }),
    })
}

/// Per-call samples of the planning, compile, execute and assemble layers.
#[derive(Debug, Clone, Default)]
pub struct LayerSamples {
    /// `TilePlanner::plan_tile` calls served from the plan cache.
    pub plan_hit_us: Vec<f64>,
    /// `TilePlanner::plan_tile` calls that compiled a new tile class.
    pub plan_miss_ms: Vec<f64>,
    /// `sc_image::tile_graph` calls.
    pub tile_graph_us: Vec<f64>,
    /// `Graph::compile` with the variant's planner options, once per class
    /// (median of three compiles).
    pub compile_ms: Vec<f64>,
    /// Steps in each compiled class plan.
    pub steps_per_plan: Vec<f64>,
    /// `Executor::run` of one planned tile on one thread.
    pub tile_run_us: Vec<f64>,
    /// `scatter_sinks` of one whole image.
    pub scatter_us: Vec<f64>,
    /// Images whose probe-assembled output differed from the reference.
    pub mismatches: usize,
}

/// Walks every pool image through the layers one call at a time, with one
/// planner shared across the pool (the first image of each class misses,
/// the rest hit), and checks each assembled image against `references`.
#[must_use]
pub fn layer_probe(
    variant: PipelineVariant,
    config: &PipelineConfig,
    pool: &[GrayImage],
    references: &[GrayImage],
) -> LayerSamples {
    let mut out = LayerSamples::default();
    let mut planner = TilePlanner::new(variant, config.clone());
    let mut stats = PipelineStats::default();
    let executor = Executor::new(config.stream_length);
    let options = planner_options(variant, config);
    let disabled = TelemetrySink::disabled();
    for (image, reference) in pool.iter().zip(references) {
        let origins = tile_origins(image, config.tile_size);
        let mut sinks = Vec::with_capacity(origins.len());
        let mut results = Vec::with_capacity(origins.len());
        for (i, &(x0, y0)) in origins.iter().enumerate() {
            let t = Instant::now();
            let tile = black_box(tile_graph(image, x0, y0, variant, config, i as u64));
            out.tile_graph_us.push(t.elapsed().as_secs_f64() * 1e6);

            let compiled_before = stats.compilations;
            let t = Instant::now();
            let planned = planner.plan_tile(image, x0, y0, i as u64, &mut stats);
            let plan_s = t.elapsed().as_secs_f64();
            if stats.compilations > compiled_before {
                out.plan_miss_ms.push(plan_s * 1e3);
                out.steps_per_plan.push(planned.plan.step_count() as f64);
                let compiles: Vec<f64> = (0..3)
                    .map(|_| {
                        let t = Instant::now();
                        black_box(tile.graph.compile(&options).expect("tile graphs compile"));
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                out.compile_ms.push(median(&compiles));
            } else {
                out.plan_hit_us.push(plan_s * 1e6);
            }

            let t = Instant::now();
            let result = executor
                .run(&planned.plan, &planned.input)
                .expect("tile plans execute over their own input");
            out.tile_run_us.push(t.elapsed().as_secs_f64() * 1e6);
            sinks.push(planned.sinks);
            results.push(result);
        }
        let mut assembled = GrayImage::filled(image.width(), image.height(), 0.0);
        let t = Instant::now();
        scatter_sinks(&mut assembled, &sinks, &results, &disabled);
        out.scatter_us.push(t.elapsed().as_secs_f64() * 1e6);
        if crate::inputs::image_digest(&assembled) != crate::inputs::image_digest(reference) {
            out.mismatches += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_match_their_references_at_short_and_long_lengths() {
        for n in [32, 256] {
            let costs = kernel_probes(n).expect("kernels match their references");
            assert!(costs.lfsr16_ns_per_sample > 0.0);
            assert!(costs.synchronizer_ns_per_bit > 0.0);
        }
    }

    #[test]
    fn layer_probe_reassembles_the_reference_image() {
        let config = PipelineConfig::quick();
        let pool = crate::inputs::image_pool(&[(14, 12)], 2, 5);
        for variant in [PipelineVariant::Synchronizer, PipelineVariant::Regeneration] {
            let references: Vec<GrayImage> = pool
                .iter()
                .map(|img| {
                    sc_image::run_sc_pipeline_with_threads(img, variant, &config, 1)
                        .expect("quick config runs")
                        .0
                })
                .collect();
            let samples = layer_probe(variant, &config, &pool, &references);
            assert_eq!(samples.mismatches, 0);
            assert!(!samples.plan_miss_ms.is_empty());
            assert!(!samples.plan_hit_us.is_empty());
            assert_eq!(samples.compile_ms.len(), samples.plan_miss_ms.len());
            assert_eq!(samples.scatter_us.len(), pool.len());
        }
    }
}
