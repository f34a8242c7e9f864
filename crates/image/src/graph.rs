//! The tiled GB→ED accelerator expressed as `sc_graph` dataflow graphs.
//!
//! Since the graph subsystem landed, this module is the *primary*
//! implementation of the stochastic pipeline: [`crate::run_sc_pipeline`] is a
//! thin wrapper that builds one graph per tile with [`tile_graph`], compiles
//! it with the variant's [`planner_options`], and executes it. The hand-rolled
//! per-tile loop it replaced is retained in this module's tests as the
//! bit-identity reference.
//!
//! The translation is exact, not approximate:
//!
//! * each haloed input pixel becomes a `Generate` node whose Sobol dimension
//!   is chosen by the same bank-assignment rule as before
//!   ([`pixel_bank_index`]);
//! * each blurred pixel becomes a 9-way `WeightedMux` node. The hardware
//!   shares one select LFSR across the tile's blur kernels, which the graph
//!   expresses by giving the `k`-th kernel the same [`SourceSpec`] advanced
//!   by `k·N` samples ([`sc_rng::SourceSpec::build_skipped`]) — bit-identical
//!   to streaming the kernels sequentially off one source. Positioning costs
//!   nothing: the executor reads each kernel's window straight out of the
//!   16-bit LFSR's process-wide period table
//!   ([`sc_rng::SourceSpec::table_window`]), so a tile's select cost is
//!   linear in kernels;
//! * the regeneration variant inserts explicit `Regenerate` nodes, whose
//!   equal source specs the planner recognises as producing positively
//!   correlated outputs — so it leaves the XOR subtractors alone;
//! * the synchronizer variant inserts **nothing by hand**: the XOR
//!   subtractors declare their SCC +1 precondition and the planner
//!   auto-inserts a depth-`config.synchronizer_depth` synchronizer in front
//!   of each one, reproducing Fig. 5 automatically;
//! * the no-manipulation variant compiles with auto-repair off, which leaves
//!   the precondition violations in the compile report (and the accuracy loss
//!   in the output — Table IV's first column).

use crate::gaussian::GAUSSIAN_WEIGHTS;
use crate::image::GrayImage;
use crate::pipeline::{PipelineConfig, PipelineVariant};
use sc_graph::{BatchInput, BinaryOp, Graph, PlannerOptions, Wire};
use sc_rng::SourceSpec;
use std::collections::BTreeMap;

/// Assigns a source-bank entry to an input pixel so that horizontally and
/// vertically adjacent pixels draw from different (mutually uncorrelated)
/// Sobol dimensions.
#[must_use]
pub fn pixel_bank_index(px: isize, py: isize, config: &PipelineConfig) -> u32 {
    let bank = config.rng_bank_size.clamp(1, 8);
    (((px.rem_euclid(4) as usize) + 4 * (py.rem_euclid(2) as usize)) % bank) as u32
}

/// The select-LFSR seed of a tile's Gaussian-blur kernels.
#[must_use]
pub fn blur_select_seed(tile_index: u64) -> u64 {
    0xACE1 ^ (tile_index.wrapping_mul(2654435761) & 0xFFFF).max(1)
}

/// The select-LFSR seed of a tile's edge-detector MUX adders.
#[must_use]
pub fn edge_select_seed(tile_index: u64) -> u64 {
    0x7331 ^ (tile_index.wrapping_mul(40503) & 0xFFFF).max(1)
}

/// The planner configuration of each accelerator variant.
///
/// * [`PipelineVariant::NoManipulation`] — auto-repair off: precondition
///   violations are reported, not fixed.
/// * [`PipelineVariant::Regeneration`] — auto-repair on but structurally
///   idle: the regenerated streams satisfy the XORs' +1 precondition.
/// * [`PipelineVariant::Synchronizer`] — auto-repair on with the variant's
///   save depth: the planner inserts one synchronizer per XOR subtractor.
#[must_use]
pub fn planner_options(variant: PipelineVariant, config: &PipelineConfig) -> PlannerOptions {
    match variant {
        PipelineVariant::NoManipulation => PlannerOptions {
            passes: config.passes,
            ..PlannerOptions::no_repair()
        },
        PipelineVariant::Regeneration | PipelineVariant::Synchronizer => PlannerOptions {
            synchronizer_depth: config.synchronizer_depth,
            passes: config.passes,
            ..PlannerOptions::default()
        },
    }
}

/// The planner configuration of a tile compiled under **measured-SCC
/// feedback** ([`PipelineConfig::measure_scc`]): structurally-unknown input
/// pairs (the edge detector's XOR subtractors fed by Gaussian-blur MUX
/// outputs) are probed with a short execution whose `Generate` stimulus is
/// `probe_value` — the tile's mean pixel value, the real batch statistic
/// the ROADMAP calls for — instead of the maximum-entropy 0.5 default.
#[must_use]
pub fn measured_planner_options(
    variant: PipelineVariant,
    config: &PipelineConfig,
    probe_value: f64,
) -> PlannerOptions {
    PlannerOptions {
        measure_unknown: Some(config.measure_scc.unwrap_or(config.stream_length).max(1)),
        probe_value,
        ..planner_options(variant, config)
    }
}

/// Mean of a tile's input pixel values — the representative batch statistic
/// fed to the measured-SCC probe as its stimulus. Returns 0.5 (the
/// maximum-entropy default) for an input with no values.
#[must_use]
pub fn tile_mean(input: &BatchInput) -> f64 {
    if input.values.is_empty() {
        0.5
    } else {
        input.values.iter().sum::<f64>() / input.values.len() as f64
    }
}

/// A built tile graph: the graph itself, the batch item carrying the tile's
/// input pixel values, and the `(x, y, sink name)` triple of every output
/// pixel.
#[derive(Debug, Clone)]
pub struct TileGraph {
    /// The dataflow graph of the tile.
    pub graph: Graph,
    /// The input values feeding the tile's `Generate` nodes.
    pub input: BatchInput,
    /// Output pixel coordinates and their sink names.
    pub sinks: Vec<(usize, usize, String)>,
}

/// Builds the dataflow graph of one tile whose top-left corner is `(x0, y0)`.
#[must_use]
pub fn tile_graph(
    image: &GrayImage,
    x0: usize,
    y0: usize,
    variant: PipelineVariant,
    config: &PipelineConfig,
    tile_index: u64,
) -> TileGraph {
    let tile = config.tile_size;
    let n = config.stream_length as u64;
    let x_end = (x0 + tile).min(image.width());
    let y_end = (y0 + tile).min(image.height());
    let mut g = Graph::new();
    let mut input = BatchInput::new();

    // 1. Input pixel streams for the haloed region: GB needs one extra ring,
    //    the ED needs GB outputs one past the tile edge, so the input halo is
    //    two pixels wide on the high side and one on the low side.
    let mut inputs: BTreeMap<(isize, isize), Wire> = BTreeMap::new();
    for py in (y0 as isize - 1)..=(y_end as isize + 1) {
        for px in (x0 as isize - 1)..=(x_end as isize + 1) {
            let slot = input.values.len();
            input.values.push(image.get_clamped(px, py));
            let dimension = pixel_bank_index(px, py, config) + 1;
            let wire = g.generate(slot, SourceSpec::Sobol { dimension });
            inputs.insert((px, py), wire);
        }
    }

    // 2. Gaussian blur for every pixel the edge detector will touch. One
    //    select LFSR is shared across the tile's kernels in raster order,
    //    expressed as per-node skips of N samples each.
    let blur_spec = SourceSpec::Lfsr {
        width: 16,
        seed: blur_select_seed(tile_index),
    };
    let mut blurred: BTreeMap<(isize, isize), Wire> = BTreeMap::new();
    let mut kernel_index = 0u64;
    for gy in (y0 as isize)..=(y_end as isize) {
        for gx in (x0 as isize)..=(x_end as isize) {
            let mut neighbours: Vec<Wire> = Vec::with_capacity(9);
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let key = (
                        (gx + dx).clamp(x0 as isize - 1, x_end as isize + 1),
                        (gy + dy).clamp(y0 as isize - 1, y_end as isize + 1),
                    );
                    neighbours.push(inputs[&key]);
                }
            }
            let wire = g.weighted_mux_skipped(
                &neighbours,
                &GAUSSIAN_WEIGHTS,
                blur_spec.clone(),
                kernel_index * n,
            );
            blurred.insert((gx, gy), wire);
            kernel_index += 1;
        }
    }

    // 3. Regeneration variant: re-encode every blurred stream from a fresh
    //    instance of one shared sample sequence (§II.B). The planner sees
    //    the equal specs and derives SCC +1 for every regenerated pair.
    if variant == PipelineVariant::Regeneration {
        for wire in blurred.values_mut() {
            *wire = g.regenerate(SourceSpec::VanDerCorput { offset: 0 }, *wire);
        }
    }

    // 4. Roberts cross for every tile pixel: two XOR subtractors feeding a
    //    MUX scaled adder whose select LFSR is shared in raster order. The
    //    XORs' SCC +1 precondition is the planner's problem, not ours.
    let select_spec = SourceSpec::Lfsr {
        width: 16,
        seed: edge_select_seed(tile_index),
    };
    let mut sinks = Vec::new();
    let mut pixel_index = 0u64;
    for y in y0..y_end {
        for x in x0..x_end {
            let clamp_key = |px: isize, py: isize| {
                (
                    px.clamp(x0 as isize, x_end as isize),
                    py.clamp(y0 as isize, y_end as isize),
                )
            };
            let a = blurred[&clamp_key(x as isize, y as isize)];
            let b = blurred[&clamp_key(x as isize + 1, y as isize)];
            let c = blurred[&clamp_key(x as isize, y as isize + 1)];
            let d = blurred[&clamp_key(x as isize + 1, y as isize + 1)];
            let diagonal = g.binary(BinaryOp::XorSubtract, a, d);
            let anti = g.binary(BinaryOp::XorSubtract, b, c);
            let z = g.mux_add_skipped(diagonal, anti, select_spec.clone(), pixel_index * n);
            // Tile-relative sink names, so tiles of equal shape build
            // *identical* graphs up to their select-LFSR seeds and one
            // compiled plan can be cached and retargeted across them.
            let name = format!("edge_{}_{}", x - x0, y - y0);
            g.sink_value(name.clone(), z);
            sinks.push((x, y, name));
            pixel_index += 1;
        }
    }

    TileGraph {
        graph: g,
        input,
        sinks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_sc_pipeline;
    use sc_graph::Executor;

    #[test]
    fn tile_graph_shape() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::Synchronizer, &config, 0);
        let t = config.tile_size;
        // (t+3)^2 inputs, (t+1)^2 blurs, t^2 × (2 xor + 1 mux + 1 sink)... for
        // an 8x8 image with t = 6 the first tile is full-sized.
        assert_eq!(tg.input.values.len(), (t + 3) * (t + 3));
        assert_eq!(tg.sinks.len(), t * t);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::Synchronizer, &config))
            .unwrap();
        // One synchronizer auto-inserted per XOR subtractor.
        assert_eq!(tg.graph.node_count() + 2 * t * t, plan.ops().len());
        assert_eq!(plan.report().inserted.len(), 2 * t * t);
    }

    /// The planner retargets a cached tile plan by matching the blur and edge
    /// select seeds, which is unambiguous only if they never collide. Both
    /// seeds depend on `tile_index mod 2^16` alone, so all 65,536 residues
    /// cover every tile; the check also holds for the register states the
    /// LFSR starts from (`Lfsr::new` maps seed 0 to 1).
    #[test]
    fn select_seeds_never_collide() {
        let state = |seed: u64| if seed == 0 { 1 } else { seed };
        for r in 0..1u64 << 16 {
            let (blur, edge) = (blur_select_seed(r), edge_select_seed(r));
            assert_eq!(blur, blur_select_seed(r + (0xABCD << 16)));
            assert_eq!(edge, edge_select_seed(r + (0xABCD << 16)));
            assert_ne!(state(blur), state(edge), "tile {r}");
        }
        assert_eq!(blur_select_seed(561), 0);
        assert_eq!(edge_select_seed(34263), 0);
    }

    #[test]
    fn regeneration_needs_no_repair() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::Regeneration, &config, 0);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::Regeneration, &config))
            .unwrap();
        assert!(plan.report().inserted.is_empty());
        assert!(plan.report().unsatisfied.is_empty());
    }

    #[test]
    fn no_manipulation_reports_unsatisfied_preconditions() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::NoManipulation, &config, 0);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::NoManipulation, &config))
            .unwrap();
        assert!(plan.report().inserted.is_empty());
        assert!(!plan.report().unsatisfied.is_empty());
    }

    /// The retained pre-graph implementation of one tile, verbatim: the
    /// executable specification the graph translation is checked against.
    mod reference {
        use crate::edge::sc_edge_detector;
        use crate::gaussian::ScGaussianBlur;
        use crate::image::GrayImage;
        use crate::pipeline::{PipelineConfig, PipelineVariant};
        use sc_bitstream::{Bitstream, Probability};
        use sc_convert::DigitalToStochastic;
        use sc_core::{CorrelationManipulator, Synchronizer};
        use sc_rng::{Lfsr, Sobol, VanDerCorput};
        use std::collections::HashMap;

        fn generate_pixel_stream(
            value: f64,
            px: isize,
            py: isize,
            config: &PipelineConfig,
        ) -> Bitstream {
            let bank = config.rng_bank_size.clamp(1, 8);
            let idx = ((px.rem_euclid(4) as usize) + 4 * (py.rem_euclid(2) as usize)) % bank;
            let mut generator = DigitalToStochastic::new(Sobol::new(idx as u32 + 1));
            generator.generate(Probability::saturating(value), config.stream_length)
        }

        pub fn process_tile(
            image: &GrayImage,
            output: &mut GrayImage,
            x0: usize,
            y0: usize,
            variant: PipelineVariant,
            config: &PipelineConfig,
            tile_index: u64,
        ) {
            let tile = config.tile_size;
            let n = config.stream_length;
            let x_end = (x0 + tile).min(image.width());
            let y_end = (y0 + tile).min(image.height());

            let mut inputs: HashMap<(isize, isize), Bitstream> = HashMap::new();
            for py in (y0 as isize - 1)..=(y_end as isize + 1) {
                for px in (x0 as isize - 1)..=(x_end as isize + 1) {
                    let value = image.get_clamped(px, py);
                    inputs.insert((px, py), generate_pixel_stream(value, px, py, config));
                }
            }

            let mut blur = ScGaussianBlur::new(Lfsr::new(
                16,
                0xACE1 ^ (tile_index.wrapping_mul(2654435761) & 0xFFFF).max(1),
            ));
            let mut blurred: HashMap<(isize, isize), Bitstream> = HashMap::new();
            for gy in (y0 as isize)..=(y_end as isize) {
                for gx in (x0 as isize)..=(x_end as isize) {
                    let mut neighbours: Vec<&Bitstream> = Vec::with_capacity(9);
                    for dy in -1..=1isize {
                        for dx in -1..=1isize {
                            let key = (
                                (gx + dx).clamp(x0 as isize - 1, x_end as isize + 1),
                                (gy + dy).clamp(y0 as isize - 1, y_end as isize + 1),
                            );
                            neighbours.push(&inputs[&key]);
                        }
                    }
                    blurred.insert((gx, gy), blur.apply(&neighbours));
                }
            }

            if variant == PipelineVariant::Regeneration {
                for stream in blurred.values_mut() {
                    let ones = stream.count_ones() as u64;
                    let mut regen = DigitalToStochastic::new(VanDerCorput::new());
                    *stream = regen.generate(Probability::from_ratio(ones, n as u64), n);
                }
            }

            let mut select_source = Lfsr::new(
                16,
                0x7331 ^ (tile_index.wrapping_mul(40503) & 0xFFFF).max(1),
            );
            for y in y0..y_end {
                for x in x0..x_end {
                    let clamp_key = |px: isize, py: isize| {
                        (
                            (px).clamp(x0 as isize, x_end as isize),
                            (py).clamp(y0 as isize, y_end as isize),
                        )
                    };
                    let a = &blurred[&clamp_key(x as isize, y as isize)];
                    let b = &blurred[&clamp_key(x as isize + 1, y as isize)];
                    let c = &blurred[&clamp_key(x as isize, y as isize + 1)];
                    let d = &blurred[&clamp_key(x as isize + 1, y as isize + 1)];

                    let result = if variant == PipelineVariant::Synchronizer {
                        let mut sync_ad = Synchronizer::new(config.synchronizer_depth);
                        let (a2, d2) = sync_ad.process(a, d).expect("equal-length tile streams");
                        let mut sync_bc = Synchronizer::new(config.synchronizer_depth);
                        let (b2, c2) = sync_bc.process(b, c).expect("equal-length tile streams");
                        sc_edge_detector(&a2, &b2, &c2, &d2, &mut select_source)
                    } else {
                        sc_edge_detector(a, b, c, d, &mut select_source)
                    }
                    .expect("equal-length tile streams");

                    output.set(x, y, result.value());
                }
            }
        }
    }

    /// The headline regression: the graph-compiled pipeline is bit-identical
    /// (and therefore value-identical per pixel) to the retained hand-rolled
    /// implementation, for every variant, including truncated border tiles —
    /// and including image sizes where the per-shape plan cache actually
    /// *hits*, so retargeted cached plans are pinned against the reference
    /// too (a 12×12 image with 6-pixel tiles reuses plans across tiles).
    #[test]
    fn graph_pipeline_is_bit_identical_to_reference_loop() {
        let config = PipelineConfig {
            stream_length: 96, // a partial final word, on purpose
            tile_size: 6,      // 8x8 image → 4 tiles, 3 of them truncated
            rng_bank_size: 8,
            synchronizer_depth: 2,
            ..PipelineConfig::quick()
        };
        for size in [8usize, 12] {
            let blob = GrayImage::gaussian_blob(size, size);
            let img = GrayImage::from_fn(size, size, |x, y| {
                0.7 * blob.get(x, y) + 0.3 * (y as f64 / size as f64)
            });
            for variant in PipelineVariant::all() {
                let via_graph = run_sc_pipeline(&img, variant, &config).unwrap();
                let mut reference_out = GrayImage::filled(img.width(), img.height(), 0.0);
                let mut tile_index = 0u64;
                let mut y0 = 0;
                while y0 < img.height() {
                    let mut x0 = 0;
                    while x0 < img.width() {
                        reference::process_tile(
                            &img,
                            &mut reference_out,
                            x0,
                            y0,
                            variant,
                            &config,
                            tile_index,
                        );
                        tile_index += 1;
                        x0 += config.tile_size;
                    }
                    y0 += config.tile_size;
                }
                assert_eq!(
                    via_graph, reference_out,
                    "{variant:?} at {size}x{size}: graph pipeline diverged from the reference loop"
                );
                // The streaming dispatcher must match the retained
                // sequential reference at one worker and at many — and at
                // every window width, from the fully serialised window of 1
                // through the default (threads × 4) to an effectively
                // unbounded one — while never holding more retargeted plans
                // live than the window allows.
                for threads in [1usize, 4] {
                    let (dispatched, _) = crate::pipeline::run_sc_pipeline_with_threads(
                        &img, variant, &config, threads,
                    )
                    .unwrap();
                    assert_eq!(
                        dispatched, reference_out,
                        "{variant:?} at {size}x{size}, {threads} threads: streaming \
                         dispatch diverged from the reference loop"
                    );
                    for window in [1usize, threads, 4 * threads, usize::MAX] {
                        let (windowed, stats) = crate::pipeline::run_sc_pipeline_with_window(
                            &img, variant, &config, threads, window,
                        )
                        .unwrap();
                        assert_eq!(
                            windowed, reference_out,
                            "{variant:?} at {size}x{size}, {threads} threads, window \
                             {window}: streaming dispatch diverged from the reference loop"
                        );
                        assert!(
                            stats.peak_live_plans <= window.max(1),
                            "{variant:?} at {size}x{size}, {threads} threads: \
                             {} live plans exceeded the window of {window}",
                            stats.peak_live_plans
                        );
                    }
                }
            }
        }
    }

    /// The measured-SCC probe runs on **real batch statistics**: compiling a
    /// tile under measurement feeds the tile's mean pixel value (here well
    /// away from 0.5) as the probe stimulus, every structurally-unknown XOR
    /// input pair is resolved by measurement, and the repair decisions match
    /// the ones the maximum-entropy 0.5 stimulus reaches — the probe verdict
    /// is robust to the operating point, which is exactly what makes it safe
    /// to drive from live data.
    #[test]
    fn measured_probe_uses_tile_mean_stimulus() {
        // A dim image: the tile mean sits near 0.23, far from 0.5.
        let img = GrayImage::from_fn(8, 8, |x, y| 0.15 + 0.05 * ((x + y) % 4) as f64);
        let config = PipelineConfig {
            measure_scc: Some(64),
            ..PipelineConfig::quick()
        };
        let tg = tile_graph(&img, 0, 0, PipelineVariant::Synchronizer, &config, 0);
        let mean = tile_mean(&tg.input);
        assert!(
            (mean - 0.5).abs() > 0.2,
            "the stimulus must be genuinely non-0.5, got {mean}"
        );
        let options = measured_planner_options(PipelineVariant::Synchronizer, &config, mean);
        assert_eq!(options.measure_unknown, Some(64));
        assert!((options.probe_value - mean).abs() < f64::EPSILON);
        let at_mean = tg.graph.compile(&options).unwrap();
        // Every XOR subtractor pair (2 per tile pixel) was resolved by a
        // probe execution instead of being treated pessimistically.
        let t = config.tile_size;
        assert_eq!(at_mean.report().measured.len(), 2 * t * t);
        // Decision parity: the default 0.5 stimulus reaches the same repair
        // decisions as the tile-mean stimulus on this workload.
        let at_half = tg
            .graph
            .compile(&sc_graph::PlannerOptions {
                probe_value: 0.5,
                ..measured_planner_options(PipelineVariant::Synchronizer, &config, 0.5)
            })
            .unwrap();
        // The measured SCC magnitudes (and occasionally a borderline class
        // label) shift with the stimulus, but the *decision* — which
        // operators get which repair — must not: compare the repair kind
        // and location, stripping the measured-class rationale suffix.
        let decisions = |report: &sc_graph::CompileReport| -> Vec<String> {
            report
                .inserted
                .iter()
                .map(|entry| {
                    entry
                        .split(": inputs are")
                        .next()
                        .expect("split always yields a first piece")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            decisions(at_mean.report()),
            decisions(at_half.report()),
            "probe decision at the tile mean diverged from the 0.5 stimulus"
        );
        // Identical decisions produce structurally identical plans.
        assert_eq!(at_mean.ops(), at_half.ops());
    }

    /// Pipeline-level wiring of measured-SCC mode: the probe stimulus is
    /// quantised into brightness buckets that join the plan-cache key, so
    /// tiles of equal shape, bank phase, *and* bucket share one measured
    /// compile (probed at the bucket midpoint) — the cache hits instead of
    /// recompiling per tile — while tiles whose means land in different
    /// buckets still get their own measured compiles.
    #[test]
    fn pipeline_measure_scc_hits_quantised_plan_cache() {
        let config = PipelineConfig {
            measure_scc: Some(32),
            ..PipelineConfig::quick()
        };
        // Uniform brightness: a 12×18 image has 6 full-size tiles in 2 bank
        // phases (x0 ∈ {0, 6} ⇒ x0 % 4 ∈ {0, 2}), and every tile mean is
        // exactly 0.3 ⇒ one shared bucket. The cache collapses 6 tiles to
        // 2 measured compilations — strictly fewer than the tile count.
        let img = GrayImage::filled(12, 18, 0.3);
        let (out, stats) = crate::pipeline::run_sc_pipeline_with_stats(
            &img,
            PipelineVariant::Synchronizer,
            &config,
        )
        .unwrap();
        assert_eq!((out.width(), out.height()), (12, 18));
        assert_eq!(stats.tiles, 6);
        assert_eq!(
            stats.compilations, 2,
            "measured compiles are per (shape, phase, brightness bucket) \
             class: equal-bucket tiles must hit the plan cache"
        );
        assert!(
            stats.compilations < stats.tiles,
            "the quantised probe key must let measured mode reuse plans"
        );
        for y in 0..18 {
            for x in 0..12 {
                assert!((0.0..=1.0).contains(&out.get(x, y)));
            }
        }
        // Split brightness: the top half is dim, the bottom half bright, so
        // the two tile rows of a 12×12 image land in different buckets and
        // the bucket dimension of the key keeps them apart — 2 phases × 2
        // buckets = 4 compilations (the structural planner would need 2).
        let img = GrayImage::from_fn(12, 12, |_, y| if y < 6 { 0.1 } else { 0.9 });
        let (_, stats) = crate::pipeline::run_sc_pipeline_with_stats(
            &img,
            PipelineVariant::Synchronizer,
            &config,
        )
        .unwrap();
        assert_eq!(stats.tiles, 4);
        assert_eq!(
            stats.compilations, 4,
            "tiles in different brightness buckets must not share a measured plan"
        );
    }

    #[test]
    fn tile_graph_executes_standalone() {
        let img = GrayImage::checkerboard(8, 8, 2);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::Synchronizer, &config, 0);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::Synchronizer, &config))
            .unwrap();
        let out = Executor::new(config.stream_length)
            .run(&plan, &tg.input)
            .unwrap();
        for (_, _, name) in &tg.sinks {
            let v = out.value(name).expect("every sink produced a value");
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
