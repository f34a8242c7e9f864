//! The tiled Gaussian-blur → edge-detector accelerator pipeline (§IV.A) and
//! its three correlation-handling variants (Table IV).
//!
//! Since the `sc_graph` subsystem landed, [`run_sc_pipeline`] is a thin
//! wrapper over the dataflow engine: each tile is built as a graph
//! ([`crate::graph::tile_graph`]), compiled with the variant's planner
//! options (the synchronizer variant's correlation repair is *inserted by
//! the planner*, not by hand), and executed. Execution is **streamed in
//! bounded windows** ([`run_sc_pipeline_with_window`]): tiles are planned
//! *lazily*, in raster order, inside the streaming dispatch — sharing
//! compiled plans within each tile class (shape + source-bank phase) via
//! seed retargeting — and at most `window` planned-but-unfinished tiles are
//! alive at any moment on the executor's persistent worker pool, so
//! arbitrarily large images run in O(window) plan memory while every core
//! runs tiles concurrently, bit-identical to sequential raster-order
//! processing. The pre-graph per-tile loop is retained in `crate::graph`'s
//! tests as the bit-identity reference.

use crate::assemble::scatter_sinks;
use crate::edge::roberts_cross_float;
use crate::gaussian::gaussian_blur_float;
use crate::image::{GrayImage, ImageError};
use crate::planner::TilePlanner;
use sc_graph::{Executor, StreamJob};
use sc_telemetry::TelemetrySink;
use std::hash::{Hash, Hasher};

/// How the accelerator handles correlation between the Gaussian-blur outputs
/// and the edge-detector inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineVariant {
    /// GB outputs feed the ED directly (Table IV "SC No Manipulation").
    NoManipulation,
    /// Every GB output is S/D converted and re-encoded from a shared source
    /// (Table IV "SC Regeneration").
    Regeneration,
    /// A synchronizer is inserted in front of each ED subtractor pair
    /// (Table IV "SC Synchronizer").
    Synchronizer,
}

impl PipelineVariant {
    /// All three variants in the paper's column order.
    #[must_use]
    pub fn all() -> [PipelineVariant; 3] {
        [
            PipelineVariant::NoManipulation,
            PipelineVariant::Regeneration,
            PipelineVariant::Synchronizer,
        ]
    }

    /// Table IV column label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PipelineVariant::NoManipulation => "SC No Manipulation",
            PipelineVariant::Regeneration => "SC Regeneration",
            PipelineVariant::Synchronizer => "SC Synchronizer",
        }
    }
}

/// Configuration of the stochastic accelerator.
///
/// Equality and hashing cover only the *configuration* fields: the attached
/// [`telemetry`](PipelineConfig::telemetry) sink is an observer, not part of
/// the accelerator's identity, so two configs that differ only in their sink
/// compare equal (and plan caching, which keys on configuration, is
/// unaffected by instrumentation).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Stochastic stream length `N` (the paper uses 256).
    pub stream_length: usize,
    /// Square tile size processed in parallel (the paper uses 10×10).
    pub tile_size: usize,
    /// Number of independent sources in the input D/S converter bank.
    pub rng_bank_size: usize,
    /// Save depth of the synchronizers in the synchronizer variant.
    pub synchronizer_depth: u32,
    /// Measured-SCC planner feedback: when `Some(probe_length)`, tiles
    /// compile under measurement ([`sc_graph::PlannerOptions`]'s
    /// `measure_unknown`) with the **tile's mean pixel value** as the probe
    /// stimulus (`probe_value`), so repair decisions are driven by the batch
    /// statistics of the data actually flowing through the tile rather than
    /// the maximum-entropy 0.5 default. The stimulus is quantised to
    /// [`MEASURE_BUCKETS`] brightness buckets and the bucket joins the
    /// cross-tile plan-cache key: tiles of the same shape, bank phase, and
    /// brightness bucket share one measured compile (probed at the bucket's
    /// midpoint) with their select seeds retargeted in — so measured mode
    /// keeps the per-class cache instead of recompiling per tile. `None` (the
    /// default) keeps the purely structural planner.
    pub measure_scc: Option<usize>,
    /// Which optimizer passes of the graph-compile pipeline run on every
    /// tile compile (subgraph CSE, cost-driven repair placement, span
    /// fusion; default: all). Every pass is bit-identity preserving, so this
    /// changes compile effort and plan shape, never the output image. Joins
    /// the configuration identity (and therefore the plan-cache key's
    /// compiled plans) because differently optimized plans are structurally
    /// different templates.
    pub passes: sc_graph::PassSet,
    /// Telemetry sink the whole pipeline records into: plan-cache hits and
    /// misses (with nested retarget / per-pass compile spans), the executor's
    /// dispatch, per-tile execution, worker activity, and the
    /// final sink scatter. The default sink is disabled and records nothing;
    /// attach an enabled [`TelemetrySink`] (see
    /// [`PipelineConfig::with_telemetry`]) and drain it after the run for a
    /// per-stage breakdown. Ignored by `PartialEq`/`Hash`.
    pub telemetry: TelemetrySink,
}

impl PartialEq for PipelineConfig {
    fn eq(&self, other: &Self) -> bool {
        self.stream_length == other.stream_length
            && self.tile_size == other.tile_size
            && self.rng_bank_size == other.rng_bank_size
            && self.synchronizer_depth == other.synchronizer_depth
            && self.measure_scc == other.measure_scc
            && self.passes == other.passes
    }
}

impl Eq for PipelineConfig {}

impl Hash for PipelineConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.stream_length.hash(state);
        self.tile_size.hash(state);
        self.rng_bank_size.hash(state);
        self.synchronizer_depth.hash(state);
        self.measure_scc.hash(state);
        self.passes.hash(state);
    }
}

/// Number of brightness buckets the measured-SCC probe stimulus is quantised
/// into ([`PipelineConfig::measure_scc`]): a tile's mean pixel value maps to
/// bucket `⌊mean × 64⌋` (clamped to 63) and the probe runs at the bucket's
/// midpoint `(bucket + 0.5) / 64`. A step of 1/64 is far below the stimulus
/// swing the probe verdict is robust to (the decision-parity test holds from
/// 0.23 to 0.5), so quantisation changes no repair decisions — it only makes
/// equal-class tiles of similar brightness share one compiled plan.
pub const MEASURE_BUCKETS: usize = 64;

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            stream_length: 256,
            tile_size: 10,
            rng_bank_size: 8,
            // The Gaussian-blur outputs carry longer runs of identical bits
            // than raw generator streams, so a save depth of 2 (rather than
            // the minimal 1) is needed for the synchronizer variant to match
            // regeneration accuracy; see the ablation_depth experiment.
            synchronizer_depth: 2,
            measure_scc: None,
            passes: sc_graph::PassSet::all(),
            telemetry: TelemetrySink::disabled(),
        }
    }
}

impl PipelineConfig {
    /// A reduced configuration for fast unit tests.
    #[must_use]
    pub fn quick() -> Self {
        PipelineConfig {
            stream_length: 64,
            tile_size: 6,
            rng_bank_size: 8,
            synchronizer_depth: 2,
            measure_scc: None,
            passes: sc_graph::PassSet::all(),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Selects which optimizer passes run on every tile compile.
    #[must_use]
    pub fn with_passes(mut self, passes: sc_graph::PassSet) -> Self {
        self.passes = passes;
        self
    }

    /// Attaches a telemetry sink; every pipeline run with this config records
    /// its per-stage spans, counters, and histograms into it.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }
}

/// Floating-point reference pipeline: Gaussian blur followed by Roberts cross.
#[must_use]
pub fn run_float_pipeline(image: &GrayImage) -> GrayImage {
    roberts_cross_float(&gaussian_blur_float(image))
}

/// Execution statistics of one [`run_sc_pipeline_with_stats`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Number of tiles processed.
    pub tiles: usize,
    /// Number of graph compilations actually run. Tiles of equal shape and
    /// equal source-bank phase (tile origin modulo the bank pattern's 4×2
    /// period) — and, in measured-SCC mode, equal quantised brightness
    /// bucket — share one compiled plan with the per-tile select-LFSR seeds
    /// retargeted onto the cached template, so this counts *distinct tile
    /// classes*, not tiles.
    pub compilations: usize,
    /// Upper bound on simultaneously-live retargeted tile plans during the
    /// streaming dispatch ([`sc_graph::StreamStats`]'s `peak_in_flight`:
    /// jobs submitted but not yet reported back — a worker may already have
    /// freed a counted job's plan; cached per-class templates are counted
    /// separately by `compilations`). Never exceeds the dispatch window,
    /// which is how streaming keeps whole-image memory at O(window) instead
    /// of O(tiles). Depends on the worker count (one thread executes each
    /// tile as it is planned, so its peak is 1), so it is excluded from
    /// cross-thread stats comparisons.
    pub peak_live_plans: usize,
    /// Tiles executed per compiled tile class ([`sc_graph::PlanClassStats`],
    /// keyed by the cached template's `plan_class`), in class-id order —
    /// `compilations` counts these classes, and this names how many tiles
    /// each one ran, so a slow tile class is identifiable instead of
    /// averaged away. Per-class latency histograms live on the attached
    /// [`TelemetrySink`]'s report ([`sc_telemetry::TelemetryReport::classes`]).
    pub classes: Vec<sc_graph::PlanClassStats>,
    /// Steps removed by the optimizer passes across all tile-class compiles
    /// (summed [`sc_graph::CompileReport::steps_eliminated`]): CSE-merged
    /// duplicates plus span-fusion collapses. Zero when
    /// [`PipelineConfig::passes`] disables the optimizer.
    pub steps_eliminated: usize,
    /// Linear spans collapsed into [`sc_graph::Step::Fused`] super-steps
    /// across all tile-class compiles (summed
    /// [`sc_graph::CompileReport::fused_spans`]).
    pub fused_spans: usize,
    /// Duplicate interior subgraphs merged by CSE across all tile-class
    /// compiles (summed [`sc_graph::CompileReport::shared_subgraphs`]).
    pub shared_subgraphs: usize,
    /// Correlation repairs satisfied by reusing an existing equivalent
    /// manipulator instead of inserting a fresh one, across all tile-class
    /// compiles (summed [`sc_graph::CompileReport::shared_repairs`]).
    pub shared_repairs: usize,
    /// Duplicate source generators the emitted plans share (one physical
    /// generator per spec), across all tile-class compiles (summed
    /// [`sc_graph::CompileReport::shared_sources`]).
    pub shared_sources: usize,
}

/// Runs the stochastic accelerator over the whole image, tile by tile, and
/// returns the edge-magnitude output image.
///
/// # Errors
///
/// Returns an [`ImageError`] only for degenerate configurations (zero-sized
/// tiles or streams are rejected as [`ImageError::EmptyImage`]).
pub fn run_sc_pipeline(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
) -> Result<GrayImage, ImageError> {
    run_sc_pipeline_with_stats(image, variant, config).map(|(out, _)| out)
}

/// Like [`run_sc_pipeline`], also reporting how much compilation work the
/// plan cache saved and how many retargeted plans the streaming window kept
/// live at its peak. Dispatches across all available cores with the default
/// window; see [`run_sc_pipeline_with_threads`] for an explicit worker count
/// and [`run_sc_pipeline_with_window`] for an explicit window.
///
/// # Errors
///
/// Same conditions as [`run_sc_pipeline`].
pub fn run_sc_pipeline_with_stats(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
) -> Result<(GrayImage, PipelineStats), ImageError> {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_sc_pipeline_with_threads(image, variant, config, threads)
}

/// Like [`run_sc_pipeline_with_window`] with the executor's default window
/// (`threads × `[`sc_graph::DEFAULT_WINDOW_FACTOR`]).
///
/// # Errors
///
/// Returns an [`ImageError`] only for degenerate configurations (zero-sized
/// tiles or streams are rejected as [`ImageError::EmptyImage`]).
pub fn run_sc_pipeline_with_threads(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
    threads: usize,
) -> Result<(GrayImage, PipelineStats), ImageError> {
    let window = Executor::new(config.stream_length)
        .with_threads(threads.max(1))
        .default_window();
    run_sc_pipeline_with_window(image, variant, config, threads, window)
}

/// The streaming tile dispatcher: walks the image's tiles in raster order,
/// planning each tile **lazily inside the stream** — building its dataflow
/// graph and obtaining a compiled plan from the per-class cache (tile shape
/// plus source-bank phase, with the tile's select-LFSR seeds retargeted
/// onto the cached template) or by compiling and caching — while the executor's
/// persistent worker pool executes planned tiles concurrently. At most
/// `window` planned-but-unfinished tiles are alive at any moment
/// ([`Executor::run_stream`]), so peak memory is O(window) retargeted plans
/// plus the per-class templates, regardless of image size; the per-class
/// cache is never evicted, so a window never re-plans a class it already
/// holds. Retargeted tiles share their template's plan class, which is
/// what [`PipelineStats::classes`] attributes tiles to. Sink values are
/// scattered into the output image as the final step.
///
/// Every tile executes with fresh deterministic sources and FSMs, so the
/// result is bit-identical to processing the tiles one at a time in raster
/// order, at any worker count and any window.
///
/// # Errors
///
/// Returns an [`ImageError`] only for degenerate configurations (zero-sized
/// tiles or streams are rejected as [`ImageError::EmptyImage`]).
pub fn run_sc_pipeline_with_window(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
    threads: usize,
    window: usize,
) -> Result<(GrayImage, PipelineStats), ImageError> {
    if config.tile_size == 0 || config.stream_length == 0 || config.rng_bank_size == 0 {
        return Err(ImageError::EmptyImage);
    }
    let mut output = GrayImage::filled(image.width(), image.height(), 0.0);
    // A fresh per-run planner keeps the historical unbounded per-run cache;
    // the serving tier ([`crate::ImageServer`]) is the front that holds one
    // planner across many requests.
    let mut planner = TilePlanner::new(variant, config.clone());
    let mut stats = PipelineStats::default();
    let tile = config.tile_size;

    // Tile origins in raster order: raster order keeps tile_index, and
    // therefore every select seed, identical to the sequential reference
    // loop. The origin list is O(tiles) coordinates — the heavy per-tile
    // state (graph, plan, input streams) is only built inside the window.
    let origins = crate::planner::tile_origins(image, tile);

    // Stream the tiles: the executor pulls this iterator lazily (on the
    // caller's thread, so the cache and stats need no locking) whenever the
    // window has room, and the planned tile's sinks are recorded on the way
    // past for the scatter phase.
    let mut sinks: Vec<Vec<(usize, usize, String)>> = Vec::with_capacity(origins.len());
    let executor = Executor::new(config.stream_length)
        .with_threads(threads.max(1))
        .with_telemetry(config.telemetry.clone());
    let jobs = origins.iter().enumerate().map(|(tile_index, &(x0, y0))| {
        let planned = planner.plan_tile(image, x0, y0, tile_index as u64, &mut stats);
        sinks.push(planned.sinks);
        StreamJob {
            plan: planned.plan,
            input: planned.input,
        }
    });
    let (results, stream_stats) = executor
        .run_stream_with_stats(jobs, window)
        .expect("tile graphs execute over their own batch input");
    stats.peak_live_plans = stream_stats.peak_in_flight;
    stats.classes = stream_stats.classes;

    // Scatter the per-tile sink values into the output image.
    scatter_sinks(&mut output, &sinks, &results, &config.telemetry);
    Ok((output, stats))
}

/// Quality summary of one accelerator variant against the float reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineQuality {
    /// Variant evaluated.
    pub variant: PipelineVariant,
    /// Mean absolute per-pixel error versus the floating-point pipeline.
    pub mean_abs_error: f64,
}

/// Runs every variant on the given image and reports the Table IV error column.
///
/// # Errors
///
/// Propagates configuration errors from [`run_sc_pipeline`].
pub fn compare_variants(
    image: &GrayImage,
    config: &PipelineConfig,
) -> Result<Vec<PipelineQuality>, ImageError> {
    let reference = run_float_pipeline(image);
    PipelineVariant::all()
        .into_iter()
        .map(|variant| {
            let out = run_sc_pipeline(image, variant, config)?;
            Ok(PipelineQuality {
                variant,
                mean_abs_error: out.mean_abs_error(&reference)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> GrayImage {
        // A blob plus a gradient: smooth regions and genuine edges.
        let blob = GrayImage::gaussian_blob(12, 12);
        GrayImage::from_fn(12, 12, |x, y| {
            0.6 * blob.get(x, y) + 0.4 * (x as f64 / 12.0)
        })
    }

    #[test]
    fn float_pipeline_composes_blur_and_edges() {
        let img = GrayImage::checkerboard(12, 12, 4);
        let out = run_float_pipeline(&img);
        assert_eq!(out.width(), 12);
        assert!(out.mean() > 0.0, "a checkerboard has edges");
    }

    #[test]
    fn variant_labels_and_all() {
        assert_eq!(PipelineVariant::all().len(), 3);
        assert!(PipelineVariant::Regeneration
            .label()
            .contains("Regeneration"));
        assert!(PipelineVariant::Synchronizer
            .label()
            .contains("Synchronizer"));
        assert!(PipelineVariant::NoManipulation
            .label()
            .contains("No Manipulation"));
    }

    #[test]
    fn degenerate_configs_rejected() {
        let img = GrayImage::filled(4, 4, 0.5);
        let bad = PipelineConfig {
            tile_size: 0,
            ..PipelineConfig::quick()
        };
        assert!(run_sc_pipeline(&img, PipelineVariant::NoManipulation, &bad).is_err());
        let bad = PipelineConfig {
            stream_length: 0,
            ..PipelineConfig::quick()
        };
        assert!(run_sc_pipeline(&img, PipelineVariant::Synchronizer, &bad).is_err());
    }

    #[test]
    fn sc_pipeline_output_dimensions_match() {
        let img = test_image();
        let config = PipelineConfig::quick();
        let out = run_sc_pipeline(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(out.width(), img.width());
        assert_eq!(out.height(), img.height());
    }

    #[test]
    fn table4_error_ordering() {
        // The central Table IV quality claim: without correlation manipulation
        // the error is several times larger; regeneration and synchronizers
        // are comparable to each other.
        let img = test_image();
        let config = PipelineConfig {
            stream_length: 128,
            ..PipelineConfig::quick()
        };
        let results = compare_variants(&img, &config).unwrap();
        let err = |v: PipelineVariant| {
            results
                .iter()
                .find(|r| r.variant == v)
                .expect("variant present")
                .mean_abs_error
        };
        let none = err(PipelineVariant::NoManipulation);
        let regen = err(PipelineVariant::Regeneration);
        let sync = err(PipelineVariant::Synchronizer);
        assert!(
            none > 2.0 * regen,
            "no-manipulation ({none:.3}) should be far worse than regeneration ({regen:.3})"
        );
        assert!(
            none > 2.0 * sync,
            "no-manipulation ({none:.3}) should be far worse than synchronizer ({sync:.3})"
        );
        assert!(
            (regen - sync).abs() < 0.05,
            "regeneration ({regen:.3}) and synchronizer ({sync:.3}) should be comparable"
        );
        assert!(
            sync < 0.08,
            "synchronizer variant error should be small, got {sync:.3}"
        );
    }

    #[test]
    fn plan_cache_compiles_once_per_tile_shape() {
        // An 8x8 image with 6-pixel tiles has 4 tiles in 4 distinct shapes
        // (full, right edge, bottom edge, corner): every tile compiles.
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let (_, stats) =
            run_sc_pipeline_with_stats(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(stats.tiles, 4);
        assert_eq!(stats.compilations, 4);
        // A 12x12 image has 4 full-size tiles but only 2 bank phases
        // (x0 ∈ {0, 6} ⇒ x0 % 4 ∈ {0, 2}); an 18x6 strip has 3 tiles in the
        // same 2 phases: the cache collapses the repeats.
        let img = GrayImage::gradient(12, 12);
        let (_, stats) =
            run_sc_pipeline_with_stats(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(stats.tiles, 4);
        assert_eq!(stats.compilations, 2);
        let img = GrayImage::gradient(18, 6);
        let (_, stats) =
            run_sc_pipeline_with_stats(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(stats.tiles, 3);
        assert_eq!(stats.compilations, 2);
    }

    /// The optimizer passes are purely a compile-shape lever: every variant
    /// renders the same image with passes on or off, while the pass-on run
    /// actually reports optimizer work and the pass-off run reports none.
    #[test]
    fn optimizer_passes_never_change_the_image() {
        let img = GrayImage::gradient(8, 8);
        let optimized = PipelineConfig::quick();
        let baseline = PipelineConfig::quick().with_passes(sc_graph::PassSet::none());
        for variant in PipelineVariant::all() {
            let (opt_img, opt_stats) =
                run_sc_pipeline_with_stats(&img, variant, &optimized).unwrap();
            let (base_img, base_stats) =
                run_sc_pipeline_with_stats(&img, variant, &baseline).unwrap();
            assert_eq!(
                opt_img, base_img,
                "{variant:?}: optimizer passes changed the rendered image"
            );
            assert_eq!(
                base_stats.steps_eliminated, 0,
                "{variant:?}: disabled optimizer still eliminated steps"
            );
            assert_eq!(base_stats.fused_spans, 0);
            assert_eq!(base_stats.shared_subgraphs, 0);
            assert_eq!(base_stats.shared_sources, 0);
            assert!(
                opt_stats.steps_eliminated > 0,
                "{variant:?}: optimized tile compiles should eliminate steps"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let a = run_sc_pipeline(&img, PipelineVariant::Synchronizer, &config).unwrap();
        let b = run_sc_pipeline(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(a, b);
    }

    /// The cross-tile dispatcher is bit-identical at every worker count for
    /// every variant (including a cache-hitting 12×12 image whose retargeted
    /// plans are shared across tiles), so the parallelism is purely a
    /// throughput lever.
    #[test]
    fn cross_tile_dispatch_is_thread_count_invariant() {
        let config = PipelineConfig {
            stream_length: 96, // partial final word, on purpose
            ..PipelineConfig::quick()
        };
        let blob = GrayImage::gaussian_blob(12, 12);
        let img = GrayImage::from_fn(12, 12, |x, y| {
            0.6 * blob.get(x, y) + 0.4 * (x as f64 / 12.0)
        });
        for variant in PipelineVariant::all() {
            let (sequential, seq_stats) =
                run_sc_pipeline_with_threads(&img, variant, &config, 1).unwrap();
            let seq_window = Executor::new(config.stream_length)
                .with_threads(1)
                .default_window();
            assert!(
                seq_stats.peak_live_plans <= seq_window,
                "inline path buffers at most the window ({seq_window}) of plans \
                 for lane batching, saw {}",
                seq_stats.peak_live_plans
            );
            for threads in [2usize, 8] {
                let (sharded, stats) =
                    run_sc_pipeline_with_threads(&img, variant, &config, threads).unwrap();
                assert_eq!(
                    sharded, sequential,
                    "{variant:?} at {threads} threads diverged from 1 thread"
                );
                // Planning work is thread-invariant; the peak of live plans
                // is a property of the window, not of the results, so it is
                // compared against its bound rather than across thread
                // counts.
                assert_eq!(stats.tiles, seq_stats.tiles, "{variant:?} tile count");
                assert_eq!(
                    stats.compilations, seq_stats.compilations,
                    "{variant:?} compilations are thread-invariant"
                );
                let window = Executor::new(config.stream_length)
                    .with_threads(threads)
                    .default_window();
                assert!(
                    stats.peak_live_plans <= window,
                    "{variant:?} at {threads} threads: {} live plans exceed window {window}",
                    stats.peak_live_plans
                );
            }
        }
    }
}
