//! The **planning layer** of the tiled pipeline: [`TilePlanner`] turns one
//! tile position into a dispatch-ready [`PlannedTile`] — building the tile's
//! dataflow graph and obtaining a compiled plan from the per-class cache
//! (tile shape + source-bank phase, and in measured-SCC mode the quantised
//! brightness bucket), retargeting the cached template's select-LFSR seeds,
//! or compiling and caching on a miss.
//!
//! The planner is the piece both execution fronts share: the one-shot
//! streaming pipeline ([`crate::run_sc_pipeline_with_window`]) creates a
//! fresh planner per call (the historical per-run cache), while the serving
//! tier ([`crate::ImageServer`]) keeps **one planner alive across requests**
//! behind a lock — which is what lets tiles from *different* requests share
//! one compiled template (and its `plan_class`) on the warm executor.
//!
//! Long-lived planners can bound the cache with
//! [`TilePlanner::with_capacity`]: a per-class LRU that evicts the
//! least-recently-used template once the class count exceeds the cap.
//! Templates still held by in-flight work (the dispatch window clones the
//! template `Arc` on a cache miss) are pinned — never evicted, even if that
//! temporarily overshoots the cap — so a class inside the live window is
//! never re-planned mid-stream. The default is the historical unbounded
//! cache.

use crate::graph::{
    blur_select_seed, edge_select_seed, measured_planner_options, planner_options, tile_graph,
    tile_mean,
};
use crate::image::GrayImage;
use crate::pipeline::{PipelineConfig, PipelineStats, PipelineVariant, MEASURE_BUCKETS};
use sc_graph::CompiledGraph;
use sc_telemetry::{Counter, Stage};
use std::collections::HashMap;
use std::sync::Arc;

/// Plan-cache key: tile width, tile height, source-bank phase (x0 mod 4,
/// y0 mod 2), and — in measured-SCC mode — the quantised probe-stimulus
/// bucket (`None` for the structural planner, whose plans are
/// brightness-independent).
type PlanKey = (usize, usize, usize, usize, Option<usize>);

/// A cached compiled plan for one tile class, with the select-LFSR seeds it
/// was compiled against (needed to retarget it to another tile's seeds) and
/// its LRU recency stamp.
struct CacheEntry {
    plan: Arc<CompiledGraph>,
    blur_seed: u64,
    edge_seed: u64,
    last_used: u64,
}

/// One tile ready for dispatch: its compiled (possibly cache-retargeted)
/// plan, its input pixel values, and the output coordinates of its sinks.
pub struct PlannedTile {
    /// The compiled plan, retargeted onto this tile's select seeds.
    pub plan: Arc<CompiledGraph>,
    /// The tile's input pixel values.
    pub input: sc_graph::BatchInput,
    /// Output-image coordinates of each named value sink.
    pub sinks: Vec<(usize, usize, String)>,
}

/// Tile origins of an image in raster order. Raster order fixes
/// `tile_index`, and therefore every per-tile select seed, to match the
/// sequential reference loop — both execution fronts must enumerate tiles
/// this way for bit-identity.
#[must_use]
pub fn tile_origins(image: &GrayImage, tile_size: usize) -> Vec<(usize, usize)> {
    let mut origins = Vec::new();
    let mut y0 = 0;
    while y0 < image.height() {
        let mut x0 = 0;
        while x0 < image.width() {
            origins.push((x0, y0));
            x0 += tile_size;
        }
        y0 += tile_size;
    }
    origins
}

/// The shared tile planner: one accelerator configuration plus its per-class
/// plan cache. See the [module docs](self) for the cache and LRU semantics.
pub struct TilePlanner {
    variant: PipelineVariant,
    config: PipelineConfig,
    capacity: Option<usize>,
    cache: HashMap<PlanKey, CacheEntry>,
    tick: u64,
    evictions: u64,
}

impl TilePlanner {
    /// An unbounded planner for one variant + configuration (the historical
    /// per-run cache behavior).
    #[must_use]
    pub fn new(variant: PipelineVariant, config: PipelineConfig) -> Self {
        TilePlanner {
            variant,
            config,
            capacity: None,
            cache: HashMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    /// Bounds the cache to at most `capacity` compiled tile classes,
    /// evicting least-recently-used unpinned templates past the cap
    /// (`None` restores the unbounded default). A capacity of zero keeps
    /// nothing cached beyond pinned in-flight templates.
    #[must_use]
    pub fn with_capacity(mut self, capacity: Option<usize>) -> Self {
        self.capacity = capacity;
        self
    }

    /// The variant this planner plans for.
    #[must_use]
    pub fn variant(&self) -> PipelineVariant {
        self.variant
    }

    /// The configuration this planner plans with.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of compiled tile classes currently cached.
    #[must_use]
    pub fn cached_classes(&self) -> usize {
        self.cache.len()
    }

    /// Number of templates evicted by the LRU bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Plans the tile whose top-left corner is `(x0, y0)`, recording
    /// plan-cache and compile accounting into `stats` and the configuration's
    /// telemetry sink.
    pub fn plan_tile(
        &mut self,
        image: &GrayImage,
        x0: usize,
        y0: usize,
        tile_index: u64,
        stats: &mut PipelineStats,
    ) -> PlannedTile {
        let config = &self.config;
        // Cloning the sink (an `Arc` handle) unties its span guards from the
        // `self.config` borrow, so `enforce_capacity` can borrow `self`
        // mutably below while a miss span is still open.
        let telemetry = config.telemetry.clone();
        stats.tiles += 1;
        telemetry.add(Counter::Tiles, 1);
        let tile = tile_graph(image, x0, y0, self.variant, config, tile_index);
        // Cache key: the tile shape *and* the tile origin's phase in the
        // input source-bank pattern. `pixel_bank_index` assigns each input
        // pixel's Sobol dimension from its absolute coordinates with periods
        // 4 (x) and 2 (y), so only tiles whose origins agree modulo those
        // periods build identical `Generate` layouts; two equal-shape tiles
        // at different phases must not share a plan. In measured-SCC mode
        // the quantised probe-stimulus bucket joins the key, so tiles whose
        // mean brightness lands in different buckets never share a measured
        // compile.
        let bucket = config.measure_scc.is_some().then(|| {
            ((tile_mean(&tile.input) * MEASURE_BUCKETS as f64).floor() as usize)
                .min(MEASURE_BUCKETS - 1)
        });
        let key = (
            (x0 + config.tile_size).min(image.width()) - x0,
            (y0 + config.tile_size).min(image.height()) - y0,
            x0 % 4,
            y0 % 2,
            bucket,
        );
        let blur_seed = blur_select_seed(tile_index);
        let edge_seed = edge_select_seed(tile_index);
        self.tick += 1;
        let tick = self.tick;
        // Tiles sharing a key build structurally identical graphs whose only
        // difference is the two per-tile select-LFSR seeds, so the cached
        // plan retargets onto this tile exactly (the two seeds never
        // collide; see `graph::tests::select_seeds_never_collide`).
        let plan = match self.cache.get_mut(&key) {
            Some(c) => {
                c.last_used = tick;
                telemetry.add(Counter::PlanCacheHits, 1);
                let _hit = telemetry.span(Stage::PlanCacheHit);
                let retarget = telemetry.span(Stage::Retarget);
                let plan = Arc::new(c.plan.retarget_sources(|spec| match spec {
                    sc_rng::SourceSpec::Lfsr { width: 16, seed } if *seed == c.blur_seed => {
                        Some(sc_rng::SourceSpec::Lfsr {
                            width: 16,
                            seed: blur_seed,
                        })
                    }
                    sc_rng::SourceSpec::Lfsr { width: 16, seed } if *seed == c.edge_seed => {
                        Some(sc_rng::SourceSpec::Lfsr {
                            width: 16,
                            seed: edge_seed,
                        })
                    }
                    _ => None,
                }));
                drop(retarget);
                plan
            }
            None => {
                telemetry.add(Counter::PlanCacheMisses, 1);
                let _miss = telemetry.span(Stage::PlanCacheMiss);
                stats.compilations += 1;
                // Measured mode probes at the bucket's midpoint, so every
                // tile the bucket covers sees the same planner decisions and
                // the cached template retargets onto all of them.
                let options = match bucket {
                    Some(b) => measured_planner_options(
                        self.variant,
                        config,
                        (b as f64 + 0.5) / MEASURE_BUCKETS as f64,
                    ),
                    None => planner_options(self.variant, config),
                };
                let plan = Arc::new(
                    tile.graph
                        .compile_with_telemetry(&options, &telemetry)
                        .expect("tile graphs are structurally valid by construction"),
                );
                let report = plan.report();
                stats.steps_eliminated += report.steps_eliminated;
                stats.fused_spans += report.fused_spans;
                stats.shared_subgraphs += report.shared_subgraphs;
                stats.shared_repairs += report.shared_repairs;
                stats.shared_sources += report.shared_sources;
                self.cache.insert(
                    key,
                    CacheEntry {
                        plan: Arc::clone(&plan),
                        blur_seed,
                        edge_seed,
                        last_used: tick,
                    },
                );
                self.enforce_capacity(&key);
                plan
            }
        };
        PlannedTile {
            plan,
            input: tile.input,
            sinks: tile.sinks,
        }
    }

    /// Evicts least-recently-used unpinned templates while the class count
    /// exceeds the capacity. The just-inserted key and any template whose
    /// `Arc` is still held outside the cache (a cache-missing tile in the
    /// live dispatch window executes the template itself) are pinned, so
    /// the cache may transiently overshoot the cap rather than drop a class
    /// the window still holds.
    fn enforce_capacity(&mut self, just_inserted: &PlanKey) {
        let Some(cap) = self.capacity else { return };
        while self.cache.len() > cap.max(1) {
            let victim = self
                .cache
                .iter()
                .filter(|(key, entry)| *key != just_inserted && Arc::strong_count(&entry.plan) == 1)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key);
            match victim {
                Some(key) => {
                    self.cache.remove(&key);
                    self.evictions += 1;
                    self.config.telemetry.add(Counter::PlanCacheEvictions, 1);
                }
                None => break,
            }
        }
    }
}
