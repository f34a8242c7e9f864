//! The graph compiler: public plan types and the entry point of the staged
//! optimizer pass pipeline.
//!
//! Compilation runs the pass pipeline in `crate::passes`:
//!
//! 1. **validate** — wires must reference existing nodes/ports, arities
//!    must match, sink names must be unique, and the graph must be acyclic
//!    (Kahn topological sort; only [`crate::Graph::rewire`] can introduce a
//!    cycle).
//! 2. **scc-infer** — every binary operator declares the SCC class its
//!    inputs must have (paper Fig. 2). The pass derives the class of each
//!    input pair *structurally*: streams from equal source specs are
//!    positively correlated (shared-RNG, §II.B), streams from different
//!    specs are uncorrelated, and a manipulator pins its output pair to the
//!    class it establishes (+1 synchronizer / −1 desynchronizer / 0
//!    decorrelator, §III). Structurally unknown pairs can be resolved by a
//!    measured-SCC probe execution ([`PlannerOptions::measure_unknown`]).
//! 3. **subgraph-cse** — structurally identical subgraphs (same ops, same
//!    [`SourceSpec`]s, and therefore the same SCC classes) merge into one,
//!    extending the executor's per-spec source sharing to whole repeated
//!    structure.
//! 4. **repair-placement** — where a precondition is not met and
//!    [`PlannerOptions::auto_repair`] is on, the legal repairs are
//!    enumerated, priced through the `sc_hwcost` bridge, and the cheapest is
//!    applied (the paper's core insight, applied automatically — and at
//!    minimum hardware cost).
//! 5. **span-fusion** — maximal linear source→gate→sink spans collapse into
//!    single [`Step::Fused`] steps; independently, maximal linear runs of
//!    manipulator nodes collapse into one [`sc_core::ManipulatorChain`]
//!    step at emission, so a run of `k` circuits makes a single
//!    register-staged pass per 64-bit word.
//! 6. **emit** — nodes are laid out in topological order as a flat step
//!    list over dense stream slots, ready for the batch executor.
//!
//! Individual optimizer passes toggle through [`PassSet`]; every pass
//! preserves bit-identity, so a fully optimized plan and a pass-disabled
//! plan produce the same output bit for bit.

use crate::graph::{Graph, GraphError};
use crate::node::{BinaryOp, ManipulatorKind, NodeOp, SccClass, UnaryFsmOp};
use sc_rng::SourceSpec;
use sc_telemetry::TelemetrySink;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide monotonic counter behind [`CompiledGraph::plan_class`]: every
/// `compile` call mints a fresh class for its template, and clones /
/// retargeted copies share that template.
static PLAN_CLASS: AtomicU64 = AtomicU64::new(0);

/// Mints the class id of a freshly emitted template. A template's address
/// would not do: after a cache evicts one, the allocator may hand its
/// address to the next, merging two classes' telemetry.
pub(crate) fn next_plan_class() -> u64 {
    PLAN_CLASS.fetch_add(1, Ordering::Relaxed)
}

/// Selects which optimizer passes of the compile pipeline run. The
/// always-on stages (validate, scc-infer, repair insertion itself, emit)
/// are not gated — only the optimizations are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassSet {
    /// Merge structurally identical subgraphs (subgraph-cse pass).
    pub cse: bool,
    /// Price repair placements through `sc_hwcost` and reuse identical
    /// repairs instead of always inserting a fresh circuit
    /// (repair-placement pass).
    pub cost_repair: bool,
    /// Collapse linear spans into [`Step::Fused`] steps and manipulator
    /// runs into chain steps (span-fusion pass).
    pub fusion: bool,
    /// Drop dead interior nodes — nodes no sink transitively consumes,
    /// including inputs of CSE-merged losers that lost their last consumer —
    /// from scheduling entirely (dead-node-elimination pass).
    pub dce: bool,
}

impl Default for PassSet {
    fn default() -> Self {
        PassSet::all()
    }
}

impl PassSet {
    /// Every optimizer pass enabled (the default).
    #[must_use]
    pub fn all() -> Self {
        PassSet {
            cse: true,
            cost_repair: true,
            fusion: true,
            dce: true,
        }
    }

    /// Every optimizer pass disabled: the plain validate → infer → repair →
    /// emit baseline.
    #[must_use]
    pub fn none() -> Self {
        PassSet {
            cse: false,
            cost_repair: false,
            fusion: false,
            dce: false,
        }
    }
}

/// Knobs of the compile pipeline's planning passes.
///
/// `PartialEq` compares every planning knob but ignores the
/// [`PlannerOptions::dump_ir`] debug hook (function pointer addresses are
/// not meaningful to compare, and the hook never influences the compiled
/// plan).
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Insert correlation-establishing manipulators where a binary operator's
    /// SCC precondition is not structurally guaranteed (default `true`).
    /// When `false`, unmet preconditions are only recorded in the
    /// [`CompileReport`].
    pub auto_repair: bool,
    /// Save depth of auto-inserted synchronizers.
    pub synchronizer_depth: u32,
    /// Save depth of auto-inserted desynchronizers.
    pub desynchronizer_depth: u32,
    /// Shuffle-buffer depth of auto-inserted decorrelators.
    pub decorrelator_depth: usize,
    /// Measured-SCC feedback: when an operator's input pair has structural
    /// class [`SccClass::Unknown`], run a short [`sc_core::SccTracker`]-style
    /// probe execution of this length over representative inputs and use the
    /// *measured* class for the repair decision instead of pessimistically
    /// treating the pair as unknown. `None` (the default) keeps the purely
    /// structural behaviour.
    pub measure_unknown: Option<usize>,
    /// The digital value fed to every `Generate` slot during a measured-SCC
    /// probe execution (default `0.5`, the maximum-entropy stimulus). Set
    /// this to a representative batch statistic — e.g. the mean pixel value
    /// of the images a tile pipeline will process — so repair decisions are
    /// driven by the operating point the design actually sees.
    pub probe_value: f64,
    /// Which optimizer passes run (default: all of them).
    pub passes: PassSet,
    /// Debug hook: called after every executed pass with the pass name and
    /// a pretty-printed dump of the IR it produced, for bug reports and
    /// compiler archaeology. `None` (the default) prints nothing.
    pub dump_ir: Option<fn(pass: &str, ir: &str)>,
}

impl PartialEq for PlannerOptions {
    fn eq(&self, other: &Self) -> bool {
        self.auto_repair == other.auto_repair
            && self.synchronizer_depth == other.synchronizer_depth
            && self.desynchronizer_depth == other.desynchronizer_depth
            && self.decorrelator_depth == other.decorrelator_depth
            && self.measure_unknown == other.measure_unknown
            && self.probe_value == other.probe_value
            && self.passes == other.passes
    }
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            auto_repair: true,
            synchronizer_depth: 1,
            desynchronizer_depth: 1,
            decorrelator_depth: 4,
            measure_unknown: None,
            probe_value: 0.5,
            passes: PassSet::default(),
            dump_ir: None,
        }
    }
}

impl PlannerOptions {
    /// Options with auto-repair disabled (preconditions only reported).
    #[must_use]
    pub fn no_repair() -> Self {
        PlannerOptions {
            auto_repair: false,
            ..PlannerOptions::default()
        }
    }

    /// Options with measured-SCC feedback enabled at the given probe length.
    #[must_use]
    pub fn with_measurement(probe_length: usize) -> Self {
        PlannerOptions {
            measure_unknown: Some(probe_length.max(1)),
            ..PlannerOptions::default()
        }
    }

    /// Options with the given optimizer pass set (all other knobs default).
    #[must_use]
    pub fn with_passes(passes: PassSet) -> Self {
        PlannerOptions {
            passes,
            ..PlannerOptions::default()
        }
    }
}

/// One structurally-unknown input pair whose class was resolved by a
/// measured-SCC probe ([`PlannerOptions::measure_unknown`]). The `Display`
/// impl reproduces the pre-structured report text.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPair {
    /// The operator whose input pair was probed (e.g. `xor_subtract`).
    pub label: String,
    /// The operator's node index.
    pub node: usize,
    /// The measured stochastic cross-correlation, in `[-1, 1]`.
    pub scc: f64,
    /// Probe execution length in cycles.
    pub probe_length: usize,
    /// The class the measurement resolved the pair to.
    pub class: SccClass,
}

impl fmt::Display for MeasuredPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let MeasuredPair {
            label,
            node,
            scc,
            probe_length,
            class,
        } = self;
        write!(
            f,
            "inputs of {label} (node n{node}) measured SCC {scc:.3} over {probe_length} \
             cycles: treating pair as {class:?}"
        )
    }
}

/// What one executed compile pass did to the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassDelta {
    /// The pass name (e.g. `subgraph-cse`).
    pub pass: &'static str,
    /// Nodes the pass appended (repair circuits).
    pub nodes_added: usize,
    /// Live nodes the pass eliminated (CSE merges).
    pub nodes_removed: usize,
    /// Short human-readable summary of the pass's effect.
    pub detail: String,
}

/// What the pipeline did to a graph during compilation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileReport {
    /// One entry per auto-inserted repair manipulator.
    pub inserted: Vec<String>,
    /// One entry per binary operator whose precondition is not structurally
    /// guaranteed and was *not* repaired (auto-repair off).
    pub unsatisfied: Vec<String>,
    /// Number of fused manipulator runs of length ≥ 2.
    pub fused_runs: usize,
    /// One entry per structurally-unknown input pair whose class was resolved
    /// by a measured-SCC probe ([`PlannerOptions::measure_unknown`]).
    pub measured: Vec<MeasuredPair>,
    /// Duplicate subgraph nodes the CSE pass merged away.
    pub shared_subgraphs: usize,
    /// Failing operators repaired by *reusing* an existing identical
    /// manipulator instead of inserting a fresh one (cost-driven placement).
    pub shared_repairs: usize,
    /// Source-drawing steps whose [`SourceSpec`] is shared with an earlier
    /// step — generator hardware the plan does not have to duplicate
    /// (tallied when the CSE pass is enabled).
    pub shared_sources: usize,
    /// Linear spans the span-fusion pass collapsed into [`Step::Fused`]
    /// steps.
    pub fused_spans: usize,
    /// Dead interior nodes the dead-node-elimination pass dropped from
    /// scheduling (nodes no sink transitively consumes).
    pub dead_nodes: usize,
    /// Executable steps eliminated by span fusion (nodes folded into a
    /// fused step minus the fused steps themselves).
    pub steps_eliminated: usize,
    /// Per-pass before/after deltas, in execution order.
    pub pass_deltas: Vec<PassDelta>,
}

/// One executable step of a compiled plan. Slot indices address the dense
/// per-execution stream environment (`0..CompiledGraph::slot_count()`).
///
/// Steps are public so lowering backends (the `sc_rtl` gate-level elaborator
/// in particular) can walk a plan's exact execution structure — including
/// fused manipulator runs, fused spans, and planner-inserted repairs —
/// without re-deriving it from the source graph. The enum is
/// `#[non_exhaustive]`: consumers must handle unknown future step kinds
/// (typically by reporting the plan as unsupported).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Step {
    /// Copy `BatchInput::streams[slot]` into `dst`.
    Input {
        /// Index into the batch item's stream list.
        slot: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// D/S-convert `BatchInput::values[slot]` into `dst`.
    Generate {
        /// Index into the batch item's value list.
        slot: usize,
        /// Comparator sample source, an index into
        /// [`CompiledGraph::sources`].
        source: usize,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Destination stream slot.
        dst: usize,
    },
    /// D/S-convert a constant probability into `dst`.
    Constant {
        /// The encoded probability.
        probability: f64,
        /// Comparator sample source, an index into
        /// [`CompiledGraph::sources`].
        source: usize,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Destination stream slot.
        dst: usize,
    },
    /// Run a (possibly fused) chain of correlation manipulators.
    Manipulate {
        /// The chained circuit kinds, in dataflow order.
        kinds: Vec<ManipulatorKind>,
        /// X input slot.
        x: usize,
        /// Y input slot.
        y: usize,
        /// Manipulated-X destination slot.
        dst_x: usize,
        /// Manipulated-Y destination slot.
        dst_y: usize,
    },
    /// S/D + D/S regeneration from a fresh source.
    Regenerate {
        /// Re-encoding sample source, an index into
        /// [`CompiledGraph::sources`].
        source: usize,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Input stream slot.
        src: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// Stream complement.
    Not {
        /// Input stream slot.
        src: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// A two-input arithmetic operator.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// X input slot.
        x: usize,
        /// Y input slot.
        y: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// A saturating-counter FSM activation.
    UnaryFsm {
        /// The FSM design.
        op: UnaryFsmOp,
        /// Input stream slot.
        src: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// The feedback SC divider.
    Divide {
        /// Comparison sample source, an index into
        /// [`CompiledGraph::sources`].
        source: usize,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Integration counter width.
        counter_bits: u32,
        /// Numerator input slot.
        x: usize,
        /// Denominator input slot.
        y: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// MUX scaled adder with a dedicated 0.5-valued select source.
    MuxAdd {
        /// Select-stream source, an index into [`CompiledGraph::sources`].
        select: usize,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// X input slot (picked when the select bit is 1).
        x: usize,
        /// Y input slot.
        y: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// Weighted multiplexer tree.
    WeightedMux {
        /// Per-input selection probabilities, in input order.
        weights: Vec<f64>,
        /// Selection sample source, an index into
        /// [`CompiledGraph::sources`].
        select: usize,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Input stream slots, one per weight.
        srcs: Vec<usize>,
        /// Destination stream slot.
        dst: usize,
    },
    /// Sink: expose the stream itself.
    SinkStream {
        /// Output name.
        name: String,
        /// Input stream slot.
        src: usize,
    },
    /// Sink: S/D conversion to the stream's unipolar value.
    SinkValue {
        /// Output name.
        name: String,
        /// Input stream slot.
        src: usize,
    },
    /// Sink: S/D conversion to the raw 1s count.
    SinkCount {
        /// Output name.
        name: String,
        /// Input stream slot.
        src: usize,
    },
    /// Sink: accumulative parallel counter over all inputs.
    SinkSum {
        /// Output name.
        name: String,
        /// Input stream slots.
        srcs: Vec<usize>,
    },
    /// Sink: SCC probe over a stream pair.
    SccProbe {
        /// Output name.
        name: String,
        /// X input slot.
        x: usize,
        /// Y input slot.
        y: usize,
    },
    /// A span-fusion group: the contained steps execute back to back as one
    /// scheduled step, in dataflow order, over the same dense slots they
    /// would use unfused. Produced by the span-fusion pass for maximal
    /// linear source→gate→sink spans.
    Fused {
        /// The collapsed steps, in scheduling (dataflow) order.
        steps: Vec<Step>,
    },
}

/// A validated, planned, optimized, topologically ordered execution plan.
///
/// Produced by [`Graph::compile`]; executed by [`crate::Executor`]. The plan
/// is immutable and `Send + Sync`, so one compiled graph can drive many
/// worker threads at once.
///
/// A plan is two parts: a template — steps, slot counts, ops, report, pass
/// set and class — shared through an `Arc` by every clone and
/// [`CompiledGraph::retarget_sources`] copy, and a small per-plan table of
/// the distinct [`SourceSpec`]s its steps draw ([`CompiledGraph::sources`]).
/// Steps name their sample source by index into that table, so cloning or
/// retargeting a plan copies only the table.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    pub(crate) template: Arc<PlanTemplate>,
    pub(crate) sources: Box<[SourceSpec]>,
}

/// The source-independent part of a [`CompiledGraph`], built once by the
/// emit stage.
#[derive(Debug)]
pub(crate) struct PlanTemplate {
    pub(crate) steps: Vec<Step>,
    pub(crate) slot_count: usize,
    pub(crate) value_slots: usize,
    pub(crate) stream_slots: usize,
    pub(crate) report: CompileReport,
    /// Every operation the plan executes (graph nodes plus planner-inserted
    /// repairs), for introspection and the `sc_hwcost` bridge.
    pub(crate) ops: Vec<NodeOp>,
    /// The optimizer pass set the plan was compiled under.
    pub(crate) passes: PassSet,
    /// Template-class id from [`next_plan_class`] (see
    /// [`CompiledGraph::plan_class`]).
    pub(crate) class: u64,
}

impl CompiledGraph {
    /// What the pipeline inserted, merged, left unrepaired, and fused.
    #[must_use]
    pub fn report(&self) -> &CompileReport {
        &self.template.report
    }

    /// Every operation the plan executes, including auto-inserted repair
    /// manipulators.
    ///
    /// The ops belong to the shared template, so their [`SourceSpec`]s are
    /// the ones the template was compiled with: a
    /// [`CompiledGraph::retarget_sources`] copy reports its rewritten specs
    /// through [`CompiledGraph::sources`] only.
    #[must_use]
    pub fn ops(&self) -> &[NodeOp] {
        &self.template.ops
    }

    /// The optimizer pass set the plan was compiled under.
    #[must_use]
    pub fn passes(&self) -> PassSet {
        self.template.passes
    }

    /// Number of executable steps (fused runs and fused spans count once).
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.template.steps.len()
    }

    /// The executable steps, in scheduled order — the exact structure the
    /// executor runs and lowering backends elaborate.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.template.steps
    }

    /// The distinct sample sources the plan's steps draw, in first-use
    /// order. A step's `source` / `select` field is an index into this
    /// table; equal indices share one physical generator (§II.B).
    #[must_use]
    pub fn sources(&self) -> &[SourceSpec] {
        &self.sources
    }

    /// Number of dense stream slots an execution environment needs.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.template.slot_count
    }

    /// The plan's template class: a process-unique id minted per
    /// [`Graph::compile`] call and *shared* by every clone and
    /// [`CompiledGraph::retarget_sources`] copy of that plan. Plans of one
    /// class share one template (same steps, slots, and scheduling; only
    /// their [`CompiledGraph::sources`] may differ), so the executor and the
    /// telemetry sink attribute job counts and latency per class: a report
    /// names *which* compiled template is slow.
    #[must_use]
    pub fn plan_class(&self) -> u64 {
        self.template.class
    }

    /// Returns a copy of the plan with every entry of its
    /// [`CompiledGraph::sources`] table rewritten by `retarget` (`None`
    /// keeps the spec unchanged). The copy shares this plan's template —
    /// wiring, slots, skips, scheduling, ops, report and class — so it is
    /// exactly as valid as the original and costs one table copy.
    ///
    /// This exists so one compiled plan can serve as a *template* for a
    /// family of structurally identical designs that differ only in source
    /// seeding — e.g. `sc_image` compiles one plan per tile shape and
    /// retargets the per-tile select-LFSR seeds, instead of re-running the
    /// whole compiler per tile. Retargeting must preserve the spec *equality
    /// structure* the planner reasoned about (two different specs must stay
    /// different); seed-only rewrites within one family do.
    #[must_use]
    pub fn retarget_sources<F: Fn(&SourceSpec) -> Option<SourceSpec>>(
        &self,
        retarget: F,
    ) -> CompiledGraph {
        CompiledGraph {
            template: Arc::clone(&self.template),
            sources: self
                .sources
                .iter()
                .map(|spec| retarget(spec).unwrap_or_else(|| spec.clone()))
                .collect(),
        }
    }

    /// Number of digital value slots the batch items must provide.
    #[must_use]
    pub fn value_slots(&self) -> usize {
        self.template.value_slots
    }

    /// Number of input stream slots the batch items must provide.
    #[must_use]
    pub fn stream_slots(&self) -> usize {
        self.template.stream_slots
    }
}

impl Graph {
    /// Compiles the graph into an executable plan by running the staged
    /// optimizer pass pipeline (see the `crate::passes` module).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`], [`GraphError::Cycle`],
    /// [`GraphError::BadArity`] (a `WeightedMux` whose weight count drifted
    /// from its input count via [`Graph::rewire`] misuse cannot occur, but
    /// the check is kept for defence), or [`GraphError::DuplicateSink`].
    pub fn compile(&self, options: &PlannerOptions) -> Result<CompiledGraph, GraphError> {
        self.compile_with_telemetry(options, &TelemetrySink::default())
    }

    /// [`Graph::compile`] with per-pass profiling: records one
    /// [`sc_telemetry::Stage::Compile`] span over the whole call with one
    /// nested span per executed pass ([`sc_telemetry::Stage::CompileValidate`],
    /// [`sc_telemetry::Stage::CompilePlan`],
    /// [`sc_telemetry::Stage::CompileCse`],
    /// [`sc_telemetry::Stage::CompileRepair`],
    /// [`sc_telemetry::Stage::CompileFuse`],
    /// [`sc_telemetry::Stage::CompileEmit`], plus one
    /// [`sc_telemetry::Stage::MeasuredProbe`] span per planner probe
    /// execution), and on success bumps the sink's compilation,
    /// repair-insertion, measured-probe, and fused-run counters straight
    /// from the plan's [`CompileReport`] — the counters are derived from
    /// the report, so the two cannot drift.
    ///
    /// # Errors
    ///
    /// Exactly as [`Graph::compile`].
    pub fn compile_with_telemetry(
        &self,
        options: &PlannerOptions,
        telemetry: &TelemetrySink,
    ) -> Result<CompiledGraph, GraphError> {
        crate::passes::run_pipeline(self, options, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BinaryOp, ManipulatorKind};
    use sc_rng::SourceSpec;

    fn sobol(d: u32) -> SourceSpec {
        SourceSpec::Sobol { dimension: d }
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Graph::new();
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn plan_class_marks_templates() {
        let build = || {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
            g.sink_stream("x", sx);
            g.sink_stream("y", sy);
            g
        };
        let a = build().compile(&PlannerOptions::default()).unwrap();
        let b = build().compile(&PlannerOptions::default()).unwrap();
        // Every compile mints a fresh class; clones and retargeted copies
        // keep their template's class (that sharing is what per-class
        // attribution keys on).
        assert_ne!(a.plan_class(), b.plan_class());
        assert_eq!(a.clone().plan_class(), a.plan_class());
        let retargeted = a.retarget_sources(|_| {
            Some(SourceSpec::Lfsr {
                width: 16,
                seed: 0x1234,
            })
        });
        assert_eq!(retargeted.plan_class(), a.plan_class());
    }

    #[test]
    fn plan_class_low_bits_encode_the_pass_set() {
        let build = |passes: PassSet| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = g.binary(BinaryOp::CaAdd, x, y);
            g.sink_value("z", z);
            g.compile(&PlannerOptions::with_passes(passes)).unwrap()
        };
        let optimized = build(PassSet::all());
        let baseline = build(PassSet::none());
        assert_ne!(optimized.plan_class(), baseline.plan_class());
        assert_eq!(optimized.passes(), PassSet::all());
        assert_eq!(baseline.passes(), PassSet::none());
    }

    #[test]
    fn duplicate_sink_rejected() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        g.sink_value("z", x);
        g.sink_count("z", x);
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::DuplicateSink { .. })
        ));
    }

    #[test]
    fn rewired_cycle_detected() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let a = g.binary(BinaryOp::CaAdd, x, y);
        let b = g.not(a);
        // Make a depend on b: a → b → a.
        g.rewire(a.node(), 0, b).unwrap();
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::Cycle { .. })
        ));
    }

    #[test]
    fn identity_cycle_is_rejected_not_overflowed() {
        // Regression: pair_class recurses through identity manipulators, so a
        // rewired identity self-loop must be caught by the up-front cycle
        // check instead of overflowing the stack inside the planner.
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let (i0, i1) = g.manipulate(ManipulatorKind::Identity, x, y);
        let z = g.binary(BinaryOp::AndMultiply, i0, i1);
        g.sink_value("z", z);
        // Make the identity node consume its own output.
        g.rewire(i0.node(), 0, i0).unwrap();
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::Cycle { .. })
        ));
    }

    #[test]
    fn planner_inserts_synchronizer_for_xor_on_uncorrelated_inputs() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::XorSubtract, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.report().inserted.len(), 1);
        assert!(plan.report().inserted[0].contains("synchronizer"));
        assert!(plan
            .ops()
            .iter()
            .any(|op| matches!(op, NodeOp::Manipulate(ManipulatorKind::Synchronizer { .. }))));
    }

    #[test]
    fn planner_skips_satisfied_preconditions() {
        let mut g = Graph::new();
        // Shared spec ⇒ positively correlated ⇒ or_max satisfied directly.
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(1));
        let z = g.binary(BinaryOp::OrMax, x, y);
        g.sink_value("max", z);
        // Different specs ⇒ uncorrelated ⇒ and_multiply satisfied directly.
        let a = g.generate(2, sobol(3));
        let b = g.generate(3, sobol(4));
        let m = g.binary(BinaryOp::AndMultiply, a, b);
        g.sink_value("prod", m);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(plan.report().inserted.is_empty());
        assert!(plan.report().unsatisfied.is_empty());
    }

    #[test]
    fn planner_tracks_manipulator_output_classes() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        // Desynchronizer pins the pair to Negative: saturating add satisfied.
        let (dx, dy) = g.manipulate(ManipulatorKind::Desynchronizer { depth: 1 }, x, y);
        let s = g.binary(BinaryOp::SaturatingAdd, dx, dy);
        g.sink_value("sat", s);
        // Identity preserves the underlying Uncorrelated class.
        let (ix, iy) = g.manipulate(ManipulatorKind::Identity, x, y);
        let p = g.binary(BinaryOp::AndMultiply, ix, iy);
        g.sink_value("prod", p);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(
            plan.report().inserted.is_empty(),
            "unexpected inserts: {:?}",
            plan.report().inserted
        );
    }

    #[test]
    fn no_repair_records_unsatisfied() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::XorSubtract, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
        assert!(plan.report().inserted.is_empty());
        assert_eq!(plan.report().unsatisfied.len(), 1);
        assert!(plan.report().unsatisfied[0].contains("Positive"));
    }

    #[test]
    fn measured_scc_feedback_resolves_unknown_pairs() {
        // or_max and and_min over a shared-spec (positively correlated) pair
        // produce two operator outputs whose mutual class is structurally
        // Unknown — but their actual SCC is strongly positive (both outputs
        // are supersets/subsets of the same streams). The XOR subtractor over
        // them therefore needs no repair once the pair is measured.
        let build = |options: &PlannerOptions| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(1)); // shared spec ⇒ SCC +1
            let hi = g.binary(BinaryOp::OrMax, x, y);
            let lo = g.binary(BinaryOp::AndMin, x, y);
            let z = g.binary(BinaryOp::XorSubtract, hi, lo);
            g.sink_value("range", z);
            g.compile(options).unwrap()
        };
        let structural = build(&PlannerOptions::default());
        assert_eq!(
            structural.report().inserted.len(),
            1,
            "without measurement the Unknown pair is pessimistically repaired"
        );
        assert!(structural.report().measured.is_empty());
        let measured = build(&PlannerOptions::with_measurement(256));
        assert!(
            measured.report().inserted.is_empty(),
            "measured SCC ≈ +1 satisfies the XOR precondition: {:?}",
            measured.report().inserted
        );
        assert_eq!(measured.report().measured.len(), 1);
        assert_eq!(measured.report().measured[0].class, SccClass::Positive);
        assert!(measured.report().measured[0]
            .to_string()
            .contains("Positive"));
    }

    #[test]
    fn measurement_still_repairs_truly_uncorrelated_pairs() {
        // Two unrelated multiplies: the pair really is uncorrelated, so the
        // measured class must still trigger a synchronizer for the XOR.
        let mut g = Graph::new();
        let a = g.generate(0, sobol(1));
        let b = g.generate(1, sobol(2));
        let c = g.generate(2, sobol(3));
        let d = g.generate(3, sobol(4));
        let p = g.binary(BinaryOp::AndMultiply, a, b);
        let q = g.binary(BinaryOp::AndMultiply, c, d);
        let z = g.binary(BinaryOp::XorSubtract, p, q);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::with_measurement(256)).unwrap();
        assert_eq!(plan.report().measured.len(), 1);
        assert_eq!(plan.report().measured[0].class, SccClass::Uncorrelated);
        assert!(plan.report().measured[0]
            .to_string()
            .contains("Uncorrelated"));
        assert_eq!(plan.report().inserted.len(), 1);
    }

    /// The structured [`MeasuredPair`] record renders exactly the legacy
    /// report line, so log consumers see unchanged text.
    #[test]
    fn measured_pair_display_reproduces_legacy_text() {
        let pair = MeasuredPair {
            label: "xor_subtract".to_string(),
            node: 7,
            scc: 0.98765,
            probe_length: 256,
            class: SccClass::Positive,
        };
        assert_eq!(
            pair.to_string(),
            "inputs of xor_subtract (node n7) measured SCC 0.988 over 256 cycles: \
             treating pair as Positive"
        );
    }

    /// The configurable probe stimulus defaults to 0.5 and, at 0.5,
    /// reproduces the decisions the planner made before the knob existed —
    /// for both the skip-repair and the must-repair measured outcomes.
    #[test]
    fn probe_value_half_reproduces_current_decisions() {
        assert!((PlannerOptions::default().probe_value - 0.5).abs() < f64::EPSILON);
        let build = |options: &PlannerOptions| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(1));
            let hi = g.binary(BinaryOp::OrMax, x, y);
            let lo = g.binary(BinaryOp::AndMin, x, y);
            let z = g.binary(BinaryOp::XorSubtract, hi, lo);
            g.sink_value("range", z);
            g.compile(options).unwrap()
        };
        let implicit = build(&PlannerOptions::with_measurement(256));
        let explicit = build(&PlannerOptions {
            probe_value: 0.5,
            ..PlannerOptions::with_measurement(256)
        });
        assert_eq!(implicit.report(), explicit.report());
        assert!(explicit.report().inserted.is_empty());
        // A different stimulus still measures (and here reaches the same
        // strongly-positive verdict — the pair is shared-source at any value).
        let shifted = build(&PlannerOptions {
            probe_value: 0.8,
            ..PlannerOptions::with_measurement(256)
        });
        assert_eq!(shifted.report().measured.len(), 1);
        assert_eq!(shifted.report().measured[0].class, SccClass::Positive);
    }

    #[test]
    fn retargeted_plan_matches_directly_compiled_plan() {
        use crate::exec::{BatchInput, Executor};
        let build = |seed: u64| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = g.mux_add(x, y, SourceSpec::Lfsr { width: 16, seed });
            g.sink_stream("z", z);
            g.compile(&PlannerOptions::default()).unwrap()
        };
        let template = build(0xACE1);
        let retargeted = template.retarget_sources(|spec| match spec {
            SourceSpec::Lfsr { width: 16, seed } if *seed == 0xACE1 => Some(SourceSpec::Lfsr {
                width: 16,
                seed: 0xBEEF,
            }),
            _ => None,
        });
        let direct = build(0xBEEF);
        let input = BatchInput::with_values(vec![0.3, 0.8]);
        let exec = Executor::new(257);
        assert_eq!(
            exec.run(&retargeted, &input).unwrap(),
            exec.run(&direct, &input).unwrap()
        );
        // And the retargeted plan really differs from the template.
        assert_ne!(
            exec.run(&retargeted, &input).unwrap(),
            exec.run(&template, &input).unwrap()
        );
    }

    #[test]
    fn retargeted_plans_share_their_template() {
        let lfsr = |seed| SourceSpec::Lfsr { width: 16, seed };
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(1));
        let z = g.generate(2, sobol(2));
        let a = g.mux_add(x, y, lfsr(0xACE1));
        let b = g.mux_add_skipped(a, z, lfsr(0xACE1), 64);
        let c = g.mux_add(b, x, lfsr(0x7331));
        g.sink_value("c", c);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        // One entry per distinct spec, in first-use order.
        let sources = plan.sources();
        for (i, spec) in sources.iter().enumerate() {
            assert!(!sources[..i].contains(spec), "{spec} listed twice");
        }
        assert_eq!(sources.len(), 4);
        assert_eq!(plan.report().shared_sources, 2);
        let retargeted = plan.retarget_sources(|spec| match spec {
            SourceSpec::Lfsr { width: 16, seed } if *seed == 0xACE1 => Some(lfsr(0xBEEF)),
            _ => None,
        });
        assert!(std::ptr::eq(plan.steps(), retargeted.steps()));
        assert!(std::ptr::eq(plan.clone().steps(), plan.steps()));
        assert_eq!(retargeted.plan_class(), plan.plan_class());
        let changed: Vec<(&SourceSpec, &SourceSpec)> = sources
            .iter()
            .zip(retargeted.sources())
            .filter(|(old, new)| old != new)
            .collect();
        assert_eq!(changed, [(&lfsr(0xACE1), &lfsr(0xBEEF))]);
    }

    #[test]
    fn retargeting_recurses_into_fused_spans() {
        use crate::exec::{BatchInput, Executor};
        // A linear gen → mux_add → sink graph span-fuses under the default
        // pass set, so the MuxAdd select spec lives *inside* a Fused step;
        // retargeting must still reach it.
        let build = |seed: u64| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = g.mux_add(x, y, SourceSpec::Lfsr { width: 16, seed });
            g.sink_stream("z", z);
            g.compile(&PlannerOptions::default()).unwrap()
        };
        let template = build(0xACE1);
        assert!(
            template
                .steps()
                .iter()
                .any(|s| matches!(s, Step::Fused { .. })),
            "expected the linear span to fuse: {:?}",
            template.steps()
        );
        let retargeted = template.retarget_sources(|spec| match spec {
            SourceSpec::Lfsr { width: 16, seed } if *seed == 0xACE1 => Some(SourceSpec::Lfsr {
                width: 16,
                seed: 0xBEEF,
            }),
            _ => None,
        });
        let direct = build(0xBEEF);
        let input = BatchInput::with_values(vec![0.3, 0.8]);
        let exec = Executor::new(257);
        assert_eq!(
            exec.run(&retargeted, &input).unwrap(),
            exec.run(&direct, &input).unwrap()
        );
    }

    #[test]
    fn steps_are_introspectable() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::CaAdd, x, y);
        g.sink_value("z", z);
        let plan = g
            .compile(&PlannerOptions::with_passes(PassSet::none()))
            .unwrap();
        assert_eq!(plan.steps().len(), plan.step_count());
        assert!(plan.slot_count() >= 3);
        assert!(plan.steps().iter().any(|s| matches!(
            s,
            Step::Binary {
                op: BinaryOp::CaAdd,
                ..
            }
        )));
    }

    #[test]
    fn linear_manipulator_runs_fuse() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let (b0, b1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, a0, a1);
        let (c0, c1) = g.manipulate(ManipulatorKind::Isolator { delay: 2 }, b0, b1);
        g.sink_stream("x", c0);
        g.sink_stream("y", c1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.report().fused_runs, 1);
        // 2 inputs + 1 fused manipulator step + 2 sinks.
        assert_eq!(plan.step_count(), 5);
        let unfused = g.compile(&PlannerOptions::with_passes(PassSet {
            fusion: false,
            ..PassSet::all()
        }));
        assert_eq!(unfused.unwrap().step_count(), 7);
    }

    #[test]
    fn branching_runs_do_not_fuse() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let (_, b1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, a0, a1);
        // a0 feeds the second manipulator AND a sink: the run must not fuse.
        g.sink_stream("tap", a0);
        g.sink_stream("out", b1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.report().fused_runs, 0);
    }

    #[test]
    fn slot_counts_reflect_batch_requirements() {
        let mut g = Graph::new();
        let x = g.generate(3, sobol(1));
        let s = g.input_stream(1);
        let z = g.binary(BinaryOp::CaAdd, x, s);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.value_slots(), 4);
        assert_eq!(plan.stream_slots(), 2);
    }

    #[test]
    fn subgraph_cse_merges_identical_subgraphs() {
        use crate::exec::{BatchInput, Executor};
        // Two byte-identical generate→multiply subgraphs: CSE merges both
        // the duplicated generator and the duplicated multiply.
        let build = || {
            let mut g = Graph::new();
            let a1 = g.generate(0, sobol(1));
            let a2 = g.generate(0, sobol(1)); // duplicate of a1
            let b = g.generate(1, sobol(2));
            let p = g.binary(BinaryOp::AndMultiply, a1, b);
            let q = g.binary(BinaryOp::AndMultiply, a2, b); // duplicate of p
            g.sink_value("p", p);
            g.sink_value("q", q);
            g
        };
        let cse_only = PassSet {
            cse: true,
            ..PassSet::none()
        };
        let optimized = build()
            .compile(&PlannerOptions::with_passes(cse_only))
            .unwrap();
        let baseline = build()
            .compile(&PlannerOptions::with_passes(PassSet::none()))
            .unwrap();
        assert_eq!(optimized.report().shared_subgraphs, 2);
        assert_eq!(baseline.report().shared_subgraphs, 0);
        // 3 generates + 2 multiplies + 2 sinks, minus the two merged nodes.
        assert_eq!(baseline.step_count(), 7);
        assert_eq!(optimized.step_count(), 5);
        // Bit-identity: the merged plan computes the same outputs.
        let input = BatchInput::with_values(vec![0.7, 0.4]);
        let exec = Executor::new(1000);
        assert_eq!(
            exec.run(&optimized, &input).unwrap(),
            exec.run(&baseline, &input).unwrap()
        );
    }

    #[test]
    fn cost_driven_placement_reuses_identical_repairs() {
        use crate::exec::{BatchInput, Executor};
        // Two operators that both require Positive inputs over the same
        // uncorrelated pair: cost-driven placement inserts one synchronizer
        // and reuses it for the second operator (reuse is free).
        let build = || {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let d = g.binary(BinaryOp::XorSubtract, x, y);
            let m = g.binary(BinaryOp::OrMax, x, y);
            g.sink_value("diff", d);
            g.sink_value("max", m);
            g
        };
        let repair_only = PassSet {
            cost_repair: true,
            ..PassSet::none()
        };
        let optimized = build()
            .compile(&PlannerOptions::with_passes(repair_only))
            .unwrap();
        let baseline = build()
            .compile(&PlannerOptions::with_passes(PassSet::none()))
            .unwrap();
        assert_eq!(baseline.report().inserted.len(), 2);
        assert_eq!(baseline.report().shared_repairs, 0);
        assert_eq!(optimized.report().inserted.len(), 1);
        assert_eq!(optimized.report().shared_repairs, 1);
        // One fewer manipulator executes and is costed.
        assert_eq!(optimized.step_count() + 1, baseline.step_count());
        // A second synchronizer over identical inputs computes identical
        // streams, so sharing one is bit-identical.
        let input = BatchInput::with_values(vec![0.3, 0.8]);
        let exec = Executor::new(1000);
        assert_eq!(
            exec.run(&optimized, &input).unwrap(),
            exec.run(&baseline, &input).unwrap()
        );
    }

    #[test]
    fn span_fusion_collapses_linear_spans() {
        use crate::exec::{BatchInput, Executor};
        // gen → not → sink is one maximal linear span: three scheduled
        // steps collapse into a single Fused step.
        let build = || {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let n = g.not(x);
            g.sink_value("inv", n);
            g
        };
        let fuse_only = PassSet {
            fusion: true,
            ..PassSet::none()
        };
        let optimized = build()
            .compile(&PlannerOptions::with_passes(fuse_only))
            .unwrap();
        let baseline = build()
            .compile(&PlannerOptions::with_passes(PassSet::none()))
            .unwrap();
        assert_eq!(baseline.step_count(), 3);
        assert_eq!(optimized.step_count(), 1);
        assert_eq!(optimized.report().fused_spans, 1);
        assert_eq!(optimized.report().steps_eliminated, 2);
        let Step::Fused { steps } = &optimized.steps()[0] else {
            panic!("expected a fused span, got {:?}", optimized.steps());
        };
        assert_eq!(steps.len(), 3);
        let input = BatchInput::with_values(vec![0.25]);
        let exec = Executor::new(1000);
        assert_eq!(
            exec.run(&optimized, &input).unwrap(),
            exec.run(&baseline, &input).unwrap()
        );
    }

    #[test]
    fn span_fusion_keeps_fsm_steps_solo() {
        // Span fusion leaves FSM activations unfused: absorbing them changes
        // plan shapes, which needs its own measurement.
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let t = g.stanh(3, x);
        g.sink_value("t", t);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(plan
            .steps()
            .iter()
            .any(|s| matches!(s, Step::UnaryFsm { .. })));
    }

    #[test]
    fn pass_deltas_record_the_executed_pipeline() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::XorSubtract, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let passes: Vec<&str> = plan.report().pass_deltas.iter().map(|d| d.pass).collect();
        assert_eq!(
            passes,
            vec![
                "validate",
                "scc-infer",
                "subgraph-cse",
                "dead-node-elim",
                "repair-placement",
                "span-fusion",
                "emit"
            ]
        );
        let repair = plan
            .report()
            .pass_deltas
            .iter()
            .find(|d| d.pass == "repair-placement")
            .unwrap();
        assert_eq!(repair.nodes_added, 1);
        // Disabled passes leave no delta.
        let baseline = g
            .compile(&PlannerOptions::with_passes(PassSet::none()))
            .unwrap();
        let baseline_passes: Vec<&str> = baseline
            .report()
            .pass_deltas
            .iter()
            .map(|d| d.pass)
            .collect();
        assert_eq!(
            baseline_passes,
            vec!["validate", "scc-infer", "repair-placement", "emit"]
        );
    }

    #[test]
    fn dead_node_elim_drops_orphans_without_changing_output() {
        // An orphaned multiply chain never reaches the sink: DCE drops it
        // from scheduling, and the sink value is bit-identical either way.
        let build = || {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = g.binary(BinaryOp::XorSubtract, x, y);
            g.sink_value("z", z);
            let a = g.generate(2, sobol(3));
            let b = g.generate(3, sobol(4));
            g.binary(BinaryOp::AndMultiply, a, b); // orphan: no sink
            g
        };
        let g = build();
        let dce = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(dce.report().dead_nodes, 3, "orphan chain (2 gens + AND)");
        let delta = dce
            .report()
            .pass_deltas
            .iter()
            .find(|d| d.pass == "dead-node-elim")
            .unwrap();
        assert_eq!(delta.nodes_removed, 3);
        let kept = g
            .compile(&PlannerOptions::with_passes(PassSet {
                dce: false,
                ..PassSet::all()
            }))
            .unwrap();
        assert_eq!(kept.report().dead_nodes, 0);
        assert!(
            dce.steps().len() < kept.steps().len(),
            "DCE should schedule fewer steps"
        );
        let exec = crate::Executor::new(256);
        let input = crate::exec::BatchInput::with_values(vec![0.8, 0.3, 0.5, 0.5]);
        let a = exec.run_batch(&dce, std::slice::from_ref(&input)).unwrap();
        let b = exec.run_batch(&kept, std::slice::from_ref(&input)).unwrap();
        assert_eq!(a[0].value("z"), b[0].value("z"));
    }

    #[test]
    fn dump_ir_hook_sees_every_executed_pass() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DUMPS: AtomicUsize = AtomicUsize::new(0);
        fn record(pass: &str, ir: &str) {
            assert!(!pass.is_empty());
            assert!(ir.contains("n0:"), "IR dump should list nodes: {ir:?}");
            DUMPS.fetch_add(1, Ordering::SeqCst);
        }
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::XorSubtract, x, y);
        g.sink_value("z", z);
        let options = PlannerOptions {
            dump_ir: Some(record),
            ..PlannerOptions::default()
        };
        g.compile(&options).unwrap();
        // validate, scc-infer, subgraph-cse, dead-node-elim,
        // repair-placement, span-fusion.
        assert_eq!(DUMPS.load(Ordering::SeqCst), 6);
    }
}
