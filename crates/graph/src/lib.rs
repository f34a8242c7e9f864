//! # sc-graph
//!
//! A dataflow-graph compiler and sharded batch executor for
//! stochastic-computing pipelines.
//!
//! The paper's accelerator (§IV) is a *circuit*: a wired graph of stream
//! generators, correlation-manipulating circuits, and arithmetic gates. This
//! crate makes that structure first-class. A [`Graph`] is built from typed
//! nodes — stream sources ([`Graph::generate`] D/S conversion,
//! [`Graph::input_stream`]), correlation manipulators
//! ([`Graph::manipulate`]), arithmetic operators ([`Graph::binary`],
//! [`Graph::mux_add`], [`Graph::weighted_mux`]), and sinks (S/D value and
//! count converters, APC sums, SCC probes) — connected by stream-valued
//! [`Wire`]s.
//!
//! [`Graph::compile`] runs a **staged optimizer pass pipeline** (validate →
//! scc-infer → subgraph-cse → repair-placement → span-fusion → emit; see
//! `passes` internals and the README's compiler section). Every binary
//! operator declares the SCC class its inputs must have (AND-multiply wants
//! SCC 0, XOR-subtract and OR-max want +1, OR-saturating-add wants −1 —
//! paper Fig. 2), the scc-infer pass derives each input pair's class
//! structurally (shared-source streams are +1, independent-source streams
//! are 0, and each manipulator pins its output pair to the class it
//! establishes), and where a precondition is not met the repair-placement
//! pass **auto-inserts** the establishing circuit — synchronizer,
//! desynchronizer, or decorrelator (§III), the paper's core insight applied
//! automatically, at the cheapest legal placement per the `sc_hwcost`
//! netlist model. The subgraph-cse pass merges structurally identical
//! subgraphs; the span-fusion pass collapses maximal linear
//! source→gate→sink spans into single [`Step::Fused`] steps; and linear
//! manipulator runs are **fused** into single [`sc_core::ManipulatorChain`]
//! steps that make one register-staged pass per 64-bit word. Each optimizer
//! pass toggles through [`PassSet`] and preserves bit-identity: optimized
//! and pass-disabled plans produce the same output bit for bit.
//!
//! The [`Executor`] then runs the compiled plan word-parallel over **batches**
//! of independent input sets, dispatched across a persistent [`WorkerPool`]
//! of long-lived threads (no external dependencies). The core engine is
//! **bounded-window streaming** ([`Executor::run_stream`]): jobs are pulled
//! lazily from an iterator with at most `window` planned-but-unfinished jobs
//! alive at once, so arbitrarily long job streams run in O(window) plan
//! memory; [`Executor::run_batch`] and [`Executor::run_group`] are thin
//! wrappers streaming a materialised list with an unbounded window. Plans
//! are `Send + Sync` plain data: every execution builds fresh deterministic
//! sources and FSMs from [`sc_rng::SourceSpec`]s, so parallel results are
//! bit-identical to sequential ones at any worker count and any window.
//!
//! A compiled plan also bridges to the gate-level cost model:
//! [`CompiledGraph::netlist`] sums the `sc_hwcost` netlists of every executed
//! operation, auto-inserted repairs included.
//!
//! **Observability.** Both the compiler and the executor accept an
//! [`sc_telemetry::TelemetrySink`] ([`Graph::compile_with_telemetry`],
//! [`Executor::with_telemetry`]): compile passes, dispatches, lane-group and
//! scalar executions, and worker park/run cycles record named spans,
//! counters, gauges, and histograms into it, drainable as one
//! [`sc_telemetry::TelemetryReport`]. The default sink is a no-op and the
//! instrumentation sits at step/job granularity — never inside the word
//! kernels — so uninstrumented runs pay (gated) near-zero overhead.
//!
//! # Example
//!
//! ```
//! use sc_graph::{BatchInput, BinaryOp, Executor, Graph, PlannerOptions};
//! use sc_rng::SourceSpec;
//!
//! // |pX − pY| needs positively correlated inputs, but the two D/S
//! // converters draw from independent Sobol dimensions...
//! let mut g = Graph::new();
//! let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
//! let y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
//! let z = g.binary(BinaryOp::XorSubtract, x, y);
//! g.sink_value("diff", z);
//!
//! // ...so the planner inserts a synchronizer in front of the XOR.
//! let plan = g.compile(&PlannerOptions::default())?;
//! assert_eq!(plan.report().inserted.len(), 1);
//!
//! // Batched execution: 4 independent input sets, sharded over 2 workers.
//! let inputs: Vec<BatchInput> = (0..4)
//!     .map(|i| BatchInput::with_values(vec![0.8, 0.2 + 0.1 * i as f64]))
//!     .collect();
//! let outs = Executor::new(1024).with_threads(2).run_batch(&plan, &inputs)?;
//! for (i, out) in outs.iter().enumerate() {
//!     let expected = (0.8f64 - (0.2 + 0.1 * i as f64)).abs();
//!     assert!((out.value("diff").unwrap() - expected).abs() < 0.07);
//! }
//! # Ok::<(), sc_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod cost;
mod draw;
pub mod exec;
pub mod graph;
pub mod node;
mod passes;
pub mod serve;

pub use compile::{
    CompileReport, CompiledGraph, MeasuredPair, PassDelta, PassSet, PlannerOptions, Step,
};
pub use exec::{
    balanced_spans, BatchInput, ExecJob, ExecOutput, Executor, PlanClassStats, StreamJob,
    StreamStats, WorkerPool, DEFAULT_WINDOW_FACTOR,
};
pub use graph::{Graph, GraphError};
pub use node::{
    BinaryOp, CorrRequirement, ManipulatorKind, Node, NodeId, NodeOp, SccClass, UnaryFsmOp, Wire,
};
pub use sc_telemetry::{TelemetryReport, TelemetrySink};
pub use serve::{
    Request, RequestAttribution, RequestError, RequestHandle, RequestReport, Service,
    ServiceConfig, SubmitError,
};
