//! The **scc-infer** pass: structural SCC class derivation with optional
//! measured-probe feedback.

use super::{Ir, Pass};
use crate::compile::{CompileReport, MeasuredPair, PassSet, PlannerOptions};
use crate::graph::{Graph, GraphError};
use crate::node::{ManipulatorKind, Node, NodeOp, SccClass, Wire};
use sc_bitstream::Bitstream;
use sc_rng::SourceSpec;
use sc_telemetry::{Counter, Stage, TelemetrySink};

/// Derives every correlation-tracked operator's input-pair SCC class and
/// stores it in [`Ir::classes`] for the repair-placement pass. Runs the
/// measured-SCC probe for structurally [`SccClass::Unknown`] pairs when
/// [`PlannerOptions::measure_unknown`] is set.
///
/// Classes are derived on the pre-repair graph; repair placement later only
/// rewires the failing operator's own inputs, which cannot change any other
/// pair's structural class, so inferring everything up front matches the
/// legacy interleaved derivation exactly.
pub(crate) struct SccInfer;

impl Pass for SccInfer {
    fn name(&self) -> &'static str {
        "scc-infer"
    }

    fn stage(&self) -> Stage {
        Stage::CompilePlan
    }

    fn enabled(&self, _options: &PlannerOptions) -> bool {
        true
    }

    fn run(
        &self,
        ir: &mut Ir,
        options: &PlannerOptions,
        report: &mut CompileReport,
        telemetry: &TelemetrySink,
    ) -> Result<String, GraphError> {
        let mut probed = 0usize;
        for i in 0..ir.nodes.len() {
            let Some((label, _requirement)) = ir.nodes[i].op.correlation_requirement() else {
                continue;
            };
            let (a, b) = (ir.nodes[i].inputs[0], ir.nodes[i].inputs[1]);
            let mut class = pair_class(&ir.nodes, a, b);
            // Measured-SCC feedback: a structurally unknown pair (e.g. two
            // arithmetic-operator outputs) is probed with a short execution
            // over representative inputs, and the repair decision uses the
            // measured class — the SccTracker-in-the-loop design the ROADMAP
            // calls for.
            if class == SccClass::Unknown {
                if let Some(probe_length) = options.measure_unknown {
                    let probe_span = telemetry.span(Stage::MeasuredProbe);
                    telemetry.add(Counter::MeasuredProbes, 1);
                    let outcome =
                        measured_class(&ir.nodes, a, b, probe_length, options.probe_value);
                    drop(probe_span);
                    probed += 1;
                    if let Some((scc, measured)) = outcome {
                        report.measured.push(MeasuredPair {
                            label: label.to_string(),
                            node: i,
                            scc,
                            probe_length,
                            class: measured,
                        });
                        class = measured;
                    }
                }
            }
            ir.classes.insert(i, class);
        }
        Ok(format!(
            "{} pairs classified, {probed} probed",
            ir.classes.len()
        ))
    }
}

/// Structural SCC class of a pair of wires (see the crate docs for rules).
pub(crate) fn pair_class(nodes: &[Node], a: Wire, b: Wire) -> SccClass {
    if a == b {
        return SccClass::Positive;
    }
    let na = &nodes[a.node().index()];
    let nb = &nodes[b.node().index()];
    // Unwrap identity manipulators: they preserve their input pair's class.
    if let NodeOp::Manipulate(ManipulatorKind::Identity) = na.op {
        return pair_class(nodes, na.inputs[a.port() as usize], b);
    }
    if let NodeOp::Manipulate(ManipulatorKind::Identity) = nb.op {
        return pair_class(nodes, a, nb.inputs[b.port() as usize]);
    }
    // The two output ports of one manipulator carry the class it establishes.
    if a.node() == b.node() {
        if let NodeOp::Manipulate(kind) = &na.op {
            return kind.output_class().unwrap_or(SccClass::Unknown);
        }
        return SccClass::Unknown;
    }
    let source_of = |op: &NodeOp| -> Option<(SourceSpec, u64)> {
        match op {
            NodeOp::Generate { source, skip, .. } | NodeOp::ConstStream { source, skip, .. } => {
                Some((source.clone(), *skip))
            }
            _ => None,
        }
    };
    // Two generated streams: equal spec + position ⇒ every comparator sample
    // is shared ⇒ maximal positive correlation (§II.B); otherwise the sample
    // sequences are independent ⇒ (close to) uncorrelated.
    if let (Some(sa), Some(sb)) = (source_of(&na.op), source_of(&nb.op)) {
        return if sa == sb {
            SccClass::Positive
        } else {
            SccClass::Uncorrelated
        };
    }
    // Two regenerated streams behave like generated streams of their
    // re-encoding source.
    if let (
        NodeOp::Regenerate {
            source: sa,
            skip: ka,
        },
        NodeOp::Regenerate {
            source: sb,
            skip: kb,
        },
    ) = (&na.op, &nb.op)
    {
        return if sa == sb && ka == kb {
            SccClass::Positive
        } else {
            SccClass::Uncorrelated
        };
    }
    SccClass::Unknown
}

/// Probes the actual SCC of a wire pair by compiling the current node list
/// (auto-repair, measurement, and every optimizer pass off, so this cannot
/// recurse and the probe plan matches the legacy probe exactly) with an SCC
/// probe appended, and executing it for `probe_length` cycles over
/// representative inputs: every digital value slot is driven at the
/// configured [`PlannerOptions::probe_value`] stimulus and every ready-stream
/// slot with a phase-shifted alternating stream. Returns `None` if the probe
/// graph fails to compile or execute.
pub(crate) fn measured_class(
    nodes: &[Node],
    a: Wire,
    b: Wire,
    probe_length: usize,
    probe_value: f64,
) -> Option<(f64, SccClass)> {
    // Trim to the pair's ancestor cone: the probe executes only the logic
    // that actually feeds the two wires (and none of the graph's own sinks),
    // so each measurement costs the cone, not the whole design.
    let mut needed = vec![false; nodes.len()];
    let mut stack = vec![a.node().index(), b.node().index()];
    while let Some(i) = stack.pop() {
        if needed[i] {
            continue;
        }
        needed[i] = true;
        for wire in &nodes[i].inputs {
            stack.push(wire.node().index());
        }
    }
    // Two passes — repair nodes appended by earlier planning iterations sit
    // at high indices but are referenced by lower-indexed consumers — so
    // assign dense indices first, then clone with rewritten wires.
    let mut remap = vec![usize::MAX; nodes.len()];
    let mut count = 0usize;
    for (i, include) in needed.iter().enumerate() {
        if *include {
            remap[i] = count;
            count += 1;
        }
    }
    let probe_wire = |w: Wire| Wire {
        node: crate::node::NodeId(remap[w.node().index()]),
        port: w.port(),
    };
    let mut probe_nodes: Vec<Node> = Vec::with_capacity(count + 1);
    for (i, node) in nodes.iter().enumerate() {
        if !needed[i] {
            continue;
        }
        let mut clone = node.clone();
        for wire in &mut clone.inputs {
            *wire = probe_wire(*wire);
        }
        probe_nodes.push(clone);
    }
    // Sinks have no outputs, so the cone never contains one: the probe's
    // sink name is free by construction.
    let name = "__scc_probe".to_string();
    probe_nodes.push(Node {
        op: NodeOp::SccProbe { name: name.clone() },
        inputs: vec![probe_wire(a), probe_wire(b)],
    });
    let probe_graph = Graph { nodes: probe_nodes };
    let probe_options = PlannerOptions {
        auto_repair: false,
        measure_unknown: None,
        passes: PassSet::none(),
        ..PlannerOptions::default()
    };
    let plan = probe_graph.compile(&probe_options).ok()?;
    let input = crate::exec::BatchInput {
        values: vec![probe_value; plan.value_slots()],
        streams: (0..plan.stream_slots())
            .map(|slot| Bitstream::from_fn(probe_length, |i| (i + slot) % 2 == 0))
            .collect(),
    };
    let out = crate::exec::Executor::new(probe_length)
        .run(&plan, &input)
        .ok()?;
    let scc = out.value(&name)?;
    let class = if scc >= 0.5 {
        SccClass::Positive
    } else if scc <= -0.5 {
        SccClass::Negative
    } else {
        SccClass::Uncorrelated
    };
    Some((scc, class))
}
