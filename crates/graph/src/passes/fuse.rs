//! The **span-fusion** pass: groups linear source→gate→sink spans so
//! emission collapses each into a single [`crate::Step::Fused`] step.

use super::{topo_order, Ir, Pass};
use crate::compile::{CompileReport, PlannerOptions};
use crate::graph::GraphError;
use crate::node::{BinaryOp, NodeOp, Wire};
use sc_telemetry::{Stage, TelemetrySink};
use std::collections::HashMap;

/// Finds maximal linear spans — chains where each node's single output port
/// feeds exactly one live consumer — and groups them for fused emission.
/// The scheduler later builds every member's step at its normal position
/// (identical slot numbering) but stashes non-tail members, emitting one
/// [`crate::Step::Fused`] at the tail; the executor and the RTL elaborator
/// run the sub-steps back to back in the same order, so the collapse is
/// bit-identical by construction.
///
/// FSM-bearing step kinds — manipulators (which have their own chain
/// fusion), saturating-counter FSMs, and counter-based max/min — stay solo:
/// absorbing them would change plan shapes, which is left for a measured
/// change of its own.
pub(crate) struct SpanFusion;

impl Pass for SpanFusion {
    fn name(&self) -> &'static str {
        "span-fusion"
    }

    fn stage(&self) -> Stage {
        Stage::CompileFuse
    }

    fn enabled(&self, options: &PlannerOptions) -> bool {
        options.passes.fusion
    }

    fn run(
        &self,
        ir: &mut Ir,
        _options: &PlannerOptions,
        report: &mut CompileReport,
        _telemetry: &TelemetrySink,
    ) -> Result<String, GraphError> {
        let mut consumer_count: HashMap<Wire, usize> = HashMap::new();
        let mut sole_consumer: HashMap<Wire, usize> = HashMap::new();
        for (i, node) in ir.nodes.iter().enumerate() {
            if !ir.live[i] {
                continue;
            }
            for wire in &node.inputs {
                *consumer_count.entry(*wire).or_insert(0) += 1;
                sole_consumer.insert(*wire, i);
            }
        }
        let eligible = |i: usize| -> bool {
            ir.live[i]
                && !matches!(
                    ir.nodes[i].op,
                    // Manipulators fuse through their own chain mechanism;
                    // FSM and counter-based steps stay solo.
                    NodeOp::Manipulate(_)
                        | NodeOp::UnaryFsm(_)
                        | NodeOp::Binary(BinaryOp::CaMax | BinaryOp::CaMin)
                )
        };
        // A node links forward into its consumer when its one output port
        // has exactly one live consumer and both ends are eligible.
        let link = |i: usize| -> Option<usize> {
            if !eligible(i) || ir.nodes[i].op.output_ports() != 1 {
                return None;
            }
            let out = Wire {
                node: crate::node::NodeId(i),
                port: 0,
            };
            if consumer_count.get(&out) != Some(&1) {
                return None;
            }
            let next = *sole_consumer.get(&out)?;
            eligible(next).then_some(next)
        };
        // Resolve each node's span tail in reverse topological order:
        // tail(i) = tail(link(i)), or i itself where the chain stops.
        let order = topo_order(&ir.nodes)?;
        let mut tail_of: Vec<usize> = (0..ir.nodes.len()).collect();
        for &i in order.iter().rev() {
            if let Some(next) = link(i) {
                tail_of[i] = tail_of[next];
            }
        }
        // Materialise groups (first-seen order over the topological walk).
        let mut group_id: HashMap<usize, usize> = HashMap::new();
        for &i in &order {
            let tail = tail_of[i];
            if tail == i {
                continue;
            }
            let next_id = ir.group_tail.len();
            let g = *group_id.entry(tail).or_insert_with(|| {
                ir.group_tail.push(tail);
                ir.group_of[tail] = Some(next_id);
                next_id
            });
            ir.group_of[i] = Some(g);
            report.steps_eliminated += 1;
        }
        report.fused_spans = ir.group_tail.len();
        Ok(format!(
            "{} spans fused, {} steps eliminated",
            report.fused_spans, report.steps_eliminated
        ))
    }
}
