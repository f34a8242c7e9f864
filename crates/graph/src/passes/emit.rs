//! The **emit** stage: fusion realization, dense slot assignment, and step
//! emission in topological order.

use super::Ir;
use crate::compile::{CompileReport, CompiledGraph, PassDelta, PlannerOptions, Step};
use crate::graph::GraphError;
use crate::node::{NodeOp, Wire};
use sc_rng::SourceSpec;
use std::collections::{HashMap, HashSet};

/// Walks the topological order over live nodes, collapses linear manipulator
/// runs into [`sc_core::ManipulatorChain`] steps, realizes the span-fusion
/// groups as [`Step::Fused`] steps, assigns dense slots, and emits the step
/// list. Slot numbering is independent of span grouping: every node's step
/// is built at its normal scheduling position and non-tail span members are
/// merely stashed until their group's tail emits, so a fused plan and its
/// unfused twin use identical slots and differ only in step nesting.
pub(crate) fn emit_steps(
    ir: &Ir,
    order: &[usize],
    options: &PlannerOptions,
    mut report: CompileReport,
) -> Result<CompiledGraph, GraphError> {
    let nodes = &ir.nodes;
    // Count consumers of every wire (live consumers only) to find fusible
    // manipulator runs.
    let mut consumer_count: HashMap<Wire, usize> = HashMap::new();
    let mut sole_consumer: HashMap<Wire, usize> = HashMap::new();
    for (i, node) in nodes.iter().enumerate() {
        if !ir.live[i] {
            continue;
        }
        for wire in &node.inputs {
            *consumer_count.entry(*wire).or_insert(0) += 1;
            sole_consumer.insert(*wire, i);
        }
    }
    let port = |i: usize, p: u8| Wire {
        node: crate::node::NodeId(i),
        port: p,
    };
    // A manipulator run `m → q` can fuse when both of m's outputs are
    // consumed exactly once, by q's inputs 0/1 in order, and q is itself a
    // manipulator.
    let fuse_next = |i: usize| -> Option<usize> {
        if !options.passes.fusion {
            return None;
        }
        let (p0, p1) = (port(i, 0), port(i, 1));
        if consumer_count.get(&p0) != Some(&1) || consumer_count.get(&p1) != Some(&1) {
            return None;
        }
        let q = *sole_consumer.get(&p0)?;
        if sole_consumer.get(&p1) != Some(&q) {
            return None;
        }
        let qn = &nodes[q];
        if !matches!(qn.op, NodeOp::Manipulate(_)) || qn.inputs != vec![p0, p1] {
            return None;
        }
        Some(q)
    };

    let mut slots: HashMap<Wire, usize> = HashMap::new();
    let mut slot_count = 0usize;
    let mut slot_of = |w: Wire, slots: &mut HashMap<Wire, usize>| -> usize {
        *slots.entry(w).or_insert_with(|| {
            let s = slot_count;
            slot_count += 1;
            s
        })
    };

    let mut steps = Vec::new();
    let mut ops = Vec::new();
    let mut fused: Vec<bool> = vec![false; nodes.len()];
    let mut value_slots = 0usize;
    let mut stream_slots = 0usize;
    // Deferred sub-steps of each span-fusion group, awaiting the tail.
    let mut pending: Vec<Vec<Step>> = vec![Vec::new(); ir.group_tail.len()];

    for &i in order {
        if !ir.live[i] || fused[i] {
            continue;
        }
        let node = &nodes[i];
        ops.push(node.op.clone());
        let inputs = &node.inputs;
        let step = match &node.op {
            NodeOp::InputStream { slot } => {
                stream_slots = stream_slots.max(slot + 1);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Input { slot: *slot, dst }
            }
            NodeOp::Generate { slot, source, skip } => {
                value_slots = value_slots.max(slot + 1);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Generate {
                    slot: *slot,
                    source: source.clone(),
                    skip: *skip,
                    dst,
                }
            }
            NodeOp::ConstStream {
                probability,
                source,
                skip,
            } => {
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Constant {
                    probability: *probability,
                    source: source.clone(),
                    skip: *skip,
                    dst,
                }
            }
            NodeOp::Manipulate(kind) => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let mut kinds = vec![*kind];
                let mut last = i;
                while let Some(next) = fuse_next(last) {
                    fused[next] = true;
                    let NodeOp::Manipulate(next_kind) = &nodes[next].op else {
                        unreachable!("fuse_next only follows manipulator nodes");
                    };
                    let next_kind = *next_kind;
                    ops.push(nodes[next].op.clone());
                    kinds.push(next_kind);
                    last = next;
                }
                if kinds.len() > 1 {
                    report.fused_runs += 1;
                }
                let dst_x = slot_of(port(last, 0), &mut slots);
                let dst_y = slot_of(port(last, 1), &mut slots);
                Step::Manipulate {
                    kinds,
                    x,
                    y,
                    dst_x,
                    dst_y,
                }
            }
            NodeOp::Regenerate { source, skip } => {
                let src = slot_of(inputs[0], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Regenerate {
                    source: source.clone(),
                    skip: *skip,
                    src,
                    dst,
                }
            }
            NodeOp::Not => {
                let src = slot_of(inputs[0], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Not { src, dst }
            }
            NodeOp::Binary(op) => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Binary { op: *op, x, y, dst }
            }
            NodeOp::UnaryFsm(op) => {
                let src = slot_of(inputs[0], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::UnaryFsm { op: *op, src, dst }
            }
            NodeOp::Divide {
                source,
                skip,
                counter_bits,
            } => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Divide {
                    source: source.clone(),
                    skip: *skip,
                    counter_bits: *counter_bits,
                    x,
                    y,
                    dst,
                }
            }
            NodeOp::MuxAdd { select, skip } => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::MuxAdd {
                    select: select.clone(),
                    skip: *skip,
                    x,
                    y,
                    dst,
                }
            }
            NodeOp::WeightedMux {
                weights,
                select,
                skip,
            } => {
                let srcs: Vec<usize> = inputs.iter().map(|w| slot_of(*w, &mut slots)).collect();
                let dst = slot_of(port(i, 0), &mut slots);
                Step::WeightedMux {
                    weights: weights.clone(),
                    select: select.clone(),
                    skip: *skip,
                    srcs,
                    dst,
                }
            }
            NodeOp::SinkStream { name } => {
                let src = slot_of(inputs[0], &mut slots);
                Step::SinkStream {
                    name: name.clone(),
                    src,
                }
            }
            NodeOp::SinkValue { name } => {
                let src = slot_of(inputs[0], &mut slots);
                Step::SinkValue {
                    name: name.clone(),
                    src,
                }
            }
            NodeOp::SinkCount { name } => {
                let src = slot_of(inputs[0], &mut slots);
                Step::SinkCount {
                    name: name.clone(),
                    src,
                }
            }
            NodeOp::SinkSum { name } => {
                let srcs: Vec<usize> = inputs.iter().map(|w| slot_of(*w, &mut slots)).collect();
                Step::SinkSum {
                    name: name.clone(),
                    srcs,
                }
            }
            NodeOp::SccProbe { name } => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                Step::SccProbe {
                    name: name.clone(),
                    x,
                    y,
                }
            }
        };
        match ir.group_of[i] {
            Some(g) if ir.group_tail[g] != i => pending[g].push(step),
            Some(g) => {
                let mut sub = std::mem::take(&mut pending[g]);
                sub.push(step);
                steps.push(Step::Fused { steps: sub });
            }
            None => steps.push(step),
        }
    }

    // Shared-source accounting: with CSE on, the executor's per-spec source
    // cache means each distinct spec drives one physical sample generator;
    // count the generator instances the sharing saves.
    if options.passes.cse {
        let mut seen: HashSet<&SourceSpec> = HashSet::new();
        let mut shared = 0usize;
        for step in &steps {
            count_shared(step, &mut seen, &mut shared);
        }
        report.shared_sources = shared;
    }

    report.pass_deltas.push(PassDelta {
        pass: "emit",
        nodes_added: 0,
        nodes_removed: 0,
        detail: format!(
            "{} steps ({} manipulator runs fused, {} span steps eliminated)",
            steps.len(),
            report.fused_runs,
            report.steps_eliminated
        ),
    });

    Ok(CompiledGraph::assemble(
        steps,
        slot_count,
        value_slots,
        stream_slots,
        report,
        ops,
        options.passes,
    ))
}

/// Counts repeated [`SourceSpec`] uses across a (possibly fused) step.
fn count_shared<'a>(step: &'a Step, seen: &mut HashSet<&'a SourceSpec>, shared: &mut usize) {
    let spec = match step {
        Step::Generate { source, .. }
        | Step::Constant { source, .. }
        | Step::Regenerate { source, .. }
        | Step::Divide { source, .. } => Some(source),
        Step::MuxAdd { select, .. } | Step::WeightedMux { select, .. } => Some(select),
        Step::Fused { steps } => {
            for sub in steps {
                count_shared(sub, seen, shared);
            }
            None
        }
        _ => None,
    };
    if let Some(spec) = spec {
        if !seen.insert(spec) {
            *shared += 1;
        }
    }
}
