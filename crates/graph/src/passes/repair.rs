//! The **repair-placement** pass: cost-driven insertion of
//! correlation-establishing manipulators.

use super::{Ir, Pass};
use crate::compile::{CompileReport, PlannerOptions};
use crate::node::{ManipulatorKind, Node, NodeOp, SccClass, Wire};
use sc_telemetry::{Stage, TelemetrySink};

/// For every correlation-tracked operator whose inferred (or measured) input
/// class misses its precondition, enumerates the legal repairs — every
/// configured manipulator whose established class satisfies the requirement,
/// placed either as a fresh circuit or by reusing an existing manipulator of
/// the same kind over the same input pair — prices each through the
/// `sc_hwcost` bridge ([`crate::cost::manipulator_netlist`]), and applies the
/// cheapest.
///
/// Reuse is free (the hardware and the stream both already exist) and
/// bit-identical: a manipulator step writes pure per-slot streams that any
/// number of consumers may read, so sharing one repair across operators with
/// the same failing pair changes no bit of any stream. With
/// [`crate::PassSet::cost_repair`] disabled the pass always places a fresh
/// circuit of the requirement's establishing kind — byte-for-byte the
/// legacy planner's behaviour.
pub(crate) struct RepairPlacement;

enum Placement {
    Fresh(ManipulatorKind),
    Reuse(usize),
}

impl Pass for RepairPlacement {
    fn name(&self) -> &'static str {
        "repair-placement"
    }

    fn stage(&self) -> Stage {
        Stage::CompileRepair
    }

    fn enabled(&self, _options: &PlannerOptions) -> bool {
        true
    }

    fn run(
        &self,
        ir: &mut Ir,
        options: &PlannerOptions,
        report: &mut CompileReport,
        _telemetry: &TelemetrySink,
    ) -> Result<String, crate::graph::GraphError> {
        // Repairs appended below sit past this bound and are never
        // themselves correlation-tracked (manipulators have no requirement).
        let tracked = ir.nodes.len();
        let mut fresh = 0usize;
        let mut reused = 0usize;
        for i in 0..tracked {
            if !ir.live[i] {
                continue;
            }
            let Some((label, requirement)) = ir.nodes[i].op.correlation_requirement() else {
                continue;
            };
            let class = ir.classes.get(&i).copied().unwrap_or(SccClass::Unknown);
            if requirement.satisfied_by(class) {
                continue;
            }
            let Some(baseline) = requirement.establishing_manipulator(options) else {
                continue;
            };
            if !options.auto_repair {
                report.unsatisfied.push(format!(
                    "{label} (node n{i}) requires {requirement:?} inputs but gets {class:?}"
                ));
                continue;
            }
            let (a, b) = (ir.nodes[i].inputs[0], ir.nodes[i].inputs[1]);
            let placement = if options.passes.cost_repair {
                choose_placement(ir, options, requirement, baseline, a, b)
            } else {
                Placement::Fresh(baseline)
            };
            match placement {
                Placement::Fresh(kind) => {
                    let repair = ir.push_node(Node {
                        op: NodeOp::Manipulate(kind),
                        inputs: vec![a, b],
                    });
                    rewire_to(ir, i, repair);
                    fresh += 1;
                    report.inserted.push(format!(
                        "{kind} inserted before {label} (node n{i}): inputs are {class:?}, {requirement:?} required"
                    ));
                }
                Placement::Reuse(repair) => {
                    rewire_to(ir, i, repair);
                    reused += 1;
                    report.shared_repairs += 1;
                }
            }
        }
        Ok(format!("{fresh} repairs inserted, {reused} shared"))
    }
}

/// Points operator `i`'s two inputs at the repair manipulator's output pair.
fn rewire_to(ir: &mut Ir, i: usize, repair: usize) {
    ir.nodes[i].inputs[0] = Wire {
        node: crate::node::NodeId(repair),
        port: 0,
    };
    ir.nodes[i].inputs[1] = Wire {
        node: crate::node::NodeId(repair),
        port: 1,
    };
}

/// Enumerates the legal repairs for a failing `(a, b)` pair and returns the
/// cheapest: reuse candidates (an existing live manipulator of a legal kind
/// over exactly this pair) cost nothing; fresh candidates cost their
/// manipulator circuit's netlist area. Ties keep enumeration order (reuse
/// first, then the requirement's establishing kind).
fn choose_placement(
    ir: &Ir,
    options: &PlannerOptions,
    requirement: crate::node::CorrRequirement,
    baseline: ManipulatorKind,
    a: Wire,
    b: Wire,
) -> Placement {
    let legal: Vec<ManipulatorKind> = [
        ManipulatorKind::Synchronizer {
            depth: options.synchronizer_depth,
        },
        ManipulatorKind::Desynchronizer {
            depth: options.desynchronizer_depth,
        },
        ManipulatorKind::Decorrelator {
            depth: options.decorrelator_depth,
        },
    ]
    .into_iter()
    .filter(|kind| {
        kind.output_class()
            .is_some_and(|class| requirement.satisfied_by(class))
    })
    .collect();
    let mut best: Option<(Placement, f64)> = None;
    let mut consider = |candidate: Placement, cost: f64| {
        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
            best = Some((candidate, cost));
        }
    };
    for (j, node) in ir.nodes.iter().enumerate() {
        if !ir.live[j] {
            continue;
        }
        if let NodeOp::Manipulate(kind) = &node.op {
            if legal.contains(kind) && node.inputs == [a, b] {
                consider(Placement::Reuse(j), 0.0);
            }
        }
    }
    for kind in legal {
        let cost = crate::cost::manipulator_netlist(&kind).area_um2();
        consider(Placement::Fresh(kind), cost);
    }
    best.map_or(Placement::Fresh(baseline), |(placement, _)| placement)
}
