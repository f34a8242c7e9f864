//! The `sc_rtl` acceptance suite: gate-level co-simulation of lowered plans
//! pinned *bit for bit* against the word-parallel [`sc_graph::Executor`], at
//! stream lengths crossing every word boundary (1 / 63 / 64 / 65 / 1000),
//! for every supported node kind; Verilog snapshot stability for a
//! planner-repaired graph; and the structural-vs-table cost cross-check —
//! including the full Gaussian-blur → edge-detect tile pipeline.

use proptest::prelude::*;
use sc_bitstream::Bitstream;
use sc_graph::{
    cost::compiled_netlist, BatchInput, BinaryOp, CompiledGraph, Executor, Graph, ManipulatorKind,
    PassSet, PlannerOptions,
};
use sc_hwcost::{Netlist, Primitive};
use sc_image::{
    planner_options, tile_graph, tile_origins, GrayImage, PipelineConfig, PipelineStats,
    PipelineVariant, TilePlanner,
};
use sc_rng::SourceSpec;
use sc_rtl::{elaborate, sink_counter_bits, to_verilog, RtlError};
use std::collections::BTreeMap;

const LENGTHS: [usize; 5] = [1, 63, 64, 65, 1000];

fn sobol(d: u32) -> SourceSpec {
    SourceSpec::Sobol { dimension: d }
}

fn lfsr(seed: u64) -> SourceSpec {
    SourceSpec::Lfsr { width: 16, seed }
}

/// Compiles, executes word-parallel, lowers, co-simulates, and demands that
/// every sink result is identical — stream bits and value bit patterns.
fn assert_cosim_identical(plan: &CompiledGraph, input: &BatchInput, n: usize, what: &str) {
    let exec = Executor::new(n)
        .run(plan, input)
        .unwrap_or_else(|e| panic!("{what}: executor failed at n={n}: {e}"));
    let design = elaborate(plan, input, n)
        .unwrap_or_else(|e| panic!("{what}: elaboration failed at n={n}: {e}"));
    let rtl = design
        .cosimulate(input)
        .unwrap_or_else(|e| panic!("{what}: co-simulation failed at n={n}: {e}"));
    let exec_streams: Vec<(&str, &Bitstream)> = exec.streams().collect();
    let rtl_streams: Vec<(&str, &Bitstream)> = rtl.streams().collect();
    assert_eq!(exec_streams, rtl_streams, "{what}: stream sinks at n={n}");
    let exec_values: Vec<(&str, u64)> = exec.values().map(|(k, v)| (k, v.to_bits())).collect();
    let rtl_values: Vec<(&str, u64)> = rtl.values().map(|(k, v)| (k, v.to_bits())).collect();
    assert_eq!(exec_values, rtl_values, "{what}: value sinks at n={n}");
}

fn check_all_lengths(graph: &Graph, options: &PlannerOptions, input: &BatchInput, what: &str) {
    let plan = graph.compile(options).expect("test graphs compile");
    for n in LENGTHS {
        assert_cosim_identical(&plan, input, n, what);
    }
}

#[test]
fn cosim_source_families_and_sd_sinks() {
    // Every source family through value / count / stream sinks, plus a
    // constant stream: the D/S and S/D converter lowering.
    let specs = [
        lfsr(0xACE1),
        sobol(3),
        SourceSpec::VanDerCorput { offset: 5 },
        SourceSpec::Halton { base: 3, offset: 2 },
        SourceSpec::Counter {
            modulus: 64,
            phase: 7,
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        let mut g = Graph::new();
        let x = g.generate_skipped(0, spec.clone(), 11);
        let c = g.constant(0.3, spec.clone());
        g.sink_value("v", x);
        g.sink_count("c", x);
        g.sink_stream("s", x);
        g.sink_value("cv", c);
        check_all_lengths(
            &g,
            &PlannerOptions::default(),
            &BatchInput::with_values(vec![0.62]),
            &format!("source family #{i} ({spec})"),
        );
    }
}

#[test]
fn cosim_every_manipulator_kind() {
    let kinds = [
        ManipulatorKind::Identity,
        ManipulatorKind::Isolator { delay: 2 },
        ManipulatorKind::Synchronizer { depth: 1 },
        ManipulatorKind::Synchronizer { depth: 3 },
        ManipulatorKind::Desynchronizer { depth: 2 },
        ManipulatorKind::Decorrelator { depth: 4 },
    ];
    for kind in kinds {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let (mx, my) = g.manipulate(kind, x, y);
        g.sink_stream("mx", mx);
        g.sink_stream("my", my);
        g.scc_probe("scc", mx, my);
        check_all_lengths(
            &g,
            &PlannerOptions::no_repair(),
            &BatchInput::with_values(vec![0.35, 0.7]),
            &format!("manipulator {kind}"),
        );
    }
}

#[test]
fn cosim_fused_manipulator_chain() {
    // A fused synchronizer → desynchronizer → isolator run lowers to the
    // cascade of the individual circuits and still matches bit for bit.
    let mut g = Graph::new();
    let x = g.input_stream(0);
    let y = g.input_stream(1);
    let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, x, y);
    let (b0, b1) = g.manipulate(ManipulatorKind::Desynchronizer { depth: 1 }, a0, a1);
    let (c0, c1) = g.manipulate(ManipulatorKind::Isolator { delay: 1 }, b0, b1);
    g.sink_stream("x", c0);
    g.sink_stream("y", c1);
    let plan = g.compile(&PlannerOptions::default()).unwrap();
    assert_eq!(plan.report().fused_runs, 1, "the chain must actually fuse");
    for n in LENGTHS {
        let input = BatchInput::with_streams(vec![
            Bitstream::from_fn(n, |i| (i * 7 + 1) % 3 == 0),
            Bitstream::from_fn(n, |i| (i * 5 + 2) % 4 < 2),
        ]);
        assert_cosim_identical(&plan, &input, n, "fused chain");
    }
}

#[test]
fn cosim_every_binary_operator() {
    let ops = [
        BinaryOp::AndMultiply,
        BinaryOp::XnorMultiply,
        BinaryOp::OrMax,
        BinaryOp::AndMin,
        BinaryOp::SaturatingAdd,
        BinaryOp::XorSubtract,
        BinaryOp::CaAdd,
        BinaryOp::CaMax,
        BinaryOp::CaMin,
    ];
    for op in ops {
        // no_repair keeps the graph at exactly one operator; the repaired
        // path is covered by `cosim_planner_inserted_repairs`.
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(op, x, y);
        g.sink_value("z", z);
        g.sink_stream("zs", z);
        check_all_lengths(
            &g,
            &PlannerOptions::no_repair(),
            &BatchInput::with_values(vec![0.55, 0.3]),
            &format!("binary {op}"),
        );
    }
}

#[test]
fn cosim_planner_inserted_repairs() {
    // The planner inserts a synchronizer (xor), a desynchronizer (saturating
    // add), and a decorrelator (multiply over a shared-source pair): all
    // three repair circuits lower and co-simulate inside one plan.
    let mut g = Graph::new();
    let a = g.generate(0, sobol(1));
    let b = g.generate(1, sobol(2));
    let c = g.generate(2, sobol(1)); // same spec as `a`: positively correlated
    let xor = g.binary(BinaryOp::XorSubtract, a, b);
    let sat = g.binary(BinaryOp::SaturatingAdd, a, b);
    let mul = g.binary(BinaryOp::AndMultiply, a, c);
    g.sink_value("xor", xor);
    g.sink_value("sat", sat);
    g.sink_value("mul", mul);
    let plan = g.compile(&PlannerOptions::default()).unwrap();
    assert_eq!(plan.report().inserted.len(), 3);
    let input = BatchInput::with_values(vec![0.6, 0.25, 0.8]);
    for n in LENGTHS {
        assert_cosim_identical(&plan, &input, n, "planner repairs");
    }
}

#[test]
fn cosim_mux_adders_and_weighted_trees() {
    let mut g = Graph::new();
    let x = g.generate(0, sobol(1));
    let y = g.generate(1, sobol(2));
    let z = g.generate(2, sobol(3));
    let m = g.mux_add_skipped(x, y, lfsr(0x7331), 17);
    let w3 = g.weighted_mux(&[x, y, z], &[0.5, 0.25, 0.25], lfsr(0x1234));
    let w1 = g.weighted_mux(&[x], &[1.0], lfsr(0x4321));
    let inv = g.not(w3);
    g.sink_value("m", m);
    g.sink_value("w3", w3);
    g.sink_value("w1", w1);
    g.sink_value("inv", inv);
    check_all_lengths(
        &g,
        &PlannerOptions::no_repair(),
        &BatchInput::with_values(vec![0.2, 0.5, 0.9]),
        "mux adders",
    );
}

#[test]
fn cosim_unary_fsms_and_divider() {
    let mut g = Graph::new();
    let x = g.generate(0, lfsr(0xACE1));
    let y = g.generate(1, lfsr(0xACE1)); // shared spec: divide precondition met
    let t = g.stanh(4, x);
    let l = g.slinear(8, x);
    let q = g.divide(x, y, lfsr(0x5A5A));
    g.sink_value("t", t);
    g.sink_value("l", l);
    g.sink_value("q", q);
    check_all_lengths(
        &g,
        &PlannerOptions::default(),
        &BatchInput::with_values(vec![0.7, 0.9]),
        "unary fsms + divider",
    );
}

#[test]
fn cosim_apc_and_scc_sinks() {
    let mut g = Graph::new();
    let a = g.generate(0, sobol(1));
    let b = g.generate(1, sobol(2));
    let c = g.generate(2, sobol(3));
    let d = g.generate(3, sobol(1));
    g.sink_sum("sum", &[a, b, c, d]);
    g.scc_probe("ab", a, b);
    g.scc_probe("ad", a, d);
    check_all_lengths(
        &g,
        &PlannerOptions::default(),
        &BatchInput::with_values(vec![0.1, 0.5, 0.9, 0.4]),
        "apc + scc sinks",
    );
}

#[test]
fn cosim_input_streams() {
    let mut g = Graph::new();
    let x = g.input_stream(0);
    let y = g.input_stream(1);
    let z = g.binary(BinaryOp::CaAdd, x, y);
    g.sink_value("z", z);
    g.sink_stream("zs", z);
    let plan = g.compile(&PlannerOptions::default()).unwrap();
    for n in LENGTHS {
        let input = BatchInput::with_streams(vec![
            Bitstream::from_fn(n, |i| i % 3 != 1),
            Bitstream::from_fn(n, |i| (i / 2) % 2 == 0),
        ]);
        assert_cosim_identical(&plan, &input, n, "input streams");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised end-to-end pin: a mixed graph (sources, planner repair,
    /// arithmetic, mux add, value sinks) over random input values at every
    /// boundary length.
    #[test]
    fn prop_cosim_mixed_graph_matches_executor(
        va in 0.0f64..=1.0,
        vb in 0.0f64..=1.0,
        vc in 0.0f64..=1.0,
        seed in 1u64..0xFFFF,
    ) {
        let mut g = Graph::new();
        let a = g.generate(0, sobol(1));
        let b = g.generate(1, sobol(2));
        let c = g.generate(2, lfsr(seed));
        let diff = g.binary(BinaryOp::XorSubtract, a, b); // repair inserted
        let sum = g.mux_add(diff, c, lfsr(seed ^ 0x55AA));
        let act = g.stanh(2, sum);
        g.sink_value("sum", sum);
        g.sink_value("act", act);
        g.sink_count("cnt", diff);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let input = BatchInput::with_values(vec![va, vb, vc]);
        for n in LENGTHS {
            assert_cosim_identical(&plan, &input, n, "proptest mixed graph");
        }
    }
}

/// Collects a netlist's `(primitive, count)` multiset, ignoring the design
/// name (which legitimately differs between the two bridges).
fn cells_of(netlist: &Netlist) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    for (primitive, count) in netlist.cells() {
        *map.entry(primitive.to_string()).or_insert(0) += count;
    }
    map
}

#[test]
fn structural_netlist_matches_table_bridge_per_kind() {
    // For every node kind whose elaboration mirrors the table model, the
    // structurally counted netlist equals the table-driven one exactly.
    let n = 256;
    let bits = sink_counter_bits(n); // 9: both bridges sized to the same precision
    let build_and_compare = |g: &Graph, values: Vec<f64>, what: &str| {
        let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
        let input = BatchInput::with_values(values);
        let design = elaborate(&plan, &input, n).unwrap();
        let structural = design.netlist(what, bits);
        let table = compiled_netlist(&plan, what, bits);
        assert_eq!(
            cells_of(&structural),
            cells_of(&table),
            "{what}: structural vs table"
        );
    };

    let mut g = Graph::new();
    let x = g.generate(0, sobol(1));
    let y = g.generate(1, lfsr(0xACE1));
    let z = g.binary(BinaryOp::XorSubtract, x, y);
    g.sink_value("z", z);
    build_and_compare(&g, vec![0.5, 0.5], "generate + xor + sink");

    let mut g = Graph::new();
    let x = g.generate(0, sobol(1));
    let y = g.generate(1, sobol(2));
    let (mx, my) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, x, y);
    let (dx, dy) = g.manipulate(ManipulatorKind::Decorrelator { depth: 4 }, mx, my);
    let (ix, iy) = g.manipulate(ManipulatorKind::Isolator { delay: 3 }, dx, dy);
    g.sink_stream("x", ix);
    g.sink_stream("y", iy);
    build_and_compare(&g, vec![0.5, 0.5], "manipulator stack");

    let mut g = Graph::new();
    let x = g.generate(0, sobol(1));
    let y = g.generate(1, sobol(2));
    let w = g.weighted_mux(&[x, y, x], &[0.5, 0.3, 0.2], lfsr(7));
    let m = g.mux_add(w, y, lfsr(9));
    g.sink_sum("s", &[m, w]);
    g.scc_probe("p", m, w);
    build_and_compare(&g, vec![0.5, 0.5], "mux trees + apc + probe");

    let mut g = Graph::new();
    let x = g.generate(0, lfsr(1));
    let y = g.generate(1, lfsr(1));
    let q = g.divide(x, y, lfsr(3));
    let t = g.stanh(4, x);
    let nq = g.not(q);
    g.sink_value("q", nq);
    g.sink_value("t", t);
    build_and_compare(&g, vec![0.5, 0.5], "divider + stanh + not");
}

#[test]
fn structural_ca_adder_refines_table_model() {
    // Documented divergence: the table costs the CA adder as
    // FA + 2-bit register + 2 inverters; the elaboration *is* one full adder
    // plus the residue flip-flop, and the structural bridge reports exactly
    // that.
    let mut g = Graph::new();
    let x = g.generate(0, sobol(1));
    let y = g.generate(1, sobol(2));
    let z = g.binary(BinaryOp::CaAdd, x, y);
    g.sink_value("z", z);
    let plan = g.compile(&PlannerOptions::default()).unwrap();
    let input = BatchInput::with_values(vec![0.5, 0.5]);
    let design = elaborate(&plan, &input, 256).unwrap();
    let structural = cells_of(&design.netlist("ca", 9));
    assert_eq!(structural.get(&Primitive::FullAdder.to_string()), Some(&1));
    assert_eq!(structural.get(&Primitive::DFlipFlop.to_string()), Some(&1));
    let table = cells_of(&compiled_netlist(&plan, "ca", 9));
    assert_ne!(structural, table, "the refinement is intentional");
}

#[test]
fn gb_ed_pipeline_lowers_cosimulates_and_costs() {
    // The acceptance criterion: the full Gaussian-blur → edge-detect tile
    // graph (planner-inserted synchronizer repairs included) elaborates to
    // one sc_sim circuit, co-simulates bit-identically to the word-parallel
    // executor, and its structural netlist matches the table bridge.
    let img = GrayImage::from_fn(8, 8, |x, y| {
        0.5 * GrayImage::gaussian_blob(8, 8).get(x, y) + 0.5 * (x as f64 / 8.0)
    });
    let config = PipelineConfig::quick();
    let variant = PipelineVariant::Synchronizer;
    let tile = tile_graph(&img, 0, 0, variant, &config, 0);
    let plan = tile
        .graph
        .compile(&planner_options(variant, &config))
        .unwrap();
    assert!(
        !plan.report().inserted.is_empty(),
        "the synchronizer variant's repairs come from the planner"
    );
    let n = config.stream_length;

    let exec = Executor::new(n).run(&plan, &tile.input).unwrap();
    let design = elaborate(&plan, &tile.input, n).unwrap();
    assert!(design.cell_count() > 500, "a real tile is a real netlist");
    let rtl = design.cosimulate(&tile.input).unwrap();
    for (_, _, name) in &tile.sinks {
        let e = exec.value(name).expect("executor pixel");
        let r = rtl.value(name).expect("rtl pixel");
        assert_eq!(e.to_bits(), r.to_bits(), "pixel {name}");
    }

    // Structural cost == table cost, both sized to the tile's counter width.
    let bits = sink_counter_bits(n);
    assert_eq!(
        cells_of(&design.netlist("tile", bits)),
        cells_of(&compiled_netlist(&plan, "tile", bits)),
        "GB→ED structural netlist vs table bridge"
    );

    // And the same design exports as Verilog with every expected module.
    let verilog = to_verilog(&design, "gb_ed_tile");
    for module in [
        "module sc_source",
        "module sc_wsel",
        "module sc_mux2",
        "module sc_xor2",
        "module sc_synchronizer",
        "module sc_counter",
        "module gb_ed_tile",
    ] {
        assert!(verilog.contains(module), "missing {module}");
    }
}

#[test]
fn retargeted_tile_plan_lowers_and_cosimulates_bit_identically() {
    // The second tile of a class is a plan-cache hit: the planner retargets
    // the cached template onto the tile's select seeds instead of compiling.
    let img = GrayImage::from_fn(12, 12, |x, y| {
        0.5 * GrayImage::gaussian_blob(12, 12).get(x, y) + 0.4 * (y as f64 / 12.0)
    });
    let config = PipelineConfig::quick();
    let mut planner = TilePlanner::new(PipelineVariant::Synchronizer, config.clone());
    let mut stats = PipelineStats::default();
    let mut planned = Vec::new();
    for (index, &(x0, y0)) in tile_origins(&img, config.tile_size).iter().enumerate() {
        let compilations = stats.compilations;
        let tile = planner.plan_tile(&img, x0, y0, index as u64, &mut stats);
        let hit = stats.compilations == compilations;
        planned.push(tile);
        if hit {
            break;
        }
    }
    let tile = planned.pop().expect("the image has tiles");
    let template = planned
        .iter()
        .find(|t| t.plan.plan_class() == tile.plan.plan_class())
        .expect("a cache hit retargets an earlier tile's template");
    assert_ne!(
        template.plan.sources(),
        tile.plan.sources(),
        "the hit runs on its own select seeds"
    );
    assert_cosim_identical(
        &tile.plan,
        &tile.input,
        config.stream_length,
        "retargeted GB→ED tile",
    );
}

#[test]
fn cosim_optimized_gb_ed_tile_matches_every_pass_subset() {
    // Acceptance criterion for the pass pipeline: a CSE'd + span-fused
    // GB→ED tile plan stays bit-identical — executor output AND gate-level
    // co-simulation — to the pass-disabled baseline, for all three image
    // pipeline variants, at 1 and 4 executor threads. (Regeneration has no
    // gate-level lowering, so that variant pins the executor side only.)
    let img = GrayImage::from_fn(8, 8, |x, y| {
        0.5 * GrayImage::gaussian_blob(8, 8).get(x, y) + 0.5 * (x as f64 / 8.0)
    });
    let config = PipelineConfig::quick();
    let n = config.stream_length;
    let subsets = [PassSet::all(), PassSet::none(), {
        PassSet {
            fusion: false,
            ..PassSet::all()
        }
    }];
    for variant in PipelineVariant::all() {
        let tile = tile_graph(&img, 0, 0, variant, &config, 0);
        let plans: Vec<CompiledGraph> = subsets
            .iter()
            .map(|&passes| {
                tile.graph
                    .compile(&PlannerOptions {
                        passes,
                        ..planner_options(variant, &config)
                    })
                    .unwrap()
            })
            .collect();
        // The optimized plan must actually be CSE'd and fused, not
        // trivially equal to the baseline.
        let report = plans[0].report();
        // Tile pixels never share whole interior subgraphs (every weighted
        // mux has distinct inputs), so the CSE pass's win on this graph is
        // the shared-source audit: steps that index one source-table entry.
        assert!(
            report.shared_subgraphs + report.shared_sources > 0,
            "{variant:?}: tile compile should detect shared work"
        );
        assert!(
            report.fused_spans > 0,
            "{variant:?}: tile compile should fuse linear spans"
        );
        assert!(
            plans[0].step_count() < plans[1].step_count(),
            "{variant:?}: optimized plan should be strictly smaller"
        );

        let mut reference: Option<Vec<(String, u64)>> = None;
        for (plan, passes) in plans.iter().zip(subsets) {
            for threads in [1usize, 4] {
                let exec = Executor::new(n)
                    .with_threads(threads)
                    .run(plan, &tile.input)
                    .unwrap();
                let pixels: Vec<(String, u64)> = tile
                    .sinks
                    .iter()
                    .map(|(_, _, name)| (name.clone(), exec.value(name).expect("pixel").to_bits()))
                    .collect();
                match &reference {
                    Some(expected) => assert_eq!(
                        &pixels, expected,
                        "{variant:?} passes={passes:?} threads={threads} diverged"
                    ),
                    None => reference = Some(pixels),
                }
            }
            if variant != PipelineVariant::Regeneration {
                let rtl = elaborate(plan, &tile.input, n)
                    .unwrap()
                    .cosimulate(&tile.input)
                    .unwrap();
                let pixels: Vec<(String, u64)> = tile
                    .sinks
                    .iter()
                    .map(|(_, _, name)| (name.clone(), rtl.value(name).expect("pixel").to_bits()))
                    .collect();
                assert_eq!(
                    Some(pixels),
                    reference,
                    "{variant:?} passes={passes:?}: RTL co-sim diverged from executor"
                );
            }
        }
    }
}

#[test]
fn regenerate_lowering_is_rejected_with_explanation() {
    let mut g = Graph::new();
    let x = g.generate(0, sobol(1));
    let r = g.regenerate(SourceSpec::VanDerCorput { offset: 0 }, x);
    g.sink_value("v", r);
    let plan = g.compile(&PlannerOptions::default()).unwrap();
    match elaborate(&plan, &BatchInput::with_values(vec![0.5]), 64) {
        Err(RtlError::Unsupported(msg)) => assert!(msg.contains("stream period")),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn verilog_snapshot_of_repaired_graph() {
    // A planner-repaired graph (synchronizer inserted in front of the XOR)
    // with LFSR and Van der Corput sources: the emitted Verilog must match
    // the checked-in snapshot byte for byte. Regenerate the snapshot with
    // `UPDATE_RTL_SNAPSHOT=1 cargo test --test rtl_cosim verilog_snapshot`.
    let mut g = Graph::new();
    let x = g.generate(0, SourceSpec::VanDerCorput { offset: 0 });
    let y = g.generate(1, lfsr(0xACE1));
    let z = g.binary(BinaryOp::XorSubtract, x, y);
    let m = g.mux_add(z, x, lfsr(0x7331));
    g.sink_value("edge", m);
    let plan = g.compile(&PlannerOptions::default()).unwrap();
    assert_eq!(plan.report().inserted.len(), 1);
    let input = BatchInput::with_values(vec![0.75, 0.25]);
    let design = elaborate(&plan, &input, 256).unwrap();
    let verilog = to_verilog(&design, "repaired_graph");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/repaired_graph.v"
    );
    if std::env::var_os("UPDATE_RTL_SNAPSHOT").is_some() {
        std::fs::write(path, &verilog).expect("snapshot written");
    }
    let snapshot = std::fs::read_to_string(path)
        .expect("snapshot file present (regenerate with UPDATE_RTL_SNAPSHOT=1)");
    assert_eq!(
        verilog, snapshot,
        "Verilog emission changed; regenerate the snapshot if intentional"
    );
}
