//! Measures the staged `Graph::compile` optimizer pipeline over the GB→ED
//! tile classes and records the evidence in `BENCH_graph_compile.json`.
//!
//! Run with `cargo run --release -p sc_bench --bin graph_compile`. The JSON
//! file is written to the current directory (or to the path given as the
//! first argument).
//!
//! Three things are measured / checked:
//!
//! 1. **Compile time per pass** — each optimizer pass's span total
//!    (validate / scc-infer / cse / repair / fusion / emit) from an attached
//!    [`sc_telemetry::TelemetrySink`], across every tile class.
//! 2. **Plan shrinkage** — step count and `sc_hwcost` netlist cost of every
//!    tile class compiled with the full pass pipeline versus the
//!    pass-disabled baseline.
//! 3. **Optimizer gates** — per tile class, the optimized plan must (a)
//!    schedule strictly fewer steps, (b) never cost more `sc_hwcost` units
//!    under per-step pricing, (c) cost strictly less under shared-source
//!    pricing (one physical generator per distinct source spec),
//!    and (d) execute bit-identically to the baseline.

use sc_bench::host_context;
use sc_graph::cost::{compiled_netlist, compiled_netlist_shared};
use sc_graph::{Executor, PassSet, PlannerOptions};
use sc_image::{planner_options, tile_graph, GrayImage, PipelineConfig, PipelineVariant};
use sc_telemetry::{Stage, TelemetrySink};
use std::time::Instant;

const PASS_STAGES: [Stage; 6] = [
    Stage::CompileValidate,
    Stage::CompilePlan,
    Stage::CompileCse,
    Stage::CompileRepair,
    Stage::CompileFuse,
    Stage::CompileEmit,
];

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_graph_compile.json".into());
    let variant = PipelineVariant::Synchronizer;
    let config = PipelineConfig::quick();
    let n = config.stream_length;
    let bits = 8;

    // An 8×8 image under 6-pixel tiles yields all four tile classes: full
    // interior, right edge, bottom edge, and corner.
    let img = GrayImage::from_fn(8, 8, |x, y| {
        0.5 * GrayImage::gaussian_blob(8, 8).get(x, y) + 0.5 * (x as f64 / 8.0)
    });
    let classes = [(0usize, 0usize), (6, 0), (0, 6), (6, 6)];

    let sink = TelemetrySink::new();
    let mut class_json = Vec::new();
    for (x0, y0) in classes {
        let tile = tile_graph(&img, x0, y0, variant, &config, 0);
        let optimized_options = planner_options(variant, &config);
        let baseline_options = PlannerOptions {
            passes: PassSet::none(),
            ..optimized_options.clone()
        };

        let start = Instant::now();
        let optimized = tile
            .graph
            .compile_with_telemetry(&optimized_options, &sink)
            .expect("tile graph compiles");
        let optimized_us = start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        let baseline = tile
            .graph
            .compile(&baseline_options)
            .expect("tile graph compiles");
        let baseline_us = start.elapsed().as_secs_f64() * 1e6;

        let name = format!("tile_{x0}_{y0}");
        let opt_area = compiled_netlist(&optimized, &name, bits).area_um2();
        let base_area = compiled_netlist(&baseline, &name, bits).area_um2();
        let opt_shared_area = compiled_netlist_shared(&optimized, &name, bits).area_um2();
        let report = optimized.report();

        // Gate (a): strictly fewer scheduled steps.
        assert!(
            optimized.step_count() < baseline.step_count(),
            "{name}: optimized plan ({}) must schedule strictly fewer steps \
             than the baseline ({})",
            optimized.step_count(),
            baseline.step_count()
        );
        // Gate (b): never more hwcost units under like-for-like pricing.
        assert!(
            opt_area <= base_area + 1e-6,
            "{name}: optimized per-step netlist ({opt_area:.1} um^2) must not \
             exceed the baseline ({base_area:.1} um^2)"
        );
        // Gate (c): strictly cheaper once shared sources are built once.
        assert!(
            opt_shared_area < base_area,
            "{name}: shared-source netlist ({opt_shared_area:.1} um^2) must \
             undercut the baseline ({base_area:.1} um^2)"
        );
        // Gate (d): bit-identical pixels.
        let opt_out = Executor::new(n).run(&optimized, &tile.input).expect("runs");
        let base_out = Executor::new(n).run(&baseline, &tile.input).expect("runs");
        for (_, _, sink_name) in &tile.sinks {
            assert_eq!(
                opt_out.value(sink_name).expect("pixel").to_bits(),
                base_out.value(sink_name).expect("pixel").to_bits(),
                "{name}: pixel {sink_name} diverged between pass subsets"
            );
        }

        println!(
            "{name}: steps {} -> {} ({} eliminated, {} spans fused, {} shared sources), \
             area {base_area:.0} -> {opt_shared_area:.0} um^2 shared, \
             compile {baseline_us:.0} -> {optimized_us:.0} us",
            baseline.step_count(),
            optimized.step_count(),
            report.steps_eliminated,
            report.fused_spans,
            report.shared_sources,
        );
        class_json.push(format!(
            "    {{\n      \"class\": \"{name}\",\n      \"baseline_steps\": {},\n      \
             \"optimized_steps\": {},\n      \"steps_eliminated\": {},\n      \
             \"fused_spans\": {},\n      \"shared_sources\": {},\n      \
             \"baseline_area_um2\": {base_area:.2},\n      \
             \"optimized_area_um2\": {opt_area:.2},\n      \
             \"optimized_shared_area_um2\": {opt_shared_area:.2},\n      \
             \"baseline_compile_us\": {baseline_us:.1},\n      \
             \"optimized_compile_us\": {optimized_us:.1}\n    }}",
            baseline.step_count(),
            optimized.step_count(),
            report.steps_eliminated,
            report.fused_spans,
            report.shared_sources,
        ));
    }

    // Per-pass span totals across all optimized compiles.
    let report = sink.drain();
    let mut pass_json = Vec::new();
    for stage in PASS_STAGES {
        let (count, ns) = report.stage_totals(stage);
        println!(
            "pass {}: {count} spans, {:.1} us total",
            stage.name(),
            ns as f64 / 1e3
        );
        pass_json.push(format!(
            "    {{ \"pass\": \"{}\", \"spans\": {count}, \"total_us\": {:.2} }}",
            stage.name(),
            ns as f64 / 1e3
        ));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host\": {},\n",
        host_context().to_string_compact()
    ));
    json.push_str(&format!(
        "  \"tile_size\": {},\n  \"stream_length\": {n},\n  \"variant\": \"{variant:?}\",\n",
        config.tile_size
    ));
    json.push_str("  \"gates\": \"optimized plans: strictly fewer steps, never more per-step hwcost, strictly less shared-source hwcost, bit-identical pixels\",\n");
    json.push_str("  \"classes\": [\n");
    json.push_str(&class_json.join(",\n"));
    json.push_str("\n  ],\n  \"pass_timings\": [\n");
    json.push_str(&pass_json.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_graph_compile.json");
    println!("wrote {out_path}");
}
