//! One benchmark run of one workload: set-up, timed region(s), output
//! checks, and the metrics they give.

use crate::probes::{kernel_probes, layer_probe};
use crate::stats::{median, quantile, samples_beyond, sorted, windowed_quantile};
use crate::trace::Tracer;
use crate::workloads::{
    check_region, mae, prepare, references, run_region, trace_served, Load, Prepared, Region,
    Workload, SETUP_REPEATS, TAIL_WINDOWS,
};
use sc_telemetry::{Stage, TelemetrySink};
use std::time::Instant;

/// The result of one run: the checked counts, the metrics in reporting
/// order as `(name, unit, value)`, and human-readable notes.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, String, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        self.metrics.push((name.into(), unit.to_string(), value));
    }

    fn check(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Worker threads for executors and servers: the host's parallelism.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn load_note(w: &Workload, threads: usize) -> String {
    let load = match w.load {
        Load::OneShot => "closed loop, 1 caller of run_sc_pipeline_with_threads".to_string(),
        Load::Open { rate } => {
            format!("open loop at {rate} images/s, 1 generator + 1 collector thread")
        }
        Load::Closed { outstanding } => {
            format!("closed loop, 1 client thread with {outstanding} requests outstanding")
        }
    };
    let sizes: Vec<String> = w.sizes.iter().map(|(x, y)| format!("{x}x{y}")).collect();
    format!(
        "{}: {:?}, N={}, {}-px tiles, images {} (pool of {}), {threads} threads, {load}",
        w.name,
        w.variant,
        w.stream_length,
        w.tile_size,
        sizes.join("/"),
        w.pool
    )
}

/// The untraced run: the end-to-end metrics.
#[must_use]
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let threads = threads();
    let disabled = TelemetrySink::disabled();
    let mut out = Outcome::default();
    out.notes.push(load_note(w, threads));

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up is torn down before the next one is timed.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(w, seed, threads, &disabled));
        setups.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    let region = run_region(w, &prepared, threads, seconds, seed, &disabled, None);
    let rss = peak_rss_mb();
    let Prepared { pool, server } = prepared;
    drop(server);

    let refs = references(w, &pool);
    out.check(region.records.len(), check_region(&region, &refs));

    let latencies = sorted(
        &region
            .records
            .iter()
            .map(|r| r.latency_ms())
            .collect::<Vec<_>>(),
    );
    let pct = w.tail_percentile(seconds);
    let timed: Vec<(f64, f64)> = region
        .records
        .iter()
        .map(|r| {
            let offset = r.due.saturating_duration_since(region.start);
            (offset.as_secs_f64(), r.latency_ms())
        })
        .collect();
    let (tail, per_window) =
        windowed_quantile(&timed, seconds, TAIL_WINDOWS, f64::from(pct) / 100.0);
    out.metric("images_per_s", "1/s", region.images_per_s());
    out.metric("latency_p50_ms", "ms", quantile(&latencies, 0.5));
    out.metric("latency_p95_ms", "ms", tail);
    out.metric("setup_s", "s", median(&setups));
    out.metric("peak_rss_mb", "MB", rss);
    out.metric("mae", "frac", mae(&pool, &refs));
    out.notes.push(format!(
        "latency_p95_ms is the median over {TAIL_WINDOWS} windows of p{pct}: {:?} ms; p{pct} of all {} samples ({} beyond) is {:.3} ms; p{pct} is fixed from an expected {} images/s",
        per_window
            .iter()
            .map(|v| (v * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        latencies.len(),
        samples_beyond(latencies.len(), pct),
        quantile(&latencies, f64::from(pct) / 100.0),
        w.expected_images_per_s
    ));
    out.notes.push(format!(
        "setup_s is the median of {SETUP_REPEATS} set-ups: {:?}",
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if let Load::Open { .. } = w.load {
        let lag = sorted(
            &region
                .records
                .iter()
                .map(|r| r.lag_ms())
                .collect::<Vec<_>>(),
        );
        out.notes.push(format!(
            "load generator lag: p50 {:.3} ms, max {:.3} ms",
            quantile(&lag, 0.5),
            lag.last().copied().unwrap_or(0.0)
        ));
    }
    out.notes.push(format!(
        "failed_share {} ratio ({} failed of {} attempted; the result line carries it as failed/attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}

fn p95(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.95)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The traced run: an untraced region and a traced region of half the run
/// each, then the layer and kernel probes. Reports the per-layer metrics.
#[must_use]
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, span_dir: &std::path::Path) -> Outcome {
    let threads = threads();
    let half = seconds / 2.0;
    let mut out = Outcome::default();
    out.notes.push(load_note(w, threads));

    let disabled = TelemetrySink::disabled();
    let plain_setup = prepare(w, seed, threads, &disabled);
    let plain = run_region(w, &plain_setup, threads, half, seed, &disabled, None);
    drop(plain_setup);

    let sink = TelemetrySink::with_span_capacity(1 << 18);
    let traced_setup = prepare(w, seed, threads, &sink);
    drop(sink.drain());
    let mut tracer = Tracer::new(Instant::now());
    let traced = run_region(
        w,
        &traced_setup,
        threads,
        half,
        seed,
        &sink,
        Some(&mut tracer),
    );
    let report = sink.drain();
    let Prepared { pool, server } = traced_setup;
    drop(server);
    trace_served(&mut tracer, &traced.records);
    if report.dropped_spans > 0 {
        out.notes.push(format!(
            "telemetry sink dropped {} spans",
            report.dropped_spans
        ));
    }

    let refs = references(w, &pool);
    out.check(plain.records.len(), check_region(&plain, &refs));
    out.check(traced.records.len(), check_region(&traced, &refs));
    let layer = layer_probe(w.variant, &w.config(), &pool, &refs);
    out.check(pool.len(), layer.mismatches);
    let kernels = match kernel_probes(w.stream_length) {
        Ok(k) => {
            out.check(1, 0);
            k
        }
        Err(e) => {
            out.notes.push(format!("kernel probe failed: {e}"));
            out.check(1, 1);
            crate::probes::KernelCosts::default()
        }
    };

    layer_metrics(&mut out, w, threads, &traced, &tracer, &report, &layer);
    out.metric(
        "rng.ns_per_sample.lfsr16",
        "ns",
        kernels.lfsr16_ns_per_sample,
    );
    out.metric("rng.ns_per_sample.sobol", "ns", kernels.sobol_ns_per_sample);
    out.metric(
        "convert.generate_ns_per_bit",
        "ns",
        kernels.generate_ns_per_bit,
    );
    out.metric(
        "convert.regenerate_ns_per_bit",
        "ns",
        kernels.regenerate_ns_per_bit,
    );
    out.metric("arith.mux_add_ns_per_bit", "ns", kernels.mux_add_ns_per_bit);
    out.metric(
        "arith.xor_subtract_ns_per_bit",
        "ns",
        kernels.xor_subtract_ns_per_bit,
    );
    out.metric(
        "core.synchronizer_ns_per_bit",
        "ns",
        kernels.synchronizer_ns_per_bit,
    );
    out.metric(
        "trace.overhead_share",
        "ratio",
        1.0 - traced.images_per_s() / plain.images_per_s(),
    );
    let lag: Vec<f64> = plain.records.iter().map(|r| r.lag_ms()).collect();
    out.metric("loadgen.lag_ms.p95", "ms", p95(&lag));
    out.metric(
        "loadgen.lag_ms.max",
        "ms",
        lag.iter().copied().fold(0.0, f64::max),
    );
    let images = traced.completed().max(1) as f64;
    for stage in Stage::ALL {
        out.metric(
            crate::sink_metric_name(stage),
            "ms",
            ms(report.stage_totals(stage).1) / images,
        );
    }
    out.notes.push(format!(
        "untraced {:.3} images/s over {} images, traced {:.3} images/s over {} images",
        plain.images_per_s(),
        plain.completed(),
        traced.images_per_s(),
        traced.completed()
    ));

    let path = span_dir.join(format!("{}-seed{seed}.spans.jsonl", w.name));
    let written = std::fs::create_dir_all(span_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    out.notes.push(match written {
        Ok(()) => format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans not written: {e}"),
    });
    out
}

/// The planner, compile, execute, serve, assemble and residual metrics.
fn layer_metrics(
    out: &mut Outcome,
    w: &Workload,
    threads: usize,
    traced: &Region,
    tracer: &Tracer,
    report: &sc_telemetry::TelemetryReport,
    layer: &crate::probes::LayerSamples,
) {
    let region_ns = traced.seconds() * 1e9;
    let durations =
        |name: &str| -> Vec<f64> { tracer.durations_ns(name).into_iter().map(ms).collect() };
    let self_times =
        |name: &str| -> Vec<f64> { tracer.self_times_ns(name).into_iter().map(ms).collect() };
    let served: Vec<_> = traced
        .records
        .iter()
        .filter_map(|r| r.served.as_ref())
        .collect();
    let streams: Vec<_> = traced
        .records
        .iter()
        .filter_map(|r| r.stream.as_ref())
        .collect();
    let share = |num: usize, den: usize| num as f64 / den.max(1) as f64;

    // Planner: the plan_tile spans of the one-shot composition, or the
    // planning part of each ImageServer::submit call.
    let (hits, planned, plan_ms) = if w.load == Load::OneShot {
        let tiles: usize = streams.iter().map(|(_, p)| p.tiles).sum();
        let compiled: usize = streams.iter().map(|(_, p)| p.compilations).sum();
        let plan_ms: f64 = durations("planner.plan_tile_hit").iter().sum::<f64>()
            + durations("planner.plan_tile_miss").iter().sum::<f64>();
        (tiles - compiled, tiles, plan_ms)
    } else {
        let tiles: usize = served.iter().map(|s| s.planned_tiles).sum();
        let compiled: usize = served.iter().map(|s| s.compilations).sum();
        (
            tiles - compiled,
            tiles,
            durations("serve.plan").iter().sum(),
        )
    };
    out.metric("planner.plan_tile_us.p50", "us", median(&layer.plan_hit_us));
    out.metric(
        "planner.plan_tile_miss_ms.p50",
        "ms",
        median(&layer.plan_miss_ms),
    );
    out.metric(
        "planner.tile_graph_us.p50",
        "us",
        median(&layer.tile_graph_us),
    );
    out.metric("planner.hit_ratio", "ratio", share(hits, planned));
    out.metric("planner.busy_share", "ratio", plan_ms * 1e6 / region_ns);

    out.metric("compile.ms_per_class.p50", "ms", median(&layer.compile_ms));
    out.metric("compile.classes", "count", layer.compile_ms.len() as f64);
    let steps = &layer.steps_per_plan;
    out.metric(
        "compile.steps_per_plan",
        "count",
        steps.iter().sum::<f64>() / steps.len().max(1) as f64,
    );

    let jobs: usize = streams.iter().map(|(s, _)| s.jobs).sum();
    let lane_jobs: usize = streams.iter().map(|(s, _)| s.lane_batched_jobs).sum();
    let served_tiles: usize = served.iter().map(|s| s.tiles).sum();
    let served_lane: usize = served.iter().map(|s| s.lane_batched_jobs).sum();
    out.metric(
        "exec.run_stream_ms.p50",
        "ms",
        median(&durations("exec.run_stream")),
    );
    out.metric(
        "exec.stream_self_ms.p50",
        "ms",
        median(&self_times("exec.run_stream")),
    );
    out.metric(
        "exec.pool_drop_ms.p50",
        "ms",
        median(&durations("exec.pool_drop")),
    );
    out.metric("exec.tile_run_us.p50", "us", median(&layer.tile_run_us));
    out.metric(
        "exec.lane_batched_share",
        "ratio",
        share(lane_jobs + served_lane, jobs + served_tiles),
    );
    let peak = streams
        .iter()
        .map(|(s, _)| s.peak_in_flight)
        .max()
        .unwrap_or(0);
    out.metric("exec.peak_in_flight", "count", peak as f64);
    let worker_ns = report.stage_totals(Stage::WorkerRun).1 as f64;
    out.metric(
        "exec.busy_share",
        "ratio",
        worker_ns / (threads as f64 * region_ns),
    );

    let attr = |f: fn(&sc_graph::RequestAttribution) -> u64| -> Vec<f64> {
        served.iter().map(|s| ms(f(&s.attribution))).collect()
    };
    let submit_us: Vec<f64> = traced
        .records
        .iter()
        .filter(|r| r.served.is_some())
        .map(|r| {
            r.submit_end
                .saturating_duration_since(r.submit_start)
                .as_secs_f64()
                * 1e6
        })
        .collect();
    out.metric("serve.submit_us.p50", "us", median(&submit_us));
    out.metric("serve.submit_us.p95", "us", p95(&submit_us));
    let queue_wait = attr(|a| a.queue_wait_ns);
    out.metric("serve.queue_wait_ms.p50", "ms", median(&queue_wait));
    out.metric("serve.queue_wait_ms.p95", "ms", p95(&queue_wait));
    let execute = attr(|a| a.execute_ns);
    out.metric("serve.execute_ms.p50", "ms", median(&execute));
    out.metric("serve.execute_ms.p95", "ms", p95(&execute));
    out.metric(
        "serve.assemble_ms.p50",
        "ms",
        median(&attr(|a| a.assemble_ns)),
    );
    let cross: usize = served.iter().map(|s| s.cross_request_lane_jobs).sum();
    out.metric(
        "serve.cross_request_share",
        "ratio",
        share(cross, served_tiles),
    );

    out.metric("assemble.scatter_us.p50", "us", median(&layer.scatter_us));
    out.metric(
        "oneshot.residual_ms.p50",
        "ms",
        median(&self_times("oneshot.image")),
    );
    out.metric(
        "serve.residual_ms.p50",
        "ms",
        median(&self_times("serve.request")),
    );
}
