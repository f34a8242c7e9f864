//! Serving-tier integration tests: the warm [`sc_graph::Service`] edge cases
//! (deadlines, cancellation, bounded intake, first-error ordering,
//! attribution, the shared dispatch window) and the
//! [`sc_image::ImageServer`] front (bit-identity with the one-shot pipeline,
//! bounded plan cache).

use sc_graph::{
    BatchInput, BinaryOp, Graph, GraphError, PlannerOptions, Request, RequestError, Service,
    ServiceConfig, StreamJob, SubmitError,
};
use sc_image::{
    run_sc_pipeline, GrayImage, ImageServer, ImageSubmitError, PipelineConfig, PipelineStats,
    PipelineVariant, TilePlanner,
};
use sc_rng::SourceSpec;
use sc_telemetry::{Counter, Gauge, Hist, Stage, TelemetrySink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One compiled two-source XOR plan; every job built from it shares a
/// `plan_class`.
fn xor_plan() -> Arc<sc_graph::CompiledGraph> {
    let mut g = Graph::new();
    let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
    let y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
    let z = g.binary(BinaryOp::XorSubtract, x, y);
    g.sink_value("z", z);
    Arc::new(g.compile(&PlannerOptions::default()).unwrap())
}

fn ok_job(plan: &Arc<sc_graph::CompiledGraph>) -> StreamJob {
    StreamJob {
        plan: Arc::clone(plan),
        input: BatchInput::with_values(vec![0.8, 0.3]),
    }
}

/// A job that fails deterministically at execution: the plan reads value
/// slots 0 and 1 but the input provides only `provided` values.
fn failing_job(plan: &Arc<sc_graph::CompiledGraph>, provided: usize) -> StreamJob {
    StreamJob {
        plan: Arc::clone(plan),
        input: BatchInput::with_values(vec![0.5; provided]),
    }
}

#[test]
fn deadline_expired_at_submit_fails_fast() {
    let sink = TelemetrySink::new();
    let service = Service::start(ServiceConfig::new(64).with_telemetry(sink.clone()));
    let plan = xor_plan();
    let request =
        Request::new(vec![ok_job(&plan)]).with_deadline(Instant::now() - Duration::from_secs(1));
    match service.submit(request) {
        Err(SubmitError::Expired(returned)) => {
            assert_eq!(returned.jobs.len(), 1, "the request is handed back");
        }
        other => panic!("expected Expired, got {other:?}"),
    }
    // The same fast path applies to the non-blocking submit.
    let request =
        Request::new(vec![ok_job(&plan)]).with_deadline(Instant::now() - Duration::from_secs(1));
    assert!(matches!(
        service.try_submit(request),
        Err(SubmitError::Expired(_))
    ));
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsExpired), 2);
    assert_eq!(report.counter(Counter::RequestsSubmitted), 0);
}

#[test]
fn cancellation_drops_remaining_jobs_and_discards_results() {
    let sink = TelemetrySink::new();
    // One worker, window 1, slow jobs: cancellation lands while most of the
    // request is still queued.
    let service = Service::start(
        ServiceConfig::new(1 << 21)
            .with_threads(1)
            .with_window(1)
            .with_telemetry(sink.clone()),
    );
    let plan = xor_plan();
    let handle = service
        .submit(Request::new((0..8).map(|_| ok_job(&plan)).collect()))
        .expect("intake admits the first request");
    handle.cancel();
    match handle.wait() {
        Err(RequestError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The service survives and serves the next request normally.
    let handle = service
        .submit(Request::new(vec![ok_job(&plan)]))
        .expect("service still accepts work after a cancellation");
    let report = handle.wait().expect("follow-up request completes");
    assert_eq!(report.outputs.len(), 1);
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsCancelled), 1);
    assert_eq!(report.counter(Counter::RequestsCompleted), 1);
    // Cancellation dropped at least one of the eight jobs before dispatch.
    assert!(
        report.counter(Counter::JobsPulled) < 9,
        "cancelled request should not dispatch all its jobs (pulled {})",
        report.counter(Counter::JobsPulled)
    );
}

#[test]
fn full_intake_blocks_submit_and_fails_try_submit() {
    let sink = TelemetrySink::new();
    // Slow jobs + window 1 + intake 1: the first (oversized) request is
    // admitted because the intake is empty, then keeps it full for a while.
    let service = Arc::new(Service::start(
        ServiceConfig::new(1 << 21)
            .with_threads(1)
            .with_window(1)
            .with_intake_capacity(1)
            .with_telemetry(sink.clone()),
    ));
    let plan = xor_plan();
    let first = service
        .submit(Request::new((0..4).map(|_| ok_job(&plan)).collect()))
        .expect("an empty intake admits an oversized request");
    match service.try_submit(Request::new(vec![ok_job(&plan)])) {
        Err(SubmitError::Rejected(returned)) => assert_eq!(returned.jobs.len(), 1),
        other => panic!("expected Rejected on a full intake, got {other:?}"),
    }
    // A blocking submit from another thread parks until the intake drains,
    // then completes normally.
    let blocked = {
        let service = Arc::clone(&service);
        let plan = Arc::clone(&plan);
        std::thread::spawn(move || {
            let handle = service
                .submit(Request::new(vec![ok_job(&plan)]))
                .expect("blocking submit eventually admits");
            handle.wait().expect("blocked request completes").outputs[0]
                .value("z")
                .unwrap()
        })
    };
    let first_report = first.wait().expect("first request completes");
    assert_eq!(first_report.outputs.len(), 4);
    let blocked_value = blocked.join().expect("blocked submitter thread");
    assert!((blocked_value - 0.5).abs() < 0.1, "XOR |0.8-0.3| ≈ 0.5");
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsRejected), 1);
    assert_eq!(report.counter(Counter::RequestsSubmitted), 2);
}

#[test]
fn first_error_is_the_smallest_failing_job_index() {
    let service = Service::start(ServiceConfig::new(64).with_threads(2));
    let plan = xor_plan();
    // Jobs 1 and 3 both fail, with distinguishable errors (provided = 0
    // vs 1). Every job still executes, so the reported error is job 1's
    // regardless of scheduling.
    for _ in 0..8 {
        let handle = service
            .submit(Request::new(vec![
                ok_job(&plan),
                failing_job(&plan, 0),
                ok_job(&plan),
                failing_job(&plan, 1),
            ]))
            .expect("submit succeeds");
        match handle.wait() {
            Err(RequestError::Job(GraphError::ValueSlotOutOfRange { provided, .. })) => {
                assert_eq!(provided, 0, "job 1 (provided=0) is the first failure");
            }
            other => panic!("expected job 1's error, got {other:?}"),
        }
    }
}

#[test]
fn attribution_segments_sum_to_request_wall_clock() {
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(256)
            .with_threads(2)
            .with_telemetry(sink.clone()),
    );
    let plan = xor_plan();
    let handle = service
        .submit(Request::new((0..6).map(|_| ok_job(&plan)).collect()))
        .expect("submit succeeds");
    let report = handle.wait().expect("request completes");
    let a = report.attribution;
    assert_eq!(
        a.submit_ns + a.queue_wait_ns + a.execute_ns + a.assemble_ns,
        a.wall_ns,
        "attribution segments partition the request wall-clock exactly"
    );
    assert!(a.wall_ns > 0, "a real request takes nonzero time");
    assert_eq!(report.outputs.len(), 6);
    drop(service);
    let report = sink.drain();
    // The serving stages are first-class members of the static registry.
    for stage in [
        Stage::ServeSubmit,
        Stage::ServeQueueWait,
        Stage::ServeCoalesce,
        Stage::ServeAssemble,
    ] {
        assert!(
            Stage::ALL.contains(&stage),
            "{} missing from the stage registry",
            stage.name()
        );
    }
    assert!(
        report.histogram(sc_telemetry::Hist::RequestLatencyNs).count > 0,
        "completed requests record a latency observation"
    );
}

#[test]
fn window_occupancy_gauge_stays_within_the_dispatch_window() {
    // Several concurrent requests of several jobs each keep the shared
    // window busy; the dispatcher reports its occupancy on every change.
    let window = 3;
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(4096)
            .with_threads(2)
            .with_window(window)
            .with_telemetry(sink.clone()),
    );
    let plan = xor_plan();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            service
                .submit(Request::new((0..5).map(|_| ok_job(&plan)).collect()))
                .expect("submit succeeds")
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().expect("request completes").outputs.len(), 5);
    }
    drop(service);
    let report = sink.drain();
    let (current, peak) = report.gauge(Gauge::WindowOccupancy);
    assert!(peak > 0, "the window held jobs");
    assert!(
        peak <= window as u64,
        "peak occupancy {peak} exceeds the window {window}"
    );
    assert_eq!(current, 0, "every job left the window");
    let occupancy = report.histogram(Hist::WindowOccupancy);
    assert_eq!(occupancy.count, 2 * 20, "one sample per entry and per exit");
    assert!(occupancy.quantile(1.0) <= window as u64);
}

#[test]
fn image_server_matches_the_one_shot_pipeline_bit_for_bit() {
    let blob = GrayImage::gaussian_blob(12, 12);
    let image = GrayImage::from_fn(12, 12, |x, y| {
        0.6 * blob.get(x, y) + 0.4 * (x as f64 / 12.0)
    });
    let config = PipelineConfig::quick();
    for variant in PipelineVariant::all() {
        let expected = run_sc_pipeline(&image, variant, &config).unwrap();
        let server = ImageServer::builder(variant, config.clone())
            .with_threads(2)
            .start()
            .unwrap();
        // Twice through the same warm server: the second submission runs
        // entirely on cached plans and must render the same pixels.
        for round in 0..2 {
            let response = server.submit(&image).unwrap().wait().unwrap();
            assert_eq!(
                response.image, expected,
                "{variant:?} round {round}: served image diverged from the pipeline"
            );
            assert_eq!(response.tiles, 4);
            assert_eq!(response.lane_batched_jobs + response.scalar_jobs, 4);
        }
        assert!(server.cached_classes() > 0, "the plan cache stays warm");
    }
}

#[test]
fn image_server_rejects_degenerate_configs_and_expired_deadlines() {
    let bad = PipelineConfig {
        tile_size: 0,
        ..PipelineConfig::quick()
    };
    assert!(ImageServer::start(PipelineVariant::Synchronizer, bad).is_err());
    let server =
        ImageServer::start(PipelineVariant::Synchronizer, PipelineConfig::quick()).unwrap();
    let image = GrayImage::gradient(8, 8);
    let err = server
        .submit_with_deadline(&image, Instant::now() - Duration::from_secs(1))
        .unwrap_err();
    assert_eq!(err, ImageSubmitError::Expired);
}

#[test]
fn bounded_plan_cache_evicts_lru_but_pins_held_templates() {
    let config = PipelineConfig::quick();
    let image = GrayImage::gradient(12, 12);
    // A 12×12 image with 6-pixel tiles has two tile classes (x-phases 0
    // and 2). With capacity 1 and nothing held, planning both classes
    // evicts the first.
    let mut planner =
        TilePlanner::new(PipelineVariant::Synchronizer, config.clone()).with_capacity(Some(1));
    let mut stats = PipelineStats::default();
    drop(planner.plan_tile(&image, 0, 0, 0, &mut stats));
    drop(planner.plan_tile(&image, 6, 0, 1, &mut stats));
    assert_eq!(planner.cached_classes(), 1);
    assert_eq!(planner.evictions(), 1);
    // Revisiting the evicted class recompiles it.
    let before = stats.compilations;
    drop(planner.plan_tile(&image, 0, 0, 2, &mut stats));
    assert_eq!(stats.compilations, before + 1);

    // A template still held outside the cache (a live dispatch window would
    // hold it exactly like this) is pinned: the cache overshoots the cap
    // instead of evicting it.
    let mut planner =
        TilePlanner::new(PipelineVariant::Synchronizer, config).with_capacity(Some(1));
    let mut stats = PipelineStats::default();
    let held = planner.plan_tile(&image, 0, 0, 0, &mut stats);
    drop(planner.plan_tile(&image, 6, 0, 1, &mut stats));
    assert_eq!(
        planner.cached_classes(),
        2,
        "held template is pinned, cache overshoots"
    );
    assert_eq!(planner.evictions(), 0);
    drop(held);
}

#[test]
fn bounded_image_server_still_renders_correctly() {
    let image = GrayImage::gradient(12, 12);
    let config = PipelineConfig::quick();
    let expected = run_sc_pipeline(&image, PipelineVariant::Synchronizer, &config).unwrap();
    let server = ImageServer::builder(PipelineVariant::Synchronizer, config)
        .with_threads(1)
        .with_plan_cache_capacity(1)
        .start()
        .unwrap();
    for _ in 0..3 {
        let response = server.submit(&image).unwrap().wait().unwrap();
        assert_eq!(response.image, expected);
    }
    assert!(
        server.cached_classes() <= 2,
        "bounded cache stays near its cap (pinning may overshoot transiently)"
    );
}
