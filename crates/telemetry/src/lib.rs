//! # sc-telemetry
//!
//! Zero-cost tracing, metrics, and per-stage profiling for the SC execution
//! stack — vendored and dependency-free, like the rest of the workspace (the
//! build environment is offline).
//!
//! The recorder has three parts:
//!
//! * **Spans** — monotonic-clock scoped timers ([`TelemetrySink::span`])
//!   against a static registry of stage names ([`Stage`]): compile passes,
//!   plan-cache hits/misses, seed retargeting, stream dispatch, lane-group
//!   and scalar execution, worker park/run, stream de-transposition, and
//!   image sink collection. Each thread records into its own fixed-capacity
//!   ring buffer (owner-thread locks are uncontended), merged and
//!   time-sorted on [`TelemetrySink::drain`].
//! * **Metrics** — atomic [`Counter`]s, [`Gauge`]s (current value + peak),
//!   fixed-bucket log2 [`Hist`]ograms (job latency, queue depth, window
//!   occupancy, per-worker busy/idle time), and an exact lane-group fill
//!   distribution ([`TelemetrySink::lane_fill`]).
//! * **Export** — a drained [`TelemetryReport`] renders as pretty text
//!   ([`TelemetryReport::to_pretty_string`]), JSON lines
//!   ([`TelemetryReport::to_json_lines`]), and chrome://tracing trace-event
//!   JSON ([`TelemetryReport::to_chrome_trace`]) for flamegraph-style
//!   inspection; [`TelemetryReport::to_json`] is the machine-readable
//!   summary the bench binaries embed in their `BENCH_*.json` evidence.
//! * **Live observation** — [`TelemetrySink::snapshot`] reads the current
//!   state without consuming anything, [`TelemetrySink::snapshot_delta`]
//!   returns the change since the previous delta (counters and histograms
//!   diffed, gauges sampled with per-interval peaks, span rings drained
//!   incrementally), and both are safe to call from a background thread
//!   while a dispatch is mid-flight. The [`serve`] module exposes the
//!   current snapshot over HTTP in Prometheus text exposition format, and
//!   the [`watch`] module evaluates registered thresholds against interval
//!   snapshots and fires callbacks.
//! * **Attribution** — job latency and the lane/scalar/fill tallies are
//!   additionally keyed by `CompiledGraph::plan_class` in a bounded lock-free
//!   class table ([`TelemetrySink::class_latency`] and friends), so a report
//!   names *which* plan class is slow ([`TelemetryReport::classes`]).
//!
//! The handle is designed for **always-on plumbing with a no-op default**:
//! [`TelemetrySink::default`] holds no allocation at all, every record method
//! early-returns on one branch, and `span` does not even read the clock — so
//! instrumented code paths (at step/job granularity, never inside word
//! kernels) cost a predictable near-zero when disabled. The
//! `telemetry_overhead` bench bin gates that claim in CI.
//!
//! # Example
//!
//! ```
//! use sc_telemetry::{Counter, Stage, TelemetrySink};
//!
//! let sink = TelemetrySink::new();
//! {
//!     let _span = sink.span(Stage::Compile);
//!     sink.add(Counter::Compilations, 1);
//! }
//! let report = sink.drain();
//! assert_eq!(report.counter(Counter::Compilations), 1);
//! let (count, total_ns) = report.stage_totals(Stage::Compile);
//! assert_eq!(count, 1);
//! assert!(total_ns > 0);
//! assert!(report.to_chrome_trace().contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod serve;
pub mod watch;

pub use json::Json;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The static registry of instrumented stages. Every span names one of
/// these, so reports aggregate by stage without string interning and the
/// export formats share one vocabulary ([`Stage::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A whole `Graph::compile` call (all passes).
    Compile,
    /// Compile pass: structural validation + cycle check.
    CompileValidate,
    /// Compile pass: SCC inference (structural classes + measured probes).
    CompilePlan,
    /// Compile pass: common-subexpression elimination over identical
    /// subgraphs.
    CompileCse,
    /// Compile pass: dead-node elimination (orphaned interior nodes and
    /// newly-dead inputs of CSE-merged losers).
    CompileDce,
    /// Compile pass: cost-driven correlation-repair placement.
    CompileRepair,
    /// Compile pass: span-fusion analysis (manipulator chains + linear
    /// source→gate→sink spans).
    CompileFuse,
    /// Compile pass: scheduling and step emission.
    CompileEmit,
    /// One measured-SCC probe execution inside the planner.
    MeasuredProbe,
    /// Tile planning served from the per-class plan cache.
    PlanCacheHit,
    /// Tile planning that compiled (and cached) a fresh class template.
    PlanCacheMiss,
    /// Rewriting a cached template's source seeds onto a new tile.
    Retarget,
    /// A whole streaming dispatch (`Executor::run_stream`), job pulls
    /// included.
    Dispatch,
    /// Lockstep execution of one same-class lane group (`arg` = group fill).
    LaneGroupExecute,
    /// Solo execution of one scalar job.
    ScalarExecute,
    /// One task executed by a worker-pool thread.
    WorkerRun,
    /// A worker-pool thread parked waiting for work.
    WorkerPark,
    /// Re-assembling per-lane results after a lane-group execution.
    DeTranspose,
    /// Scattering per-tile sink values into the output image.
    SinkCollect,
    /// Admitting one request into the serving tier's intake queue
    /// (decomposition into tile jobs included).
    ServeSubmit,
    /// Time one request's jobs spent queued before their first execution
    /// (recorded once per request with the measured duration).
    ServeQueueWait,
    /// One dispatcher pass that drains admitted jobs into per-class
    /// coalescing buckets (`arg` = jobs moved).
    ServeCoalesce,
    /// Re-assembling one request's tile results into its response.
    ServeAssemble,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 23] = [
        Stage::Compile,
        Stage::CompileValidate,
        Stage::CompilePlan,
        Stage::CompileCse,
        Stage::CompileDce,
        Stage::CompileRepair,
        Stage::CompileFuse,
        Stage::CompileEmit,
        Stage::MeasuredProbe,
        Stage::PlanCacheHit,
        Stage::PlanCacheMiss,
        Stage::Retarget,
        Stage::Dispatch,
        Stage::LaneGroupExecute,
        Stage::ScalarExecute,
        Stage::WorkerRun,
        Stage::WorkerPark,
        Stage::DeTranspose,
        Stage::SinkCollect,
        Stage::ServeSubmit,
        Stage::ServeQueueWait,
        Stage::ServeCoalesce,
        Stage::ServeAssemble,
    ];

    /// The stage's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compile => "compile",
            Stage::CompileValidate => "compile.validate",
            Stage::CompilePlan => "compile.plan",
            Stage::CompileCse => "compile.cse",
            Stage::CompileDce => "compile.dce",
            Stage::CompileRepair => "compile.repair",
            Stage::CompileFuse => "compile.fuse",
            Stage::CompileEmit => "compile.emit",
            Stage::MeasuredProbe => "compile.measured_probe",
            Stage::PlanCacheHit => "plan_cache.hit",
            Stage::PlanCacheMiss => "plan_cache.miss",
            Stage::Retarget => "retarget",
            Stage::Dispatch => "dispatch",
            Stage::LaneGroupExecute => "execute.lane_group",
            Stage::ScalarExecute => "execute.scalar",
            Stage::WorkerRun => "worker.run",
            Stage::WorkerPark => "worker.park",
            Stage::DeTranspose => "de_transpose",
            Stage::SinkCollect => "sink.collect",
            Stage::ServeSubmit => "serve.submit",
            Stage::ServeQueueWait => "serve.queue_wait",
            Stage::ServeCoalesce => "serve.coalesce",
            Stage::ServeAssemble => "serve.assemble",
        }
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Jobs pulled from a streaming dispatch's iterator.
    JobsPulled,
    /// Jobs whose execution returned an error.
    JobsFailed,
    /// Jobs executed through the lane-batched lockstep path.
    LaneBatchedJobs,
    /// Jobs executed solo through the scalar path.
    ScalarJobs,
    /// `Graph::compile` calls completed.
    Compilations,
    /// Repair manipulators auto-inserted by the correlation planner.
    RepairsInserted,
    /// Measured-SCC probe executions run by the planner.
    MeasuredProbes,
    /// Manipulator runs of length ≥ 2 fused into chain steps.
    FusedRuns,
    /// Tile plans served from the image pipeline's per-class cache.
    PlanCacheHits,
    /// Tile plans compiled fresh (and cached) by the image pipeline.
    PlanCacheMisses,
    /// Cached tile-class templates evicted by a bounded plan cache's LRU.
    PlanCacheEvictions,
    /// Image tiles planned.
    Tiles,
    /// Requests admitted into the serving tier's intake queue.
    RequestsSubmitted,
    /// Requests that completed (successfully or with a job error).
    RequestsCompleted,
    /// Requests rejected by a non-blocking submit on a full intake queue.
    RequestsRejected,
    /// Requests cancelled before completion.
    RequestsCancelled,
    /// Requests whose deadline expired (at submit or in flight).
    RequestsExpired,
    /// Lane-batched jobs that executed in a dispatch group mixing two or
    /// more requests (cross-request coalescing at work).
    CrossRequestLaneJobs,
    /// Executor sample draws served from a job's sample memo.
    SampleMemoHits,
    /// Executor sample draws filled fresh into a job's sample memo.
    SampleMemoMisses,
    /// Process-wide LFSR period tables walked on first use (at most one per
    /// register width).
    PeriodTableBuilds,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 21] = [
        Counter::JobsPulled,
        Counter::JobsFailed,
        Counter::LaneBatchedJobs,
        Counter::ScalarJobs,
        Counter::Compilations,
        Counter::RepairsInserted,
        Counter::MeasuredProbes,
        Counter::FusedRuns,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::Tiles,
        Counter::RequestsSubmitted,
        Counter::RequestsCompleted,
        Counter::RequestsRejected,
        Counter::RequestsCancelled,
        Counter::RequestsExpired,
        Counter::CrossRequestLaneJobs,
        Counter::SampleMemoHits,
        Counter::SampleMemoMisses,
        Counter::PeriodTableBuilds,
    ];

    /// The counter's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::JobsPulled => "jobs_pulled",
            Counter::JobsFailed => "jobs_failed",
            Counter::LaneBatchedJobs => "lane_batched_jobs",
            Counter::ScalarJobs => "scalar_jobs",
            Counter::Compilations => "compilations",
            Counter::RepairsInserted => "repairs_inserted",
            Counter::MeasuredProbes => "measured_probes",
            Counter::FusedRuns => "fused_runs",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
            Counter::Tiles => "tiles",
            Counter::RequestsSubmitted => "requests_submitted",
            Counter::RequestsCompleted => "requests_completed",
            Counter::RequestsRejected => "requests_rejected",
            Counter::RequestsCancelled => "requests_cancelled",
            Counter::RequestsExpired => "requests_expired",
            Counter::CrossRequestLaneJobs => "cross_request_lane_jobs",
            Counter::SampleMemoHits => "sample_memo_hits",
            Counter::SampleMemoMisses => "sample_memo_misses",
            Counter::PeriodTableBuilds => "period_table_builds",
        }
    }
}

/// Instantaneous-value gauges; the sink tracks the last set value and the
/// peak ever set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Planned-but-unfinished jobs inside a streaming dispatch window.
    WindowOccupancy,
    /// Tasks queued on the worker pool.
    QueueDepth,
    /// Tile jobs admitted to the serving tier but not yet dispatched.
    IntakeDepth,
}

impl Gauge {
    /// Every gauge, in declaration order.
    pub const ALL: [Gauge; 3] = [
        Gauge::WindowOccupancy,
        Gauge::QueueDepth,
        Gauge::IntakeDepth,
    ];

    /// The gauge's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::WindowOccupancy => "window_occupancy",
            Gauge::QueueDepth => "queue_depth",
            Gauge::IntakeDepth => "intake_depth",
        }
    }
}

/// Fixed-bucket log2 histograms: a value `v` lands in bucket
/// `bit_length(v)` (so bucket `b` covers `[2^(b-1), 2^b)`; zero lands in
/// bucket 0), which makes recording one `fetch_add` with no configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Wall-clock nanoseconds one job spent executing.
    JobLatencyNs,
    /// Window occupancy sampled at every job pull.
    WindowOccupancy,
    /// Pool queue depth sampled at every submission.
    QueueDepth,
    /// Nanoseconds a pool worker spent running one task.
    WorkerBusyNs,
    /// Nanoseconds a pool worker spent parked between tasks.
    WorkerIdleNs,
    /// Wall-clock nanoseconds one serving-tier request took end to end
    /// (submit to response).
    RequestLatencyNs,
}

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; 6] = [
        Hist::JobLatencyNs,
        Hist::WindowOccupancy,
        Hist::QueueDepth,
        Hist::WorkerBusyNs,
        Hist::WorkerIdleNs,
        Hist::RequestLatencyNs,
    ];

    /// The histogram's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::JobLatencyNs => "job_latency_ns",
            Hist::WindowOccupancy => "window_occupancy",
            Hist::QueueDepth => "queue_depth",
            Hist::WorkerBusyNs => "worker_busy_ns",
            Hist::WorkerIdleNs => "worker_idle_ns",
            Hist::RequestLatencyNs => "request_latency_ns",
        }
    }
}

/// Number of log2 histogram buckets (bit lengths of a `u64`, 0 through 63+).
pub const HIST_BUCKETS: usize = 64;

/// Widest lane-group fill tracked exactly by the fill distribution. The
/// executor's lane width is 4 today; the extra headroom means a wider future
/// kernel cannot silently truncate (wider groups clamp into the last slot).
pub const MAX_LANE_FILL: usize = 8;

/// Maximum number of distinct plan classes the attribution table tracks
/// exactly; classes seen after every slot is claimed aggregate into one
/// shared overflow bucket (reported with `plan_class: None`).
pub const MAX_PLAN_CLASSES: usize = 32;

/// Default per-thread span ring capacity (events). At ~40 bytes per event
/// this bounds each recording thread at ~0.6 MiB; older events are
/// overwritten once the ring is full and counted as dropped.
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// One closed span: a stage, the recording thread, when it started (relative
/// to the sink's epoch), how long it ran, and a stage-specific argument
/// (lane-group fill for [`Stage::LaneGroupExecute`], zero elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The stage this span timed.
    pub stage: Stage,
    /// Dense id of the recording thread (process-wide, starting at 1).
    pub thread: u32,
    /// Start time in nanoseconds since the sink's creation.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Stage-specific argument.
    pub arg: u64,
}

/// One thread's fixed-capacity span ring.
struct SpanBuf {
    events: Vec<SpanEvent>,
    /// Overwrite cursor once `events` reaches capacity.
    next: usize,
    dropped: u64,
}

impl SpanBuf {
    fn record(&mut self, event: SpanEvent, capacity: usize) {
        if self.events.len() < capacity {
            self.events.push(event);
        } else {
            self.events[self.next] = event;
            self.next = (self.next + 1) % capacity.max(1);
            self.dropped += 1;
        }
    }
}

/// One histogram's atomic cells.
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
        }
    }
}

/// One plan class's atomic attribution cells.
struct ClassCells {
    /// Claimed plan-class id plus one; zero marks a free slot (plan-class
    /// ids start at zero, so a raw id cannot be its own empty sentinel).
    key: AtomicU64,
    lane_batched: AtomicU64,
    scalar: AtomicU64,
    latency: HistCells,
    fill: [AtomicU64; MAX_LANE_FILL],
}

impl ClassCells {
    fn new() -> Self {
        ClassCells {
            key: AtomicU64::new(0),
            lane_batched: AtomicU64::new(0),
            scalar: AtomicU64::new(0),
            latency: HistCells::new(),
            fill: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn snapshot(&self, plan_class: Option<u64>) -> ClassReport {
        ClassReport {
            plan_class,
            lane_batched_jobs: self.lane_batched.load(Ordering::Relaxed),
            scalar_jobs: self.scalar.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            lane_group_fill: std::array::from_fn(|i| self.fill[i].load(Ordering::Relaxed)),
        }
    }
}

/// The bounded per-plan-class attribution table: [`MAX_PLAN_CLASSES`]
/// CAS-claimed slots plus a shared overflow bucket. Lookup is a linear scan
/// over a cache-resident array — recording stays lock-free and allocation-free
/// on the hot path.
struct ClassTable {
    slots: [ClassCells; MAX_PLAN_CLASSES],
    overflow: ClassCells,
}

impl ClassTable {
    fn new() -> Self {
        ClassTable {
            slots: std::array::from_fn(|_| ClassCells::new()),
            overflow: ClassCells::new(),
        }
    }

    /// The cells attributed to `class`, claiming the first free slot on
    /// first sight; once every slot is claimed, later classes share the
    /// overflow bucket.
    fn cells(&self, class: u64) -> &ClassCells {
        let key = class.saturating_add(1);
        for slot in &self.slots {
            let current = slot.key.load(Ordering::Acquire);
            if current == key {
                return slot;
            }
            if current == 0 {
                match slot
                    .key
                    .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return slot,
                    Err(actual) if actual == key => return slot,
                    Err(_) => {} // lost the race to a different class; keep scanning
                }
            }
        }
        &self.overflow
    }

    /// Every claimed class in id order, the overflow bucket (if populated)
    /// last.
    fn snapshot(&self) -> Vec<ClassReport> {
        let mut classes: Vec<ClassReport> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let key = slot.key.load(Ordering::Acquire);
                (key != 0).then(|| slot.snapshot(Some(key - 1)))
            })
            .collect();
        classes.sort_by_key(|c| c.plan_class);
        let overflow = self.overflow.snapshot(None);
        if !overflow.is_empty() {
            classes.push(overflow);
        }
        classes
    }
}

/// Bucket index of a value: its bit length, clamped to the last bucket.
fn log2_bucket(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Shared state of an enabled sink.
struct Inner {
    /// Process-unique sink id, keying the thread-local buffer cache.
    id: u64,
    /// The sink's time zero; span `start_ns` values are relative to it.
    epoch: Instant,
    span_capacity: usize,
    counters: [AtomicU64; Counter::ALL.len()],
    gauge_current: [AtomicU64; Gauge::ALL.len()],
    gauge_peak: [AtomicU64; Gauge::ALL.len()],
    /// Per-interval gauge peaks, reset by each [`TelemetrySink::snapshot_delta`].
    gauge_window_peak: [AtomicU64; Gauge::ALL.len()],
    hists: [HistCells; Hist::ALL.len()],
    lane_fill: [AtomicU64; MAX_LANE_FILL],
    classes: ClassTable,
    /// Every thread's span ring, registered on that thread's first record.
    buffers: Mutex<Vec<Arc<Mutex<SpanBuf>>>>,
    /// Cumulative metric values as of the previous
    /// [`TelemetrySink::snapshot_delta`], used to diff the next one.
    delta: Mutex<DeltaBaseline>,
}

/// The cumulative metric values captured by the previous delta snapshot.
#[derive(Default)]
struct DeltaBaseline {
    elapsed_ns: u64,
    counters: [u64; Counter::ALL.len()],
    hists: [HistSnapshot; Hist::ALL.len()],
    lane_fill: [u64; MAX_LANE_FILL],
    classes: Vec<ClassReport>,
}

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Dense process-wide id of this thread (0 = unassigned).
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
    /// This thread's span buffers, keyed by sink id.
    static THREAD_BUFFERS: RefCell<Vec<(u64, Arc<Mutex<SpanBuf>>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Names of threads that have recorded spans, keyed by dense thread id.
/// Registered once per thread when its id is assigned, so chrome-trace
/// exports can label tids with real thread names.
static THREAD_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

fn current_thread_id() -> u32 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{id}"), str::to_owned);
        THREAD_NAMES
            .lock()
            .expect("telemetry thread-name registry lock is never poisoned")
            .push((id, name));
        id
    })
}

/// The recorded name of the thread with the given dense id ([`SpanEvent::thread`]),
/// if that thread has recorded any span.
#[must_use]
pub fn thread_name(id: u32) -> Option<String> {
    THREAD_NAMES
        .lock()
        .expect("telemetry thread-name registry lock is never poisoned")
        .iter()
        .find(|(tid, _)| *tid == id)
        .map(|(_, name)| name.clone())
}

impl Inner {
    /// This thread's span buffer for this sink, creating and registering it
    /// on first use. The buffer is cached thread-locally so the steady state
    /// is one vector scan plus one uncontended lock.
    fn thread_buffer(self: &Arc<Self>) -> Arc<Mutex<SpanBuf>> {
        THREAD_BUFFERS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, buf)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(buf);
            }
            // Drop cache entries whose sink is gone (only this cache still
            // holds the buffer) so long-lived worker threads stay bounded.
            cache.retain(|(_, buf)| Arc::strong_count(buf) > 1);
            let buf = Arc::new(Mutex::new(SpanBuf {
                events: Vec::new(),
                next: 0,
                dropped: 0,
            }));
            self.buffers
                .lock()
                .expect("telemetry buffer registry lock is never poisoned")
                .push(Arc::clone(&buf));
            cache.push((self.id, Arc::clone(&buf)));
            buf
        })
    }
}

/// A cheaply clonable handle to one telemetry recorder — or to nothing.
///
/// The default sink is **disabled**: it holds no allocation, and every
/// record method returns after a single branch ([`TelemetrySink::span`]
/// does not even read the clock). An enabled sink ([`TelemetrySink::new`])
/// shares one recorder across all its clones, so a sink threaded through an
/// executor and its worker pool aggregates into one report.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl PartialEq for TelemetrySink {
    /// Two sinks are equal when they record to the same recorder (or both
    /// record to none).
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for TelemetrySink {}

impl TelemetrySink {
    /// An enabled sink with the default per-thread span capacity.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled sink whose per-thread span rings hold `capacity` events
    /// (clamped to ≥ 1); once full, the oldest events are overwritten and
    /// counted in [`TelemetryReport::dropped_spans`].
    #[must_use]
    pub fn with_span_capacity(capacity: usize) -> Self {
        TelemetrySink {
            inner: Some(Arc::new(Inner {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                span_capacity: capacity.max(1),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauge_current: std::array::from_fn(|_| AtomicU64::new(0)),
                gauge_peak: std::array::from_fn(|_| AtomicU64::new(0)),
                gauge_window_peak: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| HistCells::new()),
                lane_fill: std::array::from_fn(|_| AtomicU64::new(0)),
                classes: ClassTable::new(),
                buffers: Mutex::new(Vec::new()),
                delta: Mutex::new(DeltaBaseline::default()),
            })),
        }
    }

    /// The no-op sink (same as [`TelemetrySink::default`]).
    #[must_use]
    pub fn disabled() -> Self {
        TelemetrySink::default()
    }

    /// Whether this sink records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a scoped timer for `stage`; the span is recorded when the
    /// returned guard drops (or [`SpanGuard::finish`] is called). Disabled
    /// sinks return an inert guard without reading the clock.
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        self.span_with(stage, 0)
    }

    /// Like [`TelemetrySink::span`] with a stage-specific argument (e.g. the
    /// lane-group fill for [`Stage::LaneGroupExecute`]).
    pub fn span_with(&self, stage: Stage, arg: u64) -> SpanGuard<'_> {
        SpanGuard {
            state: self.inner.as_ref().map(|inner| GuardState {
                inner,
                stage,
                arg,
                start: Instant::now(),
            }),
        }
    }

    /// Records a span with an explicitly measured duration, ending now —
    /// for intervals measured across threads (e.g. the serving tier's
    /// queue-wait, whose start and end are observed by different threads),
    /// where a scoped [`TelemetrySink::span`] guard cannot bracket the
    /// interval. The event is attributed to the calling thread's ring.
    pub fn record_span_ns(&self, stage: Stage, dur_ns: u64, arg: u64) {
        if let Some(inner) = &self.inner {
            let end_ns = inner.epoch.elapsed().as_nanos() as u64;
            let event = SpanEvent {
                stage,
                thread: current_thread_id(),
                start_ns: end_ns.saturating_sub(dur_ns),
                dur_ns,
                arg,
            };
            let buf = inner.thread_buffer();
            buf.lock()
                .expect("telemetry span buffer lock is never poisoned")
                .record(event, inner.span_capacity);
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sets a gauge's current value, raising its all-time and per-interval
    /// peaks if exceeded.
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            inner.gauge_current[gauge as usize].store(value, Ordering::Relaxed);
            inner.gauge_peak[gauge as usize].fetch_max(value, Ordering::Relaxed);
            inner.gauge_window_peak[gauge as usize].fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[hist as usize].observe(value);
        }
    }

    /// Records one executed lane group of the given fill (number of jobs,
    /// clamped to [`MAX_LANE_FILL`]; zero-fill groups are ignored).
    pub fn lane_fill(&self, fill: usize) {
        self.lane_fill_n(fill, 1);
    }

    /// Records `n` executed lane groups of the given fill in one operation —
    /// for callers that tally fills locally and flush once per dispatch.
    pub fn lane_fill_n(&self, fill: usize, n: u64) {
        if let Some(inner) = &self.inner {
            if fill > 0 && n > 0 {
                inner.lane_fill[fill.min(MAX_LANE_FILL) - 1].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Records one job-latency observation attributed to a plan class. The
    /// global [`Hist::JobLatencyNs`] histogram is recorded separately by the
    /// executor; this feeds the per-class breakdown
    /// ([`TelemetryReport::classes`]).
    pub fn class_latency(&self, plan_class: u64, latency_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.classes.cells(plan_class).latency.observe(latency_ns);
        }
    }

    /// Attributes `lane_batched` lane-path jobs and `scalar` scalar-path
    /// jobs to a plan class — for callers that tally per class locally and
    /// flush once per dispatch.
    pub fn class_add_jobs(&self, plan_class: u64, lane_batched: u64, scalar: u64) {
        if let Some(inner) = &self.inner {
            if lane_batched == 0 && scalar == 0 {
                return;
            }
            let cells = inner.classes.cells(plan_class);
            if lane_batched > 0 {
                cells
                    .lane_batched
                    .fetch_add(lane_batched, Ordering::Relaxed);
            }
            if scalar > 0 {
                cells.scalar.fetch_add(scalar, Ordering::Relaxed);
            }
        }
    }

    /// Records `n` executed lane groups of the given fill attributed to a
    /// plan class (the per-class mirror of [`TelemetrySink::lane_fill_n`]).
    pub fn class_fill_n(&self, plan_class: u64, fill: usize, n: u64) {
        if let Some(inner) = &self.inner {
            if fill > 0 && n > 0 {
                inner.classes.cells(plan_class).fill[fill.min(MAX_LANE_FILL) - 1]
                    .fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Drains every thread's recorded spans into a time-sorted report,
    /// together with a snapshot of the (cumulative) counters, gauges,
    /// histograms, lane-fill distribution, and per-class table. Spans are
    /// consumed; metrics are not reset, so back-to-back drains see monotonic
    /// counters. For live observation without consuming anything, use
    /// [`TelemetrySink::snapshot`]; for interval views, use
    /// [`TelemetrySink::snapshot_delta`].
    #[must_use]
    pub fn drain(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        inner.report(true)
    }

    /// A non-destructive snapshot of the current state: spans are copied out
    /// of the rings (a later [`TelemetrySink::drain`] still reports them),
    /// overwrite counts are read without being reset, and metrics are the
    /// same cumulative values a drain would return. Safe to call from a
    /// background thread while recording threads are mid-dispatch; for a
    /// completed run it is field-for-field equal to the final drain (modulo
    /// `elapsed_ns`, which keeps advancing with the wall clock).
    #[must_use]
    pub fn snapshot(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        inner.report(false)
    }

    /// The change since the previous `snapshot_delta` (or since the sink's
    /// creation, for the first call): counters, histograms, lane-fill slots,
    /// and per-class tallies are diffed against the previous cumulative
    /// values; gauges report their sampled current value and their peak
    /// within the interval; spans are drained incrementally (each delta
    /// carries the spans recorded since the last consume, with ring
    /// overwrite counts preserved); `elapsed_ns` is the interval length.
    ///
    /// A sequence of deltas therefore sums to the cumulative report:
    /// concatenated spans, summed counters/histograms/fills, and the max
    /// over interval gauge peaks equals the all-time peak. Concurrent
    /// callers are serialized on an internal baseline lock.
    #[must_use]
    pub fn snapshot_delta(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        let mut baseline = inner
            .delta
            .lock()
            .expect("telemetry delta baseline lock is never poisoned");
        let now = inner.report(true);
        let report = TelemetryReport {
            spans: now.spans,
            dropped_spans: now.dropped_spans,
            elapsed_ns: now.elapsed_ns.saturating_sub(baseline.elapsed_ns),
            counters: std::array::from_fn(|i| now.counters[i].saturating_sub(baseline.counters[i])),
            gauges: std::array::from_fn(|i| {
                let current = inner.gauge_current[i].load(Ordering::Relaxed);
                // Swapping in the current value restarts the interval peak:
                // a gauge that holds a level across deltas keeps reporting it.
                let window_peak = inner.gauge_window_peak[i].swap(current, Ordering::Relaxed);
                (current, window_peak.max(current))
            }),
            hists: std::array::from_fn(|i| now.hists[i].delta_since(&baseline.hists[i])),
            lane_fill: std::array::from_fn(|i| {
                now.lane_fill[i].saturating_sub(baseline.lane_fill[i])
            }),
            classes: now
                .classes
                .iter()
                .filter_map(|cur| {
                    let delta = match baseline
                        .classes
                        .iter()
                        .find(|prev| prev.plan_class == cur.plan_class)
                    {
                        Some(prev) => cur.delta_since(prev),
                        None => cur.clone(),
                    };
                    (!delta.is_empty()).then_some(delta)
                })
                .collect(),
        };
        *baseline = DeltaBaseline {
            elapsed_ns: now.elapsed_ns,
            counters: now.counters,
            hists: now.hists,
            lane_fill: now.lane_fill,
            classes: now.classes,
        };
        report
    }
}

impl Inner {
    /// Collects every thread's spans (consuming them when `consume_spans`)
    /// and the cumulative metric values into a report.
    fn report(&self, consume_spans: bool) -> TelemetryReport {
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        {
            let buffers = self
                .buffers
                .lock()
                .expect("telemetry buffer registry lock is never poisoned");
            for buf in buffers.iter() {
                let mut buf = buf
                    .lock()
                    .expect("telemetry span buffer lock is never poisoned");
                if consume_spans {
                    spans.append(&mut buf.events);
                    buf.next = 0;
                    dropped += std::mem::take(&mut buf.dropped);
                } else {
                    spans.extend_from_slice(&buf.events);
                    dropped += buf.dropped;
                }
            }
        }
        spans.sort_by_key(|s| (s.start_ns, s.thread));
        TelemetryReport {
            spans,
            dropped_spans: dropped,
            elapsed_ns: self.epoch.elapsed().as_nanos() as u64,
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| {
                (
                    self.gauge_current[i].load(Ordering::Relaxed),
                    self.gauge_peak[i].load(Ordering::Relaxed),
                )
            }),
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
            lane_fill: std::array::from_fn(|i| self.lane_fill[i].load(Ordering::Relaxed)),
            classes: self.classes.snapshot(),
        }
    }
}

/// Live state of an open span on an enabled sink.
struct GuardState<'a> {
    inner: &'a Arc<Inner>,
    stage: Stage,
    arg: u64,
    start: Instant,
}

/// A scoped span timer: records its stage's duration into the owning
/// thread's ring buffer when dropped. Inert (no clock reads, no recording)
/// when the sink is disabled.
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
pub struct SpanGuard<'a> {
    state: Option<GuardState<'a>>,
}

impl SpanGuard<'_> {
    /// Updates the stage-specific argument recorded with the span.
    pub fn set_arg(&mut self, arg: u64) {
        if let Some(state) = &mut self.state {
            state.arg = arg;
        }
    }

    /// Closes the span now and returns its duration in nanoseconds (zero on
    /// a disabled sink) — for callers that also feed the duration into a
    /// histogram.
    pub fn finish(mut self) -> u64 {
        self.record()
    }

    fn record(&mut self) -> u64 {
        let Some(state) = self.state.take() else {
            return 0;
        };
        let dur_ns = state.start.elapsed().as_nanos() as u64;
        let start_ns = state
            .start
            .saturating_duration_since(state.inner.epoch)
            .as_nanos() as u64;
        let event = SpanEvent {
            stage: state.stage,
            thread: current_thread_id(),
            start_ns,
            dur_ns,
            arg: state.arg,
        };
        let buf = state.inner.thread_buffer();
        buf.lock()
            .expect("telemetry span buffer lock is never poisoned")
            .record(event, state.inner.span_capacity);
        dur_ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

/// An immutable snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Mean observed value (zero when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, in value
    /// order: bucket `b > 0` covers values in `[2^(b-1), 2^b)` and reports
    /// lower bound `2^(b-1)`; the zero bucket reports lower bound 0.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(b, &count)| (if b == 0 { 0 } else { 1u64 << (b - 1) }, count))
    }

    /// The raw per-bucket counts; bucket `b`'s value range is bounded above
    /// by [`bucket_upper_bound`]`(b)`.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile observation (`q` clamped to
    /// `[0, 1]`): the inclusive upper edge of the first bucket whose
    /// cumulative count reaches rank `ceil(q × count)`. Zero when the
    /// histogram is empty. Resolution is the log2 bucket width, which is
    /// what makes recording one `fetch_add` — a p99 read of `16383` means
    /// "the 99th percentile is at most 16383".
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper_bound(b);
            }
        }
        u64::MAX
    }

    /// This snapshot's change since an earlier snapshot of the same
    /// histogram (saturating per cell, so a torn concurrent read cannot
    /// underflow).
    #[must_use]
    pub fn delta_since(&self, baseline: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            buckets: std::array::from_fn(|b| self.buckets[b].saturating_sub(baseline.buckets[b])),
        }
    }
}

/// Inclusive upper value bound of log2 histogram bucket `b`: 0 for the zero
/// bucket, `2^b - 1` in between, and `u64::MAX` for the last (clamping)
/// bucket.
#[must_use]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// One plan class's slice of the execution tallies: how many jobs ran
/// through the lane-batched vs scalar path, their latency histogram, and
/// the lane-group fill distribution — so a report names *which* compiled
/// class is slow, not just that something is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// The `CompiledGraph::plan_class` id, or `None` for the shared
    /// overflow bucket (classes beyond [`MAX_PLAN_CLASSES`]).
    pub plan_class: Option<u64>,
    /// Jobs of this class executed through the lane-batched lockstep path.
    pub lane_batched_jobs: u64,
    /// Jobs of this class executed through the scalar path.
    pub scalar_jobs: u64,
    /// Job-latency histogram for this class.
    pub latency: HistSnapshot,
    /// Lane-group fill distribution for this class (`[k]` counts groups of
    /// `k + 1` jobs).
    pub lane_group_fill: [u64; MAX_LANE_FILL],
}

impl ClassReport {
    /// Total jobs attributed to this class.
    #[must_use]
    pub fn jobs(&self) -> u64 {
        self.lane_batched_jobs + self.scalar_jobs
    }

    /// A label for display and export: the class id, or `"overflow"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.plan_class {
            Some(id) => id.to_string(),
            None => "overflow".to_string(),
        }
    }

    fn is_empty(&self) -> bool {
        self.jobs() == 0 && self.latency.count == 0 && self.lane_group_fill.iter().all(|&c| c == 0)
    }

    fn delta_since(&self, baseline: &ClassReport) -> ClassReport {
        ClassReport {
            plan_class: self.plan_class,
            lane_batched_jobs: self
                .lane_batched_jobs
                .saturating_sub(baseline.lane_batched_jobs),
            scalar_jobs: self.scalar_jobs.saturating_sub(baseline.scalar_jobs),
            latency: self.latency.delta_since(&baseline.latency),
            lane_group_fill: std::array::from_fn(|i| {
                self.lane_group_fill[i].saturating_sub(baseline.lane_group_fill[i])
            }),
        }
    }
}

/// A drained telemetry snapshot: time-sorted spans plus cumulative metrics.
///
/// Produced by [`TelemetrySink::drain`]; renders as pretty text, JSON, JSON
/// lines, or a chrome://tracing trace-event document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Every drained span, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// Spans lost to ring-buffer overwrites since the last drain.
    pub dropped_spans: u64,
    /// Nanoseconds between the sink's creation and this drain.
    pub elapsed_ns: u64,
    counters: [u64; Counter::ALL.len()],
    gauges: [(u64, u64); Gauge::ALL.len()],
    hists: [HistSnapshot; Hist::ALL.len()],
    lane_fill: [u64; MAX_LANE_FILL],
    classes: Vec<ClassReport>,
}

impl TelemetryReport {
    /// A counter's cumulative value.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// A gauge's `(current, peak)` values.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> (u64, u64) {
        self.gauges[gauge as usize]
    }

    /// A histogram's snapshot.
    #[must_use]
    pub fn histogram(&self, hist: Hist) -> &HistSnapshot {
        &self.hists[hist as usize]
    }

    /// Exact lane-group fill distribution: `lane_group_fill()[k]` counts
    /// executed groups of `k + 1` jobs (fills wider than [`MAX_LANE_FILL`]
    /// clamp into the last slot).
    #[must_use]
    pub fn lane_group_fill(&self) -> &[u64; MAX_LANE_FILL] {
        &self.lane_fill
    }

    /// The per-plan-class attribution breakdown, in class-id order with the
    /// overflow bucket (if populated) last. Empty when the executor never
    /// recorded class tallies (e.g. a sink used only for compile spans).
    #[must_use]
    pub fn classes(&self) -> &[ClassReport] {
        &self.classes
    }

    /// One plan class's breakdown, if attributed exactly (overflowed classes
    /// share the `plan_class: None` bucket and are not addressable by id).
    #[must_use]
    pub fn class(&self, plan_class: u64) -> Option<&ClassReport> {
        self.classes
            .iter()
            .find(|c| c.plan_class == Some(plan_class))
    }

    /// `(span count, total nanoseconds)` across this report's spans of one
    /// stage.
    #[must_use]
    pub fn stage_totals(&self, stage: Stage) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .fold((0, 0), |(count, total), s| (count + 1, total + s.dur_ns))
    }

    /// Sum of the stage-specific span arguments across one stage — e.g. the
    /// total jobs covered by [`Stage::LaneGroupExecute`] spans, whose `arg`
    /// is the group fill.
    #[must_use]
    pub fn stage_args_total(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.arg)
            .sum()
    }

    /// A human-readable multi-section summary: per-stage span totals, then
    /// the non-zero counters, gauges, histograms, and lane-fill slots.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry report: {} spans over {:.3} ms wall-clock ({} dropped)\n",
            self.spans.len(),
            self.elapsed_ns as f64 / 1e6,
            self.dropped_spans,
        ));
        out.push_str("\n  spans by stage:\n");
        for stage in Stage::ALL {
            let (count, total_ns) = self.stage_totals(stage);
            if count == 0 {
                continue;
            }
            out.push_str(&format!(
                "    {:<24} {:>7} × {:>12.1} µs mean = {:>12.3} ms total\n",
                stage.name(),
                count,
                total_ns as f64 / count as f64 / 1e3,
                total_ns as f64 / 1e6,
            ));
        }
        out.push_str("\n  counters:\n");
        for counter in Counter::ALL {
            let value = self.counter(counter);
            if value > 0 {
                out.push_str(&format!("    {:<24} {value}\n", counter.name()));
            }
        }
        out.push_str("\n  gauges (current / peak):\n");
        for gauge in Gauge::ALL {
            let (current, peak) = self.gauge(gauge);
            if peak > 0 {
                out.push_str(&format!("    {:<24} {current} / {peak}\n", gauge.name()));
            }
        }
        out.push_str("\n  histograms:\n");
        for hist in Hist::ALL {
            let snap = self.histogram(hist);
            if snap.count == 0 {
                continue;
            }
            let buckets: Vec<String> = snap
                .nonzero_buckets()
                .map(|(lo, count)| format!("≥{lo}:{count}"))
                .collect();
            out.push_str(&format!(
                "    {:<24} n={} mean={:.1} [{}]\n",
                hist.name(),
                snap.count,
                snap.mean(),
                buckets.join(" "),
            ));
        }
        let fills: Vec<String> = self
            .lane_fill
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| format!("fill {}: {count}", i + 1))
            .collect();
        if !fills.is_empty() {
            out.push_str(&format!("\n  lane-group fill: {}\n", fills.join(", ")));
        }
        if !self.classes.is_empty() {
            out.push_str("\n  plan classes (jobs = lane + scalar, latency p50/p99 ≤):\n");
            for class in &self.classes {
                out.push_str(&format!(
                    "    class {:<10} {:>6} jobs = {} + {}  p50 ≤ {} ns  p99 ≤ {} ns\n",
                    class.label(),
                    class.jobs(),
                    class.lane_batched_jobs,
                    class.scalar_jobs,
                    class.latency.quantile(0.5),
                    class.latency.quantile(0.99),
                ));
            }
        }
        out
    }

    /// The machine-readable summary as a [`Json`] value: per-stage totals,
    /// counters, gauges, histograms, and the lane-fill distribution (spans
    /// are summarised, not listed — use [`TelemetryReport::to_json_lines`]
    /// or [`TelemetryReport::to_chrome_trace`] for the full event stream).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let stages = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let (count, total_ns) = self.stage_totals(stage);
                (count > 0).then(|| {
                    (
                        stage.name().to_string(),
                        Json::obj(vec![
                            ("count", Json::u64(count)),
                            ("total_ns", Json::u64(total_ns)),
                        ]),
                    )
                })
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Json::u64(self.counter(c))))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| {
                let (current, peak) = self.gauge(g);
                (
                    g.name().to_string(),
                    Json::obj(vec![
                        ("current", Json::u64(current)),
                        ("peak", Json::u64(peak)),
                    ]),
                )
            })
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| {
                let snap = self.histogram(h);
                let buckets = snap
                    .nonzero_buckets()
                    .map(|(lo, count)| Json::Arr(vec![Json::u64(lo), Json::u64(count)]))
                    .collect();
                (
                    h.name().to_string(),
                    Json::obj(vec![
                        ("count", Json::u64(snap.count)),
                        ("sum", Json::u64(snap.sum)),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        let classes = self
            .classes
            .iter()
            .map(|class| {
                let buckets = class
                    .latency
                    .nonzero_buckets()
                    .map(|(lo, count)| Json::Arr(vec![Json::u64(lo), Json::u64(count)]))
                    .collect();
                Json::obj(vec![
                    (
                        "plan_class",
                        match class.plan_class {
                            Some(id) => Json::u64(id),
                            None => Json::str("overflow"),
                        },
                    ),
                    ("lane_batched_jobs", Json::u64(class.lane_batched_jobs)),
                    ("scalar_jobs", Json::u64(class.scalar_jobs)),
                    (
                        "latency",
                        Json::obj(vec![
                            ("count", Json::u64(class.latency.count)),
                            ("sum", Json::u64(class.latency.sum)),
                            ("buckets", Json::Arr(buckets)),
                        ]),
                    ),
                    (
                        "lane_group_fill",
                        Json::Arr(
                            class
                                .lane_group_fill
                                .iter()
                                .map(|&c| Json::u64(c))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("elapsed_ns", Json::u64(self.elapsed_ns)),
            ("span_count", Json::u64(self.spans.len() as u64)),
            ("dropped_spans", Json::u64(self.dropped_spans)),
            ("stages", Json::Obj(stages)),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(hists)),
            (
                "lane_group_fill",
                Json::Arr(self.lane_fill.iter().map(|&c| Json::u64(c)).collect()),
            ),
            ("classes", Json::Arr(classes)),
        ])
    }

    /// One JSON object per line: first a `summary` line (the
    /// [`TelemetryReport::to_json`] document minus the spans), then one
    /// `span` line per event in time order.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let summary = Json::obj(vec![
            ("type", Json::str("summary")),
            ("report", self.to_json()),
        ]);
        out.push_str(&summary.to_string_compact());
        out.push('\n');
        for span in &self.spans {
            let line = Json::obj(vec![
                ("type", Json::str("span")),
                ("stage", Json::str(span.stage.name())),
                ("thread", Json::u64(u64::from(span.thread))),
                ("start_ns", Json::u64(span.start_ns)),
                ("dur_ns", Json::u64(span.dur_ns)),
                ("arg", Json::u64(span.arg)),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// A chrome://tracing / Perfetto compatible trace-event document: every
    /// span becomes one complete (`"ph": "X"`) event with microsecond
    /// timestamps, the recording thread as `tid`, and the stage argument
    /// under `args` — preceded by `process_name`/`thread_name` metadata
    /// (`"ph": "M"`) events so the viewer shows real thread names instead
    /// of bare tids.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(1)),
            ("args", Json::obj(vec![("name", Json::str("sc-repro"))])),
        ])];
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.thread).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let label = thread_name(tid).unwrap_or_else(|| format!("thread-{tid}"));
            events.push(Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(u64::from(tid))),
                ("args", Json::obj(vec![("name", Json::Str(label))])),
            ]));
        }
        events.extend(self.spans.iter().map(|span| {
            Json::obj(vec![
                ("name", Json::str(span.stage.name())),
                ("cat", Json::str("sc")),
                ("ph", Json::str("X")),
                ("ts", Json::fixed(span.start_ns as f64 / 1e3, 3)),
                ("dur", Json::fixed(span.dur_ns as f64 / 1e3, 3)),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(u64::from(span.thread))),
                ("args", Json::obj(vec![("arg", Json::u64(span.arg))])),
            ])
        }));
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::default();
        assert!(!sink.is_enabled());
        assert_eq!(sink, TelemetrySink::disabled());
        {
            let mut guard = sink.span(Stage::Dispatch);
            guard.set_arg(7);
            assert_eq!(guard.finish(), 0);
        }
        sink.add(Counter::JobsPulled, 3);
        sink.gauge_set(Gauge::QueueDepth, 9);
        sink.observe(Hist::JobLatencyNs, 1000);
        sink.lane_fill(4);
        let report = sink.drain();
        assert_eq!(report, TelemetryReport::default());
        assert!(report.spans.is_empty());
        assert_eq!(report.counter(Counter::JobsPulled), 0);
    }

    #[test]
    fn spans_record_and_aggregate_by_stage() {
        let sink = TelemetrySink::new();
        for i in 0..3 {
            let _span = sink.span_with(Stage::LaneGroupExecute, i + 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let report = sink.drain();
        let (count, total_ns) = report.stage_totals(Stage::LaneGroupExecute);
        assert_eq!(count, 3);
        assert!(total_ns >= 3_000_000, "three ≥1ms spans, got {total_ns} ns");
        assert_eq!(report.stage_args_total(Stage::LaneGroupExecute), 2 + 3 + 4);
        assert_eq!(report.stage_totals(Stage::ScalarExecute).0, 1);
        assert_eq!(report.stage_totals(Stage::Compile), (0, 0));
        // Spans are time-sorted and were consumed by the drain.
        assert!(report
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(sink.drain().spans.is_empty());
    }

    #[test]
    fn sink_clones_share_one_recorder() {
        let sink = TelemetrySink::new();
        let clone = sink.clone();
        assert_eq!(sink, clone);
        assert_ne!(sink, TelemetrySink::new());
        clone.add(Counter::Tiles, 5);
        sink.add(Counter::Tiles, 2);
        assert_eq!(sink.drain().counter(Counter::Tiles), 7);
    }

    #[test]
    fn counters_persist_across_drains_spans_do_not() {
        let sink = TelemetrySink::new();
        sink.add(Counter::Compilations, 1);
        {
            let _span = sink.span(Stage::Compile);
        }
        let first = sink.drain();
        assert_eq!(first.spans.len(), 1);
        let second = sink.drain();
        assert_eq!(second.counter(Counter::Compilations), 1, "cumulative");
        assert!(second.spans.is_empty(), "spans were consumed");
        assert!(second.elapsed_ns >= first.elapsed_ns);
    }

    #[test]
    fn gauges_track_current_and_peak() {
        let sink = TelemetrySink::new();
        sink.gauge_set(Gauge::WindowOccupancy, 3);
        sink.gauge_set(Gauge::WindowOccupancy, 8);
        sink.gauge_set(Gauge::WindowOccupancy, 2);
        assert_eq!(sink.drain().gauge(Gauge::WindowOccupancy), (2, 8));
    }

    #[test]
    fn histograms_bucket_by_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), HIST_BUCKETS - 1);
        let sink = TelemetrySink::new();
        for v in [0u64, 1, 2, 3, 1000] {
            sink.observe(Hist::QueueDepth, v);
        }
        let report = sink.drain();
        let snap = report.histogram(Hist::QueueDepth);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert!((snap.mean() - 201.2).abs() < 1e-9);
        let buckets: Vec<(u64, u64)> = snap.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
    }

    #[test]
    fn lane_fill_distribution_is_exact() {
        let sink = TelemetrySink::new();
        sink.lane_fill(1);
        sink.lane_fill(4);
        sink.lane_fill(4);
        sink.lane_fill(0); // ignored
        sink.lane_fill(100); // clamps into the last slot
        let report = sink.drain();
        let fill = report.lane_group_fill();
        assert_eq!(fill[0], 1);
        assert_eq!(fill[3], 2);
        assert_eq!(fill[MAX_LANE_FILL - 1], 1);
    }

    #[test]
    fn ring_buffer_drops_oldest_beyond_capacity() {
        let sink = TelemetrySink::with_span_capacity(4);
        for _ in 0..10 {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let report = sink.drain();
        assert_eq!(report.spans.len(), 4);
        assert_eq!(report.dropped_spans, 6);
        // The drain reset the ring: new spans record from a clean slate.
        {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let next = sink.drain();
        assert_eq!(next.spans.len(), 1);
        assert_eq!(next.dropped_spans, 0);
    }

    #[test]
    fn cross_thread_spans_merge_with_distinct_thread_ids() {
        let sink = TelemetrySink::new();
        {
            let _span = sink.span(Stage::Dispatch);
        }
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let sink = sink.clone();
                scope.spawn(move || {
                    let _span = sink.span(Stage::WorkerRun);
                });
            }
        });
        let report = sink.drain();
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.stage_totals(Stage::WorkerRun).0, 2);
        let worker_threads: std::collections::HashSet<u32> = report
            .spans
            .iter()
            .filter(|s| s.stage == Stage::WorkerRun)
            .map(|s| s.thread)
            .collect();
        assert_eq!(worker_threads.len(), 2, "two workers, two thread ids");
    }

    #[test]
    fn report_exports_are_structurally_valid() {
        let sink = TelemetrySink::new();
        sink.add(Counter::JobsPulled, 2);
        sink.gauge_set(Gauge::QueueDepth, 1);
        sink.observe(Hist::JobLatencyNs, 1500);
        sink.lane_fill(3);
        {
            let _span = sink.span_with(Stage::LaneGroupExecute, 3);
        }
        {
            let _span = sink.span(Stage::Dispatch);
        }
        let report = sink.drain();

        let pretty = report.to_pretty_string();
        assert!(pretty.contains("execute.lane_group"));
        assert!(pretty.contains("jobs_pulled"));
        assert!(pretty.contains("fill 3: 1"));

        let doc = json::parse(&report.to_json().to_string_pretty()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("jobs_pulled"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(doc.get("span_count").and_then(Json::as_u64), Some(2));

        let jsonl = report.to_json_lines();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3, "summary + 2 spans");
        for line in &lines {
            json::parse(line).unwrap();
        }
        assert!(lines[0].contains("\"type\":\"summary\""));

        let trace = json::parse(&report.to_chrome_trace()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let (meta, spans): (Vec<_>, Vec<_>) = events
            .iter()
            .partition(|e| e.get("ph").and_then(Json::as_str) == Some("M"));
        assert_eq!(spans.len(), 2);
        for event in spans {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("ts").and_then(Json::as_f64).is_some());
            assert!(event.get("dur").and_then(Json::as_f64).is_some());
            assert!(event.get("tid").and_then(Json::as_u64).is_some());
        }
        // One process_name plus one thread_name per distinct recording tid
        // (both spans were recorded on this test thread).
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0].get("name").and_then(Json::as_str),
            Some("process_name")
        );
        assert_eq!(
            meta[1].get("name").and_then(Json::as_str),
            Some("thread_name")
        );
        assert!(meta[1]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str)
            .is_some());
    }

    #[test]
    fn snapshot_is_non_destructive_and_matches_final_drain() {
        let sink = TelemetrySink::new();
        sink.add(Counter::JobsPulled, 4);
        sink.gauge_set(Gauge::QueueDepth, 3);
        sink.observe(Hist::JobLatencyNs, 900);
        sink.lane_fill(2);
        sink.class_latency(7, 900);
        sink.class_add_jobs(7, 1, 0);
        for _ in 0..3 {
            let _span = sink.span(Stage::ScalarExecute);
        }

        let snapshot = sink.snapshot();
        assert_eq!(snapshot.spans.len(), 3);
        // The snapshot consumed nothing: a second snapshot and the final
        // drain both still see every span and the same cumulative metrics.
        let mut drained = sink.drain();
        assert_eq!(drained.spans, snapshot.spans);
        drained.elapsed_ns = snapshot.elapsed_ns; // the wall clock kept advancing
        assert_eq!(drained, snapshot, "snapshot equals the final drain");
        // The drain did consume: nothing left afterwards.
        assert!(sink.drain().spans.is_empty());
    }

    #[test]
    fn snapshot_does_not_reset_overwrite_accounting() {
        let sink = TelemetrySink::with_span_capacity(2);
        for _ in 0..5 {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.spans.len(), 2);
        assert_eq!(snapshot.dropped_spans, 3);
        let drained = sink.drain();
        assert_eq!(drained.dropped_spans, 3, "snapshot left the drop count");
        assert_eq!(sink.drain().dropped_spans, 0);
    }

    #[test]
    fn snapshot_deltas_sum_to_cumulative() {
        let sink = TelemetrySink::new();
        sink.add(Counter::JobsPulled, 2);
        sink.observe(Hist::JobLatencyNs, 100);
        sink.gauge_set(Gauge::QueueDepth, 9);
        sink.class_add_jobs(3, 2, 0);
        {
            let _span = sink.span(Stage::Dispatch);
        }
        let cumulative = sink.snapshot();

        let first = sink.snapshot_delta();
        assert_eq!(first.counter(Counter::JobsPulled), 2);
        assert_eq!(first.spans.len(), 1);
        assert_eq!(first.gauge(Gauge::QueueDepth).1, 9, "interval peak");

        sink.add(Counter::JobsPulled, 5);
        sink.observe(Hist::JobLatencyNs, 3000);
        sink.gauge_set(Gauge::QueueDepth, 4);
        sink.class_add_jobs(3, 0, 1);
        sink.class_add_jobs(8, 1, 0);
        {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let second = sink.snapshot_delta();
        assert_eq!(second.counter(Counter::JobsPulled), 5, "diffed");
        assert_eq!(second.spans.len(), 1, "only the new span");
        assert_eq!(second.histogram(Hist::JobLatencyNs).count, 1);
        assert_eq!(second.histogram(Hist::JobLatencyNs).sum, 3000);
        assert_eq!(
            second.gauge(Gauge::QueueDepth),
            (4, 9),
            "the gauge held 9 at the interval's start before dropping to 4, \
             so the carried-in level is the interval peak"
        );
        assert_eq!(second.class(3).unwrap().scalar_jobs, 1);
        assert_eq!(second.class(3).unwrap().lane_batched_jobs, 0, "diffed");
        assert_eq!(second.class(8).unwrap().lane_batched_jobs, 1);

        // The two deltas sum to the cumulative view at the first snapshot
        // plus everything recorded after it.
        assert_eq!(
            first.counter(Counter::JobsPulled) + second.counter(Counter::JobsPulled),
            7
        );
        assert_eq!(
            first.spans.len() + second.spans.len(),
            cumulative.spans.len() + 1
        );
        assert_eq!(
            first
                .gauge(Gauge::QueueDepth)
                .1
                .max(second.gauge(Gauge::QueueDepth).1),
            sink.snapshot().gauge(Gauge::QueueDepth).1,
            "max interval peak equals the all-time peak"
        );
        // An idle interval produces an all-zero delta.
        let idle = sink.snapshot_delta();
        assert_eq!(idle.counter(Counter::JobsPulled), 0);
        assert!(idle.spans.is_empty());
        assert!(idle.classes().is_empty());
    }

    #[test]
    fn class_table_attributes_and_overflows() {
        let sink = TelemetrySink::new();
        // Claim every slot, then two more classes: both share the overflow
        // bucket.
        for class in 0..(MAX_PLAN_CLASSES as u64 + 2) {
            sink.class_add_jobs(class, 1, 0);
            sink.class_latency(class, 50 * (class + 1));
        }
        sink.class_fill_n(0, 4, 2);
        let report = sink.drain();
        let classes = report.classes();
        assert_eq!(classes.len(), MAX_PLAN_CLASSES + 1);
        for (i, class) in classes.iter().take(MAX_PLAN_CLASSES).enumerate() {
            assert_eq!(class.plan_class, Some(i as u64), "sorted by class id");
            assert_eq!(class.jobs(), 1);
            assert_eq!(class.latency.count, 1);
        }
        let overflow = classes.last().unwrap();
        assert_eq!(overflow.plan_class, None);
        assert_eq!(overflow.label(), "overflow");
        assert_eq!(overflow.jobs(), 2, "both overflowed classes aggregated");
        assert_eq!(report.class(0).unwrap().lane_group_fill[3], 2);
        assert!(
            report.class(MAX_PLAN_CLASSES as u64).is_none(),
            "overflowed"
        );
        // The exports carry the breakdown.
        assert!(report.to_pretty_string().contains("plan classes"));
        let doc = json::parse(&report.to_json().to_string_compact()).unwrap();
        let exported = doc.get("classes").and_then(Json::as_array).unwrap();
        assert_eq!(exported.len(), MAX_PLAN_CLASSES + 1);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(5), 31);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
        let sink = TelemetrySink::new();
        for _ in 0..99 {
            sink.observe(Hist::JobLatencyNs, 3); // bucket 2, upper bound 3
        }
        sink.observe(Hist::JobLatencyNs, 1000); // bucket 10, upper bound 1023
        let report = sink.drain();
        let hist = report.histogram(Hist::JobLatencyNs);
        assert_eq!(hist.quantile(0.5), 3);
        assert_eq!(hist.quantile(0.99), 3);
        assert_eq!(hist.quantile(1.0), 1023);
        assert_eq!(hist.quantile(0.0), 3, "clamped to the first observation");
        assert_eq!(HistSnapshot::default().quantile(0.99), 0);
    }

    #[test]
    fn stage_registry_is_consistent() {
        let mut names = std::collections::HashSet::new();
        for stage in Stage::ALL {
            assert!(
                names.insert(stage.name()),
                "duplicate name {}",
                stage.name()
            );
        }
        let mut counter_names = std::collections::HashSet::new();
        for counter in Counter::ALL {
            assert!(counter_names.insert(counter.name()));
        }
        for (i, gauge) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*gauge as usize, i);
        }
        for (i, hist) in Hist::ALL.iter().enumerate() {
            assert_eq!(*hist as usize, i);
        }
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, i);
        }
    }
}
