//! The batch executor: runs a [`CompiledGraph`] word-parallel over batches of
//! independent input sets, optionally sharded across a persistent worker pool.

use crate::compile::{CompiledGraph, Step};
use crate::draw::SampleMemo;
use crate::graph::GraphError;
use sc_arith::add::mux_add;
use sc_bitstream::{scc, Bitstream, Probability};
use sc_convert::{AccumulativeParallelCounter, StochasticToDigital};
use sc_core::{CorrelationManipulator, ManipulatorChain};
use sc_telemetry::{Counter, Gauge, Hist, Stage, TelemetrySink};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

/// One independent input set of a batch: the digital values consumed by
/// `Generate` nodes and the ready streams consumed by `InputStream` nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchInput {
    /// Digital values in `[0, 1]`, indexed by the `Generate` nodes' slots.
    pub values: Vec<f64>,
    /// Ready streams, indexed by the `InputStream` nodes' slots.
    pub streams: Vec<Bitstream>,
}

impl BatchInput {
    /// An input set with no values and no streams.
    #[must_use]
    pub fn new() -> Self {
        BatchInput::default()
    }

    /// An input set of digital values only.
    #[must_use]
    pub fn with_values(values: Vec<f64>) -> Self {
        BatchInput {
            values,
            streams: Vec::new(),
        }
    }

    /// An input set of ready streams only.
    #[must_use]
    pub fn with_streams(streams: Vec<Bitstream>) -> Self {
        BatchInput {
            values: Vec::new(),
            streams,
        }
    }
}

/// The named results of executing a plan over one input set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOutput {
    streams: BTreeMap<String, Bitstream>,
    values: BTreeMap<String, f64>,
}

impl ExecOutput {
    /// The stream captured by the `SinkStream` sink of that name.
    #[must_use]
    pub fn stream(&self, name: &str) -> Option<&Bitstream> {
        self.streams.get(name)
    }

    /// The value captured by the value-producing sink of that name
    /// (`SinkValue`, `SinkCount`, `SinkSum`, or `SccProbe`).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterates over `(name, stream)` sink results in name order.
    pub fn streams(&self) -> impl Iterator<Item = (&str, &Bitstream)> {
        self.streams.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over `(name, value)` sink results in name order.
    pub fn values(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// A persistent pool of executor worker threads with a shared job queue.
///
/// Unlike the `std::thread::scope` sharding the executor used before, the
/// pool's threads are **long-lived**: they are spawned once (lazily, on the
/// first parallel dispatch) and stay parked on a condition variable between
/// calls, so a service processing a continuous stream of jobs pays the
/// thread-spawn cost once instead of per dispatch. Tasks are boxed
/// `'static` closures submitted internally by the streaming engine, which
/// wraps every job in its own `catch_unwind` and routes the payload back to
/// the submitting call — the pool itself runs tasks bare and relies on that
/// wrapping, which is why submission is not public API. The pool shuts its
/// workers down (and joins them) on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A unit of pool work.
pub(crate) type PoolTask = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
    telemetry: TelemetrySink,
}

#[derive(Default)]
struct PoolQueue {
    tasks: VecDeque<PoolTask>,
    shutdown: bool,
}

impl WorkerPool {
    /// Spawns a pool of `workers` long-lived threads (at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        WorkerPool::with_telemetry(workers, TelemetrySink::default())
    }

    /// Spawns a pool whose workers record [`Stage::WorkerRun`] /
    /// [`Stage::WorkerPark`] spans (with matching busy/idle histograms) and
    /// queue-depth gauges into `telemetry`.
    #[must_use]
    pub fn with_telemetry(workers: usize, telemetry: TelemetrySink) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            ready: Condvar::new(),
            telemetry,
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sc-graph-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker threads spawn")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one task for the next free worker.
    pub(crate) fn submit(&self, task: PoolTask) {
        let depth = {
            let mut queue = self
                .shared
                .queue
                .lock()
                .expect("pool queue lock is never poisoned: tasks run outside it");
            queue.tasks.push_back(task);
            queue.tasks.len()
        };
        self.shared
            .telemetry
            .gauge_set(Gauge::QueueDepth, depth as u64);
        self.shared
            .telemetry
            .observe(Hist::QueueDepth, depth as u64);
        self.shared.ready.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
    let telemetry = &shared.telemetry;
    loop {
        let task = {
            let mut queue = shared
                .queue
                .lock()
                .expect("pool queue lock is never poisoned: tasks run outside it");
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    telemetry.gauge_set(Gauge::QueueDepth, queue.tasks.len() as u64);
                    break Some(task);
                }
                if queue.shutdown {
                    break None;
                }
                // One park span per condvar sleep (spurious wakeups included);
                // `wait` releases the queue lock, so parked time is genuinely
                // idle time, not lock-held time.
                let park = telemetry.span(Stage::WorkerPark);
                queue = shared
                    .ready
                    .wait(queue)
                    .expect("pool queue lock is never poisoned: tasks run outside it");
                telemetry.observe(Hist::WorkerIdleNs, park.finish());
            }
        };
        match task {
            Some(task) => {
                let run = telemetry.span(Stage::WorkerRun);
                task();
                telemetry.observe(Hist::WorkerBusyNs, run.finish());
            }
            None => return,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Never panic in drop: on the (impossible) poisoned path, take the
        // inner queue anyway so the workers still observe the shutdown flag.
        match self.shared.queue.lock() {
            Ok(mut queue) => queue.shutdown = true,
            Err(poisoned) => poisoned.into_inner().shutdown = true,
        }
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// One owned job of a streaming [`Executor::run_stream`] dispatch: a shared
/// handle to the compiled plan plus the input set to feed it.
///
/// Jobs are owned because the streaming engine hands them to long-lived pool
/// threads: the job — and with it the plan handle — is dropped on the worker
/// *before* its result is reported, so a bounded submission window really
/// does bound the number of simultaneously-live plans. Every job executes
/// on its own, against its own plan.
#[derive(Debug, Clone)]
pub struct StreamJob {
    /// The compiled plan to execute.
    pub plan: Arc<CompiledGraph>,
    /// The input set to feed it.
    pub input: BatchInput,
}

/// What one [`Executor::run_stream_with_stats`] call actually did.
///
/// When the executor carries an enabled [`TelemetrySink`]
/// ([`Executor::with_telemetry`]), these same tallies are also added to the
/// sink in one batch at the end of the call (`jobs` →
/// [`Counter::JobsPulled`], the per-class job counts → the sink's bounded
/// class table) — `StreamStats` is the per-call view and the sink is the
/// cumulative view of **one** set of tallies, so the two cannot drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total jobs pulled from the iterator.
    pub jobs: usize,
    /// Peak number of jobs *in flight* — pulled from the iterator but not
    /// yet completed (executed inline, or reported back by a worker). This
    /// is **exact** on both dispatch paths and never exceeds
    /// `window.max(1)` — on the error path too — which is what makes the
    /// bound useful: each worker drops its job (and plan handle) before
    /// reporting, so live-plan memory is provably O(window).
    pub peak_in_flight: usize,
    /// Always zero. Every job executes on its own; the field is kept only
    /// because the repository benchmark (`perfbench/`) still reads it.
    pub lane_batched_jobs: usize,
    /// Jobs per [`CompiledGraph::plan_class`], in class-id order — so a
    /// caller can see *which* compiled template the dispatch ran. The
    /// per-class `jobs` sum to [`StreamStats::jobs`].
    pub classes: Vec<PlanClassStats>,
}

/// One plan class's slice of a dispatch's [`StreamStats`] tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanClassStats {
    /// The [`CompiledGraph::plan_class`] these tallies belong to.
    pub plan_class: u64,
    /// Jobs of this class the dispatch executed.
    pub jobs: usize,
}

impl StreamStats {
    /// Counts one job of `plan_class`. The class list is tiny (one entry
    /// per distinct compiled template in the dispatch), so a linear scan
    /// beats hashing.
    fn count_class(&mut self, plan_class: u64) {
        match self.classes.iter_mut().find(|c| c.plan_class == plan_class) {
            Some(class) => class.jobs += 1,
            None => self.classes.push(PlanClassStats {
                plan_class,
                jobs: 1,
            }),
        }
    }
}

/// Executes compiled plans over batches of input sets.
///
/// Every batch item is independent: each execution builds fresh source and
/// FSM instances from the plan's specs, so results are deterministic and
/// identical whether the batch runs on one thread or many. Parallel dispatch
/// runs on a lazily-spawned persistent [`WorkerPool`] (no external
/// dependencies) that lives as long as the executor, so back-to-back calls
/// reuse warm threads. The core engine is [`Executor::run_stream`]:
/// [`Executor::run_batch`] is a thin wrapper that streams its materialised
/// job list with an unbounded window.
#[derive(Debug, Clone)]
pub struct Executor {
    stream_length: usize,
    threads: usize,
    telemetry: TelemetrySink,
    pool: OnceLock<Arc<WorkerPool>>,
}

impl PartialEq for Executor {
    fn eq(&self, other: &Self) -> bool {
        self.stream_length == other.stream_length
            && self.threads == other.threads
            && self.telemetry == other.telemetry
    }
}

impl Eq for Executor {}

/// Default streaming-window factor: [`Executor::default_window`] admits
/// `threads × DEFAULT_WINDOW_FACTOR` planned-but-unfinished jobs, enough to
/// keep every worker busy across job-size imbalance while holding memory at
/// O(window) plans.
pub const DEFAULT_WINDOW_FACTOR: usize = 4;

impl Executor {
    /// An executor generating streams of `stream_length` bits, single-threaded.
    #[must_use]
    pub fn new(stream_length: usize) -> Self {
        Executor {
            stream_length,
            threads: 1,
            telemetry: TelemetrySink::default(),
            pool: OnceLock::new(),
        }
    }

    /// Sets the number of worker threads used by the parallel dispatch paths
    /// (clamped to at least 1). Resets any already-spawned pool so the next
    /// dispatch spawns one of the new size.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.pool = OnceLock::new();
        self
    }

    /// Attaches a [`TelemetrySink`]: subsequent dispatches record per-stage
    /// spans (dispatch, per-job execute, worker park/run), counters,
    /// window-occupancy and queue-depth gauges, and job-latency histograms
    /// into it. The default sink is a no-op;
    /// instrumentation sits at step/job granularity, never inside the word
    /// kernels. Resets any already-spawned pool so its workers record into
    /// the new sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self.pool = OnceLock::new();
        self
    }

    /// The attached telemetry sink (the no-op default unless
    /// [`Executor::with_telemetry`] replaced it).
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The configured stream length `N`.
    #[must_use]
    pub fn stream_length(&self) -> usize {
        self.stream_length
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes the plan over one input set.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ValueSlotOutOfRange`] /
    /// [`GraphError::StreamSlotOutOfRange`] if the input set is narrower than
    /// the plan requires, and [`GraphError::Stream`] if input streams have
    /// mismatched lengths.
    pub fn run(&self, plan: &CompiledGraph, input: &BatchInput) -> Result<ExecOutput, GraphError> {
        let mut memo = SampleMemo::default();
        let result = execute_plan(self.stream_length, plan, input, &mut memo);
        memo.flush(&self.telemetry);
        result
    }
}

/// Per-job execution state threaded through [`execute_step`]: the dense
/// stream-slot environment and the sink results accumulated so far.
struct ExecEnv {
    slots: Vec<Option<Bitstream>>,
    out: ExecOutput,
}

impl ExecEnv {
    fn new(slot_count: usize) -> Self {
        ExecEnv {
            slots: vec![None; slot_count],
            out: ExecOutput::default(),
        }
    }
}

/// Borrow, never clone: operand reads finish before the destination
/// slot is written, so the streams stay in place across the plan.
fn slot(slots: &[Option<Bitstream>], idx: usize) -> &Bitstream {
    slots[idx]
        .as_ref()
        .expect("topological order guarantees producers run first")
}

/// Executes one plan over one input set at stream length `n`. Free-standing
/// so pool workers can run jobs without capturing an [`Executor`].
fn execute_plan(
    n: usize,
    plan: &CompiledGraph,
    input: &BatchInput,
    memo: &mut SampleMemo,
) -> Result<ExecOutput, GraphError> {
    let mut env = ExecEnv::new(plan.slot_count);
    for step in &plan.steps {
        execute_step(n, step, input, &mut env, memo)?;
    }
    Ok(env.out)
}

/// Executes one plan step against one job's environment. Every random
/// sample comes from `memo`, and every D/S conversion or MUX select is built
/// a word at a time by comparing against those samples.
fn execute_step(
    n: usize,
    step: &Step,
    input: &BatchInput,
    env: &mut ExecEnv,
    memo: &mut SampleMemo,
) -> Result<(), GraphError> {
    // A fused span executes its sub-steps back to back over the same slot
    // environment — bit-identical to the unfused schedule by construction.
    if let Step::Fused { steps } = step {
        for sub in steps {
            execute_step(n, sub, input, env, memo)?;
        }
        return Ok(());
    }
    let ExecEnv { slots, out } = env;
    {
        match step {
            Step::Input { slot, dst } => {
                let stream = input
                    .streams
                    .get(*slot)
                    .ok_or(GraphError::StreamSlotOutOfRange {
                        slot: *slot,
                        provided: input.streams.len(),
                    })?;
                slots[*dst] = Some(stream.clone());
            }
            Step::Generate {
                slot,
                source,
                skip,
                dst,
            } => {
                let value = *input
                    .values
                    .get(*slot)
                    .ok_or(GraphError::ValueSlotOutOfRange {
                        slot: *slot,
                        provided: input.values.len(),
                    })?;
                let target = Probability::saturating(value).get();
                slots[*dst] = Some(memo.window(source, *skip, n).below(target));
            }
            Step::Constant {
                probability,
                source,
                skip,
                dst,
            } => {
                let target = Probability::saturating(*probability).get();
                slots[*dst] = Some(memo.window(source, *skip, n).below(target));
            }
            Step::Manipulate {
                kinds,
                x,
                y,
                dst_x,
                dst_y,
            } => {
                let (sx, sy) = (slot(slots, *x), slot(slots, *y));
                let (ox, oy) = if kinds.len() == 1 {
                    // A single circuit keeps its own word-level fast path.
                    kinds[0].build().process(sx, sy)?
                } else {
                    // A fused run makes one register-staged pass per word.
                    let mut chain = ManipulatorChain::new();
                    for kind in kinds {
                        chain.push_boxed(kind.build());
                    }
                    chain.process(sx, sy)?
                };
                slots[*dst_x] = Some(ox);
                slots[*dst_y] = Some(oy);
            }
            Step::Regenerate {
                source,
                skip,
                src,
                dst,
            } => {
                // S/D then D/S: re-encode the count over fresh samples. An
                // empty stream draws nothing.
                let stream = slot(slots, *src);
                let len = stream.len();
                let regenerated = if len == 0 {
                    Bitstream::new()
                } else {
                    let count = StochasticToDigital::convert_to_count(stream);
                    let target = Probability::from_ratio(count, len as u64).get();
                    memo.window(source, *skip, len).below(target)
                };
                slots[*dst] = Some(regenerated);
            }
            Step::Not { src, dst } => {
                let complemented = slot(slots, *src).not();
                slots[*dst] = Some(complemented);
            }
            Step::Binary { op, x, y, dst } => {
                let z = apply_binary(*op, slot(slots, *x), slot(slots, *y))?;
                slots[*dst] = Some(z);
            }
            Step::UnaryFsm { op, src, dst } => {
                let z = match op {
                    crate::node::UnaryFsmOp::Stanh { half_states } => {
                        sc_arith::fsm_ops::stanh(slot(slots, *src), *half_states)
                    }
                    crate::node::UnaryFsmOp::Slinear { states } => {
                        sc_arith::fsm_ops::slinear(slot(slots, *src), *states)
                    }
                };
                slots[*dst] = Some(z);
            }
            Step::Divide {
                source,
                skip,
                counter_bits,
                x,
                y,
                dst,
            } => {
                // The divider's comparisons depend on its own feedback state,
                // so it steps a positioned source of its own.
                let mut divider = sc_arith::divide::Divider::with_counter_bits(
                    source.build_skipped(*skip),
                    *counter_bits,
                );
                let z = divider.divide(slot(slots, *x), slot(slots, *y))?;
                slots[*dst] = Some(z);
            }
            Step::MuxAdd {
                select,
                skip,
                x,
                y,
                dst,
            } => {
                let z = {
                    let (sx, sy) = (slot(slots, *x), slot(slots, *y));
                    let sel = memo
                        .window(select, *skip, sx.len())
                        .below(Probability::HALF.get());
                    mux_add(sx, sy, &sel)?
                };
                slots[*dst] = Some(z);
            }
            Step::WeightedMux {
                weights,
                select,
                skip,
                srcs,
                dst,
            } => {
                let z = {
                    let refs: Vec<&Bitstream> = srcs.iter().map(|s| slot(slots, *s)).collect();
                    let len = refs[0].len();
                    if let Some(s) = refs.iter().find(|s| s.len() != len) {
                        return Err(GraphError::Stream(sc_bitstream::Error::LengthMismatch {
                            left: len,
                            right: s.len(),
                        }));
                    }
                    let thresholds = memo.thresholds(weights);
                    memo.window(select, *skip, len).gather(&refs, &thresholds)
                };
                slots[*dst] = Some(z);
            }
            Step::SinkStream { name, src } => {
                out.streams.insert(name.clone(), slot(slots, *src).clone());
            }
            Step::SinkValue { name, src } => {
                let value = StochasticToDigital::convert(slot(slots, *src)).get();
                out.values.insert(name.clone(), value);
            }
            Step::SinkCount { name, src } => {
                let count = StochasticToDigital::convert_to_count(slot(slots, *src));
                out.values.insert(name.clone(), count as f64);
            }
            Step::SinkSum { name, srcs } => {
                // The APC consumes owned streams; sum sinks are rare
                // enough that the copy is irrelevant.
                let inputs: Vec<Bitstream> = srcs.iter().map(|s| slot(slots, *s).clone()).collect();
                let mut apc = AccumulativeParallelCounter::new(inputs.len());
                apc.accumulate_streams(&inputs)?;
                out.values.insert(name.clone(), apc.sum_of_values());
            }
            Step::SccProbe { name, x, y } => {
                let value = scc(slot(slots, *x), slot(slots, *y));
                out.values.insert(name.clone(), value);
            }
            Step::Fused { .. } => unreachable!("fused spans recurse before the env borrow"),
        }
    }
    Ok(())
}

/// Executes one job under a [`Stage::ScalarExecute`] span, observing
/// its duration in [`Hist::JobLatencyNs`] (globally and keyed by the job's
/// plan class).
pub(crate) fn execute_job_scalar(
    n: usize,
    job: &StreamJob,
    telemetry: &TelemetrySink,
) -> Result<ExecOutput, GraphError> {
    let span = telemetry.span(Stage::ScalarExecute);
    let mut memo = SampleMemo::default();
    let result = execute_plan(n, &job.plan, &job.input, &mut memo);
    memo.flush(telemetry);
    let dur_ns = span.finish();
    if telemetry.is_enabled() {
        telemetry.observe(Hist::JobLatencyNs, dur_ns);
        telemetry.class_latency(job.plan.plan_class(), dur_ns);
    }
    result
}

impl Executor {
    /// The default streaming window for this executor's worker count:
    /// `threads × `[`DEFAULT_WINDOW_FACTOR`].
    #[must_use]
    pub fn default_window(&self) -> usize {
        (self.threads * DEFAULT_WINDOW_FACTOR).max(1)
    }

    /// The executor's persistent worker pool, spawned on first use with the
    /// executor's telemetry sink.
    fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(self.pool.get_or_init(|| {
            Arc::new(WorkerPool::with_telemetry(
                self.threads,
                self.telemetry.clone(),
            ))
        }))
    }

    /// Executes the plan over a batch of independent input sets across the
    /// persistent worker pool, preserving input order.
    ///
    /// A thin wrapper over the [`Executor::run_stream`] engine with an
    /// unbounded window (the whole batch is already materialised).
    ///
    /// # Errors
    ///
    /// Propagates the first per-item (in input order) error
    /// (see [`Executor::run`]).
    ///
    /// # Panics
    ///
    /// If an execution panics on a worker thread, the original panic payload
    /// is resumed on the caller's thread.
    pub fn run_batch(
        &self,
        plan: &CompiledGraph,
        inputs: &[BatchInput],
    ) -> Result<Vec<ExecOutput>, GraphError> {
        // One deep plan clone, shared by every job.
        let plan = Arc::new(plan.clone());
        self.run_stream(
            inputs.iter().map(|input| StreamJob {
                plan: Arc::clone(&plan),
                input: input.clone(),
            }),
            inputs.len().max(1),
        )
    }

    /// Streaming dispatch: pulls jobs from the iterator lazily, keeping at
    /// most `window` planned-but-unfinished jobs alive at any moment, and
    /// returns the results in job order.
    ///
    /// See [`Executor::run_stream_with_stats`] for the full contract.
    ///
    /// # Errors
    ///
    /// Propagates the first per-job (in job order) error.
    pub fn run_stream<I>(&self, jobs: I, window: usize) -> Result<Vec<ExecOutput>, GraphError>
    where
        I: IntoIterator<Item = StreamJob>,
    {
        self.run_stream_with_stats(jobs, window)
            .map(|(outputs, _)| outputs)
    }

    /// The streaming dispatch engine, also reporting what it did.
    ///
    /// The iterator is pulled on the **caller's thread** — so lazy job
    /// construction (plan compilation, cache retargeting) is naturally
    /// serialised and needs no synchronisation — but only when fewer than
    /// `window` jobs are in flight: at most `window` (clamped to ≥ 1)
    /// planned-but-unfinished jobs exist at any moment, and each worker
    /// drops a job (and with it the plan handle) *before* reporting its
    /// result, so the window genuinely bounds live-plan memory at
    /// O(window), not O(total jobs). Results are collected in job order and
    /// are bit-identical at any worker count and any window, because every
    /// job executes with fresh deterministic sources and FSMs.
    ///
    /// With one configured thread each job runs inline on the caller's
    /// thread as it is pulled, which is also the sequential reference the
    /// parallel path is tested against. Every job executes on its own.
    ///
    /// # Errors
    ///
    /// Propagates the first per-job (in job order) error. Once a job fails,
    /// no further jobs are pulled from the iterator; already-submitted jobs
    /// are drained so the returned error is deterministically the failing
    /// job with the smallest index.
    ///
    /// # Panics
    ///
    /// If a job panics on a worker thread, the original panic payload is
    /// resumed on the caller's thread; the pool's workers survive.
    pub fn run_stream_with_stats<I>(
        &self,
        jobs: I,
        window: usize,
    ) -> Result<(Vec<ExecOutput>, StreamStats), GraphError>
    where
        I: IntoIterator<Item = StreamJob>,
    {
        let window = window.max(1);
        // Fused: the loop may ask again after the iterator first ran dry.
        let mut jobs = jobs.into_iter().fuse();
        let mut stats = StreamStats::default();
        let n = self.stream_length;
        let telemetry = &self.telemetry;
        let _dispatch = telemetry.span(Stage::Dispatch);
        // One thread means no pool: the caller executes each job as it is
        // dispatched, so the window never holds more than that one job.
        let pool = (self.threads > 1).then(|| self.pool());
        let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();
        let mut slots: Vec<Option<Result<ExecOutput, GraphError>>> = Vec::new();
        let mut pulled = 0usize;
        let mut completed = 0usize;
        let mut failed = false;
        loop {
            while !failed && pulled - completed < window {
                let Some(job) = jobs.next() else { break };
                let index = pulled;
                pulled += 1;
                slots.push(None);
                let in_flight = pulled - completed;
                stats.peak_in_flight = stats.peak_in_flight.max(in_flight);
                telemetry.gauge_set(Gauge::WindowOccupancy, in_flight as u64);
                telemetry.observe(Hist::WindowOccupancy, in_flight as u64);
                stats.count_class(job.plan.plan_class());
                match &pool {
                    Some(pool) => {
                        let tx = tx.clone();
                        submit_job(pool, n, job, telemetry, move |outcome| {
                            let _ = tx.send((index, outcome));
                        });
                    }
                    None => {
                        let result = execute_job_scalar(n, &job, telemetry);
                        completed += 1;
                        failed |= result.is_err();
                        slots[index] = Some(result);
                    }
                }
            }
            if completed == pulled {
                break;
            }
            let (index, outcome) = rx
                .recv()
                .expect("in-flight jobs hold a live sender, so recv cannot disconnect");
            completed += 1;
            telemetry.gauge_set(Gauge::WindowOccupancy, (pulled - completed) as u64);
            match outcome {
                Ok(result) => {
                    failed |= result.is_err();
                    slots[index] = Some(result);
                }
                // Surface the worker's own panic payload to the caller.
                // Still-queued jobs finish against a dropped receiver and
                // are discarded; the pool itself stays healthy.
                Err(payload) => resume_unwind(payload),
            }
        }
        stats.jobs = pulled;
        stats.classes.sort_by_key(|c| c.plan_class);
        record_stream_totals(telemetry, &stats, &slots);
        let mut outputs = Vec::with_capacity(slots.len());
        for slot in slots {
            outputs.push(slot.expect("every pulled job was executed")?);
        }
        Ok((outputs, stats))
    }
}

/// Adds one finished dispatch's [`StreamStats`] tallies to the sink's
/// cumulative counters in a single batch — the sink's view is *derived from*
/// the per-call stats (never counted separately), so the two cannot drift.
/// Runs on the error path too: a dispatch whose k-th job failed still
/// reports every job it pulled.
fn record_stream_totals(
    telemetry: &TelemetrySink,
    stats: &StreamStats,
    slots: &[Option<Result<ExecOutput, GraphError>>],
) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.add(Counter::JobsPulled, stats.jobs as u64);
    let failures = slots
        .iter()
        .filter(|slot| matches!(slot, Some(Err(_))))
        .count();
    telemetry.add(Counter::JobsFailed, failures as u64);
    for class in &stats.classes {
        telemetry.class_add_jobs(class.plan_class, class.jobs as u64);
    }
}

/// Outcome of one pool-executed job: the worker's `catch_unwind` result
/// around the job's execution result.
pub(crate) type JobOutcome = std::thread::Result<Result<ExecOutput, GraphError>>;

/// Submits one job to the pool as a single task that executes it under
/// `catch_unwind` and hands the outcome to `report`. The job — and its plan
/// handle — is dropped *before* the outcome is reported, so the caller
/// cannot over-fill its window while plans linger on workers.
pub(crate) fn submit_job(
    pool: &WorkerPool,
    n: usize,
    job: StreamJob,
    telemetry: &TelemetrySink,
    report: impl FnOnce(JobOutcome) + Send + 'static,
) {
    let telemetry = telemetry.clone();
    pool.submit(Box::new(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| execute_job_scalar(n, &job, &telemetry)));
        drop(job);
        report(outcome);
    }));
}

/// Applies a binary operator through the `sc_arith` word-parallel kernels.
fn apply_binary(
    op: crate::node::BinaryOp,
    x: &Bitstream,
    y: &Bitstream,
) -> Result<Bitstream, GraphError> {
    use crate::node::BinaryOp as B;
    let z = match op {
        B::AndMultiply => sc_arith::multiply::and_multiply(x, y)?,
        B::XnorMultiply => sc_arith::multiply::xnor_multiply(x, y)?,
        B::OrMax => sc_arith::maxmin::or_max(x, y)?,
        B::AndMin => sc_arith::maxmin::and_min(x, y)?,
        B::SaturatingAdd => sc_arith::add::saturating_add(x, y)?,
        B::XorSubtract => sc_arith::subtract::xor_subtract(x, y)?,
        B::CaAdd => sc_arith::add::ca_add(x, y)?,
        B::CaMax => sc_arith::maxmin::ca_max(x, y)?,
        B::CaMin => sc_arith::maxmin::ca_min(x, y)?,
    };
    Ok(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BinaryOp, ManipulatorKind};
    use crate::{Graph, PassSet, PlannerOptions};
    use proptest::prelude::*;
    use sc_rng::{RandomSource, SourceSpec};

    fn sobol(d: u32) -> SourceSpec {
        SourceSpec::Sobol { dimension: d }
    }

    #[test]
    fn generate_and_sink_round_trip() {
        let mut g = Graph::new();
        let x = g.generate(0, SourceSpec::VanDerCorput { offset: 0 });
        g.sink_value("v", x);
        g.sink_count("c", x);
        g.sink_stream("s", x);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(256)
            .run(&plan, &BatchInput::with_values(vec![0.25]))
            .unwrap();
        assert!((out.value("v").unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(out.value("c").unwrap(), 64.0);
        assert_eq!(out.stream("s").unwrap().len(), 256);
        assert_eq!(out.streams().count(), 1);
        assert_eq!(out.values().count(), 2);
    }

    #[test]
    fn missing_inputs_are_reported() {
        let mut g = Graph::new();
        let x = g.generate(2, sobol(1));
        g.sink_value("v", x);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let err = Executor::new(64)
            .run(&plan, &BatchInput::with_values(vec![0.5]))
            .unwrap_err();
        assert!(matches!(err, GraphError::ValueSlotOutOfRange { .. }));

        let mut g = Graph::new();
        let s = g.input_stream(0);
        g.sink_value("v", s);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let err = Executor::new(64)
            .run(&plan, &BatchInput::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::StreamSlotOutOfRange { .. }));
    }

    #[test]
    fn mismatched_input_streams_error() {
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let z = g.binary(BinaryOp::CaAdd, a, b);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let bad = BatchInput::with_streams(vec![Bitstream::zeros(64), Bitstream::zeros(65)]);
        assert!(matches!(
            Executor::new(64).run(&plan, &bad),
            Err(GraphError::Stream(_))
        ));
    }

    #[test]
    fn scc_probe_and_sum_sinks() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(1)); // shared spec: positively correlated
        g.scc_probe("scc", x, y);
        g.sink_sum("sum", &[x, y]);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(256)
            .run(&plan, &BatchInput::with_values(vec![0.5, 0.5]))
            .unwrap();
        assert!(out.value("scc").unwrap() > 0.99);
        assert!((out.value("sum").unwrap() - 1.0).abs() < 0.02);
    }

    #[test]
    fn auto_inserted_synchronizer_fixes_xor_accuracy() {
        let (px, py) = (0.6, 0.6);
        let build = |options: &PlannerOptions| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(3));
            let z = g.binary(BinaryOp::XorSubtract, x, y);
            g.sink_value("z", z);
            g.compile(options).unwrap()
        };
        let exec = Executor::new(1024);
        let input = BatchInput::with_values(vec![px, py]);
        let broken = exec
            .run(&build(&PlannerOptions::no_repair()), &input)
            .unwrap();
        let repaired = exec
            .run(&build(&PlannerOptions::default()), &input)
            .unwrap();
        // |0.6 − 0.6| = 0: uncorrelated XOR instead computes ≈ 2·p(1−p).
        assert!(broken.value("z").unwrap() > 0.3);
        assert!(repaired.value("z").unwrap() < 0.05);
    }

    #[test]
    fn fused_chain_matches_unfused_bits() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, x, y);
        let (b0, b1) = g.manipulate(ManipulatorKind::Desynchronizer { depth: 1 }, a0, a1);
        g.sink_stream("x", b0);
        g.sink_stream("y", b1);
        let fused = g.compile(&PlannerOptions::default()).unwrap();
        let unfused = g
            .compile(&PlannerOptions::with_passes(PassSet {
                fusion: false,
                ..PassSet::all()
            }))
            .unwrap();
        let input = BatchInput::with_streams(vec![
            Bitstream::from_fn(301, |i| (i * 7 + 1) % 3 == 0),
            Bitstream::from_fn(301, |i| (i * 5 + 2) % 4 < 2),
        ]);
        let exec = Executor::new(301);
        assert_eq!(
            exec.run(&fused, &input).unwrap(),
            exec.run(&unfused, &input).unwrap()
        );
    }

    #[test]
    fn divide_and_unary_fsm_nodes_execute() {
        let mut g = Graph::new();
        // Positively correlated pair (shared spec): divide needs no repair.
        let x = g.generate(0, SourceSpec::VanDerCorput { offset: 0 });
        let y = g.generate(1, SourceSpec::VanDerCorput { offset: 0 });
        let q = g.divide(
            x,
            y,
            SourceSpec::Lfsr {
                width: 16,
                seed: 0x5A5A,
            },
        );
        g.sink_value("q", q);
        // Bipolar stanh/slinear over an LFSR-generated stream.
        let a = g.generate(
            2,
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1,
            },
        );
        let t = g.stanh(4, a);
        let l = g.slinear(8, a);
        g.sink_value("t", t);
        g.sink_value("l", l);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(plan.report().inserted.is_empty(), "{:?}", plan.report());
        let out = Executor::new(2048)
            .run(&plan, &BatchInput::with_values(vec![0.3, 0.6, 0.9]))
            .unwrap();
        assert!(
            (out.value("q").unwrap() - 0.5).abs() < 0.1,
            "0.3 / 0.6 = 0.5, got {}",
            out.value("q").unwrap()
        );
        // Bipolar input value 2·0.9 − 1 = 0.8 saturates stanh high.
        assert!(out.value("t").unwrap() > 0.8);
        assert!(out.value("l").unwrap() > 0.7);
    }

    #[test]
    fn divider_precondition_is_planned() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2)); // independent ⇒ uncorrelated
        let q = g.divide(
            x,
            y,
            SourceSpec::Lfsr {
                width: 16,
                seed: 0x5A5A,
            },
        );
        g.sink_value("q", q);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.report().inserted.len(), 1);
        assert!(plan.report().inserted[0].contains("divide"));
    }

    /// The sequential weighted-MUX select walk (the bit-serial semantics the
    /// executor's threshold masks replace).
    fn walk(weights: &[f64], mut u: f64) -> usize {
        for (idx, &w) in weights.iter().enumerate() {
            if u < w {
                return idx;
            }
            u -= w;
        }
        weights.len() - 1
    }

    #[test]
    fn sample_drawing_steps_match_bit_serial_references() {
        // Every step that draws samples, executed through a compiled plan,
        // against the retained per-sample references: D/S conversion,
        // regeneration, the MUX adder's half-select stream, the divider and
        // the weighted select walk — for table-backed and filled sources.
        use sc_arith::add::{half_select_stream, mux_add};
        use sc_arith::divide::Divider;
        use sc_convert::{DigitalToStochastic, Regenerator};
        let specs = [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1,
            },
            SourceSpec::Lfsr { width: 5, seed: 9 },
            SourceSpec::Lfsr {
                width: 20,
                seed: 0x5_4321,
            },
            sobol(3),
            SourceSpec::VanDerCorput { offset: 5 },
            SourceSpec::Halton { base: 5, offset: 0 },
            SourceSpec::Counter {
                modulus: 100,
                phase: 7,
            },
        ];
        let weights = [0.1, 0.3, 0.0, 0.35, 0.25];
        for n in [1usize, 63, 64, 65, 1000] {
            let streams: Vec<Bitstream> = (0..weights.len())
                .map(|k| Bitstream::from_fn(n, move |i| (i * (k + 2) + k) % 3 == 0))
                .collect();
            for spec in &specs {
                for skip in [0u64, 37, 70_000] {
                    let mut g = Graph::new();
                    let ins: Vec<_> = (0..weights.len()).map(|s| g.input_stream(s)).collect();
                    let gen = g.generate_skipped(0, spec.clone(), skip);
                    let cst = g.constant(0.3, spec.clone());
                    let reg = g.regenerate_skipped(spec.clone(), skip, ins[0]);
                    let mux = g.mux_add_skipped(ins[1], ins[2], spec.clone(), skip);
                    let div = g.divide_skipped(ins[3], ins[1], spec.clone(), skip, 4);
                    let wm = g.weighted_mux_skipped(&ins, &weights, spec.clone(), skip);
                    for (name, wire) in [
                        ("gen", gen),
                        ("cst", cst),
                        ("reg", reg),
                        ("mux", mux),
                        ("div", div),
                        ("wm", wm),
                    ] {
                        g.sink_stream(name, wire);
                    }
                    let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
                    let input = BatchInput {
                        values: vec![0.61],
                        streams: streams.clone(),
                    };
                    let out = Executor::new(n).run(&plan, &input).unwrap();
                    let skipped = || spec.build_skipped(skip);
                    let mut select = skipped();
                    let expected = [
                        (
                            "gen",
                            DigitalToStochastic::new(skipped())
                                .generate(Probability::saturating(0.61), n),
                        ),
                        (
                            "cst",
                            DigitalToStochastic::new(spec.build())
                                .generate(Probability::saturating(0.3), n),
                        ),
                        ("reg", Regenerator::new(skipped()).regenerate(&streams[0])),
                        (
                            "mux",
                            mux_add(
                                &streams[1],
                                &streams[2],
                                &half_select_stream(&mut skipped(), n),
                            )
                            .unwrap(),
                        ),
                        (
                            "div",
                            Divider::with_counter_bits(skipped(), 4)
                                .divide(&streams[3], &streams[1])
                                .unwrap(),
                        ),
                        (
                            "wm",
                            Bitstream::from_fn(n, |i| {
                                streams[walk(&weights, select.next_unit())].bit(i)
                            }),
                        ),
                    ];
                    for (name, reference) in expected {
                        assert_eq!(
                            out.stream(name).unwrap(),
                            &reference,
                            "{name} {spec} n={n} skip={skip}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn regenerating_an_empty_stream_draws_nothing() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let z = g.regenerate(SourceSpec::VanDerCorput { offset: 0 }, x);
        g.sink_stream("z", z);
        let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
        let sink = TelemetrySink::new();
        let out = Executor::new(64)
            .with_telemetry(sink.clone())
            .run(&plan, &BatchInput::with_streams(vec![Bitstream::new()]))
            .unwrap();
        assert!(out.stream("z").unwrap().is_empty());
        let report = sink.drain();
        assert_eq!(report.counter(Counter::SampleMemoMisses), 0);
        assert_eq!(report.counter(Counter::SampleMemoHits), 0);
    }

    #[test]
    fn select_steps_keep_their_length_mismatch_errors() {
        let select = SourceSpec::Lfsr {
            width: 16,
            seed: 0x1234,
        };
        let (x, y) = (Bitstream::ones(70), Bitstream::zeros(65));
        let mut g = Graph::new();
        let (a, b) = (g.input_stream(0), g.input_stream(1));
        let z = g.mux_add(a, b, select.clone());
        g.sink_stream("z", z);
        let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
        let err = Executor::new(70)
            .run(&plan, &BatchInput::with_streams(vec![x.clone(), y.clone()]))
            .unwrap_err();
        // The MUX adder draws `x.len()` selects, then the sc_arith adder
        // reports the operand mismatch.
        let sel = sc_arith::add::half_select_stream(&mut select.build(), x.len());
        let reference = sc_arith::add::mux_add(&x, &y, &sel).unwrap_err();
        assert_eq!(err, GraphError::Stream(reference));

        let mut g = Graph::new();
        let ins: Vec<_> = (0..3).map(|s| g.input_stream(s)).collect();
        let z = g.weighted_mux(&ins, &[0.5, 0.25, 0.25], select);
        g.sink_stream("z", z);
        let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
        let err = Executor::new(70)
            .run(&plan, &BatchInput::with_streams(vec![x.clone(), x, y]))
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::Stream(sc_bitstream::Error::LengthMismatch {
                left: 70,
                right: 65
            })
        );
    }

    #[test]
    fn shared_source_cache_matches_per_step_positioning() {
        // Two MUX adders drawing from one logically shared select LFSR via
        // per-node skips, in one plan (cache continues one instance) vs in
        // two separate plans (each positions a fresh instance): identical.
        let n = 301usize;
        let select = SourceSpec::Lfsr {
            width: 16,
            seed: 0x1234,
        };
        let mut shared = Graph::new();
        let a = shared.generate(0, sobol(1));
        let b = shared.generate(1, sobol(2));
        let z0 = shared.mux_add_skipped(a, b, select.clone(), 0);
        let z1 = shared.mux_add_skipped(a, b, select.clone(), n as u64);
        shared.sink_stream("z0", z0);
        shared.sink_stream("z1", z1);
        let plan = shared.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(n)
            .run(&plan, &BatchInput::with_values(vec![0.4, 0.7]))
            .unwrap();

        let solo = |skip: u64| {
            let mut g = Graph::new();
            let a = g.generate(0, sobol(1));
            let b = g.generate(1, sobol(2));
            let z = g.mux_add_skipped(a, b, select.clone(), skip);
            g.sink_stream("z", z);
            let plan = g.compile(&PlannerOptions::default()).unwrap();
            Executor::new(n)
                .run(&plan, &BatchInput::with_values(vec![0.4, 0.7]))
                .unwrap()
                .stream("z")
                .unwrap()
                .clone()
        };
        assert_eq!(out.stream("z0").unwrap(), &solo(0));
        assert_eq!(out.stream("z1").unwrap(), &solo(n as u64));
    }

    #[test]
    fn sharded_batch_matches_sequential() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, SourceSpec::Halton { base: 3, offset: 0 });
        let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let z = g.binary(BinaryOp::CaAdd, sx, sy);
        g.sink_stream("z", z);
        g.sink_value("zv", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let inputs: Vec<BatchInput> = (0..13)
            .map(|i| BatchInput::with_values(vec![i as f64 / 13.0, 1.0 - i as f64 / 13.0]))
            .collect();
        let sequential = Executor::new(257).run_batch(&plan, &inputs).unwrap();
        let sharded = Executor::new(257)
            .with_threads(4)
            .run_batch(&plan, &inputs)
            .unwrap();
        assert_eq!(sequential, sharded);
        assert_eq!(sequential.len(), 13);
    }

    #[test]
    fn batch_error_propagates_from_workers() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        g.sink_value("v", x);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let mut inputs = vec![BatchInput::with_values(vec![0.5]); 6];
        inputs[4] = BatchInput::new(); // missing value slot
        let err = Executor::new(64)
            .with_threads(3)
            .run_batch(&plan, &inputs)
            .unwrap_err();
        assert!(matches!(err, GraphError::ValueSlotOutOfRange { .. }));
    }

    /// A poisoned `InputStream` (length mismatch) on one shard must surface
    /// as an error — not a panic — while a run without the poisoned item
    /// keeps every shard's results in input order.
    #[test]
    fn poisoned_shard_errors_while_others_stay_ordered() {
        let mut g = Graph::new();
        let s = g.input_stream(0);
        let t = g.input_stream(1);
        let z = g.binary(BinaryOp::CaAdd, s, t);
        g.sink_count("ones", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let n = 96usize;
        let item = |ones: usize| {
            BatchInput::with_streams(vec![
                Bitstream::from_fn(n, |i| i < ones),
                Bitstream::zeros(n),
            ])
        };
        // 9 items on 8 workers: the balanced division gives every worker a
        // shard; item 3's second stream is poisoned with a bad length.
        let mut inputs: Vec<BatchInput> = (0..9).map(item).collect();
        inputs[3].streams[1] = Bitstream::zeros(n + 1);
        let exec = Executor::new(n).with_threads(8);
        let err = exec.run_batch(&plan, &inputs).unwrap_err();
        assert!(matches!(err, GraphError::Stream(_)), "errors, not panics");
        // Healthy inputs: results arrive in input order across all shards,
        // identical to the sequential reference, and item-distinct (so a
        // mis-stitched order could not pass by coincidence).
        let inputs: Vec<BatchInput> = (0..9).map(item).collect();
        let sharded = exec.run_batch(&plan, &inputs).unwrap();
        let sequential = Executor::new(n).run_batch(&plan, &inputs).unwrap();
        assert_eq!(sharded, sequential, "shard results stitched in input order");
        let counts: Vec<f64> = sharded.iter().map(|o| o.value("ones").unwrap()).collect();
        let mut sorted = counts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(counts, sorted, "per-item counts grow with input index");
    }

    #[test]
    fn executor_accessors() {
        let exec = Executor::new(128).with_threads(0);
        assert_eq!(exec.stream_length(), 128);
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.default_window(), DEFAULT_WINDOW_FACTOR);
        assert_eq!(
            Executor::new(128).with_threads(3).default_window(),
            3 * DEFAULT_WINDOW_FACTOR
        );
        assert_eq!(Executor::new(128), Executor::new(128).clone());
        assert_ne!(Executor::new(128), Executor::new(129));
    }

    /// A small family of distinct plans plus inputs for streaming tests.
    fn stream_fixture(len: usize) -> (Vec<Arc<CompiledGraph>>, Vec<BatchInput>) {
        let make_plan = |flip: bool| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = if flip {
                g.binary(BinaryOp::AndMultiply, x, y)
            } else {
                g.binary(BinaryOp::CaAdd, x, y)
            };
            g.sink_value("z", z);
            g.sink_stream("s", z);
            Arc::new(g.compile(&PlannerOptions::default()).unwrap())
        };
        let plans: Vec<Arc<CompiledGraph>> = (0..len).map(|i| make_plan(i % 2 == 0)).collect();
        let inputs: Vec<BatchInput> = (0..len)
            .map(|i| {
                BatchInput::with_values(vec![
                    (i + 1) as f64 / (len + 1) as f64,
                    1.0 - i as f64 / (len + 2) as f64,
                ])
            })
            .collect();
        (plans, inputs)
    }

    /// The acceptance matrix: streaming a heterogeneous job list with
    /// windows {1, threads, 4×threads, unbounded} is bit-identical to the
    /// sequential per-job [`Executor::run`] loop, at 1 and N threads, and
    /// the engine never reports more in-flight jobs than the window admits.
    #[test]
    fn run_stream_matches_sequential_at_all_windows() {
        let n = 193usize;
        let (plans, inputs) = stream_fixture(11);
        let solo: Vec<ExecOutput> = plans
            .iter()
            .zip(&inputs)
            .map(|(plan, input)| Executor::new(n).run(plan, input).unwrap())
            .collect();
        for threads in [1usize, 3, 8] {
            let exec = Executor::new(n).with_threads(threads);
            for window in [1usize, threads, 4 * threads, usize::MAX] {
                let stream_jobs = plans.iter().zip(&inputs).map(|(plan, input)| StreamJob {
                    plan: Arc::clone(plan),
                    input: input.clone(),
                });
                let (streamed, stats) = exec.run_stream_with_stats(stream_jobs, window).unwrap();
                assert_eq!(streamed, solo, "threads={threads}, window={window}");
                assert_eq!(stats.jobs, plans.len());
                assert!(
                    stats.peak_in_flight <= window.max(1),
                    "threads={threads}, window={window}: peak {} in flight",
                    stats.peak_in_flight
                );
                assert!(stats.peak_in_flight >= 1);
            }
        }
    }

    /// Streaming edge case: an empty job iterator completes immediately with
    /// no results — on the inline path and on the pool path alike.
    #[test]
    fn run_stream_empty_job_list() {
        for threads in [1usize, 4] {
            let exec = Executor::new(64).with_threads(threads);
            let (outputs, stats) = exec.run_stream_with_stats(std::iter::empty(), 7).unwrap();
            assert!(outputs.is_empty());
            assert_eq!(stats, StreamStats::default());
        }
        assert!(Executor::new(64)
            .run_batch(&sync_plan(), &[])
            .unwrap()
            .is_empty());
    }

    /// Streaming edge case: zero-length streams execute (every op yields an
    /// empty stream; counts are 0) rather than panicking in the word kernels.
    #[test]
    fn run_stream_zero_length_streams() {
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let z = g.binary(BinaryOp::CaAdd, a, b);
        g.sink_stream("s", z);
        g.sink_count("c", z);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        for threads in [1usize, 3] {
            let exec = Executor::new(0).with_threads(threads);
            let jobs = (0..5).map(|_| StreamJob {
                plan: Arc::clone(&plan),
                input: BatchInput::with_streams(vec![Bitstream::zeros(0), Bitstream::zeros(0)]),
            });
            let (outputs, stats) = exec.run_stream_with_stats(jobs, 2).unwrap();
            assert_eq!(outputs.len(), 5);
            assert!(stats.peak_in_flight <= 2);
            for out in &outputs {
                assert_eq!(out.stream("s").unwrap().len(), 0);
                assert_eq!(out.value("c").unwrap(), 0.0);
            }
        }
    }

    /// A window of 1 serialises planning against execution completely and
    /// still matches the unbounded dispatch bit for bit.
    #[test]
    fn run_stream_window_of_one() {
        let n = 257usize;
        let (plans, inputs) = stream_fixture(6);
        let job_iter = || {
            plans
                .iter()
                .zip(&inputs)
                .map(|(plan, input)| StreamJob {
                    plan: Arc::clone(plan),
                    input: input.clone(),
                })
                .collect::<Vec<_>>()
        };
        let exec = Executor::new(n).with_threads(4);
        let (narrow, narrow_stats) = exec.run_stream_with_stats(job_iter(), 1).unwrap();
        let (wide, _) = exec.run_stream_with_stats(job_iter(), usize::MAX).unwrap();
        assert_eq!(narrow, wide);
        assert_eq!(narrow_stats.peak_in_flight, 1);
    }

    /// Once a job fails, the error returned is deterministically the failing
    /// job with the smallest index, regardless of scheduling.
    #[test]
    fn run_stream_reports_first_error_in_job_order() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        g.sink_value("v", x);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        let exec = Executor::new(64).with_threads(4);
        for _ in 0..16 {
            let jobs = (0..12).map(|i| StreamJob {
                plan: Arc::clone(&plan),
                // Jobs 3 and 7 are missing their value slot.
                input: if i == 3 || i == 7 {
                    BatchInput::new()
                } else {
                    BatchInput::with_values(vec![0.5])
                },
            });
            let err = exec.run_stream(jobs, 4).unwrap_err();
            assert!(
                matches!(err, GraphError::ValueSlotOutOfRange { provided: 0, .. }),
                "unexpected error {err:?}"
            );
        }
    }

    /// A synchronizer plan for the streaming tests.
    fn sync_plan() -> Arc<CompiledGraph> {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        g.sink_stream("x", sx);
        g.sink_stream("y", sy);
        Arc::new(g.compile(&PlannerOptions::default()).unwrap())
    }

    /// Jobs a report says were executed: one [`Stage::ScalarExecute`] span
    /// per job.
    fn executed_jobs(report: &sc_telemetry::TelemetryReport) -> u64 {
        report.stage_totals(Stage::ScalarExecute).0
    }

    /// `peak_in_flight` is exact on the inline path: the caller executes
    /// each job as it is pulled, so exactly one job is ever in flight, at
    /// any window.
    #[test]
    fn inline_peak_in_flight_is_exact() {
        let plan = sync_plan();
        let exec = Executor::new(64);
        let jobs = |count: usize| {
            let plan = Arc::clone(&plan);
            (0..count).map(move |_| StreamJob {
                plan: Arc::clone(&plan),
                input: BatchInput::with_values(vec![0.4, 0.7]),
            })
        };

        for window in [1usize, 3, usize::MAX] {
            let (_, stats) = exec.run_stream_with_stats(jobs(9), window).unwrap();
            assert_eq!(stats.peak_in_flight, 1, "window {window}");
            assert_eq!(stats.jobs, 9);
        }
    }

    /// The `StreamStats.classes` breakdown partitions the pulled jobs on
    /// both dispatch paths, and the sink's bounded class table carries the
    /// same numbers plus one latency sample per job of the class.
    #[test]
    fn stream_stats_attribute_jobs_per_plan_class() {
        let a = sync_plan();
        let b = sync_plan(); // same shape, fresh compile → distinct class
        assert_ne!(a.plan_class(), b.plan_class());
        for threads in [1usize, 4] {
            let sink = TelemetrySink::new();
            let exec = Executor::new(64)
                .with_threads(threads)
                .with_telemetry(sink.clone());
            let jobs = (0..12).map(|i| StreamJob {
                plan: Arc::clone(if i % 3 == 0 { &a } else { &b }),
                input: BatchInput::with_values(vec![0.4, 0.7]),
            });
            let (_, stats) = exec.run_stream_with_stats(jobs, usize::MAX).unwrap();

            assert_eq!(stats.classes.len(), 2, "{threads} threads");
            assert!(
                stats
                    .classes
                    .windows(2)
                    .all(|w| w[0].plan_class < w[1].plan_class),
                "classes are sorted by id"
            );
            assert_eq!(
                stats.classes.iter().map(|c| c.jobs).sum::<usize>(),
                stats.jobs
            );
            let jobs_of = |class: u64| {
                stats
                    .classes
                    .iter()
                    .find(|c| c.plan_class == class)
                    .map_or(0, |c| c.jobs)
            };
            assert_eq!(jobs_of(a.plan_class()), 4);
            assert_eq!(jobs_of(b.plan_class()), 8);

            // The sink's class table is the cumulative view of the same
            // tallies, with a latency observation per executed job.
            let report = sink.drain();
            assert_eq!(report.classes().len(), 2);
            for class in &stats.classes {
                let reported = report.class(class.plan_class).expect("class reported");
                assert_eq!(reported.jobs, class.jobs as u64);
                assert_eq!(reported.latency.count, class.jobs as u64);
            }
        }
    }

    /// The documented window bound `peak_in_flight ≤ window.max(1)` holds on
    /// both dispatch paths, for successful runs and for runs whose k-th job
    /// fails. On the error path the stats struct never comes back, so the
    /// bound is read from the sink's window-occupancy gauge peak — the same
    /// tally, sampled at the same points.
    #[test]
    fn peak_in_flight_bounded_by_window_on_both_paths() {
        let plan = sync_plan();
        for threads in [1usize, 4] {
            for window in [1usize, 3, usize::MAX] {
                for fail_at in [None, Some(5usize)] {
                    let sink = TelemetrySink::new();
                    let exec = Executor::new(64)
                        .with_threads(threads)
                        .with_telemetry(sink.clone());
                    let jobs = (0..10).map(|i| StreamJob {
                        plan: Arc::clone(&plan),
                        input: if fail_at == Some(i) {
                            BatchInput::new() // missing both value slots
                        } else {
                            BatchInput::with_values(vec![0.4, 0.7])
                        },
                    });
                    let result = exec.run_stream_with_stats(jobs, window);
                    let peak = match (&result, fail_at) {
                        (Ok((_, stats)), None) => stats.peak_in_flight as u64,
                        (Err(GraphError::ValueSlotOutOfRange { .. }), Some(_)) => {
                            sink.drain().gauge(Gauge::WindowOccupancy).1
                        }
                        other => panic!(
                            "unexpected outcome at {threads} threads, \
                             window {window}: {other:?}"
                        ),
                    };
                    assert!(
                        peak as usize <= window.clamp(1, 10),
                        "{threads} threads, window {window}, fail {fail_at:?}: \
                         peak {peak} exceeds the window"
                    );
                    assert!(peak >= 1);
                }
            }
        }
    }

    /// A stream whose k-th job fails still yields a drainable, *consistent*
    /// report: every pulled job was executed under a closed span (span count
    /// == `JobsPulled` == the job-latency histogram count) and exactly one
    /// failure is counted — at 1 and 4 threads, window 1 and unbounded.
    #[test]
    fn failing_stream_telemetry_is_consistent() {
        let plan = sync_plan();
        for threads in [1usize, 4] {
            for window in [1usize, usize::MAX] {
                let sink = TelemetrySink::new();
                let exec = Executor::new(64)
                    .with_threads(threads)
                    .with_telemetry(sink.clone());
                let jobs = (0..10).map(|i| StreamJob {
                    plan: Arc::clone(&plan),
                    input: if i == 5 {
                        BatchInput::new()
                    } else {
                        BatchInput::with_values(vec![0.4, 0.7])
                    },
                });
                let err = exec.run_stream(jobs, window).unwrap_err();
                assert!(matches!(err, GraphError::ValueSlotOutOfRange { .. }));

                let report = sink.drain();
                let pulled = report.counter(Counter::JobsPulled);
                assert!(
                    pulled >= 6,
                    "the failing job itself must have been pulled, got {pulled}"
                );
                assert_eq!(
                    executed_jobs(&report),
                    pulled,
                    "{threads} threads, window {window}: every pulled job \
                     closes a span even when the stream errors"
                );
                assert_eq!(report.histogram(Hist::JobLatencyNs).count, pulled);
                assert_eq!(report.counter(Counter::JobsFailed), 1);
            }
        }
    }

    /// The sink's counters are *derived from* [`StreamStats`] — one flush per
    /// dispatch — so after any number of dispatches the cumulative counters
    /// equal the sum of the per-call stats, field for field.
    #[test]
    fn sink_counters_are_derived_from_stream_stats() {
        let plan = sync_plan();
        let sink = TelemetrySink::new();
        let exec = Executor::new(64).with_telemetry(sink.clone());
        let mut total_jobs = 0u64;
        for count in [9usize, 5] {
            let jobs = (0..count).map(|_| StreamJob {
                plan: Arc::clone(&plan),
                input: BatchInput::with_values(vec![0.4, 0.7]),
            });
            let (_, stats) = exec.run_stream_with_stats(jobs, usize::MAX).unwrap();
            total_jobs += stats.jobs as u64;
        }
        let report = sink.drain();
        assert_eq!(report.counter(Counter::JobsPulled), total_jobs);
        assert_eq!(report.counter(Counter::JobsFailed), 0);
        assert_eq!(executed_jobs(&report), total_jobs);
    }

    /// The pool is persistent: repeated dispatches on one executor reuse its
    /// warm workers and stay bit-identical call after call.
    #[test]
    fn worker_pool_persists_across_dispatches() {
        let n = 129usize;
        let (plans, inputs) = stream_fixture(9);
        let exec = Executor::new(n).with_threads(4);
        let jobs = || {
            plans.iter().zip(&inputs).map(|(plan, input)| StreamJob {
                plan: Arc::clone(plan),
                input: input.clone(),
            })
        };
        let first = exec.run_stream(jobs(), usize::MAX).unwrap();
        for _ in 0..5 {
            assert_eq!(exec.run_stream(jobs(), usize::MAX).unwrap(), first);
        }
        // A standalone pool drains and joins cleanly on drop.
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        drop(pool);
    }

    proptest! {
        /// Random job counts, windows, and thread counts: streaming always
        /// matches the sequential per-job reference.
        #[test]
        fn run_stream_random_shapes_match_sequential(
            len in 0usize..20,
            window in 1usize..8,
            threads in 1usize..6,
        ) {
            let n = 97usize;
            let (plans, inputs) = stream_fixture(len);
            let solo: Vec<ExecOutput> = plans
                .iter()
                .zip(&inputs)
                .map(|(plan, input)| Executor::new(n).run(plan, input).unwrap())
                .collect();
            let jobs = plans.iter().zip(&inputs).map(|(plan, input)| StreamJob {
                plan: Arc::clone(plan),
                input: input.clone(),
            });
            let (streamed, stats) = Executor::new(n)
                .with_threads(threads)
                .run_stream_with_stats(jobs, window)
                .unwrap();
            prop_assert_eq!(streamed, solo);
            prop_assert!(stats.peak_in_flight <= window);
        }
    }
}
