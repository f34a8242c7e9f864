//! The serving tier: one warm executor shared by many concurrent request
//! streams.
//!
//! `run_stream` is a *call*: it owns the dispatch loop until its job
//! iterator drains, so two concurrent images either serialise behind one
//! call or split across two executors (and two worker pools, and two
//! windows that never share their workers). [`Service`] inverts that shape into a
//! long-lived tier:
//!
//! * **One warm pool.** A dedicated dispatcher thread owns a persistent
//!   [`WorkerPool`]; every request multiplexes over the same threads, so
//!   back-to-back images reuse warm workers instead of respawning them.
//! * **Bounded intake with backpressure.** [`Service::submit`] blocks until
//!   the intake queue has room; [`Service::try_submit`] fails fast and
//!   returns the request, so open-loop producers slow down instead of
//!   buffering unboundedly ahead of the dispatch window. Intake depth is
//!   exported through [`Gauge::IntakeDepth`] for `watch`-driven shedding.
//! * **One shared dispatch window.** The dispatcher drains admitted jobs
//!   round-robin across requests (one job per request per turn) straight
//!   onto the pool, with at most `window` jobs in flight across all
//!   requests — under concurrent traffic, per-image parallelism becomes
//!   sustained multi-user throughput. [`Gauge::WindowOccupancy`] and
//!   [`Hist::WindowOccupancy`] track the window.
//! * **Deadlines and cancellation.** A [`Request`] may carry an absolute
//!   deadline: expired-at-submit requests are rejected without queueing,
//!   and in-flight expiry purges the request's remaining jobs.
//!   [`RequestHandle::cancel`] does the same on demand; results of
//!   already-executed tiles are discarded cleanly.
//! * **Attribution.** Every request's life is cut into consecutive
//!   segments — submit, queue-wait, execute, assemble — whose sum is the
//!   request's wall clock *by construction* ([`RequestAttribution`]), with
//!   matching [`Stage::ServeSubmit`] / [`Stage::ServeQueueWait`] /
//!   [`Stage::ServeCoalesce`] / [`Stage::ServeAssemble`] spans and a
//!   [`Hist::RequestLatencyNs`] histogram in the shared
//!   [`TelemetrySink`].
//!
//! Results are bit-identical to solo execution: the dispatcher runs every
//! job through the executor's own per-job engine, and the schedule never
//! changes a job's output.

use crate::exec::{submit_job, JobOutcome, StreamJob, WorkerPool};
use crate::graph::GraphError;
use crate::ExecOutput;
use sc_telemetry::{Counter, Gauge, Hist, Stage, TelemetrySink};
use std::collections::{HashMap, VecDeque};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default intake capacity multiplier: the intake queue admits
/// `window × DEFAULT_INTAKE_FACTOR` jobs ahead of the dispatch window,
/// enough to keep the dispatcher fed across request-size jitter while
/// keeping producer memory bounded.
pub const DEFAULT_INTAKE_FACTOR: usize = 4;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Stream length `N` every job executes at.
    pub stream_length: usize,
    /// Worker threads in the shared pool (clamped to ≥ 1; the dispatcher
    /// thread is extra).
    pub threads: usize,
    /// Dispatch-window size: the maximum number of jobs on the pool at
    /// once, across all requests. `None` uses
    /// `threads ×`[`DEFAULT_WINDOW_FACTOR`](crate::exec::DEFAULT_WINDOW_FACTOR).
    pub window: Option<usize>,
    /// Intake capacity: the maximum number of admitted-but-undispatched
    /// jobs across all queued requests. `None` uses
    /// `window ×`[`DEFAULT_INTAKE_FACTOR`].
    pub intake_capacity: Option<usize>,
    /// The sink every serving stage, counter, and histogram records into
    /// (workers and compile calls included when callers share it).
    pub telemetry: TelemetrySink,
}

impl ServiceConfig {
    /// A single-threaded service at stream length `n` with default window
    /// and intake bounds and no telemetry.
    #[must_use]
    pub fn new(stream_length: usize) -> Self {
        ServiceConfig {
            stream_length,
            threads: 1,
            window: None,
            intake_capacity: None,
            telemetry: TelemetrySink::default(),
        }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the dispatch-window size.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window.max(1));
        self
    }

    /// Sets the intake capacity.
    #[must_use]
    pub fn with_intake_capacity(mut self, capacity: usize) -> Self {
        self.intake_capacity = Some(capacity.max(1));
        self
    }

    /// Attaches a telemetry sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// One whole-request submission: an ordered list of jobs (an image's tiles,
/// say) plus an optional absolute deadline.
#[derive(Debug)]
pub struct Request {
    /// The jobs, in result order.
    pub jobs: Vec<StreamJob>,
    /// Absolute deadline: expired-at-submit requests are rejected without
    /// queueing, in-flight expiry drops the request's remaining jobs.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A request with no deadline.
    #[must_use]
    pub fn new(jobs: Vec<StreamJob>) -> Self {
        Request {
            jobs,
            deadline: None,
        }
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now() + timeout;
        self.with_deadline(deadline)
    }
}

/// Why a submission did not enter the intake queue. Every variant returns
/// the request so the producer can retry, shed, or re-deadline it.
#[derive(Debug)]
pub enum SubmitError {
    /// Non-blocking submit on a full intake queue.
    Rejected(Request),
    /// The request's deadline had already expired at submit time.
    Expired(Request),
    /// The service is shutting down.
    ShutDown(Request),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(_) => write!(f, "intake queue full"),
            SubmitError::Expired(_) => write!(f, "deadline expired at submit"),
            SubmitError::ShutDown(_) => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a request produced no outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// A job failed; deterministically the error of the *smallest* failing
    /// job index — every job of the request still executes, so the report
    /// does not depend on scheduling.
    Job(GraphError),
    /// The request was cancelled via [`RequestHandle::cancel`].
    Cancelled,
    /// The request's deadline expired while it was queued or in flight.
    DeadlineExceeded,
    /// The service shut down before the request completed.
    ShutDown,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Job(e) => write!(f, "job failed: {e}"),
            RequestError::Cancelled => write!(f, "request cancelled"),
            RequestError::DeadlineExceeded => write!(f, "deadline exceeded"),
            RequestError::ShutDown => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Consecutive wall-clock segments of one request's life. The segments
/// partition `[submit start, response assembled]` exactly:
/// `submit_ns + queue_wait_ns + execute_ns + assemble_ns == wall_ns`
/// by construction (each is the difference of consecutive timestamps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Submit-call entry → admission into the intake queue (includes any
    /// time the producer spent blocked on backpressure).
    pub submit_ns: u64,
    /// Admission → the dispatcher moving the request's first job into the
    /// dispatch window.
    pub queue_wait_ns: u64,
    /// First job dispatched → last job's result received.
    pub execute_ns: u64,
    /// Last result → response assembled by [`RequestHandle::wait`].
    pub assemble_ns: u64,
    /// Submit-call entry → response assembled.
    pub wall_ns: u64,
}

/// A completed request's outputs plus its serving-tier accounting.
#[derive(Debug, Clone)]
pub struct RequestReport {
    /// Per-job outputs, in submission order.
    pub outputs: Vec<ExecOutput>,
    /// Wall-clock attribution across the serving stages.
    pub attribution: RequestAttribution,
}

/// How a request ended (dispatcher-side verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Completed,
    Cancelled,
    Expired,
    ShutDown,
}

/// Per-request state shared by the submitting thread, the handle, and the
/// dispatcher.
struct RequestState {
    id: u64,
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    done: Mutex<Completion>,
    finished_cv: Condvar,
}

/// The dispatcher-written half of a request's state.
struct Completion {
    /// One slot per job, filled as results arrive.
    results: Vec<Option<Result<ExecOutput, GraphError>>>,
    /// Results still outstanding (never reaches zero on purged requests).
    remaining: usize,
    verdict: Option<Verdict>,
    /// A worker panic payload, resumed on the waiter's thread.
    panic: Option<Box<dyn std::any::Any + Send>>,
    t_start: Instant,
    t_admitted: Instant,
    t_first_dispatch: Option<Instant>,
    t_last_done: Option<Instant>,
}

impl RequestState {
    fn finished(&self) -> bool {
        self.done
            .lock()
            .expect("request completion lock is never poisoned")
            .verdict
            .is_some()
    }
}

/// A handle to one submitted request: wait for the response, or cancel it.
pub struct RequestHandle {
    state: Arc<RequestState>,
    telemetry: TelemetrySink,
}

impl std::fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestHandle")
            .field("id", &self.state.id)
            .field("finished", &self.state.finished())
            .finish_non_exhaustive()
    }
}

impl RequestHandle {
    /// Process-unique request id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Whether the request has finished (completed, failed, cancelled, or
    /// expired).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state.finished()
    }

    /// Requests cancellation: the dispatcher drops the request's remaining
    /// jobs on its next pass, and results of already-executed jobs are
    /// discarded. A no-op once the request has finished.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Release);
        let mut done = self
            .state
            .done
            .lock()
            .expect("request completion lock is never poisoned");
        if done.verdict.is_none() {
            done.verdict = Some(Verdict::Cancelled);
            self.telemetry.add(Counter::RequestsCancelled, 1);
            self.state.finished_cv.notify_all();
        }
    }

    /// Blocks until the request finishes and assembles the response,
    /// recording a [`Stage::ServeAssemble`] span.
    ///
    /// # Errors
    ///
    /// [`RequestError::Job`] with the smallest failing job index's error,
    /// [`RequestError::Cancelled`], [`RequestError::DeadlineExceeded`], or
    /// [`RequestError::ShutDown`].
    ///
    /// # Panics
    ///
    /// If a job of this request panicked on a worker thread, the original
    /// payload is resumed here.
    pub fn wait(self) -> Result<RequestReport, RequestError> {
        let mut done = self
            .state
            .done
            .lock()
            .expect("request completion lock is never poisoned");
        while done.verdict.is_none() {
            done = self
                .state
                .finished_cv
                .wait(done)
                .expect("request completion lock is never poisoned");
        }
        if let Some(payload) = done.panic.take() {
            drop(done);
            resume_unwind(payload);
        }
        let verdict = done.verdict.expect("loop exits only with a verdict");
        match verdict {
            Verdict::Cancelled => return Err(RequestError::Cancelled),
            Verdict::Expired => return Err(RequestError::DeadlineExceeded),
            Verdict::ShutDown => return Err(RequestError::ShutDown),
            Verdict::Completed => {}
        }
        let assemble = self.telemetry.span(Stage::ServeAssemble);
        // First-error ordering: every job of the request executed, so the
        // smallest failing index is deterministic at any thread count.
        let mut outputs = Vec::with_capacity(done.results.len());
        let mut first_error = None;
        for slot in done.results.drain(..) {
            match slot.expect("a completed request filled every slot") {
                Ok(output) => outputs.push(output),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        drop(assemble);
        let t_done = Instant::now();
        if let Some(e) = first_error {
            return Err(RequestError::Job(e));
        }
        let t_first = done.t_first_dispatch.unwrap_or(done.t_admitted);
        let t_last = done.t_last_done.unwrap_or(t_first);
        let attribution = RequestAttribution {
            submit_ns: ns_between(done.t_start, done.t_admitted),
            queue_wait_ns: ns_between(done.t_admitted, t_first),
            execute_ns: ns_between(t_first, t_last),
            assemble_ns: ns_between(t_last, t_done),
            wall_ns: ns_between(done.t_start, t_done),
        };
        Ok(RequestReport {
            outputs,
            attribution,
        })
    }
}

/// Saturating nanoseconds from `a` to `b`.
fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// One queued request inside the intake: its shared state plus the jobs not
/// yet moved into the dispatch window.
struct PendingRequest {
    state: Arc<RequestState>,
    jobs: VecDeque<(usize, StreamJob)>,
}

/// The intake queue the submitters and dispatcher share.
struct Intake {
    queue: VecDeque<PendingRequest>,
    /// Admitted-but-undispatched jobs across all queued requests.
    pending_jobs: usize,
    shutdown: bool,
}

/// Everything the submitters and the dispatcher share.
struct Shared {
    intake: Mutex<Intake>,
    /// Signalled when intake room frees up (blocking submit waits here).
    room: Condvar,
    capacity: usize,
    telemetry: TelemetrySink,
}

/// A message to the dispatcher thread.
enum Msg {
    /// One job's outcome: `(request id, job index, worker outcome)`.
    Done(u64, usize, JobOutcome),
    /// Intake changed (new request, cancellation, shutdown): re-scan.
    Wake,
}

/// The long-lived serving tier: a dispatcher thread multiplexing many
/// concurrent requests over one warm [`WorkerPool`], with bounded intake
/// and one shared dispatch window. See the [module docs](self).
pub struct Service {
    shared: Arc<Shared>,
    tx: mpsc::Sender<Msg>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the serving tier: spawns the worker pool (lazily warm from
    /// the first dispatch on) and the dispatcher thread.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        let threads = config.threads.max(1);
        let window = config
            .window
            .unwrap_or(threads * crate::exec::DEFAULT_WINDOW_FACTOR)
            .max(1);
        let capacity = config
            .intake_capacity
            .unwrap_or(window * DEFAULT_INTAKE_FACTOR)
            .max(1);
        let shared = Arc::new(Shared {
            intake: Mutex::new(Intake {
                queue: VecDeque::new(),
                pending_jobs: 0,
                shutdown: false,
            }),
            room: Condvar::new(),
            capacity,
            telemetry: config.telemetry.clone(),
        });
        let (tx, rx) = mpsc::channel::<Msg>();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let n = config.stream_length;
            std::thread::Builder::new()
                .name("sc-serve-dispatch".to_string())
                .spawn(move || dispatcher_loop(&shared, &tx, &rx, n, threads, window))
                .expect("dispatcher thread spawns")
        };
        Service {
            shared,
            tx,
            dispatcher: Some(dispatcher),
            next_id: AtomicU64::new(1),
        }
    }

    /// The sink the service records into.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.shared.telemetry
    }

    /// Blocking submit: waits until the intake queue has room for all of
    /// the request's jobs, then admits it. A request larger than the whole
    /// intake capacity is admitted once the queue is empty (temporarily
    /// exceeding the bound) so it cannot deadlock.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Expired`] if the deadline has already passed,
    /// [`SubmitError::ShutDown`] if the service is stopping. Both return
    /// the request.
    pub fn submit(&self, request: Request) -> Result<RequestHandle, SubmitError> {
        self.admit(request, true)
    }

    /// Non-blocking submit: fails fast with [`SubmitError::Rejected`] when
    /// the intake queue cannot take all of the request's jobs right now, so
    /// open-loop producers shed instead of stalling.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] on a full intake queue,
    /// [`SubmitError::Expired`] / [`SubmitError::ShutDown`] as for
    /// [`Service::submit`]. All return the request.
    pub fn try_submit(&self, request: Request) -> Result<RequestHandle, SubmitError> {
        self.admit(request, false)
    }

    fn admit(&self, request: Request, block: bool) -> Result<RequestHandle, SubmitError> {
        let telemetry = &self.shared.telemetry;
        let t_start = Instant::now();
        if request.deadline.is_some_and(|d| d <= t_start) {
            telemetry.add(Counter::RequestsExpired, 1);
            return Err(SubmitError::Expired(request));
        }
        let span = telemetry.span(Stage::ServeSubmit);
        let mut intake = self
            .shared
            .intake
            .lock()
            .expect("intake lock is never poisoned");
        loop {
            if intake.shutdown {
                drop(span);
                return Err(SubmitError::ShutDown(request));
            }
            let fits = intake.pending_jobs + request.jobs.len() <= self.shared.capacity
                || intake.pending_jobs == 0;
            if fits {
                break;
            }
            if !block {
                drop(span);
                telemetry.add(Counter::RequestsRejected, 1);
                return Err(SubmitError::Rejected(request));
            }
            intake = self
                .shared
                .room
                .wait(intake)
                .expect("intake lock is never poisoned");
            // Re-check the deadline after a blocked wait: backpressure can
            // outlast the request's budget.
            if request.deadline.is_some_and(|d| d <= Instant::now()) {
                drop(span);
                telemetry.add(Counter::RequestsExpired, 1);
                return Err(SubmitError::Expired(request));
            }
        }
        let t_admitted = Instant::now();
        let jobs = request.jobs.len();
        let state = Arc::new(RequestState {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            deadline: request.deadline,
            cancelled: AtomicBool::new(false),
            done: Mutex::new(Completion {
                results: (0..jobs).map(|_| None).collect(),
                remaining: jobs,
                verdict: (jobs == 0).then_some(Verdict::Completed),
                panic: None,
                t_start,
                t_admitted,
                t_first_dispatch: None,
                t_last_done: None,
            }),
            finished_cv: Condvar::new(),
        });
        if jobs > 0 {
            intake.queue.push_back(PendingRequest {
                state: Arc::clone(&state),
                jobs: request.jobs.into_iter().enumerate().collect(),
            });
            intake.pending_jobs += jobs;
            telemetry.gauge_set(Gauge::IntakeDepth, intake.pending_jobs as u64);
        }
        drop(intake);
        drop(span);
        telemetry.add(Counter::RequestsSubmitted, 1);
        if jobs > 0 {
            let _ = self.tx.send(Msg::Wake);
        }
        Ok(RequestHandle {
            state,
            telemetry: telemetry.clone(),
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut intake = self
                .shared
                .intake
                .lock()
                .expect("intake lock is never poisoned");
            intake.shutdown = true;
        }
        self.shared.room.notify_all();
        let _ = self.tx.send(Msg::Wake);
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// One live request's dispatcher-side bookkeeping.
struct LiveRequest {
    state: Arc<RequestState>,
    /// Jobs moved onto the pool but not yet completed.
    outstanding: usize,
}

/// The dispatcher: drains the intake round-robin straight onto the pool,
/// at most `window` jobs in flight, routes results back into each request's
/// state, and enforces deadlines and cancellation. Single-threaded by
/// design — all scheduling state is thread-local to this loop.
fn dispatcher_loop(
    shared: &Shared,
    tx: &mpsc::Sender<Msg>,
    rx: &mpsc::Receiver<Msg>,
    n: usize,
    threads: usize,
    window: usize,
) {
    let telemetry = &shared.telemetry;
    let pool = WorkerPool::with_telemetry(threads, telemetry.clone());
    let mut live: HashMap<u64, LiveRequest> = HashMap::new();
    // Jobs on the pool: moved out of intake minus completions.
    let mut in_window = 0usize;
    let set_window = |in_window: usize| {
        telemetry.gauge_set(Gauge::WindowOccupancy, in_window as u64);
        telemetry.observe(Hist::WindowOccupancy, in_window as u64);
    };
    loop {
        // Phase 1: enforce cancellation and deadlines — queued and
        // in-window requests alike. Purged requests lose their queued jobs
        // immediately; jobs already on the pool finish and their results
        // are discarded on arrival.
        let now = Instant::now();
        let expired_verdict = |state: &RequestState| {
            if state.cancelled.load(Ordering::Acquire) {
                Some(Verdict::Cancelled)
            } else {
                state
                    .deadline
                    .is_some_and(|d| d <= now)
                    .then_some(Verdict::Expired)
            }
        };
        {
            let mut intake = shared.intake.lock().expect("intake lock is never poisoned");
            let before = intake.queue.len();
            let mut kept = VecDeque::with_capacity(before);
            while let Some(pending) = intake.queue.pop_front() {
                if let Some(verdict) = expired_verdict(&pending.state) {
                    intake.pending_jobs -= pending.jobs.len();
                    finish(&pending.state, verdict, telemetry);
                } else {
                    kept.push_back(pending);
                }
            }
            let purged = kept.len() < before;
            intake.queue = kept;
            telemetry.gauge_set(Gauge::IntakeDepth, intake.pending_jobs as u64);
            drop(intake);
            if purged {
                shared.room.notify_all();
            }
        }
        for req in live.values() {
            if let Some(verdict) = expired_verdict(&req.state) {
                finish(&req.state, verdict, telemetry);
            }
        }

        // Phase 2: the dispatch pass — move intake jobs into the window,
        // round-robin across requests, and hand them to the pool once the
        // intake lock is released, so no submitter waits behind a wake-up.
        let mut ready: Vec<(u64, usize, StreamJob)> = Vec::new();
        let shutdown;
        {
            let mut span = telemetry.span_with(Stage::ServeCoalesce, 0);
            let mut intake = shared.intake.lock().expect("intake lock is never poisoned");
            shutdown = intake.shutdown;
            let t_dispatch = Instant::now();
            while in_window < window {
                let Some(mut pending) = intake.queue.pop_front() else {
                    break;
                };
                let Some((index, job)) = pending.jobs.pop_front() else {
                    continue; // drained request: drop it from the rotation
                };
                intake.pending_jobs -= 1;
                in_window += 1;
                set_window(in_window);
                let id = pending.state.id;
                live.entry(id)
                    .or_insert_with(|| LiveRequest {
                        state: Arc::clone(&pending.state),
                        outstanding: 0,
                    })
                    .outstanding += 1;
                {
                    let mut done = pending
                        .state
                        .done
                        .lock()
                        .expect("request completion lock is never poisoned");
                    if done.t_first_dispatch.is_none() {
                        done.t_first_dispatch = Some(t_dispatch);
                        telemetry.record_span_ns(
                            Stage::ServeQueueWait,
                            ns_between(done.t_admitted, t_dispatch),
                            id,
                        );
                    }
                }
                if !pending.jobs.is_empty() {
                    intake.queue.push_back(pending);
                }
                telemetry.add(Counter::JobsPulled, 1);
                ready.push((id, index, job));
            }
            telemetry.gauge_set(Gauge::IntakeDepth, intake.pending_jobs as u64);
            drop(intake);
            shared.room.notify_all();
            span.set_arg(ready.len() as u64);
        }
        for (id, index, job) in ready {
            telemetry.class_add_jobs(job.plan.plan_class(), 1);
            let tx = tx.clone();
            submit_job(&pool, n, job, telemetry, move |outcome| {
                let _ = tx.send(Msg::Done(id, index, outcome));
            });
        }

        // Phase 3: shutdown — stop admitting, fail every still-queued
        // request so its waiter unblocks, keep draining in-window jobs.
        if shutdown {
            let mut intake = shared.intake.lock().expect("intake lock is never poisoned");
            while let Some(pending) = intake.queue.pop_front() {
                intake.pending_jobs -= pending.jobs.len();
                finish(&pending.state, Verdict::ShutDown, telemetry);
            }
            drop(intake);
            shared.room.notify_all();
            if in_window == 0 {
                for req in live.values() {
                    finish(&req.state, Verdict::ShutDown, telemetry);
                }
                break;
            }
        }

        // Phase 4: wait for the next event — a result, a submission, a
        // cancellation. The bounded timeout keeps deadline enforcement live
        // even when no messages arrive.
        let msg = rx.recv_timeout(Duration::from_millis(50)).ok();
        let mut handle_msg = |msg: Msg| {
            let Msg::Done(id, index, outcome) = msg else {
                return;
            };
            in_window -= 1;
            set_window(in_window);
            let Some(req) = live.get_mut(&id) else {
                return;
            };
            req.outstanding -= 1;
            let mut done = req
                .state
                .done
                .lock()
                .expect("request completion lock is never poisoned");
            match outcome {
                Ok(result) => {
                    if result.is_err() {
                        telemetry.add(Counter::JobsFailed, 1);
                    }
                    done.results[index] = Some(result);
                    done.remaining -= 1;
                    done.t_last_done = Some(Instant::now());
                    if done.remaining == 0 && done.verdict.is_none() {
                        done.verdict = Some(Verdict::Completed);
                        telemetry.add(Counter::RequestsCompleted, 1);
                        telemetry.observe(
                            Hist::RequestLatencyNs,
                            ns_between(done.t_start, Instant::now()),
                        );
                        req.state.finished_cv.notify_all();
                    }
                }
                Err(payload) => {
                    // A worker panic: surface the payload to the waiter.
                    if done.verdict.is_none() {
                        done.verdict = Some(Verdict::Completed);
                    }
                    done.panic = Some(payload);
                    req.state.finished_cv.notify_all();
                }
            }
        };
        if let Some(msg) = msg {
            handle_msg(msg);
            // Drain whatever else is already queued before dispatching more.
            while let Ok(msg) = rx.try_recv() {
                handle_msg(msg);
            }
        }
        live.retain(|_, req| req.outstanding > 0 || !req.state.finished());
    }
}

/// Marks a request finished with the given verdict (if still unfinished),
/// waking its waiter and counting the outcome.
fn finish(state: &Arc<RequestState>, verdict: Verdict, telemetry: &TelemetrySink) {
    let mut done = state
        .done
        .lock()
        .expect("request completion lock is never poisoned");
    if done.verdict.is_none() {
        done.verdict = Some(verdict);
        match verdict {
            Verdict::Cancelled => telemetry.add(Counter::RequestsCancelled, 1),
            Verdict::Expired => telemetry.add(Counter::RequestsExpired, 1),
            Verdict::Completed | Verdict::ShutDown => {}
        }
        state.finished_cv.notify_all();
    }
}
