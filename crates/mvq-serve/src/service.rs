//! The long-lived compression service: a hand-rolled worker-thread pool
//! over std channels, a bounded priority queue for admission control, and
//! per-job error isolation.
//!
//! No async runtime is involved (the workspace vendors no tokio): workers
//! are plain `std::thread`s parked on a condvar, results travel over
//! per-job `std::sync::mpsc` channels, and backpressure is a bounded
//! queue whose `submit_one` blocks (or `try_submit_one` refuses) while
//! full. A matrix request whose blob is resident in the cache's memory
//! tier skips all of that: `enqueue` answers it before taking the
//! service lock, with an already-resolved ticket.

use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mvq_core::pipeline::{by_name, PipelineSpec};
use mvq_core::store::{ArtifactCache, CacheKey, Persist};
use mvq_core::{
    load_streamed_model, stream_compress_model, MvqError, ProgressHandle, StreamConfig,
};
use mvq_nn::Sequential;
use mvq_obs::{names as metric, Registry, Stage, Trace, TraceOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::request::{CacheMode, CompressionRequest, Priority, Work};
use crate::ticket::{CancelKind, CancelToken, JobError, JobOutcome, JobResult, Payload, Ticket};

/// Why a non-blocking submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The queue is at capacity. The request rides back in the error so
    /// the caller can retry it without rebuilding (boxed to keep the
    /// `Err` variant small on the happy path).
    QueueFull {
        /// The queue capacity that was hit.
        capacity: usize,
        /// The refused request, returned intact.
        request: Box<CompressionRequest>,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SubmitError::QueueFull { capacity, request } = self;
        write!(f, "queue full ({capacity} jobs queued): request `{}` refused", request.name())
    }
}

impl std::error::Error for SubmitError {}

/// One queued unit of work. Normal jobs keep their waiters in the shared
/// in-flight map (so identical submissions can attach); bypass jobs carry
/// their single waiter inline and are invisible to dedup.
struct QueuedJob {
    key: CacheKey,
    algo: &'static str,
    spec: PipelineSpec,
    work: Work,
    /// Model jobs only: per-layer counters shared with every ticket
    /// observing the job.
    progress: Option<ProgressHandle>,
    mode: CacheMode,
    direct: Option<Waiter>,
    /// The submitting waiter's lifecycle trace (shared `Arc`): workers
    /// stamp the execution stages (dequeue, cache probe, kernel, encode,
    /// cached) on it as the job moves through the pipeline.
    trace: Trace,
}

struct Waiter {
    name: String,
    tx: mpsc::Sender<JobResult>,
    /// Cancelling any clone marks this waiter dead; a job whose waiters
    /// are all dead is dropped at dequeue.
    cancel: Option<CancelToken>,
    /// Absolute queue deadline; past it the waiter is dead.
    deadline: Option<Instant>,
    /// This submission's lifecycle trace. The primary submitter shares
    /// its trace with the job; dedup riders carry their own (marked
    /// deduped, stamping only submit and reply).
    trace: Trace,
}

impl Waiter {
    /// Why this waiter no longer wants the job, if so.
    fn dead(&self, now: Instant) -> Option<CancelKind> {
        cancel_kind(self.cancel.as_ref(), self.deadline, now)
    }
}

/// Why a submission carrying `cancel` and `deadline` is dead at `now`,
/// if it is. Explicit cancellation wins over deadline expiry when both
/// apply.
fn cancel_kind(
    cancel: Option<&CancelToken>,
    deadline: Option<Instant>,
    now: Instant,
) -> Option<CancelKind> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Some(CancelKind::Explicit);
    }
    if deadline.is_some_and(|d| d <= now) {
        return Some(CancelKind::DeadlineExpired);
    }
    None
}

/// A heap entry pointing at a queued job. Jobs live in `State::jobs`;
/// the heap only orders (priority, seq) references, so a deduped rider
/// with a higher priority can *boost* an already-queued job by pushing a
/// second, higher-ranked reference — the job runs at the highest
/// priority any of its waiters asked for, and the outranked reference is
/// skipped as stale when popped.
#[derive(PartialEq, Eq)]
struct QueueRef {
    priority: Priority,
    seq: u64,
}

impl PartialOrd for QueueRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueRef {
    /// Max-heap order: higher priority first, then FIFO within a
    /// priority (lower sequence number = greater).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.cmp(&other.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Book-keeping for one in-flight (queued or running) non-bypass job.
struct InflightEntry {
    /// Index 0 is the submitter whose request is executing; later
    /// entries are deduped riders.
    waiters: Vec<Waiter>,
    /// `Some((seq, effective priority))` while the job is still queued —
    /// the handle riders use to boost it; `None` once a worker took it.
    queued: Option<(u64, Priority)>,
    /// The executing job's progress handle (model jobs only) — riders
    /// clone it into their tickets so every waiter observes the same
    /// per-layer counters.
    progress: Option<ProgressHandle>,
}

#[derive(Default)]
struct State {
    heap: BinaryHeap<QueueRef>,
    /// Queued jobs by sequence number; `jobs.len()` (not the heap size,
    /// which may carry stale boost references) is the admission-control
    /// queue length.
    jobs: HashMap<u64, QueuedJob>,
    inflight: HashMap<CacheKey, InflightEntry>,
    shutdown: bool,
}

impl State {
    /// Pops the highest-priority queued job, skipping references whose
    /// job was already taken via a boosted duplicate.
    fn pop_job(&mut self) -> Option<QueuedJob> {
        while let Some(r) = self.heap.pop() {
            if let Some(job) = self.jobs.remove(&r.seq) {
                if job.direct.is_none() {
                    if let Some(entry) = self.inflight.get_mut(&job.key) {
                        entry.queued = None; // running now; boosts are moot
                    }
                }
                return Some(job);
            }
        }
        None
    }

    /// Pops the highest-priority queued job whose waiters still want it,
    /// dropping cancelled/expired work on the way: a popped job whose
    /// waiters are **all** dead is discarded without running (this is the
    /// dequeue-time cancellation check — cancelled work never occupies a
    /// worker), and dead riders on an otherwise-live job are peeled off.
    /// Returns the job (if any), the dead waiters to notify — **outside**
    /// the service lock — with why each died, and how many queued jobs
    /// were discarded (each freed a queue slot, so the caller signals
    /// `space`).
    fn pop_live_job(
        &mut self,
        now: Instant,
    ) -> (Option<QueuedJob>, Vec<(Waiter, CancelKind)>, usize) {
        let mut dead: Vec<(Waiter, CancelKind)> = Vec::new();
        let mut dropped = 0;
        while let Some(mut job) = self.pop_job() {
            if let Some(waiter) = job.direct.take() {
                match waiter.dead(now) {
                    Some(kind) => {
                        dead.push((waiter, kind));
                        dropped += 1;
                        continue;
                    }
                    None => {
                        job.direct = Some(waiter);
                        return (Some(job), dead, dropped);
                    }
                }
            }
            let Some(entry) = self.inflight.get_mut(&job.key) else {
                // the entry was already removed (e.g. by a racing shutdown
                // drain); nothing waits, drop the job
                dropped += 1;
                continue;
            };
            let mut live = Vec::with_capacity(entry.waiters.len());
            for waiter in entry.waiters.drain(..) {
                match waiter.dead(now) {
                    Some(kind) => dead.push((waiter, kind)),
                    None => live.push(waiter),
                }
            }
            if live.is_empty() {
                self.inflight.remove(&job.key);
                dropped += 1;
                continue;
            }
            entry.waiters = live;
            return (Some(job), dead, dropped);
        }
        (None, dead, dropped)
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that the queue gained a job (or shutdown began).
    work: Condvar,
    /// Signals blocked submitters that the queue lost a job.
    space: Condvar,
    capacity: usize,
    cache: Arc<ArtifactCache>,
    /// The cache's metrics registry, adopted by the service so the
    /// whole serving stack (cache, queue, workers, and any network
    /// front built on top) records into one place.
    metrics: Arc<Registry>,
    seq: AtomicU64,
    /// Mirrors `State::shutdown` so the submit-time cache answer can
    /// honour shutdown without taking the service lock. The `Release`
    /// store in `shutdown()` pairs with the `Acquire` load in
    /// `resident_hit`; the flag publishes no other data.
    shutdown: AtomicBool,
}

/// The long-lived compression service: a content-addressed (optionally
/// byte-budgeted) artifact cache behind a worker pool that executes
/// [`CompressionRequest`]s with per-job outcomes.
///
/// * [`CompressionService::submit_one`] returns a [`Ticket`] immediately
///   (blocking only while the bounded queue is full);
///   [`CompressionService::try_submit_one`] refuses instead of blocking.
///   A memory-resident cache hit never waits for the queue: its ticket
///   comes back already resolved.
/// * One bad job reports a typed [`JobError`] on its own ticket; every
///   other job is untouched — there is no batch to abort.
/// * Identical non-bypass jobs in flight (same [`CacheKey`]) share one
///   compression; riders see `deduped: true`.
/// * Work is deterministic end to end: a job's artifact depends only on
///   its key (weight, spec, algorithm, kernel, seed), never on worker
///   interleaving, queue order, or cache state — a cache hit is
///   bit-identical to recompressing.
///
/// Dropping the service drains the queue gracefully: queued jobs still
/// run (on a zero-worker service they resolve to
/// [`JobError::Disconnected`] instead), then workers exit.
pub struct CompressionService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for CompressionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressionService")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

/// Configures and builds a [`CompressionService`].
pub struct ServiceBuilder {
    workers: Option<usize>,
    queue_capacity: usize,
    cache: ArtifactCache,
}

impl Default for ServiceBuilder {
    fn default() -> ServiceBuilder {
        ServiceBuilder { workers: None, queue_capacity: 1024, cache: ArtifactCache::in_memory() }
    }
}

impl ServiceBuilder {
    /// Worker thread count. Defaults to the machine's available
    /// parallelism. `0` is allowed and means *no execution*: jobs queue
    /// (useful for deterministic admission-control tests) and resolve to
    /// [`JobError::Disconnected`] when the service drops.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Bound on *queued* (not yet running) jobs; `submit_one` blocks and
    /// `try_submit_one` refuses while the queue is full. Requests answered
    /// from the cache's memory tier at submit never occupy a slot, so a
    /// full queue does not hold them up. Must be ≥ 1.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// The cache the service serves from and stores into; it carries its
    /// own byte budget and, when built with
    /// [`ArtifactCache::with_dir`], its own directory. Defaults to an
    /// unbounded [`ArtifactCache::in_memory`].
    pub fn cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = cache;
        self
    }

    /// Builds the service and spawns its workers.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] for a zero queue capacity or
    /// when a worker thread cannot be spawned.
    pub fn build(self) -> Result<CompressionService, MvqError> {
        if self.queue_capacity == 0 {
            return Err(MvqError::InvalidConfig(
                "service queue capacity must be at least 1".into(),
            ));
        }
        let workers = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
        let cache = Arc::new(self.cache);
        let metrics = Arc::clone(cache.registry());
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity: self.queue_capacity,
            cache,
            metrics,
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mvq-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| {
                        MvqError::InvalidConfig(format!("cannot spawn service worker: {e}"))
                    })
            })
            .collect::<Result<Vec<_>, MvqError>>()?;
        Ok(CompressionService { shared, workers: handles })
    }
}

impl CompressionService {
    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// The underlying cache (for stats and direct lookups).
    pub fn cache(&self) -> &ArtifactCache {
        &self.shared.cache
    }

    /// The metrics registry (and completed-trace ring) shared by the
    /// cache and the service. A network front built over this service
    /// adopts the same registry, so one snapshot covers the whole
    /// serving stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.metrics
    }

    /// Worker threads executing jobs.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The bound on queued jobs.
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Jobs currently queued (excludes running jobs).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("service lock").jobs.len()
    }

    /// Begins shutdown without waiting for the workers: every waiter is
    /// woken — workers to drain the queue and exit, submitters blocked on
    /// a full queue to resolve their tickets to [`JobError::Disconnected`].
    /// Submissions after this point resolve to `Disconnected` immediately.
    /// Idempotent; [`Drop`] calls it before joining the workers.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.state.lock().expect("service lock").shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    /// Submits one request, blocking while the queue is full, and returns
    /// its [`Ticket`].
    ///
    /// A [`Work::Matrix`] request that reads the cache (any mode but
    /// [`CacheMode::Bypass`]) and whose blob is resident in the cache's
    /// memory tier is answered here, before the service lock is taken:
    /// the ticket comes back already resolved (`from_cache: true`), its
    /// trace is `Submitted → CacheProbe → Replied`, and a full queue never
    /// blocks it. A request already cancelled or past its deadline, or
    /// submitted after [`CompressionService::shutdown`], is never answered
    /// this way; neither are disk-tier hits, misses and remembered
    /// failures, which a worker resolves.
    ///
    /// Otherwise the request queues. An identical non-bypass job already
    /// in flight is joined instead of queued (the rider's outcome reports
    /// `deduped: true`), so duplicates are immune to backpressure; a
    /// rider with a higher priority boosts the queued job to it, so a
    /// `High` request never waits behind `Normal` work just because a
    /// `Low` duplicate arrived first.
    ///
    /// A [`Work::Model`] request streams the model's convs through the
    /// bounded-window pipeline ([`mvq_core::stream_compress_model`]),
    /// spilling each finished layer to the service's cache;
    /// [`Ticket::progress`] observes the per-layer counters while the job
    /// runs (riders share the executing job's counters), and the outcome
    /// decodes via [`JobOutcome::model_artifacts`].
    pub fn submit_one(&self, request: CompressionRequest) -> Ticket {
        match self.enqueue(request, true) {
            Ok(ticket) => ticket,
            Err(_) => {
                // lint:allow(panic-path) -- enqueue(block = true) waits on the queue condvar instead of returning QueueFull; this arm only satisfies the shared signature
                unreachable!("blocking submission never reports a full queue")
            }
        }
    }

    /// Non-blocking [`CompressionService::submit_one`]: refuses with
    /// [`SubmitError::QueueFull`] — handing the request back — instead of
    /// waiting for queue space. A memory-resident cache hit is answered
    /// at submit and never refused, however full the queue is.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when the queue is at capacity
    /// and the request is not answered from memory.
    pub fn try_submit_one(&self, request: CompressionRequest) -> Result<Ticket, SubmitError> {
        self.enqueue(request, false)
    }

    fn enqueue(&self, request: CompressionRequest, block: bool) -> Result<Ticket, SubmitError> {
        let trace = Trace::begin(request.name());
        let key = request.cache_key();
        // lint:allow(unbounded-channel) -- per-job result channel: carries at most one message per waiter, and queue depth itself is bounded by ServiceConfig
        let (tx, rx) = mpsc::channel();
        if let Some(bytes) = self.resident_hit(&request, &key) {
            trace.stamp(Stage::CacheProbe);
            let name = request.name().to_string();
            let outcome =
                JobOutcome::new(name.clone(), key.clone(), Payload::Bytes(bytes), true, false);
            // settle every metric before the result is sent, as `execute` does
            let metrics = &self.shared.metrics;
            metrics.counter(metric::SERVE_JOBS_SUBMITTED).inc();
            metrics.counter(metric::SERVE_JOBS_COMPLETED).inc();
            trace.stamp(Stage::Replied);
            if let Some(snap) = trace.finish(TraceOutcome::Ok) {
                metrics.traces().push(snap);
            }
            metrics.histogram(metric::SERVE_HIT_LATENCY_US).record(trace.elapsed_us());
            let _ = tx.send(Ok(outcome));
            return Ok(Ticket::new(name, key, rx, None, trace));
        }
        // a model ticket observes progress from submission on, before any
        // worker has picked the job up
        let progress = matches!(request.work(), Work::Model { .. }).then(ProgressHandle::new);
        let mut state = self.shared.state.lock().expect("service lock");
        loop {
            // checked at the loop head so it covers both fresh submissions
            // and submitters woken from the `space` wait by a shutdown
            if state.shutdown {
                drop(state);
                self.shared.metrics.counter(metric::SERVE_JOBS_SUBMITTED).inc();
                let name = request.name().to_string();
                let _ = tx.send(Err(JobError::Disconnected { name: name.clone() }));
                trace.stamp(Stage::Replied);
                if let Some(snap) = trace.finish(TraceOutcome::Error) {
                    self.shared.metrics.traces().push(snap);
                }
                return Ok(Ticket::new(name, key, rx, progress, trace));
            }
            if request.cache_mode().dedupes() {
                if let Some(entry) = state.inflight.get_mut(&key) {
                    let name = request.name().to_string();
                    trace.mark_deduped();
                    entry.waiters.push(Waiter {
                        name: name.clone(),
                        tx,
                        cancel: request.cancel().cloned(),
                        deadline: request.deadline(),
                        trace: trace.clone(),
                    });
                    let progress = entry.progress.clone();
                    // boost a still-queued job to the rider's priority
                    if let Some((seq, current)) = entry.queued {
                        if request.priority() > current {
                            entry.queued = Some((seq, request.priority()));
                            state.heap.push(QueueRef { priority: request.priority(), seq });
                        }
                    }
                    drop(state);
                    self.shared.metrics.counter(metric::SERVE_JOBS_SUBMITTED).inc();
                    self.shared.metrics.counter(metric::SERVE_JOBS_DEDUPED).inc();
                    return Ok(Ticket::new(name, key, rx, progress, trace));
                }
            }
            if state.jobs.len() < self.shared.capacity {
                break;
            }
            if !block {
                return Err(SubmitError::QueueFull {
                    capacity: self.shared.capacity,
                    request: Box::new(request),
                });
            }
            state = self.shared.space.wait(state).expect("service lock");
        }
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let priority = request.priority();
        let mode = request.cache_mode();
        let (name, work, algo, spec, deadline, cancel) = request.into_parts();
        let waiter = Waiter { name: name.clone(), tx, cancel, deadline, trace: trace.clone() };
        let direct = if mode.dedupes() {
            state.inflight.insert(
                key.clone(),
                InflightEntry {
                    waiters: vec![waiter],
                    queued: Some((seq, priority)),
                    progress: progress.clone(),
                },
            );
            None
        } else {
            Some(waiter)
        };
        trace.stamp(Stage::Queued);
        state.jobs.insert(
            seq,
            QueuedJob {
                key: key.clone(),
                algo,
                spec,
                work,
                progress: progress.clone(),
                mode,
                direct,
                trace: trace.clone(),
            },
        );
        state.heap.push(QueueRef { priority, seq });
        drop(state);
        self.shared.metrics.counter(metric::SERVE_JOBS_SUBMITTED).inc();
        self.shared.work.notify_one();
        Ok(Ticket::new(name, key, rx, progress, trace))
    }

    /// The submit-time cache answer: the blob for a live, cache-reading
    /// matrix request whose key is resident in memory, taken without the
    /// service lock. Everything else — misses, disk-tier hits, bypass and
    /// model jobs, remembered failures, requests already cancelled or
    /// expired, and any request after shutdown — returns `None` and
    /// queues as usual, so the worker's probe is the one that counts a
    /// miss, reads the disk and quarantines a corrupt blob.
    fn resident_hit(&self, request: &CompressionRequest, key: &CacheKey) -> Option<Arc<[u8]>> {
        if !matches!(request.work(), Work::Matrix(_))
            || !request.cache_mode().reads_cache()
            || self.shared.shutdown.load(Ordering::Acquire)
            || cancel_kind(request.cancel(), request.deadline(), Instant::now()).is_some()
        {
            return None;
        }
        self.shared.cache.get_resident(key)
    }
}

impl Drop for CompressionService {
    /// Graceful drain: workers finish every queued job, then exit. With
    /// zero workers the queue is abandoned and outstanding tickets
    /// resolve to [`JobError::Disconnected`]. Submitters blocked on a
    /// full queue are woken too, so drop never strands a thread in
    /// `submit_one`.
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (job, dead) = {
            let mut state = shared.state.lock().expect("service lock");
            loop {
                let (job, dead, dropped) = state.pop_live_job(Instant::now());
                if dropped > 0 {
                    // each discarded job freed a queue slot
                    shared.space.notify_all();
                } else if job.is_some() {
                    shared.space.notify_one();
                }
                if job.is_some() || !dead.is_empty() {
                    break (job, dead);
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("service lock");
            }
        };
        // notify outside the lock: a waiter's receiver may be dropped, and
        // channel sends must never extend the queue critical section
        for (waiter, kind) in dead {
            waiter.trace.stamp(Stage::Replied);
            let outcome = match kind {
                CancelKind::Explicit => TraceOutcome::CancelledExplicit,
                CancelKind::DeadlineExpired => TraceOutcome::CancelledDeadline,
            };
            if let Some(snap) = waiter.trace.finish(outcome) {
                shared.metrics.traces().push(snap);
            }
            shared.metrics.counter(metric::SERVE_JOBS_CANCELLED).inc();
            let _ = waiter.tx.send(Err(JobError::Cancelled { name: waiter.name, kind }));
        }
        if let Some(job) = job {
            job.trace.stamp(Stage::Dequeued);
            if let (Some(q), Some(d)) =
                (job.trace.stage_us(Stage::Queued), job.trace.stage_us(Stage::Dequeued))
            {
                shared.metrics.histogram(metric::SERVE_QUEUE_WAIT_US).record(d.saturating_sub(q));
            }
            execute(shared, job);
        }
    }
}

/// What went wrong, before it is fanned out to (possibly several) waiters
/// with their own names.
#[derive(Clone)]
enum FailureKind {
    Compression(MvqError),
    Cache(MvqError),
    Panicked(String),
}

impl FailureKind {
    fn into_job_error(self, name: String) -> JobError {
        match self {
            FailureKind::Compression(source) => JobError::Compression { name, source },
            FailureKind::Cache(source) => JobError::Cache { name, source },
            FailureKind::Panicked(detail) => JobError::Panicked { name, detail },
        }
    }
}

fn execute(shared: &Shared, job: QueuedJob) {
    let result: Result<(Payload, bool), FailureKind> = run_job(shared, &job);
    let from_cache = matches!(&result, Ok((_, true)));
    // deliver to every waiter; the first is the submitter whose request
    // executed, later ones are deduped riders
    let waiters = match job.direct {
        Some(waiter) => vec![waiter],
        None => shared
            .state
            .lock()
            .expect("service lock")
            .inflight
            .remove(&job.key)
            .map(|entry| entry.waiters)
            .unwrap_or_default(),
    };
    let outcome = if result.is_ok() { TraceOutcome::Ok } else { TraceOutcome::Error };
    // settle ALL accounting (traces, counters, histograms) before any
    // waiter is notified: the instant a `tx.send` lands, `Ticket::wait`
    // returns and the caller may read the registry — every metric this
    // job owes must already be there
    let notifications: Vec<_> = waiters
        .into_iter()
        .enumerate()
        .map(|(i, waiter)| {
            let Waiter { name, tx, trace, .. } = waiter;
            let message = match &result {
                // cloning a `Payload::Bytes` clones the `Arc`, not the
                // blob — every rider shares the one validated allocation
                Ok((payload, from_cache)) => {
                    Ok(JobOutcome::new(name, job.key.clone(), payload.clone(), *from_cache, i > 0))
                }
                Err(kind) => Err(kind.clone().into_job_error(name)),
            };
            trace.stamp(Stage::Replied);
            if let Some(snap) = trace.finish(outcome) {
                shared.metrics.traces().push(snap);
            }
            (tx, message)
        })
        .collect();
    shared.metrics.counter(metric::SERVE_JOBS_COMPLETED).inc();
    // the primary waiter shares the job trace, so its reply stamp dates
    // the end of the run (a peeled-dead primary leaves the stamp from
    // its cancellation notice; the saturating diff reads as 0)
    if let (Some(d), Some(r)) =
        (job.trace.stage_us(Stage::Dequeued), job.trace.stage_us(Stage::Replied))
    {
        shared.metrics.histogram(metric::SERVE_JOB_RUN_US).record(r.saturating_sub(d));
    }
    if from_cache {
        shared.metrics.histogram(metric::SERVE_HIT_LATENCY_US).record(job.trace.elapsed_us());
    }
    for (tx, message) in notifications {
        // a dropped ticket abandons its result; that is not an error
        let _ = tx.send(message);
    }
}

/// Runs one job: cache lookup (per the job's mode), fresh compression on
/// a miss, cache store. The payload is paired with a `from_cache` flag.
///
/// Cache-touching jobs travel as encoded bytes end to end: a hit hands
/// back the cache's shared `Arc` blob, a miss encodes once and shares
/// that same blob with the cache and every waiter. Only bypass jobs —
/// which never encode — carry a decoded artifact.
fn run_job(shared: &Shared, job: &QueuedJob) -> Result<(Payload, bool), FailureKind> {
    let weight = match &job.work {
        Work::Matrix(weight) => weight,
        Work::Model { model, stream } => return run_model_job(shared, job, model, stream),
    };
    if job.mode.reads_cache() {
        let probe = shared.cache.get_raw(&job.key);
        job.trace.stamp(Stage::CacheProbe);
        match probe {
            Ok(Some(bytes)) => return Ok((Payload::Bytes(bytes), true)),
            Ok(None) => {}
            Err(e) => return Err(FailureKind::Cache(e)),
        }
        // a deterministic job's remembered failure is as authoritative as
        // a cached artifact: fail fast instead of re-running the pipeline
        if let Some(remembered) = shared.cache.failure(&job.key) {
            return Err(FailureKind::Compression(remembered));
        }
    }
    let compressor = by_name(job.algo, &job.spec).map_err(FailureKind::Compression)?;
    let compressed = match catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(job.key.seed);
        compressor.compress_matrix(weight, &mut rng)
    }))
    .map_err(|payload| FailureKind::Panicked(panic_detail(payload)))?
    {
        Ok(compressed) => compressed,
        Err(e) => {
            // seeded pipelines fail deterministically; remember the
            // failure so identical requests short-circuit (a later
            // successful put for the key heals it)
            if job.mode.writes_cache() {
                shared.cache.note_failure(&job.key, &e);
            }
            return Err(FailureKind::Compression(e));
        }
    };
    job.trace.stamp(Stage::Kernel);
    if job.mode.writes_cache() {
        let bytes: Arc<[u8]> = match compressed.to_bytes() {
            Ok(bytes) => bytes.into(),
            Err(e) => return Err(FailureKind::Compression(e)),
        };
        job.trace.stamp(Stage::Encode);
        shared.cache.put_raw(&job.key, Arc::clone(&bytes)).map_err(FailureKind::Cache)?;
        job.trace.stamp(Stage::Cached);
        return Ok((Payload::Bytes(bytes), false));
    }
    Ok((Payload::Artifact(compressed), false))
}

/// Runs one whole-model streaming job. Model jobs are always read-write
/// (enforced at request build): a hit on the stored
/// [`mvq_core::store::ModelIndex`] (with every layer blob still resident)
/// reassembles from the cache; a miss streams the model through
/// [`stream_compress_model`], which spills each layer as its own blob,
/// then assembles the payload from what was just spilled.
fn run_model_job(
    shared: &Shared,
    job: &QueuedJob,
    model: &Sequential,
    stream: &StreamConfig,
) -> Result<(Payload, bool), FailureKind> {
    let probe = load_streamed_model(&shared.cache, &job.key);
    job.trace.stamp(Stage::CacheProbe);
    match probe {
        Ok(Some(arts)) => {
            let bytes: Arc<[u8]> = arts.to_bytes().map_err(FailureKind::Cache)?.into();
            return Ok((Payload::Bytes(bytes), true));
        }
        Ok(None) => {}
        Err(e) => return Err(FailureKind::Cache(e)),
    }
    if let Some(remembered) = shared.cache.failure(&job.key) {
        return Err(FailureKind::Compression(remembered));
    }
    let compressor = by_name(job.algo, &job.spec).map_err(FailureKind::Compression)?;
    match catch_unwind(AssertUnwindSafe(|| {
        stream_compress_model(
            compressor.as_ref(),
            model,
            &shared.cache,
            &job.key,
            stream,
            job.progress.as_ref(),
        )
    }))
    .map_err(|payload| FailureKind::Panicked(panic_detail(payload)))?
    {
        Ok(_report) => {}
        Err(e) => {
            shared.cache.note_failure(&job.key, &e);
            return Err(FailureKind::Compression(e));
        }
    }
    job.trace.stamp(Stage::Kernel);
    match load_streamed_model(&shared.cache, &job.key) {
        Ok(Some(arts)) => {
            let bytes: Arc<[u8]> = arts.to_bytes().map_err(FailureKind::Cache)?.into();
            // the stream spilled every layer blob as it finished, so by
            // the time assembly succeeds the result is both encoded and
            // cache-resident
            job.trace.stamp(Stage::Encode);
            job.trace.stamp(Stage::Cached);
            Ok((Payload::Bytes(bytes), false))
        }
        // the cache budget evicted layers faster than the job streamed
        // them — loud, because a "successful" job must carry its result
        Ok(None) => Err(FailureKind::Cache(MvqError::Codec(
            "streamed layer blobs were evicted before the result could be assembled; \
             raise the cache budget above the model's compressed size"
                .into(),
        ))),
        Err(e) => Err(FailureKind::Cache(e)),
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_tensor::Tensor;

    /// Queues a matrix job whose key carries `seq` as its seed.
    fn push_queued(state: &mut State, seq: u64, priority: Priority, direct: Option<Waiter>) {
        let weight = Tensor::ones(vec![16, 16]);
        let spec = PipelineSpec::default();
        let key = CacheKey::new("mvq", &weight, &spec, seq).unwrap();
        let mode = if direct.is_some() { CacheMode::Bypass } else { CacheMode::ReadWrite };
        let work = Work::Matrix(weight);
        let trace = Trace::begin("test");
        let job = QueuedJob { key, algo: "mvq", spec, work, progress: None, mode, direct, trace };
        state.jobs.insert(seq, job);
        state.heap.push(QueueRef { priority, seq });
    }

    fn push_job(state: &mut State, seq: u64, priority: Priority) {
        push_queued(state, seq, priority, None);
    }

    /// A waiter carrying `cancel`, plus the receiver its result lands on.
    fn waiter(name: &str, cancel: Option<CancelToken>) -> (Waiter, mpsc::Receiver<JobResult>) {
        // lint:allow(unbounded-channel) -- test-only per-job result channel, one message
        let (tx, rx) = mpsc::channel();
        (Waiter { name: name.into(), tx, cancel, deadline: None, trace: Trace::begin(name) }, rx)
    }

    /// Queues an in-flight (dedup-visible) job at seq 0 whose waiters are
    /// `waiters`, returning its key.
    fn push_inflight(state: &mut State, seed: u64, waiters: Vec<Waiter>) -> CacheKey {
        push_job(state, 0, Priority::Normal);
        let job = state.jobs.get_mut(&0).unwrap();
        job.key.seed = seed;
        let key = job.key.clone();
        let entry = InflightEntry { waiters, queued: Some((0, Priority::Normal)), progress: None };
        state.inflight.insert(key.clone(), entry);
        key
    }

    #[test]
    fn queue_pops_by_priority_then_fifo() {
        let mut state = State::default();
        push_job(&mut state, 0, Priority::Low);
        push_job(&mut state, 1, Priority::Normal);
        push_job(&mut state, 2, Priority::High);
        push_job(&mut state, 3, Priority::Normal);
        let order: Vec<u64> = std::iter::from_fn(|| state.pop_job().map(|j| j.key.seed)).collect();
        assert_eq!(order, vec![2, 1, 3, 0], "high first, FIFO within priority, low last");
    }

    #[test]
    fn boost_reference_outruns_the_original_priority() {
        // a Low job boosted to High (as a high-priority dedup rider would)
        // must pop before Normal work, and its stale Low reference must be
        // skipped rather than re-running the job
        let mut state = State::default();
        push_job(&mut state, 0, Priority::Low);
        push_job(&mut state, 1, Priority::Normal);
        state.heap.push(QueueRef { priority: Priority::High, seq: 0 });
        let order: Vec<u64> = std::iter::from_fn(|| state.pop_job().map(|j| j.key.seed)).collect();
        assert_eq!(order, vec![0, 1], "boosted job first, stale ref skipped");
        assert!(state.heap.is_empty() || state.jobs.is_empty());
    }

    /// Queues a bypass (direct-waiter) job carrying `cancel`/`deadline`,
    /// returning the waiter's result receiver.
    fn push_direct_job(
        state: &mut State,
        seq: u64,
        cancel: Option<CancelToken>,
        deadline: Option<Instant>,
    ) -> mpsc::Receiver<JobResult> {
        let (mut waiter, rx) = waiter(&format!("job-{seq}"), cancel);
        waiter.deadline = deadline;
        push_queued(state, seq, Priority::Normal, Some(waiter));
        rx
    }

    #[test]
    fn pop_live_job_discards_cancelled_and_expired_work_at_dequeue() {
        let mut state = State::default();
        let now = Instant::now();
        let token = CancelToken::new();
        let _rx_cancelled = push_direct_job(&mut state, 0, Some(token.clone()), None);
        let _rx_expired =
            push_direct_job(&mut state, 1, None, Some(now - std::time::Duration::from_millis(1)));
        let _rx_live =
            push_direct_job(&mut state, 2, None, Some(now + std::time::Duration::from_secs(60)));
        token.cancel();

        let (job, dead, dropped) = state.pop_live_job(now);
        let job = job.expect("the live job must still pop");
        assert_eq!(job.key.seed, 2, "only the un-cancelled, un-expired job runs");
        assert_eq!(dropped, 2, "both dead jobs freed their queue slots");
        let kinds: Vec<(String, CancelKind)> = dead.into_iter().map(|(w, k)| (w.name, k)).collect();
        assert_eq!(
            kinds,
            vec![
                ("job-0".to_string(), CancelKind::Explicit),
                ("job-1".to_string(), CancelKind::DeadlineExpired),
            ]
        );
        assert!(state.jobs.is_empty());
    }

    #[test]
    fn pop_live_job_peels_dead_riders_off_a_live_dedup_job() {
        let mut state = State::default();
        let now = Instant::now();
        let token = CancelToken::new();
        token.cancel();
        let (live, _rx_live) = waiter("live", None);
        let (dead_rider, _rx_dead) = waiter("dead-rider", Some(token));
        let key = push_inflight(&mut state, 7, vec![live, dead_rider]);

        let (job, dead, dropped) = state.pop_live_job(now);
        assert!(job.is_some(), "a job with a live waiter must still run");
        assert_eq!(dropped, 0);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].0.name, "dead-rider");
        assert_eq!(dead[0].1, CancelKind::Explicit);
        let entry = state.inflight.get(&key).expect("entry survives for the live waiter");
        assert_eq!(entry.waiters.len(), 1);
        assert_eq!(entry.waiters[0].name, "live");
    }

    #[test]
    fn pop_live_job_drops_a_dedup_job_whose_waiters_all_died() {
        let mut state = State::default();
        let token = CancelToken::new();
        token.cancel();
        let (gone, rx) = waiter("gone", Some(token));
        let key = push_inflight(&mut state, 9, vec![gone]);

        let (job, dead, dropped) = state.pop_live_job(Instant::now());
        assert!(job.is_none(), "an all-dead job must never reach a worker");
        assert_eq!(dropped, 1);
        assert_eq!(dead.len(), 1);
        assert!(!state.inflight.contains_key(&key), "the dead entry must be removed");
        // the worker loop sends the cancellation to the dead waiter
        let (waiter, kind) = dead.into_iter().next().unwrap();
        let _ = waiter.tx.send(Err(JobError::Cancelled { name: waiter.name, kind }));
        match rx.recv().unwrap() {
            Err(JobError::Cancelled { kind: CancelKind::Explicit, .. }) => {}
            other => panic!("expected Cancelled(Explicit), got {other:?}"),
        }
    }
}
