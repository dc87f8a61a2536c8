//! Tickets: per-job result handles, outcomes, cancellation tokens, and
//! typed job errors.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mvq_core::store::{CacheKey, Persist};
use mvq_core::{CompressedArtifact, ModelArtifacts, MvqError, Progress, ProgressHandle};
use mvq_obs::Trace;

/// A shared cancellation flag for one (or several) submitted jobs.
///
/// Clones share the flag: the network layer keeps one clone per wire
/// request and hands another to the request builder
/// ([`crate::CompressionRequestBuilder::cancel_token`]); cancelling the
/// token marks the job's waiter dead, and the worker pool drops a job
/// whose waiters are all dead **at dequeue** — cancelled work never
/// occupies a worker. A job already running is not interrupted (its
/// result is simply delivered; dedup riders may still want it).
///
/// Cancellation is one-way and idempotent: once cancelled, a token
/// stays cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Marks the token cancelled. Idempotent; safe to call after the
    /// job completed (the completed result is simply delivered).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Why a queued job was dropped before reaching a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// The job's [`CancelToken`] was cancelled (e.g. its network client
    /// disconnected) while the job was still queued.
    Explicit,
    /// The job's deadline passed while it was still queued.
    DeadlineExpired,
}

/// How a job's result is carried to its waiters.
///
/// The hot path is [`Payload::Bytes`]: one validated, encoded `Arc` blob
/// shared by the cache and every rider — a waiter pays for a decode only
/// if it asks for [`JobOutcome::artifact`]. [`Payload::Artifact`] exists
/// for cache-bypassing jobs, whose result was never encoded.
#[derive(Clone)]
pub(crate) enum Payload {
    /// Validated encoded blob bytes, shared zero-copy.
    Bytes(Arc<[u8]>),
    /// A decoded artifact (bypass mode only — nothing was encoded).
    Artifact(CompressedArtifact),
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Bytes(b) => write!(f, "Payload::Bytes({} bytes)", b.len()),
            Payload::Artifact(_) => write!(f, "Payload::Artifact(..)"),
        }
    }
}

/// The served result of one job.
///
/// The result travels as encoded bytes (shared zero-copy between the
/// cache and every deduplicated waiter); decoding happens only when a
/// caller asks for [`JobOutcome::artifact`].
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's label, as submitted.
    pub name: String,
    /// The content address the job resolved to.
    pub key: CacheKey,
    /// The carried result.
    payload: Payload,
    /// True when the artifact came from the cache rather than a fresh
    /// compression.
    pub from_cache: bool,
    /// True when this job shared an identical in-flight job's compression
    /// (same [`CacheKey`]) instead of running its own.
    pub deduped: bool,
}

impl JobOutcome {
    pub(crate) fn new(
        name: String,
        key: CacheKey,
        payload: Payload,
        from_cache: bool,
        deduped: bool,
    ) -> JobOutcome {
        JobOutcome { name, key, payload, from_cache, deduped }
    }

    /// The encoded blob bytes this outcome carries, when it travelled
    /// encoded (every cached or cache-written job does). `None` only for
    /// cache-bypassing jobs. This is the zero-copy accessor: the `Arc`
    /// is shared with the cache and with every deduplicated waiter.
    pub fn raw_bytes(&self) -> Option<&Arc<[u8]>> {
        match &self.payload {
            Payload::Bytes(bytes) => Some(bytes),
            Payload::Artifact(_) => None,
        }
    }

    /// Decodes (or clones) the compressed artifact. Decode-per-call by
    /// design — hot consumers that only need the durable bytes should
    /// use [`JobOutcome::raw_bytes`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when the carried bytes fail to decode
    /// (they were validated at admission, so this indicates memory
    /// corruption after the fact).
    pub fn artifact(&self) -> Result<CompressedArtifact, MvqError> {
        match &self.payload {
            Payload::Bytes(bytes) => CompressedArtifact::from_bytes(bytes),
            Payload::Artifact(artifact) => Ok(artifact.clone()),
        }
    }

    /// Consumes the outcome, decoding the artifact (avoids the clone of
    /// [`JobOutcome::artifact`] for bypass jobs).
    ///
    /// # Errors
    ///
    /// As [`JobOutcome::artifact`].
    pub fn into_artifact(self) -> Result<CompressedArtifact, MvqError> {
        match self.payload {
            Payload::Bytes(bytes) => CompressedArtifact::from_bytes(&bytes),
            Payload::Artifact(artifact) => Ok(artifact),
        }
    }

    /// Decodes the assembled [`ModelArtifacts`] of a whole-model
    /// (streaming) job — a [`crate::Work::Model`] request. This materializes
    /// every layer at once; callers that want to stay bounded should read
    /// the per-layer blobs from the service's cache instead
    /// (`key.layer_key(conv_index)`).
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::Codec`] when the outcome does not carry a
    /// model (it came from a per-matrix job) or the bytes fail to decode.
    pub fn model_artifacts(&self) -> Result<ModelArtifacts, MvqError> {
        match &self.payload {
            Payload::Bytes(bytes) => ModelArtifacts::from_bytes(bytes),
            Payload::Artifact(_) => Err(MvqError::Codec(
                "outcome carries a single compressed matrix, not a model".into(),
            )),
        }
    }
}

/// Why one job failed. Errors are per job: a failing job never aborts
/// the queue, the worker pool, or any other job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The compression itself failed (bad data for the spec, degenerate
    /// weights, …).
    Compression {
        /// The failing job's label.
        name: String,
        /// The underlying pipeline error.
        source: MvqError,
    },
    /// The artifact cache failed the job — a corrupt stored blob or a
    /// failed disk write. Loud by design: a poisoned cache entry must
    /// never be silently recompressed over.
    Cache {
        /// The failing job's label.
        name: String,
        /// The underlying codec/IO error.
        source: MvqError,
    },
    /// The compression panicked. The panic is contained to this job; the
    /// worker thread survives.
    Panicked {
        /// The failing job's label.
        name: String,
        /// The panic payload, best-effort stringified.
        detail: String,
    },
    /// The service shut down before the job produced a result: the job
    /// was still queued when the service dropped (or was explicitly
    /// [`crate::CompressionService::shutdown`] down), or it was submitted
    /// after shutdown.
    Disconnected {
        /// The abandoned job's label.
        name: String,
    },
    /// The job was dropped at dequeue, before any work ran: its
    /// [`CancelToken`] was cancelled or its deadline passed while it was
    /// still queued. Cancelled work never occupies a worker.
    Cancelled {
        /// The cancelled job's label.
        name: String,
        /// Whether the token or the deadline killed it.
        kind: CancelKind,
    },
}

impl JobError {
    /// The label of the job that failed.
    pub fn name(&self) -> &str {
        match self {
            JobError::Compression { name, .. }
            | JobError::Cache { name, .. }
            | JobError::Panicked { name, .. }
            | JobError::Disconnected { name }
            | JobError::Cancelled { name, .. } => name,
        }
    }

    /// The underlying [`MvqError`], when the failure wraps one.
    pub fn mvq_error(&self) -> Option<&MvqError> {
        match self {
            JobError::Compression { source, .. } | JobError::Cache { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Compression { name, source } => {
                write!(f, "job `{name}`: compression failed: {source}")
            }
            JobError::Cache { name, source } => write!(f, "job `{name}`: cache failed: {source}"),
            JobError::Panicked { name, detail } => write!(f, "job `{name}` panicked: {detail}"),
            JobError::Disconnected { name } => {
                write!(f, "job `{name}`: service shut down before the job completed")
            }
            JobError::Cancelled { name, kind: CancelKind::Explicit } => {
                write!(f, "job `{name}`: cancelled while queued")
            }
            JobError::Cancelled { name, kind: CancelKind::DeadlineExpired } => {
                write!(f, "job `{name}`: deadline expired while queued")
            }
        }
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.mvq_error().map(|e| e as &(dyn Error + 'static))
    }
}

/// What a [`Ticket`] resolves to.
pub type JobResult = Result<JobOutcome, JobError>;

/// A handle to one submitted job. Obtain from
/// [`crate::CompressionService::submit_one`]; redeem with [`Ticket::wait`]
/// (blocking) or poll with [`Ticket::try_poll`].
///
/// Dropping a ticket abandons the result but never the work: the job
/// still runs (and, cache permitting, its artifact is stored).
#[derive(Debug)]
pub struct Ticket {
    name: String,
    key: CacheKey,
    rx: mpsc::Receiver<JobResult>,
    done: Option<JobResult>,
    progress: Option<ProgressHandle>,
    trace: Trace,
}

impl Ticket {
    pub(crate) fn new(
        name: String,
        key: CacheKey,
        rx: mpsc::Receiver<JobResult>,
        progress: Option<ProgressHandle>,
        trace: Trace,
    ) -> Ticket {
        Ticket { name, key, rx, done: None, progress, trace }
    }

    /// The submitted job's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The content address the job resolved to — stable before the job
    /// runs, so callers can correlate tickets with cache entries.
    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// Per-layer progress of a whole-model (streaming) job: `None` for
    /// per-matrix jobs, `Some` from the moment of submission for model
    /// jobs. `layers_total` is `0` until a worker starts streaming, and
    /// stays `0` for a job answered from the cache (nothing streamed).
    /// Poll freely — the snapshot is two relaxed atomic loads.
    pub fn progress(&self) -> Option<Progress> {
        self.progress.as_ref().map(ProgressHandle::snapshot)
    }

    /// This submission's lifecycle trace: monotonic µs stage stamps
    /// (submitted → queued → … → replied) recorded as the job moves
    /// through the serving stack. Live — poll [`mvq_obs::Trace::snapshot`]
    /// while the job runs, or read the completed trace from the service
    /// registry's [`mvq_obs::TraceRing`] after it resolves. A dedup
    /// rider's trace is marked [`mvq_obs::Trace::deduped`] and only
    /// stamps submit and reply (the shared job's trace carries the
    /// execution stages). A hit answered from memory at submit never
    /// queues: its trace is `Submitted → CacheProbe → Replied`, already
    /// finished when the ticket is returned.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(mut self) -> JobResult {
        if let Some(done) = self.done.take() {
            return done;
        }
        self.rx.recv().unwrap_or_else(|_| {
            Err(JobError::Disconnected { name: std::mem::take(&mut self.name) })
        })
    }

    /// Blocks until the job finishes or `timeout` elapses. On timeout
    /// the ticket rides back in the `Err`, still redeemable: the job
    /// keeps running, and the caller can [`Ticket::wait`] again, poll,
    /// cancel the job's [`CancelToken`], or drop the ticket — this is
    /// how a wire connection honors a client deadline without
    /// abandoning the result channel.
    ///
    /// # Errors
    ///
    /// Returns the ticket itself when the job has not finished within
    /// `timeout`.
    // The large Err IS the API: the unredeemed ticket rides back to the
    // caller by value, so timing out can never lose the result channel.
    #[allow(clippy::result_large_err)]
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<JobResult, Ticket> {
        if let Some(done) = self.done.take() {
            return Ok(done);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Ok(result),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Ok(Err(JobError::Disconnected { name: std::mem::take(&mut self.name) }))
            }
        }
    }

    /// Non-blocking check: `None` while the job is still running, a
    /// borrow of the result once it finished. The result stays in the
    /// ticket, so polling then [`Ticket::wait`]-ing (or polling again) is
    /// fine.
    pub fn try_poll(&mut self) -> Option<&JobResult> {
        if self.done.is_none() {
            match self.rx.try_recv() {
                Ok(result) => self.done = Some(result),
                Err(mpsc::TryRecvError::Empty) => return None,
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.done = Some(Err(JobError::Disconnected { name: self.name.clone() }));
                }
            }
        }
        self.done.as_ref()
    }
}
