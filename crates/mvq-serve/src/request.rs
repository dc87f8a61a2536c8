//! Typed, construction-validated compression requests.
//!
//! [`CompressionRequest`] is the one unit of work
//! [`crate::CompressionService`] accepts, whether it compresses a single
//! weight matrix or streams a whole model (its [`Work`] payload). A
//! request is validated by [`CompressionRequestBuilder::build`]: the
//! algorithm name is resolved against the pipeline registry, the spec is
//! compiled for that algorithm, and the payload is checked, each failure
//! a typed [`MvqError::InvalidConfig`]. A request that builds cannot fail
//! admission; only the compression itself can still error (per job, as a
//! [`crate::JobError`]).

use std::time::{Duration, Instant};

use mvq_core::pipeline::{by_name, canonical_name, PipelineSpec};
use mvq_core::store::{CacheKey, Fnv1a};
use mvq_core::{model_cache_key, KernelStrategy, MvqError, StreamConfig};
use mvq_nn::Sequential;
use mvq_tensor::Tensor;

use crate::ticket::CancelToken;

/// Scheduling priority of a request. Workers always pop the
/// highest-priority queued job; within one priority, submission order
/// (FIFO) breaks ties.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Run after everything else.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Run before Normal and Low work.
    High,
}

/// How a request interacts with the service's artifact cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CacheMode {
    /// Answer from the cache when possible and store fresh results — the
    /// default.
    #[default]
    ReadWrite,
    /// Answer from the cache when possible but never store — useful for
    /// probing without growing a budgeted cache.
    ReadOnly,
    /// Ignore the cache entirely: always compress fresh, store nothing,
    /// and never share another in-flight job's result.
    Bypass,
}

impl CacheMode {
    pub(crate) fn reads_cache(self) -> bool {
        !matches!(self, CacheMode::Bypass)
    }

    pub(crate) fn writes_cache(self) -> bool {
        matches!(self, CacheMode::ReadWrite)
    }

    /// Whether the request may share an identical in-flight job's result.
    /// The executing (first-submitted) job's mode governs cache writes.
    pub(crate) fn dedupes(self) -> bool {
        !matches!(self, CacheMode::Bypass)
    }
}

/// What a request compresses. The payload decides the request's cache
/// identity: a matrix keys on its weight's bit pattern
/// ([`CacheKey::new`]), a model on all of its conv weights
/// ([`model_cache_key`]).
#[derive(Debug, Clone)]
pub enum Work {
    /// One weight tensor, compressed via `Compressor::compress_matrix`.
    Matrix(Tensor),
    /// Every conv of a model, streamed through the bounded-window
    /// pipeline ([`mvq_core::stream_compress_model`]): each finished layer
    /// spills to the service's cache under the model key's
    /// [`layer_key`](CacheKey::layer_key), and per-layer progress is
    /// observable on [`crate::Ticket::progress`] while the job runs.
    Model {
        /// The model whose convs are compressed.
        model: Sequential,
        /// Streaming window/worker knobs. Not part of the cache identity:
        /// the streamed result is bit-identical across window shapes.
        stream: StreamConfig,
    },
}

impl From<Tensor> for Work {
    fn from(weight: Tensor) -> Work {
        Work::Matrix(weight)
    }
}

/// One validated unit of work for [`crate::CompressionService`]: compress
/// `work` with `algo` under `spec`, at `priority`, interacting with the
/// cache per `cache_mode`.
///
/// Construct through [`CompressionRequest::builder`]; the fields are
/// read-only afterwards so a request in the queue can never be in a state
/// the service did not validate.
#[derive(Debug, Clone)]
pub struct CompressionRequest {
    name: String,
    work: Work,
    algo: &'static str,
    spec: PipelineSpec,
    seed: Option<u64>,
    priority: Priority,
    cache_mode: CacheMode,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl CompressionRequest {
    /// Starts building a request to compress `work` — a weight [`Tensor`]
    /// or a [`Work::Model`] — with the registry algorithm `algo` (aliases
    /// like `vq` are canonicalized at build).
    pub fn builder(
        name: impl Into<String>,
        work: impl Into<Work>,
        algo: impl Into<String>,
    ) -> CompressionRequestBuilder {
        CompressionRequestBuilder {
            name: name.into(),
            work: work.into(),
            algo: algo.into(),
            spec: PipelineSpec::default(),
            seed: None,
            priority: Priority::default(),
            cache_mode: CacheMode::default(),
            deadline: None,
            cancel: None,
        }
    }

    /// Caller-chosen label (e.g. a layer name); not part of the identity.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// What the request compresses.
    pub fn work(&self) -> &Work {
        &self.work
    }

    /// Canonical registry algorithm name.
    pub fn algo(&self) -> &'static str {
        self.algo
    }

    /// Pipeline hyperparameters.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The pinned RNG seed, if any. `None` means the service derives a
    /// deterministic content seed so identical unseeded requests dedupe
    /// and cache across batches and processes.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Scheduling priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Cache interaction policy.
    pub fn cache_mode(&self) -> CacheMode {
        self.cache_mode
    }

    /// The queue deadline, if any. Not part of the cache identity.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached cancellation token, if any. Not part of the cache
    /// identity.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The content address this request resolves to, with the seed it
    /// will actually compress with: the pinned seed, or one derived from
    /// the key's own weight hash and spec fingerprint, so the weights are
    /// hashed once either way. The seed domains are pinned — they have
    /// encoded the same identity since the first cached blobs, and
    /// changing one re-keys every unseeded entry of an existing cache.
    pub(crate) fn cache_key(&self) -> CacheKey {
        let (key, domain): (_, &[u8]) = match &self.work {
            Work::Matrix(weight) => {
                (CacheKey::new(self.algo, weight, &self.spec, 0), b"mvq.serve.contentseed.v1")
            }
            Work::Model { model, .. } => {
                (model_cache_key(self.algo, model, &self.spec, 0), b"mvq.serve.modelseed.v1")
            }
        };
        let mut key = key.expect("request algo was canonicalized at build");
        key.seed = self.seed.unwrap_or_else(|| {
            let mut h = Fnv1a::new();
            h.update(domain);
            h.update_u64(key.weight_hash);
            h.update_u64(key.spec_fingerprint);
            h.update(self.algo.as_bytes());
            h.finish()
        });
        key
    }

    pub(crate) fn into_parts(
        self,
    ) -> (String, Work, &'static str, PipelineSpec, Option<Instant>, Option<CancelToken>) {
        (self.name, self.work, self.algo, self.spec, self.deadline, self.cancel)
    }
}

/// Builder for [`CompressionRequest`]; see [`CompressionRequest::builder`].
#[derive(Debug, Clone)]
pub struct CompressionRequestBuilder {
    name: String,
    work: Work,
    algo: String,
    spec: PipelineSpec,
    seed: Option<u64>,
    priority: Priority,
    cache_mode: CacheMode,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl CompressionRequestBuilder {
    /// Sets the pipeline hyperparameters (default: [`PipelineSpec::default`]).
    pub fn spec(mut self, spec: PipelineSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Overrides the kernel strategy on the spec — a shorthand for
    /// `spec.with_kernel(..)`, so CLI callers can layer `--kernel` on top
    /// of a preset spec.
    pub fn kernel(mut self, kernel: KernelStrategy) -> Self {
        self.spec = self.spec.with_kernel(kernel);
        self
    }

    /// Pins the RNG seed (the seed becomes part of the cache identity).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the scheduling priority (default: [`Priority::Normal`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the cache interaction policy (default: [`CacheMode::ReadWrite`]).
    /// Model requests accept only `ReadWrite`: streaming spills every
    /// finished layer to the cache, so it is a cache writer by
    /// construction.
    pub fn cache_mode(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Sets an absolute queue deadline: a job still queued when `deadline`
    /// passes is dropped at dequeue with
    /// [`crate::JobError::Cancelled`] (`kind:`
    /// [`crate::CancelKind::DeadlineExpired`]) — expired work never
    /// occupies a worker. A job already running is not interrupted.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Shorthand for [`Self::deadline`] at `now + timeout`.
    pub fn deadline_after(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }

    /// Attaches a cancellation token: cancelling any clone of `token`
    /// while the job is queued drops it at dequeue with
    /// [`crate::JobError::Cancelled`] (`kind:`
    /// [`crate::CancelKind::Explicit`]).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates and finishes the request.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the name is empty, a
    /// matrix has no elements, a model has no conv layers or a cache mode
    /// other than [`CacheMode::ReadWrite`], the algorithm is unknown, or
    /// the spec does not compile for the algorithm (e.g. `d` not a
    /// multiple of `m` for `mvq`).
    pub fn build(self) -> Result<CompressionRequest, MvqError> {
        if self.name.is_empty() {
            return Err(MvqError::InvalidConfig("request name must not be empty".into()));
        }
        match &self.work {
            Work::Matrix(weight) if weight.numel() == 0 => {
                return Err(MvqError::InvalidConfig(format!(
                    "request `{}`: weight of dims {:?} has no elements",
                    self.name,
                    weight.dims()
                )));
            }
            Work::Matrix(_) => {}
            Work::Model { model, .. } => {
                let mut convs = 0usize;
                model.visit_convs(&mut |_| convs += 1);
                if convs == 0 {
                    return Err(MvqError::InvalidConfig(format!(
                        "request `{}`: model has no conv layers to compress",
                        self.name
                    )));
                }
                if self.cache_mode != CacheMode::ReadWrite {
                    return Err(MvqError::InvalidConfig(format!(
                        "request `{}`: model jobs stream layers into the cache, so they need \
                         CacheMode::ReadWrite, not {:?}",
                        self.name, self.cache_mode
                    )));
                }
            }
        }
        let algo = canonical_name(&self.algo).ok_or_else(|| {
            MvqError::InvalidConfig(format!(
                "request `{}`: unknown compressor `{}`",
                self.name, self.algo
            ))
        })?;
        // compiling the compressor front-loads algorithm/spec mismatches
        // (the registry's own validation) to submission time
        by_name(algo, &self.spec)?;
        Ok(CompressionRequest {
            name: self.name,
            work: self.work,
            algo,
            spec: self.spec,
            seed: self.seed,
            priority: self.priority,
            cache_mode: self.cache_mode,
            deadline: self.deadline,
            cancel: self.cancel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weight() -> Tensor {
        let mut rng = StdRng::seed_from_u64(0);
        mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng)
    }

    #[test]
    fn builder_validates_at_construction() {
        let ok = CompressionRequest::builder("a", weight(), "mvq")
            .spec(PipelineSpec { k: 8, ..PipelineSpec::default() })
            .seed(3)
            .priority(Priority::High)
            .cache_mode(CacheMode::ReadOnly)
            .build()
            .unwrap();
        assert_eq!(ok.algo(), "mvq");
        assert_eq!(ok.seed(), Some(3));
        assert_eq!(ok.priority(), Priority::High);
        assert_eq!(ok.cache_mode(), CacheMode::ReadOnly);

        let unknown = CompressionRequest::builder("a", weight(), "vqgan").build();
        assert!(matches!(unknown, Err(MvqError::InvalidConfig(_))));
        let empty_name = CompressionRequest::builder("", weight(), "mvq").build();
        assert!(matches!(empty_name, Err(MvqError::InvalidConfig(_))));
        let empty_weight =
            CompressionRequest::builder("a", Tensor::from_vec(vec![0, 8], vec![]).unwrap(), "mvq")
                .build();
        assert!(matches!(empty_weight, Err(MvqError::InvalidConfig(_))));
        // spec that cannot compile for mvq: d not a multiple of m
        let bad_spec = CompressionRequest::builder("a", weight(), "mvq")
            .spec(PipelineSpec { d: 6, m: 4, ..PipelineSpec::default() })
            .build();
        assert!(matches!(bad_spec, Err(MvqError::InvalidConfig(_))));
    }

    #[test]
    fn baseline_spec_mismatches_fail_at_build_not_in_a_worker() {
        let two_grid_case_c = PipelineSpec::default().with_d(8).with_prune_d(16).with_nm(4, 8);
        let one_bit_pvq = PipelineSpec::default().with_scalar_bits(1);
        for (algo, spec) in [("vq-c", two_grid_case_c), ("pvq", one_bit_pvq)] {
            let request = CompressionRequest::builder("a", weight(), algo).spec(spec).build();
            assert!(matches!(request, Err(MvqError::InvalidConfig(_))), "{algo}: {request:?}");
        }
    }

    #[test]
    fn aliases_canonicalize_and_share_content_seeds() {
        let a = CompressionRequest::builder("a", weight(), "vq").build().unwrap();
        let b = CompressionRequest::builder("b", weight(), "vq-a").build().unwrap();
        assert_eq!(a.algo(), "vq-a");
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }
}
