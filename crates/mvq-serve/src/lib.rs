//! # mvq-serve — the compression service
//!
//! Serving layer over the `mvq_core` pipeline registry, built for
//! long-lived processes: a typed request surface, a hand-rolled
//! worker-thread pool over std channels (no async runtime), per-job error
//! isolation, and a content-addressed, byte-budgeted artifact cache.
//!
//! * [`CompressionRequest`] — the one request type, validated at
//!   construction ([`CompressionRequest::builder`]): a [`Work`] payload
//!   (one weight matrix or a whole model), algorithm name,
//!   [`PipelineSpec`] (+ kernel strategy), optional pinned seed,
//!   [`Priority`], and [`CacheMode`], each invalid combination a typed
//!   [`MvqError`](mvq_core::MvqError) *before* any work queues.
//! * [`CompressionService::submit_one`] — admits one request through a
//!   bounded priority queue (backpressure: `submit_one` blocks while
//!   full, [`CompressionService::try_submit_one`] refuses and hands the
//!   request back) and returns a [`Ticket`]; redeem with
//!   [`Ticket::wait`] or poll with [`Ticket::try_poll`]. A matrix request
//!   whose artifact is resident in the cache's memory tier skips the
//!   queue: it is answered at submit, before the service lock, so a
//!   queue full of cold work never blocks or refuses a warm hit.
//! * Per-job outcomes — every ticket resolves to
//!   `Ok(`[`JobOutcome`]`)` or a typed [`JobError`]; one poisoned job
//!   never aborts the queue or any other job.
//! * The cache — the caller builds the
//!   [`ArtifactCache`](mvq_core::store::ArtifactCache) (in memory or
//!   over a directory, optionally under a
//!   [`CacheBudget`](mvq_core::store::CacheBudget) of memory and disk
//!   bytes, enforced by LRU eviction that survives restarts) and hands it
//!   to [`ServiceBuilder::cache`]; without one the service serves from an
//!   unbounded in-memory cache.
//! * Whole-model jobs — a [`Work::Model`] request streams the model's
//!   convs through `mvq_core`'s bounded-window pipeline
//!   ([`mvq_core::stream_compress_model`]), each finished layer spilling
//!   to the cache as its own blob, with per-layer [`Progress`] observable
//!   on the ticket ([`Ticket::progress`]) while the job runs. Identical
//!   in-flight model jobs dedupe and share one streaming run; the
//!   streamed result is bit-identical to the in-memory
//!   `compress_model_artifacts` path.
//! * Deadlines and cancellation — a request may carry an absolute queue
//!   deadline ([`CompressionRequestBuilder::deadline`]) and/or a shared
//!   [`CancelToken`] ([`CompressionRequestBuilder::cancel_token`]); a
//!   queued job whose deadline passed or whose token was cancelled is
//!   dropped **at dequeue** with [`JobError::Cancelled`] — expired work
//!   never occupies a worker. [`Ticket::wait_timeout`] bounds the wait on
//!   the caller's side, handing the still-redeemable ticket back on
//!   timeout.
//!
//! Identity is *content*, not position: a job's
//! [`CacheKey`](mvq_core::store::CacheKey) combines the weight tensor's
//! bit-pattern hash (for a model, the hash over every conv weight), the
//! [`PipelineSpec`] fingerprint, the canonical algorithm name, the kernel
//! strategy, and the RNG seed. Two in-flight jobs agreeing on all five
//! share one compression (riders report `deduped: true`), and because
//! every registry algorithm is deterministic for a fixed seed, a cache
//! hit — or a dedup share — is **bit-identical** to recompressing from
//! scratch, regardless of worker count or interleaving (proven per
//! registry method by the conformance suite, in debug and `--release`).
//!
//! Seeds may be pinned per request or left to the service, which derives
//! a deterministic *content seed* from the rest of the key — so unseeded
//! workloads still dedupe and cache across submissions and processes.
//!
//! ```
//! use mvq_core::pipeline::PipelineSpec;
//! use mvq_core::store::{ArtifactCache, CacheBudget};
//! use mvq_serve::{CompressionRequest, CompressionService, Priority};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let w = mvq_tensor::kaiming_normal(vec![64, 16], 16, &mut rng);
//! let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
//!
//! let service = CompressionService::builder()
//!     .workers(2)
//!     .queue_capacity(64)
//!     .cache(ArtifactCache::in_memory_with_budget(
//!         CacheBudget::UNBOUNDED.with_memory_bytes(16 << 20),
//!     ))
//!     .build()?;
//!
//! let request = CompressionRequest::builder("conv1", w, "mvq")
//!     .spec(spec)
//!     .seed(7)
//!     .priority(Priority::High)
//!     .build()?;
//! let ticket = service.submit_one(request);
//! let outcome = ticket.wait()?;
//! assert_eq!(outcome.name, "conv1");
//! assert!(!outcome.from_cache);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod request;
mod service;
mod ticket;

pub use request::{CacheMode, CompressionRequest, CompressionRequestBuilder, Priority, Work};
pub use service::{CompressionService, ServiceBuilder, SubmitError};
pub use ticket::{CancelKind, CancelToken, JobError, JobOutcome, JobResult, Ticket};

/// Re-exported for convenience: requests are built around a spec, so
/// service callers need the type constantly.
pub use mvq_core::pipeline::PipelineSpec;

/// Re-exported for convenience: [`Work::Model`] requests carry a streaming
/// window, and their tickets report per-layer [`Progress`].
pub use mvq_core::{Progress, StreamConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_core::{CompressedArtifact, MvqError};
    use mvq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weight(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng)
    }

    fn spec() -> PipelineSpec {
        PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() }
    }

    fn bits(a: &CompressedArtifact) -> Vec<u32> {
        a.reconstruct().unwrap().data().iter().map(|v| v.to_bits()).collect()
    }

    fn model_work(model: mvq_nn::Sequential) -> Work {
        Work::Model { model, stream: StreamConfig::default() }
    }

    #[test]
    fn ticket_resolves_to_the_submitted_job() {
        let service = CompressionService::builder().workers(2).build().unwrap();
        let request = CompressionRequest::builder("conv0", weight(0), "mvq")
            .spec(spec())
            .seed(3)
            .build()
            .unwrap();
        let key = {
            let ticket = service.submit_one(request.clone());
            assert_eq!(ticket.name(), "conv0");
            let outcome = ticket.wait().unwrap();
            assert!(!outcome.from_cache);
            assert!(!outcome.deduped);
            outcome.key
        };
        // resubmission hits the cache under the same key
        let warm = service.submit_one(request).wait().unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.key, key);
    }

    #[test]
    fn try_poll_reports_pending_then_done_and_stays_redeemable() {
        let service = CompressionService::builder().workers(1).build().unwrap();
        let request =
            CompressionRequest::builder("a", weight(1), "mvq").spec(spec()).build().unwrap();
        let mut ticket = service.submit_one(request);
        // spin until done; each Some borrow leaves the result in place
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if let Some(result) = ticket.try_poll() {
                assert!(result.is_ok());
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never finished");
            std::thread::yield_now();
        }
        assert!(ticket.try_poll().is_some(), "polling again still sees the result");
        assert!(ticket.wait().is_ok(), "wait after poll redeems the same result");
    }

    #[test]
    fn in_flight_duplicates_share_one_compression() {
        // a zero-worker service queues without executing, so attaching a
        // duplicate before any work runs is deterministic
        let service = CompressionService::builder().workers(0).queue_capacity(8).build().unwrap();
        let request = |name: &str| {
            CompressionRequest::builder(name, weight(2), "mvq")
                .spec(spec())
                .seed(9)
                .build()
                .unwrap()
        };
        let first = service.submit_one(request("a"));
        let rider = service.submit_one(request("b"));
        assert_eq!(service.queued(), 1, "the duplicate must not occupy a queue slot");
        assert_eq!(first.key(), rider.key());
        // a different pinned seed is a different identity: it queues
        let reseeded = CompressionRequest::builder("c", weight(2), "mvq")
            .spec(spec())
            .seed(10)
            .build()
            .unwrap();
        let reseeded = service.submit_one(reseeded);
        assert_eq!(service.queued(), 2, "pinned seeds must split identity");
        assert_ne!(first.key(), reseeded.key());
        // `vq` is the documented alias of `vq-a`: unseeded requests under
        // either spelling derive one content seed, hence one key
        let unseeded = |name: &str, algo: &str| {
            CompressionRequest::builder(name, weight(2), algo).spec(spec()).build().unwrap()
        };
        let alias = service.submit_one(unseeded("alias", "vq"));
        let canonical = service.submit_one(unseeded("canonical", "vq-a"));
        assert_eq!(service.queued(), 3, "alias and canonical name must dedupe");
        assert_eq!(alias.key(), canonical.key());
        drop(service); // zero workers: queued jobs are abandoned
        for ticket in [first, rider, reseeded, alias, canonical] {
            assert!(matches!(ticket.wait(), Err(JobError::Disconnected { .. })));
        }
    }

    #[test]
    fn bypass_requests_skip_cache_and_dedup() {
        let service = CompressionService::builder().workers(2).build().unwrap();
        let request = |name: &str, mode: CacheMode| {
            CompressionRequest::builder(name, weight(3), "mvq")
                .spec(spec())
                .seed(5)
                .cache_mode(mode)
                .build()
                .unwrap()
        };
        let primed = service.submit_one(request("prime", CacheMode::ReadWrite)).wait().unwrap();
        let bypass = service.submit_one(request("bypass", CacheMode::Bypass)).wait().unwrap();
        assert!(!bypass.from_cache, "bypass must not read the cache");
        assert!(!bypass.deduped);
        assert_eq!(
            bits(&primed.artifact().unwrap()),
            bits(&bypass.artifact().unwrap()),
            "still deterministic"
        );
        let readonly = service.submit_one(request("ro", CacheMode::ReadOnly)).wait().unwrap();
        assert!(readonly.from_cache, "read-only still reads");
    }

    #[test]
    fn read_only_requests_do_not_grow_the_cache() {
        let service = CompressionService::builder().workers(1).build().unwrap();
        let request = CompressionRequest::builder("ro", weight(4), "mvq")
            .spec(spec())
            .cache_mode(CacheMode::ReadOnly)
            .build()
            .unwrap();
        let outcome = service.submit_one(request).wait().unwrap();
        assert!(!outcome.from_cache);
        assert_eq!(service.cache().len(), 0, "read-only job stored an artifact");
    }

    #[test]
    fn zero_capacity_queue_is_rejected() {
        let err = CompressionService::builder().queue_capacity(0).build().unwrap_err();
        assert!(matches!(err, MvqError::InvalidConfig(_)));
    }

    /// A request slow enough to keep the single worker busy while the
    /// test arranges the queue behind it: measured 46 ms in release and
    /// 5.3 s in debug on a 2-core x86_64 Xeon VM. A 32×16 weight
    /// converges in microseconds whatever `swap_trials` says (mvq never
    /// reads it), so the blocker is a genuinely large codebook problem,
    /// the same one `tests/net.rs` uses.
    fn blocker_request(name: &str) -> CompressionRequest {
        let mut rng = StdRng::seed_from_u64(40);
        let w = mvq_tensor::kaiming_normal(vec![1024, 64], 64, &mut rng);
        CompressionRequest::builder(name, w, "mvq")
            .spec(PipelineSpec { k: 256, ..PipelineSpec::default() })
            .seed(1)
            .build()
            .unwrap()
    }

    /// Spins until the single worker has taken the blocker off the queue.
    fn wait_until_queue_empty(service: &CompressionService) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while service.queued() > 0 {
            assert!(std::time::Instant::now() < deadline, "worker never took the blocker");
            std::thread::yield_now();
        }
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back_then_wait_redeems_it() {
        // satellite regression (ticket lifecycle): timing out must not
        // consume the ticket — the job keeps running and a later wait
        // still redeems its result
        let service = CompressionService::builder().workers(1).queue_capacity(8).build().unwrap();
        let blocker = service.submit_one(blocker_request("blocker"));
        wait_until_queue_empty(&service);
        let request =
            CompressionRequest::builder("late", weight(41), "mvq").spec(spec()).build().unwrap();
        let ticket = service.submit_one(request);
        // the worker is busy with the blocker, so the queued job cannot
        // resolve within a zero timeout
        let ticket = match ticket.wait_timeout(std::time::Duration::ZERO) {
            Err(ticket) => ticket,
            Ok(result) => panic!("queued job resolved within a zero timeout: {result:?}"),
        };
        assert_eq!(ticket.name(), "late", "the ticket rides back intact");
        assert!(ticket.wait().is_ok(), "the timed-out ticket must still redeem");
        assert!(blocker.wait().is_ok());
    }

    #[test]
    fn wait_timeout_then_disconnect_reports_disconnected() {
        // satellite regression (ticket lifecycle): a ticket handed back on
        // timeout must observe the service's shutdown, not hang or panic
        let service = CompressionService::builder().workers(0).queue_capacity(8).build().unwrap();
        let request =
            CompressionRequest::builder("orphan", weight(42), "mvq").spec(spec()).build().unwrap();
        let ticket = service
            .submit_one(request)
            .wait_timeout(std::time::Duration::from_millis(10))
            .expect_err("zero workers: the job can never resolve in time");
        drop(service);
        assert!(matches!(ticket.wait(), Err(JobError::Disconnected { .. })));
    }

    #[test]
    fn cancelled_queued_job_is_dropped_at_dequeue_and_never_runs() {
        let service = CompressionService::builder().workers(1).queue_capacity(8).build().unwrap();
        let blocker = service.submit_one(blocker_request("blocker"));
        wait_until_queue_empty(&service);
        let token = CancelToken::new();
        let request = CompressionRequest::builder("doomed", weight(43), "mvq")
            .spec(spec())
            .cancel_token(token.clone())
            .build()
            .unwrap();
        let ticket = service.submit_one(request);
        let doomed_key = ticket.key().clone();
        token.cancel(); // the job is still queued behind the blocker
        match ticket.wait() {
            Err(JobError::Cancelled { name, kind: CancelKind::Explicit }) => {
                assert_eq!(name, "doomed");
            }
            other => panic!("expected Cancelled(Explicit), got {other:?}"),
        }
        assert!(blocker.wait().is_ok(), "the blocker is unaffected");
        assert!(
            service.cache().get_raw(&doomed_key).unwrap().is_none(),
            "the cancelled job ran anyway: its artifact reached the cache"
        );
    }

    #[test]
    fn deadline_expired_queued_job_is_dropped_at_dequeue_and_never_runs() {
        let service = CompressionService::builder().workers(1).queue_capacity(8).build().unwrap();
        let blocker = service.submit_one(blocker_request("blocker"));
        wait_until_queue_empty(&service);
        let request = CompressionRequest::builder("expired", weight(44), "mvq")
            .spec(spec())
            .deadline(std::time::Instant::now()) // already past by dequeue
            .build()
            .unwrap();
        let ticket = service.submit_one(request);
        let expired_key = ticket.key().clone();
        match ticket.wait() {
            Err(JobError::Cancelled { name, kind: CancelKind::DeadlineExpired }) => {
                assert_eq!(name, "expired");
            }
            other => panic!("expected Cancelled(DeadlineExpired), got {other:?}"),
        }
        assert!(blocker.wait().is_ok());
        assert!(
            service.cache().get_raw(&expired_key).unwrap().is_none(),
            "the expired job ran anyway: its artifact reached the cache"
        );
    }

    /// Tentpole: a whole-model job streams through the service with
    /// per-layer progress observable on the ticket while it runs, and its
    /// assembled result is bit-identical to the in-memory oracle.
    #[test]
    fn model_job_streams_with_observable_progress() {
        let mut rng = StdRng::seed_from_u64(21);
        let model = mvq_nn::models::mobilenet_v1_lite(4, &mut rng);
        let mut convs = 0usize;
        model.visit_convs(&mut |_| convs += 1);
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };

        let service = CompressionService::builder().workers(1).build().unwrap();
        let work =
            Work::Model { model: model.clone(), stream: StreamConfig::default().with_workers(2) };
        let request = CompressionRequest::builder("mobilenet", work, "mvq")
            .spec(spec.clone())
            .seed(11)
            .build()
            .unwrap();
        let mut ticket = service.submit_one(request.clone());
        assert!(ticket.progress().is_some(), "model tickets expose progress from submission");

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        let mut saw_partial = false;
        loop {
            if ticket.try_poll().is_some() {
                break;
            }
            let p = ticket.progress().expect("model ticket always has progress");
            if p.layers_total > 0 && p.layers_done < p.layers_total {
                saw_partial = true;
            }
            assert!(std::time::Instant::now() < deadline, "model job never finished");
            std::thread::yield_now();
        }
        assert!(saw_partial, "per-layer progress was never observable mid-run");
        let p = ticket.progress().unwrap();
        assert_eq!(p.layers_total, convs);
        assert_eq!(p.layers_done, convs, "every conv reaches a terminal state");

        let outcome = ticket.wait().unwrap();
        assert!(!outcome.from_cache);
        let streamed = outcome.model_artifacts().unwrap();
        let oracle = {
            let comp = mvq_core::pipeline::by_name("mvq", &spec).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            comp.compress_model_artifacts(&model, &mut rng).unwrap()
        };
        assert_eq!(
            streamed.fingerprint().unwrap(),
            oracle.fingerprint().unwrap(),
            "served streaming result diverges from the in-memory oracle"
        );

        // a second submission answers from the cache without streaming
        let warm = service.submit_one(request);
        let warm_outcome = warm.wait().unwrap();
        assert!(warm_outcome.from_cache);
        assert_eq!(
            warm_outcome.model_artifacts().unwrap().fingerprint().unwrap(),
            oracle.fingerprint().unwrap()
        );
        // per-matrix outcomes refuse to decode as models
        let matrix = service
            .submit_one(
                CompressionRequest::builder("m", weight(6), "mvq").spec(spec).build().unwrap(),
            )
            .wait()
            .unwrap();
        assert!(matrix.model_artifacts().is_err());
    }

    #[test]
    fn in_flight_model_duplicates_share_one_stream_and_its_progress() {
        let mut rng = StdRng::seed_from_u64(22);
        let model = mvq_nn::models::tiny_cnn(4, 8, &mut rng);
        let request = |name: &str| {
            CompressionRequest::builder(name, model_work(model.clone()), "mvq")
                .spec(PipelineSpec { k: 8, ..PipelineSpec::default() })
                .seed(5)
                .build()
                .unwrap()
        };
        // zero workers: nothing executes, so the rider deterministically
        // attaches to the queued job
        let service = CompressionService::builder().workers(0).queue_capacity(8).build().unwrap();
        let first = service.submit_one(request("a"));
        let rider = service.submit_one(request("b"));
        assert_eq!(service.queued(), 1, "the duplicate must not occupy a queue slot");
        assert_eq!(first.key(), rider.key());
        assert!(rider.progress().is_some(), "riders observe the executing job's progress");
        drop(service);
        assert!(matches!(first.wait(), Err(JobError::Disconnected { .. })));
        assert!(matches!(rider.wait(), Err(JobError::Disconnected { .. })));
    }

    #[test]
    fn model_requests_validate_at_build() {
        let tiny = |seed: u64| mvq_nn::models::tiny_cnn(4, 8, &mut StdRng::seed_from_u64(seed));
        let build = |name: &str, model, algo: &str| {
            CompressionRequest::builder(name, model_work(model), algo).build()
        };
        let unknown = build("m", tiny(23), "vqgan");
        assert!(matches!(unknown, Err(MvqError::InvalidConfig(_))));
        let empty_name = build("", tiny(23), "mvq");
        assert!(matches!(empty_name, Err(MvqError::InvalidConfig(_))));
        let convless = build("m", mvq_nn::Sequential::new(vec![]), "mvq");
        assert!(matches!(convless, Err(MvqError::InvalidConfig(_))));
        // streaming spills every finished layer into the cache, so a model
        // job that may not write the cache cannot be honoured
        for mode in [CacheMode::ReadOnly, CacheMode::Bypass] {
            let request = CompressionRequest::builder("m", model_work(tiny(25)), "mvq")
                .cache_mode(mode)
                .build();
            assert!(matches!(request, Err(MvqError::InvalidConfig(_))), "{mode:?}: {request:?}");
        }
        // aliases canonicalize, and per-matrix tickets have no progress
        assert_eq!(build("m", tiny(24), "vq").unwrap().algo(), "vq-a");
        let service = CompressionService::builder().workers(0).queue_capacity(4).build().unwrap();
        let matrix_ticket = service.submit_one(
            CompressionRequest::builder("w", weight(7), "mvq").spec(spec()).build().unwrap(),
        );
        assert!(matrix_ticket.progress().is_none(), "matrix tickets expose no progress");
    }

    /// Unseeded requests key on a content seed derived under pinned domain
    /// strings. A change here silently re-keys every unseeded blob in
    /// existing disk caches.
    #[test]
    fn unseeded_cache_keys_are_pinned() {
        use mvq_core::store::CacheKey;
        let service = CompressionService::builder().workers(0).queue_capacity(4).build().unwrap();
        let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
        let matrix = CompressionRequest::builder("m", weight(0), "mvq").spec(spec.clone()).build();
        let model = mvq_nn::models::tiny_cnn(4, 8, &mut StdRng::seed_from_u64(22));
        let model = CompressionRequest::builder("n", model_work(model), "mvq").spec(spec).build();
        let key = |weight_hash, seed| CacheKey {
            algo: "mvq",
            weight_hash,
            spec_fingerprint: 0xa11e_fa89_0304_9917,
            kernel: mvq_core::KernelStrategy::Blocked,
            seed,
        };
        let matrix = service.submit_one(matrix.unwrap());
        assert_eq!(matrix.key(), &key(0xfcfd_a69e_f90f_cae8, 0x8812_2e03_db6f_0ed9));
        let model = service.submit_one(model.unwrap());
        assert_eq!(model.key(), &key(0xed64_b535_fa2b_1c5b, 0x2b40_0406_02c7_3b05));
    }

    #[test]
    fn queue_full_hands_the_request_back() {
        let service = CompressionService::builder().workers(0).queue_capacity(2).build().unwrap();
        let request = |name: &str, seed: u64| {
            CompressionRequest::builder(name, weight(5), "mvq")
                .spec(spec())
                .seed(seed)
                .build()
                .unwrap()
        };
        let _t0 = service.try_submit_one(request("a", 0)).unwrap();
        let _t1 = service.try_submit_one(request("b", 1)).unwrap();
        match service.try_submit_one(request("c", 2)) {
            Err(SubmitError::QueueFull { capacity, request }) => {
                assert_eq!(capacity, 2);
                assert_eq!(request.name(), "c");
                assert_eq!(request.seed(), Some(2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    /// A pinned-seed request whose artifact is put straight into the
    /// service's cache, so submitting it is a memory-resident hit with no
    /// worker involved. Returns the request's builder and the stored blob.
    fn primed(
        service: &CompressionService,
        name: &str,
        seed: u64,
    ) -> (CompressionRequestBuilder, std::sync::Arc<[u8]>) {
        use mvq_core::store::{CacheKey, Persist};
        let w = weight(seed);
        let artifact = mvq_core::pipeline::by_name("mvq", &spec())
            .unwrap()
            .compress_matrix(&w, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let bytes: std::sync::Arc<[u8]> = artifact.to_bytes().unwrap().into();
        let key = CacheKey::new("mvq", &w, &spec(), seed).unwrap();
        service.cache().put_raw(&key, std::sync::Arc::clone(&bytes)).unwrap();
        (CompressionRequest::builder(name, w, "mvq").spec(spec()).seed(seed), bytes)
    }

    #[test]
    fn a_resident_hit_is_answered_at_submit_while_the_queue_is_full() {
        use mvq_obs::{names as metric, Stage, TraceOutcome};
        let service = CompressionService::builder().workers(0).queue_capacity(1).build().unwrap();
        let cold = CompressionRequest::builder("cold", weight(100), "mvq")
            .spec(spec())
            .seed(100)
            .build()
            .unwrap();
        let cold = service.try_submit_one(cold).unwrap();
        assert_eq!(service.queued(), 1);

        let (hit, bytes) = primed(&service, "warm", 101);
        let hit = hit.build().unwrap();
        let mut ticket = service.try_submit_one(hit.clone()).expect("a resident hit is refused");
        assert_eq!(service.queued(), 1, "the hit took a queue slot");
        assert!(ticket.try_poll().is_some(), "the ticket must come back resolved");
        let outcome = ticket.wait().unwrap();
        assert!(outcome.from_cache && !outcome.deduped);
        assert!(std::sync::Arc::ptr_eq(outcome.raw_bytes().unwrap(), &bytes), "hit copied");
        // the blocking path answers too; were it to queue, it would wait
        // forever on the full zero-worker queue
        assert!(service.submit_one(hit).wait().unwrap().from_cache);

        let registry = service.registry();
        assert_eq!(registry.counter(metric::SERVE_JOBS_SUBMITTED).get(), 3);
        assert_eq!(registry.counter(metric::SERVE_JOBS_COMPLETED).get(), 2);
        assert_eq!(registry.counter(metric::STORE_CACHE_HITS).get(), 2);
        assert_eq!(registry.counter(metric::STORE_CACHE_MISSES).get(), 0);
        assert_eq!(registry.histogram(metric::SERVE_HIT_LATENCY_US).count(), 2);
        assert_eq!(registry.histogram(metric::SERVE_QUEUE_WAIT_US).count(), 0);
        assert_eq!(registry.histogram(metric::SERVE_JOB_RUN_US).count(), 0);
        let trace = registry.traces().recent(1).pop().expect("the hit's trace is in the ring");
        assert_eq!(trace.name, "warm");
        assert_eq!(trace.outcome, TraceOutcome::Ok);
        let stages: Vec<Stage> = trace.stages.iter().map(|&(stage, _)| stage).collect();
        assert_eq!(stages, [Stage::Submitted, Stage::CacheProbe, Stage::Replied]);
        drop(service);
        assert!(matches!(cold.wait(), Err(JobError::Disconnected { .. })));
    }

    #[test]
    fn a_hit_already_dead_at_submit_queues_and_is_cancelled_at_dequeue() {
        use mvq_obs::names as metric;
        let service = CompressionService::builder().workers(1).queue_capacity(4).build().unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cancelled = primed(&service, "cancelled", 102).0.cancel_token(token).build().unwrap();
        let expired =
            primed(&service, "expired", 103).0.deadline(std::time::Instant::now()).build().unwrap();
        for (request, want) in
            [(cancelled, CancelKind::Explicit), (expired, CancelKind::DeadlineExpired)]
        {
            let name = request.name().to_string();
            match service.submit_one(request).wait() {
                Err(JobError::Cancelled { name: got, kind }) => {
                    assert_eq!((got, kind), (name, want));
                }
                other => panic!("{name}: expected Cancelled({want:?}), got {other:?}"),
            }
        }
        let registry = service.registry();
        assert_eq!(registry.counter(metric::SERVE_JOBS_CANCELLED).get(), 2);
        assert_eq!(registry.counter(metric::STORE_CACHE_HITS).get(), 0, "a dead hit was served");
    }

    #[test]
    fn a_resident_hit_after_shutdown_is_disconnected() {
        let service = CompressionService::builder().workers(0).queue_capacity(4).build().unwrap();
        let hit = primed(&service, "late", 104).0.build().unwrap();
        service.shutdown();
        assert!(matches!(service.submit_one(hit).wait(), Err(JobError::Disconnected { .. })));
        assert_eq!(service.cache().stats().hits, 0, "the cache answered after shutdown");
    }

    #[test]
    fn bypass_is_never_answered_at_submit_and_read_only_is() {
        use mvq_obs::Stage;
        let service = CompressionService::builder().workers(1).queue_capacity(4).build().unwrap();
        let bypass = primed(&service, "bypass", 105).0.cache_mode(CacheMode::Bypass);
        let ticket = service.submit_one(bypass.build().unwrap());
        assert!(ticket.trace().stage_us(Stage::Queued).is_some(), "bypass skipped the queue");
        assert!(!ticket.wait().unwrap().from_cache, "bypass read the cache");
        let read_only = primed(&service, "read-only", 106).0.cache_mode(CacheMode::ReadOnly);
        let ticket = service.submit_one(read_only.build().unwrap());
        assert!(ticket.trace().stage_us(Stage::Queued).is_none(), "read-only hit queued");
        assert!(ticket.wait().unwrap().from_cache);
    }
}
