//! Failure-injection tests: every cross-crate error path must fail
//! loudly with a typed error, never panic or silently corrupt.

use mvq::accel::{AccelError, FunctionalEws, HwConfig, HwSetting};
use mvq::core::pipeline::{by_name, PipelineSpec};
use mvq::core::store::{ArtifactCache, CacheKey, Persist, FORMAT_VERSION};
use mvq::core::{
    masked_assign_with, masked_kmeans, masked_sse_with, prune_matrix_nm, CompressedArtifact,
    GroupingStrategy, KernelStrategy, KmeansConfig, MvqCompressor, MvqError, NmMask,
};
use mvq::nn::layers::{Conv2d, Module, Sequential};
use mvq::nn::NnError;
use mvq::serve::{CompressionRequest, CompressionService, JobError, SubmitError};
use mvq::tensor::{Tensor, TensorError};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn tensor_errors_are_typed_and_descriptive() {
    let err = Tensor::from_vec(vec![2, 3], vec![0.0; 5]).unwrap_err();
    assert!(matches!(err, TensorError::LengthMismatch { expected: 6, actual: 5 }));
    let a = Tensor::zeros(vec![2, 3]);
    let b = Tensor::zeros(vec![3, 3]);
    let err = a.add(&b).unwrap_err();
    assert!(err.to_string().contains("add"));
}

#[test]
fn model_shape_errors_name_the_layer() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut model =
        Sequential::new(vec![Module::Conv2d(Conv2d::new(3, 16, 3, 1, 1, 1, false, &mut rng))]);
    // wrong channel count
    let err = model.forward(&Tensor::zeros(vec![1, 4, 8, 8]), false).unwrap_err();
    match err {
        NnError::BadInput { layer, .. } => assert!(layer.contains("Conv2d")),
        other => panic!("unexpected error {other:?}"),
    }
    // backward without forward
    let err = model.backward(&Tensor::zeros(vec![1, 16, 8, 8])).unwrap_err();
    assert!(matches!(err, NnError::NoForwardCache(_)));
}

#[test]
fn compression_rejects_incompatible_models() {
    // a weight whose output channels cannot be grouped at d=16
    let w = Tensor::zeros(vec![10, 4, 3, 3]);
    let err = GroupingStrategy::OutputChannelWise.group(&w, 16).unwrap_err();
    assert!(matches!(err, MvqError::IncompatibleShape { .. }));
    assert!(err.to_string().contains("10"));
}

#[test]
fn compression_config_errors_cascade_cleanly() {
    let spec = PipelineSpec::default();
    let k0 = MvqCompressor::new(spec.clone().with_k(0));
    assert!(matches!(k0, Err(MvqError::InvalidConfig(_))));
    let d10 = MvqCompressor::new(spec.clone().with_k(8).with_d(10));
    assert!(matches!(d10, Err(MvqError::InvalidConfig(_))));
    // valid config, hostile data: all-zero weights cannot quantize a
    // codebook (every codeword collapses to zero)
    let mut rng = StdRng::seed_from_u64(1);
    let zeros = Tensor::zeros(vec![32, 16]);
    let res = MvqCompressor::new(spec.with_k(4)).unwrap().compress_matrix(&zeros, &mut rng);
    assert!(matches!(res, Err(MvqError::InvalidConfig(_))), "{res:?}");
}

#[test]
fn clustering_rejects_nan_free_contract_violations() {
    // mismatched mask vs data dimensions
    let mut rng = StdRng::seed_from_u64(2);
    let w = mvq::tensor::uniform(vec![16, 8], -1.0, 1.0, &mut rng);
    let (pruned, _) = prune_matrix_nm(&w, 2, 4).unwrap();
    let other = mvq::tensor::uniform(vec![8, 8], -1.0, 1.0, &mut rng);
    let (_, wrong_mask) = prune_matrix_nm(&other, 2, 4).unwrap();
    let err = masked_kmeans(&pruned, &wrong_mask, &KmeansConfig::new(4), &mut rng).unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
}

#[test]
fn kernel_rejects_empty_layers() {
    // an empty [0, d] layer must be a typed error for every kernel entry
    let empty = Tensor::from_vec(vec![0, 8], vec![]).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let w = mvq::tensor::uniform(vec![8, 8], -1.0, 1.0, &mut rng);
    let (_, mask) = prune_matrix_nm(&w, 2, 4).unwrap();
    let centers = Tensor::ones(vec![2, 8]);
    for kernel in KernelStrategy::ALL {
        let err = masked_assign_with(kernel, &empty, &mask, &centers).unwrap_err();
        assert!(matches!(err, MvqError::InvalidConfig(_)), "{kernel:?}: {err:?}");
        let cfg = KmeansConfig::new(2).with_kernel(kernel);
        let err = masked_kmeans(&empty, &mask, &cfg, &mut rng).unwrap_err();
        assert!(matches!(err, MvqError::InvalidConfig(_)), "{kernel:?}: {err:?}");
    }
}

#[test]
fn kernel_rejects_empty_and_mismatched_codebooks() {
    let mut rng = StdRng::seed_from_u64(1);
    let w = mvq::tensor::uniform(vec![16, 8], -1.0, 1.0, &mut rng);
    let (pruned, mask) = prune_matrix_nm(&w, 2, 4).unwrap();
    // k = 0 centers
    let none = Tensor::zeros(vec![0, 8]);
    let err = masked_assign_with(KernelStrategy::Blocked, &pruned, &mask, &none).unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
    // codeword length disagrees with the data
    let wrong = Tensor::zeros(vec![4, 16]);
    let err = masked_assign_with(KernelStrategy::Blocked, &pruned, &mask, &wrong).unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
    // SSE with out-of-range assignments
    let centers = Tensor::ones(vec![2, 8]);
    let err =
        masked_sse_with(KernelStrategy::Blocked, &pruned, &mask, &centers, &[7; 16]).unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
}

#[test]
fn blocked_kernel_edge_cases_match_the_oracle() {
    // The shapes the center-major kernel can get wrong: with k ≤ 8 it
    // scores four rows per pass, so row counts that leave a remainder
    // (and a single row that is all remainder) take its one-row path;
    // k below the 8-codeword block leaves padded lanes that must never
    // win; d below, at and above a vector's width. Every one must
    // reproduce the naive assignment and SSE bits exactly.
    let cases: &[(usize, usize, usize, usize, usize)] = &[
        // (ng, d, k, keep_n, m)
        (1, 4, 1, 2, 4),   // one row, all remainder; one live lane
        (7, 4, 3, 2, 4),   // one four-row pass + three remainder rows
        (5, 12, 2, 3, 4),  // one pass + one remainder row, d = 12
        (9, 8, 5, 2, 4),   // two passes + one remainder row, d = 8
        (13, 24, 6, 4, 8), // three passes + one remainder row, d = 24
    ];
    for &(ng, d, k, keep_n, m) in cases {
        let mut rng = StdRng::seed_from_u64((ng * 31 + d) as u64);
        let w = mvq::tensor::uniform(vec![ng, d], -1.0, 1.0, &mut rng);
        let (pruned, mask) = prune_matrix_nm(&w, keep_n, m).unwrap();
        let centers = mvq::tensor::uniform(vec![k, d], -1.0, 1.0, &mut rng);
        let naive = masked_assign_with(KernelStrategy::Naive, &pruned, &mask, &centers).unwrap();
        let blocked =
            masked_assign_with(KernelStrategy::Blocked, &pruned, &mask, &centers).unwrap();
        assert_eq!(naive, blocked, "ng={ng} d={d} k={k}");
        let sse = |kernel| masked_sse_with(kernel, &pruned, &mask, &centers, &naive).unwrap();
        assert_eq!(
            sse(KernelStrategy::Naive).to_bits(),
            sse(KernelStrategy::Blocked).to_bits(),
            "ng={ng} d={d} k={k}"
        );
    }
}

#[test]
fn kernel_strategy_parsing_fails_loudly_on_unknown_names() {
    // FromStr is the single parser for strategy names: round-trips every
    // canonical name case-insensitively, typed error otherwise.
    for kernel in KernelStrategy::ALL {
        assert_eq!(kernel.name().parse::<KernelStrategy>().unwrap(), kernel);
        assert_eq!(kernel.name().to_uppercase().parse::<KernelStrategy>().unwrap(), kernel);
    }
    let err = "avx512-dreams".parse::<KernelStrategy>().unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
    assert!(err.to_string().contains("avx512-dreams"), "{err}");
    let err = "".parse::<KernelStrategy>().unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
}

#[test]
fn all_zero_masks_cannot_be_constructed() {
    // the N:M invariant (keep exactly N per group) makes an all-zero mask
    // unrepresentable; the constructor must say so, not panic downstream
    let err = NmMask::from_bits(2, 4, 2, 4, vec![false; 8]).unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
}

#[test]
fn mask_rejects_d_not_dividing_group_size() {
    // d = 6 is not a multiple of M = 4: typed error from the mask, and the
    // same config builds no MVQ compressor
    let err = NmMask::from_bits(1, 6, 2, 4, vec![true; 6]).unwrap_err();
    assert!(matches!(err, MvqError::InvalidConfig(_)));
    let spec = PipelineSpec::default().with_k(8).with_d(6).with_nm(2, 4);
    assert!(matches!(MvqCompressor::new(spec), Err(MvqError::InvalidConfig(_))));
}

fn sample_artifact(algo: &str) -> CompressedArtifact {
    let mut rng = StdRng::seed_from_u64(77);
    let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let spec = PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() };
    by_name(algo, &spec).unwrap().compress_matrix(&w, &mut rng).unwrap()
}

#[test]
fn truncated_blobs_are_typed_errors_at_every_length() {
    // chopping the blob anywhere — inside the header, at a field
    // boundary, mid-payload — must yield MvqError::Codec, never a panic
    // or a silently short artifact
    let bytes = sample_artifact("mvq").to_bytes().expect("encode");
    for len in [0, 3, 4, 6, 7, 14, 22, 23, bytes.len() / 2, bytes.len() - 1] {
        let err = CompressedArtifact::from_bytes(&bytes[..len]).unwrap_err();
        assert!(matches!(err, MvqError::Codec(_)), "len {len}: {err:?}");
    }
    // and appending trailing garbage is equally loud
    let mut extended = bytes.clone();
    extended.push(0);
    let err = CompressedArtifact::from_bytes(&extended).unwrap_err();
    assert!(matches!(err, MvqError::Codec(_)), "{err:?}");
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = sample_artifact("vq-a").to_bytes().expect("encode");
    bytes[0] = b'X';
    let err = CompressedArtifact::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, MvqError::Codec(_)));
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn future_format_version_is_rejected_not_misread() {
    let mut bytes = sample_artifact("pqf").to_bytes().expect("encode");
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[4] = future[0];
    bytes[5] = future[1];
    let err = CompressedArtifact::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, MvqError::Codec(_)));
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn wrong_blob_kind_is_rejected() {
    // a valid artifact blob is not a ModelArtifacts blob: the kind tag in
    // the header must prevent cross-type decoding
    let bytes = sample_artifact("pvq").to_bytes().expect("encode");
    let err = mvq::core::ModelArtifacts::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, MvqError::Codec(_)), "{err:?}");
}

#[test]
fn every_flipped_payload_byte_is_caught() {
    // the checksum must catch any single-byte payload corruption — this
    // is what keeps a bit-flipped cache blob from decoding into subtly
    // wrong weights
    let bytes = sample_artifact("mvq").to_bytes().expect("encode");
    const HEADER_LEN: usize = 23;
    for pos in HEADER_LEN..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x01;
        let err = CompressedArtifact::from_bytes(&corrupt).unwrap_err();
        assert!(matches!(err, MvqError::Codec(_)), "flipped byte {pos}: {err:?}");
    }
}

#[test]
fn corrupt_cache_blob_is_rejected_loudly() {
    let dir = std::env::temp_dir().join(format!("mvq-corrupt-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::with_dir(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
    let key = CacheKey::new("mvq", &w, &spec, 7).unwrap();
    cache.put(&key, &sample_artifact("mvq")).unwrap();

    // flip one payload byte on disk, then look it up through a cold cache
    let path = dir.join(key.blob_name());
    let mut blob = std::fs::read(&path).unwrap();
    let last = blob.len() - 1;
    blob[last] ^= 0x10;
    std::fs::write(&path, &blob).unwrap();
    let cold = ArtifactCache::with_dir(&dir).unwrap();
    let err = cold.get(&key).unwrap_err();
    assert!(matches!(err, MvqError::Codec(_)), "{err:?}");
    assert_eq!(cold.stats().corrupt_rejections, 1);
    assert_eq!(cold.stats().hits, 0, "a corrupt blob must never count as a hit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn differing_specs_never_collide_in_cache_keys() {
    // kernel strategy and N:M pattern changes alter what a compression
    // produces; their fingerprints (and therefore cache keys) must differ
    // so the cache cannot serve an artifact produced under another config
    let mut rng = StdRng::seed_from_u64(2);
    let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let base = PipelineSpec::default();
    let mut keys = Vec::new();
    for kernel in KernelStrategy::ALL {
        keys.push(CacheKey::new("mvq", &w, &base.clone().with_kernel(kernel), 0).unwrap());
    }
    for nm in [(2usize, 16usize), (8, 16), (4, 8), (2, 8)] {
        keys.push(CacheKey::new("mvq", &w, &base.clone().with_nm(nm.0, nm.1), 0).unwrap());
    }
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b, "distinct specs produced colliding cache keys");
        }
    }
    // the same holds for the blob file names the disk cache uses
    let mut names: Vec<String> = keys.iter().map(CacheKey::blob_name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), keys.len(), "blob names collide");
}

#[test]
fn one_poisoned_job_does_not_abort_the_rest() {
    // The per-ticket isolation contract: a batch with one job whose data
    // cannot compress (all-zero weights collapse every codeword) completes
    // all the healthy jobs and reports a typed JobError on the poisoned
    // ticket only.
    let spec = PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() };
    let service = CompressionService::builder().workers(2).build().unwrap();
    let mut rng = StdRng::seed_from_u64(0xBAD);
    let healthy: Vec<mvq::serve::Ticket> = (0..4)
        .map(|i| {
            let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
            let request = CompressionRequest::builder(format!("healthy-{i}"), w, "mvq")
                .spec(spec.clone())
                .seed(i)
                .build()
                .unwrap();
            service.submit_one(request)
        })
        .collect();
    let poisoned = service.submit_one(
        CompressionRequest::builder("poisoned", Tensor::zeros(vec![32, 16]), "mvq")
            .spec(spec.clone())
            .build()
            .unwrap(),
    );
    match poisoned.wait() {
        Err(JobError::Compression { name, source }) => {
            assert_eq!(name, "poisoned");
            assert!(matches!(source, MvqError::InvalidConfig(_)), "{source:?}");
        }
        other => panic!("poisoned job must fail with a typed compression error, got {other:?}"),
    }
    for ticket in healthy {
        let outcome = ticket.wait().unwrap_or_else(|e| panic!("healthy job failed: {e}"));
        assert!(outcome.artifact().expect("decode").compression_ratio() > 1.0);
    }
}

#[test]
fn queue_admission_control_is_typed_and_loud() {
    // A zero-worker service never drains, so admission control is
    // deterministic: the bounded queue refuses the overflowing request
    // (handing it back intact) and dropping the service resolves the
    // abandoned tickets to Disconnected — never a hang or a panic.
    let service = CompressionService::builder().workers(0).queue_capacity(1).build().unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let request = |name: &str, seed: u64| {
        CompressionRequest::builder(name, w.clone(), "mvq").seed(seed).build().unwrap()
    };
    let queued = service.try_submit_one(request("first", 0)).unwrap();
    let refused = match service.try_submit_one(request("second", 1)) {
        Err(SubmitError::QueueFull { capacity, request }) => {
            assert_eq!(capacity, 1);
            request
        }
        other => panic!("expected QueueFull, got {other:?}"),
    };
    assert_eq!(refused.name(), "second");
    // an identical in-flight job dedups instead of consuming queue space,
    // so duplicates are immune to backpressure
    let rider = service.try_submit_one(request("rider", 0)).unwrap();
    assert_eq!(rider.key(), queued.key());
    drop(service);
    assert!(matches!(queued.wait(), Err(JobError::Disconnected { .. })));
    assert!(matches!(rider.wait(), Err(JobError::Disconnected { .. })));
}

#[test]
fn shutdown_wakes_blocked_submitters_and_refuses_new_work() {
    // Regression: shutdown used to notify only the workers' condvar, so a
    // submitter blocked on a full queue (`submit_one` waiting for space)
    // slept through shutdown forever — a deadlock between `drop` (waiting
    // to join workers) and the submitter (waiting for a queue slot that a
    // zero-worker service will never free). Shutdown must wake the space
    // waiters too, and every submission from then on must resolve to a
    // typed Disconnected instead of hanging.
    let service = std::sync::Arc::new(
        CompressionService::builder().workers(0).queue_capacity(1).build().unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(4);
    let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let request = |name: &str, seed: u64| {
        CompressionRequest::builder(name, w.clone(), "mvq").seed(seed).build().unwrap()
    };
    let filler = service.submit_one(request("filler", 0));
    let blocked = {
        let service = std::sync::Arc::clone(&service);
        let request = request("blocked", 1);
        std::thread::spawn(move || service.submit_one(request).wait())
    };
    // give the submitter time to reach the full-queue wait (correctness
    // does not depend on it: the wait loop re-checks shutdown on wakeup)
    std::thread::sleep(std::time::Duration::from_millis(50));
    service.shutdown();
    let result = blocked.join().expect("blocked submitter must return after shutdown");
    assert!(matches!(result, Err(JobError::Disconnected { .. })), "{result:?}");
    // submissions after shutdown resolve immediately, typed — not a hang
    let late = service.submit_one(request("late", 2)).wait();
    assert!(matches!(late, Err(JobError::Disconnected { .. })), "{late:?}");
    drop(service);
    assert!(matches!(filler.wait(), Err(JobError::Disconnected { .. })));
}

#[test]
fn deterministic_failures_are_remembered_not_recompressed() {
    // An all-zero weight fails compression deterministically (a zero
    // codebook cannot quantize), and the job is seeded — so the cache
    // remembers the failure and the identical resubmission fails fast
    // from the negative cache instead of re-running the whole pipeline.
    let service = CompressionService::builder().workers(1).build().unwrap();
    let spec = PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() };
    let request = || {
        CompressionRequest::builder("zeros", Tensor::zeros(vec![32, 16]), "mvq")
            .spec(spec.clone())
            .seed(5)
            .build()
            .unwrap()
    };
    let first = service.submit_one(request()).wait();
    let second = service.submit_one(request()).wait();
    let (
        Err(JobError::Compression { source: original, .. }),
        Err(JobError::Compression { source: remembered, .. }),
    ) = (first, second)
    else {
        panic!("both submissions must fail with typed compression errors");
    };
    assert_eq!(original, remembered, "the remembered failure must replay the original error");
    let stats = service.cache().stats();
    assert_eq!(stats.negative_hits, 1, "{stats:?}");
    assert_eq!(stats.negative_len, 1, "{stats:?}");
}

#[test]
fn corrupt_cache_blob_fails_the_job_not_the_service() {
    // A bit-flipped blob on disk must surface as a typed Cache error on
    // the job that hits it, while the service keeps serving other jobs.
    let dir = std::env::temp_dir().join(format!("mvq-corrupt-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = StdRng::seed_from_u64(2);
    let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let spec = PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() };
    let request = |name: &str, seed: u64| {
        CompressionRequest::builder(name, w.clone(), "mvq")
            .spec(spec.clone())
            .seed(seed)
            .build()
            .unwrap()
    };
    let key = {
        let service = CompressionService::builder()
            .cache(ArtifactCache::with_dir(&dir).unwrap())
            .build()
            .unwrap();
        service.submit_one(request("seed7", 7)).wait().unwrap().key
    };
    let path = dir.join(key.blob_name());
    let mut blob = std::fs::read(&path).unwrap();
    let last = blob.len() - 1;
    blob[last] ^= 0x10;
    std::fs::write(&path, &blob).unwrap();

    let service = CompressionService::builder()
        .cache(ArtifactCache::with_dir(&dir).unwrap())
        .build()
        .unwrap();
    match service.submit_one(request("poisoned-blob", 7)).wait() {
        Err(JobError::Cache { name, source }) => {
            assert_eq!(name, "poisoned-blob");
            assert!(matches!(source, MvqError::Codec(_)), "{source:?}");
        }
        other => panic!("corrupt blob must be a typed cache error, got {other:?}"),
    }
    assert_eq!(service.cache().stats().corrupt_rejections, 1);
    let healthy = service.submit_one(request("other-seed", 8)).wait().unwrap();
    assert!(!healthy.from_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn request_validation_fails_before_any_work_queues() {
    // The request builder front-loads every validation failure before
    // anything queues: unknown algorithm, uncompilable spec, empty weight,
    // empty name.
    let mut rng = StdRng::seed_from_u64(3);
    let w = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let cases: Vec<Result<CompressionRequest, MvqError>> = vec![
        CompressionRequest::builder("a", w.clone(), "vqgan").build(),
        CompressionRequest::builder("a", w.clone(), "mvq")
            .spec(PipelineSpec { d: 6, m: 4, ..PipelineSpec::default() })
            .build(),
        CompressionRequest::builder("a", Tensor::from_vec(vec![0, 8], vec![]).unwrap(), "mvq")
            .build(),
        CompressionRequest::builder("", w, "mvq").build(),
    ];
    for case in cases {
        let err = case.expect_err("invalid request must not build");
        assert!(matches!(err, MvqError::InvalidConfig(_)), "{err:?}");
    }
}

#[test]
fn hardware_config_errors_are_typed() {
    let err = HwConfig::new(HwSetting::EwsCms, 40).unwrap_err();
    assert!(matches!(err, AccelError::InvalidConfig(_)));
    assert!(err.to_string().contains("40"));
}

#[test]
fn functional_array_rejects_mismatched_operands() {
    let arr = FunctionalEws::new(HwConfig::new(HwSetting::Ews, 16).unwrap());
    let w = Tensor::zeros(vec![16, 8]);
    let x = Tensor::zeros(vec![9, 4]); // reduction mismatch
    assert!(arr.run_dense(&w, &x).is_err());
}

#[test]
fn pruning_never_produces_nan_or_changes_kept_values() {
    // adversarial input: denormals, zeros, equal magnitudes
    let w = Tensor::from_vec(
        vec![2, 8],
        vec![
            0.0, -0.0, 1.0e-38, -1.0e-38, 1.0, -1.0, 0.5, -0.5, //
            2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
        ],
    )
    .unwrap();
    let (pruned, mask) = prune_matrix_nm(&w, 2, 4).unwrap();
    assert!(pruned.data().iter().all(|v| v.is_finite()));
    // ties: exactly 2 kept per group even when all values equal
    for j in 0..2 {
        for g in 0..2 {
            let kept = (0..4).filter(|&t| mask.row(j)[g * 4 + t]).count();
            assert_eq!(kept, 2);
        }
    }
}

#[test]
fn optimizer_survives_zero_gradients() {
    // a full optimizer step with all-zero grads must be a no-op for SGD
    // without decay, and finite for Adam
    let mut rng = StdRng::seed_from_u64(3);
    let mut model =
        Sequential::new(vec![Module::Conv2d(Conv2d::new(1, 16, 3, 1, 1, 1, true, &mut rng))]);
    let mut before = Vec::new();
    model.visit_params_mut(&mut |p| before.push(p.value.clone()));
    let mut opt = mvq::nn::optim::Optimizer::new(mvq::nn::optim::OptimizerKind::sgd(0.1, 0.0, 0.0));
    opt.step(&mut model);
    let mut i = 0;
    model.visit_params_mut(&mut |p| {
        assert_eq!(p.value.data(), before[i].data());
        i += 1;
    });
    let mut adam = mvq::nn::optim::Optimizer::new(mvq::nn::optim::OptimizerKind::adam(0.1));
    adam.step(&mut model);
    model.visit_params_mut(&mut |p| {
        assert!(p.value.data().iter().all(|v| v.is_finite()));
    });
}
