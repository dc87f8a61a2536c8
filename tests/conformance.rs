//! Trait-conformance tests: every compressor in the pipeline registry must
//! honor the shared `Compressor` / `CompressedArtifact` contract on the
//! same seeded weight matrix — and the compression service must serve
//! cache hits and dedup shares bit-identical to fresh compressions,
//! deterministically across submission order, batching, worker
//! interleaving, and cache eviction.

use mvq::core::pipeline::{by_name, registry, PipelineSpec, ALGORITHM_NAMES};
use mvq::core::store::{ArtifactCache, CacheBudget};
use mvq::core::{CompressedArtifact, KernelStrategy};
use mvq::serve::{CompressionRequest, CompressionService, JobOutcome, Ticket};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_weight() -> mvq::tensor::Tensor {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    mvq::tensor::kaiming_normal(vec![64, 32], 32, &mut rng)
}

#[test]
fn every_registered_compressor_satisfies_the_contract() {
    let w = test_weight();
    for comp in registry() {
        let name = comp.name();
        let mut rng = StdRng::seed_from_u64(7);
        let artifact = comp
            .compress_matrix(&w, &mut rng)
            .unwrap_or_else(|e| panic!("{name}: compression failed: {e}"));

        // reconstruction round-trips the shape
        let recon = artifact.reconstruct().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(recon.dims(), w.dims(), "{name}: reconstruct dims");
        assert_eq!(artifact.orig_dims(), w.dims(), "{name}: orig_dims");

        // it actually compresses
        let ratio = artifact.compression_ratio();
        assert!(ratio > 1.0, "{name}: ratio {ratio} not > 1");

        // storage breakdown is self-consistent
        let s = artifact.storage();
        assert_eq!(s.original_bits, w.numel() as u64 * 32, "{name}: original bits");
        assert!(s.compressed_bits() > 0, "{name}: zero compressed bits");
        assert_eq!(
            s.compressed_bits(),
            s.assignment_bits + s.mask_bits + s.codebook_bits,
            "{name}: breakdown does not sum"
        );
        let expected = s.original_bits as f64 / s.compressed_bits() as f64;
        assert!((ratio - expected).abs() < 1e-9, "{name}: ratio formula");

        // masked representations decode sparsely, dense ones keep a mask
        // bit count of zero
        if let Some(mask) = artifact.mask() {
            assert!(s.mask_bits > 0, "{name}: mask stored but unbilled");
            assert!(
                (recon.sparsity() - mask.sparsity()).abs() < 0.05,
                "{name}: sparsity {} vs mask {}",
                recon.sparsity(),
                mask.sparsity()
            );
        } else {
            assert_eq!(s.mask_bits, 0, "{name}: mask bits without a mask");
        }

        // every current algorithm records a compression-time SSE
        assert!(artifact.sse().is_some(), "{name}: missing SSE");

        // deterministic under a fixed seed
        let mut rng2 = StdRng::seed_from_u64(7);
        let again = comp.compress_matrix(&w, &mut rng2).expect("second run");
        assert_eq!(
            again.reconstruct().expect("reconstruct").data(),
            recon.data(),
            "{name}: nondeterministic under fixed seed"
        );
    }
}

#[test]
fn blocked_kernel_produces_identical_artifacts_to_naive() {
    // The registry-level guarantee behind KernelStrategy::Blocked being
    // the default: for every algorithm, switching the kernel from the
    // naive oracle to the blocked one changes nothing observable —
    // reconstruction bits, storage accounting, recorded SSE.
    let w = test_weight();
    let base = PipelineSpec { k: 8, swap_trials: 200, ..PipelineSpec::default() };
    for name in ALGORITHM_NAMES {
        let run = |kernel: KernelStrategy| {
            let spec = base.clone().with_kernel(kernel);
            by_name(name, &spec)
                .expect("valid spec")
                .compress_matrix(&w, &mut StdRng::seed_from_u64(17))
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let naive = run(KernelStrategy::Naive);
        let blocked = run(KernelStrategy::Blocked);
        assert_eq!(
            naive.reconstruct().unwrap().data(),
            blocked.reconstruct().unwrap().data(),
            "{name}: blocked reconstruction diverges from naive"
        );
        assert_eq!(naive.storage(), blocked.storage(), "{name}: storage diverges");
        match (naive.sse(), blocked.sse()) {
            (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{name}: SSE diverges"),
            (a, b) => assert_eq!(a, b, "{name}: SSE presence diverges"),
        }
        assert!(
            (naive.compression_ratio() - blocked.compression_ratio()).abs() < f64::EPSILON,
            "{name}: ratio diverges"
        );
    }
}

#[test]
fn registry_names_are_unique_and_match() {
    let names: Vec<&str> = registry().iter().map(|c| c.name()).collect();
    let mut dedup = names.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len(), "duplicate registry names");
    for name in ALGORITHM_NAMES {
        assert!(by_name(name, &PipelineSpec::default()).is_ok(), "{name} missing from by_name");
    }
}

#[test]
fn model_level_dispatch_works_for_every_algorithm() {
    // A cheap spec so DKM/PQF stay fast on the tiny model.
    let spec = PipelineSpec { k: 8, swap_trials: 200, ..PipelineSpec::default() };
    for comp in mvq::core::pipeline::registry_with(&spec).expect("valid spec") {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = mvq::nn::models::tiny_cnn(4, 8, &mut rng);
        let artifacts = comp
            .compress_model(&mut model, &mut rng)
            .unwrap_or_else(|e| panic!("{}: {e}", comp.name()));
        assert_eq!(artifacts.algorithm, comp.name());
        assert!(!artifacts.layers.is_empty(), "{}: no layers", comp.name());
        assert!(artifacts.compression_ratio() > 1.0, "{}", comp.name());
    }
}

#[test]
fn trait_object_and_concrete_mvq_agree() {
    // dispatching "mvq" through the registry must equal calling the
    // concrete compressor with the same seed
    let w = test_weight();
    let spec = PipelineSpec::default();
    let via_registry =
        by_name("mvq", &spec).unwrap().compress_matrix(&w, &mut StdRng::seed_from_u64(9)).unwrap();
    let concrete = mvq::core::MvqCompressor::new(spec)
        .unwrap()
        .compress_matrix(&w, &mut StdRng::seed_from_u64(9))
        .unwrap();
    assert_eq!(via_registry.reconstruct().unwrap().data(), concrete.reconstruct().unwrap().data());
}

fn artifact_bits(a: &CompressedArtifact) -> Vec<u32> {
    a.reconstruct().expect("reconstruct").data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn ticket_paths_match_fresh_compression_for_every_algorithm() {
    // The service contract: a ticket served by `CompressionService` (cold
    // and from cache) and a fresh registry compression with the same seed
    // must reconstruct the exact same bit pattern.
    let w = test_weight();
    let spec = PipelineSpec { k: 8, swap_trials: 200, ..PipelineSpec::default() };
    let service = CompressionService::builder().workers(2).build().unwrap();
    for name in ALGORITHM_NAMES {
        let request = || {
            CompressionRequest::builder(name, w.clone(), name)
                .spec(spec.clone())
                .seed(41)
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let cold = service.submit_one(request()).wait().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!cold.from_cache, "{name}: first submission must compress");
        let warm = service.submit_one(request()).wait().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(warm.from_cache, "{name}: second submission must hit");
        let fresh = by_name(name, &spec)
            .expect("valid spec")
            .compress_matrix(&w, &mut StdRng::seed_from_u64(41))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (label, served) in [
            ("cold ticket", cold.artifact().expect("decode")),
            ("warm ticket", warm.artifact().expect("decode")),
        ] {
            let served = &served;
            assert_eq!(
                artifact_bits(served),
                artifact_bits(&fresh),
                "{name}: {label} serve diverges from a fresh compression"
            );
            assert_eq!(served.storage(), fresh.storage(), "{name}: {label} storage");
        }
    }
}

#[test]
fn concurrent_submitters_get_bit_identical_artifacts() {
    // Worker interleaving must be unobservable: four submitter threads
    // race the same pinned-seed job set (mixed priorities, duplicates in
    // flight) into one pooled service, twice over — every outcome must
    // equal the fresh single-threaded compression, bit for bit.
    let spec = PipelineSpec { k: 8, swap_trials: 200, ..PipelineSpec::default() };
    let mut wrng = StdRng::seed_from_u64(0xD1CE);
    let weights: Vec<mvq::tensor::Tensor> =
        (0..3).map(|_| mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut wrng)).collect();
    let algos = ["mvq", "vq-a", "pvq"];
    let fresh: Vec<Vec<u32>> = weights
        .iter()
        .zip(algos)
        .map(|(w, algo)| {
            let artifact = by_name(algo, &spec)
                .unwrap()
                .compress_matrix(w, &mut StdRng::seed_from_u64(77))
                .unwrap();
            artifact_bits(&artifact)
        })
        .collect();
    for round in 0..2 {
        let service = CompressionService::builder().workers(4).build().unwrap();
        std::thread::scope(|scope| {
            for submitter in 0..4 {
                let service = &service;
                let weights = &weights;
                let spec = &spec;
                let fresh = &fresh;
                scope.spawn(move || {
                    let priority = if submitter % 2 == 0 {
                        mvq::serve::Priority::High
                    } else {
                        mvq::serve::Priority::Low
                    };
                    let tickets: Vec<mvq::serve::Ticket> = weights
                        .iter()
                        .zip(algos)
                        .map(|(w, algo)| {
                            let request = CompressionRequest::builder(
                                format!("s{submitter}-{algo}"),
                                w.clone(),
                                algo,
                            )
                            .spec(spec.clone())
                            .seed(77)
                            .priority(priority)
                            .build()
                            .unwrap();
                            service.submit_one(request)
                        })
                        .collect();
                    for (i, ticket) in tickets.into_iter().enumerate() {
                        let outcome = ticket.wait().unwrap();
                        assert_eq!(
                            artifact_bits(&outcome.artifact().expect("decode")),
                            fresh[i],
                            "round {round}, submitter {submitter}: interleaving changed bits"
                        );
                    }
                });
            }
        });
    }
}

#[test]
fn memory_eviction_under_byte_budget_is_lru_and_never_exceeds() {
    // A service whose cache policy caps resident bytes at roughly two
    // artifacts: the least-recently-used entry is evicted, the budget is
    // never exceeded, and an evicted key simply recompresses to the same
    // bits.
    let spec = PipelineSpec { k: 8, swap_trials: 200, ..PipelineSpec::default() };
    let probe = {
        let service = CompressionService::builder().workers(1).build().unwrap();
        let request = CompressionRequest::builder("probe", test_weight(), "mvq")
            .spec(spec.clone())
            .seed(0)
            .build()
            .unwrap();
        service.submit_one(request).wait().unwrap();
        service.cache().memory_bytes()
    };
    let cap = 2 * probe;
    let service = CompressionService::builder()
        .workers(1)
        .cache(ArtifactCache::in_memory_with_budget(CacheBudget::UNBOUNDED.with_memory_bytes(cap)))
        .build()
        .unwrap();
    assert_eq!(service.cache().budget(), CacheBudget::UNBOUNDED.with_memory_bytes(cap));
    let submit = |seed: u64| {
        let request = CompressionRequest::builder(format!("job-{seed}"), test_weight(), "mvq")
            .spec(spec.clone())
            .seed(seed)
            .build()
            .unwrap();
        let outcome = service.submit_one(request).wait().unwrap();
        assert!(
            service.cache().memory_bytes() <= cap,
            "budget exceeded: {} > {cap}",
            service.cache().memory_bytes()
        );
        outcome
    };
    let first = submit(1);
    submit(2);
    submit(1); // touch: seed 2 becomes the LRU victim
    submit(3); // evicts seed 2
    let stats = service.cache().stats();
    assert_eq!(stats.memory_evictions, 1, "{stats:?}");
    assert!(submit(1).from_cache, "recently used entry was evicted");
    let recompressed = submit(2);
    assert!(!recompressed.from_cache, "LRU entry survived eviction");
    assert_eq!(
        artifact_bits(&recompressed.artifact().expect("decode")),
        artifact_bits(&submit(2).artifact().expect("decode")),
        "eviction changed served bits"
    );
    let _ = first;
}

#[test]
fn disk_eviction_respects_budget_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("mvq-evict-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PipelineSpec { k: 8, swap_trials: 200, ..PipelineSpec::default() };
    let submit = |service: &CompressionService, seed: u64| {
        let request = CompressionRequest::builder(format!("job-{seed}"), test_weight(), "mvq")
            .spec(spec.clone())
            .seed(seed)
            .build()
            .unwrap();
        service.submit_one(request).wait().unwrap()
    };

    // fill an unbudgeted disk cache with three blobs, oldest first (the
    // sleeps order modification times for the restart's LRU scan)
    let blob_len = {
        let service = CompressionService::builder()
            .cache(ArtifactCache::with_dir(&dir).unwrap())
            .build()
            .unwrap();
        for seed in 1..=3 {
            submit(&service, seed);
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert_eq!(service.cache().disk_len(), 3);
        service.cache().disk_bytes() / 3
    };

    // restart under a two-blob budget: the scan must prune the stalest
    // blob first and never exceed the budget afterwards
    let cap = 2 * blob_len + blob_len / 2;
    let service = CompressionService::builder()
        .workers(1)
        .cache(
            ArtifactCache::with_dir_and_budget(&dir, CacheBudget::UNBOUNDED.with_disk_bytes(cap))
                .unwrap(),
        )
        .build()
        .unwrap();
    assert_eq!(service.cache().disk_len(), 2, "restart did not prune to the budget");
    assert!(service.cache().disk_bytes() <= cap);
    assert_eq!(service.cache().stats().disk_evictions, 1);
    assert!(!submit(&service, 1).from_cache, "stalest blob must be the eviction victim");
    assert!(submit(&service, 3).from_cache, "freshest blob must survive the restart prune");
    // the put for seed 1 re-evicted the then-LRU blob; the budget held
    assert!(service.cache().disk_bytes() <= cap);
    assert_eq!(service.cache().disk_len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_is_deterministic_across_order_and_batching() {
    // The same 24-request set (12 unique keys, each submitted twice) —
    // all in flight at once, in reverse, and one request at a time — must
    // produce bit-identical artifacts per request name. The later twin of
    // every pair rides the earlier one (dedup share or cache hit), and
    // resubmitting the whole set is all cache hits.
    let spec = PipelineSpec { k: 8, swap_trials: 200, ..PipelineSpec::default() };
    let mut wrng = StdRng::seed_from_u64(0xBEEF);
    let weights: Vec<mvq::tensor::Tensor> =
        (0..4).map(|_| mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut wrng)).collect();
    let requests = || -> Vec<CompressionRequest> {
        let mut requests = Vec::new();
        for (i, w) in weights.iter().enumerate() {
            for algo in ["mvq", "vq-a", "pvq"] {
                // each job plus a duplicate of it, exercising in-flight dedup
                for name in [format!("w{i}-{algo}"), format!("w{i}-{algo}-dup")] {
                    let request =
                        CompressionRequest::builder(name, w.clone(), algo).spec(spec.clone());
                    requests.push(request.build().unwrap());
                }
            }
        }
        requests
    };
    let wait_all = |tickets: Vec<Ticket>| -> Vec<JobOutcome> {
        tickets.into_iter().map(|t| t.wait().expect("job")).collect()
    };
    let collect = |outcomes: &[JobOutcome]| {
        let mut named: Vec<(String, Vec<u32>)> = outcomes
            .iter()
            .map(|o| (o.name.clone(), artifact_bits(&o.artifact().expect("decode"))))
            .collect();
        named.sort();
        named
    };
    // outcomes arrive in submission order; the first of each twin pair
    // compresses, the second shares its result
    let assert_twins_share = |outcomes: &[JobOutcome], leg: &str| {
        for (i, o) in outcomes.iter().enumerate() {
            let twin = o.name.trim_end_matches("-dup");
            let first = outcomes.iter().position(|p| p.name.trim_end_matches("-dup") == twin);
            let shared = o.deduped || o.from_cache;
            assert_eq!(shared, first != Some(i), "{leg}: {} deduped/from_cache = {shared}", o.name);
        }
    };

    let service = CompressionService::builder().workers(4).build().unwrap();
    let forward = wait_all(requests().into_iter().map(|r| service.submit_one(r)).collect());
    assert_twins_share(&forward, "forward");

    let reversed_service = CompressionService::builder().workers(4).build().unwrap();
    let reversed =
        wait_all(requests().into_iter().rev().map(|r| reversed_service.submit_one(r)).collect());
    assert_twins_share(&reversed, "reversed");
    assert_eq!(collect(&forward), collect(&reversed), "order changed results");

    let serial_service = CompressionService::builder().workers(4).build().unwrap();
    let serial: Vec<JobOutcome> =
        requests().into_iter().map(|r| serial_service.submit_one(r).wait().expect("job")).collect();
    assert_twins_share(&serial, "serial");
    assert!(serial.iter().all(|o| !o.deduped), "serial submission never has a twin in flight");
    assert_eq!(collect(&forward), collect(&serial), "batching changed results");

    let resubmit = wait_all(requests().into_iter().map(|r| service.submit_one(r)).collect());
    assert!(resubmit.iter().all(|o| o.from_cache), "a full resubmission must be all cache hits");
    assert_eq!(collect(&forward), collect(&resubmit));
}

#[test]
fn disk_backed_service_survives_restart_bit_identically() {
    let dir = std::env::temp_dir().join(format!("mvq-conformance-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
    let w = test_weight();
    let request = || {
        CompressionRequest::builder("conv0", w.clone(), "mvq").spec(spec.clone()).build().unwrap()
    };

    let first = CompressionService::builder()
        .cache(ArtifactCache::with_dir(&dir).expect("cache dir"))
        .build()
        .unwrap();
    let cold = first.submit_one(request()).wait().expect("cold");
    assert!(!cold.from_cache);
    drop(first);

    // a new service over the same directory: the artifact must come back
    // from disk, bit-identical
    let second = CompressionService::builder()
        .cache(ArtifactCache::with_dir(&dir).expect("cache dir"))
        .build()
        .unwrap();
    assert_eq!(second.cache().disk_len(), 1, "restart scan must see the persisted blob");
    let warm = second.submit_one(request()).wait().expect("warm");
    assert!(warm.from_cache);
    assert_eq!(
        artifact_bits(&cold.artifact().expect("decode")),
        artifact_bits(&warm.artifact().expect("decode")),
        "disk round-trip changed the artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
