//! Concurrency stress test for the artifact cache's one lock: 16 threads
//! hammer get/put on one disk-backed, byte-budgeted cache while the test
//! asserts the cache's standing invariants at every observable instant:
//!
//! * **budgets are hard caps** — `memory_bytes()`/`disk_bytes()` never
//!   exceed their budgets, not even transiently, because admission
//!   evicts LRU victims and inserts in one critical section;
//! * **hits are bit-identical** — a served blob always equals the
//!   reference encoding of a fresh compression for its key, no matter
//!   how many evictions, re-puts, and races it survived;
//! * **stats account exactly once** — every `get` is exactly one hit or
//!   one miss, every `put` is exactly one insertion;
//! * **evicted files are gone** — victims' files are deleted after the
//!   lock is released, and at rest the `.mvqa` files left in the
//!   directory total no more than the disk budget.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mvq::core::pipeline::{by_name, PipelineSpec};
use mvq::core::store::{ArtifactCache, CacheBudget, CacheKey, Persist};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS: usize = 16;
const OPS_PER_THREAD: usize = 200;
const KEYS: usize = 24;

/// A tiny deterministic PCG-style generator so each thread gets its own
/// reproducible op/key stream without sharing an RNG lock.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn sharded_cache_survives_16_submitters_without_breaking_budgets() {
    let dir = std::env::temp_dir().join(format!("mvq-shard-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // KEYS equal-shape artifacts (the spec is fixed, only the seed moves,
    // so every blob has the same size and budget math is exact)
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let weight = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
    let spec = PipelineSpec { k: 8, swap_trials: 50, ..PipelineSpec::default() };
    let compressor = by_name("mvq", &spec).expect("valid spec");
    let mut keys = Vec::with_capacity(KEYS);
    let mut reference: Vec<Arc<[u8]>> = Vec::with_capacity(KEYS);
    for seed in 0..KEYS as u64 {
        let artifact = compressor
            .compress_matrix(&weight, &mut StdRng::seed_from_u64(seed))
            .expect("compress");
        keys.push(CacheKey::new("mvq", &weight, &spec, seed).expect("key"));
        reference.push(artifact.to_bytes().expect("encode").into());
    }
    let blob = reference[0].len() as u64;
    assert!(reference.iter().all(|r| r.len() as u64 == blob), "blobs must be equal-sized");

    // caps well below KEYS blobs, so the threads fight over admission and
    // eviction constantly; memory tighter than disk so both LRUs churn
    let mem_cap = 8 * blob;
    let disk_cap = 12 * blob;
    let budget = CacheBudget { memory_bytes: Some(mem_cap), disk_bytes: Some(disk_cap) };
    let cache = ArtifactCache::with_dir_and_budget(&dir, budget).expect("cache dir");

    let overshoot = AtomicBool::new(false);
    let (gets, puts): (usize, usize) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (cache, keys, reference, overshoot) = (&cache, &keys, &reference, &overshoot);
                scope.spawn(move || {
                    let mut lcg = Lcg(0x5EED + tid as u64);
                    let (mut gets, mut puts) = (0usize, 0usize);
                    for _ in 0..OPS_PER_THREAD {
                        let idx = (lcg.next() % KEYS as u64) as usize;
                        let key = &keys[idx];
                        match lcg.next() % 3 {
                            0 => {
                                gets += 1;
                                if let Some(bytes) = cache.get_raw(key).expect("get") {
                                    assert_eq!(
                                        &*bytes, &*reference[idx],
                                        "hit diverged from recompression for key {idx}"
                                    );
                                }
                            }
                            1 => {
                                puts += 1;
                                cache.put_raw(key, Arc::clone(&reference[idx])).expect("put");
                            }
                            _ => {
                                gets += 1;
                                match cache.get_raw(key).expect("get") {
                                    Some(bytes) => assert_eq!(
                                        &*bytes, &*reference[idx],
                                        "hit diverged from recompression for key {idx}"
                                    ),
                                    None => {
                                        puts += 1;
                                        cache
                                            .put_raw(key, Arc::clone(&reference[idx]))
                                            .expect("put");
                                    }
                                }
                            }
                        }
                        // the budget invariant must hold at every instant,
                        // observed mid-churn from a racing thread
                        if cache.memory_bytes() > mem_cap || cache.disk_bytes() > disk_cap {
                            overshoot.store(true, Ordering::Relaxed);
                        }
                    }
                    (gets, puts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread"))
            .fold((0, 0), |(g, p), (tg, tp)| (g + tg, p + tp))
    });

    assert!(!overshoot.load(Ordering::Relaxed), "a byte budget was exceeded mid-run");
    assert!(cache.memory_bytes() <= mem_cap, "memory budget exceeded at rest");
    assert!(cache.disk_bytes() <= disk_cap, "disk budget exceeded at rest");

    // every get and put must be accounted exactly once
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, gets as u64, "{stats:?}");
    assert_eq!(stats.insertions, puts as u64, "{stats:?}");
    assert_eq!(stats.corrupt_rejections, 0, "{stats:?}");
    assert!(stats.hits > 0, "the stress run never hit — caps are too tight to test hits");
    assert!(stats.memory_evictions > 0, "the memory budget never forced an eviction");
    assert!(stats.disk_evictions > 0, "the disk budget never forced an eviction");

    // victims' files are deleted after the lock is released: at rest, the
    // blob files left on disk must fit the disk budget
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_name().to_string_lossy().ends_with(".mvqa"))
        .map(|e| e.metadata().expect("blob metadata").len())
        .sum();
    assert!(on_disk <= disk_cap, "{on_disk} B of blob files exceed the {disk_cap} B disk budget");

    // every survivor must still be bit-identical after all the churn
    let mut survivors = 0;
    for (idx, key) in keys.iter().enumerate() {
        if let Some(bytes) = cache.get_raw(key).expect("final get") {
            assert_eq!(&*bytes, &*reference[idx], "post-run blob diverged for key {idx}");
            survivors += 1;
        }
    }
    assert!(survivors > 0, "nothing survived the run");
    let _ = std::fs::remove_dir_all(&dir);
}
