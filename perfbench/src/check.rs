//! Correctness oracles, run after the timed window.

use std::borrow::Cow;

use mvq_core::pipeline::{by_name, PipelineSpec};
use mvq_core::store::ArtifactCache;
use mvq_core::{
    load_streamed_model, model_cache_key, stream_compress_model, Persist, StreamConfig,
};
use mvq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::nproc;
use crate::wire::{digest, Digest};

/// The bytes an in-process compression of `weight` with `algo` under
/// `spec` and RNG seed `seed` encodes to — what the server must serve.
///
/// # Errors
///
/// Any compression or encode failure.
pub fn oracle_bytes(
    weight: &Tensor,
    algo: &str,
    spec: &PipelineSpec,
    seed: u64,
) -> Result<Vec<u8>, String> {
    let comp = by_name(algo, spec).map_err(|e| e.to_string())?;
    let artifact = comp
        .compress_matrix(weight, &mut StdRng::seed_from_u64(seed))
        .map_err(|e| e.to_string())?;
    artifact.to_bytes().map_err(|e| e.to_string())
}

/// One served artifact to check against the oracle.
pub struct Job<'a> {
    /// The weight the job compressed.
    pub weight: Cow<'a, Tensor>,
    /// Its algorithm.
    pub algo: &'static str,
    /// Its RNG seed.
    pub seed: u64,
    /// Digest of the bytes that were served.
    pub served: Digest,
}

/// Counts, over up to `nproc` threads, the jobs `0..n` whose served
/// bytes differ from the oracle's; `job(i)` describes job `i`.
pub fn count_mismatches<'a, F>(n: usize, spec: &PipelineSpec, job: F) -> u64
where
    F: Fn(usize) -> Job<'a> + Sync,
{
    let threads = nproc().clamp(1, 2);
    let job = &job;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(job)
                        .filter(|j| {
                            oracle_bytes(&j.weight, j.algo, spec, j.seed).map(|b| digest(&b))
                                != Ok(j.served)
                        })
                        .count() as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).sum()
    })
}

/// Streams a small model into an in-memory cache and checks that the
/// reloaded result's fingerprint equals the in-memory path's
/// (`compress_model_artifacts`) at the same seed.
pub fn small_model_stream_matches(spec: &PipelineSpec, seed: u64) -> Result<bool, String> {
    let model = mvq_nn::models::tiny_cnn(4, 8, &mut StdRng::seed_from_u64(seed));
    let comp = by_name("mvq", spec).map_err(|e| e.to_string())?;
    let oracle = comp
        .compress_model_artifacts(&model, &mut StdRng::seed_from_u64(seed))
        .map_err(|e| e.to_string())?;
    let cache = ArtifactCache::in_memory();
    let key = model_cache_key("mvq", &model, spec, seed).map_err(|e| e.to_string())?;
    stream_compress_model(comp.as_ref(), &model, &cache, &key, &StreamConfig::default(), None)
        .map_err(|e| e.to_string())?;
    let streamed = load_streamed_model(&cache, &key)
        .map_err(|e| e.to_string())?
        .ok_or("streamed model missing from the cache")?;
    Ok(streamed.fingerprint().map_err(|e| e.to_string())?
        == oracle.fingerprint().map_err(|e| e.to_string())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_byte_is_a_mismatch() {
        let spec = crate::inputs::wire_spec();
        let weight = crate::inputs::conv_weight(&[16, 4, 3, 3], 5);
        let good = oracle_bytes(&weight, "mvq", &spec, 9).expect("oracle");
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 1;
        let job = |i: usize| Job {
            weight: Cow::Borrowed(&weight),
            algo: "mvq",
            seed: 9,
            served: digest(if i == 0 { &good } else { &bad }),
        };
        assert_eq!(count_mismatches(1, &spec, job), 0);
        assert_eq!(count_mismatches(2, &spec, job), 1);
    }
}
