//! The traced replay: the benchmark re-runs requests through each
//! layer's public functions, one call per child span, so every layer's
//! share of a request can be read off the spans.
//!
//! * `replay.hit` — a warm hit as the serving stack handles it: request
//!   encode and decode (`mvq-net`), the cache key and the cache probe
//!   (`mvq-core::store`), an in-process submit-and-wait on the server's
//!   own service (`mvq-serve`, which keys and probes again inside), the
//!   response header encode and decode, and the client's artifact frame
//!   check.
//! * `replay.miss` — a never-seen job over the workload's layers and
//!   spec: request encode and decode, the key, the compression
//!   (`mvq-core::pipeline`, one span name per algorithm), the artifact
//!   encode, an in-memory `put_raw` and a disk-backed `put_raw_kind`
//!   (`mvq-core::store`), and for `mvq` the masked assignment kernel on
//!   the pruned layer (`mvq-core::kernels`).

use std::path::Path;
use std::sync::Arc;

use mvq_core::pipeline::{by_name, PipelineSpec, ALGORITHM_NAMES};
use mvq_core::store::{validate_frame, ArtifactCache, BlobKind, CacheKey};
use mvq_core::{masked_assign_with, prune_matrix_nm, KernelStrategy, LayerArtifact, Persist};
use mvq_net::{WireRequest, WireResponse};
use mvq_serve::{CacheMode, CompressionRequest, Priority};
use mvq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{domain, mix};
use crate::trace::Tracer;
use crate::wire::Stack;

/// Span names of the per-algorithm compressions, in registry order.
pub const COMPRESS_SPANS: [&str; 8] = [
    "pipeline.compress.mvq",
    "pipeline.compress.vq-a",
    "pipeline.compress.vq-b",
    "pipeline.compress.vq-c",
    "pipeline.compress.pqf",
    "pipeline.compress.bgd",
    "pipeline.compress.dkm",
    "pipeline.compress.pvq",
];

/// Counts and computed kernel costs gathered alongside the spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// On-wire request sizes (length prefix included), bytes.
    pub req_bytes: Vec<f64>,
    /// On-wire response sizes (header and artifact messages), bytes.
    pub resp_bytes: Vec<f64>,
    /// Assignment kernel time per layer, ms (median of three calls).
    pub assign_ms: Vec<f64>,
    /// Assignment kernel operations per layer, computed from the shapes.
    pub assign_mflop: Vec<f64>,
    /// Assignment kernel bytes moved per layer, computed from the shapes.
    pub assign_mbytes: Vec<f64>,
    /// Replayed results that differ from what the stack served.
    pub wrong: u64,
}

fn wire_request(
    name: &str,
    algo: &str,
    spec: &PipelineSpec,
    seed: u64,
    weight: Tensor,
) -> WireRequest {
    WireRequest {
        id: 0,
        name: name.to_string(),
        algo: algo.to_string(),
        spec: spec.clone(),
        seed: Some(seed),
        priority: Priority::default(),
        cache_mode: CacheMode::default(),
        deadline_ms: None,
        weight,
    }
}

/// Replays `rounds` passes of warm hits over the whole warm set.
///
/// # Errors
///
/// Any layer call failing on inputs the stack already served.
pub fn replay_hits(
    stack: &Stack,
    rounds: usize,
    tr: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let service = stack.server.service();
    for _ in 0..rounds {
        for (i, req) in stack.requests.iter().enumerate() {
            let seed = stack.warm.seeds[i];
            let root = tr.root("replay.hit");
            let wire = wire_request(&req.name, &req.algo, &req.spec, seed, req.weight.clone());
            let frame =
                tr.child(root, "net.req_encode", || wire.encode()).map_err(|e| e.to_string())?;
            counts.req_bytes.push((4 + frame.len()) as f64);
            let decoded = tr
                .child(root, "net.req_decode", || WireRequest::decode(&frame))
                .map_err(|e| e.to_string())?;
            let key = tr
                .child(root, "store.key", || {
                    CacheKey::new(&decoded.algo, &decoded.weight, &decoded.spec, seed)
                })
                .map_err(|e| e.to_string())?;
            let blob = tr
                .child(root, "store.get_raw", || service.cache().get_raw(&key))
                .map_err(|e| e.to_string())?
                .ok_or("a warm key missed the cache")?;
            let request = CompressionRequest::builder(decoded.name, decoded.weight, decoded.algo)
                .spec(decoded.spec)
                .seed(seed)
                .build()
                .map_err(|e| e.to_string())?;
            let outcome = tr
                .child(root, "serve.submit_wait", || service.submit_one(request).wait())
                .map_err(|e| e.to_string())?;
            let served = outcome.raw_bytes().map(|b| &b[..]);
            if !outcome.from_cache
                || served != Some(&stack.reference[i][..])
                || blob[..] != stack.reference[i][..]
            {
                counts.wrong += 1;
            }
            let ok = WireResponse::Ok {
                id: 0,
                name: req.name.clone(),
                from_cache: true,
                deduped: false,
            };
            let header =
                tr.child(root, "net.resp_encode", || ok.encode()).map_err(|e| e.to_string())?;
            counts.resp_bytes.push((4 + header.len() + 4 + blob.len()) as f64);
            tr.child(root, "net.resp_decode", || WireResponse::decode(&header))
                .map_err(|e| e.to_string())?;
            tr.child(root, "net.resp_validate", || validate_frame(BlobKind::Artifact, &blob))
                .map_err(|e| e.to_string())?;
            tr.end(root);
        }
    }
    Ok(())
}

/// Replays one never-seen job per (layer, algorithm) pair over `layers`
/// under `spec`, spilling each result to a disk-backed cache under
/// `disk_dir`.
///
/// # Errors
///
/// Any layer call failing.
pub fn replay_misses(
    layers: &[Tensor],
    spec: &PipelineSpec,
    seed: u64,
    disk_dir: &Path,
    tr: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let memory = ArtifactCache::in_memory();
    let disk = ArtifactCache::with_dir(disk_dir).map_err(|e| e.to_string())?;
    let mut n = 0u64;
    for (layer, weight) in layers.iter().enumerate() {
        for (a, algo) in ALGORITHM_NAMES.into_iter().enumerate() {
            let job_seed = mix(seed, domain::MISS_SEED, (1 << 48) + n);
            n += 1;
            let root = tr.root("replay.miss");
            let wire =
                wire_request(&format!("{algo}-l{layer}"), algo, spec, job_seed, weight.clone());
            let frame =
                tr.child(root, "net.req_encode", || wire.encode()).map_err(|e| e.to_string())?;
            let decoded = tr
                .child(root, "net.req_decode", || WireRequest::decode(&frame))
                .map_err(|e| e.to_string())?;
            let key = tr
                .child(root, "store.key", || CacheKey::new(algo, &decoded.weight, spec, job_seed))
                .map_err(|e| e.to_string())?;
            let comp = by_name(algo, spec).map_err(|e| e.to_string())?;
            let artifact = tr
                .child(root, COMPRESS_SPANS[a], || {
                    comp.compress_matrix(&decoded.weight, &mut StdRng::seed_from_u64(job_seed))
                })
                .map_err(|e| e.to_string())?;
            let bytes: Arc<[u8]> = tr
                .child(root, "pipeline.encode", || artifact.to_bytes())
                .map_err(|e| e.to_string())?
                .into();
            tr.child(root, "store.put_raw", || memory.put_raw(&key, bytes))
                .map_err(|e| e.to_string())?;
            let mvq_centers =
                artifact.codebook().filter(|_| algo == "mvq").map(|c| c.centers().clone());
            let layer_blob: Arc<[u8]> = LayerArtifact { conv_index: layer, artifact }
                .to_bytes()
                .map_err(|e| e.to_string())?
                .into();
            let layer_key = key.layer_key(layer);
            tr.child(root, "store.disk_put", || {
                disk.put_raw_kind(&layer_key, BlobKind::Layer, layer_blob)
            })
            .map_err(|e| e.to_string())?;
            tr.end(root);
            if let Some(centers) = mvq_centers {
                time_assign(weight, spec, &centers, counts)?;
            }
        }
    }
    Ok(())
}

/// Times `masked_assign_with` under the default kernel strategy on the
/// layer's pruned subvectors against its `mvq` codebook `centers`, and
/// computes the call's operations and bytes from the shapes: 3 flops
/// (subtract, multiply, add) per lane per codeword, and one read of the
/// data, the codebook and the mask plus one write of the assignments.
fn time_assign(
    weight: &Tensor,
    spec: &PipelineSpec,
    centers: &Tensor,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let grouped = spec.grouping.group(weight, spec.d).map_err(|e| e.to_string())?;
    let (pruned, mask) =
        prune_matrix_nm(&grouped, spec.keep_n, spec.m).map_err(|e| e.to_string())?;
    let mut ms = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        let assign = masked_assign_with(KernelStrategy::default(), &pruned, &mask, centers)
            .map_err(|e| e.to_string())?;
        ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
        std::hint::black_box(assign);
    }
    let (ng, d, k) = (pruned.dims()[0] as f64, pruned.dims()[1] as f64, centers.dims()[0] as f64);
    counts.assign_ms.push(crate::stats::median(&ms).unwrap_or(f64::NAN));
    counts.assign_mflop.push(3.0 * ng * k * d / 1e6);
    counts.assign_mbytes.push((4.0 * ng * d + 4.0 * k * d + ng * d + 4.0 * ng) / 1e6);
    Ok(())
}
