//! Masked k-means (paper §4.4): the clustering step of MVQ.
//!
//! Two modifications to standard k-means:
//!
//! * **masked assignment** (Eq. 2) — the distance between subvector `w_j`
//!   and codeword `c` only counts unpruned lanes:
//!   `c_i = argmin_c ‖w_j − c ∘ bm_j‖²`;
//! * **masked update** (Eq. 3/4) — each codeword lane is the mean of the
//!   *unpruned* values assigned to it: `c*_i = Σ_p v_p / Σ_p n_p`
//!   (elementwise), so the flood of structural zeros cannot drag important
//!   lanes toward zero.
//!
//! ## Kernel dispatch
//!
//! The assignment/SSE hot loops run through [`crate::kernels`], selected
//! by [`KmeansConfig::kernel`]: the per-row naive oracle, the center-major
//! LUT-masked kernel (bit-identical to the oracle, the default), the
//! lane-parallel SIMD kernel (assignment-identical, SSE within the pinned
//! ULP bound), or minibatch iterations ([`masked_kmeans_minibatch`]) that
//! sample a batch of live subvectors per step — deterministic for a fixed
//! seed, and the crosslayer scope's answer to clustering millions of
//! subvectors at once. [`masked_assign_naive`] remains the reference every
//! kernel is differentially tested against (see [`crate::differential`]).

use mvq_tensor::Tensor;
use rand::Rng;

use crate::codebook::{Assignments, Codebook};
use crate::error::MvqError;
use crate::kernels::{
    default_minibatch_size, masked_assign_blocked_into, masked_assign_step, masked_sse_blocked,
    masked_sse_simd, KernelStrategy, MaskedDistancePlan,
};
use crate::kmeans::{check_data, kmeanspp_init, KmeansConfig, KmeansResult};
use crate::mask::NmMask;

/// Runs masked k-means over `data` (`[NG, d]`, pruned lanes zero) with its
/// N:M `mask`, dispatching the hot loops through the kernel named by
/// `cfg.kernel`.
///
/// Under [`KernelStrategy::Minibatch`] this delegates to
/// [`masked_kmeans_minibatch`] with [`default_minibatch_size`], clamping
/// `k` to the number of live (not all-zero) subvectors.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] when data/mask dims disagree or the
/// config is degenerate.
pub fn masked_kmeans<R: Rng>(
    data: &Tensor,
    mask: &NmMask,
    cfg: &KmeansConfig,
    rng: &mut R,
) -> Result<KmeansResult, MvqError> {
    let (ng, d) = check_data(data, cfg.k)?;
    if mask.ng() != ng || mask.d() != d {
        return Err(MvqError::InvalidConfig(format!(
            "mask [{}, {}] does not match data [{ng}, {d}]",
            mask.ng(),
            mask.d()
        )));
    }
    if cfg.kernel == KernelStrategy::Minibatch {
        let live = live_rows(data);
        if live.is_empty() {
            return Err(MvqError::InvalidConfig(
                "all subvectors are zero; nothing to cluster".into(),
            ));
        }
        let k = cfg.k.min(live.len());
        let batch = default_minibatch_size(live.len(), k);
        return minibatch_impl(data, mask, k, cfg.max_iters, batch, &live, rng);
    }
    let k = cfg.k.min(ng);
    let mut centers = kmeanspp_init(data, k, rng);
    let mut assign = vec![0u32; ng];
    // the naive oracle path never reads the plan; only build it for the
    // blocked kernel
    let plan = match cfg.kernel {
        KernelStrategy::Naive => None,
        _ => Some(MaskedDistancePlan::new(mask)?),
    };
    let mut iterations = 0;
    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        let changed =
            masked_assign_step(cfg.kernel, data, mask, plan.as_ref(), &centers, &mut assign);
        masked_update(data, mask, &mut centers, &assign, rng);
        if (changed as f64) < cfg.tol_frac * ng as f64 {
            break;
        }
    }
    masked_assign_step(cfg.kernel, data, mask, plan.as_ref(), &centers, &mut assign);
    // each strategy reports SSE through its own kernel: 0-ULP identical
    // for the order-preserving ones, ULP-bounded for `Simd`
    let sse = match (&plan, cfg.kernel) {
        (None, _) => masked_sse_naive(data, mask, &centers, &assign),
        (Some(plan), KernelStrategy::Simd) => masked_sse_simd(data, plan, &centers, &assign),
        (Some(plan), _) => masked_sse_blocked(data, plan, &centers, &assign),
    };
    Ok(KmeansResult {
        codebook: Codebook::new(centers)?,
        assignments: Assignments::new(assign, k)?,
        sse,
        iterations,
    })
}

/// Minibatch masked k-means: each iteration samples `batch_size` live
/// subvectors (uniformly, with replacement, from `rng`) and applies the
/// per-lane streaming update `c_t ← c_t + (w_t − c_t) / n_t` of Sculley's
/// minibatch k-means, restricted to unpruned lanes. The final assignment
/// and SSE are computed over the *full* dataset with the blocked kernel.
///
/// Dead (all-zero) subvectors are skipped consistently: they are excluded
/// from k-means++ seeding and from batch sampling — mirroring the
/// dead-layer skip in the model fan-out — so their structural zeros never
/// drag codewords down. They still receive a (nearest-codeword) assignment
/// in the returned result.
///
/// Deterministic for a fixed seed: the result depends only on `data`,
/// `mask`, `cfg`, `batch_size`, and the rng state.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] when data/mask dims disagree,
/// `batch_size == 0`, every subvector is zero, or `cfg.k` exceeds the
/// number of live subvectors (the strategy-dispatch path in
/// [`masked_kmeans`] clamps `k` instead).
pub fn masked_kmeans_minibatch<R: Rng>(
    data: &Tensor,
    mask: &NmMask,
    cfg: &KmeansConfig,
    batch_size: usize,
    rng: &mut R,
) -> Result<KmeansResult, MvqError> {
    let (ng, d) = check_data(data, cfg.k)?;
    if mask.ng() != ng || mask.d() != d {
        return Err(MvqError::InvalidConfig(format!(
            "mask [{}, {}] does not match data [{ng}, {d}]",
            mask.ng(),
            mask.d()
        )));
    }
    if batch_size == 0 {
        return Err(MvqError::InvalidConfig("minibatch size must be positive".into()));
    }
    let live = live_rows(data);
    if live.is_empty() {
        return Err(MvqError::InvalidConfig("all subvectors are zero; nothing to cluster".into()));
    }
    if cfg.k > live.len() {
        return Err(MvqError::InvalidConfig(format!(
            "k = {} exceeds the {} live subvectors available to minibatch sampling",
            cfg.k,
            live.len()
        )));
    }
    minibatch_impl(data, mask, cfg.k, cfg.max_iters, batch_size, &live, rng)
}

/// The minibatch loop proper; `live` is the precomputed non-dead row set
/// (both entry points validate before calling, so the full-data scan runs
/// exactly once even on the dispatch path).
fn minibatch_impl<R: Rng>(
    data: &Tensor,
    mask: &NmMask,
    k: usize,
    max_iters: usize,
    batch_size: usize,
    live: &[usize],
    rng: &mut R,
) -> Result<KmeansResult, MvqError> {
    let ng = data.dims()[0];
    let d = data.dims()[1];
    // Seeding and sampling run over the live subset only, so the result is
    // identical whether or not dead rows are present in `data`.
    let mut live_data = Tensor::zeros(vec![live.len(), d]);
    for (r, &j) in live.iter().enumerate() {
        live_data.row_mut(r).copy_from_slice(data.row(j));
    }
    let mut centers = kmeanspp_init(&live_data, k, rng);
    let plan = MaskedDistancePlan::new(mask)?;
    let mut counts = vec![0u64; k * d];
    for _ in 0..max_iters {
        for _ in 0..batch_size {
            let j = live[rng.gen_range(0..live.len())];
            let i = nearest_masked(data.row(j), &plan, j, &centers) as usize;
            let row = data.row(j);
            let mrow = mask.row(j);
            let c = centers.row_mut(i);
            for t in 0..d {
                if mrow[t] {
                    counts[i * d + t] += 1;
                    c[t] += (row[t] - c[t]) / counts[i * d + t] as f32;
                }
            }
        }
    }
    let mut assign = vec![0u32; ng];
    masked_assign_blocked_into(data, &plan, &centers, &mut assign);
    let sse = masked_sse_blocked(data, &plan, &centers, &assign);
    Ok(KmeansResult {
        codebook: Codebook::new(centers)?,
        assignments: Assignments::new(assign, k)?,
        sse,
        iterations: max_iters,
    })
}

/// Minibatch masked k-means over per-layer `(pruned, mask)` chunks —
/// the crosslayer scope's streaming form. **Bit-identical** to
/// [`masked_kmeans_minibatch`] over the chunks' concatenation, without
/// ever materializing the concatenated matrix or mask: seeding and batch
/// sampling address rows through a chunk map, each chunk keeps its own
/// [`MaskedDistancePlan`] (plans are row-local, so per-chunk rows equal
/// the concatenation's), and the final SSE threads a single f64
/// accumulator across chunks in row order.
///
/// `batch_size = None` mirrors the [`masked_kmeans`] strategy dispatch:
/// `k` is clamped to the live-row count and the batch is
/// [`default_minibatch_size`]. `Some(b)` mirrors
/// [`masked_kmeans_minibatch`]'s strict `k` validation.
///
/// Returns assignments over the **concatenated** row space (chunk 0's
/// rows first), so callers slice per chunk exactly as they would after a
/// monolithic run.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] when chunks are empty or disagree
/// in `d`/N:M, every subvector is zero, `batch_size == 0`, or (with
/// `Some`) `cfg.k` exceeds the live-row count.
pub fn masked_kmeans_minibatch_chunked<R: Rng>(
    chunks: &[(&Tensor, &NmMask)],
    cfg: &KmeansConfig,
    batch_size: Option<usize>,
    rng: &mut R,
) -> Result<KmeansResult, MvqError> {
    if chunks.is_empty() {
        return Err(MvqError::InvalidConfig("chunked minibatch needs at least one chunk".into()));
    }
    if cfg.k == 0 {
        return Err(MvqError::InvalidConfig("k must be positive".into()));
    }
    let (d, keep_n, m) = {
        let (_, mask0) = chunks[0];
        (mask0.d(), mask0.keep_n(), mask0.m())
    };
    let mut map: Vec<(u32, u32)> = Vec::new();
    let mut total_ng = 0usize;
    for (c, (data, mask)) in chunks.iter().enumerate() {
        if data.rank() != 2 || data.dims()[1] != d {
            return Err(MvqError::InvalidConfig(format!(
                "chunk {c} is {:?}, expected [NG, {d}]",
                data.dims()
            )));
        }
        let ng = data.dims()[0];
        if mask.ng() != ng || mask.d() != d || mask.keep_n() != keep_n || mask.m() != m {
            return Err(MvqError::InvalidConfig(format!(
                "chunk {c} mask [{}, {}] ({}:{}) does not match its data [{ng}, {d}] ({keep_n}:{m})",
                mask.ng(),
                mask.d(),
                mask.keep_n(),
                mask.m()
            )));
        }
        for r in 0..ng {
            if data.row(r).iter().any(|&x| x != 0.0) {
                map.push((c as u32, r as u32));
            }
        }
        total_ng += ng;
    }
    if map.is_empty() {
        return Err(MvqError::InvalidConfig("all subvectors are zero; nothing to cluster".into()));
    }
    let (k, batch) = match batch_size {
        None => {
            let k = cfg.k.min(map.len());
            (k, default_minibatch_size(map.len(), k))
        }
        Some(b) => {
            if b == 0 {
                return Err(MvqError::InvalidConfig("minibatch size must be positive".into()));
            }
            if cfg.k > map.len() {
                return Err(MvqError::InvalidConfig(format!(
                    "k = {} exceeds the {} live subvectors available to minibatch sampling",
                    cfg.k,
                    map.len()
                )));
            }
            (cfg.k, b)
        }
    };
    let row = |pos: usize| -> &[f32] {
        let (c, r) = map[pos];
        chunks[c as usize].0.row(r as usize)
    };
    // k-means++ over the live rows, replicating `kmeanspp_init` on the
    // dense live-row copy draw for draw and op for op
    let mut centers = Tensor::zeros(vec![k, d]);
    let first = rng.gen_range(0..map.len());
    centers.row_mut(0).copy_from_slice(row(first));
    let mut best_d2 = vec![f32::INFINITY; map.len()];
    for c in 1..k {
        let prev = centers.row(c - 1).to_vec();
        for (j, d2) in best_d2.iter_mut().enumerate() {
            let v = crate::kmeans::sq_dist(row(j), &prev);
            if v < *d2 {
                *d2 = v;
            }
        }
        let total: f64 = best_d2.iter().map(|&x| x as f64).sum();
        let pick = if total <= 0.0 {
            rng.gen_range(0..map.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = map.len() - 1;
            for (j, &x) in best_d2.iter().enumerate() {
                target -= x as f64;
                if target <= 0.0 {
                    chosen = j;
                    break;
                }
            }
            chosen
        };
        centers.row_mut(c).copy_from_slice(row(pick));
    }
    let plans: Vec<MaskedDistancePlan> =
        chunks.iter().map(|(_, mask)| MaskedDistancePlan::new(mask)).collect::<Result<_, _>>()?;
    // Sculley updates over sampled live rows — the same draws and lane
    // arithmetic as `minibatch_impl` over the concatenation
    let mut counts = vec![0u64; k * d];
    for _ in 0..cfg.max_iters {
        for _ in 0..batch {
            let pos = rng.gen_range(0..map.len());
            let (ci, r) = map[pos];
            let (data, mask) = chunks[ci as usize];
            let r = r as usize;
            let wrow = data.row(r);
            let i = nearest_masked(wrow, &plans[ci as usize], r, &centers) as usize;
            let mrow = mask.row(r);
            let c = centers.row_mut(i);
            for t in 0..d {
                if mrow[t] {
                    counts[i * d + t] += 1;
                    c[t] += (wrow[t] - c[t]) / counts[i * d + t] as f32;
                }
            }
        }
    }
    // full assignment chunk by chunk (the blocked kernel is row-local),
    // SSE through one f64 across chunks in row order
    let mut assign = vec![0u32; total_ng];
    let mut sse = 0.0f64;
    let mut offset = 0usize;
    for (c, (data, _)) in chunks.iter().enumerate() {
        let ng = data.dims()[0];
        let slot = &mut assign[offset..offset + ng];
        masked_assign_blocked_into(data, &plans[c], &centers, slot);
        crate::kernels::masked_sse_blocked_acc(data, &plans[c], &centers, slot, &mut sse);
        offset += ng;
    }
    Ok(KmeansResult {
        codebook: Codebook::new(centers)?,
        assignments: Assignments::new(assign, k)?,
        sse: sse as f32,
        iterations: cfg.max_iters,
    })
}

/// Indices of subvectors with at least one nonzero lane.
fn live_rows(data: &Tensor) -> Vec<usize> {
    (0..data.dims()[0]).filter(|&j| data.row(j).iter().any(|&x| x != 0.0)).collect()
}

/// Nearest codeword for a single subvector under its mask multipliers.
fn nearest_masked(row: &[f32], plan: &MaskedDistancePlan, j: usize, centers: &Tensor) -> u32 {
    let k = centers.dims()[0];
    let mm = plan.multiplier_row(j);
    let mut best = 0u32;
    let mut best_v = f32::INFINITY;
    for i in 0..k {
        let c = centers.row(i);
        let mut acc = 0.0f32;
        for (t, (&w, &m)) in row.iter().zip(mm).enumerate() {
            let e = w - c[t] * m;
            acc += e * e;
        }
        if acc < best_v {
            best_v = acc;
            best = i as u32;
        }
    }
    best
}

/// Masked SSE (Eq. 1): `Σ_j ‖w_j − q(w_j) ∘ bm_j‖²` for an existing
/// codebook/assignment pair.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] on dimension mismatches.
pub fn masked_sse(
    data: &Tensor,
    mask: &NmMask,
    codebook: &Codebook,
    assignments: &Assignments,
) -> Result<f32, MvqError> {
    if data.rank() != 2
        || data.dims() != [mask.ng(), mask.d()]
        || assignments.len() != mask.ng()
        || codebook.d() != mask.d()
    {
        return Err(MvqError::InvalidConfig(
            "data, mask, codebook and assignments must agree in shape".into(),
        ));
    }
    Ok(masked_sse_naive(data, mask, codebook.centers(), assignments.indices()))
}

/// The naive masked-SSE reference: one f64 accumulator, rows then lanes in
/// ascending order. [`crate::kernels::masked_sse_with`] must match this to
/// 0 ULP for every strategy.
pub(crate) fn masked_sse_naive(
    data: &Tensor,
    mask: &NmMask,
    centers: &Tensor,
    assign: &[u32],
) -> f32 {
    let ng = data.dims()[0];
    let d = data.dims()[1];
    let mut sse = 0.0f64;
    for j in 0..ng {
        let row = data.row(j);
        let c = centers.row(assign[j] as usize);
        let m = mask.row(j);
        for t in 0..d {
            let ct = if m[t] { c[t] } else { 0.0 };
            let e = row[t] - ct;
            sse += (e * e) as f64;
        }
    }
    sse as f32
}

/// Naive reference for the masked assignment (Eq. 2), O(NG·k·d) with
/// explicit masking and fixed left-to-right f32 accumulation — the oracle
/// the blocked kernel is property-tested against, and the `naive` arm of
/// the `masked_kmeans` Criterion bench.
pub fn masked_assign_naive(data: &Tensor, mask: &NmMask, centers: &Tensor) -> Vec<u32> {
    let ng = data.dims()[0];
    let d = data.dims()[1];
    let k = centers.dims()[0];
    let mut assign = vec![0u32; ng];
    for j in 0..ng {
        let row = data.row(j);
        let m = mask.row(j);
        let mut best = 0usize;
        let mut best_v = f32::INFINITY;
        for i in 0..k {
            let c = centers.row(i);
            let mut acc = 0.0f32;
            for t in 0..d {
                let ct = if m[t] { c[t] } else { 0.0 };
                let e = row[t] - ct;
                acc += e * e;
            }
            if acc < best_v {
                best_v = acc;
                best = i;
            }
        }
        assign[j] = best as u32;
    }
    assign
}

/// Masked update (Eq. 4): per-lane weighted average over unpruned entries.
fn masked_update<R: Rng>(
    data: &Tensor,
    mask: &NmMask,
    centers: &mut Tensor,
    assign: &[u32],
    rng: &mut R,
) {
    let ng = data.dims()[0];
    let d = data.dims()[1];
    let k = centers.dims()[0];
    let mut sums = vec![0.0f64; k * d];
    let mut counts = vec![0.0f64; k * d];
    let mut members = vec![0usize; k];
    for j in 0..ng {
        let i = assign[j] as usize;
        members[i] += 1;
        let row = data.row(j);
        let m = mask.row(j);
        // Branch-free and, for finite data, bit-identical to adding only
        // the kept lanes: a pruned lane adds `row[t] · 0.0 = ±0.0` to a
        // sum that starts at +0.0 (x + ±0.0 == x for x ≠ 0, and
        // +0.0 + ±0.0 == +0.0), and the counts are small integers, exact
        // in f64.
        let (sums, counts) = (&mut sums[i * d..(i + 1) * d], &mut counts[i * d..(i + 1) * d]);
        for t in 0..d {
            let mk = m[t] as u8 as f64;
            sums[t] += row[t] as f64 * mk;
            counts[t] += mk;
        }
    }
    for i in 0..k {
        if members[i] == 0 {
            let j = rng.gen_range(0..ng);
            centers.row_mut(i).copy_from_slice(data.row(j));
            continue;
        }
        let c = centers.row_mut(i);
        for t in 0..d {
            if counts[i * d + t] > 0.0 {
                c[t] = (sums[i * d + t] / counts[i * d + t]) as f32;
            }
            // lanes never unmasked keep their previous value: pruned
            // weights do not rely on the codeword (paper §4.4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::prune_matrix_nm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pruned_random(ng: usize, d: usize, n: usize, m: usize, seed: u64) -> (Tensor, NmMask) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq_tensor::uniform(vec![ng, d], -1.0, 1.0, &mut rng);
        prune_matrix_nm(&w, n, m).unwrap()
    }

    fn with_kernel(k: usize, kernel: KernelStrategy) -> KmeansConfig {
        KmeansConfig::new(k).with_kernel(kernel)
    }

    #[test]
    fn blocked_assignment_matches_naive() {
        let (data, mask) = pruned_random(64, 8, 2, 4, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let centers = kmeanspp_init(&data, 7, &mut rng);
        let naive = masked_assign_naive(&data, &mask, &centers);
        let blocked =
            crate::kernels::masked_assign_with(KernelStrategy::Blocked, &data, &mask, &centers)
                .unwrap();
        assert_eq!(naive, blocked);
    }

    #[test]
    fn naive_and_blocked_full_runs_are_identical() {
        let (data, mask) = pruned_random(256, 16, 4, 16, 1);
        let run = |kernel| {
            masked_kmeans(&data, &mask, &with_kernel(16, kernel), &mut StdRng::seed_from_u64(2))
                .unwrap()
        };
        let naive = run(KernelStrategy::Naive);
        let blocked = run(KernelStrategy::Blocked);
        assert_eq!(naive.assignments.indices(), blocked.assignments.indices());
        assert_eq!(naive.codebook.centers().data(), blocked.codebook.centers().data());
        assert_eq!(naive.sse.to_bits(), blocked.sse.to_bits());
        assert_eq!(naive.iterations, blocked.iterations);
    }

    #[test]
    fn masked_beats_unmasked_on_masked_sse() {
        // The defining property (paper Tab. 3): on sparse weights, masked
        // k-means reaches lower masked SSE than plain k-means.
        let (data, mask) = pruned_random(512, 16, 4, 16, 2);
        let cfg = KmeansConfig::new(16);
        let masked = masked_kmeans(&data, &mask, &cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        let plain =
            crate::kmeans::kmeans(&data, &cfg, None, &mut StdRng::seed_from_u64(3)).unwrap();
        let plain_masked_sse =
            masked_sse(&data, &mask, &plain.codebook, &plain.assignments).unwrap();
        assert!(masked.sse < plain_masked_sse, "masked {} !< plain {plain_masked_sse}", masked.sse);
    }

    #[test]
    fn masked_sse_is_result_sse() {
        let (data, mask) = pruned_random(128, 8, 2, 4, 4);
        let res = masked_kmeans(&data, &mask, &KmeansConfig::new(8), &mut StdRng::seed_from_u64(5))
            .unwrap();
        let recomputed = masked_sse(&data, &mask, &res.codebook, &res.assignments).unwrap();
        assert!((res.sse - recomputed).abs() < 1e-3);
    }

    #[test]
    fn identical_rows_cluster_perfectly() {
        // all subvectors equal and fully masked the same way => SSE 0 with k=1
        let row = [1.0f32, 2.0, 0.0, 0.0];
        let data = Tensor::from_vec(vec![8, 4], row.repeat(8)).unwrap();
        let mask = NmMask::from_bits(8, 4, 2, 4, [true, true, false, false].repeat(8)).unwrap();
        let res = masked_kmeans(&data, &mask, &KmeansConfig::new(1), &mut StdRng::seed_from_u64(6))
            .unwrap();
        assert!(res.sse < 1e-9);
        // codeword's masked lanes match the data
        assert!((res.codebook.codeword(0)[0] - 1.0).abs() < 1e-6);
        assert!((res.codebook.codeword(0)[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn complementary_masks_share_codeword() {
        // Two groups with disjoint masks can share one codeword perfectly:
        // the masked update fills each lane from the group that keeps it.
        let mut data = Vec::new();
        let mut bits = Vec::new();
        for j in 0..10 {
            if j % 2 == 0 {
                data.extend_from_slice(&[0.7, 0.7, 0.0, 0.0]);
                bits.extend_from_slice(&[true, true, false, false]);
            } else {
                data.extend_from_slice(&[0.0, 0.0, 0.5, 0.5]);
                bits.extend_from_slice(&[false, false, true, true]);
            }
        }
        let data = Tensor::from_vec(vec![10, 4], data).unwrap();
        let mask = NmMask::from_bits(10, 4, 2, 4, bits).unwrap();
        let res = masked_kmeans(&data, &mask, &KmeansConfig::new(1), &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert!(res.sse < 1e-9, "sse {}", res.sse);
        let c = res.codebook.codeword(0);
        assert!((c[0] - 0.7).abs() < 1e-6 && (c[3] - 0.5).abs() < 1e-6, "{c:?}");
    }

    #[test]
    fn validates_mismatched_mask() {
        let (data, _) = pruned_random(16, 8, 2, 4, 8);
        let (_, other_mask) = pruned_random(8, 8, 2, 4, 9);
        let cfg = KmeansConfig::new(4);
        assert!(masked_kmeans(&data, &other_mask, &cfg, &mut StdRng::seed_from_u64(0)).is_err());
        assert!(masked_kmeans_minibatch(
            &data,
            &other_mask,
            &cfg,
            8,
            &mut StdRng::seed_from_u64(0)
        )
        .is_err());
    }

    #[test]
    fn more_codewords_reduce_masked_sse() {
        let (data, mask) = pruned_random(256, 16, 4, 16, 10);
        let s4 = masked_kmeans(&data, &mask, &KmeansConfig::new(4), &mut StdRng::seed_from_u64(1))
            .unwrap()
            .sse;
        let s64 =
            masked_kmeans(&data, &mask, &KmeansConfig::new(64), &mut StdRng::seed_from_u64(1))
                .unwrap()
                .sse;
        assert!(s64 < s4);
    }

    #[test]
    fn minibatch_is_deterministic_and_reasonable() {
        let (data, mask) = pruned_random(512, 16, 4, 16, 11);
        let cfg = KmeansConfig::new(16);
        let run = |seed| {
            masked_kmeans_minibatch(&data, &mask, &cfg, 128, &mut StdRng::seed_from_u64(seed))
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.assignments.indices(), b.assignments.indices());
        assert_eq!(a.codebook.centers().data(), b.codebook.centers().data());
        assert_eq!(a.sse.to_bits(), b.sse.to_bits());
        // and it actually clusters: better than a single mean codeword
        let k1 = masked_kmeans(&data, &mask, &KmeansConfig::new(1), &mut StdRng::seed_from_u64(6))
            .unwrap();
        assert!(a.sse < k1.sse, "minibatch {} !< k=1 {}", a.sse, k1.sse);
    }

    #[test]
    fn minibatch_dispatch_through_strategy() {
        let (data, mask) = pruned_random(256, 16, 4, 16, 12);
        let cfg = with_kernel(8, KernelStrategy::Minibatch);
        let direct = masked_kmeans_minibatch(
            &data,
            &mask,
            &KmeansConfig::new(8),
            default_minibatch_size(256, 8),
            &mut StdRng::seed_from_u64(13),
        )
        .unwrap();
        let dispatched = masked_kmeans(&data, &mask, &cfg, &mut StdRng::seed_from_u64(13)).unwrap();
        assert_eq!(direct.assignments.indices(), dispatched.assignments.indices());
        assert_eq!(direct.codebook.centers().data(), dispatched.codebook.centers().data());
    }

    #[test]
    fn minibatch_skips_dead_vectors() {
        // Regression pin: interleaving all-zero subvectors must not change
        // the learned codebook — dead rows are invisible to seeding and
        // sampling, exactly like dead layers in the model fan-out.
        let (live, live_mask) = pruned_random(64, 8, 2, 4, 14);
        let mut data = Vec::new();
        let mut bits = Vec::new();
        for j in 0..64 {
            data.extend_from_slice(live.row(j));
            bits.extend_from_slice(live_mask.row(j));
            // every 4th row, insert a dead (all-zero) subvector
            if j % 4 == 0 {
                data.extend_from_slice(&[0.0; 8]);
                bits.extend_from_slice(&[true, true, false, false, true, true, false, false]);
            }
        }
        let ng = 64 + 16;
        let padded = Tensor::from_vec(vec![ng, 8], data).unwrap();
        let padded_mask = NmMask::from_bits(ng, 8, 2, 4, bits).unwrap();
        let cfg = KmeansConfig::new(6);
        let with_dead = masked_kmeans_minibatch(
            &padded,
            &padded_mask,
            &cfg,
            32,
            &mut StdRng::seed_from_u64(15),
        )
        .unwrap();
        let live_only =
            masked_kmeans_minibatch(&live, &live_mask, &cfg, 32, &mut StdRng::seed_from_u64(15))
                .unwrap();
        assert_eq!(
            with_dead.codebook.centers().data(),
            live_only.codebook.centers().data(),
            "dead subvectors leaked into the minibatch codebook"
        );
    }

    #[test]
    fn chunked_single_chunk_is_bit_identical_to_monolithic() {
        let (data, mask) = pruned_random(256, 16, 4, 16, 21);
        let cfg = KmeansConfig::new(12);
        let mono = masked_kmeans_minibatch(&data, &mask, &cfg, 64, &mut StdRng::seed_from_u64(22))
            .unwrap();
        let chunked = masked_kmeans_minibatch_chunked(
            &[(&data, &mask)],
            &cfg,
            Some(64),
            &mut StdRng::seed_from_u64(22),
        )
        .unwrap();
        assert_eq!(mono.assignments.indices(), chunked.assignments.indices());
        assert_eq!(mono.codebook.centers().data(), chunked.codebook.centers().data());
        assert_eq!(mono.sse.to_bits(), chunked.sse.to_bits());
        assert_eq!(mono.iterations, chunked.iterations);
    }

    #[test]
    fn chunked_multi_chunk_matches_monolithic_on_the_concatenation() {
        // Three uneven layer chunks, one with interleaved dead rows — the
        // crosslayer shape. The chunked run must be bit-identical to the
        // strategy-dispatched (k-clamping, auto-batch) run over the
        // concatenation it never builds.
        let parts = [
            pruned_random(96, 16, 4, 16, 23),
            pruned_random(160, 16, 4, 16, 24),
            pruned_random(64, 16, 4, 16, 25),
        ];
        let mut data = Vec::new();
        let mut bits = Vec::new();
        let mut ng = 0usize;
        for (t, m) in &parts {
            data.extend_from_slice(t.data());
            bits.extend_from_slice(m.bits());
            ng += t.dims()[0];
        }
        // dead rows inside a chunk (not only whole-layer skips)
        let (mut t2, m2) = (parts[1].0.clone(), &parts[1].1);
        t2.row_mut(7).fill(0.0);
        let mut data2 = data.clone();
        let off = parts[0].0.dims()[0] * 16;
        data2[off + 7 * 16..off + 8 * 16].fill(0.0);

        let all = Tensor::from_vec(vec![ng, 16], data2).unwrap();
        let all_mask = NmMask::from_bits(ng, 16, 4, 16, bits).unwrap();
        let cfg = with_kernel(16, KernelStrategy::Minibatch);
        let mono = masked_kmeans(&all, &all_mask, &cfg, &mut StdRng::seed_from_u64(26)).unwrap();
        let chunks: Vec<(&Tensor, &NmMask)> =
            vec![(&parts[0].0, &parts[0].1), (&t2, m2), (&parts[2].0, &parts[2].1)];
        let chunked =
            masked_kmeans_minibatch_chunked(&chunks, &cfg, None, &mut StdRng::seed_from_u64(26))
                .unwrap();
        assert_eq!(mono.assignments.indices(), chunked.assignments.indices());
        assert_eq!(mono.codebook.centers().data(), chunked.codebook.centers().data());
        assert_eq!(mono.sse.to_bits(), chunked.sse.to_bits());
    }

    #[test]
    fn chunked_rejects_mismatched_chunks() {
        let (a, am) = pruned_random(32, 16, 4, 16, 27);
        let (b, bm) = pruned_random(32, 8, 2, 4, 28);
        let cfg = KmeansConfig::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        // disagreeing d / N:M across chunks
        assert!(
            masked_kmeans_minibatch_chunked(&[(&a, &am), (&b, &bm)], &cfg, None, &mut rng).is_err()
        );
        // no chunks at all
        assert!(masked_kmeans_minibatch_chunked(&[], &cfg, None, &mut rng).is_err());
        // all-dead chunks
        let zeros = Tensor::zeros(vec![32, 16]);
        assert!(masked_kmeans_minibatch_chunked(&[(&zeros, &am)], &cfg, None, &mut rng).is_err());
    }

    #[test]
    fn minibatch_rejects_degenerate_inputs() {
        let (data, mask) = pruned_random(8, 8, 2, 4, 16);
        let mut rng = StdRng::seed_from_u64(0);
        // zero batch
        assert!(masked_kmeans_minibatch(&data, &mask, &KmeansConfig::new(2), 0, &mut rng).is_err());
        // k exceeding live rows
        assert!(masked_kmeans_minibatch(&data, &mask, &KmeansConfig::new(9), 4, &mut rng).is_err());
        // all-dead data
        let zeros = Tensor::zeros(vec![8, 8]);
        assert!(masked_kmeans_minibatch(&zeros, &mask, &KmeansConfig::new(2), 4, &mut rng).is_err());
    }
}
