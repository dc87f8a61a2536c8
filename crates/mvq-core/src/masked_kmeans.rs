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
//! by [`KmeansConfig::kernel`]: the per-row naive oracle or the
//! center-major LUT-masked kernel (bit-identical to the oracle, the
//! default). Every iteration is full-batch, as in the paper.
//! [`masked_assign_naive`] remains the reference every kernel is
//! differentially tested against (see [`crate::differential`]).

use mvq_tensor::Tensor;
use rand::Rng;

use crate::codebook::{Assignments, Codebook};
use crate::error::MvqError;
use crate::kernels::{masked_assign_step, masked_sse_blocked, KernelStrategy, MaskedDistancePlan};
use crate::kmeans::{check_data, kmeanspp_init, KmeansConfig, KmeansResult};
use crate::mask::NmMask;

/// Runs masked k-means over `data` (`[NG, d]`, pruned lanes zero) with its
/// N:M `mask`, dispatching the hot loops through the kernel named by
/// `cfg.kernel`.
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
    // each strategy reports SSE through its own kernel, 0-ULP identical
    let sse = match &plan {
        None => masked_sse_naive(data, mask, &centers, &assign),
        Some(plan) => masked_sse_blocked(data, plan, &centers, &assign),
    };
    Ok(KmeansResult {
        codebook: Codebook::new(centers)?,
        assignments: Assignments::new(assign, k)?,
        sse,
        iterations,
    })
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
/// the `bench_kernels` microbench.
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
}
