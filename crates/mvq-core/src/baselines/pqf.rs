//! PQF-style "permute, quantize" baseline (Martinez et al., CVPR '21).
//!
//! PQF's key idea: the grouping of scalars into subvectors is a free
//! parameter — searching over permutations of the (functionally
//! equivalent) weight orderings yields subvector sets with lower
//! within-cluster scatter, which k-means then quantizes with less error.
//! The permutation is absorbed into the network wiring, so it costs no
//! storage.
//!
//! This implementation performs the same search with a random-restart
//! hill-climb: candidate swaps of two scalar positions across subvectors
//! are accepted when they reduce the total within-subvector scatter
//! `Σ_j Σ_t (w_jt − mean_j)²` — PQF's determinant objective collapsed to
//! its diagonal, which preserves the search's behaviour at a fraction of
//! the cost.

use mvq_tensor::Tensor;
use rand::Rng;

use crate::baselines::vq_plain::DenseVq;
use crate::codebook::{Assignments, Codebook};
use crate::error::MvqError;
use crate::grouping::GroupingStrategy;
use crate::kernels::KernelStrategy;
use crate::kmeans::{kmeans, KmeansConfig};
use crate::metrics::{vq_compression_ratio, StorageBreakdown};

/// A PQF-compressed weight: permutation + codebook + assignments.
#[derive(Debug, Clone)]
pub struct PqfCompressed {
    permutation: Vec<usize>,
    codebook: Codebook,
    assignments: Assignments,
    orig_dims: Vec<usize>,
    grouping: GroupingStrategy,
    d: usize,
    /// k-means SSE in the permuted space.
    pub sse: f32,
}

impl PqfCompressed {
    /// Reassembles a [`PqfCompressed`] from stored parts (the decode path
    /// of the artifact codec).
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the parts disagree in
    /// shape or `permutation` is not a bijection over the grouped
    /// positions.
    pub fn from_parts(
        permutation: Vec<usize>,
        codebook: Codebook,
        assignments: Assignments,
        orig_dims: Vec<usize>,
        grouping: GroupingStrategy,
        d: usize,
        sse: f32,
    ) -> Result<PqfCompressed, MvqError> {
        if codebook.d() != d {
            return Err(MvqError::InvalidConfig(format!(
                "codebook d = {} disagrees with grouping d = {d}",
                codebook.d()
            )));
        }
        let total = assignments.len() * d;
        let numel: usize = orig_dims.iter().product();
        if total != numel {
            return Err(MvqError::InvalidConfig(format!(
                "{} assignments of d = {d} do not cover a tensor of dims {orig_dims:?}",
                assignments.len()
            )));
        }
        if permutation.len() != total {
            return Err(MvqError::InvalidConfig(format!(
                "permutation length {} != grouped positions {total}",
                permutation.len()
            )));
        }
        let mut seen = vec![false; total];
        for &p in &permutation {
            if p >= total || seen[p] {
                return Err(MvqError::InvalidConfig(format!(
                    "permutation is not a bijection over 0..{total}"
                )));
            }
            seen[p] = true;
        }
        Ok(PqfCompressed { permutation, codebook, assignments, orig_dims, grouping, d, sse })
    }

    /// The learned permutation over flattened grouped positions.
    pub fn permutation(&self) -> &[usize] {
        &self.permutation
    }

    /// Subvector length used for grouping.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Grouping strategy used.
    pub fn grouping(&self) -> GroupingStrategy {
        self.grouping
    }

    /// The codebook.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// The assignments.
    pub fn assignments(&self) -> &Assignments {
        &self.assignments
    }

    /// Original weight dims.
    pub fn orig_dims(&self) -> &[usize] {
        &self.orig_dims
    }

    /// Reconstructs the dense weight (decode, then inverse-permute).
    ///
    /// # Errors
    ///
    /// Propagates grouping errors.
    pub fn reconstruct(&self) -> Result<Tensor, MvqError> {
        let ng = self.assignments.len();
        let mut decoded = vec![0.0f32; ng * self.d];
        for j in 0..ng {
            let c = self.codebook.codeword(self.assignments.of(j));
            decoded[j * self.d..(j + 1) * self.d].copy_from_slice(c);
        }
        // invert the permutation: permuted[p] = original[perm[p]]
        let mut original = vec![0.0f32; ng * self.d];
        for (p, &src) in self.permutation.iter().enumerate() {
            original[src] = decoded[p];
        }
        let grouped = Tensor::from_vec(vec![ng, self.d], original)?;
        self.grouping.ungroup(&grouped, &self.orig_dims, self.d)
    }

    /// Storage breakdown; the permutation is free (absorbed into wiring),
    /// matching PQF's accounting.
    pub fn storage(&self) -> StorageBreakdown {
        vq_compression_ratio(self.assignments.len(), &self.codebook)
    }
}

/// Compresses `weight` with the PQF recipe: permutation search, then
/// k-means, then (optional) int8 codebook.
///
/// `swap_trials` bounds the hill-climb (PQF uses a comparable
/// iteration-bounded local search).
///
/// # Errors
///
/// Propagates grouping/clustering errors.
#[allow(clippy::too_many_arguments)]
pub fn pqf_compress<R: Rng>(
    weight: &Tensor,
    k: usize,
    d: usize,
    grouping: GroupingStrategy,
    codebook_bits: Option<u32>,
    swap_trials: usize,
    kernel: KernelStrategy,
    rng: &mut R,
) -> Result<PqfCompressed, MvqError> {
    let grouped = grouping.group(weight, d)?;
    let ng = grouped.dims()[0];
    let flat = grouped.data();
    let total = ng * d;
    // search for a permutation lowering within-subvector scatter
    let mut perm: Vec<usize> = (0..total).collect();
    let mut values: Vec<f32> = flat.to_vec();
    let mut row_sum: Vec<f32> = (0..ng).map(|j| values[j * d..(j + 1) * d].iter().sum()).collect();
    let mut row_sq: Vec<f32> =
        (0..ng).map(|j| values[j * d..(j + 1) * d].iter().map(|&v| v * v).sum()).collect();
    let scatter = |sum: f32, sq: f32| sq - sum * sum / d as f32;
    for _ in 0..swap_trials {
        let a = rng.gen_range(0..total);
        let b = rng.gen_range(0..total);
        let (ja, jb) = (a / d, b / d);
        if ja == jb {
            continue;
        }
        let (va, vb) = (values[a], values[b]);
        let before = scatter(row_sum[ja], row_sq[ja]) + scatter(row_sum[jb], row_sq[jb]);
        let sum_a = row_sum[ja] - va + vb;
        let sq_a = row_sq[ja] - va * va + vb * vb;
        let sum_b = row_sum[jb] - vb + va;
        let sq_b = row_sq[jb] - vb * vb + va * va;
        let after = scatter(sum_a, sq_a) + scatter(sum_b, sq_b);
        if after < before {
            values.swap(a, b);
            perm.swap(a, b);
            row_sum[ja] = sum_a;
            row_sq[ja] = sq_a;
            row_sum[jb] = sum_b;
            row_sq[jb] = sq_b;
        }
    }
    let permuted = Tensor::from_vec(vec![ng, d], values)?;
    let mut res = kmeans(&permuted, &KmeansConfig::new(k).with_kernel(kernel), None, rng)?;
    if let Some(b) = codebook_bits {
        res.codebook.quantize(b)?;
    }
    Ok(PqfCompressed {
        permutation: perm,
        codebook: res.codebook,
        assignments: res.assignments,
        orig_dims: weight.dims().to_vec(),
        grouping,
        d,
        sse: res.sse,
    })
}

/// Convenience: PQF with zero swap trials degrades to plain VQ (case A);
/// used in tests to isolate the permutation's benefit.
pub fn pqf_no_permutation<R: Rng>(
    weight: &Tensor,
    k: usize,
    d: usize,
    grouping: GroupingStrategy,
    rng: &mut R,
) -> Result<DenseVq, MvqError> {
    crate::baselines::vq_plain::vq_case_a(
        weight,
        k,
        d,
        grouping,
        None,
        KernelStrategy::default(),
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weight(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng)
    }

    #[test]
    fn permutation_is_a_bijection() {
        let w = weight(0);
        let mut rng = StdRng::seed_from_u64(1);
        let pqf = pqf_compress(
            &w,
            8,
            16,
            GroupingStrategy::OutputChannelWise,
            None,
            2_000,
            KernelStrategy::default(),
            &mut rng,
        )
        .unwrap();
        let mut seen = vec![false; pqf.permutation().len()];
        for &p in pqf.permutation() {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reconstruct_round_trips_shape() {
        let w = weight(2);
        let mut rng = StdRng::seed_from_u64(3);
        let pqf = pqf_compress(
            &w,
            8,
            16,
            GroupingStrategy::OutputChannelWise,
            Some(8),
            1_000,
            KernelStrategy::default(),
            &mut rng,
        )
        .unwrap();
        let r = pqf.reconstruct().unwrap();
        assert_eq!(r.dims(), w.dims());
    }

    #[test]
    fn permutation_search_lowers_sse() {
        // With structured data (each subvector mixes a large and a small
        // scale), regrouping by magnitude should cut clustering error.
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..64 {
            for t in 0..8 {
                let scale = if t % 2 == 0 { 1.0 } else { 0.01 };
                data.push(scale * (rng.gen_range(-1.0..1.0f32)));
            }
        }
        let w = Tensor::from_vec(vec![64, 8], data).unwrap();
        let base = pqf_compress(
            &w,
            4,
            8,
            GroupingStrategy::OutputChannelWise,
            None,
            0,
            KernelStrategy::default(),
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
        let searched = pqf_compress(
            &w,
            4,
            8,
            GroupingStrategy::OutputChannelWise,
            None,
            20_000,
            KernelStrategy::default(),
            &mut StdRng::seed_from_u64(5),
        )
        .unwrap();
        assert!(searched.sse < base.sse, "searched {} !< unpermuted {}", searched.sse, base.sse);
    }

    #[test]
    fn exact_reconstruction_when_k_equals_ng() {
        // with k = NG and no quantization, decoding + inverse permutation
        // must reproduce the weights exactly
        let w = weight(6);
        let mut rng = StdRng::seed_from_u64(7);
        let pqf = pqf_compress(
            &w,
            32,
            16,
            GroupingStrategy::OutputChannelWise,
            None,
            5_000,
            KernelStrategy::default(),
            &mut rng,
        )
        .unwrap();
        let r = pqf.reconstruct().unwrap();
        let err = w.sse(&r).unwrap();
        assert!(err < 1e-6, "reconstruction error {err}");
    }

    #[test]
    fn storage_has_no_mask_or_permutation_cost() {
        let w = weight(8);
        let mut rng = StdRng::seed_from_u64(9);
        let pqf = pqf_compress(
            &w,
            8,
            16,
            GroupingStrategy::OutputChannelWise,
            Some(8),
            100,
            KernelStrategy::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(pqf.storage().mask_bits, 0);
    }
}
