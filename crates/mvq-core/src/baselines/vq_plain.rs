//! Conventional vector quantization — ablation cases A, B and C (paper
//! Fig. 12, Table 3).

use mvq_tensor::Tensor;
use rand::Rng;

use crate::codebook::{Assignments, Codebook};
use crate::compress::CompressedMatrix;
use crate::error::MvqError;
use crate::grouping::GroupingStrategy;
use crate::kmeans::{kmeans, KmeansConfig, KmeansResult};
use crate::metrics::{vq_compression_ratio, StorageBreakdown};
use crate::pipeline::PipelineSpec;
use crate::pruning::prune_matrix_nm;

/// A maskless VQ-compressed weight (cases A and B): codebook +
/// assignments, reconstructed densely.
#[derive(Debug, Clone)]
pub struct DenseVq {
    codebook: Codebook,
    assignments: Assignments,
    orig_dims: Vec<usize>,
    grouping: GroupingStrategy,
    d: usize,
    /// Clustering SSE at convergence.
    pub sse: f32,
}

impl DenseVq {
    /// Assembles a [`DenseVq`] from a clustering result (shared with the
    /// PQF/BGD baselines).
    pub(crate) fn from_clustering(
        res: KmeansResult,
        orig_dims: Vec<usize>,
        grouping: GroupingStrategy,
        d: usize,
    ) -> DenseVq {
        DenseVq {
            codebook: res.codebook,
            assignments: res.assignments,
            orig_dims,
            grouping,
            d,
            sse: res.sse,
        }
    }

    /// Reassembles a [`DenseVq`] from stored parts (the decode path of the
    /// artifact codec).
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the parts disagree in
    /// shape: the codebook's `d` must match `d`, and the assignment count
    /// times `d` must cover the original tensor exactly.
    pub fn from_parts(
        codebook: Codebook,
        assignments: Assignments,
        orig_dims: Vec<usize>,
        grouping: GroupingStrategy,
        d: usize,
        sse: f32,
    ) -> Result<DenseVq, MvqError> {
        if codebook.d() != d {
            return Err(MvqError::InvalidConfig(format!(
                "codebook d = {} disagrees with grouping d = {d}",
                codebook.d()
            )));
        }
        let numel: usize = orig_dims.iter().product();
        if assignments.len() * d != numel {
            return Err(MvqError::InvalidConfig(format!(
                "{} assignments of d = {d} do not cover a tensor of dims {orig_dims:?}",
                assignments.len()
            )));
        }
        Ok(DenseVq { codebook, assignments, orig_dims, grouping, d, sse })
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

    /// Subvector length used for grouping.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Grouping strategy used.
    pub fn grouping(&self) -> GroupingStrategy {
        self.grouping
    }

    /// Reconstructs the dense weight in original dims (every lane comes
    /// from the codeword; nothing is masked).
    ///
    /// # Errors
    ///
    /// Propagates grouping errors.
    pub fn reconstruct(&self) -> Result<Tensor, MvqError> {
        let ng = self.assignments.len();
        let mut grouped = Tensor::zeros(vec![ng, self.d]);
        for j in 0..ng {
            grouped.row_mut(j).copy_from_slice(self.codebook.codeword(self.assignments.of(j)));
        }
        self.grouping.ungroup(&grouped, &self.orig_dims, self.d)
    }

    /// Storage breakdown (no mask bits).
    pub fn storage(&self) -> StorageBreakdown {
        vq_compression_ratio(self.assignments.len(), &self.codebook)
    }
}

/// Plain k-means over the rows of `grouped` with the spec's `k` and
/// kernel (weighted by `importance` when given), then the spec's codebook
/// quantization: the clustering step every hard-assignment baseline shares.
///
/// # Errors
///
/// Propagates clustering and quantization errors.
pub(crate) fn cluster<R: Rng>(
    grouped: &Tensor,
    spec: &PipelineSpec,
    importance: Option<&[f32]>,
    rng: &mut R,
) -> Result<KmeansResult, MvqError> {
    let cfg = KmeansConfig::new(spec.k).with_kernel(spec.kernel);
    let mut res = kmeans(grouped, &cfg, importance, rng)?;
    if let Some(b) = spec.codebook_bits {
        res.codebook.quantize(b)?;
    }
    Ok(res)
}

/// Case A: dense weights, common k-means, dense reconstruction — the
/// simplest VQ procedure. Reads `k`, `d`, grouping, codebook bits and
/// kernel from `spec`.
///
/// # Errors
///
/// Propagates grouping/clustering errors.
pub fn vq_case_a<R: Rng>(
    weight: &Tensor,
    spec: &PipelineSpec,
    rng: &mut R,
) -> Result<DenseVq, MvqError> {
    let grouped = spec.grouping.group(weight, spec.d)?;
    let res = cluster(&grouped, spec, None, rng)?;
    Ok(DenseVq::from_clustering(res, weight.dims().to_vec(), spec.grouping, spec.d))
}

/// Case B: N:M-pruned weights, common k-means, dense reconstruction — the
/// mask is *not* stored, so reconstruction does not re-zero pruned lanes
/// and FLOPs are not reduced. The N:M pattern lives on the
/// `spec.prune_d` grid (default `d`); when that differs from `d`, the
/// pruned weight is regrouped at `d` before clustering (the paper's
/// two-grid setup).
///
/// # Errors
///
/// Propagates grouping/pruning/clustering errors.
pub fn vq_case_b<R: Rng>(
    weight: &Tensor,
    spec: &PipelineSpec,
    rng: &mut R,
) -> Result<DenseVq, MvqError> {
    let prune_d = spec.prune_d.unwrap_or(spec.d);
    let grouped = spec.grouping.group(weight, prune_d)?;
    let (pruned, _mask) = prune_matrix_nm(&grouped, spec.keep_n, spec.m)?;
    if prune_d != spec.d {
        let sparse = spec.grouping.ungroup(&pruned, weight.dims(), prune_d)?;
        return vq_case_a(&sparse, spec, rng);
    }
    let res = cluster(&pruned, spec, None, rng)?;
    Ok(DenseVq::from_clustering(res, weight.dims().to_vec(), spec.grouping, spec.d))
}

/// Case C: N:M-pruned weights, *common* k-means, sparse reconstruction —
/// the mask is stored and applied at decode, but clustering ignored it, so
/// codewords are dragged toward the structural zeros. Prunes and clusters
/// on the `d` grid ([`crate::pipeline::by_name`] rejects a `prune_d` that
/// differs).
///
/// # Errors
///
/// Propagates grouping/pruning/clustering errors.
pub fn vq_case_c<R: Rng>(
    weight: &Tensor,
    spec: &PipelineSpec,
    rng: &mut R,
) -> Result<CompressedMatrix, MvqError> {
    let grouped = spec.grouping.group(weight, spec.d)?;
    let (pruned, mask) = prune_matrix_nm(&grouped, spec.keep_n, spec.m)?;
    let res = cluster(&pruned, spec, None, rng)?;
    let cm = CompressedMatrix::from_parts(
        res.codebook,
        res.assignments,
        mask,
        weight.dims().to_vec(),
        spec.grouping,
    )?;
    Ok(cm.with_sse(res.sse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masked_kmeans::masked_sse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(k: usize, d: usize, keep_n: usize, m: usize, bits: Option<u32>) -> PipelineSpec {
        PipelineSpec { k, d, keep_n, m, codebook_bits: bits, ..PipelineSpec::default() }
    }

    fn weight(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        mvq_tensor::kaiming_normal(vec![32, 8, 3, 3], 72, &mut rng)
    }

    #[test]
    fn case_a_reconstruction_is_dense() {
        let w = weight(0);
        let mut rng = StdRng::seed_from_u64(1);
        let vq = vq_case_a(&w, &spec(16, 8, 4, 8, Some(8)), &mut rng).unwrap();
        let r = vq.reconstruct().unwrap();
        assert_eq!(r.dims(), w.dims());
        assert!(r.sparsity() < 0.2, "dense reconstruction, sparsity {}", r.sparsity());
        assert_eq!(vq.storage().mask_bits, 0);
    }

    #[test]
    fn case_b_clusters_sparse_but_reconstructs_dense() {
        let w = weight(2);
        let mut rng = StdRng::seed_from_u64(3);
        let vq = vq_case_b(&w, &spec(16, 8, 2, 8, Some(8)), &mut rng).unwrap();
        let r = vq.reconstruct().unwrap();
        // codewords carry many near-zero lanes but reconstruction is not
        // exactly sparse
        assert_eq!(r.dims(), w.dims());
        assert_eq!(vq.storage().mask_bits, 0);
    }

    #[test]
    fn case_c_reconstruction_is_sparse() {
        let w = weight(4);
        let mut rng = StdRng::seed_from_u64(5);
        let cm = vq_case_c(&w, &spec(16, 8, 2, 8, Some(8)), &mut rng).unwrap();
        let r = cm.reconstruct().unwrap();
        assert!((r.sparsity() - 0.75).abs() < 0.05, "sparsity {}", r.sparsity());
        assert_eq!(cm.mask().sparsity(), 0.75);
        assert!(cm.storage().mask_bits > 0);
    }

    #[test]
    fn masked_kmeans_beats_case_c_on_masked_sse() {
        // The paper's Table 3 headline: (D) masked k-means reaches much
        // lower masked SSE than (C) common k-means on sparse weights.
        let w = weight(6);
        let grouping = GroupingStrategy::OutputChannelWise;
        let cm_c =
            vq_case_c(&w, &spec(16, 16, 4, 16, None), &mut StdRng::seed_from_u64(7)).unwrap();
        let mask = cm_c.mask();
        let grouped = grouping.group(&w, 16).unwrap();
        let (pruned, _) = crate::pruning::prune_matrix_nm(&grouped, 4, 16).unwrap();
        let sse_c = masked_sse(&pruned, mask, cm_c.codebook(), cm_c.assignments()).unwrap();
        let d_res = crate::masked_kmeans::masked_kmeans(
            &pruned,
            mask,
            &KmeansConfig::new(16),
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        assert!(
            d_res.sse < sse_c * 0.9,
            "masked {} should be well below case C {sse_c}",
            d_res.sse
        );
    }
}
