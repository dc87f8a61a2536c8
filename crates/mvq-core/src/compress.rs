//! The end-to-end MVQ compression of a single weight matrix (paper Fig. 2,
//! steps 1–3): group → N:M prune → masked k-means → int8 codebook.

use mvq_tensor::Tensor;
use rand::Rng;

use crate::codebook::{Assignments, Codebook};
use crate::error::MvqError;
use crate::grouping::GroupingStrategy;
use crate::kmeans::KmeansConfig;
use crate::mask::NmMask;
use crate::masked_kmeans::masked_kmeans;
use crate::metrics::{mvq_compression_ratio, StorageBreakdown};
use crate::pipeline::{check_spec, PipelineSpec};
use crate::pruning::prune_matrix_nm;

/// Compresses weight matrices with MVQ. Reads `k`, `d`, `keep_n:m`,
/// grouping, codebook bits and kernel from its [`PipelineSpec`]; k-means
/// runs with [`KmeansConfig::new`]'s 50-iteration cap and 0.1 % tolerance.
#[derive(Debug, Clone)]
pub struct MvqCompressor {
    spec: PipelineSpec,
}

impl MvqCompressor {
    /// Creates a compressor.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when `k == 0` or the N:M/d
    /// combination is inconsistent.
    pub fn new(spec: PipelineSpec) -> Result<MvqCompressor, MvqError> {
        check_spec("mvq", &spec)?;
        Ok(MvqCompressor { spec })
    }

    /// The spec the compressor reads.
    pub(crate) fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The spec's `k` and kernel at the paper's iteration cap and tolerance.
    pub(crate) fn kmeans(&self) -> KmeansConfig {
        KmeansConfig::new(self.spec.k).with_kernel(self.spec.kernel)
    }

    /// Compresses a weight tensor (rank 2 or 4): groups it into subvectors,
    /// prunes N:M, clusters with masked k-means, and quantizes the
    /// codebook.
    ///
    /// # Errors
    ///
    /// Returns grouping errors for incompatible shapes and clustering
    /// errors for degenerate configurations.
    pub fn compress_matrix<R: Rng>(
        &self,
        weight: &Tensor,
        rng: &mut R,
    ) -> Result<CompressedMatrix, MvqError> {
        let spec = &self.spec;
        let grouped = spec.grouping.group(weight, spec.d)?;
        let (pruned, mask) = prune_matrix_nm(&grouped, spec.keep_n, spec.m)?;
        let mut result = masked_kmeans(&pruned, &mask, &self.kmeans(), rng)?;
        if let Some(bits) = spec.codebook_bits {
            result.codebook.quantize(bits)?;
        }
        Ok(CompressedMatrix {
            codebook: result.codebook,
            assignments: result.assignments,
            mask,
            orig_dims: weight.dims().to_vec(),
            grouping: spec.grouping,
            keep_n: spec.keep_n,
            m: spec.m,
            sse: Some(result.sse),
        })
    }
}

/// A weight tensor in MVQ's compressed representation: codebook +
/// assignments + N:M mask (paper §4.6: "final storage comprises three
/// components").
#[derive(Debug, Clone)]
pub struct CompressedMatrix {
    codebook: Codebook,
    assignments: Assignments,
    mask: NmMask,
    orig_dims: Vec<usize>,
    grouping: GroupingStrategy,
    keep_n: usize,
    m: usize,
    sse: Option<f32>,
}

impl CompressedMatrix {
    /// Assembles a compressed matrix from parts (used by fine-tuning and
    /// the baselines).
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the parts disagree in
    /// shape.
    pub fn from_parts(
        codebook: Codebook,
        assignments: Assignments,
        mask: NmMask,
        orig_dims: Vec<usize>,
        grouping: GroupingStrategy,
    ) -> Result<CompressedMatrix, MvqError> {
        if assignments.len() != mask.ng() || codebook.d() != mask.d() {
            return Err(MvqError::InvalidConfig(
                "codebook/assignments/mask shapes disagree".into(),
            ));
        }
        let keep_n = mask.keep_n();
        let m = mask.m();
        Ok(CompressedMatrix {
            codebook,
            assignments,
            mask,
            orig_dims,
            grouping,
            keep_n,
            m,
            sse: None,
        })
    }

    /// Records the clustering SSE observed at compression time.
    pub fn with_sse(mut self, sse: f32) -> CompressedMatrix {
        self.sse = Some(sse);
        self
    }

    /// Clustering SSE recorded at compression time (masked SSE for MVQ,
    /// plain SSE on pruned data for VQ case C), if known.
    pub fn sse(&self) -> Option<f32> {
        self.sse
    }

    /// The codebook.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Mutable codebook access (fine-tuning).
    pub fn codebook_mut(&mut self) -> &mut Codebook {
        &mut self.codebook
    }

    /// The assignments.
    pub fn assignments(&self) -> &Assignments {
        &self.assignments
    }

    /// The N:M mask.
    pub fn mask(&self) -> &NmMask {
        &self.mask
    }

    /// Original weight dims.
    pub fn orig_dims(&self) -> &[usize] {
        &self.orig_dims
    }

    /// Grouping strategy used.
    pub fn grouping(&self) -> GroupingStrategy {
        self.grouping
    }

    /// Reconstructs the decoded `[NG, d]` subvector matrix:
    /// `ŵ_j = c_{a_j} ∘ bm_j` (the weight loader's look-up + bit-select).
    ///
    /// # Errors
    ///
    /// Propagates mask application errors (cannot occur for matrices built
    /// by this crate).
    pub fn reconstruct_grouped(&self) -> Result<Tensor, MvqError> {
        let ng = self.mask.ng();
        let d = self.mask.d();
        let mut out = Tensor::zeros(vec![ng, d]);
        for j in 0..ng {
            let c = self.codebook.codeword(self.assignments.of(j));
            let m = self.mask.row(j);
            let row = out.row_mut(j);
            for t in 0..d {
                row[t] = if m[t] { c[t] } else { 0.0 };
            }
        }
        Ok(out)
    }

    /// Reconstructs the weight in its original dims.
    ///
    /// # Errors
    ///
    /// Propagates grouping errors.
    pub fn reconstruct(&self) -> Result<Tensor, MvqError> {
        let grouped = self.reconstruct_grouped()?;
        self.grouping.ungroup(&grouped, &self.orig_dims, self.mask.d())
    }

    /// Storage breakdown under Eq. 7.
    pub fn storage(&self) -> StorageBreakdown {
        mvq_compression_ratio(self.mask.ng(), &self.codebook, self.keep_n, self.m)
            .expect("N:M validated at construction")
    }

    /// Compression ratio (Eq. 7).
    pub fn compression_ratio(&self) -> f64 {
        self.storage().ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(k: usize, d: usize, keep_n: usize, m: usize) -> PipelineSpec {
        PipelineSpec { k, d, keep_n, m, ..PipelineSpec::default() }
    }

    fn compressor(k: usize, d: usize, n: usize, m: usize) -> MvqCompressor {
        MvqCompressor::new(spec(k, d, n, m)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(MvqCompressor::new(spec(0, 16, 4, 16)).is_err());
        assert!(MvqCompressor::new(spec(8, 12, 4, 16)).is_err(), "d not multiple of m");
        assert!(MvqCompressor::new(spec(8, 16, 17, 16)).is_err());
        let c = compressor(8, 16, 4, 16);
        assert_eq!(c.kmeans(), KmeansConfig::new(8));
    }

    #[test]
    fn compress_reconstruct_preserves_shape_and_sparsity() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = mvq_tensor::kaiming_normal(vec![32, 16, 3, 3], 144, &mut rng);
        let c = compressor(32, 16, 4, 16).compress_matrix(&w, &mut rng).unwrap();
        let w_hat = c.reconstruct().unwrap();
        assert_eq!(w_hat.dims(), w.dims());
        assert!((w_hat.sparsity() - 0.75).abs() < 0.02, "sparsity {}", w_hat.sparsity());
    }

    #[test]
    fn reconstruction_zeroes_match_mask() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = mvq_tensor::kaiming_normal(vec![64, 16], 16, &mut rng);
        let c = compressor(16, 16, 4, 16).compress_matrix(&w, &mut rng).unwrap();
        let g = c.reconstruct_grouped().unwrap();
        for j in 0..c.mask().ng() {
            for t in 0..16 {
                if !c.mask().row(j)[t] {
                    assert_eq!(g.at(&[j, t]).unwrap(), 0.0);
                }
            }
        }
    }

    #[test]
    fn codebook_is_quantized_by_default() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = mvq_tensor::kaiming_normal(vec![64, 16], 16, &mut rng);
        let c = compressor(8, 16, 4, 16).compress_matrix(&w, &mut rng).unwrap();
        assert_eq!(c.codebook().bits(), Some(8));
        let fp32 = PipelineSpec { codebook_bits: None, ..spec(8, 16, 4, 16) };
        let c2 = MvqCompressor::new(fp32).unwrap().compress_matrix(&w, &mut rng).unwrap();
        assert_eq!(c2.codebook().bits(), None);
    }

    #[test]
    fn compression_ratio_in_expected_band() {
        // d=16, 4:16, k=64 on a moderately sized block
        let mut rng = StdRng::seed_from_u64(3);
        let w = mvq_tensor::kaiming_normal(vec![128, 64, 3, 3], 64 * 9, &mut rng);
        let c = compressor(64, 16, 4, 16).compress_matrix(&w, &mut rng).unwrap();
        let r = c.compression_ratio();
        assert!((15.0..30.0).contains(&r), "ratio {r}");
        let s = c.storage();
        assert!(s.mask_bits > 0 && s.assignment_bits > 0 && s.codebook_bits > 0);
    }

    #[test]
    fn better_than_random_codebook() {
        // masked k-means should beat a random codebook on masked SSE
        let mut rng = StdRng::seed_from_u64(4);
        let w = mvq_tensor::kaiming_normal(vec![256, 16], 16, &mut rng);
        let c = compressor(32, 16, 4, 16).compress_matrix(&w, &mut rng).unwrap();
        let grouped = GroupingStrategy::OutputChannelWise.group(&w, 16).unwrap();
        let (pruned, _) = prune_matrix_nm(&grouped, 4, 16).unwrap();
        let recon = c.reconstruct_grouped().unwrap();
        let sse = pruned.sse(&recon).unwrap();
        // a random codebook would leave SSE ~ ||w_kept||²
        let baseline = pruned.sq_norm();
        assert!(sse < baseline * 0.8, "sse {sse} vs norm {baseline}");
    }

    #[test]
    fn from_parts_validates() {
        let cb = Codebook::new(Tensor::zeros(vec![4, 8])).unwrap();
        let asg = Assignments::new(vec![0; 10], 4).unwrap();
        let mask = NmMask::from_bits(10, 4, 2, 4, [true, true, false, false].repeat(10)).unwrap();
        // d mismatch: codebook d=8, mask d=4
        assert!(CompressedMatrix::from_parts(
            cb,
            asg,
            mask,
            vec![10, 4],
            GroupingStrategy::OutputChannelWise
        )
        .is_err());
    }
}
