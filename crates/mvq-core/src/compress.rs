//! The end-to-end MVQ compression of a single weight matrix (paper Fig. 2,
//! steps 1–3): group → N:M prune → masked k-means → int8 codebook.

use mvq_tensor::Tensor;
use rand::Rng;

use crate::codebook::{Assignments, Codebook};
use crate::error::MvqError;
use crate::grouping::GroupingStrategy;
use crate::kernels::KernelStrategy;
use crate::kmeans::KmeansConfig;
use crate::mask::{validate_nm, NmMask};
use crate::masked_kmeans::masked_kmeans;
use crate::metrics::{mvq_compression_ratio, StorageBreakdown};
use crate::pruning::prune_matrix_nm;

/// Hyperparameters of the MVQ pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MvqConfig {
    /// Number of codewords `k`.
    pub k: usize,
    /// Subvector length `d`.
    pub d: usize,
    /// Kept weights per group (the paper's N in "N:M").
    pub keep_n: usize,
    /// Pruning group size M (`d` must be a multiple of it).
    pub m: usize,
    /// Grouping strategy (paper default: output-channel-wise).
    pub grouping: GroupingStrategy,
    /// Codebook quantization width; `None` keeps fp32 codewords.
    pub codebook_bits: Option<u32>,
    /// k-means iteration cap.
    pub max_iters: usize,
    /// k-means convergence threshold as a fraction of `NG`.
    pub tol_frac: f64,
    /// Distance/assignment kernel the clustering dispatches to.
    pub kernel: KernelStrategy,
}

impl MvqConfig {
    /// Creates a config with the paper's defaults: output-channel-wise
    /// grouping, int8 codebook, 50 iterations, 0.1 % tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the N:M/d combination is
    /// inconsistent or `k == 0`.
    pub fn new(k: usize, d: usize, keep_n: usize, m: usize) -> Result<MvqConfig, MvqError> {
        if k == 0 {
            return Err(MvqError::InvalidConfig("k must be positive".into()));
        }
        validate_nm(d, keep_n, m)?;
        Ok(MvqConfig {
            k,
            d,
            keep_n,
            m,
            grouping: GroupingStrategy::OutputChannelWise,
            codebook_bits: Some(8),
            max_iters: 50,
            tol_frac: 0.001,
            kernel: KernelStrategy::default(),
        })
    }

    /// Overrides the grouping strategy.
    pub fn with_grouping(mut self, grouping: GroupingStrategy) -> MvqConfig {
        self.grouping = grouping;
        self
    }

    /// Overrides codebook quantization (`None` disables it).
    pub fn with_codebook_bits(mut self, bits: Option<u32>) -> MvqConfig {
        self.codebook_bits = bits;
        self
    }

    /// Overrides the distance/assignment kernel strategy.
    pub fn with_kernel(mut self, kernel: KernelStrategy) -> MvqConfig {
        self.kernel = kernel;
        self
    }

    /// Weight sparsity this config produces.
    pub fn sparsity(&self) -> f32 {
        1.0 - self.keep_n as f32 / self.m as f32
    }

    /// The k-means sub-config (carries the kernel strategy).
    pub fn kmeans(&self) -> KmeansConfig {
        KmeansConfig {
            k: self.k,
            max_iters: self.max_iters,
            tol_frac: self.tol_frac,
            kernel: self.kernel,
        }
    }
}

/// Compresses weight matrices with MVQ.
#[derive(Debug, Clone)]
pub struct MvqCompressor {
    config: MvqConfig,
}

impl MvqCompressor {
    /// Creates a compressor.
    pub fn new(config: MvqConfig) -> MvqCompressor {
        MvqCompressor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MvqConfig {
        &self.config
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
        let cfg = &self.config;
        let grouped = cfg.grouping.group(weight, cfg.d)?;
        let (pruned, mask) = prune_matrix_nm(&grouped, cfg.keep_n, cfg.m)?;
        let mut result = masked_kmeans(&pruned, &mask, &cfg.kmeans(), rng)?;
        if let Some(bits) = cfg.codebook_bits {
            result.codebook.quantize(bits)?;
        }
        Ok(CompressedMatrix {
            codebook: result.codebook,
            assignments: result.assignments,
            mask,
            orig_dims: weight.dims().to_vec(),
            grouping: cfg.grouping,
            keep_n: cfg.keep_n,
            m: cfg.m,
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

    fn compressor(k: usize, d: usize, n: usize, m: usize) -> MvqCompressor {
        MvqCompressor::new(MvqConfig::new(k, d, n, m).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(MvqConfig::new(0, 16, 4, 16).is_err());
        assert!(MvqConfig::new(8, 12, 4, 16).is_err(), "d not multiple of m");
        assert!(MvqConfig::new(8, 16, 17, 16).is_err());
        let c = MvqConfig::new(8, 16, 4, 16).unwrap();
        assert_eq!(c.sparsity(), 0.75);
        assert_eq!(c.kmeans().k, 8);
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
        let c2 = MvqCompressor::new(MvqConfig::new(8, 16, 4, 16).unwrap().with_codebook_bits(None))
            .compress_matrix(&w, &mut rng)
            .unwrap();
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
