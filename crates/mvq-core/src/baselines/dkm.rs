//! DKM-style baseline (Cho et al., ICLR '22 — the paper's reference \[4\]):
//! *differentiable* k-means that casts clustering as attention. Instead of
//! hard nearest-codeword assignments, each subvector attends to every
//! codeword with weights `softmax(-‖w − c‖² / τ)`, and codewords are
//! updated as attention-weighted means. As τ → 0 the iteration reduces to
//! Lloyd's algorithm; at moderate τ the soft assignments let gradient
//! information (here: the iteration itself) escape poor local minima.
//!
//! The final codebook is *hardened* (nearest-codeword assignment) so its
//! storage model matches ordinary VQ.

use mvq_tensor::{matmul_transpose_b, Tensor};
use rand::Rng;

use crate::baselines::vq_plain::DenseVq;
use crate::codebook::{Assignments, Codebook};
use crate::error::MvqError;
use crate::kernels::{dense_assign_step, KernelStrategy};
use crate::kmeans::{check_data, kmeanspp_init, sse_of, KmeansResult};
use crate::pipeline::PipelineSpec;

/// DKM hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DkmConfig {
    /// Number of codewords.
    pub k: usize,
    /// Softmax temperature (distance units²); annealed toward 0.
    pub temperature: f32,
    /// Multiplicative temperature decay per iteration.
    pub anneal: f32,
    /// Soft iterations before hardening.
    pub iters: usize,
    /// Kernel the final hardening assignment dispatches to.
    pub kernel: KernelStrategy,
}

impl DkmConfig {
    /// Defaults: τ = mean pairwise distance scale, annealed 0.9/iter,
    /// 30 iterations.
    pub fn new(k: usize) -> DkmConfig {
        DkmConfig { k, temperature: 1.0, anneal: 0.9, iters: 30, kernel: KernelStrategy::default() }
    }

    /// Overrides the hardening kernel strategy.
    pub fn with_kernel(mut self, kernel: KernelStrategy) -> DkmConfig {
        self.kernel = kernel;
        self
    }
}

/// Runs soft (attention) k-means over the rows of `data`, then hardens.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for degenerate configs.
pub fn dkm_cluster<R: Rng>(
    data: &Tensor,
    cfg: &DkmConfig,
    rng: &mut R,
) -> Result<KmeansResult, MvqError> {
    let (ng, d) = check_data(data, cfg.k)?;
    if cfg.temperature <= 0.0 || cfg.anneal <= 0.0 || cfg.anneal > 1.0 {
        return Err(MvqError::InvalidConfig(format!(
            "temperature {} / anneal {} out of range",
            cfg.temperature, cfg.anneal
        )));
    }
    let k = cfg.k.min(ng);
    let mut centers = kmeanspp_init(data, k, rng);
    // scale τ to the data's variance so defaults transfer across layers
    let data_scale: f32 =
        data.data().iter().map(|&x| x * x).sum::<f32>() / data.numel().max(1) as f32;
    let mut tau = cfg.temperature * (data_scale * d as f32).max(1e-6);
    let mut attn = vec![0.0f32; ng * k];
    for _ in 0..cfg.iters {
        // distances via the factored form; soft assignments per row
        let xc = matmul_transpose_b(data, &centers)?;
        let cnorm: Vec<f32> = (0..k).map(|i| centers.row(i).iter().map(|&v| v * v).sum()).collect();
        for j in 0..ng {
            let row = xc.row(j);
            let mut logits: Vec<f32> = (0..k).map(|i| -(cnorm[i] - 2.0 * row[i]) / tau).collect();
            let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut z = 0.0f32;
            for l in &mut logits {
                *l = (*l - max).exp();
                z += *l;
            }
            for (i, l) in logits.iter().enumerate() {
                attn[j * k + i] = l / z;
            }
        }
        // attention-weighted centroid update
        let mut sums = vec![0.0f64; k * d];
        let mut mass = vec![0.0f64; k];
        for j in 0..ng {
            let row = data.row(j);
            for i in 0..k {
                let a = attn[j * k + i] as f64;
                if a < 1e-12 {
                    continue;
                }
                mass[i] += a;
                for t in 0..d {
                    sums[i * d + t] += a * row[t] as f64;
                }
            }
        }
        for i in 0..k {
            if mass[i] > 1e-12 {
                let c = centers.row_mut(i);
                for t in 0..d {
                    c[t] = (sums[i * d + t] / mass[i]) as f32;
                }
            } else {
                let j = rng.gen_range(0..ng);
                centers.row_mut(i).copy_from_slice(data.row(j));
            }
        }
        tau *= cfg.anneal;
    }
    // harden through the selected kernel (naive oracle or blocked —
    // bit-identical)
    let mut assign = vec![0u32; ng];
    dense_assign_step(cfg.kernel, data, &centers, &mut assign);
    let sse = sse_of(data, &centers, &assign);
    Ok(KmeansResult {
        codebook: Codebook::new(centers)?,
        assignments: Assignments::new(assign, k)?,
        sse,
        iterations: cfg.iters,
    })
}

/// Compresses a weight tensor with DKM clustering (dense reconstruction,
/// like the other maskless baselines). Reads `k`, `d`, grouping, codebook
/// bits and kernel from `spec`; the soft-clustering schedule is
/// [`DkmConfig::new`]'s.
///
/// # Errors
///
/// Propagates grouping/clustering errors.
pub fn dkm_compress<R: Rng>(
    weight: &Tensor,
    spec: &PipelineSpec,
    rng: &mut R,
) -> Result<DenseVq, MvqError> {
    let grouped = spec.grouping.group(weight, spec.d)?;
    let mut res = dkm_cluster(&grouped, &DkmConfig::new(spec.k).with_kernel(spec.kernel), rng)?;
    if let Some(b) = spec.codebook_bits {
        res.codebook.quantize(b)?;
    }
    Ok(DenseVq::from_clustering(res, weight.dims().to_vec(), spec.grouping, spec.d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn separates_blobs_like_kmeans() {
        let mut data = Vec::new();
        for i in 0..30 {
            let e = i as f32 * 0.003;
            data.extend_from_slice(&[e, -e]);
            data.extend_from_slice(&[5.0 + e, 5.0 - e]);
        }
        let t = Tensor::from_vec(vec![60, 2], data).unwrap();
        let res = dkm_cluster(&t, &DkmConfig::new(2), &mut StdRng::seed_from_u64(0)).unwrap();
        assert!(res.sse < 0.5, "sse {}", res.sse);
    }

    #[test]
    fn hardened_sse_close_to_lloyd() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = mvq_tensor::uniform(vec![256, 8], -1.0, 1.0, &mut rng);
        let dkm = dkm_cluster(&data, &DkmConfig::new(16), &mut StdRng::seed_from_u64(2)).unwrap();
        let lloyd = crate::kmeans::kmeans(
            &data,
            &crate::kmeans::KmeansConfig::new(16),
            None,
            &mut StdRng::seed_from_u64(2),
        )
        .unwrap();
        // soft clustering should land within 25% of Lloyd's SSE
        assert!(dkm.sse < lloyd.sse * 1.25, "dkm {} vs lloyd {}", dkm.sse, lloyd.sse);
    }

    #[test]
    fn compress_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
        let vq = dkm_compress(&w, &PipelineSpec::default().with_k(8), &mut rng).unwrap();
        let r = vq.reconstruct().unwrap();
        assert_eq!(r.dims(), w.dims());
        assert!(vq.storage().mask_bits == 0);
    }

    #[test]
    fn validates_config() {
        let data = Tensor::ones(vec![4, 2]);
        let mut rng = StdRng::seed_from_u64(4);
        let bad = DkmConfig { temperature: 0.0, ..DkmConfig::new(2) };
        assert!(dkm_cluster(&data, &bad, &mut rng).is_err());
        let bad = DkmConfig { anneal: 1.5, ..DkmConfig::new(2) };
        assert!(dkm_cluster(&data, &bad, &mut rng).is_err());
    }
}
