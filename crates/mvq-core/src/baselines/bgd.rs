//! BGD-style baseline ("And the bit goes down", Stock et al., ICLR '20).
//!
//! BGD minimizes the *activation-weighted* reconstruction error
//! `‖(W − Ŵ)x‖²` rather than the plain weight error, clustering with
//! importance derived from input activations. This implementation keeps
//! that mechanism: k-means whose centroid updates weight each subvector by
//! an importance score — the caller provides per-input-position activation
//! second moments (or `None`, in which case the squared subvector norm is
//! used as the importance proxy).

use mvq_tensor::Tensor;
use rand::Rng;

use crate::baselines::vq_plain::{cluster, DenseVq};
use crate::error::MvqError;
use crate::pipeline::PipelineSpec;

/// Compresses `weight` with activation-weighted k-means. Reads `k`, `d`,
/// grouping, codebook bits and kernel from `spec`.
///
/// `activation_moments`, when given, must hold one non-negative weight per
/// subvector (e.g. the mean squared activation flowing through that
/// subvector's input positions).
///
/// # Errors
///
/// Propagates grouping/clustering errors and rejects negative importance.
pub fn bgd_compress<R: Rng>(
    weight: &Tensor,
    spec: &PipelineSpec,
    activation_moments: Option<&[f32]>,
    rng: &mut R,
) -> Result<DenseVq, MvqError> {
    let grouped = spec.grouping.group(weight, spec.d)?;
    let ng = grouped.dims()[0];
    let importance: Vec<f32> = match activation_moments {
        Some(m) => {
            if m.len() != ng {
                return Err(MvqError::InvalidConfig(format!(
                    "{} activation moments for {ng} subvectors",
                    m.len()
                )));
            }
            if m.iter().any(|&x| x < 0.0) {
                return Err(MvqError::InvalidConfig("importance must be non-negative".into()));
            }
            m.to_vec()
        }
        None => {
            (0..ng).map(|j| grouped.row(j).iter().map(|&v| v * v).sum::<f32>().max(1e-8)).collect()
        }
    };
    let res = cluster(&grouped, spec, Some(&importance), rng)?;
    Ok(DenseVq::from_clustering(res, weight.dims().to_vec(), spec.grouping, spec.d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(k: usize, d: usize, bits: Option<u32>) -> PipelineSpec {
        PipelineSpec { k, d, codebook_bits: bits, ..PipelineSpec::default() }
    }

    #[test]
    fn default_importance_compresses() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
        let vq = bgd_compress(&w, &spec(8, 16, Some(8)), None, &mut rng).unwrap();
        let r = vq.reconstruct().unwrap();
        assert_eq!(r.dims(), w.dims());
        assert!(vq.sse.is_finite());
    }

    #[test]
    fn importance_shifts_centroids_toward_heavy_rows() {
        // two distinct clusters of rows; give one cluster huge importance
        // and force k=1: the centroid should land near the heavy cluster
        let mut data = Vec::new();
        for _ in 0..10 {
            data.extend_from_slice(&[0.0, 0.0]);
        }
        for _ in 0..10 {
            data.extend_from_slice(&[1.0, 1.0]);
        }
        let w = Tensor::from_vec(vec![20, 2], data).unwrap();
        let mut imp = vec![1.0f32; 20];
        for x in imp.iter_mut().skip(10) {
            *x = 1000.0;
        }
        let mut rng = StdRng::seed_from_u64(1);
        let vq = bgd_compress(&w, &spec(1, 2, None), Some(&imp), &mut rng).unwrap();
        let c = vq.codebook().codeword(0);
        assert!(c[0] > 0.9, "weighted centroid {c:?}");
    }

    #[test]
    fn validates_importance() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = mvq_tensor::kaiming_normal(vec![8, 4], 4, &mut rng);
        let spec = spec(2, 4, None);
        assert!(bgd_compress(&w, &spec, Some(&[1.0]), &mut rng).is_err());
        assert!(bgd_compress(&w, &spec, Some(&[-1.0; 8]), &mut rng).is_err());
    }
}
