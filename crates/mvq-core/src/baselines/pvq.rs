//! PvQ baseline: uniform scalar quantization at a given bit width
//! (the "pruning vs quantization" comparison point, Kuzmin et al. 2023).
//! The paper's Tables 4/6 compare MVQ against 2-bit PvQ on MobileNets,
//! EfficientNet and DeepLab.

use mvq_tensor::{quantize_symmetric, Tensor};

use crate::error::MvqError;

/// Result of scalar-quantizing a tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct PvqResult {
    /// The fake-quantized tensor (values snapped to the grid).
    pub quantized: Tensor,
    /// Learned scale.
    pub scale: f32,
    /// Bit width.
    pub bits: u32,
    /// Quantization SSE against the input.
    pub sse: f32,
}

impl PvqResult {
    /// Compression ratio versus fp32 storage (per-tensor scale amortized
    /// away, matching how uniform-quantization papers report it).
    pub fn compression_ratio(&self) -> f64 {
        32.0 / self.bits as f64
    }
}

/// Rejects a scalar bit width outside `2..=16`.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] naming the width.
pub(crate) fn check_bits(bits: u32) -> Result<(), MvqError> {
    if !(2..=16).contains(&bits) {
        return Err(MvqError::InvalidConfig(format!("bits must be in 2..=16, got {bits}")));
    }
    Ok(())
}

/// Uniformly quantizes `weight` to `bits` with an alternating-minimization
/// learned scale (same scale solver as the MVQ codebook quantizer).
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for bits outside `2..=16` or
/// all-zero input.
pub fn pvq_quantize(weight: &Tensor, bits: u32) -> Result<PvqResult, MvqError> {
    check_bits(bits)?;
    let qmax = ((1i64 << (bits - 1)) - 1) as f32;
    let mean_abs =
        weight.data().iter().map(|x| x.abs()).sum::<f32>() / weight.numel().max(1) as f32;
    if mean_abs == 0.0 {
        return Err(MvqError::InvalidConfig("cannot quantize an all-zero tensor".into()));
    }
    let mut s = 2.0 * mean_abs / qmax.sqrt();
    for _ in 0..30 {
        let q = quantize_symmetric(weight, s, bits)?;
        let num: f64 =
            weight.data().iter().zip(q.values()).map(|(&c, &qi)| c as f64 * qi as f64).sum();
        let den: f64 = q.values().iter().map(|&qi| (qi as f64) * (qi as f64)).sum();
        if den == 0.0 {
            break;
        }
        let s_new = (num / den) as f32;
        if !(s_new.is_finite() && s_new > 0.0) || (s_new - s).abs() / s < 1e-6 {
            break;
        }
        s = s_new;
    }
    let quantized = quantize_symmetric(weight, s, bits)?.dequantize();
    let sse = weight.sse(&quantized)?;
    Ok(PvqResult { quantized, scale: s, bits, sse })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eight_bit_is_nearly_lossless() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = mvq_tensor::kaiming_normal(vec![64, 64], 64, &mut rng);
        let res = pvq_quantize(&w, 8).unwrap();
        assert!(res.sse / w.sq_norm() < 1e-2, "relative sse {}", res.sse / w.sq_norm());
        assert_eq!(res.compression_ratio(), 4.0);
    }

    #[test]
    fn two_bit_is_lossy_but_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = mvq_tensor::kaiming_normal(vec![64, 64], 64, &mut rng);
        let r8 = pvq_quantize(&w, 8).unwrap();
        let r2 = pvq_quantize(&w, 2).unwrap();
        assert!(r2.sse > r8.sse * 10.0);
        assert_eq!(r2.compression_ratio(), 16.0);
        // grid has at most 4 distinct values
        let mut vals: Vec<i64> =
            r2.quantized.data().iter().map(|&v| (v / r2.scale).round() as i64).collect();
        vals.sort_unstable();
        vals.dedup();
        assert!(vals.len() <= 4, "levels: {vals:?}");
    }

    #[test]
    fn model_quantization_applies_to_all_convs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = mvq_nn::models::tiny_cnn(3, 8, &mut rng);
        let spec = crate::pipeline::PipelineSpec::default(); // 2-bit
        let pvq = crate::pipeline::by_name("pvq", &spec).unwrap();
        let artifacts = pvq.compress_model(&mut model, &mut rng).unwrap();
        assert!(artifacts.total_sse().unwrap() > 0.0);
        assert_eq!(artifacts.layers.len(), model.num_convs());
        assert!(artifacts.skipped.is_empty());
        assert!((artifacts.compression_ratio() - 16.0).abs() < 1e-9);
        // all weights now on a 4-level grid per layer
        model.visit_convs_mut(&mut |conv| {
            let mut vals: Vec<u32> =
                conv.weight.value.data().iter().map(|&v| v.to_bits()).collect();
            vals.sort_unstable();
            vals.dedup();
            assert!(vals.len() <= 4, "{} distinct values", vals.len());
        });
    }

    #[test]
    fn validates_input() {
        assert!(pvq_quantize(&Tensor::zeros(vec![4]), 2).is_err());
        let t = Tensor::ones(vec![4]);
        assert!(pvq_quantize(&t, 1).is_err());
        assert!(pvq_quantize(&t, 32).is_err());
    }
}
