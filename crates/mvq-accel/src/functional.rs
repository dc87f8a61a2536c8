//! A functional (value-accurate, cycle-counted) model of the EWS array.
//!
//! Where [`crate::sim`] is analytical (it *counts* events), this module
//! *executes* a convolution through the modeled hardware path:
//!
//! 1. the weight loader reads assignments, looks codewords up in the CRF
//!    image, decodes the mask through the C(M,N) LUT and AND-gates the
//!    codeword (§5.2) — exactly the decode the silicon performs;
//! 2. the array computes output-channel tiles with [`SparseTile`]s
//!    (compressed settings) or dense multiplies (baselines), accumulating
//!    partial sums per output position;
//! 3. cycles are counted per tile: weight-load cycles across the DMA
//!    interface, compute cycles at one ofmap position per cycle per tile,
//!    overlapped as the 1W2R WRFs allow.
//!
//! Tests verify value-exact agreement between the sparse path, the dense
//! path, and a reference GEMM — the hardware-correctness argument for the
//! sparse tile design.

use mvq_core::{CompressedMatrix, MaskLut};
use mvq_tensor::{gemm, Tensor};

use crate::config::HwConfig;
use crate::error::AccelError;
use crate::lzc::SparseTile;

/// Result of a functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalRun {
    /// The computed output, `[K, E2]`.
    pub ofmap: Tensor,
    /// Total modeled cycles (weight-load overlapped with compute).
    pub cycles: u64,
    /// Cycles spent loading weights/assignments across the DMA interface.
    pub weight_load_cycles: u64,
    /// Physical multiply operations executed.
    pub macs_executed: u64,
}

/// The functional EWS array executor.
#[derive(Debug, Clone)]
pub struct FunctionalEws {
    cfg: HwConfig,
}

impl FunctionalEws {
    /// Wraps a hardware configuration.
    pub fn new(cfg: HwConfig) -> FunctionalEws {
        FunctionalEws { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Executes `W (K×R) · X (R×E2)` with dense 8-bit-style weights
    /// (values used as-is; quantization is the caller's concern).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] on shape mismatches.
    pub fn run_dense(&self, wmat: &Tensor, x: &Tensor) -> Result<FunctionalRun, AccelError> {
        let (k, r) = check_shapes(wmat, x)?;
        let e2 = x.dims()[1];
        let (h, l) = (self.cfg.array_h, self.cfg.array_l);
        let mut ofmap = Tensor::zeros(vec![k, e2]);
        let mut macs = 0u64;
        let mut compute_cycles = 0u64;
        let mut load_cycles = 0u64;
        // tile output channels by L and reduction rows by H
        for k0 in (0..k).step_by(l) {
            let k1 = (k0 + l).min(k);
            for r0 in (0..r).step_by(h) {
                let r1 = (r0 + h).min(r);
                // load this weight tile: (k1-k0)*(r1-r0) 8-bit weights
                let bits = ((k1 - k0) * (r1 - r0)) as u64 * 8;
                load_cycles += bits.div_ceil(self.cfg.dma_bits as u64);
                // stream E2 positions, one per cycle
                compute_cycles += e2 as u64;
                for e in 0..e2 {
                    for kk in k0..k1 {
                        let mut acc = ofmap.at(&[kk, e]).expect("in range");
                        for rr in r0..r1 {
                            acc += wmat.at(&[kk, rr]).expect("in range")
                                * x.at(&[rr, e]).expect("in range");
                            macs += 1;
                        }
                        ofmap.set(&[kk, e], acc).expect("in range");
                    }
                }
            }
        }
        // EWS 1W2R WRFs overlap loading behind compute
        let cycles = compute_cycles.max(load_cycles);
        Ok(FunctionalRun { ofmap, cycles, weight_load_cycles: load_cycles, macs_executed: macs })
    }

    /// Executes a convolution whose weights arrive as an MVQ
    /// [`CompressedMatrix`]: the loader decodes `index+mask` into sparse
    /// weight vectors and the array computes them with [`SparseTile`]s.
    ///
    /// `compressed` must use output-channel-wise grouping over a `[K, R]`
    /// weight (d consecutive output channels per subvector), matching the
    /// CRF port layout of §5.2.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] on layout mismatches.
    pub fn run_compressed(
        &self,
        compressed: &CompressedMatrix,
        x: &Tensor,
    ) -> Result<FunctionalRun, AccelError> {
        let dims = compressed.orig_dims();
        if dims.len() != 2 {
            return Err(AccelError::InvalidConfig(format!(
                "functional array expects a 2-D weight, got {dims:?}"
            )));
        }
        let (k, r) = (dims[0], dims[1]);
        if x.rank() != 2 || x.dims()[0] != r {
            return Err(AccelError::InvalidConfig(format!(
                "ifmap {:?} does not match weight reduction dim {r}",
                x.dims()
            )));
        }
        let e2 = x.dims()[1];
        let d = compressed.mask().d();
        if k % d != 0 {
            return Err(AccelError::InvalidConfig(format!(
                "output channels {k} not a multiple of d = {d}"
            )));
        }
        let mask = compressed.mask();
        let lut = MaskLut::new(mask.keep_n(), mask.m())
            .map_err(|e| AccelError::InvalidConfig(format!("mask LUT construction failed: {e}")))?;
        let codebook = compressed.codebook();
        let assignments = compressed.assignments();
        let groups_per_m = d / mask.m();
        let mut ofmap = Tensor::zeros(vec![k, e2]);
        let mut macs = 0u64;
        let mut load_cycles = 0u64;
        let mut compute_cycles = 0u64;
        // subvector j covers output channels [kb*d, kb*d+d) at reduction
        // position pos, with j = kb*r + pos (output-wise grouping of a
        // [K, R] matrix)
        let blocks = k / d;
        for kb in 0..blocks {
            // loader traffic for this block: R subvectors of
            // (index + mask) bits, plus the one-time CRF init amortized
            // elsewhere
            let bits_per_subvector =
                codebook.index_bits() as u64 + lut.index_bits() as u64 * groups_per_m as u64;
            load_cycles += (r as u64 * bits_per_subvector).div_ceil(self.cfg.dma_bits as u64);
            // build the R sparse tiles of this output-channel block via
            // the modeled decode path: CRF lookup -> LUT decode -> AND
            let mut tiles = Vec::with_capacity(r);
            for pos in 0..r {
                let j = kb * r + pos;
                let codeword = codebook.codeword(assignments.of(j));
                // hardware: mask arrives as LUT indices; round-trip them
                let mut mask_bits = Vec::with_capacity(d);
                let row = mask.row(j);
                for g in 0..groups_per_m {
                    let chunk = &row[g * mask.m()..(g + 1) * mask.m()];
                    let idx = lut.encode(chunk).map_err(|e| {
                        AccelError::InvalidConfig(format!("mask encode failed: {e}"))
                    })?;
                    mask_bits
                        .extend_from_slice(lut.decode(idx).expect("index from encode is valid"));
                }
                // AND gates: keep codeword lanes where the mask is set
                let kept: Vec<f64> = codeword
                    .iter()
                    .zip(&mask_bits)
                    .filter(|(_, &m)| m)
                    .map(|(&w, _)| w as f64)
                    .collect();
                let tile = SparseTile::program(d, &mask_bits, &kept)?;
                tiles.push(tile);
            }
            // stream the ofmap plane through the block's tiles
            compute_cycles += e2 as u64;
            for e in 0..e2 {
                for (pos, tile) in tiles.iter().enumerate() {
                    let act = x.at(&[pos, e]).expect("in range") as f64;
                    if act == 0.0 {
                        continue; // zero-value gating (Fig. 9)
                    }
                    let psums = tile.cycle(act);
                    macs += tile.q() as u64;
                    for (t, &p) in psums.iter().enumerate() {
                        let kk = kb * d + t;
                        let acc = ofmap.at(&[kk, e]).expect("in range") + p as f32;
                        ofmap.set(&[kk, e], acc).expect("in range");
                    }
                }
            }
        }
        let cycles = compute_cycles.max(load_cycles);
        Ok(FunctionalRun { ofmap, cycles, weight_load_cycles: load_cycles, macs_executed: macs })
    }

    /// Reference result via plain GEMM.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] on shape mismatches.
    pub fn reference(&self, wmat: &Tensor, x: &Tensor) -> Result<Tensor, AccelError> {
        check_shapes(wmat, x)?;
        gemm(wmat, x).map_err(|e| AccelError::InvalidConfig(e.to_string()))
    }
}

fn check_shapes(wmat: &Tensor, x: &Tensor) -> Result<(usize, usize), AccelError> {
    if wmat.rank() != 2 || x.rank() != 2 || wmat.dims()[1] != x.dims()[0] {
        return Err(AccelError::InvalidConfig(format!(
            "incompatible shapes: W {:?} vs X {:?}",
            wmat.dims(),
            x.dims()
        )));
    }
    Ok((wmat.dims()[0], wmat.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwSetting;
    use mvq_core::{MvqCompressor, PipelineSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    /// MVQ at d=16, 4:16, int8 codebook with `k` codewords.
    fn mvq(k: usize) -> MvqCompressor {
        MvqCompressor::new(PipelineSpec::default().with_k(k)).unwrap()
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn dense_run_matches_gemm() {
        let mut r = rng();
        let w = mvq_tensor::uniform(vec![32, 24], -1.0, 1.0, &mut r);
        let x = mvq_tensor::uniform(vec![24, 10], -1.0, 1.0, &mut r);
        let arr = FunctionalEws::new(HwConfig::new(HwSetting::Ews, 16).unwrap());
        let run = arr.run_dense(&w, &x).unwrap();
        let reference = arr.reference(&w, &x).unwrap();
        assert!(close(&run.ofmap, &reference, 1e-4));
        assert_eq!(run.macs_executed, 32 * 24 * 10);
        assert!(run.cycles > 0);
    }

    #[test]
    fn compressed_run_matches_decoded_gemm() {
        let mut r = rng();
        let w = mvq_tensor::kaiming_normal(vec![32, 24], 24, &mut r);
        let compressed = mvq(16).compress_matrix(&w, &mut r).unwrap();
        let decoded = compressed.reconstruct().unwrap();
        let x = mvq_tensor::uniform(vec![24, 10], -1.0, 1.0, &mut r);
        let arr = FunctionalEws::new(HwConfig::new(HwSetting::EwsCms, 16).unwrap());
        let run = arr.run_compressed(&compressed, &x).unwrap();
        let reference = arr.reference(&decoded, &x).unwrap();
        assert!(close(&run.ofmap, &reference, 1e-3), "sparse path diverged");
    }

    #[test]
    fn compressed_run_executes_quarter_of_the_macs() {
        let mut r = rng();
        let w = mvq_tensor::kaiming_normal(vec![64, 18], 18, &mut r);
        let compressed = mvq(8).compress_matrix(&w, &mut r).unwrap();
        let x = mvq_tensor::uniform(vec![18, 5], 0.1, 1.0, &mut r); // no zeros
        let arr = FunctionalEws::new(HwConfig::new(HwSetting::EwsCms, 16).unwrap());
        let run = arr.run_compressed(&compressed, &x).unwrap();
        // Q = 4 of 16 lanes per subvector: exactly 25% of dense MACs
        assert_eq!(run.macs_executed, 64 * 18 * 5 / 4);
    }

    #[test]
    fn zero_activations_are_gated() {
        let mut r = rng();
        let w = mvq_tensor::kaiming_normal(vec![16, 8], 8, &mut r);
        let compressed = mvq(4).compress_matrix(&w, &mut r).unwrap();
        let mut x = mvq_tensor::uniform(vec![8, 6], 0.1, 1.0, &mut r);
        // zero half the activations
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let arr = FunctionalEws::new(HwConfig::new(HwSetting::EwsCms, 16).unwrap());
        let run = arr.run_compressed(&compressed, &x).unwrap();
        assert_eq!(run.macs_executed, 16 * 8 * 6 / 4 / 2);
    }

    #[test]
    fn compressed_loading_is_much_narrower() {
        let mut r = rng();
        let w = mvq_tensor::kaiming_normal(vec![64, 36], 36, &mut r);
        let compressed = mvq(16).compress_matrix(&w, &mut r).unwrap();
        let x = mvq_tensor::uniform(vec![36, 4], -1.0, 1.0, &mut r);
        let arr = FunctionalEws::new(HwConfig::new(HwSetting::EwsCms, 16).unwrap());
        let dense = arr.run_dense(&w, &x).unwrap();
        let sparse = arr.run_compressed(&compressed, &x).unwrap();
        // index+mask loading: (9-ish + 11) bits per 16 weights vs 128 bits
        assert!(
            (sparse.weight_load_cycles as f64) < dense.weight_load_cycles as f64 * 0.4,
            "sparse {} vs dense {}",
            sparse.weight_load_cycles,
            dense.weight_load_cycles
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        let arr = FunctionalEws::new(HwConfig::new(HwSetting::Ews, 16).unwrap());
        let w = Tensor::zeros(vec![4, 4]);
        let x = Tensor::zeros(vec![5, 2]);
        assert!(arr.run_dense(&w, &x).is_err());
        assert!(arr.reference(&w, &x).is_err());
        let mut r = rng();
        let w2 = mvq_tensor::kaiming_normal(vec![16, 8], 8, &mut r);
        let compressed = mvq(4).compress_matrix(&w2, &mut r).unwrap();
        assert!(arr.run_compressed(&compressed, &x).is_err());
    }
}
