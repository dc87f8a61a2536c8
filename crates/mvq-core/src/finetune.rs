//! Codebook fine-tuning with masked gradients (paper §4.6, Fig. 5, Eq. 6).
//!
//! During each step: weights are decoded from (codebook, assignments,
//! mask) for the forward pass; backward produces per-weight gradients;
//! each codeword receives the *masked average* of the gradients of the
//! subvectors assigned to it —
//! `c_i ← c_i − O(Σ_p (∂L/∂v_p ∘ n_p) / Σ_p n_p, θ)` —
//! so zero-gradients of pruned lanes cannot dilute the update. Quantized
//! codebooks are re-snapped to their grid after every step
//! (straight-through estimation).
//!
//! The compressed model is a [`ModelArtifacts`] of masked
//! ([`crate::CompressedArtifact::Masked`]) layers, from either clustering
//! scope. Layers whose codebooks are equal by value share one optimizer
//! slot and receive the same update, so a crosslayer codebook stays one
//! codebook through fine-tuning.

use mvq_nn::data::{gather_batch, SyntheticClassification};
use mvq_nn::layers::Sequential;
use mvq_nn::loss::cross_entropy;
use mvq_nn::optim::{Optimizer, OptimizerKind};
use mvq_nn::train::run_epochs;
use mvq_nn::Param;
use mvq_tensor::Tensor;
use rand::Rng;

use crate::error::MvqError;
use crate::pipeline::ModelArtifacts;

/// Hyperparameters for codebook fine-tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct CodebookFinetuneConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer `O(·, θ)` of Eq. 6.
    pub optimizer: OptimizerKind,
}

impl Default for CodebookFinetuneConfig {
    fn default() -> Self {
        CodebookFinetuneConfig { epochs: 2, batch_size: 32, optimizer: OptimizerKind::adam(1e-3) }
    }
}

/// Fine-tunes the codebooks of `artifacts` on `data`, keeping `model`'s
/// decoded weights in sync. Returns the mean loss per epoch.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for zero epochs or batch size and
/// for a layer that is not [`crate::CompressedArtifact::Masked`];
/// propagates model and reconstruction errors.
pub fn finetune_codebooks<R: Rng>(
    model: &mut Sequential,
    artifacts: &mut ModelArtifacts,
    data: &SyntheticClassification,
    cfg: &CodebookFinetuneConfig,
    rng: &mut R,
) -> Result<Vec<f32>, MvqError> {
    for layer in &artifacts.layers {
        layer.as_masked()?;
    }
    let groups = artifacts.codebook_groups();
    let mut opt = Optimizer::new(cfg.optimizer);
    // wrap each shared codebook in a Param so the optimizer machinery applies
    let mut cb_params = groups
        .iter()
        .map(|g| Ok(Param::new(artifacts.layers[g[0]].as_masked()?.codebook().centers().clone())))
        .collect::<Result<Vec<_>, MvqError>>()?;
    let step = |opt: &mut Optimizer, batch: &[usize]| -> Result<f32, MvqError> {
        let (xb, yb) = gather_batch(&data.train_images, &data.train_labels, batch);
        artifacts.apply_to(model)?;
        model.zero_grad();
        let logits = model.forward(&xb, true)?;
        let (loss, grad) = cross_entropy(&logits, &yb)?;
        model.backward(&grad)?;
        accumulate_masked_codebook_grads(model, artifacts, &groups, &mut cb_params)?;
        for (slot, p) in cb_params.iter_mut().enumerate() {
            opt.step_param(p, slot);
            p.zero_grad();
        }
        // write updated centers back to every layer sharing the codebook
        // and re-snap them to the int grid
        for (group, p) in groups.iter().zip(&cb_params) {
            for &i in group {
                let codebook = artifacts.layers[i].as_masked_mut()?.codebook_mut();
                *codebook.centers_mut() = p.value.clone();
                codebook.requantize()?;
            }
        }
        Ok(loss)
    };
    let n = data.n_train();
    let epoch_losses =
        run_epochs(n, cfg.epochs, cfg.batch_size, &mut opt, rng, step, |_, _, _| {})?;
    artifacts.apply_to(model)?;
    Ok(epoch_losses)
}

/// Computes Eq. 6's masked codeword gradients from the conv weight
/// gradients currently stored in `model`, one codebook per group of
/// `groups` (see `ModelArtifacts::codebook_groups`).
fn accumulate_masked_codebook_grads(
    model: &mut Sequential,
    artifacts: &ModelArtifacts,
    groups: &[Vec<usize>],
    cb_params: &mut [Param],
) -> Result<(), MvqError> {
    // gather conv weight grads by depth-first index
    let mut grads: Vec<Tensor> = Vec::new();
    model.visit_convs_mut(&mut |conv| grads.push(conv.weight.grad.clone()));
    for (group, p) in groups.iter().zip(cb_params.iter_mut()) {
        // lane-wise numerator and denominator over every member layer
        let mut sum = vec![0.0f64; p.value.numel()];
        let mut count = sum.clone();
        for &i in group {
            let layer = &artifacts.layers[i];
            let matrix = layer.as_masked()?;
            let mask = matrix.mask();
            let d = mask.d();
            let grouped = matrix.grouping().group(&grads[layer.conv_index], d)?;
            for j in 0..mask.ng() {
                let c = matrix.assignments().of(j);
                let grow = grouped.row(j);
                let mrow = mask.row(j);
                for t in 0..d {
                    if mrow[t] {
                        sum[c * d + t] += grow[t] as f64;
                        count[c * d + t] += 1.0;
                    }
                }
            }
        }
        for (g, (&s, &c)) in p.grad.data_mut().iter_mut().zip(sum.iter().zip(&count)) {
            *g = if c > 0.0 { (s / c) as f32 } else { 0.0 };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::MvqCompressor;
    use crate::pipeline::{by_name, Compressor, PipelineSpec};
    use mvq_nn::models::tiny_cnn;
    use mvq_nn::optim::{Optimizer as NnOpt, OptimizerKind as NnOptKind};
    use mvq_nn::train::{evaluate_classifier, train_classifier, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mvq(spec: PipelineSpec) -> MvqCompressor {
        MvqCompressor::new(spec).unwrap()
    }

    fn codebooks(artifacts: &ModelArtifacts) -> Vec<&crate::Codebook> {
        artifacts.layers.iter().map(|l| l.artifact.codebook().unwrap()).collect()
    }

    #[test]
    fn finetune_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = SyntheticClassification::generate(3, 96, 48, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        // train briefly so compression has something to recover
        let tc = TrainConfig { epochs: 4, batch_size: 32, ..TrainConfig::default() };
        train_classifier(
            &mut model,
            &data,
            &tc,
            &mut NnOpt::new(NnOptKind::sgd(0.05, 0.9, 0.0)),
            &mut rng,
        )
        .unwrap();
        let acc_before = evaluate_classifier(&mut model, &data).unwrap();
        // fp32 codebook isolates the gradient path from grid-snap noise
        let spec = PipelineSpec { k: 8, codebook_bits: None, ..PipelineSpec::default() };
        let mut compressed = mvq(spec).compress_model(&mut model, &mut rng).unwrap();
        let ft = CodebookFinetuneConfig {
            epochs: 3,
            batch_size: 32,
            optimizer: OptimizerKind::adam(5e-3),
        };
        let losses = finetune_codebooks(&mut model, &mut compressed, &data, &ft, &mut rng).unwrap();
        assert!(
            losses.first().unwrap() > losses.last().unwrap(),
            "fine-tuning should reduce loss: {losses:?}"
        );
        let acc_after = evaluate_classifier(&mut model, &data).unwrap();
        // sanity: fine-tuned compressed model is a working classifier
        assert!(acc_after >= 0.2, "acc {acc_after} (dense was {acc_before})");
    }

    #[test]
    fn quantized_codebooks_stay_on_grid() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = SyntheticClassification::generate(3, 32, 16, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        let spec = PipelineSpec::default().with_k(8);
        let mut compressed = mvq(spec).compress_model(&mut model, &mut rng).unwrap();
        let ft = CodebookFinetuneConfig { epochs: 1, batch_size: 16, ..Default::default() };
        finetune_codebooks(&mut model, &mut compressed, &data, &ft, &mut rng).unwrap();
        for cb in codebooks(&compressed) {
            let s = cb.scale().expect("quantized");
            for &v in cb.centers().data() {
                let steps = v / s;
                assert!((steps - steps.round()).abs() < 1e-3, "{v} off-grid (s={s})");
            }
        }
    }

    #[test]
    fn model_weights_match_decode_after_finetune() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = SyntheticClassification::generate(3, 32, 16, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        let spec = PipelineSpec::default().with_k(8).with_nm(8, 16);
        let mut compressed = mvq(spec).compress_model(&mut model, &mut rng).unwrap();
        let ft = CodebookFinetuneConfig { epochs: 1, batch_size: 16, ..Default::default() };
        finetune_codebooks(&mut model, &mut compressed, &data, &ft, &mut rng).unwrap();
        // model weights equal the decoded representation
        let mut weights = Vec::new();
        model.visit_convs_mut(&mut |c| weights.push(c.weight.value.clone()));
        for layer in &compressed.layers {
            let w = layer.artifact.reconstruct().unwrap();
            assert_eq!(w.data(), weights[layer.conv_index].data(), "conv {}", layer.conv_index);
        }
    }

    #[test]
    fn crosslayer_codebook_copies_stay_equal_through_finetune() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = SyntheticClassification::generate(3, 32, 16, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        // fp32 codebook: Adam's small steps would snap back to the int8 grid
        let spec = PipelineSpec { k: 8, codebook_bits: None, ..PipelineSpec::default() };
        let mut compressed = mvq(spec).compress_model_crosslayer(&mut model, &mut rng).unwrap();
        let before = codebooks(&compressed)[0].clone();
        let ft = CodebookFinetuneConfig { epochs: 1, batch_size: 16, ..Default::default() };
        finetune_codebooks(&mut model, &mut compressed, &data, &ft, &mut rng).unwrap();
        let after = codebooks(&compressed);
        assert_eq!(after.len(), 2);
        assert_ne!(after[0], &before, "fine-tuning should move the shared codebook");
        assert!(after.iter().all(|cb| *cb == after[0]), "shared codebook copies diverged");
        assert_eq!(compressed.codebook_groups(), vec![vec![0, 1]]);
    }

    /// Pins the weights and per-epoch losses of a short fine-tuning run (a
    /// partial last batch included), so a refactor of the training walk
    /// cannot move a bit.
    #[test]
    fn finetune_output_is_pinned() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = SyntheticClassification::generate(3, 40, 8, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        let spec = PipelineSpec::default().with_k(8).with_nm(8, 16);
        let mut compressed = mvq(spec).compress_model(&mut model, &mut rng).unwrap();
        let ft = CodebookFinetuneConfig { epochs: 2, batch_size: 12, ..Default::default() };
        let losses = finetune_codebooks(&mut model, &mut compressed, &data, &ft, &mut rng).unwrap();
        let mut h = crate::store::Fnv1a::new();
        model.visit_convs(&mut |conv| {
            conv.weight.value.data().iter().for_each(|w| h.update(&w.to_bits().to_le_bytes()))
        });
        losses.iter().for_each(|l| h.update(&l.to_bits().to_le_bytes()));
        assert_eq!(h.finish(), 0xc81d_e58a_a142_e05d);
    }

    #[test]
    fn rejects_zero_epochs_and_unmasked_artifacts() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = SyntheticClassification::generate(2, 8, 4, 8, &mut rng);
        let mut model = tiny_cnn(2, 8, &mut rng);
        let spec = PipelineSpec::default().with_k(4);
        let mut compressed = mvq(spec).compress_model(&mut model, &mut rng).unwrap();
        let ft = CodebookFinetuneConfig { epochs: 0, batch_size: 16, ..Default::default() };
        assert!(finetune_codebooks(&mut model, &mut compressed, &data, &ft, &mut rng).is_err());

        // vq-a stores no mask, so Eq. 6 has nothing to average over
        let vq = by_name("vq-a", &PipelineSpec::default().with_k(4)).unwrap();
        let mut dense = vq.compress_model(&mut model, &mut rng).unwrap();
        let ft = CodebookFinetuneConfig { epochs: 1, batch_size: 16, ..Default::default() };
        let err = finetune_codebooks(&mut model, &mut dense, &data, &ft, &mut rng).unwrap_err();
        assert!(matches!(err, MvqError::InvalidConfig(_)), "{err}");
    }
}
