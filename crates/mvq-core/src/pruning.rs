//! N:M magnitude pruning (paper §4.3) and sparse fine-tuning (§6.2).
//!
//! Within every consecutive group of M weights of a subvector, the N
//! largest-magnitude weights are kept and the rest zeroed. The sparse model
//! is then fine-tuned, either with a frozen mask (ASP, used by the paper
//! for detection/segmentation) or with the mask re-evaluated every step and
//! a sparse-refining decay on pruned weights (SR-STE, used for
//! classification).
//!
//! Pruning reads its grid and pattern from the same [`PipelineSpec`] the
//! compressors read (`grouping`, `d`, `keep_n`, `m`):
//! [`prune_model(model, &spec)`](prune_model), then
//! [`sparse_finetune(model, masks, data, &spec, &cfg, opt, rng)`](sparse_finetune).
//! Every model-level step here and in [`crate::mixed_nm`] walks the convs
//! through one private walk, so one rule decides which convs are pruned:
//! not depthwise, and groupable at `spec.d` (§7.5). Unlike the compressor
//! walk, an all-zero conv is still pruned.

use mvq_nn::data::{gather_batch, SyntheticClassification};
use mvq_nn::layers::Sequential;
use mvq_nn::loss::cross_entropy;
use mvq_nn::optim::Optimizer;
use mvq_nn::train::run_epochs;
use mvq_nn::Param;
use mvq_tensor::Tensor;
use rand::Rng;

use crate::error::MvqError;
use crate::mask::{validate_nm, NmMask};
use crate::pipeline::PipelineSpec;

/// How the sparse model is fine-tuned after pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneMethod {
    /// ASP: one-shot magnitude mask, frozen during fine-tuning.
    Asp,
    /// SR-STE: the mask is recomputed from the dense shadow weights every
    /// step; pruned weights receive the straight-through gradient plus a
    /// decay `lambda * w` pulling them toward zero.
    SrSte {
        /// Sparse-refinement decay coefficient (the paper of Zhou et al.
        /// uses 2e-4..6e-4).
        lambda: f32,
    },
}

impl PruneMethod {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PruneMethod::Asp => "ASP",
            PruneMethod::SrSte { .. } => "SR-STE",
        }
    }
}

/// Prunes a `[NG, d]` subvector matrix to N:M sparsity by magnitude.
///
/// Returns the pruned matrix (zeros in pruned lanes) and its mask. Ties are
/// broken toward lower indices, making the result deterministic.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] when `d % m != 0`, `keep_n > m`, or
/// the input is not a matrix.
pub fn prune_matrix_nm(
    matrix: &Tensor,
    keep_n: usize,
    m: usize,
) -> Result<(Tensor, NmMask), MvqError> {
    if matrix.rank() != 2 {
        return Err(MvqError::InvalidConfig(format!(
            "pruning expects [NG, d], got {:?}",
            matrix.dims()
        )));
    }
    let (ng, d) = (matrix.dims()[0], matrix.dims()[1]);
    validate_nm(d, keep_n, m)?;
    let mut pruned = matrix.clone();
    let mut bits = vec![false; ng * d];
    for j in 0..ng {
        for g in 0..d / m {
            let start = j * d + g * m;
            let group = &matrix.data()[start..start + m];
            // indices of the top-N magnitudes (stable ordering)
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&a, &b| {
                group[b].abs().partial_cmp(&group[a].abs()).expect("finite weights").then(a.cmp(&b))
            });
            for &t in order.iter().take(keep_n) {
                bits[start + t] = true;
            }
            for (t, v) in pruned.data_mut()[start..start + m].iter_mut().enumerate() {
                if !bits[start + t] {
                    *v = 0.0;
                }
            }
        }
    }
    let mask = NmMask::from_bits(ng, d, keep_n, m, bits)?;
    Ok((pruned, mask))
}

/// Prunes every prunable conv of `model` in place to `spec.keep_n` of
/// every `spec.m` weights on the `spec.grouping`/`spec.d` grid. Depthwise
/// convs and convs whose shape is incompatible with the grouping are
/// skipped, mirroring the paper (§7.5).
///
/// Returns the per-layer masks, indexed by the conv's depth-first position
/// (`None` for skipped layers).
///
/// # Errors
///
/// Propagates grouping errors other than shape incompatibility, and
/// [`prune_matrix_nm`]'s N:M checks.
pub fn prune_model(
    model: &mut Sequential,
    spec: &PipelineSpec,
) -> Result<Vec<Option<NmMask>>, MvqError> {
    prune_where(model, spec, |_| Some((spec.keep_n, spec.m)))
}

/// Prunes each prunable conv to the `(keep_n, m)` pattern that `pattern`
/// picks for its depth-first index; a conv it picks `None` for keeps its
/// weights and gets no mask. Returns masks indexed like [`prune_model`]'s.
pub(crate) fn prune_where(
    model: &mut Sequential,
    spec: &PipelineSpec,
    pattern: impl Fn(usize) -> Option<(usize, usize)>,
) -> Result<Vec<Option<NmMask>>, MvqError> {
    let mut masks = vec![None; model.num_convs()];
    walk_prunable(model, spec, |idx, grouped, _| {
        let Some((keep_n, m)) = pattern(idx) else { return Ok(None) };
        let (pruned, mask) = prune_matrix_nm(&grouped, keep_n, m)?;
        masks[idx] = Some(mask);
        Ok(Some(pruned))
    })?;
    Ok(masks)
}

/// The convs pruning visits, in depth-first order, each with its conv
/// index and its weight grouped on the `spec.grouping`/`spec.d` grid.
/// This is the one rule for which convs pruning visits: not depthwise, and
/// groupable at `spec.d`.
///
/// # Errors
///
/// Stops at the first grouping error other than shape incompatibility.
pub(crate) fn prunable_weights(
    model: &Sequential,
    spec: &PipelineSpec,
) -> Result<Vec<(usize, Tensor)>, MvqError> {
    let mut out = Vec::new();
    let mut idx = 0usize;
    let mut first_err = None;
    model.visit_convs(&mut |conv| {
        if first_err.is_none() && !conv.is_depthwise() {
            match spec.grouping.group(&conv.weight.value, spec.d) {
                Ok(grouped) => out.push((idx, grouped)),
                Err(MvqError::IncompatibleShape { .. }) => {}
                Err(e) => first_err = Some(e),
            }
        }
        idx += 1;
    });
    first_err.map_or(Ok(out), Err)
}

/// Runs `op` on every conv [`prunable_weights`] names, in order, stopping
/// at the first error. `op` gets the conv index, the grouped weight and
/// the conv's weight parameter; the grouped weight it returns, if any, is
/// ungrouped and written back.
fn walk_prunable(
    model: &mut Sequential,
    spec: &PipelineSpec,
    mut op: impl FnMut(usize, Tensor, &mut Param) -> Result<Option<Tensor>, MvqError>,
) -> Result<(), MvqError> {
    let mut pending = prunable_weights(model, spec)?.into_iter().peekable();
    let mut next = 0usize;
    let mut first_err = None;
    model.visit_convs_mut(&mut |conv| {
        let idx = next;
        next += 1;
        if first_err.is_some() {
            return;
        }
        let Some((_, grouped)) = pending.next_if(|(i, _)| *i == idx) else { return };
        let res = op(idx, grouped, &mut conv.weight).and_then(|new| {
            new.map(|g| spec.grouping.ungroup(&g, conv.weight.value.dims(), spec.d)).transpose()
        });
        match res {
            Ok(Some(w)) => conv.weight.value = w,
            Ok(None) => {}
            Err(e) => first_err = Some(e),
        }
    });
    first_err.map_or(Ok(()), Err)
}

/// Configuration for sparse fine-tuning. The N:M pattern and its grid come
/// from the [`PipelineSpec`] passed beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFinetuneConfig {
    /// Pruning schedule (ASP or SR-STE).
    pub method: PruneMethod,
    /// Epochs of sparse fine-tuning.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

/// Fine-tunes a pruned model while preserving (ASP) or re-learning (SR-STE)
/// its N:M masks. Returns the final per-layer masks.
///
/// SR-STE keeps a *dense shadow* of every compressible conv weight: the
/// forward pass sees the masked weight, the straight-through gradient (plus
/// the `λ·w` sparse-refinement decay on pruned lanes) updates the dense
/// shadow, and the mask is re-evaluated from the shadow each step with
/// [`prune_model`] on `spec`. On exit the model holds the masked weights.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for zero epochs or batch size,
/// leaving the model untouched; propagates model and pruning errors.
pub fn sparse_finetune<R: Rng>(
    model: &mut Sequential,
    mut masks: Vec<Option<NmMask>>,
    data: &SyntheticClassification,
    spec: &PipelineSpec,
    cfg: &SparseFinetuneConfig,
    opt: &mut Optimizer,
    rng: &mut R,
) -> Result<Vec<Option<NmMask>>, MvqError> {
    // dense shadow for SR-STE (starts from the masked weights; revived
    // lanes re-grow from zero through the straight-through gradient)
    let mut shadow = Vec::new();
    if let PruneMethod::SrSte { .. } = cfg.method {
        model.visit_convs(&mut |c| shadow.push(c.weight.value.clone()));
    }
    let step = |opt: &mut Optimizer, batch: &[usize]| -> Result<f32, MvqError> {
        let (xb, yb) = gather_batch(&data.train_images, &data.train_labels, batch);
        model.zero_grad();
        let logits = model.forward(&xb, true)?;
        let (loss, grad) = cross_entropy(&logits, &yb)?;
        model.backward(&grad)?;
        match cfg.method {
            PruneMethod::Asp => {
                opt.step(model);
                reapply_masks(model, &masks, spec)?;
            }
            PruneMethod::SrSte { lambda } => {
                // restore dense shadow so the optimizer updates it
                let mut dense = std::mem::take(&mut shadow).into_iter();
                model.visit_convs_mut(&mut |c| c.weight.value = dense.next().expect("shadow"));
                apply_srste_decay(model, &masks, spec, lambda)?;
                opt.step(model);
                // capture updated shadow, then re-prune for the next
                // forward pass
                model.visit_convs(&mut |c| shadow.push(c.weight.value.clone()));
                masks = prune_model(model, spec)?;
            }
        }
        Ok(loss)
    };
    run_epochs(data.n_train(), cfg.epochs, cfg.batch_size, opt, rng, step, |_, _, _| {})?;
    Ok(masks)
}

/// Zeroes pruned weights according to fixed masks (ASP step).
fn reapply_masks(
    model: &mut Sequential,
    masks: &[Option<NmMask>],
    spec: &PipelineSpec,
) -> Result<(), MvqError> {
    walk_prunable(model, spec, |idx, grouped, _| {
        masks.get(idx).and_then(Option::as_ref).map(|mask| mask.apply(&grouped)).transpose()
    })
}

/// Adds `lambda * w` to the gradient of currently-pruned weights.
fn apply_srste_decay(
    model: &mut Sequential,
    masks: &[Option<NmMask>],
    spec: &PipelineSpec,
    lambda: f32,
) -> Result<(), MvqError> {
    walk_prunable(model, spec, |idx, grouped, weight| {
        let Some(mask) = masks.get(idx).and_then(Option::as_ref) else { return Ok(None) };
        let mut ggrad = spec.grouping.group(&weight.grad, spec.d)?;
        for ((g, &w), &kept) in ggrad.data_mut().iter_mut().zip(grouped.data()).zip(mask.bits()) {
            if !kept {
                *g += lambda * w;
            }
        }
        weight.grad = spec.grouping.ungroup(&ggrad, weight.grad.dims(), spec.d)?;
        Ok(None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_nn::models::tiny_cnn;
    use mvq_nn::optim::OptimizerKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prune_keeps_largest_magnitudes() {
        let m = Tensor::from_vec(vec![1, 4], vec![0.1, -0.9, 0.5, 0.2]).unwrap();
        let (pruned, mask) = prune_matrix_nm(&m, 2, 4).unwrap();
        assert_eq!(pruned.data(), &[0.0, -0.9, 0.5, 0.0]);
        assert_eq!(mask.row(0), &[false, true, true, false]);
    }

    #[test]
    fn prune_multiple_groups() {
        let m =
            Tensor::from_vec(vec![1, 8], vec![1.0, 0.1, 0.2, 0.3, -0.5, 4.0, 0.0, 0.1]).unwrap();
        let (pruned, mask) = prune_matrix_nm(&m, 1, 4).unwrap();
        assert_eq!(pruned.data(), &[1.0, 0.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0]);
        assert_eq!(mask.sparsity(), 0.75);
    }

    #[test]
    fn prune_sparsity_matches_ratio() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = mvq_tensor::uniform(vec![32, 16], -1.0, 1.0, &mut rng);
        let (pruned, mask) = prune_matrix_nm(&m, 4, 16).unwrap();
        assert_eq!(pruned.sparsity(), 0.75);
        assert_eq!(mask.sparsity(), 0.75);
        // kept values survive untouched
        for j in 0..32 {
            for t in 0..16 {
                if mask.row(j)[t] {
                    assert_eq!(pruned.at(&[j, t]).unwrap(), m.at(&[j, t]).unwrap());
                }
            }
        }
    }

    #[test]
    fn prune_validates() {
        let m = Tensor::zeros(vec![2, 6]);
        assert!(prune_matrix_nm(&m, 2, 4).is_err(), "d not multiple of m");
        assert!(prune_matrix_nm(&Tensor::zeros(vec![4]), 1, 2).is_err());
        assert!(prune_matrix_nm(&Tensor::zeros(vec![2, 4]), 5, 4).is_err());
    }

    #[test]
    fn prune_model_sparsifies_compressible_convs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = tiny_cnn(4, 8, &mut rng);
        let masks = prune_model(&mut model, &PipelineSpec::default()).unwrap();
        assert_eq!(masks.len(), model.num_convs());
        let mut idx = 0;
        model.visit_convs_mut(&mut |conv| {
            if masks[idx].is_some() {
                assert!(
                    conv.weight.value.sparsity() >= 0.74,
                    "conv {idx} sparsity {}",
                    conv.weight.value.sparsity()
                );
            }
            idx += 1;
        });
        // tiny_cnn convs have K=16 and K=32, both groupable at d=16
        assert!(masks.iter().all(|m| m.is_some()));
    }

    #[test]
    fn asp_finetune_preserves_masks() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = SyntheticClassification::generate(3, 32, 8, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        let spec = PipelineSpec::default().with_nm(8, 16);
        let masks = prune_model(&mut model, &spec).unwrap();
        let cfg = SparseFinetuneConfig { method: PruneMethod::Asp, epochs: 1, batch_size: 16 };
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.05, 0.9, 0.0));
        let out_masks =
            sparse_finetune(&mut model, masks.clone(), &data, &spec, &cfg, &mut opt, &mut rng)
                .unwrap();
        // ASP: masks unchanged, weights still sparse
        for (a, b) in masks.iter().zip(&out_masks) {
            assert_eq!(
                a.as_ref().map(|m| m.bits().to_vec()),
                b.as_ref().map(|m| m.bits().to_vec())
            );
        }
        model.visit_convs_mut(&mut |conv| {
            assert!(conv.weight.value.sparsity() >= 0.49);
        });
    }

    #[test]
    fn srste_finetune_keeps_nm_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = SyntheticClassification::generate(3, 32, 8, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        let spec = PipelineSpec::default().with_nm(8, 16);
        let masks = prune_model(&mut model, &spec).unwrap();
        let cfg = SparseFinetuneConfig {
            method: PruneMethod::SrSte { lambda: 2e-4 },
            epochs: 1,
            batch_size: 16,
        };
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.05, 0.9, 0.0));
        let out_masks =
            sparse_finetune(&mut model, masks, &data, &spec, &cfg, &mut opt, &mut rng).unwrap();
        // N:M structure still holds (mask may have moved)
        for m in out_masks.iter().flatten() {
            assert_eq!(m.keep_n(), 8);
            assert_eq!(m.m(), 16);
        }
        model.visit_convs_mut(&mut |conv| {
            assert!(conv.weight.value.sparsity() >= 0.49);
        });
    }

    /// FNV-1a over every mask bit (a `None` layer hashes as 2) and the
    /// bit pattern of every conv weight.
    fn digest(model: &Sequential, masks: &[Option<NmMask>]) -> u64 {
        let mut h = crate::store::Fnv1a::new();
        for mask in masks {
            match mask {
                Some(mask) => mask.bits().iter().for_each(|&b| h.update(&[b as u8])),
                None => h.update(&[2]),
            }
        }
        model.visit_convs(&mut |conv| {
            conv.weight.value.data().iter().for_each(|w| h.update(&w.to_bits().to_le_bytes()))
        });
        h.finish()
    }

    /// Pins the masks and weights one epoch of each fine-tuning method
    /// leaves behind, so a refactor of the pruning walk cannot move a bit.
    /// The SR-STE arm re-learns its masks (the lr is high enough for
    /// pruned lanes to regrow), so its pin covers the dense shadow and the
    /// decay as well as the mask walk.
    #[test]
    fn sparse_finetune_output_is_pinned() {
        let methods = [
            (PruneMethod::Asp, 0x1369_6ff0_506a_f1c2),
            (PruneMethod::SrSte { lambda: 2e-4 }, 0x921f_cbf8_ab73_9f99),
        ];
        for (method, pinned) in methods {
            let mut rng = StdRng::seed_from_u64(7);
            let data = SyntheticClassification::generate(3, 64, 8, 8, &mut rng);
            let mut model = tiny_cnn(3, 8, &mut rng);
            let spec = PipelineSpec::default().with_nm(8, 16);
            let masks = prune_model(&mut model, &spec).unwrap();
            let cfg = SparseFinetuneConfig { method, epochs: 1, batch_size: 8 };
            let mut opt = Optimizer::new(OptimizerKind::sgd(0.2, 0.9, 0.0));
            let out =
                sparse_finetune(&mut model, masks.clone(), &data, &spec, &cfg, &mut opt, &mut rng)
                    .unwrap();
            assert_eq!(out == masks, method == PruneMethod::Asp, "{}", method.name());
            assert_eq!(digest(&model, &out), pinned, "{}", method.name());
        }
    }

    /// A zero batch size or epoch count is a config error, returned before
    /// any weight moves. The call runs on a thread under a watchdog, so a
    /// batch loop that never ends fails the test instead of stalling the
    /// suite.
    #[test]
    fn zero_batch_or_epochs_is_rejected_untouched() {
        let cases = [(PruneMethod::Asp, 1, 0), (PruneMethod::SrSte { lambda: 2e-4 }, 0, 8)];
        for (method, epochs, batch_size) in cases {
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(2);
                let data = SyntheticClassification::generate(3, 16, 4, 8, &mut rng);
                let mut model = tiny_cnn(3, 8, &mut rng);
                let spec = PipelineSpec::default().with_nm(8, 16);
                let masks = prune_model(&mut model, &spec).unwrap();
                let before = digest(&model, &[]);
                let cfg = SparseFinetuneConfig { method, epochs, batch_size };
                let mut opt = Optimizer::new(OptimizerKind::sgd(0.05, 0.9, 0.0));
                let res =
                    sparse_finetune(&mut model, masks, &data, &spec, &cfg, &mut opt, &mut rng);
                tx.send((res.map(drop), digest(&model, &[]) == before)).unwrap();
            });
            let (res, untouched) =
                rx.recv_timeout(std::time::Duration::from_secs(30)).expect("sparse_finetune hung");
            worker.join().expect("worker thread");
            assert!(
                matches!(res, Err(MvqError::InvalidConfig(_))),
                "{epochs}/{batch_size}: {res:?}"
            );
            assert!(untouched, "{epochs}/{batch_size}: weights moved");
        }
    }

    #[test]
    fn method_names() {
        assert_eq!(PruneMethod::Asp.name(), "ASP");
        assert_eq!(PruneMethod::SrSte { lambda: 1e-4 }.name(), "SR-STE");
    }
}
