//! Training and evaluation loops.

use mvq_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::data::{
    batch_of, gather_batch, seg_batch_of, SyntheticClassification, SyntheticSegmentation,
};
use crate::error::NnError;
use crate::layers::Sequential;
use crate::loss::{cross_entropy, pixel_cross_entropy};
use crate::optim::Optimizer;

/// Hyperparameters for a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Multiply the learning rate by this factor after each epoch.
    pub lr_decay: f32,
    /// Print a progress line per epoch when true.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 5, batch_size: 32, lr_decay: 1.0, verbose: false }
    }
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean loss of the final epoch.
    pub final_train_loss: f32,
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
}

/// Trains a classifier on a [`SyntheticClassification`] dataset.
///
/// # Errors
///
/// Propagates forward/backward shape errors.
pub fn train_classifier<R: Rng>(
    model: &mut Sequential,
    data: &SyntheticClassification,
    cfg: &TrainConfig,
    opt: &mut Optimizer,
    rng: &mut R,
) -> Result<TrainStats, NnError> {
    if cfg.batch_size == 0 || cfg.epochs == 0 {
        return Err(NnError::InvalidConfig("epochs and batch_size must be positive".into()));
    }
    let n = data.n_train();
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        order.shuffle(rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        let mut start = 0;
        while start < n {
            let end = (start + cfg.batch_size).min(n);
            let (xb, yb) = gather_batch(&data.train_images, &data.train_labels, &order[start..end]);
            model.zero_grad();
            let logits = model.forward(&xb, true)?;
            let (loss, grad) = cross_entropy(&logits, &yb)?;
            model.backward(&grad)?;
            opt.step(model);
            total += loss as f64;
            batches += 1;
            start = end;
        }
        let mean = (total / batches.max(1) as f64) as f32;
        epoch_losses.push(mean);
        if cfg.verbose {
            eprintln!("epoch {epoch}: loss {mean:.4}");
        }
        let lr = opt.kind().lr() * cfg.lr_decay;
        opt.kind_mut().set_lr(lr);
    }
    Ok(TrainStats { final_train_loss: *epoch_losses.last().expect("epochs > 0"), epoch_losses })
}

/// Trains a segmentation model on a [`SyntheticSegmentation`] dataset.
///
/// # Errors
///
/// Propagates forward/backward shape errors.
pub fn train_segmenter<R: Rng>(
    model: &mut Sequential,
    data: &SyntheticSegmentation,
    cfg: &TrainConfig,
    opt: &mut Optimizer,
    rng: &mut R,
) -> Result<TrainStats, NnError> {
    if cfg.batch_size == 0 || cfg.epochs == 0 {
        return Err(NnError::InvalidConfig("epochs and batch_size must be positive".into()));
    }
    let n = data.train_images.dims()[0];
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut order: Vec<usize> = (0..n).collect();
    for epoch in 0..cfg.epochs {
        order.shuffle(rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        let mut start = 0;
        while start < n {
            let end = (start + cfg.batch_size).min(n);
            // gather a shuffled segmentation batch index-by-index
            let plane = data.image_size * data.image_size;
            let mut xb_parts = Vec::with_capacity(end - start);
            let mut yb = Vec::with_capacity((end - start) * plane);
            for &i in &order[start..end] {
                let (x1, y1) = seg_batch_of(&data.train_images, &data.train_labels, i, i + 1);
                xb_parts.push(x1);
                yb.extend(y1);
            }
            let xb = concat_batch(&xb_parts);
            model.zero_grad();
            let logits = model.forward(&xb, true)?;
            let (loss, grad) = pixel_cross_entropy(&logits, &yb)?;
            model.backward(&grad)?;
            opt.step(model);
            total += loss as f64;
            batches += 1;
            start = end;
        }
        let mean = (total / batches.max(1) as f64) as f32;
        epoch_losses.push(mean);
        if cfg.verbose {
            eprintln!("epoch {epoch}: seg loss {mean:.4}");
        }
        let lr = opt.kind().lr() * cfg.lr_decay;
        opt.kind_mut().set_lr(lr);
    }
    Ok(TrainStats { final_train_loss: *epoch_losses.last().expect("epochs > 0"), epoch_losses })
}

/// Top-1 accuracy on the test split of a classification dataset.
///
/// # Errors
///
/// Propagates forward shape errors.
pub fn evaluate_classifier(
    model: &mut Sequential,
    data: &SyntheticClassification,
) -> Result<f32, NnError> {
    let n = data.n_test();
    let mut correct = 0usize;
    let step = 32usize;
    let mut start = 0;
    while start < n {
        let end = (start + step).min(n);
        let (xb, yb) = batch_of(&data.test_images, &data.test_labels, start, end);
        let logits = model.forward(&xb, false)?;
        let c = logits.dims()[1];
        for (s, &label) in yb.iter().enumerate() {
            let row = &logits.data()[s * c..(s + 1) * c];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty row");
            if pred == label {
                correct += 1;
            }
        }
        start = end;
    }
    Ok(correct as f32 / n as f32)
}

/// Mean intersection-over-union on the test split of a segmentation
/// dataset.
///
/// # Errors
///
/// Propagates forward shape errors.
pub fn evaluate_miou(model: &mut Sequential, data: &SyntheticSegmentation) -> Result<f32, NnError> {
    let n = data.test_images.dims()[0];
    let c = data.num_classes;
    let plane = data.image_size * data.image_size;
    let mut inter = vec![0u64; c];
    let mut uni = vec![0u64; c];
    let step = 8usize;
    let mut start = 0;
    while start < n {
        let end = (start + step).min(n);
        let (xb, yb) = seg_batch_of(&data.test_images, &data.test_labels, start, end);
        let logits = model.forward(&xb, false)?;
        let d = logits.dims();
        let (classes, oh, ow) = (d[1], d[2], d[3]);
        debug_assert_eq!(classes, c);
        debug_assert_eq!(oh * ow, plane);
        for s in 0..end - start {
            for p in 0..plane {
                let base = s * c * plane + p;
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for ch in 0..c {
                    let v = logits.data()[base + ch * plane];
                    if v > best_v {
                        best_v = v;
                        best = ch;
                    }
                }
                let truth = yb[s * plane + p];
                if best == truth {
                    inter[truth] += 1;
                    uni[truth] += 1;
                } else {
                    uni[truth] += 1;
                    uni[best] += 1;
                }
            }
        }
        start = end;
    }
    let mut sum = 0.0f64;
    let mut present = 0usize;
    for ch in 0..c {
        if uni[ch] > 0 {
            sum += inter[ch] as f64 / uni[ch] as f64;
            present += 1;
        }
    }
    Ok(if present == 0 { 0.0 } else { (sum / present as f64) as f32 })
}

/// Measures the fraction of zero activations flowing through the model on
/// `max_batches` training batches — the statistic the accelerator's
/// zero-value-gated PEs exploit (paper Fig. 9). Zeros are counted in the
/// output of every top-level layer (post-ReLU maps dominate), an
/// approximation that ignores activations internal to residual blocks.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn measure_activation_sparsity(
    model: &mut Sequential,
    data: &SyntheticClassification,
    max_batches: usize,
) -> Result<f32, NnError> {
    let bs = 32usize.min(data.n_train());
    let mut zeros = 0u64;
    let mut total = 0u64;
    for b in 0..max_batches {
        let from = (b * bs) % (data.n_train().saturating_sub(bs) + 1);
        let (xb, _) = batch_of(&data.train_images, &data.train_labels, from, from + bs);
        let mut x = xb;
        for layer in model.layers_mut() {
            x = layer.forward(&x, false)?;
            if matches!(layer, crate::layers::Module::Relu(_))
                || matches!(layer, crate::layers::Module::Residual(_))
            {
                zeros += x.data().iter().filter(|&&v| v == 0.0).count() as u64;
                total += x.numel() as u64;
            }
        }
    }
    Ok(if total == 0 { 0.0 } else { zeros as f32 / total as f32 })
}

fn concat_batch(parts: &[Tensor]) -> Tensor {
    let d = parts[0].dims();
    let mut data = Vec::with_capacity(parts.len() * parts[0].numel());
    for p in parts {
        data.extend_from_slice(p.data());
    }
    Tensor::from_vec(vec![parts.len(), d[1], d[2], d[3]], data).expect("uniform parts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tiny_cnn;
    use crate::optim::OptimizerKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = SyntheticClassification::generate(4, 160, 64, 8, &mut rng);
        let mut model = tiny_cnn(4, 8, &mut rng);
        let cfg = TrainConfig { epochs: 6, batch_size: 32, ..TrainConfig::default() };
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.05, 0.9, 1e-4));
        let stats = train_classifier(&mut model, &data, &cfg, &mut opt, &mut rng).unwrap();
        assert!(
            stats.epoch_losses.first().unwrap() > stats.epoch_losses.last().unwrap(),
            "loss should fall: {:?}",
            stats.epoch_losses
        );
        let acc = evaluate_classifier(&mut model, &data).unwrap();
        assert!(acc > 0.4, "accuracy {acc} should beat chance 0.25");
    }

    #[test]
    fn invalid_config_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = SyntheticClassification::generate(2, 8, 4, 8, &mut rng);
        let mut model = tiny_cnn(2, 8, &mut rng);
        let cfg = TrainConfig { epochs: 0, ..TrainConfig::default() };
        let mut opt = Optimizer::new(OptimizerKind::adam(0.01));
        assert!(train_classifier(&mut model, &data, &cfg, &mut opt, &mut rng).is_err());
    }

    #[test]
    fn activation_sparsity_is_meaningful() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = SyntheticClassification::generate(3, 48, 16, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        let frac = measure_activation_sparsity(&mut model, &data, 2).unwrap();
        // ReLU on roughly centered pre-activations zeroes a substantial
        // fraction, never everything
        assert!(frac > 0.1 && frac < 0.95, "activation zero fraction {frac}");
    }

    #[test]
    fn miou_of_perfect_and_constant_predictors() {
        // Hand-build logits via a model that ignores input is hard; instead
        // check the metric arithmetic through a 2-class dataset and the
        // trivially wrong constant predictor bound: mIoU in [0, 1].
        let mut rng = StdRng::seed_from_u64(5);
        let data = SyntheticSegmentation::generate(3, 4, 2, 8, &mut rng);
        let mut model = crate::models::tiny_segmenter(3, &mut rng);
        let miou = evaluate_miou(&mut model, &data).unwrap();
        assert!((0.0..=1.0).contains(&miou));
    }
}
