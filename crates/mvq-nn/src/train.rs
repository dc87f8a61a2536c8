//! Training and evaluation loops.

use mvq_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::data::{batch_of, gather_batch, SyntheticClassification, SyntheticSegmentation};
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

/// Runs `epochs` shuffled passes over `n` samples: once per epoch the
/// sample order is shuffled in place, cut into `batch_size` slices, and
/// `step` runs on each slice with `opt`, returning the batch loss. After
/// each epoch `end_epoch` gets `opt`, the epoch index and the epoch's mean
/// loss (for lr decay and progress lines). Returns the mean loss per epoch.
///
/// This is the one training walk: dense and segmentation training here,
/// codebook and sparse fine-tuning in `mvq-core`, all step through it.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for zero epochs or batch size before
/// touching `rng` or `opt`; stops at the first error `step` returns.
pub fn run_epochs<R: Rng, E: From<NnError>>(
    n: usize,
    epochs: usize,
    batch_size: usize,
    opt: &mut Optimizer,
    rng: &mut R,
    mut step: impl FnMut(&mut Optimizer, &[usize]) -> Result<f32, E>,
    mut end_epoch: impl FnMut(&mut Optimizer, usize, f32),
) -> Result<Vec<f32>, E> {
    if epochs == 0 || batch_size == 0 {
        return Err(NnError::InvalidConfig("epochs and batch_size must be positive".into()).into());
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        order.shuffle(rng);
        let mut total = 0.0f64;
        for batch in order.chunks(batch_size) {
            total += step(opt, batch)? as f64;
        }
        let mean = (total / n.div_ceil(batch_size).max(1) as f64) as f32;
        epoch_losses.push(mean);
        end_epoch(opt, epoch, mean);
    }
    Ok(epoch_losses)
}

/// Trains a classifier on a [`SyntheticClassification`] dataset.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for zero epochs or batch size;
/// propagates forward/backward shape errors.
pub fn train_classifier<R: Rng>(
    model: &mut Sequential,
    data: &SyntheticClassification,
    cfg: &TrainConfig,
    opt: &mut Optimizer,
    rng: &mut R,
) -> Result<TrainStats, NnError> {
    train(model, &data.train_images, &data.train_labels, cross_entropy, cfg, opt, rng)
}

/// Trains a segmentation model on a [`SyntheticSegmentation`] dataset.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for zero epochs or batch size;
/// propagates forward/backward shape errors.
pub fn train_segmenter<R: Rng>(
    model: &mut Sequential,
    data: &SyntheticSegmentation,
    cfg: &TrainConfig,
    opt: &mut Optimizer,
    rng: &mut R,
) -> Result<TrainStats, NnError> {
    train(model, &data.train_images, &data.train_labels, pixel_cross_entropy, cfg, opt, rng)
}

/// A batch loss over logits and labels: the mean loss and its gradient.
type Loss = fn(&Tensor, &[usize]) -> Result<(f32, Tensor), NnError>;

/// The body both trainers share: [`run_epochs`] over `images`, where
/// `labels` holds one entry per sample or one per pixel.
fn train<R: Rng>(
    model: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    loss: Loss,
    cfg: &TrainConfig,
    opt: &mut Optimizer,
    rng: &mut R,
) -> Result<TrainStats, NnError> {
    let step = |opt: &mut Optimizer, batch: &[usize]| -> Result<f32, NnError> {
        let (xb, yb) = gather_batch(images, labels, batch);
        model.zero_grad();
        let logits = model.forward(&xb, true)?;
        let (loss, grad) = loss(&logits, &yb)?;
        model.backward(&grad)?;
        opt.step(model);
        Ok(loss)
    };
    let end_epoch = |opt: &mut Optimizer, epoch, mean| {
        if cfg.verbose {
            eprintln!("epoch {epoch}: loss {mean:.4}");
        }
        let lr = opt.kind().lr() * cfg.lr_decay;
        opt.kind_mut().set_lr(lr);
    };
    let n = images.dims()[0];
    let epoch_losses = run_epochs(n, cfg.epochs, cfg.batch_size, opt, rng, step, end_epoch)?;
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
    for start in (0..n).step_by(32) {
        let end = (start + 32).min(n);
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
    for start in (0..n).step_by(8) {
        let end = (start + 8).min(n);
        let (xb, yb) = batch_of(&data.test_images, &data.test_labels, start, end);
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

    /// FNV-1a over the bits of every conv weight, every epoch loss and the
    /// optimizer's final learning rate.
    fn digest(model: &Sequential, stats: &TrainStats, opt: &Optimizer) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bits: u32| {
            for b in bits.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        model.visit_convs(&mut |conv| {
            conv.weight.value.data().iter().for_each(|w| eat(w.to_bits()))
        });
        stats.epoch_losses.iter().for_each(|l| eat(l.to_bits()));
        eat(opt.kind().lr().to_bits());
        h
    }

    /// Pins the weights, losses and decayed lr of a short classifier run
    /// (a partial last batch included), so a refactor of the training walk
    /// cannot move a bit.
    #[test]
    fn train_classifier_output_is_pinned() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = SyntheticClassification::generate(3, 60, 8, 8, &mut rng);
        let mut model = tiny_cnn(3, 8, &mut rng);
        let cfg = TrainConfig { epochs: 2, batch_size: 16, lr_decay: 0.5, verbose: false };
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.05, 0.9, 1e-4));
        let stats = train_classifier(&mut model, &data, &cfg, &mut opt, &mut rng).unwrap();
        assert_eq!(digest(&model, &stats, &opt), 0x35ea_0f32_9e0f_7695);
    }

    /// Pins a short segmenter run the same way.
    #[test]
    fn train_segmenter_output_is_pinned() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = SyntheticSegmentation::generate(3, 12, 2, 8, &mut rng);
        let mut model = crate::models::tiny_segmenter(3, &mut rng);
        let cfg = TrainConfig { epochs: 2, batch_size: 5, lr_decay: 0.5, verbose: false };
        let mut opt = Optimizer::new(OptimizerKind::adam(0.01));
        let stats = train_segmenter(&mut model, &data, &cfg, &mut opt, &mut rng).unwrap();
        assert_eq!(digest(&model, &stats, &opt), 0x5189_2491_bc71_74bc);
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
