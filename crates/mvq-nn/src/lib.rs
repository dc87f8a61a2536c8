//! CNN substrate for the MVQ reproduction.
//!
//! The paper evaluates its compression algorithm on trained convolutional
//! networks (ResNet-18/50, VGG-16, AlexNet, MobileNet-v1/v2, EfficientNet,
//! DeepLab-v3). Since no Rust DNN training ecosystem exists at that scale,
//! this crate provides a from-scratch, CPU-only training stack:
//!
//! * [`layers`] — conv / linear / batch-norm / activation / pooling layers
//!   with exact backward passes, composed via the [`Module`] enum and
//!   [`Sequential`] containers (enum-based so compression code can find and
//!   rewrite convolution weights without downcasting);
//! * [`optim`] — SGD (momentum), Adam and AdamW;
//! * [`loss`] — softmax cross-entropy for classification and per-pixel
//!   cross-entropy for segmentation;
//! * [`models`] — scaled-down ("-lite") versions of every model family in
//!   the paper's evaluation;
//! * [`data`] — procedurally generated classification and segmentation
//!   datasets that stand in for ImageNet / COCO / VOC;
//! * [`train`] — training and evaluation loops (top-1 accuracy, mIoU);
//! * [`flops`] — dense and sparsity-aware FLOPs accounting.
//!
//! # Example: train a tiny CNN on synthetic data
//!
//! ```
//! use mvq_nn::data::SyntheticClassification;
//! use mvq_nn::models::tiny_cnn;
//! use mvq_nn::optim::{Optimizer, OptimizerKind};
//! use mvq_nn::train::{train_classifier, TrainConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = SyntheticClassification::generate(4, 64, 32, 8, &mut rng);
//! let mut model = tiny_cnn(4, 8, &mut rng);
//! let cfg = TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() };
//! let stats = train_classifier(
//!     &mut model,
//!     &data,
//!     &cfg,
//!     &mut Optimizer::new(OptimizerKind::sgd(0.05, 0.9, 0.0)),
//!     &mut rng,
//! )?;
//! assert!(stats.final_train_loss.is_finite());
//! # Ok::<(), mvq_nn::NnError>(())
//! ```

// Indexed loops are the clearer idiom for the numeric kernels here.
#![allow(clippy::needless_range_loop)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod data;

mod error;
pub mod flops;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
mod param;
pub mod train;

pub use error::NnError;
pub use layers::{Module, Sequential};
pub use param::Param;
