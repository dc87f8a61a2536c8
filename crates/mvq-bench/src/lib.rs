//! Benchmark harness regenerating every table and figure of the MVQ paper.
//!
//! The `paper` binary dispatches to one function per experiment; each
//! returns a rendered text table so the experiments are also callable (and
//! testable) as a library. Hardware experiments are exact re-runs of the
//! `mvq-accel` simulator; algorithm experiments train the scaled-down
//! model zoo of `mvq-nn` on synthetic data and run the real compression
//! pipeline. The synthetic data stands in for ImageNet, so absolute
//! accuracies are not the paper's; what reproduces is the comparisons
//! between methods on the same data.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cli;
pub mod ext;
pub mod fmt;
pub mod hw;
pub mod net_cli;
pub mod report;
pub mod tables;

/// Everything the algorithm experiments share: the synthetic dataset and
/// deterministic seeds.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
    /// Classes in the synthetic task.
    pub classes: usize,
    /// Image side length.
    pub image_size: usize,
    /// Dense-training epochs.
    pub train_epochs: usize,
    /// Codebook fine-tuning epochs.
    pub finetune_epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Full-quality settings (used by `paper` without `--quick`).
    pub fn full() -> ExperimentConfig {
        ExperimentConfig {
            n_train: 1536,
            n_test: 512,
            classes: 8,
            image_size: 16,
            train_epochs: 8,
            finetune_epochs: 3,
            seed: 20250330,
        }
    }

    /// Reduced settings for smoke runs (`--quick`).
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            n_train: 256,
            n_test: 128,
            classes: 4,
            image_size: 16,
            train_epochs: 3,
            finetune_epochs: 1,
            seed: 20250330,
        }
    }
}
