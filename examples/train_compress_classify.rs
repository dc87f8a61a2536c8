//! End-to-end pipeline on a real (small) classifier: train dense →
//! N:M prune + sparse fine-tune → masked k-means → int8 codebook →
//! masked-gradient codebook fine-tune → evaluate at every stage.
//!
//! ```text
//! cargo run --release --example train_compress_classify
//! ```

use mvq::core::{
    finetune_codebooks, prune_model, sparse_finetune, CodebookFinetuneConfig, Compressor,
    MvqCompressor, PipelineSpec, PruneMethod, SparseFinetuneConfig,
};
use mvq::nn::data::SyntheticClassification;
use mvq::nn::models::resnet18_lite;
use mvq::nn::optim::{Optimizer, OptimizerKind};
use mvq::nn::train::{evaluate_classifier, train_classifier, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);
    let data = SyntheticClassification::generate(6, 768, 256, 16, &mut rng);

    // 1. train the dense model
    let mut model = resnet18_lite(6, &mut rng);
    let tc = TrainConfig { epochs: 5, batch_size: 32, lr_decay: 0.85, verbose: true };
    let mut opt = Optimizer::new(OptimizerKind::sgd(0.04, 0.9, 1e-4));
    train_classifier(&mut model, &data, &tc, &mut opt, &mut rng)?;
    let dense_acc = evaluate_classifier(&mut model, &data)?;
    println!("dense accuracy:           {:.1}%", dense_acc * 100.0);

    // 2. 4:16 pruning + SR-STE sparse fine-tuning; one spec (k=64, d=16,
    // 4:16, output-channel grouping) drives pruning, fine-tuning and
    // clustering
    let spec = PipelineSpec::default();
    let masks = prune_model(&mut model, &spec)?;
    let pruned_acc = evaluate_classifier(&mut model, &data)?;
    println!("after 4:16 pruning:       {:.1}%", pruned_acc * 100.0);
    let sf = SparseFinetuneConfig {
        method: PruneMethod::SrSte { lambda: 2e-4 },
        epochs: 2,
        batch_size: 32,
    };
    let mut opt = Optimizer::new(OptimizerKind::sgd(0.01, 0.9, 0.0));
    sparse_finetune(&mut model, masks, &data, &spec, &sf, &mut opt, &mut rng)?;
    let sparse_acc = evaluate_classifier(&mut model, &data)?;
    println!("after sparse fine-tune:   {:.1}%", sparse_acc * 100.0);

    // 3. masked k-means + int8 codebook
    let mut compressed = MvqCompressor::new(spec)?.compress_model(&mut model, &mut rng)?;
    let clustered_acc = evaluate_classifier(&mut model, &data)?;
    println!(
        "after masked k-means:     {:.1}%  (CR {:.1}x)",
        clustered_acc * 100.0,
        compressed.compression_ratio()
    );

    // 4. masked-gradient codebook fine-tuning (Eq. 6)
    let ft =
        CodebookFinetuneConfig { epochs: 3, batch_size: 32, optimizer: OptimizerKind::adam(2e-3) };
    finetune_codebooks(&mut model, &mut compressed, &data, &ft, &mut rng)?;
    let final_acc = evaluate_classifier(&mut model, &data)?;
    println!("after codebook fine-tune: {:.1}%", final_acc * 100.0);
    println!(
        "\nsummary: dense {:.1}% -> compressed {:.1}% at {:.1}x compression, 75% sparsity",
        dense_acc * 100.0,
        final_acc * 100.0,
        compressed.compression_ratio()
    );
    Ok(())
}
