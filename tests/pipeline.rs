//! Integration tests: the full compression pipeline across crates
//! (mvq-nn training → mvq-core compression → accuracy bookkeeping).

use mvq::core::{
    finetune_codebooks, prune_model, CodebookFinetuneConfig, Compressor, GroupingStrategy,
    MvqCompressor, PipelineSpec,
};
use mvq::nn::data::SyntheticClassification;
use mvq::nn::models::tiny_cnn;
use mvq::nn::optim::{Optimizer, OptimizerKind};
use mvq::nn::train::{evaluate_classifier, train_classifier, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained_tiny(seed: u64) -> (mvq::nn::Sequential, SyntheticClassification, f32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = SyntheticClassification::generate(4, 192, 96, 8, &mut rng);
    let mut model = tiny_cnn(4, 8, &mut rng);
    let tc = TrainConfig { epochs: 6, batch_size: 32, ..TrainConfig::default() };
    let mut opt = Optimizer::new(OptimizerKind::sgd(0.05, 0.9, 1e-4));
    train_classifier(&mut model, &data, &tc, &mut opt, &mut rng).unwrap();
    let acc = evaluate_classifier(&mut model, &data).unwrap();
    (model, data, acc)
}

#[test]
fn full_pipeline_recovers_accuracy() {
    let (model, data, dense_acc) = trained_tiny(0);
    assert!(dense_acc > 0.5, "dense model should learn: {dense_acc}");
    let mut rng = StdRng::seed_from_u64(1);
    let mut compressed_model = model.clone();
    // moderate compression: 2:4 within d=16 (50% sparsity), 16 codewords
    let spec = PipelineSpec::default().with_k(16).with_nm(8, 16);
    let mut compressed =
        MvqCompressor::new(spec).unwrap().compress_model(&mut compressed_model, &mut rng).unwrap();
    let after_cluster = evaluate_classifier(&mut compressed_model, &data).unwrap();
    let ft =
        CodebookFinetuneConfig { epochs: 3, batch_size: 32, optimizer: OptimizerKind::adam(2e-3) };
    finetune_codebooks(&mut compressed_model, &mut compressed, &data, &ft, &mut rng).unwrap();
    let final_acc = evaluate_classifier(&mut compressed_model, &data).unwrap();
    // fine-tuning should not make things worse, and the compressed model
    // must stay a real classifier
    assert!(final_acc >= after_cluster - 0.05, "{final_acc} vs {after_cluster}");
    assert!(final_acc > 0.3, "compressed accuracy collapsed: {final_acc}");
    assert!(compressed.compression_ratio() > 5.0);
}

#[test]
fn pruned_positions_stay_zero_through_finetuning() {
    let (model, data, _) = trained_tiny(2);
    let mut rng = StdRng::seed_from_u64(3);
    let mut m = model.clone();
    let spec = PipelineSpec::default().with_k(8);
    let mut compressed =
        MvqCompressor::new(spec).unwrap().compress_model(&mut m, &mut rng).unwrap();
    let ft = CodebookFinetuneConfig { epochs: 2, batch_size: 32, ..Default::default() };
    finetune_codebooks(&mut m, &mut compressed, &data, &ft, &mut rng).unwrap();
    // every compressed conv must hold exactly 75% zeros at the masked
    // positions after fine-tuning
    let mut weights = Vec::new();
    m.visit_convs(&mut |c| weights.push(c.weight.value.clone()));
    for layer in &compressed.layers {
        let mask = layer.artifact.mask().expect("mvq stores the mask");
        let grouped =
            GroupingStrategy::OutputChannelWise.group(&weights[layer.conv_index], 16).unwrap();
        for j in 0..mask.ng() {
            for t in 0..16 {
                if !mask.row(j)[t] {
                    assert_eq!(
                        grouped.at(&[j, t]).unwrap(),
                        0.0,
                        "conv {} subvector {j} lane {t} not zero",
                        layer.conv_index
                    );
                }
            }
        }
    }
}

#[test]
fn layerwise_beats_crosslayer_sse_at_equal_k() {
    // The paper finds layerwise clustering superior (Fig. 13): per-layer
    // codebooks specialize, so total masked SSE is lower.
    let (model, _, _) = trained_tiny(4);
    let run = |crosslayer: bool| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = model.clone();
        let reference = model.clone();
        let comp = MvqCompressor::new(PipelineSpec::default().with_k(16)).unwrap();
        let c = if crosslayer {
            comp.compress_model_crosslayer(&mut m, &mut rng)
        } else {
            comp.compress_model(&mut m, &mut rng)
        };
        c.unwrap().total_masked_sse(&reference).unwrap()
    };
    let lw = run(false);
    let cl = run(true);
    assert!(lw < cl, "layerwise {lw} should beat crosslayer {cl}");
}

#[test]
fn prune_then_compress_is_consistent_with_compress() {
    // prune_model + MVQ model compression find the same masks
    // (magnitude pruning is deterministic).
    let (model, _, _) = trained_tiny(6);
    let spec = PipelineSpec::default().with_k(8);
    let mut pruned = model.clone();
    let masks = prune_model(&mut pruned, &spec).unwrap();
    let mut compressed_model = model.clone();
    let mut rng = StdRng::seed_from_u64(7);
    let compressed =
        MvqCompressor::new(spec).unwrap().compress_model(&mut compressed_model, &mut rng).unwrap();
    for (layer, mask) in compressed.layers.iter().zip(masks.iter()) {
        let mask = mask.as_ref().expect("tiny_cnn convs all compressible");
        assert_eq!(layer.artifact.mask().expect("mvq stores the mask").bits(), mask.bits());
    }
}

#[test]
fn compression_ratio_grows_with_sparsity_knob() {
    // 1:16 keeps fewer mask bits viable codewords: CR(1:16) > CR(8:16)
    // at equal k and d (smaller C(M,N) => fewer mask bits).
    let (model, _, _) = trained_tiny(8);
    let ratio = |keep: usize| {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = model.clone();
        let spec = PipelineSpec::default().with_k(8).with_nm(keep, 16);
        MvqCompressor::new(spec)
            .unwrap()
            .compress_model(&mut m, &mut rng)
            .unwrap()
            .compression_ratio()
    };
    let r1 = ratio(1);
    let r8 = ratio(8);
    assert!(r1 > r8, "CR(1:16) {r1} should exceed CR(8:16) {r8}");
}
