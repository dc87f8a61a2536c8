//! Algorithm experiments: Tables 1, 3, 4, 5, 6 and Figures 10, 11, 13.
//!
//! Each experiment trains the relevant "-lite" model(s) on the synthetic
//! dataset, then runs the real compression code paths from `mvq-core`.
//! Absolute accuracies are synthetic-task accuracies, not ImageNet; what
//! reproduces is the *comparisons* — who wins, how orderings move with the
//! knobs.

use mvq_core::pipeline::{by_name, Compressor, PipelineSpec};
use mvq_core::{
    finetune_codebooks, prune_model, sparse_finetune, CodebookFinetuneConfig, GroupingStrategy,
    ModelArtifacts, MvqCompressor, PruneMethod, SparseFinetuneConfig,
};
use mvq_nn::data::{SyntheticClassification, SyntheticSegmentation};
use mvq_nn::flops::count_flops;
use mvq_nn::layers::Sequential;
use mvq_nn::models::{deeplab_lite, Arch, INPUT_CHANNELS, INPUT_SIZE};
use mvq_nn::optim::{Optimizer, OptimizerKind};
use mvq_nn::train::{
    evaluate_classifier, evaluate_miou, train_classifier, train_segmenter, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fmt::{f, giga, pct, ratio, render_table};
use crate::ExperimentConfig;

/// A trained dense model plus the data it was trained on.
pub struct Trained {
    /// The dense model.
    pub model: Sequential,
    /// Its training/evaluation data.
    pub data: SyntheticClassification,
    /// Dense top-1 accuracy.
    pub dense_acc: f32,
}

/// Trains one architecture to convergence on the synthetic task.
pub fn train_arch(arch: Arch, cfg: &ExperimentConfig) -> Trained {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ arch.name().len() as u64);
    let data = SyntheticClassification::generate(
        cfg.classes,
        cfg.n_train,
        cfg.n_test,
        cfg.image_size,
        &mut rng,
    );
    let mut model = arch.build(cfg.classes, &mut rng);
    let tc =
        TrainConfig { epochs: cfg.train_epochs, batch_size: 32, lr_decay: 0.85, verbose: false };
    let mut opt = Optimizer::new(OptimizerKind::sgd(0.04, 0.9, 1e-4));
    train_classifier(&mut model, &data, &tc, &mut opt, &mut rng).expect("training succeeds");
    let dense_acc = evaluate_classifier(&mut model, &data).expect("evaluation succeeds");
    Trained { model, data, dense_acc }
}

/// Compresses a clone of `model` with the named registry algorithm and
/// returns the reconstructed model plus its artifacts. This is the one
/// compression dispatch the tables share — no per-algorithm arms.
pub fn compress_clone(
    model: &Sequential,
    algorithm: &str,
    spec: &PipelineSpec,
    seed: u64,
) -> (Sequential, ModelArtifacts) {
    let comp = by_name(algorithm, spec).expect("registered algorithm");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut compressed = model.clone();
    let artifacts = comp.compress_model(&mut compressed, &mut rng).expect("compressible model");
    (compressed, artifacts)
}

/// Refreshes batch-norm running statistics after weight surgery (a few
/// training-mode forward passes, no parameter updates). Applied equally to
/// every compression method before evaluation.
pub fn bn_recalibrate(model: &mut Sequential, data: &SyntheticClassification, batches: usize) {
    let bs = 32usize.min(data.n_train());
    for b in 0..batches {
        let from = (b * bs) % (data.n_train() - bs + 1);
        let (xb, _) =
            mvq_nn::data::batch_of(&data.train_images, &data.train_labels, from, from + bs);
        model.forward(&xb, true).expect("forward");
    }
}

/// One MVQ pipeline run on a clone of a trained model.
pub struct MvqRun {
    /// Accuracy without codebook fine-tuning (BN recalibrated).
    pub acc_noft: f32,
    /// Accuracy with masked-gradient codebook fine-tuning.
    pub acc_ft: f32,
    /// Compression ratio (Eq. 7, whole model).
    pub cr: f64,
    /// Masked clustering SSE before fine-tuning.
    pub sse: f32,
    /// Weight sparsity.
    pub sparsity: f32,
    /// Effective FLOPs after sparsity.
    pub flops: u64,
    /// Dense FLOPs.
    pub flops_dense: u64,
}

/// Prunes `model` to `spec`'s N:M pattern, then runs `epochs` of SR-STE
/// sparse fine-tuning on `data` (the pipeline's step 1).
fn prune_and_finetune(
    model: &mut Sequential,
    data: &SyntheticClassification,
    spec: &PipelineSpec,
    epochs: usize,
    rng: &mut StdRng,
) {
    let masks = prune_model(model, spec).expect("groupable model");
    if epochs > 0 {
        let sf = SparseFinetuneConfig {
            method: PruneMethod::SrSte { lambda: 2e-4 },
            epochs,
            batch_size: 32,
        };
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.01, 0.9, 0.0));
        sparse_finetune(model, masks, data, spec, &sf, &mut opt, rng)
            .expect("sparse finetune succeeds");
    }
}

/// Runs prune → sparse-finetune → masked k-means → int8 → (optional)
/// codebook fine-tune on a clone of `trained`, every step on `spec`, with
/// one codebook per layer or, when `crosslayer`, one codebook shared by all
/// layers.
pub fn run_mvq(
    trained: &Trained,
    spec: &PipelineSpec,
    crosslayer: bool,
    cfg: &ExperimentConfig,
    sparse_ft_epochs: usize,
) -> MvqRun {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEEF);
    let mut model = trained.model.clone();
    // step 1: prune and sparse-finetune
    prune_and_finetune(&mut model, &trained.data, spec, sparse_ft_epochs, &mut rng);
    let reference = model.clone();
    // steps 2-3: masked k-means + int8 codebook
    let compressor = MvqCompressor::new(spec.clone()).expect("validated dims");
    let mut compressed = if crosslayer {
        compressor.compress_model_crosslayer(&mut model, &mut rng)
    } else {
        compressor.compress_model(&mut model, &mut rng)
    }
    .expect("compressible model");
    let sse = compressed.total_masked_sse(&reference).expect("same layout");
    let cr = compressed.compression_ratio();
    bn_recalibrate(&mut model, &trained.data, 8);
    let acc_noft = evaluate_classifier(&mut model, &trained.data).expect("eval");
    // step 4: masked-gradient codebook fine-tuning
    let ft = CodebookFinetuneConfig {
        epochs: cfg.finetune_epochs,
        batch_size: 32,
        optimizer: OptimizerKind::adam(2e-3),
    };
    finetune_codebooks(&mut model, &mut compressed, &trained.data, &ft, &mut rng)
        .expect("codebook finetune succeeds");
    bn_recalibrate(&mut model, &trained.data, 8);
    let acc_ft = evaluate_classifier(&mut model, &trained.data).expect("eval");
    let sparsity = 1.0 - spec.keep_n as f32 / spec.m as f32;
    let mut probe = trained.model.clone();
    let report = count_flops(&mut probe, INPUT_CHANNELS, INPUT_SIZE).expect("probe runs");
    let flops_dense = report.dense_total();
    let flops = report.with_conv_sparsity(sparsity).effective_total();
    MvqRun { acc_noft, acc_ft, cr, sse, sparsity, flops, flops_dense }
}

/// Table 1: the importance case study (Case 1 vs Case 2).
pub fn table1(cfg: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    for arch in [Arch::ResNet18, Arch::ResNet50] {
        let trained = train_arch(arch, cfg);
        let mut model = trained.model.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 1);
        let spec = PipelineSpec::default().with_d(8).with_nm(2, 8);
        let study = mvq_core::experiments::importance_case_study(
            &mut model,
            &trained.data,
            &spec,
            &mut rng,
        )
        .expect("case study runs");
        rows.push(vec![
            format!("{arch} (dense {:.1}%)", study.dense_accuracy * 100.0),
            "Case 1 (quantize important)".into(),
            f(study.case1.sse as f64, 1),
            f(study.case1.accuracy as f64 * 100.0, 1),
        ]);
        rows.push(vec![
            String::new(),
            "Case 2 (quantize unimportant)".into(),
            f(study.case2.sse as f64, 1),
            f(study.case2.accuracy as f64 * 100.0, 1),
        ]);
    }
    let mut out = String::from(
        "Table 1 — partly vector-quantized accuracy, no fine-tuning\n\
         (paper: Case 2 keeps far higher accuracy despite comparable/higher SSE):\n",
    );
    out += &render_table(&["Model", "Case", "SSE", "Acc %"], &rows);
    out
}

/// Table 3: the A/B/C/D ablation at matched compression ratio.
pub fn table3(cfg: &ExperimentConfig) -> String {
    let trained = train_arch(Arch::ResNet18, cfg);
    let grouping = GroupingStrategy::OutputChannelWise;
    let (keep_n, m) = (4usize, 16usize);
    let (k_ab, d_ab) = (128usize, 8usize); // cases A/B (paper: 1024, 8)
    let (k_cd, d_cd) = (64usize, 16usize); // cases C/D (paper: 512, 16)
    let mut rows = Vec::new();

    // collect per-conv weights of the reference model
    let mut dense_w = Vec::new();
    trained.model.visit_convs(&mut |c| dense_w.push(c.weight.value.clone()));
    let probe_flops = {
        let mut probe = trained.model.clone();
        count_flops(&mut probe, INPUT_CHANNELS, INPUT_SIZE).expect("probe")
    };
    let dense_flops = probe_flops.dense_total();
    let sparse_flops = probe_flops.with_conv_sparsity(0.75).effective_total();

    // helper: total + masked SSE of a per-conv reconstruction set
    let sse_of = |recons: &[Option<mvq_tensor::Tensor>]| -> (f64, f64) {
        let mut total = 0.0f64;
        let mut masked = 0.0f64;
        for (w, r) in dense_w.iter().zip(recons) {
            if let Some(r) = r {
                total += w.sse(r).expect("same dims") as f64;
                let grouped = grouping.group(w, d_cd).expect("groupable");
                let (pruned, mask) =
                    mvq_core::prune_matrix_nm(&grouped, keep_n, m).expect("prunable");
                let rg = grouping.group(r, d_cd).expect("groupable");
                let rm = mask.apply(&rg).expect("same dims");
                masked += pruned.sse(&rm).expect("same dims") as f64;
            }
        }
        (total, masked)
    };
    // Cases A/B/C all dispatch through the registry: A and B cluster at
    // d=8 (B with its 4:16 pruning living on the d=16 grid — the paper's
    // two-grid setup), C clusters and stores the mask at d=16.
    let ab_spec = PipelineSpec::default().with_k(k_ab).with_d(d_ab).with_nm(keep_n, m);
    let cd_spec = PipelineSpec::default().with_k(k_cd).with_d(d_cd).with_nm(keep_n, m);
    let arms: [(&str, &str, PipelineSpec); 3] = [
        ("A: DW+CK+DR", "vq-a", ab_spec.clone()),
        ("B: SW+CK+DR", "vq-b", ab_spec.with_prune_d(d_cd)),
        ("C: SW+CK+SR", "vq-c", cd_spec.clone()),
    ];
    for (label, algorithm, spec) in arms {
        let (mut model, artifacts) = compress_clone(&trained.model, algorithm, &spec, cfg.seed ^ 3);
        let recons = artifacts.reconstructions(trained.model.num_convs()).expect("reconstructible");
        let (total, masked) = sse_of(&recons);
        // FLOPs follow from the representation: a stored mask means the
        // hardware skips pruned lanes
        let masked_repr = artifacts.layers.iter().all(|l| l.artifact.mask().is_some());
        let flops = if masked_repr { sparse_flops } else { dense_flops };
        bn_recalibrate(&mut model, &trained.data, 8);
        let acc = evaluate_classifier(&mut model, &trained.data).expect("eval");
        rows.push(vec![
            label.into(),
            format!("{:.0}/{:.0}", total, masked),
            giga(flops as f64),
            f(acc as f64 * 100.0, 1),
        ]);
    }

    // Case D (ours): masked k-means, sparse reconstruct, with the
    // pipeline's sparse fine-tuning step (the paper fine-tunes the sparse
    // model before clustering)
    let run = run_mvq(&trained, &cd_spec, false, cfg, 1);
    rows.push(vec![
        "D: SW+MK+SR (ours)".into(),
        format!("{:.0}/{:.0}", run.sse, run.sse),
        format!(
            "{} (-{:.0}%)",
            giga(run.flops as f64),
            100.0 * (1.0 - run.flops as f64 / dense_flops as f64)
        ),
        format!("{:.1} (ft {:.1})", run.acc_noft as f64 * 100.0, run.acc_ft as f64 * 100.0),
    ]);

    let mut out = format!(
        "Table 3 — ablation on ResNet-18-lite at matched CR (dense acc {:.1}%)\n\
         (paper ordering: D best accuracy and lowest masked SSE; C worst):\n",
        trained.dense_acc * 100.0
    );
    out += &render_table(&["Case", "Total/Mask SSE", "FLOPs", "Acc %"], &rows);
    out
}

/// Table 4: MVQ vs baselines across the model zoo.
pub fn table4(cfg: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    let specs: [(Arch, usize, usize, usize, usize); 6] = [
        // arch, k, d, keep_n, m — parameter-efficient nets get 1:2
        (Arch::ResNet50, 64, 16, 4, 16),
        (Arch::MobileNetV1, 64, 16, 8, 16),
        (Arch::MobileNetV2, 64, 16, 8, 16),
        (Arch::EfficientNet, 64, 16, 8, 16),
        (Arch::AlexNet, 64, 16, 4, 16),
        (Arch::Vgg16, 48, 16, 4, 16),
    ];
    for (arch, k, d, keep_n, m) in specs {
        let trained = train_arch(arch, cfg);
        let spec = PipelineSpec::default().with_k(k).with_d(d).with_nm(keep_n, m);
        let run = run_mvq(&trained, &spec, false, cfg, 1);
        rows.push(vec![
            format!("{arch} (dense {:.1}%)", trained.dense_acc * 100.0),
            "MVQ (ours)".into(),
            ratio(run.cr),
            f(run.acc_ft as f64 * 100.0, 1),
            pct(run.sparsity as f64),
            giga(run.flops as f64),
        ]);
        if arch.is_parameter_efficient() {
            // PvQ 2-bit baseline, through the same registry dispatch
            let spec = PipelineSpec::default().with_scalar_bits(2);
            let (mut model, artifacts) = compress_clone(&trained.model, "pvq", &spec, cfg.seed ^ 4);
            bn_recalibrate(&mut model, &trained.data, 8);
            let acc = evaluate_classifier(&mut model, &trained.data).expect("eval");
            rows.push(vec![
                String::new(),
                "PvQ 2-bit".into(),
                ratio(artifacts.compression_ratio()),
                f(acc as f64 * 100.0, 1),
                "0%".into(),
                giga(run.flops_dense as f64),
            ]);
        }
    }
    let mut out = String::from(
        "Table 4 — MVQ across the model zoo vs uniform 2-bit quantization\n\
         (paper: MVQ beats PvQ decisively on parameter-efficient nets and cuts FLOPs):\n",
    );
    out += &render_table(&["Model", "Method", "CR", "Acc %", "Sparsity", "FLOPs"], &rows);
    out
}

/// Table 5: clustering SSE, MVQ vs PQF, before fine-tuning.
pub fn table5(cfg: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    for arch in [Arch::ResNet18, Arch::ResNet50] {
        let trained = train_arch(arch, cfg);
        let run = run_mvq(&trained, &PipelineSpec::default(), false, cfg, 0);
        // PQF at comparable CR: d=8, k doubled (maskless). Only the SSE is
        // needed, so compress without writing reconstructions back.
        let spec = PipelineSpec::default().with_k(128).with_d(8).with_swap_trials(5_000);
        let comp = by_name("pqf", &spec).expect("registered algorithm");
        let artifacts = comp
            .compress_model_artifacts(&trained.model, &mut StdRng::seed_from_u64(cfg.seed ^ 5))
            .expect("compressible model");
        let pqf_sse = artifacts.total_sse().expect("pqf records clustering SSE");
        rows.push(vec![
            arch.name().into(),
            f(pqf_sse, 1),
            f(run.sse as f64, 1),
            f(pqf_sse / run.sse as f64, 1),
        ]);
    }
    let mut out = String::from(
        "Table 5 — clustering SSE before fine-tuning at matched CR\n\
         (paper: MVQ SSE is 2.4-3.4x lower than PQF's):\n",
    );
    out += &render_table(&["Model", "PQF SSE", "MVQ SSE (ours)", "PQF/MVQ"], &rows);
    out
}

/// Table 6: dense prediction (DeepLab-lite on synthetic segmentation).
pub fn table6(cfg: &ExperimentConfig) -> String {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 6);
    let classes = 4usize;
    let data =
        SyntheticSegmentation::generate(classes, cfg.n_train / 4, cfg.n_test / 4, 16, &mut rng);
    let mut model = deeplab_lite(classes, &mut rng);
    let tc = TrainConfig { epochs: cfg.train_epochs, batch_size: 8, lr_decay: 0.9, verbose: false };
    let mut opt = Optimizer::new(OptimizerKind::adam(2e-3));
    train_segmenter(&mut model, &data, &tc, &mut opt, &mut rng).expect("training succeeds");
    let base_miou = evaluate_miou(&mut model, &data).expect("eval");
    let probe_flops = {
        let mut probe = model.clone();
        count_flops(&mut probe, 3, 16).expect("probe")
    };

    // MVQ at 1:2 pruning (CR ~ paper's 19x table row)
    let mut mvq_model = model.clone();
    let cr = MvqCompressor::new(PipelineSpec::default().with_nm(8, 16))
        .expect("valid")
        .compress_model(&mut mvq_model, &mut rng)
        .expect("compressible")
        .compression_ratio();
    let mvq_miou = evaluate_miou(&mut mvq_model, &data).expect("eval");

    // PvQ 2-bit
    let (mut pvq_model, pvq_artifacts) =
        compress_clone(&model, "pvq", &PipelineSpec::default().with_scalar_bits(2), cfg.seed ^ 6);
    let pvq_miou = evaluate_miou(&mut pvq_model, &data).expect("eval");

    let dense_flops = probe_flops.dense_total();
    let sparse_flops = probe_flops.with_conv_sparsity(0.5).effective_total();
    let rows = vec![
        vec![
            "Baseline".into(),
            "-".into(),
            "0%".into(),
            giga(dense_flops as f64),
            f(base_miou as f64 * 100.0, 1),
        ],
        vec![
            "PvQ 2-bit".into(),
            ratio(pvq_artifacts.compression_ratio()),
            "0%".into(),
            giga(dense_flops as f64),
            f(pvq_miou as f64 * 100.0, 1),
        ],
        vec![
            "MVQ (ours)".into(),
            ratio(cr),
            "50%".into(),
            giga(sparse_flops as f64),
            f(mvq_miou as f64 * 100.0, 1),
        ],
    ];
    let mut out = String::from(
        "Table 6 — dense prediction: DeepLab-lite on synthetic segmentation\n\
         (stands in for DeepLab-v3/VOC and MaskRCNN/COCO; paper: MVQ keeps mIoU\n\
         near baseline at high CR while 2-bit uniform quantization collapses):\n",
    );
    out += &render_table(&["Method", "CR", "Sparsity", "FLOPs", "mIoU %"], &rows);
    out
}

/// Fig. 10: pruning-rate sweep on ResNet-18-lite.
pub fn fig10(cfg: &ExperimentConfig) -> String {
    let trained = train_arch(Arch::ResNet18, cfg);
    let mut rows = Vec::new();
    for keep in [6usize, 5, 4, 3] {
        // pruning accuracy: prune + sparse finetune, no clustering
        let spec = PipelineSpec::default().with_nm(keep, 16);
        let mut model = trained.model.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 10);
        prune_and_finetune(&mut model, &trained.data, &spec, 1, &mut rng);
        bn_recalibrate(&mut model, &trained.data, 8);
        let prune_acc = evaluate_classifier(&mut model, &trained.data).expect("eval");
        // clustering accuracy: full pipeline
        let run = run_mvq(&trained, &spec, false, cfg, 1);
        rows.push(vec![
            format!("{keep}:16"),
            pct(1.0 - keep as f64 / 16.0),
            f(prune_acc as f64 * 100.0, 1),
            f(run.acc_ft as f64 * 100.0, 1),
        ]);
    }
    let mut out = format!(
        "Fig. 10 — pruning strategy on ResNet-18-lite (dense {:.1}%)\n\
         (paper: pruning acc falls past 75% sparsity; 4:16 best clustering acc):\n",
        trained.dense_acc * 100.0
    );
    out += &render_table(&["N:M", "Sparsity", "Pruning acc %", "Clustering acc %"], &rows);
    out
}

/// Fig. 11: 1:2 vs 2:4, layerwise vs crosslayer on MobileNet-v2-lite.
pub fn fig11(cfg: &ExperimentConfig) -> String {
    let trained = train_arch(Arch::MobileNetV2, cfg);
    let mut rows = Vec::new();
    // (label, keep_n, m, crosslayer); d=16 throughout; 1:2 and 2:4 both
    // give 50% sparsity but different mask storage (0.5 vs 0.75 bit/w)
    let arms: [(&str, usize, usize, bool); 3] = [
        ("layerwise-1:2", 1, 2, false),
        ("crosslayer-1:2", 1, 2, true),
        ("layerwise-2:4", 2, 4, false),
    ];
    for (label, keep_n, m, crosslayer) in arms {
        let spec = PipelineSpec::default().with_k(48).with_nm(keep_n, m);
        let run = run_mvq(&trained, &spec, crosslayer, cfg, 1);
        rows.push(vec![label.into(), ratio(run.cr), f(run.acc_ft as f64 * 100.0, 1)]);
    }
    let mut out = format!(
        "Fig. 11 — pruning/clustering strategy on MobileNet-v2-lite (dense {:.1}%)\n\
         (paper: layerwise-1:2 gives the best storage/accuracy balance):\n",
        trained.dense_acc * 100.0
    );
    out += &render_table(&["Strategy", "CR", "Acc %"], &rows);
    out
}

/// Fig. 13: compression-ratio / accuracy frontier vs PQF and BGD.
///
/// The `bgd` registry entry is a weight-space stand-in (importance =
/// squared subvector norm, no activations), so its column is labelled
/// `BGD (proxy)` rather than read as Stock et al.'s activation-aware BGD.
pub fn fig13(cfg: &ExperimentConfig) -> String {
    let mut out = String::from(
        "Fig. 13 — CR-accuracy frontier (acc in %, all methods BN-recalibrated;\n\
         MVQ additionally reports codebook-fine-tuned accuracy; BGD (proxy) weights\n\
         k-means by subvector norm, not by activations):\n",
    );
    for arch in [Arch::ResNet18, Arch::ResNet50] {
        let trained = train_arch(arch, cfg);
        let mut rows = Vec::new();
        for k in [16usize, 32, 64, 128] {
            // the full pipeline includes sparse fine-tuning (step 1)
            let spec = PipelineSpec::default().with_k(k);
            let lw = run_mvq(&trained, &spec, false, cfg, 1);
            let cl = run_mvq(&trained, &spec, true, cfg, 1);
            // PQF and BGD at matched assignment rate: d=8, 2k codewords —
            // one loop over registry names, no per-algorithm arms
            let baseline_spec =
                PipelineSpec::default().with_k(2 * k).with_d(8).with_swap_trials(3_000);
            let baseline_accs: Vec<f32> = ["pqf", "bgd"]
                .iter()
                .map(|name| {
                    let (mut model, _) =
                        compress_clone(&trained.model, name, &baseline_spec, cfg.seed ^ 13);
                    bn_recalibrate(&mut model, &trained.data, 8);
                    evaluate_classifier(&mut model, &trained.data).expect("eval")
                })
                .collect();
            rows.push(vec![
                format!("{k}"),
                ratio(lw.cr),
                format!("{:.1} (ft {:.1})", lw.acc_noft as f64 * 100.0, lw.acc_ft as f64 * 100.0),
                f(cl.acc_noft as f64 * 100.0, 1),
                f(baseline_accs[0] as f64 * 100.0, 1),
                f(baseline_accs[1] as f64 * 100.0, 1),
            ]);
        }
        out += &format!("\n{} (dense {:.1}%):\n", arch.name(), trained.dense_acc * 100.0);
        out += &render_table(
            &["k", "CR", "layerwise-MVQ", "crosslayer-MVQ", "PQF", "BGD (proxy)"],
            &rows,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-test the cheapest experiment end to end on quick settings.
    /// (The full experiments are exercised by the `paper` binary; they are
    /// too slow for debug-mode unit tests.)
    #[test]
    #[ignore = "several minutes in debug mode; run via `paper` in release"]
    fn table1_smoke() {
        let t = table1(&ExperimentConfig::quick());
        assert!(t.contains("Case 1"));
    }

    #[test]
    fn train_arch_produces_learner() {
        let cfg = ExperimentConfig {
            train_epochs: 1,
            n_train: 64,
            n_test: 32,
            ..ExperimentConfig::quick()
        };
        let trained = train_arch(Arch::ResNet18, &cfg);
        assert!(trained.dense_acc >= 0.0 && trained.dense_acc <= 1.0);
        assert!(trained.model.num_convs() > 10);
    }

    #[test]
    fn bn_recalibration_runs() {
        let cfg = ExperimentConfig {
            train_epochs: 1,
            n_train: 64,
            n_test: 32,
            ..ExperimentConfig::quick()
        };
        let mut trained = train_arch(Arch::ResNet18, &cfg);
        bn_recalibrate(&mut trained.model, &trained.data, 2);
    }
}
