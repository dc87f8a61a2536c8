//! Extension experiments beyond the paper's evaluation:
//!
//! * `ext1` — **mixed layerwise N:M** (DominoSearch-style, the paper's
//!   reference \[34\]) vs uniform N:M at matched overall sparsity;
//! * `ext2` — **clustering-algorithm shootout** on pruned weights: plain
//!   k-means, DKM (soft/attention k-means), and masked k-means, all
//!   measured on the masked SSE that governs accuracy (paper Tab. 3/5).

use mvq_core::baselines::{dkm_cluster, DkmConfig};
use mvq_core::{
    kmeans, masked_kmeans, masked_sse, prune_matrix_nm, search_mixed_nm, GroupingStrategy,
    KmeansConfig,
};
use mvq_nn::models::Arch;
use mvq_nn::train::evaluate_classifier;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fmt::{f, render_table};
use crate::tables::{bn_recalibrate, train_arch};
use crate::ExperimentConfig;

/// Extension 1: mixed layerwise N:M vs uniform pruning at matched
/// sparsity (pruning only — isolates the pattern-selection idea from
/// clustering effects).
pub fn ext1(cfg: &ExperimentConfig) -> String {
    let trained = train_arch(Arch::ResNet18, cfg);
    let grouping = GroupingStrategy::OutputChannelWise;
    let mut rows = Vec::new();
    for target in [0.5f64, 0.7, 0.8] {
        // uniform arm: prune everything at the nearest single pattern
        let keep_uniform = (((1.0 - target) * 16.0).round() as usize).max(1);
        let uniform_acc = {
            let mut model = trained.model.clone();
            mvq_core::prune_model(&mut model, grouping, 16, keep_uniform, 16).expect("groupable");
            bn_recalibrate(&mut model, &trained.data, 8);
            evaluate_classifier(&mut model, &trained.data).expect("eval")
        };
        // mixed arm: per-layer patterns chosen by retained-energy search
        let (mixed_acc, plan) = {
            let mut model = trained.model.clone();
            let plan = search_mixed_nm(&model, grouping, 16, 16, &[12, 8, 6, 4, 3, 2], target)
                .expect("searchable");
            plan.apply(&mut model, grouping, 16).expect("appliable");
            bn_recalibrate(&mut model, &trained.data, 8);
            (evaluate_classifier(&mut model, &trained.data).expect("eval"), plan)
        };
        let mut spread: Vec<usize> = plan.layers.iter().map(|l| l.keep_n).collect();
        spread.sort_unstable();
        spread.dedup();
        let spread_s: Vec<String> = spread.iter().map(|k| format!("{k}:16")).collect();
        rows.push(vec![
            format!("{:.0}%", target * 100.0),
            format!("{keep_uniform}:16 everywhere"),
            f(uniform_acc as f64 * 100.0, 1),
            format!("mixed {{{}}} @ {:.0}%", spread_s.join(", "), plan.achieved_sparsity * 100.0),
            f(mixed_acc as f64 * 100.0, 1),
        ]);
    }
    let mut out = format!(
        "Extension 1 — mixed layerwise N:M (DominoSearch-style, paper ref [34]) vs\n\
         uniform pruning on ResNet-18-lite (dense {:.1}%), accuracy directly after\n\
         pruning (no fine-tuning, BN recalibrated):\n",
        trained.dense_acc * 100.0
    );
    out += &render_table(&["Sparsity", "Uniform", "Acc %", "Mixed plan", "Acc %"], &rows);
    out
}

/// Extension 2: clustering-algorithm shootout on pruned weights.
pub fn ext2(cfg: &ExperimentConfig) -> String {
    let trained = train_arch(Arch::ResNet18, cfg);
    let grouping = GroupingStrategy::OutputChannelWise;
    let (d, keep_n, m, k) = (16usize, 4usize, 16usize, 64usize);
    let mut weights = Vec::new();
    trained.model.visit_convs(&mut |c| weights.push(c.weight.value.clone()));
    let mut sse_plain = 0.0f64;
    let mut sse_dkm = 0.0f64;
    let mut sse_masked = 0.0f64;
    let mut layers = 0usize;
    for w in &weights {
        let Ok(grouped) = grouping.group(w, d) else { continue };
        let (pruned, mask) = prune_matrix_nm(&grouped, keep_n, m).expect("valid dims");
        layers += 1;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 31);
        let plain = kmeans(&pruned, &KmeansConfig::new(k), None, &mut rng).expect("clusterable");
        sse_plain += masked_sse(&pruned, &mask, &plain.codebook, &plain.assignments)
            .expect("consistent") as f64;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 31);
        let dkm = dkm_cluster(&pruned, &DkmConfig::new(k), &mut rng).expect("clusterable");
        sse_dkm +=
            masked_sse(&pruned, &mask, &dkm.codebook, &dkm.assignments).expect("consistent") as f64;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 31);
        let masked =
            masked_kmeans(&pruned, &mask, &KmeansConfig::new(k), &mut rng).expect("clusterable");
        sse_masked += masked.sse as f64;
    }
    let rows = vec![
        vec!["plain k-means (case C)".into(), f(sse_plain, 1), f(1.0, 2)],
        vec!["DKM (soft k-means)".into(), f(sse_dkm, 1), f(sse_plain / sse_dkm.max(1e-9), 2)],
        vec![
            "masked k-means (ours)".into(),
            f(sse_masked, 1),
            f(sse_plain / sse_masked.max(1e-9), 2),
        ],
    ];
    let mut out = format!(
        "Extension 2 — clustering algorithms on 4:16-pruned ResNet-18-lite weights\n\
         ({layers} layers, k = {k}, d = {d}); masked SSE governs accuracy (Tab. 3):\n"
    );
    out += &render_table(&["Algorithm", "Masked SSE", "Improvement vs plain"], &rows);
    out += "\n(The paper's insight in one number: masking the clustering beats even a\n\
            stronger unmasked clusterer, because the structural zeros — not optimizer\n\
            quality — are what drags codewords away from important weights.)\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "trains a model; run in release via the paper binary"]
    fn ext2_smoke() {
        let out = ext2(&ExperimentConfig::quick());
        assert!(out.contains("masked k-means"));
    }
}
