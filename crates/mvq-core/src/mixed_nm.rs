//! Mixed layerwise N:M selection — the DominoSearch-style extension the
//! paper cites as [34] (Sun et al., NeurIPS '21): instead of one N:M
//! pattern everywhere, pick a per-layer `N` from a candidate set to meet a
//! global sparsity budget while maximizing the retained weight energy.
//!
//! The selection is a greedy marginal-cost allocation: starting from the
//! densest candidate everywhere, repeatedly sparsify the layer whose next
//! step destroys the least magnitude-energy per pruned weight, until the
//! budget is met. This mirrors DominoSearch's layerwise scheme search at a
//! fraction of its cost and slots directly into the MVQ pipeline (the
//! chosen per-layer patterns feed [`crate::prune_model`]-style masks).
//!
//! Both steps read the grid from a [`PipelineSpec`]:
//! `search_mixed_nm(model, &spec, candidates, target)` searches over the
//! convs [`crate::prune_model`] would prune, with groups of `spec.m`, and
//! `plan.apply(model, &spec)` prunes them through the same conv walk.

use mvq_nn::layers::Sequential;

use crate::error::MvqError;
use crate::mask::NmMask;
use crate::pipeline::PipelineSpec;
use crate::pruning::{prunable_weights, prune_matrix_nm, prune_where};

/// The per-layer outcome of a mixed-N:M search.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPattern {
    /// Depth-first conv index.
    pub conv_index: usize,
    /// Chosen kept count (the layer keeps `keep_n` of every `m`).
    pub keep_n: usize,
    /// Group size.
    pub m: usize,
    /// Weights in this layer.
    pub weights: usize,
    /// Fraction of the layer's squared-magnitude energy retained.
    pub energy_retained: f64,
}

/// Result of the search.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedNmPlan {
    /// Chosen pattern per compressible layer.
    pub layers: Vec<LayerPattern>,
    /// Achieved overall sparsity over compressible weights.
    pub achieved_sparsity: f64,
}

impl MixedNmPlan {
    /// Applies the plan: prunes each planned conv with its chosen
    /// pattern on the `spec.grouping`/`spec.d` grid (the plan carries
    /// `keep_n` and `m`), returning the per-layer masks (indexed like
    /// [`crate::prune_model`]'s output). It visits the convs
    /// [`crate::prune_model`] visits, so a planned conv outside that set
    /// stays dense.
    ///
    /// # Errors
    ///
    /// Propagates grouping/pruning errors.
    pub fn apply(
        &self,
        model: &mut Sequential,
        spec: &PipelineSpec,
    ) -> Result<Vec<Option<NmMask>>, MvqError> {
        prune_where(model, spec, |idx| {
            self.layers.iter().find(|l| l.conv_index == idx).map(|l| (l.keep_n, l.m))
        })
    }
}

/// Searches per-layer kept counts (from `candidates`, e.g. `[8, 6, 4, 3]`
/// of `spec.m` = 16) meeting `target_sparsity` over the convs
/// [`crate::prune_model`] prunes on the `spec.grouping`/`spec.d` grid.
/// `spec.keep_n` is not read.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for an empty/invalid candidate set
/// or unreachable budget.
pub fn search_mixed_nm(
    model: &Sequential,
    spec: &PipelineSpec,
    candidates: &[usize],
    target_sparsity: f64,
) -> Result<MixedNmPlan, MvqError> {
    if candidates.is_empty() {
        return Err(MvqError::InvalidConfig("empty candidate set".into()));
    }
    let m = spec.m;
    let mut cands: Vec<usize> = candidates.to_vec();
    cands.sort_unstable();
    cands.dedup();
    cands.reverse(); // densest first
    if *cands.first().expect("non-empty") > m || *cands.last().expect("non-empty") == 0 {
        return Err(MvqError::InvalidConfig(format!(
            "candidates must lie in 1..={m}, got {cands:?}"
        )));
    }
    if !(0.0..1.0).contains(&target_sparsity) {
        return Err(MvqError::InvalidConfig(format!(
            "target sparsity must be in [0, 1), got {target_sparsity}"
        )));
    }
    // compressible layers (grouped) and their retained-energy profile per
    // candidate
    let weights = prunable_weights(model, spec)?;
    if weights.is_empty() {
        return Err(MvqError::InvalidConfig("no compressible conv layers".into()));
    }
    let mut retained: Vec<Vec<f64>> = Vec::with_capacity(weights.len());
    for (_, grouped) in &weights {
        let total: f64 = grouped.data().iter().map(|&x| (x as f64) * (x as f64)).sum();
        let mut per_candidate = Vec::with_capacity(cands.len());
        for &keep in &cands {
            let (pruned, _) = prune_matrix_nm(grouped, keep, m)?;
            let kept: f64 = pruned.data().iter().map(|&x| (x as f64) * (x as f64)).sum();
            per_candidate.push(if total > 0.0 { kept / total } else { 1.0 });
        }
        retained.push(per_candidate);
    }
    // greedy: everyone starts densest; repeatedly take the cheapest step
    let total_weights: usize = weights.iter().map(|(_, w)| w.numel()).sum();
    let target_pruned = (target_sparsity * total_weights as f64).ceil() as usize;
    let mut choice = vec![0usize; weights.len()];
    let pruned_at =
        |layer: usize, c: usize| -> usize { weights[layer].1.numel() * (m - cands[c]) / m };
    let mut pruned_now: usize = (0..weights.len()).map(|l| pruned_at(l, 0)).sum();
    while pruned_now < target_pruned {
        // pick the layer whose next step loses the least energy per
        // newly-pruned weight
        let mut best: Option<(usize, f64)> = None;
        for l in 0..weights.len() {
            let c = choice[l];
            if c + 1 >= cands.len() {
                continue;
            }
            let extra = pruned_at(l, c + 1) - pruned_at(l, c);
            if extra == 0 {
                continue;
            }
            let loss = (retained[l][c] - retained[l][c + 1]).max(0.0) / extra as f64;
            if best.is_none_or(|(_, b)| loss < b) {
                best = Some((l, loss));
            }
        }
        let Some((l, _)) = best else {
            return Err(MvqError::InvalidConfig(format!(
                "target sparsity {target_sparsity} unreachable with candidates {cands:?}"
            )));
        };
        pruned_now += pruned_at(l, choice[l] + 1) - pruned_at(l, choice[l]);
        choice[l] += 1;
    }
    let layers = weights
        .iter()
        .zip(&choice)
        .zip(&retained)
        .map(|(((conv_index, w), &c), r)| LayerPattern {
            conv_index: *conv_index,
            keep_n: cands[c],
            m,
            weights: w.numel(),
            energy_retained: r[c],
        })
        .collect::<Vec<_>>();
    let achieved: usize = (0..weights.len()).map(|l| pruned_at(l, choice[l])).sum();
    Ok(MixedNmPlan { layers, achieved_sparsity: achieved as f64 / total_weights as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_nn::models::tiny_cnn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> Sequential {
        tiny_cnn(4, 8, &mut StdRng::seed_from_u64(0))
    }

    #[test]
    fn meets_budget() {
        let m = model();
        let plan = search_mixed_nm(&m, &PipelineSpec::default(), &[8, 6, 4, 3], 0.7).unwrap();
        assert!(plan.achieved_sparsity >= 0.7, "{}", plan.achieved_sparsity);
        assert_eq!(plan.layers.len(), 2);
        for l in &plan.layers {
            assert!([8usize, 6, 4, 3].contains(&l.keep_n));
            assert!(l.energy_retained > 0.0 && l.energy_retained <= 1.0);
        }
    }

    #[test]
    fn protects_high_energy_layers() {
        // Give conv 0 huge weights: the search should sparsify conv 1
        // more aggressively (its energy is cheaper to discard).
        let mut m = model();
        let mut idx = 0;
        m.visit_convs_mut(&mut |c| {
            if idx == 0 {
                // concentrate energy: a few giant weights per group
                for (i, w) in c.weight.value.data_mut().iter_mut().enumerate() {
                    *w = if i % 16 < 4 { 50.0 } else { 0.001 };
                }
            }
            idx += 1;
        });
        let plan = search_mixed_nm(&m, &PipelineSpec::default(), &[8, 4], 0.6).unwrap();
        // conv 0 retains essentially all its energy even at 4:16, so the
        // greedy will push it to 4:16 first and it still keeps ~100%
        let l0 = plan.layers.iter().find(|l| l.conv_index == 0).unwrap();
        assert!(l0.energy_retained > 0.99, "{}", l0.energy_retained);
    }

    #[test]
    fn apply_prunes_to_chosen_patterns() {
        let mut m = model();
        let plan = search_mixed_nm(&m, &PipelineSpec::default(), &[8, 4], 0.6).unwrap();
        let masks = plan.apply(&mut m, &PipelineSpec::default()).unwrap();
        let mut idx = 0;
        m.visit_convs_mut(&mut |c| {
            let expected = plan.layers.iter().find(|l| l.conv_index == idx).unwrap();
            let mask = masks[idx].as_ref().unwrap();
            assert_eq!(mask.keep_n(), expected.keep_n);
            let sp = 1.0 - expected.keep_n as f32 / 16.0;
            assert!((c.weight.value.sparsity() - sp).abs() < 0.02);
            idx += 1;
        });
    }

    #[test]
    fn uniform_plan_prunes_like_prune_model() {
        let spec = PipelineSpec::default();
        let mut planned = model();
        let plan = search_mixed_nm(&planned, &spec, &[4], 0.74).unwrap();
        let plan_masks = plan.apply(&mut planned, &spec).unwrap();
        let mut uniform = model();
        let uniform_masks = crate::prune_model(&mut uniform, &spec).unwrap();
        assert_eq!(plan_masks, uniform_masks);
        assert!(plan_masks.iter().all(Option::is_some));
        let mut weights = Vec::new();
        planned.visit_convs(&mut |c| weights.push(c.weight.value.clone()));
        let mut idx = 0;
        uniform.visit_convs(&mut |c| {
            assert_eq!(c.weight.value.data(), weights[idx].data(), "conv {idx}");
            idx += 1;
        });
    }

    #[test]
    fn validates_inputs() {
        let m = model();
        let spec = &PipelineSpec::default();
        assert!(search_mixed_nm(&m, spec, &[], 0.5).is_err());
        assert!(search_mixed_nm(&m, spec, &[20], 0.5).is_err());
        assert!(search_mixed_nm(&m, spec, &[8], 1.5).is_err());
        // unreachable budget: only 8:16 (50%) available but asking 80%
        assert!(search_mixed_nm(&m, spec, &[8], 0.8).is_err());
    }

    #[test]
    fn uniform_candidates_degenerate_to_uniform_plan() {
        let m = model();
        let plan = search_mixed_nm(&m, &PipelineSpec::default(), &[4], 0.74).unwrap();
        assert!(plan.layers.iter().all(|l| l.keep_n == 4));
        assert!((plan.achieved_sparsity - 0.75).abs() < 1e-9);
    }
}
