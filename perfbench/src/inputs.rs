//! Seeded input generation. Everything the program under test receives
//! is made here from the workload seed: conv weights, per-job RNG seeds
//! and the orders in which clients walk them.

use mvq_core::pipeline::{PipelineSpec, ALGORITHM_NAMES};
use mvq_nn::models::Arch;
use mvq_tensor::{kaiming_normal, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed domains, so draws for different purposes never coincide.
pub mod domain {
    /// Conv weights of the warm set.
    pub const WEIGHT: u64 = 1;
    /// RNG seed of each warm (primed) job.
    pub const WARM_SEED: u64 = 2;
    /// RNG seed of each never-seen job.
    pub const MISS_SEED: u64 = 3;
    /// A client's walk order.
    pub const ORDER: u64 = 4;
    /// Streamed model weights.
    pub const STREAM: u64 = 5;
    /// Weights of never-seen jobs.
    pub const MISS_WEIGHT: u64 = 6;
}

/// SplitMix64 over `(seed, domain, index)`: a well-mixed, reproducible
/// 64-bit value for every draw the benchmark makes.
pub fn mix(seed: u64, domain: u64, index: u64) -> u64 {
    let mut z = seed
        ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, domain::ORDER, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The conv weight shapes of ResNet-18-lite, in visit order.
pub fn resnet18_conv_dims() -> Vec<Vec<usize>> {
    let model = Arch::ResNet18.build(8, &mut StdRng::seed_from_u64(0));
    let mut dims = Vec::new();
    model.visit_convs(&mut |conv| dims.push(conv.weight.value.dims().to_vec()));
    dims
}

/// A Kaiming-initialized conv weight of shape `dims`, drawn from `seed`.
pub fn conv_weight(dims: &[usize], seed: u64) -> Tensor {
    let fan_in: usize = dims[1..].iter().product();
    kaiming_normal(dims.to_vec(), fan_in, &mut StdRng::seed_from_u64(seed))
}

/// The spec every wire job uses: the paper's ResNet grouping and pruning
/// (d=16, 4:16, int8 codebooks, default kernel strategy) with 16 codewords
/// and 100 PQF swap trials, so a cycle over every conv × algorithm pair
/// takes about a second and a run holds many of them.
pub fn wire_spec() -> PipelineSpec {
    PipelineSpec { k: 16, swap_trials: 100, ..PipelineSpec::default() }
}

/// One (layer, algorithm) pair of the warm set.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Index into [`WarmSet::weights`].
    pub layer: usize,
    /// Registry algorithm name.
    pub algo: &'static str,
}

/// The warm working set: every compressible ResNet-18-lite conv × every
/// registry algorithm, each pair with its own pinned RNG seed.
#[derive(Debug)]
pub struct WarmSet {
    /// One weight per compressible conv.
    pub weights: Vec<Tensor>,
    /// Every (layer, algorithm) pair.
    pub pairs: Vec<Pair>,
    /// The pinned RNG seed of each pair's warm job.
    pub seeds: Vec<u64>,
    /// The spec every job uses.
    pub spec: PipelineSpec,
}

impl WarmSet {
    /// Builds the warm set for workload seed `seed` from the first
    /// `max_layers` compressible convs.
    pub fn generate(seed: u64, max_layers: usize) -> WarmSet {
        let spec = wire_spec();
        let weights: Vec<Tensor> = resnet18_conv_dims()
            .iter()
            .enumerate()
            .map(|(i, dims)| conv_weight(dims, mix(seed, domain::WEIGHT, i as u64)))
            .filter(|w| spec.grouping.group(w, spec.d).is_ok())
            .take(max_layers)
            .collect();
        let pairs: Vec<Pair> = (0..weights.len())
            .flat_map(|layer| ALGORITHM_NAMES.into_iter().map(move |algo| Pair { layer, algo }))
            .collect();
        let seeds = (0..pairs.len()).map(|i| mix(seed, domain::WARM_SEED, i as u64)).collect();
        WarmSet { weights, pairs, seeds, spec }
    }

    /// The weight and RNG seed of never-seen job `n` on `pair`: a fresh
    /// draw of the pair's conv shape and a seed disjoint from every warm
    /// seed, so its key is new.
    pub fn miss_job(&self, seed: u64, pair: usize, n: u64) -> (Tensor, u64) {
        let dims = self.weights[self.pairs[pair].layer].dims();
        (conv_weight(dims, mix(seed, domain::MISS_WEIGHT, n)), mix(seed, domain::MISS_SEED, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_set_covers_every_compressible_conv_and_algorithm() {
        let warm = WarmSet::generate(7, usize::MAX);
        assert_eq!(warm.weights.len(), 15);
        assert_eq!(warm.pairs.len(), 15 * ALGORITHM_NAMES.len());
        let bytes: Vec<usize> = warm.weights.iter().map(|w| w.numel() * 4).collect();
        assert_eq!(bytes.iter().min(), Some(&1728));
        assert_eq!(bytes.iter().max(), Some(&147_456));
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let (a, b, c) =
            (WarmSet::generate(3, 15), WarmSet::generate(3, 15), WarmSet::generate(4, 15));
        assert_eq!(a.weights[5].data(), b.weights[5].data());
        assert_ne!(a.weights[5].data(), c.weights[5].data());
        assert_eq!(a.seeds, b.seeds);
        let p = permutation(120, 9);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..120).collect::<Vec<_>>());
        assert_eq!(p, permutation(120, 9));
        assert_ne!(p, permutation(120, 10));
    }
}
