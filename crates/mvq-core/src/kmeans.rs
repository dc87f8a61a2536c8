//! Standard k-means clustering (paper §3) with k-means++ initialization,
//! optional per-subvector importance weights (used by the BGD baseline),
//! and assignment dispatched through the [`crate::kernels`] strategies
//! (naive oracle / center-major blocked) selected by
//! [`KmeansConfig::kernel`].

use mvq_tensor::Tensor;
use rand::Rng;

use crate::codebook::{Assignments, Codebook};
use crate::error::MvqError;
use crate::kernels::{dense_assign_step, KernelStrategy};

/// k-means hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansConfig {
    /// Number of codewords requested. Clamped to the number of subvectors
    /// when the data is smaller (small layers under layerwise clustering).
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Stop when fewer than `tol_frac × NG` assignments change — the paper
    /// uses 0.1 %.
    pub tol_frac: f64,
    /// Which distance/assignment kernel the clustering loop dispatches to.
    pub kernel: KernelStrategy,
}

impl KmeansConfig {
    /// Config with the paper's defaults (`max_iters` 50, tol 0.1 %) and
    /// the blocked kernel.
    pub fn new(k: usize) -> KmeansConfig {
        KmeansConfig { k, max_iters: 50, tol_frac: 0.001, kernel: KernelStrategy::default() }
    }

    /// Overrides the kernel strategy.
    pub fn with_kernel(mut self, kernel: KernelStrategy) -> KmeansConfig {
        self.kernel = kernel;
        self
    }
}

/// Result of a clustering run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// The learned codebook (`k_eff × d`).
    pub codebook: Codebook,
    /// Per-subvector assignments.
    pub assignments: Assignments,
    /// Final sum of squared errors.
    pub sse: f32,
    /// Iterations executed.
    pub iterations: usize,
}

/// Runs (optionally weighted) k-means over the rows of `data` (`[NG, d]`).
///
/// When `row_weights` is given, the centroid update is the weighted mean —
/// the mechanism the BGD baseline uses to emphasise activation-important
/// subvectors.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for empty data, `k == 0`, or
/// mismatched `row_weights`.
pub fn kmeans<R: Rng>(
    data: &Tensor,
    cfg: &KmeansConfig,
    row_weights: Option<&[f32]>,
    rng: &mut R,
) -> Result<KmeansResult, MvqError> {
    let (ng, _d) = check_data(data, cfg.k)?;
    if let Some(w) = row_weights {
        if w.len() != ng {
            return Err(MvqError::InvalidConfig(format!(
                "{} row weights for {ng} subvectors",
                w.len()
            )));
        }
    }
    let k = cfg.k.min(ng);
    let mut centers = kmeanspp_init(data, k, rng);
    let mut assign = vec![0u32; ng];
    let mut iterations = 0;
    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        let changed = dense_assign_step(cfg.kernel, data, &centers, &mut assign);
        update_step(data, &mut centers, &assign, row_weights, rng);
        if (changed as f64) < cfg.tol_frac * ng as f64 {
            break;
        }
    }
    // final assignment against the final centers
    dense_assign_step(cfg.kernel, data, &centers, &mut assign);
    let sse = sse_of(data, &centers, &assign);
    let codebook = Codebook::new(centers)?;
    let assignments = Assignments::new(assign, k)?;
    Ok(KmeansResult { codebook, assignments, sse, iterations })
}

pub(crate) fn check_data(data: &Tensor, k: usize) -> Result<(usize, usize), MvqError> {
    if data.rank() != 2 || data.numel() == 0 {
        return Err(MvqError::InvalidConfig(format!(
            "clustering expects a non-empty [NG, d] matrix, got {:?}",
            data.dims()
        )));
    }
    if k == 0 {
        return Err(MvqError::InvalidConfig("k must be positive".into()));
    }
    Ok((data.dims()[0], data.dims()[1]))
}

/// k-means++ seeding: first center uniform, subsequent centers sampled
/// proportionally to squared distance from the nearest chosen center.
pub(crate) fn kmeanspp_init<R: Rng>(data: &Tensor, k: usize, rng: &mut R) -> Tensor {
    let (ng, d) = (data.dims()[0], data.dims()[1]);
    let mut centers = Tensor::zeros(vec![k, d]);
    let first = rng.gen_range(0..ng);
    centers.row_mut(0).copy_from_slice(data.row(first));
    let mut best_d2 = vec![f32::INFINITY; ng];
    for c in 1..k {
        let prev = centers.row(c - 1).to_vec();
        for j in 0..ng {
            let d2 = sq_dist(data.row(j), &prev);
            if d2 < best_d2[j] {
                best_d2[j] = d2;
            }
        }
        let total: f64 = best_d2.iter().map(|&x| x as f64).sum();
        let pick = if total <= 0.0 {
            rng.gen_range(0..ng)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = ng - 1;
            for (j, &x) in best_d2.iter().enumerate() {
                target -= x as f64;
                if target <= 0.0 {
                    chosen = j;
                    break;
                }
            }
            chosen
        };
        centers.row_mut(c).copy_from_slice(data.row(pick));
    }
    centers
}

/// One (weighted) centroid-update pass, with empty-cluster reseeding.
fn update_step<R: Rng>(
    data: &Tensor,
    centers: &mut Tensor,
    assign: &[u32],
    row_weights: Option<&[f32]>,
    rng: &mut R,
) {
    let (ng, d) = (data.dims()[0], data.dims()[1]);
    let k = centers.dims()[0];
    let mut sums = vec![0.0f64; k * d];
    let mut counts = vec![0.0f64; k];
    for j in 0..ng {
        let w = row_weights.map_or(1.0, |ws| ws[j] as f64);
        let i = assign[j] as usize;
        counts[i] += w;
        let row = data.row(j);
        for t in 0..d {
            sums[i * d + t] += w * row[t] as f64;
        }
    }
    for i in 0..k {
        if counts[i] > 0.0 {
            let dst = centers.row_mut(i);
            for t in 0..d {
                dst[t] = (sums[i * d + t] / counts[i]) as f32;
            }
        } else {
            // empty cluster: reseed at a random subvector
            let j = rng.gen_range(0..ng);
            centers.row_mut(i).copy_from_slice(data.row(j));
        }
    }
}

pub(crate) fn sse_of(data: &Tensor, centers: &Tensor, assign: &[u32]) -> f32 {
    let ng = data.dims()[0];
    let mut sse = 0.0f64;
    for j in 0..ng {
        sse += sq_dist(data.row(j), centers.row(assign[j] as usize)) as f64;
    }
    sse as f32
}

fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blob_data() -> Tensor {
        // 20 points near (0,0), 20 near (10,10)
        let mut data = Vec::new();
        for i in 0..20 {
            let e = (i as f32) * 0.01;
            data.extend_from_slice(&[e, -e]);
        }
        for i in 0..20 {
            let e = (i as f32) * 0.01;
            data.extend_from_slice(&[10.0 + e, 10.0 - e]);
        }
        Tensor::from_vec(vec![40, 2], data).unwrap()
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let res = kmeans(&two_blob_data(), &KmeansConfig::new(2), None, &mut rng).unwrap();
        assert_eq!(res.codebook.k(), 2);
        assert!(res.sse < 0.5, "sse {}", res.sse);
        // all points in a blob share an assignment
        let a = res.assignments.indices();
        assert!(a[..20].iter().all(|&x| x == a[0]));
        assert!(a[20..].iter().all(|&x| x == a[20]));
        assert_ne!(a[0], a[20]);
    }

    #[test]
    fn naive_and_blocked_runs_are_identical() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = mvq_tensor::uniform(vec![200, 8], -1.0, 1.0, &mut rng);
        let run = |kernel| {
            kmeans(
                &data,
                &KmeansConfig::new(17).with_kernel(kernel),
                None,
                &mut StdRng::seed_from_u64(9),
            )
            .unwrap()
        };
        let naive = run(KernelStrategy::Naive);
        let blocked = run(KernelStrategy::Blocked);
        assert_eq!(naive.assignments.indices(), blocked.assignments.indices());
        assert_eq!(naive.codebook.centers().data(), blocked.codebook.centers().data());
        assert_eq!(naive.sse.to_bits(), blocked.sse.to_bits());
    }

    #[test]
    fn k_equals_ng_gives_zero_sse() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Tensor::from_vec(vec![4, 2], vec![0., 0., 1., 1., 2., 2., 3., 3.]).unwrap();
        let res = kmeans(&data, &KmeansConfig::new(4), None, &mut rng).unwrap();
        assert!(res.sse < 1e-9);
    }

    #[test]
    fn k_clamped_to_ng() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Tensor::from_vec(vec![3, 2], vec![0., 0., 1., 1., 2., 2.]).unwrap();
        let res = kmeans(&data, &KmeansConfig::new(10), None, &mut rng).unwrap();
        assert_eq!(res.codebook.k(), 3);
    }

    #[test]
    fn more_codewords_no_worse_sse() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = mvq_tensor::uniform(vec![200, 8], -1.0, 1.0, &mut rng);
        let sse4 = kmeans(&data, &KmeansConfig::new(4), None, &mut rng).unwrap().sse;
        let sse32 = kmeans(&data, &KmeansConfig::new(32), None, &mut rng).unwrap().sse;
        assert!(sse32 < sse4, "{sse32} !< {sse4}");
    }

    #[test]
    fn weighted_update_biases_centroid() {
        // two points; weight one of them 100x: centroid lands near it
        let data = Tensor::from_vec(vec![2, 1], vec![0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = KmeansConfig { k: 1, max_iters: 5, tol_frac: 0.0, ..KmeansConfig::new(1) };
        let res = kmeans(&data, &cfg, Some(&[1.0, 100.0]), &mut rng).unwrap();
        let c = res.codebook.codeword(0)[0];
        assert!(c > 0.9, "weighted centroid {c}");
    }

    #[test]
    fn validates_inputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = Tensor::zeros(vec![4, 2]);
        assert!(kmeans(&data, &KmeansConfig::new(0), None, &mut rng).is_err());
        assert!(kmeans(&Tensor::zeros(vec![4]), &KmeansConfig::new(2), None, &mut rng).is_err());
        assert!(kmeans(&data, &KmeansConfig::new(2), Some(&[1.0]), &mut rng).is_err());
    }

    #[test]
    fn sse_decreases_monotonically_enough() {
        // run 1 iter vs many iters; SSE should not increase
        let mut rng = StdRng::seed_from_u64(6);
        let data = mvq_tensor::uniform(vec![100, 4], -1.0, 1.0, &mut rng);
        let one = kmeans(
            &data,
            &KmeansConfig { max_iters: 1, tol_frac: 0.0, ..KmeansConfig::new(8) },
            None,
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        let many = kmeans(
            &data,
            &KmeansConfig { max_iters: 30, tol_frac: 0.0, ..KmeansConfig::new(8) },
            None,
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        assert!(many.sse <= one.sse + 1e-4, "{} > {}", many.sse, one.sse);
        assert!(many.iterations >= one.iterations);
    }
}
