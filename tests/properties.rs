//! Property-based tests (proptest) over the core data structures and
//! invariants of the MVQ pipeline — including the differential oracle
//! harness (`mvq::core::differential`) for the distance kernels. One
//! contract against [`masked_assign_naive`]: the `blocked` kernel gives
//! exact assignments (ties broken to the lowest codeword index) **and**
//! 0-ULP SSE, for random shapes, masks and seeds.

use mvq::core::differential::{compare_dense, compare_masked, DiffConfig, DiffReport};
use mvq::core::{
    dense_assign_naive, dense_assign_with, masked_assign_naive, masked_assign_with, masked_kmeans,
    masked_sse, masked_sse_with, prune_matrix_nm, GroupingStrategy, KernelStrategy, KmeansConfig,
    MaskLut, MvqCompressor, PipelineSpec,
};
use mvq::tensor::{dequantize_symmetric, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(vec![rows, cols], data).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grouping and ungrouping are inverse bijections for every strategy.
    #[test]
    fn grouping_round_trips(
        data in proptest::collection::vec(-5.0f32..5.0, 8 * 4 * 9),
        strat in prop_oneof![
            Just(GroupingStrategy::KernelWise),
            Just(GroupingStrategy::OutputChannelWise),
            Just(GroupingStrategy::InputChannelWise),
        ],
    ) {
        let w = Tensor::from_vec(vec![8, 4, 3, 3], data).expect("sized");
        let d = match strat {
            GroupingStrategy::KernelWise => 9,
            _ => 4,
        };
        let grouped = strat.group(&w, d).expect("groupable");
        let back = strat.ungroup(&grouped, w.dims(), d).expect("ungroupable");
        prop_assert_eq!(back.data(), w.data());
    }

    /// N:M pruning keeps exactly N of every M, keeps the largest
    /// magnitudes, and never changes surviving values.
    #[test]
    fn pruning_invariants(w in finite_matrix(16, 16)) {
        let (pruned, mask) = prune_matrix_nm(&w, 4, 16).expect("valid dims");
        for j in 0..16 {
            let kept: Vec<usize> =
                (0..16).filter(|&t| mask.row(j)[t]).collect();
            prop_assert_eq!(kept.len(), 4);
            let min_kept = kept
                .iter()
                .map(|&t| w.at(&[j, t]).unwrap().abs())
                .fold(f32::INFINITY, f32::min);
            for t in 0..16 {
                if mask.row(j)[t] {
                    prop_assert_eq!(pruned.at(&[j, t]).unwrap(), w.at(&[j, t]).unwrap());
                } else {
                    prop_assert_eq!(pruned.at(&[j, t]).unwrap(), 0.0);
                    prop_assert!(w.at(&[j, t]).unwrap().abs() <= min_kept + 1e-6);
                }
            }
        }
    }

    /// Mask-LUT encode/decode round-trips over random masks.
    #[test]
    fn mask_lut_round_trip(seed in 0u64..1000) {
        let lut = MaskLut::new(2, 4).expect("valid");
        let idx = (seed % lut.len() as u64) as u32;
        let mask = lut.decode(idx).expect("in range").to_vec();
        prop_assert_eq!(lut.encode(&mask).expect("valid mask"), idx);
    }

    /// Symmetric quantization error is bounded by half a step everywhere
    /// inside the representable range.
    #[test]
    fn quantization_error_bound(
        data in proptest::collection::vec(-1.0f32..1.0, 32),
        scale in 0.01f32..0.5,
    ) {
        let t = Tensor::from_vec(vec![32], data).expect("sized");
        let q = dequantize_symmetric(&t, scale, 8).expect("valid");
        let qmax = 127.0 * scale;
        for (&orig, &deq) in t.data().iter().zip(q.data()) {
            if orig.abs() < qmax {
                prop_assert!((orig - deq).abs() <= scale / 2.0 + 1e-6);
            }
        }
    }

    /// The kernel a clustering run dispatches to agrees with the naive
    /// reference on the SSE it reports.
    #[test]
    fn masked_assignment_equivalence(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq::tensor::uniform(vec![48, 8], -1.0, 1.0, &mut rng);
        let (pruned, mask) = prune_matrix_nm(&w, 2, 4).expect("valid");
        let res = masked_kmeans(&pruned, &mask, &KmeansConfig::new(6), &mut rng)
            .expect("clusterable");
        let naive = masked_assign_naive(&pruned, &mask, res.codebook.centers());
        // both must produce assignments with identical masked SSE (ties
        // may be broken differently)
        let naive_sse = {
            let a = mvq::core::Assignments::new(naive, res.codebook.k()).expect("in range");
            masked_sse(&pruned, &mask, &res.codebook, &a).expect("consistent")
        };
        prop_assert!((naive_sse - res.sse).abs() < 1e-3,
            "naive {} vs factored {}", naive_sse, res.sse);
    }

    /// Reconstruction always has exactly the mask's sparsity pattern.
    #[test]
    fn reconstruction_respects_mask(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq::tensor::uniform(vec![32, 16], -1.0, 1.0, &mut rng);
        let spec = PipelineSpec::default().with_k(8);
        let c = MvqCompressor::new(spec).unwrap().compress_matrix(&w, &mut rng).expect("compressible");
        let g = c.reconstruct_grouped().expect("reconstructible");
        for j in 0..32 {
            for t in 0..16 {
                if !c.mask().row(j)[t] {
                    prop_assert_eq!(g.at(&[j, t]).unwrap(), 0.0);
                }
            }
        }
    }

    /// Compression ratio formula consistency: ratio == original/compressed.
    #[test]
    fn storage_breakdown_consistency(k in 2usize..64, ng_mult in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(k as u64);
        let ng = ng_mult * 32;
        let w = mvq::tensor::uniform(vec![ng, 16], -1.0, 1.0, &mut rng);
        let spec = PipelineSpec::default().with_k(k);
        let c = MvqCompressor::new(spec).unwrap().compress_matrix(&w, &mut rng).expect("compressible");
        let s = c.storage();
        let expected = s.original_bits as f64
            / (s.assignment_bits + s.mask_bits + s.codebook_bits) as f64;
        prop_assert!((c.compression_ratio() - expected).abs() < 1e-9);
        prop_assert_eq!(s.original_bits, (ng * 16 * 32) as u64);
    }
}

proptest! {
    // The acceptance bar for new kernels: ≥256 randomized cases of exact
    // equivalence against the naive oracle. Run in both debug and
    // --release (see CI): release builds are where illegal reassociation
    // or fast-math shortcuts would surface.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Blocked masked assignment is bit-identical to `masked_assign_naive`
    /// and the blocked masked SSE matches the naive SSE to 0 ULP, for
    /// random shapes, N:M patterns, masks and seeds. Data is arbitrary
    /// (masked lanes need not hold zeros) — the kernels must agree
    /// regardless.
    #[test]
    fn blocked_masked_kernels_are_bit_identical_to_naive(
        seed in 0u64..1_000_000,
        ng in 1usize..96,
        k in 1usize..40,
        shape in prop_oneof![
            Just((1usize, 2usize, 4usize)),
            Just((2, 4, 4)),
            Just((2, 4, 8)),
            Just((4, 8, 8)),
            Just((4, 16, 16)),
        ],
    ) {
        let (n, m, d) = shape;
        let mut rng = StdRng::seed_from_u64(seed);
        let data = mvq::tensor::uniform(vec![ng, d], -2.0, 2.0, &mut rng);
        let mask_src = mvq::tensor::uniform(vec![ng, d], -1.0, 1.0, &mut rng);
        let (_, mask) = prune_matrix_nm(&mask_src, n, m).expect("valid N:M");
        let centers = mvq::tensor::uniform(vec![k, d], -2.0, 2.0, &mut rng);

        let naive = masked_assign_naive(&data, &mask, &centers);
        let blocked = masked_assign_with(KernelStrategy::Blocked, &data, &mask, &centers)
            .expect("validated inputs");
        prop_assert_eq!(&naive, &blocked, "assignment divergence (ng={} k={} d={})", ng, k, d);

        let sse_naive = masked_sse_with(KernelStrategy::Naive, &data, &mask, &centers, &naive)
            .expect("validated inputs");
        let sse_blocked = masked_sse_with(KernelStrategy::Blocked, &data, &mask, &centers, &blocked)
            .expect("validated inputs");
        prop_assert_eq!(
            sse_naive.to_bits(), sse_blocked.to_bits(),
            "SSE differs by >0 ULP: naive {} vs blocked {}", sse_naive, sse_blocked
        );
    }

    /// The dense blocked kernel is bit-identical to its naive oracle.
    #[test]
    fn blocked_dense_kernel_is_bit_identical_to_naive(
        seed in 0u64..1_000_000,
        ng in 1usize..96,
        k in 1usize..40,
        d in prop_oneof![Just(2usize), Just(5), Just(8), Just(16)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = mvq::tensor::uniform(vec![ng, d], -2.0, 2.0, &mut rng);
        let centers = mvq::tensor::uniform(vec![k, d], -2.0, 2.0, &mut rng);
        let naive = dense_assign_naive(&data, &centers);
        let blocked = dense_assign_with(KernelStrategy::Blocked, &data, &centers)
            .expect("validated inputs");
        prop_assert_eq!(naive, blocked);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full masked k-means runs under `blocked` produce exactly the
    /// oracle's assignments and codebook (assignment equality per
    /// iteration makes the centroid updates bit-identical), and the same
    /// SSE bits.
    #[test]
    fn blocked_masked_kmeans_matches_naive_end_to_end(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq::tensor::uniform(vec![128, 8], -1.0, 1.0, &mut rng);
        let (pruned, mask) = prune_matrix_nm(&w, 2, 4).expect("valid");
        let run = |kernel| {
            masked_kmeans(&pruned, &mask, &KmeansConfig::new(9).with_kernel(kernel),
                &mut StdRng::seed_from_u64(seed ^ 0x5A))
                .expect("clusterable")
        };
        let naive = run(KernelStrategy::Naive);
        let blocked = run(KernelStrategy::Blocked);
        prop_assert_eq!(naive.assignments.indices(), blocked.assignments.indices());
        prop_assert_eq!(naive.codebook.centers().data(), blocked.codebook.centers().data());
        prop_assert_eq!(naive.sse.to_bits(), blocked.sse.to_bits());
        prop_assert_eq!(naive.iterations, blocked.iterations);
    }

}

/// The registry acceptance bar, driven through the reusable differential
/// harness: ≥ 256 randomized cases (shapes straddling the vector and
/// codeword-block widths, masks from independent matrices, duplicate-
/// codeword ties injected every 8th case).
fn acceptance_config() -> DiffConfig {
    let cfg = DiffConfig::default();
    assert!(cfg.cases >= 256, "the acceptance bar is at least 256 cases");
    cfg
}

fn assert_assignments_identical(report: &DiffReport, label: &str) {
    assert_eq!(report.assignment_mismatches, 0, "{label}: {:?}", report.first_divergence);
    assert_eq!(report.tie_break_violations, 0, "{label}: {:?}", report.first_divergence);
    assert!(report.tie_rows > 0, "{label}: tie injection never produced a tied row");
    assert!(report.assignments_identical(), "{label}: {report:?}");
}

/// The blocked kernel proven through the harness: exact assignments,
/// lowest-index tie-breaking on constructed ties, and 0-ULP SSE, masked
/// and dense.
#[test]
fn blocked_kernel_is_exact_under_the_differential_harness() {
    let report = compare_masked(KernelStrategy::Blocked, &acceptance_config()).unwrap();
    assert_assignments_identical(&report, "blocked masked");
    assert_eq!(report.max_sse_ulp, 0, "blocked SSE must be bit-identical to the oracle");
    let dense = compare_dense(KernelStrategy::Blocked, &acceptance_config()).unwrap();
    assert_assignments_identical(&dense, "blocked dense");
}

/// Non-proptest cross-check: masked k-means never yields higher masked SSE
/// than plain k-means on the same pruned data (averaged over seeds — the
/// defining advantage from the paper's Table 3).
#[test]
fn masked_kmeans_dominates_plain_on_average() {
    let mut wins = 0;
    let trials = 10;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq::tensor::kaiming_normal(vec![256, 16], 16, &mut rng);
        let (pruned, mask) = prune_matrix_nm(&w, 4, 16).unwrap();
        let cfg = KmeansConfig::new(16);
        let masked =
            masked_kmeans(&pruned, &mask, &cfg, &mut StdRng::seed_from_u64(seed + 100)).unwrap();
        let plain =
            mvq::core::kmeans(&pruned, &cfg, None, &mut StdRng::seed_from_u64(seed + 100)).unwrap();
        let plain_masked = masked_sse(&pruned, &mask, &plain.codebook, &plain.assignments).unwrap();
        if masked.sse < plain_masked {
            wins += 1;
        }
    }
    assert!(wins >= 9, "masked k-means won only {wins}/{trials} trials");
}
