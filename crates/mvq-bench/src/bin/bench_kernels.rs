//! Measures the masked-distance kernel strategies (naive oracle vs
//! blocked vs simd vs minibatch) on the ResNet-18-lite workload and
//! records the result in `BENCH_kernels.json`.
//!
//! Two measurements per strategy, summed over every compressible conv of
//! the model at the paper's ResNet operating point (d = 16, 4:16, k = 64):
//!
//! * one masked assignment pass (the kernel in isolation);
//! * a full `masked_kmeans` run to convergence (the kernel inside the
//!   loop; minibatch swaps the loop itself).
//!
//! The binary also asserts the kernel contracts on every layer before
//! timing anything — blocked bit-identical to the naive oracle
//! (assignments and SSE bits, on whichever backend the CPU dispatches
//! to, recorded as `blocked_backend` / `simd_backend`), simd
//! assignment-identical with SSE inside the pinned ULP bound — a bench
//! that drifted from the oracle would be measuring the wrong thing.
//!
//! Usage: `cargo run --release -p mvq-bench --bin bench_kernels
//! [strategy ...]` — optional strategy names (case-insensitive, parsed by
//! `KernelStrategy::from_str`) restrict the run; default is all of them.

use std::time::Instant;

use mvq_bench::report::BenchReport;
use mvq_core::differential::ulp_distance;
use mvq_core::{
    dispatched_backend, masked_assign_naive, masked_assign_with, masked_kmeans, masked_sse_with,
    prune_matrix_nm, GroupingStrategy, KernelStrategy, KmeansConfig, NmMask, REASSOC_SSE_ULP_BOUND,
};
use mvq_nn::models::Arch;
use mvq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: usize = 16;
const K: usize = 64;
const KEEP_N: usize = 4;
const M: usize = 16;
const REPS: usize = 5;

fn main() {
    // optional CLI filter: strategy names through the one shared parser
    let mut strategies: Vec<KernelStrategy> =
        std::env::args().skip(1).map(|arg| arg.parse().unwrap_or_else(|e| panic!("{e}"))).collect();
    if strategies.is_empty() {
        strategies = KernelStrategy::ALL.to_vec();
    }
    if !strategies.contains(&KernelStrategy::Naive) {
        // the oracle anchors every speedup and contract check
        strategies.insert(0, KernelStrategy::Naive);
    }

    let mut rng = StdRng::seed_from_u64(0);
    let model = Arch::ResNet18.build(8, &mut rng);
    let mut weights = Vec::new();
    model.visit_convs(&mut |conv| weights.push(conv.weight.value.clone()));
    let grouping = GroupingStrategy::OutputChannelWise;
    let mut layers: Vec<(Tensor, NmMask)> = Vec::new();
    for w in &weights {
        let Ok(grouped) = grouping.group(w, D) else { continue };
        let (pruned, mask) = prune_matrix_nm(&grouped, KEEP_N, M).expect("valid N:M");
        layers.push((pruned, mask));
    }
    let total_ng: usize = layers.iter().map(|(p, _)| p.dims()[0]).sum();
    let centers: Vec<Tensor> =
        layers.iter().map(|_| mvq_tensor::kaiming_normal(vec![K, D], D, &mut rng)).collect();

    // contract sanity on this exact workload before any timing: blocked
    // must be bit-identical to the oracle, simd assignment-identical with
    // ULP-bounded SSE
    let mut simd_sse_ulp_max = 0u32;
    for ((pruned, mask), c) in layers.iter().zip(&centers) {
        let naive = masked_assign_naive(pruned, mask, c);
        for &strategy in &strategies {
            if strategy == KernelStrategy::Naive {
                continue;
            }
            let got = masked_assign_with(strategy, pruned, mask, c).expect("valid workload");
            assert_eq!(
                naive,
                got,
                "{} kernel diverged from the naive oracle on the {} backend",
                strategy.name(),
                dispatched_backend(strategy)
            );
        }
        let sse_naive = masked_sse_with(KernelStrategy::Naive, pruned, mask, c, &naive).unwrap();
        if strategies.contains(&KernelStrategy::Blocked) {
            let sse_blocked =
                masked_sse_with(KernelStrategy::Blocked, pruned, mask, c, &naive).unwrap();
            assert_eq!(
                sse_naive.to_bits(),
                sse_blocked.to_bits(),
                "blocked SSE diverged from the naive oracle on the {} backend",
                dispatched_backend(KernelStrategy::Blocked)
            );
        }
        if strategies.contains(&KernelStrategy::Simd) {
            let sse_simd = masked_sse_with(KernelStrategy::Simd, pruned, mask, c, &naive).unwrap();
            let ulp = ulp_distance(sse_naive, sse_simd);
            assert!(
                ulp <= REASSOC_SSE_ULP_BOUND,
                "simd SSE diverged by {ulp} ULPs (bound {REASSOC_SSE_ULP_BOUND})"
            );
            simd_sse_ulp_max = simd_sse_ulp_max.max(ulp);
        }
    }

    // one assignment pass per strategy (minibatch's assignment kernel is
    // the blocked one, so it is skipped here — its loop is what differs)
    let assign_secs = |strategy: KernelStrategy| {
        time_min(|| {
            for ((pruned, mask), c) in layers.iter().zip(&centers) {
                std::hint::black_box(
                    masked_assign_with(strategy, pruned, mask, c).expect("valid workload"),
                );
            }
        })
    };
    let mut assign: Vec<(KernelStrategy, f64)> = Vec::new();
    for &strategy in &strategies {
        if strategy == KernelStrategy::Minibatch {
            continue;
        }
        assign.push((strategy, assign_secs(strategy)));
    }

    // full clustering runs
    let kmeans_with = |kernel: KernelStrategy| {
        let mut sse = 0.0f64;
        let secs = time_min(|| {
            sse = 0.0;
            for (i, (pruned, mask)) in layers.iter().enumerate() {
                let cfg = KmeansConfig::new(K).with_kernel(kernel);
                let res = masked_kmeans(pruned, mask, &cfg, &mut StdRng::seed_from_u64(i as u64))
                    .expect("clusterable");
                sse += res.sse as f64;
            }
        });
        (secs, sse)
    };
    let mut kmeans: Vec<(KernelStrategy, f64, f64)> = Vec::new();
    for &strategy in &strategies {
        let (secs, sse) = kmeans_with(strategy);
        kmeans.push((strategy, secs, sse));
    }
    let km_of = |s: KernelStrategy| kmeans.iter().find(|(k, _, _)| *k == s);
    if let (Some((_, _, sse_naive)), Some((_, _, sse_blocked))) =
        (km_of(KernelStrategy::Naive), km_of(KernelStrategy::Blocked))
    {
        assert_eq!(
            sse_naive.to_bits(),
            sse_blocked.to_bits(),
            "full naive and blocked clustering runs must be bit-identical"
        );
    }

    let assign_naive = assign
        .iter()
        .find(|(s, _)| *s == KernelStrategy::Naive)
        .map(|&(_, secs)| secs)
        .expect("naive always runs");
    let km_naive =
        km_of(KernelStrategy::Naive).map(|&(_, secs, _)| secs).expect("naive always runs");

    let ms = |s: f64| s * 1e3;
    let mut report = BenchReport::new("kernels");
    report
        .field_str("workload", "resnet18-lite")
        .field_u64("layers", layers.len() as u64)
        .field_u64("subvectors_total", total_ng as u64)
        .field_u64("d", D as u64)
        .field_u64("k", K as u64)
        .field_str("nm", &format!("{KEEP_N}:{M}"))
        .field_u64("reps", REPS as u64)
        .field_str("blocked_backend", dispatched_backend(KernelStrategy::Blocked))
        .field_str("simd_backend", dispatched_backend(KernelStrategy::Simd));
    for &(strategy, secs) in &assign {
        report.field_f64(&format!("assign_{}_ms", strategy.name()), ms(secs), 3);
        report.field_f64(&format!("assign_{}_speedup", strategy.name()), assign_naive / secs, 2);
    }
    if let (Some(&(_, simd_secs)), Some(&(_, blocked_secs))) = (
        assign.iter().find(|(s, _)| *s == KernelStrategy::Simd),
        assign.iter().find(|(s, _)| *s == KernelStrategy::Blocked),
    ) {
        report.field_f64("assign_simd_vs_blocked_speedup", blocked_secs / simd_secs, 2);
    }
    for &(strategy, secs, sse) in &kmeans {
        report.field_f64(&format!("kmeans_{}_ms", strategy.name()), ms(secs), 3);
        report.field_f64(
            &format!("kmeans_{}_speedup_vs_naive", strategy.name()),
            km_naive / secs,
            2,
        );
        report.field_f64(&format!("sse_{}", strategy.name()), sse, 4);
    }
    if strategies.contains(&KernelStrategy::Simd) {
        report.field_u64("simd_sse_ulp_max", u64::from(simd_sse_ulp_max));
        report.field_u64("simd_sse_ulp_bound", u64::from(REASSOC_SSE_ULP_BOUND));
    }
    report.write();
}

/// Minimum wall time over `REPS` runs, after one warm-up run.
fn time_min(mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}
