//! Measures the masked-distance kernel strategies (naive oracle vs
//! blocked) on the ResNet-18-lite workload and records the result in
//! `BENCH_kernels.json`.
//!
//! Two measurements per strategy, summed over every compressible conv of
//! the model at the paper's ResNet operating point (d = 16, 4:16, k = 64):
//!
//! * one masked assignment pass (the kernel in isolation);
//! * a full `masked_kmeans` run to convergence (the kernel inside the
//!   loop).
//!
//! Each timing is the median of `REPS` runs after one warm-up, with the
//! lower and upper quartiles beside it (`*_ms_p25` / `*_ms_p75`), and
//! the report header names the host (CPU model, logical cores).
//!
//! The binary also asserts the kernel contract on every layer before
//! timing anything — blocked bit-identical to the naive oracle
//! (assignments and SSE bits, on whichever backend the CPU dispatches
//! to, recorded as `blocked_backend`) — a bench that drifted from the
//! oracle would be measuring the wrong thing.
//!
//! Usage: `cargo run --release -p mvq-bench --bin bench_kernels
//! [strategy ...]` — optional strategy names (case-insensitive, parsed by
//! `KernelStrategy::from_str`) restrict the run; default is all of them.

use std::time::Instant;

use mvq_bench::report::BenchReport;
use mvq_core::{
    dispatched_backend, masked_assign_naive, masked_assign_with, masked_kmeans, masked_sse_with,
    prune_matrix_nm, GroupingStrategy, KernelStrategy, KmeansConfig, NmMask,
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
    // must be bit-identical to the oracle
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
    }

    // one assignment pass per strategy
    let assign_secs = |strategy: KernelStrategy| {
        time_quartiles(|| {
            for ((pruned, mask), c) in layers.iter().zip(&centers) {
                std::hint::black_box(
                    masked_assign_with(strategy, pruned, mask, c).expect("valid workload"),
                );
            }
        })
    };
    let assign: Vec<(KernelStrategy, Quartiles)> =
        strategies.iter().map(|&s| (s, assign_secs(s))).collect();

    // full clustering runs
    let kmeans_with = |kernel: KernelStrategy| {
        let mut sse = 0.0f64;
        let secs = time_quartiles(|| {
            sse = 0.0;
            for (i, (pruned, mask)) in layers.iter().enumerate() {
                let cfg = KmeansConfig::new(K).with_kernel(kernel);
                let res = masked_kmeans(pruned, mask, &cfg, &mut StdRng::seed_from_u64(i as u64))
                    .expect("clusterable");
                sse += res.sse as f64;
            }
        });
        (kernel, secs, sse)
    };
    let kmeans: Vec<(KernelStrategy, Quartiles, f64)> =
        strategies.iter().map(|&s| kmeans_with(s)).collect();
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
        .map(|&(_, secs)| secs.median)
        .expect("naive always runs");
    let km_naive =
        km_of(KernelStrategy::Naive).map(|&(_, secs, _)| secs.median).expect("naive always runs");

    let mut report = BenchReport::new("kernels");
    report
        .field_str("workload", "resnet18-lite")
        .field_u64("layers", layers.len() as u64)
        .field_u64("subvectors_total", total_ng as u64)
        .field_u64("d", D as u64)
        .field_u64("k", K as u64)
        .field_str("nm", &format!("{KEEP_N}:{M}"))
        .field_u64("reps", REPS as u64)
        .field_str("blocked_backend", dispatched_backend(KernelStrategy::Blocked));
    for &(strategy, secs) in &assign {
        let name = strategy.name();
        secs.write_ms(&mut report, &format!("assign_{name}"));
        report.field_f64(&format!("assign_{name}_speedup"), assign_naive / secs.median, 2);
    }
    for &(strategy, secs, sse) in &kmeans {
        let name = strategy.name();
        secs.write_ms(&mut report, &format!("kmeans_{name}"));
        report.field_f64(&format!("kmeans_{name}_speedup_vs_naive"), km_naive / secs.median, 2);
        report.field_f64(&format!("sse_{name}"), sse, 4);
    }
    report.write();
}

/// One timing's median and quartiles over `REPS` runs, in seconds.
#[derive(Debug, Clone, Copy)]
struct Quartiles {
    p25: f64,
    median: f64,
    p75: f64,
}

impl Quartiles {
    /// Appends `<key>_ms` (the median) and `<key>_ms_p25` / `<key>_ms_p75`.
    fn write_ms(self, report: &mut BenchReport, key: &str) {
        for (suffix, secs) in [("", self.median), ("_p25", self.p25), ("_p75", self.p75)] {
            report.field_f64(&format!("{key}_ms{suffix}"), secs * 1e3, 3);
        }
    }
}

/// Wall time of `REPS` runs after one warm-up run: the median and the
/// lower and upper quartiles.
fn time_quartiles(mut f: impl FnMut()) -> Quartiles {
    f();
    let mut secs = [0.0f64; REPS];
    for s in &mut secs {
        let t0 = Instant::now();
        f();
        *s = t0.elapsed().as_secs_f64();
    }
    secs.sort_by(f64::total_cmp);
    let at = |p: f64| secs[((REPS - 1) as f64 * p).round() as usize];
    Quartiles { p25: at(0.25), median: at(0.5), p75: at(0.75) }
}
