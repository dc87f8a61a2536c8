//! Criterion bench: masked-distance kernels — the naive per-row oracle vs
//! the center-major LUT-masked kernel vs minibatch clustering.
//!
//! The blocked kernel must win on time while staying bit-identical to the
//! oracle (`tests/properties.rs` enforces the equality); minibatch trades
//! bit-identity for per-iteration cost independent of NG. The same
//! comparison on the ResNet-18-lite workload is recorded by the
//! `bench_kernels` binary into `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvq_core::{
    default_minibatch_size, masked_assign_naive, masked_assign_with, masked_kmeans,
    masked_kmeans_minibatch, prune_matrix_nm, KernelStrategy, KmeansConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("masked_assignment");
    for &(ng, k) in &[(1024usize, 64usize), (4096, 128)] {
        let d = 16;
        let mut rng = StdRng::seed_from_u64(0);
        let w = mvq_tensor::kaiming_normal(vec![ng, d], d, &mut rng);
        let (pruned, mask) = prune_matrix_nm(&w, 4, 16).unwrap();
        let centers = mvq_tensor::kaiming_normal(vec![k, d], d, &mut rng);
        group.bench_with_input(BenchmarkId::new("naive", format!("ng{ng}_k{k}")), &(), |b, _| {
            b.iter(|| masked_assign_naive(&pruned, &mask, &centers))
        });
        group.bench_with_input(BenchmarkId::new("blocked", format!("ng{ng}_k{k}")), &(), |b, _| {
            b.iter(|| {
                // includes the LUT plan build, so the comparison is
                // end-to-end fair
                masked_assign_with(KernelStrategy::Blocked, &pruned, &mask, &centers).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("masked_kmeans_converged");
    group.sample_size(10);
    let d = 16;
    let mut rng = StdRng::seed_from_u64(2);
    let w = mvq_tensor::kaiming_normal(vec![4096, d], d, &mut rng);
    let (pruned, mask) = prune_matrix_nm(&w, 4, 16).unwrap();
    for kernel in [KernelStrategy::Naive, KernelStrategy::Blocked] {
        group.bench_function(format!("ng4096_k64/{}", kernel.name()), |b| {
            b.iter(|| {
                let cfg = KmeansConfig::new(64).with_kernel(kernel);
                masked_kmeans(&pruned, &mask, &cfg, &mut StdRng::seed_from_u64(3)).unwrap()
            })
        });
    }
    group.bench_function("ng4096_k64/minibatch", |b| {
        b.iter(|| {
            let cfg = KmeansConfig::new(64);
            let batch = default_minibatch_size(4096, 64);
            masked_kmeans_minibatch(&pruned, &mask, &cfg, batch, &mut StdRng::seed_from_u64(3))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_assignment, bench_convergence);
criterion_main!(benches);
