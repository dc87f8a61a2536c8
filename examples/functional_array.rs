//! Execute a convolution *through the modeled hardware*: compress the
//! weights with MVQ, then run the functional EWS array — CRF lookups,
//! mask-LUT decodes, AND gates and sparse tiles — and compare against the
//! dense array and a reference GEMM.
//!
//! ```text
//! cargo run --release --example functional_array
//! ```

use mvq::accel::{FunctionalEws, HwConfig, HwSetting};
use mvq::core::{MvqCompressor, PipelineSpec};
use mvq::tensor::kaiming_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(3);
    // A GEMM-lowered conv layer: 128 output channels, 64*3*3 reduction,
    // 14x14 output plane.
    let (k, r, e2) = (128usize, 64 * 9, 196usize);
    let weights = kaiming_normal(vec![k, r], r, &mut rng);
    let ifmap = mvq::tensor::uniform(vec![r, e2], -1.0, 1.0, &mut rng);

    // Compress the weights: k=256 codewords, d=16, 4:16.
    let spec = PipelineSpec::default().with_k(256);
    let compressed = MvqCompressor::new(spec)?.compress_matrix(&weights, &mut rng)?;
    let decoded = compressed.reconstruct()?;
    println!(
        "weights: [{k}, {r}] compressed {:.1}x, {:.0}% sparse",
        compressed.compression_ratio(),
        decoded.sparsity() * 100.0
    );

    // Run all three paths on a 32x32 array.
    let sparse_hw = FunctionalEws::new(HwConfig::new(HwSetting::EwsCms, 32)?);
    let dense_hw = FunctionalEws::new(HwConfig::new(HwSetting::Ews, 32)?);
    let dense = dense_hw.run_dense(&decoded, &ifmap)?;
    let sparse = sparse_hw.run_compressed(&compressed, &ifmap)?;
    let reference = dense_hw.reference(&decoded, &ifmap)?;

    let max_err = sparse
        .ofmap
        .data()
        .iter()
        .zip(reference.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("\nsparse-tile output vs reference GEMM: max |err| = {max_err:.2e}");
    println!("\n{:<22} {:>12} {:>12}", "", "dense array", "sparse array");
    println!(
        "{:<22} {:>12} {:>12}",
        "multiplies executed", dense.macs_executed, sparse.macs_executed
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "weight-load cycles", dense.weight_load_cycles, sparse.weight_load_cycles
    );
    println!("{:<22} {:>12} {:>12}", "total cycles", dense.cycles, sparse.cycles);
    println!(
        "\nthe sparse tile computes the same ofmap with {:.1}x fewer multiplies and a {:.1}x\n\
         narrower weight-load stream — the paper's co-design in action.",
        dense.macs_executed as f64 / sparse.macs_executed as f64,
        dense.weight_load_cycles as f64 / sparse.weight_load_cycles as f64
    );
    Ok(())
}
