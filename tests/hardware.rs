//! Integration tests: consistency between the compression algorithm
//! (mvq-core) and the accelerator model (mvq-accel).

use mvq::accel::{
    lzc_encode_mask, simulate_network, weight_load_bits, workloads, HwConfig, HwSetting, SparseTile,
};
use mvq::core::{prune_matrix_nm, MaskLut, MvqCompressor, PipelineSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn weight_load_bits_match_algorithm_storage() {
    // The loader's per-layer traffic must equal the algorithm's
    // assignments+mask storage (Eq. 7's b_a + b_m) for the same block.
    let cfg = HwConfig::new(HwSetting::EwsCms, 64).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let elems = 512usize * 16;
    let w = mvq::tensor::kaiming_normal(vec![512, 16], 16, &mut rng);
    let spec =
        PipelineSpec { k: cfg.k, d: cfg.d, keep_n: cfg.keep_n, m: cfg.m, ..Default::default() };
    let compressed = MvqCompressor::new(spec).unwrap().compress_matrix(&w, &mut rng).unwrap();
    let storage = compressed.storage();
    let hw_bits = weight_load_bits(&cfg, elems as u64, false);
    assert_eq!(
        hw_bits as u64,
        storage.assignment_bits + storage.mask_bits,
        "hardware loader bits must equal Eq. 7's b_a + b_m"
    );
}

#[test]
fn sparse_tile_computes_real_compressed_weights() {
    // Drive the behavioral sparse tile with an actual MVQ-compressed
    // subvector and verify it against the dense decode.
    let mut rng = StdRng::seed_from_u64(1);
    let w = mvq::tensor::kaiming_normal(vec![64, 16], 16, &mut rng);
    let spec = PipelineSpec::default().with_k(16);
    let compressed = MvqCompressor::new(spec).unwrap().compress_matrix(&w, &mut rng).unwrap();
    let decoded = compressed.reconstruct_grouped().unwrap();
    for j in 0..8 {
        let mask: Vec<bool> = compressed.mask().row(j).to_vec();
        let kept: Vec<f64> =
            decoded.row(j).iter().zip(&mask).filter(|(_, &m)| m).map(|(&v, _)| v as f64).collect();
        let tile = SparseTile::program(16, &mask, &kept).unwrap();
        assert_eq!(tile.q(), 4);
        for act in [1.0f64, -0.5, 2.25] {
            let sparse = tile.cycle(act);
            for (t, &m) in mask.iter().enumerate() {
                let expected = if m { decoded.row(j)[t] as f64 * act } else { 0.0 };
                assert!((sparse[t] - expected).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn lzc_encoder_agrees_with_mask_lut_round_trip() {
    // The LUT decode (weight loader) and LZC encode (sparse tile) must
    // compose: decode an index, LZC-encode it, and the positions must
    // address exactly the kept lanes.
    let lut = MaskLut::new(4, 16).unwrap();
    for idx in (0..lut.len() as u32).step_by(97) {
        let mask = lut.decode(idx).unwrap();
        let positions = lzc_encode_mask(mask);
        assert_eq!(positions.len(), 4);
        for &p in &positions {
            assert!(mask[p], "LZC position {p} not kept in mask {mask:?}");
        }
    }
}

#[test]
fn pruned_matrix_matches_hardware_q() {
    // Q = N/M × d kept lanes per subvector — the PE count of the sparse
    // tile — must hold on real pruned data.
    let mut rng = StdRng::seed_from_u64(2);
    let w = mvq::tensor::kaiming_normal(vec![128, 16], 16, &mut rng);
    let (_, mask) = prune_matrix_nm(&w, 4, 16).unwrap();
    let cfg = HwConfig::new(HwSetting::EwsCms, 32).unwrap();
    assert_eq!(mask.kept_per_subvector(), cfg.physical_macs() * 16 / (32 * 32));
}

#[test]
fn simulator_conserves_macs_across_settings() {
    // Every setting performs the same dense-equivalent work.
    let net = workloads::resnet50();
    let expected = net.total_macs() as f64;
    for setting in HwSetting::ALL {
        let r = simulate_network(&HwConfig::new(setting, 32).unwrap(), &net);
        assert!(
            (r.effective_macs - expected).abs() < 1.0,
            "{setting}: {} vs {expected}",
            r.effective_macs
        );
    }
}

#[test]
fn compression_never_slows_inference() {
    for net in workloads::all_networks() {
        for size in [16usize, 32, 64] {
            let base = simulate_network(&HwConfig::new(HwSetting::Ews, size).unwrap(), &net);
            let cms = simulate_network(&HwConfig::new(HwSetting::EwsCms, size).unwrap(), &net);
            assert!(
                cms.cycles <= base.cycles * 1.001,
                "{} at {size}: CMS {} > base {}",
                net.name,
                cms.cycles,
                base.cycles
            );
        }
    }
}
