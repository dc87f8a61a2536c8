//! Round-trip property tests for the artifact codec (`mvq_core::store`):
//! for every registry algorithm over randomized shapes, specs and seeds,
//! `from_bytes(to_bytes(a))` must reconstruct **0-ULP identical** to `a`,
//! and the storage accounting must be preserved exactly.
//!
//! Run in debug *and* `--release` (CI does both): layout and
//! reassociation bugs are precisely the class that only shows under
//! optimizations.

use mvq::core::baselines::pqf::PqfCompressed;
use mvq::core::pipeline::{by_name, PipelineSpec, ALGORITHM_NAMES};
use mvq::core::store::{frame_blob, BlobKind, Fnv1a, Persist, FORMAT_VERSION, HEADER_LEN};
use mvq::core::{
    Assignments, Codebook, CompressedArtifact, GroupingStrategy, LayerArtifact, ModelArtifacts,
};
use mvq::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// 0-ULP equality of artifact observables: reconstruction bit patterns,
/// storage breakdown, compression ratio, SSE bit patterns, dims.
fn assert_equivalent(
    a: &CompressedArtifact,
    b: &CompressedArtifact,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let ra = a.reconstruct().expect("reconstruct original");
    let rb = b.reconstruct().expect("reconstruct decoded");
    prop_assert_eq!(ra.dims(), rb.dims(), "{}: dims", ctx);
    prop_assert_eq!(bits(&ra), bits(&rb), "{}: reconstruction bits", ctx);
    prop_assert_eq!(a.storage(), b.storage(), "{}: storage", ctx);
    prop_assert_eq!(
        a.compression_ratio().to_bits(),
        b.compression_ratio().to_bits(),
        "{}: ratio",
        ctx
    );
    prop_assert_eq!(a.orig_dims(), b.orig_dims(), "{}: orig_dims", ctx);
    prop_assert_eq!(a.sse().map(f32::to_bits), b.sse().map(f32::to_bits), "{}: sse", ctx);
    Ok(())
}

/// Builds a randomized (weight, spec) pair valid for every registry
/// algorithm: d is a multiple of m, rows a multiple of d (output-channel-
/// wise grouping), and k small enough to stay clusterable.
fn weight_and_spec(
    seed: u64,
    row_blocks: usize,
    nmd: (usize, usize, usize),
) -> (Tensor, PipelineSpec) {
    let (keep_n, m, d) = nmd;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = d * (row_blocks + 1);
    let cols = 4;
    let w = mvq::tensor::kaiming_normal(vec![rows, cols], cols, &mut rng);
    let spec = PipelineSpec { k: 4, d, keep_n, m, swap_trials: 50, ..PipelineSpec::default() };
    (w, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every registry algorithm's artifact survives bytes with 0-ULP
    /// identical reconstruction and exact storage accounting.
    #[test]
    fn every_algorithm_round_trips_through_bytes(
        seed in 0u64..1_000_000,
        row_blocks in 1usize..4,
        nmd in prop_oneof![
            Just((2usize, 4usize, 8usize)),
            Just((4, 16, 16)),
            Just((2, 8, 16)),
        ],
    ) {
        let (w, spec) = weight_and_spec(seed, row_blocks, nmd);
        for name in ALGORITHM_NAMES {
            let comp = by_name(name, &spec).expect("valid spec");
            let artifact = comp
                .compress_matrix(&w, &mut StdRng::seed_from_u64(seed))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let encoded = artifact.to_bytes().unwrap_or_else(|e| panic!("{name}: encode: {e}"));
            let decoded = CompressedArtifact::from_bytes(&encoded)
                .unwrap_or_else(|e| panic!("{name}: decode: {e}"));
            assert_equivalent(&artifact, &decoded, name)?;
            // encoding is deterministic: re-encoding the decoded artifact
            // reproduces the exact bytes
            prop_assert_eq!(
                encoded,
                decoded.to_bytes().expect("re-encode"),
                "{}: re-encode drifted",
                name
            );
        }
    }

    /// Layer and model wrappers round-trip, including skipped-conv lists
    /// and the algorithm name.
    #[test]
    fn model_artifacts_round_trip(algo_idx in 0usize..ALGORITHM_NAMES.len(), seed in 0u64..10_000) {
        let name = ALGORITHM_NAMES[algo_idx];
        let spec = PipelineSpec { k: 8, swap_trials: 50, ..PipelineSpec::default() };
        let comp = by_name(name, &spec).expect("valid spec");
        let mut rng = StdRng::seed_from_u64(seed);
        let model = mvq::nn::models::tiny_cnn(4, 8, &mut rng);
        let arts = comp
            .compress_model_artifacts(&model, &mut rng)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let decoded =
            ModelArtifacts::from_bytes(&arts.to_bytes().unwrap_or_else(|e| panic!("{name}: {e}")))
                .unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        prop_assert_eq!(decoded.algorithm, arts.algorithm);
        prop_assert_eq!(&decoded.skipped, &arts.skipped);
        prop_assert_eq!(decoded.layers.len(), arts.layers.len());
        prop_assert_eq!(decoded.storage(), arts.storage());
        for (a, b) in arts.layers.iter().zip(&decoded.layers) {
            prop_assert_eq!(a.conv_index, b.conv_index);
            assert_equivalent(&a.artifact, &b.artifact, name)?;
        }
        // a single layer round-trips standalone too
        let layer = &arts.layers[0];
        let layer_decoded =
            LayerArtifact::from_bytes(&layer.to_bytes().expect("layer encode"))
                .expect("layer decode");
        prop_assert_eq!(layer_decoded.conv_index, layer.conv_index);
        assert_equivalent(&layer.artifact, &layer_decoded.artifact, name)?;
    }

    /// Grouping strategies and unquantized codebooks are preserved (the
    /// non-default corners of the per-variant field layout).
    #[test]
    fn non_default_spec_corners_round_trip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq::tensor::kaiming_normal(vec![16, 4, 3, 3], 36, &mut rng);
        let spec = PipelineSpec {
            k: 4,
            d: 9,
            keep_n: 3,
            m: 9,
            grouping: GroupingStrategy::KernelWise,
            codebook_bits: None, // fp32 codebook: Option-tag path
            swap_trials: 50,
            ..PipelineSpec::default()
        };
        for name in ["mvq", "vq-c", "pqf", "bgd"] {
            let artifact = by_name(name, &spec)
                .expect("valid spec")
                .compress_matrix(&w, &mut StdRng::seed_from_u64(seed))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let decoded =
                CompressedArtifact::from_bytes(&artifact.to_bytes().expect("encode"))
                    .expect("decode");
            assert_equivalent(&artifact, &decoded, name)?;
            prop_assert_eq!(
                decoded.codebook().expect("has codebook").bits(),
                None,
                "{}: fp32 codebook must stay unquantized",
                name
            );
        }
    }
}

/// Golden-blob decode pin for format v1: a hand-assembled scalar
/// artifact written by the v1 encoder. Encoders now write the current
/// version, but v1 blobs in existing caches must keep decoding to the
/// same values.
#[test]
fn format_v1_golden_blob_decodes() {
    let golden: Vec<u8> = vec![
        // magic "MVQA", version 1, kind 0
        0x4d, 0x56, 0x51, 0x41, 0x01, 0x00, 0x00, //
        // payload length 46
        0x2e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        // FNV-1a payload checksum
        0x18, 0x7b, 0x29, 0x91, 0x01, 0x87, 0xf8, 0x2e, //
        // payload: variant tag 3 (scalar)
        0x03, //
        // tensor dims: rank 2, [2, 2]
        0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
        // f32 bit patterns: 0.5, -0.5, 1.0, 0.0
        0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x00, 0xbf, //
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, //
        // scale 0.5, bits 2, sse 0.25
        0x00, 0x00, 0x00, 0x3f, 0x02, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0x80, 0x3e,
    ];
    let decoded = CompressedArtifact::from_bytes(&golden).expect("golden v1 blob must decode");
    let CompressedArtifact::Scalar(s) = &decoded else { panic!("decoded {decoded:?}") };
    assert_eq!(
        bits(&s.result.quantized),
        bits(&Tensor::from_vec(vec![2, 2], vec![0.5, -0.5, 1.0, 0.0]).unwrap())
    );
    assert_eq!((s.result.scale, s.result.bits, s.result.sse), (0.5, 2, 0.25));
}

/// A hand-built PQF artifact over a `[2, 2]` weight with `d = 2`, `k = 2`
/// and the permutation `[1, 0, 2, 3]` (positions 0 and 1 moved).
fn tiny_permuted() -> CompressedArtifact {
    let centers = Tensor::from_vec(vec![2, 2], vec![0.5, -0.5, 1.0, 0.0]).unwrap();
    let pqf = PqfCompressed::from_parts(
        vec![1, 0, 2, 3],
        Codebook::new(centers).unwrap(),
        Assignments::new(vec![1, 0], 2).unwrap(),
        vec![2, 2],
        GroupingStrategy::OutputChannelWise,
        2,
        0.25,
    )
    .unwrap();
    CompressedArtifact::Permuted(pqf)
}

/// Format v2's sparse permutation (`TAG_PERMUTED_SPARSE`) as a v2 writer
/// framed it, FNV-1a checksum included: decode-only since format v3,
/// which keeps the payload byte for byte and changes only the header
/// ([`V3_PERMUTED_HEADER`]).
const V2_PERMUTED_GOLDEN: [u8; 153] = [
    // magic "MVQA", version 2, kind 0
    0x4d, 0x56, 0x51, 0x41, 0x02, 0x00, 0x00, //
    // payload length 130
    0x82, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    // FNV-1a payload checksum
    0x1e, 0x42, 0x6d, 0xa7, 0xc0, 0x4c, 0x34, 0x79, //
    // payload: variant tag 4 (permuted, sparse permutation)
    0x04, //
    // codebook centers: rank 2, [2, 2], then 0.5, -0.5, 1.0, 0.0
    0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x00, 0xbf, //
    0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, //
    // codebook scale: none; bits: none
    0x00, 0x00, //
    // assignments: 2 of them, [1, 0]
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    // orig dims: rank 2, [2, 2]
    0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    // grouping tag 1 (output-channel-wise), d = 2, sse 0.25
    0x01, //
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x80, 0x3e, //
    // permutation: length 4, 2 moved
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    // (position 0, source 1), (position 1, source 0)
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
];

/// Golden-blob regression pin for format v3: [`tiny_permuted`] encodes to
/// this header followed by [`V2_PERMUTED_GOLDEN`]'s payload. If the layout
/// ever changes this fails: bump `FORMAT_VERSION`, re-pin, and keep this
/// blob decodable.
const V3_PERMUTED_HEADER: [u8; HEADER_LEN] = [
    // magic "MVQA", version 3, kind 0
    0x4d, 0x56, 0x51, 0x41, 0x03, 0x00, 0x00, //
    // payload length 130
    0x82, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    // XXH64 payload checksum
    0xf9, 0xef, 0x5b, 0xa8, 0x9b, 0x97, 0xd2, 0x72, //
];

/// Decodes `blob` and checks it is [`tiny_permuted`].
fn assert_tiny_permuted(blob: &[u8]) {
    let decoded = CompressedArtifact::from_bytes(blob).expect("golden blob decodes");
    let CompressedArtifact::Permuted(p) = &decoded else { panic!("decoded {decoded:?}") };
    assert_eq!(p.permutation(), &[1, 0, 2, 3]);
    assert_eq!(
        bits(&decoded.reconstruct().unwrap()),
        bits(&tiny_permuted().reconstruct().unwrap())
    );
}

#[test]
fn format_v2_permuted_golden_blob_is_pinned() {
    assert_tiny_permuted(&V2_PERMUTED_GOLDEN);
}

#[test]
fn format_v3_permuted_golden_blob_is_pinned() {
    let encoded = tiny_permuted().to_bytes().expect("encode");
    assert_eq!(u16::from_le_bytes(encoded[4..6].try_into().unwrap()), FORMAT_VERSION);
    let golden = [&V3_PERMUTED_HEADER[..], &V2_PERMUTED_GOLDEN[HEADER_LEN..]].concat();
    assert_eq!(
        encoded, golden,
        "format v3 layout drifted — bump FORMAT_VERSION and keep this blob decodable"
    );
    assert_tiny_permuted(&golden);
}

/// Frames `payload` as a format-v1 `Artifact` blob, whose header carries
/// an FNV-1a payload checksum (the current version's is XXH64).
fn v1_artifact_blob(payload: Vec<u8>) -> Vec<u8> {
    let mut h = Fnv1a::new();
    h.update(&payload);
    let mut blob = frame_blob(BlobKind::Artifact, payload);
    blob[4..6].copy_from_slice(&1u16.to_le_bytes());
    blob[15..HEADER_LEN].copy_from_slice(&h.finish().to_le_bytes());
    blob
}

#[test]
fn format_v1_dense_permutation_still_decodes() {
    // v1 wrote PQF under TAG_PERMUTED (2) with every scalar's source
    // index: the v2 golden's fields up to the permutation, then length 4
    // and [1, 0, 2, 3] in full
    let fields = &V2_PERMUTED_GOLDEN[HEADER_LEN..HEADER_LEN + 90];
    let mut payload = vec![2u8];
    payload.extend_from_slice(&fields[1..]);
    for v in [1u64, 0, 2, 3] {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let blob = v1_artifact_blob(payload);
    let decoded = CompressedArtifact::from_bytes(&blob).expect("v1 permuted blob must decode");
    let CompressedArtifact::Permuted(p) = &decoded else { panic!("decoded {decoded:?}") };
    assert_eq!(p.permutation(), &[1, 0, 2, 3]);
    assert_eq!(
        bits(&decoded.reconstruct().unwrap()),
        bits(&tiny_permuted().reconstruct().unwrap())
    );
}

#[test]
fn fully_moved_permutations_round_trip() {
    let (ng, d) = (24usize, 4usize);
    let mut rng = StdRng::seed_from_u64(17);
    let centers = mvq::tensor::uniform(vec![3, d], -1.0, 1.0, &mut rng);
    let assign: Vec<u32> = (0..ng as u32).map(|j| j % 3).collect();
    let n = ng * d;
    // a rotation moves every position; a seeded shuffle moves almost all
    let mut shuffled: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    for perm in [(0..n).map(|p| (p + 1) % n).collect::<Vec<_>>(), shuffled] {
        let artifact = CompressedArtifact::Permuted(
            PqfCompressed::from_parts(
                perm.clone(),
                Codebook::new(centers.clone()).unwrap(),
                Assignments::new(assign.clone(), 3).unwrap(),
                vec![ng * d / 8, 8],
                GroupingStrategy::OutputChannelWise,
                d,
                1.5,
            )
            .unwrap(),
        );
        let decoded = CompressedArtifact::from_bytes(&artifact.to_bytes().unwrap()).unwrap();
        let CompressedArtifact::Permuted(p) = &decoded else { panic!("decoded {decoded:?}") };
        assert_eq!(p.permutation(), perm.as_slice());
        assert_eq!(bits(&decoded.reconstruct().unwrap()), bits(&artifact.reconstruct().unwrap()));
    }
}

#[test]
fn corrupt_sparse_permutations_are_codec_errors() {
    // re-frame each edit with a valid checksum, so the sparse-permutation
    // decoder itself must catch it
    let payload = &V2_PERMUTED_GOLDEN[HEADER_LEN..];
    let u64_at = |bytes: &mut Vec<u8>, at: usize, v: u64| {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    };
    // payload offsets of the permutation fields
    let (moved, pos0, pos1, src1) = (90, 98, 114, 122);
    let cases: [(&str, Vec<(usize, u64)>); 4] = [
        ("more moved positions than the length", vec![(moved, 5)]),
        ("a position out of range", vec![(pos1, 4)]),
        ("positions out of order", vec![(pos0, 1), (pos1, 0)]),
        ("a duplicate source", vec![(src1, 1)]),
    ];
    for (what, edits) in cases {
        let mut bad = payload.to_vec();
        for (at, v) in edits {
            u64_at(&mut bad, at, v);
        }
        let blob = frame_blob(BlobKind::Artifact, bad);
        let err = CompressedArtifact::from_bytes(&blob).unwrap_err();
        assert!(matches!(err, mvq::core::MvqError::Codec(_)), "{what}: {err:?}");
    }
}

/// Digest of one decoded artifact: FNV-1a over its reconstruction bit
/// patterns followed by its assignment indices (when it has any).
fn decoded_digest(artifact: &CompressedArtifact) -> u64 {
    let decoded =
        CompressedArtifact::from_bytes(&artifact.to_bytes().expect("encode")).expect("decode");
    let mut h = Fnv1a::new();
    for v in decoded.reconstruct().expect("reconstruct").data() {
        h.update(&v.to_bits().to_le_bytes());
    }
    if let Some(assign) = decoded.assignments() {
        for &a in assign.indices() {
            h.update(&a.to_le_bytes());
        }
    }
    h.finish()
}

/// Decode-level pins for every registry algorithm on two ResNet-18-lite
/// convs under the benchmark's stream spec (k=8, d=8, 2:8) and wire spec
/// (k=16, d=16, 4:16, 100 swap trials). The kernel and the k-means update
/// must not move a single bit of any reconstruction or assignment; the
/// oracle-vs-kernel suites cannot see drift in code every strategy shares
/// (the masked update), these digests can.
#[test]
fn decoded_artifacts_are_pinned_per_algorithm() {
    let model = mvq::nn::models::Arch::ResNet18.build(8, &mut StdRng::seed_from_u64(0));
    let mut convs = Vec::new();
    model.visit_convs(&mut |conv| convs.push(conv.weight.value.clone()));
    let specs = [
        ("stream", PipelineSpec { k: 8, d: 8, keep_n: 2, m: 8, ..PipelineSpec::default() }),
        ("wire", PipelineSpec { k: 16, swap_trials: 100, ..PipelineSpec::default() }),
    ];
    let mut got = Vec::new();
    for (spec_name, spec) in &specs {
        for conv in [3usize, 10] {
            for algo in ALGORITHM_NAMES {
                let comp = by_name(algo, spec).expect("registry algorithm");
                let mut rng = StdRng::seed_from_u64(conv as u64);
                let artifact = comp.compress_matrix(&convs[conv], &mut rng).expect("compress");
                got.push(format!("{spec_name}/{conv}/{algo}={:016x}", decoded_digest(&artifact)));
            }
        }
    }
    let pinned: Vec<String> = PINNED_DIGESTS.iter().map(|s| s.to_string()).collect();
    assert_eq!(got, pinned, "decoded artifacts drifted:\n{}", got.join("\n"));
}

/// A kernel or k-means update that moves any of these digests has changed
/// artifacts that existing caches hold under the same keys.
const PINNED_DIGESTS: [&str; 32] = [
    "stream/3/mvq=dce2e0dbc687c04f",
    "stream/3/vq-a=093b7f351b67f810",
    "stream/3/vq-b=3d69e8181ebb163b",
    "stream/3/vq-c=aae0ef6034f31fe5",
    "stream/3/pqf=c5ab35b6a2634d6b",
    "stream/3/bgd=0caf484bb8460147",
    "stream/3/dkm=98a39c61feef0a17",
    "stream/3/pvq=0910716f549373d6",
    "stream/10/mvq=832050f157dbd185",
    "stream/10/vq-a=9fb4fa03f96f346f",
    "stream/10/vq-b=cba76f24ae72e58a",
    "stream/10/vq-c=052356c04afa7524",
    "stream/10/pqf=a071865f83a7fdf5",
    "stream/10/bgd=b4142299ffdee6c0",
    "stream/10/dkm=65da6436fabb8dd9",
    "stream/10/pvq=312106ef64e576d6",
    "wire/3/mvq=feee659cf115e2ca",
    "wire/3/vq-a=fa9539f944559fc2",
    "wire/3/vq-b=71f19b38bdfa39b0",
    "wire/3/vq-c=48f2b99a9b65c226",
    "wire/3/pqf=7286540702df3a89",
    "wire/3/bgd=574fa8512d0a6b88",
    "wire/3/dkm=90a17e2e208f17d7",
    "wire/3/pvq=0910716f549373d6",
    "wire/10/mvq=7c32d34650274a3e",
    "wire/10/vq-a=debc914af2ae6043",
    "wire/10/vq-b=6bb0ef12c76eb15d",
    "wire/10/vq-c=5ebdd44907b8afe6",
    "wire/10/pqf=d22f226925de6b1a",
    "wire/10/bgd=4d6ec6548b25574d",
    "wire/10/dkm=0c9d4a17c4e5f60e",
    "wire/10/pvq=312106ef64e576d6",
];
