//! Golden wire frames for every `mvq::net` message kind: the exact bytes
//! a peer of this format version puts on the socket. Round-trip tests
//! cannot see a layout drift (both sides drift together); these can. A
//! failing golden means the wire layout changed, which every deployed
//! client/server pair would see.
//!
//! Each message is pinned twice: the format v2 frame a v2 peer sent
//! (FNV-1a checksum), which must still decode, and the v3 header this
//! version writes (XXH64 checksum) over the same payload bytes, which
//! `encode` must reproduce.
//!
//! The same frames, cut short, drive the shared codec's field bounds:
//! every truncated payload (re-framed, so its checksum holds) must
//! decode to `MvqError::Codec`, and a length that promises more values
//! than were sent must fail before anything is allocated for them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mvq::core::pipeline::{by_name, PipelineSpec};
use mvq::core::store::{frame_blob, peek_kind, BlobKind, Fnv1a, HEADER_LEN};
use mvq::core::{
    CompressedArtifact, GroupingStrategy, KernelStrategy, ModelArtifacts, MvqError, Persist,
};
use mvq::net::{
    WireErrorKind, WireMetric, WireMetricValue, WireRequest, WireResponse, WireStatsReply,
    WireStatsRequest,
};
use mvq::obs::{HistogramSummary, Stage, TraceOutcome, TraceSnapshot};
use mvq::serve::{CacheMode, Priority};
use mvq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Records the largest single allocation each thread asks for, so a test
/// can show a decode refused a huge declared size before reserving it.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards its arguments unchanged to the system
// allocator; the bookkeeping touches only a const-initialized thread
// local without a destructor, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        // SAFETY: same layout, same contract as this call's caller
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn golden_request() -> WireRequest {
    WireRequest {
        id: 5,
        name: "c1".into(),
        algo: "mvq".into(),
        spec: PipelineSpec {
            k: 4,
            d: 2,
            keep_n: 1,
            m: 2,
            prune_d: Some(2),
            grouping: GroupingStrategy::OutputChannelWise,
            codebook_bits: Some(8),
            scalar_bits: 8,
            swap_trials: 3,
            kernel: KernelStrategy::Blocked,
        },
        seed: Some(9),
        priority: Priority::High,
        cache_mode: CacheMode::ReadOnly,
        deadline_ms: Some(250),
        weight: Tensor::from_vec(vec![2, 2], vec![0.5, -0.5, 1.0, 0.0]).unwrap(),
    }
}

/// [`golden_request`]: every optional field `Some`, a 2×2 weight, as a
/// format v2 frame.
const REQUEST_GOLDEN: [u8; 161] = [
    0x4d, 0x56, 0x51, 0x41, 0x02, 0x00, 0x04, // magic "MVQA", version 2, kind 4
    0x8a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 138
    0x08, 0x93, 0x24, 0x10, 0x98, 0x22, 0xaf, 0x0b, // FNV-1a payload checksum
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 5
    0x01, 0xfa, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // deadline_ms Some(250)
    0x02, 0x01, // priority High, cache mode ReadOnly
    0x01, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seed Some(9)
    0x02, 0x00, 0x00, 0x00, 0x63, 0x31, // name "c1"
    0x03, 0x00, 0x00, 0x00, 0x6d, 0x76, 0x71, // algo "mvq"
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // k 4
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // d 2
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // keep_n 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // m 2
    0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // prune_d Some(2)
    0x01, // grouping tag 1 (output-channel-wise)
    0x01, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // codebook_bits Some(8)
    0x08, 0x00, 0x00, 0x00, // scalar_bits 8 (u32)
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // swap_trials 3
    0x01, // kernel tag 1 (blocked)
    0x02, // weight rank 2, dims [2, 2]
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x00, 0xbf, // 0.5, -0.5
    0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0x00, // 1.0, 0.0
];

/// `WireResponse::Ok { id: 1, name: "c1", from_cache: true, deduped: false }`
/// as a format v2 frame.
const RESPONSE_OK_GOLDEN: [u8; 40] = [
    0x4d, 0x56, 0x51, 0x41, 0x02, 0x00, 0x05, // magic, version 2, kind 5
    0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 17
    0xa7, 0x46, 0x46, 0x4c, 0x76, 0x57, 0xad, 0xd7, // checksum
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 1
    0x00, 0x01, 0x00, // status Ok, from_cache, not deduped
    0x02, 0x00, 0x00, 0x00, 0x63, 0x31, // name "c1"
];

/// `WireResponse::Err { id: 2, kind: CancelledDeadline, message: "late" }`
/// as a format v2 frame.
const RESPONSE_ERR_GOLDEN: [u8; 41] = [
    0x4d, 0x56, 0x51, 0x41, 0x02, 0x00, 0x05, // magic, version 2, kind 5
    0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 18
    0xa5, 0xf8, 0xd2, 0xdd, 0x24, 0x1d, 0x61, 0xef, // checksum
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 2
    0x01, 0x05, // status Err, error kind 5 (cancelled at deadline)
    0x04, 0x00, 0x00, 0x00, 0x6c, 0x61, 0x74, 0x65, // message "late"
];

/// `WireStatsRequest { id: 3, max_traces: 16 }` as a format v2 frame.
const STATS_REQUEST_GOLDEN: [u8; 35] = [
    0x4d, 0x56, 0x51, 0x41, 0x02, 0x00, 0x07, // magic, version 2, kind 7
    0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 12
    0x56, 0x66, 0x3a, 0xdb, 0xff, 0xf4, 0x55, 0x49, // checksum
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 3
    0x10, 0x00, 0x00, 0x00, // max_traces 16 (u32)
];

fn golden_stats_reply() -> WireStatsReply {
    let hist = HistogramSummary { count: 3, sum: 60, max: 30, p50: 20, p90: 30, p99: 30 };
    let metric = |id, name: &str, value| WireMetric { id, name: name.into(), value };
    WireStatsReply {
        id: 4,
        metrics: vec![
            metric(0, "hits", WireMetricValue::Counter(41)),
            metric(23, "peak", WireMetricValue::Gauge(1024)),
            metric(8, "wait", WireMetricValue::Histogram(hist)),
        ],
        traces: vec![TraceSnapshot {
            name: "c1".into(),
            deduped: true,
            outcome: TraceOutcome::Ok,
            stages: vec![(Stage::Submitted, 0), (Stage::Replied, 250)],
        }],
    }
}

/// [`golden_stats_reply`]: one counter, one gauge, one histogram, one
/// trace, as a format v2 frame.
const STATS_REPLY_GOLDEN: [u8; 172] = [
    0x4d, 0x56, 0x51, 0x41, 0x02, 0x00, 0x08, // magic, version 2, kind 8
    0x95, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 149
    0x3c, 0x05, 0x6c, 0x49, 0x14, 0x39, 0xa3, 0x44, // checksum
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // id 4
    0x03, 0x00, 0x00, 0x00, // 3 metrics
    0x00, 0x00, 0x00, 0x00, // metric id 0 (u32)
    0x04, 0x00, 0x00, 0x00, 0x68, 0x69, 0x74, 0x73, // name "hits"
    0x00, 0x29, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counter 41
    0x17, 0x00, 0x00, 0x00, // metric id 23
    0x04, 0x00, 0x00, 0x00, 0x70, 0x65, 0x61, 0x6b, // name "peak"
    0x01, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // gauge 1024
    0x08, 0x00, 0x00, 0x00, // metric id 8
    0x04, 0x00, 0x00, 0x00, 0x77, 0x61, 0x69, 0x74, // name "wait"
    0x02, // histogram: count 3, sum 60, max 30, p50 20, p90 30, p99 30
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x3c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x01, 0x00, 0x00, 0x00, // 1 trace
    0x02, 0x00, 0x00, 0x00, 0x63, 0x31, // name "c1"
    0x01, 0x01, // deduped, outcome 1 (ok)
    0x02, 0x00, 0x00, 0x00, // 2 stages
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stage 0 (submitted) at 0 µs
    0x07, 0xfa, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // stage 7 (replied) at 250 µs
];

/// The format v3 headers of the goldens above: version 3, the same kind
/// and payload length, and the XXH64 checksum of the same payload.
const REQUEST_V3_HEADER: [u8; HEADER_LEN] = [
    0x4d, 0x56, 0x51, 0x41, 0x03, 0x00, 0x04, // magic "MVQA", version 3, kind 4
    0x8a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 138
    0x43, 0x87, 0x6d, 0xad, 0x88, 0xd8, 0x74, 0x38, // XXH64 payload checksum
];
const RESPONSE_OK_V3_HEADER: [u8; HEADER_LEN] = [
    0x4d, 0x56, 0x51, 0x41, 0x03, 0x00, 0x05, // magic, version 3, kind 5
    0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 17
    0xd5, 0x9e, 0x2c, 0x34, 0xca, 0x10, 0xd1, 0xe7, // checksum
];
const RESPONSE_ERR_V3_HEADER: [u8; HEADER_LEN] = [
    0x4d, 0x56, 0x51, 0x41, 0x03, 0x00, 0x05, // magic, version 3, kind 5
    0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 18
    0x25, 0x73, 0x68, 0xc4, 0xf2, 0x00, 0x91, 0x3d, // checksum
];
const STATS_REQUEST_V3_HEADER: [u8; HEADER_LEN] = [
    0x4d, 0x56, 0x51, 0x41, 0x03, 0x00, 0x07, // magic, version 3, kind 7
    0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 12
    0x68, 0x97, 0xba, 0x24, 0x08, 0x59, 0x9f, 0xf4, // checksum
];
const STATS_REPLY_V3_HEADER: [u8; HEADER_LEN] = [
    0x4d, 0x56, 0x51, 0x41, 0x03, 0x00, 0x08, // magic, version 3, kind 8
    0x95, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload length 149
    0x0c, 0x61, 0x8a, 0xe5, 0x8d, 0x0b, 0x2e, 0xf1, // checksum
];

/// The v3 golden frame: `v3_header`, then `v2_golden`'s payload.
fn v3(v3_header: [u8; HEADER_LEN], v2_golden: &[u8]) -> Vec<u8> {
    [&v3_header[..], &v2_golden[HEADER_LEN..]].concat()
}

const DRIFT: &str = "wire layout drifted — every deployed client/server pair breaks";

#[test]
fn wire_request_golden_frame_is_pinned() {
    let req = golden_request();
    let golden = v3(REQUEST_V3_HEADER, &REQUEST_GOLDEN);
    assert_eq!(req.encode().unwrap(), golden, "{DRIFT}");
    for frame in [&golden[..], &REQUEST_GOLDEN[..]] {
        let decoded = WireRequest::decode(frame).expect("golden request decodes");
        // WireRequest has no PartialEq; Debug covers every field and each f32
        assert_eq!(format!("{decoded:?}"), format!("{req:?}"));
    }
}

#[test]
fn wire_response_golden_frames_are_pinned() {
    let ok = WireResponse::Ok { id: 1, name: "c1".into(), from_cache: true, deduped: false };
    let err =
        WireResponse::Err { id: 2, kind: WireErrorKind::CancelledDeadline, message: "late".into() };
    for (value, header, v2) in [
        (ok, RESPONSE_OK_V3_HEADER, &RESPONSE_OK_GOLDEN[..]),
        (err, RESPONSE_ERR_V3_HEADER, &RESPONSE_ERR_GOLDEN[..]),
    ] {
        let golden = v3(header, v2);
        assert_eq!(value.encode().unwrap(), golden, "{DRIFT}");
        for frame in [&golden[..], v2] {
            assert_eq!(WireResponse::decode(frame).expect("golden response decodes"), value);
        }
    }
}

#[test]
fn wire_stats_golden_frames_are_pinned() {
    let req = WireStatsRequest { id: 3, max_traces: 16 };
    let golden = v3(STATS_REQUEST_V3_HEADER, &STATS_REQUEST_GOLDEN);
    assert_eq!(req.encode(), golden, "{DRIFT}");
    for frame in [&golden[..], &STATS_REQUEST_GOLDEN[..]] {
        assert_eq!(WireStatsRequest::decode(frame).unwrap(), req);
    }
    let reply = golden_stats_reply();
    let golden = v3(STATS_REPLY_V3_HEADER, &STATS_REPLY_GOLDEN);
    assert_eq!(reply.encode().unwrap(), golden, "{DRIFT}");
    for frame in [&golden[..], &STATS_REPLY_GOLDEN[..]] {
        assert_eq!(WireStatsReply::decode(frame).unwrap(), reply);
    }
}

/// Cuts `frame`'s payload at every length and re-frames each prefix, so
/// the checksum holds and only the codec's field bounds can catch the cut.
fn assert_every_cut_is_a_codec_error<T: std::fmt::Debug>(
    frame: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, MvqError>,
) {
    let kind = peek_kind(frame).expect("a known blob kind");
    let payload = &frame[HEADER_LEN..];
    for len in 0..payload.len() {
        match decode(&frame_blob(kind, payload[..len].to_vec())) {
            Err(MvqError::Codec(_)) => {}
            other => panic!("{kind:?} payload cut to {len} of {}: {other:?}", payload.len()),
        }
    }
}

#[test]
fn every_truncated_payload_is_a_codec_error() {
    assert_every_cut_is_a_codec_error(&REQUEST_GOLDEN, WireRequest::decode);
    assert_every_cut_is_a_codec_error(&RESPONSE_OK_GOLDEN, WireResponse::decode);
    assert_every_cut_is_a_codec_error(&RESPONSE_ERR_GOLDEN, WireResponse::decode);
    assert_every_cut_is_a_codec_error(&STATS_REQUEST_GOLDEN, WireStatsRequest::decode);
    assert_every_cut_is_a_codec_error(&STATS_REPLY_GOLDEN, WireStatsReply::decode);
    let weight = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut StdRng::seed_from_u64(3));
    let spec = PipelineSpec { k: 8, ..PipelineSpec::default() };
    let mvq = by_name("mvq", &spec).unwrap();
    let artifact = mvq.compress_matrix(&weight, &mut StdRng::seed_from_u64(5)).unwrap();
    assert_every_cut_is_a_codec_error(
        &artifact.to_bytes().unwrap(),
        CompressedArtifact::from_bytes,
    );
}

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn with_peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

#[test]
fn dims_declaring_4g_values_fail_before_allocating() {
    // the golden request up to its weight's rank byte (the last 33 bytes
    // are rank, two dims and four values), then dims of 65536 × 65535 —
    // just under the u32::MAX value cap — and not one value
    let mut payload = REQUEST_GOLDEN[HEADER_LEN..REQUEST_GOLDEN.len() - 33].to_vec();
    payload.push(2);
    payload.extend_from_slice(&65536u64.to_le_bytes());
    payload.extend_from_slice(&65535u64.to_le_bytes());
    let frame = frame_blob(BlobKind::WireRequest, payload);
    let (decoded, peak) = with_peak_alloc(|| WireRequest::decode(&frame));
    assert!(matches!(decoded, Err(MvqError::Codec(_))), "{decoded:?}");
    assert!(peak < 1 << 16, "decode reserved {peak} bytes for values it was never sent");
}

#[test]
fn a_v1_permutation_length_fails_before_allocating() {
    // a PQF artifact rewritten as a format-v1 blob (variant tag 2, dense
    // permutation) whose permutation claims u64::MAX entries and has none
    let weight = mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut StdRng::seed_from_u64(3));
    let spec = PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() };
    let pqf = by_name("pqf", &spec).unwrap();
    let artifact = pqf.compress_matrix(&weight, &mut StdRng::seed_from_u64(5)).unwrap();
    let CompressedArtifact::Permuted(p) = &artifact else { panic!("pqf gave {artifact:?}") };
    let moved = p.permutation().iter().enumerate().filter(|&(i, &src)| i != src).count();
    let bytes = artifact.to_bytes().unwrap();
    // the sparse permutation closes the payload: length, moved count, pairs
    let mut payload = bytes[HEADER_LEN..bytes.len() - 16 - 16 * moved].to_vec();
    payload[0] = 2;
    payload.extend_from_slice(&u64::MAX.to_le_bytes());
    let blob = v1_artifact_blob(payload);
    let (decoded, peak) = with_peak_alloc(|| CompressedArtifact::from_bytes(&blob));
    assert!(matches!(decoded, Err(MvqError::Codec(_))), "{decoded:?}");
    assert!(peak < 1 << 16, "decode reserved {peak} bytes for indices it was never sent");
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
fn record_counts_fail_before_reserving_records() {
    // a stats reply claiming u32::MAX metrics and a model claiming
    // u64::MAX layers, neither carrying a single record
    let mut stats = 4u64.to_le_bytes().to_vec();
    stats.extend_from_slice(&u32::MAX.to_le_bytes());
    let stats = frame_blob(BlobKind::StatsResponse, stats);
    let (decoded, peak) = with_peak_alloc(|| WireStatsReply::decode(&stats));
    assert!(matches!(decoded, Err(MvqError::Codec(_))), "{decoded:?}");
    assert!(peak < 1 << 16, "stats decode reserved {peak} bytes for metrics it was never sent");

    let mut model = 3u32.to_le_bytes().to_vec();
    model.extend_from_slice(b"mvq");
    model.extend_from_slice(&u64::MAX.to_le_bytes());
    let model = frame_blob(BlobKind::Model, model);
    let (decoded, peak) = with_peak_alloc(|| ModelArtifacts::from_bytes(&model));
    assert!(matches!(decoded, Err(MvqError::Codec(_))), "{decoded:?}");
    assert!(peak < 1 << 16, "model decode reserved {peak} bytes for layers it was never sent");
}
