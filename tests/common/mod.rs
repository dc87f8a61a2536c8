//! Helpers shared by the serving integration tests (`tests/net.rs`,
//! `tests/obs.rs`).

use std::time::{Duration, Instant};

use mvq::core::pipeline::PipelineSpec;
use mvq::serve::CompressionRequest;
use mvq::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn weight(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    mvq::tensor::kaiming_normal(vec![32, 16], 16, &mut rng)
}

pub fn quick_spec() -> PipelineSpec {
    PipelineSpec { k: 8, swap_trials: 100, ..PipelineSpec::default() }
}

/// A request that keeps a worker busy while a test arranges queue state
/// behind it: measured 40–74 ms in release and 3.7–5.3 s in debug on a
/// 2-core x86_64 Xeon VM, over the seeds these tests use. Release is the
/// narrowest window, still about a thousand times the µs-scale races it
/// has to outlast. The tiny 32×16 requests converge in well under a
/// millisecond, and mvq never reads `swap_trials`, so the blocker needs
/// a genuinely large codebook problem.
pub fn blocker_request(seed: u64) -> CompressionRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = mvq::tensor::kaiming_normal(vec![1024, 64], 64, &mut rng);
    CompressionRequest::builder("blocker", w, "mvq")
        .spec(PipelineSpec { k: 256, ..PipelineSpec::default() })
        .seed(1)
        .build()
        .expect("build blocker")
}

/// Spins until `cond` holds, panicking with `what` after 60 s.
pub fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::yield_now();
    }
}
