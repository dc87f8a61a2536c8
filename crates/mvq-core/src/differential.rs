//! Differential oracle harness for the distance/assignment kernels.
//!
//! The validation convention has one contract tier (see
//! [`crate::kernels`]): a kernel must match the naive oracle with **exact
//! assignment equality** (ties broken to the lowest codeword index) and
//! **0-ULP SSE**. A future reassociating kernel (FMA, say) would re-add a
//! looser tier alongside a newly appended tag pin.
//!
//! This module is the reusable machinery behind that convention: it runs
//! a candidate kernel against the oracle over randomized
//! shapes/masks/seeds — with constructed duplicate-codeword ties injected
//! at a fixed cadence — and reports assignment mismatches, tie-breaking
//! violations, and the maximum ULP divergence of the reported SSE.
//! `tests/properties.rs` drives it as the acceptance gate;
//! `bench_kernels` reuses [`ulp_distance`] so the recorded numbers share
//! the harness's definition of divergence.
//!
//! ```
//! use mvq_core::differential::{compare_masked, DiffConfig};
//! use mvq_core::KernelStrategy;
//!
//! let report = compare_masked(KernelStrategy::Blocked, &DiffConfig::quick())?;
//! assert_eq!(report.assignment_mismatches, 0);
//! assert_eq!(report.max_sse_ulp, 0);
//! # Ok::<(), mvq_core::MvqError>(())
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mvq_tensor::Tensor;

use crate::error::MvqError;
use crate::kernels::{dense_assign_with, masked_assign_with, masked_sse_with, KernelStrategy};
use crate::pruning::prune_matrix_nm;

/// How a differential run generates its randomized cases.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Randomized cases to run (the registry acceptance bar is ≥ 256).
    pub cases: usize,
    /// Master seed; every case derives its own `StdRng` from it, so a run
    /// is reproducible end to end.
    pub seed: u64,
    /// Subvector counts are drawn from `1..=max_ng`.
    pub max_ng: usize,
    /// Codebook sizes are drawn from `1..=max_k`.
    pub max_k: usize,
    /// `(keep_n, m, d)` shape triples cases cycle through; `d` values
    /// should straddle a vector's width (not divide it, equal it, exceed
    /// it).
    pub shapes: Vec<(usize, usize, usize)>,
    /// Every `tie_every`-th case duplicates one codeword at a higher
    /// index — a constructed exact tie that checks lowest-index breaking
    /// on both kernels. `0` disables injection.
    pub tie_every: usize,
    /// Half-width of the uniform data/codeword distribution.
    pub range: f32,
}

impl Default for DiffConfig {
    /// The registry acceptance configuration: 256 cases over shapes that
    /// straddle every vector/block boundary, ties injected every 8th case.
    fn default() -> DiffConfig {
        DiffConfig {
            cases: 256,
            seed: 0xD1FF_0AC1E,
            max_ng: 96,
            max_k: 40,
            shapes: vec![(1, 2, 4), (2, 4, 4), (2, 4, 8), (3, 4, 12), (4, 8, 8), (4, 16, 16)],
            tie_every: 8,
            range: 2.0,
        }
    }
}

impl DiffConfig {
    /// A smaller run for doctests and smoke checks.
    pub fn quick() -> DiffConfig {
        DiffConfig { cases: 16, ..DiffConfig::default() }
    }
}

/// Outcome of a differential run of one kernel against the oracle.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Cases executed.
    pub cases: usize,
    /// Cases whose assignment vectors were not exactly equal.
    pub assignment_mismatches: usize,
    /// Human-readable description of the first divergence, for test
    /// failure messages.
    pub first_divergence: Option<String>,
    /// Maximum [`ulp_distance`] between the two kernels' SSEs across all
    /// cases (0 means bit-identical everywhere, the contract).
    pub max_sse_ulp: u32,
    /// Rows (counted once per row) where either kernel resolved an
    /// injected duplicate-codeword tie to one of the duplicates.
    pub tie_rows: usize,
    /// Per-kernel choices of the *higher* duplicate — violations of the
    /// lowest-index rule (a row both kernels break counts twice).
    pub tie_break_violations: usize,
}

impl DiffReport {
    /// True when every case produced exactly equal assignments and no tie
    /// was broken upward.
    pub fn assignments_identical(&self) -> bool {
        self.assignment_mismatches == 0 && self.tie_break_violations == 0
    }
}

/// Bit-level distance between two f32 values in units in the last place,
/// saturating at `u32::MAX` (which is also returned when either value is
/// NaN). `+0.0` and `−0.0` are 0 ULPs apart.
pub fn ulp_distance(a: f32, b: f32) -> u32 {
    fn key(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            -((bits & 0x7FFF_FFFF) as i64)
        } else {
            bits as i64
        }
    }
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    (key(a) - key(b)).unsigned_abs().try_into().unwrap_or(u32::MAX)
}

/// One randomized case: data, mask, codebook, and (when a tie was
/// injected) the `(low, high)` duplicate codeword pair.
pub(crate) struct Case {
    pub(crate) data: Tensor,
    pub(crate) mask: crate::NmMask,
    pub(crate) centers: Tensor,
    dup: Option<(u32, u32)>,
}

pub(crate) fn build_case(
    cfg: &DiffConfig,
    index: usize,
    rng: &mut StdRng,
) -> Result<Case, MvqError> {
    let (n, m, d) = cfg.shapes[index % cfg.shapes.len()];
    let ng = rng.gen_range(1..=cfg.max_ng);
    let k = rng.gen_range(1..=cfg.max_k);
    let data = mvq_tensor::uniform(vec![ng, d], -cfg.range, cfg.range, rng);
    // masks come from pruning an *independent* matrix, so masked lanes of
    // `data` need not hold zeros — kernels must agree regardless
    let mask_src = mvq_tensor::uniform(vec![ng, d], -1.0, 1.0, rng);
    let (_, mask) = prune_matrix_nm(&mask_src, n, m)?;
    let mut centers = mvq_tensor::uniform(vec![k, d], -cfg.range, cfg.range, rng);
    let dup = if cfg.tie_every > 0 && index.is_multiple_of(cfg.tie_every) && k >= 2 {
        let lo = rng.gen_range(0..k - 1);
        let hi = rng.gen_range(lo + 1..k);
        let src = centers.row(lo).to_vec();
        centers.row_mut(hi).copy_from_slice(&src);
        Some((lo as u32, hi as u32))
    } else {
        None
    };
    Ok(Case { data, mask, centers, dup })
}

/// Folds one case's paired assignments/SSEs into `report`.
#[allow(clippy::too_many_arguments)]
fn record(
    report: &mut DiffReport,
    case_no: usize,
    label: &str,
    assign_a: &[u32],
    assign_b: &[u32],
    sse_a: f32,
    sse_b: f32,
    dup: Option<(u32, u32)>,
) {
    report.cases += 1;
    if assign_a != assign_b {
        report.assignment_mismatches += 1;
        if report.first_divergence.is_none() {
            let row = assign_a.iter().zip(assign_b).position(|(x, y)| x != y).unwrap_or(0);
            report.first_divergence = Some(format!(
                "case {case_no} ({label}): row {row} assigned {} vs {}",
                assign_a[row], assign_b[row]
            ));
        }
    }
    if let Some((lo, hi)) = dup {
        for (&a, &b) in assign_a.iter().zip(assign_b) {
            // a row "faced" the tie when either kernel resolved it to one
            // of the duplicates; counted once per row
            if a == lo || a == hi || b == lo || b == hi {
                report.tie_rows += 1;
            }
            // violations are counted per kernel choice (a row both
            // kernels got wrong counts twice)
            for chosen in [a, b] {
                if chosen == hi {
                    report.tie_break_violations += 1;
                    if report.first_divergence.is_none() {
                        report.first_divergence = Some(format!(
                            "case {case_no} ({label}): duplicate codeword {hi} chosen over {lo}"
                        ));
                    }
                }
            }
        }
    }
    report.max_sse_ulp = report.max_sse_ulp.max(ulp_distance(sse_a, sse_b));
}

/// Runs `cfg.cases` randomized masked cases through the naive oracle and
/// `candidate`, and reports assignment equality, tie-breaking, and SSE
/// ULP divergence — the registry acceptance entry point.
///
/// # Errors
///
/// Propagates kernel validation errors (the generated cases are always
/// well-formed, so an error here is a harness bug).
pub fn compare_masked(candidate: KernelStrategy, cfg: &DiffConfig) -> Result<DiffReport, MvqError> {
    let (a, b) = (KernelStrategy::Naive, candidate);
    let mut report = DiffReport::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for case_no in 0..cfg.cases {
        let case = build_case(cfg, case_no, &mut rng)?;
        let assign_a = masked_assign_with(a, &case.data, &case.mask, &case.centers)?;
        let assign_b = masked_assign_with(b, &case.data, &case.mask, &case.centers)?;
        // each kernel scores its *own* assignments so an assignment
        // mismatch cannot masquerade as SSE divergence; when assignments
        // agree (the contract) this compares the same point set
        let sse_a = masked_sse_with(a, &case.data, &case.mask, &case.centers, &assign_a)?;
        let sse_b = masked_sse_with(b, &case.data, &case.mask, &case.centers, &assign_b)?;
        record(&mut report, case_no, "masked", &assign_a, &assign_b, sse_a, sse_b, case.dup);
    }
    Ok(report)
}

/// Runs `cfg.cases` randomized *dense* cases (no mask) through the naive
/// oracle and `candidate`. SSE is not part of the dense kernel surface,
/// so the report's `max_sse_ulp` stays 0.
///
/// # Errors
///
/// Propagates kernel validation errors.
pub fn compare_dense(candidate: KernelStrategy, cfg: &DiffConfig) -> Result<DiffReport, MvqError> {
    let mut report = DiffReport::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for case_no in 0..cfg.cases {
        let case = build_case(cfg, case_no, &mut rng)?;
        let assign_a = dense_assign_with(KernelStrategy::Naive, &case.data, &case.centers)?;
        let assign_b = dense_assign_with(candidate, &case.data, &case.centers)?;
        record(&mut report, case_no, "dense", &assign_a, &assign_b, 0.0, 0.0, case.dup);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(-1.0, f32::from_bits((-1.0f32).to_bits() + 1)), 1);
        // straddling zero: distance is the sum of both sides' offsets
        assert_eq!(ulp_distance(f32::from_bits(2), -f32::from_bits(3)), 5);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u32::MAX);
        // the full finite span still fits in u32 (2 × 0x7F7F_FFFF)
        assert_eq!(ulp_distance(f32::MAX, f32::MIN), 4_278_190_078);
    }

    #[test]
    fn oracle_compared_to_itself_is_exact() {
        let report = compare_masked(KernelStrategy::Naive, &DiffConfig::quick()).unwrap();
        assert_eq!(report.cases, 16);
        assert!(report.assignments_identical(), "{report:?}");
        assert_eq!(report.max_sse_ulp, 0);
        assert!(report.tie_rows > 0, "tie injection never fired");
    }

    #[test]
    fn harness_catches_a_deliberately_broken_kernel() {
        // A "kernel" that breaks ties upward: feed the harness assignments
        // that prefer the higher duplicate and confirm it notices. We
        // simulate by comparing naive against naive but post-processing
        // through record(): simpler to validate record() directly.
        let mut report = DiffReport::default();
        super::record(&mut report, 0, "masked", &[0, 1], &[0, 2], 1.0, 1.0, Some((1, 2)));
        assert_eq!(report.assignment_mismatches, 1);
        assert_eq!(report.tie_break_violations, 1);
        assert!(report.first_divergence.is_some());
        let mut report = DiffReport::default();
        super::record(&mut report, 0, "masked", &[0], &[0], 1.0, 1.0000001, None);
        assert!(report.max_sse_ulp > 0);
    }
}
