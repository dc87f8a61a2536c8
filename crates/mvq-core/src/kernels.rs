//! The center-major mask-aware distance/assignment kernel — the hot loop
//! of every clustering-based compressor in the registry.
//!
//! Masked k-means (and the dense k-means the baselines run) spend almost
//! all of their time computing `argmin_i ‖w_j − c_i ∘ bm_j‖²` over all
//! subvectors × codewords. This module provides two interchangeable
//! implementations selected by [`KernelStrategy`]:
//!
//! * **`Naive`** — the per-row reference ([`crate::masked_assign_naive`]
//!   for the masked case, [`dense_assign_naive`] for the dense case). This
//!   is the *oracle*: the fast kernel is validated against it, and its
//!   fixed left-to-right f32 accumulation order defines the bit pattern
//!   that kernel must reproduce.
//! * **`Blocked`** (the default) — the center-major kernel, vectorized
//!   *across codewords*. The mask is applied branch-free through the
//!   existing [`MaskLut`] path: each subvector's M-groups are encoded to
//!   LUT indices once, deduplicated into distinct patterns, and decoded
//!   back into 0.0/1.0 lane multipliers (a [`MaskedDistancePlan`]). Once
//!   per assignment pass the `k × d` codebook is transposed into blocks of
//!   eight codewords, so lane `t` of a block is one `[f32; 8]` holding lane
//!   `t` of eight codewords. For each row the kernel then runs
//!   `acc[l] += (w[t] − c[t][l]·m[t])²` over `t` ascending, one vector op
//!   per step covering eight codewords, four accumulator vectors in flight
//!   per pass (four blocks of one row, or four rows when `k ≤ 8`).
//!   **Why this is bit-identical to the oracle:** vector lane `l` *is*
//!   one `(subvector, codeword)` distance, and it adds that distance's
//!   lane terms in exactly the oracle's order (`t` ascending, from
//!   `+0.0`), with separate mul, sub, mul and add steps — no FMA (Rust
//!   never contracts a mul and an add) and no reassociation. The argmin
//!   keeps a per-lane running minimum over blocks in ascending order with
//!   strict `<`, then takes the lowest index among the lanes tied at the
//!   minimum: the oracle's first minimizer. Assignments and SSE are
//!   therefore 0-ULP identical. The body is one generic function compiled
//!   twice: portable, and with `#[target_feature(enable = "avx2")]`,
//!   picked once per process by run-time CPU detection
//!   ([`dispatched_backend`] reports which ran).
//!
//! ## Why `c[t] * multiplier[t]` is bit-identical to the branchy oracle
//!
//! For a kept lane the multiplier is `1.0` and `c * 1.0 == c` bitwise. For
//! a pruned lane the multiplier is `0.0` and `c * 0.0` is `±0.0`; the
//! subtraction `w − ±0.0` can then differ from the oracle's `w − 0.0` only
//! in the sign of a zero, and squaring erases that sign. Every term added
//! to the accumulator is therefore bit-equal to the oracle's term; only
//! the *order* the terms are added in could tell the two apart.
//!
//! ## Validation convention
//!
//! New kernels must not reach the registry until they pass the
//! differential oracle harness ([`crate::differential`], driven from
//! `tests/properties.rs`) over randomized shapes, masks and seeds, in both
//! debug and `--release` builds (the release run and the CI
//! `target-cpu=native` leg are what catch fast-math / target-feature
//! reassociation regressions). There is one contract: exact assignment
//! equality *and* 0-ULP SSE equality against the naive oracle. A future
//! reassociating kernel (an FMA tier, say) re-adds its own looser tier
//! together with a newly appended tag and pin.

use std::str::FromStr;

use mvq_tensor::Tensor;

use crate::error::MvqError;
use crate::mask::NmMask;
use crate::mask_lut::MaskLut;
use crate::masked_kmeans::masked_assign_naive;

/// Which distance/assignment kernel the clustering loops dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelStrategy {
    /// Per-row reference kernels — the oracle all others are tested
    /// against.
    Naive,
    /// Center-major, LUT-masked kernels vectorized across codewords, with
    /// a run-time-detected AVX2 instantiation. Each codeword's distance
    /// still adds its lanes in ascending order, so assignments and SSE are
    /// bit-identical to `Naive` on every backend.
    #[default]
    Blocked,
}

impl KernelStrategy {
    /// Every strategy, in tag order — the canonical iteration set for
    /// tests and benches.
    pub const ALL: [KernelStrategy; 2] = [KernelStrategy::Naive, KernelStrategy::Blocked];

    /// Registry-style name (`naive` / `blocked`).
    pub fn name(self) -> &'static str {
        match self {
            KernelStrategy::Naive => "naive",
            KernelStrategy::Blocked => "blocked",
        }
    }
}

impl FromStr for KernelStrategy {
    type Err = MvqError;

    /// Case-insensitive inverse of [`KernelStrategy::name`] — the one
    /// parser every consumer that names strategies (benches, CLIs, specs)
    /// must go through, so unknown names fail identically everywhere.
    fn from_str(s: &str) -> Result<KernelStrategy, MvqError> {
        KernelStrategy::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s.trim()))
            .ok_or_else(|| {
                let known: Vec<&str> = KernelStrategy::ALL.iter().map(|k| k.name()).collect();
                MvqError::InvalidConfig(format!(
                    "unknown kernel strategy `{s}` (known: {})",
                    known.join(", ")
                ))
            })
    }
}

/// The backend `strategy`'s assignment kernel runs on this CPU in this
/// build — what the run-time dispatch actually picks, so benches and
/// reports record the code that ran rather than guess it from their own
/// build flags.
pub fn dispatched_backend(strategy: KernelStrategy) -> &'static str {
    match strategy {
        KernelStrategy::Naive => "scalar",
        KernelStrategy::Blocked => {
            #[cfg(target_arch = "x86_64")]
            if x86::avx2_available() {
                return "avx2";
            }
            "portable"
        }
    }
}

/// Codewords per block of the center-major codebook: one 256-bit vector
/// of f32 distance accumulators.
const CENTER_BLOCK: usize = 8;
/// Accumulator vectors in flight per pass over the lanes (rows × codeword
/// blocks): enough independent add chains to hide the add latency.
const ACCS_PER_PASS: usize = 4;

/// Precomputed mask state for the blocked kernels: every subvector's
/// M-groups encoded through the [`MaskLut`], deduplicated into distinct
/// row patterns, and decoded back into f32 lane multipliers.
#[derive(Debug, Clone)]
pub struct MaskedDistancePlan {
    d: usize,
    /// Pattern id per subvector.
    pattern_of: Vec<u32>,
    /// `[n_patterns × d]` row-major 0.0/1.0 multipliers.
    multipliers: Vec<f32>,
}

impl MaskedDistancePlan {
    /// Builds the plan for `mask` by round-tripping every M-group through
    /// the [`MaskLut`] encoder — the same compact-index path the simulated
    /// hardware weight loader uses.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when the mask's N:M pair cannot
    /// form a LUT (propagated from [`MaskLut::new`]).
    pub fn new(mask: &NmMask) -> Result<MaskedDistancePlan, MvqError> {
        let (ng, d, m) = (mask.ng(), mask.d(), mask.m());
        let lut = MaskLut::new(mask.keep_n(), m)?;
        let groups = d / m;
        // Encode each row's groups to LUT indices; the index vector is the
        // dedup key, so identical mask rows share one multiplier pattern.
        let mut pattern_of = Vec::with_capacity(ng);
        let mut multipliers: Vec<f32> = Vec::new();
        let mut lookup: std::collections::HashMap<Vec<u32>, u32> = std::collections::HashMap::new();
        for j in 0..ng {
            let row = mask.row(j);
            let mut key = Vec::with_capacity(groups);
            for g in 0..groups {
                key.push(lut.encode(&row[g * m..(g + 1) * m])?);
            }
            let next = (multipliers.len() / d.max(1)) as u32;
            let id = *lookup.entry(key.clone()).or_insert_with(|| {
                // decode back through the LUT so the multipliers come from
                // the same table the hardware loader reads
                for &idx in &key {
                    let bits = lut.decode(idx).expect("encoded above");
                    multipliers.extend(bits.iter().map(|&b| if b { 1.0 } else { 0.0 }));
                }
                next
            });
            pattern_of.push(id);
        }
        Ok(MaskedDistancePlan { d, pattern_of, multipliers })
    }

    /// Number of distinct mask patterns across the subvectors.
    pub fn pattern_count(&self) -> usize {
        self.multipliers.len().checked_div(self.d).unwrap_or(0)
    }

    /// The dense "plan": one all-ones pattern shared by every subvector.
    /// `c * 1.0` is bitwise `c`, so the masked kernels run unmasked data
    /// with zero divergence from [`dense_assign_naive`] — the dense and
    /// masked blocked kernels are one implementation.
    pub(crate) fn dense(d: usize) -> MaskedDistancePlan {
        MaskedDistancePlan { d, pattern_of: Vec::new(), multipliers: vec![1.0; d] }
    }

    /// The 0.0/1.0 lane multipliers for subvector `j`.
    #[inline]
    pub(crate) fn multiplier_row(&self, j: usize) -> &[f32] {
        let p = self.pattern_of.get(j).map_or(0, |&p| p as usize);
        &self.multipliers[p * self.d..(p + 1) * self.d]
    }
}

fn validate_assign_inputs(
    data: &Tensor,
    centers: &Tensor,
    mask: Option<&NmMask>,
) -> Result<(usize, usize, usize), MvqError> {
    if data.rank() != 2 || data.numel() == 0 {
        return Err(MvqError::InvalidConfig(format!(
            "assignment kernels expect a non-empty [NG, d] matrix, got {:?}",
            data.dims()
        )));
    }
    let (ng, d) = (data.dims()[0], data.dims()[1]);
    if centers.rank() != 2 || centers.dims()[0] == 0 || centers.dims()[1] != d {
        return Err(MvqError::InvalidConfig(format!(
            "centers {:?} do not match data [{ng}, {d}]",
            centers.dims()
        )));
    }
    if let Some(mask) = mask {
        if mask.ng() != ng || mask.d() != d {
            return Err(MvqError::InvalidConfig(format!(
                "mask [{}, {}] does not match data [{ng}, {d}]",
                mask.ng(),
                mask.d()
            )));
        }
    }
    Ok((ng, d, centers.dims()[0]))
}

/// Masked nearest-codeword assignment via the kernel selected by
/// `strategy`.
///
/// The equivalence guarantees assume finite codeword values: a ±inf/NaN
/// codeword lane that the mask prunes contributes `NaN` under the
/// multiplier kernel's (`Blocked`) `c * 0.0` but `0.0` under the
/// oracle's branch, so the strategies may then disagree on that codeword.
/// Every codebook this crate produces is finite; shapes are validated
/// here, finiteness is not.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for empty data, empty codebooks, or
/// mask/data/center shape mismatches.
pub fn masked_assign_with(
    strategy: KernelStrategy,
    data: &Tensor,
    mask: &NmMask,
    centers: &Tensor,
) -> Result<Vec<u32>, MvqError> {
    validate_assign_inputs(data, centers, Some(mask))?;
    match strategy {
        KernelStrategy::Naive => Ok(masked_assign_naive(data, mask, centers)),
        KernelStrategy::Blocked => {
            let plan = MaskedDistancePlan::new(mask)?;
            let mut assign = vec![0u32; data.dims()[0]];
            masked_assign_blocked_into(data, &plan, centers, &mut assign);
            Ok(assign)
        }
    }
}

/// Masked SSE `Σ_j ‖w_j − c_{a_j} ∘ bm_j‖²` via the kernel selected by
/// `strategy`. Both strategies are 0-ULP identical (f64 accumulation in
/// row order).
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] on shape mismatches or assignments
/// out of range.
pub fn masked_sse_with(
    strategy: KernelStrategy,
    data: &Tensor,
    mask: &NmMask,
    centers: &Tensor,
    assign: &[u32],
) -> Result<f32, MvqError> {
    let (ng, _, k) = validate_assign_inputs(data, centers, Some(mask))?;
    if assign.len() != ng {
        return Err(MvqError::InvalidConfig(format!(
            "{} assignments for {ng} subvectors",
            assign.len()
        )));
    }
    if assign.iter().any(|&a| a as usize >= k) {
        return Err(MvqError::InvalidConfig(format!("assignment out of range for k = {k}")));
    }
    match strategy {
        KernelStrategy::Naive => {
            Ok(crate::masked_kmeans::masked_sse_naive(data, mask, centers, assign))
        }
        KernelStrategy::Blocked => {
            let plan = MaskedDistancePlan::new(mask)?;
            Ok(masked_sse_blocked(data, &plan, centers, assign))
        }
    }
}

/// One masked assignment pass writing into `assign`; returns the number of
/// changed assignments. Shapes must be pre-validated (the k-means loops
/// own validation); `plan` is only required — and only read — for the
/// blocked strategy.
pub(crate) fn masked_assign_step(
    strategy: KernelStrategy,
    data: &Tensor,
    mask: &NmMask,
    plan: Option<&MaskedDistancePlan>,
    centers: &Tensor,
    assign: &mut [u32],
) -> usize {
    match strategy {
        KernelStrategy::Naive => {
            let fresh = masked_assign_naive(data, mask, centers);
            let mut changed = 0;
            for (slot, new) in assign.iter_mut().zip(fresh) {
                if *slot != new {
                    *slot = new;
                    changed += 1;
                }
            }
            changed
        }
        KernelStrategy::Blocked => {
            let plan = plan.expect("the blocked strategy requires a mask plan");
            masked_assign_blocked_into(data, plan, centers, assign)
        }
    }
}

/// The blocked masked-assignment kernel.
///
/// Transposes the codebook center-major once per call ([`center_major`]),
/// then measures [`CENTER_BLOCK`] codewords per vector of accumulators,
/// [`ACCS_PER_PASS`] vectors (rows × blocks) per pass over the lanes.
/// Each `(j, i)` distance still adds its lane terms in ascending `t` with
/// separate mul/sub/mul/add steps, and the argmin visits codewords in
/// ascending index with strict `<`, so the result is bit-identical to
/// [`masked_assign_naive`]. Runs the AVX2 instantiation of the same body
/// when the CPU has it (detected once), the portable one otherwise.
pub(crate) fn masked_assign_blocked_into(
    data: &Tensor,
    plan: &MaskedDistancePlan,
    centers: &Tensor,
    assign: &mut [u32],
) -> usize {
    let ct = center_major(centers);
    let k = centers.dims()[0];
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: `avx2_available()` verified the `avx2` target feature at
        // runtime on this CPU.
        return unsafe { x86::assign_center_major_avx2(data, plan, &ct, k, assign) };
    }
    assign_center_major(data, plan, &ct, k, assign)
}

/// The `k × d` codebook transposed center-major: entry `b·d + t` holds lane
/// `t` of codewords `8b..8b+8`, so one vector load feeds eight codewords.
/// The last block is zero-padded past `k`; padded lanes are never compared.
fn center_major(centers: &Tensor) -> Vec<[f32; CENTER_BLOCK]> {
    let (k, d) = (centers.dims()[0], centers.dims()[1]);
    let mut ct = vec![[0.0f32; CENTER_BLOCK]; k.div_ceil(CENTER_BLOCK) * d];
    for i in 0..k {
        let (b, l) = (i / CENTER_BLOCK, i % CENTER_BLOCK);
        for (t, &c) in centers.row(i).iter().enumerate() {
            ct[b * d + t][l] = c;
        }
    }
    ct
}

/// The center-major assignment body shared by the portable and AVX2
/// instantiations. Returns the number of changed assignments. Each pass
/// keeps [`ACCS_PER_PASS`] accumulator vectors in flight: codeword blocks
/// of one row when the codebook is large, several rows against the same
/// blocks when it is small (k ≤ 8 runs four rows at once).
#[inline(always)]
fn assign_center_major(
    data: &Tensor,
    plan: &MaskedDistancePlan,
    ct: &[[f32; CENTER_BLOCK]],
    k: usize,
    assign: &mut [u32],
) -> usize {
    let blocks = ct.len() / data.dims()[1];
    if blocks == 1 {
        assign_rows::<ACCS_PER_PASS>(data, plan, ct, k, assign)
    } else {
        assign_rows::<1>(data, plan, ct, k, assign)
    }
}

/// [`assign_center_major`] over groups of `R` rows, the remainder one row
/// at a time.
#[inline(always)]
fn assign_rows<const R: usize>(
    data: &Tensor,
    plan: &MaskedDistancePlan,
    ct: &[[f32; CENTER_BLOCK]],
    k: usize,
    assign: &mut [u32],
) -> usize {
    let mut changed = 0usize;
    let mut update = |slot: &mut u32, best: u32| {
        if *slot != best {
            *slot = best;
            changed += 1;
        }
    };
    let tail = assign.len() - assign.len() % R;
    let (groups, rest) = assign.split_at_mut(tail);
    for (g, slots) in groups.chunks_exact_mut(R).enumerate() {
        let best = rows_argmin::<R>(data, plan, ct, k, g * R);
        for (slot, best) in slots.iter_mut().zip(best) {
            update(slot, best);
        }
    }
    for (j, slot) in rest.iter_mut().enumerate() {
        update(slot, rows_argmin::<1>(data, plan, ct, k, tail + j)[0]);
    }
    changed
}

/// Nearest codeword of rows `j0..j0 + R`: passes of up to
/// `ACCS_PER_PASS / R` codeword blocks, then each row's ascending
/// strict-`<` argmin.
#[inline(always)]
fn rows_argmin<const R: usize>(
    data: &Tensor,
    plan: &MaskedDistancePlan,
    ct: &[[f32; CENTER_BLOCK]],
    k: usize,
    j0: usize,
) -> [u32; R] {
    let d = data.dims()[1];
    let blocks = ct.len() / d;
    let (mut rows, mut mms) = ([&[][..]; R], [&[][..]; R]);
    for r in 0..R {
        (rows[r], mms[r]) = (&data.row(j0 + r)[..d], &plan.multiplier_row(j0 + r)[..d]);
    }
    let mut best = [LaneMin::new(); R];
    let mut b = 0;
    while b < blocks {
        let n = (blocks - b).min((ACCS_PER_PASS / R).max(1));
        let pass = &ct[b * d..(b + n) * d];
        match n {
            4 => argmin_pass::<R, 4>(&rows, &mms, pass, b, k, &mut best),
            3 => argmin_pass::<R, 3>(&rows, &mms, pass, b, k, &mut best),
            2 => argmin_pass::<R, 2>(&rows, &mms, pass, b, k, &mut best),
            _ => argmin_pass::<R, 1>(&rows, &mms, pass, b, k, &mut best),
        }
        b += n;
    }
    let mut out = [0u32; R];
    for (out, best) in out.iter_mut().zip(&best) {
        *out = best.first_min();
    }
    out
}

/// Distances from `R` rows to the `N` codeword blocks of `pass` (starting
/// at block `b0`), folded into each row's running minimum in ascending
/// codeword order. Lane `l` of accumulator `[r][n]` is the distance from
/// row `r` to codeword `8(b0 + n) + l`, and it adds its terms over `t`
/// ascending — the oracle's order, vectorized across codewords instead
/// of across lanes.
#[inline(always)]
fn argmin_pass<const R: usize, const N: usize>(
    rows: &[&[f32]; R],
    mms: &[&[f32]; R],
    pass: &[[f32; CENTER_BLOCK]],
    b0: usize,
    k: usize,
    best: &mut [LaneMin; R],
) {
    let d = rows[0].len();
    let pass = &pass[..N * d];
    let mut acc = [[[0.0f32; CENTER_BLOCK]; N]; R];
    for t in 0..d {
        for r in 0..R {
            let (w, m) = (rows[r][t], mms[r][t]);
            for n in 0..N {
                let c = &pass[n * d + t];
                for l in 0..CENTER_BLOCK {
                    let e = w - c[l] * m;
                    acc[r][n][l] += e * e;
                }
            }
        }
    }
    for (acc, best) in acc.iter_mut().zip(best) {
        for (n, a) in acc.iter_mut().enumerate() {
            let base = (b0 + n) * CENTER_BLOCK;
            // padded codewords past `k` must never win
            for v in a.iter_mut().skip(k.saturating_sub(base)) {
                *v = f32::INFINITY;
            }
            best.fold(a, base as u32);
        }
    }
}

/// Per-lane running minimum over codeword blocks: lane `l` keeps the
/// smallest distance among codewords `≡ l (mod 8)` seen so far and the
/// lowest index that reached it (strict `<`, blocks folded in ascending
/// order).
#[derive(Clone, Copy)]
struct LaneMin {
    dist: [f32; CENTER_BLOCK],
    index: [u32; CENTER_BLOCK],
}

impl LaneMin {
    #[inline(always)]
    fn new() -> LaneMin {
        LaneMin { dist: [f32::INFINITY; CENTER_BLOCK], index: [0; CENTER_BLOCK] }
    }

    /// Folds in one block of distances for codewords `base..base + 8`.
    #[inline(always)]
    fn fold(&mut self, block: &[f32; CENTER_BLOCK], base: u32) {
        for l in 0..CENTER_BLOCK {
            let better = block[l] < self.dist[l];
            self.dist[l] = if better { block[l] } else { self.dist[l] };
            self.index[l] = if better { base + l as u32 } else { self.index[l] };
        }
    }

    /// The oracle's argmin: the lowest codeword index holding the smallest
    /// distance, or 0 when no distance beat `+inf` (a lane never updated
    /// keeps `+inf` and index 0). Each lane already holds its own lowest
    /// minimizing index, so the lowest index among the lanes tied at the
    /// minimum is the first minimizer overall. Branch-free: both folds
    /// compile to selects.
    #[inline(always)]
    fn first_min(&self) -> u32 {
        let min = self.dist.iter().fold(f32::INFINITY, |m, &v| if v < m { v } else { m });
        self.dist
            .iter()
            .zip(&self.index)
            .fold(u32::MAX, |b, (&v, &i)| if v == min && i < b { i } else { b })
    }
}

/// The AVX2 instantiation of the center-major body. Same Rust source, so
/// the same operation order: `target_feature` only widens the vectors the
/// compiler may use, and Rust never contracts a mul and an add into an FMA.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use mvq_tensor::Tensor;

    use super::{assign_center_major, MaskedDistancePlan, CENTER_BLOCK};

    /// Whether this CPU supports AVX2 (checked once).
    pub(super) fn avx2_available() -> bool {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// `assign_center_major` compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support (see [`avx2_available`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn assign_center_major_avx2(
        data: &Tensor,
        plan: &MaskedDistancePlan,
        ct: &[[f32; CENTER_BLOCK]],
        k: usize,
        assign: &mut [u32],
    ) -> usize {
        assign_center_major(data, plan, ct, k, assign)
    }
}

/// Blocked masked SSE: a single f64 accumulator visited in exactly the
/// naive order (row-major, lanes ascending), with the branch-free
/// multiplier inner loop — 0 ULP from the naive reference.
pub(crate) fn masked_sse_blocked(
    data: &Tensor,
    plan: &MaskedDistancePlan,
    centers: &Tensor,
    assign: &[u32],
) -> f32 {
    let ng = data.dims()[0];
    let d = data.dims()[1];
    let mut sse = 0.0f64;
    for j in 0..ng {
        let row = data.row(j);
        let mm = plan.multiplier_row(j);
        let c = centers.row(assign[j] as usize);
        for t in 0..d {
            let e = row[t] - c[t] * mm[t];
            sse += (e * e) as f64;
        }
    }
    sse as f32
}

/// Dense (unmasked) per-row reference assignment — the oracle for the
/// dense kernels, O(NG·k·d) with fixed left-to-right accumulation.
pub fn dense_assign_naive(data: &Tensor, centers: &Tensor) -> Vec<u32> {
    let ng = data.dims()[0];
    let d = data.dims()[1];
    let k = centers.dims()[0];
    let mut assign = vec![0u32; ng];
    for j in 0..ng {
        let row = data.row(j);
        let mut best = 0usize;
        let mut best_v = f32::INFINITY;
        for i in 0..k {
            let c = centers.row(i);
            let mut acc = 0.0f32;
            for t in 0..d {
                let e = row[t] - c[t];
                acc += e * e;
            }
            if acc < best_v {
                best_v = acc;
                best = i;
            }
        }
        assign[j] = best as u32;
    }
    assign
}

/// Dense nearest-codeword assignment via the kernel selected by
/// `strategy`.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for empty data, empty codebooks, or
/// shape mismatches.
pub fn dense_assign_with(
    strategy: KernelStrategy,
    data: &Tensor,
    centers: &Tensor,
) -> Result<Vec<u32>, MvqError> {
    validate_assign_inputs(data, centers, None)?;
    let mut assign = vec![0u32; data.dims()[0]];
    dense_assign_step(strategy, data, centers, &mut assign);
    Ok(assign)
}

/// One dense assignment pass writing into `assign`; returns the number of
/// changed assignments.
pub(crate) fn dense_assign_step(
    strategy: KernelStrategy,
    data: &Tensor,
    centers: &Tensor,
    assign: &mut [u32],
) -> usize {
    match strategy {
        KernelStrategy::Naive => {
            let fresh = dense_assign_naive(data, centers);
            let mut changed = 0;
            for (slot, new) in assign.iter_mut().zip(fresh) {
                if *slot != new {
                    *slot = new;
                    changed += 1;
                }
            }
            changed
        }
        KernelStrategy::Blocked => dense_assign_blocked_into(data, centers, assign),
    }
}

/// Dense blocked assignment: the masked blocked kernel driven by the
/// all-ones [`MaskedDistancePlan::dense`] plan. `c * 1.0` is bitwise `c`
/// (for every value, including ±0, infinities and NaN), so this is
/// bit-identical to [`dense_assign_naive`] while keeping a single copy of
/// the tiling/ILP logic under the oracle harness.
pub(crate) fn dense_assign_blocked_into(
    data: &Tensor,
    centers: &Tensor,
    assign: &mut [u32],
) -> usize {
    let plan = MaskedDistancePlan::dense(data.dims()[1]);
    masked_assign_blocked_into(data, &plan, centers, assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::prune_matrix_nm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pruned_random(ng: usize, d: usize, n: usize, m: usize, seed: u64) -> (Tensor, NmMask) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = mvq_tensor::uniform(vec![ng, d], -1.0, 1.0, &mut rng);
        prune_matrix_nm(&w, n, m).unwrap()
    }

    /// Every center-major instantiation this CPU can run: the portable
    /// body always, the AVX2 one when detected. Slots start at `u32::MAX`
    /// so each path must write (and count as changed) every row.
    fn center_major_paths(
        data: &Tensor,
        plan: &MaskedDistancePlan,
        centers: &Tensor,
    ) -> Vec<(&'static str, Vec<u32>)> {
        let (ng, k) = (data.dims()[0], centers.dims()[0]);
        let ct = center_major(centers);
        let mut portable = vec![u32::MAX; ng];
        assert_eq!(assign_center_major(data, plan, &ct, k, &mut portable), ng);
        #[allow(unused_mut)]
        let mut paths = vec![("portable", portable)];
        #[cfg(target_arch = "x86_64")]
        if x86::avx2_available() {
            let mut avx2 = vec![u32::MAX; ng];
            // SAFETY: guarded by `avx2_available()`, so the target-feature
            // contract holds.
            let changed = unsafe { x86::assign_center_major_avx2(data, plan, &ct, k, &mut avx2) };
            assert_eq!(changed, ng);
            paths.push(("avx2", avx2));
        }
        paths
    }

    /// Both dispatch paths against both oracles, masked and dense.
    fn assert_paths_match_oracles(data: &Tensor, mask: &NmMask, centers: &Tensor, ctx: &str) {
        let naive = masked_assign_naive(data, mask, centers);
        let plan = MaskedDistancePlan::new(mask).unwrap();
        for (path, got) in center_major_paths(data, &plan, centers) {
            assert_eq!(got, naive, "{path} masked, {ctx}");
        }
        let dense_naive = dense_assign_naive(data, centers);
        let dense = MaskedDistancePlan::dense(data.dims()[1]);
        for (path, got) in center_major_paths(data, &dense, centers) {
            assert_eq!(got, dense_naive, "{path} dense, {ctx}");
        }
    }

    #[test]
    fn every_dispatch_path_matches_the_oracles_under_the_differential_cases() {
        let cfg = crate::differential::DiffConfig::default();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for case_no in 0..cfg.cases {
            let case = crate::differential::build_case(&cfg, case_no, &mut rng).unwrap();
            assert_paths_match_oracles(
                &case.data,
                &case.mask,
                &case.centers,
                &format!("case {case_no}"),
            );
        }
    }

    #[test]
    fn every_dispatch_path_matches_the_oracles_across_block_edges() {
        // k straddling CENTER_BLOCK and ACCS_PER_PASS, d straddling a
        // vector's width
        for &k in &[1usize, 7, 8, 9, 16, 17, 64, 65] {
            for &d in &[4usize, 8, 12, 16, 24] {
                let (data, mask) = pruned_random(70, d, 2, 4, (k * 31 + d) as u64);
                let mut rng = StdRng::seed_from_u64(k as u64);
                let centers = mvq_tensor::uniform(vec![k, d], -1.0, 1.0, &mut rng);
                assert_paths_match_oracles(&data, &mask, &centers, &format!("k={k} d={d}"));
            }
        }
    }

    #[test]
    fn every_dispatch_path_keeps_ties_that_only_the_oracle_order_produces() {
        // Codeword `hi` is codeword `lo` with lanes 0 and 1 swapped. Against
        // a zero row the oracle's sums `(x² + y²) + …` and `(y² + x²) + …`
        // are bit-equal, so it picks `lo`. A fused multiply-add or any
        // reassociated sum rounds the two differently in a large share of
        // cases and would pick `hi` about half of those times.
        let d = 8;
        let mut rng = StdRng::seed_from_u64(41);
        let bits = vec![true; 5 * d];
        let mask = NmMask::from_bits(5, d, 4, 4, bits).unwrap();
        let zeros = Tensor::zeros(vec![5, d]);
        for case in 0..500 {
            // (k, lo, hi): one block (four-row passes), and a tie across
            // blocks and lanes
            for &(k, lo, hi) in &[(8usize, 1usize, 6usize), (12, 3, 11)] {
                let mut centers = Tensor::full(vec![k, d], 100.0);
                let a = mvq_tensor::uniform(vec![1, d], -2.0, 2.0, &mut rng);
                centers.row_mut(lo).copy_from_slice(a.row(0));
                centers.row_mut(hi).copy_from_slice(a.row(0));
                centers.row_mut(hi).swap(0, 1);
                assert_paths_match_oracles(&zeros, &mask, &centers, &format!("case {case} k={k}"));
                assert!(masked_assign_naive(&zeros, &mask, &centers)
                    .iter()
                    .all(|&i| i == lo as u32));
            }
        }
    }

    #[test]
    fn dense_blocked_matches_dense_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = mvq_tensor::uniform(vec![100, 12], -1.0, 1.0, &mut rng);
        let centers = mvq_tensor::uniform(vec![21, 12], -1.0, 1.0, &mut rng);
        let naive = dense_assign_naive(&data, &centers);
        let blocked = dense_assign_with(KernelStrategy::Blocked, &data, &centers).unwrap();
        assert_eq!(naive, blocked);
    }

    #[test]
    fn plan_dedups_patterns_and_uses_lut() {
        let bits = [true, true, false, false].repeat(10);
        let mask = NmMask::from_bits(10, 4, 2, 4, bits).unwrap();
        let plan = MaskedDistancePlan::new(&mask).unwrap();
        assert_eq!(plan.pattern_count(), 1);
        assert_eq!(plan.multiplier_row(7), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn checked_entry_points_validate() {
        let (data, mask) = pruned_random(8, 4, 2, 4, 0);
        let centers = Tensor::zeros(vec![3, 4]);
        // empty codebook
        let empty = Tensor::zeros(vec![0, 4]);
        assert!(masked_assign_with(KernelStrategy::Blocked, &data, &mask, &empty).is_err());
        // center d mismatch
        let wrong_d = Tensor::zeros(vec![3, 8]);
        assert!(masked_assign_with(KernelStrategy::Blocked, &data, &mask, &wrong_d).is_err());
        // mask mismatch
        let (_, other) = pruned_random(4, 4, 2, 4, 1);
        assert!(masked_assign_with(KernelStrategy::Blocked, &data, &other, &centers).is_err());
        // sse: assignment out of range
        let err = masked_sse_with(KernelStrategy::Blocked, &data, &mask, &centers, &[9; 8]);
        assert!(err.is_err());
        // sse: wrong assignment length
        let err = masked_sse_with(KernelStrategy::Naive, &data, &mask, &centers, &[0; 3]);
        assert!(err.is_err());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(KernelStrategy::default(), KernelStrategy::Blocked);
        assert_eq!(KernelStrategy::Naive.name(), "naive");
        assert_eq!(KernelStrategy::Blocked.name(), "blocked");
    }

    #[test]
    fn from_str_round_trips_case_insensitively() {
        for strategy in KernelStrategy::ALL {
            assert_eq!(strategy.name().parse::<KernelStrategy>().unwrap(), strategy);
            assert_eq!(strategy.name().to_uppercase().parse::<KernelStrategy>().unwrap(), strategy);
        }
        assert_eq!(" Blocked ".parse::<KernelStrategy>().unwrap(), KernelStrategy::Blocked);
        let err = "blas".parse::<KernelStrategy>().unwrap_err();
        assert!(matches!(err, MvqError::InvalidConfig(_)));
        let msg = err.to_string();
        assert!(msg.contains("blas") && msg.contains("naive, blocked"), "{msg}");
        // retired strategies no longer parse
        for retired in ["simd", "minibatch"] {
            assert!(retired.parse::<KernelStrategy>().is_err(), "{retired}");
        }
    }

    #[test]
    fn every_strategy_breaks_exact_ties_to_the_lowest_index() {
        // Constructed ties, two ways:
        //  1. duplicated codewords — identical rows produce bit-identical
        //     distances under any kernel, so the lower index must win;
        //  2. sign-symmetric codewords around data at the origin —
        //     (0 − x)² == (0 + x)² lane for lane, again bit-equal.
        let d = 8;
        let zeros = Tensor::zeros(vec![4, d]);
        let bits = [true, true, false, false].repeat(2 * 4);
        let mask = NmMask::from_bits(4, d, 2, 4, bits).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        // k = 6 with codeword 2 duplicating codeword 0 and codeword 5
        // duplicating codeword 3
        let mut centers = mvq_tensor::uniform(vec![6, d], -1.0, 1.0, &mut rng);
        let c0 = centers.row(0).to_vec();
        centers.row_mut(2).copy_from_slice(&c0);
        let c3 = centers.row(3).to_vec();
        centers.row_mut(5).copy_from_slice(&c3);
        for strategy in KernelStrategy::ALL {
            let assign = masked_assign_with(strategy, &zeros, &mask, &centers).unwrap();
            for (j, &a) in assign.iter().enumerate() {
                assert_ne!(a, 2, "{strategy:?}: row {j} picked the duplicate of codeword 0");
                assert_ne!(a, 5, "{strategy:?}: row {j} picked the duplicate of codeword 3");
            }
        }
        // sign-symmetric pair: +v at index 1 vs −v at index 0 ties on
        // zero data, so every strategy must report index 0
        let mut sym = Tensor::zeros(vec![2, d]);
        for t in 0..d {
            let v = 0.25 + t as f32 * 0.125;
            sym.row_mut(0)[t] = -v;
            sym.row_mut(1)[t] = v;
        }
        for strategy in KernelStrategy::ALL {
            let assign = masked_assign_with(strategy, &zeros, &mask, &sym).unwrap();
            assert!(assign.iter().all(|&a| a == 0), "{strategy:?}: {assign:?}");
            let dense = dense_assign_with(strategy, &zeros, &sym).unwrap();
            assert!(dense.iter().all(|&a| a == 0), "{strategy:?} dense: {dense:?}");
        }
    }
}
