//! The unified compression pipeline: one algorithm-agnostic API over MVQ
//! and every VQ baseline the paper compares against, built on two
//! abstractions:
//!
//! * [`Compressor`] — `compress_matrix` + `compress_model`, implemented by
//!   every algorithm (MVQ's crosslayer codebook scope is the one extra
//!   model entry point, [`MvqCompressor::compress_model_crosslayer`]);
//! * [`CompressedArtifact`] — the common compressed representation:
//!   codebook + assignments, optional N:M mask, original dims, and a
//!   uniform `reconstruct()` / `storage()` / `compression_ratio()` surface.
//!
//! Algorithms are discovered through the string-keyed [`registry`] /
//! [`by_name`], parameterized by a [`PipelineSpec`]:
//!
//! | name    | algorithm                                   | paper section     |
//! |---------|---------------------------------------------|-------------------|
//! | `mvq`   | masked vector quantization (ours)           | §4, Tables 3–6    |
//! | `vq-a`  | plain VQ, dense weights, dense decode       | Fig. 12 case A    |
//! | `vq-b`  | plain VQ on pruned weights, dense decode    | Fig. 12 case B    |
//! | `vq-c`  | plain VQ on pruned weights, sparse decode   | Fig. 12 case C    |
//! | `pqf`   | permute–quantize (Martinez et al.)          | Table 5, Fig. 13  |
//! | `bgd`   | "bit goes down" importance k-means (Stock)  | Fig. 13           |
//! | `dkm`   | differentiable (attention) k-means (Cho)    | §2 related work   |
//! | `pvq`   | uniform scalar quantization (Kuzmin et al.) | Tables 4, 6       |
//!
//! (`vq` is accepted as an alias for `vq-a`.)
//!
//! ```
//! use mvq_core::pipeline::{by_name, PipelineSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let w = mvq_tensor::kaiming_normal(vec![64, 16], 16, &mut rng);
//! for comp in mvq_core::pipeline::registry() {
//!     let artifact = comp.compress_matrix(&w, &mut rng)?;
//!     assert_eq!(artifact.reconstruct()?.dims(), w.dims());
//!     assert!(artifact.compression_ratio() > 1.0);
//! }
//! let mvq = by_name("mvq", &PipelineSpec::default())?;
//! assert_eq!(mvq.name(), "mvq");
//! # Ok::<(), mvq_core::MvqError>(())
//! ```

use mvq_nn::layers::Sequential;
use mvq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::baselines::bgd::bgd_compress;
use crate::baselines::dkm::{dkm_compress, DkmConfig};
use crate::baselines::pqf::{pqf_compress, PqfCompressed};
use crate::baselines::pvq::{pvq_quantize, PvqResult};
use crate::baselines::vq_plain::{vq_case_a, vq_case_b, vq_case_c, DenseVq};
use crate::codebook::{Assignments, Codebook};
use crate::compress::{CompressedMatrix, MvqCompressor, MvqConfig};
use crate::error::MvqError;
use crate::grouping::GroupingStrategy;
use crate::kernels::KernelStrategy;
use crate::mask::NmMask;
use crate::masked_kmeans::{masked_kmeans, masked_sse};
use crate::metrics::{StorageBreakdown, FULL_PRECISION_BITS};
use crate::pruning::prune_matrix_nm;

/// A weight tensor in any of the pipeline's compressed representations.
///
/// Every variant carries its original dims and exposes the same decode and
/// storage-accounting surface, so consumers can treat all algorithms
/// uniformly.
#[derive(Debug, Clone)]
pub enum CompressedArtifact {
    /// Codebook + assignments + N:M mask, sparse decode (MVQ, VQ case C).
    Masked(CompressedMatrix),
    /// Codebook + assignments, dense decode (VQ cases A/B, BGD, DKM).
    Dense(DenseVq),
    /// Permutation + codebook + assignments (PQF).
    Permuted(PqfCompressed),
    /// Per-tensor uniform scalar quantization (PvQ).
    Scalar(ScalarQuantized),
}

impl CompressedArtifact {
    /// Reconstructs the weight in its original dims.
    ///
    /// # Errors
    ///
    /// Propagates grouping errors.
    pub fn reconstruct(&self) -> Result<Tensor, MvqError> {
        match self {
            CompressedArtifact::Masked(m) => m.reconstruct(),
            CompressedArtifact::Dense(v) => v.reconstruct(),
            CompressedArtifact::Permuted(p) => p.reconstruct(),
            CompressedArtifact::Scalar(s) => Ok(s.result.quantized.clone()),
        }
    }

    /// Storage breakdown under the paper's Eq. 7 accounting.
    pub fn storage(&self) -> StorageBreakdown {
        match self {
            CompressedArtifact::Masked(m) => m.storage(),
            CompressedArtifact::Dense(v) => v.storage(),
            CompressedArtifact::Permuted(p) => p.storage(),
            CompressedArtifact::Scalar(s) => s.storage(),
        }
    }

    /// Compression ratio (Eq. 7).
    pub fn compression_ratio(&self) -> f64 {
        self.storage().ratio()
    }

    /// Original weight dims.
    pub fn orig_dims(&self) -> &[usize] {
        match self {
            CompressedArtifact::Masked(m) => m.orig_dims(),
            CompressedArtifact::Dense(v) => v.orig_dims(),
            CompressedArtifact::Permuted(p) => p.orig_dims(),
            CompressedArtifact::Scalar(s) => s.result.quantized.dims(),
        }
    }

    /// The codebook, when the representation has one.
    pub fn codebook(&self) -> Option<&Codebook> {
        match self {
            CompressedArtifact::Masked(m) => Some(m.codebook()),
            CompressedArtifact::Dense(v) => Some(v.codebook()),
            CompressedArtifact::Permuted(p) => Some(p.codebook()),
            CompressedArtifact::Scalar(_) => None,
        }
    }

    /// The assignments, when the representation has them.
    pub fn assignments(&self) -> Option<&Assignments> {
        match self {
            CompressedArtifact::Masked(m) => Some(m.assignments()),
            CompressedArtifact::Dense(v) => Some(v.assignments()),
            CompressedArtifact::Permuted(p) => Some(p.assignments()),
            CompressedArtifact::Scalar(_) => None,
        }
    }

    /// The N:M mask, for sparse representations.
    pub fn mask(&self) -> Option<&NmMask> {
        match self {
            CompressedArtifact::Masked(m) => Some(m.mask()),
            _ => None,
        }
    }

    /// Clustering / quantization SSE recorded at compression time, when
    /// the algorithm reports one (masked SSE for MVQ, plain clustering
    /// SSE for the dense/permuted baselines and VQ case C).
    pub fn sse(&self) -> Option<f32> {
        match self {
            CompressedArtifact::Masked(m) => m.sse(),
            CompressedArtifact::Dense(v) => Some(v.sse),
            CompressedArtifact::Permuted(p) => Some(p.sse),
            CompressedArtifact::Scalar(s) => Some(s.result.sse),
        }
    }
}

/// A scalar-quantized tensor wrapped into the artifact surface.
#[derive(Debug, Clone)]
pub struct ScalarQuantized {
    /// The underlying PvQ result.
    pub result: PvqResult,
}

impl ScalarQuantized {
    /// Storage: the payload is `bits` per weight (the per-tensor scale is
    /// amortized away, matching uniform-quantization reporting).
    pub fn storage(&self) -> StorageBreakdown {
        let n = self.result.quantized.numel() as u64;
        StorageBreakdown {
            original_bits: n * FULL_PRECISION_BITS,
            assignment_bits: n * self.result.bits as u64,
            mask_bits: 0,
            codebook_bits: 0,
        }
    }
}

/// One compressed conv layer inside a [`ModelArtifacts`].
#[derive(Debug, Clone)]
pub struct LayerArtifact {
    /// Depth-first index of the conv layer in the model.
    pub conv_index: usize,
    /// The layer's compressed representation.
    pub artifact: CompressedArtifact,
}

impl LayerArtifact {
    /// The layer as an MVQ [`CompressedMatrix`]; masked SSE and codebook
    /// fine-tuning need the mask, so other representations are rejected.
    pub(crate) fn as_masked(&self) -> Result<&CompressedMatrix, MvqError> {
        match &self.artifact {
            CompressedArtifact::Masked(m) => Ok(m),
            _ => Err(not_masked(self.conv_index)),
        }
    }

    /// Mutable [`LayerArtifact::as_masked`].
    pub(crate) fn as_masked_mut(&mut self) -> Result<&mut CompressedMatrix, MvqError> {
        match &mut self.artifact {
            CompressedArtifact::Masked(m) => Ok(m),
            _ => Err(not_masked(self.conv_index)),
        }
    }
}

fn not_masked(conv_index: usize) -> MvqError {
    MvqError::InvalidConfig(format!(
        "conv {conv_index} is not a masked (codebook + N:M mask) artifact"
    ))
}

/// Whole-model output of [`Compressor::compress_model`] (or
/// [`MvqCompressor::compress_model_crosslayer`]): one artifact per
/// compressed conv, plus the indices of skipped (incompatible) convs.
///
/// Layers may share a codebook (the crosslayer scope stores one copy per
/// layer); a model stores each distinct codebook once, where distinct
/// means compared by value.
#[derive(Debug, Clone)]
pub struct ModelArtifacts {
    /// Algorithm name (from [`Compressor::name`]).
    pub algorithm: &'static str,
    /// Compressed layers in conv order.
    pub layers: Vec<LayerArtifact>,
    /// Conv indices skipped (depthwise / incompatible shapes).
    pub skipped: Vec<usize>,
}

impl ModelArtifacts {
    /// Whole-model storage breakdown: the sum over layers, with each
    /// distinct codebook counted once.
    pub fn storage(&self) -> StorageBreakdown {
        let mut total = StorageBreakdown {
            original_bits: 0,
            assignment_bits: 0,
            mask_bits: 0,
            codebook_bits: 0,
        };
        for layer in &self.layers {
            total = total.merge(&layer.artifact.storage());
        }
        for group in self.codebook_groups() {
            let shared =
                self.layers[group[0]].artifact.codebook().map_or(0, Codebook::storage_bits);
            total.codebook_bits -= (group.len() as u64 - 1) * shared;
        }
        total
    }

    /// Indices into [`ModelArtifacts::layers`] grouped by codebook value,
    /// groups ordered by their first layer and members in layer order.
    /// Layers without a codebook belong to no group. This is the sharing
    /// rule: storage counts one codebook per group, and codebook
    /// fine-tuning keeps one optimizer slot per group.
    pub(crate) fn codebook_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let Some(codebook) = layer.artifact.codebook() else { continue };
            let shared =
                groups.iter_mut().find(|g| self.layers[g[0]].artifact.codebook() == Some(codebook));
            match shared {
                Some(group) => group.push(i),
                None => groups.push(vec![i]),
            }
        }
        groups
    }

    /// Compression ratio over all compressed layers.
    pub fn compression_ratio(&self) -> f64 {
        self.storage().ratio()
    }

    /// Content fingerprint: FNV-1a over the canonical durable encoding
    /// ([`crate::store::Persist::to_bytes`]), so two artifact sets agree
    /// iff their serialized bytes agree. This is the equality the
    /// streaming ↔ in-memory property suite pins — per-layer blobs may be
    /// spilled and reassembled in any order, but the assembled model must
    /// fingerprint identically to the monolithic path.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures from
    /// [`crate::store::Persist::to_bytes`].
    pub fn fingerprint(&self) -> Result<u64, MvqError> {
        let mut h = crate::store::Fnv1a::new();
        h.update(b"mvq.modelartifacts.v1");
        h.update(&crate::store::Persist::to_bytes(self)?);
        Ok(h.finish())
    }

    /// Sum of per-layer SSEs for algorithms that record one.
    pub fn total_sse(&self) -> Option<f64> {
        let mut total = 0.0f64;
        for layer in &self.layers {
            total += layer.artifact.sse()? as f64;
        }
        Some(total)
    }

    /// Sum of masked SSE (paper Table 3/5) over all layers against the
    /// conv weights of `reference`, taken with the layers' final (e.g.
    /// int8) codebooks — unlike [`ModelArtifacts::total_sse`], which is
    /// recorded at clustering time.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] for a layer that is not
    /// [`CompressedArtifact::Masked`] or a conv `reference` lacks, and
    /// propagates grouping errors.
    pub fn total_masked_sse(&self, reference: &Sequential) -> Result<f32, MvqError> {
        let mut weights: Vec<Tensor> = Vec::new();
        reference.visit_convs(&mut |conv| weights.push(conv.weight.value.clone()));
        let mut sse = 0.0f32;
        for layer in &self.layers {
            let m = layer.as_masked()?;
            let w = weights.get(layer.conv_index).ok_or_else(|| {
                MvqError::InvalidConfig(format!("reference model has no conv {}", layer.conv_index))
            })?;
            let grouped = m.grouping().group(w, m.mask().d())?;
            let pruned = m.mask().apply(&grouped)?;
            sse += masked_sse(&pruned, m.mask(), m.codebook(), m.assignments())?;
        }
        Ok(sse)
    }

    /// Per-conv reconstructions indexed by conv position (`None` for
    /// skipped convs). `num_convs` must be the model's conv count.
    ///
    /// # Errors
    ///
    /// Propagates reconstruction errors, and rejects a `num_convs` smaller
    /// than the highest compressed conv index (artifacts from a different
    /// model).
    pub fn reconstructions(&self, num_convs: usize) -> Result<Vec<Option<Tensor>>, MvqError> {
        let mut out: Vec<Option<Tensor>> = vec![None; num_convs];
        for layer in &self.layers {
            if layer.conv_index >= num_convs {
                return Err(MvqError::InvalidConfig(format!(
                    "artifact for conv {} does not fit a model with {num_convs} convs",
                    layer.conv_index
                )));
            }
            out[layer.conv_index] = Some(layer.artifact.reconstruct()?);
        }
        Ok(out)
    }

    /// Writes every reconstructed weight back into `model`.
    ///
    /// # Errors
    ///
    /// Propagates reconstruction errors; see [`ModelArtifacts::reconstructions`].
    pub fn apply_to(&self, model: &mut Sequential) -> Result<(), MvqError> {
        let mut recons = self.reconstructions(model.num_convs())?;
        let mut idx = 0usize;
        model.visit_convs_mut(&mut |conv| {
            if let Some(slot) = recons.get_mut(idx) {
                if let Some(w) = slot.take() {
                    conv.weight.value = w;
                }
            }
            idx += 1;
        });
        Ok(())
    }
}

/// A compression algorithm usable through the unified pipeline.
///
/// `Send + Sync` so the service and stream workers can share one entry.
pub trait Compressor: Send + Sync {
    /// Short registry name (e.g. `"mvq"`, `"pqf"`).
    fn name(&self) -> &'static str;

    /// One-line human-readable hyperparameter summary.
    fn config_summary(&self) -> String;

    /// Whether the model path skips depthwise convs. Codebook methods do
    /// (their grouping cannot use the degenerate shapes); scalar
    /// quantizers override to `false`. Must agree with the algorithm's
    /// [`Compressor::compress_model_artifacts`] behavior — the streaming
    /// pipeline (`crate::stream`) queries this to replicate the in-memory
    /// path's skip decisions bit-identically.
    fn skips_depthwise(&self) -> bool {
        true
    }

    /// Compresses a single weight tensor (rank 2 or 4).
    ///
    /// # Errors
    ///
    /// Propagates grouping errors for incompatible shapes and clustering
    /// errors for degenerate configurations.
    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError>;

    /// Compresses every compatible conv of `model` without touching its
    /// weights: skips depthwise convs, incompatible shapes, and dead
    /// (all-zero) layers. Layers are compressed serially, each with an RNG
    /// seeded from one `rng` draw per conv, so results are deterministic
    /// and `rng` advances [`Sequential::num_convs`] times, failures included.
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when no layer is compressible,
    /// and propagates non-shape compression errors.
    fn compress_model_artifacts(
        &self,
        model: &Sequential,
        rng: &mut StdRng,
    ) -> Result<ModelArtifacts, MvqError> {
        compress_model_with(self, model, rng, true)
    }

    /// [`Compressor::compress_model_artifacts`] plus writing the
    /// reconstructed weights back into `model`.
    ///
    /// # Errors
    ///
    /// See [`Compressor::compress_model_artifacts`].
    fn compress_model(
        &self,
        model: &mut Sequential,
        rng: &mut StdRng,
    ) -> Result<ModelArtifacts, MvqError> {
        let artifacts = self.compress_model_artifacts(model, rng)?;
        artifacts.apply_to(model)?;
        Ok(artifacts)
    }
}

/// Shared implementation behind [`Compressor::compress_model_artifacts`]:
/// walks the convs in order, drawing one seed per conv from `rng` (past a
/// failure too; the first error is returned after the walk), and compresses
/// each eligible layer from a borrow of its weight. Skips depthwise convs
/// (when asked), shapes the grouping rejects, and dead all-zero layers.
///
/// # Errors
///
/// See [`Compressor::compress_model_artifacts`].
pub fn compress_model_with<C: Compressor + ?Sized>(
    comp: &C,
    model: &Sequential,
    rng: &mut StdRng,
    skip_depthwise: bool,
) -> Result<ModelArtifacts, MvqError> {
    let mut layers = Vec::new();
    let mut skipped = Vec::new();
    let mut failure = Ok(());
    model.visit_convs(&mut |conv| {
        let seed = rng.next_u64();
        if failure.is_err() {
            return;
        }
        let conv_index = layers.len() + skipped.len();
        let w = &conv.weight.value;
        // depthwise or dead layer: nothing to cluster or quantize
        if (skip_depthwise && conv.is_depthwise()) || w.data().iter().all(|&x| x == 0.0) {
            skipped.push(conv_index);
            return;
        }
        match comp.compress_matrix(w, &mut StdRng::seed_from_u64(seed)) {
            Ok(artifact) => layers.push(LayerArtifact { conv_index, artifact }),
            Err(MvqError::IncompatibleShape { .. }) => skipped.push(conv_index),
            Err(e) => failure = Err(e),
        }
    });
    failure?;
    if layers.is_empty() {
        return Err(no_compressible_layer_error(comp.name(), &skipped));
    }
    Ok(ModelArtifacts { algorithm: comp.name(), layers, skipped })
}

/// The "nothing compressed" failure, with the skipped conv indices in the
/// message: an all-depthwise (or all-incompatible) model failing a service
/// job must be diagnosable from the job error alone, without rerunning the
/// model locally.
pub(crate) fn no_compressible_layer_error(algorithm: &str, skipped: &[usize]) -> MvqError {
    MvqError::InvalidConfig(format!(
        "model has no conv layer compressible by `{algorithm}` \
         ({} conv(s) skipped as depthwise/incompatible/all-zero: {skipped:?})",
        skipped.len()
    ))
}

impl Compressor for MvqCompressor {
    fn name(&self) -> &'static str {
        "mvq"
    }

    fn config_summary(&self) -> String {
        let cfg = self.config();
        format!(
            "k={} d={} {}:{} grouping={} codebook={}",
            cfg.k,
            cfg.d,
            cfg.keep_n,
            cfg.m,
            cfg.grouping.name(),
            bits_label(cfg.codebook_bits)
        )
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        // resolves to the inherent (generic-RNG) method
        MvqCompressor::compress_matrix(self, weight, rng).map(CompressedArtifact::Masked)
    }
}

impl MvqCompressor {
    /// The crosslayer clustering scope (paper Fig. 11/13): groups and
    /// prunes every compressible conv of `model`, clusters all of them
    /// into **one** codebook, and writes the reconstructions back. Each
    /// layer is a [`CompressedArtifact::Masked`] holding a copy of the
    /// shared codebook, which [`ModelArtifacts::storage`] counts once.
    /// [`Compressor::compress_model`] is the layerwise scope.
    ///
    /// Skips the same convs as the layerwise path. The layers' subvectors
    /// are concatenated and clustered full-batch by [`masked_kmeans`].
    ///
    /// # Errors
    ///
    /// Returns [`MvqError::InvalidConfig`] when no layer is compressible,
    /// and propagates clustering errors.
    pub fn compress_model_crosslayer(
        &self,
        model: &mut Sequential,
        rng: &mut StdRng,
    ) -> Result<ModelArtifacts, MvqError> {
        let cfg = self.config();
        let mut convs: Vec<(Tensor, bool)> = Vec::new();
        model.visit_convs(&mut |conv| convs.push((conv.weight.value.clone(), conv.is_depthwise())));
        let mut eligible: Vec<(usize, Tensor, NmMask, Vec<usize>)> = Vec::new();
        let mut skipped = Vec::new();
        for (idx, (w, depthwise)) in convs.into_iter().enumerate() {
            if depthwise || w.data().iter().all(|&x| x == 0.0) {
                skipped.push(idx);
                continue;
            }
            let grouped = match cfg.grouping.group(&w, cfg.d) {
                Ok(g) => g,
                Err(MvqError::IncompatibleShape { .. }) => {
                    skipped.push(idx);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let (pruned, mask) = prune_matrix_nm(&grouped, cfg.keep_n, cfg.m)?;
            eligible.push((idx, pruned, mask, w.dims().to_vec()));
        }
        if eligible.is_empty() {
            return Err(no_compressible_layer_error(self.name(), &skipped));
        }
        let total_ng: usize = eligible.iter().map(|(_, _, mask, _)| mask.ng()).sum();
        let mut data = Vec::with_capacity(total_ng * cfg.d);
        let mut bits = Vec::with_capacity(total_ng * cfg.d);
        for (_, pruned, mask, _) in &eligible {
            data.extend_from_slice(pruned.data());
            bits.extend_from_slice(mask.bits());
        }
        let all = Tensor::from_vec(vec![total_ng, cfg.d], data)?;
        let all_mask = NmMask::from_bits(total_ng, cfg.d, cfg.keep_n, cfg.m, bits)?;
        let mut res = masked_kmeans(&all, &all_mask, &cfg.kmeans(), rng)?;
        if let Some(b) = cfg.codebook_bits {
            res.codebook.quantize(b)?;
        }
        let mut layers = Vec::with_capacity(eligible.len());
        let mut offset = 0usize;
        for (conv_index, _, mask, orig_dims) in eligible {
            let ng = mask.ng();
            let slice = res.assignments.indices()[offset..offset + ng].to_vec();
            offset += ng;
            let assignments = Assignments::new(slice, res.codebook.k())?;
            let matrix = CompressedMatrix::from_parts(
                res.codebook.clone(),
                assignments,
                mask,
                orig_dims,
                cfg.grouping,
            )?;
            layers.push(LayerArtifact { conv_index, artifact: CompressedArtifact::Masked(matrix) });
        }
        let artifacts = ModelArtifacts { algorithm: self.name(), layers, skipped };
        artifacts.apply_to(model)?;
        Ok(artifacts)
    }
}

/// Which plain-VQ ablation arm a [`PlainVq`] runs (paper Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VqVariant {
    /// Dense weights, common k-means, dense reconstruction.
    CaseA,
    /// N:M-pruned weights, common k-means, dense reconstruction (mask not
    /// stored).
    CaseB,
    /// N:M-pruned weights, common k-means, sparse reconstruction (mask
    /// stored).
    CaseC,
}

/// Conventional vector quantization (ablation cases A/B/C).
#[derive(Debug, Clone)]
pub struct PlainVq {
    /// Which ablation arm.
    pub variant: VqVariant,
    /// Codewords.
    pub k: usize,
    /// Subvector length used for clustering.
    pub d: usize,
    /// Kept weights per pruning group (cases B/C).
    pub keep_n: usize,
    /// Pruning group size (cases B/C).
    pub m: usize,
    /// Subvector length the pruning grid lives on (case B's two-grid
    /// setup: prune at `prune_d`, recluster at `d`). Must equal `d` for
    /// case C.
    pub prune_d: usize,
    /// Grouping strategy.
    pub grouping: GroupingStrategy,
    /// Codebook quantization.
    pub codebook_bits: Option<u32>,
    /// Distance/assignment kernel for the clustering loop.
    pub kernel: KernelStrategy,
}

impl Compressor for PlainVq {
    fn name(&self) -> &'static str {
        match self.variant {
            VqVariant::CaseA => "vq-a",
            VqVariant::CaseB => "vq-b",
            VqVariant::CaseC => "vq-c",
        }
    }

    fn config_summary(&self) -> String {
        match self.variant {
            VqVariant::CaseA => format!(
                "k={} d={} grouping={} codebook={}",
                self.k,
                self.d,
                self.grouping.name(),
                bits_label(self.codebook_bits)
            ),
            _ => format!(
                "k={} d={} {}:{} (pruned at d={}) grouping={} codebook={}",
                self.k,
                self.d,
                self.keep_n,
                self.m,
                self.prune_d,
                self.grouping.name(),
                bits_label(self.codebook_bits)
            ),
        }
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        match self.variant {
            VqVariant::CaseA => vq_case_a(
                weight,
                self.k,
                self.d,
                self.grouping,
                self.codebook_bits,
                self.kernel,
                rng,
            )
            .map(CompressedArtifact::Dense),
            VqVariant::CaseB if self.prune_d == self.d => vq_case_b(
                weight,
                self.k,
                self.d,
                self.keep_n,
                self.m,
                self.grouping,
                self.codebook_bits,
                self.kernel,
                rng,
            )
            .map(CompressedArtifact::Dense),
            VqVariant::CaseB => {
                // two-grid setup: the N:M pattern lives on the prune_d
                // grouping, clustering happens on the d grouping
                let grouped = self.grouping.group(weight, self.prune_d)?;
                let (pruned, _mask) = prune_matrix_nm(&grouped, self.keep_n, self.m)?;
                let sparse = self.grouping.ungroup(&pruned, weight.dims(), self.prune_d)?;
                vq_case_a(
                    &sparse,
                    self.k,
                    self.d,
                    self.grouping,
                    self.codebook_bits,
                    self.kernel,
                    rng,
                )
                .map(CompressedArtifact::Dense)
            }
            VqVariant::CaseC => {
                if self.prune_d != self.d {
                    return Err(MvqError::InvalidConfig(
                        "case C stores the mask on the clustering grid; prune_d must equal d"
                            .into(),
                    ));
                }
                vq_case_c(
                    weight,
                    self.k,
                    self.d,
                    self.keep_n,
                    self.m,
                    self.grouping,
                    self.codebook_bits,
                    self.kernel,
                    rng,
                )
                .map(|(cm, _mask)| CompressedArtifact::Masked(cm))
            }
        }
    }
}

/// PQF: permutation search + k-means (Martinez et al., CVPR '21).
#[derive(Debug, Clone)]
pub struct Pqf {
    /// Codewords.
    pub k: usize,
    /// Subvector length.
    pub d: usize,
    /// Hill-climb swap trials.
    pub swap_trials: usize,
    /// Grouping strategy.
    pub grouping: GroupingStrategy,
    /// Codebook quantization.
    pub codebook_bits: Option<u32>,
    /// Distance/assignment kernel for the clustering loop.
    pub kernel: KernelStrategy,
}

impl Compressor for Pqf {
    fn name(&self) -> &'static str {
        "pqf"
    }

    fn config_summary(&self) -> String {
        format!(
            "k={} d={} swaps={} grouping={} codebook={}",
            self.k,
            self.d,
            self.swap_trials,
            self.grouping.name(),
            bits_label(self.codebook_bits)
        )
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        pqf_compress(
            weight,
            self.k,
            self.d,
            self.grouping,
            self.codebook_bits,
            self.swap_trials,
            self.kernel,
            rng,
        )
        .map(CompressedArtifact::Permuted)
    }
}

/// BGD: importance-weighted k-means (Stock et al., ICLR '20). Importance
/// defaults to squared subvector norms (no activation statistics).
#[derive(Debug, Clone)]
pub struct Bgd {
    /// Codewords.
    pub k: usize,
    /// Subvector length.
    pub d: usize,
    /// Grouping strategy.
    pub grouping: GroupingStrategy,
    /// Codebook quantization.
    pub codebook_bits: Option<u32>,
    /// Distance/assignment kernel for the clustering loop.
    pub kernel: KernelStrategy,
}

impl Compressor for Bgd {
    fn name(&self) -> &'static str {
        "bgd"
    }

    fn config_summary(&self) -> String {
        format!(
            "k={} d={} grouping={} codebook={} importance=norm2",
            self.k,
            self.d,
            self.grouping.name(),
            bits_label(self.codebook_bits)
        )
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        bgd_compress(
            weight,
            self.k,
            self.d,
            self.grouping,
            self.codebook_bits,
            None,
            self.kernel,
            rng,
        )
        .map(CompressedArtifact::Dense)
    }
}

/// DKM: differentiable (attention) k-means (Cho et al., ICLR '22).
#[derive(Debug, Clone)]
pub struct Dkm {
    /// Soft-clustering hyperparameters.
    pub config: DkmConfig,
    /// Subvector length.
    pub d: usize,
    /// Grouping strategy.
    pub grouping: GroupingStrategy,
    /// Codebook quantization.
    pub codebook_bits: Option<u32>,
}

impl Compressor for Dkm {
    fn name(&self) -> &'static str {
        "dkm"
    }

    fn config_summary(&self) -> String {
        format!(
            "k={} d={} tau={} anneal={} iters={} grouping={} codebook={}",
            self.config.k,
            self.d,
            self.config.temperature,
            self.config.anneal,
            self.config.iters,
            self.grouping.name(),
            bits_label(self.codebook_bits)
        )
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        dkm_compress(weight, &self.config, self.d, self.grouping, self.codebook_bits, rng)
            .map(CompressedArtifact::Dense)
    }
}

/// PvQ: uniform scalar quantization at a fixed bit width (Kuzmin et al.).
#[derive(Debug, Clone)]
pub struct Pvq {
    /// Bit width (2..=16).
    pub bits: u32,
}

impl Compressor for Pvq {
    fn name(&self) -> &'static str {
        "pvq"
    }

    fn config_summary(&self) -> String {
        format!("bits={}", self.bits)
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        _rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        pvq_quantize(weight, self.bits)
            .map(|result| CompressedArtifact::Scalar(ScalarQuantized { result }))
    }

    // Scalar quantization has no shape constraints, so depthwise convs are
    // quantized too.
    fn skips_depthwise(&self) -> bool {
        false
    }

    fn compress_model_artifacts(
        &self,
        model: &Sequential,
        rng: &mut StdRng,
    ) -> Result<ModelArtifacts, MvqError> {
        compress_model_with(self, model, rng, false)
    }
}

/// Shared hyperparameters the registry builds compressors from.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Codewords `k`.
    pub k: usize,
    /// Subvector length `d`.
    pub d: usize,
    /// Kept weights per pruning group.
    pub keep_n: usize,
    /// Pruning group size `M`.
    pub m: usize,
    /// Pruning grid for VQ case B's two-grid setup (`None` = same as `d`).
    pub prune_d: Option<usize>,
    /// Grouping strategy.
    pub grouping: GroupingStrategy,
    /// Codebook quantization width.
    pub codebook_bits: Option<u32>,
    /// Bit width for scalar (PvQ) quantization.
    pub scalar_bits: u32,
    /// PQF hill-climb swap trials.
    pub swap_trials: usize,
    /// Distance/assignment kernel every clustering algorithm dispatches
    /// to (`naive` oracle / `blocked`).
    pub kernel: KernelStrategy,
}

impl Default for PipelineSpec {
    /// The paper's ResNet operating point: k=64, d=16, 4:16, int8
    /// codebooks, 2-bit PvQ.
    fn default() -> PipelineSpec {
        PipelineSpec {
            k: 64,
            d: 16,
            keep_n: 4,
            m: 16,
            prune_d: None,
            grouping: GroupingStrategy::OutputChannelWise,
            codebook_bits: Some(8),
            scalar_bits: 2,
            swap_trials: 1_000,
            kernel: KernelStrategy::default(),
        }
    }
}

impl PipelineSpec {
    /// Overrides `k`.
    pub fn with_k(mut self, k: usize) -> PipelineSpec {
        self.k = k;
        self
    }

    /// Overrides `d`.
    pub fn with_d(mut self, d: usize) -> PipelineSpec {
        self.d = d;
        self
    }

    /// Overrides the N:M pattern.
    pub fn with_nm(mut self, keep_n: usize, m: usize) -> PipelineSpec {
        self.keep_n = keep_n;
        self.m = m;
        self
    }

    /// Puts the pruning grid on a different subvector length than the
    /// clustering grid (VQ case B's two-grid setup).
    pub fn with_prune_d(mut self, prune_d: usize) -> PipelineSpec {
        self.prune_d = Some(prune_d);
        self
    }

    /// Overrides the scalar bit width.
    pub fn with_scalar_bits(mut self, bits: u32) -> PipelineSpec {
        self.scalar_bits = bits;
        self
    }

    /// Overrides the PQF swap budget.
    pub fn with_swap_trials(mut self, trials: usize) -> PipelineSpec {
        self.swap_trials = trials;
        self
    }

    /// Overrides the kernel strategy every algorithm dispatches to.
    pub fn with_kernel(mut self, kernel: KernelStrategy) -> PipelineSpec {
        self.kernel = kernel;
        self
    }

    /// The spec's canonical 64-bit identity, used as a component of
    /// content-addressed cache keys ([`crate::store::CacheKey`]).
    ///
    /// Every field that can change a compression result is folded in —
    /// `k`, `d`, `keep_n:m`, `prune_d`, grouping, codebook/scalar bits,
    /// `swap_trials`, and the kernel strategy — through a fixed-layout
    /// FNV-1a encoding that is independent of struct layout, so the value
    /// cannot drift silently across refactors. The pinned-value test
    /// `fingerprint_is_pinned` guards the encoding itself: changing it
    /// requires updating the pin *and* invalidates existing caches, which
    /// is exactly the visibility we want.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::store::Fnv1a::new();
        // domain separator doubles as the encoding's version stamp
        h.update(b"mvq.pipelinespec.v1");
        h.update_u64(self.k as u64);
        h.update_u64(self.d as u64);
        h.update_u64(self.keep_n as u64);
        h.update_u64(self.m as u64);
        match self.prune_d {
            None => h.update(&[0]),
            Some(p) => {
                h.update(&[1]);
                h.update_u64(p as u64);
            }
        }
        h.update(&[grouping_tag(self.grouping)]);
        match self.codebook_bits {
            None => h.update(&[0]),
            Some(b) => {
                h.update(&[1]);
                h.update_u64(b as u64);
            }
        }
        h.update_u64(self.scalar_bits as u64);
        h.update_u64(self.swap_trials as u64);
        h.update(&[kernel_tag(self.kernel)]);
        h.finish()
    }
}

/// Stable one-byte encoding of [`GroupingStrategy`] shared by the
/// fingerprint, the artifact codec and the `mvq-net` wire request.
/// Append-only: existing values must never be renumbered, or
/// fingerprints, serialized blobs and the wire drift.
pub fn grouping_tag(g: GroupingStrategy) -> u8 {
    match g {
        GroupingStrategy::KernelWise => 0,
        GroupingStrategy::OutputChannelWise => 1,
        GroupingStrategy::InputChannelWise => 2,
    }
}

/// Inverse of [`grouping_tag`].
///
/// # Errors
///
/// Returns [`MvqError::Codec`] for an unknown tag.
pub fn grouping_from_tag(tag: u8) -> Result<GroupingStrategy, MvqError> {
    match tag {
        0 => Ok(GroupingStrategy::KernelWise),
        1 => Ok(GroupingStrategy::OutputChannelWise),
        2 => Ok(GroupingStrategy::InputChannelWise),
        other => Err(MvqError::Codec(format!("unknown grouping tag {other}"))),
    }
}

/// Stable one-byte encoding of [`KernelStrategy`]; same append-only rule
/// as [`grouping_tag`]. Tags 2 and 3 belonged to the retired `Minibatch`
/// and `Simd` strategies and stay reserved (`lint.toml`'s `[retired]`
/// section), so no new strategy can alias their fingerprints or cache
/// blobs.
pub fn kernel_tag(k: KernelStrategy) -> u8 {
    match k {
        KernelStrategy::Naive => 0,
        KernelStrategy::Blocked => 1,
    }
}

/// Inverse of [`kernel_tag`], derived from it over [`KernelStrategy::ALL`]
/// so the two can never disagree. The retired tags 2 and 3 match no
/// strategy, so a peer that still sends them gets a protocol error rather
/// than another strategy.
///
/// # Errors
///
/// Returns [`MvqError::Codec`] for an unknown or retired tag.
pub fn kernel_from_tag(tag: u8) -> Result<KernelStrategy, MvqError> {
    KernelStrategy::ALL
        .into_iter()
        .find(|&k| kernel_tag(k) == tag)
        .ok_or_else(|| MvqError::Codec(format!("unknown kernel tag {tag}")))
}

/// Registry names, in canonical order.
pub const ALGORITHM_NAMES: [&str; 8] = ["mvq", "vq-a", "vq-b", "vq-c", "pqf", "bgd", "dkm", "pvq"];

/// Resolves `name` (including the `vq` alias) to its canonical `'static`
/// registry name, or `None` for unknown algorithms. Used by the artifact
/// codec and cache so string keys always live in registry-canonical form.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    if name == "vq" {
        return Some("vq-a");
    }
    ALGORITHM_NAMES.iter().find(|&&n| n == name).copied()
}

/// Builds the named compressor from `spec`.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for unknown names or spec values
/// the algorithm rejects (e.g. inconsistent N:M for MVQ).
pub fn by_name(name: &str, spec: &PipelineSpec) -> Result<Box<dyn Compressor>, MvqError> {
    let plain = |variant: VqVariant| PlainVq {
        variant,
        k: spec.k,
        d: spec.d,
        keep_n: spec.keep_n,
        m: spec.m,
        prune_d: spec.prune_d.unwrap_or(spec.d),
        grouping: spec.grouping,
        codebook_bits: spec.codebook_bits,
        kernel: spec.kernel,
    };
    Ok(match name {
        "mvq" => {
            let cfg = MvqConfig::new(spec.k, spec.d, spec.keep_n, spec.m)?
                .with_grouping(spec.grouping)
                .with_codebook_bits(spec.codebook_bits)
                .with_kernel(spec.kernel);
            Box::new(MvqCompressor::new(cfg))
        }
        "vq" | "vq-a" => Box::new(plain(VqVariant::CaseA)),
        "vq-b" => Box::new(plain(VqVariant::CaseB)),
        "vq-c" => Box::new(plain(VqVariant::CaseC)),
        "pqf" => Box::new(Pqf {
            k: spec.k,
            d: spec.d,
            swap_trials: spec.swap_trials,
            grouping: spec.grouping,
            codebook_bits: spec.codebook_bits,
            kernel: spec.kernel,
        }),
        "bgd" => Box::new(Bgd {
            k: spec.k,
            d: spec.d,
            grouping: spec.grouping,
            codebook_bits: spec.codebook_bits,
            kernel: spec.kernel,
        }),
        "dkm" => Box::new(Dkm {
            config: DkmConfig::new(spec.k).with_kernel(spec.kernel),
            d: spec.d,
            grouping: spec.grouping,
            codebook_bits: spec.codebook_bits,
        }),
        "pvq" => Box::new(Pvq { bits: spec.scalar_bits }),
        other => {
            return Err(MvqError::InvalidConfig(format!(
                "unknown compressor `{other}` (known: {})",
                ALGORITHM_NAMES.join(", ")
            )))
        }
    })
}

/// Every registered algorithm built from `spec`, in canonical order.
///
/// # Errors
///
/// Propagates [`by_name`] errors for spec values an algorithm rejects.
pub fn registry_with(spec: &PipelineSpec) -> Result<Vec<Box<dyn Compressor>>, MvqError> {
    ALGORITHM_NAMES.iter().map(|name| by_name(name, spec)).collect()
}

/// Every registered algorithm with the default [`PipelineSpec`].
pub fn registry() -> Vec<Box<dyn Compressor>> {
    registry_with(&PipelineSpec::default()).expect("default spec is valid for every algorithm")
}

fn bits_label(bits: Option<u32>) -> String {
    bits.map_or_else(|| "fp32".to_string(), |b| format!("int{b}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvq_nn::models::tiny_cnn;

    #[test]
    fn registry_has_all_algorithms() {
        let names: Vec<&str> = registry().iter().map(|c| c.name()).collect();
        assert_eq!(names, ALGORITHM_NAMES.to_vec());
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("vqgan", &PipelineSpec::default()).is_err());
    }

    #[test]
    fn vq_alias_resolves_to_case_a() {
        let c = by_name("vq", &PipelineSpec::default()).unwrap();
        assert_eq!(c.name(), "vq-a");
    }

    #[test]
    fn config_summaries_are_nonempty() {
        for comp in registry() {
            assert!(!comp.config_summary().is_empty(), "{}", comp.name());
        }
    }

    #[test]
    fn case_b_two_grid_prunes_before_clustering() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
        let two_grid = PlainVq {
            variant: VqVariant::CaseB,
            k: 8,
            d: 8,
            keep_n: 4,
            m: 16,
            prune_d: 16,
            grouping: GroupingStrategy::OutputChannelWise,
            codebook_bits: None,
            kernel: KernelStrategy::default(),
        };
        let artifact = two_grid.compress_matrix(&w, &mut rng).unwrap();
        assert_eq!(artifact.reconstruct().unwrap().dims(), w.dims());
        // dense decode: mask not stored
        assert_eq!(artifact.storage().mask_bits, 0);
    }

    #[test]
    fn case_c_rejects_two_grid() {
        let c = PlainVq {
            variant: VqVariant::CaseC,
            k: 8,
            d: 8,
            keep_n: 4,
            m: 16,
            prune_d: 16,
            grouping: GroupingStrategy::OutputChannelWise,
            codebook_bits: None,
            kernel: KernelStrategy::default(),
        };
        let mut rng = StdRng::seed_from_u64(1);
        let w = mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
        assert!(c.compress_matrix(&w, &mut rng).is_err());
    }

    #[test]
    fn compress_model_skips_depthwise_except_pvq() {
        // mobilenet-style separable convs: depthwise layers are skipped by
        // codebook methods but quantized by pvq
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = mvq_nn::models::mobilenet_v1_lite(4, &mut rng);
        let spec = PipelineSpec { k: 8, keep_n: 8, ..PipelineSpec::default() };
        let mvq = by_name("mvq", &spec).unwrap();
        let arts = mvq.compress_model(&mut model, &mut rng).unwrap();
        assert!(!arts.skipped.is_empty(), "depthwise convs should be skipped");
        let mut model2 = mvq_nn::models::mobilenet_v1_lite(4, &mut StdRng::seed_from_u64(2));
        let pvq = by_name("pvq", &spec).unwrap();
        let arts2 = pvq.compress_model(&mut model2, &mut rng).unwrap();
        assert!(arts2.skipped.is_empty(), "pvq quantizes every conv");
        assert!(arts2.layers.len() > arts.layers.len());
    }

    #[test]
    fn no_compressible_layer_error_reports_the_skipped_indices() {
        // satellite regression (diagnosability): an all-depthwise model
        // used to fail with a bare "no conv layer compressible", leaving a
        // service log with no way to tell *why* every layer was rejected
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = mvq_nn::models::mobilenet_v1_lite(4, &mut rng);
        // zero the non-depthwise convs so every layer is skipped (dead or
        // depthwise) and nothing compresses
        model.visit_convs_mut(&mut |conv| {
            if !conv.is_depthwise() {
                for v in conv.weight.value.data_mut() {
                    *v = 0.0;
                }
            }
        });
        let spec = PipelineSpec { k: 8, keep_n: 8, ..PipelineSpec::default() };
        let mvq = by_name("mvq", &spec).unwrap();
        let err = mvq.compress_model_artifacts(&model, &mut rng).unwrap_err();
        let msg = err.to_string();
        let n = model.num_convs();
        assert!(
            msg.contains(&format!("{n} conv(s) skipped")),
            "skipped count missing from `{msg}`"
        );
        assert!(msg.contains("0,"), "skipped index list missing from `{msg}`");
    }

    /// `stream.rs` draws "the same draws `compress_model_with` makes": one
    /// `next_u64` per conv, skipped and failed convs included, so on every
    /// path the caller's `rng` ends `num_convs()` draws past its seed.
    #[test]
    fn model_walk_draws_one_seed_per_conv_on_every_path() {
        let mut model = mvq_nn::models::mobilenet_v1_lite(4, &mut StdRng::seed_from_u64(5));
        let n = model.num_convs();
        let spec = PipelineSpec { k: 8, keep_n: 8, scalar_bits: 1, ..PipelineSpec::default() };
        // (dense convs zeroed, algorithm, error): 1-bit pvq fails past the zero stem
        let cases = [(1, "mvq", ""), (1, "pvq", "bits must be in 2..=16"), (n, "mvq", "skipped")];
        for (zeroed, algo, fails_with) in cases {
            let mut dense = 0;
            model.visit_convs_mut(&mut |conv| {
                if !conv.is_depthwise() && dense < zeroed {
                    dense += 1;
                    conv.weight.value.data_mut().fill(0.0);
                }
            });
            let (mut rng, mut fresh) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            let out = by_name(algo, &spec).unwrap().compress_model_artifacts(&model, &mut rng);
            let _: Vec<u64> = (0..n).map(|_| fresh.next_u64()).collect();
            assert_eq!(rng, fresh, "`{algo}` left the caller's rng elsewhere ({fails_with})");
            match out {
                Ok(arts) => assert!(fails_with.is_empty() && arts.skipped.len() > 1, "{arts:?}"),
                Err(e) => assert!(!fails_with.is_empty() && e.to_string().contains(fails_with)),
            }
        }
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The canonical encoding behind cache keys. If this test fails you
        // changed the fingerprint layout: update the pin *and* treat every
        // existing artifact cache as invalidated (the domain separator in
        // `fingerprint()` should be bumped alongside). Appending a new
        // kernel tag must NOT move this pin — that is the append-only
        // guarantee.
        assert_eq!(PipelineSpec::default().fingerprint(), 6959797930409263823);
    }

    #[test]
    fn fingerprint_covers_every_compression_relevant_field() {
        let base = PipelineSpec::default();
        let variants = [
            base.clone().with_k(65),
            base.clone().with_d(8),
            base.clone().with_nm(2, 16),
            base.clone().with_nm(4, 8),
            base.clone().with_prune_d(8),
            PipelineSpec { grouping: GroupingStrategy::KernelWise, ..base.clone() },
            PipelineSpec { codebook_bits: None, ..base.clone() },
            PipelineSpec { codebook_bits: Some(4), ..base.clone() },
            base.clone().with_scalar_bits(4),
            base.clone().with_swap_trials(999),
            base.clone().with_kernel(KernelStrategy::Naive),
        ];
        let mut seen = vec![base.fingerprint()];
        for (i, v) in variants.iter().enumerate() {
            let fp = v.fingerprint();
            assert!(!seen.contains(&fp), "variant {i} collides with an earlier fingerprint");
            seen.push(fp);
        }
        // equal specs agree
        assert_eq!(base.fingerprint(), PipelineSpec::default().fingerprint());
        // prune_d: None and Some(d) are distinct identities even though
        // they behave the same for case B — the fingerprint is structural
        assert_ne!(base.fingerprint(), base.clone().with_prune_d(base.d).fingerprint());
    }

    #[test]
    fn canonical_name_resolves_aliases_and_rejects_unknowns() {
        assert_eq!(canonical_name("vq"), Some("vq-a"));
        for name in ALGORITHM_NAMES {
            assert_eq!(canonical_name(name), Some(name));
        }
        assert_eq!(canonical_name("vqgan"), None);
    }

    /// MVQ on a fresh seeded tiny CNN in either clustering scope.
    fn compress_tiny(crosslayer: bool, cfg: MvqConfig, seed: u64) -> ModelArtifacts {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = tiny_cnn(4, 8, &mut rng);
        let comp = MvqCompressor::new(cfg);
        let artifacts = if crosslayer {
            comp.compress_model_crosslayer(&mut model, &mut rng)
        } else {
            comp.compress_model(&mut model, &mut rng)
        };
        artifacts.unwrap()
    }

    fn cfg(k: usize) -> MvqConfig {
        MvqConfig::new(k, 16, 4, 16).unwrap()
    }

    #[test]
    fn crosslayer_shares_one_codebook() {
        let cl = compress_tiny(true, cfg(8), 1);
        assert_eq!(cl.layers.len(), 2);
        assert!(cl.layers.iter().all(|l| l.artifact.mask().is_some()));
        assert_eq!(cl.codebook_groups(), vec![vec![0, 1]]);
        assert_eq!(compress_tiny(false, cfg(8), 1).codebook_groups(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn crosslayer_codebook_counted_once_in_storage() {
        let lw = compress_tiny(false, cfg(8), 2);
        let cl = compress_tiny(true, cfg(8), 2);
        let shared = cl.layers[0].artifact.codebook().unwrap();
        assert_eq!(cl.storage().codebook_bits, shared.storage_bits());
        assert!(cl.storage().codebook_bits < lw.storage().codebook_bits);
        assert_eq!(cl.storage().assignment_bits, lw.storage().assignment_bits);
    }

    #[test]
    fn blocked_kernel_matches_naive_in_both_scopes() {
        for crosslayer in [false, true] {
            let run = |kernel| {
                compress_tiny(crosslayer, cfg(8).with_kernel(kernel), 31).fingerprint().unwrap()
            };
            assert_eq!(run(KernelStrategy::Naive), run(KernelStrategy::Blocked), "{crosslayer}");
        }
    }

    #[test]
    fn total_masked_sse_is_measured_against_the_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = tiny_cnn(4, 8, &mut rng);
        let reference = model.clone();
        let arts = MvqCompressor::new(cfg(16)).compress_model(&mut model, &mut rng).unwrap();
        let sse = arts.total_masked_sse(&reference).unwrap();
        assert!(sse.is_finite() && sse > 0.0, "{sse}");
        // against the reconstructed model the SSE is ~0
        let sse_self = arts.total_masked_sse(&model).unwrap();
        assert!(sse_self < 1e-6, "self-SSE {sse_self}");
        let vq = by_name("vq-a", &PipelineSpec::default().with_k(8)).unwrap();
        let dense = vq.compress_model_artifacts(&reference, &mut rng).unwrap();
        assert!(matches!(dense.total_masked_sse(&reference), Err(MvqError::InvalidConfig(_))));
    }

    #[test]
    fn model_artifacts_storage_merges_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = tiny_cnn(4, 8, &mut rng);
        let comp = by_name("mvq", &PipelineSpec { k: 8, ..PipelineSpec::default() }).unwrap();
        let arts = comp.compress_model(&mut model, &mut rng).unwrap();
        let merged = arts.storage();
        let sum: u64 = arts.layers.iter().map(|l| l.artifact.storage().compressed_bits()).sum();
        assert_eq!(merged.compressed_bits(), sum);
        assert!(arts.compression_ratio() > 1.0);
    }
}
