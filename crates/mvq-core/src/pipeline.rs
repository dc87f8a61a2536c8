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
use crate::baselines::pvq::{check_bits, pvq_quantize, PvqResult};
use crate::baselines::vq_plain::{vq_case_a, vq_case_b, vq_case_c, DenseVq};
use crate::codebook::{Assignments, Codebook};
use crate::compress::{CompressedMatrix, MvqCompressor};
use crate::error::MvqError;
use crate::grouping::GroupingStrategy;
use crate::kernels::KernelStrategy;
use crate::mask::{validate_nm, NmMask};
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
    /// quantization (`pvq`) does not. Both model paths read it:
    /// [`Compressor::compress_model_artifacts`] and the streaming pipeline
    /// (`crate::stream`), so their skip decisions agree bit-identically.
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

    /// Compresses every compatible conv of `model` from a borrow of its
    /// weight, without touching it: skips depthwise convs (when
    /// [`Compressor::skips_depthwise`]), shapes the grouping rejects, and
    /// dead (all-zero) layers. Layers are compressed serially, each with an
    /// RNG seeded from one `rng` draw per conv, so results are deterministic
    /// and `rng` advances [`Sequential::num_convs`] times, failures included
    /// (the first error is returned after the walk).
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
            if (self.skips_depthwise() && conv.is_depthwise()) || w.data().iter().all(|&x| x == 0.0)
            {
                skipped.push(conv_index);
                return;
            }
            match self.compress_matrix(w, &mut StdRng::seed_from_u64(seed)) {
                Ok(artifact) => layers.push(LayerArtifact { conv_index, artifact }),
                Err(MvqError::IncompatibleShape { .. }) => skipped.push(conv_index),
                Err(e) => failure = Err(e),
            }
        });
        failure?;
        if layers.is_empty() {
            return Err(no_compressible_layer_error(self.name(), &skipped));
        }
        Ok(ModelArtifacts { algorithm: self.name(), layers, skipped })
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
        let s = self.spec();
        format!("k={} d={} {}:{} {}", s.k, s.d, s.keep_n, s.m, codebook_summary(s))
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
        let spec = self.spec();
        let mut eligible: Vec<(usize, Tensor, NmMask, Vec<usize>)> = Vec::new();
        let mut skipped = Vec::new();
        let mut failure = Ok(());
        model.visit_convs(&mut |conv| {
            if failure.is_err() {
                return;
            }
            let idx = eligible.len() + skipped.len();
            let w = &conv.weight.value;
            if conv.is_depthwise() || w.data().iter().all(|&x| x == 0.0) {
                skipped.push(idx);
                return;
            }
            let pruned = spec
                .grouping
                .group(w, spec.d)
                .and_then(|grouped| prune_matrix_nm(&grouped, spec.keep_n, spec.m));
            match pruned {
                Ok((pruned, mask)) => eligible.push((idx, pruned, mask, w.dims().to_vec())),
                Err(MvqError::IncompatibleShape { .. }) => skipped.push(idx),
                Err(e) => failure = Err(e),
            }
        });
        failure?;
        if eligible.is_empty() {
            return Err(no_compressible_layer_error(self.name(), &skipped));
        }
        let total_ng: usize = eligible.iter().map(|(_, _, mask, _)| mask.ng()).sum();
        let mut data = Vec::with_capacity(total_ng * spec.d);
        let mut bits = Vec::with_capacity(total_ng * spec.d);
        for (_, pruned, mask, _) in &eligible {
            data.extend_from_slice(pruned.data());
            bits.extend_from_slice(mask.bits());
        }
        let all = Tensor::from_vec(vec![total_ng, spec.d], data)?;
        let all_mask = NmMask::from_bits(total_ng, spec.d, spec.keep_n, spec.m, bits)?;
        let mut res = masked_kmeans(&all, &all_mask, &self.kmeans(), rng)?;
        if let Some(b) = spec.codebook_bits {
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
                spec.grouping,
            )?;
            layers.push(LayerArtifact { conv_index, artifact: CompressedArtifact::Masked(matrix) });
        }
        let artifacts = ModelArtifacts { algorithm: self.name(), layers, skipped };
        artifacts.apply_to(model)?;
        Ok(artifacts)
    }
}

/// Every registry algorithm but `mvq`: the VQ ablation arms `vq-a/b/c`
/// (paper Fig. 12), `pqf`, `bgd`, `dkm` and `pvq`, told apart by their
/// canonical name. Each reads its hyperparameters from the one spec.
#[derive(Debug, Clone)]
struct Baseline {
    name: &'static str,
    spec: PipelineSpec,
}

impl Compressor for Baseline {
    fn name(&self) -> &'static str {
        self.name
    }

    fn config_summary(&self) -> String {
        let s = &self.spec;
        let tail = codebook_summary(s);
        match self.name {
            "vq-a" => format!("k={} d={} {tail}", s.k, s.d),
            "vq-b" | "vq-c" => format!(
                "k={} d={} {}:{} (pruned at d={}) {tail}",
                s.k,
                s.d,
                s.keep_n,
                s.m,
                s.prune_d.unwrap_or(s.d)
            ),
            "pqf" => format!("k={} d={} swaps={} {tail}", s.k, s.d, s.swap_trials),
            "bgd" => format!("k={} d={} {tail} importance=norm2", s.k, s.d),
            "dkm" => {
                let c = DkmConfig::new(s.k);
                let (tau, anneal, iters) = (c.temperature, c.anneal, c.iters);
                format!("k={} d={} tau={tau} anneal={anneal} iters={iters} {tail}", s.k, s.d)
            }
            _ => format!("bits={}", s.scalar_bits),
        }
    }

    fn skips_depthwise(&self) -> bool {
        // scalar quantization has no shape constraints
        self.name != "pvq"
    }

    fn compress_matrix(
        &self,
        weight: &Tensor,
        rng: &mut StdRng,
    ) -> Result<CompressedArtifact, MvqError> {
        let s = &self.spec;
        match self.name {
            "vq-a" => vq_case_a(weight, s, rng).map(CompressedArtifact::Dense),
            "vq-b" => vq_case_b(weight, s, rng).map(CompressedArtifact::Dense),
            "vq-c" => vq_case_c(weight, s, rng).map(CompressedArtifact::Masked),
            "pqf" => pqf_compress(weight, s, rng).map(CompressedArtifact::Permuted),
            "bgd" => bgd_compress(weight, s, None, rng).map(CompressedArtifact::Dense),
            "dkm" => dkm_compress(weight, s, rng).map(CompressedArtifact::Dense),
            _ => pvq_quantize(weight, s.scalar_bits)
                .map(|result| CompressedArtifact::Scalar(ScalarQuantized { result })),
        }
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

/// Rejects spec values the named (canonical) algorithm cannot run, so a
/// bad spec fails when its compressor is built, not inside a worker. The
/// rules are listed on [`by_name`]; an algorithm that ignores a field does
/// not check it.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] naming the offending value.
pub(crate) fn check_spec(name: &str, spec: &PipelineSpec) -> Result<(), MvqError> {
    if name == "pvq" {
        return check_bits(spec.scalar_bits);
    }
    if spec.k == 0 {
        return Err(MvqError::InvalidConfig("k must be positive".into()));
    }
    match name {
        "mvq" => validate_nm(spec.d, spec.keep_n, spec.m),
        "vq-b" => validate_nm(spec.prune_d.unwrap_or(spec.d), spec.keep_n, spec.m),
        "vq-c" if spec.prune_d.is_some_and(|p| p != spec.d) => Err(MvqError::InvalidConfig(
            "case C stores the mask on the clustering grid; prune_d must equal d".into(),
        )),
        "vq-c" => validate_nm(spec.d, spec.keep_n, spec.m),
        _ => Ok(()),
    }
}

/// Builds the named compressor from `spec`.
///
/// # Errors
///
/// Returns [`MvqError::InvalidConfig`] for unknown names and for spec
/// values the algorithm cannot run: `k == 0` for a codebook algorithm, an
/// N:M pattern off its pruning grid (`mvq`, `vq-c`, and `vq-b` on
/// `prune_d`), a `vq-c` `prune_d` other than `d`, or a `pvq` bit width
/// outside `2..=16`.
pub fn by_name(name: &str, spec: &PipelineSpec) -> Result<Box<dyn Compressor>, MvqError> {
    let name = canonical_name(name).ok_or_else(|| {
        MvqError::InvalidConfig(format!(
            "unknown compressor `{name}` (known: {})",
            ALGORITHM_NAMES.join(", ")
        ))
    })?;
    if name == "mvq" {
        return Ok(Box::new(MvqCompressor::new(spec.clone())?));
    }
    check_spec(name, spec)?;
    Ok(Box::new(Baseline { name, spec: spec.clone() }))
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

/// The `grouping=… codebook=…` tail every codebook summary ends with.
fn codebook_summary(spec: &PipelineSpec) -> String {
    let bits = spec.codebook_bits.map_or_else(|| "fp32".to_string(), |b| format!("int{b}"));
    format!("grouping={} codebook={bits}", spec.grouping.name())
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
    fn config_summaries_are_pinned() {
        let tail = "grouping=output-wise codebook=int8";
        let pinned = [
            format!("k=64 d=16 4:16 {tail}"),
            format!("k=64 d=16 {tail}"),
            format!("k=64 d=16 4:16 (pruned at d=16) {tail}"),
            format!("k=64 d=16 4:16 (pruned at d=16) {tail}"),
            format!("k=64 d=16 swaps=1000 {tail}"),
            format!("k=64 d=16 {tail} importance=norm2"),
            format!("k=64 d=16 tau=1 anneal=0.9 iters=30 {tail}"),
            "bits=2".to_string(),
        ];
        let summaries: Vec<String> = registry().iter().map(|c| c.config_summary()).collect();
        assert_eq!(summaries, pinned);
        // Table 3's case B: clusters at d=8, prunes 4:16 on the d=16 grid
        let two_grid = PipelineSpec::default().with_k(128).with_d(8).with_prune_d(16);
        let summary = by_name("vq-b", &two_grid).unwrap().config_summary();
        assert_eq!(summary, format!("k=128 d=8 4:16 (pruned at d=16) {tail}"));
    }

    /// Table 3's two-grid shape: cluster at d=8, prune 4:16 on the d=16 grid.
    fn two_grid() -> PipelineSpec {
        PipelineSpec { k: 8, d: 8, prune_d: Some(16), codebook_bits: None, ..Default::default() }
    }

    #[test]
    fn case_b_two_grid_prunes_before_clustering() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = mvq_tensor::kaiming_normal(vec![32, 16], 16, &mut rng);
        let artifact = by_name("vq-b", &two_grid()).unwrap().compress_matrix(&w, &mut rng).unwrap();
        assert_eq!(artifact.reconstruct().unwrap().dims(), w.dims());
        // dense decode: mask not stored
        assert_eq!(artifact.storage().mask_bits, 0);
    }

    #[test]
    fn case_c_rejects_two_grid() {
        let err = by_name("vq-c", &two_grid()).err().expect("two-grid case C must not build");
        assert!(err.to_string().contains("prune_d must equal d"), "{err}");
    }

    #[test]
    fn by_name_rejects_what_each_algorithm_cannot_run() {
        let base = PipelineSpec::default();
        let rejected = [
            ("mvq", base.clone().with_k(0)),
            ("dkm", base.clone().with_k(0)),
            ("mvq", base.clone().with_nm(4, 12)),
            ("vq-b", base.clone().with_prune_d(8)),
            ("vq-c", base.clone().with_nm(17, 16)),
            ("vq-c", base.clone().with_prune_d(8)),
            ("pvq", base.clone().with_scalar_bits(1)),
            ("pvq", base.clone().with_scalar_bits(17)),
        ];
        for (name, spec) in rejected {
            assert!(matches!(by_name(name, &spec), Err(MvqError::InvalidConfig(_))), "{name}");
        }
        // fields an algorithm ignores are not checked: Table 3's `vq-a` arm
        // clusters at d=8 under a 4:16 spec, `pvq` has no codebook
        let accepted = [("vq-a", base.clone().with_d(8)), ("pvq", base.clone().with_k(0))];
        for (name, spec) in accepted {
            assert!(by_name(name, &spec).is_ok(), "{name}");
        }
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

    /// `stream.rs` draws "the same draws `compress_model_artifacts` makes": one
    /// `next_u64` per conv, skipped and failed convs included, so on every
    /// path the caller's `rng` ends `num_convs()` draws past its seed.
    /// A compressor whose every layer fails with a non-shape error.
    struct Failing;

    impl Compressor for Failing {
        fn name(&self) -> &'static str {
            "failing"
        }

        fn config_summary(&self) -> String {
            String::new()
        }

        fn compress_matrix(
            &self,
            _: &Tensor,
            _: &mut StdRng,
        ) -> Result<CompressedArtifact, MvqError> {
            Err(MvqError::InvalidConfig("injected failure".into()))
        }
    }

    #[test]
    fn model_walk_draws_one_seed_per_conv_on_every_path() {
        let mut model = mvq_nn::models::mobilenet_v1_lite(4, &mut StdRng::seed_from_u64(5));
        let n = model.num_convs();
        let mvq = by_name("mvq", &PipelineSpec { k: 8, keep_n: 8, ..PipelineSpec::default() });
        let (mvq, failing): (_, Box<dyn Compressor>) = (mvq.unwrap(), Box::new(Failing));
        // (dense convs zeroed, compressor, error): `failing` fails past the zero stem
        let cases = [(1, &mvq, ""), (1, &failing, "injected failure"), (n, &mvq, "skipped")];
        for (zeroed, comp, fails_with) in cases {
            let algo = comp.name();
            let mut dense = 0;
            model.visit_convs_mut(&mut |conv| {
                if !conv.is_depthwise() && dense < zeroed {
                    dense += 1;
                    conv.weight.value.data_mut().fill(0.0);
                }
            });
            let (mut rng, mut fresh) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            let out = comp.compress_model_artifacts(&model, &mut rng);
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
    fn compress_tiny(crosslayer: bool, spec: PipelineSpec, seed: u64) -> ModelArtifacts {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = tiny_cnn(4, 8, &mut rng);
        let comp = MvqCompressor::new(spec).unwrap();
        let artifacts = if crosslayer {
            comp.compress_model_crosslayer(&mut model, &mut rng)
        } else {
            comp.compress_model(&mut model, &mut rng)
        };
        artifacts.unwrap()
    }

    fn cfg(k: usize) -> PipelineSpec {
        PipelineSpec::default().with_k(k)
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
        let arts =
            MvqCompressor::new(cfg(16)).unwrap().compress_model(&mut model, &mut rng).unwrap();
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
