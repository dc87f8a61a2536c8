//! # mvq-core — Masked Vector Quantization
//!
//! The paper's primary contribution (§4): a DNN weight-compression pipeline
//! that (1) groups weights into subvectors, (2) removes unimportant weights
//! with N:M pruning, (3) clusters the survivors with a *masked k-means*
//! whose assignment distances and centroid updates ignore pruned lanes,
//! (4) quantizes the codebook to int8 with an LSQ-learned scale, and
//! (5) fine-tunes codewords with masked gradients (Eq. 6).
//!
//! Also included: the VQ baselines the paper compares against (plain VQ
//! cases A/B/C of the ablation, PQF, BGD, DKM, PvQ) and the storage/FLOPs
//! metrics of Eq. 7. All algorithms — MVQ and every baseline — implement
//! the [`Compressor`] trait and are reachable by name through
//! [`pipeline::registry`], so benchmarks and tools dispatch them from one
//! loop.
//!
//! ## Kernel strategies and the naive-as-oracle convention
//!
//! The distance/assignment hot loops inside every clustering algorithm
//! dispatch through [`kernels`], selected by a [`KernelStrategy`] knob on
//! [`PipelineSpec`], the one set of hyperparameters every registry
//! algorithm reads (and on [`KmeansConfig`] for direct clustering calls):
//!
//! * `Naive` — the per-row reference kernels. These are the **oracle**:
//!   deliberately simple, fixed left-to-right accumulation, no tricks.
//! * `Blocked` (default) — center-major, LUT-masked kernels vectorized
//!   across codewords (run-time-detected AVX2 instantiation) that are
//!   **bit-identical** to the oracle: same assignments, 0-ULP-identical
//!   SSE, hence identical artifacts for every registry algorithm.
//!
//! Every k-means loop is full-batch, as in the paper. The testing
//! convention: **a new kernel must not be dispatched from the registry
//! until the differential oracle harness ([`differential`], driven by
//! `tests/properties.rs`) proves it against the naive oracle** over ≥ 256
//! randomized shapes/masks/seeds — exact assignment equality plus 0-ULP
//! SSE — and `tests/conformance.rs` shows matching registry artifacts, in
//! debug *and* `--release` builds (plus CI's `target-cpu=native` leg),
//! since optimization- and target-feature-dependent reassociation is
//! exactly the class of bug this harness exists to catch. A future
//! reassociating kernel (FMA, say) re-adds its own contract tier with a
//! newly appended tag pin.
//!
//! ## Durable artifacts and the serve layer
//!
//! [`store`] gives every artifact kind a versioned, checksummed binary
//! form ([`store::Persist`]: `to_bytes`/`from_bytes`, 0-ULP-identical on
//! decode) and a content-addressed [`store::ArtifactCache`] under one
//! lock, keyed by weight hash + [`PipelineSpec::fingerprint`] +
//! algorithm + kernel + seed. Blobs are validated once at admission and
//! served zero-copy as shared bytes; byte budgets ([`store::CacheBudget`])
//! are enforced by evict-then-insert LRU admission, so footprints never
//! exceed their caps. The `mvq-serve` crate builds the ticket-based
//! compression service on top. Bump [`store::FORMAT_VERSION`] on any
//! layout change and keep a decode test for the old version.
//!
//! ## Streaming model compression
//!
//! [`stream`] compresses whole models without materializing them:
//! [`stream_compress`] pulls layers one at a time from a [`LayerStream`]
//! into a bounded window ([`StreamConfig`]: max in-flight layers ×
//! bytes), compresses them on worker threads through any registry
//! [`Compressor`], and spills each finished layer to the cache as its
//! own blob under [`store::CacheKey::layer_key`], with a
//! [`store::ModelIndex`] stored under the model key.
//! [`load_streamed_model`] reassembles the [`ModelArtifacts`], which are
//! **bit-identical** to the in-memory
//! [`Compressor::compress_model_artifacts`] path for every registry
//! algorithm — the in-memory path is the streaming path's oracle.
//! Per-layer progress is observable through a [`ProgressHandle`].
//!
//! ## Quick example
//!
//! ```
//! use mvq_core::pipeline::{by_name, PipelineSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let weights = mvq_tensor::kaiming_normal(vec![256, 16], 16, &mut rng);
//! // k=64, d=16, 4:16 pruning — the paper's ResNet operating point
//! let mvq = by_name("mvq", &PipelineSpec::default())?;
//! let compressed = mvq.compress_matrix(&weights, &mut rng)?;
//! let w_hat = compressed.reconstruct()?;
//! // pruned positions are exactly zero
//! assert!(w_hat.sparsity() >= 0.74);
//! assert!(compressed.compression_ratio() > 10.0);
//! # Ok::<(), mvq_core::MvqError>(())
//! ```

// Indexed loops are the clearer idiom for the numeric kernels here.
#![allow(clippy::needless_range_loop)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod baselines;

mod codebook;
mod compress;
pub mod differential;
mod error;
pub mod experiments;
mod finetune;
mod grouping;
pub mod kernels;
mod kmeans;
mod mask;
mod mask_lut;
mod masked_kmeans;
mod metrics;
mod mixed_nm;
pub mod pipeline;
mod pruning;
pub mod store;
pub mod stream;

pub use codebook::{Assignments, Codebook};
pub use compress::{CompressedMatrix, MvqCompressor};
pub use error::MvqError;
pub use finetune::{finetune_codebooks, CodebookFinetuneConfig};
pub use grouping::GroupingStrategy;
pub use kernels::{
    dense_assign_naive, dense_assign_with, dispatched_backend, masked_assign_with, masked_sse_with,
    KernelStrategy, MaskedDistancePlan,
};
pub use kmeans::{kmeans, KmeansConfig, KmeansResult};
pub use mask::NmMask;
pub use mask_lut::MaskLut;
pub use masked_kmeans::{masked_assign_naive, masked_kmeans, masked_sse};
pub use metrics::{mvq_compression_ratio, vq_compression_ratio, StorageBreakdown};
pub use mixed_nm::{search_mixed_nm, LayerPattern, MixedNmPlan};
pub use pipeline::{CompressedArtifact, Compressor, LayerArtifact, ModelArtifacts, PipelineSpec};
pub use pruning::{
    prune_matrix_nm, prune_model, sparse_finetune, PruneMethod, SparseFinetuneConfig,
};
pub use store::{weight_hash, ArtifactCache, CacheBudget, CacheKey, CacheStats, Persist};
pub use stream::{
    load_streamed_model, model_cache_key, model_weight_hash, stream_compress,
    stream_compress_model, LayerMeta, LayerStream, ModelLayerStream, Progress, ProgressHandle,
    StreamConfig, StreamReport,
};
