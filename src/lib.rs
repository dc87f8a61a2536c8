//! # MVQ — Masked Vector Quantization
//!
//! An open-source Rust reproduction of *"MVQ: Towards Efficient DNN
//! Compression and Acceleration with Masked Vector Quantization"*
//! (Li, Wang, et al., ASPLOS 2025).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`tensor`] — minimal n-d `f32` tensor library (GEMM, im2col, int8 quant)
//! * [`nn`] — CNN substrate: layers with backprop, optimizers, a model zoo
//!   (ResNet-18/50-lite, VGG-16-lite, AlexNet-lite, MobileNet-v1/v2-lite,
//!   EfficientNet-lite, DeepLab-lite) and synthetic datasets
//! * [`core`] — the paper's contribution: N:M pruning, masked k-means,
//!   codebook quantization, masked-gradient fine-tuning, plus the VQ
//!   baselines (plain VQ, PQF, BGD, DKM, PvQ), all unified behind the
//!   [`core::Compressor`] trait and the string-keyed
//!   [`core::pipeline::registry`]
//! * [`accel`] — the EWS systolic-array accelerator simulator (six hardware
//!   settings, energy/area/performance models, roofline)
//! * [`serve`] — the compression service: a ticket-based request API
//!   ([`serve::CompressionRequest`] → [`serve::Ticket`]) over a
//!   worker-thread pool with bounded-queue admission control and per-job
//!   error isolation, backed by versioned artifact serialization
//!   ([`core::store`]) in a content-addressed, byte-budgeted LRU cache;
//!   one request type covers single matrices and streamed whole models
//! * [`net`] — the service on the wire: a length-prefixed TCP protocol
//!   ([`net::NetServer`] / [`net::NetClient`]) with per-request
//!   deadlines, client-disconnect cancellation, and graceful drain,
//!   framing every message with the store codec so cache blobs serve
//!   zero-copy
//! * [`obs`] — the observability layer: a lock-cheap metrics registry
//!   (counters, gauges, log-scale latency histograms under a pinned
//!   name scheme) plus job-lifecycle span tracing, shared by the
//!   cache, service, and network front and queryable live over the
//!   wire (`paper stats`)
//!
//! ## Quickstart
//!
//! Every algorithm — MVQ and all five baselines — implements
//! [`core::Compressor`] and produces a [`core::CompressedArtifact`] with
//! the same `reconstruct` / `storage` / `compression_ratio` surface:
//!
//! ```
//! use mvq::core::pipeline::{by_name, PipelineSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A weight matrix of 128 subvectors of length 16.
//! let mut rng = StdRng::seed_from_u64(0);
//! let w = mvq::tensor::kaiming_normal(vec![128, 16], 16, &mut rng);
//!
//! // Compress with 4:16 pruning and a 32-codeword masked-k-means codebook.
//! let spec = PipelineSpec::default().with_k(32);
//! let mvq = by_name("mvq", &spec)?;
//! let compressed = mvq.compress_matrix(&w, &mut rng)?;
//! let reconstructed = compressed.reconstruct()?;
//! assert_eq!(reconstructed.dims(), w.dims());
//! println!("compression ratio: {:.1}x", compressed.compression_ratio());
//!
//! // Or sweep every registered algorithm from one loop:
//! for comp in mvq::core::pipeline::registry() {
//!     let artifact = comp.compress_matrix(&w, &mut rng)?;
//!     println!("{:6} {:.1}x", comp.name(), artifact.compression_ratio());
//! }
//! # Ok::<(), mvq::core::MvqError>(())
//! ```
//!
//! Whole models compress the same way ([`core::Compressor::compress_model`]
//! walks a network's convs in order with per-layer seeded RNGs, one
//! codebook per layer), and
//! [`core::MvqCompressor::compress_model_crosslayer`] clusters every layer
//! against one shared codebook instead.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub use mvq_accel as accel;
pub use mvq_core as core;
pub use mvq_net as net;
pub use mvq_nn as nn;
pub use mvq_obs as obs;
pub use mvq_serve as serve;
pub use mvq_tensor as tensor;
